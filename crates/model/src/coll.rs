//! The learned collective-algorithm choice: which collectives learn,
//! how their operations are classed, and the grid of two-armed bandits
//! (arm 0 = the classic fixed algorithm, arm 1 = the alternate family)
//! that decides one cell each.
//!
//! The grid is universe-global, not per pair: a collective involves a
//! whole group. How the members of one operation come to agree on the
//! arm differs per stack and stays there (a `(group id, sequence)` memo
//! on the simulator, a one-byte broadcast from the root on real
//! threads).

use crate::bandit::Bandit;
use crate::ewma::log2_class;

/// The collective operations whose algorithm choice is learned. Each
/// gets its own bandit cells: a group size where the chain bcast wins
/// says nothing about the scattered alltoall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    Bcast,
    Reduce,
    Allgather,
    Alltoall,
}

impl CollKind {
    /// Stable code (snapshot lines and cell indexing).
    pub fn code(self) -> usize {
        match self {
            CollKind::Bcast => 0,
            CollKind::Reduce => 1,
            CollKind::Allgather => 2,
            CollKind::Alltoall => 3,
        }
    }
}

/// Number of learned collective kinds.
const COLL_KINDS: usize = 4;
/// Algorithm arms per collective.
pub const COLL_ARMS: usize = 2;
/// Group-size classes: 2, 3–4, 5–8, 9+ members. Algorithm crossovers
/// move with the participant count (a chain bcast amortizes its
/// pipeline fill over long chains; log-round exchanges only beat the
/// ring once the ring is long), so the cells split on it.
const COLL_GCLASSES: usize = 4;
/// Message classes start at 2^10 (collectives run far below the
/// rendezvous switchover too — a 1-byte barrier token and a 1 MiB bcast
/// must not share a cell) and clamp at 2^17 and up.
const COLL_CLASS_BASE: u32 = 10;
const COLL_MCLASSES: usize = 8;
/// Cells in a [`CollGrid`].
pub const COLL_SLOTS: usize = COLL_KINDS * COLL_GCLASSES * COLL_MCLASSES;

const BOTH: [bool; COLL_ARMS] = [true; COLL_ARMS];

/// The group-size class of a member count.
pub fn gclass_of(n: usize) -> usize {
    match n {
        0..=2 => 0,
        3..=4 => 1,
        5..=8 => 2,
        _ => 3,
    }
}

/// The grid slot of already-classed coordinates (`None` when any is
/// out of range — snapshot lines come from outside the program).
fn slot_of_classes(kind: usize, gclass: usize, mclass: usize) -> Option<usize> {
    (kind < COLL_KINDS && gclass < COLL_GCLASSES && mclass < COLL_MCLASSES)
        .then_some((kind * COLL_GCLASSES + gclass) * COLL_MCLASSES + mclass)
}

/// The grid slot deciding a `kind` operation over `gsize` members with
/// `msg_bytes` per-peer blocks.
pub fn slot_of(kind: CollKind, gsize: usize, msg_bytes: u64) -> usize {
    let mclass = log2_class(msg_bytes, COLL_CLASS_BASE, COLL_MCLASSES);
    slot_of_classes(kind.code(), gclass_of(gsize), mclass).expect("classes are clamped in range")
}

/// One bandit per (kind, group-size class, message class).
#[derive(Debug)]
pub struct CollGrid {
    slots: [Bandit<COLL_ARMS>; COLL_SLOTS],
}

impl Default for CollGrid {
    fn default() -> Self {
        Self {
            slots: [Bandit::default(); COLL_SLOTS],
        }
    }
}

impl CollGrid {
    /// One real decision in `slot` (see [`slot_of`]).
    pub fn pick(&mut self, slot: usize) -> usize {
        self.slots[slot].pick(&BOTH)
    }

    /// Credit one completed operation to the arm that ran it.
    /// `msg_bytes` classes the cell (the per-peer block length the
    /// caller selected with); `moved_bytes / elapsed` is the reward.
    pub fn observe(
        &mut self,
        kind: CollKind,
        gsize: usize,
        msg_bytes: u64,
        arm: usize,
        moved_bytes: u64,
        elapsed: u64,
    ) {
        self.slots[slot_of(kind, gsize, msg_bytes)].observe(arm, moved_bytes, elapsed);
    }

    /// The arm's `(bandwidth EWMA, samples)` in the operation's cell.
    pub fn cell(&self, kind: CollKind, gsize: usize, msg_bytes: u64, arm: usize) -> (f64, u32) {
        self.slots[slot_of(kind, gsize, msg_bytes)].cell(arm)
    }

    /// Every sampled cell as `(kind, gclass, mclass, arm, bw, n)`, in
    /// slot order (persistence).
    pub fn sampled(&self) -> impl Iterator<Item = (usize, usize, usize, usize, f64, u32)> + '_ {
        self.slots.iter().enumerate().flat_map(|(slot, b)| {
            let (kg, mclass) = (slot / COLL_MCLASSES, slot % COLL_MCLASSES);
            (0..COLL_ARMS).filter_map(move |arm| {
                let (bw, n) = b.cell(arm);
                (n > 0).then_some((kg / COLL_GCLASSES, kg % COLL_GCLASSES, mclass, arm, bw, n))
            })
        })
    }

    /// Restore one exported cell (see [`Bandit::import_cell`]);
    /// out-of-range coordinates are ignored.
    pub fn import_cell(
        &mut self,
        kind: usize,
        gclass: usize,
        mclass: usize,
        arm: usize,
        bw_bits: u64,
        n: u32,
    ) {
        if let Some(slot) = slot_of_classes(kind, gclass, mclass) {
            self.slots[slot].import_cell(arm, bw_bits, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_partition_kind_group_and_message_classes() {
        assert_eq!(slot_of(CollKind::Bcast, 2, 0), 0);
        assert_eq!(slot_of(CollKind::Bcast, 2, 1 << 10), 0);
        assert_eq!(slot_of(CollKind::Bcast, 2, 2 << 10), 1);
        assert_eq!(slot_of(CollKind::Bcast, 3, 0), COLL_MCLASSES);
        assert_eq!(slot_of(CollKind::Alltoall, 1000, u64::MAX), COLL_SLOTS - 1);
        assert_eq!(
            Some(slot_of(CollKind::Allgather, 7, 64 << 10)),
            slot_of_classes(2, 2, 6)
        );
        assert_eq!(slot_of_classes(4, 0, 0), None);
        assert_eq!(slot_of_classes(0, 4, 0), None);
        assert_eq!(slot_of_classes(0, 0, 8), None);
        assert_eq!(
            [1, 2, 3, 4, 5, 8, 9, 4096].map(gclass_of),
            [0, 0, 1, 1, 2, 2, 3, 3]
        );
    }

    #[test]
    fn cells_learn_independently_and_roundtrip() {
        let mut g = CollGrid::default();
        let slot = slot_of(CollKind::Alltoall, 4, 1 << 20);
        for _ in 0..8 {
            let arm = g.pick(slot);
            // Arm 1 is twice as fast for this cell.
            g.observe(CollKind::Alltoall, 4, 1 << 20, arm, 4 << 20, 2000 >> arm);
        }
        assert_eq!(g.pick(slot), 1);
        assert_eq!(g.cell(CollKind::Bcast, 4, 1 << 20, 1), (0.0, 0));
        // Export → import reproduces the sampled cells exactly.
        let mut fresh = CollGrid::default();
        for (k, gc, mc, arm, bw, n) in g.sampled() {
            assert_eq!((k, gc, mc), (3, 1, 7));
            fresh.import_cell(k, gc, mc, arm, bw.to_bits(), n);
        }
        assert_eq!(g.sampled().count(), 2);
        assert!(g.sampled().eq(fresh.sampled()));
        assert_eq!(fresh.pick(slot), 1, "a warm-started cell exploits");
        fresh.import_cell(9, 9, 9, 0, 1.0f64.to_bits(), 1);
        assert_eq!(fresh.sampled().count(), 2);
    }
}
