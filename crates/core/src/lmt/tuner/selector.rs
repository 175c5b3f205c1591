//! The learned backend selector: a deterministic per-(pair, size-class)
//! bandit over the fixed LMT mechanisms, replacing the rule-based
//! `Dynamic` resolution when [`BackendSelect::LearnedBackend`]
//! (`crate::config::BackendSelect`) is configured.
//!
//! The §3.5 blended policy decides from two architectural facts (cache
//! sharing, `DMAmin`). This model instead treats each candidate backend
//! as a bandit *arm* and learns, per directed pair and per power-of-two
//! size class, which arm actually delivers the most bandwidth on this
//! machine — including the striped meta-backend at 2–4 rails, whose
//! profitability no closed-form rule captures (it depends on bus
//! headroom the architectural rules cannot see; cf. the FSB-bound E5345,
//! where striping loses).
//!
//! The bandit itself — sweep, exploit with hysteresis, exponentially
//! spaced probes — is [`nemesis_model::Bandit`], shared with the
//! real-thread tuner; the convergence bounds (`scenario_sweep`: within
//! 1.25× of the best fixed backend; `standing_bars`: ≥ 0.95×) depend on
//! its probes becoming rare. What lives here is sim-side: the arm
//! table, the demotion clock, the `(group id, sequence)` memo of the
//! collective bandit, and the cell exchange formats.
//!
//! # Demotion and decay
//!
//! A rail kind quarantined by the striped fault path also demotes the
//! arm built on that mechanism: the arm is banned for
//! [`DEMOTE_WINDOW`] decisions (no re-pick until the window expires),
//! then becomes eligible for re-probing again. A placement change
//! (process migration) calls [`SelectorModel::decay`]: every cell's
//! sample count is zeroed (its bandwidth estimate survives as a prior),
//! so the sweep re-probes every arm within `arms × MIN_PROBE`
//! decisions.

use nemesis_model::coll::{slot_of, CollGrid, COLL_SLOTS};
use nemesis_model::{log2_class, Bandit};

pub use nemesis_model::bandit::MIN_PROBE;
pub use nemesis_model::CollKind;

use crate::config::{KnemSelect, LmtSelect};

/// The candidate arms, in probe order. `Dynamic` itself and the
/// degenerate 1-rail stripe are not arms (the former is what this model
/// replaces, the latter is CMA with extra bookkeeping); the KNEM arm
/// runs the `Auto` receive mode so the learned `DMAmin` still governs
/// copy-vs-offload inside it.
pub const ARMS: [LmtSelect; NARMS] = [
    LmtSelect::ShmCopy,
    LmtSelect::PipeWritev,
    LmtSelect::Vmsplice,
    LmtSelect::Knem(KnemSelect::Auto),
    LmtSelect::Cma,
    LmtSelect::Striped { rails: 2 },
    LmtSelect::Striped { rails: 3 },
    LmtSelect::Striped { rails: 4 },
];

/// Number of selector arms.
pub const NARMS: usize = 8;

/// The arm index of a selection, if the selection is an arm.
pub fn arm_of(sel: LmtSelect) -> Option<usize> {
    ARMS.iter().position(|&a| a == sel)
}

/// Size classes cover 2^16 (64 KiB, the eager/rendezvous switchover —
/// the selector is only consulted for rendezvous transfers) up to
/// 2^(16+NCLASSES-1) = 8 MiB; larger transfers clamp to the top class.
const CLASS_BASE: u32 = 16;
/// Number of selector size classes.
pub const NCLASSES: usize = 8;

/// The size class of a transfer length.
pub fn class_of(bytes: u64) -> usize {
    log2_class(bytes, CLASS_BASE, NCLASSES)
}

/// A flat `(bw_bits, n)` copy of every (class, arm) cell — the exchange
/// format between a pair's selector and the tuner's placement-keyed
/// prior cells (see `Tuner::seed_from_prior`).
pub type CellGrid = [[(u64, u32); NARMS]; NCLASSES];

/// An all-unsampled [`CellGrid`].
pub const EMPTY_CELL_GRID: CellGrid = [[(0, 0); NARMS]; NCLASSES];

/// Decisions a demoted arm sits out before it may be re-picked.
pub const DEMOTE_WINDOW: u64 = 256;

/// Per-pair selector state (lives behind the tuner's per-pair mutex).
#[derive(Default)]
pub struct SelectorModel {
    classes: [Bandit<NARMS>; NCLASSES],
    /// Pair-wide decision counter (the demotion clock).
    decisions: u64,
    /// Decision tick until which each arm is banned (demotion).
    banned_until: [u64; NARMS],
    /// Whether the one-shot quarantine demotion has been applied to the
    /// arm (a permanent quarantine must not re-ban the arm forever —
    /// after the decay window the selector may re-probe the mechanism).
    demote_applied: [bool; NARMS],
}

impl SelectorModel {
    /// The arms a decision at pair tick `now` may pick: eligible and
    /// not banned — unless that leaves nothing, where the ban loses to
    /// liveness.
    fn open(&self, eligible: &[bool; NARMS], now: u64) -> [bool; NARMS] {
        let open: [bool; NARMS] =
            std::array::from_fn(|a| eligible[a] && self.banned_until[a] < now);
        if open.contains(&true) {
            open
        } else {
            *eligible
        }
    }

    /// Pick the arm for one transfer of `len` bytes. `eligible` masks
    /// arms the universe cannot serve (module absent, syscall missing);
    /// banned (demoted) arms are additionally skipped until their
    /// window expires. With nothing eligible at all the answer is arm 0
    /// (`ShmCopy` always works). Advances the exploration state — one
    /// call per selection, never on a read-only path.
    pub fn pick(&mut self, len: u64, eligible: &[bool; NARMS]) -> usize {
        self.decisions += 1;
        let open = self.open(eligible, self.decisions);
        self.classes[class_of(len)].pick(&open)
    }

    /// What [`SelectorModel::pick`] would choose right now, without
    /// advancing any exploration state — the side-effect-free read
    /// behind `Comm::try_select`.
    pub fn peek(&self, len: u64, eligible: &[bool; NARMS]) -> usize {
        self.classes[class_of(len)].peek(&self.open(eligible, self.decisions + 1))
    }

    /// Fold one completed transfer's achieved bandwidth into the arm's
    /// cell for the transfer's size class.
    pub fn observe(&mut self, arm: usize, bytes: u64, elapsed_ps: u64) {
        self.classes[class_of(bytes)].observe(arm, bytes, elapsed_ps);
    }

    /// Demote an arm for [`DEMOTE_WINDOW`] decisions — applied at most
    /// once per pair (see the type docs). Returns whether the ban was
    /// (newly) applied.
    pub fn demote_once(&mut self, arm: usize) -> bool {
        if arm >= NARMS || self.demote_applied[arm] {
            return false;
        }
        self.demote_applied[arm] = true;
        self.banned_until[arm] = self.decisions + DEMOTE_WINDOW;
        true
    }

    /// Whether the arm is currently banned (demoted and the window has
    /// not yet expired).
    pub fn is_banned(&self, arm: usize) -> bool {
        arm < NARMS && self.banned_until[arm] > self.decisions
    }

    /// Whether the one-shot demotion has been applied to the arm.
    /// Combined with [`SelectorModel::is_banned`] this distinguishes
    /// "still serving its sentence" from "sentence served" — the
    /// re-admission path acts only on the latter.
    pub fn demote_spent(&self, arm: usize) -> bool {
        arm < NARMS && self.demote_applied[arm]
    }

    /// Re-arm the one-shot demotion after its window expired, so a
    /// *second* fault on the re-probed mechanism can demote it again.
    /// Without this, a permanently-flaky mechanism would be demoted
    /// exactly once per pair and then re-picked forever.
    pub fn reset_demotion(&mut self, arm: usize) {
        if arm < NARMS {
            self.demote_applied[arm] = false;
        }
    }

    /// Placement-change decay of every class (see [`Bandit::decay`]).
    pub fn decay(&mut self) {
        self.classes.iter_mut().for_each(Bandit::decay);
    }

    /// Restore one exported cell (see [`Bandit::import_cell`]);
    /// out-of-range classes are ignored.
    pub(super) fn import_cell(&mut self, class: usize, arm: usize, bw_bits: u64, n: u32) {
        if let Some(b) = self.classes.get_mut(class) {
            b.import_cell(arm, bw_bits, n);
        }
    }

    /// Mirror every sampled cell into `out` (the placement-prior
    /// donation path and the snapshot export — a plain `(bw_bits, n)`
    /// memcpy, no allocation).
    pub(super) fn copy_cells(&self, out: &mut CellGrid) {
        for (b, row) in self.classes.iter().zip(out) {
            for (arm, slot) in row.iter_mut().enumerate() {
                let (bw, n) = b.cell(arm);
                if n > 0 {
                    *slot = (bw.to_bits(), n);
                }
            }
        }
    }

    /// Warm-start from a prior [`CellGrid`]: every sampled prior cell
    /// lands in the matching unsampled local cell (an imported snapshot
    /// or the pair's own traffic always wins over the prior). Seeded
    /// cells count as picked, so the sweep skips straight to exploiting
    /// the sibling's incumbent.
    pub(super) fn seed_cells(&mut self, grid: &CellGrid) {
        for (b, row) in self.classes.iter_mut().zip(grid) {
            for (arm, &(bits, n)) in row.iter().enumerate() {
                if n > 0 && b.cell(arm).1 == 0 {
                    b.import_cell(arm, bits, n);
                }
            }
        }
    }
}

/// Memoized `(group id, op sequence) → arm` entries per cell — enough
/// for a few groups of the same shape interleaving their operations.
const COLL_MEMO: usize = 4;

/// One cell's `(group id, op sequence, arm)` memo ring (`gid` −1 =
/// empty) and its cursor.
type Memo = ([(i32, i32, u8); COLL_MEMO], usize);

/// The collective algorithm bandit: one universe-global
/// [`CollGrid`] plus the sim-side agreement memo.
///
/// **Cross-rank consistency.** Every group member must run the same
/// algorithm for the same operation, but the members' selection calls
/// interleave arbitrarily through the shared tuner. Selections are
/// therefore memoized per `(group id, op sequence)`: the first caller
/// runs the real bandit decision and caches it; peers hitting the same
/// key read the cached arm, regardless of which rank's selection
/// executed first. Sequence counters advance identically on every
/// member (groups sequence their own operations — see
/// `crate::coll::CommGroup`), so the key agrees across ranks by
/// construction.
pub struct CollAlgModel {
    pub(super) grid: CollGrid,
    memo: [Memo; COLL_SLOTS],
}

impl Default for CollAlgModel {
    fn default() -> Self {
        Self {
            grid: CollGrid::default(),
            memo: [([(-1, 0, 0); COLL_MEMO], 0); COLL_SLOTS],
        }
    }
}

impl CollAlgModel {
    /// The algorithm arm for one collective operation: the memoized
    /// arm when this `(group id, sequence)` was already decided by a
    /// peer, a fresh bandit decision otherwise.
    pub fn select(
        &mut self,
        kind: CollKind,
        gsize: usize,
        bytes: u64,
        gid: i32,
        seq: i32,
    ) -> usize {
        let slot = slot_of(kind, gsize, bytes);
        let (ring, cursor) = &mut self.memo[slot];
        if let Some(&(_, _, arm)) = ring.iter().find(|&&(g, q, _)| g == gid && q == seq) {
            return arm as usize;
        }
        let arm = self.grid.pick(slot);
        ring[*cursor] = (gid, seq, arm as u8);
        *cursor = (*cursor + 1) % COLL_MEMO;
        arm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [bool; NARMS] = [true; NARMS];

    /// Feed the model a world where `best` is twice as fast as every
    /// other arm at 1 MiB.
    fn teach(m: &mut SelectorModel, best: usize, rounds: usize) {
        for _ in 0..rounds {
            for arm in 0..NARMS {
                let ps = if arm == best { 1 << 20 } else { 2 << 20 };
                m.observe(arm, 1 << 20, ps);
            }
        }
    }

    #[test]
    fn ineligible_arms_are_never_picked() {
        let mut m = SelectorModel::default();
        let mut mask = [true; NARMS];
        mask[3] = false; // KNEM absent
        mask[5] = false;
        for _ in 0..300 {
            let a = m.pick(1 << 20, &mask);
            assert!(a != 3 && a != 5);
            m.observe(a, 1 << 20, 1 << 20);
        }
    }

    #[test]
    fn demotion_bans_for_the_window_then_releases() {
        let mut m = SelectorModel::default();
        teach(&mut m, 3, 4); // arm 3 is the incumbent-to-be
        assert!(m.demote_once(3));
        assert!(!m.demote_once(3), "demotion applies once per pair");
        assert!(m.is_banned(3));
        for i in 0..DEMOTE_WINDOW {
            assert_ne!(m.pick(1 << 20, &ALL), 3, "banned arm re-picked at {i}");
        }
        assert!(!m.is_banned(3));
        // After the window the arm is eligible again and, being the
        // fastest, eventually re-elected.
        let picked_again = (0..300).any(|_| m.pick(1 << 20, &ALL) == 3);
        assert!(picked_again, "arm must be re-pickable after the window");
    }

    #[test]
    fn peek_does_not_advance_exploration() {
        let mut a = SelectorModel::default();
        let mut b = SelectorModel::default();
        teach(&mut a, 4, 4);
        teach(&mut b, 4, 4);
        // Any number of inspections…
        for _ in 0..100 {
            assert_eq!(a.peek(1 << 20, &ALL), 4, "peek answers with the best arm");
        }
        // …must leave the decision sequence identical to an
        // uninspected twin (same sweep, same probe ticks).
        let pa: Vec<usize> = (0..50).map(|_| a.pick(1 << 20, &ALL)).collect();
        let pb: Vec<usize> = (0..50).map(|_| b.pick(1 << 20, &ALL)).collect();
        assert_eq!(pa, pb, "peeks burned exploration state");
        // Mid-sweep, the peek reports the sweep candidate.
        let fresh = SelectorModel::default();
        assert_eq!(fresh.peek(1 << 20, &ALL), 0);
    }

    #[test]
    fn classes_are_independent() {
        let mut m = SelectorModel::default();
        // 128 KiB: arm 0 fast; 4 MiB: arm 4 fast.
        for _ in 0..4 {
            for arm in 0..NARMS {
                m.observe(arm, 128 << 10, if arm == 0 { 1 << 17 } else { 1 << 19 });
                m.observe(arm, 4 << 20, if arm == 4 { 1 << 22 } else { 1 << 24 });
            }
        }
        let small: Vec<usize> = (0..40).map(|_| m.pick(128 << 10, &ALL)).collect();
        let large: Vec<usize> = (0..40).map(|_| m.pick(4 << 20, &ALL)).collect();
        assert_eq!(*small.last().unwrap(), 0);
        assert_eq!(*large.last().unwrap(), 4);
    }

    #[test]
    fn arm_table_is_consistent() {
        for (i, &a) in ARMS.iter().enumerate() {
            assert_eq!(arm_of(a), Some(i));
        }
        assert_eq!(arm_of(LmtSelect::Dynamic), None);
        assert_eq!(arm_of(LmtSelect::Striped { rails: 1 }), None);
    }
}
