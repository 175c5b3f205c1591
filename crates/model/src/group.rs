//! Subcommunicator groups: the rank-translation table every collective
//! runs over, on both stacks.
//!
//! A [`Group`] names an ordered subset of the universe's ranks and
//! gives each member a dense *group rank* (its index in the member
//! list). Collectives parameterized by a group run `O(group)` phases —
//! a 3-member barrier inside a 256-rank universe costs two
//! dissemination rounds, not eight.
//!
//! Groups are plain values, built identically (same member list, same
//! order) by every participating rank. Each group carries its **own**
//! operation sequence counter: a rank participating in two overlapping
//! groups advances each group's counter independently, so the
//! sequence-stamped collective tags of interleaved group operations can
//! never collide the way a single per-endpoint counter would (rank A
//! in groups {A,B} and {A,C} runs a different op count per group than
//! B or C sees). The counter lives in a [`Cell`] — a group is a
//! per-rank, single-threaded handle, exactly like the endpoint it
//! parameterizes.
//!
//! Tags additionally fold a 6-bit group id (a hash of the member list;
//! 0 is reserved for the universe group) so *overlapping* groups with
//! coincidentally-equal sequence counters still disambiguate. Disjoint
//! groups never interfere regardless of id: their peer sets share no
//! (src, tag) matching space at all.

use std::cell::Cell;

/// An ordered subset of the universe's ranks, with per-group collective
/// sequencing. See the module docs for the consistency contract.
#[derive(Debug)]
pub struct Group {
    /// Member world ranks in group-rank order; `None` is the universe
    /// identity mapping (group rank == world rank, no allocation).
    ranks: Option<Vec<usize>>,
    /// Member count.
    n: usize,
    /// 6-bit tag-disambiguation id (0 = universe).
    id: i32,
    /// Per-group collective sequence counter.
    seq: Cell<i32>,
}

impl Group {
    /// The universe group over `n` ranks: the identity translation,
    /// id 0, no allocation.
    pub fn universe(n: usize) -> Self {
        assert!(n > 0, "empty universe group");
        Self {
            ranks: None,
            n,
            id: 0,
            seq: Cell::new(0),
        }
    }

    /// A proper group over the given world ranks (group rank =
    /// position in the slice). Members must be distinct; a singleton is
    /// fine (its collectives degenerate to local copies).
    pub fn new(ranks: &[usize]) -> Self {
        assert!(!ranks.is_empty(), "empty group");
        // FNV-style fold of the member list into the 6-bit id space,
        // avoiding 0 (reserved for the universe). Deterministic, so
        // every member derives the same id from the same list.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, &r) in ranks.iter().enumerate() {
            assert!(
                !ranks[..i].contains(&r),
                "duplicate world rank {r} in group"
            );
            h ^= r as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self {
            ranks: Some(ranks.to_vec()),
            n: ranks.len(),
            id: ((h % 63) + 1) as i32,
            seq: Cell::new(0),
        }
    }

    /// Member count.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The group's 6-bit tag id (0 = universe).
    pub fn id(&self) -> i32 {
        self.id
    }

    /// Whether this is a universe (identity-mapping) group.
    pub fn is_universe(&self) -> bool {
        self.ranks.is_none()
    }

    /// The world rank sitting at `group_rank`. Panics when out of
    /// range — a translation bug, never a runtime condition.
    pub fn world_rank(&self, group_rank: usize) -> usize {
        assert!(group_rank < self.n, "group rank {group_rank} out of range");
        match &self.ranks {
            None => group_rank,
            Some(rs) => rs[group_rank],
        }
    }

    /// The group rank of a world rank, or `None` for a non-member.
    /// Linear scan: groups are small, and the translation runs once
    /// per collective, not per byte.
    pub fn group_rank(&self, world_rank: usize) -> Option<usize> {
        match &self.ranks {
            None => (world_rank < self.n).then_some(world_rank),
            Some(rs) => rs.iter().position(|&r| r == world_rank),
        }
    }

    /// Whether the world rank is a member.
    pub fn contains(&self, world_rank: usize) -> bool {
        self.group_rank(world_rank).is_some()
    }

    /// Member world ranks in group-rank order.
    pub fn world_ranks(&self) -> Vec<usize> {
        match &self.ranks {
            None => (0..self.n).collect(),
            Some(rs) => rs.clone(),
        }
    }

    /// Take the sequence number for one collective operation and
    /// advance the counter. It wraps at 14 bits — the widest sequence
    /// field either stack's tag layout carries; a stack with a
    /// narrower field masks further when it builds the tag.
    pub fn next_seq(&self) -> i32 {
        let s = self.seq.get();
        self.seq.set((s + 1) & 0x3FFF);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_a_deterministic_nonzero_fold_of_the_member_list() {
        // Pinned: both stacks' collective tags embed this value.
        assert_eq!(Group::new(&[5, 2, 9]).id(), Group::new(&[5, 2, 9]).id());
        assert_ne!(Group::new(&[5, 2, 9]).id(), Group::new(&[2, 5, 9]).id());
        for members in [
            &[0usize][..],
            &[1, 0],
            &[3, 1, 0],
            &[7, 6, 5, 4, 3, 2, 1, 0],
        ] {
            let id = Group::new(members).id();
            assert!((1..=63).contains(&id), "id {id} outside 1..=63");
        }
        assert_eq!(Group::universe(4).id(), 0);
    }

    #[test]
    fn sequence_wraps_in_the_fourteen_bit_tag_field() {
        let g = Group::universe(2);
        for want in 0..0x4000 {
            assert_eq!(g.next_seq(), want);
        }
        assert_eq!(g.next_seq(), 0);
    }
}
