//! Collective operations over the real-thread runtime ([`RtComm`]): an
//! executor of [`nemesis_model::sched`], the schedules the simulated
//! stack (`nemesis_core::coll`) executes in virtual time.
//!
//! Every collective runs over a **group** ([`RtGroup`]): a
//! subcommunicator holding a world-rank translation table. The classic
//! free functions (`barrier`, `bcast`, …) are wrappers over a transient
//! universe group; the `*_in` variants take an explicit group and cost
//! O(group), not O(universe). Ranks outside the group return
//! immediately.
//!
//! Arm *k* of a collective is the same algorithm on both stacks:
//!
//! | kind | arm 0 | arm 1 |
//! |---|---|---|
//! | bcast | binomial tree | segmented chain |
//! | reduce | binomial tree | linear fold at the root, ascending group rank |
//! | allgather | ring | Bruck, through a staging buffer |
//! | alltoall | pairwise shifts | scattered shifts |
//!
//! Two things differ from the simulator. [`RtComm`] has no non-blocking
//! operations, so every shift round is one blocking send and receive,
//! ordered by [`Shift::send_first`]; the scattered alltoall therefore
//! runs its shifts serially, in round order, and coincides with arm 0,
//! so the alltoall picks no arm: it neither consults nor credits the
//! bandit, and under `Learned` runs no arm broadcast. And chain
//! segments are a fixed `CHAIN_SEG`, not the tuner's pipeline schedule.
//!
//! The arm of a bcast, reduce or allgather is chosen per operation by
//! [`RtComm::coll_alg`]: `Fixed` pins arm 0, `Alternate` pins arm 1,
//! and `Learned` consults the collective bandit in
//! [`RtTuner`](crate::tuner::RtTuner). On real threads only the
//! operation's root queries the bandit; the chosen arm then rides a
//! one-byte binomial broadcast to the rest of the group, so concurrent
//! groups can never disagree about which algorithm an operation runs.
//! Every member credits the arm with its own whole-operation wall-clock
//! elapsed time on completion.
//!
//! Tags come from [`sched::tag`](nemesis_model::sched::tag): the
//! simulator's layout of group id, per-group sequence and phase, so
//! concurrent collectives on overlapping groups never cross-match while
//! per-`(src, tag)` FIFO matching disambiguates repeats.

use std::time::Instant;

use nemesis_model::sched::{binomial, chain, doubling, shift, tag as gtag, Shift};

use crate::comm::{RtComm, EAGER_MAX};
use crate::tuner::RtCollKind;

/// Per-operation phase codes (disambiguated by the group sequence
/// number, so a phase only needs to be unique within one operation;
/// the barrier uses its round index `k` as the phase).
const PHASE_BCAST: i32 = 0;
const PHASE_REDUCE: i32 = 1;
const PHASE_GATHER: i32 = 2;
const PHASE_SCATTER: i32 = 3;
const PHASE_ALLGATHER: i32 = 4;
const PHASE_ALLTOALL: i32 = 5;
/// One-byte learned-arm distribution broadcast.
const PHASE_ARM: i32 = 6;

/// How each collective picks its algorithm arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtCollAlg {
    /// Arm 0: the classic fixed algorithm.
    #[default]
    Fixed,
    /// Arm 1: the alternate algorithm (exercises the second code path).
    Alternate,
    /// Ask the tuner's collective bandit per (kind, group size,
    /// message class).
    Learned,
}

impl RtCollAlg {
    /// Read the selection from `NEMESIS_COLL_ALG` (the same knob the
    /// simulated stack honors).
    pub fn from_env() -> Self {
        match std::env::var("NEMESIS_COLL_ALG").as_deref() {
            Err(_) | Ok("") | Ok("auto") | Ok("fixed") => RtCollAlg::Fixed,
            Ok("alternate") => RtCollAlg::Alternate,
            Ok("learned") => RtCollAlg::Learned,
            Ok(other) => {
                panic!("NEMESIS_COLL_ALG={other:?}: expected fixed | alternate | learned")
            }
        }
    }
}

/// A subcommunicator: an ordered set of world ranks — the same
/// [`Group`](nemesis_model::Group) the simulated stack's collectives
/// run over. Groups are plain per-thread values: every member thread
/// builds its own copy from the same rank list inside the `run_rt`
/// body, and the 6-bit id and the per-group operation sequence number
/// are deterministic functions of that list and the call history, so
/// all members derive identical collective tags without sharing state.
pub use nemesis_model::Group as RtGroup;

/// Resolve the algorithm arm for one operation. Under `Learned`, group
/// rank `root` queries the bandit and the arm is distributed by a
/// one-byte binomial broadcast so every member runs the same algorithm.
fn pick_arm(
    comm: &mut RtComm,
    g: &RtGroup,
    kind: RtCollKind,
    bytes: usize,
    seq: i32,
    root: usize,
    gr: usize,
) -> usize {
    match comm.coll_alg() {
        RtCollAlg::Fixed => 0,
        RtCollAlg::Alternate => 1,
        RtCollAlg::Learned => {
            let mut arm = [0u8; 1];
            if gr == root {
                arm[0] = comm
                    .tuner()
                    .map(|t| t.select_coll_alg(kind, g.size(), bytes))
                    .unwrap_or(0) as u8;
            }
            if g.size() > 1 {
                let tag = gtag(g, seq, PHASE_ARM);
                bcast_binomial(comm, g, gr, root, tag, &mut arm);
            }
            (arm[0] as usize).min(crate::tuner::RT_COLL_ARMS - 1)
        }
    }
}

/// Credit the arm with this member's whole-operation elapsed time.
fn credit(
    comm: &RtComm,
    g: &RtGroup,
    kind: RtCollKind,
    msg_bytes: usize,
    arm: usize,
    moved_bytes: usize,
    start: Instant,
) {
    if comm.coll_alg() != RtCollAlg::Learned {
        return;
    }
    if let Some(t) = comm.tuner() {
        let nanos = start.elapsed().as_nanos() as u64;
        t.record_coll(kind, g.size(), msg_bytes, arm, moved_bytes, nanos);
    }
}

/// One shift round on blocking operations: send `out` to `r.dst` and
/// receive `into` from `r.src`, in the order [`Shift::send_first`]
/// picks, which keeps blocking rendezvous sends from closing a cycle.
fn exchange(comm: &mut RtComm, g: &RtGroup, r: Shift, tag: i32, out: &[u8], into: &mut [u8]) {
    let (dst, src) = (g.world_rank(r.dst), g.world_rank(r.src));
    if r.send_first {
        comm.send(dst, tag, out);
        comm.recv(Some(src), Some(tag), into);
    } else {
        comm.recv(Some(src), Some(tag), into);
        comm.send(dst, tag, out);
    }
}

/// Block `out` of `all` to read and block `into` to write, both `len`
/// bytes (`out != into`).
fn block_pair(all: &mut [u8], len: usize, out: usize, into: usize) -> (&[u8], &mut [u8]) {
    if out < into {
        let (lo, hi) = all.split_at_mut(into * len);
        (&lo[out * len..][..len], &mut hi[..len])
    } else {
        let (lo, hi) = all.split_at_mut(out * len);
        (&hi[..len], &mut lo[into * len..][..len])
    }
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds, rank r signals r+2^k.
pub fn barrier(comm: &mut RtComm) {
    let g = RtGroup::universe(comm.size());
    barrier_in(comm, &g);
}

/// Dissemination barrier over a group; non-members return immediately.
pub fn barrier_in(comm: &mut RtComm, g: &RtGroup) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    let seq = g.next_seq();
    let gn = g.size();
    let mut buf = [0u8; 1];
    for (k, dist) in doubling(gn).enumerate() {
        let tag = gtag(g, seq, k as i32);
        exchange(comm, g, shift(gn, gr, dist), tag, &[0], &mut buf);
    }
}

/// Binomial-tree forwarding of `data` from group rank `root` under one
/// tag (shared by bcast proper and the learned-arm distribution).
fn bcast_binomial(
    comm: &mut RtComm,
    g: &RtGroup,
    gr: usize,
    root: usize,
    tag: i32,
    data: &mut [u8],
) {
    let t = binomial(g, gr, root);
    if let Some(parent) = t.parent {
        comm.recv(Some(parent), Some(tag), data);
    }
    for &child in t.children.iter().rev() {
        comm.send(child, tag, data);
    }
}

/// Chain-bcast segment size — past the eager cutoff on purpose: a
/// rendezvous segment moves with one copy and paces each hop to its
/// successor, so a hop cannot run ahead and pile parked segments up in
/// the next one's unexpected set.
const CHAIN_SEG: usize = 4 * EAGER_MAX;

/// Chain broadcast: the group is one line rooted at `root`, and the
/// payload moves down it in [`CHAIN_SEG`] segments so each hop forwards
/// a segment while receiving the next — dependency edges only point
/// down the chain, so blocking sends cannot cycle.
fn bcast_chain(comm: &mut RtComm, g: &RtGroup, gr: usize, root: usize, tag: i32, data: &mut [u8]) {
    let (pred, succ) = chain(g, gr, root);
    for seg in data.chunks_mut(CHAIN_SEG) {
        if let Some(p) = pred {
            comm.recv(Some(p), Some(tag), seg);
        }
        if let Some(s) = succ {
            comm.send(s, tag, seg);
        }
    }
}

/// Broadcast of `data` from world rank `root`; every rank's `data`
/// holds the payload on return.
pub fn bcast(comm: &mut RtComm, root: usize, data: &mut [u8]) {
    let g = RtGroup::universe(comm.size());
    bcast_in(comm, &g, root, data);
}

/// Broadcast over a group from group rank `root`.
pub fn bcast_in(comm: &mut RtComm, g: &RtGroup, root: usize, data: &mut [u8]) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    assert!(root < g.size(), "bcast root out of group");
    let seq = g.next_seq();
    if g.size() == 1 || data.is_empty() {
        return;
    }
    let start = Instant::now();
    let arm = pick_arm(comm, g, RtCollKind::Bcast, data.len(), seq, root, gr);
    let tag = gtag(g, seq, PHASE_BCAST);
    if arm == 1 {
        bcast_chain(comm, g, gr, root, tag, data);
    } else {
        bcast_binomial(comm, g, gr, root, tag, data);
    }
    credit(
        comm,
        g,
        RtCollKind::Bcast,
        data.len(),
        arm,
        data.len(),
        start,
    );
}

/// Element-wise reduction operator on byte-equal-length slices.
pub trait ReduceOp: Sync {
    fn combine(&self, acc: &mut [u8], other: &[u8]);
}

/// Wrapping byte-wise sum (useful for tests; real codes reduce typed
/// lanes via [`SumU64`]).
pub struct SumU8;

impl ReduceOp for SumU8 {
    fn combine(&self, acc: &mut [u8], other: &[u8]) {
        for (a, b) in acc.iter_mut().zip(other) {
            *a = a.wrapping_add(*b);
        }
    }
}

/// Little-endian u64-lane sum (slice length must be a multiple of 8).
pub struct SumU64;

impl ReduceOp for SumU64 {
    fn combine(&self, acc: &mut [u8], other: &[u8]) {
        assert_eq!(acc.len() % 8, 0, "SumU64 needs 8-byte lanes");
        for (a, b) in acc.chunks_exact_mut(8).zip(other.chunks_exact(8)) {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                .wrapping_add(u64::from_le_bytes(b.try_into().unwrap()));
            a.copy_from_slice(&s.to_le_bytes());
        }
    }
}

/// Reduce to world rank `root`: on return, `data` at the root holds
/// the reduction of every rank's input (other ranks' `data` is clobbered
/// with partial results, as in MPI's sendbuf-aliasing mode).
pub fn reduce(comm: &mut RtComm, root: usize, data: &mut [u8], op: &dyn ReduceOp) {
    let g = RtGroup::universe(comm.size());
    reduce_in(comm, &g, root, data, op);
}

/// Reduce over a group to group rank `root`.
pub fn reduce_in(comm: &mut RtComm, g: &RtGroup, root: usize, data: &mut [u8], op: &dyn ReduceOp) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    assert!(root < g.size(), "reduce root out of group");
    let seq = g.next_seq();
    let gn = g.size();
    if gn == 1 {
        return;
    }
    let start = Instant::now();
    let arm = pick_arm(comm, g, RtCollKind::Reduce, data.len(), seq, root, gr);
    let tag = gtag(g, seq, PHASE_REDUCE);
    if arm == 1 {
        // Linear fold at the root, contributions combined in ascending
        // group-rank order (own block folded at its own position) so
        // the operand ordering is pinned independent of tree shape.
        if gr == root {
            let mut tmp = vec![0u8; data.len()];
            let mut acc: Option<Vec<u8>> = None;
            for q in 0..gn {
                let contrib: &[u8] = if q == root {
                    data
                } else {
                    comm.recv(Some(g.world_rank(q)), Some(tag), &mut tmp);
                    &tmp
                };
                match &mut acc {
                    None => acc = Some(contrib.to_vec()),
                    Some(a) => op.combine(a, contrib),
                }
            }
            data.copy_from_slice(&acc.unwrap());
        } else {
            comm.send(g.world_rank(root), tag, data);
        }
    } else {
        // Binomial tree: fold the children in, then pass the
        // accumulator to the parent.
        let t = binomial(g, gr, root);
        let mut tmp = vec![0u8; data.len()];
        for &child in &t.children {
            comm.recv(Some(child), Some(tag), &mut tmp);
            op.combine(data, &tmp);
        }
        if let Some(parent) = t.parent {
            comm.send(parent, tag, data);
        }
    }
    credit(
        comm,
        g,
        RtCollKind::Reduce,
        data.len(),
        arm,
        data.len(),
        start,
    );
}
/// Allreduce = reduce to 0 + bcast from 0 (the pattern MPICH2 uses for
/// large payloads when reduce-scatter does not apply).
pub fn allreduce(comm: &mut RtComm, data: &mut [u8], op: &dyn ReduceOp) {
    let g = RtGroup::universe(comm.size());
    allreduce_in(comm, &g, data, op);
}

/// Allreduce over a group.
pub fn allreduce_in(comm: &mut RtComm, g: &RtGroup, data: &mut [u8], op: &dyn ReduceOp) {
    reduce_in(comm, g, 0, data, op);
    bcast_in(comm, g, 0, data);
}

/// Linear gather: every rank's `mine` lands in `all[r*len..]` at the
/// world-rank `root`.
pub fn gather(comm: &mut RtComm, root: usize, mine: &[u8], all: Option<&mut [u8]>) {
    let g = RtGroup::universe(comm.size());
    gather_in(comm, &g, root, mine, all);
}

/// Linear gather over a group to group rank `root`; block indices are
/// group ranks.
pub fn gather_in(comm: &mut RtComm, g: &RtGroup, root: usize, mine: &[u8], all: Option<&mut [u8]>) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    assert!(root < g.size(), "gather root out of group");
    let seq = g.next_seq();
    let gn = g.size();
    let len = mine.len();
    let tag = gtag(g, seq, PHASE_GATHER);
    if gr == root {
        let all = all.expect("root must supply a gather buffer");
        assert!(all.len() >= gn * len, "gather buffer too small");
        all[gr * len..(gr + 1) * len].copy_from_slice(mine);
        for q in (0..gn).filter(|&q| q != root) {
            comm.recv(
                Some(g.world_rank(q)),
                Some(tag),
                &mut all[q * len..(q + 1) * len],
            );
        }
    } else {
        comm.send(g.world_rank(root), tag, mine);
    }
}

/// Linear scatter: the root's `all[r*len..]` lands in each rank's `mine`.
pub fn scatter(comm: &mut RtComm, root: usize, all: Option<&[u8]>, mine: &mut [u8]) {
    let g = RtGroup::universe(comm.size());
    scatter_in(comm, &g, root, all, mine);
}

/// Linear scatter over a group from group rank `root`; block indices
/// are group ranks.
pub fn scatter_in(
    comm: &mut RtComm,
    g: &RtGroup,
    root: usize,
    all: Option<&[u8]>,
    mine: &mut [u8],
) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    assert!(root < g.size(), "scatter root out of group");
    let seq = g.next_seq();
    let gn = g.size();
    let len = mine.len();
    let tag = gtag(g, seq, PHASE_SCATTER);
    if gr == root {
        let all = all.expect("root must supply a scatter buffer");
        assert!(all.len() >= gn * len, "scatter buffer too small");
        for q in (0..gn).filter(|&q| q != root) {
            comm.send(g.world_rank(q), tag, &all[q * len..(q + 1) * len]);
        }
        mine.copy_from_slice(&all[gr * len..(gr + 1) * len]);
    } else {
        comm.recv(Some(g.world_rank(root)), Some(tag), mine);
    }
}

/// Allgather: every rank's `mine` lands in everyone's `all[r*len..]`.
pub fn allgather(comm: &mut RtComm, mine: &[u8], all: &mut [u8]) {
    let g = RtGroup::universe(comm.size());
    allgather_in(comm, &g, mine, all);
}

/// Allgather over a group; block indices are group ranks.
pub fn allgather_in(comm: &mut RtComm, g: &RtGroup, mine: &[u8], all: &mut [u8]) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    let seq = g.next_seq();
    let gn = g.size();
    let len = mine.len();
    assert!(all.len() >= gn * len, "allgather buffer too small");
    all[gr * len..(gr + 1) * len].copy_from_slice(mine);
    if gn == 1 || len == 0 {
        return;
    }
    let start = Instant::now();
    let arm = pick_arm(comm, g, RtCollKind::Allgather, len, seq, 0, gr);
    let tag = gtag(g, seq, PHASE_ALLGATHER);
    if arm == 1 {
        // Bruck: the staging buffer holds blocks gr, gr+1, … in order,
        // each round appends the run the source holds, and one pass
        // rotates the blocks into place.
        let mut staging = vec![0u8; gn * len];
        staging[..len].copy_from_slice(mine);
        for have in doubling(gn) {
            let cnt = have.min(gn - have) * len;
            let (held, fresh) = staging.split_at_mut(have * len);
            let r = shift(gn, gr, gn - have);
            exchange(comm, g, r, tag, &held[..cnt], &mut fresh[..cnt]);
        }
        for (i, block) in staging.chunks_exact(len).enumerate() {
            let b = shift(gn, gr, i).dst;
            all[b * len..(b + 1) * len].copy_from_slice(block);
        }
    } else {
        // Ring: each round forwards the block received the round before.
        let ring = shift(gn, gr, 1);
        for k in 0..gn - 1 {
            let (sb, rb) = (shift(gn, gr, k).src, shift(gn, gr, k + 1).src);
            let (out, into) = block_pair(all, len, sb, rb);
            exchange(comm, g, ring, tag, out, into);
        }
    }
    credit(comm, g, RtCollKind::Allgather, len, arm, gn * len, start);
}

/// Alltoall: `send[r*len..]` is what we send to rank r; `recv[r*len..]`
/// is what we got from rank r.
pub fn alltoall(comm: &mut RtComm, send: &[u8], recv: &mut [u8], len: usize) {
    let g = RtGroup::universe(comm.size());
    alltoall_in(comm, &g, send, recv, len);
}

/// Alltoall over a group; block indices are group ranks. Both arms run
/// the shifts `1..|g|` one after the other: the pairwise arm by
/// definition, the scattered one because blocking operations cannot
/// overlap them. With nothing to choose between, no arm is picked or
/// credited.
pub fn alltoall_in(comm: &mut RtComm, g: &RtGroup, send: &[u8], recv: &mut [u8], len: usize) {
    let Some(gr) = g.group_rank(comm.rank()) else {
        return;
    };
    let seq = g.next_seq();
    let gn = g.size();
    assert!(
        send.len() >= gn * len && recv.len() >= gn * len,
        "alltoall buffers too small"
    );
    recv[gr * len..(gr + 1) * len].copy_from_slice(&send[gr * len..(gr + 1) * len]);
    if gn == 1 || len == 0 {
        return;
    }
    let tag = gtag(g, seq, PHASE_ALLTOALL);
    for step in 1..gn {
        let r = shift(gn, gr, step);
        let (out, into) = (&send[r.dst * len..][..len], &mut recv[r.src * len..][..len]);
        exchange(comm, g, r, tag, out, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{run_rt, run_rt_cfg, RtConfig, RtLmt};

    const STRATEGIES: [RtLmt; 3] = [RtLmt::DoubleBuffer, RtLmt::Direct, RtLmt::Offload];

    #[test]
    fn barrier_all_sizes() {
        for n in [1, 2, 3, 4, 8] {
            run_rt(n, RtLmt::Direct, |comm| {
                for _ in 0..3 {
                    barrier(comm);
                }
            });
        }
    }

    #[test]
    fn barrier_orders_events() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase = AtomicUsize::new(0);
        run_rt(4, RtLmt::Direct, |comm| {
            if comm.rank() == 0 {
                phase.store(1, Ordering::SeqCst);
            }
            barrier(comm);
            // Every rank must observe rank 0's pre-barrier store.
            assert_eq!(phase.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn bcast_small_and_large_all_roots() {
        for lmt in STRATEGIES {
            run_rt(4, lmt, |comm| {
                for root in 0..4 {
                    for len in [100usize, 200_000] {
                        let mut data = vec![0u8; len];
                        if comm.rank() == root {
                            data.iter_mut()
                                .enumerate()
                                .for_each(|(i, b)| *b = (i % 251) as u8 ^ root as u8);
                        }
                        bcast(comm, root, &mut data);
                        assert!(
                            data.iter()
                                .enumerate()
                                .all(|(i, &b)| b == (i % 251) as u8 ^ root as u8),
                            "{lmt:?} root {root} len {len}"
                        );
                        barrier(comm);
                    }
                }
            });
        }
    }

    #[test]
    fn reduce_sum_u64() {
        run_rt(4, RtLmt::Direct, |comm| {
            let me = comm.rank() as u64;
            let mut data: Vec<u8> = (0..100u64).flat_map(|i| (i + me).to_le_bytes()).collect();
            reduce(comm, 0, &mut data, &SumU64);
            if comm.rank() == 0 {
                for (i, lane) in data.chunks_exact(8).enumerate() {
                    let v = u64::from_le_bytes(lane.try_into().unwrap());
                    // sum over ranks of (i + r) = 4i + 0+1+2+3.
                    assert_eq!(v, 4 * i as u64 + 6, "lane {i}");
                }
            }
        });
    }

    #[test]
    fn allreduce_matches_reference() {
        for lmt in STRATEGIES {
            run_rt(3, lmt, |comm| {
                let me = comm.rank() as u8;
                let mut data = vec![me + 1; 64 << 10];
                allreduce(comm, &mut data, &SumU8);
                // 1 + 2 + 3 everywhere.
                assert!(data.iter().all(|&b| b == 6), "{lmt:?}");
            });
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        run_rt(4, RtLmt::Direct, |comm| {
            let me = comm.rank();
            let n = comm.size();
            let len = 10_000;
            let mine = vec![me as u8 + 1; len];
            let mut all = vec![0u8; n * len];
            if me == 0 {
                gather(comm, 0, &mine, Some(&mut all));
                for r in 0..n {
                    assert!(all[r * len..(r + 1) * len]
                        .iter()
                        .all(|&b| b == r as u8 + 1));
                }
            } else {
                gather(comm, 0, &mine, None);
            }
            // Scatter it back; every rank should get its own block.
            let mut back = vec![0u8; len];
            if me == 0 {
                scatter(comm, 0, Some(&all), &mut back);
            } else {
                scatter(comm, 0, None, &mut back);
            }
            assert!(back.iter().all(|&b| b == me as u8 + 1));
        });
    }

    #[test]
    fn allgather_all_ranks_see_everything() {
        run_rt(4, RtLmt::DoubleBuffer, |comm| {
            let me = comm.rank();
            let n = comm.size();
            let len = 50_000;
            let mine = vec![me as u8 * 3 + 1; len];
            let mut all = vec![0u8; n * len];
            allgather(comm, &mine, &mut all);
            for r in 0..n {
                assert!(
                    all[r * len..(r + 1) * len]
                        .iter()
                        .all(|&b| b == r as u8 * 3 + 1),
                    "rank {me} block {r}"
                );
            }
        });
    }

    #[test]
    fn alltoall_permutation_pow2_and_odd() {
        for lmt in STRATEGIES {
            for n in [4usize, 3] {
                run_rt(n, lmt, |comm| {
                    let me = comm.rank();
                    let n = comm.size();
                    let len = 30_000;
                    // Block for rank r encodes (me, r).
                    let mut send = vec![0u8; n * len];
                    for r in 0..n {
                        send[r * len..(r + 1) * len].fill((me * 16 + r) as u8);
                    }
                    let mut recv = vec![0u8; n * len];
                    alltoall(comm, &send, &mut recv, len);
                    for r in 0..n {
                        assert!(
                            recv[r * len..(r + 1) * len]
                                .iter()
                                .all(|&b| b == (r * 16 + me) as u8),
                            "{lmt:?} n={n}: rank {me} block from {r}"
                        );
                    }
                });
            }
        }
    }

    fn alt_cfg(alg: RtCollAlg) -> RtConfig {
        RtConfig {
            coll_alg: alg,
            ..RtConfig::default()
        }
    }

    /// Regression: when eager payloads shared one cell pool, a chain
    /// hop that ran ahead with eager-sized segments parked every cell
    /// in its successor's unexpected set, and the successor spun
    /// forever waiting for one to forward with. `cells: 2` now makes
    /// each per-pair eager ring two cells deep; the chain must not
    /// depend on that depth either.
    #[test]
    fn chain_bcast_survives_a_starved_cell_pool() {
        let cfg = RtConfig {
            cells: 2,
            ..alt_cfg(RtCollAlg::Alternate)
        };
        run_rt_cfg(4, RtLmt::Direct, cfg, |comm| {
            for round in 0..4u8 {
                let mut data = vec![0u8; (1 << 20) + 77];
                if comm.rank() == 3 {
                    data.fill(round + 1);
                }
                bcast(comm, 3, &mut data);
                assert!(data.iter().all(|&b| b == round + 1), "round {round}");
            }
        });
    }

    #[test]
    fn group_translation_roundtrip() {
        let g = RtGroup::new(&[5, 2, 9]);
        assert_eq!(g.size(), 3);
        assert!(!g.is_universe());
        for gr in 0..g.size() {
            assert_eq!(g.group_rank(g.world_rank(gr)), Some(gr));
        }
        assert_eq!(g.group_rank(7), None);
        assert!(g.contains(9) && !g.contains(0));
        assert_eq!(g.world_ranks(), vec![5, 2, 9]);
        let u = RtGroup::universe(4);
        assert!(u.is_universe());
        assert_eq!(u.id(), 0);
        assert_eq!(u.group_rank(3), Some(3));
        assert_eq!(u.group_rank(4), None);
        assert_ne!(RtGroup::new(&[5, 2, 9]).id(), 0);
    }

    #[test]
    fn subgroup_collectives_skip_non_members() {
        for alg in [RtCollAlg::Fixed, RtCollAlg::Alternate, RtCollAlg::Learned] {
            run_rt_cfg(4, RtLmt::Direct, alt_cfg(alg), |comm| {
                let g = RtGroup::new(&[3, 1, 0]);
                let me = comm.rank();
                // Group-rank order is [3, 1, 0]: world 3 is group 0.
                let len = 20_000;
                let mut data = vec![0u8; len];
                if me == 3 {
                    data.fill(0xAB);
                }
                bcast_in(comm, &g, 0, &mut data);
                if g.contains(me) {
                    assert!(data.iter().all(|&b| b == 0xAB), "{alg:?} rank {me}");
                } else {
                    assert!(data.iter().all(|&b| b == 0), "{alg:?} non-member touched");
                }
                let mut all = vec![0u8; 3 * len];
                let mine = vec![me as u8 + 1; len];
                allgather_in(comm, &g, &mine, &mut all);
                if let Some(gr) = g.group_rank(me) {
                    let _ = gr;
                    for (q, &wr) in [3usize, 1, 0].iter().enumerate() {
                        assert!(
                            all[q * len..(q + 1) * len]
                                .iter()
                                .all(|&b| b == wr as u8 + 1),
                            "{alg:?} rank {me} block {q}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn alternate_arms_match_fixed() {
        // Every collective's arm 1 must agree byte-for-byte with arm 0.
        // n = 5 gives Bruck a partial last round; at n = 6 the shifts
        // by 2, 3 and 4 split into several cycles.
        for alg in [RtCollAlg::Alternate, RtCollAlg::Learned] {
            for n in [3usize, 4, 5, 6] {
                run_rt_cfg(n, RtLmt::Direct, alt_cfg(alg), |comm| {
                    let me = comm.rank();
                    let n = comm.size();
                    for len in [64usize, EAGER_MAX, EAGER_MAX + 1, 100_000] {
                        let mut data = vec![0u8; len];
                        if me == 1 {
                            data.iter_mut()
                                .enumerate()
                                .for_each(|(i, b)| *b = (i % 253) as u8);
                        }
                        bcast(comm, 1, &mut data);
                        assert!(
                            data.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8),
                            "{alg:?} bcast n={n} len={len}"
                        );

                        let mut acc = vec![me as u8 + 1; len];
                        allreduce(comm, &mut acc, &SumU8);
                        let want = (1..=n as u8).sum::<u8>();
                        assert!(acc.iter().all(|&b| b == want), "{alg:?} allreduce");

                        let mine = vec![me as u8 ^ 0x5A; len];
                        let mut all = vec![0u8; n * len];
                        allgather(comm, &mine, &mut all);
                        for r in 0..n {
                            assert!(
                                all[r * len..(r + 1) * len]
                                    .iter()
                                    .all(|&b| b == r as u8 ^ 0x5A),
                                "{alg:?} allgather n={n} len={len} block {r}"
                            );
                        }

                        let mut send = vec![0u8; n * len];
                        for r in 0..n {
                            send[r * len..(r + 1) * len].fill((me * 16 + r) as u8);
                        }
                        let mut recv = vec![0u8; n * len];
                        alltoall(comm, &send, &mut recv, len);
                        for r in 0..n {
                            assert!(
                                recv[r * len..(r + 1) * len]
                                    .iter()
                                    .all(|&b| b == (r * 16 + me) as u8),
                                "{alg:?} alltoall n={n} len={len} block {r}"
                            );
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn learned_mode_credits_the_bandit() {
        let tuner = crate::tuner::RtTuner::new(4);
        let cfg = RtConfig {
            tuner: Some(std::sync::Arc::clone(&tuner)),
            ..alt_cfg(RtCollAlg::Learned)
        };
        run_rt_cfg(4, RtLmt::Direct, cfg, |comm| {
            let g = RtGroup::universe(comm.size());
            let mut all = vec![0u8; 4 * 4096];
            let mine = vec![comm.rank() as u8; 4096];
            for _ in 0..8 {
                allgather_in(comm, &g, &mine, &mut all);
            }
        });
        let (bw0, n0) = tuner.coll_cell(RtCollKind::Allgather, 4, 4096, 0);
        let (bw1, n1) = tuner.coll_cell(RtCollKind::Allgather, 4, 4096, 1);
        // 8 ops × 4 members credited somewhere across the two arms.
        assert!(n0 + n1 >= 8, "arms never credited: {n0}+{n1}");
        assert!(bw0 >= 0.0 && bw1 >= 0.0);
    }
}
