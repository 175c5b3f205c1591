//! MPI collective operations over the Nemesis point-to-point layer.
//!
//! The paper evaluates collectives in §4.4 (IMB Alltoall across 8 local
//! processes) and notes in §6 that the collective layer *knows* when many
//! large transfers will happen concurrently and can pass that knowledge
//! down to the LMT threshold logic — implemented here via
//! [`crate::Comm::set_concurrency_hint`], which every collective sets for
//! the duration of the operation when `collective_hint` is enabled.
//!
//! **Groups.** Every collective takes a [`CommGroup`] — an ordered
//! subset of the universe with its own dense rank space — through its
//! `*_in` variant; the legacy group-less methods delegate to the cached
//! universe group. Phases run `O(group)`, roots and block indices are
//! *group* ranks, and a non-member call returns immediately (a
//! documented no-op, mirroring MPI's undefined-on-non-member the safe
//! way). Each group sequences its own operations, so interleaved
//! collectives on overlapping groups can never collide in tag space
//! (see [`nemesis_model::group`]).
//!
//! **Schedules.** This module is the virtual-time executor of
//! [`nemesis_model::sched`]: every peer, round and block index comes
//! from there, and `nemesis_rt::coll` executes the same schedules on
//! real threads, so arm *k* of a collective is one algorithm on both
//! stacks:
//!
//! | kind | arm 0 | arm 1 |
//! |---|---|---|
//! | bcast | binomial tree | chain, segments cut by [`ChunkPipeline`](crate::lmt::ChunkPipeline) schedules |
//! | reduce | binomial tree | linear, folded in ascending group rank |
//! | allgather | ring, group size − 1 rounds | Bruck, `ceil(log2)` rounds through a staging buffer |
//! | alltoall | pairwise, one shift per step | scattered: every shift posted up front, so all its transfers overlap (§6) |
//!
//! Arm 0 is byte- and timing-identical to the pre-group implementation
//! over the universe group.
//!
//! `NEMESIS_COLL_ALG` (or [`NemesisConfig::coll_alg`]) picks the arm:
//! `fixed`, `alternate`, or `learned` — the latter turns the choice
//! into a per-(collective kind, group-size class, msg class) bandit in
//! the tuner, credited from whole-operation completion times the same
//! way backend arms are credited from receiver elapsed. Selections are
//! memoized per `(group id, sequence)` inside the tuner so every
//! member of an operation runs the same algorithm.
//!
//! **Striping.** Large-message alltoall/allgather phases set a
//! per-endpoint flag the striped backend reads to *rotate* each
//! destination's secondary-rail order, so concurrent transfers open on
//! disjoint rails instead of contending for the anchor (§6).
//!
//! All algorithms are deterministic, so simulated timings are
//! reproducible run to run.
//!
//! [`NemesisConfig::coll_alg`]: crate::config::NemesisConfig::coll_alg

/// The subcommunicator every collective runs over (one definition for
/// both stacks — see [`nemesis_model::group`]).
pub use nemesis_model::Group as CommGroup;

use nemesis_kernel::BufId;

use crate::comm::Comm;
use crate::config::CollAlgSelect;
use crate::datatype::{bytes_of, load_raw, store_raw, Element};
use crate::lmt::tuner::selector::CollKind;
use nemesis_model::sched::{binomial, chain, doubling, shift, tag as gtag, Shift};

/// Ceiling for chain-bcast segments: past this the pipeline stops
/// growing (the fill/drain amortization has flattened).
const CHAIN_SEG_MAX: u64 = 256 << 10;

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    fn apply_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl<'a> Comm<'a> {
    /// The cached universe group (identity rank mapping over all
    /// ranks) the legacy group-less collectives run over.
    pub fn universe_group(&self) -> &CommGroup {
        self.ugroup.get_or_init(|| CommGroup::universe(self.size()))
    }

    fn scratch_buf(&self) -> BufId {
        if let Some(b) = self.scratch.get() {
            return b;
        }
        let b = self.os().alloc(self.rank(), 4096);
        self.scratch.set(Some(b));
        b
    }

    /// The algorithm arm for one collective operation, resolved by the
    /// configured [`CollAlgSelect`]. Under `Learned` the tuner decides
    /// (memoized per `(group id, seq)` so every member agrees).
    fn coll_arm(&self, g: &CommGroup, kind: CollKind, bytes: u64, seq: i32) -> usize {
        match self.config().coll_alg {
            CollAlgSelect::Fixed => 0,
            CollAlgSelect::Alternate => 1,
            CollAlgSelect::Learned => {
                self.nem()
                    .policy()
                    .select_coll_alg(kind, g.size(), bytes, g.id(), seq)
            }
        }
    }

    /// Credit the completed operation's whole-op bandwidth to its arm
    /// (no-op unless the algorithm choice is learned). `start_ps` is
    /// the virtual time the operation began at on this rank.
    fn credit_coll(
        &self,
        g: &CommGroup,
        kind: CollKind,
        msg_bytes: u64,
        arm: usize,
        moved_bytes: u64,
        start_ps: u64,
    ) {
        if self.config().coll_alg == CollAlgSelect::Learned {
            let elapsed = self.proc().now().saturating_sub(start_ps);
            self.nem()
                .policy()
                .record_coll(kind, g.size(), msg_bytes, arm, moved_bytes, elapsed);
        }
    }

    /// Dissemination barrier over the universe.
    pub fn barrier(&self) {
        self.barrier_in(self.universe_group());
    }

    /// Dissemination barrier over the group: `ceil(log2(|group|))`
    /// rounds of 1-byte tokens. Non-members return immediately.
    pub fn barrier_in(&self, g: &CommGroup) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        if gn == 1 {
            return;
        }
        let s = self.scratch_buf();
        for (k, dist) in doubling(gn).enumerate() {
            let r = shift(gn, gr, dist);
            let (dst, src) = (g.world_rank(r.dst), g.world_rank(r.src));
            let tag = gtag(g, seq, k as i32);
            self.sendrecv(dst, tag, s, 0, 1, Some(src), Some(tag), s, 64, 1);
        }
    }

    /// Broadcast of `buf[off..off+len]` from world-rank `root` over the
    /// universe.
    pub fn bcast(&self, root: usize, buf: BufId, off: u64, len: u64) {
        self.bcast_in(self.universe_group(), root, buf, off, len);
    }

    /// Broadcast from *group* rank `root` over the group: binomial tree
    /// (arm 0) or segment-pipelined chain (arm 1).
    pub fn bcast_in(&self, g: &CommGroup, root: usize, buf: BufId, off: u64, len: u64) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        assert!(root < gn, "bcast root {root} outside group");
        if gn == 1 || len == 0 {
            return;
        }
        let tag = gtag(g, seq, 0);
        let arm = self.coll_arm(g, CollKind::Bcast, len, seq);
        let start = self.proc().now();
        if arm == 1 {
            self.bcast_chain(g, gr, root, tag, buf, off, len);
        } else {
            self.bcast_binomial(g, gr, root, tag, buf, off, len);
        }
        self.credit_coll(g, CollKind::Bcast, len, arm, len, start);
    }

    /// Arm 0: the classic binomial tree over group virtual ranks.
    #[allow(clippy::too_many_arguments)]
    fn bcast_binomial(
        &self,
        g: &CommGroup,
        gr: usize,
        root: usize,
        tag: i32,
        buf: BufId,
        off: u64,
        len: u64,
    ) {
        let t = binomial(g, gr, root);
        if let Some(parent) = t.parent {
            self.recv(Some(parent), Some(tag), buf, off, len);
        }
        for &child in t.children.iter().rev() {
            self.send(child, tag, buf, off, len);
        }
    }

    /// Arm 1: segmented chain — the payload flows root → root+1 → … in
    /// group-rank order, split into [`ChunkPipeline`]-scheduled
    /// segments so a middle rank forwards segment `k` while receiving
    /// segment `k+1` (per-(src, tag) FIFO matching keeps one tag
    /// sufficient for the whole segment train). Beats the binomial tree
    /// when the pipeline fill is amortized — long chains, big payloads.
    ///
    /// [`ChunkPipeline`]: crate::lmt::ChunkPipeline
    #[allow(clippy::too_many_arguments)]
    fn bcast_chain(
        &self,
        g: &CommGroup,
        gr: usize,
        root: usize,
        tag: i32,
        buf: BufId,
        off: u64,
        len: u64,
    ) {
        let (pred, succ) = chain(g, gr, root);
        // Enumerate the segment schedule identically on every member
        // (pair-less + receiver-side: consumes no probe cadence, reads
        // no pair state, so all ranks derive the same cut points).
        let mut segs: Vec<(u64, u64)> = Vec::new();
        let mut pipe = self.nem().policy().recv_pipeline(None, CHAIN_SEG_MAX);
        pipe.drive(len, |done, budget| {
            segs.push((off + done, budget));
            budget
        });
        let mut reqs = Vec::new();
        for &(o, l) in &segs {
            if let Some(p) = pred {
                self.recv(Some(p), Some(tag), buf, o, l);
            }
            if let Some(s) = succ {
                reqs.push(self.isend(s, tag, buf, o, l));
            }
        }
        self.waitall(&reqs);
    }

    /// Reduction of `n_elems` elements into group-root `root`'s
    /// `rbuf[roff..]`: binomial tree (arm 0) or linear with the fold
    /// order pinned to ascending group rank (arm 1). For exact
    /// (integer) operators the two arms are bit-identical; that pinned
    /// ordering is what the algorithm-independence property tests
    /// assert against.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    fn reduce_impl<T: Element>(
        &self,
        g: &CommGroup,
        root: usize,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: impl Fn(T, T) -> T,
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        assert!(root < gn, "reduce root {root} outside group");
        let os = self.os();
        let bytes = bytes_of::<T>(n_elems);
        let tag = gtag(g, seq, 1);
        let arm = self.coll_arm(g, CollKind::Reduce, bytes, seq);
        let start = self.proc().now();
        // Local accumulator starts as our contribution.
        let mut acc: Vec<T> = load_raw(os, self.proc(), sbuf, soff, n_elems);
        os.touch_read(self.proc(), sbuf, soff, bytes);
        if gn > 1 && arm == 1 {
            // Linear: non-roots send; the root folds contributions in
            // ascending group-rank order (its own at its position).
            let tmp = os.alloc(self.rank(), bytes.max(1));
            if gr != root {
                store_raw(os, self.proc(), tmp, 0, &acc);
                os.touch_write(self.proc(), tmp, 0, bytes);
                self.send(g.world_rank(root), tag, tmp, 0, bytes);
                self.credit_coll(g, CollKind::Reduce, bytes, arm, bytes, start);
                return;
            }
            let mut folded: Option<Vec<T>> = None;
            for r in 0..gn {
                let contrib: Vec<T> = if r == gr {
                    acc.clone()
                } else {
                    self.recv(Some(g.world_rank(r)), Some(tag), tmp, 0, bytes);
                    let v = load_raw(os, self.proc(), tmp, 0, n_elems);
                    os.touch_read(self.proc(), tmp, 0, bytes);
                    v
                };
                folded = Some(match folded {
                    None => contrib,
                    Some(a) => a.iter().zip(&contrib).map(|(&x, &y)| op(x, y)).collect(),
                });
            }
            os.touch_write(self.proc(), tmp, 0, bytes);
            acc = folded.unwrap();
        } else if gn > 1 {
            // Binomial tree: fold the children in, then pass the
            // accumulator to the parent.
            let t = binomial(g, gr, root);
            let tmp = os.alloc(self.rank(), bytes.max(1));
            for &child in &t.children {
                self.recv(Some(child), Some(tag), tmp, 0, bytes);
                let other: Vec<T> = load_raw(os, self.proc(), tmp, 0, n_elems);
                os.touch_read(self.proc(), tmp, 0, bytes);
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = op(*a, b);
                }
                // The combine pass writes the accumulator.
                os.touch_write(self.proc(), tmp, 0, bytes);
            }
            if let Some(parent) = t.parent {
                store_raw(os, self.proc(), tmp, 0, &acc);
                os.touch_write(self.proc(), tmp, 0, bytes);
                self.send(parent, tag, tmp, 0, bytes);
                self.credit_coll(g, CollKind::Reduce, bytes, arm, bytes, start);
                return;
            }
        }
        debug_assert_eq!(gr, root);
        store_raw(os, self.proc(), rbuf, roff, &acc);
        os.touch_write(self.proc(), rbuf, roff, bytes);
        self.credit_coll(g, CollKind::Reduce, bytes, arm, bytes, start);
    }

    /// Reduce `f64` elements to world-rank `root` over the universe.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn reduce_f64(
        &self,
        root: usize,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.reduce_f64_in(
            self.universe_group(),
            root,
            sbuf,
            soff,
            rbuf,
            roff,
            n_elems,
            op,
        );
    }

    /// Reduce `f64` elements to group-rank `root` over the group.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn reduce_f64_in(
        &self,
        g: &CommGroup,
        root: usize,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.reduce_impl::<f64>(g, root, sbuf, soff, rbuf, roff, n_elems, |a, b| {
            op.apply_f64(a, b)
        });
    }

    /// Reduce `u64` elements to world-rank `root` over the universe.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn reduce_u64(
        &self,
        root: usize,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.reduce_u64_in(
            self.universe_group(),
            root,
            sbuf,
            soff,
            rbuf,
            roff,
            n_elems,
            op,
        );
    }

    /// Reduce `u64` elements to group-rank `root` over the group.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn reduce_u64_in(
        &self,
        g: &CommGroup,
        root: usize,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.reduce_impl::<u64>(g, root, sbuf, soff, rbuf, roff, n_elems, |a, b| {
            op.apply_u64(a, b)
        });
    }

    /// Allreduce = reduce to rank 0 + broadcast.
    pub fn allreduce_f64(
        &self,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.allreduce_f64_in(self.universe_group(), sbuf, soff, rbuf, roff, n_elems, op);
    }

    /// Group allreduce on `f64` (reduce to group rank 0 + bcast).
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn allreduce_f64_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.reduce_f64_in(g, 0, sbuf, soff, rbuf, roff, n_elems, op);
        self.bcast_in(g, 0, rbuf, roff, bytes_of::<f64>(n_elems));
    }

    /// Allreduce on `u64`.
    pub fn allreduce_u64(
        &self,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.allreduce_u64_in(self.universe_group(), sbuf, soff, rbuf, roff, n_elems, op);
    }

    /// Group allreduce on `u64`.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn allreduce_u64_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.reduce_u64_in(g, 0, sbuf, soff, rbuf, roff, n_elems, op);
        self.bcast_in(g, 0, rbuf, roff, bytes_of::<u64>(n_elems));
    }

    /// Linear gather: every rank's `len` bytes land at
    /// `rbuf[roff + rank*len]` on `root`.
    pub fn gather(&self, root: usize, sbuf: BufId, soff: u64, len: u64, rbuf: BufId, roff: u64) {
        self.gather_in(self.universe_group(), root, sbuf, soff, len, rbuf, roff);
    }

    /// Group gather: member `r`'s bytes land at `rbuf[roff + r*len]`
    /// (`r` a *group* rank) on group-rank `root`.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn gather_in(
        &self,
        g: &CommGroup,
        root: usize,
        sbuf: BufId,
        soff: u64,
        len: u64,
        rbuf: BufId,
        roff: u64,
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        assert!(root < gn, "gather root {root} outside group");
        let tag = gtag(g, seq, 2);
        if gr == root {
            self.os()
                .user_copy(self.proc(), sbuf, soff, rbuf, roff + gr as u64 * len, len);
            let reqs: Vec<_> = (0..gn)
                .filter(|&r| r != root)
                .map(|r| {
                    self.irecv(
                        Some(g.world_rank(r)),
                        Some(tag),
                        rbuf,
                        roff + r as u64 * len,
                        len,
                    )
                })
                .collect();
            self.waitall(&reqs);
        } else {
            self.send(g.world_rank(root), tag, sbuf, soff, len);
        }
    }

    /// Linear scatter: `root`'s `sbuf[soff + rank*len]` lands in each
    /// rank's `rbuf[roff..]`.
    pub fn scatter(&self, root: usize, sbuf: BufId, soff: u64, len: u64, rbuf: BufId, roff: u64) {
        self.scatter_in(self.universe_group(), root, sbuf, soff, len, rbuf, roff);
    }

    /// Group scatter: group-root `root`'s block `r` goes to group-rank
    /// `r`.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn scatter_in(
        &self,
        g: &CommGroup,
        root: usize,
        sbuf: BufId,
        soff: u64,
        len: u64,
        rbuf: BufId,
        roff: u64,
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        assert!(root < gn, "scatter root {root} outside group");
        let tag = gtag(g, seq, 3);
        if gr == root {
            let reqs: Vec<_> = (0..gn)
                .filter(|&r| r != root)
                .map(|r| self.isend(g.world_rank(r), tag, sbuf, soff + r as u64 * len, len))
                .collect();
            self.os()
                .user_copy(self.proc(), sbuf, soff + gr as u64 * len, rbuf, roff, len);
            self.waitall(&reqs);
        } else {
            self.recv(Some(g.world_rank(root)), Some(tag), rbuf, roff, len);
        }
    }

    /// Allgather over the universe: every rank's `len` bytes end at
    /// `rbuf[roff + rank*len]` on all ranks.
    pub fn allgather(&self, sbuf: BufId, soff: u64, len: u64, rbuf: BufId, roff: u64) {
        self.allgather_in(self.universe_group(), sbuf, soff, len, rbuf, roff);
    }

    /// Group allgather: member `r`'s bytes end at `rbuf[roff + r*len]`
    /// (`r` a *group* rank) on every member. Ring (arm 0,
    /// `|group|−1` neighbour rounds) or Bruck (arm 1,
    /// `ceil(log2)` doubling rounds through a staging buffer).
    pub fn allgather_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        len: u64,
        rbuf: BufId,
        roff: u64,
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        let os = self.os();
        os.user_copy(self.proc(), sbuf, soff, rbuf, roff + gr as u64 * len, len);
        if gn == 1 {
            return;
        }
        let tag = gtag(g, seq, 4);
        let arm = self.coll_arm(g, CollKind::Allgather, len, seq);
        let start = self.proc().now();
        let stripe = len > self.config().eager_max;
        if stripe {
            self.coll_stripe.set(true);
        }
        if arm == 1 {
            // Bruck: doubling rounds over a group-rank-rotated staging
            // buffer, then one rotation pass into place. After each
            // round the buffer holds blocks of group ranks
            // gr, gr+1, …, gr+have−1 (mod gn) in order.
            let tmp = os.alloc(self.rank(), (gn as u64 * len).max(1));
            os.user_copy(self.proc(), sbuf, soff, tmp, 0, len);
            for have in doubling(gn) {
                let cnt = have.min(gn - have) as u64 * len;
                let r = shift(gn, gr, gn - have);
                self.sendrecv(
                    g.world_rank(r.dst),
                    tag,
                    tmp,
                    0,
                    cnt,
                    Some(g.world_rank(r.src)),
                    Some(tag),
                    tmp,
                    have as u64 * len,
                    cnt,
                );
            }
            for i in 0..gn {
                let block = shift(gn, gr, i).dst;
                os.user_copy(
                    self.proc(),
                    tmp,
                    i as u64 * len,
                    rbuf,
                    roff + block as u64 * len,
                    len,
                );
            }
        } else {
            // Ring: each round forwards the block received the round
            // before.
            let ring = shift(gn, gr, 1);
            let (right, left) = (g.world_rank(ring.dst), g.world_rank(ring.src));
            for step in 0..gn - 1 {
                let send_block = shift(gn, gr, step).src;
                let recv_block = shift(gn, gr, step + 1).src;
                self.sendrecv(
                    right,
                    tag,
                    rbuf,
                    roff + send_block as u64 * len,
                    len,
                    Some(left),
                    Some(tag),
                    rbuf,
                    roff + recv_block as u64 * len,
                    len,
                );
            }
        }
        if stripe {
            self.coll_stripe.set(false);
        }
        self.credit_coll(g, CollKind::Allgather, len, arm, gn as u64 * len, start);
    }

    /// Inclusive prefix reduction over `u64` lanes (`MPI_Scan`): rank r's
    /// `rbuf` ends up holding the reduction of ranks `0..=r`. NAS IS uses
    /// the scan family to compute global key ranks.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn scan_u64(
        &self,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.scan_impl(
            self.universe_group(),
            sbuf,
            soff,
            rbuf,
            roff,
            n_elems,
            op,
            true,
        );
    }

    /// Group scan (prefix order = group-rank order).
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn scan_u64_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.scan_impl(g, sbuf, soff, rbuf, roff, n_elems, op, true);
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank r receives the
    /// reduction of ranks `0..r`; rank 0's `rbuf` is set to the Sum
    /// identity (zeros). Only `ReduceOp::Sum` has an identity, so other
    /// operators leave rank 0's buffer untouched, as MPI does.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn exscan_u64(
        &self,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.scan_impl(
            self.universe_group(),
            sbuf,
            soff,
            rbuf,
            roff,
            n_elems,
            op,
            false,
        );
    }

    /// Group exscan (group-rank 0 gets the identity).
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn exscan_u64_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
    ) {
        self.scan_impl(g, sbuf, soff, rbuf, roff, n_elems, op, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_impl(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        rbuf: BufId,
        roff: u64,
        n_elems: usize,
        op: ReduceOp,
        inclusive: bool,
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let os = self.os();
        let bytes = bytes_of::<u64>(n_elems);
        let tag = gtag(g, seq, 7);
        let (pred, succ) = chain(g, gr, 0);
        let mine: Vec<u64> = load_raw(os, self.proc(), sbuf, soff, n_elems);
        os.touch_read(self.proc(), sbuf, soff, bytes);
        // Chain algorithm: receive the prefix of 0..gr, combine, forward.
        let prefix: Option<Vec<u64>> = if let Some(pred) = pred {
            let tmp = os.alloc(self.rank(), bytes.max(1));
            self.recv(Some(pred), Some(tag), tmp, 0, bytes);
            let p: Vec<u64> = load_raw(os, self.proc(), tmp, 0, n_elems);
            os.touch_read(self.proc(), tmp, 0, bytes);
            Some(p)
        } else {
            None
        };
        let inclusive_val: Vec<u64> = match &prefix {
            Some(p) => mine
                .iter()
                .zip(p)
                .map(|(&a, &b)| op.apply_u64(a, b))
                .collect(),
            None => mine.clone(),
        };
        if let Some(succ) = succ {
            let tmp = os.alloc(self.rank(), bytes.max(1));
            store_raw(os, self.proc(), tmp, 0, &inclusive_val);
            os.touch_write(self.proc(), tmp, 0, bytes);
            self.send(succ, tag, tmp, 0, bytes);
        }
        if inclusive {
            store_raw(os, self.proc(), rbuf, roff, &inclusive_val);
            os.touch_write(self.proc(), rbuf, roff, bytes);
        } else {
            match prefix {
                Some(p) => {
                    store_raw(os, self.proc(), rbuf, roff, &p);
                    os.touch_write(self.proc(), rbuf, roff, bytes);
                }
                None if op == ReduceOp::Sum => {
                    store_raw(os, self.proc(), rbuf, roff, &vec![0u64; n_elems]);
                    os.touch_write(self.proc(), rbuf, roff, bytes);
                }
                None => {} // no identity: rank 0's buffer is undefined
            }
        }
    }

    /// Pairwise-exchange alltoall: rank `i`'s block `j` —
    /// `sbuf[soff + j*len]` — lands at `rbuf[roff + i*len]` on rank `j`.
    /// This is the operation of Figure 7.
    pub fn alltoall(&self, sbuf: BufId, soff: u64, len: u64, rbuf: BufId, roff: u64) {
        self.alltoall_in(self.universe_group(), sbuf, soff, len, rbuf, roff);
    }

    /// Group alltoall (block indices are *group* ranks): stepwise
    /// pairwise exchange (arm 0) or fully scattered — every receive
    /// and send posted up front so all `|group|−1` transfers overlap
    /// (arm 1, the §6 concurrency shape).
    pub fn alltoall_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soff: u64,
        len: u64,
        rbuf: BufId,
        roff: u64,
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        let os = self.os();
        if self.nem_cfg_collective_hint() && gn > 1 {
            self.set_concurrency_hint(gn as u32 - 1);
        }
        os.user_copy(
            self.proc(),
            sbuf,
            soff + gr as u64 * len,
            rbuf,
            roff + gr as u64 * len,
            len,
        );
        if gn == 1 {
            return;
        }
        let tag = gtag(g, seq, 5);
        let arm = self.coll_arm(g, CollKind::Alltoall, len, seq);
        let start = self.proc().now();
        let stripe = len > self.config().eager_max;
        if stripe {
            self.coll_stripe.set(true);
        }
        if arm == 1 {
            let rreqs: Vec<_> = (1..gn)
                .map(|step| {
                    let src = shift(gn, gr, step).src;
                    self.irecv(
                        Some(g.world_rank(src)),
                        Some(tag),
                        rbuf,
                        roff + src as u64 * len,
                        len,
                    )
                })
                .collect();
            let sreqs: Vec<_> = (1..gn)
                .map(|step| {
                    let dst = shift(gn, gr, step).dst;
                    self.isend(g.world_rank(dst), tag, sbuf, soff + dst as u64 * len, len)
                })
                .collect();
            self.waitall(&rreqs);
            self.waitall(&sreqs);
        } else {
            for step in 1..gn {
                let Shift { dst, src, .. } = shift(gn, gr, step);
                self.sendrecv(
                    g.world_rank(dst),
                    tag,
                    sbuf,
                    soff + dst as u64 * len,
                    len,
                    Some(g.world_rank(src)),
                    Some(tag),
                    rbuf,
                    roff + src as u64 * len,
                    len,
                );
            }
        }
        if stripe {
            self.coll_stripe.set(false);
        }
        self.set_concurrency_hint(1);
        self.credit_coll(g, CollKind::Alltoall, len, arm, gn as u64 * len, start);
    }

    /// Vector alltoall: rank `i` sends `slens[j]` bytes from
    /// `sbuf[soffs[j]]` to rank `j`, receiving into `rbuf[roffs[i]]`
    /// (which must hold `rlens[i]` bytes — the amount rank `i` sends us).
    pub fn alltoallv(
        &self,
        sbuf: BufId,
        soffs: &[u64],
        slens: &[u64],
        rbuf: BufId,
        roffs: &[u64],
        rlens: &[u64],
    ) {
        self.alltoallv_in(
            self.universe_group(),
            sbuf,
            soffs,
            slens,
            rbuf,
            roffs,
            rlens,
        );
    }

    /// Group vector alltoall — all four slices are indexed by *group*
    /// rank and must be `|group|` long.
    #[allow(clippy::too_many_arguments)] // MPI-style signature
    pub fn alltoallv_in(
        &self,
        g: &CommGroup,
        sbuf: BufId,
        soffs: &[u64],
        slens: &[u64],
        rbuf: BufId,
        roffs: &[u64],
        rlens: &[u64],
    ) {
        let Some(gr) = g.group_rank(self.rank()) else {
            return;
        };
        let seq = g.next_seq();
        let gn = g.size();
        assert!(soffs.len() == gn && slens.len() == gn && roffs.len() == gn && rlens.len() == gn);
        let os = self.os();
        if self.nem_cfg_collective_hint() && gn > 1 {
            self.set_concurrency_hint(gn as u32 - 1);
        }
        debug_assert_eq!(slens[gr], rlens[gr], "self block mismatch");
        if slens[gr] > 0 {
            os.user_copy(self.proc(), sbuf, soffs[gr], rbuf, roffs[gr], slens[gr]);
        }
        let tag = gtag(g, seq, 6);
        for step in 1..gn {
            let Shift { dst, src, .. } = shift(gn, gr, step);
            let r = self.irecv(
                Some(g.world_rank(src)),
                Some(tag),
                rbuf,
                roffs[src],
                rlens[src],
            );
            let s = self.isend(g.world_rank(dst), tag, sbuf, soffs[dst], slens[dst]);
            self.wait(r);
            self.wait(s);
        }
        self.set_concurrency_hint(1);
    }

    fn nem_cfg_collective_hint(&self) -> bool {
        let cfg = self.config();
        // The hint is worth announcing whenever the configured threshold
        // policy can consume it — via the legacy flag or an explicitly
        // concurrency-aware `ThresholdSelect`.
        cfg.collective_hint || cfg.threshold == crate::config::ThresholdSelect::ConcurrencyAware
    }
}

#[cfg(test)]
mod tests;
