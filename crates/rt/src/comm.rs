//! A miniature real-thread message-passing runtime combining the rt
//! substrate pieces: ranks are OS threads, joined pairwise by one
//! single-producer/single-consumer [`lane`](crate::lane) per ordered
//! rank pair; tiny messages ride *inside* the lane slot (one fused
//! pack-into-slot write), small messages through the lane's byte ring
//! (two copies), large messages through the selected
//! [`RtLmtBackend`](crate::lmt::RtLmtBackend) — this module never names
//! a concrete strategy, exactly as `nemesis_core::comm` drives its
//! backends only through `LmtBackend`.
//!
//! This is the host-machine counterpart of `nemesis-core`: same protocol
//! shape, real memory, real atomics — used by tests and the in-tree
//! benchmark to validate the data structures under true parallelism.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::backoff::Backoff;
use crate::lane::{lane, Header, Kind, LaneRx, LaneTx};
use crate::lmt::{backend_for_schedule, RtLmtBackend};
use crate::queue::QueueFull;
use crate::tuner::{RtChunkScheduleSelect, RtTransferSample, RtTuner};

/// Payload bytes a message can carry inline, inside the lane slot
/// itself. Contiguous sends at or below this size skip the byte ring
/// entirely: one fused write packs header and payload into the slot, so
/// the message touches each cache line exactly once on each side.
pub use crate::lane::INLINE_MAX;
pub use crate::lmt::RtLmt;

/// Messages at or below this size go eager (through the lane's byte
/// ring).
pub const EAGER_MAX: usize = 16 << 10;

/// Runtime tunables — the rt mirror of the queue/backoff knobs in
/// `nemesis_core::NemesisConfig` (the `nemesis` facade crate bridges
/// one into the other).
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Lane depth: slots per ordered rank pair (messages one sender can
    /// have in flight to one receiver before `try_send` reports
    /// [`QueueFull`]).
    pub queue_capacity: usize,
    /// Eager budget per ordered rank pair, in cells: each pair's byte
    /// ring holds `cells × cell_size` bytes (at least one cell), and a
    /// payload takes its own length of it rounded up to a cache line.
    pub cells: usize,
    /// Largest eager payload — larger sends go rendezvous, as do sends
    /// above [`EAGER_MAX`] — and the unit of `cells`.
    pub cell_size: usize,
    /// Contiguous payloads at or below this ride inline in the lane
    /// slot (clamped to [`INLINE_MAX`]). 0 disables the inline path.
    pub inline_max: usize,
    /// Spin cap fed to every [`Backoff`] the runtime creates (see
    /// `Backoff::with_spin_limit`).
    pub spin_limit: u32,
    /// Slots a poll takes from each incoming lane when it finds no
    /// match, parking them: what keeps a receive blocked on one peer
    /// draining the others. A poll that finds its match stops there.
    pub recv_batch: usize,
    /// Chunk schedule of the double-buffer ring (the rt mirror of
    /// `NemesisConfig::chunk_schedule`, bridged by `nemesis::rt_config_from`).
    pub chunk_schedule: RtChunkScheduleSelect,
    /// How collectives pick their algorithm arm (the rt mirror of
    /// `NemesisConfig::coll_alg`). `Learned` consults the tuner's
    /// collective bandit; `run_rt_cfg` creates a tuner automatically
    /// when none is supplied.
    pub coll_alg: crate::coll::RtCollAlg,
    /// Per-pair learned state. `run_rt_cfg` creates one automatically
    /// when the schedule is `Learned`; pass an explicit tuner to keep
    /// learned state across runs (to measure a converged schedule, or
    /// to read its cells afterwards, as `learned_mode_credits_the_bandit`
    /// does).
    pub tuner: Option<Arc<RtTuner>>,
    /// Real-clock cap on how long a rendezvous sender waits for the
    /// receiver's completion — the rt mirror of the simulated engine's
    /// watchdog. A peer that never drains the transfer turns into a
    /// loud panic naming both ranks instead of a silent hang. `None`
    /// waits forever (the seed behavior).
    pub rndv_timeout: Option<std::time::Duration>,
}

impl Default for RtConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 512,
            cells: 16,
            cell_size: EAGER_MAX,
            inline_max: INLINE_MAX,
            spin_limit: crate::backoff::DEFAULT_SPIN_LIMIT,
            recv_batch: 16,
            chunk_schedule: RtChunkScheduleSelect::default(),
            coll_alg: crate::coll::RtCollAlg::from_env(),
            tuner: None,
            rndv_timeout: Some(std::time::Duration::from_secs(30)),
        }
    }
}

impl RtConfig {
    /// Give every ring at least one cell and clamp the inline cutoff to
    /// what a slot holds.
    fn clamped(mut self) -> Self {
        self.cells = self.cells.max(1);
        self.inline_max = self.inline_max.min(INLINE_MAX);
        self
    }
}

/// One sender rank's rendezvous completion word, on a line of its own.
/// A blocking sender has one rendezvous in flight, so one word per rank
/// serves every message: no per-message allocation, and the only
/// shared writes are the receiver's one store. The sequence number
/// keeps a late store — a receiver finishing after the sender's timeout
/// panic — from completing a *later* send; the word lives as long as
/// the runtime, so that store always lands in valid memory.
#[repr(align(64))]
#[derive(Default)]
struct RndvWord {
    /// Rendezvous sends started by this rank (sender-private).
    sent: AtomicUsize,
    /// Sequence number of the last one a receiver completed.
    done: AtomicUsize,
}

/// The owned form of a *parked* message — one taken off its lane before
/// a receive wanted it: the header plus a copy of its payload, so a
/// parked message holds no lane slot and no ring bytes. A matched
/// message never becomes one; it is delivered from its slot or ring.
struct Packet {
    hdr: Header,
    /// The payload, in a buffer from [`UnexpectedSet::spare`].
    data: Vec<u8>,
}

fn tag_matches(want: Option<i32>, tag: i32) -> bool {
    want.is_none_or(|t| t == tag)
}

/// Parked packets, bucketed by source rank — the rt mirror of the core
/// engine's source-sharded posted set: a concrete-source receive scans
/// only its sender's backlog, so buffering traffic from many peers does
/// not make every later receive pay an O(all-buffered) scan. The buckets
/// are indexed by rank and keep their buffers, and payload buffers come
/// back to `spare` when their packet is delivered, so parking and
/// re-taking in steady state allocates nothing. Lanes order messages per
/// pair only (all MPI asks for); the sequence number orders *parked*
/// packets across sources, so a wildcard receive takes the one parked
/// first.
struct UnexpectedSet {
    by_src: Vec<VecDeque<(u64, Packet)>>,
    /// Packets parked in all buckets. A receive with nothing parked
    /// stops at this count and never reads the bucket array: that array
    /// is a small heap block, and when the allocator put it beside a
    /// buffer the sending rank writes per message, every receive missed
    /// on it — a per-run slow mode of about a fifth on `rt_pingpong_64B`.
    parked: usize,
    /// Payload buffers of delivered packets, kept for the next park.
    spare: Vec<Vec<u8>>,
    next_seq: u64,
}

impl UnexpectedSet {
    fn new(n: usize) -> Self {
        Self {
            by_src: (0..n).map(|_| VecDeque::new()).collect(),
            parked: 0,
            spare: Vec::new(),
            next_seq: 0,
        }
    }

    /// Park a message taken off the lane from `src`, copying its payload
    /// out. Cold and out of line: the matched path never parks, and
    /// keeping the copy out of `poll`'s closure keeps that path short.
    #[cold]
    #[inline(never)]
    fn park(&mut self, src: usize, hdr: &Header, payload: &[u8]) {
        let mut data = self.spare.pop().unwrap_or_default();
        data.clear();
        data.extend_from_slice(payload);
        let pkt = Packet { hdr: *hdr, data };
        self.by_src[src].push_back((self.next_seq, pkt));
        self.next_seq += 1;
        self.parked += 1;
    }

    /// Take the oldest parked packet matching `(src, tag)`, if any, with
    /// its source rank.
    fn take(&mut self, src: Option<usize>, tag: Option<i32>) -> Option<(usize, Packet)> {
        if self.parked == 0 {
            return None;
        }
        // (sequence number, position) of a bucket's oldest tag-match.
        let oldest = |q: &VecDeque<(u64, Packet)>| {
            let i = q.iter().position(|(_, p)| tag_matches(tag, p.hdr.tag))?;
            Some((q[i].0, i))
        };
        let (_, s, i) = match src {
            Some(s) => oldest(&self.by_src[s]).map(|(seq, i)| (seq, s, i))?,
            // Wildcard source: the buckets' oldest tag-matches compete
            // on their sequence numbers.
            None => (self.by_src.iter().enumerate())
                .filter_map(|(s, q)| oldest(q).map(|(seq, i)| (seq, s, i)))
                .min()?,
        };
        self.parked -= 1;
        self.by_src[s].remove(i).map(|(_, p)| (s, p))
    }
}

/// What every rank reads on every message, on lines of its own: no heap
/// neighbour's writes invalidate it.
#[repr(align(64))]
struct Shared {
    /// The selected large-message backend; all transfer bytes flow
    /// through this trait object.
    backend: Box<dyn RtLmtBackend>,
    /// Completion word of each sender rank's in-flight rendezvous.
    rndv: Vec<RndvWord>,
    cfg: RtConfig,
    n: usize,
}

/// Per-rank endpoint. `Send` but not `Sync`: a lane has one producer,
/// so `send(&self)` from two threads must not compile.
pub struct RtComm {
    rank: usize,
    shared: Arc<Shared>,
    /// Outgoing lanes, indexed by destination rank.
    tx: Vec<LaneTx>,
    /// Incoming lanes, indexed by source rank.
    rx: Vec<LaneRx>,
    unexpected: UnexpectedSet,
    /// Where a wildcard poll starts its pass over `rx`: one past the
    /// source the last wildcard receive was served from.
    rotor: usize,
}

impl RtComm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Diagnostic name of the active large-message backend.
    pub fn lmt_name(&self) -> &'static str {
        self.shared.backend.name()
    }

    /// The learned-state tuner, when the configuration carries one.
    pub fn tuner(&self) -> Option<&Arc<RtTuner>> {
        self.shared.cfg.tuner.as_ref()
    }

    /// Eager payload bytes claimed in the byte rings of this rank's
    /// lanes, both directions, and not yet released: 0 once every ring
    /// is released. Exact only while the peers are quiesced — use for
    /// leak checks at known sync points.
    pub fn eager_bytes_in_flight(&self) -> usize {
        let sent: usize = self.tx.iter().map(LaneTx::eager_bytes_in_flight).sum();
        let received: usize = self.rx.iter().map(LaneRx::eager_bytes_in_flight).sum();
        sent + received
    }

    /// How collectives pick their algorithm arm.
    pub fn coll_alg(&self) -> crate::coll::RtCollAlg {
        self.shared.cfg.coll_alg
    }

    fn backoff(&self) -> Backoff {
        Backoff::with_spin_limit(self.shared.cfg.spin_limit)
    }

    /// Publish one message on the lane to `dst`, backing off while that
    /// lane is full or, for an eager payload, its ring lacks room.
    fn push(&self, dst: usize, hdr: Header, payload: &[u8]) {
        let mut bo = self.backoff();
        while !self.tx[dst].try_push(hdr, payload) {
            bo.snooze();
        }
    }

    /// Blocking send of `data` to `dst`.
    pub fn send(&self, dst: usize, tag: i32, data: &[u8]) {
        assert!(dst < self.shared.n && dst != self.rank, "bad destination");
        let len = data.len();
        let hdr = |kind, word, seq| Header {
            kind,
            tag,
            len,
            word,
            seq,
        };
        if len <= self.shared.cfg.inline_max {
            // Fused path: pack header + payload straight into the lane
            // slot — no ring bytes, no second staging copy.
            return self.push(dst, hdr(Kind::Inline, 0, 0), data);
        }
        // The eager cutoff is bounded by the configured cell size: a
        // larger payload goes rendezvous, whatever EAGER_MAX says.
        if len <= EAGER_MAX.min(self.shared.cfg.cell_size) {
            // Eager: copy into the pair's byte ring (first copy).
            return self.push(dst, hdr(Kind::Eager, 0, 0), data);
        }
        // Rendezvous: announce, let the backend move the payload, then
        // hold the buffer until the receiver confirms completion.
        let word = &self.shared.rndv[self.rank];
        let seq = word.sent.fetch_add(1, Ordering::Relaxed) + 1;
        self.push(dst, hdr(Kind::Rndv, data.as_ptr() as usize, seq), &[]);
        self.shared.backend.send_payload(self.rank, dst, data);
        let mut bo = self.backoff();
        let deadline = self
            .shared
            .cfg
            .rndv_timeout
            .map(|t| std::time::Instant::now() + t);
        let mut spins: u32 = 0;
        while word.done.load(Ordering::Acquire) != seq {
            bo.snooze();
            // Check the clock only every so often: the hot path stays a
            // pure load + snooze.
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                if let Some(deadline) = deadline {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "rank {dst} stalled: rendezvous from rank {} ({} bytes) not \
                         drained within {:?}",
                        self.rank,
                        data.len(),
                        self.shared.cfg.rndv_timeout.unwrap(),
                    );
                }
            }
        }
    }

    /// Non-blocking send of an inline-sized payload (at most the
    /// configured `inline_max`): either the message lands on the lane to
    /// `dst` or that lane is full and [`QueueFull`] comes back — the
    /// bounded lane's backpressure surfaced to the caller instead of
    /// absorbed by `send`'s backoff loop. Full is per pair: another
    /// sender's lane to `dst` is not affected.
    pub fn try_send(&self, dst: usize, tag: i32, data: &[u8]) -> Result<(), QueueFull<()>> {
        assert!(dst < self.shared.n && dst != self.rank, "bad destination");
        let inline_max = self.shared.cfg.inline_max;
        assert!(
            data.len() <= inline_max,
            "try_send is the inline path: {} bytes exceeds inline_max {}",
            data.len(),
            inline_max
        );
        let hdr = Header {
            kind: Kind::Inline,
            tag,
            len: data.len(),
            word: 0,
            seq: 0,
        };
        if self.tx[dst].try_push(hdr, data) {
            Ok(())
        } else {
            Err(QueueFull(()))
        }
    }

    /// Admission batching: non-blocking send of a run of inline-sized
    /// payloads to `dst`, in order, stopping at the first full slot.
    /// Returns how many were admitted (`payloads.len()` when the whole
    /// batch landed). Stopping at the first [`QueueFull`] — instead of
    /// skipping ahead — is what keeps the admitted stream per-pair
    /// FIFO: a later payload never overtakes one the lane rejected.
    /// It is a loop over [`RtComm::try_send`], nothing more; the serving
    /// layer's submit path hands its bursts to it.
    pub fn try_send_batch(&self, dst: usize, tag: i32, payloads: &[&[u8]]) -> usize {
        for (i, p) in payloads.iter().enumerate() {
            if self.try_send(dst, tag, p).is_err() {
                return i;
            }
        }
        payloads.len()
    }

    /// Blocking receive from `src` with `tag` into `dst`; returns the
    /// received length.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<i32>, dst: &mut [u8]) -> usize {
        // Previously parked packets first: they are older than anything
        // still on their source's lane.
        if let Some(len) = self.take_parked(src, tag, dst) {
            return len;
        }
        let mut bo = self.backoff();
        loop {
            match self.poll(src, tag, dst) {
                (Some(len), _) => return len,
                (None, true) => bo.reset(),
                (None, false) => bo.snooze(),
            }
        }
    }

    /// Non-blocking receive: deliver a matching message if one is
    /// already parked or arrives in a single pass over the lanes, else
    /// `None`. This is the service worker's poll primitive — a worker
    /// multiplexing requests with health probes cannot park inside
    /// [`RtComm::recv`]'s backoff loop.
    pub fn try_recv(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
        dst: &mut [u8],
    ) -> Option<usize> {
        if let Some(len) = self.take_parked(src, tag, dst) {
            return Some(len);
        }
        self.poll(src, tag, dst).0
    }

    fn take_parked(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
        dst: &mut [u8],
    ) -> Option<usize> {
        let (s, p) = self.unexpected.take(src, tag)?;
        let len = Self::deliver(&self.shared, self.rank, s, &p.hdr, &p.data, dst);
        self.unexpected.spare.push(p.data);
        Some(len)
    }

    /// One pass over the incoming lanes — the wanted source first, for a
    /// wildcard the one after the source last served — that stops at the
    /// first match and delivers it straight from its slot or ring (the
    /// hot path never builds a [`Packet`]). Whatever it takes before the
    /// match parks. A pass that finds no match takes up to `recv_batch`
    /// slots from every lane, so a sender to this rank is never held up
    /// by a receive posted for someone else. Returns the delivered
    /// length, if any, and whether any slot was taken.
    fn poll(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
        dst: &mut [u8],
    ) -> (Option<usize>, bool) {
        let n = self.shared.n;
        let batch = self.shared.cfg.recv_batch.max(1);
        let start = src.unwrap_or(self.rotor);
        let (shared, rank, unexpected) = (&*self.shared, self.rank, &mut self.unexpected);
        let mut took = false;
        for s in (start..n).chain(0..start).filter(|&s| s != rank) {
            let wanted = src.is_none_or(|x| x == s);
            for _ in 0..batch {
                let taken = self.rx[s].take(|hdr, payload| {
                    if wanted && tag_matches(tag, hdr.tag) {
                        return Some(Self::deliver(shared, rank, s, hdr, payload, dst));
                    }
                    unexpected.park(s, hdr, payload);
                    None
                });
                match taken {
                    None => break,
                    Some(None) => took = true,
                    Some(Some(len)) => {
                        if src.is_none() {
                            self.rotor = if s + 1 < n { s + 1 } else { 0 };
                        }
                        return (Some(len), true);
                    }
                }
            }
        }
        (None, took)
    }

    /// Move one matched message's payload into `dst` — `payload` being
    /// its bytes in the lane slot, the ring or a parked [`Packet`].
    fn deliver(
        shared: &Shared,
        rank: usize,
        src_rank: usize,
        hdr: &Header,
        payload: &[u8],
        dst: &mut [u8],
    ) -> usize {
        let len = hdr.len;
        assert!(len <= dst.len(), "receive buffer too small");
        let dst = &mut dst[..len];
        match hdr.kind {
            // The one copy out of the slot; an eager payload's second,
            // out of the ring.
            Kind::Inline | Kind::Eager => dst.copy_from_slice(payload),
            Kind::Rndv => {
                // SAFETY: `word` is the address of the sender's `len`
                // bytes, which it keeps alive and unmodified (it blocks
                // inside `send`) until we publish `seq` below.
                let src_slice = unsafe { std::slice::from_raw_parts(hdr.word as *const u8, len) };
                let t0 = (shared.cfg.tuner.as_ref()).map(|_| std::time::Instant::now());
                shared.backend.recv_payload(src_rank, rank, src_slice, dst);
                // Mirror of the simulated stack's completion sampling:
                // every rendezvous completion feeds the tuner, on the
                // receiver.
                if let (Some(tuner), Some(t0)) = (&shared.cfg.tuner, t0) {
                    tuner.record_transfer(
                        src_rank,
                        rank,
                        &RtTransferSample {
                            backend: shared.backend.name(),
                            offload: shared.backend.is_offload(),
                            bytes: len,
                            nanos: t0.elapsed().as_nanos() as u64,
                        },
                    );
                }
                shared.rndv[src_rank].done.store(hdr.seq, Ordering::Release);
            }
        }
        len
    }

    /// Blocking vectored send: the `(offset, len)` blocks of `buf` form
    /// the payload. All rt backends are scatter-blind, so the blocks are
    /// packed into a contiguous staging buffer first — the same
    /// dataloop-style path `nemesis_core` uses for its byte-stream
    /// wires.
    pub fn sendv(&self, dst: usize, tag: i32, buf: &[u8], blocks: &[(usize, usize)]) {
        // Contiguous fast path (mirrors `Comm::isendv` skipping the pack
        // when `layout.is_contiguous()`).
        if let [(off, len)] = *blocks {
            return self.send(dst, tag, &buf[off..off + len]);
        }
        let total: usize = blocks.iter().map(|&(_, l)| l).sum();
        let mut staging = Vec::with_capacity(total);
        for &(off, len) in blocks {
            staging.extend_from_slice(&buf[off..off + len]);
        }
        self.send(dst, tag, &staging);
    }

    /// Blocking vectored receive: the payload is scattered into the
    /// `(offset, len)` blocks of `buf`. Returns the received length.
    pub fn recvv(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
        blocks: &[(usize, usize)],
    ) -> usize {
        // Contiguous fast path: receive straight into the single block.
        if let [(off, len)] = *blocks {
            let got = self.recv(src, tag, &mut buf[off..off + len]);
            assert_eq!(got, len, "vectored payload length mismatch");
            return got;
        }
        let total: usize = blocks.iter().map(|&(_, l)| l).sum();
        let mut staging = vec![0u8; total];
        let got = self.recv(src, tag, &mut staging);
        assert_eq!(got, total, "vectored payload length mismatch");
        let mut at = 0;
        for &(off, len) in blocks {
            buf[off..off + len].copy_from_slice(&staging[at..at + len]);
            at += len;
        }
        got
    }
}

/// Run `n` rank-threads with the given large-message strategy. Each
/// thread gets its own [`RtComm`]. Returns when all ranks finish.
pub fn run_rt<F>(n: usize, lmt: RtLmt, body: F)
where
    F: Fn(&mut RtComm) + Send + Sync,
{
    run_rt_cfg(n, lmt, RtConfig::default(), body)
}

/// Run `n` rank-threads with an explicit [`RtConfig`] (the bridge point
/// for `NemesisConfig`-derived tuning). A `Learned` chunk schedule gets
/// a fresh tuner unless the config carries one already.
pub fn run_rt_cfg<F>(n: usize, lmt: RtLmt, mut cfg: RtConfig, body: F)
where
    F: Fn(&mut RtComm) + Send + Sync,
{
    if (cfg.chunk_schedule == RtChunkScheduleSelect::Learned
        || cfg.coll_alg == crate::coll::RtCollAlg::Learned)
        && cfg.tuner.is_none()
    {
        cfg.tuner = Some(RtTuner::new(n));
    }
    let backend = backend_for_schedule(lmt, n, cfg.chunk_schedule, cfg.tuner.as_ref());
    run_rt_with_cfg(n, backend, cfg, body)
}

/// Run `n` rank-threads over an explicit backend instance (the
/// extension point for out-of-tree copy engines).
pub fn run_rt_with<F>(n: usize, backend: Box<dyn RtLmtBackend>, body: F)
where
    F: Fn(&mut RtComm) + Send + Sync,
{
    run_rt_with_cfg(n, backend, RtConfig::default(), body)
}

/// The fully explicit runner: backend instance + runtime config.
pub fn run_rt_with_cfg<F>(n: usize, backend: Box<dyn RtLmtBackend>, cfg: RtConfig, body: F)
where
    F: Fn(&mut RtComm) + Send + Sync,
{
    assert!(n >= 1);
    let cfg = cfg.clamped();
    // One lane per ordered pair: `txs[src][dst]` feeds `rxs[dst][src]`.
    // The diagonal exists for plain indexing and is never used: one
    // slot, no ring.
    let ring_bytes = cfg.cells * cfg.cell_size;
    let mut txs: Vec<Vec<LaneTx>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut rxs: Vec<Vec<LaneRx>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    for (src, tx_row) in txs.iter_mut().enumerate() {
        for (dst, rx_row) in rxs.iter_mut().enumerate() {
            let (tx, rx) = if src == dst {
                lane(1, 0)
            } else {
                lane(cfg.queue_capacity, ring_bytes)
            };
            tx_row.push(tx);
            rx_row.push(rx);
        }
    }
    let shared = Arc::new(Shared {
        backend,
        rndv: (0..n).map(|_| RndvWord::default()).collect(),
        cfg,
        n,
    });
    std::thread::scope(|s| {
        for (rank, (tx, rx)) in txs.into_iter().zip(rxs).enumerate() {
            let shared = Arc::clone(&shared);
            let body = &body;
            s.spawn(move || {
                let mut comm = RtComm {
                    rank,
                    shared,
                    tx,
                    rx,
                    unexpected: UnexpectedSet::new(n),
                    rotor: 0,
                };
                body(&mut comm);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lmt::ALL_RT_LMTS;

    #[test]
    fn eager_roundtrip_all_strategies() {
        for lmt in ALL_RT_LMTS {
            run_rt(2, lmt, |comm| {
                if comm.rank() == 0 {
                    let data: Vec<u8> = (0..1000).map(|i| (i % 250) as u8).collect();
                    comm.send(1, 1, &data);
                } else {
                    let mut buf = vec![0u8; 1000];
                    assert_eq!(comm.recv(Some(0), Some(1), &mut buf), 1000);
                    assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 250) as u8));
                }
            });
        }
    }

    #[test]
    fn inline_roundtrip_boundary_sizes() {
        // Sizes straddling the inline threshold, including zero.
        for len in [
            0usize,
            1,
            63,
            64,
            INLINE_MAX - 1,
            INLINE_MAX,
            INLINE_MAX + 1,
        ] {
            run_rt(2, RtLmt::Direct, move |comm| {
                if comm.rank() == 0 {
                    let data: Vec<u8> = (0..len).map(|i| (i % 250) as u8).collect();
                    comm.send(1, 9, &data);
                } else {
                    let mut buf = vec![0xAAu8; len + 8];
                    assert_eq!(comm.recv(Some(0), Some(9), &mut buf), len);
                    assert!(buf[..len]
                        .iter()
                        .enumerate()
                        .all(|(i, &b)| b == (i % 250) as u8));
                    assert!(buf[len..].iter().all(|&b| b == 0xAA), "overrun");
                }
            });
        }
    }

    #[test]
    fn small_cells_route_midsize_sends_to_rendezvous() {
        // cell_size below EAGER_MAX: a payload between the two must go
        // rendezvous instead of asserting on the pooled-cell copy.
        let cfg = RtConfig {
            cell_size: 8 << 10,
            ..RtConfig::default()
        };
        run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
            let n = 12 << 10; // > cell_size, < EAGER_MAX
            if comm.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 247) as u8).collect();
                comm.send(1, 3, &data);
            } else {
                let mut buf = vec![0u8; n];
                assert_eq!(comm.recv(Some(0), Some(3), &mut buf), n);
                assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 247) as u8));
            }
        });
    }

    #[test]
    fn inline_disabled_still_delivers() {
        let cfg = RtConfig {
            inline_max: 0,
            ..RtConfig::default()
        };
        run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[7u8; 32]);
            } else {
                let mut buf = [0u8; 32];
                assert_eq!(comm.recv(Some(0), Some(1), &mut buf), 32);
                assert!(buf.iter().all(|&b| b == 7));
            }
        });
    }

    #[test]
    fn large_roundtrip_all_strategies() {
        for lmt in ALL_RT_LMTS {
            run_rt(2, lmt, |comm| {
                let n = 3 << 20;
                if comm.rank() == 0 {
                    let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                    comm.send(1, 2, &data);
                } else {
                    let mut buf = vec![0u8; n];
                    assert_eq!(comm.recv(Some(0), Some(2), &mut buf), n);
                    for (i, &b) in buf.iter().enumerate() {
                        assert_eq!(b, (i % 251) as u8, "{lmt:?}: byte {i}");
                    }
                }
            });
        }
    }

    #[test]
    fn tag_matching_with_unexpected() {
        run_rt(2, RtLmt::Direct, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, &[1u8; 100]);
                comm.send(1, 20, &[2u8; 100]);
            } else {
                let mut buf = [0u8; 100];
                comm.recv(Some(0), Some(20), &mut buf);
                assert!(buf.iter().all(|&b| b == 2));
                comm.recv(Some(0), Some(10), &mut buf);
                assert!(buf.iter().all(|&b| b == 1));
            }
        });
    }

    #[test]
    fn ring_of_ranks_all_strategies() {
        for lmt in ALL_RT_LMTS {
            run_rt(4, lmt, |comm| {
                let me = comm.rank();
                let n = comm.size();
                let next = (me + 1) % n;
                let prev = (me + n - 1) % n;
                let data = vec![me as u8 + 1; 200_000];
                let mut buf = vec![0u8; 200_000];
                // Odd/even ordering avoids send-send deadlock with the
                // synchronous rendezvous.
                if me.is_multiple_of(2) {
                    comm.send(next, 0, &data);
                    comm.recv(Some(prev), Some(0), &mut buf);
                } else {
                    comm.recv(Some(prev), Some(0), &mut buf);
                    comm.send(next, 0, &data);
                }
                assert!(buf.iter().all(|&b| b == prev as u8 + 1));
            });
        }
    }

    #[test]
    fn many_small_messages_stress() {
        run_rt(3, RtLmt::Direct, |comm| {
            let me = comm.rank();
            if me == 0 {
                for i in 0..200u8 {
                    comm.send(1 + (i as usize % 2), i as i32 % 7, &[i; 64]);
                }
            } else {
                let mut buf = [0u8; 64];
                let mut seen = 0;
                while seen < 100 {
                    comm.recv(Some(0), None, &mut buf);
                    seen += 1;
                }
            }
        });
    }

    #[test]
    fn wildcard_source() {
        run_rt(3, RtLmt::Direct, |comm| {
            let me = comm.rank();
            if me == 2 {
                let mut buf = [0u8; 32];
                for _ in 0..2 {
                    comm.recv(None, Some(5), &mut buf);
                    assert!(buf[0] == 1 || buf[0] == 2);
                }
            } else {
                comm.send(2, 5, &[me as u8 + 1; 32]);
            }
        });
    }

    #[test]
    fn vectored_single_block_fast_path() {
        run_rt(2, RtLmt::Direct, |comm| {
            if comm.rank() == 0 {
                let buf = vec![7u8; 100_000];
                comm.sendv(1, 4, &buf, &[(8, 90_000)]);
            } else {
                let mut buf = vec![0u8; 100_000];
                assert_eq!(
                    comm.recvv(Some(0), Some(4), &mut buf, &[(16, 90_000)]),
                    90_000
                );
                assert!(buf[16..16 + 90_000].iter().all(|&b| b == 7));
                assert!(buf[..16].iter().all(|&b| b == 0), "outside block untouched");
            }
        });
    }

    #[test]
    fn try_send_surfaces_queue_full() {
        // One-cell queues: the second un-drained try_send must come back
        // as QueueFull, and draining must make the cell reusable.
        let cfg = RtConfig {
            queue_capacity: 1,
            ..RtConfig::default()
        };
        run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
            if comm.rank() == 0 {
                assert_eq!(comm.try_send(1, 7, &[1u8; 16]), Ok(()));
                let mut second = comm.try_send(1, 7, &[2u8; 16]);
                assert_eq!(second, Err(QueueFull(())), "one-cell queue is full");
                // The receiver drains one packet, then the cell recycles.
                while second.is_err() {
                    std::hint::spin_loop();
                    second = comm.try_send(1, 7, &[2u8; 16]);
                }
            } else {
                let mut buf = [0u8; 16];
                comm.recv(Some(0), Some(7), &mut buf);
                assert!(buf.iter().all(|&b| b == 1));
                comm.recv(Some(0), Some(7), &mut buf);
                assert!(buf.iter().all(|&b| b == 2));
            }
        });
    }

    #[test]
    fn rtcomm_is_send_and_not_sync() {
        fn is_send<T: Send>() {}
        is_send::<RtComm>();
        // `some_item` resolves only while exactly one impl applies: were
        // `RtComm` ever `Sync`, both would and this stops compiling.
        trait AmbiguousIfSync<A> {
            fn some_item() {}
        }
        impl<T: ?Sized> AmbiguousIfSync<()> for T {}
        impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
        <RtComm as AmbiguousIfSync<_>>::some_item();
    }

    #[test]
    fn wildcard_receiver_keeps_per_pair_fifo_and_starves_no_sender() {
        const PER: usize = 64;
        let cfg = RtConfig {
            queue_capacity: PER,
            ..RtConfig::default()
        };
        let batch = cfg.recv_batch;
        let filled = std::sync::Barrier::new(4);
        run_rt_cfg(4, RtLmt::Direct, cfg, |comm| {
            let me = comm.rank();
            if me != 0 {
                // Fill the lane to rank 0 before it takes anything, then
                // keep going through the blocking path.
                for i in 0..PER {
                    assert!(comm.try_send(0, 1, &[me as u8, i as u8]).is_ok());
                }
                filled.wait();
                for i in PER..4 * PER {
                    comm.send(0, 1, &[me as u8, i as u8]);
                }
                return;
            }
            filled.wait();
            let mut next = [0usize; 4];
            let mut buf = [0u8; 2];
            for got in 0..3 * 4 * PER {
                assert_eq!(comm.recv(None, Some(1), &mut buf), 2);
                let (src, i) = (buf[0] as usize, buf[1] as usize);
                assert_eq!(i, next[src] % 256, "sender {src} reordered");
                next[src] += 1;
                if got + 1 == 3 * batch {
                    // Every lane was full: one pass takes a batch from
                    // each, so nobody waits for another's backlog.
                    assert!(next[1..].iter().all(|&n| n > 0), "starved: {next:?}");
                }
            }
            assert_eq!(next[1..], [4 * PER; 3]);
        });
    }

    #[test]
    fn blocked_recv_drains_every_lane() {
        // Rank 0 blocks in a receive from rank 1, which only sends once
        // rank 2 has pushed ten lanes' worth of messages at rank 0: they
        // complete only if the blocked receive keeps draining lane 2→0.
        const MSGS: usize = 40;
        let cfg = RtConfig {
            queue_capacity: 4,
            ..RtConfig::default()
        };
        run_rt_cfg(3, RtLmt::Direct, cfg, |comm| {
            let mut buf = [0u8; 8];
            match comm.rank() {
                0 => {
                    comm.recv(Some(1), Some(2), &mut buf);
                    for i in 0..MSGS {
                        comm.recv(Some(2), Some(1), &mut buf);
                        assert_eq!(buf[0], i as u8, "parked stream out of order");
                    }
                }
                1 => {
                    comm.recv(Some(2), Some(3), &mut buf);
                    comm.send(0, 2, &[1]);
                }
                _ => {
                    for i in 0..MSGS {
                        comm.send(0, 1, &[i as u8; 8]);
                    }
                    comm.send(1, 3, &[1]);
                }
            }
        });
    }

    #[test]
    fn one_peers_parked_backlog_starves_no_other_eager_sender() {
        // Rank 0 blocks on rank 2 while rank 1's eager messages pile up
        // parked. With one eager pool shared by every rank they held all
        // of it and rank 2's eager send spun forever; each pair's own
        // ring leaves rank 2 untouched.
        const X: i32 = 1;
        const Y: i32 = 2;
        const GO: i32 = 3;
        const LEN: usize = 4 << 10;
        let cells = RtConfig::default().cells;
        let body = |i: usize| -> Vec<u8> { (0..LEN).map(|j| (i * 7 + j) as u8).collect() };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            run_rt(3, RtLmt::Direct, |comm| {
                let mut buf = vec![0u8; LEN];
                match comm.rank() {
                    0 => {
                        assert_eq!(comm.recv(Some(2), Some(Y), &mut buf), LEN);
                        assert!(buf == body(cells), "Y corrupt");
                        for i in 0..cells {
                            assert_eq!(comm.recv(Some(1), Some(X), &mut buf), LEN);
                            assert!(buf == body(i), "X {i} corrupt");
                        }
                    }
                    1 => {
                        for i in 0..cells {
                            comm.send(0, X, &body(i));
                        }
                        comm.send(2, GO, &[1]);
                    }
                    _ => {
                        comm.recv(Some(1), Some(GO), &mut buf);
                        comm.send(0, Y, &body(cells));
                    }
                }
            });
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(()) => runner.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("rank 2's eager send starved behind rank 1's parked backlog at rank 0")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
        }
    }

    #[test]
    fn parked_eager_payloads_survive_their_ring_bytes_being_reused() {
        // A 16 KiB ring and 48 KiB of tag-A payloads ahead of tag B: the
        // sender only gets past the first ring's worth because parking
        // copies each payload out and releases its bytes, which later A
        // payloads then overwrite.
        const A: i32 = 1;
        const B: i32 = 2;
        let cfg = RtConfig {
            cells: 2,
            cell_size: 8 << 10,
            ..RtConfig::default()
        };
        let sizes: Vec<usize> = (0..12).map(|i| 257 + i * 700).collect();
        let body = |i: usize| -> Vec<u8> { (0..sizes[i]).map(|j| (i * 31 + j) as u8).collect() };
        assert!(sizes.iter().sum::<usize>() > 3 * cfg.cells * cfg.cell_size);
        run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
            if comm.rank() == 0 {
                for i in 0..sizes.len() {
                    comm.send(1, A, &body(i));
                }
                comm.send(1, B, &[0xB; 300]);
            } else {
                let mut buf = vec![0u8; 8 << 10];
                assert_eq!(comm.recv(Some(0), Some(B), &mut buf), 300);
                assert!(buf[..300].iter().all(|&b| b == 0xB));
                for i in 0..sizes.len() {
                    let len = comm.recv(Some(0), Some(A), &mut buf);
                    assert!(buf[..len] == body(i), "parked A {i} corrupt");
                }
                assert_eq!(comm.eager_bytes_in_flight(), 0);
            }
        });
    }

    #[test]
    fn queue_full_is_per_pair() {
        let cfg = RtConfig {
            queue_capacity: 2,
            ..RtConfig::default()
        };
        let step = std::sync::Barrier::new(3);
        run_rt_cfg(3, RtLmt::Direct, cfg, |comm| {
            let mut buf = [0u8; 1];
            match comm.rank() {
                0 => {
                    assert_eq!(comm.try_send(1, 7, &[1]), Ok(()));
                    assert_eq!(comm.try_send(1, 7, &[2]), Ok(()));
                    assert_eq!(comm.try_send(1, 7, &[3]), Err(QueueFull(())));
                    step.wait();
                    step.wait();
                    assert_eq!(comm.try_send(1, 7, &[3]), Err(QueueFull(())));
                    step.wait();
                }
                1 => {
                    // Take nothing until both senders have had their say.
                    for _ in 0..3 {
                        step.wait();
                    }
                    for (src, want) in [(0, 1), (0, 2), (2, 9)] {
                        comm.recv(Some(src), Some(7), &mut buf);
                        assert_eq!(buf[0], want);
                    }
                }
                _ => {
                    step.wait();
                    // Lane 0→1 is full; lane 2→1 still admits.
                    assert_eq!(comm.try_send(1, 7, &[9]), Ok(()));
                    step.wait();
                    step.wait();
                }
            }
        });
    }

    #[test]
    fn try_send_batch_admits_prefix_in_fifo_order() {
        // Queue of 4: a 6-payload batch admits exactly the first 4, and
        // the receiver sees them in submission order.
        let cfg = RtConfig {
            queue_capacity: 4,
            ..RtConfig::default()
        };
        run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
            if comm.rank() == 0 {
                let payloads: Vec<Vec<u8>> = (1..=6u8).map(|i| vec![i; 16]).collect();
                let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
                let admitted = comm.try_send_batch(1, 7, &refs);
                assert_eq!(admitted, 4, "bounded queue admits the prefix");
                // Signal the receiver how many to expect (tag 8 rides
                // after the drain starts, so capacity frees up).
                comm.send(1, 8, &[admitted as u8]);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let mut buf = [0u8; 16];
                for expect in 1..=4u8 {
                    comm.recv(Some(0), Some(7), &mut buf);
                    assert_eq!(buf[0], expect, "admitted prefix out of order");
                }
                let mut n = [0u8; 1];
                comm.recv(Some(0), Some(8), &mut n);
                assert_eq!(n[0], 4);
            }
        });
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        run_rt(2, RtLmt::Direct, |comm| {
            if comm.rank() == 0 {
                let mut buf = [0u8; 16];
                // Nothing sent yet: the poll comes back empty.
                assert_eq!(comm.try_recv(Some(1), Some(3), &mut buf), None);
                comm.send(1, 1, &[9u8; 8]); // release the peer
                                            // Now poll until the reply lands.
                loop {
                    if let Some(len) = comm.try_recv(Some(1), Some(3), &mut buf) {
                        assert_eq!(len, 16);
                        assert!(buf.iter().all(|&b| b == 5));
                        break;
                    }
                    std::hint::spin_loop();
                }
                // Tag filtering holds for polls too: a mismatched tag
                // stays buffered for the blocking path.
                comm.send(1, 1, &[9u8; 8]);
                loop {
                    if comm.try_recv(Some(1), Some(4), &mut buf).is_some() {
                        panic!("tag 4 never sent");
                    }
                    if comm.try_recv(Some(1), Some(5), &mut buf).is_some() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            } else {
                let mut buf = [0u8; 8];
                comm.recv(Some(0), Some(1), &mut buf);
                comm.send(0, 3, &[5u8; 16]);
                comm.recv(Some(0), Some(1), &mut buf);
                comm.send(0, 5, &[6u8; 16]);
            }
        });
    }

    #[test]
    fn rndv_timeout_panics_on_stalled_peer() {
        use std::panic::AssertUnwindSafe;
        use std::sync::atomic::AtomicBool;

        let cfg = RtConfig {
            rndv_timeout: Some(std::time::Duration::from_millis(50)),
            ..RtConfig::default()
        };
        let diagnosed = AtomicBool::new(false);
        run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
            if comm.rank() == 0 {
                // Rank 1 exits without ever posting the receive: the
                // rendezvous completion flag never flips, so the sender
                // must turn the hang into a loud stall diagnostic.
                let data = vec![3u8; 1 << 20];
                let err = std::panic::catch_unwind(AssertUnwindSafe(|| comm.send(1, 1, &data)))
                    .expect_err("stalled rendezvous must not complete");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.contains("rank 1 stalled"),
                    "diagnostic names the peer: {msg}"
                );
                assert!(msg.contains("rank 0"), "diagnostic names the sender: {msg}");
                diagnosed.store(true, Ordering::Release);
            }
        });
        assert!(diagnosed.load(Ordering::Acquire));
    }

    #[test]
    fn vectored_roundtrip_all_strategies() {
        // Strided blocks large enough to force the rendezvous path.
        let blocks: Vec<(usize, usize)> = (0..24).map(|i| (i * (3 << 10), 2 << 10)).collect();
        let span = 24 * (3 << 10);
        for lmt in ALL_RT_LMTS {
            run_rt(2, lmt, |comm| {
                if comm.rank() == 0 {
                    let mut buf = vec![0u8; span];
                    for (i, &(off, len)) in blocks.iter().enumerate() {
                        buf[off..off + len].fill(i as u8 + 1);
                    }
                    comm.sendv(1, 3, &buf, &blocks);
                } else {
                    let mut buf = vec![0u8; span];
                    comm.recvv(Some(0), Some(3), &mut buf, &blocks);
                    for (i, &(off, len)) in blocks.iter().enumerate() {
                        assert!(
                            buf[off..off + len].iter().all(|&b| b == i as u8 + 1),
                            "{lmt:?}: block {i} corrupt"
                        );
                    }
                }
            });
        }
    }
}
