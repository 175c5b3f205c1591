//! A miniature real-thread message-passing runtime combining the rt
//! substrate pieces: ranks are OS threads, each with a Nemesis MPSC
//! receive queue; tiny messages ride *inside* the queue cell (one fused
//! pack-into-cell write), small messages travel through pooled cells
//! (two copies), large messages through the selected
//! [`RtLmtBackend`](crate::lmt::RtLmtBackend) — this module never names
//! a concrete strategy, exactly as `nemesis_core::comm` drives its
//! backends only through `LmtBackend`.
//!
//! This is the host-machine counterpart of `nemesis-core`: same protocol
//! shape, real memory, real atomics — used by tests and Criterion
//! benches to validate the data structures under true parallelism.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::backoff::Backoff;
use crate::cellpool::CellPool;
use crate::lmt::{backend_for_schedule, RtLmtBackend};
use crate::queue::{nem_queue_cfg, QueueFull, Receiver, Sender};
use crate::tuner::{RtChunkScheduleSelect, RtTransferSample, RtTuner};

pub use crate::lmt::RtLmt;

/// Messages at or below this size go eager (through cells).
pub const EAGER_MAX: usize = 16 << 10;

/// Payload bytes a packet can carry inline, inside the receive-queue
/// cell itself. Contiguous sends at or below this size skip the cell
/// pool entirely: one fused write packs header and payload into the
/// queue cell, so the message touches each cache line exactly once on
/// each side.
pub const INLINE_MAX: usize = 256;

/// Runtime tunables — the rt mirror of the queue/backoff knobs in
/// `nemesis_core::NemesisConfig` (the `nemesis` facade crate bridges
/// one into the other).
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Receive-queue cells per rank (bounded in-flight packets).
    pub queue_capacity: usize,
    /// Pooled eager cells shared by all ranks.
    pub cells: usize,
    /// Payload bytes per pooled cell.
    pub cell_size: usize,
    /// Contiguous payloads at or below this ride inline in the queue
    /// cell (clamped to [`INLINE_MAX`]). 0 disables the inline path.
    pub inline_max: usize,
    /// Spin cap fed to every [`Backoff`] the runtime creates (see
    /// `Backoff::with_spin_limit`).
    pub spin_limit: u32,
    /// Packets the consumer drains per queue poll (single batched
    /// recycle).
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
    /// learned state across runs (the report binary does, to measure a
    /// converged schedule).
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
    /// Scale the pooled-cell count for `n` ranks (the former hard-wired
    /// sizing rule).
    fn for_ranks(mut self, n: usize) -> Self {
        self.cells = self.cells.max(4 * n.max(4));
        self
    }
}

struct Rts {
    /// Sender buffer (valid until the receiver publishes `seq` — the
    /// sender blocks).
    src: *const u8,
    len: usize,
    /// What the receiver stores into the sender's [`RndvWord`] when the
    /// data is out.
    seq: usize,
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

// The size difference is the point: `Inline` embeds the payload in the
// queue cell so tiny messages never touch the cell pool. Cells are
// slab-allocated once, so the large variant costs no per-message memory.
#[allow(clippy::large_enum_variant)]
enum Packet {
    /// Fused fast path: the payload lives in this very queue cell.
    Inline {
        src_rank: usize,
        tag: i32,
        len: u16,
        data: [u8; INLINE_MAX],
    },
    Eager {
        src_rank: usize,
        tag: i32,
        cell: usize,
        len: usize,
    },
    Rndv {
        src_rank: usize,
        tag: i32,
        rts: Rts,
    },
}

// SAFETY: the raw pointer inside `Rts` stays valid because the sending
// thread blocks inside `send` until its completion word reads `seq`.
unsafe impl Send for Packet {}

fn pkt_src(p: &Packet) -> usize {
    match p {
        Packet::Inline { src_rank, .. }
        | Packet::Eager { src_rank, .. }
        | Packet::Rndv { src_rank, .. } => *src_rank,
    }
}

/// Buffered unexpected packets, bucketed by source rank — the rt mirror
/// of the core engine's source-sharded posted set: a concrete-source
/// receive scans only its sender's backlog, so buffering traffic from
/// many peers does not make every later receive pay an O(all-buffered)
/// scan. Global arrival order is preserved through per-packet sequence
/// numbers, so wildcard receives still match oldest-first.
#[derive(Default)]
struct UnexpectedSet {
    by_src: HashMap<usize, VecDeque<(u64, Packet)>>,
    next_seq: u64,
}

impl UnexpectedSet {
    fn push(&mut self, pkt: Packet) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_src
            .entry(pkt_src(&pkt))
            .or_default()
            .push_back((seq, pkt));
    }

    /// Take the oldest buffered packet matching `(src, tag)`, if any.
    fn take(&mut self, src: Option<usize>, tag: Option<i32>) -> Option<Packet> {
        let bucket = match src {
            Some(s) => s,
            // Wildcard source: the oldest tag-match of each bucket
            // competes on its sequence number.
            None => {
                self.by_src
                    .iter()
                    .filter_map(|(&s, q)| {
                        q.iter()
                            .find(|(_, p)| RtComm::pkt_matches(p, src, tag))
                            .map(|&(seq, _)| (seq, s))
                    })
                    .min()?
                    .1
            }
        };
        let q = self.by_src.get_mut(&bucket)?;
        let i = q
            .iter()
            .position(|(_, p)| RtComm::pkt_matches(p, src, tag))?;
        let pkt = q.remove(i).map(|(_, p)| p);
        if q.is_empty() {
            self.by_src.remove(&bucket);
        }
        pkt
    }
}

struct Shared {
    senders: Vec<Sender<Packet>>,
    cells: CellPool,
    /// The selected large-message backend; all transfer bytes flow
    /// through this trait object.
    backend: Box<dyn RtLmtBackend>,
    /// Completion word of each sender rank's in-flight rendezvous.
    rndv: Vec<RndvWord>,
    cfg: RtConfig,
    n: usize,
}

/// Per-rank endpoint.
pub struct RtComm {
    rank: usize,
    shared: Arc<Shared>,
    rx: Receiver<Packet>,
    unexpected: UnexpectedSet,
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

    /// Free cells in the shared eager pool. Exact only while the other
    /// ranks are quiesced — use for leak checks at known sync points.
    pub fn free_cells(&self) -> usize {
        self.shared.cells.free_count()
    }

    /// Total cells in the shared eager pool.
    pub fn total_cells(&self) -> usize {
        self.shared.cfg.cells
    }

    /// How collectives pick their algorithm arm.
    pub fn coll_alg(&self) -> crate::coll::RtCollAlg {
        self.shared.cfg.coll_alg
    }

    fn backoff(&self) -> Backoff {
        Backoff::with_spin_limit(self.shared.cfg.spin_limit)
    }

    /// Blocking send of `data` to `dst`.
    pub fn send(&self, dst: usize, tag: i32, data: &[u8]) {
        assert!(dst < self.shared.n && dst != self.rank, "bad destination");
        let inline_max = self.shared.cfg.inline_max.min(INLINE_MAX);
        if data.len() <= inline_max {
            // Fused path: pack header + payload straight into the queue
            // cell — no pool acquire, no second staging copy.
            let mut buf = [0u8; INLINE_MAX];
            buf[..data.len()].copy_from_slice(data);
            self.shared.senders[dst].enqueue(Packet::Inline {
                src_rank: self.rank,
                tag,
                len: data.len() as u16,
                data: buf,
            });
            return;
        }
        // The eager cutoff is bounded by the configured cell size: a
        // payload that does not fit one pooled cell must go rendezvous,
        // whatever EAGER_MAX says.
        if data.len() <= EAGER_MAX.min(self.shared.cells.cell_size()) {
            // Eager: copy into a pooled cell (first copy).
            let mut bo = self.backoff();
            let cell = loop {
                if let Some(c) = self.shared.cells.try_acquire() {
                    break c;
                }
                bo.snooze();
            };
            self.shared
                .cells
                .with_cell(cell, |d| d[..data.len()].copy_from_slice(data));
            self.shared.senders[dst].enqueue(Packet::Eager {
                src_rank: self.rank,
                tag,
                cell,
                len: data.len(),
            });
            return;
        }
        // Rendezvous: announce, let the backend move the payload, then
        // hold the buffer until the receiver confirms completion.
        let word = &self.shared.rndv[self.rank];
        let seq = word.sent.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared.senders[dst].enqueue(Packet::Rndv {
            src_rank: self.rank,
            tag,
            rts: Rts {
                src: data.as_ptr(),
                len: data.len(),
                seq,
            },
        });
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
    /// configured `inline_max`): either the packet lands in `dst`'s
    /// receive queue or the queue is full and [`QueueFull`] comes back —
    /// the bounded queue's backpressure surfaced to the caller instead
    /// of absorbed by `send`'s backoff loop.
    pub fn try_send(&self, dst: usize, tag: i32, data: &[u8]) -> Result<(), QueueFull<()>> {
        assert!(dst < self.shared.n && dst != self.rank, "bad destination");
        let inline_max = self.shared.cfg.inline_max.min(INLINE_MAX);
        assert!(
            data.len() <= inline_max,
            "try_send is the inline path: {} bytes exceeds inline_max {}",
            data.len(),
            inline_max
        );
        let mut buf = [0u8; INLINE_MAX];
        buf[..data.len()].copy_from_slice(data);
        self.shared.senders[dst]
            .try_enqueue(Packet::Inline {
                src_rank: self.rank,
                tag,
                len: data.len() as u16,
                data: buf,
            })
            .map_err(|QueueFull(_)| QueueFull(()))
    }

    /// Admission batching: non-blocking send of a run of inline-sized
    /// payloads to `dst`, in order, stopping at the first full queue.
    /// Returns how many were admitted (`payloads.len()` when the whole
    /// batch landed). Stopping at the first [`QueueFull`] — instead of
    /// skipping ahead — is what keeps the admitted stream per-pair
    /// FIFO: a later payload never overtakes one the queue rejected.
    /// The serving layer's submit path batches arrivals through this,
    /// amortizing the doorbell/turnstile traffic of one enqueue across
    /// a burst.
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
        let pkt = self.match_packet(src, tag);
        self.deliver(pkt, dst)
    }

    /// Non-blocking receive: deliver a matching packet if one is
    /// already buffered or arrives in a single queue drain, else
    /// `None`. This is the service worker's poll primitive — a worker
    /// multiplexing requests with health probes cannot park inside
    /// [`RtComm::recv`]'s backoff loop.
    pub fn try_recv(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
        dst: &mut [u8],
    ) -> Option<usize> {
        if let Some(p) = self.unexpected.take(src, tag) {
            return Some(self.deliver(p, dst));
        }
        let batch = self.shared.cfg.recv_batch.max(1);
        let mut found: Option<Packet> = None;
        let unexpected = &mut self.unexpected;
        self.rx.dequeue_batch(batch, |p| {
            if found.is_none() && Self::pkt_matches(&p, src, tag) {
                found = Some(p);
            } else {
                unexpected.push(p);
            }
        });
        found.map(|p| self.deliver(p, dst))
    }

    /// Move one matched packet's payload into `dst` (the shared tail of
    /// [`RtComm::recv`] and [`RtComm::try_recv`]).
    fn deliver(&mut self, pkt: Packet, dst: &mut [u8]) -> usize {
        match pkt {
            Packet::Inline { len, data, .. } => {
                let len = len as usize;
                assert!(len <= dst.len(), "receive buffer too small");
                // The one and only copy out of the queue cell.
                dst[..len].copy_from_slice(&data[..len]);
                len
            }
            Packet::Eager { cell, len, .. } => {
                assert!(len <= dst.len(), "receive buffer too small");
                // Second copy: cell → user buffer; then recycle the cell.
                self.shared
                    .cells
                    .with_cell(cell, |d| dst[..len].copy_from_slice(&d[..len]));
                self.shared.cells.release(cell);
                len
            }
            Packet::Rndv { src_rank, rts, .. } => {
                assert!(rts.len <= dst.len(), "receive buffer too small");
                // SAFETY: the sender keeps `src` alive until we publish
                // `seq` below.
                let src_slice = unsafe { std::slice::from_raw_parts(rts.src, rts.len) };
                let t0 = self
                    .shared
                    .cfg
                    .tuner
                    .as_ref()
                    .map(|_| std::time::Instant::now());
                self.shared.backend.recv_payload(
                    src_rank,
                    self.rank,
                    src_slice,
                    &mut dst[..rts.len],
                );
                // Mirror of the simulated stack's completion sampling:
                // every rendezvous completion feeds the tuner, on the
                // receiver.
                if let (Some(tuner), Some(t0)) = (&self.shared.cfg.tuner, t0) {
                    tuner.record_transfer(
                        src_rank,
                        self.rank,
                        &RtTransferSample {
                            backend: self.shared.backend.name(),
                            offload: self.shared.backend.is_offload(),
                            bytes: rts.len,
                            nanos: t0.elapsed().as_nanos() as u64,
                        },
                    );
                }
                let len = rts.len;
                self.shared.rndv[src_rank]
                    .done
                    .store(rts.seq, Ordering::Release);
                len
            }
        }
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

    fn pkt_matches(pkt: &Packet, src: Option<usize>, tag: Option<i32>) -> bool {
        let (s, t) = match pkt {
            Packet::Inline { src_rank, tag, .. } => (*src_rank, *tag),
            Packet::Eager { src_rank, tag, .. } => (*src_rank, *tag),
            Packet::Rndv { src_rank, tag, .. } => (*src_rank, *tag),
        };
        src.map(|x| x == s).unwrap_or(true) && tag.map(|x| x == t).unwrap_or(true)
    }

    fn match_packet(&mut self, src: Option<usize>, tag: Option<i32>) -> Packet {
        // Previously buffered packets first, in arrival order.
        if let Some(p) = self.unexpected.take(src, tag) {
            return p;
        }
        let batch = self.shared.cfg.recv_batch.max(1);
        let mut bo = self.backoff();
        loop {
            // Drain a batch per poll (one chained recycle). The first
            // match is picked out in the sink — the pingpong hot path
            // never touches the unexpected buffer — and everything else
            // parks there. No rescan needed: packets parked by *this*
            // call were already checked in the sink.
            let mut found: Option<Packet> = None;
            let unexpected = &mut self.unexpected;
            let got = self.rx.dequeue_batch(batch, |p| {
                if found.is_none() && Self::pkt_matches(&p, src, tag) {
                    found = Some(p);
                } else {
                    unexpected.push(p);
                }
            });
            if let Some(p) = found {
                return p;
            }
            if got == 0 {
                bo.snooze();
            } else {
                bo.reset();
            }
        }
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
    let cfg = cfg.for_ranks(n);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = nem_queue_cfg(cfg.queue_capacity, cfg.spin_limit);
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(Shared {
        senders,
        cells: CellPool::new(cfg.cells, cfg.cell_size),
        backend,
        rndv: (0..n).map(|_| RndvWord::default()).collect(),
        cfg,
        n,
    });
    std::thread::scope(|s| {
        for (rank, rx) in receivers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let body = &body;
            s.spawn(move || {
                let mut comm = RtComm {
                    rank,
                    shared,
                    rx,
                    unexpected: UnexpectedSet::default(),
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
