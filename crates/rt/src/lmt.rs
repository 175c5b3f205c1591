//! The real-thread LMT backend layer — the host-machine mirror of
//! `nemesis_core::lmt`.
//!
//! The simulated stack drives its four paper backends through the
//! `LmtBackend` trait; this module gives the real-thread runtime the
//! same backend vocabulary over the three host-memory copy strategies:
//!
//! | selection | backend | copies | analogue of |
//! |---|---|---|---|
//! | [`RtLmt::DoubleBuffer`] | [`DoubleBufferBackend`] | 2 | default LMT ring (§2) |
//! | [`RtLmt::Direct`] | [`DirectBackend`] | 1 | KNEM sync copy (§3.2) |
//! | [`RtLmt::Offload`] | [`OffloadBackend`] | 1, off-CPU | KNEM + I/OAT (§3.3) |
//!
//! `rt::comm` consumes only the [`RtLmtBackend`] trait: the sender
//! announces a transfer (RTS), calls
//! [`send_payload`](RtLmtBackend::send_payload), and blocks on the done
//! flag; the receiver calls
//! [`recv_payload`](RtLmtBackend::recv_payload) and then sets the flag.
//! New copy engines (e.g. a CMA-style `process_vm_readv` analogue) plug
//! in by implementing the trait.

use std::sync::Arc;

use crate::copy::{direct_copy, DoubleBufferPipe, OffloadEngine, PipeSchedule};
use crate::tuner::{RtChunkScheduleSelect, RtTuner};

/// Large-message strategy selector (the rt analogue of
/// `nemesis_core::LmtSelect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtLmt {
    /// Two copies through a per-pair double-buffered ring.
    DoubleBuffer,
    /// Single direct copy by the receiver.
    Direct,
    /// Copy offloaded to the shared engine thread.
    Offload,
    /// Single receiver-driven copy in syscall-bounded chunks — the
    /// `process_vm_readv` (CMA) analogue.
    Cma,
    /// One transfer striped across `n` rails: the receiver's CPU drives
    /// rail 0 while each further rail's stripe runs on its own engine
    /// thread, all stripes moving concurrently (mirrors
    /// `core::lmt::striped`).
    Striped(u8),
    /// Learn the backend per (pair, size-class) online: a bandit over
    /// all the other mechanisms, fed by wall-clock receive times — the
    /// rt mirror of `BackendSelect::LearnedBackend` in the simulated
    /// stack (see [`LearnedBackend`]).
    Learned,
}

/// Every non-striped selection, for parity tests and benches.
pub const ALL_RT_LMTS: [RtLmt; 4] = [
    RtLmt::DoubleBuffer,
    RtLmt::Direct,
    RtLmt::Offload,
    RtLmt::Cma,
];

/// The striped selection at every supported rail count (`Striped(1)`
/// is the degenerate stripe that must equal the plain CMA backend).
pub const ALL_RT_STRIPED: [RtLmt; 4] = [
    RtLmt::Striped(1),
    RtLmt::Striped(2),
    RtLmt::Striped(3),
    RtLmt::Striped(4),
];

/// A large-message transfer mechanism between two rank-threads.
///
/// Completion semantics shared by all backends: the sender's `send` call
/// must not return until the receiver has landed the payload (the
/// runtime's done-flag handshake), and `recv_payload` must leave `dst`
/// fully populated on return.
pub trait RtLmtBackend: Send + Sync {
    /// Diagnostic name (mirrors `LmtBackend::name`).
    fn name(&self) -> &'static str;

    /// The backend's steady-state sweet-spot chunk size in bytes
    /// (mirrors `LmtBackend::preferred_chunk`): the ceiling the adaptive
    /// pipeliner grows toward. Single-pass backends report the transfer
    /// granularity they prefer to be fed at.
    fn preferred_chunk(&self) -> usize {
        32 << 10
    }

    /// Sender-side participation in the transfer of `src` to
    /// `dst_rank`. Sender-driven backends (the ring) move bytes here;
    /// receiver-driven backends return immediately and the runtime's
    /// done flag keeps `src` alive until the receiver finishes.
    fn send_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8]);

    /// Receiver side: land the announced payload into `dst`. `src` is
    /// the sender's buffer, valid for the duration of the call
    /// (receiver-driven backends copy from it; the ring ignores it).
    fn recv_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8], dst: &mut [u8]);

    /// Whether the copy runs off-CPU (the offload engine) — the class
    /// of the tuner sample a completion records (mirrors
    /// `LmtRecvOp::transfer_class`).
    fn is_offload(&self) -> bool {
        false
    }
}

/// Build the backend for a selection. `nranks` sizes per-pair
/// resources.
pub fn backend_for(lmt: RtLmt, nranks: usize) -> Box<dyn RtLmtBackend> {
    backend_for_schedule(lmt, nranks, RtChunkScheduleSelect::Adaptive, None)
}

/// Build the backend for a selection under an explicit chunk schedule;
/// the learned schedule wires each ring pipe to its pair's tuner state.
pub fn backend_for_schedule(
    lmt: RtLmt,
    nranks: usize,
    schedule: RtChunkScheduleSelect,
    tuner: Option<&Arc<RtTuner>>,
) -> Box<dyn RtLmtBackend> {
    match lmt {
        RtLmt::DoubleBuffer => Box::new(DoubleBufferBackend::with_schedule(
            nranks,
            RING_SLOT_BYTES,
            RING_SLOTS,
            schedule,
            tuner,
        )),
        RtLmt::Direct => Box::new(DirectBackend),
        RtLmt::Offload => Box::new(OffloadBackend::new()),
        RtLmt::Cma => Box::new(CmaBackend),
        RtLmt::Striped(rails) => Box::new(StripedBackend::new(rails as usize)),
        RtLmt::Learned => Box::new(LearnedBackend::new(nranks)),
    }
}

/// Slots of every production copy ring, chosen from a measured sweep
/// of slots × slot bytes (DESIGN.md, "The fast path"; a new depth is
/// judged by `rt_large_cached` in the in-tree benchmark). The paper's two
/// — still the simulated stack's `ring_bufs` — complete a quarter fewer
/// 256 KiB round trips a second on the benchmark host. The likely
/// cause, inferred and not proven: a sender that can be only one chunk
/// ahead stalls whenever the receiver does, and the reverse, where
/// eight slots let it run ahead of the drain.
pub const RING_SLOTS: usize = 8;

/// Slot capacity of every production copy ring — the adaptive chunk
/// schedule's ceiling. Slots are allocated by the receiver's first
/// drain, so a touched pair holds `RING_SLOTS * RING_SLOT_BYTES` and an
/// untouched pair nothing.
pub const RING_SLOT_BYTES: usize = 32 << 10;

/// Two-copy ring per (src, dst) pair — the `default LMT` analogue.
/// Sender and receiver pipeline chunk against chunk.
pub struct DoubleBufferBackend {
    rings: Vec<DoubleBufferPipe>,
    /// Slot capacity of every ring (the adaptive schedule's ceiling,
    /// reported through [`RtLmtBackend::preferred_chunk`]).
    chunk: usize,
    n: usize,
}

impl DoubleBufferBackend {
    pub fn new(nranks: usize, chunk: usize, nbufs: usize) -> Self {
        Self::with_schedule(nranks, chunk, nbufs, RtChunkScheduleSelect::Adaptive, None)
    }

    /// Explicit chunk schedule; `Learned` requires a tuner, whose
    /// per-pair state each ring pipe then reads and feeds.
    pub fn with_schedule(
        nranks: usize,
        chunk: usize,
        nbufs: usize,
        schedule: RtChunkScheduleSelect,
        tuner: Option<&Arc<RtTuner>>,
    ) -> Self {
        let pipe_schedule = |src: usize, dst: usize| match schedule {
            RtChunkScheduleSelect::Adaptive => PipeSchedule::Geometric,
            RtChunkScheduleSelect::Fixed => PipeSchedule::Fixed,
            RtChunkScheduleSelect::Learned => match tuner {
                Some(t) => PipeSchedule::Learned(t.pair(src, dst)),
                None => PipeSchedule::Geometric,
            },
        };
        let start = match schedule {
            // Fixed = the seed's full-slot chunking.
            RtChunkScheduleSelect::Fixed => chunk,
            _ => crate::copy::ADAPTIVE_CHUNK_START.min(chunk),
        };
        Self {
            rings: (0..nranks * nranks)
                .map(|i| {
                    DoubleBufferPipe::with_schedule(
                        chunk,
                        nbufs,
                        start,
                        pipe_schedule(i / nranks, i % nranks),
                    )
                })
                .collect(),
            chunk,
            n: nranks,
        }
    }

    fn ring(&self, src: usize, dst: usize) -> &DoubleBufferPipe {
        &self.rings[src * self.n + dst]
    }
}

impl RtLmtBackend for DoubleBufferBackend {
    fn name(&self) -> &'static str {
        "double-buffer"
    }

    fn preferred_chunk(&self) -> usize {
        // The ring's actual slot capacity: the adaptive schedule inside
        // `DoubleBufferPipe` grows from one page to exactly this.
        self.chunk
    }

    fn send_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8]) {
        // First copy: user buffer → ring, overlapping the receiver's
        // drain.
        self.ring(src_rank, dst_rank).send(src);
    }

    fn recv_payload(&self, src_rank: usize, dst_rank: usize, _src: &[u8], dst: &mut [u8]) {
        // Second copy: ring → user buffer.
        self.ring(src_rank, dst_rank).recv(dst);
    }
}

/// Single receiver-side copy — the KNEM analogue (threads share an
/// address space, so no kernel assist is needed).
pub struct DirectBackend;

impl RtLmtBackend for DirectBackend {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn preferred_chunk(&self) -> usize {
        // Single-pass receiver copy: no intermediate buffer to size, so
        // prefer one maximal chunk.
        1 << 20
    }

    fn send_payload(&self, _src_rank: usize, _dst_rank: usize, _src: &[u8]) {
        // Receiver-driven: nothing to do on the sending side.
    }

    fn recv_payload(&self, _src_rank: usize, _dst_rank: usize, src: &[u8], dst: &mut [u8]) {
        direct_copy(src, dst);
    }
}

/// Copy offloaded to the shared engine thread with in-order completion
/// — the I/OAT analogue (Figure 2).
pub struct OffloadBackend {
    engine: OffloadEngine,
}

impl OffloadBackend {
    pub fn new() -> Self {
        Self {
            engine: OffloadEngine::start(),
        }
    }
}

impl Default for OffloadBackend {
    fn default() -> Self {
        Self::new()
    }
}

/// Single receiver-driven copy in syscall-bounded chunks — the CMA
/// (`process_vm_readv`) analogue. Each "call" moves at most
/// [`CmaBackend::CALL_MAX`] bytes, mirroring the per-call iovec limits
/// and partial-read loop of the simulated kernel's CMA model.
pub struct CmaBackend;

impl CmaBackend {
    /// Per-call byte budget (the simulated syscall boundary).
    pub const CALL_MAX: usize = 256 << 10;
}

impl RtLmtBackend for CmaBackend {
    fn name(&self) -> &'static str {
        "cma"
    }

    fn preferred_chunk(&self) -> usize {
        Self::CALL_MAX
    }

    fn send_payload(&self, _src_rank: usize, _dst_rank: usize, _src: &[u8]) {
        // Receiver-driven: the sender only exposes its buffer (the
        // runtime's done flag keeps it alive).
    }

    fn recv_payload(&self, _src_rank: usize, _dst_rank: usize, src: &[u8], dst: &mut [u8]) {
        for (s, d) in src
            .chunks(Self::CALL_MAX)
            .zip(dst.chunks_mut(Self::CALL_MAX))
        {
            direct_copy(s, d);
        }
    }
}

/// One transfer striped across `rails` rails: stripe 0 is copied by the
/// receiving thread (the CMA analogue) while each further stripe runs
/// on its own dedicated engine thread — every stripe moves
/// concurrently, the rt mirror of `core::lmt::striped`'s CPU + DMA
/// overlap. Stripes are contiguous, page-aligned, equal-weighted
/// (wall-clock rails have no tuner EWMAs to weigh by), and the receive
/// returns only when every stripe has landed — the caller never sees a
/// partial payload.
pub struct StripedBackend {
    engines: Vec<OffloadEngine>,
    rails: usize,
}

impl StripedBackend {
    pub fn new(rails: usize) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_rail_cap(rails, cpus)
    }

    /// `rails` rails, at most `cap` of them moving concurrently (the
    /// receiving thread plus `cap - 1` engine threads). On a host with
    /// fewer cores than rails the surplus engine threads can only
    /// timeshare the receiver's core — pure context-switch and
    /// cache-thrash tax, which is exactly why striped-2..4 *lost* to a
    /// single rail on single-core containers — so the stripes collapse
    /// onto the rails that can actually run in parallel. The backend
    /// keeps its requested identity (`name`, selector arm) either way.
    pub fn with_rail_cap(rails: usize, cap: usize) -> Self {
        let rails = rails.clamp(1, 4);
        let effective = rails.min(cap.max(1));
        Self {
            engines: (1..effective).map(|_| OffloadEngine::start()).collect(),
            rails,
        }
    }

    /// Rails that actually carry a stripe: the anchor plus one per
    /// live engine thread.
    fn effective_rails(&self) -> usize {
        self.engines.len() + 1
    }

    /// The page-aligned stripe spans for `len` bytes (rail 0 absorbs
    /// the remainder, mirroring the sim's anchor rail).
    fn spans(&self, len: usize) -> Vec<usize> {
        const PAGE: usize = 4096;
        let rails = self.effective_rails();
        let mut spans = vec![0usize; rails];
        let cap = len.saturating_sub(len.min(PAGE));
        let mut assigned = 0usize;
        for s in spans.iter_mut().skip(1) {
            let span = (len / rails / PAGE * PAGE).min(cap - assigned.min(cap));
            *s = span;
            assigned += span;
        }
        spans[0] = len - assigned;
        spans
    }
}

impl RtLmtBackend for StripedBackend {
    fn name(&self) -> &'static str {
        match self.rails {
            1 => "striped-1",
            2 => "striped-2",
            3 => "striped-3",
            _ => "striped-4",
        }
    }

    fn preferred_chunk(&self) -> usize {
        CmaBackend::CALL_MAX
    }

    fn send_payload(&self, _src_rank: usize, _dst_rank: usize, _src: &[u8]) {
        // Receiver-driven on every rail.
    }

    fn recv_payload(&self, _src_rank: usize, _dst_rank: usize, src: &[u8], dst: &mut [u8]) {
        let spans = self.spans(dst.len());
        // Carve the destination into per-rail stripes (a reborrow, so
        // `dst` is whole again once the stripe borrows end).
        let mut rest = &mut *dst;
        let mut stripes = Vec::with_capacity(spans.len());
        let mut at = 0usize;
        for &span in &spans {
            let (head, tail) = rest.split_at_mut(span);
            stripes.push((at, head));
            at += span;
            rest = tail;
        }
        // Rails 1.. run on their engines; rail 0 on this thread, all
        // concurrent. Pending handles hold the borrows until complete.
        let mut iter = stripes.into_iter();
        let (lo0, stripe0) = iter.next().expect("rails >= 1");
        let mut pending = Vec::new();
        for (engine, (lo, stripe)) in self.engines.iter().zip(iter) {
            if !stripe.is_empty() {
                let len = stripe.len();
                pending.push((lo, len, engine.submit(&src[lo..lo + len], stripe)));
            }
        }
        CmaBackend.recv_payload(0, 0, &src[lo0..lo0 + stripe0.len()], stripe0);
        let mut dead = Vec::new();
        for (lo, len, p) in pending {
            if !p.wait() {
                dead.push((lo, len));
            }
        }
        // A rail whose engine thread died never wrote its stripe: the
        // receiving thread absorbs it — the rt mirror of the sim's
        // anchor-rail takeover after a rail abort. The payload still
        // lands byte-identical, just slower.
        for (lo, len) in dead {
            direct_copy(&src[lo..lo + len], &mut dst[lo..lo + len]);
        }
    }

    fn is_offload(&self) -> bool {
        // Rails beyond the anchor move their bytes off the receiving
        // thread — only true when the parallelism cap left any engine
        // threads alive.
        !self.engines.is_empty()
    }
}

/// The learned meta-backend: one child per [`RtPairSelector`] arm, a
/// per-directed-pair selector deciding which child serves each
/// rendezvous transfer, and a per-pair choice slot carrying the
/// sender's pick to the receiver.
///
/// The sender picks (it mirrors the simulated stack, where selection
/// happens at RTS time on the sender) and publishes the arm in the
/// pair's slot; the receiver spins the slot out, drives the chosen
/// child, and feeds the measured wall-clock bandwidth back to the
/// selector. The slot is race-free because the rt rendezvous is
/// synchronous: a sender blocks until the receive lands, so at most one
/// transfer per directed pair is in flight.
pub struct LearnedBackend {
    children: [Box<dyn RtLmtBackend>; crate::tuner::RT_SELECTOR_ARMS],
    selectors: Vec<crate::tuner::RtPairSelector>,
    /// Chosen arm + 1 per directed pair; 0 = no pick published.
    slots: Vec<std::sync::atomic::AtomicUsize>,
    n: usize,
}

impl LearnedBackend {
    pub fn new(nranks: usize) -> Self {
        let n = nranks.max(1);
        Self {
            children: [
                Box::new(DoubleBufferBackend::new(n, RING_SLOT_BYTES, RING_SLOTS)),
                Box::new(DirectBackend),
                Box::new(OffloadBackend::new()),
                Box::new(CmaBackend),
                Box::new(StripedBackend::new(2)),
                Box::new(StripedBackend::new(3)),
                Box::new(StripedBackend::new(4)),
            ],
            selectors: (0..n * n)
                .map(|_| crate::tuner::RtPairSelector::default())
                .collect(),
            slots: (0..n * n)
                .map(|_| std::sync::atomic::AtomicUsize::new(0))
                .collect(),
            n,
        }
    }

    fn pair(&self, src: usize, dst: usize) -> usize {
        src * self.n + dst
    }

    /// The directed pair's selector (diagnostics and tests).
    pub fn selector(&self, src: usize, dst: usize) -> &crate::tuner::RtPairSelector {
        &self.selectors[self.pair(src, dst)]
    }
}

impl RtLmtBackend for LearnedBackend {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn preferred_chunk(&self) -> usize {
        CmaBackend::CALL_MAX
    }

    fn send_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8]) {
        use std::sync::atomic::Ordering;
        let pair = self.pair(src_rank, dst_rank);
        let arm = self.selectors[pair].pick(src.len());
        // Publish the pick before the child runs: a sender-driven child
        // (the ring) blocks in send until the receiver — who needs the
        // slot to know which child to drive — drains it.
        self.slots[pair].store(arm + 1, Ordering::Release);
        self.children[arm].send_payload(src_rank, dst_rank, src);
    }

    fn recv_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8], dst: &mut [u8]) {
        use std::sync::atomic::Ordering;
        let pair = self.pair(src_rank, dst_rank);
        let mut bo = crate::backoff::Backoff::new();
        let arm = loop {
            match self.slots[pair].load(Ordering::Acquire) {
                0 => bo.snooze(),
                v => break v - 1,
            }
        };
        let t0 = std::time::Instant::now();
        self.children[arm].recv_payload(src_rank, dst_rank, src, dst);
        self.selectors[pair].observe(arm, dst.len(), t0.elapsed().as_nanos() as u64);
        self.slots[pair].store(0, Ordering::Release);
    }
}

impl RtLmtBackend for OffloadBackend {
    fn name(&self) -> &'static str {
        "offload-engine"
    }

    fn preferred_chunk(&self) -> usize {
        // The engine splits submissions into page descriptors (pinned
        // user memory); feeding it much more per submission only grows
        // the descriptor chain ahead of the status write.
        64 << 10
    }

    fn send_payload(&self, _src_rank: usize, _dst_rank: usize, _src: &[u8]) {
        // Receiver-driven: the receiver submits the descriptor chain.
    }

    fn recv_payload(&self, _src_rank: usize, _dst_rank: usize, src: &[u8], dst: &mut [u8]) {
        if !self.engine.submit(src, dst).wait() {
            // The engine thread died before the status write: fall back
            // to a CPU copy so the receive still completes.
            direct_copy(src, dst);
        }
    }

    fn is_offload(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_identify_backends() {
        for lmt in ALL_RT_LMTS.into_iter().chain(ALL_RT_STRIPED) {
            let b = backend_for(lmt, 2);
            assert!(!b.name().is_empty());
        }
        assert_eq!(backend_for(RtLmt::Direct, 2).name(), "direct");
        assert_eq!(backend_for(RtLmt::Cma, 2).name(), "cma");
        assert_eq!(backend_for(RtLmt::Striped(3), 2).name(), "striped-3");
    }

    #[test]
    fn striped_rails_collapse_to_available_parallelism() {
        // A 4-rail stripe on a single-core host: every engine thread
        // would timeshare the receiver's core, so the spans collapse
        // onto the anchor — while the backend keeps its identity.
        let b = StripedBackend::with_rail_cap(4, 1);
        assert_eq!(b.name(), "striped-4", "identity keeps the request");
        assert!(!b.is_offload(), "no engine threads, nothing off-CPU");
        assert_eq!(b.spans(1 << 20), vec![1 << 20]);
        // Two cores: anchor + one engine.
        let b = StripedBackend::with_rail_cap(4, 2);
        assert_eq!(b.spans(1 << 20).len(), 2);
        assert!(b.is_offload());
        // An abundant cap never lifts rails above the request.
        let b = StripedBackend::with_rail_cap(2, 16);
        assert_eq!(b.spans(1 << 20).len(), 2);
        // And whatever the collapse, payloads stay byte-identical.
        for cap in 1..=4usize {
            let b = StripedBackend::with_rail_cap(4, cap);
            let len = (1 << 20) + 123;
            let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut dst = vec![0u8; len];
            b.send_payload(0, 1, &src);
            b.recv_payload(0, 1, &src, &mut dst);
            assert_eq!(src, dst, "cap={cap}");
        }
    }

    #[test]
    fn striped_spans_are_page_aligned_and_cover_the_payload() {
        for rails in 1..=4usize {
            let b = StripedBackend::with_rail_cap(rails, rails);
            for len in [0usize, 1, 4095, 4096, 300 << 10, (1 << 20) + 7] {
                let spans = b.spans(len);
                assert_eq!(spans.len(), rails);
                assert_eq!(spans.iter().sum::<usize>(), len, "rails={rails} len={len}");
                for &s in &spans[1..] {
                    assert_eq!(s % 4096, 0, "non-anchor spans are page-aligned");
                }
            }
        }
    }

    #[test]
    fn striped_receives_land_byte_identical_payloads() {
        for rails in 1..=4u8 {
            let b = StripedBackend::with_rail_cap(rails as usize, rails as usize);
            for len in [1usize, 4096, (300 << 10) + 123, 1 << 20] {
                let src: Vec<u8> = (0..len).map(|i| (i % 243) as u8).collect();
                let mut dst = vec![0u8; len];
                b.send_payload(0, 1, &src);
                b.recv_payload(0, 1, &src, &mut dst);
                assert_eq!(src, dst, "rails={rails} len={len}");
            }
        }
    }

    #[test]
    fn learned_backend_delivers_and_converges_on_a_child() {
        let b = LearnedBackend::new(2);
        let len = 300 << 10;
        let src: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        // Enough transfers to finish the sweep and settle on an arm.
        // Sender and receiver on separate threads: the ring child's
        // send blocks until the receiver drains it.
        std::thread::scope(|s| {
            let (b2, src2) = (&b, &src);
            s.spawn(move || {
                for _ in 0..24 {
                    b2.send_payload(0, 1, src2);
                    // The runtime's done-flag handshake keeps at most
                    // one rendezvous in flight per pair; emulate it by
                    // waiting for the receiver to consume the pick.
                    while b2.slots[b2.pair(0, 1)].load(std::sync::atomic::Ordering::Acquire) != 0 {
                        std::hint::spin_loop();
                    }
                }
            });
            for round in 0..24 {
                let mut dst = vec![0u8; len];
                b.recv_payload(0, 1, &src, &mut dst);
                assert_eq!(&src, &dst, "round {round} corrupt");
            }
        });
        // Every arm was probed at least MIN_PROBE times…
        let sel = b.selector(0, 1);
        for arm in 0..crate::tuner::RT_SELECTOR_ARMS {
            let (bw, n) = sel.cell(len, arm);
            assert!(n >= 2, "arm {arm} never probed");
            assert!(bw > 0.0);
        }
        // …and the other direction's selector is untouched.
        assert_eq!(b.selector(1, 0).cell(len, 0).1, 0);
    }

    #[test]
    fn striped_receive_survives_a_dead_engine_rail() {
        let b = StripedBackend::with_rail_cap(3, 3);
        // Kill one engine rail before the transfer: its stripe must be
        // absorbed by the receiving thread, byte-identically.
        b.engines[0].inject_failure();
        let len = (1 << 20) + 321;
        let src: Vec<u8> = (0..len).map(|i| (i % 237) as u8).collect();
        let mut dst = vec![0u8; len];
        b.send_payload(0, 1, &src);
        b.recv_payload(0, 1, &src, &mut dst);
        assert_eq!(src, dst);
        assert!(b.engines[0].poisoned());
    }

    #[test]
    fn offload_receive_survives_a_dead_engine() {
        let b = OffloadBackend::new();
        b.engine.inject_failure();
        let src: Vec<u8> = (0..100_000).map(|i| (i % 233) as u8).collect();
        let mut dst = vec![0u8; src.len()];
        b.recv_payload(0, 1, &src, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn double_buffer_reports_its_actual_slot_capacity() {
        let b = DoubleBufferBackend::new(2, 7 << 10, 2);
        assert_eq!(b.preferred_chunk(), 7 << 10);
        for lmt in ALL_RT_LMTS {
            assert!(backend_for(lmt, 2).preferred_chunk() > 0, "{lmt:?}");
        }
    }

    #[test]
    fn a_touched_pair_holds_one_ring_and_an_untouched_pair_nothing() {
        let b = DoubleBufferBackend::new(2, RING_SLOT_BYTES, RING_SLOTS);
        let src: Vec<u8> = (0..300_000).map(|i| (i % 229) as u8).collect();
        let mut dst = vec![0u8; src.len()];
        std::thread::scope(|s| {
            s.spawn(|| b.send_payload(0, 1, &src));
            b.recv_payload(0, 1, &src, &mut dst);
        });
        assert_eq!(src, dst);
        assert_eq!(b.ring(0, 1).resident_bytes(), RING_SLOTS * RING_SLOT_BYTES);
        for (s, d) in [(0, 0), (1, 0), (1, 1)] {
            assert_eq!(b.ring(s, d).resident_bytes(), 0, "pair {s}->{d} untouched");
        }
    }

    #[test]
    fn production_rings_are_built_from_the_named_geometry() {
        // The slot count is not visible through the trait; the slot
        // bytes are, on both production constructors.
        assert_eq!(
            backend_for(RtLmt::DoubleBuffer, 2).preferred_chunk(),
            RING_SLOT_BYTES
        );
        let learned = LearnedBackend::new(2);
        assert_eq!(learned.children[0].name(), "double-buffer");
        assert_eq!(learned.children[0].preferred_chunk(), RING_SLOT_BYTES);
    }

    #[test]
    fn receiver_driven_backends_land_bytes() {
        for lmt in [RtLmt::Direct, RtLmt::Offload] {
            let b = backend_for(lmt, 2);
            let src: Vec<u8> = (0..100_000).map(|i| (i % 249) as u8).collect();
            let mut dst = vec![0u8; src.len()];
            b.send_payload(0, 1, &src);
            b.recv_payload(0, 1, &src, &mut dst);
            assert_eq!(src, dst, "{}", b.name());
        }
    }

    #[test]
    fn ring_backend_pipelines_between_threads() {
        let b = DoubleBufferBackend::new(2, 4 << 10, 2);
        let src: Vec<u8> = (0..200_000).map(|i| (i % 241) as u8).collect();
        let mut dst = vec![0u8; src.len()];
        std::thread::scope(|s| {
            let src_ref = &src;
            let b2 = &b;
            s.spawn(move || b2.send_payload(0, 1, src_ref));
            b.recv_payload(0, 1, &src, &mut dst);
        });
        assert_eq!(src, dst);
    }
}
