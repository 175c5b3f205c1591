//! Striped LMT — one transfer split across several rail engines, the
//! ROADMAP's "multi-rail striping across several backends for one
//! transfer".
//!
//! # Rail composition
//!
//! Rail 0 is always CMA (the **anchor**): its window exposes the *whole*
//! transfer, so the receiver can re-read any sibling rail's byte range
//! through it if that rail errors mid-transfer. Further rails are
//! taken, in order, from KNEM-with-I/OAT (the only rail whose bytes
//! move concurrently with the CPU — the DMA engine copies its stripe
//! while the receiver's CPU drains the CMA stripe), vmsplice and the
//! shared copy ring, each subject to its availability flag and to the
//! universe's rail-health registry (a rail kind that failed for a pair
//! is quarantined for that pair's subsequent transfers).
//!
//! # The split
//!
//! The sender divides `[0, len)` into one contiguous, page-aligned span
//! per rail and publishes the span table in the RTS wire descriptor, so
//! both sides reconstruct the identical split with no negotiation.
//! Spans are proportional to the per-mechanism bandwidth EWMAs the
//! tuner's `CrossoverModel` feeds (offload EWMA for the DMA rail, copy
//! EWMA for CPU rails) when the policy is learned, and equal otherwise.
//! A span that rounds to zero simply drops its rail from this transfer
//! (`RailWire::None`).
//!
//! # Completion ordering
//!
//! The receiver's op completes — and therefore the receive request and
//! the tuner sample fire — only when *every* rail has landed its span
//! and every fallback re-read has drained: the receiver never observes
//! a partially-delivered payload. Sender-side, local rails (pipe, ring)
//! complete by stepping; DONE-completed rails (CMA window, KNEM cookie)
//! carry per-rail message ids which the progress loop routes back into
//! the parent op through [`LmtSendOp::absorb_done`]. The parent send op
//! completes once all rails have.
//!
//! # Rail failure
//!
//! A receiver-driven rail that errors (injected by a `rail-fail` event
//! of the universe's fault plan — `NemesisConfig::fault_plan`) is
//! aborted before any of its bytes land: its sender-side resources are
//! released (cookie destroyed, DONE sent), the rail kind is marked
//! failed in the universe's rail-health registry, and the rail's span
//! is queued for re-reading through the anchor window — the transfer
//! still completes byte-identically, with no hang and no partial
//! delivery, and the next transfer composes its rails without the
//! failed kind. A `slow-rail` event inflates a rail kind's per-step
//! cost instead (degraded, not dead).

use nemesis_kernel::{CmaWindowId, Cookie, Iov};
use nemesis_sim::config::PAGE;

use crate::comm::Comm;
use crate::config::KnemSelect;
use crate::shm::{LmtWire, RailWire, MAX_RAILS};
use crate::vector::VectorLayout;

use super::cma::{CmaRecvOp, CmaSendOp, CMA_PREFERRED};
use super::knem::{start_knem_recv, KnemSendOp};
use super::pipe_writev::{start_pipe_recv, start_pipe_send};
use super::shm_copy::ShmCopyBackend;
use super::vmsplice::VmspliceBackend;
use super::{LmtBackend, LmtRecvOp, LmtSendOp, Step, Transfer, TransferClass};

/// The rail engines a stripe may be composed of, in composition
/// priority order (after the fixed CMA anchor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RailKind {
    /// The anchor: CMA over the whole transfer's window.
    Cma,
    /// KNEM with the asynchronous I/OAT engine — a rail whose bytes
    /// move concurrently with the CPU rails.
    KnemIoat,
    /// KNEM on the chipset's *second* I/OAT channel (NUMA parts have
    /// one engine per memory controller). Only composed when the
    /// machine really has ≥ 2 channels, so the two DMA rails stripe
    /// onto distinct hardware instead of multiplexing one queue.
    KnemIoat2,
    /// Pipe + vmsplice.
    Vmsplice,
    /// The shared copy ring.
    Shm,
}

impl RailKind {
    /// Stable code for the rail-health registry.
    pub fn code(self) -> u8 {
        match self {
            RailKind::Cma => 0,
            RailKind::KnemIoat => 1,
            RailKind::Vmsplice => 2,
            RailKind::Shm => 3,
            RailKind::KnemIoat2 => 4,
        }
    }

    /// Whether this rail's bytes move on a DMA engine.
    pub fn is_ioat(self) -> bool {
        matches!(self, RailKind::KnemIoat | RailKind::KnemIoat2)
    }

    /// The I/OAT channel a DMA rail submits to.
    fn ioat_channel(self) -> usize {
        match self {
            RailKind::KnemIoat2 => 1,
            _ => 0,
        }
    }
}

/// Per-rail message id: derived from the parent's id so DONE packets
/// route back to the right rail. The tag sits far above any realistic
/// per-rank sequence number, so rail ids never collide with real ones.
pub(crate) fn rail_msg_id(parent: u64, rail: usize) -> u64 {
    parent ^ ((rail as u64 + 1) << 40)
}

/// The striped meta-backend; one static per rail count.
pub struct StripedBackend {
    rails: usize,
}

static STRIPED: [StripedBackend; MAX_RAILS] = [
    StripedBackend { rails: 1 },
    StripedBackend { rails: 2 },
    StripedBackend { rails: 3 },
    StripedBackend { rails: 4 },
];

/// The striped backend for a rail count (clamped to `1..=MAX_RAILS`).
pub fn backend_for_rails(rails: usize) -> &'static StripedBackend {
    &STRIPED[rails.clamp(1, MAX_RAILS) - 1]
}

/// Compose the rail kinds for a transfer from `src` to `dst`: the CMA
/// anchor plus up to `want - 1` further rails, skipping unavailable and
/// quarantined kinds.
fn compose_rails(comm: &Comm<'_>, src: usize, dst: usize, want: usize) -> Vec<RailKind> {
    let cfg = comm.config();
    let second_dma = comm.os().machine().dma_channels() >= 2;
    let mut kinds = vec![RailKind::Cma];
    let order = [
        RailKind::KnemIoat,
        RailKind::KnemIoat2,
        RailKind::Vmsplice,
        RailKind::Shm,
    ];
    // During a large-message collective phase, rotate the start of the
    // candidate scan within the DMA-channel prefix: the concurrent
    // transfers of an alltoall step then open on *disjoint* channels
    // instead of all queueing on the first one (§6 — concurrency is
    // where the copy/DMA overlap pays). The rotation deliberately stays
    // inside the DMA prefix — downgrading a pair's secondary rail to a
    // slower two-copy CPU rail costs more than the channel contention
    // it would avoid — and is a pure function of the pair, so the
    // receiver-side span reconstruction (which reads the rail kinds off
    // the RTS wire) is unaffected.
    let dma_prefix = if second_dma && cfg.knem_available {
        2
    } else {
        1
    };
    let rot = if comm.coll_stripe.get() {
        src % dma_prefix
    } else {
        0
    };
    for i in 0..order.len() {
        let idx = if i < dma_prefix {
            (i + rot) % dma_prefix
        } else {
            i
        };
        let k = order[idx];
        if kinds.len() >= want {
            break;
        }
        let available = match k {
            RailKind::KnemIoat => cfg.knem_available,
            RailKind::KnemIoat2 => cfg.knem_available && second_dma,
            RailKind::Vmsplice => cfg.vmsplice_available,
            RailKind::Shm => true,
            RailKind::Cma => unreachable!(),
        };
        if available && !comm.nem().rail_failed(src, dst, k.code()) {
            kinds.push(k);
        }
    }
    kinds
}

/// Split `len` bytes into one page-aligned span per rail,
/// bandwidth-weighted from the tuner's published EWMAs when every rail
/// has an observed weight, equal otherwise. Each rail prefers its own
/// **per-kind** cell — before those existed, vmsplice and ring rails
/// shared the Copy cell with CMA, which flattened the weights of
/// 3+-rail stripes into a near-equal split — and falls back to the
/// blended per-mechanism cell (offload for the DMA rail, copy for CPU
/// rails) while its kind is unsampled. The anchor takes the remainder,
/// so it can only be empty when `len` is.
///
/// Once every rail is weighted, a learned trim may zero-weight a
/// non-anchor CPU rail whose measured EWMA drags the completion
/// estimate below what the remaining rails achieve alone (see the
/// inline derivation) — zero-span rails are dropped from the wire, so
/// the receiver needs no extra agreement.
fn split_spans(comm: &Comm<'_>, src: usize, dst: usize, kinds: &[RailKind], len: u64) -> Vec<u64> {
    let policy = &comm.nem().policy;
    let (copy_bw, offload_bw) = policy.pair_bandwidths(src, dst);
    let own: Vec<f64> = kinds
        .iter()
        .map(|&k| policy.rail_bandwidth(src, dst, k))
        .collect();
    let raw: Vec<f64> = kinds
        .iter()
        .zip(&own)
        .map(|(&k, &own_bw)| {
            if own_bw > 0.0 {
                own_bw
            } else if k.is_ioat() {
                offload_bw
            } else {
                copy_bw
            }
        })
        .collect();
    let weighted = raw.iter().all(|&w| w > 0.0);
    let mut weights: Vec<f64> = if weighted {
        raw
    } else {
        vec![1.0; kinds.len()]
    };
    if weighted {
        // Learned rail trim. CPU rails (the CMA anchor, vmsplice, shm)
        // all execute on the two process timelines and therefore
        // *serialize*, while I/OAT rails overlap with everything.
        // Under bandwidth-proportional spans every rail finishes in
        // len/Σw, so the stripe completes in ~n_cpu·len/Σw; dropping a
        // non-anchor CPU rail i shortens that iff n_cpu·w_i < Σw. A
        // rail is only droppable once its *own* per-kind EWMA has been
        // observed — a blended guess must not evict a rail the tuner
        // has never measured. This is what un-collapses striped-4 on
        // the x5550: the 4th rail is vmsplice, a CPU copy contending
        // with the anchor, and its measured weight never justifies the
        // serial time it adds next to two overlapped DMA channels.
        loop {
            let kept: Vec<usize> = (0..kinds.len()).filter(|&i| weights[i] > 0.0).collect();
            let total: f64 = kept.iter().map(|&i| weights[i]).sum();
            let n_cpu = kept.iter().filter(|&&i| !kinds[i].is_ioat()).count() as f64;
            let victim = kept
                .iter()
                .copied()
                .filter(|&i| i > 0 && !kinds[i].is_ioat() && own[i] > 0.0)
                .filter(|&i| n_cpu * weights[i] < total)
                .min_by(|&a, &b| weights[a].total_cmp(&weights[b]));
            match victim {
                Some(i) => weights[i] = 0.0,
                None => break,
            }
        }
    }
    let total_w: f64 = weights.iter().sum();
    let mut spans = vec![0u64; kinds.len()];
    let mut assigned = 0u64;
    // Non-anchor rails get their weighted share rounded down to pages;
    // the anchor absorbs the remainder (never zero for a nonzero
    // transfer).
    let cap = len.saturating_sub(len.min(PAGE));
    for i in 1..kinds.len() {
        let share = (len as f64 * weights[i] / total_w) as u64;
        let span = (share / PAGE * PAGE).min(cap - assigned.min(cap));
        spans[i] = span;
        assigned += span;
    }
    spans[0] = len - assigned;
    spans
}

impl LmtBackend for StripedBackend {
    fn name(&self) -> &'static str {
        match self.rails {
            1 => "striped LMT (1 rail)",
            2 => "striped LMT (2 rails)",
            3 => "striped LMT (3 rails)",
            _ => "striped LMT (4 rails)",
        }
    }

    fn preferred_chunk(&self) -> u64 {
        // Each rail chunks with its own engine's schedule; the parent
        // itself reports the anchor's sweet spot.
        CMA_PREFERRED
    }

    fn start_send(
        &self,
        comm: &Comm<'_>,
        t: &Transfer,
        iovs: &[Iov],
    ) -> (LmtWire, Box<dyn LmtSendOp>) {
        debug_assert_eq!(iovs.len(), 1, "striped is scatter-blind (payload packed)");
        let me = comm.rank();
        let kinds = compose_rails(comm, me, t.peer, self.rails);
        let spans = split_spans(comm, me, t.peer, &kinds, t.len);
        // The anchor window exposes the WHOLE transfer (fallback needs
        // to reach every sibling's range), whatever rail 0's own span.
        let window = comm.os().cma_expose(comm.proc(), iovs);
        let mut rails = [RailWire::None; MAX_RAILS];
        let mut wire_spans = [0u64; MAX_RAILS];
        let mut children: Vec<RailSend> = Vec::with_capacity(kinds.len());
        let mut lo = 0u64;
        for (i, (&kind, &span)) in kinds.iter().zip(&spans).enumerate() {
            wire_spans[i] = span;
            let sub = Transfer {
                msg_id: rail_msg_id(t.msg_id, i),
                peer: t.peer,
                buf: t.buf,
                off: t.off + lo,
                len: span,
            };
            lo += span;
            let (rail_wire, op, on_done): (RailWire, Box<dyn LmtSendOp>, bool) = match kind {
                // The anchor rail always exists, even with a zero span:
                // its DONE doubles as the window-release handshake.
                RailKind::Cma => (RailWire::Cma { window }, Box::new(CmaSendOp), true),
                RailKind::KnemIoat | RailKind::KnemIoat2 if span > 0 => {
                    let cookie = comm
                        .os()
                        .knem_send_cmd(comm.proc(), &[Iov::new(sub.buf, sub.off, sub.len)]);
                    (
                        RailWire::Knem {
                            cookie,
                            channel: kind.ioat_channel() as u8,
                        },
                        Box::new(KnemSendOp),
                        true,
                    )
                }
                RailKind::Vmsplice if span > 0 => {
                    let (w, op) = start_pipe_send(comm, &VmspliceBackend, &sub, true);
                    let LmtWire::Pipe { pipe, vmsplice } = w else {
                        unreachable!("pipe send built a non-pipe wire")
                    };
                    (RailWire::Pipe { pipe, vmsplice }, op, false)
                }
                RailKind::Shm if span > 0 => {
                    let (_, op) = ShmCopyBackend.start_send(comm, &sub, &[]);
                    (RailWire::Shm, op, false)
                }
                // Zero-span rails are dropped from this transfer.
                _ => {
                    rails[i] = RailWire::None;
                    continue;
                }
            };
            rails[i] = rail_wire;
            children.push(RailSend {
                t: sub,
                op,
                on_done,
                done: false,
            });
        }
        (
            LmtWire::Striped {
                nrails: kinds.len() as u8,
                rails,
                spans: wire_spans,
            },
            Box::new(StripedSendOp { children }),
        )
    }

    fn start_recv(
        &self,
        comm: &Comm<'_>,
        t: &Transfer,
        wire: &LmtWire,
        _layout: Option<&VectorLayout>,
        concurrency: u32,
    ) -> Box<dyn LmtRecvOp> {
        let LmtWire::Striped {
            nrails,
            rails,
            spans,
        } = *wire
        else {
            unreachable!("striped backend with non-striped wire")
        };
        let RailWire::Cma { window } = rails[0] else {
            unreachable!("striped wire without its CMA anchor rail")
        };
        let mut rail_ops = Vec::with_capacity(nrails as usize);
        let mut needs_fifo = false;
        let mut lo = 0u64;
        for i in 0..nrails as usize {
            let span = spans[i];
            let sub = Transfer {
                msg_id: rail_msg_id(t.msg_id, i),
                peer: t.peer,
                buf: t.buf,
                off: t.off + lo,
                len: span,
            };
            let (kind, op, cookie): (RailKind, Option<Box<dyn LmtRecvOp>>, Option<Cookie>) =
                match rails[i] {
                    RailWire::None => (RailKind::Cma, None, None),
                    RailWire::Cma { window } => (
                        RailKind::Cma,
                        (span > 0).then(|| {
                            Box::new(CmaRecvOp::new(
                                comm,
                                t.peer,
                                window,
                                lo,
                                vec![Iov::new(sub.buf, sub.off, sub.len)],
                                false,
                            )) as Box<dyn LmtRecvOp>
                        }),
                        None,
                    ),
                    RailWire::Knem { cookie, channel } => (
                        if channel > 0 {
                            RailKind::KnemIoat2
                        } else {
                            RailKind::KnemIoat
                        },
                        Some(start_knem_recv(
                            &sub,
                            cookie,
                            KnemSelect::AsyncIoat,
                            Some(channel as usize),
                            None,
                            concurrency,
                        )),
                        Some(cookie),
                    ),
                    RailWire::Pipe { pipe, vmsplice } => {
                        needs_fifo = true;
                        let backend: &dyn LmtBackend = if vmsplice {
                            &VmspliceBackend
                        } else {
                            &super::pipe_writev::PipeWritevBackend
                        };
                        let w = LmtWire::Pipe { pipe, vmsplice };
                        (
                            RailKind::Vmsplice,
                            Some(start_pipe_recv(comm, backend, &sub, &w)),
                            None,
                        )
                    }
                    RailWire::Shm => (
                        RailKind::Shm,
                        Some(ShmCopyBackend.start_recv(comm, &sub, &LmtWire::Shm, None, 1)),
                        None,
                    ),
                };
            let done = op.is_none();
            rail_ops.push(RailRecv {
                kind,
                lo,
                span,
                t: sub,
                op,
                cookie,
                started: None,
                done,
            });
            lo += span;
        }
        Box::new(StripedRecvOp {
            rails: rail_ops,
            window,
            rail0_msg_id: rail_msg_id(t.msg_id, 0),
            pending_fallback: Vec::new(),
            fallback: None,
            needs_fifo,
            offloaded: false,
        })
    }
}

/// One rail of an in-flight striped send.
struct RailSend {
    t: Transfer,
    op: Box<dyn LmtSendOp>,
    /// Completed by a per-rail DONE packet (CMA window, KNEM cookie)
    /// rather than by local stepping.
    on_done: bool,
    done: bool,
}

struct StripedSendOp {
    children: Vec<RailSend>,
}

impl LmtSendOp for StripedSendOp {
    fn step(&mut self, comm: &Comm<'_>, _t: &Transfer, is_head: bool) -> Step {
        let mut did = false;
        for r in &mut self.children {
            if r.done || r.on_done {
                continue;
            }
            match r.op.step(comm, &r.t, is_head) {
                Step::Idle => {}
                Step::Progress => did = true,
                Step::Complete => {
                    r.done = true;
                    did = true;
                }
            }
        }
        if self.children.iter().all(|r| r.done) {
            Step::Complete
        } else if did {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    fn absorb_done(&mut self, msg_id: u64) -> bool {
        for r in &mut self.children {
            if r.on_done && !r.done && r.t.msg_id == msg_id {
                r.done = true;
                return true;
            }
        }
        false
    }
}

/// One rail of an in-flight striped receive.
struct RailRecv {
    kind: RailKind,
    /// Byte range `[lo, lo+span)` of the transfer this rail carries.
    lo: u64,
    span: u64,
    t: Transfer,
    op: Option<Box<dyn LmtRecvOp>>,
    /// The KNEM cookie, kept for cleanup if the rail is failed before
    /// its receive command was issued.
    cookie: Option<Cookie>,
    /// Virtual time this rail was first stepped (per-rail sample base).
    started: Option<nemesis_sim::Ps>,
    done: bool,
}

struct StripedRecvOp {
    rails: Vec<RailRecv>,
    /// The anchor window (covers the whole transfer; also the fallback
    /// path for failed sibling rails). Closed by this op on completion.
    window: CmaWindowId,
    rail0_msg_id: u64,
    /// Byte ranges of failed rails awaiting re-read through the window.
    pending_fallback: Vec<(u64, u64)>,
    /// The re-read currently in flight.
    fallback: Option<CmaRecvOp>,
    needs_fifo: bool,
    /// Whether any rail's bytes moved off-CPU (the tuner sample class).
    offloaded: bool,
}

impl StripedRecvOp {
    /// Abort a receiver-driven rail that errored: release the sender
    /// side, quarantine the kind and queue the span for the anchor
    /// fallback. Only the KNEM rail is receiver-driven-and-abortable;
    /// the streaming rails would leave the sender pushing into a wire
    /// nobody drains.
    fn fail_rail(&mut self, comm: &Comm<'_>, i: usize) {
        let r = &mut self.rails[i];
        if let Some(cookie) = r.cookie.take() {
            comm.os().knem_destroy_cookie(comm.proc(), cookie);
        }
        comm.send_done(r.t.peer, r.t.msg_id);
        r.op = None;
        r.done = true;
        if r.span > 0 {
            self.pending_fallback.push((r.lo, r.span));
        }
    }
}

impl LmtRecvOp for StripedRecvOp {
    fn step(&mut self, comm: &Comm<'_>, t: &Transfer, is_head: bool) -> Step {
        let mut did = false;
        // Failure injection: an armed `rail-fail` event aborts a
        // matching rail when the receiver would drive it, once per
        // directed pair (the rail-health registry gates the marking;
        // the event budget is only spent when the abort really fires).
        // Only the KNEM/I-OAT rail is abortable — it is receiver-driven
        // and its bytes can be discarded before they land.
        let faults = comm.nem().faults();
        if faults.active() {
            let now = comm.proc().now();
            for i in 1..self.rails.len() {
                if self.rails[i].done || !self.rails[i].kind.is_ioat() {
                    continue;
                }
                let code = self.rails[i].kind.code();
                if faults.rail_fail_armed(code, now)
                    && comm.nem().mark_rail_failed(t.peer, comm.rank(), code)
                {
                    faults.consume_rail_fail(code);
                    self.fail_rail(comm, i);
                    did = true;
                }
            }
        }
        for r in &mut self.rails {
            if r.done {
                continue;
            }
            let Some(op) = r.op.as_mut() else {
                r.done = true;
                continue;
            };
            if r.started.is_none() {
                r.started = Some(comm.proc().now());
            }
            let step = op.step(comm, &r.t, is_head);
            // A `slow-rail` fault inflates every productive step of the
            // named kind — a mechanism that degrades without dying.
            if !matches!(step, Step::Idle) && faults.active() {
                let extra = faults.slow_extra(r.kind.code(), comm.proc().now());
                if extra > 0 {
                    comm.proc().advance(extra);
                }
            }
            match step {
                Step::Idle => {}
                Step::Progress => did = true,
                Step::Complete => {
                    let class = op.transfer_class();
                    if class == TransferClass::Offload {
                        self.offloaded = true;
                    }
                    r.done = true;
                    did = true;
                    // Per-rail sample: the crossover model sees each
                    // mechanism's own bandwidth (the rail-weighting
                    // input), not one blended parent number.
                    if comm.nem().policy.is_learned() {
                        let sample = super::TransferSample {
                            backend: rail_label(r.kind),
                            class,
                            placement: comm.nem().placement_between(r.t.peer, comm.rank()),
                            bytes: r.span,
                            elapsed_ps: comm
                                .proc()
                                .now()
                                .saturating_sub(r.started.unwrap_or_default()),
                            concurrency: 1,
                            rail: Some(r.kind),
                        };
                        comm.nem().policy.record(r.t.peer, comm.rank(), &sample);
                    }
                }
            }
        }
        // Drain fallback re-reads through the anchor window (after the
        // rails, so surviving rails keep streaming meanwhile).
        if self.fallback.is_none() {
            if let Some((lo, span)) = self.pending_fallback.pop() {
                self.fallback = Some(CmaRecvOp::new(
                    comm,
                    t.peer,
                    self.window,
                    lo,
                    vec![Iov::new(t.buf, t.off + lo, span)],
                    false,
                ));
            }
        }
        if let Some(fb) = self.fallback.as_mut() {
            did |= fb.drive_one(comm);
            if fb.is_complete() {
                self.fallback = None;
                did = true;
            }
        }
        if self.rails.iter().all(|r| r.done)
            && self.fallback.is_none()
            && self.pending_fallback.is_empty()
        {
            // Every byte has landed: release the anchor (window close +
            // rail-0 DONE) and complete. The receiver never exposes a
            // partial payload — this is the only Complete exit.
            comm.os().cma_close(comm.proc(), self.window);
            comm.send_done(t.peer, self.rail0_msg_id);
            Step::Complete
        } else if did {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    fn needs_fifo(&self) -> bool {
        self.needs_fifo
    }

    fn transfer_class(&self) -> TransferClass {
        if self.offloaded {
            TransferClass::Offload
        } else {
            TransferClass::Copy
        }
    }

    fn records_own_samples(&self) -> bool {
        true
    }
}

/// The tuner-sample label of a rail (diagnostics).
fn rail_label(kind: RailKind) -> &'static str {
    match kind {
        RailKind::Cma => "stripe rail: CMA",
        RailKind::KnemIoat => "stripe rail: KNEM I/OAT",
        RailKind::KnemIoat2 => "stripe rail: KNEM I/OAT ch1",
        RailKind::Vmsplice => "stripe rail: vmsplice",
        RailKind::Shm => "stripe rail: shm ring",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_ids_are_distinct_and_reversible() {
        let parent = (3u64 << 48) | 77;
        let ids: Vec<u64> = (0..MAX_RAILS).map(|i| rail_msg_id(parent, i)).collect();
        for (i, &a) in ids.iter().enumerate() {
            assert_ne!(a, parent);
            for &b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn backend_for_rails_clamps() {
        assert_eq!(backend_for_rails(0).rails, 1);
        assert_eq!(backend_for_rails(3).rails, 3);
        assert_eq!(backend_for_rails(99).rails, MAX_RAILS);
        assert_eq!(backend_for_rails(2).name(), "striped LMT (2 rails)");
    }
}
