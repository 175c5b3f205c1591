//! The original Nemesis double-buffered shared-memory copy ring (§2) —
//! the paper's `default LMT`.
//!
//! Two copies: the sender copies chunks of the user buffer into a small
//! ring of shared copy buffers while the receiver copies them out, the
//! two sides pipelining chunk against chunk ("one thereby partially
//! hiding the cost of the other"). Per-pair flag lines carry the
//! full/empty handshake and are charged through the cache model, so the
//! ring exhibits the real line-bouncing behaviour §4.1 measures.
//!
//! Chunk sizes are adaptive: the sender's [`ChunkPipeline`] starts at
//! `NemesisConfig::lmt_chunk_start` and doubles toward the ring slot
//! capacity, so the receiver's overlapping copy starts after one small
//! chunk instead of one full slot. Each slot's flag carries the actual
//! fill, so the receiver needs no chunk-size agreement.

use nemesis_kernel::Iov;
use nemesis_model::sync::lock;
use nemesis_sim::CopyMode;

use crate::comm::Comm;
use crate::shm::LmtWire;
use crate::vector::VectorLayout;

use super::{ChunkPipeline, LmtBackend, LmtRecvOp, LmtSendOp, Step, Transfer};

/// The `default LMT` backend singleton.
pub struct ShmCopyBackend;

/// The ring's steady-state sweet spot: one full slot per chunk. This is
/// also `NemesisConfig::default().ring_chunk` (the config default is
/// defined from this constant), so the backend's report and the default
/// slot capacity cannot drift apart.
pub(crate) const RING_PREFERRED: u64 = 32 << 10;

/// Build the pipeline for one side of a ring transfer between ranks
/// `src` and `dst` (`sender` selects which side — only the sender
/// consumes the tuner's probe cadence). This wire's ceiling is the slot
/// capacity itself — a chunk can never exceed the buffer it travels
/// through, and ablation sweeps resize the sweet spot with the slots.
/// `ring_chunk` defaults to [`RING_PREFERRED`] (same constant
/// [`LmtBackend::preferred_chunk`] reports), so the two cannot drift.
/// The schedule (geometric / fixed / learned) comes from the
/// [`TransferPolicy`](crate::lmt::TransferPolicy) facade.
fn ring_pipeline(comm: &Comm<'_>, src: usize, dst: usize, sender: bool) -> ChunkPipeline {
    let ceiling = comm.config().ring_chunk;
    if sender {
        comm.lmt_pipeline(src, dst, ceiling)
    } else {
        comm.lmt_recv_pipeline(src, dst, ceiling)
    }
}

impl LmtBackend for ShmCopyBackend {
    fn name(&self) -> &'static str {
        "default LMT"
    }

    fn preferred_chunk(&self) -> u64 {
        RING_PREFERRED
    }

    fn start_send(
        &self,
        _comm: &Comm<'_>,
        _t: &Transfer,
        _iovs: &[Iov],
    ) -> (LmtWire, Box<dyn LmtSendOp>) {
        // The ring is created lazily per (src, dst) pair; acquisition
        // happens in the first step so back-to-back sends stay FIFO.
        (LmtWire::Shm, Box::new(ShmSendOp::Acquire))
    }

    fn start_recv(
        &self,
        comm: &Comm<'_>,
        t: &Transfer,
        _wire: &LmtWire,
        _layout: Option<&VectorLayout>,
        _concurrency: u32,
    ) -> Box<dyn LmtRecvOp> {
        // Decide the destination store flavour once per transfer: the
        // receiver's ring→user copy is the only final-destination write
        // this wire does (the sender's user→ring copy targets hot,
        // constantly-reused slots — always temporal). The threshold is
        // tuner-published (LLC-size prior), never a hardcoded constant
        // on this path.
        let nt =
            comm.nem()
                .policy
                .nt_decision(comm.os().machine(), Some((t.peer, comm.rank())), t.len);
        Box::new(ShmRecvOp {
            pipe: ring_pipeline(comm, t.peer, comm.rank(), false),
            next_slot: 0,
            nt,
            copy_ps: 0,
        })
    }
}

enum ShmSendOp {
    /// Waiting to become the ring's owner (per-pair FIFO).
    Acquire,
    /// Filling ring slots.
    Active {
        pipe: ChunkPipeline,
        next_slot: usize,
        /// Chunks fully absorbed so far (the first `ring_bufs` fill an
        /// empty pipeline and are skipped by the tuner sampling — they
        /// never wait for the receiver, so their timings would teach
        /// the chunk model a cold-start fiction).
        chunks_done: u32,
        /// Virtual time the previous chunk was published — the
        /// steady-state inter-chunk interval is what the chunk model
        /// learns from (it includes the wait for the receiver's
        /// overlapping drain, i.e. the pipeline's true per-chunk cost).
        last_end: nemesis_sim::Ps,
    },
}

impl LmtSendOp for ShmSendOp {
    fn step(&mut self, comm: &Comm<'_>, t: &Transfer, is_head: bool) -> Step {
        let nem = comm.nem();
        let os = comm.os();
        let p = comm.proc();
        let cfg = &nem.cfg;
        let key = (comm.rank(), t.peer);
        match self {
            ShmSendOp::Acquire => {
                if !is_head {
                    return Step::Idle;
                }
                nem.ensure_ring(key.0, key.1);
                let mut sh = lock(&nem.sh);
                let ring = sh.rings.get_mut(&key).expect("ring exists");
                if ring.owner.is_none() {
                    ring.owner = Some(t.msg_id);
                    drop(sh);
                    *self = ShmSendOp::Active {
                        pipe: ring_pipeline(comm, comm.rank(), t.peer, true),
                        next_slot: 0,
                        chunks_done: 0,
                        last_end: 0,
                    };
                    Step::Progress
                } else {
                    Step::Idle
                }
            }
            ShmSendOp::Active {
                ref mut pipe,
                ref mut next_slot,
                ref mut chunks_done,
                ref mut last_end,
            } => {
                // Fill every currently-free buffer (double buffering),
                // growing the chunk toward the slot capacity. Once the
                // pipeline is primed, each absorbed chunk's steady-state
                // interval feeds the tuner's chunk model (a no-op under
                // static schedules).
                let nbufs = cfg.ring_bufs as u32;
                let did = pipe.drive(t.len, |at, budget| {
                    let slot = *next_slot % cfg.ring_bufs;
                    let (fill, ring_buf) = {
                        let sh = lock(&nem.sh);
                        let ring = &sh.rings[&key];
                        // Check the slot flag (cached read).
                        nem.seg.charge_flag(p, os, ring, slot, false);
                        (ring.fill[slot], ring.bufs[slot])
                    };
                    if fill != 0 {
                        return 0; // receiver hasn't drained it yet
                    }
                    os.user_copy(p, t.buf, t.off + at, ring_buf, 0, budget);
                    {
                        let mut sh = lock(&nem.sh);
                        let ring = sh.rings.get_mut(&key).unwrap();
                        ring.fill[slot] = budget;
                        nem.seg.charge_flag(p, os, ring, slot, true);
                    }
                    let end = p.now();
                    if *chunks_done >= nbufs {
                        comm.note_chunk(t.peer, budget, end.saturating_sub(*last_end));
                    }
                    *last_end = end;
                    *chunks_done += 1;
                    *next_slot += 1;
                    budget
                });
                if pipe.is_complete(t.len) {
                    // Complete once the receiver drained everything.
                    let mut sh = lock(&nem.sh);
                    let ring = sh.rings.get_mut(&key).expect("ring exists");
                    if ring.fill.iter().all(|&f| f == 0) {
                        ring.owner = None;
                        return Step::Complete;
                    }
                }
                if did {
                    Step::Progress
                } else {
                    Step::Idle
                }
            }
        }
    }
}

struct ShmRecvOp {
    pipe: ChunkPipeline,
    next_slot: usize,
    /// Whether this transfer's ring→user copies use streaming stores
    /// (decided once at start from the tuner-published threshold).
    nt: bool,
    /// Pure copy time accumulated across chunks (excludes waiting on
    /// the sender) — the NT crossover model's sample.
    copy_ps: nemesis_sim::Ps,
}

impl LmtRecvOp for ShmRecvOp {
    fn step(&mut self, comm: &Comm<'_>, t: &Transfer, _is_head: bool) -> Step {
        let nem = comm.nem();
        let os = comm.os();
        let p = comm.proc();
        let cfg = &nem.cfg;
        let key = (t.peer, comm.rank());
        // Only drain when the ring belongs to our message (ownership is
        // the per-message FIFO gate on this wire).
        {
            let sh = lock(&nem.sh);
            match sh.rings.get(&key) {
                Some(ring) if ring.owner == Some(t.msg_id) => {}
                _ => return Step::Idle,
            }
        }
        let next_slot = &mut self.next_slot;
        let mode = if self.nt {
            CopyMode::NonTemporal
        } else {
            CopyMode::Temporal
        };
        let copy_ps = &mut self.copy_ps;
        // The sender decides the chunk sizes; our pipeline only tracks
        // position. A slot may carry more than this side's current
        // budget (the sender's schedule grew first) — `drive` accepts
        // that, bounded by the shared slot capacity.
        let did = self.pipe.drive(t.len, |at, _budget| {
            let slot = *next_slot % cfg.ring_bufs;
            let (fill, ring_buf) = {
                let sh = lock(&nem.sh);
                let ring = &sh.rings[&key];
                nem.seg.charge_flag(p, os, ring, slot, false);
                (ring.fill[slot], ring.bufs[slot])
            };
            if fill == 0 {
                return 0; // sender hasn't filled it yet
            }
            let t0 = p.now();
            os.user_copy_mode(p, ring_buf, 0, t.buf, t.off + at, fill, mode);
            *copy_ps += p.now().saturating_sub(t0);
            {
                let mut sh = lock(&nem.sh);
                let ring = sh.rings.get_mut(&key).unwrap();
                ring.fill[slot] = 0;
                nem.seg.charge_flag(p, os, ring, slot, true);
            }
            *next_slot += 1;
            fill
        });
        if self.pipe.is_complete(t.len) {
            // Teach the crossover which store flavour this size favours
            // (pure copy time only — ring waits are the sender's cost).
            comm.nem()
                .policy
                .record_copy_mode(t.peer, comm.rank(), self.nt, t.len, self.copy_ps);
            Step::Complete
        } else if did {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    fn rail_kind(&self) -> Option<super::RailKind> {
        Some(super::RailKind::Shm)
    }
}
