//! Pipe + `writev` LMT (§3.1 baseline) — still two copies, but through
//! the kernel's 16-page pipe ring instead of the user-space copy ring.
//!
//! This module also hosts the pipe ops shared with the single-copy
//! [`vmsplice`](super::vmsplice) backend: the two differ only in how
//! the sender's bytes enter the pipe (`writev` copies them into kernel
//! pages; `vmsplice` gifts the user pages) and in the sender's
//! completion condition (gifted pages must stay valid until the
//! receiver drains the pipe).

use nemesis_kernel::{Iov, PipeId};
use nemesis_model::sync::lock;

use crate::comm::Comm;
use crate::shm::LmtWire;
use crate::vector::VectorLayout;

use super::{ChunkPipeline, LmtBackend, LmtRecvOp, LmtSendOp, Step, Transfer};

/// The pipe wires' sweet spot: the kernel's 16-page pipe ring (§3.1).
/// Writing more per call only blocks inside the syscall; writing much
/// less pays per-call overhead on every page. Shared with the vmsplice
/// backend — gifting pages instead of copying them does not change the
/// ring size.
pub(super) const PIPE_PREFERRED: u64 = 64 << 10;

/// Build the pipeline for one side of a pipe transfer between ranks
/// `src` and `dst` (`sender` selects which side — only the sender
/// consumes the tuner's probe cadence), growing toward the owning
/// backend's reported sweet spot under the configured schedule
/// (geometric / fixed / learned).
fn pipe_pipeline(
    comm: &Comm<'_>,
    backend: &dyn LmtBackend,
    src: usize,
    dst: usize,
    sender: bool,
) -> ChunkPipeline {
    let ceiling = backend.preferred_chunk();
    if sender {
        comm.lmt_pipeline(src, dst, ceiling)
    } else {
        comm.lmt_recv_pipeline(src, dst, ceiling)
    }
}

/// The `writev` pipe backend singleton.
pub struct PipeWritevBackend;

impl LmtBackend for PipeWritevBackend {
    fn name(&self) -> &'static str {
        "vmsplice LMT using writev"
    }

    fn preferred_chunk(&self) -> u64 {
        PIPE_PREFERRED
    }

    fn start_send(
        &self,
        comm: &Comm<'_>,
        t: &Transfer,
        _iovs: &[Iov],
    ) -> (LmtWire, Box<dyn LmtSendOp>) {
        start_pipe_send(comm, self, t, false)
    }

    fn start_recv(
        &self,
        comm: &Comm<'_>,
        t: &Transfer,
        wire: &LmtWire,
        _layout: Option<&VectorLayout>,
        _concurrency: u32,
    ) -> Box<dyn LmtRecvOp> {
        start_pipe_recv(comm, self, t, wire)
    }
}

/// Shared sender-side constructor: make sure the pair's pipe exists and
/// return its wire descriptor plus the send op.
pub(super) fn start_pipe_send(
    comm: &Comm<'_>,
    backend: &dyn LmtBackend,
    t: &Transfer,
    vmsplice: bool,
) -> (LmtWire, Box<dyn LmtSendOp>) {
    let pipe = comm.nem().ensure_pipe(comm.rank(), t.peer);
    (
        LmtWire::Pipe { pipe, vmsplice },
        Box::new(PipeSendOp {
            pipe,
            vmsplice,
            pipeline: pipe_pipeline(comm, backend, comm.rank(), t.peer, true),
            state: PipeSendState::Acquire,
            chunks_done: 0,
            last_end: 0,
        }),
    )
}

/// Shared receiver-side constructor.
pub(super) fn start_pipe_recv(
    comm: &Comm<'_>,
    backend: &dyn LmtBackend,
    t: &Transfer,
    wire: &LmtWire,
) -> Box<dyn LmtRecvOp> {
    let LmtWire::Pipe { pipe, vmsplice } = *wire else {
        unreachable!("pipe backend with non-pipe wire")
    };
    Box::new(PipeRecvOp {
        pipe,
        vmsplice,
        pipeline: pipe_pipeline(comm, backend, t.peer, comm.rank(), false),
    })
}

/// Release one party's hold on the pair's pipe; the next transfer may
/// acquire it once both sender and receiver have finished.
fn finish_pipe_side(comm: &Comm<'_>, src: usize, dst: usize) {
    let nem = comm.nem();
    let mut sh = lock(&nem.sh);
    let pp = sh.pipes.get_mut(&(src, dst)).expect("pipe exists");
    debug_assert!(pp.busy_parties > 0);
    pp.busy_parties -= 1;
}

enum PipeSendState {
    /// Waiting to acquire the pair's pipe (per-pair FIFO).
    Acquire,
    /// Pushing bytes into the pipe.
    Active,
    /// vmsplice gift semantics: pages must remain valid until read.
    Drain,
}

struct PipeSendOp {
    pipe: PipeId,
    vmsplice: bool,
    pipeline: ChunkPipeline,
    state: PipeSendState,
    /// Chunks pushed so far; the first two (pipeline fill) are skipped
    /// by the tuner sampling — they never contend with the reader, so
    /// their timings would bias the chunk model toward cold-start
    /// behaviour.
    chunks_done: u32,
    /// Virtual time the previous chunk entered the pipe (steady-state
    /// inter-chunk interval sampling).
    last_end: nemesis_sim::Ps,
}

impl LmtSendOp for PipeSendOp {
    fn step(&mut self, comm: &Comm<'_>, t: &Transfer, is_head: bool) -> Step {
        let nem = comm.nem();
        let os = comm.os();
        let p = comm.proc();
        match self.state {
            PipeSendState::Acquire => {
                if !is_head {
                    return Step::Idle;
                }
                let key = (comm.rank(), t.peer);
                let mut sh = lock(&nem.sh);
                let pp = sh.pipes.get_mut(&key).expect("pipe exists");
                if pp.busy_parties == 0 {
                    pp.busy_parties = 2;
                    drop(sh);
                    self.state = PipeSendState::Active;
                    Step::Progress
                } else {
                    Step::Idle
                }
            }
            PipeSendState::Active => {
                let (pipe, vmsplice) = (self.pipe, self.vmsplice);
                let (chunks_done, last_end) = (&mut self.chunks_done, &mut self.last_end);
                let did = self.pipeline.drive(t.len, |at, budget| {
                    let n = if vmsplice {
                        os.pipe_try_vmsplice(p, pipe, t.buf, t.off + at, budget)
                    } else {
                        os.pipe_try_write(p, pipe, t.buf, t.off + at, budget)
                    };
                    if n > 0 {
                        let end = p.now();
                        if *chunks_done >= 2 {
                            comm.note_chunk(t.peer, n, end.saturating_sub(*last_end));
                        }
                        *last_end = end;
                        *chunks_done += 1;
                    }
                    n
                });
                if self.pipeline.is_complete(t.len) {
                    if self.vmsplice {
                        self.state = PipeSendState::Drain;
                        return Step::Progress;
                    }
                    finish_pipe_side(comm, comm.rank(), t.peer);
                    return Step::Complete;
                }
                if did {
                    Step::Progress
                } else {
                    Step::Idle
                }
            }
            PipeSendState::Drain => {
                if os.pipe_is_drained(self.pipe) {
                    finish_pipe_side(comm, comm.rank(), t.peer);
                    Step::Complete
                } else {
                    Step::Idle
                }
            }
        }
    }
}

struct PipeRecvOp {
    pipe: PipeId,
    /// Whether the sender feeds the pipe with `vmsplice` (the
    /// single-copy variant that doubles as a stripe rail mechanism).
    vmsplice: bool,
    pipeline: ChunkPipeline,
}

impl LmtRecvOp for PipeRecvOp {
    fn step(&mut self, comm: &Comm<'_>, t: &Transfer, is_head: bool) -> Step {
        // The byte stream carries messages in FIFO order; only the
        // oldest transfer of the pair may read, and only once the
        // sender has acquired the pipe for *us* (bytes present imply
        // that).
        if !is_head {
            return Step::Idle;
        }
        let os = comm.os();
        let p = comm.proc();
        if os.pipe_bytes_available(self.pipe) == 0 {
            return Step::Idle;
        }
        let pipe = self.pipe;
        let did = self.pipeline.drive(t.len, |at, budget| {
            os.pipe_try_read(p, pipe, t.buf, t.off + at, budget)
        });
        if self.pipeline.is_complete(t.len) {
            finish_pipe_side(comm, t.peer, comm.rank());
            Step::Complete
        } else if did {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    fn needs_fifo(&self) -> bool {
        true
    }

    fn rail_kind(&self) -> Option<super::RailKind> {
        self.vmsplice.then_some(super::RailKind::Vmsplice)
    }
}
