//! # nemesis-rt — real-thread shared-memory runtime
//!
//! The simulated stack (`nemesis-sim` / `nemesis-core`) reproduces the
//! paper's *numbers*; this crate reproduces its *data structures* with
//! real threads and real atomics, so the lock-free machinery Nemesis is
//! built on is also exercised (and measured by the in-tree benchmark)
//! on the host machine:
//!
//! * [`queue`] — the Nemesis lock-free MPSC queue (Vyukov-style
//!   intrusive list: multi-producer `swap` on the tail, single-consumer
//!   traversal), the structure behind every Nemesis receive queue [6];
//!   here it carries the offload engine's descriptors.
//! * [`lane`] — the bounded SPSC ring, one per ordered rank pair, that
//!   [`comm`] hands every message over (the Nemesis "fastbox" role):
//!   slots only the producer writes, stamped with its message count,
//!   handed back through the consumer's count on a line of its own; no
//!   locked instruction. Beside it the pair's byte ring for eager
//!   payloads, released in order through the same consumer line.
//! * [`cellpool`] — a Treiber-stack free list of fixed-size message
//!   cells with packed ABA generation tags. Off the comm path: its
//!   `FreeStack` recycles [`queue`]'s cells, and `CellPool` is kept for
//!   the benchmark's `rt.cellpool.*` probes and the `rt_queue` bench.
//! * [`copy`] — the three intranode copy strategies as real-memory
//!   engines: double-buffered two-copy pipelining (the default LMT),
//!   direct single-copy (what KNEM achieves via the kernel; trivial
//!   between threads because they share an address space), and offloaded
//!   copy on a dedicated engine thread with in-order completion and a
//!   trailing status write (the I/OAT model of Figure 2).
//! * [`lmt`] — the [`RtLmtBackend`] trait unifying those engines behind
//!   the same backend vocabulary the simulated stack uses
//!   (`nemesis_core::lmt::LmtBackend`), so `comm` drives transfers
//!   without naming a strategy.
//! * [`tuner`] — the learned policy state, fed wall-clock samples: the
//!   `nemesis-model` models the simulated tuner also runs (per-pair
//!   chunk sweet spots from observed per-chunk times, the backend and
//!   collective bandits) plus the host-only NT-store crossover.
//! * [`comm`] — a miniature message-passing runtime tying the pieces
//!   together: rank-threads joined by per-pair lanes and their eager
//!   byte rings, and a selectable large-message strategy (double-buffer
//!   / direct / offload), mirroring the simulated `nemesis-core`
//!   protocol on real hardware.
//! * [`coll`] — collectives (barrier, bcast, reduce, allreduce, gather,
//!   scatter, allgather, alltoall) over [`comm`], so the paper's §4.4
//!   patterns also run on real threads. Every collective runs over an
//!   [`RtGroup`](coll::RtGroup) subcommunicator, with two algorithms
//!   per operation — the schedules of `nemesis_model::sched`, the same
//!   two the simulated stack runs — and a learned per-(group size,
//!   message class) algorithm choice when the tuner is attached.

pub mod backoff;
pub mod cellpool;
pub mod coll;
pub mod comm;
pub mod copy;
pub mod lane;
pub mod lmt;
pub mod queue;
pub mod tuner;

pub use backoff::Backoff;
pub use cellpool::{CellPool, FreeStack};
pub use coll::{RtCollAlg, RtGroup};
pub use comm::{run_rt, run_rt_cfg, run_rt_with, run_rt_with_cfg, RtComm, RtConfig, RtLmt};
pub use copy::{CopyEngine, DoubleBufferPipe, OffloadEngine, PipeSchedule};
pub use lmt::{backend_for, backend_for_schedule, RtLmtBackend, ALL_RT_LMTS, ALL_RT_STRIPED};
pub use queue::{NemQueue, QueueFull};
pub use tuner::{RtChunkScheduleSelect, RtCollKind, RtTransferSample, RtTuner};
