//! The closed loop behind the four `rt_*` workloads and the `rt.comm`
//! probes: two rank-threads over `nemesis_rt::comm`, rank 0 driving.
//!
//! One operation: rank 0 sends `window` messages of `bytes`, rank 1
//! checks each and answers with one message of `reply_bytes`, rank 0
//! checks the answer. Every message carries an 8-byte sequence stamp at
//! its head and tail, checked on receipt; operations flagged `FULL`
//! carry a seeded pattern in every byte and are compared whole.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use nemesis_rt::comm::{RtComm, RtConfig, EAGER_MAX, INLINE_MAX};
use nemesis_rt::{
    backend_for_schedule, run_rt_with_cfg, RtChunkScheduleSelect, RtCollAlg, RtLmt, RtLmtBackend,
};

use crate::host;
use crate::json::Value;
use crate::pattern::{self, stamp, stamps, Rng};
use crate::stats::LogHist;
use crate::trace::{traced, Tracer};

const TAG_DATA: i32 = 1;
const TAG_REPLY: i32 = 2;
/// Stamp flag: last operation, rank 1 leaves after answering.
const STOP: u64 = 1 << 63;
/// Stamp flag: every byte is pattern, compare the whole message.
const FULL: u64 = 1 << 62;
/// Stamp flag: rank 0 is recording spans, so rank 1 records the next
/// operation too.
const TRACED: u64 = 1 << 61;
const SEQ_MASK: u64 = TRACED - 1;

#[derive(Debug, Clone)]
pub struct RtPlan {
    pub lmt: RtLmt,
    /// Payload of each rank 0 → rank 1 message (≥ 16).
    pub bytes: usize,
    /// Messages rank 0 sends per operation.
    pub window: usize,
    /// Payload of rank 1's answer (≥ 16).
    pub reply_bytes: usize,
    /// Bytes of each of the four slot pools (send and receive, both
    /// ranks); operations walk the slots in a seeded order. One slot
    /// when this is no larger than a message.
    pub pool_bytes: usize,
    /// Untimed operations before the first slice: fixed work, so lazy
    /// set-up the first operations pay for shows in `setup_s`.
    pub warmup_ops: u64,
    /// Seconds of further untimed operations after those: fixed time.
    /// Long enough a warm-up of fixed work made `setup_s` one more
    /// measure of the operation's speed, which on a shared host moves by
    /// a third between one set of runs and the next.
    pub warmup_s: f64,
}

/// The runtime configuration every rt workload uses, each field set
/// here rather than taken from `RtConfig::default()` (which reads the
/// environment).
pub fn rt_config() -> RtConfig {
    RtConfig {
        queue_capacity: 512,
        cells: 16,
        cell_size: EAGER_MAX,
        inline_max: INLINE_MAX,
        spin_limit: nemesis_rt::backoff::DEFAULT_SPIN_LIMIT,
        recv_batch: 16,
        chunk_schedule: RtChunkScheduleSelect::Adaptive,
        coll_alg: RtCollAlg::Fixed,
        tuner: None,
        rndv_timeout: Some(Duration::from_secs(30)),
    }
}

pub fn rt_config_json(cfg: &RtConfig) -> Value {
    Value::obj()
        .with("queue_capacity", cfg.queue_capacity)
        .with("cells", cfg.cells)
        .with("cell_size", cfg.cell_size)
        .with("inline_max", cfg.inline_max)
        .with("spin_limit", cfg.spin_limit as u64)
        .with("recv_batch", cfg.recv_batch)
        .with("chunk_schedule", format!("{:?}", cfg.chunk_schedule))
        .with("coll_alg", format!("{:?}", cfg.coll_alg))
        .with("tuner", cfg.tuner.is_some())
        .with(
            "rndv_timeout_s",
            cfg.rndv_timeout
                .map_or(Value::Null, |d| d.as_secs_f64().into()),
        )
}

/// The percentiles every slice reports of its per-operation times
/// (completion to completion).
pub const SLICE_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

pub struct Slice {
    pub traced: bool,
    pub ops: u64,
    pub elapsed_s: f64,
    /// `SLICE_QUANTILES` of the per-operation time, in µs.
    pub quantiles_us: Vec<f64>,
}

pub struct LoopResult {
    pub slices: Vec<Slice>,
    /// Operations run, warm-up and checks included.
    pub attempted: u64,
    pub failed: u64,
    pub tracers: Vec<Tracer>,
    pub slots_per_pool: usize,
    /// Whether each rank-thread got a CPU of its own.
    pub pinned: bool,
}

/// Write a whole-message pattern for `word` into `buf`.
fn fill_full(buf: &mut [u8], seed: u64, word: u64) {
    pattern::fill(buf, seed, word & SEQ_MASK);
    stamp(buf, word);
}

/// One side's two pools and its seeded walk over their slots.
struct Pools {
    send: Vec<u8>,
    recv: Vec<u8>,
    send_len: usize,
    recv_len: usize,
    order: Vec<usize>,
    /// Expected content of a `FULL` message, rebuilt per check.
    scratch: Vec<u8>,
}

impl Pools {
    fn new(plan: &RtPlan, send_len: usize, recv_len: usize, seed: u64, rank: u64) -> Self {
        let slots = (plan.pool_bytes / plan.bytes.max(plan.reply_bytes)).max(1);
        // Filling is the first touch: the pages land on this thread's
        // node before anything is timed.
        let mut send = vec![0u8; slots * send_len];
        pattern::fill(&mut send, seed, 0x5e4d + rank);
        let mut recv = vec![0u8; slots * recv_len];
        pattern::fill(&mut recv, seed, 0x4ec7 + rank);
        Self {
            send,
            recv,
            send_len,
            recv_len,
            order: Rng::stream(seed, 0x0a4d + rank).permutation(slots),
            scratch: vec![0u8; send_len.max(recv_len)],
        }
    }

    fn slot(&self, op: u64) -> usize {
        self.order[(op % self.order.len() as u64) as usize]
    }

    fn send_slot(&mut self, op: u64) -> &mut [u8] {
        let s = self.slot(op) * self.send_len;
        &mut self.send[s..s + self.send_len]
    }

    fn recv_slot(&mut self, op: u64) -> &mut [u8] {
        let s = self.slot(op) * self.recv_len;
        &mut self.recv[s..s + self.recv_len]
    }

    /// Check the message just received into the slot of `op`.
    fn check(&mut self, op: u64, got: usize, want_word: u64, seed: u64) -> bool {
        let s = self.slot(op) * self.recv_len;
        let msg = &self.recv[s..s + self.recv_len];
        if got != self.recv_len || stamps(msg) != (want_word, want_word) {
            return false;
        }
        if want_word & FULL != 0 {
            let want = &mut self.scratch[..self.recv_len];
            fill_full(want, seed, want_word);
            return msg == want;
        }
        true
    }
}

/// Run the loop. `slices` lists `(seconds, traced)`; `ready` fires once
/// on rank 0 right before the first timed operation (set-up ends
/// there). With no slices the loop sets up, warms up, checks and stops.
pub fn run_closed_loop(
    plan: &RtPlan,
    seed: u64,
    slices: &[(f64, bool)],
    ready: &(dyn Fn() + Sync),
) -> LoopResult {
    let backend = backend_for_schedule(plan.lmt, 2, rt_config().chunk_schedule, None);
    run_closed_loop_over(plan, backend, seed, slices, ready)
}

/// [`run_closed_loop`] over a backend instance the caller built (and
/// may hold a handle into); `plan.lmt` is then only a label.
pub fn run_closed_loop_over(
    plan: &RtPlan,
    backend: Box<dyn RtLmtBackend>,
    seed: u64,
    slices: &[(f64, bool)],
    ready: &(dyn Fn() + Sync),
) -> LoopResult {
    assert!(plan.bytes >= 16 && plan.reply_bytes >= 16 && plan.window >= 1);
    let cfg = rt_config();
    let rank0_out: Mutex<Option<LoopResult>> = Mutex::new(None);
    let rank1_out: Mutex<(u64, Option<Tracer>)> = Mutex::new((0, None));
    let epoch = Instant::now();
    let traced_s: f64 = slices.iter().filter(|s| s.1).map(|s| s.0).sum();

    run_rt_with_cfg(2, backend, cfg, |comm| {
        if comm.rank() == 0 {
            let r = rank0(comm, plan, seed, slices, traced_s, ready, epoch);
            *rank0_out.lock().expect("rank 0 result") = Some(r);
        } else {
            let r = rank1(comm, plan, seed, traced_s, epoch);
            *rank1_out.lock().expect("rank 1 result") = r;
        }
    });

    let mut r = rank0_out
        .into_inner()
        .expect("rank 0 result")
        .expect("rank 0 ran");
    let (rank1_failed, rank1_tracer) = rank1_out.into_inner().expect("rank 1 result");
    r.failed += rank1_failed;
    r.tracers.extend(rank1_tracer);
    r
}

/// A recorder for the traced slices of this plan, with head-room,
/// allocated once before the first slice. `None` when nothing is traced.
fn tracer_for(
    thread: &str,
    epoch: Instant,
    plan: &RtPlan,
    ops_per_s: f64,
    traced_s: f64,
) -> Option<Tracer> {
    let spans = ops_per_s * traced_s * (plan.window + 2) as f64 * 1.5;
    (traced_s > 0.0).then(|| Tracer::new(thread, epoch, spans as usize + 4096))
}

fn rank0(
    comm: &mut RtComm,
    plan: &RtPlan,
    seed: u64,
    slices: &[(f64, bool)],
    traced_s: f64,
    ready: &(dyn Fn() + Sync),
    epoch: Instant,
) -> LoopResult {
    let cpu = host::pin_to_nth_allowed_cpu(0);
    let mut pools = Pools::new(plan, plan.bytes, plan.reply_bytes, seed, 0);
    let mut seq: u64 = 0;
    let mut op: u64 = 0;
    let mut failed: u64 = 0;

    // One operation; `flags` rides in every stamp of it.
    let mut run_op = |pools: &mut Pools,
                      comm: &mut RtComm,
                      mut tracer: Option<&mut Tracer>,
                      flags: u64|
     -> bool {
        let op_id = op;
        let outer = tracer
            .as_deref_mut()
            .and_then(|t| t.begin("bench.op", op_id, None));
        let mut word = 0;
        for _ in 0..plan.window {
            word = seq | flags;
            seq += 1;
            let buf = pools.send_slot(op_id);
            if flags & FULL != 0 {
                fill_full(buf, seed, word);
            } else {
                stamp(buf, word);
            }
            traced(tracer.as_deref_mut(), "rt.comm.send", op_id, || {
                comm.send(1, TAG_DATA, buf)
            });
        }
        let buf = pools.recv_slot(op_id);
        let got = traced(tracer.as_deref_mut(), "rt.comm.recv", op_id, || {
            comm.recv(Some(1), Some(TAG_REPLY), buf)
        });
        if let Some(t) = tracer {
            t.end(outer, None);
        }
        op += 1;
        pools.check(op_id, got, word, seed)
    };

    // Before: one whole-message compare, then the warm-up.
    failed += u64::from(!run_op(&mut pools, comm, None, FULL));
    let warm_t0 = Instant::now();
    for _ in 0..plan.warmup_ops {
        failed += u64::from(!run_op(&mut pools, comm, None, 0));
    }
    let warm_rate = plan.warmup_ops as f64 / warm_t0.elapsed().as_secs_f64().max(1e-9);
    let warm_until = Instant::now() + Duration::from_secs_f64(plan.warmup_s);
    while Instant::now() < warm_until {
        failed += u64::from(!run_op(&mut pools, comm, None, 0));
    }
    let mut tracer = tracer_for("rank0", epoch, plan, warm_rate, traced_s);
    // One histogram serves every slice; its size is fixed, so peak RSS
    // does not follow the number of operations a slice completes.
    let mut samples = LogHist::new();
    let mut results = Vec::with_capacity(slices.len());

    ready();
    for &(secs, is_traced) in slices {
        let flags = if is_traced { TRACED } else { 0 };
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let (mut prev, mut ops) = (t0, 0u64);
        samples.clear();
        loop {
            let t = tracer.as_mut().filter(|_| is_traced);
            failed += u64::from(!run_op(&mut pools, comm, t, flags));
            let now = Instant::now();
            samples.record((now - prev).as_nanos() as u64);
            prev = now;
            ops += 1;
            if now >= deadline {
                break;
            }
        }
        results.push(Slice {
            traced: is_traced,
            ops,
            elapsed_s: (prev - t0).as_secs_f64(),
            quantiles_us: samples.percentiles_us(&SLICE_QUANTILES),
        });
    }

    // After: the whole-message compare again, flagged as the last op.
    failed += u64::from(!run_op(&mut pools, comm, None, FULL | STOP));
    LoopResult {
        slices: results,
        attempted: op,
        failed,
        tracers: tracer.into_iter().collect(),
        slots_per_pool: pools.order.len(),
        pinned: cpu.is_some(),
    }
}

fn rank1(
    comm: &mut RtComm,
    plan: &RtPlan,
    seed: u64,
    traced_s: f64,
    epoch: Instant,
) -> (u64, Option<Tracer>) {
    host::pin_to_nth_allowed_cpu(1);
    let mut pools = Pools::new(plan, plan.reply_bytes, plan.bytes, seed, 1);
    let mut failed = 0u64;
    let mut expect: u64 = 0;
    let mut op: u64 = 0;
    let mut tracer: Option<Tracer> = None;
    // Rank 1 learns from each operation's flags whether to record the
    // next one.
    let mut record = false;
    let warm_t0 = Instant::now();
    loop {
        // The first check and the fixed-work part of the warm-up are
        // behind us: allocate the recorder now, before anything timed.
        if op == plan.warmup_ops + 1 && tracer.is_none() {
            let rate = plan.warmup_ops as f64 / warm_t0.elapsed().as_secs_f64().max(1e-9);
            tracer = tracer_for("rank1", epoch, plan, rate, traced_s);
        }
        let mut t = tracer.as_mut().filter(|_| record);
        let outer = t.as_deref_mut().and_then(|t| t.begin("bench.op", op, None));
        let mut flags = 0;
        for _ in 0..plan.window {
            let buf = pools.recv_slot(op);
            let got = traced(t.as_deref_mut(), "rt.comm.recv", op, || {
                comm.recv(Some(0), Some(TAG_DATA), buf)
            });
            flags = stamps(buf).0 & !SEQ_MASK;
            failed += u64::from(!pools.check(op, got, expect | flags, seed));
            expect += 1;
        }
        let word = (expect - 1) | flags;
        let buf = pools.send_slot(op);
        if flags & FULL != 0 {
            fill_full(buf, seed, word);
        } else {
            stamp(buf, word);
        }
        traced(t.as_deref_mut(), "rt.comm.send", op, || {
            comm.send(0, TAG_REPLY, buf)
        });
        if let Some(t) = t {
            t.end(outer, None);
        }
        record = flags & TRACED != 0;
        op += 1;
        if flags & STOP != 0 {
            return (failed, tracer);
        }
    }
}
