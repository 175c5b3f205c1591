//! Scripted runs on the virtual-time stack (`sim → kernel → core`): the
//! virtual-time list every workload carries and the
//! `core.*`/`kernel.*`/`sim.*` probes.
//!
//! A script is a list of universes. A two-rank universe runs exchange
//! steps with its own loop over `Comm::send`/`Comm::recv`, so
//! `Comm::polls()` stays readable; an eight-rank universe runs
//! alltoalls; a NAS universe is one `run_nas` call. Virtual time, L2
//! misses and polls repeat exactly for a given script.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use nemesis_core::{
    BackendSelect, ChunkScheduleSelect, CollAlgSelect, Comm, LmtSelect, Nemesis, NemesisConfig,
    ThresholdSelect,
};
use nemesis_kernel::Os;
use nemesis_sim::topology::Placement;
use nemesis_sim::{run_simulation, Machine, MachineConfig, Proc, ProcStats, StatsSnapshot};
use nemesis_workloads::nas::{run_nas, NasClass, NasKernel};

use crate::json::Value;
use crate::pattern;
use crate::trace::Tracer;

/// The two decision-layer configurations the workloads run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCfg {
    /// What the paper evaluates: blended backend rule, architectural
    /// `DMAmin`, fixed collectives.
    PaperStatic,
    /// Every learned knob on.
    AllLearned,
    /// One fixed backend (the per-backend probes).
    Fixed(LmtSelect),
}

/// Every field set explicitly: `NemesisConfig::default()` reads four
/// environment variables.
pub fn nemesis_config(cfg: SimCfg) -> NemesisConfig {
    let learned = cfg == SimCfg::AllLearned;
    NemesisConfig {
        eager_max: 64 << 10,
        lmt: match cfg {
            SimCfg::Fixed(lmt) => lmt,
            _ => LmtSelect::Dynamic,
        },
        dma_min_override: None,
        cell_payload: 16 << 10,
        cells_per_proc: 32,
        ring_chunk: 32 << 10,
        ring_bufs: 2,
        lmt_chunk_start: 4 << 10,
        queue_slots: 512,
        progress_batch: 32,
        backoff_spin_cap: 6,
        collective_hint: false,
        knem_available: true,
        cma_available: true,
        vmsplice_available: true,
        fault_plan: None,
        retry_deadline_ps: 20_000_000_000,
        threshold: if learned {
            ThresholdSelect::Learned
        } else {
            ThresholdSelect::Auto
        },
        chunk_schedule: if learned {
            ChunkScheduleSelect::Learned
        } else {
            ChunkScheduleSelect::Adaptive
        },
        backend: if learned {
            BackendSelect::LearnedBackend
        } else {
            BackendSelect::Dynamic
        },
        coll_alg: if learned {
            CollAlgSelect::Learned
        } else {
            CollAlgSelect::Fixed
        },
        tuner_snapshot: None,
        tuner_snapshot_path: None,
    }
}

pub fn nemesis_config_json(cfg: SimCfg) -> Value {
    let c = nemesis_config(cfg);
    Value::obj()
        .with("machine", "xeon_e5345")
        .with("eager_max", c.eager_max)
        .with("lmt", format!("{:?}", c.lmt))
        .with("threshold", format!("{:?}", c.threshold))
        .with("backend", format!("{:?}", c.backend))
        .with("chunk_schedule", format!("{:?}", c.chunk_schedule))
        .with("coll_alg", format!("{:?}", c.coll_alg))
        .with("cell_payload", c.cell_payload)
        .with("cells_per_proc", c.cells_per_proc)
        .with("ring_chunk", c.ring_chunk)
        .with("ring_bufs", c.ring_bufs)
        .with("lmt_chunk_start", c.lmt_chunk_start)
        .with("queue_slots", c.queue_slots)
        .with("progress_batch", c.progress_batch)
        .with("collective_hint", c.collective_hint)
        .with("knem_available", c.knem_available)
        .with("cma_available", c.cma_available)
        .with("vmsplice_available", c.vmsplice_available)
        .with("fault_plan", Value::Null)
        .with("tuner_snapshot", Value::Null)
}

/// One step of a two-rank universe. An operation: rank 0 sends `window`
/// messages of `bytes`, then rank 1 answers with `reply` bytes. Every
/// operation reuses one buffer pair.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    pub bytes: u64,
    pub window: u32,
    pub reply: u64,
    pub reps: u32,
    pub warmup: u32,
}

impl Exchange {
    pub fn pingpong(bytes: u64, reps: u32) -> Self {
        Self {
            bytes,
            window: 1,
            reply: bytes,
            reps,
            warmup: 2,
        }
    }
}

#[derive(Debug, Clone)]
pub enum Universe {
    Pair {
        placement: Placement,
        cfg: SimCfg,
        steps: Vec<Exchange>,
    },
    /// Eight ranks on cores 0–7; each step is `(bytes per pair, reps)`.
    Alltoall {
        cfg: SimCfg,
        steps: Vec<(u64, u32)>,
    },
    Nas {
        cfg: SimCfg,
        kernel: NasKernel,
    },
}

impl Universe {
    pub fn cfg(&self) -> SimCfg {
        match self {
            Universe::Pair { cfg, .. }
            | Universe::Alltoall { cfg, .. }
            | Universe::Nas { cfg, .. } => *cfg,
        }
    }
}

/// What one step (or one NAS run) cost.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// `<static|learned|fixed>.<placement>.<size>`, `alltoall.<size>`
    /// or `nas.<kernel>`.
    pub label: String,
    pub bytes: u64,
    pub ops: u64,
    pub virt_ps: u64,
    pub l2_misses: u64,
    pub bus_bytes: u64,
    /// Every counter of the machine over the step, all ranks summed
    /// (NAS runs report L2 misses only).
    pub stats: ProcStats,
}

#[derive(Default)]
pub struct ScriptResult {
    pub steps: Vec<StepResult>,
    /// Sum of `Comm::polls()` over ranks, timed operations only, and
    /// the operations it covers (NAS runs keep their `Comm` private).
    pub polls: u64,
    pub polled_ops: u64,
    pub failed: u64,
    /// Pairs the learned tuner holds state for, after the last learned
    /// universe.
    pub resident_pairs: Option<usize>,
    pub tracers: Vec<Tracer>,
}

impl ScriptResult {
    pub fn ops(&self) -> u64 {
        self.steps.iter().map(|s| s.ops).sum()
    }
    pub fn virt_ps(&self) -> u64 {
        self.steps.iter().map(|s| s.virt_ps).sum()
    }
    pub fn l2_misses(&self) -> u64 {
        self.steps.iter().map(|s| s.l2_misses).sum()
    }
    /// The three exact metrics of a script.
    pub fn sim_us_per_op(&self) -> f64 {
        self.virt_ps() as f64 / 1e6 / self.ops().max(1) as f64
    }
    pub fn l2_miss_per_op(&self) -> f64 {
        self.l2_misses() as f64 / self.ops().max(1) as f64
    }
    pub fn polls_per_op(&self) -> f64 {
        self.polls as f64 / self.polled_ops.max(1) as f64
    }
    pub fn step(&self, label: &str) -> Option<&StepResult> {
        self.steps.iter().find(|s| s.label == label)
    }

    /// Fold a later part of the script (a rank's share of a universe, a
    /// universe's share of the script) into this one.
    fn absorb(&mut self, later: ScriptResult) {
        self.steps.extend(later.steps);
        self.polls += later.polls;
        self.polled_ops += later.polled_ops;
        self.failed += later.failed;
        self.resident_pairs = later.resident_pairs.or(self.resident_pairs);
        self.tracers.extend(later.tracers);
    }
}

/// Shared by the rank threads of one universe.
struct Shared {
    out: Mutex<ScriptResult>,
    trace: Option<Instant>,
    seed: u64,
    universe: usize,
}

impl Shared {
    /// A span recorder for one thread of this universe, in a traced pass.
    fn tracer(&self, thread: &str, spans: usize) -> Option<Tracer> {
        self.trace
            .map(|epoch| Tracer::new(format!("sim-u{}-{thread}", self.universe), epoch, spans))
    }

    fn absorb(&self, part: ScriptResult) {
        self.out.lock().expect("universe result").absorb(part);
    }
}

/// Run a whole script. `trace` is the span epoch of a traced pass.
pub fn run_script(script: &[Universe], seed: u64, trace: Option<Instant>) -> ScriptResult {
    let mut total = ScriptResult::default();
    for (universe, u) in script.iter().enumerate() {
        let shared = Shared {
            out: Mutex::new(ScriptResult::default()),
            trace,
            seed,
            universe,
        };
        match u {
            Universe::Pair {
                placement,
                cfg,
                steps,
            } => run_pair(&shared, *placement, *cfg, steps),
            Universe::Alltoall { cfg, steps } => run_alltoall(&shared, *cfg, steps),
            Universe::Nas { cfg, kernel } => run_nas_universe(&shared, *cfg, *kernel),
        }
        total.absorb(shared.out.into_inner().expect("universe result"));
    }
    total
}

fn universe(shared: &Shared, nprocs: usize, cfg: SimCfg) -> (Arc<Machine>, Arc<Nemesis>) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let mut t = shared.tracer("main", 4);
    let id = t
        .as_mut()
        .and_then(|t| t.begin("core.Nemesis.new", shared.universe as u64, None));
    let nem = Nemesis::new(os, nprocs, nemesis_config(cfg));
    if let Some(mut t) = t {
        t.end(id, None);
        shared.absorb(ScriptResult {
            tracers: vec![t],
            ..ScriptResult::default()
        });
    }
    (machine, nem)
}

fn size_label(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 && b % (1 << 20) == 0 => format!("{}MiB", b >> 20),
        b if b >= 1 << 10 && b % (1 << 10) == 0 => format!("{}KiB", b >> 10),
        b => format!("{b}B"),
    }
}

/// One rank's view of one step while it is timed: counters at its start
/// and the step's result at its end.
struct StepMeter<'a> {
    comm: &'a Comm<'a>,
    machine: &'a Machine,
    polls0: u64,
    t0: u64,
    stats0: StatsSnapshot,
    bus0: u64,
}

impl<'a> StepMeter<'a> {
    fn start(comm: &'a Comm<'a>, machine: &'a Machine) -> Self {
        Self {
            comm,
            machine,
            polls0: comm.polls(),
            t0: comm.proc().now(),
            stats0: machine.snapshot(),
            bus0: machine.bus_bytes(),
        }
    }

    /// The step ended: every rank adds its polls, rank 0 the result.
    fn finish(self, local: &mut ScriptResult, label: String, bytes: u64, ops: u32) {
        local.polls += self.comm.polls() - self.polls0;
        if self.comm.rank() == 0 {
            let stats = self.machine.snapshot().delta_from(&self.stats0).total();
            local.polled_ops += ops as u64;
            local.steps.push(StepResult {
                label,
                bytes,
                ops: ops as u64,
                virt_ps: self.comm.proc().now() - self.t0,
                l2_misses: stats.l2_misses,
                bus_bytes: self.machine.bus_bytes() - self.bus0,
                stats,
            });
        }
    }
}

/// Run `f` inside a span carrying virtual time, when tracing.
fn span(t: &mut Option<Tracer>, p: &Proc, name: &'static str, op_id: u64, f: impl FnOnce()) {
    let id = t.as_mut().and_then(|t| t.begin(name, op_id, Some(p.now())));
    f();
    if let Some(t) = t.as_mut() {
        t.end(id, Some(p.now()));
    }
}

fn run_pair(shared: &Shared, placement: Placement, cfg: SimCfg, steps: &[Exchange]) {
    let (a, b) = MachineConfig::xeon_e5345()
        .topology
        .pair_for(placement)
        .expect("placement exists on the e5345");
    let (machine, nem) = universe(shared, 2, cfg);
    let place = format!(
        "{}.{placement:?}",
        match cfg {
            SimCfg::PaperStatic => "static",
            SimCfg::AllLearned => "learned",
            SimCfg::Fixed(_) => "fixed",
        }
    );
    run_simulation(Arc::clone(&machine), &[a, b], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let (rank, peer) = (comm.rank(), 1 - comm.rank());
        let spans: usize = steps
            .iter()
            .map(|s| (s.reps * (s.window + 2)) as usize)
            .sum();
        let mut tracer = shared.tracer(&format!("rank{rank}"), spans);
        let mut local = ScriptResult::default();
        let mut op_id = 0u64;
        for (si, s) in steps.iter().enumerate() {
            let tag = si as i32;
            let (send_len, recv_len) = if rank == 0 {
                (s.bytes, s.reply)
            } else {
                (s.reply, s.bytes)
            };
            let sbuf = os.alloc_local(p, send_len);
            let rbuf = os.alloc_local(p, recv_len);
            // Whole-buffer seeded pattern, charged as a first touch.
            os.with_data_mut(p, sbuf, |d| {
                pattern::fill(d, shared.seed, (si * 2 + rank) as u64)
            });
            os.touch_write(p, sbuf, 0, send_len);

            // One operation: rank 0 sends the window and takes the
            // answer; rank 1 takes the window and answers. Every message
            // is stamped and every stamp checked.
            let mut word = 0u64;
            let mut exchange = |tracer: &mut Option<Tracer>| -> bool {
                let send = |tracer: &mut Option<Tracer>, word: u64| {
                    os.with_data_mut(p, sbuf, |d| pattern::stamp(d, word));
                    span(tracer, p, "core.comm.send", op_id, || {
                        comm.send(peer, tag, sbuf, 0, send_len)
                    });
                };
                let recv = |tracer: &mut Option<Tracer>, word: u64| -> bool {
                    span(tracer, p, "core.comm.recv", op_id, || {
                        comm.recv(Some(peer), Some(tag), rbuf, 0, recv_len)
                    });
                    os.with_data(p, rbuf, |d| pattern::stamps(d) == (word, word))
                };
                let mut ok = true;
                let outer = tracer
                    .as_mut()
                    .and_then(|t| t.begin("bench.op", op_id, Some(p.now())));
                if rank == 0 {
                    for _ in 0..s.window {
                        word += 1;
                        send(tracer, word);
                    }
                    ok &= recv(tracer, word);
                } else {
                    for _ in 0..s.window {
                        word += 1;
                        ok &= recv(tracer, word);
                    }
                    send(tracer, word);
                }
                if let Some(t) = tracer.as_mut() {
                    t.end(outer, Some(p.now()));
                }
                op_id += 1;
                ok
            };

            for _ in 0..s.warmup {
                local.failed += u64::from(!exchange(&mut None));
            }
            let meter = StepMeter::start(&comm, &machine);
            for _ in 0..s.reps {
                local.failed += u64::from(!exchange(&mut tracer));
            }
            let label = format!("{place}.{}", size_label(s.bytes));
            meter.finish(&mut local, label, s.bytes, s.reps);

            // Everything but the stamps is still the peer's pattern.
            let mut want = vec![0u8; recv_len as usize];
            pattern::fill(&mut want, shared.seed, (si * 2 + peer) as u64);
            let body = 8..recv_len as usize - 8;
            let intact = os.with_data(p, rbuf, |d| d[body.clone()] == want[body]);
            local.failed += u64::from(!intact);
        }
        if rank == 0 {
            local.resident_pairs = nem.policy().resident_pairs();
        }
        local.tracers.extend(tracer);
        shared.absorb(local);
    });
}

fn run_alltoall(shared: &Shared, cfg: SimCfg, steps: &[(u64, u32)]) {
    const N: usize = 8;
    let (machine, nem) = universe(shared, N, cfg);
    let cores: Vec<usize> = (0..N).collect();
    let max = steps.iter().map(|s| s.0).max().unwrap_or(1) * N as u64;
    // Block `to` of rank `from`'s send buffer in step `si`.
    let salt = |si: usize, from: usize, to: usize| (1000 + si * N * N + from * N + to) as u64;
    run_simulation(Arc::clone(&machine), &cores, |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let rank = comm.rank();
        let spans: usize = steps.iter().map(|s| 2 * s.1 as usize).sum();
        let mut tracer = shared.tracer(&format!("rank{rank}"), spans);
        let mut local = ScriptResult::default();
        let sbuf = os.alloc_local(p, max);
        let rbuf = os.alloc_local(p, max);
        os.touch_write(p, sbuf, 0, max);
        let mut op_id = 0u64;
        for (si, &(bytes, reps)) in steps.iter().enumerate() {
            let block = |j: usize| (j as u64 * bytes) as usize..((j as u64 + 1) * bytes) as usize;
            os.with_data_mut(p, sbuf, |d| {
                for to in 0..N {
                    pattern::fill(&mut d[block(to)], shared.seed, salt(si, rank, to));
                }
            });
            // No warm-up operation: at eight ranks one costs the host as
            // much as a timed one, and a cold first operation repeats
            // exactly like any other.
            comm.barrier();
            let meter = StepMeter::start(&comm, &machine);
            for _ in 0..reps {
                let outer = tracer
                    .as_mut()
                    .and_then(|t| t.begin("bench.op", op_id, Some(p.now())));
                span(&mut tracer, p, "core.coll.alltoall", op_id, || {
                    comm.alltoall(sbuf, 0, bytes, rbuf, 0)
                });
                if let Some(t) = tracer.as_mut() {
                    t.end(outer, Some(p.now()));
                }
                op_id += 1;
            }
            comm.barrier();
            let label = format!("alltoall.{}", size_label(bytes));
            meter.finish(&mut local, label, bytes, reps);
            // Block `from` of the receive buffer is what rank `from`
            // addressed to this rank.
            let ok = os.with_data(p, rbuf, |d| {
                (0..N).all(|from| {
                    pattern::matches(&d[block(from)], shared.seed, salt(si, from, rank))
                })
            });
            local.failed += u64::from(!ok);
        }
        local.tracers.extend(tracer);
        shared.absorb(local);
    });
}

fn run_nas_universe(shared: &Shared, cfg: SimCfg, kernel: NasKernel) {
    let mut tracer = shared.tracer("main", 4);
    let op_id = shared.universe as u64;
    let outer = tracer
        .as_mut()
        .and_then(|t| t.begin("bench.op", op_id, None));
    let id = tracer
        .as_mut()
        .and_then(|t| t.begin("workloads.run_nas", op_id, None));
    let r = run_nas(
        MachineConfig::xeon_e5345(),
        nemesis_config(cfg),
        kernel,
        NasClass::S,
    );
    if let Some(t) = tracer.as_mut() {
        t.end(id, None);
        t.end(outer, None);
    }
    shared.absorb(ScriptResult {
        steps: vec![StepResult {
            label: format!("nas.{}", &kernel.label()[..2]),
            bytes: 0,
            ops: 1,
            virt_ps: r.time_ps,
            l2_misses: r.l2_misses,
            bus_bytes: 0,
            stats: ProcStats {
                l2_misses: r.l2_misses,
                ..ProcStats::default()
            },
        }],
        failed: u64::from(!r.verified),
        tracers: tracer.into_iter().collect(),
        ..ScriptResult::default()
    });
}
