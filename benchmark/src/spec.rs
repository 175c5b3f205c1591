//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics with what each should move.
//! `BENCHMARK.json` at the repository root is `--emit-spec` of this
//! module; a test keeps the two equal.

use crate::json::Value;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Busy threads it needs; refused when the host has fewer.
    pub threads: usize,
}

/// How long one run measures: `run_seconds` of `BENCHMARK.json` and
/// the default of `--seconds`.
pub const RUN_SECONDS: u64 = 14;

/// Each is a wall-clock workload plus the virtual-time list it carries
/// (`sim_lists::carried`).
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "rt_pingpong_64B",
        why: "closed loop, 64 B round trips on the inline path: rt::queue hand-off and rt::comm matching dominate; copy, cellpool, lmt idle. Carries the same exchange on the simulated e5345",
        threads: 2,
    },
    Workload {
        name: "rt_stream_4KiB",
        why: "64 eager 4 KiB sends then one ack: the same queue with many in flight, dequeue_batch, CellPool back-pressure over 16 cells. Carries the same exchange on the simulated e5345",
        threads: 2,
    },
    Workload {
        name: "rt_large_cached",
        why: "256 KiB rendezvous ping-pong through the double-buffer ring, one hot buffer pair: the paper's cache-resident regime. Carries the simulated 64 B-4 MiB ladder on a shared L2 (Fig. 3-6)",
        threads: 2,
    },
    Workload {
        name: "rt_large_stream",
        why: "1 MiB ping-pong walking four pools of LLC size each: the paper's streaming regime, memory-bound copy. Carries the simulated ladder across sockets, static then learned configuration",
        threads: 2,
    },
    Workload {
        name: "serve_mmpp",
        why: "open loop, bursty MMPP at 20 k rps on a 20 us server: what a serving user feels below the knee; pacing, admission, try_recv polling. Carries the simulated 8-rank alltoalls to 32 KiB and NAS CG, MG",
        threads: 2,
    },
    Workload {
        name: "serve_saturated",
        why: "open loop, Poisson 600 k rps on a 2 us server: per-request transport and serve overhead of a saturated worker, QueueFull retry. Carries the simulated 8-rank alltoalls from 128 KiB and NAS IS, FT",
        threads: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these: the wall-clock ones from
/// its threads on the host, the three `sim_*` ones from the
/// virtual-time list it carries.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_us_per_op",
        unit: "sim-us",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_l2_miss_per_op",
        unit: "count",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_polls_per_op",
        unit: "count",
        better: "lower",
        bound: 0.01,
    },
];

/// Metrics whose two runs must agree to the last bit.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("sim_")
}

#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Does not repeat within a tenth on a shared two-CPU host.
    pub noisy: bool,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

pub const SIM_BACKENDS: [&str; 7] = [
    "shm",
    "pipe",
    "vmsplice",
    "knem",
    "ioat",
    "cma",
    "striped-2",
];
pub const RT_LMTS: [&str; 3] = ["double-buffer", "direct", "cma"];
pub const LOC_CRATES: [&str; 7] = ["sim", "kernel", "core", "rt", "workloads", "serve", "bench"];

// What the per-layer metrics should move: `metric@workload`.
const PP: &str = "op_p50_us@rt_pingpong_64B";
const ST: &str = "ops_per_s@rt_stream_4KiB";
const SAT: &str = "ops_per_s@serve_saturated";
const CACHED: &str = "ops_per_s@rt_large_cached";
const STREAM: &str = "ops_per_s@rt_large_stream";
const MMPP: &str = "op_p50_us,op_p90_us@serve_mmpp";
const TAIL: &str = "op_p90_us@serve_mmpp";
const PT2PT: &str = "sim_us_per_op@rt_large_cached,rt_large_stream";
const COLL: &str = "sim_us_per_op,sim_l2_miss_per_op@serve_mmpp,serve_saturated";
const MISS: &str = "sim_l2_miss_per_op@rt_large_cached,rt_large_stream";
const NONE: &str = "none";
/// Host time of the simulator: no end-to-end metric holds it (it does
/// not repeat within a quarter on a shared host); it is what tier-1
/// spends its wall time on.
const HOST: &str = "none (tier-1 wall time)";

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// `(name, unit, better, moves)`.
type Row = (&'static str, &'static str, &'static str, &'static str);
/// `(unit, better, moves)`.
type Rest = (&'static str, &'static str, &'static str);

const RT: [Row; 16] = [
    ("rt.queue.spsc_ns_per_msg", "ns", LOWER, ST),
    ("rt.queue.batch16_ns_per_msg", "ns", LOWER, ST),
    ("rt.queue.xthread_ns_per_msg", "ns", LOWER, PP),
    ("rt.queue.full_rejects_per_kmsg", "count", LOWER, SAT),
    ("rt.cellpool.acquire_release_ns", "ns", LOWER, ST),
    ("rt.cellpool.xthread_acquire_release_ns", "ns", LOWER, ST),
    ("rt.comm.send_ns_64B", "ns", LOWER, PP),
    ("rt.comm.recv_ns_64B", "ns", LOWER, PP),
    ("rt.comm.pingpong_p99_us_64B", "us", LOWER, PP),
    ("rt.comm.send_ns_4KiB", "ns", LOWER, ST),
    ("rt.comm.recv_ns_4KiB", "ns", LOWER, ST),
    ("rt.comm.msgs_per_s_4KiB", "1/s", HIGHER, ST),
    (
        "rt.comm.rndv_min_rtt_us",
        "us",
        LOWER,
        "op_p50_us@rt_large_cached",
    ),
    (
        "rt.comm.try_recv_empty_ns",
        "ns",
        LOWER,
        "op_p50_us@serve_mmpp",
    ),
    ("rt.comm.try_recv_miss_ns_depth256", "ns", LOWER, SAT),
    ("rt.comm.try_send_batch_ns_per_msg", "ns", LOWER, SAT),
];

const SERVE: [Row; 10] = [
    ("serve.idle.p50_us", "us", LOWER, MMPP),
    ("serve.latency.p99_us", "us", LOWER, TAIL),
    ("serve.admit.retry_per_req", "count", LOWER, SAT),
    ("serve.worker.overhead_ns_per_req", "ns", LOWER, SAT),
    ("serve.drain.overrun_ms", "ms", LOWER, SAT),
    ("serve.admit.shed_share_at_2x", "ratio", LOWER, NONE),
    ("serve.hist.record_ns", "ns", LOWER, MMPP),
    ("serve.health.route_ns", "ns", LOWER, MMPP),
    (
        "workloads.trace.mmpp_gen_ns_per_arrival",
        "ns",
        LOWER,
        "setup_s@serve_mmpp",
    ),
    ("workloads.trace.interarrival_scv", "ratio", LOWER, TAIL),
];

const CORE: [Row; 8] = [
    ("core.nemesis.new_host_ms_2", "ms", LOWER, HOST),
    ("core.nemesis.new_host_ms_8", "ms", LOWER, HOST),
    ("core.comm.sim_lat_ns_64B", "sim-ns", LOWER, PT2PT),
    ("core.comm.eager_sim_lat_ns_4KiB", "sim-ns", LOWER, PT2PT),
    ("core.comm.rndv_min_sim_lat_ns", "sim-ns", LOWER, PT2PT),
    (
        "core.progress.polls_per_op.pt2pt",
        "count",
        LOWER,
        "sim_polls_per_op@rt_large_cached,rt_large_stream",
    ),
    (
        "core.progress.polls_per_op.coll",
        "count",
        LOWER,
        "sim_polls_per_op@serve_mmpp,serve_saturated",
    ),
    ("core.progress.host_ns_per_poll", "ns", LOWER, HOST),
];

const TUNER: [Row; 3] = [
    (
        "core.lmt.dynamic.over_best_fixed_sim_1MiB",
        "ratio",
        HIGHER,
        PT2PT,
    ),
    (
        "core.tuner.learned_over_best_fixed_sim_1MiB",
        "ratio",
        HIGHER,
        PT2PT,
    ),
    ("core.tuner.resident_pairs", "count", LOWER, NONE),
];

const KERNEL_SIM: [Row; 15] = [
    (
        "kernel.pipe.writev_sim_mib_per_s",
        "sim-MiB/s",
        HIGHER,
        PT2PT,
    ),
    ("kernel.knem.sync_sim_mib_per_s", "sim-MiB/s", HIGHER, PT2PT),
    ("kernel.knem.ioat_sim_mib_per_s", "sim-MiB/s", HIGHER, PT2PT),
    ("kernel.cma.read_sim_mib_per_s", "sim-MiB/s", HIGHER, PT2PT),
    ("kernel.mem.alloc_touch_host_us_per_mib", "us", LOWER, HOST),
    ("sim.bus.bytes_per_payload_byte.shm", "ratio", LOWER, PT2PT),
    ("sim.stats.syscalls_per_msg.knem", "count", LOWER, PT2PT),
    ("sim.stats.pinned_pages_per_mib.knem", "count", LOWER, PT2PT),
    ("sim.dma.ioat_descs_per_mib", "count", LOWER, PT2PT),
    ("sim.machine.copy_host_ns_per_line", "ns", LOWER, HOST),
    ("sim.dma.host_ns_per_desc", "ns", LOWER, HOST),
    ("sim.sched.handoff2_host_ns", "ns", LOWER, HOST),
    ("sim.sched.handoff8_host_ns", "ns", LOWER, HOST),
    ("sim.host.ops_per_s.sim_pt2pt", "1/s", HIGHER, HOST),
    ("sim.host.ops_per_s.sim_coll", "1/s", HIGHER, HOST),
];

const BENCH: [Row; 2] = [
    ("bench.trace_overhead_pct", "%", LOWER, NONE),
    ("bench.trace_spans", "count", HIGHER, NONE),
];

/// Does not repeat within a tenth on a shared two-CPU host.
const NOISY: [&str; 10] = [
    "rt.comm.pingpong_p99_us_64B",
    "serve.latency.p99_us",
    "core.progress.host_ns_per_poll",
    "sim.machine.copy_host_ns_per_line",
    "sim.dma.host_ns_per_desc",
    "sim.sched.handoff2_host_ns",
    "sim.sched.handoff8_host_ns",
    "sim.host.ops_per_s.sim_pt2pt",
    "sim.host.ops_per_s.sim_coll",
    "bench.trace_overhead_pct",
];

fn rows(v: &mut Vec<Layer>, rows: &[Row]) {
    v.extend(rows.iter().map(|&(name, unit, better, moves)| Layer {
        name: name.to_string(),
        unit,
        better,
        noisy: NOISY.contains(&name),
        moves,
    }));
}

/// One metric per member of a family: `pattern` holds one `{}`.
fn family(v: &mut Vec<Layer>, pattern: &str, members: &[&str], (unit, better, moves): Rest) {
    v.extend(members.iter().map(|m| Layer {
        name: pattern.replace("{}", m),
        unit,
        better,
        noisy: false,
        moves,
    }));
}

/// Every per-layer metric, in the order `README.md` tables them.
pub fn per_layer() -> Vec<Layer> {
    let mut v = Vec::new();
    rows(&mut v, &RT);
    let engines = ["memcpy", "simd_temporal", "simd_nt", "dbuf_pipe"];
    let (cached, stream) = (("MiB/s", HIGHER, CACHED), ("MiB/s", HIGHER, STREAM));
    family(&mut v, "rt.copy.{}_cached_mib_per_s", &engines, cached);
    family(&mut v, "rt.copy.{}_stream_mib_per_s", &engines, stream);
    family(&mut v, "rt.lmt.{}.cached_mib_per_s", &RT_LMTS, cached);
    family(&mut v, "rt.lmt.{}.stream_mib_per_s", &RT_LMTS, stream);
    let regimes = ["cached", "stream"];
    let audit = ("ratio", HIGHER, NONE);
    family(&mut v, "rt.lmt.learned.over_best_fixed_{}", &regimes, audit);
    rows(&mut v, &SERVE);
    rows(&mut v, &CORE);
    let sim_rate = ("sim-MiB/s", HIGHER, PT2PT);
    family(
        &mut v,
        "core.lmt.{}.sim_mib_per_s_1MiB",
        &SIM_BACKENDS,
        sim_rate,
    );
    rows(&mut v, &TUNER);
    let sizes = ["4KiB", "32KiB", "128KiB", "1MiB"];
    family(
        &mut v,
        "core.coll.alltoall_sim_us.{}",
        &sizes,
        ("sim-us", LOWER, COLL),
    );
    let kernels = ["is", "ft", "cg", "mg"];
    family(
        &mut v,
        "workloads.nas.{}_sim_us",
        &kernels,
        ("sim-us", LOWER, COLL),
    );
    rows(
        &mut v,
        &[("workloads.nas.is_l2_miss", "count", LOWER, COLL)],
    );
    let counted = ["shm", "vmsplice", "knem", "ioat"];
    family(
        &mut v,
        "sim.cache.l2_miss_per_mib.{}",
        &counted,
        ("count", LOWER, MISS),
    );
    rows(&mut v, &KERNEL_SIM);
    family(&mut v, "code.loc.{}", &LOC_CRATES, ("lines", LOWER, NONE));
    rows(&mut v, &BENCH);
    v
}

/// Not measured, and why.
pub const NOT_MEASURED: [&str; 2] = [
    "rt::coll: needs at least 3 busy rank-threads; joins when the reference host has the cores",
    "contended MPSC enqueue: needs at least 3 busy threads (2 producers + 1 consumer)",
];

/// The document `BENCHMARK.json` holds.
pub fn benchmark_json() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better)
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = per_layer()
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name.as_str())
                .with("unit", m.unit)
                .with("better", m.better)
        })
        .collect::<Vec<_>>();
    Value::obj()
        .with(
            "command",
            vec![Value::from("bash"), Value::from("benchmark/run.sh")],
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_contract_limits_hold() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(layers.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)));
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(benchmark_json().to_string().len() < 64 << 10);
    }
}
