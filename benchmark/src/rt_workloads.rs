//! The four closed-loop `rt_*` workloads.

use nemesis_rt::RtLmt;

use crate::json::Value;
use crate::rt_loop::{rt_config, rt_config_json, run_closed_loop, LoopResult, RtPlan};
use crate::stats::Metric;
use crate::workload::{trace_overhead, Mode, Outcome, RunArgs};

/// Per-pool bytes of `rt_large_stream`: the host's last-level cache,
/// clamped so four pools neither fit a large cache nor exhaust a small
/// machine. Four pools of this size total at least 4 × LLC on hosts
/// inside the clamp.
pub fn stream_pool_bytes() -> usize {
    nemesis_rt::tuner::host_llc_size().clamp(64 << 20, 384 << 20)
}

/// Fixed-time part of every workload's warm-up.
const WARMUP_S: f64 = 0.15;

pub fn plan(name: &str) -> Option<RtPlan> {
    Some(match name {
        // Inline path (≤ 256 B rides in the queue cell): queue hand-off
        // and matching, nothing else.
        "rt_pingpong_64B" => RtPlan {
            lmt: RtLmt::Direct,
            bytes: 64,
            window: 1,
            reply_bytes: 64,
            pool_bytes: 0,
            warmup_ops: 10_000,
            warmup_s: WARMUP_S,
        },
        // 64 eager messages in flight over 16 pooled cells, one ack.
        "rt_stream_4KiB" => RtPlan {
            lmt: RtLmt::Direct,
            bytes: 4 << 10,
            window: 64,
            reply_bytes: 16,
            pool_bytes: 0,
            warmup_ops: 400,
            warmup_s: WARMUP_S,
        },
        // Rendezvous through the copy ring, one hot buffer pair.
        "rt_large_cached" => RtPlan {
            lmt: RtLmt::DoubleBuffer,
            bytes: 256 << 10,
            window: 1,
            reply_bytes: 256 << 10,
            pool_bytes: 0,
            warmup_ops: 400,
            warmup_s: WARMUP_S,
        },
        // The same ring with source and destination never in cache.
        "rt_large_stream" => RtPlan {
            lmt: RtLmt::DoubleBuffer,
            bytes: 1 << 20,
            window: 1,
            reply_bytes: 1 << 20,
            pool_bytes: stream_pool_bytes(),
            warmup_ops: 50,
            warmup_s: WARMUP_S,
        },
        _ => return None,
    })
}

fn plan_json(p: &RtPlan, r: &LoopResult) -> Value {
    Value::obj()
        .with("ranks", 2u64)
        .with("lmt", format!("{:?}", p.lmt))
        .with("bytes", p.bytes)
        .with("window", p.window)
        .with("reply_bytes", p.reply_bytes)
        .with("pool_bytes", p.pool_bytes.max(p.bytes))
        .with("pools", 4u64)
        .with("slots_per_pool", r.slots_per_pool)
        .with("pinned", r.pinned)
        .with("host_llc_bytes", nemesis_rt::tuner::host_llc_size())
        .with("warmup_ops", p.warmup_ops)
        .with("warmup_s", p.warmup_s)
        .with("rt_config", rt_config_json(&rt_config()))
}

pub fn run(name: &str, args: &RunArgs) -> Outcome {
    let plan = plan(name).expect("an rt workload name");
    let setup_s = std::sync::Mutex::new(f64::NAN);
    let clock = args.clock;
    let ready = || *setup_s.lock().expect("setup clock") = clock.elapsed_s();
    let slices = &args.slice_plan()[..args.timed_slices()];
    let r = run_closed_loop(&plan, args.seed, slices, &ready);
    let config = plan_json(&plan, &r);

    let ops_per_s = |traced: bool| -> Vec<f64> {
        r.slices
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ops as f64 / s.elapsed_s)
            .collect()
    };
    let q = |i: usize| r.slices.iter().map(|s| s.quantiles_us[i]).collect();
    let metrics = match args.mode {
        Mode::SetupOnly => Vec::new(),
        Mode::Trace => trace_overhead(&ops_per_s(false), &ops_per_s(true)),
        Mode::Measure => {
            vec![
                Metric::new("ops_per_s", "1/s", ops_per_s(false)),
                Metric::new("op_p50_us", "us", q(0)),
                Metric::new("op_p90_us", "us", q(1)),
            ]
        }
    };
    let extra = match args.mode {
        Mode::Measure => vec![Metric::new("op_p99_us", "us", q(2))],
        _ => Vec::new(),
    };
    let setup_s = *setup_s.lock().expect("setup clock");
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        setup_s,
        metrics,
        extra,
        config,
        tracers: r.tracers,
    }
}
