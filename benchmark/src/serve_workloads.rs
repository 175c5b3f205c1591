//! The two open-loop `serve_*` workloads: a client replays a
//! pre-generated arrival stream against one worker through
//! `nemesis_serve::run_service`, whether or not answers come back.
//! Latency counts from each request's *scheduled* arrival.

use std::time::Instant;

use nemesis_core::FaultPlan;
use nemesis_serve::{run_service, LatencyHistogram, ServeConfig, ServeReport};
use nemesis_workloads::trace::mmpp_arrivals_ns;

use crate::json::Value;
use crate::stats::Metric;
use crate::trace::Tracer;
use crate::workload::{trace_overhead, Mode, Outcome, RunArgs};

/// The arrival process of one workload, per 1 s of stream.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    pub step_ns: u64,
    pub p_on: f64,
    pub p_off: f64,
    /// Mean arrivals per step while ON.
    pub rate_on: f64,
    /// Share of each service run's seconds the stream spans; the rest
    /// is drain (a saturated worker needs it).
    pub offered_share: f64,
    /// Service runs each timed slice is cut into; every run reports its
    /// own rate and percentiles, and the metric is the median of all.
    pub runs_per_slice: usize,
}

impl Arrivals {
    pub fn generate(&self, seconds: f64, seed: u64) -> Vec<u64> {
        let steps = (seconds * self.offered_share * 1e9 / self.step_ns as f64).ceil() as u32;
        mmpp_arrivals_ns(
            steps.max(1),
            self.step_ns,
            self.p_on,
            self.p_off,
            self.rate_on,
            seed,
        )
    }
}

pub fn arrivals(name: &str) -> Option<(Arrivals, u64)> {
    Some(match name {
        // Two-state MMPP: ON and OFF spells of ten 100 µs steps on
        // average, 4 arrivals a step when ON — 20 k rps mean, 0.8
        // utilisation of a 20 µs server inside bursts.
        "serve_mmpp" => (
            Arrivals {
                step_ns: 100_000,
                p_on: 0.1,
                p_off: 0.1,
                rate_on: 4.0,
                offered_share: 1.0,
                runs_per_slice: 1,
            },
            20_000,
        ),
        // Poisson (the chain never leaves ON) at 600 k rps against a
        // 2 µs server: 1.7 times what one worker completes. (The further
        // the offer lies above that, the less the backlog — and with it
        // the latency this workload reports — amplifies a change in the
        // worker's rate: at 500 k a worker 1 % slower meant a backlog
        // 2.3 % longer.) The stream spans 0.56 of a run, which leaves
        // the worker time to drain. Fourteen short runs a slice, not one
        // long one: the client's pending map and backlog queue grow with
        // the backlog and double as they do, so over a 1.2 s stream they
        // held 170 k to 260 k requests depending on how fast the host
        // let the worker go, and peak RSS flipped between 46 and 62 MiB.
        // Over 0.08 s they hold 20 k, give or take a quarter, which is
        // half-way between two doublings of the map (14 k and 28 k).
        "serve_saturated" => (
            Arrivals {
                step_ns: 10_000,
                p_on: 1.0,
                p_off: 0.0,
                rate_on: 6.0,
                offered_share: 0.56,
                runs_per_slice: 14,
            },
            2_000,
        ),
        _ => return None,
    })
}

/// Every field set explicitly. One worker and one client: two busy
/// threads. Retries are unbounded and the drain deadline sits far
/// beyond any run, so nothing is shed or abandoned unless something is
/// broken — and then it counts as failed.
///
/// `suspect_after_ns` is 50 ms, not the library's 5 ms. It counts from
/// a request's admission to the worker's queue, which holds 512: 1.5 ms
/// of work for a saturated worker, but a worker the host takes the CPU
/// from for a few tens of ms must not be taken for a stalled one. It
/// cannot be longer or switched off either: a worker whose answer finds
/// the client's queue full for a thousand yields drops it, only this
/// timer re-sends the request, and a 0.2 s service run that waits 0.2 s
/// for one answer reports half its rate.
pub fn serve_config(stream: Vec<u64>, span_ns: u64, service_ns: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        clients: 1,
        arrivals: vec![stream],
        span_ns,
        payload: 64,
        service_ns,
        queue_capacity: 512,
        retry_limit: u32::MAX,
        retry_base_ns: 2_000,
        retry_cap_ns: 200_000,
        suspect_after_ns: 50_000_000,
        holdoff_ns: 10_000_000,
        drain_timeout_ns: 30_000_000_000,
        fault_plan: Some(FaultPlan::default()),
    }
}

pub fn serve_config_json(c: &ServeConfig, a: &Arrivals) -> Value {
    Value::obj()
        .with("workers", c.workers)
        .with("clients", c.clients)
        .with("payload", c.payload)
        .with("service_ns", c.service_ns)
        .with("queue_capacity", c.queue_capacity)
        .with("retry_limit", c.retry_limit as u64)
        .with("retry_base_ns", c.retry_base_ns)
        .with("retry_cap_ns", c.retry_cap_ns)
        .with("suspect_after_ns", c.suspect_after_ns)
        .with("holdoff_ns", c.holdoff_ns)
        .with("drain_timeout_ns", c.drain_timeout_ns)
        .with("fault_plan", "empty")
        .with(
            "arrivals",
            Value::obj()
                .with("step_ns", a.step_ns)
                .with("p_on", a.p_on)
                .with("p_off", a.p_off)
                .with("rate_on", a.rate_on)
                .with("offered_share", a.offered_share)
                .with("runs_per_slice", a.runs_per_slice),
        )
}

/// The `q`-quantile of `h` in ns, interpolated inside its bucket.
///
/// `LatencyHistogram::percentile` answers with a bucket's lower edge
/// (sixteen buckets an octave), so a median that really moves by 3 %
/// reads as either 0 % or 6 %. The counts are private, but the share
/// of samples below and inside the bucket can be found by bisecting
/// `q`, and that is enough to interpolate.
pub fn interpolated_percentile_ns(h: &LatencyHistogram, q: f64) -> f64 {
    if h.count() == 0 {
        return f64::NAN;
    }
    let v = h.percentile(q);
    // The largest q that still answers below `v`, and the largest that
    // still answers `v`.
    let bisect = |mut lo: f64, mut hi: f64, below: &dyn Fn(u64) -> bool| {
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if below(h.percentile(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let q_lo = if h.percentile(0.0) >= v {
        0.0
    } else {
        bisect(0.0, q, &|p| p < v)
    };
    let q_hi = if h.percentile(1.0) <= v {
        1.0
    } else {
        bisect(q, 1.0, &|p| p <= v)
    };
    // Bucket width at `v`: 1 ns below 16, else a sixteenth of its octave.
    let width = match v {
        0..=15 => 1,
        _ => 1u64 << (63 - v.leading_zeros() - 4),
    };
    let floor = v - v % width;
    let share = ((q - q_lo) / (q_hi - q_lo).max(1e-12)).clamp(0.0, 1.0);
    (floor as f64 + share * width as f64).min(h.max() as f64)
}

struct ServeSlice {
    traced: bool,
    report: ServeReport,
}

/// Requests the books cannot account for, plus every one shed or
/// abandoned: the workloads are built so that none should be.
fn failed_requests(r: &ServeReport) -> u64 {
    let accounted = r.completed + r.shed + r.abandoned;
    r.shed + r.abandoned + accounted.abs_diff(r.offered)
}

pub fn run(name: &str, args: &RunArgs) -> Outcome {
    let (arr, service_ns) = arrivals(name).expect("a serve workload name");
    // Only the end-to-end run cuts its slices up: a traced slice is
    // short already.
    let cut = match args.mode {
        Mode::Trace => 1,
        _ => arr.runs_per_slice,
    };
    let plan: Vec<(f64, bool)> = args
        .slice_plan()
        .into_iter()
        .flat_map(|(secs, traced)| vec![(secs / cut as f64, traced); cut])
        .collect();
    let timed_runs = args.timed_slices() * cut;
    let traced_any = plan.iter().any(|s| s.1);
    let epoch = Instant::now();

    // Set-up: every slice's arrival stream, then a short warm-up
    // service run. The warm-up replays the bursty stream whatever the
    // workload: below saturation a run lasts exactly its stream, while a
    // saturated worker now and then drops an answer (the client's queue
    // stays full for a thousand yields while its pending map rehashes)
    // and the re-send, `suspect_after_ns` later, would make `setup_s`
    // jump between runs.
    let mk = |a: &Arrivals, seconds: f64, salt: u64| {
        let stream = a.generate(seconds, args.seed.wrapping_mul(0x100).wrapping_add(salt));
        let span_ns = (seconds * a.offered_share * 1e9) as u64;
        serve_config(stream, span_ns, service_ns)
    };
    let (bursty, _) = arrivals("serve_mmpp").expect("a workload");
    let warm_cfg = mk(&bursty, 0.2, 0xff);
    let cfgs: Vec<ServeConfig> = plan
        .iter()
        .enumerate()
        .map(|(i, &(secs, _))| mk(&arr, secs, i as u64))
        .collect();
    let config = serve_config_json(&warm_cfg, &arr);
    let warm = run_service(&warm_cfg);
    let mut attempted = warm.offered;
    let mut failed = failed_requests(&warm);
    let mut tracer = traced_any.then(|| Tracer::new("main", epoch, 64));
    let setup_s = args.clock.elapsed_s();

    let mut slices = Vec::new();
    let timed = cfgs.iter().zip(&plan).take(timed_runs);
    for (i, (cfg, &(_, traced))) in timed.enumerate() {
        let report = match tracer.as_mut().filter(|_| traced) {
            Some(t) => {
                let outer = t.begin("bench.op", i as u64, None);
                let r = t.span("serve.run_service", i as u64, || run_service(cfg));
                t.end(outer, None);
                r
            }
            None => run_service(cfg),
        };
        attempted += report.offered;
        failed += failed_requests(&report);
        slices.push(ServeSlice { traced, report });
    }

    let rate = |traced: bool| -> Vec<f64> {
        slices
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.report.completed as f64 / (s.report.elapsed_ns as f64 * 1e-9))
            .collect()
    };
    let pct = |q: f64| -> Vec<f64> {
        slices
            .iter()
            .map(|s| interpolated_percentile_ns(&s.report.hist, q) / 1e3)
            .collect()
    };
    let metrics = match args.mode {
        Mode::SetupOnly => Vec::new(),
        Mode::Trace => trace_overhead(&rate(false), &rate(true)),
        Mode::Measure => vec![
            Metric::new("ops_per_s", "1/s", rate(false)),
            Metric::new("op_p50_us", "us", pct(0.5)),
            Metric::new("op_p90_us", "us", pct(0.9)),
        ],
    };
    let extra = match args.mode {
        Mode::Measure => vec![Metric::new("op_p99_us", "us", pct(0.99))],
        _ => Vec::new(),
    };
    let retries: u64 = slices.iter().map(|s| s.report.retry_attempts).sum();
    let offered: u64 = slices.iter().map(|s| s.report.offered).sum();
    Outcome {
        attempted,
        failed,
        setup_s,
        metrics,
        extra,
        config: config
            .with("offered", offered)
            .with("retry_attempts", retries),
        tracers: tracer.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_is_continuous_and_ordered() {
        let mut h = LatencyHistogram::new();
        for v in 0..10_000u64 {
            h.record(50_000 + v * 5);
        }
        let p50 = interpolated_percentile_ns(&h, 0.5);
        // True median 75 µs; the bucket's lower edge alone reads 73.7.
        assert!((p50 - 75_000.0).abs() < 800.0, "{p50}");
        let p51 = interpolated_percentile_ns(&h, 0.51);
        assert!(p51 > p50 && p51 - p50 < 1_000.0, "{p50} {p51}");
        let p99 = interpolated_percentile_ns(&h, 0.99);
        assert!((p99 - 99_500.0).abs() < 1_500.0, "{p99}");
        assert!(interpolated_percentile_ns(&LatencyHistogram::new(), 0.5).is_nan());
    }
}
