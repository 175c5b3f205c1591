//! Probes of `nemesis_serve` and of the arrival generator in
//! `nemesis_workloads::trace`.

use std::hint::black_box;
use std::time::Instant;

use nemesis_serve::{run_service, HealthTable, LatencyHistogram, ServeReport};

use super::{ns_per_iter, Budget, Probed};
use crate::serve_workloads::{arrivals, interpolated_percentile_ns, serve_config, Arrivals};
use crate::stats::Metric;

/// Poisson arrivals at `rps`.
fn poisson(rps: f64) -> Arrivals {
    Arrivals {
        step_ns: 10_000,
        p_on: 1.0,
        p_off: 0.0,
        rate_on: rps * 1e-5,
        offered_share: 1.0,
        runs_per_slice: 1,
    }
}

fn service(b: &Budget, a: &Arrivals, seconds: f64, service_ns: u64, salt: u64) -> ServeReport {
    let stream = a.generate(seconds, b.seed.wrapping_mul(0x100).wrapping_add(salt));
    let span_ns = (seconds * a.offered_share * 1e9) as u64;
    run_service(&serve_config(stream, span_ns, service_ns))
}

fn fold(out: &mut Probed, r: &ServeReport, shed_expected: bool) {
    out.attempted += r.offered;
    let lost = (r.completed + r.shed + r.abandoned).abs_diff(r.offered) + r.abandoned;
    out.failed += lost + if shed_expected { 0 } else { r.shed };
}

pub fn run(b: &Budget, out: &mut Probed) {
    let secs = b.macro_s * 2.0;

    // Nothing queued: client pacing plus the transport, per request.
    let idle = service(b, &poisson(1_000.0), secs, 20_000, 0xa0);
    fold(out, &idle, false);
    out.metrics.push(Metric::single(
        "serve.idle.p50_us",
        "us",
        interpolated_percentile_ns(&idle.hist, 0.5) / 1e3,
    ));

    // The bursty stream of `serve_mmpp`: the tail the end-to-end set
    // leaves out because pre-emption on a shared host decides it.
    let (mmpp, service_ns) = arrivals("serve_mmpp").expect("a workload");
    let bursty = service(b, &mmpp, secs, service_ns, 0xa1);
    fold(out, &bursty, false);
    out.metrics.push(Metric::single(
        "serve.latency.p99_us",
        "us",
        interpolated_percentile_ns(&bursty.hist, 0.99) / 1e3,
    ));

    // A saturated worker: what a request costs beyond its service time,
    // how often admission is refused, how long the backlog takes to drain.
    let (sat, service_ns) = arrivals("serve_saturated").expect("a workload");
    let full = service(b, &sat, secs, service_ns, 0xa2);
    fold(out, &full, false);
    let goodput_per_ns = full.completed as f64 / full.elapsed_ns as f64;
    out.metrics.extend([
        Metric::single(
            "serve.admit.retry_per_req",
            "count",
            full.retry_attempts as f64 / full.offered.max(1) as f64,
        ),
        Metric::single(
            "serve.worker.overhead_ns_per_req",
            "ns",
            1.0 / goodput_per_ns - service_ns as f64,
        ),
        Metric::single(
            "serve.drain.overrun_ms",
            "ms",
            full.elapsed_ns.saturating_sub(full.span_ns) as f64 / 1e6,
        ),
    ]);

    // The shed path the workloads keep out of `failed`: twice what a
    // 20 µs server completes, a 16-deep queue, three retries.
    let stream = poisson(100_000.0).generate(secs, b.seed.wrapping_mul(0x100).wrapping_add(0xa3));
    let mut cfg = serve_config(stream, (secs * 1e9) as u64, 20_000);
    cfg.queue_capacity = 16;
    cfg.retry_limit = 3;
    let shed = run_service(&cfg);
    fold(out, &shed, true);
    out.metrics.push(Metric::single(
        "serve.admit.shed_share_at_2x",
        "ratio",
        shed.shed as f64 / shed.offered.max(1) as f64,
    ));

    let mut h = LatencyHistogram::new();
    let mut x = b.seed | 1;
    let record = ns_per_iter(b.micro, 4096, |n| {
        for _ in 0..n {
            // A cheap xorshift keeps the buckets varied.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x >> 40);
        }
    });
    black_box(h.count());
    out.metrics
        .push(Metric::single("serve.hist.record_ns", "ns", record));

    let mut table = HealthTable::new(4, 10_000_000);
    let mut now = 0u64;
    let route = ns_per_iter(b.micro, 4096, |n| {
        for _ in 0..n {
            now += 1_000;
            black_box(table.route(now));
        }
    });
    out.metrics
        .push(Metric::single("serve.health.route_ns", "ns", route));

    // The generator's cost, and the burstiness it produces: squared
    // coefficient of variation of the gaps (1 for Poisson; an MMPP's is
    // above 1 by construction, which is what fattens `op_p90_us`).
    let t0 = Instant::now();
    let stream = mmpp.generate(1.0, b.seed);
    let gen_ns = t0.elapsed().as_nanos() as f64;
    let gaps: Vec<f64> = stream.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len().max(1) as f64;
    out.metrics.extend([
        Metric::single(
            "workloads.trace.mmpp_gen_ns_per_arrival",
            "ns",
            gen_ns / stream.len().max(1) as f64,
        ),
        Metric::single(
            "workloads.trace.interarrival_scv",
            "ratio",
            var / (mean * mean),
        ),
    ]);
}
