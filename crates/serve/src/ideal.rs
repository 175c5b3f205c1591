//! The queueing floor under a serving number: the latencies an ideal
//! server shows on the same arrivals. A measured latency mixes queueing,
//! which the arrival process dictates, with transport and runtime cost;
//! this is the first part alone. It is a pure function of the arrival
//! stream and never runs on the serve path.

/// Enqueue→response latency (ns) of each arrival in `arrivals` (one
/// client's sorted stream, as [`crate::ServeConfig::arrivals`] holds it)
/// on an ideal system: requests go round-robin over `workers` FCFS
/// servers, as [`crate::HealthTable::route`] routes while every worker is
/// healthy, and each takes exactly `service_ns` and costs nothing else.
///
/// Per worker this is Lindley's recursion `W' = max(0, W + S − A)`,
/// kept as the instant the worker next falls idle.
pub fn ideal_latencies_ns(arrivals: &[u64], service_ns: u64, workers: usize) -> Vec<u64> {
    assert!(workers >= 1);
    let mut idle_at = vec![0u64; workers];
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let idle = &mut idle_at[i % workers];
            *idle = (*idle).max(a) + service_ns;
            *idle - a
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_far_apart_see_only_the_service_time() {
        let arrivals = [0, 1_000_000, 2_000_000, 5_000_000];
        assert_eq!(ideal_latencies_ns(&arrivals, 20_000, 1), [20_000; 4]);
    }

    #[test]
    fn simultaneous_arrivals_queue_behind_each_other() {
        assert_eq!(ideal_latencies_ns(&[7, 7, 7], 10, 1), [10, 20, 30]);
    }

    #[test]
    fn two_workers_take_turns() {
        // Round-robin: 0 → w0 (idle at 100), 50 → w1 (idle at 150),
        // 55 → w0 again, which starts it at 100 and answers at 200.
        assert_eq!(ideal_latencies_ns(&[0, 50, 55], 100, 2), [100, 100, 145]);
        assert_eq!(ideal_latencies_ns(&[0, 0, 0, 0], 10, 2), [10, 10, 20, 20]);
    }

    #[test]
    fn md1_mean_wait_matches_the_closed_form() {
        // Poisson arrivals (an MMPP chain that never leaves ON: a Poisson
        // count per step, spread uniformly inside it) at 5 per 100 µs on
        // a 10 µs server: ρ = 0.5, and M/D/1 waits ρ / (2μ(1 − ρ)) = 5 µs
        // on average.
        let service = 10_000u64;
        let arrivals =
            nemesis_workloads::trace::mmpp_arrivals_ns(40_000, 100_000, 1.0, 0.0, 5.0, 3);
        let rho = 0.5;
        let expect = rho * service as f64 / (2.0 * (1.0 - rho));
        let waits: Vec<f64> = ideal_latencies_ns(&arrivals, service, 1)
            .iter()
            .map(|&l| (l - service) as f64)
            .collect();
        // Successive waits are correlated, so the sampling error comes
        // from batch means: 20 batches, each hundreds of busy periods
        // long.
        let batches: Vec<f64> = waits
            .chunks(waits.len() / 20)
            .take(20)
            .map(|b| b.iter().sum::<f64>() / b.len() as f64)
            .collect();
        let mean = batches.iter().sum::<f64>() / 20.0;
        let var = batches.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / 19.0;
        let se = (var / 20.0).sqrt();
        assert!(waits.len() > 150_000, "{} arrivals", waits.len());
        assert!(se < 0.05 * expect, "sampling error {se:.0} ns too wide");
        assert!(
            (mean - expect).abs() < 4.0 * se,
            "mean wait {mean:.0} ns vs M/D/1 {expect:.0} ns (se {se:.0})"
        );
    }
}
