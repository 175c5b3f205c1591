//! The queueing floor under `serve_mmpp`, pinned: the FCFS ideal
//! (`ideal_latencies_ns`) of the benchmark's seeded arrival streams.
//! A change to the generator or to the arrival process moves it.
//!
//! It has a test binary of its own: generating seventy streams keeps a
//! core busy for a while, and run beside the serve crate's own tests it
//! starved `overload_sheds_loudly_not_silently`'s threads on a 2-vCPU
//! host until no request failed four admissions in a row, so nothing
//! was shed and that test failed.

use nemesis::serve::ideal_latencies_ns;
use nemesis::workloads::trace::mmpp_arrivals_ns;

#[test]
fn serve_mmpp_ideal_p50_over_seeds_1_to_10_is_known() {
    // The benchmark's `serve_mmpp` streams: seven 2 s slices a run
    // (stream seed `seed * 0x100 + slice`) on one 20 µs worker. Each run
    // reads the median of its slices' p50s; the median of those over
    // seeds 1-10 is the 40.1 µs floor the measured p50 is read against.
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2
    };
    let runs = (1..=10u64).map(|seed| {
        median(
            (0..7)
                .map(|slice| {
                    let arrivals =
                        mmpp_arrivals_ns(20_000, 100_000, 0.1, 0.1, 4.0, seed * 0x100 + slice);
                    let mut l = ideal_latencies_ns(&arrivals, 20_000, 1);
                    l.sort_unstable();
                    l[l.len() / 2]
                })
                .collect(),
        )
    });
    assert_eq!(median(runs.collect()), 40_050);
}
