//! Trace-driven communication workloads.
//!
//! Applications rarely look like a pingpong; this module replays an
//! arbitrary message trace through the Nemesis stack, so placement and
//! LMT decisions can be evaluated against realistic patterns. A trace
//! also yields its [`TrafficMatrix`], which feeds the §6 affinity
//! advisor ([`nemesis_sim::affinity`]) — see the `trace_affinity`
//! example for the full loop: generate → advise → replay → compare.

use std::sync::Arc;

use nemesis_core::{Nemesis, NemesisConfig, Request};
use nemesis_kernel::Os;
use nemesis_model::rng::StdRng;
use nemesis_sim::{run_simulation, Machine, MachineConfig, Ps, TrafficMatrix};

/// One trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A message from `src` to `dst` (both execute it in program order).
    Xfer { src: usize, dst: usize, len: u64 },
    /// Every rank computes for the given virtual time.
    Compute(Ps),
    /// Global synchronization.
    Barrier,
}

/// A communication trace over `nranks` ranks.
#[derive(Debug, Clone)]
pub struct Trace {
    pub nranks: usize,
    pub ops: Vec<Op>,
}

impl Trace {
    /// The pair-traffic matrix of the trace (for the affinity advisor).
    pub fn traffic(&self) -> TrafficMatrix {
        let mut t = TrafficMatrix::new(self.nranks);
        for op in &self.ops {
            if let Op::Xfer { src, dst, len } = *op {
                t.record(src, dst, len);
            }
        }
        t
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Xfer { len, .. } => *len,
                _ => 0,
            })
            .sum()
    }

    /// Nearest-neighbour ring: `iters` rounds of `msg`-byte shifts with a
    /// compute phase between rounds.
    pub fn ring(nranks: usize, msg: u64, iters: u32, compute: Ps) -> Trace {
        let mut ops = Vec::new();
        for _ in 0..iters {
            for r in 0..nranks {
                ops.push(Op::Xfer {
                    src: r,
                    dst: (r + 1) % nranks,
                    len: msg,
                });
            }
            ops.push(Op::Compute(compute));
            ops.push(Op::Barrier);
        }
        Trace { nranks, ops }
    }

    /// Clustered pairs: ranks `2k` and `2k+1` exchange heavily, with
    /// occasional cross-cluster messages — the pattern affinity tuning
    /// wins on.
    pub fn clustered_pairs(
        nranks: usize,
        msg: u64,
        iters: u32,
        cross_every: u32,
        seed: u64,
    ) -> Trace {
        assert_eq!(nranks % 2, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        for i in 0..iters {
            for k in 0..nranks / 2 {
                ops.push(Op::Xfer {
                    src: 2 * k,
                    dst: 2 * k + 1,
                    len: msg,
                });
                ops.push(Op::Xfer {
                    src: 2 * k + 1,
                    dst: 2 * k,
                    len: msg,
                });
            }
            if cross_every > 0 && i % cross_every == 0 {
                let a = rng.random_range(0..nranks);
                let mut b = rng.random_range(0..nranks);
                if b == a {
                    b = (b + 1) % nranks;
                }
                ops.push(Op::Xfer {
                    src: a,
                    dst: b,
                    len: msg / 4,
                });
            }
            ops.push(Op::Barrier);
        }
        Trace { nranks, ops }
    }

    /// Bursty traffic from a two-state Markov-modulated Poisson process
    /// (MMPP): each directed pair in `pairs` carries its own ON/OFF
    /// chain — per step it flips OFF→ON with probability `p_on`, ON→OFF
    /// with `p_off`, and while ON emits a Poisson(`rate_on`)-distributed
    /// number of `msg`-byte messages (OFF emits nothing). The result is
    /// the many-rank regime the doorbell-sharded progress engine
    /// targets: at any instant only the pairs whose chains are ON have
    /// traffic, however many ranks exist. A barrier every 8 steps
    /// bounds outstanding requests; deterministic per `seed`.
    #[allow(clippy::too_many_arguments)] // the MMPP parameters are a unit
    pub fn mmpp(
        nranks: usize,
        pairs: &[(usize, usize)],
        steps: u32,
        msg: u64,
        p_on: f64,
        p_off: f64,
        rate_on: f64,
        seed: u64,
    ) -> Trace {
        assert!(pairs
            .iter()
            .all(|&(s, d)| s < nranks && d < nranks && s != d));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut on = vec![false; pairs.len()];
        let mut ops = Vec::new();
        let poisson_floor = (-rate_on).exp();
        for step in 0..steps {
            for (i, &(src, dst)) in pairs.iter().enumerate() {
                let flip = rng.random::<f64>();
                if on[i] {
                    if flip < p_off {
                        on[i] = false;
                    }
                } else if flip < p_on {
                    on[i] = true;
                }
                if !on[i] {
                    continue;
                }
                // Knuth's Poisson sampler: product of uniforms against
                // e^-λ (λ = rate_on is small here, so this terminates
                // in a couple of draws).
                let mut k = 0u32;
                let mut acc = rng.random::<f64>();
                while acc > poisson_floor {
                    k += 1;
                    acc *= rng.random::<f64>();
                }
                for _ in 0..k {
                    ops.push(Op::Xfer { src, dst, len: msg });
                }
            }
            if step % 8 == 7 {
                ops.push(Op::Barrier);
            }
        }
        Trace { nranks, ops }
    }

    /// Uniformly random pairs with log-uniform message sizes in
    /// `[min_len, max_len]`.
    pub fn random(nranks: usize, nops: usize, min_len: u64, max_len: u64, seed: u64) -> Trace {
        assert!(nranks >= 2 && min_len >= 1 && min_len <= max_len);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        let lg_min = (min_len as f64).ln();
        let lg_max = (max_len as f64).ln();
        for i in 0..nops {
            let src = rng.random_range(0..nranks);
            let mut dst = rng.random_range(0..nranks);
            if dst == src {
                dst = (dst + 1) % nranks;
            }
            let len = (lg_min + (lg_max - lg_min) * rng.random::<f64>()).exp() as u64;
            ops.push(Op::Xfer {
                src,
                dst,
                len: len.clamp(min_len, max_len),
            });
            // Periodic barriers bound the number of outstanding requests.
            if i % 32 == 31 {
                ops.push(Op::Barrier);
            }
        }
        Trace { nranks, ops }
    }
}

/// Open-loop arrival timestamps for the serving facade: one client's
/// request stream from the same two-state MMPP chain as [`Trace::mmpp`],
/// emitted as absolute *nanosecond arrival times* on a wall-clock axis
/// instead of trace ops. Each step spans `step_ns`; the Poisson-drawn
/// messages of an ON step land uniformly (deterministically, from the
/// same rng stream) inside it. Returned sorted.
///
/// The timestamp form is what makes a replay **open-loop**: the client
/// fires each request at its scheduled arrival whether or not earlier
/// responses have come back, so queueing delay lands in the measured
/// enqueue→response latency. A closed-loop replay (issue the next
/// request only after the previous response) self-throttles exactly
/// when the system saturates — the offered load silently collapses to
/// the service rate and the recorded tail stays flat no matter how
/// overloaded the backend is. Tail-latency numbers from a closed loop
/// are fabrications; every serving measurement here replays arrivals.
pub fn mmpp_arrivals_ns(
    steps: u32,
    step_ns: u64,
    p_on: f64,
    p_off: f64,
    rate_on: f64,
    seed: u64,
) -> Vec<u64> {
    assert!(step_ns > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut on = false;
    let mut arrivals = Vec::new();
    let poisson_floor = (-rate_on).exp();
    for step in 0..steps {
        let flip = rng.random::<f64>();
        if on {
            if flip < p_off {
                on = false;
            }
        } else if flip < p_on {
            on = true;
        }
        if !on {
            continue;
        }
        // Knuth's Poisson sampler (as in [`Trace::mmpp`]).
        let mut k = 0u32;
        let mut acc = rng.random::<f64>();
        while acc > poisson_floor {
            k += 1;
            acc *= rng.random::<f64>();
        }
        let base = step as u64 * step_ns;
        let first = arrivals.len();
        for _ in 0..k {
            arrivals.push(base + (rng.random::<f64>() * step_ns as f64) as u64);
        }
        // Steps cover disjoint, ascending time ranges: sorting each
        // step's draws sorts the stream.
        arrivals[first..].sort_unstable();
    }
    arrivals
}

/// Result of replaying a trace.
#[derive(Debug, Clone)]
pub struct TraceResult {
    pub makespan: Ps,
    pub l2_misses: u64,
}

/// Replay a trace with the given placement. Transfers are posted
/// nonblocking in program order and completed at barriers / trace end,
/// so any trace is deadlock-free.
pub fn replay(
    mcfg: MachineConfig,
    ncfg: NemesisConfig,
    placements: &[usize],
    trace: &Trace,
) -> TraceResult {
    assert_eq!(placements.len(), trace.nranks);
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(os, trace.nranks, ncfg);
    replay_on(machine, &nem, placements, trace).0
}

/// Replay a trace through an existing universe, which may be declared
/// for more ranks than the trace uses — the scale-out benches drive a
/// small active set inside an 8/64/256-rank universe to check that
/// per-poll cost depends on traffic, not on the universe size.
/// `placements` covers only the trace's ranks (ranks `0..trace.nranks`
/// of `nem`). The second return value is the total number of
/// progress-engine polls across all active ranks, the denominator for
/// host-side per-poll cost.
pub fn replay_on(
    machine: Arc<Machine>,
    nem: &Arc<Nemesis>,
    placements: &[usize],
    trace: &Trace,
) -> (TraceResult, u64) {
    assert_eq!(placements.len(), trace.nranks);
    let polls = std::sync::atomic::AtomicU64::new(0);
    let m2 = Arc::clone(&machine);
    let report = run_simulation(Arc::clone(&machine), placements, |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        // One reusable send buffer; one receive buffer per inbound
        // transfer (posted nonblocking, so each needs its own landing
        // zone).
        let max_len = trace
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Xfer { len, .. } => Some(*len),
                _ => None,
            })
            .max()
            .unwrap_or(1);
        let sbuf = os.alloc_local(p, max_len.max(1));
        os.with_data_mut(p, sbuf, |d| d.fill(me as u8 + 1));
        os.touch_write(p, sbuf, 0, max_len.max(1));
        // When the trace drives only a subset of a larger universe, the
        // sync points run a real dissemination barrier over the active
        // subgroup — O(active log active) instead of the whole universe
        // (the former linear fan-in/fan-out through rank 0 is gone now
        // that collectives take groups).
        let active = trace.nranks;
        let group = nemesis_core::CommGroup::new(&(0..active).collect::<Vec<_>>());
        let sync = |pending: &mut Vec<Request>| {
            comm.waitall(pending);
            pending.clear();
            comm.barrier_in(&group);
        };
        let mut pending: Vec<Request> = Vec::new();
        let mut tag = 0i32;
        for op in &trace.ops {
            match *op {
                Op::Xfer { src, dst, len } => {
                    tag += 1;
                    if me == src {
                        pending.push(comm.isend(dst, tag, sbuf, 0, len));
                    } else if me == dst {
                        let rbuf = os.alloc_local(p, len.max(1));
                        pending.push(comm.irecv(Some(src), Some(tag), rbuf, 0, len));
                    }
                }
                Op::Compute(ps) => {
                    comm.proc().compute(ps);
                }
                Op::Barrier => {
                    sync(&mut pending);
                }
            }
        }
        sync(&mut pending);
        polls.fetch_add(comm.polls(), std::sync::atomic::Ordering::Relaxed);
    });
    (
        TraceResult {
            makespan: report.makespan,
            l2_misses: m2.snapshot().l2_misses(),
        },
        polls.into_inner(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_core::LmtSelect;

    #[test]
    fn ring_trace_shape() {
        let t = Trace::ring(4, 1000, 3, 50);
        assert_eq!(t.nranks, 4);
        assert_eq!(t.total_bytes(), 3 * 4 * 1000);
        let tm = t.traffic();
        assert_eq!(tm.between(0, 1), 3 * 1000);
        assert_eq!(tm.between(0, 2), 0);
    }

    #[test]
    fn random_trace_deterministic_per_seed() {
        let a = Trace::random(4, 50, 64, 1 << 16, 7);
        let b = Trace::random(4, 50, 64, 1 << 16, 7);
        assert_eq!(a.ops, b.ops);
        let c = Trace::random(4, 50, 64, 1 << 16, 8);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn mmpp_trace_is_bursty_sparse_and_deterministic() {
        let pairs = [(0usize, 1usize), (2, 3), (5, 4)];
        let a = Trace::mmpp(64, &pairs, 200, 4 << 10, 0.1, 0.3, 1.5, 11);
        let b = Trace::mmpp(64, &pairs, 200, 4 << 10, 0.1, 0.3, 1.5, 11);
        assert_eq!(a.ops, b.ops, "same seed, same trace");
        // Traffic only on the listed pairs, and every listed pair gets
        // some (200 steps at these rates turn each chain ON many times;
        // the matrix is undirected, so check both orientations).
        let tm = a.traffic();
        for s in 0..64 {
            for d in s + 1..64 {
                let expect = pairs.contains(&(s, d)) || pairs.contains(&(d, s));
                assert_eq!(tm.between(s, d) > 0, expect, "pair ({s},{d})");
            }
        }
        // Bursty: messages cluster — the trace must contain both
        // back-to-back transfers on one pair and quiet stretches.
        assert!(a.ops.len() > 50, "chains stayed OFF for 200 steps?");
        let xfers = a
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Xfer { .. }))
            .count();
        let expected_uniform = 200.0 * pairs.len() as f64;
        assert!(
            (xfers as f64) < 0.8 * expected_uniform,
            "OFF states must suppress traffic: {xfers} transfers"
        );
    }

    #[test]
    fn mmpp_arrivals_are_sorted_bursty_and_deterministic() {
        let a = mmpp_arrivals_ns(400, 100_000, 0.1, 0.3, 2.0, 17);
        let b = mmpp_arrivals_ns(400, 100_000, 0.1, 0.3, 2.0, 17);
        assert_eq!(a, b, "same seed, same arrivals");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        let span = 400u64 * 100_000;
        assert!(a.iter().all(|&t| t < span), "arrival outside the trace");
        // Bursty: OFF stretches suppress traffic well below the all-ON
        // Poisson volume.
        assert!(
            (a.len() as f64) < 0.8 * 400.0 * 2.0,
            "OFF states must suppress arrivals: {}",
            a.len()
        );
        // And ON stretches cluster arrivals: some step carries several.
        let busiest = a
            .iter()
            .fold(std::collections::HashMap::<u64, u32>::new(), |mut m, &t| {
                *m.entry(t / 100_000).or_default() += 1;
                m
            })
            .into_values()
            .max()
            .unwrap();
        assert!(busiest >= 2, "no step carried a burst");
    }

    #[test]
    fn arrival_streams_of_both_serving_shapes_are_known() {
        // (length, FNV-1a) for seeds 1-3. Saturated: 7 840 steps of
        // 10 µs, always ON, 6 a step. Bursty: 20 000 steps of 100 µs,
        // p_on = p_off = 0.1, 4 a step when ON.
        let known = |shape: fn(u64) -> Vec<u64>| -> Vec<(usize, u64)> {
            (1..=3)
                .map(|seed| {
                    let a = shape(seed);
                    (a.len(), crate::fnv1a(a))
                })
                .collect()
        };
        let saturated = |seed| mmpp_arrivals_ns(7_840, 10_000, 1.0, 0.0, 6.0, seed);
        let bursty = |seed| mmpp_arrivals_ns(20_000, 100_000, 0.1, 0.1, 4.0, seed);
        assert_eq!(
            known(saturated),
            [
                (47_294, 0x20d9_f10b_021f_fe98),
                (46_886, 0xd7f5_fc8b_f001_82b6),
                (46_907, 0xa5f1_3d9f_800c_d181),
            ]
        );
        assert_eq!(
            known(bursty),
            [
                (38_682, 0x16b4_ecce_8c30_87ae),
                (39_595, 0xf357_fec9_da32_ff8e),
                (40_047, 0xde15_83a9_404f_2430),
            ]
        );
    }

    #[test]
    fn replay_mmpp_completes() {
        let t = Trace::mmpp(8, &[(0, 1), (2, 5), (6, 3)], 40, 8 << 10, 0.2, 0.3, 1.0, 3);
        let r = replay(
            MachineConfig::xeon_e5345(),
            NemesisConfig::with_lmt(LmtSelect::ShmCopy),
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &t,
        );
        assert!(r.makespan > 0);
    }

    #[test]
    fn replay_ring_completes() {
        let t = Trace::ring(4, 64 << 10, 2, 1000);
        let r = replay(
            MachineConfig::xeon_e5345(),
            NemesisConfig::with_lmt(LmtSelect::ShmCopy),
            &[0, 1, 2, 3],
            &t,
        );
        assert!(r.makespan > 0);
    }

    #[test]
    fn replay_random_mixed_sizes_all_lmts() {
        let t = Trace::random(4, 60, 128, 200_000, 42);
        for lmt in [
            LmtSelect::ShmCopy,
            LmtSelect::Knem(nemesis_core::KnemSelect::Auto),
        ] {
            let r = replay(
                MachineConfig::xeon_e5345(),
                NemesisConfig::with_lmt(lmt),
                &[0, 2, 4, 6],
                &t,
            );
            assert!(r.makespan > 0, "{lmt:?}");
        }
    }

    #[test]
    fn clustered_placement_beats_naive() {
        // The §6 loop: clustered traffic + advisor beats round-robin
        // placement in actual simulated time.
        let t = Trace::clustered_pairs(8, 256 << 10, 4, 2, 1);
        let cfg = MachineConfig::xeon_e5345();
        let tuned = nemesis_sim::recommend_placement(&cfg, &t.traffic());
        // Worst-case manual placement: partners split across sockets.
        let split: Vec<usize> = vec![0, 4, 1, 5, 2, 6, 3, 7];
        let ncfg = || NemesisConfig::with_lmt(LmtSelect::ShmCopy);
        let r_tuned = replay(cfg.clone(), ncfg(), &tuned, &t);
        let r_split = replay(cfg.clone(), ncfg(), &split, &t);
        assert!(
            r_tuned.makespan < r_split.makespan,
            "tuned {} vs split {}",
            r_tuned.makespan,
            r_split.makespan
        );
    }
}
