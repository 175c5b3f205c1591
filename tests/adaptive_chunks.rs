//! Properties of the adaptive chunk pipeliner and the learned tuner.
//!
//! 1. **Bounded chunks** — `ChunkPipeline::drive` never requests a
//!    budget above the backend's preferred chunk, for seeded-random
//!    (start, max, total) triples and wire behaviours.
//! 2. **Termination** — against any wire that eventually absorbs bytes,
//!    the pipeline completes in a bounded number of calls; against a
//!    blocked wire it returns instead of spinning.
//! 3. **Byte-identity** — a rendezvous payload delivered through every
//!    LMT backend under adaptive chunking is identical to the reference
//!    bytes, including the `lmt_chunk_start >= preferred` configuration
//!    that reproduces the seed's fixed-size chunking, and the learned
//!    threshold + chunk schedule.
//! 4. **Tuner convergence** — a seeded run on a machine whose true
//!    copy-vs-offload crossover is known converges to a `DMAmin`
//!    within 2× of the architectural value, and the learned threshold
//!    can never sink below the eager/rendezvous switchover.

use std::sync::{Arc, Mutex};

use nemesis::core::lmt::ALL_SELECTS;
use nemesis::core::{
    ChunkPipeline, ChunkScheduleSelect, KnemSelect, LmtSelect, Nemesis, NemesisConfig,
    ThresholdSelect,
};
use nemesis::kernel::Os;
use nemesis::model::rng::StdRng;
use nemesis::model::sync::lock;
use nemesis::sim::{run_simulation, Machine, MachineConfig};

#[test]
fn chunks_never_exceed_preferred_and_always_terminate() {
    let mut rng = StdRng::seed_from_u64(0xADA97);
    for case in 0..500 {
        let max = rng.random_range(1..256u64);
        let start = rng.random_range(0..512u64); // may exceed max: must clamp
        let total = rng.random_range(0..4096u64);
        // The wire absorbs a seeded fraction of each budget, with a
        // seeded chance of stalling outright.
        let stall_one_in = rng.random_range(2..10u64);
        let mut p = ChunkPipeline::new(start, max);
        let mut calls = 0u64;
        let mut moved_total = 0u64;
        while !p.is_complete(total) {
            let mut local_rng = StdRng::seed_from_u64(case * 10_000 + calls);
            p.drive(total, |at, budget| {
                assert!(budget >= 1, "zero budget would never progress");
                assert!(
                    budget <= max,
                    "case {case}: budget {budget} > preferred {max}"
                );
                assert!(at + budget <= total, "case {case}: overrun");
                assert_eq!(at, moved_total, "case {case}: offset out of sync");
                if local_rng.random_range(0..stall_one_in) == 0 {
                    return 0; // wire backpressure
                }
                let n = local_rng.random_range(0..budget) + 1;
                moved_total += n;
                n
            });
            calls += 1;
            assert!(
                calls < 20_000,
                "case {case}: pipeline failed to terminate (done {}/{total})",
                p.done()
            );
        }
        assert_eq!(p.done(), total);
        assert_eq!(moved_total, total);
    }
}

#[test]
fn blocked_wire_returns_instead_of_spinning() {
    let mut p = ChunkPipeline::new(4, 64);
    let mut calls = 0;
    let did = p.drive(1000, |_, _| {
        calls += 1;
        0
    });
    assert!(!did);
    assert_eq!(calls, 1, "a blocked wire is probed exactly once per drive");
}

#[test]
fn growth_is_geometric_and_capped() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let max = 1u64 << rng.random_range(4..16u32);
        let start = 1u64 << rng.random_range(0..4u32);
        let mut p = ChunkPipeline::new(start, max);
        let mut prev_budget = 0u64;
        p.drive(max * 64, |_, budget| {
            if prev_budget != 0 && budget > prev_budget {
                assert_eq!(
                    budget,
                    (prev_budget * 2).min(max),
                    "growth must double toward the cap"
                );
            }
            prev_budget = budget;
            budget
        });
        assert_eq!(
            p.current_chunk(),
            max,
            "steady state reaches the sweet spot"
        );
    }
}

/// Rendezvous-sized payload (past the 64 KiB eager threshold).
const LEN: u64 = 160 << 10;

fn pattern(i: usize) -> u8 {
    (i as u8).wrapping_mul(41).wrapping_add(3)
}

/// One simulated roundtrip of `LEN` contiguous bytes under `cfg`;
/// returns what rank 1 received.
fn sim_roundtrip(mut cfg: NemesisConfig, lmt: LmtSelect) -> Vec<u8> {
    cfg.lmt = lmt;
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let out = Mutex::new(Vec::new());
    run_simulation(machine, &[0, 4], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        if comm.rank() == 0 {
            let buf = os.alloc(0, LEN);
            os.with_data_mut(comm.proc(), buf, |d| {
                for (i, b) in d.iter_mut().enumerate() {
                    *b = pattern(i);
                }
            });
            os.touch_write(comm.proc(), buf, 0, LEN);
            comm.send(1, 1, buf, 0, LEN);
        } else {
            let buf = os.alloc(1, LEN);
            comm.recv(Some(0), Some(1), buf, 0, LEN);
            *lock(&out) = os.read_bytes(comm.proc(), buf, 0, LEN);
        }
    });
    let got = std::mem::take(&mut *lock(&out));
    got
}

/// Adaptive chunking must not change a single delivered byte, through
/// every backend, under aggressive and degenerate chunk configurations.
#[test]
fn adaptive_chunking_is_byte_identical_through_every_backend() {
    let reference: Vec<u8> = (0..LEN as usize).map(pattern).collect();
    let configs: Vec<(&str, NemesisConfig)> = vec![
        ("default adaptive", NemesisConfig::default()),
        (
            "tiny first chunk",
            NemesisConfig {
                lmt_chunk_start: 512,
                ..NemesisConfig::default()
            },
        ),
        (
            // Start at/above every backend's preferred chunk: the
            // schedule clamps and never grows — the old fixed chunking.
            "fixed-chunk (seed behaviour)",
            NemesisConfig {
                lmt_chunk_start: 1 << 20,
                ..NemesisConfig::default()
            },
        ),
        (
            // The explicit fixed schedule (full-ceiling chunks).
            "fixed schedule",
            NemesisConfig {
                chunk_schedule: ChunkScheduleSelect::Fixed,
                ..NemesisConfig::default()
            },
        ),
        (
            // Learned everything: threshold and chunk schedule adapt
            // from samples recorded during this very transfer.
            "learned policies",
            NemesisConfig {
                threshold: ThresholdSelect::Learned,
                chunk_schedule: ChunkScheduleSelect::Learned,
                ..NemesisConfig::default()
            },
        ),
    ];
    for (name, cfg) in &configs {
        for lmt in ALL_SELECTS {
            let got = sim_roundtrip(cfg.clone(), lmt);
            assert_eq!(
                got, reference,
                "{lmt:?} under '{name}' delivered different bytes"
            );
        }
    }
}

/// Drive a seeded pingpong sweep (per-size phases, deterministic size
/// jitter) through KNEM `Auto` with the learned threshold, and return
/// the learned state of pair (0, 1). Cores `(0, 1)` share the tiny
/// machine's L2, the §3.5 configuration the architectural formula is
/// built for.
fn converge_tiny(cfg: NemesisConfig, sizes: &[u64], reps: usize, seed: u64) -> (u64, u64) {
    let machine = Arc::new(Machine::new(MachineConfig::tiny_test()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let nem2 = Arc::clone(&nem);
    let sizes = sizes.to_vec();
    run_simulation(machine, &[0, 1], move |p| {
        let comm = nem2.attach(p);
        let os = comm.os();
        // Both ranks derive the same seeded jitter, so they agree on
        // every message size without communicating it.
        let mut rng = StdRng::seed_from_u64(seed);
        let max = sizes.iter().max().unwrap() + 1024;
        let sbuf = os.alloc(comm.rank(), max);
        let rbuf = os.alloc(comm.rank(), max);
        for (i, &s) in sizes.iter().enumerate() {
            for rep in 0..reps {
                let s = s + rng.random_range(0..256);
                let tag = (i * 1000 + rep) as i32;
                if comm.rank() == 0 {
                    comm.send(1, tag, sbuf, 0, s);
                    comm.recv(Some(1), Some(tag), rbuf, 0, s);
                } else {
                    comm.recv(Some(0), Some(tag), rbuf, 0, s);
                    comm.send(0, tag, sbuf, 0, s);
                }
            }
        }
    });
    let tuner = nem
        .policy()
        .tuner()
        .expect("learned config must carry a tuner");
    let snap = tuner.snapshot(0, 1);
    (snap.dma_min, snap.samples)
}

/// The acceptance property: with `ThresholdSelect::Learned`, a seeded
/// sim run on a topology with a known crossover converges to within 2×
/// of that topology's architectural `DMAmin` (16 KiB on the tiny
/// machine: 64 KiB L2 / (2 × 2 sharers)).
#[test]
fn learned_threshold_converges_within_2x_of_architectural() {
    let arch = MachineConfig::tiny_test().dma_min_architectural();
    assert_eq!(arch, 16 << 10);
    let cfg = NemesisConfig {
        lmt: LmtSelect::Knem(KnemSelect::Auto),
        threshold: ThresholdSelect::Learned,
        eager_max: 2 << 10,
        cell_payload: 1 << 10,
        ..NemesisConfig::default()
    };
    let sizes = [4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10];
    let (learned, samples) = converge_tiny(cfg, &sizes, 24, 0xC0FFEE);
    assert!(samples >= 100, "tuner starved of samples ({samples})");
    assert!(learned > 0, "no crossover learned");
    assert!(
        learned >= arch / 2 && learned <= arch * 2,
        "learned DMAmin {learned} outside [{}, {}] (architectural {arch})",
        arch / 2,
        arch * 2
    );
}

/// The degenerate-route clamp: even when the offload wins at every
/// observable size (every rendezvous size, because the eager switchover
/// sits above the machine's true crossover), the learned threshold
/// stops at the switchover — it can never direct the LMT below sizes
/// the LMT serves.
#[test]
fn learned_threshold_never_sinks_below_eager_switchover() {
    let cfg = NemesisConfig {
        lmt: LmtSelect::Knem(KnemSelect::Auto),
        threshold: ThresholdSelect::Learned,
        eager_max: 32 << 10, // above the tiny machine's ~24 KiB crossover
        ..NemesisConfig::default()
    };
    let sizes = [36 << 10, 48 << 10, 64 << 10, 128 << 10];
    let (learned, samples) = converge_tiny(cfg, &sizes, 24, 0xBEEF);
    assert!(samples > 0);
    assert!(
        learned == 0 || learned >= 32 << 10,
        "learned DMAmin {learned} sank below the eager/rendezvous switchover"
    );
}

/// The learned chunk schedule converges on the ring wire and keeps
/// delivery byte-identical while doing so (the sweet spot is read per
/// transfer, so mid-run republishing must be safe).
#[test]
fn learned_chunk_schedule_publishes_a_sweet_spot() {
    let cfg = NemesisConfig {
        lmt: LmtSelect::ShmCopy,
        chunk_schedule: ChunkScheduleSelect::Learned,
        eager_max: 2 << 10,
        cell_payload: 1 << 10,
        ..NemesisConfig::default()
    };
    let sizes = [16 << 10, 64 << 10, 128 << 10];
    let machine = Arc::new(Machine::new(MachineConfig::tiny_test()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let nem2 = Arc::clone(&nem);
    run_simulation(machine, &[0, 1], move |p| {
        let comm = nem2.attach(p);
        let os = comm.os();
        let max = 128 << 10;
        let sbuf = os.alloc(comm.rank(), max);
        let rbuf = os.alloc(comm.rank(), max);
        for (i, &s) in sizes.iter().enumerate() {
            for rep in 0..8 {
                let tag = (i * 100 + rep) as i32;
                if comm.rank() == 0 {
                    comm.send(1, tag, sbuf, 0, s);
                    comm.recv(Some(1), Some(tag), rbuf, 0, s);
                } else {
                    comm.recv(Some(0), Some(tag), rbuf, 0, s);
                    comm.send(0, tag, sbuf, 0, s);
                }
            }
        }
    });
    let snap = nem.policy().tuner().unwrap().snapshot(0, 1);
    let chunk = snap.chunk;
    assert!(chunk > 0, "no chunk sweet spot learned");
    assert!(
        (512..=nem.cfg().ring_chunk).contains(&chunk),
        "sweet spot {chunk} outside the wire's chunk range"
    );
}

/// The batched progress drain must not change delivery either, at the
/// degenerate batch sizes.
#[test]
fn progress_batch_extremes_are_byte_identical() {
    let reference: Vec<u8> = (0..LEN as usize).map(pattern).collect();
    for batch in [1usize, 2, 512] {
        let cfg = NemesisConfig {
            progress_batch: batch,
            ..NemesisConfig::default()
        };
        let got = sim_roundtrip(cfg, LmtSelect::ShmCopy);
        assert_eq!(got, reference, "progress_batch={batch} corrupted delivery");
    }
}
