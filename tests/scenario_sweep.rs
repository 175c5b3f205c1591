//! Seeded scenario sweep for the learned backend selector: randomized
//! topologies × placements × payload mixes — including bursty on/off
//! (MMPP-like) arrival patterns — must (a) deliver every byte intact
//! through whatever backends the selector picks while it explores, and
//! (b) converge: after a warmup phase, the learned selection's measured
//! virtual time must land within 1.25× of the best *fixed* backend for
//! the same scenario. Fixed seeds keep every run reproducible.

use std::sync::{Arc, Mutex};

use nemesis::core::{
    BackendSelect, KnemSelect, LmtSelect, Nemesis, NemesisConfig, ThresholdSelect,
};
use nemesis::kernel::Os;
use nemesis::model::rng::StdRng;
use nemesis::model::sync::lock;
use nemesis::sim::topology::Placement;
use nemesis::sim::{run_simulation, Machine, MachineConfig};

/// One message of a scenario's traffic: payload length and the
/// simulated think time the sender inserts before issuing it.
#[derive(Clone, Copy)]
struct Msg {
    len: u64,
    gap_ps: u64,
}

/// A generated scenario: machine, placement, and a seeded payload mix
/// whose arrivals follow a two-state on/off (MMPP-like) process —
/// bursts of back-to-back messages separated by idle periods.
struct Scenario {
    name: String,
    mcfg: fn() -> MachineConfig,
    cores: (usize, usize),
    msgs: Vec<Msg>,
    /// Messages before this index are warmup (the selector's sweep);
    /// the convergence clock runs over the rest.
    measure_from: usize,
    /// Fixed candidates the learned selection is judged against.
    candidates: Vec<LmtSelect>,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mcfg, machine_name): (fn() -> MachineConfig, &str) = if rng.random_range(0..2u32) == 0 {
        (MachineConfig::xeon_e5345, "e5345")
    } else {
        (MachineConfig::nehalem_x5550, "x5550")
    };
    let placements = [
        Placement::SharedL2,
        Placement::SharedL3,
        Placement::SameSocketDifferentDie,
        Placement::DifferentSocket,
    ];
    // Pick a placement the machine actually offers.
    let topo = mcfg().topology;
    let placement = loop {
        let p = placements[rng.random_range(0..placements.len())];
        if topo.pair_for(p).is_some() {
            break p;
        }
    };
    let cores = topo.pair_for(placement).unwrap();
    // Rendezvous sizes stay inside one selector size class so the
    // warmup sweep covers the class the measurement then runs in; the
    // class itself varies per scenario.
    let class_lo = 1u64 << rng.random_range(17..20u32); // 128 KiB .. 512 KiB
    let warmup = 24usize;
    let measured = 16usize;
    let mut msgs = Vec::new();
    // Two-state arrival process: in the ON state messages are
    // back-to-back (burst), in OFF the sender idles first.
    let mut on = true;
    for _ in 0..warmup + measured {
        let len = class_lo + rng.random_range(0..class_lo / 2);
        // Occasionally interleave an eager-sized message inside a
        // burst (mixed traffic, no backend resolution involved).
        let len = if on && rng.random_range(0..4u32) == 0 {
            rng.random_range(1..33u64) << 10
        } else {
            len
        };
        let gap_ps = if on {
            0
        } else {
            rng.random_range(10_000_000..80_000_000u64) // 10–80 µs idle
        };
        msgs.push(Msg { len, gap_ps });
        on = if on {
            rng.random_range(0..10u32) >= 3 // leave the burst with p = 0.3
        } else {
            rng.random_range(0..10u32) < 6
        };
    }
    Scenario {
        name: format!("seed{seed}-{machine_name}-{placement:?}-{class_lo}B"),
        mcfg,
        cores,
        msgs,
        measure_from: warmup,
        candidates: vec![
            LmtSelect::ShmCopy,
            LmtSelect::Vmsplice,
            LmtSelect::Knem(KnemSelect::Auto),
            LmtSelect::Cma,
        ],
    }
}

fn pattern(msg: usize, i: usize) -> u8 {
    (i as u8)
        .wrapping_mul(31)
        .wrapping_add(msg as u8)
        .wrapping_add(7)
}

/// Drive one scenario under `cfg`; every payload is verified
/// byte-for-byte on the receiver, and the virtual time of the measured
/// phase (as seen by the receiver) is returned.
fn run_scenario(sc: &Scenario, cfg: NemesisConfig) -> u64 {
    let machine = Arc::new(Machine::new((sc.mcfg)()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let elapsed = Mutex::new(0u64);
    let max_len = sc.msgs.iter().map(|m| m.len).max().unwrap();
    run_simulation(machine, &[sc.cores.0, sc.cores.1], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, max_len);
        let mut t0 = 0u64;
        for (i, m) in sc.msgs.iter().enumerate() {
            if me == 0 {
                if m.gap_ps > 0 {
                    comm.proc().compute(m.gap_ps);
                }
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (j, b) in d[..m.len as usize].iter_mut().enumerate() {
                        *b = pattern(i, j);
                    }
                });
                os.touch_write(comm.proc(), buf, 0, m.len);
                comm.send(1, i as i32, buf, 0, m.len);
            } else {
                if i == sc.measure_from {
                    t0 = comm.proc().now();
                }
                comm.recv(Some(0), Some(i as i32), buf, 0, m.len);
                let got = os.read_bytes(comm.proc(), buf, 0, m.len);
                for (j, &b) in got.iter().enumerate() {
                    assert_eq!(
                        b,
                        pattern(i, j),
                        "{}: msg {i} byte {j} corrupt (len {})",
                        sc.name,
                        m.len
                    );
                }
            }
        }
        if me == 1 {
            *lock(&elapsed) = comm.proc().now() - t0;
        }
    });
    assert_eq!(os.knem_live_cookies(), 0, "{}: cookie leak", sc.name);
    assert_eq!(os.knem_pinned_pages(), 0, "{}: pin leak", sc.name);
    assert_eq!(os.cma_live_windows(), 0, "{}: window leak", sc.name);
    let t = *lock(&elapsed);
    t
}

fn fixed_cfg(lmt: LmtSelect) -> NemesisConfig {
    NemesisConfig {
        threshold: ThresholdSelect::Auto,
        backend: BackendSelect::Dynamic,
        ..NemesisConfig::with_lmt(lmt)
    }
}

fn learned_cfg() -> NemesisConfig {
    NemesisConfig {
        threshold: ThresholdSelect::Auto,
        backend: BackendSelect::LearnedBackend,
        ..NemesisConfig::with_lmt(LmtSelect::Dynamic)
    }
}

/// The sweep: for every seeded scenario the learned selector delivers
/// byte-identical payloads while exploring, and its measured (post
/// warmup) virtual time converges to within 1.25× of the best fixed
/// backend for that scenario.
#[test]
fn learned_selector_converges_across_seeded_scenarios() {
    for seed in [1u64, 2, 5, 11] {
        let sc = scenario(seed);
        let mut best_fixed = u64::MAX;
        let mut best_name = LmtSelect::ShmCopy;
        for &lmt in &sc.candidates {
            let t = run_scenario(&sc, fixed_cfg(lmt));
            if t < best_fixed {
                best_fixed = t;
                best_name = lmt;
            }
        }
        let learned = run_scenario(&sc, learned_cfg());
        assert!(
            learned as f64 <= best_fixed as f64 * 1.25,
            "{}: learned {learned} ps vs best fixed {best_name:?} {best_fixed} ps \
             (ratio {:.3} > 1.25)",
            sc.name,
            learned as f64 / best_fixed as f64
        );
    }
}

/// Warm-started universes skip the exploration cost: a snapshot
/// exported after one scenario run makes a *fresh* universe's measured
/// time competitive immediately, even measuring from the first message
/// (the persistence path of `NemesisConfig::tuner_snapshot`).
#[test]
fn snapshot_carries_convergence_across_universes() {
    let sc = scenario(3);
    // Train a universe and export its learned state.
    let machine = Arc::new(Machine::new((sc.mcfg)()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, learned_cfg());
    let max_len = sc.msgs.iter().map(|m| m.len).max().unwrap();
    run_simulation(machine, &[sc.cores.0, sc.cores.1], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, max_len);
        for (i, m) in sc.msgs.iter().enumerate() {
            if me == 0 {
                comm.send(1, i as i32, buf, 0, m.len);
            } else {
                comm.recv(Some(0), Some(i as i32), buf, 0, m.len);
            }
        }
    });
    let snap = nem
        .policy()
        .export_snapshot()
        .expect("learned config exports a snapshot");
    assert!(snap.contains("arm "), "snapshot must carry selector cells");
    // A fresh warm-started universe, measured from message 0, must not
    // pay the sweep again: compare against a cold fresh universe over
    // the same traffic (identical seeds, measured phase = everything).
    let all_measured = Scenario {
        measure_from: 0,
        msgs: sc.msgs.clone(),
        ..sc
    };
    let cold = run_scenario(&all_measured, learned_cfg());
    let warm = run_scenario(
        &all_measured,
        NemesisConfig {
            tuner_snapshot: Some(snap),
            ..learned_cfg()
        },
    );
    assert!(
        warm <= cold,
        "warm-started universe ({warm} ps) must not be slower than a cold one ({cold} ps)"
    );
}
