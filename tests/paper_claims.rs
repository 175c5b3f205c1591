//! The reproduction contract: every *qualitative* claim of the paper's
//! evaluation, asserted as a test. These use reduced repetition counts,
//! so thresholds are slightly relaxed versus the figures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nemesis::core::{KnemSelect, LmtSelect, Nemesis, NemesisConfig, ThresholdSelect, VectorLayout};
use nemesis::kernel::Os;
use nemesis::sim::topology::Placement;
use nemesis::sim::{mib_per_s, run_simulation, Machine, MachineConfig};
use nemesis::workloads::imb::{alltoall_bench, pingpong_bench};
use nemesis::workloads::nas::{run_nas, NasClass, NasKernel};

/// A config for asserting perf claims: the paper's static form and —
/// unlike the plain default — no environment-injected fault plan.
/// This suite compares virtual times with tight margins; a CI chaos
/// lane (`NEMESIS_FAULT_PLAN`) would perturb exactly the quantities
/// under assertion, so perf claims always measure the fault-free
/// transport. Correctness under faults has its own suites
/// (tests/chaos_sweep.rs, tests/failure_injection.rs). The threshold is
/// pinned to [`ThresholdSelect::Auto`] for the same reason: the
/// `NEMESIS_THRESHOLD=learned` CI leg would otherwise swap in the
/// learned copy, whose effect on Table 2 has a test of its own
/// (`learned_threshold_streams_the_default_copy_and_halves_its_misses`).
fn perf_cfg(lmt: LmtSelect) -> NemesisConfig {
    NemesisConfig {
        threshold: ThresholdSelect::Auto,
        fault_plan: None,
        ..NemesisConfig::with_lmt(lmt)
    }
}

fn pp(lmt: LmtSelect, pl: Placement, size: u64) -> f64 {
    // Pin the rule-based blended resolution: this suite asserts the
    // §3.5 rules themselves (the learned selector has its own
    // convergence suite in tests/scenario_sweep.rs, and at 5 reps it
    // would still be mid-sweep under NEMESIS_BACKEND=learned).
    let cfg = NemesisConfig {
        backend: nemesis::core::BackendSelect::Dynamic,
        ..perf_cfg(lmt)
    };
    pingpong_bench(MachineConfig::xeon_e5345(), cfg, pl, size, 5, 2).throughput_mib_s
}

/// §4.1 / Figure 3: single-copy vmsplice beats the two-copy writev
/// variant — "removing the copy on the send side ... dramatically
/// increases performance, up to a factor of 2". The factor-2 end is the
/// no-shared-cache placement; with a shared cache the second copy is
/// cheap and the gap narrows.
#[test]
fn vmsplice_beats_writev() {
    let v = pp(LmtSelect::Vmsplice, Placement::SharedL2, 512 << 10);
    let w = pp(LmtSelect::PipeWritev, Placement::SharedL2, 512 << 10);
    assert!(v > 1.05 * w, "SharedL2: vmsplice {v} vs writev {w}");
    let v = pp(LmtSelect::Vmsplice, Placement::DifferentSocket, 512 << 10);
    let w = pp(LmtSelect::PipeWritev, Placement::DifferentSocket, 512 << 10);
    assert!(v > 1.5 * w, "DifferentSocket: vmsplice {v} vs writev {w}");
}

/// §4.1: with a shared cache the default two-copy LMT beats vmsplice;
/// without one, vmsplice wins.
#[test]
fn vmsplice_vs_default_depends_on_cache_sharing() {
    let shared_def = pp(LmtSelect::ShmCopy, Placement::SharedL2, 256 << 10);
    let shared_vms = pp(LmtSelect::Vmsplice, Placement::SharedL2, 256 << 10);
    assert!(shared_def > shared_vms, "{shared_def} vs {shared_vms}");
    let split_def = pp(LmtSelect::ShmCopy, Placement::DifferentSocket, 256 << 10);
    let split_vms = pp(LmtSelect::Vmsplice, Placement::DifferentSocket, 256 << 10);
    assert!(split_vms > split_def, "{split_vms} vs {split_def}");
}

/// §4.2 / Figure 5: without a shared cache KNEM is more than three times
/// faster than the default and about twice vmsplice.
#[test]
fn knem_dominates_without_shared_cache() {
    let def = pp(LmtSelect::ShmCopy, Placement::DifferentSocket, 512 << 10);
    let vms = pp(LmtSelect::Vmsplice, Placement::DifferentSocket, 512 << 10);
    let knem = pp(
        LmtSelect::Knem(KnemSelect::SyncCpu),
        Placement::DifferentSocket,
        512 << 10,
    );
    assert!(knem > 3.0 * def, "knem {knem} vs default {def}");
    assert!(knem > 1.5 * vms, "knem {knem} vs vmsplice {vms}");
}

/// §4.2 / Figure 4: with a shared cache KNEM remains almost as fast as
/// the default (within 2x, both far above the no-shared-cache default).
#[test]
fn knem_close_to_default_with_shared_cache() {
    let def = pp(LmtSelect::ShmCopy, Placement::SharedL2, 256 << 10);
    let knem = pp(
        LmtSelect::Knem(KnemSelect::SyncCpu),
        Placement::SharedL2,
        256 << 10,
    );
    assert!(knem > def / 2.0 && knem < def * 2.0, "knem {knem} vs {def}");
}

/// §4.2: "same socket, different dies" behaves like the non-shared-cache
/// case, not like the shared-cache case.
#[test]
fn different_dies_behave_like_different_sockets() {
    let die = pp(
        LmtSelect::ShmCopy,
        Placement::SameSocketDifferentDie,
        256 << 10,
    );
    let sock = pp(LmtSelect::ShmCopy, Placement::DifferentSocket, 256 << 10);
    let shared = pp(LmtSelect::ShmCopy, Placement::SharedL2, 256 << 10);
    assert!(
        (die - sock).abs() < 0.3 * sock,
        "different dies {die} should be near different sockets {sock}"
    );
    assert!(shared > 2.0 * die);
}

/// §3.5 / §4.2: I/OAT loses below the DMAmin threshold and wins above it
/// (shared-cache pair: threshold 1 MiB).
#[test]
fn ioat_crossover_near_dma_min() {
    let below_cpu = pp(
        LmtSelect::Knem(KnemSelect::SyncCpu),
        Placement::SharedL2,
        256 << 10,
    );
    let below_ioat = pp(
        LmtSelect::Knem(KnemSelect::AsyncIoat),
        Placement::SharedL2,
        256 << 10,
    );
    assert!(below_cpu > below_ioat, "{below_cpu} vs {below_ioat}");
    let above_cpu = pp(
        LmtSelect::Knem(KnemSelect::SyncCpu),
        Placement::SharedL2,
        4 << 20,
    );
    let above_ioat = pp(
        LmtSelect::Knem(KnemSelect::AsyncIoat),
        Placement::SharedL2,
        4 << 20,
    );
    assert!(above_ioat > 1.3 * above_cpu, "{above_ioat} vs {above_cpu}");
}

/// §4.3 / Figure 6: the asynchronous kernel-thread copy is slower than
/// the synchronous copy (CPU contention), while async I/OAT is not
/// penalized.
#[test]
fn async_kthread_slower_async_ioat_fine() {
    let sync_cpu = pp(
        LmtSelect::Knem(KnemSelect::SyncCpu),
        Placement::DifferentSocket,
        1 << 20,
    );
    let async_kt = pp(
        LmtSelect::Knem(KnemSelect::AsyncKthread),
        Placement::DifferentSocket,
        1 << 20,
    );
    assert!(async_kt < 0.8 * sync_cpu, "{async_kt} vs {sync_cpu}");
    let sync_ioat = pp(
        LmtSelect::Knem(KnemSelect::SyncIoat),
        Placement::DifferentSocket,
        1 << 20,
    );
    let async_ioat = pp(
        LmtSelect::Knem(KnemSelect::AsyncIoat),
        Placement::DifferentSocket,
        1 << 20,
    );
    assert!(async_ioat > 0.95 * sync_ioat, "{async_ioat} vs {sync_ioat}");
}

/// §4.4 / Figure 7: in an 8-process Alltoall, KNEM dramatically
/// outperforms the default for medium messages, and I/OAT becomes
/// profitable much earlier than the point-to-point 1 MiB threshold.
#[test]
fn alltoall_knem_wins_medium_ioat_early() {
    let m = MachineConfig::xeon_e5345;
    let mut cfg_def = perf_cfg(LmtSelect::ShmCopy);
    cfg_def.eager_max = 64 << 10;
    let mut cfg_knem = perf_cfg(LmtSelect::Knem(KnemSelect::SyncCpu));
    cfg_knem.eager_max = 8 << 10;
    let mut cfg_ioat = perf_cfg(LmtSelect::Knem(KnemSelect::SyncIoat));
    cfg_ioat.eager_max = 8 << 10;

    let def = alltoall_bench(m(), cfg_def, 8, 32 << 10, 3, 1).agg_throughput_mib_s;
    let knem = alltoall_bench(m(), cfg_knem.clone(), 8, 32 << 10, 3, 1).agg_throughput_mib_s;
    assert!(
        knem > 3.0 * def,
        "medium alltoall: knem {knem} vs default {def}"
    );

    // I/OAT already wins at 512 KiB in the collective (vs ~1-2 MiB in
    // PingPong).
    let knem_512 = alltoall_bench(m(), cfg_knem, 8, 512 << 10, 2, 1).agg_throughput_mib_s;
    let ioat_512 = alltoall_bench(m(), cfg_ioat, 8, 512 << 10, 2, 1).agg_throughput_mib_s;
    assert!(ioat_512 > knem_512, "{ioat_512} vs {knem_512}");
}

/// §4.5 / Table 1: IS speeds up substantially with KNEM+I/OAT; EP does
/// not care; IS gains more than FT-like compute-heavy kernels.
#[test]
fn nas_is_gains_ep_does_not() {
    let t = |k, lmt| {
        // Class S alltoallv blocks are ~4 KiB per peer; lower the LMT
        // activation as §4.4 recommends for collectives so the class-S
        // proxy exercises the same transfer paths as class B.
        let mut cfg = perf_cfg(lmt);
        cfg.eager_max = 2 << 10;
        let r = run_nas(MachineConfig::xeon_e5345(), cfg, k, NasClass::S);
        assert!(r.verified);
        r.time_ps
    };
    let is_def = t(NasKernel::Is8, LmtSelect::ShmCopy);
    let is_ioat = t(NasKernel::Is8, LmtSelect::Knem(KnemSelect::AsyncIoat));
    assert!(is_ioat < is_def, "IS must speed up: {is_ioat} vs {is_def}");
    let ep_def = t(NasKernel::Ep4, LmtSelect::ShmCopy);
    let ep_ioat = t(NasKernel::Ep4, LmtSelect::Knem(KnemSelect::AsyncIoat));
    let drift = (ep_def as f64 - ep_ioat as f64).abs() / ep_def as f64;
    assert!(drift < 0.02, "EP must be LMT-insensitive: {drift}");
}

/// §4.5 / Table 2: L2 misses order as default > single-copy strategies,
/// with I/OAT lowest for large messages.
#[test]
fn cache_miss_ordering_matches_table2() {
    let misses = |lmt| {
        pingpong_bench(
            MachineConfig::xeon_e5345(),
            perf_cfg(lmt),
            Placement::SameSocketDifferentDie,
            4 << 20,
            4,
            2,
        )
        .l2_misses_per_rep
    };
    let def = misses(LmtSelect::ShmCopy);
    let vms = misses(LmtSelect::Vmsplice);
    let knem = misses(LmtSelect::Knem(KnemSelect::SyncCpu));
    let ioat = misses(LmtSelect::Knem(KnemSelect::AsyncIoat));
    assert!(def > vms, "default {def} vs vmsplice {vms}");
    assert!(def > knem, "default {def} vs knem {knem}");
    assert!(ioat < knem / 2, "ioat {ioat} vs knem {knem}");
}

/// What the learned configuration does to Table 2: at 4 MiB, the size of
/// the E5345's L2 and so the learned tuner's non-temporal-store prior,
/// the default path's ring→user copy switches to streaming stores and
/// its write-allocate misses go. Measured per round trip: default
/// 395 801 → 197 395 misses (×0.50) and 779 → 862 MiB/s, which puts the
/// default path below vmsplice (262 157) and KNEM (262 165), both
/// unchanged. At 2 MiB, below the prior, nothing moves (131 573). So the
/// NT-stores reading holds: Table 2's ordering is a property of the
/// paper's temporal copies, and learning the store flavour inverts its
/// default-vs-single-copy half.
#[test]
fn learned_threshold_streams_the_default_copy_and_halves_its_misses() {
    let misses = |lmt, threshold, size| {
        let cfg = NemesisConfig {
            threshold,
            ..perf_cfg(lmt)
        };
        let pl = Placement::SameSocketDifferentDie;
        pingpong_bench(MachineConfig::xeon_e5345(), cfg, pl, size, 4, 2).l2_misses_per_rep
    };
    let (fixed, learned) = (ThresholdSelect::Auto, ThresholdSelect::Learned);
    let def = misses(LmtSelect::ShmCopy, fixed, 4 << 20);
    let def_nt = misses(LmtSelect::ShmCopy, learned, 4 << 20);
    assert!(
        def_nt as f64 <= 0.55 * def as f64,
        "learned default {def_nt} vs static {def}"
    );
    let vms = misses(LmtSelect::Vmsplice, learned, 4 << 20);
    assert_eq!(vms, misses(LmtSelect::Vmsplice, fixed, 4 << 20));
    assert!(def_nt < vms, "learned default {def_nt} vs vmsplice {vms}");
    assert_eq!(
        misses(LmtSelect::ShmCopy, learned, 2 << 20),
        misses(LmtSelect::ShmCopy, fixed, 2 << 20),
        "below the NT prior the learned copy is the static one"
    );
}

/// §3.5 / §6: "No single method is optimal for all situations, and so a
/// blended approach is essential" — the dynamic LMT must track the best
/// fixed backend at *both* placements (within 5%), which no fixed
/// backend does.
#[test]
fn dynamic_policy_tracks_best_fixed_backend() {
    let size = 512 << 10;
    for pl in [Placement::SharedL2, Placement::DifferentSocket] {
        let fixed_best = [
            LmtSelect::ShmCopy,
            LmtSelect::Vmsplice,
            LmtSelect::Knem(KnemSelect::Auto),
        ]
        .into_iter()
        .map(|lmt| pp(lmt, pl, size))
        .fold(0.0f64, f64::max);
        let dynamic = pp(LmtSelect::Dynamic, pl, size);
        assert!(
            dynamic > 0.95 * fixed_best,
            "{pl:?}: dynamic {dynamic} vs best fixed {fixed_best}"
        );
    }
    // And the fixed backends each lose somewhere: the default collapses
    // cross-socket, KNEM trails the default on a shared cache.
    let def_split = pp(LmtSelect::ShmCopy, Placement::DifferentSocket, size);
    let dyn_split = pp(LmtSelect::Dynamic, Placement::DifferentSocket, size);
    assert!(dyn_split > 2.0 * def_split);
}

/// Half-round-trip throughput (MiB/s) of one cross-socket pingpong of a
/// strided layout, after one warm-up round trip. The eager limit is
/// lowered so the payload always takes the LMT.
fn strided_pp(lmt: LmtSelect, layout: VectorLayout) -> f64 {
    let mcfg = MachineConfig::xeon_e5345();
    let (a, b) = mcfg
        .topology
        .pair_for(Placement::DifferentSocket)
        .expect("dual socket");
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let cfg = NemesisConfig {
        eager_max: 16 << 10,
        ..perf_cfg(lmt)
    };
    let nem = Nemesis::new(os, 2, cfg);
    let rtt = AtomicU64::new(0);
    run_simulation(machine, &[a, b], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let buf = os.alloc_local(p, layout.end());
        os.with_data_mut(p, buf, |d| d.fill(p.pid() as u8 + 1));
        os.touch_write(p, buf, 0, layout.end());
        let round_trip = || {
            if comm.rank() == 0 {
                comm.sendv(1, 0, buf, &layout);
                comm.recvv(Some(1), Some(0), buf, &layout);
            } else {
                comm.recvv(Some(0), Some(0), buf, &layout);
                comm.sendv(0, 0, buf, &layout);
            }
        };
        round_trip();
        comm.barrier();
        let t0 = p.now();
        round_trip();
        comm.barrier();
        if comm.rank() == 0 {
            rtt.store(p.now() - t0, Ordering::Relaxed);
        }
    });
    mib_per_s(layout.total(), rtt.load(Ordering::Relaxed) / 2)
}

/// §5: KNEM's vectorial buffers against pack/unpack, as a function of
/// block granularity (256 KiB payload, no shared cache). The shm ring
/// cannot carry a scatter list, so it packs and unpacks: two extra
/// copies whose cost does not depend on the block size. KNEM hands the
/// kernel both scatter lists and stays single-copy, but pays pinning
/// and mapping per segment. So fine layouts favour pack/unpack and
/// coarse ones favour native scatter — the choice MPI datatype engines
/// make. Measured: 785 vs 151 MiB/s at 64 B blocks; KNEM+I/OAT 3 218 vs
/// 785 at 4 KiB.
#[test]
fn vectorial_buffers_win_coarse_blocks_pack_wins_fine() {
    let layout = |block: u64| VectorLayout::strided(0, block, 2 * block, (256 << 10) / block);
    let pack = strided_pp(LmtSelect::ShmCopy, layout(64));
    let knem = strided_pp(LmtSelect::Knem(KnemSelect::SyncCpu), layout(64));
    assert!(
        pack >= 2.0 * knem,
        "64 B blocks: pack {pack} vs knem {knem}"
    );
    let pack = strided_pp(LmtSelect::ShmCopy, layout(4 << 10));
    let ioat = strided_pp(LmtSelect::Knem(KnemSelect::AsyncIoat), layout(4 << 10));
    assert!(
        ioat >= 2.0 * pack,
        "4 KiB blocks: knem+ioat {ioat} vs pack {pack}"
    );
}

/// §3.5: the DMAmin formula itself (pure arithmetic, both hosts).
#[test]
fn dma_min_formula_values() {
    assert_eq!(MachineConfig::xeon_e5345().dma_min_for_sharers(2), 1 << 20);
    assert_eq!(MachineConfig::xeon_e5345().dma_min_for_sharers(1), 2 << 20);
    assert_eq!(
        MachineConfig::xeon_x5460().dma_min_for_sharers(2),
        (1 << 20) + (1 << 19) // 1.5 MiB: +50% over the 4 MiB host
    );
}
