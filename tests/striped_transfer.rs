//! Striped-transfer property suite: seeded payloads through the
//! multi-rail meta-backend must reassemble byte-identically whatever
//! the rail count, the rail speed imbalance, or mid-transfer
//! backpressure — and a degenerate 1-rail stripe must behave exactly
//! like the plain anchor backend.

#![allow(clippy::field_reassign_with_default)]

use std::sync::{Arc, Mutex};

use nemesis::core::lmt::{TransferClass, TransferSample};
use nemesis::core::{LmtSelect, Nemesis, NemesisConfig, ThresholdSelect};
use nemesis::kernel::Os;
use nemesis::model::sync::lock;
use nemesis::sim::topology::Placement;
use nemesis::sim::{run_simulation, Machine, MachineConfig};
use nemesis::workloads::imb::pingpong_bench;

/// Deterministic xorshift byte stream (seeded property payloads).
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed.max(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

/// One simulated roundtrip of `data` under `cfg`, with an optional
/// receiver-side stall (virtual picoseconds of compute before the
/// receive posts) and an optional universe warm-up hook run by rank 0
/// before any transfer. Returns (received bytes, makespan).
fn roundtrip(
    cfg: NemesisConfig,
    data: &[u8],
    recv_stall: u64,
    warm: impl Fn(&Nemesis) + Send + Sync,
) -> (Vec<u8>, u64) {
    roundtrip_on(MachineConfig::xeon_e5345(), cfg, data, recv_stall, warm)
}

/// [`roundtrip`] on an explicit machine (the second-DMA-channel matrix
/// runs on nehalem_x5550, the only preset with two I/OAT engines).
fn roundtrip_on(
    mcfg: MachineConfig,
    cfg: NemesisConfig,
    data: &[u8],
    recv_stall: u64,
    warm: impl Fn(&Nemesis) + Send + Sync,
) -> (Vec<u8>, u64) {
    let len = data.len() as u64;
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let out = Mutex::new(Vec::new());
    let report = run_simulation(machine, &[0, 4], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        if comm.rank() == 0 {
            warm(&nem);
            let buf = os.alloc(0, len.max(1));
            os.with_data_mut(comm.proc(), buf, |d| d.copy_from_slice(data));
            os.touch_write(comm.proc(), buf, 0, len);
            comm.send(1, 7, buf, 0, len);
        } else {
            if recv_stall > 0 {
                comm.proc().compute(recv_stall);
            }
            let buf = os.alloc(1, len.max(1));
            comm.recv(Some(0), Some(7), buf, 0, len);
            *lock(&out) = os.read_bytes(comm.proc(), buf, 0, len);
        }
    });
    // Completion hygiene shared by every stripe composition: nothing
    // pinned, no cookie, no window left behind.
    assert_eq!(os.knem_live_cookies(), 0, "cookie leak");
    assert_eq!(os.knem_pinned_pages(), 0, "pin leak");
    assert_eq!(os.cma_live_windows(), 0, "window leak");
    let bytes = std::mem::take(&mut *lock(&out));
    (bytes, report.makespan)
}

fn striped(rails: u8) -> NemesisConfig {
    NemesisConfig::with_lmt(LmtSelect::Striped { rails })
}

/// Seeded reassembly identity: every rail count, several awkward
/// lengths (page-misaligned, prime-ish, rail-count-indivisible).
#[test]
fn stripe_reassembly_is_byte_identical_across_rail_counts() {
    for rails in 1..=4u8 {
        for (seed, len) in [
            (11u64, (64 << 10) + 1usize), // barely rendezvous
            (23, 300 << 10),
            (37, (1 << 20) + 4093), // page-misaligned 1 MiB
        ] {
            let data = pattern(seed * rails as u64, len);
            let (got, _) = roundtrip(striped(rails), &data, 0, |_| {});
            assert_eq!(
                got, data,
                "rails={rails} seed={seed} len={len}: payload differs"
            );
        }
    }
}

/// The same seeded matrix on the two-DMA-channel machine: striped-3
/// there composes CMA + KNEM ch0 + KNEM ch1 (the second I/OAT engine is
/// its own rail kind), and reassembly must stay byte-identical with
/// rails landing on distinct engines. Also pins the perf motivation:
/// on hardware with a second channel, the third rail must *help* — the
/// pre-channel composition lost ~35% going 2→3 rails because both KNEM
/// rails multiplexed one engine.
#[test]
fn stripe_reassembly_with_second_dma_channel() {
    let mut makespans = [0u64; 4];
    for rails in 1..=4u8 {
        for (seed, len) in [
            (11u64, (64 << 10) + 1usize),
            (37, (1 << 20) + 4093), // page-misaligned 1 MiB
        ] {
            let data = pattern(seed * rails as u64, len);
            let (got, t) = roundtrip_on(
                MachineConfig::nehalem_x5550(),
                striped(rails),
                &data,
                0,
                |_| {},
            );
            assert_eq!(
                got, data,
                "nehalem rails={rails} seed={seed} len={len}: payload differs"
            );
            if len > 1 << 20 {
                makespans[rails as usize - 1] = t;
            }
        }
    }
    assert!(
        makespans[2] < makespans[1],
        "striped-3 on two DMA channels must beat striped-2 \
         (3 rails {} ps vs 2 rails {} ps)",
        makespans[2],
        makespans[1]
    );
}

/// The learned rail trim: on the x5550 the 4-rail stripe composes
/// CMA + both I/OAT channels + vmsplice, and the 4th rail is a CPU
/// copy serializing with the anchor — historically collapsing
/// striped-4 to ~0.4× striped-3. Once the per-kind EWMAs converge
/// (warmup roundtrips under the learned threshold), `split_spans`
/// must zero-weight the vmsplice rail, so striped-4 performs at least
/// as well as striped-3. The same converged sweep holds the
/// second-channel bar: striped-3 (CMA + both I/OAT channels) ≥ 1.1×
/// striped-2 (measured 1.323).
#[test]
fn learned_trim_uncollapses_striped_4_on_x5550() {
    let bw = |rails: u8| {
        let cfg = NemesisConfig {
            threshold: ThresholdSelect::Learned,
            ..striped(rails)
        };
        pingpong_bench(
            MachineConfig::nehalem_x5550(),
            cfg,
            Placement::DifferentSocket,
            1 << 20,
            8,
            6,
        )
        .throughput_mib_s
    };
    let two = bw(2);
    let three = bw(3);
    let four = bw(4);
    assert!(
        three >= two * 1.1,
        "striped-3 must beat striped-2 on two DMA channels \
         (3 rails {three:.1} MiB/s vs 2 rails {two:.1} MiB/s)"
    );
    assert!(
        four >= three * 0.99,
        "striped-4 must not trail striped-3 once the trim engages \
         (4 rails {four:.1} MiB/s vs 3 rails {three:.1} MiB/s)"
    );
}

/// The degenerate 1-rail stripe is the plain anchor backend: identical
/// bytes and identical virtual-time cost (the stripe adds no work —
/// same window, same read loop, same DONE handshake).
#[test]
fn degenerate_single_rail_stripe_equals_plain_cma() {
    let data = pattern(99, 600 << 10);
    let (plain_bytes, plain_t) =
        roundtrip(NemesisConfig::with_lmt(LmtSelect::Cma), &data, 0, |_| {});
    let (striped_bytes, striped_t) = roundtrip(striped(1), &data, 0, |_| {});
    assert_eq!(plain_bytes, data);
    assert_eq!(striped_bytes, data);
    // Same mechanism, same schedule: the makespans must agree to well
    // under a percent (the only difference is the RTS wire payload).
    let delta = striped_t.abs_diff(plain_t) as f64 / plain_t as f64;
    assert!(
        delta < 0.01,
        "1-rail stripe must cost what plain CMA costs: {striped_t} vs {plain_t}"
    );
}

/// Unequal rail speeds: pre-feed the pair's tuner with synthetic
/// samples so the learned bandwidth EWMAs are wildly asymmetric in
/// both directions; the weighted split must still reassemble exactly.
#[test]
fn unequal_rail_speeds_still_reassemble_byte_identically() {
    for (copy_ps_per_b, offload_ps_per_b) in [(1u64, 20u64), (20, 1)] {
        let mut cfg = striped(2);
        cfg.threshold = ThresholdSelect::Learned;
        let data = pattern(7 * copy_ps_per_b + offload_ps_per_b, 1 << 20);
        // Pre-feed the pair's tuner with synthetic samples so the rail
        // split is weighted by wildly asymmetric bandwidth EWMAs.
        let (got, _) = roundtrip(cfg, &data, 0, move |nem| {
            let tuner = nem.policy().tuner().expect("learned config has a tuner");
            for _ in 0..8 {
                for class in [TransferClass::Copy, TransferClass::Offload] {
                    let ps_per_b = match class {
                        TransferClass::Copy => copy_ps_per_b,
                        TransferClass::Offload => offload_ps_per_b,
                    };
                    tuner.record(
                        0,
                        1,
                        &TransferSample {
                            rail: None,
                            backend: "seed",
                            class,
                            placement: Placement::DifferentSocket,
                            bytes: 1 << 20,
                            elapsed_ps: ps_per_b * (1 << 20),
                            concurrency: 1,
                        },
                    );
                }
            }
            let (c, o) = nem.policy().pair_bandwidths(0, 1);
            assert!(c > 0.0 && o > 0.0, "warm-up must publish both EWMAs");
        });
        assert_eq!(
            got, data,
            "copy {copy_ps_per_b} ps/B vs offload {offload_ps_per_b} ps/B: payload differs"
        );
    }
}

/// Mid-transfer backpressure: a stalled receiver leaves the vmsplice
/// rail's 16-page pipe and the ring rail's 2 slots full while the
/// sender keeps pushing; everything must drain without deadlock once
/// the receiver wakes, at every rail count that carries streaming
/// rails.
#[test]
fn rail_stall_and_backpressure_mid_transfer() {
    for rails in [3u8, 4] {
        let data = pattern(rails as u64 + 1, 1 << 20);
        let (got, _) = roundtrip(striped(rails), &data, 2_000_000_000, |_| {});
        assert_eq!(got, data, "rails={rails}: stalled-receiver payload differs");
    }
}

/// Back-to-back striped transfers on one pair stay FIFO and intact
/// (per-rail resources — ring ownership, pipe busy-parties — must hand
/// over cleanly between consecutive stripes).
#[test]
fn back_to_back_striped_transfers_stay_fifo() {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, striped(4));
    run_simulation(machine, &[0, 4], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let len = 200 << 10;
        let buf = os.alloc(comm.rank(), len);
        for round in 0..5u8 {
            if comm.rank() == 0 {
                os.with_data_mut(comm.proc(), buf, |d| d.fill(round + 1));
                comm.send(1, round as i32, buf, 0, len);
            } else {
                comm.recv(Some(0), Some(round as i32), buf, 0, len);
                os.with_data(comm.proc(), buf, |d| {
                    assert!(d.iter().all(|&b| b == round + 1), "round {round} corrupt")
                });
            }
        }
    });
    assert_eq!(os.cma_live_windows(), 0);
    assert_eq!(os.knem_live_cookies(), 0);
}

/// Striped transfers interleaved with posted-early receives and
/// concurrent sends in both directions (the sendrecv pattern the
/// collectives build on).
#[test]
fn bidirectional_striped_sendrecv() {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, striped(2));
    run_simulation(machine, &[0, 4], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let len = 256 << 10;
        let me = comm.rank();
        let sbuf = os.alloc(me, len);
        let rbuf = os.alloc(me, len);
        os.with_data_mut(comm.proc(), sbuf, |d| d.fill(me as u8 + 1));
        comm.sendrecv(1 - me, 5, sbuf, 0, len, Some(1 - me), Some(5), rbuf, 0, len);
        os.with_data(comm.proc(), rbuf, |d| {
            assert!(d.iter().all(|&b| b == 2 - me as u8), "rank {me} corrupt")
        });
    });
    assert_eq!(os.cma_live_windows(), 0);
}
