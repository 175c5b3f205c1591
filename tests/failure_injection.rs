//! Failure-injection and stress tests: resource exhaustion, flow control
//! and protocol-abuse scenarios that must either backpressure gracefully
//! or fail loudly (never corrupt data).

#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]

use std::sync::{Arc, Mutex};

use nemesis::core::{BackendSelect, Comm, KnemSelect, LmtSelect, Nemesis, NemesisConfig};
use nemesis::kernel::{Iov, KnemFlags, Os};
use nemesis::model::sync::lock;
use nemesis::sim::{run_simulation, Machine, MachineConfig};

fn n_ranks(n: usize, cfg: NemesisConfig, body: impl Fn(&Comm<'_>) + Send + Sync) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(os, n, cfg);
    let placements: Vec<usize> = (0..n).collect();
    run_simulation(machine, &placements, |p| body(&nem.attach(p)));
}

/// Starve the eager cell pool: with only 2 cells of 1 KiB, a burst of
/// 50 × 4 KiB messages forces repeated pool exhaustion; flow control
/// must still deliver everything intact.
#[test]
fn eager_cell_exhaustion_backpressures() {
    let mut cfg = NemesisConfig::default();
    cfg.cell_payload = 1 << 10;
    cfg.cells_per_proc = 2;
    n_ranks(2, cfg, |comm| {
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, 4 << 10);
        if me == 0 {
            for i in 0..50u8 {
                os.with_data_mut(comm.proc(), buf, |d| d.fill(i));
                comm.send(1, 0, buf, 0, 4 << 10);
            }
        } else {
            for i in 0..50u8 {
                comm.recv(Some(0), Some(0), buf, 0, 4 << 10);
                os.with_data(comm.proc(), buf, |d| {
                    assert!(d.iter().all(|&x| x == i), "burst message {i} corrupt")
                });
            }
        }
    });
}

/// Shrink the receive queue to 4 slots: enqueue backpressure engages.
#[test]
fn tiny_receive_queue_backpressures() {
    let mut cfg = NemesisConfig::default();
    cfg.queue_slots = 4;
    n_ranks(2, cfg, |comm| {
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, 256);
        if me == 0 {
            for i in 0..40 {
                comm.send(1, i, buf, 0, 256);
            }
        } else {
            comm.proc().compute(500_000_000); // let the queue fill
            for i in 0..40 {
                comm.recv(Some(0), Some(i), buf, 0, 256);
            }
        }
    });
}

/// A pipe smaller than the message (the 16-page ring) must chunk a
/// 1 MiB vmsplice transfer without deadlock even when the receiver is
/// delayed.
#[test]
fn vmsplice_pipe_full_with_slow_receiver() {
    n_ranks(2, NemesisConfig::with_lmt(LmtSelect::Vmsplice), |comm| {
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, 1 << 20);
        if me == 0 {
            comm.send(1, 0, buf, 0, 1 << 20);
        } else {
            comm.proc().compute(2_000_000_000);
            comm.recv(Some(0), Some(0), buf, 0, 1 << 20);
        }
    });
}

/// Receiving with an unknown cookie must panic loudly (protocol bug),
/// not corrupt memory.
#[test]
#[should_panic(expected = "unknown cookie")]
fn knem_unknown_cookie_panics() {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    run_simulation(machine, &[0], |p| {
        let dst = os.alloc(0, 64);
        let status = os.knem_alloc_status(0);
        os.knem_recv_cmd(
            p,
            nemesis::kernel::Cookie(999),
            &[Iov::new(dst, 0, 64)],
            KnemFlags::sync_cpu(),
            status,
        );
    });
}

/// Mismatched iovec lengths between sender and receiver are rejected.
#[test]
#[should_panic(expected = "lengths must match")]
fn knem_length_mismatch_rejected() {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let cookie_slot = Mutex::new(None);
    run_simulation(machine, &[0, 1], |p| {
        if p.pid() == 0 {
            let src = os.alloc(0, 128);
            *lock(&cookie_slot) = Some(os.knem_send_cmd(p, &[Iov::new(src, 0, 128)]));
        } else {
            let c = p.poll_until(|| *lock(&cookie_slot));
            let dst = os.alloc(1, 64);
            let status = os.knem_alloc_status(1);
            os.knem_recv_cmd(p, c, &[Iov::new(dst, 0, 64)], KnemFlags::sync_cpu(), status);
        }
    });
}

/// Receive-buffer overflow (message longer than the posted buffer) is a
/// loud protocol error.
#[test]
#[should_panic(expected = "overflows")]
fn message_longer_than_recv_buffer_panics() {
    n_ranks(2, NemesisConfig::default(), |comm| {
        let os = comm.os();
        let me = comm.rank();
        if me == 0 {
            let buf = os.alloc(0, 8192);
            comm.send(1, 0, buf, 0, 8192);
        } else {
            let buf = os.alloc(1, 1024);
            comm.recv(Some(0), Some(0), buf, 0, 1024);
        }
    });
}

/// Many tiny rendezvous transfers through a 1-buffer ring (degenerate
/// double buffering) must still complete and stay FIFO.
#[test]
fn degenerate_single_buffer_ring() {
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::ShmCopy);
    cfg.ring_bufs = 1;
    cfg.eager_max = 4 << 10;
    n_ranks(2, cfg, |comm| {
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, 64 << 10);
        for i in 0..5u8 {
            if me == 0 {
                os.with_data_mut(comm.proc(), buf, |d| d.fill(i));
                comm.send(1, 0, buf, 0, 64 << 10);
            } else {
                comm.recv(Some(0), Some(0), buf, 0, 64 << 10);
                os.with_data(comm.proc(), buf, |d| assert!(d.iter().all(|&x| x == i)));
            }
        }
    });
}

/// A striped child rail erroring mid-stream must fail over cleanly: no
/// hang, no partial delivery visible to the receiver (the receive only
/// completes with every byte intact), the failed rail's range re-read
/// through the surviving anchor rail, and the rail quarantined so the
/// retry (the pair's next transfer) composes without it.
#[test]
fn striped_rail_failure_fails_over_and_quarantines_the_rail() {
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Striped { rails: 2 });
    // The KNEM/I-OAT rail errors on first use.
    cfg.fault_plan = Some(nemesis::core::FaultPlan::knem_rail_failure());
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let nem2 = Arc::clone(&nem);
    run_simulation(machine, &[0, 4], move |p| {
        let comm = nem2.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let len = 1 << 20;
        let buf = os.alloc(me, len);
        // Transfer 1: the DMA rail errors mid-transfer; the anchor rail
        // absorbs its range. Transfer 2 (the retry): composed without
        // the quarantined rail from the start.
        for round in 0..2u8 {
            if me == 0 {
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i as u8).wrapping_add(round);
                    }
                });
                comm.send(1, round as i32, buf, 0, len);
            } else {
                comm.recv(Some(0), Some(round as i32), buf, 0, len);
                os.with_data(comm.proc(), buf, |d| {
                    for (i, &b) in d.iter().enumerate() {
                        assert_eq!(
                            b,
                            (i as u8).wrapping_add(round),
                            "round {round}: byte {i} corrupt after rail failure"
                        );
                    }
                });
            }
        }
    });
    // The failed rail is quarantined for the pair, and the abort leaked
    // nothing (cookie destroyed, window closed, no pages pinned).
    assert_eq!(
        nem.failed_rails(0, 1),
        vec![nemesis::core::RailKind::KnemIoat.code()],
        "the errored rail kind must be quarantined for the pair"
    );
    assert_eq!(os.knem_live_cookies(), 0, "aborted rail leaked its cookie");
    assert_eq!(os.knem_pinned_pages(), 0, "aborted rail leaked a pin");
    assert_eq!(os.cma_live_windows(), 0, "anchor window leaked");
}

/// A rail kind quarantined by the striped fault path is also *demoted
/// by the learned backend selector*: the arm built on that mechanism
/// (here KNEM) is banned from re-pick until the selector's decay
/// window expires, then becomes eligible for re-probing again.
#[test]
fn quarantined_rail_kind_is_demoted_by_the_selector() {
    use nemesis::core::lmt::tuner::selector::{arm_of, DEMOTE_WINDOW, NARMS};
    use nemesis::core::RailKind;
    let knem_arm = LmtSelect::Knem(KnemSelect::Auto);
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Dynamic);
    cfg.backend = BackendSelect::LearnedBackend;
    // The KNEM/I-OAT rail errors on first use.
    cfg.fault_plan = Some(nemesis::core::FaultPlan::knem_rail_failure());
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let nem2 = Arc::clone(&nem);
    // Enough rendezvous sends that the selector's exploration sweep
    // reaches the striped arms: their KNEM rail then faults, the kind
    // is quarantined, and every payload still lands intact.
    run_simulation(machine, &[0, 4], move |p| {
        let comm = nem2.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let len = 1 << 20;
        let buf = os.alloc(me, len);
        for i in 0..20u8 {
            if me == 0 {
                os.with_data_mut(comm.proc(), buf, |d| d.fill(i + 1));
                comm.send(1, i as i32, buf, 0, len);
            } else {
                comm.recv(Some(0), Some(i as i32), buf, 0, len);
                os.with_data(comm.proc(), buf, |d| {
                    assert!(d.iter().all(|&b| b == i + 1), "msg {i} corrupt")
                });
            }
        }
    });
    assert_eq!(
        nem.failed_rails(0, 1),
        vec![RailKind::KnemIoat.code()],
        "the errored rail kind must be quarantined"
    );
    let tuner = nem.policy().tuner().expect("learned backend has a tuner");
    assert!(
        tuner.arm_banned(0, 1, knem_arm),
        "the quarantined kind's arm must be demoted"
    );
    // No re-pick while banned; after the decay window the arm is
    // eligible again (re-probing may then try the mechanism afresh).
    let all = [true; NARMS];
    let mut steps = 0u64;
    while tuner.arm_banned(0, 1, knem_arm) {
        let sel = tuner.select_backend(0, 1, 1 << 20, &all);
        assert_ne!(
            arm_of(sel),
            arm_of(knem_arm),
            "demoted arm re-picked after {steps} decisions (window {DEMOTE_WINDOW})"
        );
        steps += 1;
        assert!(steps <= DEMOTE_WINDOW + 1, "ban never expired");
    }
    assert!(steps > 0, "the ban must cover at least one decision");
    assert!(
        !tuner.arm_banned(0, 1, knem_arm),
        "window expiry re-opens the arm"
    );
    assert_eq!(os.knem_live_cookies(), 0);
    assert_eq!(os.knem_pinned_pages(), 0);
    assert_eq!(os.cma_live_windows(), 0);
}

/// Quarantine expiry end to end: after the demotion window is served,
/// the next selection *re-admits* the rail kind (clears the quarantine,
/// re-arms the one-shot demotion), the re-probed mechanism faults a
/// second time (the plan carries two rail-fail budgets), and the arm is
/// demoted again — a permanently-flaky mechanism is probed once per
/// window, never re-picked forever and never banned forever.
#[test]
fn quarantine_expiry_reprobes_the_mechanism_once_then_redemotes() {
    use nemesis::core::lmt::tuner::selector::{arm_of, DEMOTE_WINDOW, NARMS};
    use nemesis::core::{FaultPlan, RailKind};
    let knem_arm = LmtSelect::Knem(KnemSelect::Auto);
    let striped_arm = arm_of(LmtSelect::Striped { rails: 2 }).unwrap();
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Dynamic);
    cfg.backend = BackendSelect::LearnedBackend;
    // TWO rail-fail budgets: one consumed by the exploration sweep, one
    // held for the re-probe after the ban expires.
    cfg.fault_plan = Some(FaultPlan::parse("rail-fail:rail=knem,times=2").unwrap());
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let nem2 = Arc::clone(&nem);
    run_simulation(machine, &[0, 4], move |p| {
        let comm = nem2.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let len = 1 << 20;
        let buf = os.alloc(me, len);
        let xfer = |tag: i32, fill: u8| {
            if me == 0 {
                os.with_data_mut(comm.proc(), buf, |d| d.fill(fill));
                comm.send(1, tag, buf, 0, len);
            } else {
                comm.recv(Some(0), Some(tag), buf, 0, len);
                os.with_data(comm.proc(), buf, |d| {
                    assert!(d.iter().all(|&b| b == fill), "msg {tag} corrupt")
                });
            }
        };
        // Phase 1: sweep traffic until the first injected fault
        // quarantines the KNEM kind and demotes its arm.
        for i in 0..20u8 {
            xfer(i as i32, i + 1);
        }
        if me == 0 {
            let tuner = nem2.policy().tuner().expect("learned backend has a tuner");
            assert_eq!(nem2.failed_rails(0, 1), vec![RailKind::KnemIoat.code()]);
            assert!(tuner.arm_banned(0, 1, knem_arm), "first fault demotes");
            // Phase 2: serve out the ban with pure selector decisions —
            // the demoted arm must never be re-picked inside the window.
            let all = [true; NARMS];
            let mut steps = 0u64;
            while tuner.arm_banned(0, 1, knem_arm) {
                let sel = tuner.select_backend(0, 1, 1 << 20, &all);
                assert_ne!(arm_of(sel), arm_of(knem_arm), "banned arm re-picked");
                steps += 1;
                assert!(steps <= DEMOTE_WINDOW + 1, "ban never expired");
            }
            // Make the 2-rail stripe the clear incumbent so the very
            // next transfers exercise the re-admitted KNEM rail.
            for _ in 0..20 {
                tuner.observe_arm(0, 1, striped_arm, 1 << 20, 1);
            }
        }
        // Phases 3+4: the first selection past the expired window
        // re-admits the rail kind; the striped incumbent then re-probes
        // the mechanism, which faults again (second budget) on its
        // single re-probe transfer, and the following selection demotes
        // the arm a second time. Every payload still lands intact.
        for round in 0..6u8 {
            xfer(100 + round as i32, round + 31);
        }
    });
    // The re-probed mechanism failed its one chance: quarantined and
    // demoted again (demotion was re-armed at re-admission, so the
    // second demote_once actually applied).
    assert_eq!(
        nem.failed_rails(0, 1),
        vec![nemesis::core::RailKind::KnemIoat.code()],
        "second fault re-quarantines the rail kind"
    );
    let tuner = nem.policy().tuner().expect("learned backend has a tuner");
    assert!(
        tuner.arm_banned(0, 1, LmtSelect::Knem(KnemSelect::Auto)),
        "second fault re-demotes the arm"
    );
    assert_eq!(os.knem_live_cookies(), 0);
    assert_eq!(os.knem_pinned_pages(), 0);
    assert_eq!(os.cma_live_windows(), 0);
}

/// A configured backend that is unavailable for the peer is a *typed*
/// resolution error — inspectable through `Comm::try_select`, never a
/// silent fallback onto a different data path.
#[test]
fn unavailable_backend_resolution_is_a_typed_error() {
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Knem(KnemSelect::SyncCpu));
    cfg.knem_available = false;
    n_ranks(2, cfg, |comm| {
        if comm.rank() != 0 {
            return;
        }
        let err = comm
            .try_select(1, 1 << 20)
            .expect_err("fixed KNEM without the module must not resolve");
        assert_eq!(err.select, LmtSelect::Knem(KnemSelect::SyncCpu));
        assert_eq!(err.peer, 1);
        assert!(err.reason.contains("KNEM module"), "reason: {}", err.reason);
        // Eager-sized messages never resolve a backend, so they are
        // unaffected by the missing module.
        let buf = comm.os().alloc(0, 1024);
        comm.send(1, 0, buf, 0, 1024);
    });
    // CMA and striping surface their own typed reasons.
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Cma);
    cfg.cma_available = false;
    n_ranks(2, cfg, |comm| {
        if comm.rank() == 0 {
            let err = comm
                .try_select(1, 1 << 20)
                .expect_err("no process_vm_readv");
            assert!(err.reason.contains("process_vm_readv"));
        }
    });
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Striped { rails: 3 });
    cfg.cma_available = false;
    n_ranks(2, cfg, |comm| {
        if comm.rank() == 0 {
            let err = comm.try_select(1, 1 << 20).expect_err("no anchor rail");
            assert!(err.reason.contains("anchor"));
        }
    });
    // The blended policy is the one selector allowed to degrade across
    // backends (that is its documented contract): same universe, no
    // error.
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Dynamic);
    cfg.knem_available = false;
    cfg.cma_available = false;
    n_ranks(2, cfg, |comm| {
        if comm.rank() == 0 {
            assert!(comm.try_select(1, 1 << 20).is_ok());
        }
    });
}

/// The send path fails loudly with the typed error — a rendezvous-sized
/// message through an unavailable fixed backend never silently takes a
/// different wire.
#[test]
#[should_panic(expected = "unavailable for peer 1: KNEM module not loaded")]
fn sending_through_unavailable_backend_panics_with_the_typed_error() {
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Knem(KnemSelect::Auto));
    cfg.knem_available = false;
    n_ranks(2, cfg, |comm| {
        if comm.rank() == 0 {
            let buf = comm.os().alloc(0, 1 << 20);
            comm.send(1, 0, buf, 0, 1 << 20);
        }
    });
}

/// DMA-engine backpressure: dozens of concurrent I/OAT transfers from 8
/// ranks share one in-order channel; everything must complete correctly.
#[test]
fn ioat_channel_contention() {
    n_ranks(
        8,
        NemesisConfig::with_lmt(LmtSelect::Knem(KnemSelect::AsyncIoat)),
        |comm| {
            let os = comm.os();
            let me = comm.rank();
            let n = comm.size();
            let sbuf = os.alloc(me, 128 << 10);
            let rbuf = os.alloc(me, (128 << 10) * n as u64);
            os.with_data_mut(comm.proc(), sbuf, |d| d.fill(me as u8 + 1));
            comm.allgather(sbuf, 0, 128 << 10, rbuf, 0);
            os.with_data(comm.proc(), rbuf, |d| {
                for r in 0..n {
                    let lo = r * (128 << 10);
                    assert!(
                        d[lo..lo + (128 << 10)].iter().all(|&x| x == r as u8 + 1),
                        "rank {me}: block {r} corrupt"
                    );
                }
            });
        },
    );
}
