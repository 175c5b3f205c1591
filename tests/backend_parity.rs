//! Backend-parity suite: the same logical payload — once contiguous,
//! once as a strided `VectorLayout` — travels through **every**
//! `LmtBackend` of the simulated stack and every `RtLmtBackend` of the
//! real-thread stack, and must arrive byte-identical with identical
//! completion semantics everywhere. This is the contract that makes the
//! backends interchangeable (the whole point of the pluggable layer):
//! a new copy engine that passes this suite can be selected by any
//! policy without protocol changes.

use std::sync::{Arc, Mutex};

use nemesis::core::lmt::{ALL_SELECTS, ALL_STRIPED};
use nemesis::core::{
    BackendSelect, ChunkScheduleSelect, LmtSelect, Nemesis, NemesisConfig, ThresholdSelect,
    VectorLayout,
};
use nemesis::kernel::Os;
use nemesis::model::sync::lock;
use nemesis::rt::{
    run_rt, run_rt_cfg, RtChunkScheduleSelect, RtConfig, ALL_RT_LMTS, ALL_RT_STRIPED,
};
use nemesis::sim::{run_simulation, Machine, MachineConfig};

/// Rendezvous-sized payload (past the 64 KiB eager threshold).
const LEN: u64 = 300 << 10;

fn pattern(i: usize) -> u8 {
    (i as u8).wrapping_mul(37).wrapping_add(11)
}

/// Strided layout carrying exactly `LEN` bytes.
fn strided() -> VectorLayout {
    // 75 blocks of 4 KiB, 12 KiB apart.
    VectorLayout::strided(64, 4 << 10, 12 << 10, 75)
}

/// Run one simulated roundtrip under `lmt`; returns the bytes rank 1
/// received (contiguous recv, then strided recv), so the caller can
/// compare across backends.
fn sim_roundtrip(lmt: LmtSelect) -> (Vec<u8>, Vec<u8>) {
    sim_roundtrip_cfg(NemesisConfig::with_lmt(lmt))
}

/// The fully-configurable variant (learned-policy parity reuses the
/// same machinery under a different decision layer).
fn sim_roundtrip_cfg(cfg: NemesisConfig) -> (Vec<u8>, Vec<u8>) {
    let lmt = cfg.lmt;
    let layout = strided();
    assert_eq!(layout.total(), LEN, "layout must carry the same payload");
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let contiguous_out = Mutex::new(Vec::new());
    let strided_out = Mutex::new(Vec::new());
    run_simulation(machine, &[0, 4], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        if me == 0 {
            // Contiguous source.
            let cbuf = os.alloc(0, LEN);
            os.with_data_mut(comm.proc(), cbuf, |d| {
                for (i, b) in d.iter_mut().enumerate() {
                    *b = pattern(i);
                }
            });
            os.touch_write(comm.proc(), cbuf, 0, LEN);
            // Strided source carrying the identical byte sequence.
            let sbuf = os.alloc(0, layout.end());
            os.with_data_mut(comm.proc(), sbuf, |d| {
                let mut k = 0usize;
                for (off, blen) in layout.blocks() {
                    for j in 0..blen as usize {
                        d[off as usize + j] = pattern(k);
                        k += 1;
                    }
                }
            });
            os.touch_write(comm.proc(), sbuf, 0, layout.end());
            let r1 = comm.isend(1, 1, cbuf, 0, LEN);
            comm.wait(r1);
            // Completion semantics: a waited request stays complete.
            assert!(comm.test(r1), "{lmt:?}: waited send must report done");
            comm.sendv(1, 2, sbuf, &layout);
        } else {
            let cbuf = os.alloc(1, LEN);
            let r1 = comm.irecv(Some(0), Some(1), cbuf, 0, LEN);
            comm.wait(r1);
            assert!(comm.test(r1), "{lmt:?}: waited recv must report done");
            *lock(&contiguous_out) = os.read_bytes(comm.proc(), cbuf, 0, LEN);
            // Receive the strided message into a *differently* strided
            // destination, then linearize for comparison.
            let rlayout = VectorLayout::strided(128, 4 << 10, 20 << 10, 75);
            let rbuf = os.alloc(1, rlayout.end());
            comm.recvv(Some(0), Some(2), rbuf, &rlayout);
            let raw = os.read_bytes(comm.proc(), rbuf, 0, rlayout.end());
            let mut lin = Vec::with_capacity(LEN as usize);
            for (off, blen) in rlayout.blocks() {
                lin.extend_from_slice(&raw[off as usize..(off + blen) as usize]);
            }
            *lock(&strided_out) = lin;
        }
    });
    // Completion semantics shared by every backend: no leaked KNEM
    // resources once both transfers completed.
    assert_eq!(os.knem_live_cookies(), 0, "{lmt:?}: cookie leak");
    assert_eq!(os.knem_pinned_pages(), 0, "{lmt:?}: pin leak");
    let out = (
        std::mem::take(&mut *lock(&contiguous_out)),
        std::mem::take(&mut *lock(&strided_out)),
    );
    out
}

/// The full cross-backend matrix on the simulated stack: every backend
/// (incl. CMA and striped over 2/3/4 rails) × {zero-length,
/// exactly-`eager_max`, `eager_max`+1, mid-size contiguous, strided}
/// payloads × {static, learned} policies. One simulation per (backend,
/// policy) cell carries every payload shape, so the matrix also
/// exercises consecutive mixed-size traffic on one pair.
#[test]
fn sim_full_backend_matrix() {
    let eager_max = NemesisConfig::default().eager_max;
    let mid = 160u64 << 10;
    // 40 blocks of 4 KiB, 12 KiB apart = the strided mid-size payload.
    let layout = VectorLayout::strided(64, 4 << 10, 12 << 10, 40);
    assert_eq!(layout.total(), mid);
    for learned in [false, true] {
        for lmt in ALL_SELECTS.into_iter().chain(ALL_STRIPED) {
            let mut cfg = NemesisConfig::with_lmt(lmt);
            if learned {
                cfg.threshold = ThresholdSelect::Learned;
                cfg.chunk_schedule = ChunkScheduleSelect::Learned;
            } else {
                cfg.threshold = ThresholdSelect::Auto;
                cfg.chunk_schedule = ChunkScheduleSelect::Adaptive;
            }
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Arc::new(Os::new(Arc::clone(&machine)));
            let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
            let layout = &layout;
            run_simulation(machine, &[0, 4], |p| {
                let comm = nem.attach(p);
                let os = comm.os();
                let sizes = [0u64, eager_max, eager_max + 1, mid];
                if comm.rank() == 0 {
                    let buf = os.alloc(0, mid.max(eager_max + 1));
                    for (i, &len) in sizes.iter().enumerate() {
                        os.with_data_mut(comm.proc(), buf, |d| {
                            for (j, b) in d[..len as usize].iter_mut().enumerate() {
                                *b = pattern(j ^ i);
                            }
                        });
                        os.touch_write(comm.proc(), buf, 0, len.max(1));
                        comm.send(1, i as i32, buf, 0, len);
                    }
                    // Strided payload, same pattern stream.
                    let sbuf = os.alloc(0, layout.end());
                    os.with_data_mut(comm.proc(), sbuf, |d| {
                        let mut k = 0usize;
                        for (off, blen) in layout.blocks() {
                            for j in 0..blen as usize {
                                d[off as usize + j] = pattern(k);
                                k += 1;
                            }
                        }
                    });
                    comm.sendv(1, 100, sbuf, layout);
                } else {
                    let buf = os.alloc(1, mid.max(eager_max + 1));
                    for (i, &len) in sizes.iter().enumerate() {
                        comm.recv(Some(0), Some(i as i32), buf, 0, len);
                        let got = os.read_bytes(comm.proc(), buf, 0, len.max(1));
                        for (j, &b) in got[..len as usize].iter().enumerate() {
                            assert_eq!(
                                b,
                                pattern(j ^ i),
                                "{lmt:?} learned={learned} len={len}: byte {j}"
                            );
                        }
                    }
                    let rlayout = VectorLayout::strided(128, 4 << 10, 20 << 10, 40);
                    let rbuf = os.alloc(1, rlayout.end());
                    comm.recvv(Some(0), Some(100), rbuf, &rlayout);
                    let raw = os.read_bytes(comm.proc(), rbuf, 0, rlayout.end());
                    let mut k = 0usize;
                    for (off, blen) in rlayout.blocks() {
                        for j in 0..blen as usize {
                            assert_eq!(
                                raw[off as usize + j],
                                pattern(k),
                                "{lmt:?} learned={learned}: strided byte {k} (block at {off}+{j})"
                            );
                            k += 1;
                        }
                    }
                }
            });
            assert_eq!(os.knem_live_cookies(), 0, "{lmt:?} learned={learned}");
            assert_eq!(os.knem_pinned_pages(), 0, "{lmt:?} learned={learned}");
            assert_eq!(os.cma_live_windows(), 0, "{lmt:?} learned={learned}");
        }
    }
}

/// The learned backend selector cell of the matrix: `Dynamic` resolved
/// through the per-(pair, size-class) bandit (`BackendSelect::
/// LearnedBackend`), stacked with the learned threshold and chunk
/// schedule, must meet the same byte-identity contract across enough
/// back-to-back mixed-size transfers that the selector's exploration
/// sweep crosses *every* arm — including the striped meta-backends —
/// mid-stream.
#[test]
fn sim_learned_backend_selector_meets_parity() {
    let eager_max = NemesisConfig::default().eager_max;
    let cfg = NemesisConfig {
        threshold: ThresholdSelect::Learned,
        chunk_schedule: ChunkScheduleSelect::Learned,
        backend: BackendSelect::LearnedBackend,
        ..NemesisConfig::with_lmt(LmtSelect::Dynamic)
    };
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let nem2 = Arc::clone(&nem);
    // 20 rendezvous-sized transfers: the 8-arm sweep (2 probes per arm)
    // plus exploitation, every payload verified; a few eager-sized
    // messages ride along between them.
    let sizes: Vec<u64> = (0..20)
        .map(|i| (100 << 10) + ((i as u64 * 37) << 10) % (400 << 10))
        .chain([1u64, eager_max])
        .collect();
    run_simulation(machine, &[0, 4], move |p| {
        let comm = nem2.attach(p);
        let os = comm.os();
        let max = 1u64 << 20;
        let buf = os.alloc(comm.rank(), max);
        for (i, &len) in sizes.iter().enumerate() {
            if comm.rank() == 0 {
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (j, b) in d[..len as usize].iter_mut().enumerate() {
                        *b = pattern(j ^ i);
                    }
                });
                os.touch_write(comm.proc(), buf, 0, len);
                comm.send(1, i as i32, buf, 0, len);
            } else {
                comm.recv(Some(0), Some(i as i32), buf, 0, len);
                let got = os.read_bytes(comm.proc(), buf, 0, len);
                for (j, &b) in got.iter().enumerate() {
                    assert_eq!(b, pattern(j ^ i), "learned-backend: msg {i} byte {j}");
                }
            }
        }
    });
    assert_eq!(os.knem_live_cookies(), 0, "learned-backend: cookie leak");
    assert_eq!(os.knem_pinned_pages(), 0, "learned-backend: pin leak");
    assert_eq!(os.cma_live_windows(), 0, "learned-backend: window leak");
    // The selector actually explored: the sender recorded arm rewards.
    let tuner = nem
        .policy()
        .tuner()
        .expect("learned backend carries a tuner");
    assert!(tuner.snapshot(0, 1).samples > 0);
}

/// The rt mirror of the matrix: every real-thread backend (incl. CMA,
/// striped over 1–4 rails, and the learned meta-backend) × boundary
/// payload sizes × {fixed, learned} chunk schedules.
#[test]
fn rt_full_backend_matrix() {
    let eager_max = nemesis::rt::comm::EAGER_MAX;
    let sizes = [0usize, 1, 257, eager_max, eager_max + 1, 300 << 10];
    for schedule in [RtChunkScheduleSelect::Fixed, RtChunkScheduleSelect::Learned] {
        for lmt in ALL_RT_LMTS
            .into_iter()
            .chain(ALL_RT_STRIPED)
            .chain([nemesis::rt::RtLmt::Learned])
        {
            let cfg = RtConfig {
                chunk_schedule: schedule,
                ..RtConfig::default()
            };
            run_rt_cfg(2, lmt, cfg, move |comm| {
                if comm.rank() == 0 {
                    for (i, &len) in sizes.iter().enumerate() {
                        let data: Vec<u8> = (0..len).map(|j| pattern(j ^ i)).collect();
                        comm.send(1, i as i32, &data);
                    }
                } else {
                    for (i, &len) in sizes.iter().enumerate() {
                        let mut buf = vec![0xEE; len];
                        assert_eq!(
                            comm.recv(Some(0), Some(i as i32), &mut buf),
                            len,
                            "{lmt:?} {schedule:?} len={len}"
                        );
                        for (j, &b) in buf.iter().enumerate() {
                            assert_eq!(
                                b,
                                pattern(j ^ i),
                                "{lmt:?} {schedule:?} len={len}: byte {j}"
                            );
                        }
                    }
                }
            });
        }
    }
}

/// Every simulated backend delivers byte-identical contiguous and
/// vectored payloads.
#[test]
fn sim_backends_deliver_identical_bytes() {
    let reference: Vec<u8> = (0..LEN as usize).map(pattern).collect();
    for lmt in ALL_SELECTS {
        let (contiguous, strided) = sim_roundtrip(lmt);
        assert_eq!(
            contiguous, reference,
            "{lmt:?}: contiguous payload differs from reference"
        );
        assert_eq!(
            strided, reference,
            "{lmt:?}: vectored payload differs from reference"
        );
    }
}

/// The blended policy (a meta-backend) meets the same contract.
#[test]
fn sim_dynamic_policy_meets_parity() {
    let reference: Vec<u8> = (0..LEN as usize).map(pattern).collect();
    let (contiguous, strided) = sim_roundtrip(LmtSelect::Dynamic);
    assert_eq!(contiguous, reference);
    assert_eq!(strided, reference);
}

/// The learned decision layer changes *which* mechanism and chunk sizes
/// move the bytes, never the bytes: every backend (and the blended
/// meta-backend) meets the parity contract with the learned threshold
/// and learned chunk schedule active, recording samples mid-transfer.
#[test]
fn sim_backends_meet_parity_under_learned_policies() {
    let reference: Vec<u8> = (0..LEN as usize).map(pattern).collect();
    for lmt in [
        LmtSelect::ShmCopy,
        LmtSelect::Vmsplice,
        LmtSelect::Knem(nemesis::core::KnemSelect::Auto),
        LmtSelect::Dynamic,
    ] {
        let cfg = NemesisConfig {
            threshold: ThresholdSelect::Learned,
            chunk_schedule: ChunkScheduleSelect::Learned,
            ..NemesisConfig::with_lmt(lmt)
        };
        let (contiguous, strided) = sim_roundtrip_cfg(cfg);
        assert_eq!(
            contiguous, reference,
            "{lmt:?} under learned policies: contiguous payload differs"
        );
        assert_eq!(
            strided, reference,
            "{lmt:?} under learned policies: vectored payload differs"
        );
    }
}

/// The rt mirror of the learned-schedule parity: the double-buffer
/// ring under the learned chunk schedule (tuner recording every chunk)
/// delivers byte-identical payloads, and the tuner has actually seen
/// the transfers.
#[test]
fn rt_learned_schedule_meets_parity() {
    let len = LEN as usize;
    let reference: Vec<u8> = (0..len).map(pattern).collect();
    for lmt in ALL_RT_LMTS {
        let cfg = RtConfig {
            chunk_schedule: RtChunkScheduleSelect::Learned,
            ..RtConfig::default()
        };
        let reference = &reference;
        run_rt_cfg(2, lmt, cfg, move |comm| {
            if comm.rank() == 0 {
                // Several back-to-back transfers so the learned target
                // republishes mid-stream.
                for round in 0..4 {
                    comm.send(1, round, reference);
                }
            } else {
                let mut got = vec![0u8; len];
                for round in 0..4 {
                    assert_eq!(comm.recv(Some(0), Some(round), &mut got), len);
                    assert_eq!(&got, reference, "{lmt:?}: round {round} differs");
                }
                let tuner = comm.tuner().expect("learned schedule carries a tuner");
                assert_eq!(
                    tuner.pair(0, 1).samples(),
                    4,
                    "{lmt:?}: every completion must be sampled"
                );
            }
        });
    }
}

/// Every real-thread backend delivers byte-identical contiguous and
/// vectored payloads, with send-returns-after-delivery completion.
#[test]
fn rt_backends_deliver_identical_bytes() {
    let len = LEN as usize;
    let reference: Vec<u8> = (0..len).map(pattern).collect();
    // 75 blocks of 4 KiB in a 12 KiB-strided window.
    let blocks: Vec<(usize, usize)> = (0..75).map(|i| (64 + i * (12 << 10), 4 << 10)).collect();
    let span = 64 + 75 * (12 << 10);
    for lmt in ALL_RT_LMTS {
        let reference = &reference;
        let blocks = &blocks;
        run_rt(2, lmt, move |comm| {
            if comm.rank() == 0 {
                // Contiguous payload.
                let mut data = reference.clone();
                comm.send(1, 1, &data);
                // Completion semantics: the payload landed before send
                // returned, so the sender may immediately reuse the
                // buffer without corrupting the receiver.
                data.fill(0xDD);
                // Identical bytes through a strided source.
                let mut sbuf = vec![0u8; span];
                let mut k = 0usize;
                for &(off, blen) in blocks {
                    sbuf[off..off + blen].copy_from_slice(&reference[k..k + blen]);
                    k += blen;
                }
                comm.sendv(1, 2, &sbuf, blocks);
            } else {
                let mut got = vec![0u8; len];
                assert_eq!(comm.recv(Some(0), Some(1), &mut got), len);
                assert_eq!(&got, reference, "{lmt:?}: contiguous payload differs");
                // Receive into a differently-strided destination.
                let rblocks: Vec<(usize, usize)> =
                    (0..75).map(|i| (128 + i * (20 << 10), 4 << 10)).collect();
                let mut rbuf = vec![0u8; 128 + 75 * (20 << 10)];
                comm.recvv(Some(0), Some(2), &mut rbuf, &rblocks);
                let mut lin = Vec::with_capacity(len);
                for &(off, blen) in &rblocks {
                    lin.extend_from_slice(&rbuf[off..off + blen]);
                }
                assert_eq!(&lin, reference, "{lmt:?}: vectored payload differs");
            }
        });
    }
}
