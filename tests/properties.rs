//! Randomized property tests on core invariants: message integrity
//! under random sizes/offsets/tags for every LMT, alltoallv permutation
//! correctness, cache-model conservation laws, and real-thread queue
//! FIFO. Cases are drawn from a seeded generator, so every run covers
//! the same (reproducible) sample of the input space.

#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]

use std::sync::Arc;

use nemesis::core::{Comm, KnemSelect, LmtSelect, Nemesis, NemesisConfig, VectorLayout};
use nemesis::kernel::Os;
use nemesis::model::rng::StdRng;
use nemesis::rt::queue::nem_queue;
use nemesis::sim::{run_simulation, AccessKind, Machine, MachineConfig, PhysRange};

const CASES: usize = 24;

fn two_ranks(cfg: NemesisConfig, body: impl Fn(&Comm<'_>) + Send + Sync) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(os, 2, cfg);
    run_simulation(machine, &[0, 4], |p| body(&nem.attach(p)));
}

const ALL_LMTS: [LmtSelect; 7] = [
    LmtSelect::ShmCopy,
    LmtSelect::PipeWritev,
    LmtSelect::Vmsplice,
    LmtSelect::Knem(KnemSelect::SyncCpu),
    LmtSelect::Knem(KnemSelect::AsyncKthread),
    LmtSelect::Knem(KnemSelect::AsyncIoat),
    LmtSelect::Knem(KnemSelect::Auto),
];

/// Any message of any size through any LMT arrives byte-exact, even at
/// unaligned offsets.
#[test]
fn any_lmt_any_size_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x00a1_11a7);
    for case in 0..CASES {
        let lmt = ALL_LMTS[rng.random_range(0..ALL_LMTS.len())];
        let len = rng.random_range(1u64..300_000);
        let off = rng.random_range(0u64..128);
        let seed: u8 = rng.random();
        two_ranks(NemesisConfig::with_lmt(lmt), |comm| {
            let os = comm.os();
            let me = comm.rank();
            let buf = os.alloc(me, off + len);
            if me == 0 {
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i as u8).wrapping_mul(17).wrapping_add(seed);
                    }
                });
                comm.send(1, 3, buf, off, len);
            } else {
                comm.recv(Some(0), Some(3), buf, off, len);
                os.with_data(comm.proc(), buf, |d| {
                    for i in 0..len as usize {
                        let expect = ((off as usize + i) as u8)
                            .wrapping_mul(17)
                            .wrapping_add(seed);
                        assert_eq!(d[off as usize + i], expect, "case {case}: byte {i}");
                    }
                });
            }
        });
    }
}

/// Random-size alltoallv delivers every block to the right rank with
/// the right content (a permutation-correctness property).
#[test]
fn alltoallv_random_counts() {
    let mut rng = StdRng::seed_from_u64(0xa270a11);
    for _case in 0..CASES {
        let counts: Vec<u64> = (0..16).map(|_| rng.random_range(0u64..40_000)).collect();
        let lmt = if rng.random() {
            LmtSelect::ShmCopy
        } else {
            LmtSelect::Knem(KnemSelect::Auto)
        };
        // counts[i*4+j] = bytes rank i sends rank j.
        let counts = Arc::new(counts);
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Arc::new(Os::new(Arc::clone(&machine)));
        let nem = Nemesis::new(os, 4, NemesisConfig::with_lmt(lmt));
        let c2 = Arc::clone(&counts);
        run_simulation(machine, &[0, 1, 2, 3], |p| {
            let comm = nem.attach(p);
            let os = comm.os();
            let me = comm.rank();
            let n = comm.size();
            let slens: Vec<u64> = (0..n).map(|j| c2[me * n + j]).collect();
            let rlens: Vec<u64> = (0..n).map(|i| c2[i * n + me]).collect();
            let soffs: Vec<u64> = slens
                .iter()
                .scan(0, |acc, l| {
                    let o = *acc;
                    *acc += l;
                    Some(o)
                })
                .collect();
            let roffs: Vec<u64> = rlens
                .iter()
                .scan(0, |acc, l| {
                    let o = *acc;
                    *acc += l;
                    Some(o)
                })
                .collect();
            let stotal: u64 = slens.iter().sum::<u64>().max(1);
            let rtotal: u64 = rlens.iter().sum::<u64>().max(1);
            let sbuf = os.alloc(me, stotal);
            let rbuf = os.alloc(me, rtotal);
            os.with_data_mut(comm.proc(), sbuf, |d| {
                for j in 0..n {
                    let lo = soffs[j] as usize;
                    let hi = lo + slens[j] as usize;
                    d[lo..hi].fill((me * n + j) as u8 + 1);
                }
            });
            comm.alltoallv(sbuf, &soffs, &slens, rbuf, &roffs, &rlens);
            os.with_data(comm.proc(), rbuf, |d| {
                for i in 0..n {
                    let lo = roffs[i] as usize;
                    let hi = lo + rlens[i] as usize;
                    assert!(
                        d[lo..hi].iter().all(|&x| x == (i * n + me) as u8 + 1),
                        "rank {me}: block from {i} corrupt"
                    );
                }
            });
        });
    }
}

/// Cache-model conservation: hits + misses at L1 equals total accesses,
/// and L2 traffic equals L1 misses.
#[test]
fn cache_counter_conservation() {
    let mut rng = StdRng::seed_from_u64(0xcac4e);
    for _case in 0..CASES {
        let len = rng.random_range(64u64..100_000);
        let reps = rng.random_range(1usize..4);
        let m = Machine::new(MachineConfig::xeon_e5345());
        let base = m.alloc_phys(len);
        for _ in 0..reps {
            m.access(0, 0, PhysRange::new(base, len), AccessKind::Read, 0);
            m.access(0, 0, PhysRange::new(base, len), AccessKind::Write, 0);
        }
        let s = m.snapshot().per_proc[0];
        assert_eq!(s.l1_hits + s.l1_misses, s.accesses());
        assert_eq!(s.l2_hits + s.l2_misses, s.l1_misses);
        m.check_presence_invariant();
    }
}

/// The real-thread MPSC queue is FIFO for any interleaving of enqueues
/// from one producer.
#[test]
fn rt_queue_fifo() {
    let mut rng = StdRng::seed_from_u64(0xf1f0);
    for _case in 0..CASES {
        let values: Vec<u32> = (0..rng.random_range(0usize..200))
            .map(|_| rng.random())
            .collect();
        let (tx, mut rx) = nem_queue();
        for &v in &values {
            tx.enqueue(v);
        }
        let mut out = Vec::new();
        while let Some(v) = rx.dequeue() {
            out.push(v);
        }
        assert_eq!(out, values);
    }
}

/// Fragmented eager streaming: any message size against any tiny cell
/// pool arrives byte-exact (the pool-smaller-than-message regime the
/// flow control must survive).
#[test]
fn fragmented_eager_any_pool() {
    let mut rng = StdRng::seed_from_u64(0xf7a6);
    for _case in 0..CASES {
        let len = rng.random_range(1u64..60_000);
        let cell_payload = [256u64, 1024, 4096][rng.random_range(0..3usize)];
        let cells = rng.random_range(1usize..5);
        let seed: u8 = rng.random();
        let mut cfg = NemesisConfig::default();
        cfg.eager_max = 64 << 10;
        cfg.cell_payload = cell_payload;
        cfg.cells_per_proc = cells;
        two_ranks(cfg, |comm| {
            let os = comm.os();
            let me = comm.rank();
            let buf = os.alloc(me, len);
            if me == 0 {
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i as u8).wrapping_mul(13).wrapping_add(seed);
                    }
                });
                comm.send(1, 0, buf, 0, len);
            } else {
                comm.recv(Some(0), Some(0), buf, 0, len);
                os.with_data(comm.proc(), buf, |d| {
                    for i in 0..len as usize {
                        assert_eq!(d[i], (i as u8).wrapping_mul(13).wrapping_add(seed));
                    }
                });
            }
        });
    }
}

/// Vectored transfers: any strided source layout to any strided
/// destination layout of the same total, through eager and rendezvous,
/// arrives block-exact.
#[test]
fn vectored_any_layout_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x7ec7);
    for _case in 0..CASES {
        let block = rng.random_range(64u64..4096);
        let count = rng.random_range(1u64..24);
        let sgap = rng.random_range(0u64..512);
        let rgap = rng.random_range(0u64..512);
        let lmt = [
            LmtSelect::ShmCopy,
            LmtSelect::Vmsplice,
            LmtSelect::Knem(KnemSelect::SyncCpu),
        ][rng.random_range(0..3usize)];
        let s_layout = VectorLayout::strided(0, block, block + sgap, count);
        let r_layout = VectorLayout::strided(32, block, block + rgap, count);
        two_ranks(NemesisConfig::with_lmt(lmt), |comm| {
            let os = comm.os();
            let me = comm.rank();
            if me == 0 {
                let buf = os.alloc(0, s_layout.end());
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (i, (off, len)) in s_layout.blocks().into_iter().enumerate() {
                        d[off as usize..(off + len) as usize].fill((i % 251) as u8 + 1);
                    }
                });
                comm.sendv(1, 1, buf, &s_layout);
            } else {
                let buf = os.alloc(1, r_layout.end());
                comm.recvv(Some(0), Some(1), buf, &r_layout);
                os.with_data(comm.proc(), buf, |d| {
                    for (i, (off, len)) in r_layout.blocks().into_iter().enumerate() {
                        assert!(
                            d[off as usize..(off + len) as usize]
                                .iter()
                                .all(|&b| b == (i % 251) as u8 + 1),
                            "block {i} corrupt"
                        );
                    }
                });
            }
        });
    }
}

/// Non-proptest sanity: virtual time never decreases across operations.
#[test]
fn virtual_time_monotone() {
    two_ranks(NemesisConfig::default(), |comm| {
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, 64 << 10);
        let mut last = comm.proc().now();
        for i in 0..5 {
            if me == 0 {
                comm.send(1, i, buf, 0, 32 << 10);
            } else {
                comm.recv(Some(0), Some(i), buf, 0, 32 << 10);
            }
            let now = comm.proc().now();
            assert!(now >= last);
            last = now;
        }
    });
}
