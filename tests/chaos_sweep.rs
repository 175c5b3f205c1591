//! Chaos-sweep availability harness: seeded fault plans × topologies ×
//! MMPP-like traffic. Every scenario must deliver byte-identical
//! payloads to its fault-free twin (both are checked against the same
//! deterministic pattern), recover without deadlock, and leak nothing
//! (no live cookies, pins, or CMA windows after the run).
//!
//! The plans cover every fault class of the engine: rail aborts, CMA
//! window revocation, dropped/duplicated RTS and DONE control packets,
//! peer stalls, and slow-rail latency inflation — plus the combined
//! acceptance scenario (both rails of a 2-rail stripe hit while the
//! peer stalls).

use std::sync::Arc;

use nemesis::core::{FaultPlan, LmtSelect, Nemesis, NemesisConfig};
use nemesis::kernel::Os;
use nemesis::model::rng::StdRng;
use nemesis::sim::topology::Placement;
use nemesis::sim::{run_simulation, Machine, MachineConfig};

/// One message of the traffic: payload length and the think time the
/// sender inserts before issuing it.
#[derive(Clone, Copy)]
struct Msg {
    len: u64,
    gap_ps: u64,
}

/// Seeded two-state on/off (MMPP-like) traffic: bursts of back-to-back
/// rendezvous messages separated by idle periods, with the occasional
/// eager-sized message inside a burst.
fn mmpp_msgs(seed: u64, count: usize) -> Vec<Msg> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut msgs = Vec::with_capacity(count);
    let mut on = true;
    for _ in 0..count {
        let len = if on && rng.random_range(0..4u32) == 0 {
            rng.random_range(1..33u64) << 10
        } else {
            (128 << 10) + rng.random_range(0..128u64 << 10)
        };
        let gap_ps = if on {
            0
        } else {
            rng.random_range(10_000_000..80_000_000u64) // 10–80 µs idle
        };
        msgs.push(Msg { len, gap_ps });
        on = if on {
            rng.random_range(0..10u32) >= 3
        } else {
            rng.random_range(0..10u32) < 6
        };
    }
    msgs
}

fn pattern(msg: usize, i: usize) -> u8 {
    (i as u8)
        .wrapping_mul(29)
        .wrapping_add(msg as u8)
        .wrapping_add(11)
}

/// Drive one 2-rank scenario; every payload is verified byte-for-byte
/// on the receiver and the run must leak nothing.
fn run_chaos(name: &str, lmt: LmtSelect, plan: Option<&str>, placement: Placement, seed: u64) {
    let mut cfg = NemesisConfig::with_lmt(lmt);
    cfg.fault_plan =
        plan.map(|p| FaultPlan::parse(p).unwrap_or_else(|e| panic!("{name}: bad plan {p:?}: {e}")));
    // A short retry deadline keeps the recovery waits cheap in host
    // time (each virtual poll tick costs real CPU in the harness).
    cfg.retry_deadline_ps = 2_000_000_000; // 2 ms sim
    let mcfg = MachineConfig::xeon_e5345();
    let cores = mcfg
        .topology
        .pair_for(placement)
        .unwrap_or_else(|| panic!("{name}: machine lacks {placement:?}"));
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let msgs = mmpp_msgs(seed, 16);
    let max_len = msgs.iter().map(|m| m.len).max().unwrap();
    run_simulation(machine, &[cores.0, cores.1], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let buf = os.alloc(me, max_len);
        for (i, m) in msgs.iter().enumerate() {
            if me == 0 {
                if m.gap_ps > 0 {
                    comm.proc().compute(m.gap_ps);
                }
                os.with_data_mut(comm.proc(), buf, |d| {
                    for (j, b) in d[..m.len as usize].iter_mut().enumerate() {
                        *b = pattern(i, j);
                    }
                });
                comm.send(1, i as i32, buf, 0, m.len);
            } else {
                comm.recv(Some(0), Some(i as i32), buf, 0, m.len);
                let got = os.read_bytes(comm.proc(), buf, 0, m.len);
                for (j, &b) in got.iter().enumerate() {
                    assert_eq!(
                        b,
                        pattern(i, j),
                        "{name}: msg {i} byte {j} corrupt (len {})",
                        m.len
                    );
                }
            }
        }
    });
    assert_eq!(os.knem_live_cookies(), 0, "{name}: cookie leak");
    assert_eq!(os.knem_pinned_pages(), 0, "{name}: pin leak");
    assert_eq!(os.cma_live_windows(), 0, "{name}: window leak");
}

/// The sweep: every fault class, on the backend it targets, across two
/// placements; each faulted run is paired with its fault-free twin over
/// identical traffic, so byte-identity between the two is checked
/// against one shared pattern.
#[test]
fn chaos_plans_deliver_byte_identical_payloads() {
    let plans: &[(&str, LmtSelect)] = &[
        (
            "rail-fail:rail=knem,times=1",
            LmtSelect::Striped { rails: 2 },
        ),
        ("window-revoke@200us", LmtSelect::Cma),
        ("drop-rts:count=2", LmtSelect::Cma),
        ("dup-rts:count=2", LmtSelect::Cma),
        ("drop-done:count=2", LmtSelect::Cma),
        ("dup-done:count=2", LmtSelect::Cma),
        ("stall:rank=1,for=800us", LmtSelect::Cma),
        (
            "slow-rail:rail=knem,extra=50us,for=3ms",
            LmtSelect::Striped { rails: 2 },
        ),
    ];
    for placement in [Placement::SharedL2, Placement::DifferentSocket] {
        for (seed, &(plan, lmt)) in plans.iter().enumerate() {
            let seed = seed as u64 + 100;
            let name = format!("{placement:?}/{plan}");
            // Fault-free twin first (same traffic, same seed) …
            run_chaos(&format!("{name}/fault-free"), lmt, None, placement, seed);
            // … then the faulted run must land the identical bytes.
            run_chaos(&name, lmt, Some(plan), placement, seed);
        }
    }
}

/// The acceptance scenario: both rails of a 2-rail stripe are hit (the
/// KNEM rail aborts, the CMA anchor's window is revoked mid-stream), a
/// DONE is dropped on top, and the receiving rank stalls — recovery
/// must complete without deadlock and without a single corrupt byte.
#[test]
fn two_rail_failure_with_peer_stall_recovers_without_deadlock() {
    run_chaos(
        "2-rail+stall",
        LmtSelect::Striped { rails: 2 },
        Some("rail-fail:rail=knem,times=1;window-revoke@100us;drop-done:count=1;stall:rank=1,for=600us"),
        Placement::DifferentSocket,
        42,
    );
}

/// A peer that leaves the protocol for good must produce a diagnosable
/// failure, not a silent hang: every DONE (and every retry of it) is
/// eaten while the receiver exits after its recv completes, so the
/// sender's RTS budget runs dry and it panics naming both ranks — the
/// sim mirror of the rt stack's `rndv_timeout`.
#[test]
fn exhausted_retry_budget_fails_loudly_instead_of_hanging() {
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Cma);
    cfg.fault_plan = Some(FaultPlan::parse("drop-done:count=100").unwrap());
    // Tiny deadline: the budget (6 doubling retries) burns out in a
    // couple of virtual milliseconds instead of seconds.
    cfg.retry_deadline_ps = 100_000_000; // 100 µs sim
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 2, cfg);
    let len = 256u64 << 10;
    let panicked = std::sync::atomic::AtomicBool::new(false);
    run_simulation(machine, &[0, 4], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let buf = os.alloc(comm.rank(), len);
        if comm.rank() == 0 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comm.send(1, 1, buf, 0, len);
            }))
            .expect_err("send must fail once the retry budget is spent");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".into());
            assert!(msg.contains("rank 1 stalled"), "got: {msg}");
            assert!(msg.contains("from rank 0"), "got: {msg}");
            panicked.store(true, std::sync::atomic::Ordering::Relaxed);
        } else {
            // The payload lands fine; only the completion ack is eaten.
            comm.recv(Some(0), Some(1), buf, 0, len);
        }
    });
    assert!(panicked.load(std::sync::atomic::Ordering::Relaxed));
}

/// A collective under chaos: a 3-member subgroup of a 4-rank universe
/// runs allgather rounds over a 2-rail stripe while the KNEM rail
/// aborts and DONE packets are eaten. The faulted run must land the
/// byte-identical result of its fault-free twin (both are collected and
/// compared, and both are checked against the deterministic pattern),
/// and nothing may leak.
#[test]
fn subgroup_allgather_survives_rail_failure_and_dropped_done() {
    use nemesis::core::CommGroup;
    use nemesis::model::sync::lock;
    use std::sync::{Mutex, PoisonError};

    let rounds = 3usize;
    let len = 192u64 << 10; // rendezvous-sized: rides the stripe
    let members = [2usize, 0, 1]; // scrambled: world 2 is group rank 0

    let run =
        |plan: Option<&str>| -> Vec<Vec<u8>> {
            let mut cfg = NemesisConfig::with_lmt(LmtSelect::Striped { rails: 2 });
            cfg.fault_plan = plan.map(|p| FaultPlan::parse(p).expect("plan"));
            cfg.retry_deadline_ps = 2_000_000_000; // 2 ms sim
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Arc::new(Os::new(Arc::clone(&machine)));
            let nem = Nemesis::new(Arc::clone(&os), 4, cfg);
            let results: Arc<Mutex<Vec<Vec<u8>>>> =
                Arc::new(Mutex::new(vec![Vec::new(); members.len()]));
            let collected = Arc::clone(&results);
            run_simulation(machine, &[0, 4, 2, 6], move |p| {
                let comm = nem.attach(p);
                let os = comm.os();
                let me = comm.rank();
                let g = CommGroup::new(&members);
                let gn = g.size();
                let mine = os.alloc(me, len);
                let all = os.alloc(me, len * gn as u64);
                for round in 0..rounds {
                    os.with_data_mut(comm.proc(), mine, |d| {
                        for (j, b) in d[..len as usize].iter_mut().enumerate() {
                            *b = pattern(round, j).wrapping_add(me as u8 * 17);
                        }
                    });
                    comm.allgather_in(&g, mine, 0, len, all, 0);
                    if let Some(gr) = g.group_rank(me) {
                        os.with_data(comm.proc(), all, |d| {
                            for (q, &wr) in g.world_ranks().iter().enumerate() {
                                let lo = q * len as usize;
                                assert!(
                                    d[lo..lo + len as usize].iter().enumerate().all(|(j, &b)| b
                                        == pattern(round, j).wrapping_add(wr as u8 * 17)),
                                    "round {round} rank {me} block {q} corrupt (plan {plan:?})"
                                );
                            }
                            if round == rounds - 1 {
                                lock(&collected)[gr] = d[..gn * len as usize].to_vec();
                            }
                        });
                    }
                }
            });
            assert_eq!(os.knem_live_cookies(), 0, "coll chaos: cookie leak");
            assert_eq!(os.knem_pinned_pages(), 0, "coll chaos: pin leak");
            assert_eq!(os.cma_live_windows(), 0, "coll chaos: window leak");
            Arc::try_unwrap(results)
                .expect("sim done")
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        };

    let clean = run(None);
    let faulted = run(Some("rail-fail:rail=knem,times=1;drop-done:count=2"));
    assert_eq!(
        clean, faulted,
        "faulted subgroup allgather must match its fault-free twin"
    );
    assert!(clean.iter().all(|r| !r.is_empty()));
}

/// Four ranks in a ring under a combined plan: a mid-ring rank stalls
/// while control packets are dropped and duplicated. Every rank must
/// still receive its neighbour's payload intact, every round.
#[test]
fn four_rank_ring_survives_chaos() {
    let mut cfg = NemesisConfig::with_lmt(LmtSelect::Cma);
    cfg.fault_plan =
        Some(FaultPlan::parse("stall:rank=2,for=400us;drop-done:count=2;dup-rts:count=2").unwrap());
    cfg.retry_deadline_ps = 2_000_000_000; // 2 ms sim: keep recovery waits cheap
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(Arc::clone(&os), 4, cfg);
    let len = 192u64 << 10;
    run_simulation(machine, &[0, 4, 2, 6], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let n = comm.size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let sbuf = os.alloc(me, len);
        let rbuf = os.alloc(me, len);
        for round in 0..3u8 {
            os.with_data_mut(comm.proc(), sbuf, |d| {
                d.fill((me as u8 + 1).wrapping_mul(round + 1))
            });
            // Odd/even ordering avoids send-send deadlock with the
            // synchronous rendezvous.
            if me % 2 == 0 {
                comm.send(next, round as i32, sbuf, 0, len);
                comm.recv(Some(prev), Some(round as i32), rbuf, 0, len);
            } else {
                comm.recv(Some(prev), Some(round as i32), rbuf, 0, len);
                comm.send(next, round as i32, sbuf, 0, len);
            }
            os.with_data(comm.proc(), rbuf, |d| {
                let want = (prev as u8 + 1).wrapping_mul(round + 1);
                assert!(
                    d.iter().all(|&b| b == want),
                    "rank {me} round {round}: ring payload corrupt"
                );
            });
        }
    });
    assert_eq!(os.cma_live_windows(), 0, "ring leaked a window");
}
