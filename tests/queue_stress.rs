//! Seeded stress suite for the pooled cache-aligned MPSC receive queue
//! — the invariants `tests/backend_parity.rs` assumes when it drives
//! whole transfers over the queue: per-producer FIFO under churn, no
//! loss or duplication across sender drop / receiver re-park, and clean
//! teardown with messages still in flight. Every schedule knob comes
//! from a fixed-seed `StdRng`, so a failure reproduces exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nemesis::model::rng::StdRng;
use nemesis::rt::queue::nem_queue_with_capacity;

/// Pack (producer id, sequence) into the message payload.
fn msg(pid: u64, seq: u64) -> u64 {
    pid << 40 | seq
}

fn unpack(v: u64) -> (usize, u64) {
    ((v >> 40) as usize, v & ((1 << 40) - 1))
}

/// Producer churn: waves of short-lived senders (cloned, used, dropped)
/// while one consumer drains throughout. Every message must arrive
/// exactly once, FIFO per producer, through a deliberately tiny cell
/// slab so recycling is constantly exercised.
#[test]
fn seeded_producer_churn() {
    const SEED: u64 = 0xC0FFEE;
    const WAVES: usize = 20;
    let mut rng = StdRng::seed_from_u64(SEED);
    let plan: Vec<Vec<u64>> = (0..WAVES)
        .map(|_| {
            let nprod = rng.random_range(1..5usize);
            (0..nprod).map(|_| rng.random_range(50..400u64)).collect()
        })
        .collect();
    let total: u64 = plan.iter().flatten().sum();
    let (tx, mut rx) = nem_queue_with_capacity::<u64>(64);
    std::thread::scope(|s| {
        let plan_ref = &plan;
        s.spawn(move || {
            // One global producer id per (wave, slot): ids stay unique
            // even though the sender handles themselves churn.
            let mut next_pid = 0u64;
            for wave in plan_ref {
                std::thread::scope(|w| {
                    for &count in wave {
                        let pid = next_pid;
                        next_pid += 1;
                        let tx = tx.clone();
                        w.spawn(move || {
                            for seq in 0..count {
                                tx.enqueue(msg(pid, seq));
                            }
                            // `tx` clone dropped here: churn.
                        });
                    }
                });
            }
            drop(tx); // the original sender goes too — mid-stream is fine
        });
        let mut got = 0u64;
        let mut last_seq: Vec<Option<u64>> = Vec::new();
        while got < total {
            let n = rx.dequeue_batch(17, |v| {
                let (pid, seq) = unpack(v);
                if pid >= last_seq.len() {
                    last_seq.resize(pid + 1, None);
                }
                if let Some(prev) = last_seq[pid] {
                    assert!(seq > prev, "producer {pid} reordered: {seq} after {prev}");
                }
                last_seq[pid] = Some(seq);
            });
            got += n as u64;
            if n == 0 {
                std::hint::spin_loop();
            }
        }
        assert_eq!(rx.dequeue(), None, "no phantom messages");
        // Every planned producer delivered its full run.
        let mut pid = 0usize;
        for wave in &plan {
            for &count in wave {
                assert_eq!(last_seq[pid], Some(count - 1), "producer {pid} truncated");
                pid += 1;
            }
        }
    });
}

/// Drop the receiver mid-stream: producers keep enqueueing into a queue
/// nobody will ever drain again. Nothing may deadlock (the totals stay
/// under the cell capacity) and every undelivered value must still be
/// released exactly once when the last handle goes away.
#[test]
fn seeded_receiver_drop_mid_stream() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for round in 0..10 {
        let probe = Arc::new(());
        let consumed = rng.random_range(0..30usize);
        {
            let (tx, mut rx) = nem_queue_with_capacity::<Arc<()>>(256);
            let produced = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let tx = tx.clone();
                    let probe = Arc::clone(&probe);
                    let produced = Arc::clone(&produced);
                    s.spawn(move || {
                        // ≤ 256 total across producers: never blocks on
                        // the slab even with the receiver gone.
                        for _ in 0..40 {
                            tx.enqueue(Arc::clone(&probe));
                            produced.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                // Consume a few, then walk away mid-stream.
                let mut got = 0;
                while got < consumed {
                    if rx.dequeue().is_some() {
                        got += 1;
                    }
                }
                drop(rx);
            });
            assert_eq!(produced.load(Ordering::Relaxed), 120);
        }
        assert_eq!(
            Arc::strong_count(&probe),
            1,
            "round {round}: queued values leaked after receiver drop"
        );
    }
}

/// Re-park the receiver: the consumer cursor moves across threads
/// between (seeded) drain phases while four producers stream
/// continuously. FIFO per producer must hold across every re-park.
#[test]
fn seeded_receiver_repark_across_threads() {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 5_000;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let phase_budgets: Vec<u64> = (0..8).map(|_| rng.random_range(500..2000u64)).collect();
    let (tx, rx) = nem_queue_with_capacity::<u64>(128);
    std::thread::scope(|s| {
        for pid in 0..PRODUCERS {
            let tx = tx.clone();
            s.spawn(move || {
                for seq in 0..PER {
                    tx.enqueue(msg(pid, seq));
                }
            });
        }
        drop(tx);
        // Each phase runs on a fresh thread that takes the Receiver by
        // value and hands it back — the re-park.
        let mut rx = Some(rx);
        let mut last = vec![None::<u64>; PRODUCERS as usize];
        let mut remaining = PRODUCERS * PER;
        let mut phase = 0;
        while remaining > 0 {
            let budget = phase_budgets[phase % phase_budgets.len()].min(remaining);
            phase += 1;
            let mut r = rx.take().unwrap();
            let (r_back, seen) = s
                .spawn(move || {
                    let mut seen = Vec::with_capacity(budget as usize);
                    let mut got = 0u64;
                    while got < budget {
                        let n = r.dequeue_batch((budget - got) as usize, |v| seen.push(v));
                        got += n as u64;
                        if n == 0 {
                            std::hint::spin_loop();
                        }
                    }
                    (r, seen)
                })
                .join()
                .expect("phase thread panicked");
            rx = Some(r_back);
            for v in seen {
                let (pid, seq) = unpack(v);
                if let Some(prev) = last[pid] {
                    assert!(seq > prev, "producer {pid} reordered across re-park");
                }
                last[pid] = Some(seq);
            }
            remaining -= budget;
        }
        for (pid, seq) in last.iter().enumerate() {
            assert_eq!(*seq, Some(PER - 1), "producer {pid} truncated");
        }
    });
}

/// Bounded-slab contention: a deliberately tiny queue where producers
/// race `try_enqueue` (counting rejections) against a consumer draining
/// seeded batch sizes. In == out, and the slab ends full again.
#[test]
fn seeded_bounded_contention_try_enqueue() {
    const CAP: usize = 8;
    let (tx, mut rx) = nem_queue_with_capacity::<u64>(CAP);
    let accepted = AtomicU64::new(0);
    let mut drained = 0u64;
    std::thread::scope(|s| {
        let accepted = &accepted;
        for pid in 0..3u64 {
            let tx = tx.clone();
            s.spawn(move || {
                let mut seq = 0u64;
                for _ in 0..20_000 {
                    if tx.try_enqueue(msg(pid, seq)).is_ok() {
                        accepted.fetch_add(1, Ordering::Relaxed);
                        seq += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        drop(tx);
        let mut rng = StdRng::seed_from_u64(42);
        let mut idle = 0;
        loop {
            let n = rx.dequeue_batch(rng.random_range(1..2 * CAP), |_| ());
            drained += n as u64;
            if n == 0 {
                idle += 1;
                // Producers are finite; after they stop and the queue
                // stays empty we are done.
                if idle > 1000 && rx.is_empty() {
                    break;
                }
                std::thread::yield_now();
            } else {
                idle = 0;
            }
        }
    });
    drained += {
        let mut tail = 0u64;
        while rx.dequeue().is_some() {
            tail += 1;
        }
        tail
    };
    assert_eq!(drained, accepted.load(Ordering::Relaxed), "in != out");
}
