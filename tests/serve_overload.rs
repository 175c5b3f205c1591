//! Sustained-overload soak for the bounded-admission path: a producer
//! offers faster than the consumer drains, so `try_send` *must* keep
//! reporting `QueueFull` (backpressure surfaces, nothing blocks
//! forever), the admitted stream must stay per-pair FIFO even when the
//! shed policy punches gaps in it, and once everything quiesces every
//! eager byte ring must be released again (no leak under churn).
//!
//! This is the rt-level contract the serving facade
//! (`nemesis::serve`) builds its shed-or-retry admission policy on.

use std::time::Duration;

use nemesis::rt::{run_rt_cfg, RtConfig, RtLmt};

const TOTAL_A: u64 = 3000;
const TOTAL_B: u64 = 2000;
const EAGER_EVERY: u64 = 64;

const TAG_SOAK: i32 = 1;
const TAG_EAGER: i32 = 2;
const TAG_FULLS: i32 = 3;
const TAG_SHEDDY: i32 = 4;
const TAG_BOOKS: i32 = 5;

#[test]
fn sustained_overload_sheds_loudly_keeps_fifo_and_leaks_no_cells() {
    let cfg = RtConfig {
        // A deliberately tiny queue: the drain below cannot keep up, so
        // admission pressure is constant.
        queue_capacity: 8,
        ..RtConfig::default()
    };
    run_rt_cfg(2, RtLmt::Direct, cfg, |comm| {
        let mut buf = [0u8; 4096];
        if comm.rank() == 0 {
            // Phase A: retry-until-admitted. Every message eventually
            // lands (the consumer drains, slowly), so the loop
            // terminating *is* the no-livelock assertion; the full
            // counter must still be driven hard along the way.
            let mut fulls = 0u64;
            for seq in 0..TOTAL_A {
                while comm.try_send(1, TAG_SOAK, &seq.to_le_bytes()).is_err() {
                    fulls += 1;
                    std::thread::yield_now();
                }
                if seq % EAGER_EVERY == 0 {
                    // Interleave eager traffic so the leak check at the
                    // end exercises ring claims and releases under
                    // pressure.
                    let big = vec![(seq % 251) as u8; 1024];
                    comm.send(1, TAG_EAGER, &big);
                }
            }
            comm.send(1, TAG_FULLS, &fulls.to_le_bytes());
            // Phase B: bounded attempts, then shed. The consumer is
            // still busy with phase A, so most of these bounce.
            let (mut admitted, mut shed) = (0u64, 0u64);
            for seq in 0..TOTAL_B {
                let mut ok = false;
                for _ in 0..3 {
                    if comm.try_send(1, TAG_SHEDDY, &seq.to_le_bytes()).is_ok() {
                        ok = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                if ok {
                    admitted += 1;
                } else {
                    shed += 1;
                }
            }
            let mut books = [0u8; 16];
            books[..8].copy_from_slice(&admitted.to_le_bytes());
            books[8..].copy_from_slice(&shed.to_le_bytes());
            comm.send(1, TAG_BOOKS, &books);
        } else {
            // Slow drain: strict FIFO over the soak stream, with
            // periodic stalls so the producer outruns us. The eager
            // packets are drained interleaved, close to where they sit
            // in the stream.
            for i in 0..TOTAL_A {
                comm.recv(Some(0), Some(TAG_SOAK), &mut buf);
                let seq = u64::from_le_bytes(buf[..8].try_into().unwrap());
                assert_eq!(seq, i, "admitted stream must stay per-pair FIFO");
                if i % EAGER_EVERY == 0 {
                    assert_eq!(comm.recv(Some(0), Some(TAG_EAGER), &mut buf), 1024);
                }
                if i % 32 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            comm.recv(Some(0), Some(TAG_FULLS), &mut buf);
            let fulls = u64::from_le_bytes(buf[..8].try_into().unwrap());
            assert!(
                fulls > 0,
                "offered exceeded drain rate but QueueFull never surfaced"
            );
            // Go dark while the producer runs its bounded-attempt phase
            // against the tiny queue: it fills within a handful of
            // admissions and everything after that must shed.
            std::thread::sleep(Duration::from_millis(20));
            // The books arrive after every admitted TAG_SHEDDY packet
            // (same pair, FIFO), so receiving them parks the admitted
            // stream in the unexpected set without losing its order.
            comm.recv(Some(0), Some(TAG_BOOKS), &mut buf);
            let admitted = u64::from_le_bytes(buf[..8].try_into().unwrap());
            let shed = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            assert_eq!(admitted + shed, TOTAL_B, "every request accounted for");
            assert!(shed > 0, "bounded attempts under overload must shed");
            assert!(admitted > 0, "backpressure must not starve admission");
            // Shedding punches gaps, but what *was* admitted arrives in
            // submission order.
            let mut last: i64 = -1;
            for _ in 0..admitted {
                comm.recv(Some(0), Some(TAG_SHEDDY), &mut buf);
                let seq = u64::from_le_bytes(buf[..8].try_into().unwrap()) as i64;
                assert!(seq > last, "gap-tolerant FIFO violated: {seq} after {last}");
                last = seq;
            }
            // Quiesced: every eager byte claimed during the soak must be
            // released again.
            assert_eq!(
                comm.eager_bytes_in_flight(),
                0,
                "eager ring bytes leaked under sustained overload"
            );
        }
    });
}

/// The same contract one layer up: the serving facade's admission
/// policy over a saturated worker must balance its books exactly —
/// completed + shed + abandoned = offered, with shed loud and nonzero.
#[test]
fn serving_facade_overload_books_balance() {
    let mut cfg = nemesis::serve::ServeConfig::with_mmpp(
        1,       // one worker…
        2,       // …two clients
        200,     // steps
        100_000, // 100 µs per step
        0.9,     // mostly ON
        0.05, 4.0, // ~40k rps offered per client at ~10k rps capacity
        42,
    );
    cfg.service_ns = 100_000;
    cfg.queue_capacity = 16;
    cfg.retry_limit = 3;
    cfg.retry_cap_ns = 50_000;
    cfg.drain_timeout_ns = 3_000_000_000;
    let r = nemesis::serve::run_service(&cfg);
    assert!(r.offered > 0);
    assert_eq!(
        r.completed + r.shed + r.abandoned,
        r.offered,
        "serving books must balance"
    );
    assert!(r.shed > 0, "saturation must surface as shed, not silence");
    assert_eq!(r.hist.count(), r.completed);
    // Reported, not bounded: a worker drops a response only when its
    // client's queue stays full for a thousand tries.
    eprintln!("responses dropped by the worker: {}", r.dropped);
}
