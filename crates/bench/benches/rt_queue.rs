//! Criterion benches for the real-thread Nemesis queue and cell pool.
//!
//! The queue enqueues into pooled cache-aligned cells (zero heap
//! allocations per message); `enqueue_dequeue_*` measure the
//! single-message path, `batch_drain_64` the batched consumer
//! (`dequeue_batch`: one chained free-stack CAS per recycle batch)
//! against the same 64 messages drained one at a time — the
//! before/after comparison for the batching change. `lane` and
//! `nem_queue_2thr` run the same two shapes — a one-way stream and a
//! ping-pong of 64-byte messages between two threads — over the
//! per-pair SPSC lane `rt::comm` hands off through and over the MPSC
//! queue it used to, for re-measuring that choice on another host.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nemesis_rt::cellpool::CellPool;
use nemesis_rt::lane::{lane, Header, Kind};
use nemesis_rt::queue::nem_queue;

fn queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("nem_queue");
    g.throughput(Throughput::Elements(1));
    g.bench_function("enqueue_dequeue_uncontended", |b| {
        let (tx, mut rx) = nem_queue::<u64>();
        b.iter(|| {
            tx.enqueue(42);
            std::hint::black_box(rx.dequeue().unwrap());
        });
    });
    g.bench_function("enqueue_dequeue_batch_64", |b| {
        let (tx, mut rx) = nem_queue::<u64>();
        b.iter(|| {
            for i in 0..64 {
                tx.enqueue(i);
            }
            for _ in 0..64 {
                std::hint::black_box(rx.dequeue().unwrap());
            }
        });
    });
    g.bench_function("batch_drain_64", |b| {
        let (tx, mut rx) = nem_queue::<u64>();
        b.iter(|| {
            for i in 0..64 {
                tx.enqueue(i);
            }
            let mut sum = 0u64;
            let n = rx.dequeue_batch(64, |v| sum = sum.wrapping_add(v));
            assert_eq!(n, 64);
            std::hint::black_box(sum);
        });
    });
    g.finish();
}

fn queue_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("nem_queue_mpsc4");
    const MSGS: u64 = 40_000;
    g.throughput(Throughput::Elements(MSGS));
    for (name, batch) in [("single_dequeue", 1usize), ("batch_dequeue_32", 32)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let (tx, mut rx) = nem_queue::<u64>();
                std::thread::scope(|s| {
                    for p in 0..4u64 {
                        let tx = tx.clone();
                        s.spawn(move || {
                            for i in 0..MSGS / 4 {
                                tx.enqueue(p << 32 | i);
                            }
                        });
                    }
                    let mut seen = 0u64;
                    while seen < MSGS {
                        let n = rx.dequeue_batch(batch, |v| {
                            std::hint::black_box(v);
                        });
                        seen += n as u64;
                        if n == 0 {
                            std::hint::spin_loop();
                        }
                    }
                });
            });
        });
    }
    g.finish();
}

/// One hand-off direction between two threads: a blocking push of a
/// 64-byte message stamped `i`, and a poll that returns the stamp.
type Push = Box<dyn Fn(u64) + Send>;
type Pop = Box<dyn FnMut() -> Option<u64> + Send>;

fn lane_pair() -> (Push, Pop) {
    let (tx, mut rx) = lane(512, 0);
    let push = move |i: u64| {
        let hdr = Header {
            kind: Kind::Inline,
            tag: 1,
            len: 64,
            word: i as usize,
            seq: 0,
        };
        while !tx.try_push(hdr, &[i as u8; 64]) {
            std::hint::spin_loop();
        }
    };
    let pop = move || rx.take(|h, d| h.word as u64 + u64::from(d[63] != h.word as u8));
    (Box::new(push), Box::new(pop))
}

fn queue_pair() -> (Push, Pop) {
    let (tx, mut rx) = nem_queue::<(u64, [u8; 64])>();
    let push = move |i: u64| tx.enqueue((i, [i as u8; 64]));
    let pop = move || rx.dequeue().map(|(i, d)| i + u64::from(d[63] != i as u8));
    (Box::new(push), Box::new(pop))
}

fn wait(pop: &mut Pop) -> u64 {
    loop {
        if let Some(v) = pop() {
            return v;
        }
        std::hint::spin_loop();
    }
}

fn two_thread_handoff(c: &mut Criterion) {
    const MSGS: u64 = 40_000;
    const ROUNDS: u64 = 10_000;
    type Pair = fn() -> (Push, Pop);
    for (group, pair) in [("lane", lane_pair as Pair), ("nem_queue_2thr", queue_pair)] {
        let mut g = c.benchmark_group(group);
        g.throughput(Throughput::Elements(MSGS));
        g.bench_function("stream", |b| {
            b.iter(|| {
                let (push, mut pop) = pair();
                std::thread::scope(|s| {
                    s.spawn(move || (0..MSGS).for_each(push));
                    for i in 0..MSGS {
                        assert_eq!(wait(&mut pop), i);
                    }
                });
            });
        });
        g.throughput(Throughput::Elements(ROUNDS));
        g.bench_function("pingpong", |b| {
            b.iter(|| {
                let (ping, mut at_echo) = pair();
                let (pong, mut at_main) = pair();
                std::thread::scope(|s| {
                    s.spawn(move || (0..ROUNDS).for_each(|_| pong(wait(&mut at_echo))));
                    for i in 0..ROUNDS {
                        ping(i);
                        assert_eq!(wait(&mut at_main), i);
                    }
                });
            });
        });
        g.finish();
    }
}

fn cell_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("cell_pool");
    g.throughput(Throughput::Elements(1));
    g.bench_function("acquire_release", |b| {
        let pool = CellPool::new(32, 4096);
        b.iter(|| {
            let i = pool.try_acquire().unwrap();
            pool.release(std::hint::black_box(i));
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    queue_ops,
    queue_contended,
    two_thread_handoff,
    cell_pool
);
criterion_main!(benches);
