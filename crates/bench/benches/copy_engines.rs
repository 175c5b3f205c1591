//! Criterion benches comparing the three real-memory copy strategies
//! (the host-machine analogue of Figures 4/5: two-copy vs single-copy vs
//! offloaded).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nemesis_rt::copy::{direct_copy, DoubleBufferPipe, OffloadEngine};
use nemesis_rt::lmt::{RING_SLOTS, RING_SLOT_BYTES};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn copy_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("copy_engines");
    for size in [64 << 10, 1 << 20, 4 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        let src: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        g.bench_with_input(BenchmarkId::new("direct", size), &size, |b, _| {
            let mut dst = vec![0u8; size];
            b.iter(|| direct_copy(&src, &mut dst));
        });
        // Adaptive chunk schedule (default) vs the seed's fixed full-slot
        // chunks — the before/after comparison for the pipelining change.
        g.bench_with_input(BenchmarkId::new("double_buffer", size), &size, |b, _| {
            let pipe = Arc::new(DoubleBufferPipe::new(RING_SLOT_BYTES, RING_SLOTS));
            let mut dst = vec![0u8; size];
            b.iter(|| {
                std::thread::scope(|s| {
                    let p2 = Arc::clone(&pipe);
                    let src_ref = &src;
                    s.spawn(move || p2.send(src_ref));
                    pipe.recv(&mut dst);
                });
            });
        });
        g.bench_with_input(
            BenchmarkId::new("double_buffer_fixed_chunk", size),
            &size,
            |b, _| {
                let pipe = Arc::new(DoubleBufferPipe::with_start_chunk(
                    RING_SLOT_BYTES,
                    RING_SLOTS,
                    RING_SLOT_BYTES,
                ));
                let mut dst = vec![0u8; size];
                b.iter(|| {
                    std::thread::scope(|s| {
                        let p2 = Arc::clone(&pipe);
                        let src_ref = &src;
                        s.spawn(move || p2.send(src_ref));
                        pipe.recv(&mut dst);
                    });
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("offload", size), &size, |b, _| {
            let eng = OffloadEngine::start();
            let mut dst = vec![0u8; size];
            b.iter(|| eng.submit(&src, &mut dst).wait());
        });
    }
    g.finish();
}

/// The sweep `RING_SLOTS` × `RING_SLOT_BYTES` was chosen from, for
/// another host to re-measure: slots × slot bytes at the two message
/// sizes of the `rt_large_*` workloads, between two long-lived threads.
/// One iteration is one rendezvous as `rt::comm` runs it — announce,
/// send while the receiver drains, wait for the receiver's completion —
/// because that is where depth pays: the sender fills the ring while the
/// receiver is still picking up the announcement.
fn ring_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_depth");
    for size in [256 << 10, 1 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        let src: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        for slot_bytes in [16 << 10, 32 << 10, 64 << 10] {
            for slots in [2, 4, 8, 16] {
                let id = BenchmarkId::new(format!("{}K_x{slots}", slot_bytes >> 10), size);
                let pipe = DoubleBufferPipe::new(slot_bytes, slots);
                // 1 = a transfer is announced, 2 = leave; the receiver
                // answers 0 when the data is out.
                let rts = AtomicUsize::new(0);
                let mut dst = vec![0u8; size];
                std::thread::scope(|s| {
                    s.spawn(|| loop {
                        match rts.load(Ordering::Acquire) {
                            0 => std::hint::spin_loop(),
                            1 => {
                                pipe.recv(&mut dst);
                                rts.store(0, Ordering::Release);
                            }
                            _ => return,
                        }
                    });
                    g.bench_with_input(id, &size, |b, _| {
                        b.iter(|| {
                            rts.store(1, Ordering::Release);
                            pipe.send(&src);
                            while rts.load(Ordering::Acquire) != 0 {
                                std::hint::spin_loop();
                            }
                        });
                    });
                    rts.store(2, Ordering::Release);
                });
                assert_eq!(src, dst);
            }
        }
    }
    g.finish();
}

criterion_group!(benches, copy_strategies, ring_depth);
criterion_main!(benches);
