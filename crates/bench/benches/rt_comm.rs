//! Criterion benches for the real-thread message-passing runtime
//! ([`nemesis_rt::comm`]): pingpong latency/throughput per LMT strategy,
//! a windowed eager stream over the per-pair byte ring, and a small
//! alltoall — the host-machine counterpart of the simulated Figures
//! 4/5/7.
//!
//! Sizes are kept modest: this harness must also behave on single-core
//! CI boxes where every handoff is an OS reschedule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nemesis_rt::coll::alltoall;
use nemesis_rt::comm::{run_rt, RtLmt};

fn pingpong(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt_pingpong");
    g.sample_size(10);
    for &size in &[4 << 10, 256 << 10] {
        g.throughput(Throughput::Bytes(2 * size as u64));
        for lmt in [RtLmt::DoubleBuffer, RtLmt::Direct, RtLmt::Offload] {
            g.bench_with_input(
                BenchmarkId::new(format!("{lmt:?}"), size),
                &size,
                |b, &size| {
                    b.iter(|| {
                        run_rt(2, lmt, |comm| {
                            let data = vec![1u8; size];
                            let mut buf = vec![0u8; size];
                            if comm.rank() == 0 {
                                comm.send(1, 0, &data);
                                comm.recv(Some(1), Some(0), &mut buf);
                            } else {
                                comm.recv(Some(0), Some(0), &mut buf);
                                comm.send(0, 0, &data);
                            }
                        });
                    });
                },
            );
        }
    }
    g.finish();
}

/// `rt_stream_4KiB`'s shape between two rank-threads: windows of eager
/// sends, each answered by one 16 B ack — 64 × 4 KiB and 16 × 16 KiB,
/// both one default byte ring's worth. One iteration is `WINDOWS`
/// windows, thread start-up included.
fn stream(c: &mut Criterion) {
    const WINDOWS: usize = 200;
    let mut g = c.benchmark_group("rt_stream");
    g.sample_size(10);
    for (size, window) in [(4usize << 10, 64usize), (16 << 10, 16)] {
        g.throughput(Throughput::Bytes((WINDOWS * window * size) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                run_rt(2, RtLmt::Direct, |comm| {
                    let data = vec![comm.rank() as u8 + 1; size];
                    let mut buf = vec![0u8; size];
                    for _ in 0..WINDOWS {
                        if comm.rank() == 0 {
                            for _ in 0..window {
                                comm.send(1, 0, &data);
                            }
                            comm.recv(Some(1), Some(1), &mut buf[..16]);
                        } else {
                            for _ in 0..window {
                                assert_eq!(comm.recv(Some(0), Some(0), &mut buf), size);
                            }
                            comm.send(0, 1, &data[..16]);
                        }
                    }
                });
            });
        });
    }
    g.finish();
}

fn alltoall_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt_alltoall");
    g.sample_size(10);
    let n = 4;
    for &size in &[16usize << 10] {
        g.throughput(Throughput::Bytes((n * (n - 1) * size) as u64));
        for lmt in [RtLmt::DoubleBuffer, RtLmt::Direct] {
            g.bench_with_input(
                BenchmarkId::new(format!("{lmt:?}"), size),
                &size,
                |b, &size| {
                    b.iter(|| {
                        run_rt(n, lmt, |comm| {
                            let nn = comm.size();
                            let send = vec![comm.rank() as u8; nn * size];
                            let mut recv = vec![0u8; nn * size];
                            alltoall(comm, &send, &mut recv, size);
                        });
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, pingpong, stream, alltoall_bench);
criterion_main!(benches);
