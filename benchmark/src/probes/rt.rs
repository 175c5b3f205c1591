//! Probes of `nemesis_rt`: queue, cellpool, comm, copy, lmt/tuner.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nemesis_rt::cellpool::CellPool;
use nemesis_rt::comm::{RtComm, EAGER_MAX};
use nemesis_rt::copy::{direct_copy, simd_copy, DoubleBufferPipe};
use nemesis_rt::lmt::LearnedBackend;
use nemesis_rt::queue::nem_queue_cfg;
use nemesis_rt::{backend_for_schedule, run_rt_with_cfg, RtLmt, RtLmtBackend};

use super::{ns_per_iter, Budget, Probed};
use crate::host;
use crate::pattern;
use crate::rt_loop::{rt_config, run_closed_loop, run_closed_loop_over, LoopResult, RtPlan};
use crate::rt_workloads::stream_pool_bytes;
use crate::spec::RT_LMTS;
use crate::stats::Metric;
use crate::trace::self_times;

const MIB: f64 = (1u64 << 20) as f64;
const SPIN: u32 = nemesis_rt::backoff::DEFAULT_SPIN_LIMIT;

pub fn run(b: &Budget, out: &mut Probed) {
    queue(b, out);
    cellpool(b, out);
    comm(b, out);
    copy(b, out);
    lmt(b, out);
}

fn queue(b: &Budget, out: &mut Probed) {
    let m = &mut out.metrics;
    let (tx, mut rx) = nem_queue_cfg::<u64>(512, SPIN);
    let spsc = ns_per_iter(b.micro, 16 * 256, |n| {
        for _ in 0..n / 16 {
            for k in 0..16 {
                tx.enqueue(k);
            }
            for _ in 0..16 {
                black_box(rx.dequeue());
            }
        }
    });
    m.push(Metric::single("rt.queue.spsc_ns_per_msg", "ns", spsc));
    let batch = ns_per_iter(b.micro, 16 * 256, |n| {
        for _ in 0..n / 16 {
            for k in 0..16 {
                tx.enqueue(k);
            }
            rx.dequeue_batch(16, |v| {
                black_box(v);
            });
        }
    });
    m.push(Metric::single("rt.queue.batch16_ns_per_msg", "ns", batch));

    // Cross-thread hand-off: a token bounces between two threads over
    // two queues; one hop is half a round trip.
    let (to_echo, mut at_echo) = nem_queue_cfg::<u64>(512, SPIN);
    let (to_main, mut at_main) = nem_queue_cfg::<u64>(512, SPIN);
    let hop = std::thread::scope(|s| {
        s.spawn(move || loop {
            match at_echo.dequeue() {
                Some(u64::MAX) => return,
                Some(v) => to_main.enqueue(v),
                None => spin_loop(),
            }
        });
        let rtt = ns_per_iter(b.micro, 512, |n| {
            for i in 0..n {
                to_echo.enqueue(i);
                while at_main.dequeue().is_none() {
                    spin_loop();
                }
            }
        });
        to_echo.enqueue(u64::MAX);
        rtt / 2.0
    });
    m.push(Metric::single("rt.queue.xthread_ns_per_msg", "ns", hop));

    // A producer that never waits against a consumer that only drains:
    // how often the bounded queue says no.
    let (tx, mut rx) = nem_queue_cfg::<u64>(512, SPIN);
    let (sent, rejects) = std::thread::scope(|s| {
        s.spawn(move || loop {
            let mut stop = false;
            if rx.dequeue_batch(16, |v| stop |= v == u64::MAX) == 0 {
                spin_loop();
            }
            if stop {
                return;
            }
        });
        let t0 = Instant::now();
        let (mut sent, mut rejects) = (0u64, 0u64);
        while t0.elapsed() < b.micro {
            for _ in 0..1024 {
                while tx.try_enqueue(sent).is_err() {
                    rejects += 1;
                    spin_loop();
                }
                sent += 1;
            }
        }
        tx.enqueue(u64::MAX);
        (sent, rejects)
    });
    m.push(Metric::single(
        "rt.queue.full_rejects_per_kmsg",
        "count",
        rejects as f64 * 1e3 / sent as f64,
    ));
}

fn cellpool(b: &Budget, out: &mut Probed) {
    let m = &mut out.metrics;
    let pool = CellPool::new(16, EAGER_MAX);
    let same = ns_per_iter(b.micro, 4096, |n| {
        for _ in 0..n {
            let c = pool.try_acquire().expect("an idle pool has a free cell");
            pool.release(black_box(c));
        }
    });
    m.push(Metric::single("rt.cellpool.acquire_release_ns", "ns", same));

    // The eager path's shape: one thread acquires, the other releases.
    let (tx, mut rx) = nem_queue_cfg::<usize>(512, SPIN);
    let pool = &pool;
    let cross = std::thread::scope(|s| {
        s.spawn(move || loop {
            match rx.dequeue() {
                Some(usize::MAX) => return,
                Some(c) => pool.release(c),
                None => spin_loop(),
            }
        });
        let ns = ns_per_iter(b.micro, 4096, |n| {
            for _ in 0..n {
                let c = loop {
                    match pool.try_acquire() {
                        Some(c) => break c,
                        None => spin_loop(),
                    }
                };
                tx.enqueue(c);
            }
        });
        tx.enqueue(usize::MAX);
        ns
    });
    m.push(Metric::single(
        "rt.cellpool.xthread_acquire_release_ns",
        "ns",
        cross,
    ));
}

fn pingpong_plan(lmt: RtLmt, bytes: usize, pool_bytes: usize, warmup_ops: u64) -> RtPlan {
    RtPlan {
        lmt,
        bytes,
        window: 1,
        reply_bytes: bytes,
        pool_bytes,
        warmup_ops,
        warmup_s: 0.0,
    }
}

fn fold(out: &mut Probed, r: &LoopResult) {
    out.attempted += r.attempted;
    out.failed += r.failed;
}

/// Mean self time of the spans called `name` on thread `thread`.
fn span_self_ns(r: &LoopResult, thread: &str, name: &str) -> f64 {
    r.tracers
        .iter()
        .find(|t| t.thread() == thread)
        .and_then(|t| self_times(t).get(name).copied())
        .map_or(f64::NAN, |(count, ns)| ns as f64 / count.max(1) as f64)
}

fn comm(b: &Budget, out: &mut Probed) {
    let slices = [(b.macro_s, false), (b.macro_s, true)];

    // 64 B ping-pong: tail of the untraced slice, span self times of
    // the traced one.
    let r = run_closed_loop(
        &pingpong_plan(RtLmt::Direct, 64, 0, 20_000),
        b.seed,
        &slices,
        &|| {},
    );
    fold(out, &r);
    out.metrics.extend([
        Metric::single(
            "rt.comm.send_ns_64B",
            "ns",
            span_self_ns(&r, "rank0", "rt.comm.send"),
        ),
        Metric::single(
            "rt.comm.recv_ns_64B",
            "ns",
            span_self_ns(&r, "rank0", "rt.comm.recv"),
        ),
        Metric::single(
            "rt.comm.pingpong_p99_us_64B",
            "us",
            r.slices[0].quantiles_us[2],
        ),
    ]);

    // 4 KiB eager stream: rank 0 sends them, rank 1 receives them.
    let stream = RtPlan {
        lmt: RtLmt::Direct,
        bytes: 4 << 10,
        window: 64,
        reply_bytes: 16,
        pool_bytes: 0,
        warmup_ops: 500,
        warmup_s: 0.0,
    };
    let r = run_closed_loop(&stream, b.seed, &slices, &|| {});
    fold(out, &r);
    let windows_per_s = r.slices[0].ops as f64 / r.slices[0].elapsed_s;
    out.metrics.extend([
        Metric::single(
            "rt.comm.send_ns_4KiB",
            "ns",
            span_self_ns(&r, "rank0", "rt.comm.send"),
        ),
        // Rank 1's receive spans also hold the wait for the sender; with
        // 64 in flight that wait is the exception.
        Metric::single(
            "rt.comm.recv_ns_4KiB",
            "ns",
            span_self_ns(&r, "rank1", "rt.comm.recv"),
        ),
        Metric::single(
            "rt.comm.msgs_per_s_4KiB",
            "1/s",
            windows_per_s * (stream.window + 1) as f64,
        ),
    ]);

    // The smallest rendezvous: one byte over the eager limit.
    let r = run_closed_loop(
        &pingpong_plan(RtLmt::Direct, EAGER_MAX + 1, 0, 2_000),
        b.seed,
        &slices[..1],
        &|| {},
    );
    fold(out, &r);
    out.metrics.push(Metric::single(
        "rt.comm.rndv_min_rtt_us",
        "us",
        r.slices[0].quantiles_us[0],
    ));

    polling(b, out);
}

/// `try_recv` on an empty queue, `try_recv` missing behind 256 buffered
/// packets of another tag, and `try_send_batch` against a draining peer.
fn polling(b: &Budget, out: &mut Probed) {
    const TAG_A: i32 = 11;
    const TAG_ABSENT: i32 = 12;
    const TAG_FENCE: i32 = 13;
    const DEPTH: usize = 256;
    let cfg = rt_config();
    let backend = backend_for_schedule(RtLmt::Direct, 2, cfg.chunk_schedule, None);
    // f64 bits of [empty, miss, batch]; failed count.
    let results = [const { AtomicU64::new(0) }; 4];
    let store = |i: usize, v: f64| results[i].store(v.to_bits(), Ordering::Relaxed);
    run_rt_with_cfg(2, backend, cfg, |comm: &mut RtComm| {
        let mut buf = [0u8; 64];
        if comm.rank() == 1 {
            pattern::fill(&mut buf, b.seed, 0xd256);
            for _ in 0..DEPTH {
                comm.send(0, TAG_A, &buf);
            }
            comm.send(0, TAG_FENCE, &buf[..16]);
            // Drain rank 0's batches until its one-byte stop.
            while comm.recv(Some(0), Some(TAG_A), &mut buf) != 1 {}
            return;
        }
        // Receiving the fence parks the 256 earlier packets in the
        // unexpected set.
        comm.recv(Some(1), Some(TAG_FENCE), &mut buf);
        store(
            1,
            ns_per_iter(b.micro, 256, |n| {
                for _ in 0..n {
                    black_box(comm.try_recv(None, Some(TAG_ABSENT), &mut buf));
                }
            }),
        );
        let mut want = [0u8; 64];
        pattern::fill(&mut want, b.seed, 0xd256);
        let mut bad = 0u64;
        for _ in 0..DEPTH {
            let n = comm.recv(Some(1), Some(TAG_A), &mut buf);
            bad += u64::from(n != 64 || buf != want);
        }
        results[3].store(bad, Ordering::Relaxed);
        store(
            0,
            ns_per_iter(b.micro, 4096, |n| {
                for _ in 0..n {
                    black_box(comm.try_recv(None, Some(TAG_ABSENT), &mut buf));
                }
            }),
        );
        let payloads = [[7u8; 64]; 32];
        let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
        let t0 = Instant::now();
        let mut admitted = 0u64;
        while t0.elapsed() < b.micro {
            match comm.try_send_batch(1, TAG_A, &refs) {
                0 => spin_loop(),
                n => admitted += n as u64,
            }
        }
        store(2, t0.elapsed().as_nanos() as f64 / admitted.max(1) as f64);
        comm.send(1, TAG_A, &[0u8]);
    });
    let load = |i: usize| f64::from_bits(results[i].load(Ordering::Relaxed));
    out.attempted += DEPTH as u64;
    out.failed += results[3].load(Ordering::Relaxed);
    out.metrics.extend([
        Metric::single("rt.comm.try_recv_empty_ns", "ns", load(0)),
        Metric::single("rt.comm.try_recv_miss_ns_depth256", "ns", load(1)),
        Metric::single("rt.comm.try_send_batch_ns_per_msg", "ns", load(2)),
    ]);
}

/// MiB/s of `engine` copying `slot`-byte slots, walking both pools.
fn copy_rate(
    b: &Budget,
    src: &[u8],
    dst: &mut [u8],
    slot: usize,
    engine: impl Fn(&[u8], &mut [u8]),
) -> f64 {
    let slots = src.len() / slot;
    let mut at = 0;
    let ns = ns_per_iter(b.micro, 4, |n| {
        for _ in 0..n {
            let r = at * slot..(at + 1) * slot;
            engine(&src[r.clone()], &mut dst[r]);
            at = (at + 1) % slots;
        }
    });
    slot as f64 / MIB / (ns * 1e-9)
}

/// MiB/s of the double-buffer ring between two threads.
fn pipe_rate(b: &Budget, src: &[u8], dst: &mut [u8], slot: usize, hint_mib_per_s: f64) -> f64 {
    let slots = src.len() / slot;
    // Both sides must agree on the count before they start.
    let transfers =
        ((b.micro.as_secs_f64() * hint_mib_per_s * MIB / slot as f64) as usize).clamp(8, 1 << 20);
    let pipe = DoubleBufferPipe::new(32 << 10, 2);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..transfers {
                let at = i % slots;
                pipe.recv(&mut dst[at * slot..(at + 1) * slot]);
            }
        });
        for i in 0..transfers {
            let at = i % slots;
            pipe.send(&src[at * slot..(at + 1) * slot]);
        }
    });
    (transfers * slot) as f64 / MIB / t0.elapsed().as_secs_f64()
}

fn copy(b: &Budget, out: &mut Probed) {
    // Cached: one 256 KiB pair, reused. Stream: 1 MiB slots walking two
    // pools of LLC size each, so neither side is ever in cache.
    for (regime, slot, pool) in [
        ("cached", 256 << 10, 256 << 10),
        ("stream", 1 << 20, stream_pool_bytes()),
    ] {
        let mut src = vec![0u8; pool];
        pattern::fill(&mut src, b.seed, 0xc0);
        let mut dst = vec![1u8; pool];
        let memcpy = copy_rate(b, &src, &mut dst, slot, direct_copy);
        let temporal = copy_rate(b, &src, &mut dst, slot, |s, d| simd_copy(s, d, false));
        let nt = copy_rate(b, &src, &mut dst, slot, |s, d| simd_copy(s, d, true));
        let pipe = pipe_rate(b, &src, &mut dst, slot, memcpy / 2.0);
        // The last engine's slot 0 must have arrived whole.
        out.attempted += 1;
        out.failed += u64::from(src[..slot] != dst[..slot]);
        for (engine, rate) in [
            ("memcpy", memcpy),
            ("simd_temporal", temporal),
            ("simd_nt", nt),
            ("dbuf_pipe", pipe),
        ] {
            out.metrics.push(Metric::single(
                format!("rt.copy.{engine}_{regime}_mib_per_s"),
                "MiB/s",
                rate,
            ));
        }
    }
}

/// A learned backend the probe keeps a handle into, to ask afterwards
/// which arm it settled on.
struct Shared(Arc<LearnedBackend>);

impl RtLmtBackend for Shared {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn preferred_chunk(&self) -> usize {
        self.0.preferred_chunk()
    }
    fn send_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8]) {
        self.0.send_payload(src_rank, dst_rank, src)
    }
    fn recv_payload(&self, src_rank: usize, dst_rank: usize, src: &[u8], dst: &mut [u8]) {
        self.0.recv_payload(src_rank, dst_rank, src, dst)
    }
    fn is_offload(&self) -> bool {
        self.0.is_offload()
    }
}

fn lmt(b: &Budget, out: &mut Probed) {
    // One-way MiB/s of a ping-pong: two transfers per round trip.
    let rate = |r: &LoopResult, bytes: usize| {
        2.0 * bytes as f64 / MIB * r.slices[0].ops as f64 / r.slices[0].elapsed_s
    };
    let slices = [(b.macro_s, false)];
    for (regime, bytes, pool, warmup) in [
        ("cached", 256 << 10, 0, 400),
        ("stream", 1 << 20, stream_pool_bytes(), 100),
    ] {
        let mut best_fixed = 0.0f64;
        for (label, lmt) in RT_LMTS
            .iter()
            .zip([RtLmt::DoubleBuffer, RtLmt::Direct, RtLmt::Cma])
        {
            let r = run_closed_loop(
                &pingpong_plan(lmt, bytes, pool, warmup),
                b.seed,
                &slices,
                &|| {},
            );
            fold(out, &r);
            best_fixed = best_fixed.max(rate(&r, bytes));
            out.metrics.push(Metric::single(
                format!("rt.lmt.{label}.{regime}_mib_per_s"),
                "MiB/s",
                rate(&r, bytes),
            ));
        }
        // The bandit over all mechanisms, warmed up past its sweep.
        let learned = Arc::new(LearnedBackend::new(2));
        let r = run_closed_loop_over(
            &pingpong_plan(RtLmt::Learned, bytes, pool, warmup),
            Box::new(Shared(Arc::clone(&learned))),
            b.seed,
            &slices,
            &|| {},
        );
        fold(out, &r);
        let arm = (0..nemesis_rt::tuner::RT_SELECTOR_ARMS)
            .max_by(|&x, &y| {
                let bw = |a| learned.selector(0, 1).cell(bytes, a).0;
                bw(x).total_cmp(&bw(y))
            })
            .unwrap_or(0);
        // Offload (2) and the striped arms (4..) move bytes on engine
        // threads of their own: a third busy thread.
        let engine_arm = arm == 2 || arm >= 4;
        out.metrics.push(
            Metric::single(
                format!("rt.lmt.learned.over_best_fixed_{regime}"),
                "ratio",
                rate(&r, bytes) / best_fixed,
            )
            .tagged((engine_arm && host::nproc() < 3).then_some("timesliced")),
        );
    }
}
