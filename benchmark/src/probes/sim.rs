//! Probes of the virtual-time stack: `core` (comm, lmt, tuner, coll),
//! `kernel`, `sim`, and `workloads::nas`. Virtual-time numbers repeat
//! exactly; the host-side ones are the breakdown of what the simulator
//! costs to run, and are flagged noisy.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nemesis_core::{KnemSelect, LmtSelect, Nemesis};
use nemesis_kernel::{Iov, KnemFlags, Os};
use nemesis_sim::topology::Placement;
use nemesis_sim::{mib_per_s, run_simulation, Machine, MachineConfig, PhysRange, Proc};

use super::{ns_per_iter, Budget, Probed};
use crate::host;
use crate::pattern;
use crate::sim_lists::script;
use crate::sim_script::{
    nemesis_config, run_script, Exchange, ScriptResult, SimCfg, StepResult, Universe,
};
use crate::spec::SIM_BACKENDS;
use crate::stats::{median, Metric};

const MIB: u64 = 1 << 20;

pub fn run(b: &Budget, out: &mut Probed) {
    // Exactly one simulator thread runs at a time: keep them all on
    // one CPU, as the workloads' virtual-time lists run.
    host::pin_to_current_cpu();
    let pt2pt = whole_script(b, out, "sim_pt2pt");
    let coll = whole_script(b, out, "sim_coll");
    comm(b, out, &pt2pt, &coll);
    lmt(b, out, &pt2pt);
    collectives(out, &coll);
    kernel(b, out);
    host_side(b, out);
}

fn fold(out: &mut Probed, r: &ScriptResult) {
    out.attempted += r.ops();
    out.failed += r.failed;
}

fn step<'a>(r: &'a ScriptResult, label: &str) -> &'a StepResult {
    r.step(label)
        .unwrap_or_else(|| panic!("the script has no step {label}"))
}

/// One pass of one of the paper's two lists, whole; host operations per
/// second go out as `sim.host.ops_per_s.<list>`.
fn whole_script(b: &Budget, out: &mut Probed, name: &str) -> (ScriptResult, f64) {
    let t0 = Instant::now();
    let r = run_script(&script(name).expect("a list name"), b.seed, None);
    let host_s = t0.elapsed().as_secs_f64();
    fold(out, &r);
    out.metrics.push(Metric::single(
        format!("sim.host.ops_per_s.{name}"),
        "1/s",
        r.ops() as f64 / host_s,
    ));
    (r, host_s)
}

/// Half a round trip of a ping-pong step, in virtual ns.
fn one_way_ns(s: &StepResult) -> f64 {
    s.virt_ps as f64 / 1e3 / s.ops as f64 / 2.0
}

/// One-way virtual MiB/s of a ping-pong step.
fn one_way_mib_per_s(s: &StepResult) -> f64 {
    mib_per_s(s.bytes * 2 * s.ops, s.virt_ps)
}

fn machine_os() -> (Arc<Machine>, Arc<Os>) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    (machine, os)
}

fn comm(
    b: &Budget,
    out: &mut Probed,
    (pt2pt, pt2pt_host_s): &(ScriptResult, f64),
    (coll, _): &(ScriptResult, f64),
) {
    // Universe construction, host side.
    for n in [2usize, 8] {
        let ms: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let (_machine, os) = machine_os();
                black_box(Nemesis::new(os, n, nemesis_config(SimCfg::PaperStatic)));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.metrics.push(Metric::single(
            format!("core.nemesis.new_host_ms_{n}"),
            "ms",
            median(&ms),
        ));
    }

    // The smallest rendezvous: one byte over the eager limit.
    let eager_max = nemesis_config(SimCfg::PaperStatic).eager_max;
    let rndv = run_script(
        &[Universe::Pair {
            placement: Placement::SharedL2,
            cfg: SimCfg::PaperStatic,
            steps: vec![Exchange::pingpong(eager_max + 1, 8)],
        }],
        b.seed,
        None,
    );
    fold(out, &rndv);
    out.metrics.extend([
        Metric::single(
            "core.comm.sim_lat_ns_64B",
            "sim-ns",
            one_way_ns(step(pt2pt, "static.SharedL2.64B")),
        ),
        Metric::single(
            "core.comm.eager_sim_lat_ns_4KiB",
            "sim-ns",
            one_way_ns(step(pt2pt, "static.SharedL2.4KiB")),
        ),
        Metric::single(
            "core.comm.rndv_min_sim_lat_ns",
            "sim-ns",
            one_way_ns(&rndv.steps[0]),
        ),
        Metric::single(
            "core.progress.polls_per_op.pt2pt",
            "count",
            pt2pt.polls_per_op(),
        ),
        Metric::single(
            "core.progress.polls_per_op.coll",
            "count",
            coll.polls_per_op(),
        ),
        Metric::single(
            "core.progress.host_ns_per_poll",
            "ns",
            pt2pt_host_s * 1e9 / pt2pt.polls.max(1) as f64,
        ),
    ]);
}

fn lmt(b: &Budget, out: &mut Probed, (pt2pt, _): &(ScriptResult, f64)) {
    let selects = [
        LmtSelect::ShmCopy,
        LmtSelect::PipeWritev,
        LmtSelect::Vmsplice,
        LmtSelect::Knem(KnemSelect::SyncCpu),
        LmtSelect::Knem(KnemSelect::AsyncIoat),
        LmtSelect::Cma,
        LmtSelect::Striped { rails: 2 },
    ];
    let mut best_fixed = 0.0f64;
    for (name, lmt) in SIM_BACKENDS.iter().zip(selects) {
        let r = run_script(
            &[Universe::Pair {
                placement: Placement::DifferentSocket,
                cfg: SimCfg::Fixed(lmt),
                steps: vec![Exchange::pingpong(MIB, 4)],
            }],
            b.seed,
            None,
        );
        fold(out, &r);
        let s = &r.steps[0];
        let rate = one_way_mib_per_s(s);
        best_fixed = best_fixed.max(rate);
        out.metrics.push(Metric::single(
            format!("core.lmt.{name}.sim_mib_per_s_1MiB"),
            "sim-MiB/s",
            rate,
        ));
        // Per MiB of payload: each operation moves one each way.
        let per_mib = |count: u64| count as f64 / (2 * s.ops) as f64;
        if ["shm", "vmsplice", "knem", "ioat"].contains(name) {
            out.metrics.push(Metric::single(
                format!("sim.cache.l2_miss_per_mib.{name}"),
                "count",
                per_mib(s.l2_misses),
            ));
        }
        match *name {
            "shm" => out.metrics.push(Metric::single(
                "sim.bus.bytes_per_payload_byte.shm",
                "ratio",
                s.bus_bytes as f64 / (2 * s.ops * s.bytes) as f64,
            )),
            "knem" => out.metrics.extend([
                Metric::single(
                    "sim.stats.syscalls_per_msg.knem",
                    "count",
                    per_mib(s.stats.syscalls),
                ),
                Metric::single(
                    "sim.stats.pinned_pages_per_mib.knem",
                    "count",
                    per_mib(s.stats.pinned_pages),
                ),
            ]),
            "ioat" => out.metrics.push(Metric::single(
                "sim.dma.ioat_descs_per_mib",
                "count",
                per_mib(s.stats.ioat_descs),
            )),
            _ => {}
        }
    }
    out.metrics.extend([
        Metric::single(
            "core.lmt.dynamic.over_best_fixed_sim_1MiB",
            "ratio",
            one_way_mib_per_s(step(pt2pt, "static.DifferentSocket.1MiB")) / best_fixed,
        ),
        Metric::single(
            "core.tuner.learned_over_best_fixed_sim_1MiB",
            "ratio",
            one_way_mib_per_s(step(pt2pt, "learned.DifferentSocket.1MiB")) / best_fixed,
        ),
        Metric::single(
            "core.tuner.resident_pairs",
            "count",
            pt2pt.resident_pairs.unwrap_or(0) as f64,
        ),
    ]);
}

fn collectives(out: &mut Probed, (coll, _): &(ScriptResult, f64)) {
    let sim_us = |s: &StepResult| s.virt_ps as f64 / 1e6 / s.ops as f64;
    for size in ["4KiB", "32KiB", "128KiB", "1MiB"] {
        out.metrics.push(Metric::single(
            format!("core.coll.alltoall_sim_us.{size}"),
            "sim-us",
            sim_us(step(coll, &format!("alltoall.{size}"))),
        ));
    }
    for k in ["is", "ft", "cg", "mg"] {
        out.metrics.push(Metric::single(
            format!("workloads.nas.{k}_sim_us"),
            "sim-us",
            sim_us(step(coll, &format!("nas.{k}"))),
        ));
    }
    out.metrics.push(Metric::single(
        "workloads.nas.is_l2_miss",
        "count",
        step(coll, "nas.is").l2_misses as f64,
    ));
}

/// The kernel services the backends are built from, called directly:
/// 1 MiB from rank 0's buffer to rank 1's, across sockets, timed on the
/// receiver in virtual time.
fn kernel(b: &Budget, out: &mut Probed) {
    #[derive(Clone, Copy, PartialEq)]
    enum Via {
        Pipe,
        Knem(bool),
        Cma,
    }
    let (a, c) = MachineConfig::xeon_e5345()
        .topology
        .pair_for(Placement::DifferentSocket)
        .expect("the e5345 has two sockets");
    for (metric, via) in [
        ("kernel.pipe.writev_sim_mib_per_s", Via::Pipe),
        ("kernel.knem.sync_sim_mib_per_s", Via::Knem(false)),
        ("kernel.knem.ioat_sim_mib_per_s", Via::Knem(true)),
        ("kernel.cma.read_sim_mib_per_s", Via::Cma),
    ] {
        let (machine, os) = machine_os();
        let pipe = os.pipe_create();
        // What the sender publishes for the receiver: a cookie or a
        // window id; and the receiver's "done".
        let handle: Mutex<Option<u64>> = Mutex::new(None);
        let done = Mutex::new(false);
        let result: Mutex<(u64, bool)> = Mutex::new((0, false));
        run_simulation(Arc::clone(&machine), &[a, c], |p| {
            let buf = os.alloc_local(p, MIB);
            let iov = [Iov::new(buf, 0, MIB)];
            if p.pid() == 0 {
                os.with_data_mut(p, buf, |d| pattern::fill(d, b.seed, 0x6b));
                os.touch_write(p, buf, 0, MIB);
                let wait_done = || p.poll_until(|| (*done.lock().expect("done")).then_some(()));
                match via {
                    Via::Pipe => os.pipe_write_all(p, pipe, buf, 0, MIB),
                    Via::Knem(_) => {
                        let cookie = os.knem_send_cmd(p, &iov);
                        *handle.lock().expect("handle") = Some(cookie.0);
                        wait_done();
                        os.knem_destroy_cookie(p, cookie);
                    }
                    Via::Cma => {
                        let w = os.cma_expose(p, &iov);
                        *handle.lock().expect("handle") = Some(w.0);
                        wait_done();
                        os.cma_close(p, w);
                    }
                }
                return;
            }
            let published = || p.poll_until(|| *handle.lock().expect("handle"));
            let t0 = match via {
                Via::Pipe => {
                    let t0 = p.now();
                    os.pipe_read_exact(p, pipe, buf, 0, MIB);
                    t0
                }
                Via::Knem(ioat) => {
                    let cookie = nemesis_kernel::Cookie(published());
                    let status = os.knem_alloc_status(p.pid());
                    let flags = if ioat {
                        KnemFlags::sync_ioat()
                    } else {
                        KnemFlags::sync_cpu()
                    };
                    let t0 = p.now();
                    os.knem_recv_cmd(p, cookie, &iov, flags, status);
                    os.knem_wait_status(p, status);
                    t0
                }
                Via::Cma => {
                    let w = nemesis_kernel::CmaWindowId(published());
                    let t0 = p.now();
                    let mut off = 0;
                    while off < MIB {
                        off += os.process_vm_readv(p, w, off, &[Iov::new(buf, off, MIB - off)]);
                    }
                    t0
                }
            };
            let elapsed = p.now() - t0;
            let intact = os.with_data(p, buf, |d| pattern::matches(d, b.seed, 0x6b));
            *result.lock().expect("result") = (elapsed, intact);
            *done.lock().expect("done") = true;
        });
        let (elapsed_ps, intact) = *result.lock().expect("result");
        out.attempted += 1;
        out.failed += u64::from(!intact);
        out.metrics.push(Metric::single(
            metric,
            "sim-MiB/s",
            mib_per_s(MIB, elapsed_ps),
        ));
    }

    // Host cost of simulated memory: allocate and first-touch 16 MiB.
    let (machine, os) = machine_os();
    let us_per_mib = Mutex::new(0.0);
    run_simulation(machine, &[0], |p| {
        let t0 = Instant::now();
        let buf = os.alloc_local(p, 16 * MIB);
        os.touch_write(p, buf, 0, 16 * MIB);
        *us_per_mib.lock().expect("result") = t0.elapsed().as_secs_f64() * 1e6 / 16.0;
    });
    out.metrics.push(Metric::single(
        "kernel.mem.alloc_touch_host_us_per_mib",
        "us",
        *us_per_mib.lock().expect("result"),
    ));
}

/// Host nanoseconds of the simulator's own inner loops.
fn host_side(b: &Budget, out: &mut Probed) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let (src, dst) = (machine.alloc_phys(MIB), machine.alloc_phys(MIB));
    let results: Mutex<Vec<Metric>> = Mutex::new(Vec::new());
    run_simulation(Arc::clone(&machine), &[0], |p: &Proc| {
        // One 1 MiB copy is 16384 cache lines through the cache model.
        let copy = ns_per_iter(b.micro, 2, |n| {
            for _ in 0..n {
                p.copy(PhysRange::new(src, MIB), PhysRange::new(dst, MIB));
            }
        });
        // One page-per-descriptor DMA chain of 256 descriptors.
        let descs: Vec<(PhysRange, PhysRange)> = (0..256)
            .map(|i| {
                (
                    PhysRange::new(src + i * 4096, 4096),
                    PhysRange::new(dst + i * 4096, 4096),
                )
            })
            .collect();
        let dma = ns_per_iter(b.micro, 4, |n| {
            for _ in 0..n {
                black_box(p.dma_copy(&descs));
            }
        });
        results.lock().expect("results").extend([
            Metric::single(
                "sim.machine.copy_host_ns_per_line",
                "ns",
                copy / (MIB / 64) as f64,
            ),
            Metric::single("sim.dma.host_ns_per_desc", "ns", dma / 256.0),
        ]);
    });

    // Scheduler hand-off: every process advances its clock by the same
    // step and yields, so the grant goes round all of them.
    for n in [2usize, 8] {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let cores: Vec<usize> = (0..n).collect();
        let rounds = ((b.micro.as_secs_f64() * 4e5) as u64 / n as u64).clamp(100, 20_000);
        let t0 = Instant::now();
        run_simulation(machine, &cores, |p| {
            for _ in 0..rounds {
                p.advance(1_000);
                p.yield_now();
            }
        });
        results.lock().expect("results").push(Metric::single(
            format!("sim.sched.handoff{n}_host_ns"),
            "ns",
            t0.elapsed().as_nanos() as f64 / (rounds * n as u64) as f64,
        ));
    }
    out.metrics.extend(results.into_inner().expect("results"));
}
