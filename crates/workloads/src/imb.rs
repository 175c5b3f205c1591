//! IMB-style microbenchmarks: PingPong and Alltoall.
//!
//! PingPong follows the Intel MPI Benchmarks convention: rank 0 sends a
//! message of size `s`, rank 1 receives and sends it back; throughput is
//! `s / (t_roundtrip / 2)`. A few warm-up repetitions precede the timed
//! window so buffers reach the steady-state cache placement (IMB does the
//! same), and caches are flushed between *sizes* so points are
//! independent.
//!
//! Alltoall reports what Figure 7 calls *aggregated throughput*: the total
//! payload moved by the operation divided by the average per-rank
//! duration.

use std::sync::{Arc, Mutex};

use nemesis_core::{Nemesis, NemesisConfig};
use nemesis_kernel::Os;
use nemesis_model::sync::lock;
use nemesis_sim::topology::Placement;
use nemesis_sim::{mib_per_s, run_simulation, Machine, MachineConfig, Ps};

/// Outcome of one PingPong configuration at one message size.
#[derive(Debug, Clone)]
pub struct PingpongResult {
    pub msg_size: u64,
    /// Half round-trip time.
    pub latency_ps: Ps,
    /// `msg_size / latency` in MiB/s — the y-axis of Figures 3–6.
    pub throughput_mib_s: f64,
    /// Total L2 misses across both ranks during the timed window,
    /// divided by the number of repetitions (Table 2 reports totals; we
    /// normalize per repetition for comparability across runs).
    pub l2_misses_per_rep: u64,
}

/// Run an IMB PingPong between two processes placed per `placement`.
pub fn pingpong_bench(
    mcfg: MachineConfig,
    ncfg: NemesisConfig,
    placement: Placement,
    msg_size: u64,
    reps: u32,
    warmup: u32,
) -> PingpongResult {
    let (a, b) = mcfg
        .topology
        .pair_for(placement)
        .expect("placement not available on this machine");
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(os, 2, ncfg);
    let timing = Mutex::new((0u64, 0u64, 0u64)); // (t0, t1, misses)
    let m2 = Arc::clone(&machine);
    run_simulation(Arc::clone(&machine), &[a, b], |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        // IMB uses distinct send and receive buffers, initialized once
        // outside the timed loop (first-touch: pages land on the rank's
        // local NUMA node).
        let s_buf = os.alloc_local(p, msg_size.max(1));
        let r_buf = os.alloc_local(p, msg_size.max(1));
        os.with_data_mut(p, s_buf, |d| d.fill(p.pid() as u8 + 1));
        os.touch_write(p, s_buf, 0, msg_size.max(1));
        let tag = 1;
        let iter = |timed: bool, i: u32| {
            let _ = (timed, i);
            if comm.rank() == 0 {
                comm.send(1, tag, s_buf, 0, msg_size);
                comm.recv(Some(1), Some(tag), r_buf, 0, msg_size);
            } else {
                comm.recv(Some(0), Some(tag), r_buf, 0, msg_size);
                comm.send(0, tag, s_buf, 0, msg_size);
            }
        };
        for i in 0..warmup {
            iter(false, i);
        }
        comm.barrier();
        let t0 = p.now();
        let miss0 = m2.snapshot().l2_misses();
        for i in 0..reps {
            iter(true, i);
        }
        comm.barrier();
        if comm.rank() == 0 {
            let mut t = lock(&timing);
            t.0 = t0;
            t.1 = p.now();
            t.2 = m2.snapshot().l2_misses() - miss0;
        }
    });
    let (t0, t1, misses) = *lock(&timing);
    let rtt = (t1 - t0) / reps as u64;
    let latency = rtt / 2;
    PingpongResult {
        msg_size,
        latency_ps: latency,
        throughput_mib_s: mib_per_s(msg_size, latency),
        l2_misses_per_rep: misses / reps as u64,
    }
}

/// Outcome of one Alltoall configuration at one per-pair message size.
#[derive(Debug, Clone)]
pub struct AlltoallResult {
    pub msg_size: u64,
    pub nprocs: usize,
    /// Average time of one alltoall operation.
    pub op_time_ps: Ps,
    /// Aggregated throughput: total payload divided by op time (Figure 7).
    pub agg_throughput_mib_s: f64,
    /// Total L2 misses per operation across all ranks.
    pub l2_misses_per_op: u64,
}

/// Run an IMB Alltoall over the first `nprocs` cores.
pub fn alltoall_bench(
    mcfg: MachineConfig,
    ncfg: NemesisConfig,
    nprocs: usize,
    msg_size: u64,
    reps: u32,
    warmup: u32,
) -> AlltoallResult {
    assert!(nprocs <= mcfg.topology.num_cores());
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(os, nprocs, ncfg);
    let placements: Vec<usize> = (0..nprocs).collect();
    let timing = Mutex::new((0u64, 0u64, 0u64));
    let m2 = Arc::clone(&machine);
    run_simulation(Arc::clone(&machine), &placements, |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let n = comm.size() as u64;
        let sbuf = os.alloc_local(p, msg_size * n);
        let rbuf = os.alloc_local(p, msg_size * n);
        os.with_data_mut(p, sbuf, |d| d.fill(p.pid() as u8 + 1));
        os.touch_write(p, sbuf, 0, msg_size * n);
        for _ in 0..warmup {
            comm.alltoall(sbuf, 0, msg_size, rbuf, 0);
        }
        comm.barrier();
        let t0 = p.now();
        let miss0 = m2.snapshot().l2_misses();
        for _ in 0..reps {
            comm.alltoall(sbuf, 0, msg_size, rbuf, 0);
        }
        comm.barrier();
        if comm.rank() == 0 {
            let mut t = lock(&timing);
            t.0 = t0;
            t.1 = p.now();
            t.2 = m2.snapshot().l2_misses() - miss0;
        }
    });
    let (t0, t1, misses) = *lock(&timing);
    let op_time = (t1 - t0) / reps as u64;
    // Total payload of one alltoall: every rank sends (n-1) remote blocks.
    let total_bytes = (nprocs as u64) * (nprocs as u64 - 1) * msg_size;
    AlltoallResult {
        msg_size,
        nprocs,
        op_time_ps: op_time,
        agg_throughput_mib_s: mib_per_s(total_bytes, op_time),
        l2_misses_per_op: misses / reps as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_core::{KnemSelect, LmtSelect};

    fn cfg(lmt: LmtSelect) -> NemesisConfig {
        NemesisConfig::with_lmt(lmt)
    }

    #[test]
    fn pingpong_produces_sane_throughput() {
        let r = pingpong_bench(
            MachineConfig::xeon_e5345(),
            cfg(LmtSelect::ShmCopy),
            Placement::SharedL2,
            256 << 10,
            5,
            2,
        );
        assert!(r.throughput_mib_s > 100.0, "{}", r.throughput_mib_s);
        assert!(r.throughput_mib_s < 50_000.0, "{}", r.throughput_mib_s);
        assert!(r.latency_ps > 0);
    }

    #[test]
    fn pingpong_deterministic() {
        let go = || {
            pingpong_bench(
                MachineConfig::xeon_e5345(),
                cfg(LmtSelect::Vmsplice),
                Placement::DifferentSocket,
                128 << 10,
                3,
                1,
            )
            .latency_ps
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn shared_cache_faster_than_cross_socket_for_default_lmt() {
        // The central observation of Figure 3/4/5: the two-copy strategy
        // thrives on a shared cache and suffers without one.
        let shared = pingpong_bench(
            MachineConfig::xeon_e5345(),
            cfg(LmtSelect::ShmCopy),
            Placement::SharedL2,
            256 << 10,
            5,
            2,
        );
        let split = pingpong_bench(
            MachineConfig::xeon_e5345(),
            cfg(LmtSelect::ShmCopy),
            Placement::DifferentSocket,
            256 << 10,
            5,
            2,
        );
        assert!(
            shared.throughput_mib_s > 1.5 * split.throughput_mib_s,
            "shared {} vs split {}",
            shared.throughput_mib_s,
            split.throughput_mib_s
        );
    }

    #[test]
    fn knem_beats_default_without_shared_cache() {
        // §4.2: "If no cache is shared between the processing cores, KNEM
        // is more than three times faster than Nemesis."
        let knem = pingpong_bench(
            MachineConfig::xeon_e5345(),
            cfg(LmtSelect::Knem(KnemSelect::SyncCpu)),
            Placement::DifferentSocket,
            1 << 20,
            5,
            2,
        );
        let def = pingpong_bench(
            MachineConfig::xeon_e5345(),
            cfg(LmtSelect::ShmCopy),
            Placement::DifferentSocket,
            1 << 20,
            5,
            2,
        );
        assert!(
            knem.throughput_mib_s > 1.8 * def.throughput_mib_s,
            "knem {} vs default {}",
            knem.throughput_mib_s,
            def.throughput_mib_s
        );
    }

    #[test]
    fn alltoall_sane_and_deterministic() {
        let go = || {
            alltoall_bench(
                MachineConfig::xeon_e5345(),
                cfg(LmtSelect::ShmCopy),
                4,
                32 << 10,
                3,
                1,
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.op_time_ps, b.op_time_ps);
        assert!(a.agg_throughput_mib_s > 50.0);
        assert_eq!(a.nprocs, 4);
    }
}
