//! The rest of the IMB suite: Sendrecv, Exchange and the collective
//! benchmarks (Bcast, Allgather, Allreduce).
//!
//! §4.4 says "we observed similar behavior for several operations but
//! present only Alltoall results here" — these drivers regenerate that
//! claim: every collective should show the same LMT ordering as
//! Figure 7 once messages are large enough.

use std::sync::{Arc, Mutex};

use nemesis_core::{Nemesis, NemesisConfig};
use nemesis_kernel::Os;
use nemesis_model::sync::lock;
use nemesis_sim::{mib_per_s, run_simulation, Machine, MachineConfig, Ps};

/// Outcome of one suite benchmark at one message size.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    pub msg_size: u64,
    /// Average time of one operation (per iteration).
    pub op_time_ps: Ps,
    /// Aggregate payload moved per operation divided by its time.
    pub agg_throughput_mib_s: f64,
}

/// Which IMB benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteBench {
    /// Bidirectional pairwise traffic: each rank of a pair does
    /// `MPI_Sendrecv` with its partner.
    Sendrecv,
    /// Ring exchange: every rank sends to both neighbours and receives
    /// from both (IMB "Exchange": 4 messages in flight per rank).
    Exchange,
    /// Binomial-tree broadcast from rank 0.
    Bcast,
    /// Gather-to-0 + broadcast (the `nemesis-core` allgather).
    Allgather,
    /// Reduce-to-0 + broadcast over `u64` lanes.
    Allreduce,
}

impl SuiteBench {
    pub const ALL: [SuiteBench; 5] = [
        SuiteBench::Sendrecv,
        SuiteBench::Exchange,
        SuiteBench::Bcast,
        SuiteBench::Allgather,
        SuiteBench::Allreduce,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SuiteBench::Sendrecv => "Sendrecv",
            SuiteBench::Exchange => "Exchange",
            SuiteBench::Bcast => "Bcast",
            SuiteBench::Allgather => "Allgather",
            SuiteBench::Allreduce => "Allreduce",
        }
    }

    /// Payload moved per operation across all ranks (IMB's accounting).
    fn agg_bytes(self, nprocs: u64, msg: u64) -> u64 {
        match self {
            SuiteBench::Sendrecv => nprocs * msg,
            SuiteBench::Exchange => 2 * nprocs * msg,
            SuiteBench::Bcast => (nprocs - 1) * msg,
            SuiteBench::Allgather => nprocs * (nprocs - 1) * msg,
            SuiteBench::Allreduce => 2 * (nprocs - 1) * msg,
        }
    }
}

/// Run one suite benchmark over the first `nprocs` cores.
pub fn suite_bench(
    mcfg: MachineConfig,
    ncfg: NemesisConfig,
    bench: SuiteBench,
    nprocs: usize,
    msg_size: u64,
    reps: u32,
    warmup: u32,
) -> SuiteResult {
    assert!(nprocs >= 2 && nprocs <= mcfg.topology.num_cores());
    if bench == SuiteBench::Sendrecv {
        assert_eq!(nprocs % 2, 0, "Sendrecv pairs ranks");
    }
    if bench == SuiteBench::Allreduce {
        assert_eq!(msg_size % 8, 0, "Allreduce uses u64 lanes");
    }
    let machine = Arc::new(Machine::new(mcfg));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let nem = Nemesis::new(os, nprocs, ncfg);
    let placements: Vec<usize> = (0..nprocs).collect();
    let timing = Mutex::new((0u64, 0u64));
    run_simulation(Arc::clone(&machine), &placements, |p| {
        let comm = nem.attach(p);
        let os = comm.os();
        let me = comm.rank();
        let n = comm.size();
        let big = msg_size * n as u64;
        let sbuf = os.alloc_local(p, big.max(msg_size).max(8));
        let rbuf = os.alloc_local(p, big.max(msg_size).max(8));
        os.with_data_mut(p, sbuf, |d| d.fill(me as u8 + 1));
        os.touch_write(p, sbuf, 0, msg_size);
        let iter = || match bench {
            SuiteBench::Sendrecv => {
                let partner = me ^ 1;
                comm.sendrecv(
                    partner,
                    1,
                    sbuf,
                    0,
                    msg_size,
                    Some(partner),
                    Some(1),
                    rbuf,
                    0,
                    msg_size,
                );
            }
            SuiteBench::Exchange => {
                let next = (me + 1) % n;
                let prev = (me + n - 1) % n;
                let r1 = comm.irecv(Some(prev), Some(2), rbuf, 0, msg_size);
                let r2 = comm.irecv(Some(next), Some(3), rbuf, msg_size, msg_size);
                let s1 = comm.isend(next, 2, sbuf, 0, msg_size);
                let s2 = comm.isend(prev, 3, sbuf, 0, msg_size);
                comm.waitall(&[r1, r2, s1, s2]);
            }
            SuiteBench::Bcast => comm.bcast(0, sbuf, 0, msg_size),
            SuiteBench::Allgather => comm.allgather(sbuf, 0, msg_size, rbuf, 0),
            SuiteBench::Allreduce => comm.allreduce_u64(
                sbuf,
                0,
                rbuf,
                0,
                (msg_size / 8) as usize,
                nemesis_core::coll::ReduceOp::Sum,
            ),
        };
        for _ in 0..warmup {
            iter();
        }
        comm.barrier();
        let t0 = p.now();
        for _ in 0..reps {
            iter();
        }
        comm.barrier();
        if me == 0 {
            *lock(&timing) = (t0, p.now());
        }
    });
    let (t0, t1) = *lock(&timing);
    let op_time = (t1 - t0) / reps as u64;
    let agg = bench.agg_bytes(nprocs as u64, msg_size);
    SuiteResult {
        msg_size,
        op_time_ps: op_time,
        agg_throughput_mib_s: mib_per_s(agg, op_time),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_core::{KnemSelect, LmtSelect};

    fn quick(bench: SuiteBench, lmt: LmtSelect) -> SuiteResult {
        suite_bench(
            MachineConfig::xeon_e5345(),
            NemesisConfig::with_lmt(lmt),
            bench,
            4,
            64 << 10,
            2,
            1,
        )
    }

    #[test]
    fn all_benches_run_and_are_deterministic() {
        for b in SuiteBench::ALL {
            let a = quick(b, LmtSelect::ShmCopy);
            let c = quick(b, LmtSelect::ShmCopy);
            assert_eq!(a.op_time_ps, c.op_time_ps, "{b:?} not deterministic");
            assert!(a.agg_throughput_mib_s > 10.0, "{b:?} too slow to be sane");
        }
    }

    #[test]
    fn knem_helps_large_exchange() {
        // §4.4's "similar behavior for several operations": once messages
        // are rendezvous-sized, KNEM must beat the default two-copy LMT
        // on memory-intensive patterns.
        let big = |lmt| {
            suite_bench(
                MachineConfig::xeon_e5345(),
                NemesisConfig::with_lmt(lmt),
                SuiteBench::Exchange,
                8,
                512 << 10,
                2,
                1,
            )
            .agg_throughput_mib_s
        };
        let knem = big(LmtSelect::Knem(KnemSelect::SyncCpu));
        let def = big(LmtSelect::ShmCopy);
        assert!(knem > def, "knem {knem} vs default {def}");
    }

    #[test]
    fn agg_bytes_accounting() {
        assert_eq!(SuiteBench::Sendrecv.agg_bytes(8, 100), 800);
        assert_eq!(SuiteBench::Exchange.agg_bytes(8, 100), 1600);
        assert_eq!(SuiteBench::Bcast.agg_bytes(8, 100), 700);
        assert_eq!(SuiteBench::Allgather.agg_bytes(8, 100), 5600);
        assert_eq!(SuiteBench::Allreduce.agg_bytes(8, 100), 1400);
    }
}
