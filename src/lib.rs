//! # nemesis — the MPICH2-Nemesis reproduction stack
//!
//! Facade crate re-exporting every layer of the reproduction of
//! *Cache-Efficient, Intranode, Large-Message MPI Communication with
//! MPICH2-Nemesis* (Buntinas, Goglin, Goodell, Mercier, Moreaud —
//! ICPP 2009):
//!
//! * [`sim`] — the deterministic virtual-time machine: topology (up to
//!   Nehalem-class L3 + NUMA parts), set-associative LRU caches with
//!   MESI-style coherence, bandwidth-limited memory buses, the I/OAT DMA
//!   engine, PAPI-like counters, and the §6 affinity advisor.
//! * [`kernel`] — the simulated Linux services Nemesis needs: address
//!   spaces holding real bytes, pipes with `writev`/`readv`/`vmsplice`,
//!   and the KNEM character device (cookies, vectorial iovecs,
//!   synchronous / kernel-thread / I/OAT receive modes).
//! * [`core`] — the Nemesis channel itself: eager cells (with
//!   fragmentation and MPICH2-style unexpected-message buffering),
//!   rendezvous over the pluggable `core::lmt` backend layer (the four
//!   paper backends behind the `LmtBackend` trait), the `DMAmin`
//!   `ThresholdPolicy` and the §3.5 blended
//!   [`core::LmtSelect::Dynamic`] selector, noncontiguous transfers, and
//!   MPI-like point-to-point + collective operations.
//! * [`rt`] — the same data structures on real threads and atomics
//!   (lock-free MPSC queue, per-pair SPSC lanes and eager byte rings, copy
//!   engines behind the mirror `RtLmtBackend` trait, a mini runtime
//!   with collectives), measured by the in-tree benchmark's `rt.*`
//!   probes and workloads.
//! * [`model`] — the clock-free online models (EWMA cell, bandit, chunk
//!   sweet spot, collective grid, rank group) both tuners execute.
//! * [`workloads`] — IMB-style microbenchmarks, NAS proxy kernels, and
//!   trace-driven replay.
//!
//! Start with the `quickstart` example; DESIGN.md maps every module to
//! the paper section it reproduces, and EXPERIMENTS.md records
//! paper-vs-measured for every table and figure.

pub use nemesis_core as core;
pub use nemesis_kernel as kernel;
pub use nemesis_model as model;
pub use nemesis_rt as rt;
pub use nemesis_serve as serve;
pub use nemesis_sim as sim;
pub use nemesis_workloads as workloads;

/// Bridge a simulated-stack backend selection onto its real-thread
/// analogue, so one configuration drives the same mechanism family on
/// both stacks: two-copy wires map to the double-buffer ring,
/// single-copy CPU wires to the direct copy, I/OAT modes to the engine
/// thread, and CMA / striping to their rt mirrors. `Dynamic` resolves
/// per pair in the simulated stack; the rt runtime has one backend per
/// universe, so it maps to the single-copy default.
pub fn rt_lmt_from(lmt: core::LmtSelect) -> rt::RtLmt {
    use core::{KnemSelect, LmtSelect};
    match lmt {
        LmtSelect::ShmCopy | LmtSelect::PipeWritev => rt::RtLmt::DoubleBuffer,
        LmtSelect::Vmsplice
        | LmtSelect::Knem(KnemSelect::SyncCpu)
        | LmtSelect::Knem(KnemSelect::AsyncKthread) => rt::RtLmt::Direct,
        LmtSelect::Knem(_) => rt::RtLmt::Offload,
        LmtSelect::Cma => rt::RtLmt::Cma,
        LmtSelect::Striped { rails } => rt::RtLmt::Striped(rails),
        LmtSelect::Dynamic => rt::RtLmt::Direct,
    }
}

/// Config-aware variant of [`rt_lmt_from`]: a `Dynamic` selection that
/// resolves through the learned backend selector maps onto the rt
/// stack's own learned meta-backend (per-pair bandit over the rt
/// mechanisms), so both stacks learn the choice when so configured.
pub fn rt_lmt_for(cfg: &core::NemesisConfig) -> rt::RtLmt {
    if cfg.lmt == core::LmtSelect::Dynamic && cfg.backend == core::BackendSelect::LearnedBackend {
        rt::RtLmt::Learned
    } else {
        rt_lmt_from(cfg.lmt)
    }
}

/// Bridge the simulated stack's configuration into the real-thread
/// runtime: the two stacks deliberately do not depend on each other, so
/// the shared knobs (cell sizing, backoff spin cap, chunk schedule)
/// cross here. The cell sizing means something different on each side:
/// `cells_per_proc` cells of `cell_payload` bytes are one process's
/// eager pool in the simulation and one ordered pair's eager byte ring
/// in rt. Fields without a core-side counterpart keep their rt
/// defaults. A `Learned` chunk schedule makes `rt::run_rt_cfg` create
/// an `RtTuner` so the double-buffer ring learns its per-pair sweet
/// spot from observed chunk times, mirroring the simulated tuner.
pub fn rt_config_from(cfg: &core::NemesisConfig) -> rt::RtConfig {
    rt::RtConfig {
        queue_capacity: cfg.queue_slots,
        cells: cfg.cells_per_proc,
        cell_size: cfg.cell_payload as usize,
        spin_limit: cfg.backoff_spin_cap,
        recv_batch: cfg.progress_batch,
        chunk_schedule: match cfg.chunk_schedule {
            core::ChunkScheduleSelect::Adaptive => rt::RtChunkScheduleSelect::Adaptive,
            core::ChunkScheduleSelect::Fixed => rt::RtChunkScheduleSelect::Fixed,
            core::ChunkScheduleSelect::Learned => rt::RtChunkScheduleSelect::Learned,
        },
        coll_alg: match cfg.coll_alg {
            core::CollAlgSelect::Fixed => rt::RtCollAlg::Fixed,
            core::CollAlgSelect::Alternate => rt::RtCollAlg::Alternate,
            core::CollAlgSelect::Learned => rt::RtCollAlg::Learned,
        },
        ..rt::RtConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rt_config_bridges_nemesis_config() {
        let cfg = core::NemesisConfig {
            backoff_spin_cap: 2,
            progress_batch: 5,
            cell_payload: 8 << 10,
            chunk_schedule: core::ChunkScheduleSelect::Learned,
            coll_alg: core::CollAlgSelect::Learned,
            ..core::NemesisConfig::default()
        };
        let rtc = rt_config_from(&cfg);
        assert_eq!(rtc.spin_limit, 2);
        assert_eq!(rtc.recv_batch, 5);
        assert_eq!(rtc.cell_size, 8 << 10);
        assert_eq!(rtc.queue_capacity, cfg.queue_slots);
        assert_eq!(rtc.chunk_schedule, rt::RtChunkScheduleSelect::Learned);
        assert_eq!(rtc.coll_alg, rt::RtCollAlg::Learned);
        // Backend selections bridge onto their rt analogues.
        assert_eq!(rt_lmt_from(core::LmtSelect::Cma), rt::RtLmt::Cma);
        assert_eq!(
            rt_lmt_from(core::LmtSelect::Striped { rails: 3 }),
            rt::RtLmt::Striped(3)
        );
        assert_eq!(
            rt_lmt_from(core::LmtSelect::Knem(core::KnemSelect::AsyncIoat)),
            rt::RtLmt::Offload
        );
        assert_eq!(
            rt_lmt_from(core::LmtSelect::ShmCopy),
            rt::RtLmt::DoubleBuffer
        );
        // Dynamic + the learned selector bridges onto the rt learned
        // meta-backend; rule-based Dynamic keeps the single-copy
        // default.
        let learned_cfg = core::NemesisConfig {
            lmt: core::LmtSelect::Dynamic,
            backend: core::BackendSelect::LearnedBackend,
            ..core::NemesisConfig::default()
        };
        assert_eq!(rt_lmt_for(&learned_cfg), rt::RtLmt::Learned);
        let dynamic_cfg = core::NemesisConfig {
            lmt: core::LmtSelect::Dynamic,
            backend: core::BackendSelect::Dynamic,
            ..core::NemesisConfig::default()
        };
        assert_eq!(rt_lmt_for(&dynamic_cfg), rt::RtLmt::Direct);
        // And the bridged config actually runs the rt runtime.
        rt::run_rt_cfg(2, rt::RtLmt::Direct, rtc, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[42u8; 100]);
            } else {
                let mut buf = [0u8; 100];
                assert_eq!(comm.recv(Some(0), Some(1), &mut buf), 100);
                assert!(buf.iter().all(|&b| b == 42));
            }
        });
    }
}
