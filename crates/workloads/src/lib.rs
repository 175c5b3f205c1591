//! # nemesis-workloads — benchmarks and applications for the Nemesis stack
//!
//! Two families, mirroring the paper's evaluation (§4):
//!
//! * [`imb`] — Intel MPI Benchmarks-style drivers: **PingPong** (Figures
//!   3–6) and **Alltoall** (Figure 7), parameterized by message size,
//!   LMT backend and core placement, reporting throughput and L2 misses.
//! * [`nas`] — NAS Parallel Benchmark proxies (Table 1 / Table 2): IS is
//!   a real bucket sort with the genuine alltoallv exchange; FT performs
//!   real transpose exchanges; the remaining kernels (cg, ep, mg, lu, bt,
//!   sp) reproduce each benchmark's communication pattern plus
//!   cache-resident compute phases, which is the mechanism behind the
//!   paper's speedups (communication copies polluting the compute
//!   working set).

pub mod imb;
pub mod imb_ext;
pub mod nas;
pub(crate) mod nas_kernels;
pub mod trace;

/// FNV-1a over the little-endian bytes of `words`: the fingerprint the
/// known-answer tests pin the seeded streams with.
#[cfg(test)]
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

pub use imb::{alltoall_bench, pingpong_bench, AlltoallResult, PingpongResult};
pub use imb_ext::{suite_bench, SuiteBench, SuiteResult};
pub use nas::{run_nas, NasKernel, NasResult};
pub use trace::{replay, replay_on, Op, Trace, TraceResult};
