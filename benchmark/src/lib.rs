//! The in-tree benchmark of the MPICH2-Nemesis reproduction. See
//! `README.md` in this directory.

pub mod cli;
pub mod host;
pub mod json;
pub mod pattern;
pub mod probes;
pub mod rt_loop;
pub mod rt_workloads;
pub mod serve_workloads;
pub mod sim_lists;
pub mod sim_script;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
