//! # nemesis-model — the clock-free online models
//!
//! The paper's tunables (`DMAmin`, §3.5; the pipeline chunk; the
//! backend and collective-algorithm choice) are learned by small online
//! models. Both stacks run the *same* models: the simulated tuner
//! (`nemesis_core::lmt::tuner`) feeds them virtual picoseconds, the
//! real-thread tuner (`nemesis_rt::tuner`) wall-clock nanoseconds. This
//! leaf crate holds each of them once; it depends on nothing, so both
//! stacks can depend on it.
//!
//! **No unit enters the crate.** Every model takes `(bytes: u64,
//! elapsed: u64)` in the caller's tick and only ever compares the
//! resulting bandwidths with each other inside one model instance.
//!
//! **Determinism is part of the contract.** The simulator's virtual
//! time is a function of every decision taken here, so the float
//! operations keep a fixed order (see [`ewma::blend`]) and no model
//! draws a random number: exploration is scheduled, never sampled.
//!
//! * [`ewma`] — the `{bw, n}` cell, the power-of-two size-class
//!   bucket, and the every-8th in-band exploration rule.
//! * [`Bandit`] — sweep → probe-streak → exponential-probe →
//!   exploit-with-hysteresis over `N` arms.
//! * [`ChunkModel`] — the pipeline chunk sweet spot.
//! * [`coll`] — the collective kinds and their
//!   `[kind][group class][message class]` grid of two-armed bandits.
//! * [`Group`] — the subcommunicator rank table both stacks'
//!   collectives run over.
//! * [`sched`] — the collective schedules (binomial tree, chain, shift
//!   rounds) and tag layout both stacks' collectives execute.
//! * [`rng`] — the seeded SplitMix64 generator behind the workloads'
//!   streams and the seeded tests; no model here draws from it.

pub mod bandit;
pub mod chunk;
pub mod coll;
pub mod ewma;
pub mod group;
pub mod rng;
pub mod sched;

pub use bandit::Bandit;
pub use chunk::ChunkModel;
pub use coll::{CollGrid, CollKind, COLL_ARMS};
pub use ewma::{explore_flip, is_explore_tick, log2_class, Ewma};
pub use group::Group;
