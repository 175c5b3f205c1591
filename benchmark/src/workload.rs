//! What every workload run takes and gives back.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Value;
use crate::stats::Metric;
use crate::trace::Tracer;

/// Timed slices per end-to-end run; every timing metric is the median
/// of the per-slice values.
pub const SLICES: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The end-to-end run: tracing off, `SLICES` timed slices.
    Measure,
    /// The traced run: untraced and traced slices alternate, spans are
    /// written on exit, then the per-layer probes run.
    Trace,
    /// Set up, reach the first timed operation, report `setup_s`, stop.
    SetupOnly,
}

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds of the whole run (all slices together).
    pub seconds: f64,
    pub mode: Mode,
    pub clock: SetupClock,
}

impl RunArgs {
    /// `(seconds, traced)` of each slice this run prepares. A set-up run
    /// prepares what a measured run does and times none of it.
    pub fn slice_plan(&self) -> Vec<(f64, bool)> {
        match self.mode {
            Mode::Measure | Mode::SetupOnly => {
                vec![(self.seconds / SLICES as f64, false); SLICES]
            }
            // Untraced and traced slices alternate so drift hits both
            // alike. Capped: a traced small-message slice records about
            // 1.5 M spans per second.
            Mode::Trace => {
                let d = (self.seconds / 10.0).min(0.5);
                vec![(d, false), (d, true), (d, false), (d, true)]
            }
        }
    }

    /// How many of the planned slices this run times.
    pub fn timed_slices(&self) -> usize {
        match self.mode {
            Mode::SetupOnly => 0,
            _ => self.slice_plan().len(),
        }
    }
}

/// Measures `setup_s`: from process start — the parent's spawn call
/// when it passed its wall-clock stamp, else this process's `main` —
/// to the first timed operation.
#[derive(Debug, Clone, Copy)]
pub struct SetupClock {
    main_started: Instant,
    spawned_at_unix_ns: Option<u128>,
}

impl SetupClock {
    pub fn new(spawned_at_unix_ns: Option<u128>) -> Self {
        Self {
            main_started: Instant::now(),
            spawned_at_unix_ns,
        }
    }

    pub fn unix_now_ns() -> u128 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    }

    /// Seconds from process start to now.
    pub fn elapsed_s(&self) -> f64 {
        match self.spawned_at_unix_ns {
            Some(t0) => Self::unix_now_ns().saturating_sub(t0) as f64 * 1e-9,
            None => self.main_started.elapsed().as_secs_f64(),
        }
    }
}

/// Result of one workload run in one child process.
pub struct Outcome {
    /// Operations run and checked (timed slices plus the full-pattern
    /// checks around them).
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    pub setup_s: f64,
    /// The wall-clock end-to-end metrics in `Measure` mode;
    /// `bench.trace_overhead_pct` in `Trace` mode.
    pub metrics: Vec<Metric>,
    /// Measured and kept in the artifact, but not part of the contract
    /// (the 99th percentile: see `README.md`).
    pub extra: Vec<Metric>,
    /// The resolved configuration, echoed into the artifact.
    pub config: Value,
    pub tracers: Vec<Tracer>,
}

/// `bench.trace_overhead_pct` of an alternating slice plan: untraced vs
/// traced `ops_per_s`. (`bench.trace_spans` is counted once the
/// workload's virtual-time list has been traced too.)
pub fn trace_overhead(untraced_ops_per_s: &[f64], traced_ops_per_s: &[f64]) -> Vec<Metric> {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (u, t) = (mean(untraced_ops_per_s), mean(traced_ops_per_s));
    vec![Metric::single(
        "bench.trace_overhead_pct",
        "%",
        (u - t) / u * 100.0,
    )]
}
