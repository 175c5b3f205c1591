//! Per-layer probes. Every traced run ends with the whole set, so every
//! traced run reports every per-layer metric. Each probe times public
//! calls of one layer or reads its public counters. The set runs in a
//! process of its own, so that no number depends on which workload was
//! traced before it.

use std::time::{Duration, Instant};

use crate::stats::{median, Metric};

mod code;
mod rt;
mod serve;
mod sim;

pub struct Probed {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// What a probe gets: the run's seed and how long a timed probe may
/// take, which scales with `--seconds` so the smoke test stays short.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seed: u64,
    /// Wall time of one micro-probe (a loop over one call).
    pub micro: Duration,
    /// Wall time of one macro-probe (a short closed loop or service run).
    pub macro_s: f64,
}

impl Budget {
    pub fn new(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            micro: Duration::from_secs_f64((seconds / 100.0).clamp(0.002, 0.1)),
            macro_s: (seconds / 40.0).clamp(0.01, 0.25),
        }
    }
}

/// Nanoseconds per iteration of `batch(n)`, which runs the call under
/// test `n` times: the median over as many batches as the budget holds
/// (three at least).
pub fn ns_per_iter(budget: Duration, n: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(n); // warm caches and lazy set-up
    let t0 = Instant::now();
    let mut per_iter = Vec::new();
    while per_iter.len() < 3 || t0.elapsed() < budget {
        let b0 = Instant::now();
        batch(n);
        per_iter.push(b0.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&per_iter)
}

pub fn run_all(seed: u64, seconds: f64) -> Probed {
    let b = Budget::new(seed, seconds);
    let mut out = Probed {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    rt::run(&b, &mut out);
    serve::run(&b, &mut out);
    sim::run(&b, &mut out);
    code::run(&mut out);
    out
}
