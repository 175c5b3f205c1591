//! The virtual-time lists. The paper's two — the point-to-point ladder
//! of Fig. 3–6 and the collectives and applications of Fig. 7 and
//! Table 1 — run on the simulated e5345, cost host time that does not
//! repeat on a shared host, and are judged by virtual time, misses and
//! polls, which repeat to the last bit. Every wall-clock workload carries
//! one part of them (or, for the two smallest, its own exchange in
//! virtual time), so the three `sim_*` metrics exist on every workload.

use std::time::Instant;

use nemesis_sim::topology::Placement;
use nemesis_workloads::nas::NasKernel;

use crate::json::Value;
use crate::sim_script::{
    nemesis_config_json, run_script, Exchange, ScriptResult, SimCfg, Universe,
};
use crate::stats::Metric;

/// The point-to-point ladder: sizes on both sides of the 64 KiB eager
/// limit and of the 1 MiB `DMAmin`, repetitions falling with size so no
/// one size owns the host time. Caches are not flushed between rungs.
fn ladder() -> Vec<Exchange> {
    vec![
        Exchange::pingpong(64, 96),
        Exchange::pingpong(4 << 10, 64),
        Exchange::pingpong(64 << 10, 24),
        Exchange::pingpong(256 << 10, 12),
        Exchange::pingpong(1 << 20, 6),
        Exchange::pingpong(4 << 20, 3),
    ]
}

/// One of the paper's two lists, whole (the probes run them so). It is
/// fixed: the seed only picks the payload patterns, which virtual time
/// does not depend on.
pub fn script(name: &str) -> Option<Vec<Universe>> {
    Some(match name {
        // Fig. 3–6 in virtual time: every backend choice of the blended
        // rule on both placements, then the learned stack on the pair
        // without a shared cache.
        "sim_pt2pt" => vec![
            Universe::Pair {
                placement: Placement::SharedL2,
                cfg: SimCfg::PaperStatic,
                steps: ladder(),
            },
            Universe::Pair {
                placement: Placement::DifferentSocket,
                cfg: SimCfg::PaperStatic,
                steps: ladder(),
            },
            Universe::Pair {
                placement: Placement::DifferentSocket,
                cfg: SimCfg::AllLearned,
                steps: vec![
                    Exchange::pingpong(128 << 10, 64),
                    Exchange::pingpong(1 << 20, 64),
                ],
            },
        ],
        // Fig. 7 / Table 1: eight ranks, concurrent transfers, bus
        // contention. Two halves, each alltoalls then two NAS proxies:
        // the small-message half (latency-bound CG and MG) and the
        // large-message half (the transposes of IS and FT, where the
        // paper's kernel-assisted copies pay).
        "sim_coll" => {
            let alltoall = |steps| Universe::Alltoall {
                cfg: SimCfg::PaperStatic,
                steps,
            };
            let nas = |kernel| Universe::Nas {
                cfg: SimCfg::PaperStatic,
                kernel,
            };
            vec![
                alltoall(vec![(4 << 10, 3), (32 << 10, 4)]),
                nas(NasKernel::Cg8),
                nas(NasKernel::Mg8),
                alltoall(vec![(128 << 10, 2), (1 << 20, 1)]),
                nas(NasKernel::Is8),
                nas(NasKernel::Ft8),
            ]
        }
        _ => return None,
    })
}

/// The virtual-time list a wall-clock workload carries. The two
/// small-message workloads carry their own exchange on the e5345 under
/// the paper-static configuration; the two large-message ones the
/// ladder on the placement that is their regime (shared cache, and
/// across sockets followed by the learned stack); the two serving ones
/// have no counterpart in the paper and carry its collectives and
/// applications, the small-message half and the large-message half.
pub fn carried(name: &str) -> Option<Vec<Universe>> {
    let exchange = |bytes, window, reply, reps| {
        vec![Universe::Pair {
            placement: Placement::SharedL2,
            cfg: SimCfg::PaperStatic,
            steps: vec![Exchange {
                bytes,
                window,
                reply,
                reps,
                warmup: 2,
            }],
        }]
    };
    let part =
        |list: &str, universes: std::ops::Range<usize>| script(list).map(|l| l[universes].to_vec());
    match name {
        "rt_pingpong_64B" => Some(exchange(64, 1, 64, 64)),
        "rt_stream_4KiB" => Some(exchange(4 << 10, 64, 16, 8)),
        "rt_large_cached" => part("sim_pt2pt", 0..1),
        "rt_large_stream" => part("sim_pt2pt", 1..3),
        "serve_mmpp" => part("sim_coll", 0..3),
        "serve_saturated" => part("sim_coll", 3..6),
        _ => None,
    }
}

/// The three exact metrics, from one run of a script.
pub fn sim_metrics(r: &ScriptResult) -> Vec<Metric> {
    vec![
        Metric::single("sim_us_per_op", "sim-us", r.sim_us_per_op()),
        Metric::single("sim_l2_miss_per_op", "count", r.l2_miss_per_op()),
        Metric::single("sim_polls_per_op", "count", r.polls_per_op()),
    ]
}

/// Run a workload's virtual-time list; `trace` is the span epoch of a
/// traced run.
pub fn run_carried(name: &str, seed: u64, trace: Option<Instant>) -> ScriptResult {
    run_script(&carried(name).expect("a workload name"), seed, trace)
}

/// What the artifact keeps of a list: its configurations and what each
/// step cost.
pub fn carried_json(name: &str, r: &ScriptResult, pinned: bool) -> Value {
    let list = carried(name).expect("a workload name");
    let cfgs: Vec<Value> = [SimCfg::PaperStatic, SimCfg::AllLearned]
        .into_iter()
        .filter(|c| list.iter().any(|u| u.cfg() == *c))
        .map(nemesis_config_json)
        .collect();
    let steps = r
        .steps
        .iter()
        .map(|s| {
            Value::obj()
                .with("step", s.label.as_str())
                .with("ops", s.ops)
                .with("sim_us", s.virt_ps as f64 / 1e6)
                .with("l2_misses", s.l2_misses)
        })
        .collect::<Vec<_>>();
    Value::obj()
        .with("pinned", pinned)
        .with("nemesis_configs", cfgs)
        .with("steps", steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_workload_carries_a_list_and_the_lists_are_covered() {
        for w in &WORKLOADS {
            assert!(carried(w.name).is_some_and(|t| !t.is_empty()), "{}", w.name);
        }
        let universes =
            |names: &[&str]| -> usize { names.iter().map(|n| carried(n).unwrap().len()).sum() };
        assert_eq!(
            universes(&["rt_large_cached", "rt_large_stream"]),
            script("sim_pt2pt").unwrap().len()
        );
        assert_eq!(
            universes(&["serve_mmpp", "serve_saturated"]),
            script("sim_coll").unwrap().len()
        );
    }
}
