//! The command line: the parent that runs each workload in a child
//! process of its own, and the child that runs one.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::spec::{self, END_TO_END, WORKLOADS};
use crate::stats::Metric;
use crate::workload::{Mode, RunArgs, SetupClock};
use crate::{host, probes, rt_workloads, serve_workloads, sim_lists, trace};

/// What every child runs with beyond a scrubbed `NEMESIS_*`.
const CHILD_ENV: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W]... [--seed N] [--seconds S]
                        [--trace [0|1]] [--out DIR] [--selfcheck]

  --workload W   run only W (repeatable); default: all six
  --seed N       seed of arrival streams, payload patterns, slot and
                 step order (default 1)
  --seconds S    measured seconds per workload run, seven slices of S/7
                 (default 14)
  --trace 0      end-to-end runs only     --trace [1]  traced runs only
                 (default: both, end-to-end first)
  --out DIR      artifact directory (default benchmark/out)
  --selfcheck    run the end-to-end set twice and report whether the
                 medians agree within each metric's bound
";

#[derive(Debug, Clone)]
struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes. `Some(false)`: end-to-end. `Some(true)`: traced.
    trace: Option<bool>,
    out: PathBuf,
    selfcheck: bool,
    emit_spec: bool,
    child: Option<Child>,
    spawned_at: Option<u128>,
}

/// What a child process was spawned to do.
#[derive(Debug, Clone, Copy)]
enum Child {
    /// One run of the workload named by `--workload`.
    Run(Mode),
    /// The per-layer probe set.
    Probes,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        selfcheck: false,
        emit_spec: false,
        child: None,
        spawned_at: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workloads.push(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--out" => o.out = PathBuf::from(value("--out")?),
            "--selfcheck" => o.selfcheck = true,
            "--emit-spec" => o.emit_spec = true,
            "--trace" => {
                o.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            "--child" => {
                o.child = Some(match value("--child")?.as_str() {
                    "measure" => Child::Run(Mode::Measure),
                    "trace" => Child::Run(Mode::Trace),
                    "setup" => Child::Run(Mode::SetupOnly),
                    "probes" => Child::Probes,
                    other => return Err(format!("unknown child mode {other}")),
                })
            }
            "--spawned-at" => {
                o.spawned_at = Some(
                    value("--spawned-at")?
                        .parse()
                        .map_err(|e| format!("--spawned-at: {e}"))?,
                )
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for w in &o.workloads {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    Ok(o)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let clock_started = SetupClock::unix_now_ns();
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprint!("{USAGE}");
            return 2;
        }
    };
    if opts.emit_spec {
        print!("{}", spec::benchmark_json().pretty());
        return 0;
    }
    match opts.child {
        Some(Child::Run(mode)) => child(&opts, mode, clock_started),
        Some(Child::Probes) => probes_child(&opts),
        None if opts.selfcheck => selfcheck(&opts),
        None => parent(&opts),
    }
}

// ---------------------------------------------------------------- child

fn child(opts: &Opts, mode: Mode, main_started_unix_ns: u128) -> i32 {
    let name = opts.workloads[0].as_str();
    let w = spec::workload(name).expect("validated");
    if w.threads > host::nproc() {
        eprintln!(
            "refused: {name} needs {} busy threads, this host offers {}; \
             a time-sliced number is not a measurement",
            w.threads,
            host::nproc()
        );
        return 3;
    }
    let args = RunArgs {
        seed: opts.seed,
        seconds: opts.seconds,
        mode,
        clock: SetupClock::new(opts.spawned_at.or(Some(main_started_unix_ns))),
    };
    let mut outcome = match name {
        n if n.starts_with("rt_") => rt_workloads::run(n, &args),
        n => serve_workloads::run(n, &args),
    };
    // Before the virtual-time list runs: the peak must be the
    // wall-clock workload's own.
    let peak_rss_mib = host::peak_rss_mib();
    if mode != Mode::SetupOnly {
        // Only one simulator thread ever runs: keep them all on one CPU.
        let pinned = host::pin_to_current_cpu();
        let epoch = (mode == Mode::Trace).then(std::time::Instant::now);
        let list = sim_lists::run_carried(name, opts.seed, epoch);
        outcome.attempted += list.ops();
        outcome.failed += list.failed;
        outcome
            .config
            .set("virtual_list", sim_lists::carried_json(name, &list, pinned));
        if mode == Mode::Measure {
            outcome.metrics.extend(sim_lists::sim_metrics(&list));
        } else {
            outcome.tracers.extend(list.tracers);
            let spans: usize = outcome.tracers.iter().map(|t| t.spans().len()).sum();
            outcome
                .metrics
                .push(Metric::single("bench.trace_spans", "count", spans as f64));
        }
    }
    let mut result = Value::obj()
        .with("workload", name)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("setup_s", outcome.setup_s)
        .with("config", outcome.config.clone());
    if mode != Mode::SetupOnly {
        result.set("peak_rss_mib", peak_rss_mib);
    }
    if mode == Mode::Trace {
        let path = opts.out.join(format!("trace-{name}.jsonl"));
        match trace::write_jsonl(&path, &outcome.tracers) {
            Ok(written) => result.set("spans_written", written),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return 1;
            }
        }
        result.set("spans_file", path.display().to_string());
        result.set(
            "spans_dropped",
            outcome.tracers.iter().map(|t| t.dropped).sum::<u64>(),
        );
    }
    result.set("metrics", metrics_json(&outcome.metrics));
    if !outcome.extra.is_empty() {
        result.set("extra_metrics", metrics_json(&outcome.extra));
    }
    println!("{result}");
    0
}

fn probes_child(opts: &Opts) -> i32 {
    let probed = probes::run_all(opts.seed, opts.seconds);
    println!(
        "{}",
        Value::obj()
            .with("attempted", probed.attempted)
            .with("failed", probed.failed)
            .with("metrics", metrics_json(&probed.metrics))
    );
    0
}

fn metrics_json(metrics: &[Metric]) -> Value {
    let mut m = Value::obj();
    for metric in metrics {
        m.set(&metric.name, metric.to_json());
    }
    m
}

// --------------------------------------------------------------- parent

/// Spawn one child run and parse the result line it prints.
fn spawn_child(opts: &Opts, name: &str, mode: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // The program under test must not read its configuration from the
    // caller's environment.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("NEMESIS_") {
            cmd.env_remove(k);
        }
    }
    // Which glibc arena a thread allocates from is decided by a race at
    // its first `malloc`; with one arena peak RSS repeats (on
    // `serve_saturated` it otherwise flips between 47 and 64 MiB).
    cmd.env(CHILD_ENV.0, CHILD_ENV.1);
    cmd.args(["--spawned-at", &SetupClock::unix_now_ns().to_string()]);
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("spawning {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} ({mode}) exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{name} ({mode}) printed nothing"))?;
    json::parse(line).map_err(|e| format!("{name} ({mode}) result: {e}"))
}

/// One end-to-end run of a workload: `SETUPS - 1` set-up-only children,
/// then the measuring child; `setup_s` is the median of all set-ups.
fn run_end_to_end(opts: &Opts, name: &str) -> Result<Value, String> {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let r = spawn_child(opts, name, "setup")?;
        setups.push(r.get("setup_s").and_then(Value::as_f64).unwrap_or(f64::NAN));
    }
    let mut run = spawn_child(opts, name, "measure")?;
    setups.push(
        run.get("setup_s")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
    );
    let rss = run
        .get("peak_rss_mib")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    let mut metrics = Value::obj()
        .with("setup_s", Metric::new("setup_s", "s", setups).to_json())
        .with(
            "peak_rss_mib",
            Metric::single("peak_rss_mib", "MiB", rss).to_json(),
        );
    for (k, v) in run.get("metrics").map_or(&[][..], Value::fields) {
        metrics.set(k, v.clone());
    }
    run.set("metrics", metrics);
    run.set("mode", "end_to_end");
    Ok(run)
}

/// One traced run of a workload: the child that traces it, then the
/// per-layer probes in a fresh process of their own.
fn run_traced(opts: &Opts, name: &str) -> Result<Value, String> {
    let mut run = spawn_child(opts, name, "trace")?;
    run.set("mode", "traced");
    let probed = spawn_child(opts, name, "probes")?;
    let mut metrics = run.get("metrics").cloned().unwrap_or_else(Value::obj);
    for (k, v) in probed.get("metrics").map_or(&[][..], Value::fields) {
        metrics.set(k, v.clone());
    }
    for key in ["attempted", "failed"] {
        let sum = |v: &Value| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        run.set(key, sum(&run) + sum(&probed));
    }
    // Say in the artifact which numbers do not repeat within a tenth.
    for layer in spec::per_layer().iter().filter(|m| m.noisy) {
        if let Some(m) = metrics.get(&layer.name).cloned() {
            metrics.set(&layer.name, m.with("noisy", true));
        }
    }
    run.set("metrics", metrics);
    Ok(run)
}

/// Check one run against the names the contract lists and fold its
/// verdict; returns `(correct, attempted, failed)`.
fn verdict(run: &Value, expect: &[String]) -> (bool, u64, u64) {
    let attempted = run.get("attempted").and_then(Value::as_u64).unwrap_or(0);
    let mut failed = run.get("failed").and_then(Value::as_u64).unwrap_or(1);
    let metrics = run.get("metrics");
    for name in expect {
        let ok = metrics
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite);
        if !ok {
            eprintln!(
                "error: {}: metric {name} is missing or not a number",
                run.get("workload").and_then(Value::as_str).unwrap_or("?")
            );
            failed += 1;
        }
    }
    (failed == 0 && attempted > 0, attempted.max(1), failed)
}

fn print_metrics(run: &Value) {
    let w = run.get("workload").and_then(Value::as_str).unwrap_or("?");
    let mode = run.get("mode").and_then(Value::as_str).unwrap_or("?");
    println!(
        "# {w} ({mode}): attempted {} failed {}",
        run.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        run.get("failed").and_then(Value::as_u64).unwrap_or(0)
    );
    for (name, m) in run.get("metrics").map_or(&[][..], Value::fields) {
        println!(
            "{name} {} {}",
            m.get("value").unwrap_or(&Value::Null),
            m.get("unit").and_then(Value::as_str).unwrap_or("")
        );
    }
}

/// The last line the contract asks of a single-workload, single-mode
/// invocation.
fn contract_line(run: &Value, correct: bool, attempted: u64, failed: u64) -> Value {
    let mut metrics = Value::obj();
    for (name, m) in run.get("metrics").map_or(&[][..], Value::fields) {
        metrics.set(
            name,
            Value::obj()
                .with("value", m.get("value").cloned().unwrap_or(Value::Null))
                .with("unit", m.get("unit").cloned().unwrap_or(Value::Null)),
        );
    }
    Value::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
}

fn end_to_end_names() -> Vec<String> {
    END_TO_END.iter().map(|m| m.name.to_string()).collect()
}

fn per_layer_names() -> Vec<String> {
    spec::per_layer().into_iter().map(|m| m.name).collect()
}

fn artifact_header(opts: &Opts) -> Value {
    Value::obj()
        .with("host", host::header())
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("slices", crate::workload::SLICES)
        .with("setups_per_run", SETUPS)
        .with("child_env", Value::obj().with(CHILD_ENV.0, CHILD_ENV.1))
        .with("not_measured", spec::NOT_MEASURED.map(Value::from).to_vec())
        .with(
            "per_layer",
            spec::per_layer()
                .into_iter()
                .map(|m| {
                    Value::obj()
                        .with("name", m.name)
                        .with("moves", m.moves)
                        .with("noisy", m.noisy)
                })
                .collect::<Vec<_>>(),
        )
}

fn write_artifact(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn parent(opts: &Opts) -> i32 {
    let passes: &[bool] = match opts.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut runs = Vec::new();
    let (mut all_correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut last = None;
    for name in &opts.workloads {
        for &traced in passes {
            let (run, expect) = if traced {
                (run_traced(opts, name), per_layer_names())
            } else {
                (run_end_to_end(opts, name), end_to_end_names())
            };
            let run = match run {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let (c, a, f) = verdict(&run, &expect);
            print_metrics(&run);
            all_correct &= c;
            attempted += a;
            failed += f;
            last = Some(contract_line(&run, c, a, f));
            runs.push(run);
        }
    }
    let doc = artifact_header(opts).with("runs", runs);
    let path = opts.out.join("result.json");
    if let Err(e) = write_artifact(&path, &doc) {
        eprintln!("error: {e}");
        return 1;
    }
    // One workload, one mode: the driver's invocation. Its last line is
    // the contract's result object; otherwise a summary.
    let single = opts.workloads.len() == 1 && passes.len() == 1;
    match last.filter(|_| single) {
        Some(line) => println!("{line}"),
        None => println!(
            "{}",
            Value::obj()
                .with("correct", all_correct)
                .with("attempted", attempted)
                .with("failed", failed)
                .with("artifact", path.display().to_string())
        ),
    }
    i32::from(!all_correct)
}

// ------------------------------------------------------------ selfcheck

/// Whether two medians of one metric agree: to the last bit for the
/// virtual-time metrics, within the bound (of the first) otherwise.
fn agrees(m: &spec::EndToEnd, first: f64, second: f64) -> bool {
    if spec::is_exact(m.name) {
        return first == second;
    }
    (second - first).abs() <= m.bound * first.abs()
}

fn selfcheck(opts: &Opts) -> i32 {
    let mut sets: Vec<Vec<Value>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for name in &opts.workloads {
            eprintln!("selfcheck: set {} of 2, {name}", set + 1);
            match run_end_to_end(opts, name) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        sets.push(runs);
    }
    let mut rows = Vec::new();
    let mut all = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        let w = a.get("workload").and_then(Value::as_str).unwrap_or("?");
        for run in [a, b] {
            all &= verdict(run, &end_to_end_names()).0;
        }
        for m in &END_TO_END {
            let get = |run: &Value| {
                run.get("metrics")
                    .and_then(|x| x.get(m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let (x, y) = (get(a), get(b));
            let ok = agrees(m, x, y);
            all &= ok;
            println!(
                "{w} {} {x} {y} {} {}",
                m.name,
                m.unit,
                if ok { "agree" } else { "DISAGREE" }
            );
            rows.push(
                Value::obj()
                    .with("workload", w)
                    .with("metric", m.name)
                    .with("unit", m.unit)
                    .with("first", x)
                    .with("second", y)
                    .with("rel_diff", ((y - x) / x).abs())
                    .with(
                        "bound",
                        if spec::is_exact(m.name) {
                            Value::from("exact")
                        } else {
                            Value::from(m.bound)
                        },
                    )
                    .with("agree", ok),
            );
        }
    }
    let doc = artifact_header(opts).with("agree", all).with("rows", rows);
    let path = opts.out.join("selfcheck.json");
    if let Err(e) = write_artifact(&path, &doc) {
        eprintln!("error: {e}");
        return 1;
    }
    println!(
        "{}",
        Value::obj()
            .with("agree", all)
            .with("artifact", path.display().to_string())
    );
    i32::from(!all)
}
