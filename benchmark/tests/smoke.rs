//! The benchmark checks itself: `BENCHMARK.json` says what `spec.rs`
//! says, a short full pass emits exactly the names both list, and every
//! span file it writes is a well-formed forest.

use std::path::{Path, PathBuf};
use std::process::Command;

use nemesis_benchmark::json::{self, Value};
use nemesis_benchmark::{spec, trace};

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nemesis-benchmark"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemesis-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn names(v: &Value) -> Vec<String> {
    v.fields().iter().map(|(k, _)| k.clone()).collect()
}

fn name_ok(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with: benchmark/run.sh --emit-spec > BENCHMARK.json"
    );
}

#[test]
fn a_short_full_pass_emits_exactly_the_listed_names() {
    let out = scratch("full");
    let run = bench()
        .args(["--seconds", "0.2", "--seed", "5", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        run.status.success(),
        "exit {:?}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    // Every metric is printed as `name value unit`.
    let stdout = String::from_utf8_lossy(&run.stdout);
    let printed = |name: &str| {
        stdout
            .lines()
            .any(|l| l.split(' ').next() == Some(name) && l.split(' ').count() == 3)
    };

    let doc = json::parse(&std::fs::read_to_string(out.join("result.json")).unwrap()).unwrap();
    for key in [
        "nproc",
        "host_llc_bytes",
        "kernel",
        "rustc",
        "commit",
        "thp",
    ] {
        assert!(doc.get("host").unwrap().get(key).is_some(), "header {key}");
    }
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * spec::WORKLOADS.len());
    let end_to_end: Vec<String> = spec::END_TO_END.iter().map(|m| m.name.into()).collect();
    let per_layer: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
    for (i, run) in runs.iter().enumerate() {
        let w = spec::WORKLOADS[i / 2].name;
        assert_eq!(run.get("workload").and_then(Value::as_str), Some(w));
        assert_eq!(run.get("failed").and_then(Value::as_u64), Some(0), "{w}");
        assert!(run.get("attempted").and_then(Value::as_u64).unwrap() > 0);
        assert!(
            run.get("config").is_some(),
            "{w}: resolved config is echoed"
        );
        let traced = run.get("mode").and_then(Value::as_str) == Some("traced");
        assert_eq!(traced, i % 2 == 1);
        let mut got = names(run.get("metrics").unwrap());
        let mut want = if traced {
            per_layer.clone()
        } else {
            end_to_end.clone()
        };
        got.sort();
        want.sort();
        assert_eq!(got, want, "{w} traced={traced}");
        for (name, m) in run.get("metrics").unwrap().fields() {
            assert!(name_ok(name), "{name}");
            assert!(printed(name), "{name} is printed with its unit");
            let v = m.get("value").and_then(Value::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{w}: {name} = {v:?}");
        }
        if traced {
            let file = run.get("spans_file").and_then(Value::as_str).unwrap();
            let spans = trace::check_jsonl(&std::fs::read_to_string(file).unwrap())
                .unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(spans > 0, "{w} recorded no span");
            assert_eq!(run.get("spans_dropped").and_then(Value::as_u64), Some(0));
        }
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn one_workload_one_mode_ends_with_the_contract_line() {
    let out = scratch("line");
    let run = bench()
        .args([
            "--workload",
            "rt_pingpong_64B",
            "--seed",
            "2",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", "0", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(names(&last), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    let mut got = names(last.get("metrics").unwrap());
    let mut want: Vec<String> = spec::END_TO_END.iter().map(|m| m.name.into()).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want);
    for (_, m) in last.get("metrics").unwrap().fields() {
        assert_eq!(names(m), ["value", "unit"]);
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn unknown_workloads_and_arguments_are_refused() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..]] {
        let run = bench().args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(2));
        assert!(run.stdout.is_empty());
    }
}
