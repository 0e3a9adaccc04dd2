//! Self-test of the benchmark against its own contract: every workload runs
//! (shrunken, `--smoke`), prints each metric `BENCHMARK.json` lists exactly
//! once, and repeats its modeled numbers exactly.

use bufferdb_bench::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_bufferdb-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
        .expect("BENCHMARK.json parses")
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    std::fs::create_dir_all(&dir).expect("temp out dir");
    dir
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn workload_names(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one smoke workload; returns the contract line's `metrics` as
/// `name -> (value, unit)` after checking the line's shape.
fn run(workload: &str, trace: bool, dir: &Path) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a last line");
    let doc = Json::parse(line).expect("last line is one JSON object");
    let Json::Obj(fields) = &doc else {
        panic!("last line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(
        doc.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is not an object");
    };
    let mut seen = BTreeMap::new();
    for (name, m) in metrics {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("finite numeric value");
        assert!(value.is_finite());
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .expect("unit")
            .to_string();
        assert!(
            seen.insert(name.clone(), (value, unit)).is_none(),
            "{name} printed twice"
        );
    }
    seen
}

fn assert_prints_exactly(seen: &BTreeMap<String, (f64, String)>, want: &[(String, String)]) {
    let got: Vec<&String> = seen.keys().collect();
    let mut names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    names.sort();
    assert_eq!(got, names, "printed metrics differ from BENCHMARK.json");
    for (name, unit) in want {
        assert_eq!(&seen[name].1, unit, "unit of {name}");
    }
}

#[test]
fn manifest_lists_the_benchmarks_workloads() {
    let doc = benchmark_json();
    let out = Command::new(EXE).arg("list").output().expect("list runs");
    let names: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|l| l.split_whitespace().next().expect("a name").to_string())
        .collect();
    assert_eq!(workload_names(&doc), names);
    assert!(
        listed(&doc, "end_to_end").contains(&("setup_s".to_string(), "s".to_string())),
        "the contract requires a setup_s metric in seconds"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_repeats_modeled_ones() {
    let doc = benchmark_json();
    let want = listed(&doc, "end_to_end");
    let (dir_a, dir_b) = (out_dir("a"), out_dir("b"));
    for workload in workload_names(&doc) {
        let first = run(&workload, false, &dir_a);
        assert_prints_exactly(&first, &want);
        for (name, (value, _)) in &first {
            assert!(*value > 0.0, "{workload}: {name} must never be 0");
        }
        let second = run(&workload, false, &dir_b);
        for (name, (value, _)) in first.iter().filter(|(n, _)| n.starts_with("modeled_")) {
            assert_eq!(
                *value, second[name].0,
                "{workload}: {name} must repeat exactly"
            );
        }
    }
    // The stored results of the two runs agree by the benchmark's own rule.
    let agree = Command::new(EXE)
        .arg("agree")
        .args([&dir_a, &dir_b])
        .output()
        .expect("agree runs");
    let table = String::from_utf8_lossy(&agree.stdout);
    assert!(
        table.contains("modeled_cycles"),
        "agree printed no table:\n{table}"
    );
    assert!(
        !table
            .lines()
            .any(|l| l.contains("modeled_") && l.contains("BREACH")),
        "modeled metrics differ between two runs of one seed:\n{table}"
    );
}

#[test]
fn every_workload_prints_every_per_layer_metric_and_writes_loadable_spans() {
    let doc = benchmark_json();
    let want = listed(&doc, "per_layer");
    let dir = out_dir("trace");
    for workload in workload_names(&doc) {
        let seen = run(&workload, true, &dir);
        assert_prints_exactly(&seen, &want);
        assert_eq!(seen["obs.observer_delta_events"].0, 0.0);
        let components: f64 = ["l1i", "l2", "mispredict", "l1d", "itlb", "base"]
            .iter()
            .map(|c| seen[&format!("cachesim.cycles_{c}")].0)
            .sum();
        assert!(components > 0.0);

        let spans = std::fs::read_to_string(dir.join(format!("{workload}.spans.json")))
            .expect("span file written");
        let trace = Json::parse(&spans).expect("span file parses");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert!(!complete.is_empty(), "{workload}: no spans recorded");
        for e in complete {
            let args = e.get("args").expect("args");
            for key in ["id", "parent", "request"] {
                assert!(
                    args.get(key).and_then(Json::as_u64).is_some(),
                    "span without {key}"
                );
            }
            assert!(e.get("name").is_some() && e.get("ts").is_some() && e.get("dur").is_some());
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &[],
    ] {
        let out = Command::new(EXE).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
