//! Metric names, the result a run produces, and how it is printed and stored.

use crate::stats::Summary;
use bufferdb_bench::json::Json;
use std::path::{Path, PathBuf};

/// End-to-end metrics: every workload reports every one of them from an
/// untraced run. `(name, unit)`; bounds and directions live in
/// `BENCHMARK.json`, which the self-test checks against this list.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_host_s", "1/s"),
    ("sim_minstr_per_host_s", "Minstr/s"),
    ("host_cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
    ("query_host_us_p50", "us"),
    ("query_host_us_p95", "us"),
    ("modeled_cycles", "cycles"),
    ("modeled_l1i_misses", "count"),
    ("modeled_latency_ms_p50", "ms"),
];

/// Per-layer metrics: every workload reports every one of them from a traced
/// run; a layer the workload never enters reports 0 calls, 0 time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tpch.generate_catalog_s", "s"),
    ("tpch.rows_generated", "count"),
    ("storage.table_lookup_ns", "ns"),
    ("storage.bump_epoch_ns", "ns"),
    ("index.btree_lookup_ns", "ns"),
    ("cachesim.instructions", "count"),
    ("cachesim.l1i_accesses", "count"),
    ("cachesim.l1i_misses", "count"),
    ("cachesim.l1d_accesses", "count"),
    ("cachesim.l1d_misses", "count"),
    ("cachesim.l2_accesses", "count"),
    ("cachesim.l2_misses", "count"),
    ("cachesim.l2_covered", "count"),
    ("cachesim.itlb_misses", "count"),
    ("cachesim.branches", "count"),
    ("cachesim.mispredictions", "count"),
    ("cachesim.sim_events", "count"),
    ("cachesim.cycles_l1i", "cycles"),
    ("cachesim.cycles_l2", "cycles"),
    ("cachesim.cycles_mispredict", "cycles"),
    ("cachesim.cycles_l1d", "cycles"),
    ("cachesim.cycles_itlb", "cycles"),
    ("cachesim.cycles_base", "cycles"),
    ("cachesim.host_ns_per_sim_event", "ns"),
    ("cachesim.exec_region_alt_ns", "ns"),
    ("cachesim.exec_region_rep_ns", "ns"),
    ("cachesim.exec_region_heat_ns", "ns"),
    ("cachesim.cache_access_hit_ns", "ns"),
    ("cachesim.cache_access_miss_ns", "ns"),
    ("cachesim.data_read_ns", "ns"),
    ("cachesim.branch_ns", "ns"),
    ("cachesim.machine_new_us", "us"),
    ("cachesim.region_replay_share", "ratio"),
    ("exec.build_executor_us", "us"),
    ("exec.context_new_us", "us"),
    ("exec.open_s", "s"),
    ("exec.drive_s", "s"),
    ("exec.close_s", "s"),
    ("exec.next_calls", "count"),
    ("exec.rows_out", "count"),
    ("exec.buffers", "count"),
    ("exec.push_pipelines", "count"),
    ("exec.buffer_fills", "count"),
    ("exec.buffer_avg_occupancy", "ratio"),
    ("exec.host_ns_per_next_call", "ns"),
    ("exec.seqscan_next_ns", "ns"),
    ("exec.buffer_next_ns", "ns"),
    ("exec.push_ns_per_input_row", "ns"),
    ("optimizer.choose_modes_us", "us"),
    ("parallel.parallelize_us", "us"),
    ("refine.refine_plan_us", "us"),
    ("refine.buffers_placed", "count"),
    ("prepare.fingerprint_us", "us"),
    ("prepare.hit_us_p50", "us"),
    ("prepare.miss_us_p50", "us"),
    ("prepare.execute_us_p50", "us"),
    ("prepare.hit_ratio", "ratio"),
    ("prepare.evictions", "count"),
    ("prepare.invalidations", "count"),
    ("prepare.reuse_hit_ratio", "ratio"),
    ("prepare.reuse_harvest_us", "us"),
    ("session.query_fixed_us", "us"),
    ("server.submit_us_p50", "us"),
    ("server.ticket_wait_ms_p50", "ms"),
    ("server.units", "count"),
    ("server.steals", "count"),
    ("server.steal_ratio", "ratio"),
    ("server.cores_busy", "cores"),
    ("server.virt_host_s", "s"),
    ("server.virt_turns", "count"),
    ("server.virt_host_us_per_turn", "us"),
    ("server.virt_submit_us_p50", "us"),
    ("server.virt_run_until_ms_p50", "ms"),
    ("server.virt_queue_wait_ms_p50", "ms"),
    ("server.virt_l1i_cross_misses", "count"),
    ("obs.profile_overhead_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.heatmap_overhead_pct", "%"),
    ("obs.recorder_overhead_pct", "%"),
    ("obs.observer_delta_events", "count"),
    ("paper.speedup_buffered", "x"),
    ("paper.speedup_push", "x"),
    ("paper.err_pp", "pp"),
    ("bench.span_overhead_pct", "%"),
];

/// The values of one metric list. Every name starts at 0 — a layer that did
/// no work — and is set at most once.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            names,
            values: vec![None; names.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's list"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    /// Whether every metric of the list was measured (end-to-end lists must
    /// be; per-layer lists leave unvisited layers at 0).
    pub fn complete(&self) -> bool {
        self.values.iter().all(Option::is_some)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.names
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), v)| (n, u, v.unwrap_or(0.0)))
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(n, u, v)| {
                    (
                        n.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::F64(v)),
                            ("unit".into(), Json::str(u)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// No failed operation and every internal invariant held.
    pub correct: bool,
    pub metrics: Metrics,
    /// Distribution behind a reported median, for the human-readable table.
    pub details: Vec<(String, Summary)>,
    /// The workload's constants (scale factors, rates, counts).
    pub constants: Vec<(String, Json)>,
}

/// `j` on one line. Strings are escaped by the renderer, so every raw
/// newline in its output is layout.
pub fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

/// The object the benchmark contract wants as the last line of stdout.
pub fn contract_line(r: &RunResult) -> String {
    one_line(&Json::Obj(vec![
        ("correct".into(), Json::Bool(r.correct)),
        ("attempted".into(), Json::U64(r.attempted)),
        ("failed".into(), Json::U64(r.failed)),
        ("metrics".into(), r.metrics.to_json()),
    ]))
}

/// Human-readable table: every metric by name with its unit, then the
/// distributions behind the medians.
pub fn print_table(r: &RunResult) {
    println!(
        "workload {}: attempted {} failed {} correct {}",
        r.workload, r.attempted, r.failed, r.correct
    );
    for (name, unit, value) in r.metrics.iter() {
        println!("  {name:<34} {value:>20.6} {unit}");
    }
    for (what, s) in &r.details {
        println!(
            "  [{what}] n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4} iqr/median={:.4}",
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            s.spread()
        );
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Default directory for result and span files: `out/` beside this package's
/// manifest, wherever the benchmark was started from.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Store the run as `<dir>/<workload>.json` (`.trace.json` for a traced run)
/// with what is needed to read it later without this checkout.
pub fn write_result(dir: &Path, r: &RunResult, seed: u64, seconds: u64, trace: bool) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("bufferdb-benchmark/v1")),
        ("workload".into(), Json::str(r.workload)),
        ("seed".into(), Json::U64(seed)),
        ("seconds".into(), Json::U64(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("git_commit".into(), Json::str(commit)),
        (
            "nproc".into(),
            Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        ("constants".into(), Json::Obj(r.constants.clone())),
        ("correct".into(), Json::Bool(r.correct)),
        ("attempted".into(), Json::U64(r.attempted)),
        ("failed".into(), Json::U64(r.failed)),
        ("metrics".into(), r.metrics.to_json()),
    ]);
    std::fs::create_dir_all(dir).expect("create the benchmark's out directory");
    let suffix = if trace { "trace.json" } else { "json" };
    let path = dir.join(format!("{}.{suffix}", r.workload));
    std::fs::write(&path, doc.pretty()).expect("write the result file");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(name, "_.-", 64), "bad metric name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn unset_metrics_read_zero_and_the_line_is_one_line() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.25);
        assert!(!m.complete());
        let r = RunResult {
            workload: "w",
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: m,
            details: vec![],
            constants: vec![],
        };
        let line = contract_line(&r);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = doc.get("metrics").unwrap();
        let value = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("setup_s"), Some(0.25));
        assert_eq!(value("peak_rss_mb"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's list")]
    fn unknown_metric_is_a_bug() {
        Metrics::new(END_TO_END).set("nope", 1.0);
    }
}
