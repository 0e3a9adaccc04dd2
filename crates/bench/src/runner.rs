//! Shared plan-execution helpers for the experiments, plus the JSON
//! metrics report the `repro` binary exports for CI artifacts.

use crate::json::{Json, SCHEMA_VERSION};
use bufferdb_cachesim::{format_counter_comparison, pct_reduction, MachineConfig};
use bufferdb_core::exec::{drive_root, execute_query, Operator, QueryOutcome};
use bufferdb_core::fault::FaultRegistry;
use bufferdb_core::footprint::FootprintModel;
use bufferdb_core::obs::{ExchangeLane, HistSummary, TraceReport};
use bufferdb_core::plan::PlanNode;
use bufferdb_core::session::QueryOpts;
use bufferdb_core::stats::ExecStats;
use bufferdb_storage::Catalog;
use bufferdb_types::{DbError, Tuple};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Per-process query timeout in milliseconds, set once from `--timeout-ms`
/// before the experiments run.
static QUERY_TIMEOUT_MS: OnceLock<u64> = OnceLock::new();

/// Fault registry shared by every query of the process, armed once from the
/// `BUFFERDB_FAULT` environment variable.
static FAULTS: OnceLock<Arc<FaultRegistry>> = OnceLock::new();

/// Install a per-query timeout for every subsequent [`run_plan`] call.
/// Call at most once, before the experiments start.
pub fn set_query_timeout_ms(ms: u64) {
    let _ = QUERY_TIMEOUT_MS.set(ms);
}

fn fault_registry() -> Arc<FaultRegistry> {
    FAULTS
        .get_or_init(|| match FaultRegistry::from_env() {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("error: invalid BUFFERDB_FAULT: {msg}");
                std::process::exit(2);
            }
        })
        .clone()
}

/// Profiled [`QueryOpts`] carrying the process-wide timeout
/// (`--timeout-ms`) and fault registry (`BUFFERDB_FAULT`) — the same
/// wiring [`run_plan`] applies, for experiments that drive
/// `execute_query` themselves.
pub(crate) fn profiled_exec_options(threads: usize) -> QueryOpts {
    exec_options(threads, false).profile(true)
}

/// See [`report_failure_and_exit`]: the CLI failure contract (exit 3 for a
/// timeout with partial counters, exit 1 otherwise) for experiments that
/// drive `execute_query` themselves.
pub(crate) fn fail_query(label: &str, stats: &ExecStats, rows: usize, err: DbError) -> ! {
    report_failure_and_exit(label, stats, rows, err)
}

fn exec_options(threads: usize, trace: bool) -> QueryOpts {
    let mut opts = QueryOpts::new()
        .threads(threads)
        .trace(trace)
        .faults(fault_registry());
    if let Some(&ms) = QUERY_TIMEOUT_MS.get() {
        opts = opts.timeout(Duration::from_millis(ms));
    }
    opts
}

/// Exit for a failed benchmark query: cancellations (timeouts) exit with
/// code 3 after reporting the partial counters; anything else exits 1.
fn report_failure_and_exit(label: &str, stats: &ExecStats, rows: usize, err: DbError) -> ! {
    match err {
        DbError::Cancelled(msg) => {
            eprintln!("{label}: query cancelled ({msg})");
            eprintln!(
                "{label}: partial progress: {rows} rows, {} instructions, {} L1i misses (counters conserved)",
                stats.counters.instructions, stats.counters.l1i_misses
            );
            std::process::exit(3);
        }
        other => {
            eprintln!("{label}: {other}");
            std::process::exit(1);
        }
    }
}

/// One executed plan with its measurements.
#[derive(Debug)]
pub struct RunResult {
    /// Display label ("Original Plan", "Buffered Plan", …).
    pub label: String,
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// Simulated counters and cost breakdown.
    pub stats: ExecStats,
    /// Flight-recorder trace, when the run was traced.
    pub trace: Option<TraceReport>,
}

impl RunResult {
    /// The paper-style breakdown row for this run.
    pub fn chart_row(&self) -> String {
        self.stats.breakdown.chart_row(&self.label)
    }
}

/// Execute `plan` and package the measurements. Applies the process-wide
/// timeout (`--timeout-ms`) and fault registry (`BUFFERDB_FAULT`); on
/// failure, reports and exits (code 3 for a timeout, 1 otherwise) instead
/// of panicking.
pub fn run_plan(label: &str, plan: &PlanNode, catalog: &Catalog, cfg: &MachineConfig) -> RunResult {
    run_plan_threads(label, plan, catalog, cfg, 1)
}

/// [`run_plan`] with a worker budget for intra-operator parallelism (the
/// partitioned hash-join build; exchange fan-out comes from the plan).
pub fn run_plan_threads(
    label: &str,
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &MachineConfig,
    threads: usize,
) -> RunResult {
    run_plan_inner(label, plan, catalog, cfg, threads, false)
}

/// [`run_plan_threads`] with the flight recorder enabled; the trace rides
/// on the result for Perfetto export or histogram extraction.
pub fn run_plan_traced(
    label: &str,
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &MachineConfig,
    threads: usize,
) -> RunResult {
    run_plan_inner(label, plan, catalog, cfg, threads, true)
}

fn run_plan_inner(
    label: &str,
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &MachineConfig,
    threads: usize,
    trace: bool,
) -> RunResult {
    let outcome = execute_query(plan, catalog, cfg, &exec_options(threads, trace));
    package(label, outcome)
}

/// [`run_plan`] for an operator tree assembled by hand (built against
/// `fm`) instead of from a plan: same spine, same process-wide timeout and
/// fault registry, same failure contract.
pub(crate) fn run_root(
    label: &str,
    root: Box<dyn Operator>,
    fm: &FootprintModel,
    cfg: &MachineConfig,
) -> RunResult {
    package(label, drive_root(root, fm, cfg, &exec_options(1, false)))
}

fn package(label: &str, mut outcome: QueryOutcome) -> RunResult {
    let trace = outcome.take_trace();
    let (rows, stats, _profile, error) = outcome.into_parts();
    if let Some(err) = error {
        report_failure_and_exit(label, &stats, rows.len(), err);
    }
    RunResult {
        label: label.to_string(),
        rows,
        stats,
        trace,
    }
}

/// Percentage reduction of `after` relative to `before` (positive = fewer).
/// Re-exported from the simulator crate, which owns all report formatting.
pub fn reduction(before: u64, after: u64) -> f64 {
    pct_reduction(before, after)
}

/// Format a side-by-side original/buffered comparison in the paper's style.
pub fn comparison_report(title: &str, original: &RunResult, buffered: &RunResult) -> String {
    let (o, b) = (&original.stats, &buffered.stats);
    let mut s = String::new();
    s.push_str(&format!("== {title} ==\n"));
    s.push_str(&format!("{}\n", original.chart_row()));
    s.push_str(&format!("{}\n", buffered.chart_row()));
    s.push_str(&format_counter_comparison(&o.counters, &b.counters));
    s.push_str(&format!(
        "elapsed (modeled)  : {:>10.3}s -> {:>10.3}s  ({:+.1}% improvement)\n",
        o.seconds(),
        b.seconds(),
        100.0 * b.improvement_over(o)
    ));
    s
}

/// One query-variant measurement destined for the JSON report.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// Query name ("Q1", "paper q3 mj", …).
    pub query: String,
    /// Plan variant ("original", "refined").
    pub variant: String,
    /// Buffer operators in the executed plan.
    pub buffers: u64,
    /// Result rows.
    pub rows: u64,
    /// Modeled elapsed seconds.
    pub modeled_seconds: f64,
    /// Modeled cost per instruction.
    pub cpi: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// L1 instruction (trace) cache misses.
    pub l1i_misses: u64,
    /// L2 misses that paid memory latency.
    pub l2_misses: u64,
    /// Branch mispredictions.
    pub mispredictions: u64,
    /// ITLB misses.
    pub itlb_misses: u64,
    /// Flight-recorder histogram summaries (empty when the run was not
    /// traced). Additive to the `bufferdb-metrics/v1` schema.
    pub histograms: Vec<HistogramMetric>,
}

/// Quantile summary of one flight-recorder histogram, destined for the
/// JSON metrics report.
#[derive(Debug, Clone)]
pub struct HistogramMetric {
    /// Metric name (e.g. `morsel_service_ns`).
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Median (log₂-bucket upper bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistogramMetric {
    /// Package a named histogram summary for export.
    pub fn from_summary(name: &str, s: &HistSummary) -> Self {
        HistogramMetric {
            name: name.to_string(),
            count: s.count,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
            max: s.max,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("count".into(), Json::U64(self.count)),
            ("p50".into(), Json::U64(self.p50)),
            ("p95".into(), Json::U64(self.p95)),
            ("p99".into(), Json::U64(self.p99)),
            ("max".into(), Json::U64(self.max)),
        ])
    }
}

impl QueryMetrics {
    /// Extract the exported metrics from one executed plan.
    pub fn from_run(query: &str, variant: &str, plan: &PlanNode, run: &RunResult) -> Self {
        let c = &run.stats.counters;
        let histograms = run
            .trace
            .as_ref()
            .map(|t| {
                t.metrics
                    .summaries()
                    .iter()
                    .map(|(name, s)| HistogramMetric::from_summary(name, s))
                    .collect()
            })
            .unwrap_or_default();
        QueryMetrics {
            query: query.to_string(),
            variant: variant.to_string(),
            buffers: plan.buffer_count() as u64,
            rows: run.stats.rows,
            modeled_seconds: run.stats.seconds(),
            cpi: run.stats.cpi(),
            instructions: c.instructions,
            l1i_misses: c.l1i_misses,
            l2_misses: c.l2_misses_uncovered(),
            mispredictions: c.mispredictions,
            itlb_misses: c.itlb_misses,
            histograms,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("query".into(), Json::str(&self.query)),
            ("variant".into(), Json::str(&self.variant)),
            ("buffers".into(), Json::U64(self.buffers)),
            ("rows".into(), Json::U64(self.rows)),
            ("modeled_seconds".into(), Json::F64(self.modeled_seconds)),
            ("cpi".into(), Json::F64(self.cpi)),
            ("instructions".into(), Json::U64(self.instructions)),
            ("l1i_misses".into(), Json::U64(self.l1i_misses)),
            ("l2_misses".into(), Json::U64(self.l2_misses)),
            ("mispredictions".into(), Json::U64(self.mispredictions)),
            ("itlb_misses".into(), Json::U64(self.itlb_misses)),
            (
                "histograms".into(),
                Json::Arr(self.histograms.iter().map(|h| h.to_json()).collect()),
            ),
        ])
    }
}

/// The machine-readable counterpart of the plain-text experiment reports.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// TPC-H scale factor the catalog was generated at.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Worker-thread budget the queries ran with.
    pub threads: u64,
    /// One entry per (query, variant) execution.
    pub entries: Vec<QueryMetrics>,
}

impl MetricsReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-metrics/v1", "queries");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            ("threads".into(), Json::U64(self.threads)),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
        .pretty()
    }
}

/// Per-worker measurements for one exchange, destined for the scaling
/// report (mirrors [`ExchangeLane`] with the derived miss rate).
#[derive(Debug, Clone)]
pub struct WorkerLaneMetrics {
    /// Worker index within the exchange's pool.
    pub worker: u64,
    /// Morsels this worker claimed.
    pub morsels: u64,
    /// Rows this worker produced.
    pub rows: u64,
    /// Instructions retired on the worker's simulated core.
    pub instructions: u64,
    /// L1i misses on the worker's simulated core.
    pub l1i_misses: u64,
    /// L1i miss rate (misses / accesses) on the worker's core.
    pub l1i_miss_rate: f64,
}

impl WorkerLaneMetrics {
    /// Derive the exported lane metrics from a profiler exchange lane.
    pub fn from_lane(lane: &ExchangeLane) -> Self {
        let rate = if lane.counters.l1i_accesses == 0 {
            0.0
        } else {
            lane.counters.l1i_misses as f64 / lane.counters.l1i_accesses as f64
        };
        WorkerLaneMetrics {
            worker: lane.worker,
            morsels: lane.morsels,
            rows: lane.rows,
            instructions: lane.counters.instructions,
            l1i_misses: lane.counters.l1i_misses,
            l1i_miss_rate: rate,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("worker".into(), Json::U64(self.worker)),
            ("morsels".into(), Json::U64(self.morsels)),
            ("rows".into(), Json::U64(self.rows)),
            ("instructions".into(), Json::U64(self.instructions)),
            ("l1i_misses".into(), Json::U64(self.l1i_misses)),
            ("l1i_miss_rate".into(), Json::F64(self.l1i_miss_rate)),
        ])
    }
}

/// One (query, worker-count) point on the scaling curve.
///
/// Two elapsed-time views are reported. `modeled_wall_seconds` is the
/// simulated machine's wall clock: per-exchange, the workers run
/// concurrently on their own cores, so the parallel phase costs the *slowest
/// lane* rather than the sum — this is the scaling curve of the modeled
/// hardware and is host-independent. `host_seconds` is the real wall clock
/// of the simulation itself; it only scales when the host has idle cores.
#[derive(Debug, Clone)]
pub struct ScalingEntry {
    /// Query name.
    pub query: String,
    /// Exchange worker count for this run.
    pub workers: u64,
    /// Result rows.
    pub rows: u64,
    /// Modeled wall-clock seconds: serial cycles plus each exchange's
    /// critical path (its slowest worker lane).
    pub modeled_wall_seconds: f64,
    /// Wall-clock speedup relative to the 1-worker run of the same query
    /// (on the modeled machine's clock).
    pub speedup: f64,
    /// Modeled CPU seconds summed over every core (the conserved total).
    pub modeled_cpu_seconds: f64,
    /// Host wall-clock seconds of the simulation run (sanity only).
    pub host_seconds: f64,
    /// Host wall-clock speedup relative to the 1-worker run.
    pub host_speedup: f64,
    /// Aggregate L1i misses across all cores (conserved).
    pub l1i_misses: u64,
    /// Per-worker lanes from every exchange in the plan.
    pub lanes: Vec<WorkerLaneMetrics>,
}

impl ScalingEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("query".into(), Json::str(&self.query)),
            ("workers".into(), Json::U64(self.workers)),
            ("rows".into(), Json::U64(self.rows)),
            (
                "modeled_wall_seconds".into(),
                Json::F64(self.modeled_wall_seconds),
            ),
            ("speedup".into(), Json::F64(self.speedup)),
            (
                "modeled_cpu_seconds".into(),
                Json::F64(self.modeled_cpu_seconds),
            ),
            ("host_seconds".into(), Json::F64(self.host_seconds)),
            ("host_speedup".into(), Json::F64(self.host_speedup)),
            ("l1i_misses".into(), Json::U64(self.l1i_misses)),
            (
                "worker_lanes".into(),
                Json::Arr(self.lanes.iter().map(|l| l.to_json()).collect()),
            ),
        ])
    }
}

/// The machine-readable scaling report (`BENCH_parallel.json`).
#[derive(Debug, Clone, Default)]
pub struct ScalingReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// One entry per (query, worker-count) execution.
    pub entries: Vec<ScalingEntry>,
}

impl ScalingReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-parallel/v1", "runs");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
        .pretty()
    }
}

/// One cell of the executor-mode showdown: a query executed under one
/// mode policy at one worker count.
#[derive(Debug, Clone)]
pub struct ModesEntry {
    /// Query name.
    pub query: String,
    /// Executor-mode policy label (`pull`, `buffered-pull`, `push`, `auto`).
    pub mode: String,
    /// Exchange worker count for this run.
    pub workers: u64,
    /// Result rows (identical across modes by construction; asserted).
    pub rows: u64,
    /// Fused push pipelines in the physical plan (0 under pull modes).
    pub fused_pipelines: u64,
    /// Buffer operators the refiner placed (0 under pull and inside fused
    /// groups).
    pub buffers: u64,
    /// Modeled wall-clock seconds (serial cycles + slowest exchange lane).
    pub modeled_wall_seconds: f64,
    /// Modeled CPU seconds summed over every core (the conserved total).
    pub modeled_cpu_seconds: f64,
    /// Wall-clock speedup relative to the pull run of the same query at
    /// the same worker count (the showdown's headline number).
    pub speedup_vs_pull: f64,
    /// Simulated instructions retired.
    pub instructions: u64,
    /// Aggregate L1i misses across all cores (conserved).
    pub l1i_misses: u64,
}

impl ModesEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("query".into(), Json::str(&self.query)),
            ("mode".into(), Json::str(&self.mode)),
            ("workers".into(), Json::U64(self.workers)),
            ("rows".into(), Json::U64(self.rows)),
            ("fused_pipelines".into(), Json::U64(self.fused_pipelines)),
            ("buffers".into(), Json::U64(self.buffers)),
            (
                "modeled_wall_seconds".into(),
                Json::F64(self.modeled_wall_seconds),
            ),
            (
                "modeled_cpu_seconds".into(),
                Json::F64(self.modeled_cpu_seconds),
            ),
            ("speedup_vs_pull".into(), Json::F64(self.speedup_vs_pull)),
            ("instructions".into(), Json::U64(self.instructions)),
            ("l1i_misses".into(), Json::U64(self.l1i_misses)),
        ])
    }
}

/// The machine-readable executor-mode showdown (`BENCH_modes.json`).
#[derive(Debug, Clone, Default)]
pub struct ModesReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// One entry per (query, mode, worker-count) execution.
    pub entries: Vec<ModesEntry>,
}

impl ModesReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-modes/v1", "runs");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
        .pretty()
    }
}

/// One prepared query's cache-path timings and adaptation outcome.
#[derive(Debug, Clone)]
pub struct PreparedQueryMetrics {
    /// Query name.
    pub query: String,
    /// Average cold-path prepare time (fingerprint + parallelize + refine +
    /// insert), microseconds.
    pub miss_prepare_micros: f64,
    /// Average warm-path prepare time (fingerprint + lookup), microseconds.
    pub hit_prepare_micros: f64,
    /// Result rows.
    pub rows: u64,
    /// Buffer operators in the statically refined plan.
    pub static_buffers: u64,
    /// Buffer operators after the adaptive loop converged.
    pub adapted_buffers: u64,
    /// Adaptation generations installed (0 = the static plan survived).
    pub generations: u64,
    /// L1i misses of a profiled run of the static plan.
    pub static_l1i_misses: u64,
    /// L1i misses of a profiled run of the final adapted plan.
    pub adapted_l1i_misses: u64,
}

impl PreparedQueryMetrics {
    /// Whether adaptation replaced the static plan.
    pub fn adapted(&self) -> bool {
        self.generations > 0
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("query".into(), Json::str(&self.query)),
            (
                "miss_prepare_micros".into(),
                Json::F64(self.miss_prepare_micros),
            ),
            (
                "hit_prepare_micros".into(),
                Json::F64(self.hit_prepare_micros),
            ),
            ("rows".into(), Json::U64(self.rows)),
            ("static_buffers".into(), Json::U64(self.static_buffers)),
            ("adapted_buffers".into(), Json::U64(self.adapted_buffers)),
            ("generations".into(), Json::U64(self.generations)),
            (
                "static_l1i_misses".into(),
                Json::U64(self.static_l1i_misses),
            ),
            (
                "adapted_l1i_misses".into(),
                Json::U64(self.adapted_l1i_misses),
            ),
        ])
    }
}

/// One cell of the plan-cache hit-path contention microbench: `threads`
/// host threads hammering lookups over a fixed fingerprint population on a
/// cache with `shards` shards.
#[derive(Debug, Clone)]
pub struct CacheContentionPoint {
    /// Shard count of the measured cache.
    pub shards: u64,
    /// Concurrent lookup threads.
    pub threads: u64,
    /// Total lookups timed across all threads.
    pub lookups: u64,
    /// Mean wall-clock per lookup (host nanoseconds).
    pub ns_per_lookup: f64,
}

impl CacheContentionPoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shards".into(), Json::U64(self.shards)),
            ("threads".into(), Json::U64(self.threads)),
            ("lookups".into(), Json::U64(self.lookups)),
            ("ns_per_lookup".into(), Json::F64(self.ns_per_lookup)),
        ])
    }
}

/// The machine-readable prepared-query report (`BENCH_plancache.json`).
#[derive(Debug, Clone, Default)]
pub struct PlanCacheReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Worker budget the prepared plans were built/run with.
    pub threads: u64,
    /// Plan-cache hits over the whole experiment.
    pub hits: u64,
    /// Plan-cache misses over the whole experiment.
    pub misses: u64,
    /// Entries resident when the experiment finished.
    pub entries: u64,
    /// One entry per prepared query.
    pub queries: Vec<PreparedQueryMetrics>,
    /// Hit-path latency under concurrent load, single-shard vs sharded.
    pub contention: Vec<CacheContentionPoint>,
}

impl PlanCacheReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-plancache/v1", "queries");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            ("threads".into(), Json::U64(self.threads)),
            ("cache_hits".into(), Json::U64(self.hits)),
            ("cache_misses".into(), Json::U64(self.misses)),
            ("cache_entries".into(), Json::U64(self.entries)),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.queries.iter().map(|q| q.to_json()).collect()),
            ),
            (
                "contention".into(),
                Json::Arr(self.contention.iter().map(|c| c.to_json()).collect()),
            ),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert_eq!(reduction(100, 20), 80.0);
        assert_eq!(reduction(0, 5), 0.0);
        assert_eq!(reduction(100, 150), -50.0);
    }

    #[test]
    fn metrics_report_renders_json() {
        let report = MetricsReport {
            scale: 0.02,
            seed: 42,
            threads: 4,
            entries: vec![QueryMetrics {
                query: "Q1".into(),
                variant: "original".into(),
                buffers: 0,
                rows: 4,
                modeled_seconds: 1.25,
                cpi: 1.9,
                instructions: 1000,
                l1i_misses: 10,
                l2_misses: 5,
                mispredictions: 3,
                itlb_misses: 1,
                histograms: vec![HistogramMetric {
                    name: "morsel_service_ns".into(),
                    count: 8,
                    p50: 1024,
                    p95: 4096,
                    p99: 4096,
                    max: 3999,
                }],
            }],
        };
        let text = report.to_json();
        assert!(
            text.contains("\"schema\": \"bufferdb-metrics/v1\""),
            "{text}"
        );
        assert!(text.contains("\"query\": \"Q1\""), "{text}");
        assert!(text.contains("\"threads\": 4"), "{text}");
        assert!(text.contains("\"instructions\": 1000"), "{text}");
        assert!(text.contains("\"modeled_seconds\": 1.25"), "{text}");
        assert!(text.contains("\"histograms\""), "{text}");
        assert!(text.contains("\"name\": \"morsel_service_ns\""), "{text}");
        assert!(text.contains("\"p95\": 4096"), "{text}");
    }

    #[test]
    fn plancache_report_renders_json() {
        let report = PlanCacheReport {
            scale: 0.02,
            seed: 42,
            threads: 1,
            hits: 12,
            misses: 6,
            entries: 6,
            queries: vec![PreparedQueryMetrics {
                query: "Q2".into(),
                miss_prepare_micros: 80.5,
                hit_prepare_micros: 2.5,
                rows: 1,
                static_buffers: 0,
                adapted_buffers: 1,
                generations: 1,
                static_l1i_misses: 5000,
                adapted_l1i_misses: 700,
            }],
            contention: vec![CacheContentionPoint {
                shards: 8,
                threads: 4,
                lookups: 400000,
                ns_per_lookup: 55.25,
            }],
        };
        let text = report.to_json();
        assert!(
            text.contains("\"schema\": \"bufferdb-plancache/v1\""),
            "{text}"
        );
        assert!(text.contains("\"cache_hits\": 12"), "{text}");
        assert!(text.contains("\"generations\": 1"), "{text}");
        assert!(text.contains("\"adapted_l1i_misses\": 700"), "{text}");
        assert!(text.contains("\"shards\": 8"), "{text}");
        assert!(text.contains("\"ns_per_lookup\": 55.25"), "{text}");
    }

    #[test]
    fn scaling_report_renders_json() {
        let report = ScalingReport {
            scale: 0.01,
            seed: 42,
            entries: vec![ScalingEntry {
                query: "Q6".into(),
                workers: 4,
                rows: 1,
                modeled_wall_seconds: 0.5,
                speedup: 3.2,
                modeled_cpu_seconds: 1.1,
                host_seconds: 0.2,
                host_speedup: 1.0,
                l1i_misses: 77,
                lanes: vec![WorkerLaneMetrics {
                    worker: 0,
                    morsels: 3,
                    rows: 100,
                    instructions: 5000,
                    l1i_misses: 20,
                    l1i_miss_rate: 0.01,
                }],
            }],
        };
        let text = report.to_json();
        assert!(
            text.contains("\"schema\": \"bufferdb-parallel/v1\""),
            "{text}"
        );
        assert!(text.contains("\"workers\": 4"), "{text}");
        assert!(text.contains("\"speedup\": 3.2"), "{text}");
        assert!(text.contains("\"worker_lanes\""), "{text}");
        assert!(text.contains("\"morsels\": 3"), "{text}");
    }
}
