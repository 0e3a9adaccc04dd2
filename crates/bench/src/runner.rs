//! Shared plan-execution helpers for the experiments, plus the JSON
//! reports the `repro` binary writes.

use crate::json::{Json, SCHEMA_VERSION};
use bufferdb_cachesim::{format_counter_comparison, pct_reduction, MachineConfig};
use bufferdb_core::exec::{drive_root, execute_query, Operator, QueryOutcome};
use bufferdb_core::fault::FaultRegistry;
use bufferdb_core::footprint::FootprintModel;
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
pub(crate) fn profiled_exec_options() -> QueryOpts {
    exec_options().profile(true)
}

/// See [`report_failure_and_exit`]: the CLI failure contract (exit 3 for a
/// timeout with partial counters, exit 1 otherwise) for experiments that
/// drive `execute_query` themselves.
pub(crate) fn fail_query(label: &str, stats: &ExecStats, rows: usize, err: DbError) -> ! {
    report_failure_and_exit(label, stats, rows, err)
}

fn exec_options() -> QueryOpts {
    let mut opts = QueryOpts::new().faults(fault_registry());
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
    package(label, execute_query(plan, catalog, cfg, &exec_options()))
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
    package(label, drive_root(root, fm, cfg, &exec_options()))
}

fn package(label: &str, outcome: QueryOutcome) -> RunResult {
    let (rows, stats, _profile, error) = outcome.into_parts();
    if let Some(err) = error {
        report_failure_and_exit(label, &stats, rows.len(), err);
    }
    RunResult {
        label: label.to_string(),
        rows,
        stats,
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

/// One cell of the executor-mode showdown: a query executed under one
/// mode policy at one worker count.
#[derive(Debug, Clone, Default)]
pub struct ModesEntry {
    /// Query name.
    pub query: String,
    /// Executor-mode policy label (`pull`, `buffered-pull`, `push`).
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

/// One prepared query's adaptation outcome.
#[derive(Debug, Clone)]
pub struct PreparedQueryMetrics {
    /// Query name.
    pub query: String,
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
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("query".into(), Json::str(&self.query)),
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

/// The machine-readable prepared-query report (`BENCH_plancache.json`).
#[derive(Debug, Clone, Default)]
pub struct PlanCacheReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Plan-cache hits over the whole experiment.
    pub hits: u64,
    /// Plan-cache misses over the whole experiment.
    pub misses: u64,
    /// Entries resident when the experiment finished.
    pub entries: u64,
    /// One entry per prepared query.
    pub queries: Vec<PreparedQueryMetrics>,
}

impl PlanCacheReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-plancache/v2", "queries");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            ("cache_hits".into(), Json::U64(self.hits)),
            ("cache_misses".into(), Json::U64(self.misses)),
            ("cache_entries".into(), Json::U64(self.entries)),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.queries.iter().map(|q| q.to_json()).collect()),
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
    fn plancache_report_renders_json() {
        let report = PlanCacheReport {
            scale: 0.02,
            seed: 42,
            hits: 12,
            misses: 6,
            entries: 6,
            queries: vec![PreparedQueryMetrics {
                query: "Q2".into(),
                rows: 1,
                static_buffers: 0,
                adapted_buffers: 1,
                generations: 1,
                static_l1i_misses: 5000,
                adapted_l1i_misses: 700,
            }],
        };
        let text = report.to_json();
        assert!(
            text.contains("\"schema\": \"bufferdb-plancache/v2\""),
            "{text}"
        );
        assert!(text.contains("\"cache_hits\": 12"), "{text}");
        assert!(text.contains("\"generations\": 1"), "{text}");
        assert!(text.contains("\"adapted_l1i_misses\": 700"), "{text}");
    }
}
