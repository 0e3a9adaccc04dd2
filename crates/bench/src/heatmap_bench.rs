//! `repro heatmap` and `repro trace --server`: the server observatory's
//! committed artifacts.
//!
//! The heatmap run drives the same 8-plan TPC-H mix as `repro server`
//! through one deterministic [`VirtualServer`] with the per-segment L1i
//! heat ledger enabled, then reports eviction attribution per code
//! segment. Conservation is checked *in the artifact itself*: the report
//! carries both the machine-counter totals and the ledger sums, and
//! refuses to serialize if they differ — per-segment misses sum exactly
//! to `l1i_misses`, cross-attributed misses to `l1i_cross_misses`.
//!
//! The server trace run enables the always-on flight recorder instead:
//! admission waits, per-query runs, and session-core quantum turns (with
//! their cross-miss charge) land on two server-scoped Perfetto tracks
//! covering the whole run.

use crate::json::{Json, SCHEMA_VERSION};
use crate::server_bench::{closed_loop, stream_plans, WORKERS};
use bufferdb_cachesim::MachineConfig;
use bufferdb_core::plan::PlanNode;
use bufferdb_core::refine::{refine_plan, RefineConfig};
use bufferdb_core::server::virt::VirtualServer;
use bufferdb_core::server::ServerConfig;
use bufferdb_core::session::QueryOpts;
use bufferdb_storage::Catalog;
use std::fmt::Write as _;

/// Concurrent closed-loop streams. High enough that quantum time-sharing
/// (the cross-eviction channel) is exercised on every turn.
const STREAMS: usize = 4;

/// Total queries per run (divisible by [`STREAMS`]).
const TOTAL_JOBS: usize = 16;

/// One per-segment row of the heatmap report.
#[derive(Debug, Clone)]
pub struct SegmentEntry {
    /// Code-segment name (operator footprint label).
    pub segment: String,
    /// L1i misses taken while fetching this segment.
    pub misses: u64,
    /// Subset of `misses` on lines another query's code evicted.
    pub cross_misses: u64,
    /// Lines this segment pushed out of the cache.
    pub evictions: u64,
    /// Cross-owner misses this segment *caused* elsewhere.
    pub cross_caused: u64,
    /// `misses / machine_l1i_misses` in [0, 1].
    pub miss_share: f64,
    /// `cross_misses / machine_l1i_cross_misses` in [0, 1].
    pub cross_share: f64,
}

impl SegmentEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("segment".into(), Json::str(&self.segment)),
            ("misses".into(), Json::U64(self.misses)),
            ("cross_misses".into(), Json::U64(self.cross_misses)),
            ("evictions".into(), Json::U64(self.evictions)),
            ("cross_caused".into(), Json::U64(self.cross_caused)),
            ("miss_share".into(), Json::F64(self.miss_share)),
            ("cross_share".into(), Json::F64(self.cross_share)),
        ])
    }
}

/// The machine-readable heatmap report (`BENCH_heatmap.json`).
#[derive(Debug, Clone, Default)]
pub struct HeatmapReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Pool workers the run used.
    pub workers: u64,
    /// Concurrent client streams.
    pub streams: u64,
    /// Total queries executed.
    pub jobs: u64,
    /// Machine-total L1i misses summed over every core.
    pub machine_l1i_misses: u64,
    /// Machine-total cross-query L1i misses.
    pub machine_l1i_cross_misses: u64,
    /// One row per code segment, sorted by misses descending.
    pub segments: Vec<SegmentEntry>,
}

impl HeatmapReport {
    /// Sum of per-segment misses — equals `machine_l1i_misses` exactly.
    pub fn heat_misses(&self) -> u64 {
        self.segments.iter().map(|s| s.misses).sum()
    }

    /// Sum of per-segment cross misses — equals
    /// `machine_l1i_cross_misses` exactly.
    pub fn heat_cross_misses(&self) -> u64 {
        self.segments.iter().map(|s| s.cross_misses).sum()
    }

    /// The segment carrying the largest cross-miss share (the headline the
    /// CI drift gate watches), if any cross misses were attributed.
    pub fn headline(&self) -> Option<&SegmentEntry> {
        self.segments
            .iter()
            .filter(|s| s.cross_misses > 0)
            .max_by(|a, b| {
                a.cross_misses
                    .cmp(&b.cross_misses)
                    .then_with(|| b.segment.cmp(&a.segment))
            })
    }

    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-heatmap/v1", "segments");

    /// Render the report as a pretty-printed JSON document. Panics if the
    /// ledger does not conserve against the machine totals — a
    /// non-conserving artifact must never be committed.
    pub fn to_json(&self) -> String {
        assert_eq!(
            self.heat_misses(),
            self.machine_l1i_misses,
            "heatmap misses must sum exactly to machine L1i misses"
        );
        assert_eq!(
            self.heat_cross_misses(),
            self.machine_l1i_cross_misses,
            "heatmap cross misses must sum exactly to machine cross misses"
        );
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            ("workers".into(), Json::U64(self.workers)),
            ("streams".into(), Json::U64(self.streams)),
            ("jobs".into(), Json::U64(self.jobs)),
            (
                "machine_l1i_misses".into(),
                Json::U64(self.machine_l1i_misses),
            ),
            (
                "machine_l1i_cross_misses".into(),
                Json::U64(self.machine_l1i_cross_misses),
            ),
            ("heat_misses".into(), Json::U64(self.heat_misses())),
            (
                "heat_cross_misses".into(),
                Json::U64(self.heat_cross_misses()),
            ),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.segments.iter().map(|s| s.to_json()).collect()),
            ),
        ])
        .pretty()
    }
}

/// Drive the `repro server` mix, statically refined so buffer operators
/// appear as their own heat segments, through the closed-loop job list on
/// `vs`. Returns the plans.
fn drive(vs: &mut VirtualServer, catalog: &Catalog) -> Vec<PlanNode> {
    let refine_cfg = RefineConfig::default();
    let mut plans: Vec<PlanNode> = (stream_plans(catalog).iter())
        .map(|base| refine_plan(base, catalog, &refine_cfg))
        .collect();
    let opts = QueryOpts::new();
    closed_loop(
        vs,
        catalog,
        STREAMS,
        TOTAL_JOBS,
        &opts,
        &mut plans,
        |_, _, _, _| {},
    );
    plans
}

/// Run the observatory workload with the heat ledger on and report
/// per-segment eviction attribution. Deterministic for a (scale, seed).
pub fn heatmap_metrics(scale: f64, seed: u64) -> HeatmapReport {
    let catalog = bufferdb_tpch::generate_catalog(scale, seed);
    let machine = MachineConfig::pentium4_like();
    let mut vs = VirtualServer::new(ServerConfig::new(WORKERS, STREAMS, machine));
    vs.enable_heatmap();
    drive(&mut vs, &catalog);
    let totals = vs.machine_counters();
    let snap = vs.heatmap();
    let mut segments: Vec<SegmentEntry> = snap
        .by_segment()
        .into_iter()
        .map(|(segment, cell)| SegmentEntry {
            segment,
            misses: cell.misses,
            cross_misses: cell.cross_misses,
            evictions: cell.evictions,
            cross_caused: cell.cross_caused,
            miss_share: if totals.l1i_misses == 0 {
                0.0
            } else {
                cell.misses as f64 / totals.l1i_misses as f64
            },
            cross_share: if totals.l1i_cross_misses == 0 {
                0.0
            } else {
                cell.cross_misses as f64 / totals.l1i_cross_misses as f64
            },
        })
        .collect();
    segments.sort_by(|a, b| {
        b.misses
            .cmp(&a.misses)
            .then_with(|| a.segment.cmp(&b.segment))
    });
    HeatmapReport {
        scale,
        seed,
        workers: WORKERS as u64,
        streams: STREAMS as u64,
        jobs: TOTAL_JOBS as u64,
        machine_l1i_misses: totals.l1i_misses,
        machine_l1i_cross_misses: totals.l1i_cross_misses,
        segments,
    }
}

/// Plain-text rendering of the heatmap run (the `repro heatmap` report).
pub fn heatmap_table(report: &HeatmapReport) -> String {
    let mut s = format!(
        "== Heatmap: per-segment L1i eviction attribution, {} streams, {} jobs ==\n\
         segment                    |    misses |  cross | cross% | evictions | caused\n",
        report.streams, report.jobs
    );
    for e in &report.segments {
        let pct = if e.misses > 0 {
            100.0 * e.cross_misses as f64 / e.misses as f64
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "{:<26} | {:>9} | {:>6} | {:>5.1}% | {:>9} | {}",
            e.segment, e.misses, e.cross_misses, pct, e.evictions, e.cross_caused,
        );
    }
    let _ = writeln!(
        s,
        "conservation: Σ misses {} == machine {} | Σ cross {} == machine {}",
        report.heat_misses(),
        report.machine_l1i_misses,
        report.heat_cross_misses(),
        report.machine_l1i_cross_misses,
    );
    if let Some(h) = report.headline() {
        let _ = writeln!(
            s,
            "headline: {} carries {:.1}% of cross-query misses",
            h.segment,
            100.0 * h.cross_share,
        );
    }
    s
}

/// Run the observatory workload under the always-on server flight recorder
/// and return `(perfetto_json, summary)`: one timeline covering every
/// query's wait/run spans and the session core's quantum turns.
pub fn server_trace(scale: f64, seed: u64) -> (String, String) {
    let catalog = bufferdb_tpch::generate_catalog(scale, seed);
    let machine = MachineConfig::pentium4_like();
    let mut vs = VirtualServer::new(ServerConfig::new(WORKERS, STREAMS, machine));
    vs.enable_flight_recorder();
    drive(&mut vs, &catalog);
    let report = vs.finish_recorder().expect("recorder was enabled");
    (report.perfetto_json(), report.summary())
}

/// Install every `sys.*` table (server and database caches), run a short
/// workload, then query each table through an ordinary plan.
/// Returns one line per table with its row count, and asserts that every
/// sys scan executed **zero** modeled work (the observer-effect contract).
pub fn sys_tables_demo(scale: f64, seed: u64) -> String {
    use bufferdb_cachesim::PerfCounters;
    use bufferdb_core::exec::execute_query;
    use bufferdb_core::prepare::Database;

    let machine = MachineConfig::pentium4_like();
    let db = Database::open(
        bufferdb_tpch::generate_catalog(scale, seed),
        machine.clone(),
    );
    let catalog = db.catalog();
    db.install_sys_tables();

    let mut vs = VirtualServer::new(ServerConfig::new(WORKERS, STREAMS, machine.clone()));
    vs.enable_heatmap();
    vs.install_sys_tables(catalog);
    let plans = drive(&mut vs, catalog);

    // Populate the database-side tables with real state.
    let q = db.prepare(&plans[0]).expect("prepare");
    assert!(q.execute().is_ok());
    assert!(db.prepare(&plans[0]).is_ok()); // second prepare: a cache hit

    let mut s = format!("== sys.* tables after {TOTAL_JOBS} queries ==\n");
    for name in catalog.sys_table_names() {
        let plan = PlanNode::SysScan {
            table: name.clone(),
        };
        let out = execute_query(&plan, catalog, &machine, &QueryOpts::new());
        assert!(out.is_ok(), "{name}: {:?}", out.error());
        assert_eq!(
            out.stats().counters,
            PerfCounters::default(),
            "{name}: sys scans must execute zero modeled work"
        );
        let _ = writeln!(
            s,
            "{:<22} {:>5} rows, 0 modeled cycles",
            name,
            out.rows().len()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_report_conserves_and_serializes() {
        let report = heatmap_metrics(0.003, 7);
        assert!(report.jobs > 0);
        assert_eq!(report.heat_misses(), report.machine_l1i_misses);
        assert_eq!(report.heat_cross_misses(), report.machine_l1i_cross_misses);
        assert!(
            report.machine_l1i_cross_misses > 0,
            "streams must interfere"
        );
        let json = report.to_json();
        assert!(json.contains("bufferdb-heatmap/v1"));
        let doc = Json::parse(&json).expect("self-parse");
        assert!(doc.get("segments").and_then(Json::as_arr).is_some());
        let table = heatmap_table(&report);
        assert!(table.contains("conservation"), "{table}");
    }

    #[test]
    fn server_trace_exports_both_tracks() {
        let (json, summary) = server_trace(0.003, 7);
        assert!(json.contains("server.queries"), "{summary}");
        assert!(json.contains("server.core"));
        assert!(json.contains("query.run"));
        assert!(json.contains("core.turn"));
    }
}
