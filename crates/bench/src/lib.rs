//! Experiment harness: one function per table/figure of the paper.
//!
//! Each experiment returns a plain-text report whose rows mirror what the
//! paper charts. The `repro` binary dispatches on experiment id; the
//! benches and integration tests reuse the same functions.

#![warn(missing_docs)]

pub mod counting_alloc;
pub mod experiments;
pub mod heatmap_bench;
pub mod json;
pub mod microbench;
pub mod reuse_bench;
pub mod runner;
pub mod server_bench;
pub mod traffic;

pub use experiments::*;
pub use heatmap_bench::{
    heatmap_metrics, heatmap_table, server_trace, sys_tables_demo, HeatmapReport,
};
pub use json::Json;
pub use reuse_bench::{reuse_metrics, reuse_table, ReuseReport, ReuseSweepEntry};
pub use runner::{run_plan, MetricsReport, QueryMetrics, RunResult};
pub use server_bench::{server_metrics, server_table, ServerReport, ServerSweepEntry};
pub use traffic::{run_traffic, RegimeSpec, TrafficConfig, TrafficRun};

/// Every report this crate writes: `(schema, payload key)`, each taken from
/// the const its writer serializes through.
const REPORT_SCHEMAS: [(&str, &str); 8] = [
    HeatmapReport::SCHEMA,
    MetricsReport::SCHEMA,
    runner::ModesReport::SCHEMA,
    runner::ScalingReport::SCHEMA,
    runner::PlanCacheReport::SCHEMA,
    ReuseReport::SCHEMA,
    ServerReport::SCHEMA,
    traffic::TrafficReport::SCHEMA,
];

/// Validate a report document: a known `schema`, this build's
/// `schema_version`, and the schema's payload array. Returns a one-line
/// summary, or what is wrong with the document.
pub fn check_report(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = (doc.get("schema").and_then(Json::as_str)).ok_or("missing \"schema\" field")?;
    let known = || REPORT_SCHEMAS.map(|(s, _)| s).join(" ");
    let (_, payload_key) = (REPORT_SCHEMAS.iter().find(|(s, _)| *s == schema))
        .ok_or_else(|| format!("unknown schema {schema:?} (known: {})", known()))?;
    let version = (doc.get("schema_version").and_then(Json::as_u64)).ok_or(
        "missing \"schema_version\" (report predates version stamping; regenerate it with \
         this build)",
    )?;
    if version != json::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} is not supported (this build reads version {}); refusing \
             to misparse",
            json::SCHEMA_VERSION
        ));
    }
    let payload = (doc.get(payload_key).and_then(Json::as_arr))
        .ok_or_else(|| format!("schema {schema} requires a top-level {payload_key:?} array"))?;
    Ok(format!(
        "schema {schema}, version {version}, {} {payload_key}",
        payload.len()
    ))
}

/// Execute Query 1 with the ablation-only **copying** buffer (§5 argues the
/// production buffer must store pointers instead). The tree is assembled by
/// hand because plans always instantiate the pointer variant, then driven
/// through the executor's own spine, so `--timeout-ms` and `BUFFERDB_FAULT`
/// apply as to every other run. Returns
/// `(modeled seconds, instructions retired)`.
pub fn run_copy_buffered_query1(ctx: &experiments::ExperimentCtx) -> (f64, u64) {
    use bufferdb_core::exec::agg::AggregateOp;
    use bufferdb_core::exec::buffer::BufferOp;
    use bufferdb_core::exec::seqscan::SeqScanOp;
    use bufferdb_core::footprint::FootprintModel;
    use bufferdb_core::plan::PlanNode;

    let plan = bufferdb_tpch::queries::paper_query1(&ctx.catalog).expect("query 1");
    let PlanNode::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        unreachable!()
    };
    let PlanNode::SeqScan {
        table, predicate, ..
    } = *input
    else {
        unreachable!()
    };

    let mut fm = FootprintModel::new();
    let scan =
        Box::new(SeqScanOp::new(&ctx.catalog, &mut fm, &table, predicate, None).expect("scan"));
    let copy = Box::new(BufferOp::copying(&mut fm, scan, ctx.refine.buffer_size).expect("copy"));
    let agg = Box::new(AggregateOp::new(&mut fm, copy, group_by, aggs).expect("agg"));
    let run = runner::run_root("copy-buffered", agg, &fm, &ctx.machine);
    (run.stats.seconds(), run.stats.counters.instructions)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro analyze <file>` must accept every report the repository
    /// commits — CI runs it on freshly written ones.
    #[test]
    fn every_committed_report_validates() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = Vec::new();
        for entry in std::fs::read_dir(root).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("readable report");
                if let Err(e) = check_report(&text) {
                    panic!("{name}: {e}");
                }
                checked.push(name.to_string());
            }
        }
        assert!(checked.len() >= 6, "committed reports found: {checked:?}");
    }

    #[test]
    fn check_report_accepts_a_writer_and_says_what_is_wrong() {
        let metrics = MetricsReport {
            scale: 0.001,
            seed: 1,
            threads: 1,
            entries: Vec::new(),
        };
        assert_eq!(
            check_report(&metrics.to_json()).as_deref(),
            Ok("schema bufferdb-metrics/v1, version 2, 0 queries")
        );
        let unknown = metrics
            .to_json()
            .replace("bufferdb-metrics/v1", "bufferdb-nope/v1");
        assert!(check_report(&unknown)
            .unwrap_err()
            .contains("unknown schema"));
        let stale = metrics
            .to_json()
            .replace("\"schema_version\": 2", "\"schema_version\": 99");
        assert!(check_report(&stale).unwrap_err().contains("not supported"));
    }
}
