//! Experiment harness: one function per table/figure of the paper.
//!
//! Each experiment returns a plain-text report whose rows mirror what the
//! paper charts. The `repro` binary dispatches on experiment id; the
//! benches and integration tests reuse the same functions.

#![warn(missing_docs)]

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
