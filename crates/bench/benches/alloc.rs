//! Heap allocations per query and per scanned row, for paper Query 1 and
//! TPC-H Q6 under pull, buffered pull and push. A bench target of its own:
//! its counting allocator would otherwise tax every timed microbench.
//!
//! `cargo bench -p bufferdb-bench --bench alloc`

use bufferdb_bench::counting_alloc::{allocated, Counting};
use bufferdb_cachesim::MachineConfig;
use bufferdb_core::exec::execute_query;
use bufferdb_core::optimizer::ExecModePolicy;
use bufferdb_core::plan::PlanNode;
use bufferdb_core::prepare::prepare_plan_parts_with_mode;
use bufferdb_core::refine::RefineConfig;
use bufferdb_core::session::QueryOpts;
use bufferdb_storage::Catalog;
use bufferdb_tpch::queries;
use bufferdb_types::Result;
use std::hint::black_box;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Builds a query's logical plan over a catalog.
type QueryBuilder = fn(&Catalog) -> Result<PlanNode>;

/// Heap allocations (count, bytes) of one warm `execute_query` of `plan`.
fn allocations(plan: &PlanNode, catalog: &Catalog) -> (u64, u64) {
    let cfg = MachineConfig::pentium4_like();
    let opts = QueryOpts::new();
    black_box(execute_query(plan, catalog, &cfg, &opts));
    let before = allocated();
    black_box(execute_query(plan, catalog, &cfg, &opts));
    let after = allocated();
    (after.0 - before.0, after.1 - before.1)
}

/// Allocations per query, and per scanned row: the growth from sf 0.002 to
/// sf 0.004 over the growth in lineitem rows (both scales get the same
/// plans, so what grows is per-row work).
fn main() {
    let catalogs = [0.002, 0.004].map(|sf| bufferdb_tpch::generate_catalog(sf, 42));
    let [small, large] = catalogs
        .each_ref()
        .map(|c| c.table("lineitem").map_or(0, |t| t.row_count()) as f64);
    let builders: [(&str, QueryBuilder); 2] = [
        ("paper_q1", queries::paper_query1),
        ("tpch_q6", queries::tpch_q6),
    ];
    for (name, build) in builders {
        for mode in [
            ExecModePolicy::Pull,
            ExecModePolicy::BufferedPull,
            ExecModePolicy::Push,
        ] {
            let [(n0, b0), (n1, b1)] = catalogs.each_ref().map(|c| {
                let logical = build(c).unwrap();
                let plan =
                    prepare_plan_parts_with_mode(&logical, c, &RefineConfig::default(), 1, mode)
                        .unwrap()
                        .physical;
                allocations(&plan, c)
            });
            let rows = large - small;
            println!(
                "{:<34} {n0:>6} allocs/query   {:>7.3} allocs and {:>8.1} bytes per scanned row",
                format!("alloc/{name}/{}", mode.label()),
                (n1 as f64 - n0 as f64) / rows,
                (b1 as f64 - b0 as f64) / rows,
            );
        }
    }
}
