//! Allocation guard: the per-row path allocates nothing. Paper Query 1 and
//! TPC-H Q6, under push and buffered pull, must make the same number of
//! heap allocations at two scale factors — everything they allocate is
//! per-query (executor, machine, arena regions), none of it per scanned row
//! or per batch. Paper Query 3's nest-loop and merge-join plans under push
//! may add only the few regrowths of the vectors a sorted run, its arena
//! region and an index range grow into.
//!
//! The binary installs its own counting allocator (the one the allocation
//! bench uses); counts are per thread, so the test harness's other threads
//! do not disturb them.

#[path = "../crates/bench/src/counting_alloc.rs"]
mod counting_alloc;

use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries};
use counting_alloc::{allocated, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Builds a query's logical plan over a catalog.
type QueryBuilder = fn(&Catalog) -> Result<PlanNode>;

/// Allocations (count, bytes) `execute_query` makes running `plan`, after
/// a first run has filled the process-wide memos (the code-layout link
/// memo) that only the first query of a shape pays for.
fn allocations(plan: &PlanNode, catalog: &Catalog) -> (u64, u64) {
    let cfg = MachineConfig::pentium4_like();
    let opts = QueryOpts::new();
    assert!(execute_query(plan, catalog, &cfg, &opts).is_ok());
    let before = allocated();
    let out = execute_query(plan, catalog, &cfg, &opts);
    let after = allocated();
    assert!(out.is_ok(), "{:?}", out.error());
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn scanned_rows_allocate_nothing() {
    // Both scales sit above the refiner's cardinality threshold, so each
    // query gets the same plan (and the same buffers) at either.
    let small = tpch::generate_catalog(0.002, 42);
    let large = tpch::generate_catalog(0.004, 42);
    let rows = |c: &Catalog| c.table("lineitem").map(|t| t.row_count()).unwrap_or(0);
    assert!(rows(&large) > rows(&small) + 1000);
    let builders: [(&str, QueryBuilder); 2] = [
        ("paper Q1", queries::paper_query1),
        ("TPC-H Q6", queries::tpch_q6),
    ];
    for (name, build) in builders {
        for mode in [ExecModePolicy::Push, ExecModePolicy::BufferedPull] {
            let [s, l] = [&small, &large].map(|c| {
                let logical = build(c).expect("query builds");
                let plan =
                    prepare_plan_parts_with_mode(&logical, c, &RefineConfig::default(), 1, mode)
                        .expect("plan prepares")
                        .physical;
                allocations(&plan, c)
            });
            assert_eq!(
                s.0,
                l.0,
                "{name} under {}: {} allocations at sf 0.002, {} at sf 0.004",
                mode.label(),
                s.0,
                l.0
            );
        }
    }
}

#[test]
fn fused_query3_joins_allocate_nothing_per_scanned_row() {
    use queries::JoinMethod;
    let small = tpch::generate_catalog(0.002, 42);
    let large = tpch::generate_catalog(0.004, 42);
    let rows = |c: &Catalog| c.table("lineitem").map(|t| t.row_count()).unwrap_or(0);
    let extra_rows = rows(&large) - rows(&small);
    for method in [JoinMethod::NestLoop, JoinMethod::MergeJoin] {
        let [s, l] = [&small, &large].map(|c| {
            let logical = queries::paper_query3(c, method).expect("query builds");
            let plan = prepare_plan_parts_with_mode(
                &logical,
                c,
                &RefineConfig::default(),
                1,
                ExecModePolicy::Push,
            )
            .expect("plan prepares")
            .physical;
            allocations(&plan, c)
        });
        // Doubling the rows regrows each growing vector once more: a
        // handful of allocations against thousands of extra rows.
        assert!(
            l.0.abs_diff(s.0) * 1000 < extra_rows as u64,
            "{method:?} under push: {} allocations at sf 0.002, {} at sf 0.004 \
             ({extra_rows} more lineitem rows)",
            s.0,
            l.0
        );
    }
}
