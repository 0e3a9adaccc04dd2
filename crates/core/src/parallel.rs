//! Parallelism-aware plan rewriting: where to put exchange operators.
//!
//! The pass wraps scan-driven pipelines in [`PlanNode::Exchange`] nodes so
//! they execute morsel-wise on a worker pool (see [`crate::exec::exchange`]).
//! It is deliberately conservative about ordering: results must stay
//! bit-identical to serial execution, including floating-point accumulation
//! order in aggregates above the exchange.
//!
//! * A pipeline whose leaf is a **sequential scan** (optionally under
//!   filters/projections) always qualifies: the exchange resequences output
//!   by morsel index, reproducing the exact serial row order.
//! * A pipeline leafed by a **range index scan** emits rows grouped by
//!   heap-row morsel rather than key order, so it qualifies only where no
//!   ancestor is order-sensitive (merge joins, sorts, limits, aggregates —
//!   stable-sort ties and float accumulation make all of them sensitive).
//! * The rescanned inner side of a nested-loop join is never wrapped: the
//!   exchange does not support `rescan`.
//! * Pipelines below [`MIN_PARALLEL_ROWS`] driving rows stay serial —
//!   thread + per-morsel overhead would outweigh the work.
//!
//! Run this pass *before* [`crate::refine::refine_plan`]: refinement treats
//! the exchange as a blocking buffer point and places buffers below it.

use crate::plan::{IndexMode, PlanNode};
use bufferdb_storage::Catalog;
use bufferdb_types::Result;

use crate::exec::exchange::driving_leaf_rows;

/// Minimum driving-leaf rows for a pipeline to be worth parallelizing.
pub const MIN_PARALLEL_ROWS: u32 = 512;

/// Rewrite `plan`, wrapping every qualifying scan pipeline in an exchange
/// over `workers` workers. `workers == 0` is treated as 1; the plan is
/// rewritten even for a single worker so one-worker parallel execution
/// exercises the same machinery (useful for determinism tests).
///
/// Fails with the underlying catalog error (e.g. a plan leaf naming a table
/// that does not exist) instead of silently treating the pipeline as empty.
pub fn parallelize_plan(plan: &PlanNode, catalog: &Catalog, workers: usize) -> Result<PlanNode> {
    rec(plan, catalog, workers.max(1), false)
}

/// Is `plan` a pipeline an exchange can own: filters/projections over a
/// single scan leaf, with ordering acceptable under `order_required`?
fn pipeline_ok(plan: &PlanNode, order_required: bool) -> bool {
    match plan {
        PlanNode::SeqScan { .. } => true,
        PlanNode::IndexScan {
            mode: IndexMode::Range { .. },
            ..
        } => !order_required,
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
            pipeline_ok(input, order_required)
        }
        _ => false,
    }
}

fn rec(
    plan: &PlanNode,
    catalog: &Catalog,
    workers: usize,
    order_required: bool,
) -> Result<PlanNode> {
    if pipeline_ok(plan, order_required) {
        let rows = driving_leaf_rows(plan, catalog)?;
        if rows >= MIN_PARALLEL_ROWS {
            return Ok(PlanNode::Exchange {
                input: Box::new(plan.clone()),
                workers,
            });
        }
        return Ok(plan.clone());
    }
    // The order sensitivity this node's children inherit.
    let child_order = match plan {
        // Already parallel, or already mode-marked (mode selection runs
        // after this pass, so this is defensive).
        PlanNode::Exchange { .. } | PlanNode::PushPipeline { .. } => return Ok(plan.clone()),
        // The inner side is rescanned per outer row; exchanges cannot
        // rescan, so it stays serial.
        PlanNode::NestLoopJoin { outer, inner, .. } => {
            let outer = rec(outer, catalog, workers, order_required)?;
            return Ok(plan.with_inputs(vec![outer, (**inner).clone()]));
        }
        // Merge inputs must stay sorted; stable-sort ties keep input order;
        // float accumulation and group insertion order are input-order
        // sensitive; which rows survive a limit depends on order.
        PlanNode::MergeJoin { .. }
        | PlanNode::Sort { .. }
        | PlanNode::Aggregate { .. }
        | PlanNode::Limit { .. } => true,
        // Probe-side order flows into the join output (and build-side
        // insertion order into per-key match order), so both sides of a
        // hash join inherit the ancestor's order sensitivity, as does the
        // input of every other streaming operator.
        _ => order_required,
    };
    let inputs = plan
        .children()
        .into_iter()
        .map(|c| rec(c, catalog, workers, child_order))
        .collect::<Result<Vec<_>>>()?;
    Ok(plan.with_inputs(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{AggFunc, AggSpec};
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

    fn catalog(rows: i64) -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        );
        for i in 0..rows {
            b.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i % 7)]));
        }
        c.add_table(b);
        c
    }

    fn scan() -> PlanNode {
        PlanNode::SeqScan {
            table: "t".into(),
            predicate: Some(Expr::col(1).le(Expr::lit(5))),
            projection: None,
        }
    }

    fn is_exchange(n: &PlanNode) -> bool {
        matches!(n, PlanNode::Exchange { .. })
    }

    #[test]
    fn aggregate_over_scan_gets_one_exchange_below_agg() {
        let c = catalog(5000);
        let plan = PlanNode::Aggregate {
            input: Box::new(scan()),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggFunc::Sum, Expr::col(1), "s")],
        };
        let par = parallelize_plan(&plan, &c, 4).unwrap();
        assert_eq!(par.count(is_exchange), 1);
        let PlanNode::Aggregate { input, .. } = &par else {
            panic!()
        };
        let PlanNode::Exchange { workers, input } = &**input else {
            panic!("expected exchange below aggregate: {par:#?}")
        };
        assert_eq!(*workers, 4);
        assert!(matches!(**input, PlanNode::SeqScan { .. }));
    }

    #[test]
    fn small_tables_stay_serial() {
        let c = catalog(100);
        let par = parallelize_plan(&scan(), &c, 4).unwrap();
        assert_eq!(par.count(is_exchange), 0);
    }

    #[test]
    fn nestloop_inner_stays_serial() {
        let c = catalog(5000);
        let plan = PlanNode::NestLoopJoin {
            outer: Box::new(scan()),
            inner: Box::new(scan()),
            param_outer_col: None,
            qual: None,
            fk_inner: false,
        };
        let par = parallelize_plan(&plan, &c, 2).unwrap();
        let PlanNode::NestLoopJoin { outer, inner, .. } = &par else {
            panic!()
        };
        assert!(matches!(**outer, PlanNode::Exchange { .. }));
        assert!(matches!(**inner, PlanNode::SeqScan { .. }));
    }

    #[test]
    fn existing_exchange_is_not_nested() {
        let c = catalog(5000);
        let plan = PlanNode::Exchange {
            input: Box::new(scan()),
            workers: 2,
        };
        let par = parallelize_plan(&plan, &c, 8).unwrap();
        assert_eq!(par.count(is_exchange), 1);
        assert!(matches!(par, PlanNode::Exchange { workers: 2, .. }));
    }

    #[test]
    fn unknown_table_propagates_catalog_error() {
        let c = catalog(5000);
        let plan = PlanNode::SeqScan {
            table: "no_such_table".into(),
            predicate: None,
            projection: None,
        };
        let err = parallelize_plan(&plan, &c, 4).unwrap_err();
        assert!(
            err.to_string().contains("no_such_table"),
            "error should name the missing table: {err}"
        );
    }
}
