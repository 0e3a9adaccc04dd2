//! Cardinality estimation — the "optimizer estimates" consumed by the plan
//! refinement algorithm (§6: "operators with small cardinality estimates are
//! unlikely to benefit from buffering").

use crate::expr::{CmpOp, Expr};
use crate::plan::PlanNode;
use bufferdb_storage::Catalog;
use bufferdb_types::Datum;

/// Default selectivity for predicates we cannot interpolate (PostgreSQL's
/// inequality default).
const DEFAULT_SEL: f64 = 1.0 / 3.0;

/// Estimated output rows of `plan`. For the inner side of a parameterized
/// nested-loop join, this is the *per-rescan* estimate — matching PostgreSQL,
/// whose inner-path rows are per execution.
pub fn estimate_rows(plan: &PlanNode, catalog: &Catalog) -> f64 {
    match plan {
        PlanNode::SeqScan {
            table, predicate, ..
        } => {
            let Ok(t) = catalog.table(table) else {
                return 0.0;
            };
            let rows = t.stats().row_count as f64;
            match predicate {
                None => rows,
                Some(p) => rows * predicate_selectivity(p, table, catalog),
            }
        }
        PlanNode::IndexScan { index, mode } => {
            let Ok(idx) = catalog.index(index) else {
                return 0.0;
            };
            let Ok(t) = catalog.table(&idx.table) else {
                return 0.0;
            };
            match mode {
                // Per-rescan: a key lookup returns ~1 row (unique keys).
                crate::plan::IndexMode::LookupParam => 1.0,
                crate::plan::IndexMode::Range { lo, hi } => {
                    let rows = t.stats().row_count as f64;
                    let lo_sel = match lo {
                        None => 0.0,
                        Some(v) => t
                            .stats()
                            .estimate_le_selectivity(idx.key_column, &Datum::Int(*v)),
                    };
                    let hi_sel = match hi {
                        None => 1.0,
                        Some(v) => t
                            .stats()
                            .estimate_le_selectivity(idx.key_column, &Datum::Int(*v)),
                    };
                    rows * (hi_sel - lo_sel).max(0.0)
                }
            }
        }
        // A reused scan's cardinality is exact: the rows are already there.
        PlanNode::ReusedScan { handle } => handle.row_count() as f64,
        // Sys tables are tiny; the provider hint is best-effort.
        PlanNode::SysScan { table } => match catalog.sys_table(table) {
            Ok(p) => p.approx_rows() as f64,
            Err(_) => 0.0,
        },
        PlanNode::NestLoopJoin {
            outer,
            inner,
            fk_inner,
            ..
        } => {
            let o = estimate_rows(outer, catalog);
            if *fk_inner {
                o // one match per outer row
            } else {
                o * estimate_rows(inner, catalog).max(1.0) * 0.1
            }
        }
        // FK equi-joins: output ≈ the FK (probe/left) side.
        PlanNode::HashJoin { probe, .. } => estimate_rows(probe, catalog),
        PlanNode::MergeJoin { left, .. } => estimate_rows(left, catalog),
        PlanNode::Sort { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Buffer { input, .. }
        | PlanNode::Exchange { input, .. }
        | PlanNode::PushPipeline { input }
        | PlanNode::Materialize { input } => estimate_rows(input, catalog),
        PlanNode::Filter { input, .. } => estimate_rows(input, catalog) * DEFAULT_SEL,
        PlanNode::Limit { input, limit } => estimate_rows(input, catalog).min(*limit as f64),
        PlanNode::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                // Square-root heuristic for group count.
                estimate_rows(input, catalog).sqrt().max(1.0)
            }
        }
    }
}

/// Estimated selectivity of a scan predicate against `table`'s statistics.
/// Range comparisons over a column and a literal interpolate linearly; AND
/// multiplies; OR adds (capped); everything else falls back to the default.
pub fn predicate_selectivity(pred: &Expr, table: &str, catalog: &Catalog) -> f64 {
    let Ok(t) = catalog.table(table) else {
        return DEFAULT_SEL;
    };
    selectivity_rec(pred, t.stats())
}

fn selectivity_rec(pred: &Expr, stats: &bufferdb_storage::TableStats) -> f64 {
    match pred {
        Expr::And(a, b) => selectivity_rec(a, stats) * selectivity_rec(b, stats),
        Expr::Or(a, b) => {
            let (x, y) = (selectivity_rec(a, stats), selectivity_rec(b, stats));
            (x + y - x * y).min(1.0)
        }
        Expr::Not(a) => 1.0 - selectivity_rec(a, stats),
        Expr::Cmp { op, left, right } => match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(v)) => column_cmp_selectivity(*op, *c, v, stats),
            (Expr::Literal(v), Expr::Column(c)) => column_cmp_selectivity(flip(*op), *c, v, stats),
            _ => DEFAULT_SEL,
        },
        _ => DEFAULT_SEL,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn column_cmp_selectivity(
    op: CmpOp,
    col: usize,
    v: &Datum,
    stats: &bufferdb_storage::TableStats,
) -> f64 {
    let le = stats.estimate_le_selectivity(col, v);
    match op {
        CmpOp::Le | CmpOp::Lt => le,
        CmpOp::Ge | CmpOp::Gt => 1.0 - le,
        CmpOp::Eq => {
            if stats.row_count == 0 {
                0.0
            } else {
                (1.0 / stats.row_count as f64).max(1e-9)
            }
        }
        CmpOp::Ne => 1.0 - 1.0 / stats.row_count.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggSpec, IndexMode};
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Field, Schema, Tuple};

    fn catalog(n: i64) -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        for i in 0..n {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        c
    }

    fn scan_with(pred: Option<Expr>) -> PlanNode {
        PlanNode::SeqScan {
            table: "t".into(),
            predicate: pred,
            projection: None,
        }
    }

    #[test]
    fn unfiltered_scan_estimates_full_table() {
        let c = catalog(1000);
        assert!((estimate_rows(&scan_with(None), &c) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn le_predicate_interpolates() {
        let c = catalog(1000);
        let p = scan_with(Some(Expr::col(0).le(Expr::lit(249))));
        let est = estimate_rows(&p, &c);
        assert!((est - 249.25).abs() < 5.0, "est {est}");
        let p_gt = scan_with(Some(Expr::col(0).gt(Expr::lit(249))));
        assert!((estimate_rows(&p_gt, &c) - 750.0).abs() < 5.0);
    }

    #[test]
    fn and_multiplies_or_adds() {
        let c = catalog(1000);
        let half = Expr::col(0).le(Expr::lit(499));
        let and = scan_with(Some(half.clone().and(half.clone())));
        assert!((estimate_rows(&and, &c) - 250.0).abs() < 5.0);
        let or = scan_with(Some(half.clone().or(half.clone())));
        assert!((estimate_rows(&or, &c) - 750.0).abs() < 5.0);
    }

    #[test]
    fn plain_aggregate_is_one_row() {
        let c = catalog(100);
        let p = PlanNode::Aggregate {
            input: Box::new(scan_with(None)),
            group_by: vec![],
            aggs: vec![AggSpec::count_star("n")],
        };
        assert_eq!(estimate_rows(&p, &c), 1.0);
    }

    #[test]
    fn parameterized_index_lookup_is_one_row() {
        let c = catalog(100);
        let mut btree = bufferdb_index::BTreeIndex::new();
        for i in 0..100 {
            btree.insert(i, i as u32);
        }
        c.add_index(bufferdb_storage::IndexDef {
            name: "t_pkey".into(),
            table: "t".into(),
            key_column: 0,
            btree,
        });
        let p = PlanNode::IndexScan {
            index: "t_pkey".into(),
            mode: IndexMode::LookupParam,
        };
        assert_eq!(estimate_rows(&p, &c), 1.0);
        let range = PlanNode::IndexScan {
            index: "t_pkey".into(),
            mode: IndexMode::Range {
                lo: None,
                hi: Some(49),
            },
        };
        let est = estimate_rows(&range, &c);
        assert!(est > 30.0 && est < 70.0, "est {est}");
    }

    #[test]
    fn fk_nestloop_estimates_outer_cardinality() {
        let c = catalog(500);
        let p = PlanNode::NestLoopJoin {
            outer: Box::new(scan_with(None)),
            inner: Box::new(scan_with(None)),
            param_outer_col: Some(0),
            qual: None,
            fk_inner: true,
        };
        assert!((estimate_rows(&p, &c) - 500.0).abs() < 1e-9);
    }
}
