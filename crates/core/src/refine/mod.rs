//! Plan refinement: where to put buffer operators (§6).
//!
//! A bottom-up pass groups pipelined operators into *execution groups* whose
//! combined instruction footprint — shared functions counted once — plus the
//! footprint of a buffer operator fits in the L1 instruction cache. A buffer
//! operator is placed above each completed group. Exclusions, per the paper:
//!
//! * **blocking operators** (sort, materialize, the hash-join build phase)
//!   already batch execution below them and never join a group — though the
//!   pipeline *feeding* a blocking phase is itself a group and may get a
//!   buffer (Figures 16, 17);
//! * **low-cardinality operators** (output below a calibrated threshold,
//!   §7.3) are never buffered: per-call work is too small to amortize the
//!   buffer overhead. The inner side of a foreign-key index nested-loop join
//!   is the canonical case (Figure 15: "the optimizer knows that at most one
//!   row matches each outer tuple");
//! * the **root** never gets a buffer: output goes straight to the client.

pub mod calibrate;

use crate::footprint::{FootprintModel, OpKind};
use crate::plan::estimate::estimate_rows;
use crate::plan::PlanNode;
use crate::prepare::fingerprint::subtree_hash;
use bufferdb_storage::Catalog;
use std::collections::HashMap;

/// Observed output cardinalities from a profiled execution, keyed by the
/// structural hash ([`subtree_hash`]) of the producing subtree. The adaptive
/// re-refinement loop feeds these back so the paper's cardinality rule
/// (§7.3) runs on *measured* rows instead of catalog estimates.
pub type ObservedCards = HashMap<u64, f64>;

/// Configuration for the refinement pass.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Effective L1 instruction cache capacity in bytes an execution group
    /// (plus one buffer operator) may occupy — the paper's 16 KB upper
    /// estimate of the 12 K-µop trace cache.
    pub l1i_capacity: usize,
    /// Output-cardinality threshold below which buffering is not worthwhile
    /// (calibrate with [`calibrate::calibrate_cardinality_threshold`]).
    pub cardinality_threshold: f64,
    /// Buffer array size; the paper settles on 100 entries (§7.4).
    pub buffer_size: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            l1i_capacity: 16 * 1024,
            cardinality_threshold: 400.0,
            buffer_size: 100,
        }
    }
}

/// The current execution group while walking up the plan: the operator kinds
/// whose footprints interleave per tuple.
type Group = Vec<OpKind>;

struct Refiner<'a> {
    catalog: &'a Catalog,
    cfg: &'a RefineConfig,
    observed: Option<&'a ObservedCards>,
}

/// Refine `plan`, returning an equivalent plan with buffer operators added
/// where the footprint analysis recommends them.
pub fn refine_plan(plan: &PlanNode, catalog: &Catalog, cfg: &RefineConfig) -> PlanNode {
    refine_plan_observed(plan, catalog, cfg, None)
}

/// [`refine_plan`] with measured cardinalities: where `observed` has an
/// entry for a subtree, the cardinality rule uses the measured row count in
/// place of the catalog estimate (subtrees without an entry fall back to the
/// estimator). This is how the adaptive loop drops a buffer whose group
/// produced fewer rows than predicted.
pub fn refine_plan_observed(
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &RefineConfig,
    observed: Option<&ObservedCards>,
) -> PlanNode {
    let r = Refiner {
        catalog,
        cfg,
        observed,
    };
    let (plan, _group) = r.refine(plan);
    plan
}

impl Refiner<'_> {
    /// Does a group (plus a new buffer operator above it) fit in L1i?
    fn fits(&self, group: &Group) -> bool {
        let mut kinds = group.clone();
        kinds.push(OpKind::Buffer);
        FootprintModel::combined_footprint(&kinds) <= self.cfg.l1i_capacity
    }

    fn above_threshold(&self, node: &PlanNode) -> bool {
        let rows = self
            .observed
            .and_then(|m| m.get(&subtree_hash(node)).copied())
            .unwrap_or_else(|| estimate_rows(node, self.catalog));
        rows >= self.cfg.cardinality_threshold
    }

    fn buffer(&self, plan: PlanNode) -> PlanNode {
        PlanNode::Buffer {
            input: Box::new(plan),
            size: self.cfg.buffer_size,
        }
    }

    /// Close out a child group: wrap it in a buffer when the group's output
    /// cardinality clears the calibration threshold (§7.3) — buffering a
    /// low-cardinality pipeline costs more than it saves.
    fn finalize(&self, plan: PlanNode, group: Option<Group>) -> PlanNode {
        match group {
            Some(_) if self.above_threshold(&plan) => self.buffer(plan),
            _ => plan,
        }
    }

    /// Returns the refined node plus the open execution group ending at it
    /// (`None` = boundary: blocking, excluded, or already buffered).
    fn refine(&self, node: &PlanNode) -> (PlanNode, Option<Group>) {
        match node {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } | PlanNode::ReusedScan { .. } => {
                (node.clone(), Some(vec![node.op_kind()]))
            }

            // A sys scan has no instruction footprint, so buffering above it
            // can never pay for itself: treat it as a group boundary.
            PlanNode::SysScan { .. } => (node.clone(), None),

            PlanNode::Aggregate { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::Limit { input, .. } => {
                let (child, child_group) = self.refine(input);
                self.refine_join_side(node, child, child_group, |c| node.with_inputs(vec![c]))
            }

            PlanNode::Sort { input, .. } | PlanNode::Materialize { input } => {
                let (child, child_group) = self.refine(input);
                let child = self.close_before_blocking(child, child_group, node.op_kind());
                (node.with_inputs(vec![child]), None)
            }

            PlanNode::NestLoopJoin {
                outer,
                inner,
                param_outer_col,
                fk_inner,
                ..
            } => {
                let (outer_p, outer_g) = self.refine(outer);
                let (inner_p, inner_g) = self.refine(inner);
                // A foreign-key / parameterized inner runs once per outer
                // tuple with tiny per-call cardinality: never buffered
                // (Figure 15). A non-FK inner that formed a group is closed
                // with a buffer like any other.
                let inner_p = if *fk_inner || param_outer_col.is_some() {
                    inner_p
                } else {
                    self.finalize(inner_p, inner_g)
                };
                self.refine_join_side(node, outer_p, outer_g, |o| {
                    node.with_inputs(vec![o, inner_p])
                })
            }

            PlanNode::HashJoin { probe, build, .. } => {
                let (probe_p, probe_g) = self.refine(probe);
                let (build_p, build_g) = self.refine(build);
                // The blocking build phase interleaves HashBuild code with
                // the build child per row: close the build group with a
                // buffer when the pair overflows L1i (Figure 16).
                let build_p = self.close_before_blocking(build_p, build_g, OpKind::HashBuild);
                self.refine_join_side(node, probe_p, probe_g, |p| {
                    node.with_inputs(vec![p, build_p])
                })
            }

            PlanNode::MergeJoin { left, right, .. } => {
                let (left_p, left_g) = self.refine(left);
                let (right_p, right_g) = self.refine(right);
                let my_kind = node.op_kind();
                // Try one group spanning the join and both pipelined inputs.
                let mut all: Group = vec![my_kind.clone()];
                let mut have_any = false;
                for g in [&left_g, &right_g].into_iter().flatten() {
                    all.extend(g.iter().cloned());
                    have_any = true;
                }
                if have_any && self.fits(&all) {
                    return (node.with_inputs(vec![left_p, right_p]), Some(all));
                }
                // Otherwise close each input group separately (Figure 17:
                // buffer above the IndexScan; the Sort side is a boundary).
                let left_p = self.finalize(left_p, left_g);
                let right_p = self.finalize(right_p, right_g);
                (node.with_inputs(vec![left_p, right_p]), Some(vec![my_kind]))
            }

            PlanNode::Buffer { input, .. } => {
                // A hand-placed buffer: keep it, close anything below.
                let (child, _group) = self.refine(input);
                (node.with_inputs(vec![child]), None)
            }

            PlanNode::PushPipeline { .. } => {
                // A fused push pipeline executes as ONE code region: there
                // is nothing inside for a buffer to amortize (the fusion
                // already removed the per-tuple interleaving), so the
                // subtree is left untouched. Toward the parent the group
                // carries the fused footprint, so pull operators stacked
                // above a push pipeline buffer against its real size.
                (node.clone(), Some(vec![node.op_kind()]))
            }

            PlanNode::Exchange { input, .. } => {
                // The worker pipeline's code never interleaves with the
                // parent's (they run on different simulated cores), so
                // groups never span *down* the exchange edge: the subtree
                // is refined in isolation. The parent side is different —
                // the exchange's own gather/merge code runs in the
                // coordinator pipeline, so it opens a fresh group that
                // parents may join or buffer against, exactly like a leaf.
                // Without this, nothing above an exchange could ever be
                // buffered, and parallel plans would be stuck with their
                // full coordinator footprint per tuple.
                let (child, _group) = self.refine(input);
                (node.with_inputs(vec![child]), Some(vec![OpKind::Exchange]))
            }
        }
    }

    /// Merge `node` with the group coming from its pipelined input, or close
    /// that group with a buffer. Shared by unary operators and the pipelined
    /// side of joins; `rebuild` puts `node` back together over the
    /// (possibly buffered) child.
    fn refine_join_side(
        &self,
        node: &PlanNode,
        child: PlanNode,
        child_group: Option<Group>,
        rebuild: impl FnOnce(PlanNode) -> PlanNode,
    ) -> (PlanNode, Option<Group>) {
        let my_kind = node.op_kind();
        match child_group {
            Some(g) => {
                let mut merged: Group = vec![my_kind.clone()];
                merged.extend(g.iter().cloned());
                if self.fits(&merged) {
                    (rebuild(child), Some(merged))
                } else {
                    let child = self.finalize(child, Some(g));
                    (rebuild(child), Some(vec![my_kind]))
                }
            }
            None => (rebuild(child), Some(vec![my_kind])),
        }
    }

    /// Close a child group feeding a blocking phase: insert a buffer only
    /// when the pair (child group + blocking code + buffer) overflows L1i
    /// and the child produces enough rows to amortize it.
    fn close_before_blocking(
        &self,
        child: PlanNode,
        child_group: Option<Group>,
        blocking: OpKind,
    ) -> PlanNode {
        match child_group {
            None => child,
            Some(g) => {
                let mut pair: Group = vec![blocking];
                pair.extend(g.iter().cloned());
                if self.fits(&pair) || !self.above_threshold(&child) {
                    child
                } else {
                    self.buffer(child)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{AggFunc, AggSpec, IndexMode};
    use bufferdb_index::BTreeIndex;
    use bufferdb_storage::{IndexDef, TableBuilder};
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

    /// A catalog with a biggish "lineitem" and an indexed "orders".
    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mut li = TableBuilder::new(
            "lineitem",
            Schema::new(vec![
                Field::new("l_orderkey", DataType::Int),
                Field::new("l_quantity", DataType::Int),
            ]),
        );
        for i in 0..10_000 {
            li.push(Tuple::new(vec![Datum::Int(i / 4), Datum::Int(i % 50)]));
        }
        c.add_table(li);
        let mut orders = TableBuilder::new(
            "orders",
            Schema::new(vec![Field::new("o_orderkey", DataType::Int)]),
        );
        let mut btree = BTreeIndex::new();
        for i in 0..2500 {
            orders.push(Tuple::new(vec![Datum::Int(i)]));
            btree.insert(i, i as u32);
        }
        c.add_table(orders);
        c.add_index(IndexDef {
            name: "orders_pkey".into(),
            table: "orders".into(),
            key_column: 0,
            btree,
        });
        c
    }

    fn scan(pred: bool) -> PlanNode {
        PlanNode::SeqScan {
            table: "lineitem".into(),
            predicate: pred.then(|| Expr::col(1).le(Expr::lit(45))),
            projection: None,
        }
    }

    fn agg_q1() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col(1), "s"),
            AggSpec::new(AggFunc::Avg, Expr::col(1), "a"),
            AggSpec::count_star("n"),
        ]
    }

    #[test]
    fn query1_gets_a_buffer() {
        // Scan-with-pred (13.2K) + SUM/AVG/COUNT agg => > 16K: buffer added.
        let c = catalog();
        let plan = PlanNode::Aggregate {
            input: Box::new(scan(true)),
            group_by: vec![],
            aggs: agg_q1(),
        };
        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        assert_eq!(refined.buffer_count(), 1);
        // Buffer sits directly above the scan.
        let PlanNode::Aggregate { input, .. } = &refined else {
            panic!()
        };
        assert!(matches!(**input, PlanNode::Buffer { .. }));
    }

    #[test]
    fn query2_gets_no_buffer() {
        // Scan-with-pred + COUNT(*) => ~15K < 16K: same group, no buffer.
        let c = catalog();
        let plan = PlanNode::Aggregate {
            input: Box::new(scan(true)),
            group_by: vec![],
            aggs: vec![AggSpec::count_star("n")],
        };
        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        assert_eq!(refined.buffer_count(), 0);
    }

    #[test]
    fn root_is_never_buffered() {
        let c = catalog();
        let refined = refine_plan(&scan(true), &c, &RefineConfig::default());
        assert!(matches!(refined, PlanNode::SeqScan { .. }));
    }

    #[test]
    fn low_cardinality_scan_is_not_buffered() {
        let c = catalog();
        // Selective predicate: quantity <= 0 matches ~1/50 of rows… use an
        // impossible one via threshold instead: crank the threshold up.
        let cfg = RefineConfig {
            cardinality_threshold: 1e12,
            ..Default::default()
        };
        let plan = PlanNode::Aggregate {
            input: Box::new(scan(true)),
            group_by: vec![],
            aggs: agg_q1(),
        };
        assert_eq!(refine_plan(&plan, &c, &cfg).buffer_count(), 0);
    }

    #[test]
    fn fk_nestloop_matches_figure15() {
        // Agg over NestLoop(outer=scan lineitem, inner=IndexScan orders):
        // buffer above the outer scan only; none above the FK inner; agg
        // merges with the nestloop group.
        let c = catalog();
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::NestLoopJoin {
                outer: Box::new(scan(true)),
                inner: Box::new(PlanNode::IndexScan {
                    index: "orders_pkey".into(),
                    mode: IndexMode::LookupParam,
                }),
                param_outer_col: Some(0),
                qual: None,
                fk_inner: true,
            }),
            group_by: vec![],
            aggs: agg_q1(),
        };
        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        assert_eq!(refined.buffer_count(), 1);
        let PlanNode::Aggregate { input, .. } = &refined else {
            panic!()
        };
        let PlanNode::NestLoopJoin { outer, inner, .. } = &**input else {
            panic!("agg must merge with the join group, not buffer it: {refined:?}")
        };
        assert!(
            matches!(**outer, PlanNode::Buffer { .. }),
            "outer scan buffered"
        );
        assert!(
            matches!(**inner, PlanNode::IndexScan { .. }),
            "inner not buffered"
        );
    }

    #[test]
    fn hashjoin_matches_figure16() {
        // Buffers above both the probe scan and the build scan.
        let c = catalog();
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::HashJoin {
                probe: Box::new(scan(true)),
                build: Box::new(PlanNode::SeqScan {
                    table: "orders".into(),
                    predicate: None,
                    projection: None,
                }),
                probe_key: 0,
                build_key: 0,
            }),
            group_by: vec![],
            aggs: agg_q1(),
        };
        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        assert_eq!(refined.buffer_count(), 2, "{refined:#?}");
        let PlanNode::Aggregate { input, .. } = &refined else {
            panic!()
        };
        let PlanNode::HashJoin { probe, build, .. } = &**input else {
            panic!()
        };
        assert!(matches!(**probe, PlanNode::Buffer { .. }));
        assert!(matches!(**build, PlanNode::Buffer { .. }));
    }

    #[test]
    fn mergejoin_matches_figure17() {
        // MergeJoin(left=Sort(scan lineitem), right=IndexScan range orders):
        // buffer below the sort (scan 13.2K + sort 14K > 16K), buffer above
        // the index scan, no buffer above the sort itself.
        let c = catalog();
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::MergeJoin {
                left: Box::new(PlanNode::Sort {
                    input: Box::new(scan(true)),
                    keys: vec![(0, true)],
                }),
                right: Box::new(PlanNode::IndexScan {
                    index: "orders_pkey".into(),
                    mode: IndexMode::Range { lo: None, hi: None },
                }),
                left_key: 0,
                right_key: 0,
            }),
            group_by: vec![],
            aggs: agg_q1(),
        };
        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        assert_eq!(refined.buffer_count(), 2, "{refined:#?}");
        let PlanNode::Aggregate { input, .. } = &refined else {
            panic!()
        };
        let PlanNode::MergeJoin { left, right, .. } = &**input else {
            panic!("no buffer above merge join (agg merges): {refined:#?}")
        };
        let PlanNode::Sort { input: sort_in, .. } = &**left else {
            panic!()
        };
        assert!(
            matches!(**sort_in, PlanNode::Buffer { .. }),
            "buffer below sort"
        );
        assert!(
            matches!(**right, PlanNode::Buffer { .. }),
            "buffer above index scan"
        );
    }

    #[test]
    fn refined_plan_uses_configured_buffer_size() {
        let c = catalog();
        let cfg = RefineConfig {
            buffer_size: 777,
            ..Default::default()
        };
        let plan = PlanNode::Aggregate {
            input: Box::new(scan(true)),
            group_by: vec![],
            aggs: agg_q1(),
        };
        let refined = refine_plan(&plan, &c, &cfg);
        let PlanNode::Aggregate { input, .. } = &refined else {
            panic!()
        };
        let PlanNode::Buffer { size, .. } = &**input else {
            panic!()
        };
        assert_eq!(*size, 777);
    }

    #[test]
    fn hand_placed_buffers_are_preserved() {
        let c = catalog();
        let plan = PlanNode::Buffer {
            input: Box::new(scan(true)),
            size: 64,
        };
        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        assert_eq!(refined.buffer_count(), 1);
    }

    #[test]
    fn bigger_l1i_removes_the_buffer() {
        // With a 32 KB L1i, Query 1 fits in one group: no buffering needed.
        let c = catalog();
        let cfg = RefineConfig {
            l1i_capacity: 32 * 1024,
            ..Default::default()
        };
        let plan = PlanNode::Aggregate {
            input: Box::new(scan(true)),
            group_by: vec![],
            aggs: agg_q1(),
        };
        assert_eq!(refine_plan(&plan, &c, &cfg).buffer_count(), 0);
    }
}
