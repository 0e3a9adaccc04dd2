//! A small cost-based physical optimizer for two-table equi-joins.
//!
//! The paper operates downstream of an optimizer ("Our plan refinement
//! algorithm accepts a query plan tree from the optimizer as input"); this
//! module provides that upstream piece for the common case its experiments
//! force by hand: choosing among index nested-loop, hash and merge join for
//! a foreign-key equi-join, using table statistics. The cost model counts
//! the dominant per-tuple work of each method — the same quantities the
//! executor simulates — so its choices align with the simulated outcomes.

use crate::expr::Expr;
use crate::plan::estimate::predicate_selectivity;
use crate::plan::{IndexMode, PlanNode};
use crate::refine::RefineConfig;
use bufferdb_storage::Catalog;
use bufferdb_types::{DbError, Result};

/// Which executor backend prepared plans run under — the "execution model"
/// half of a physical plan, kept separate from the plan shape so the same
/// logical plan can be compared across backends.
///
/// * `Pull` — plain Volcano iterators, no buffer operators (refinement is
///   skipped): the paper's baseline.
/// * `BufferedPull` — Volcano iterators plus refiner-placed buffer
///   operators (the paper's contribution; the default, and the behaviour
///   of every release before this policy existed).
/// * `Push` — every eligible pipeline is fused into a
///   [`PlanNode::PushPipeline`] group executing batch-at-a-time over one
///   combined code region; the refiner still buffers what stays pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecModePolicy {
    /// Volcano pull, no buffers.
    Pull,
    /// Volcano pull with refiner-placed buffers (default).
    #[default]
    BufferedPull,
    /// Fuse every eligible pipeline into a push group.
    Push,
}

impl ExecModePolicy {
    /// Stable label used in fingerprints, JSON schemas and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            ExecModePolicy::Pull => "pull",
            ExecModePolicy::BufferedPull => "buffered-pull",
            ExecModePolicy::Push => "push",
        }
    }

    /// Whether the refiner runs over the mode-marked plan (buffers are a
    /// pull-side tool; plain pull is the unbuffered baseline).
    pub(crate) fn refines(self) -> bool {
        !matches!(self, ExecModePolicy::Pull)
    }

    /// Whether profiled feedback may re-refine the cached plan. Buffer
    /// placement is what adaptation moves, so only the mode that asked for
    /// refiner-placed buffers adapts; `Pull` and `Push` plans are pinned to
    /// what the policy chose.
    pub(crate) fn adapts(self) -> bool {
        self == ExecModePolicy::BufferedPull
    }
}

/// Can `n` be the probe-side chain of a fused join (filters and
/// projections over one sequential scan)?
fn probe_chain_ok(n: &PlanNode) -> bool {
    match n {
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => probe_chain_ok(input),
        PlanNode::SeqScan { .. } => true,
        _ => false,
    }
}

/// Can `n` be fused below a push group root: `[Filter|Project]*` over a
/// sequential scan, or over one join whose other side needs no region of
/// its own —
/// - a hash join probed by such a chain (the blocking build side stays a
///   pull subtree);
/// - an index nest-loop join whose outer is such a chain (one index lookup
///   per outer row, a probe stage);
/// - a merge join of a sorted run, formed by its own sort group over a
///   chain, with an index range (the merge is a stage; the sort is the
///   breaker between the two groups).
fn chain_ok(n: &PlanNode) -> bool {
    match n {
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => chain_ok(input),
        PlanNode::SeqScan { .. } => true,
        PlanNode::HashJoin { probe, .. } => probe_chain_ok(probe),
        PlanNode::NestLoopJoin {
            outer,
            inner,
            param_outer_col: Some(_),
            ..
        } => {
            let lookup = matches!(
                **inner,
                PlanNode::IndexScan {
                    mode: IndexMode::LookupParam,
                    ..
                }
            );
            lookup && probe_chain_ok(outer)
        }
        PlanNode::MergeJoin {
            left,
            right,
            left_key,
            ..
        } => match (&**left, &**right) {
            (
                PlanNode::Sort { input, keys },
                PlanNode::IndexScan {
                    mode: IndexMode::Range { .. },
                    ..
                },
            ) => keys.first() == Some(&(*left_key, true)) && chain_ok(input),
            _ => false,
        },
        _ => false,
    }
}

/// Is `n` the root of a push-eligible pipeline? An aggregate may cap the
/// group, or a sort (its run is formed as the group's sink); everything
/// below must be a fuseable chain. A sort over an aggregate, exchanges and
/// non-index nest-loop inners are never fused.
fn push_eligible(n: &PlanNode) -> bool {
    match n {
        PlanNode::Aggregate { input, .. } | PlanNode::Sort { input, .. } => chain_ok(input),
        other => chain_ok(other),
    }
}

/// Clone the fused chain, recursing mode selection into hash-join build
/// sides (they stay pull subtrees and may contain their own pipelines) and
/// fusing a merge's left sort as a group of its own, whose run the merge
/// group reads.
fn recurse_build_sides(n: &PlanNode) -> PlanNode {
    match n {
        // The probe chain is part of the group (no joins inside it, by
        // eligibility); only the build subtree re-enters selection.
        PlanNode::HashJoin { probe, build, .. } => {
            n.with_inputs(vec![(**probe).clone(), mode_rec(build)])
        }
        PlanNode::MergeJoin { left, right, .. } => n.with_inputs(vec![
            PlanNode::PushPipeline {
                input: Box::new(recurse_build_sides(left)),
            },
            (**right).clone(),
        ]),
        PlanNode::Aggregate { .. }
        | PlanNode::Sort { .. }
        | PlanNode::Filter { .. }
        | PlanNode::Project { .. } => {
            n.with_inputs(n.children().into_iter().map(recurse_build_sides).collect())
        }
        other => other.clone(),
    }
}

fn mode_rec(plan: &PlanNode) -> PlanNode {
    if push_eligible(plan) {
        return PlanNode::PushPipeline {
            input: Box::new(recurse_build_sides(plan)),
        };
    }
    match plan {
        // The inner side is rescanned per outer row; push pipelines do not
        // rescan, so it stays pull.
        PlanNode::NestLoopJoin { outer, inner, .. } => {
            plan.with_inputs(vec![mode_rec(outer), (**inner).clone()])
        }
        PlanNode::PushPipeline { .. } => plan.clone(),
        // Everything else, an exchange included: fusion happens per worker
        // pipeline, under the exchange.
        _ => plan.with_inputs(plan.children().into_iter().map(mode_rec).collect()),
    }
}

/// Mark every pipeline of `plan` with its execution model under `policy`:
/// under `Push` every eligible pipeline is wrapped in
/// [`PlanNode::PushPipeline`]; everything else is left for the pull
/// executor (and, after this pass, the refiner). Runs between
/// parallelization and refinement — see
/// `crate::prepare::prepare_plan_parts_with_mode`.
///
/// Output is bit-identical across policies by construction: the marker
/// changes *how* a pipeline executes, never what it produces.
pub fn choose_pipeline_modes(
    plan: &PlanNode,
    _refine_cfg: &RefineConfig,
    policy: ExecModePolicy,
) -> PlanNode {
    match policy {
        ExecModePolicy::Pull | ExecModePolicy::BufferedPull => plan.clone(),
        ExecModePolicy::Push => mode_rec(plan),
    }
}

/// A two-table foreign-key equi-join to be planned: every `outer` row joins
/// at most one `inner` row via `inner`'s unique key.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Outer (probe / fact) table.
    pub outer_table: String,
    /// Optional filter on the outer table.
    pub outer_predicate: Option<Expr>,
    /// Join key column in the outer table.
    pub outer_key: usize,
    /// Inner (dimension) table with a unique key.
    pub inner_table: String,
    /// Join key column in the inner table (unique).
    pub inner_key: usize,
    /// Name of a B+-tree index on the inner key, if one exists.
    pub inner_index: Option<String>,
}

/// Relative per-unit costs used by [`choose_join_plan`]. Derived from the
/// operators' simulated work per call; exposed for tests and tuning.
#[derive(Debug, Clone)]
pub struct JoinCostModel {
    /// Cost of scanning one heap row.
    pub scan_row: f64,
    /// Cost of one B+-tree probe (per outer row, index nested-loop).
    pub index_probe: f64,
    /// Cost of hashing + inserting one build row.
    pub hash_build_row: f64,
    /// Cost of probing the hash table once.
    pub hash_probe_row: f64,
    /// Per-row cost of sorting (multiplied by log2 n).
    pub sort_row_log: f64,
    /// Per-row cost of the merge itself.
    pub merge_row: f64,
}

impl Default for JoinCostModel {
    fn default() -> Self {
        JoinCostModel {
            scan_row: 1.0,
            index_probe: 2.4,
            hash_build_row: 1.4,
            hash_probe_row: 0.9,
            sort_row_log: 0.25,
            merge_row: 0.6,
        }
    }
}

/// The physical choice made by the optimizer, with its estimated cost.
#[derive(Debug, Clone)]
pub struct JoinChoice {
    /// The physical plan (without buffer operators; run the refiner next).
    pub plan: PlanNode,
    /// Method name ("nestloop" | "hashjoin" | "mergejoin").
    pub method: &'static str,
    /// Estimated cost in scan-row units.
    pub cost: f64,
}

/// Estimate costs of the three join methods and return the cheapest plan.
///
/// Mirrors a System-R-style enumeration restricted to one join: index
/// nested-loop wins for selective outer filters (few probes), hash join for
/// bulk joins, merge join when its sort is amortized (rarely here, matching
/// PostgreSQL's preferences for FK joins on unsorted heaps).
pub fn choose_join_plan(
    query: &JoinQuery,
    catalog: &Catalog,
    cost: &JoinCostModel,
) -> Result<JoinChoice> {
    let outer = catalog.table(&query.outer_table)?;
    let inner = catalog.table(&query.inner_table)?;
    let outer_rows = outer.stats().row_count as f64;
    let inner_rows = inner.stats().row_count as f64;
    let sel = query
        .outer_predicate
        .as_ref()
        .map(|p| predicate_selectivity(p, &query.outer_table, catalog))
        .unwrap_or(1.0);
    let outer_out = outer_rows * sel;

    let outer_scan = PlanNode::SeqScan {
        table: query.outer_table.clone(),
        predicate: query.outer_predicate.clone(),
        projection: None,
    };

    let mut candidates: Vec<JoinChoice> = Vec::new();

    // Index nested-loop join: scan outer + one probe per surviving row.
    if let Some(index) = &query.inner_index {
        catalog.index(index)?;
        let nl_cost = outer_rows * cost.scan_row + outer_out * cost.index_probe;
        candidates.push(JoinChoice {
            plan: PlanNode::NestLoopJoin {
                outer: Box::new(outer_scan.clone()),
                inner: Box::new(PlanNode::IndexScan {
                    index: index.clone(),
                    mode: IndexMode::LookupParam,
                }),
                param_outer_col: Some(query.outer_key),
                qual: None,
                fk_inner: true,
            },
            method: "nestloop",
            cost: nl_cost,
        });
    }

    // Hash join: build the inner, probe with the outer.
    let hj_cost = inner_rows * (cost.scan_row + cost.hash_build_row)
        + outer_rows * cost.scan_row
        + outer_out * cost.hash_probe_row;
    candidates.push(JoinChoice {
        plan: PlanNode::HashJoin {
            probe: Box::new(outer_scan.clone()),
            build: Box::new(PlanNode::SeqScan {
                table: query.inner_table.clone(),
                predicate: None,
                projection: None,
            }),
            probe_key: query.outer_key,
            build_key: query.inner_key,
        },
        method: "hashjoin",
        cost: hj_cost,
    });

    // Merge join: sort the outer, read the inner in key order (index order
    // when available, else sort it too).
    let sort_outer = outer_out.max(2.0);
    let mut mj_cost = outer_rows * cost.scan_row
        + sort_outer * sort_outer.log2() * cost.sort_row_log
        + (outer_out + inner_rows) * cost.merge_row;
    let right: PlanNode = match &query.inner_index {
        Some(index) => {
            mj_cost += inner_rows * cost.scan_row;
            PlanNode::IndexScan {
                index: index.clone(),
                mode: IndexMode::Range { lo: None, hi: None },
            }
        }
        None => {
            let n = inner_rows.max(2.0);
            mj_cost += inner_rows * cost.scan_row + n * n.log2() * cost.sort_row_log;
            PlanNode::Sort {
                input: Box::new(PlanNode::SeqScan {
                    table: query.inner_table.clone(),
                    predicate: None,
                    projection: None,
                }),
                keys: vec![(query.inner_key, true)],
            }
        }
    };
    candidates.push(JoinChoice {
        plan: PlanNode::MergeJoin {
            left: Box::new(PlanNode::Sort {
                input: Box::new(outer_scan),
                keys: vec![(query.outer_key, true)],
            }),
            right: Box::new(right),
            left_key: query.outer_key,
            right_key: query.inner_key,
        },
        method: "mergejoin",
        cost: mj_cost,
    });

    candidates
        .into_iter()
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .ok_or_else(|| DbError::InvalidPlan("no join candidates".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::OpKind;
    use crate::plan::push_member_kinds;
    use bufferdb_index::BTreeIndex;
    use bufferdb_storage::{IndexDef, TableBuilder};
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

    fn catalog(fact_rows: i64, dim_rows: i64) -> Catalog {
        let c = Catalog::new();
        let mut fact = TableBuilder::new(
            "fact",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        );
        for i in 0..fact_rows {
            fact.push(Tuple::new(vec![Datum::Int(i % dim_rows), Datum::Int(i)]));
        }
        c.add_table(fact);
        let mut dim = TableBuilder::new("dim", Schema::new(vec![Field::new("d", DataType::Int)]));
        let mut btree = BTreeIndex::new();
        for i in 0..dim_rows {
            dim.push(Tuple::new(vec![Datum::Int(i)]));
            btree.insert(i, i as u32);
        }
        c.add_table(dim);
        c.add_index(IndexDef {
            name: "dim_pkey".into(),
            table: "dim".into(),
            key_column: 0,
            btree,
        });
        c
    }

    fn query(pred: Option<Expr>, index: bool) -> JoinQuery {
        JoinQuery {
            outer_table: "fact".into(),
            outer_predicate: pred,
            outer_key: 0,
            inner_table: "dim".into(),
            inner_key: 0,
            inner_index: index.then(|| "dim_pkey".to_string()),
        }
    }

    #[test]
    fn bulk_join_prefers_hash() {
        let c = catalog(100_000, 10_000);
        let choice = choose_join_plan(&query(None, true), &c, &JoinCostModel::default()).unwrap();
        assert_eq!(choice.method, "hashjoin", "cost {}", choice.cost);
    }

    #[test]
    fn selective_outer_prefers_index_nestloop() {
        let c = catalog(100_000, 10_000);
        // v < 100: ~0.1% of the outer survives; probing 100 times beats
        // building a 10k-row hash table.
        let pred = Expr::col(1).lt(Expr::lit(100));
        let choice =
            choose_join_plan(&query(Some(pred), true), &c, &JoinCostModel::default()).unwrap();
        assert_eq!(choice.method, "nestloop", "cost {}", choice.cost);
        assert!(matches!(choice.plan, PlanNode::NestLoopJoin { .. }));
    }

    #[test]
    fn no_index_excludes_nestloop() {
        let c = catalog(1000, 100);
        let pred = Expr::col(1).lt(Expr::lit(5));
        let choice =
            choose_join_plan(&query(Some(pred), false), &c, &JoinCostModel::default()).unwrap();
        assert_ne!(choice.method, "nestloop");
    }

    #[test]
    fn chosen_plans_execute_and_agree() {
        use crate::exec::execute_query;
        use crate::session::QueryOpts;
        use bufferdb_cachesim::MachineConfig;
        let c = catalog(2000, 100);
        let machine = MachineConfig::pentium4_like();
        let mut counts = Vec::new();
        // Force each method by manipulating the candidate set indirectly:
        // run the chosen plan and the always-available hash plan.
        for pred in [None, Some(Expr::col(1).lt(Expr::lit(50)))] {
            let choice =
                choose_join_plan(&query(pred.clone(), true), &c, &JoinCostModel::default())
                    .unwrap();
            let rows = execute_query(&choice.plan, &c, &machine, &QueryOpts::new())
                .into_result()
                .map(|(rows, _, _)| rows)
                .unwrap();
            counts.push((pred.is_some(), rows.len()));
        }
        assert_eq!(
            counts[0].1, 2000,
            "unfiltered FK join returns every fact row"
        );
        assert_eq!(counts[1].1, 50);
    }

    #[test]
    fn unknown_tables_error() {
        let c = catalog(10, 10);
        let mut q = query(None, false);
        q.outer_table = "nope".into();
        assert!(choose_join_plan(&q, &c, &JoinCostModel::default()).is_err());
    }

    #[test]
    fn cost_estimates_are_positive_and_ordered() {
        let c = catalog(50_000, 5_000);
        let choice = choose_join_plan(&query(None, true), &c, &JoinCostModel::default()).unwrap();
        assert!(choice.cost > 0.0);
    }

    fn agg_over_scan() -> PlanNode {
        PlanNode::Aggregate {
            input: Box::new(PlanNode::SeqScan {
                table: "fact".into(),
                predicate: Some(Expr::col(1).lt(Expr::lit(100))),
                projection: None,
            }),
            group_by: vec![],
            aggs: vec![crate::plan::AggSpec::count_star("n")],
        }
    }

    fn is_push(n: &PlanNode) -> bool {
        matches!(n, PlanNode::PushPipeline { .. })
    }

    #[test]
    fn push_policy_fuses_whole_eligible_pipeline() {
        let cfg = RefineConfig::default();
        let plan = agg_over_scan();
        let marked = choose_pipeline_modes(&plan, &cfg, ExecModePolicy::Push);
        assert!(
            matches!(&marked, PlanNode::PushPipeline { input } if matches!(**input, PlanNode::Aggregate { .. })),
            "aggregate caps the group: {marked:?}"
        );
        assert_eq!(marked.count(is_push), 1);
    }

    #[test]
    fn pull_policies_leave_the_plan_untouched() {
        let cfg = RefineConfig::default();
        let plan = agg_over_scan();
        for policy in [ExecModePolicy::Pull, ExecModePolicy::BufferedPull] {
            assert_eq!(choose_pipeline_modes(&plan, &cfg, policy), plan);
        }
    }

    #[test]
    fn index_nestloop_fuses_as_one_probe_group() {
        let cfg = RefineConfig::default();
        let scan = PlanNode::SeqScan {
            table: "fact".into(),
            predicate: Some(Expr::col(1).lt(Expr::lit(100))),
            projection: None,
        };
        let lookup = PlanNode::IndexScan {
            index: "dim_pkey".into(),
            mode: IndexMode::LookupParam,
        };
        let nestloop = |inner: PlanNode, param_outer_col| PlanNode::NestLoopJoin {
            outer: Box::new(scan.clone()),
            inner: Box::new(inner),
            param_outer_col,
            qual: None,
            fk_inner: true,
        };
        let agg = |input: PlanNode| PlanNode::Aggregate {
            input: Box::new(input),
            group_by: vec![],
            aggs: vec![crate::plan::AggSpec::count_star("n")],
        };
        // [scan → index probe → aggregate] is one group, the plan itself
        // under the marker, whose footprint is the four members' union.
        let plan = agg(nestloop(lookup.clone(), Some(0)));
        let marked = choose_pipeline_modes(&plan, &cfg, ExecModePolicy::Push);
        assert_eq!(
            marked,
            PlanNode::PushPipeline {
                input: Box::new(plan.clone())
            }
        );
        assert_eq!(
            push_member_kinds(&plan),
            [
                OpKind::aggregate(&[crate::plan::AggSpec::count_star("n")]),
                OpKind::NestLoop,
                OpKind::IndexScan,
                OpKind::SeqScan { with_pred: true },
            ]
        );
        // A rescanned (non-index) inner, or an unparameterized one, is no
        // probe: the join stays pull over its fused outer scan.
        for plan in [nestloop(scan.clone(), Some(0)), nestloop(lookup, None)] {
            let marked = choose_pipeline_modes(&plan, &cfg, ExecModePolicy::Push);
            let PlanNode::NestLoopJoin { outer, inner, .. } = &marked else {
                panic!("root must stay a nestloop: {marked:?}");
            };
            assert!(matches!(**outer, PlanNode::PushPipeline { .. }));
            assert!(!matches!(**inner, PlanNode::PushPipeline { .. }));
        }
    }

    #[test]
    fn sort_over_an_aggregate_is_not_fused() {
        // TPC-H Q1's shape: the sort's input is no fusable chain, so only
        // the aggregate's group fuses and the sort stays pull above it.
        let cfg = RefineConfig::default();
        let plan = PlanNode::Sort {
            input: Box::new(agg_over_scan()),
            keys: vec![(0, true)],
        };
        let marked = choose_pipeline_modes(&plan, &cfg, ExecModePolicy::Push);
        let PlanNode::Sort { input, .. } = &marked else {
            panic!("sort must stay pull: {marked:?}");
        };
        assert_eq!(
            **input,
            choose_pipeline_modes(&agg_over_scan(), &cfg, ExecModePolicy::Push)
        );
        // Over a chain, the sort is that chain's sink.
        let PlanNode::Aggregate { input: scan, .. } = agg_over_scan() else {
            unreachable!()
        };
        let sorted = PlanNode::Sort {
            input: scan,
            keys: vec![(0, true)],
        };
        assert!(matches!(
            choose_pipeline_modes(&sorted, &cfg, ExecModePolicy::Push),
            PlanNode::PushPipeline { .. }
        ));
    }

    #[test]
    fn push_fuses_under_exchange_and_into_build_sides() {
        let cfg = RefineConfig::default();
        let scan = PlanNode::SeqScan {
            table: "fact".into(),
            predicate: Some(Expr::col(1).lt(Expr::lit(10))),
            projection: None,
        };
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::Exchange {
                input: Box::new(PlanNode::HashJoin {
                    probe: Box::new(scan.clone()),
                    build: Box::new(scan),
                    probe_key: 0,
                    build_key: 0,
                }),
                workers: 2,
            }),
            group_by: vec![],
            aggs: vec![crate::plan::AggSpec::count_star("n")],
        };
        let marked = choose_pipeline_modes(&plan, &cfg, ExecModePolicy::Push);
        // The exchange blocks fusion of the aggregate; below it the join
        // pipeline fuses, and the build side becomes its own group.
        assert_eq!(marked.count(is_push), 2, "{marked:?}");
        let PlanNode::Aggregate { input, .. } = &marked else {
            panic!()
        };
        let PlanNode::Exchange { input, .. } = &**input else {
            panic!("exchange preserved: {marked:?}")
        };
        let PlanNode::PushPipeline { input } = &**input else {
            panic!("join pipeline fused: {marked:?}")
        };
        let PlanNode::HashJoin { build, .. } = &**input else {
            panic!()
        };
        assert!(matches!(**build, PlanNode::PushPipeline { .. }));
    }
}
