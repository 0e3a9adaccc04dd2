//! Physical query plans.
//!
//! Plans are trees of physical operators, built programmatically (the paper
//! post-processes optimizer output rather than changing optimization; our
//! "optimizer" is the plan builder plus table statistics). The refinement
//! algorithm (§6.2) rewrites a plan by inserting [`PlanNode::Buffer`] nodes.

pub mod analyze;
pub mod estimate;
pub mod explain;

use crate::expr::Expr;
use crate::footprint::OpKind;
use crate::prepare::reuse::ReuseHandle;
use bufferdb_storage::Catalog;
use bufferdb_types::{DataType, DbError, Field, Result, Schema, SchemaRef};

/// Aggregate functions supported by [`PlanNode::Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` — non-null inputs.
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One aggregate in an aggregation node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Function.
    pub func: AggFunc,
    /// Argument (ignored for `COUNT(*)`).
    pub input: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// `COUNT(*) AS name`.
    pub fn count_star(name: impl Into<String>) -> Self {
        AggSpec {
            func: AggFunc::CountStar,
            input: None,
            name: name.into(),
        }
    }

    /// `func(expr) AS name`.
    pub fn new(func: AggFunc, input: Expr, name: impl Into<String>) -> Self {
        AggSpec {
            func,
            input: Some(input),
            name: name.into(),
        }
    }
}

/// How an index scan produces rows.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexMode {
    /// All keys in `[lo, hi]` (either bound optional).
    Range {
        /// Inclusive lower bound.
        lo: Option<i64>,
        /// Inclusive upper bound.
        hi: Option<i64>,
    },
    /// Parameterized lookup: rows matching the key passed by a nested-loop
    /// join's `rescan` (the inner side of an index nested-loop join).
    LookupParam,
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Sequential heap scan with optional predicate and projection.
    SeqScan {
        /// Table name.
        table: String,
        /// Row filter evaluated per heap row.
        predicate: Option<Expr>,
        /// Output expressions (with names); `None` = all columns.
        projection: Option<Vec<(Expr, String)>>,
    },
    /// B+-tree index scan returning heap rows.
    IndexScan {
        /// Index name.
        index: String,
        /// Scan mode.
        mode: IndexMode,
    },
    /// Nested-loop join. When `param_outer_col` is set, the inner child is
    /// re-scanned per outer row with that outer column as parameter (index
    /// nested-loop join).
    NestLoopJoin {
        /// Outer (driving) input.
        outer: Box<PlanNode>,
        /// Inner input, re-scanned per outer row.
        inner: Box<PlanNode>,
        /// Outer column passed to the inner `rescan`.
        param_outer_col: Option<usize>,
        /// Join qualification over the concatenated row.
        qual: Option<Expr>,
        /// Foreign-key join: at most one inner match per outer row (the
        /// optimizer knowledge §7.5 uses to skip buffering the inner).
        fk_inner: bool,
    },
    /// Hash join: blocking build over `build`, pipelined probe over `probe`.
    HashJoin {
        /// Probe (outer) input.
        probe: Box<PlanNode>,
        /// Build (inner) input, fully consumed at open.
        build: Box<PlanNode>,
        /// Equi-join key column in the probe schema.
        probe_key: usize,
        /// Equi-join key column in the build schema.
        build_key: usize,
    },
    /// Merge join over inputs sorted by the key columns.
    MergeJoin {
        /// Left input (sorted by `left_key`).
        left: Box<PlanNode>,
        /// Right input (sorted by `right_key`).
        right: Box<PlanNode>,
        /// Key column in the left schema.
        left_key: usize,
        /// Key column in the right schema.
        right_key: usize,
    },
    /// Blocking sort.
    Sort {
        /// Input.
        input: Box<PlanNode>,
        /// Sort keys: `(column, ascending)`.
        keys: Vec<(usize, bool)>,
    },
    /// Aggregation; empty `group_by` yields a single row.
    Aggregate {
        /// Input.
        input: Box<PlanNode>,
        /// Grouping columns.
        group_by: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Standalone projection.
    Project {
        /// Input.
        input: Box<PlanNode>,
        /// Output expressions with names.
        exprs: Vec<(Expr, String)>,
    },
    /// Standalone filter (extension; PostgreSQL folds filters into scans).
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// LIMIT n (extension).
    Limit {
        /// Input.
        input: Box<PlanNode>,
        /// Maximum rows produced.
        limit: u64,
    },
    /// The paper's buffer operator (§5).
    Buffer {
        /// Input.
        input: Box<PlanNode>,
        /// Pointer-array capacity (the paper uses 100).
        size: usize,
    },
    /// Blocking materialization of the input.
    Materialize {
        /// Input.
        input: Box<PlanNode>,
    },
    /// Parallel exchange: partitions the input's driving scan into morsels,
    /// executes the subtree on `workers` simulated cores, and gathers the
    /// results in morsel order (so output order matches serial execution
    /// when the driving leaf is a sequential scan).
    Exchange {
        /// The pipeline executed by each worker.
        input: Box<PlanNode>,
        /// Worker count (must be ≥ 1).
        workers: usize,
    },
    /// Replay of a cached materialized intermediate installed by the
    /// subplan reuse cache ([`crate::prepare::ReuseCache`]). Spliced in
    /// place of a whole subtree at prepare time when the cache holds that
    /// subtree's output for the current stats epoch and replay is modeled
    /// cheaper than recompute. Produces the cached rows bit-identically
    /// through the normal arena/machine path, with a single tight-loop
    /// instruction footprint ([`OpKind::ReusedScan`]).
    ReusedScan {
        /// Handle to the cached rows (shared with the cache).
        handle: ReuseHandle,
    },
    /// Scan of a virtual `sys.*` introspection table. The provider snapshots
    /// live engine state (scheduler queues, plan caches, cache-segment heat)
    /// at open; rows flow through the normal operator protocol but the scan
    /// has **zero modeled cost** — no instruction footprint
    /// ([`OpKind::SysScan`] owns no segments) and no simulated memory
    /// traffic — so introspection never perturbs what it observes.
    SysScan {
        /// Virtual table name, e.g. `"sys.queries"`.
        table: String,
    },
    /// Executor-mode marker: run the wrapped pipeline on the push-based
    /// backend, batch-at-a-time, as ONE fused code region (a scan or a
    /// sorted run → filters/projects → an optional hash, index nest-loop or
    /// merge join → an optional terminal aggregate or sort).
    /// The fused group has a single combined instruction footprint
    /// ([`OpKind::PushGroup`]) — the push model's alternative to the
    /// paper's buffer operators. Inserted by the mode-selection pass
    /// ([`crate::optimizer::choose_pipeline_modes`]); output rows are
    /// bit-identical to pull execution of the same subtree.
    PushPipeline {
        /// The pipeline executed push-style.
        input: Box<PlanNode>,
    },
}

/// The footprint kinds of the operators fused into a push pipeline over
/// `node`, top-down. Hash-join *build* sides are excluded — they stay pull
/// subtrees whose footprint is accounted separately, exactly as the
/// refiner treats blocking build phases. A nest-loop probe and a merge
/// bring the index code their right side runs; a merge's left side is a
/// sorted run, read through sort code, whose formation is the sort
/// group's own.
pub fn push_member_kinds(node: &PlanNode) -> Vec<OpKind> {
    fn rec(n: &PlanNode, out: &mut Vec<OpKind>) {
        match n {
            PlanNode::Sort { input, .. } => {
                out.push(OpKind::Sort);
                rec(input, out);
            }
            PlanNode::NestLoopJoin { outer, .. } => {
                out.extend([OpKind::NestLoop, OpKind::IndexScan]);
                rec(outer, out);
            }
            PlanNode::MergeJoin { .. } => {
                out.extend([OpKind::MergeJoin, OpKind::IndexScan, OpKind::Sort]);
            }
            PlanNode::Aggregate { input, aggs, .. } => {
                out.push(OpKind::aggregate(aggs));
                rec(input, out);
            }
            PlanNode::Filter { input, .. } => {
                out.push(OpKind::Filter);
                rec(input, out);
            }
            PlanNode::Project { input, .. } => {
                out.push(OpKind::Project);
                rec(input, out);
            }
            PlanNode::HashJoin { probe, .. } => {
                out.push(OpKind::HashProbe);
                rec(probe, out);
            }
            other => out.push(other.op_kind()),
        }
    }
    let mut out = Vec::new();
    rec(node, &mut out);
    out
}

impl PlanNode {
    /// Children, left-to-right.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::SeqScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::ReusedScan { .. }
            | PlanNode::SysScan { .. } => {
                vec![]
            }
            PlanNode::NestLoopJoin { outer, inner, .. } => vec![outer, inner],
            PlanNode::HashJoin { probe, build, .. } => vec![probe, build],
            PlanNode::MergeJoin { left, right, .. } => vec![left, right],
            PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Buffer { input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Exchange { input, .. }
            | PlanNode::PushPipeline { input }
            | PlanNode::Materialize { input } => vec![input],
        }
    }

    /// This node over `inputs` in place of its children, given in
    /// [`PlanNode::children`] order; every other field is cloned. The owned
    /// counterpart of `children()`: a rewrite pass maps the children and
    /// rebuilds through here, so no pass spells out a variant's fields.
    ///
    /// # Panics
    /// If `inputs.len()` differs from `self.children().len()`.
    pub fn with_inputs(&self, inputs: Vec<PlanNode>) -> PlanNode {
        let mut inputs = inputs.into_iter();
        let mut next = || Box::new(inputs.next().expect("with_inputs: too few inputs"));
        let node = match self {
            PlanNode::SeqScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::ReusedScan { .. }
            | PlanNode::SysScan { .. } => self.clone(),
            PlanNode::NestLoopJoin {
                param_outer_col,
                qual,
                fk_inner,
                ..
            } => PlanNode::NestLoopJoin {
                outer: next(),
                inner: next(),
                param_outer_col: *param_outer_col,
                qual: qual.clone(),
                fk_inner: *fk_inner,
            },
            PlanNode::HashJoin {
                probe_key,
                build_key,
                ..
            } => PlanNode::HashJoin {
                probe: next(),
                build: next(),
                probe_key: *probe_key,
                build_key: *build_key,
            },
            PlanNode::MergeJoin {
                left_key,
                right_key,
                ..
            } => PlanNode::MergeJoin {
                left: next(),
                right: next(),
                left_key: *left_key,
                right_key: *right_key,
            },
            PlanNode::Sort { keys, .. } => PlanNode::Sort {
                input: next(),
                keys: keys.clone(),
            },
            PlanNode::Aggregate { group_by, aggs, .. } => PlanNode::Aggregate {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            PlanNode::Project { exprs, .. } => PlanNode::Project {
                input: next(),
                exprs: exprs.clone(),
            },
            PlanNode::Filter { predicate, .. } => PlanNode::Filter {
                input: next(),
                predicate: predicate.clone(),
            },
            PlanNode::Limit { limit, .. } => PlanNode::Limit {
                input: next(),
                limit: *limit,
            },
            PlanNode::Buffer { size, .. } => PlanNode::Buffer {
                input: next(),
                size: *size,
            },
            PlanNode::Materialize { .. } => PlanNode::Materialize { input: next() },
            PlanNode::Exchange { workers, .. } => PlanNode::Exchange {
                input: next(),
                workers: *workers,
            },
            PlanNode::PushPipeline { .. } => PlanNode::PushPipeline { input: next() },
        };
        assert!(inputs.next().is_none(), "with_inputs: too many inputs");
        node
    }

    /// The footprint kind of this node (probe side for hash joins; the build
    /// side is accounted separately by the refiner and executor).
    pub fn op_kind(&self) -> OpKind {
        match self {
            PlanNode::SeqScan { predicate, .. } => OpKind::SeqScan {
                with_pred: predicate.is_some(),
            },
            PlanNode::IndexScan { .. } => OpKind::IndexScan,
            PlanNode::ReusedScan { .. } => OpKind::ReusedScan,
            PlanNode::SysScan { .. } => OpKind::SysScan,
            PlanNode::NestLoopJoin { .. } => OpKind::NestLoop,
            PlanNode::HashJoin { .. } => OpKind::HashProbe,
            PlanNode::MergeJoin { .. } => OpKind::MergeJoin,
            PlanNode::Sort { .. } => OpKind::Sort,
            PlanNode::Aggregate { aggs, .. } => OpKind::aggregate(aggs),
            PlanNode::Project { .. } => OpKind::Project,
            PlanNode::Buffer { .. } => OpKind::Buffer,
            PlanNode::Filter { .. } => OpKind::Filter,
            PlanNode::Limit { .. } => OpKind::Limit,
            PlanNode::Materialize { .. } => OpKind::Materialize,
            PlanNode::Exchange { .. } => OpKind::Exchange,
            PlanNode::PushPipeline { input } => OpKind::PushGroup(push_member_kinds(input)),
        }
    }

    /// Whether this operator breaks the pipeline (fully consumes its input
    /// before producing output). Such operators "already buffer query
    /// execution below them" (§6) and are never merged into execution groups.
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            PlanNode::Sort { .. } | PlanNode::Materialize { .. } | PlanNode::Exchange { .. }
        )
    }

    /// Output schema, validated against the catalog.
    pub fn output_schema(&self, catalog: &Catalog) -> Result<SchemaRef> {
        match self {
            PlanNode::SeqScan {
                table,
                projection,
                predicate,
            } => {
                let t = catalog.table(table)?;
                if let Some(p) = predicate {
                    // Validate predicate against the table schema.
                    p.data_type(t.schema())?;
                }
                match projection {
                    None => Ok(t.schema().clone()),
                    Some(exprs) => projected_schema(t.schema(), exprs),
                }
            }
            PlanNode::IndexScan { index, .. } => {
                let idx = catalog.index(index)?;
                let t = catalog.table(&idx.table)?;
                Ok(t.schema().clone())
            }
            PlanNode::NestLoopJoin {
                outer, inner, qual, ..
            } => {
                let o = outer.output_schema(catalog)?;
                let i = inner.output_schema(catalog)?;
                let joined = o.join(&i).into_ref();
                if let Some(q) = qual {
                    q.data_type(&joined)?;
                }
                Ok(joined)
            }
            PlanNode::HashJoin {
                probe,
                build,
                probe_key,
                build_key,
            } => {
                let p = probe.output_schema(catalog)?;
                let b = build.output_schema(catalog)?;
                check_col(&p, *probe_key)?;
                check_col(&b, *build_key)?;
                Ok(p.join(&b).into_ref())
            }
            PlanNode::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = left.output_schema(catalog)?;
                let r = right.output_schema(catalog)?;
                check_col(&l, *left_key)?;
                check_col(&r, *right_key)?;
                Ok(l.join(&r).into_ref())
            }
            PlanNode::Sort { input, keys } => {
                let s = input.output_schema(catalog)?;
                for (c, _) in keys {
                    check_col(&s, *c)?;
                }
                Ok(s)
            }
            PlanNode::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let s = input.output_schema(catalog)?;
                let mut fields = Vec::new();
                for &g in group_by {
                    check_col(&s, g)?;
                    fields.push(s.field(g).clone());
                }
                for a in aggs {
                    let ty = agg_output_type(a, &s)?;
                    fields.push(Field::nullable(a.name.clone(), ty));
                }
                Ok(Schema::new(fields).into_ref())
            }
            PlanNode::Project { input, exprs } => {
                let s = input.output_schema(catalog)?;
                projected_schema(&s, exprs)
            }
            PlanNode::Buffer { input, size } => {
                if *size == 0 {
                    return Err(DbError::InvalidPlan("buffer size must be > 0".into()));
                }
                input.output_schema(catalog)
            }
            PlanNode::Filter { input, predicate } => {
                let s = input.output_schema(catalog)?;
                predicate.data_type(&s)?;
                Ok(s)
            }
            PlanNode::Limit { input, .. } => input.output_schema(catalog),
            PlanNode::ReusedScan { handle } => Ok(handle.schema()),
            PlanNode::SysScan { table } => Ok(catalog.sys_table(table)?.schema()),
            PlanNode::Materialize { input } => input.output_schema(catalog),
            PlanNode::PushPipeline { input } => input.output_schema(catalog),
            PlanNode::Exchange { input, workers } => {
                if *workers == 0 {
                    return Err(DbError::InvalidPlan(
                        "exchange needs at least one worker".into(),
                    ));
                }
                input.output_schema(catalog)
            }
        }
    }

    /// Number of nodes in the tree (this one included) for which `pred`
    /// holds.
    pub fn count(&self, pred: impl Fn(&PlanNode) -> bool) -> usize {
        fn rec(n: &PlanNode, pred: &dyn Fn(&PlanNode) -> bool) -> usize {
            usize::from(pred(n))
                + n.children()
                    .into_iter()
                    .map(|c| rec(c, pred))
                    .sum::<usize>()
        }
        rec(self, &pred)
    }

    /// Count of plan nodes (diagnostics / tests).
    pub fn node_count(&self) -> usize {
        self.count(|_| true)
    }

    /// Number of buffer operators in the tree.
    pub fn buffer_count(&self) -> usize {
        self.count(|n| matches!(n, PlanNode::Buffer { .. }))
    }
}

fn check_col(schema: &SchemaRef, col: usize) -> Result<()> {
    if col >= schema.len() {
        return Err(DbError::UnknownColumn(format!("column #{col} of {schema}")));
    }
    Ok(())
}

pub(crate) fn projected_schema(input: &SchemaRef, exprs: &[(Expr, String)]) -> Result<SchemaRef> {
    let mut fields = Vec::with_capacity(exprs.len());
    for (e, name) in exprs {
        let ty = e.data_type(input)?;
        fields.push(Field::nullable(name.clone(), ty));
    }
    Ok(Schema::new(fields).into_ref())
}

fn agg_output_type(a: &AggSpec, input: &SchemaRef) -> Result<DataType> {
    Ok(match a.func {
        AggFunc::CountStar | AggFunc::Count => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => match &a.input {
            Some(e) => e.data_type(input)?,
            None => {
                return Err(DbError::InvalidPlan(format!(
                    "{:?} needs an argument",
                    a.func
                )))
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{Datum, Tuple};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Decimal),
            ]),
        );
        for i in 0..10 {
            b.push(Tuple::new(vec![
                Datum::Int(i),
                Datum::Decimal(bufferdb_types::Decimal::from_cents(i * 100)),
            ]));
        }
        c.add_table(b);
        c
    }

    fn scan() -> PlanNode {
        PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: None,
        }
    }

    #[test]
    fn seqscan_schema_passthrough() {
        let c = catalog();
        let s = scan().output_schema(&c).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(0).name, "k");
    }

    #[test]
    fn unknown_table_is_error() {
        let c = catalog();
        let p = PlanNode::SeqScan {
            table: "nope".into(),
            predicate: None,
            projection: None,
        };
        assert!(matches!(
            p.output_schema(&c),
            Err(DbError::UnknownRelation(_))
        ));
    }

    #[test]
    fn aggregate_schema_groups_then_aggs() {
        let c = catalog();
        let p = PlanNode::Aggregate {
            input: Box::new(scan()),
            group_by: vec![0],
            aggs: vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, Expr::col(1), "total"),
            ],
        };
        let s = p.output_schema(&c).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "k");
        assert_eq!(s.field(1).name, "n");
        assert_eq!(s.field(1).ty, DataType::Int);
        assert_eq!(s.field(2).ty, DataType::Decimal);
    }

    #[test]
    fn join_schema_concatenates() {
        let c = catalog();
        let p = PlanNode::HashJoin {
            probe: Box::new(scan()),
            build: Box::new(scan()),
            probe_key: 0,
            build_key: 0,
        };
        assert_eq!(p.output_schema(&c).unwrap().len(), 4);
        let bad = PlanNode::HashJoin {
            probe: Box::new(scan()),
            build: Box::new(scan()),
            probe_key: 9,
            build_key: 0,
        };
        assert!(bad.output_schema(&c).is_err());
    }

    #[test]
    fn buffer_passthrough_and_validation() {
        let c = catalog();
        let p = PlanNode::Buffer {
            input: Box::new(scan()),
            size: 100,
        };
        assert_eq!(p.output_schema(&c).unwrap().len(), 2);
        let bad = PlanNode::Buffer {
            input: Box::new(scan()),
            size: 0,
        };
        assert!(bad.output_schema(&c).is_err());
        assert_eq!(p.buffer_count(), 1);
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn blocking_classification() {
        let sort = PlanNode::Sort {
            input: Box::new(scan()),
            keys: vec![(0, true)],
        };
        assert!(sort.is_blocking());
        assert!(!scan().is_blocking());
        assert!(PlanNode::Materialize {
            input: Box::new(scan())
        }
        .is_blocking());
    }

    /// A tree holding each of the sixteen variants once, every non-child
    /// field set to a value no other field of its node shares.
    fn every_variant() -> PlanNode {
        let scan = PlanNode::SeqScan {
            table: "t".into(),
            predicate: Some(Expr::col(0).le(Expr::lit(3))),
            projection: Some(vec![(Expr::col(1), "v".into())]),
        };
        let nestloop = PlanNode::NestLoopJoin {
            outer: Box::new(scan),
            inner: Box::new(PlanNode::IndexScan {
                index: "t_pkey".into(),
                mode: IndexMode::Range {
                    lo: Some(1),
                    hi: None,
                },
            }),
            param_outer_col: Some(1),
            qual: Some(Expr::col(0).eq(Expr::col(2))),
            fk_inner: true,
        };
        let reused = PlanNode::ReusedScan {
            handle: ReuseHandle::scratch(
                Schema::new(vec![Field::new("k", DataType::Int)]).into_ref(),
                vec![],
            ),
        };
        let hash = PlanNode::HashJoin {
            probe: Box::new(nestloop),
            build: Box::new(reused),
            probe_key: 1,
            build_key: 2,
        };
        let merge = PlanNode::MergeJoin {
            left: Box::new(PlanNode::Sort {
                input: Box::new(hash),
                keys: vec![(0, true), (1, false)],
            }),
            right: Box::new(PlanNode::SysScan {
                table: "sys.queries".into(),
            }),
            left_key: 3,
            right_key: 4,
        };
        let mut plan = merge;
        for f in [
            (|input| PlanNode::PushPipeline { input }) as fn(Box<PlanNode>) -> PlanNode,
            |input| PlanNode::Exchange { input, workers: 3 },
            |input| PlanNode::Materialize { input },
            |input| PlanNode::Aggregate {
                input,
                group_by: vec![0, 2],
                aggs: vec![AggSpec::count_star("n")],
            },
            |input| PlanNode::Project {
                input,
                exprs: vec![(Expr::col(1), "n".into())],
            },
            |input| PlanNode::Filter {
                input,
                predicate: Expr::col(0).gt(Expr::lit(5)),
            },
            |input| PlanNode::Buffer { input, size: 77 },
            |input| PlanNode::Limit { input, limit: 9 },
        ] {
            plan = f(Box::new(plan));
        }
        plan
    }

    #[test]
    fn with_inputs_is_the_owned_inverse_of_children() {
        let tree = every_variant();
        let mut variants = std::collections::HashSet::new();
        let mut stack = vec![&tree];
        while let Some(node) = stack.pop() {
            variants.insert(std::mem::discriminant(node));
            let children: Vec<PlanNode> = node.children().into_iter().cloned().collect();
            // No field is dropped or swapped when the children come back.
            assert_eq!(node.with_inputs(children.clone()), *node);
            // New children land in `children()` order.
            let fresh: Vec<PlanNode> = (0..children.len())
                .map(|i| PlanNode::SysScan {
                    table: format!("sys.child{i}"),
                })
                .collect();
            let rebuilt = node.with_inputs(fresh.clone());
            let got: Vec<PlanNode> = rebuilt.children().into_iter().cloned().collect();
            assert_eq!(got, fresh, "{node:?}");
            stack.extend(node.children());
        }
        assert_eq!(variants.len(), 16, "the tree must hold every variant");
        assert_eq!(tree.node_count(), 16);
        assert_eq!(tree.buffer_count(), 1);
        assert_eq!(tree.count(|n| n.children().len() == 2), 3);
    }

    #[test]
    fn projection_validates_expressions() {
        let c = catalog();
        let ok = PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: Some(vec![(Expr::col(1).mul(Expr::col(1)), "v2".into())]),
        };
        assert_eq!(ok.output_schema(&c).unwrap().field(0).ty, DataType::Decimal);
        let bad = PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: Some(vec![(Expr::col(7), "x".into())]),
        };
        assert!(bad.output_schema(&c).is_err());
    }
}
