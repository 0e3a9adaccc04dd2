//! The push-based executor backend: batch-at-a-time data flow over one
//! fused code region.
//!
//! A [`PushPipelineOp`] compiles a `PlanNode::PushPipeline` subtree —
//! `[Aggregate?] [Filter|Project]* over (SeqScan | HashJoin)` — into a
//! single driver loop. Where the pull executor re-enters each operator's
//! private code region once per `next` call (the paper's PCPCPC
//! interleaving), the push driver executes the *combined* region
//! ([`OpKind::PushGroup`]) once per source batch and streams the batch
//! through the fused stages. The instruction-cache consequence is the whole
//! point: one footprint instead of several alternating ones — a win while
//! the fused group fits L1i, and exactly the layout the footprint model
//! prices via [`OpKind::PushGroup`] (mode selection in
//! [`crate::optimizer::choose_pipeline_modes`] uses that price).
//!
//! The backend shares everything else with the pull executor: plans,
//! catalog, the tuple arena, the profiler bracket protocol, cancellation,
//! and — above all — the row kernels. The fused scan is the pull scan's
//! `ScanCursor` (same fault site per candidate row, same morsel claim at
//! `open`, so push pipelines run unchanged inside exchange workers), the
//! probe stage is the pull join's `JoinTable`, the sink is the pull
//! aggregate's `Accumulator`. A push group differs from the pull
//! operators only in *who owns the loop* and *how often the code region
//! executes* (once per batch instead of once per tuple), which is why its
//! output is **bit-identical** to pull.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::agg::Accumulator;
use crate::exec::hashjoin::JoinTable;
use crate::exec::seqscan::ScanCursor;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::Expr;
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::{push_member_kinds, PlanNode};
use bufferdb_cachesim::CodeRegion;
use bufferdb_storage::Catalog;
use bufferdb_types::{DbError, Result, SchemaRef, Tuple};
use std::collections::VecDeque;

/// Source rows pumped per fused-region execution. One batch is one pass of
/// the push driver's hot loop; within it only the combined region is live.
const PUSH_BATCH_ROWS: u32 = 256;

/// Instructions charged per tuple handed upward from the emit queue (the
/// push driver's dequeue is branch-free pointer work, not a region re-entry).
const EMIT_LOOP_INSTR: u64 = 24;

/// One fused non-terminal stage.
enum Stage {
    Filter {
        predicate: Expr,
        pred_site: u64,
    },
    Project {
        exprs: Vec<Expr>,
    },
    /// Hash-join probe. The build side stays a pull subtree drained at
    /// `open` (blocking, like the pull join); only probing is fused.
    Probe {
        build: Box<dyn Operator>,
        build_code: CodeRegion,
        probe_key: usize,
        table: JoinTable,
    },
}

/// A fused push pipeline behind the pull [`Operator`] interface: the parent
/// still demand-pulls one tuple per `next`, but internally tuples are
/// produced batch-at-a-time into an emit queue, with one combined-region
/// execution per batch.
pub struct PushPipelineOp {
    schema: SchemaRef,
    /// The fused group's combined code region.
    code: CodeRegion,
    source: ScanCursor,
    /// Stages in application order (closest to the scan first).
    stages: Vec<Stage>,
    agg: Option<Accumulator>,
    /// Whether the aggregate's result rows have been queued.
    agg_emitted: bool,
    emit: VecDeque<Tuple>,
    source_done: bool,
    out_region: u32,
    batch_hint: usize,
}

impl PushPipelineOp {
    /// Compile the subtree under a `PlanNode::PushPipeline` marker.
    ///
    /// Registers profiler labels for the fused nodes in plan pre-order
    /// (the contract `explain_analyze` and the exchange's
    /// `register_labels_rec` rely on); fused nodes own no brackets, so
    /// their slots read zero and all fused work lands on the enclosing
    /// `PushPipeline` bracket. Hash-join build subtrees are real pull
    /// operators built via the normal path and keep their own attribution.
    pub(crate) fn compile(
        input: &PlanNode,
        catalog: &Catalog,
        fm: &mut FootprintModel,
        worker_fm: &dyn Fn() -> FootprintModel,
    ) -> Result<Self> {
        let schema = input.output_schema(catalog)?;
        let code = fm.region_for(&OpKind::PushGroup(push_member_kinds(input)));
        let mut agg = None;
        let (source, stages) = walk(input, catalog, fm, worker_fm, true, &mut agg)?;
        Ok(PushPipelineOp {
            schema,
            code,
            source,
            stages,
            agg,
            agg_emitted: false,
            emit: VecDeque::new(),
            source_done: false,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        })
    }

    /// Pump one source batch through the fused stages into the emit queue
    /// (or the aggregate sink). One fused-region execution per call.
    fn pump_batch(&mut self, ctx: &mut ExecContext) -> Result<()> {
        ctx.check_cancel()?;
        ctx.machine.exec_region(&mut self.code);
        let mut batch = Vec::new();
        for scanned in 0..PUSH_BATCH_ROWS {
            let Some(id) = self.source.claim(ctx)? else {
                self.source_done = true;
                break;
            };
            ctx.tuple_yield();
            if let Some(row) = self.source.eval(ctx, id, scanned == 0)? {
                batch.push(row);
            }
        }
        for stage in &mut self.stages {
            if batch.is_empty() {
                break;
            }
            batch = match stage {
                Stage::Filter {
                    predicate,
                    pred_site,
                } => {
                    let mut out = Vec::with_capacity(batch.len());
                    for row in batch {
                        let keep = predicate.eval_predicate(&row)?;
                        ctx.machine.add_instructions(predicate.instruction_cost());
                        ctx.machine.branch(*pred_site, keep);
                        if keep {
                            out.push(row);
                        }
                    }
                    out
                }
                Stage::Project { exprs } => {
                    let mut out = Vec::with_capacity(batch.len());
                    for row in batch {
                        let mut vals = Vec::with_capacity(exprs.len());
                        for e in exprs.iter() {
                            ctx.machine.add_instructions(e.instruction_cost());
                            vals.push(e.eval(&row)?);
                        }
                        out.push(Tuple::new(vals));
                    }
                    out
                }
                Stage::Probe {
                    probe_key, table, ..
                } => {
                    let mut out = Vec::new();
                    for row in batch {
                        let key = row.get(*probe_key).as_int();
                        for &m in table.probe(&mut ctx.machine, key) {
                            out.push(row.join(table.row(m)));
                        }
                    }
                    out
                }
            };
        }
        match &mut self.agg {
            Some(acc) => {
                for row in &batch {
                    acc.update(&mut ctx.machine, row)?;
                }
            }
            None => self.emit.extend(batch),
        }
        Ok(())
    }
}

/// Recursive pipeline compiler: registers the node's profiler label, then
/// returns the source plus the stages *below* this node in application
/// order. Build sides of hash joins are delegated to the pull builder.
fn walk(
    node: &PlanNode,
    catalog: &Catalog,
    fm: &mut FootprintModel,
    worker_fm: &dyn Fn() -> FootprintModel,
    at_root: bool,
    agg: &mut Option<Accumulator>,
) -> Result<(ScanCursor, Vec<Stage>)> {
    if fm.obs_enabled() {
        fm.obs_register(super::obs_label(node));
    }
    match node {
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            if !at_root {
                return Err(DbError::InvalidPlan(
                    "push group: aggregate must sit at the pipeline root".into(),
                ));
            }
            *agg = Some(Accumulator::new(group_by.clone(), aggs.clone())?);
            walk(input, catalog, fm, worker_fm, false, agg)
        }
        PlanNode::Filter { input, predicate } => {
            let pred_site = fm.predicate_site();
            let (src, mut stages) = walk(input, catalog, fm, worker_fm, false, agg)?;
            stages.push(Stage::Filter {
                predicate: predicate.clone(),
                pred_site,
            });
            Ok((src, stages))
        }
        PlanNode::Project { input, exprs } => {
            let (src, mut stages) = walk(input, catalog, fm, worker_fm, false, agg)?;
            stages.push(Stage::Project {
                exprs: exprs.iter().map(|(e, _)| e.clone()).collect(),
            });
            Ok((src, stages))
        }
        PlanNode::HashJoin {
            probe,
            build,
            probe_key,
            build_key,
        } => {
            let build_code = fm.region_for(&OpKind::HashBuild);
            let table = JoinTable::new(fm, *build_key);
            // Probe side first so label registration follows plan pre-order
            // (children are [probe, build]).
            let (src, mut stages) = walk(probe, catalog, fm, worker_fm, false, agg)?;
            stages.push(Stage::Probe {
                build: super::build_rec(build, catalog, fm, worker_fm)?,
                build_code,
                probe_key: *probe_key,
                table,
            });
            Ok((src, stages))
        }
        PlanNode::SeqScan {
            table,
            predicate,
            projection,
        } => {
            let projection = projection
                .as_ref()
                .map(|v| v.iter().map(|(e, _)| e.clone()).collect());
            let table = catalog.table(table)?;
            Ok((
                ScanCursor::new(table, fm, predicate.clone(), projection),
                Vec::new(),
            ))
        }
        other => Err(DbError::InvalidPlan(format!(
            "plan node {:?} cannot join a push group",
            other.op_kind()
        ))),
    }
}

impl Operator for PushPipelineOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        self.emit.clear();
        self.source_done = false;
        self.source.open(ctx);
        if let Some(acc) = &mut self.agg {
            acc.reset(ctx);
            self.agg_emitted = false;
        }
        for stage in &mut self.stages {
            if let Stage::Probe {
                build,
                build_code,
                table,
                ..
            } = stage
            {
                build.open(ctx)?;
                table.build_serial(ctx, build.as_mut(), build_code)?;
            }
        }
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        loop {
            if let Some(t) = self.emit.pop_front() {
                ctx.machine.add_instructions(EMIT_LOOP_INSTR);
                let slot = ctx.arena.store(self.out_region, t, &mut ctx.machine);
                return Ok(Some(slot));
            }
            if self.source_done {
                match &mut self.agg {
                    Some(acc) if !self.agg_emitted => {
                        self.agg_emitted = true;
                        // Finalization pass over the group table: one last
                        // run of the fused region.
                        ctx.machine.exec_region(&mut self.code);
                        self.emit.extend(acc.finish());
                        continue;
                    }
                    _ => return Ok(None),
                }
            }
            self.pump_batch(ctx)?;
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.emit.clear();
        for stage in &mut self.stages {
            if let Stage::Probe { build, table, .. } = stage {
                table.clear();
                build.close(ctx)?;
            }
        }
        Ok(())
    }
}
