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
//!
//! A batch holds rows by reference (`Item`): a source-table row by id, a
//! projected row in a per-stage pool that is rebuilt in place batch after
//! batch, and — past the probe — the matching build row beside it. Stages
//! above the probe and the aggregate sink read that (probe row, build row)
//! pair in place through programs whose columns were resolved to a side at
//! compile time; only a row the pipeline hands upward is copied into the
//! arena.

use crate::arena::{TupleArena, TupleSlot};
use crate::context::ExecContext;
use crate::exec::agg::Accumulator;
use crate::exec::hashjoin::JoinTable;
use crate::exec::seqscan::ScanCursor;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::{Expr, Program, RowRef};
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::{projected_schema, push_member_kinds, PlanNode};
use bufferdb_cachesim::CodeRegion;
use bufferdb_storage::{Catalog, Table};
use bufferdb_types::{Datum, DbError, Result, SchemaRef, Tuple};
use std::collections::VecDeque;

/// Source rows pumped per fused-region execution. One batch is one pass of
/// the push driver's hot loop; within it only the combined region is live.
const PUSH_BATCH_ROWS: u32 = 256;

/// Instructions charged per tuple handed upward from the emit queue (the
/// push driver's dequeue is branch-free pointer work, not a region re-entry).
const EMIT_LOOP_INSTR: u64 = 24;

/// A row in flight, by reference.
#[derive(Debug, Clone, Copy)]
struct Item {
    row: Base,
    /// Past the probe: the build row it matched.
    build: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
enum Base {
    /// A row of the source table.
    Table(u32),
    /// A row built into `pools[pool]`.
    Pool { pool: u16, idx: u32 },
}

/// Rows one projection builds per batch, rewritten in place batch after
/// batch.
#[derive(Default)]
struct Pool {
    rows: Vec<Tuple>,
    used: usize,
}

impl Pool {
    /// The next row to build, of `arity` values (stale until rewritten).
    fn next_row(&mut self, arity: usize) -> (u32, &mut Tuple) {
        if self.used == self.rows.len() {
            self.rows.push(Tuple::new(vec![Datum::Null; arity]));
        }
        self.used += 1;
        (self.used as u32 - 1, &mut self.rows[self.used - 1])
    }
}

/// What batch items resolve against.
struct View<'a> {
    table: &'a Table,
    pools: &'a [Pool],
    probe: Option<&'a JoinTable>,
    arena: &'a TupleArena,
}

impl<'a> View<'a> {
    fn row(&self, item: Item) -> RowRef<'a> {
        let left = match item.row {
            Base::Table(id) => self.table.row(id),
            Base::Pool { pool, idx } => &self.pools[pool as usize].rows[idx as usize],
        };
        match (item.build, self.probe) {
            (Some(b), Some(t)) => RowRef::pair(left, self.arena.resolve(t.row(b))),
            _ => RowRef::one(left),
        }
    }
}

/// One fused non-terminal stage.
enum Stage {
    Filter {
        predicate: Program,
        pred_site: u64,
    },
    /// Builds its rows into `pools[pool]`.
    Project {
        exprs: Vec<Program>,
        pool: u16,
    },
    /// The hash-join probe (see [`ProbeSide`]).
    Probe,
}

/// The fused hash join. The build side stays a pull subtree drained at
/// `open` (blocking, like the pull join); only probing is fused.
struct ProbeSide {
    build: Box<dyn Operator>,
    build_code: CodeRegion,
    probe_key: usize,
    table: JoinTable,
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
    probe: Option<ProbeSide>,
    agg: Option<Accumulator>,
    /// Whether the aggregate's result rows have been queued.
    agg_emitted: bool,
    /// Pool 0 holds the source's projected rows, pool `k` those of the
    /// `k`-th projection, the last one the aggregate's results.
    pools: Vec<Pool>,
    batch: Vec<Item>,
    /// The probe's output, swapped with `batch`.
    spare: Vec<Item>,
    emit: VecDeque<Item>,
    source_done: bool,
    out_region: u32,
    batch_hint: usize,
}

/// The pipeline compiled below a node: its stages in application order and
/// the schema of the rows they deliver (past the probe, a (probe, build)
/// pair read as the joined row).
struct Walked {
    source: ScanCursor,
    stages: Vec<Stage>,
    probe: Option<ProbeSide>,
    agg: Option<Accumulator>,
    schema: SchemaRef,
}

impl Walked {
    /// Lower `e` over the rows delivered so far.
    fn program(&self, e: &Expr) -> Program {
        Program::new(e, &self.schema)
    }
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
        let w = walk(input, catalog, fm, worker_fm, true)?;
        let projections = w
            .stages
            .iter()
            .filter(|s| matches!(s, Stage::Project { .. }))
            .count();
        Ok(PushPipelineOp {
            schema,
            code,
            source: w.source,
            stages: w.stages,
            probe: w.probe,
            agg: w.agg,
            agg_emitted: false,
            pools: (0..projections + 2).map(|_| Pool::default()).collect(),
            batch: Vec::new(),
            spare: Vec::new(),
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
        let PushPipelineOp {
            source,
            stages,
            probe,
            agg,
            pools,
            batch,
            spare,
            emit,
            source_done,
            ..
        } = self;
        batch.clear();
        for pool in pools.iter_mut() {
            pool.used = 0;
        }
        for scanned in 0..PUSH_BATCH_ROWS {
            let Some(id) = source.claim(ctx)? else {
                *source_done = true;
                break;
            };
            ctx.tuple_yield();
            if !source.test(ctx, id, scanned == 0)? {
                continue;
            }
            let row = match source.projection_arity() {
                None => Base::Table(id),
                Some(arity) => {
                    let (idx, out) = pools[0].next_row(arity);
                    source.project(&mut ctx.machine, id, out.values_mut())?;
                    Base::Pool { pool: 0, idx }
                }
            };
            batch.push(Item { row, build: None });
        }
        let probe = probe.as_ref();
        for stage in stages.iter_mut() {
            if batch.is_empty() {
                break;
            }
            let (read, write) = match stage {
                Stage::Project { pool, .. } => pools.split_at_mut(*pool as usize),
                _ => (&mut pools[..], &mut [][..]),
            };
            let view = View {
                table: source.table(),
                pools: read,
                probe: probe.map(|p| &p.table),
                arena: &ctx.arena,
            };
            match stage {
                Stage::Filter {
                    predicate,
                    pred_site,
                } => {
                    let mut kept = 0;
                    for i in 0..batch.len() {
                        let item = batch[i];
                        let keep = predicate.eval_predicate(view.row(item))?;
                        ctx.machine.add_instructions(predicate.cost());
                        ctx.machine.branch(*pred_site, keep);
                        if keep {
                            batch[kept] = item;
                            kept += 1;
                        }
                    }
                    batch.truncate(kept);
                }
                Stage::Project { exprs, pool } => {
                    let out = &mut write[0];
                    for item in batch.iter_mut() {
                        let row = view.row(*item);
                        let (idx, t) = out.next_row(exprs.len());
                        for (e, v) in exprs.iter_mut().zip(t.values_mut()) {
                            ctx.machine.add_instructions(e.cost());
                            v.clone_from(e.eval(row)?);
                        }
                        *item = Item {
                            row: Base::Pool { pool: *pool, idx },
                            build: None,
                        };
                    }
                }
                Stage::Probe => {
                    let Some(p) = probe else { continue };
                    spare.clear();
                    for &item in batch.iter() {
                        let key = view.row(item).get(p.probe_key).and_then(Datum::as_int);
                        for &m in p.table.probe(&mut ctx.machine, key) {
                            spare.push(Item {
                                build: Some(m),
                                ..item
                            });
                        }
                    }
                    std::mem::swap(batch, spare);
                }
            }
        }
        match agg {
            Some(acc) => {
                let view = View {
                    table: source.table(),
                    pools,
                    probe: probe.map(|p| &p.table),
                    arena: &ctx.arena,
                };
                for &item in batch.iter() {
                    acc.update(&mut ctx.machine, view.row(item))?;
                }
            }
            None => emit.extend(batch.iter().copied()),
        }
        Ok(())
    }

    fn view<'a>(&'a self, arena: &'a TupleArena) -> View<'a> {
        View {
            table: self.source.table(),
            pools: &self.pools,
            probe: self.probe.as_ref().map(|p| &p.table),
            arena,
        }
    }

    /// Copy `item` into the output region: a table row by reference, a
    /// pooled row by swapping it with the slot's recycled tuple, a pair by
    /// concatenating it into that tuple.
    fn store(&mut self, ctx: &mut ExecContext, item: Item) -> TupleSlot {
        let region = self.out_region;
        match item {
            Item {
                row: Base::Table(id),
                build: None,
            } => ctx
                .arena
                .store_row(region, self.source.table_id(), id, &mut ctx.machine),
            Item {
                row: Base::Pool { pool, idx },
                build: None,
            } => {
                let row = &mut self.pools[pool as usize].rows[idx as usize];
                let spare = ctx.arena.recycle(region, row.arity());
                let t = std::mem::replace(row, spare);
                ctx.arena.store(region, t, &mut ctx.machine)
            }
            pair => {
                let arity = self.view(&ctx.arena).row(pair).arity();
                let mut out = ctx.arena.recycle(region, arity);
                self.view(&ctx.arena).row(pair).copy_into(out.values_mut());
                ctx.arena.store(region, out, &mut ctx.machine)
            }
        }
    }
}

/// Recursive pipeline compiler: registers the node's profiler label, then
/// returns the pipeline *below and including* this node. Build sides of hash
/// joins are delegated to the pull builder.
fn walk(
    node: &PlanNode,
    catalog: &Catalog,
    fm: &mut FootprintModel,
    worker_fm: &dyn Fn() -> FootprintModel,
    at_root: bool,
) -> Result<Walked> {
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
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            w.agg = Some(Accumulator::new(group_by.clone(), aggs, |e| w.program(e))?);
            Ok(w)
        }
        PlanNode::Filter { input, predicate } => {
            let pred_site = fm.predicate_site();
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            let predicate = w.program(predicate);
            w.stages.push(Stage::Filter {
                predicate,
                pred_site,
            });
            Ok(w)
        }
        PlanNode::Project { input, exprs } => {
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            let programs = exprs.iter().map(|(e, _)| w.program(e)).collect();
            let pool = 1 + w
                .stages
                .iter()
                .filter(|s| matches!(s, Stage::Project { .. }))
                .count() as u16;
            w.stages.push(Stage::Project {
                exprs: programs,
                pool,
            });
            w.schema = projected_schema(&w.schema, exprs)?;
            Ok(w)
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
            let mut w = walk(probe, catalog, fm, worker_fm, false)?;
            if w.probe.is_some() {
                return Err(DbError::InvalidPlan(
                    "push group: at most one fused hash join".into(),
                ));
            }
            let build = super::build_rec(build, catalog, fm, worker_fm)?;
            w.schema = w.schema.join(&build.schema()).into_ref();
            w.stages.push(Stage::Probe);
            w.probe = Some(ProbeSide {
                build,
                build_code,
                probe_key: *probe_key,
                table,
            });
            Ok(w)
        }
        PlanNode::SeqScan {
            table,
            predicate,
            projection,
        } => {
            let source = ScanCursor::new(
                catalog.table(table)?,
                fm,
                predicate.as_ref(),
                projection.as_deref(),
            );
            let schema = match projection {
                Some(exprs) => projected_schema(source.table().schema(), exprs)?,
                None => source.table().schema().clone(),
            };
            Ok(Walked {
                source,
                stages: Vec::new(),
                probe: None,
                agg: None,
                schema,
            })
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
        if let Some(p) = &mut self.probe {
            p.build.open(ctx)?;
            p.table
                .build_serial(ctx, p.build.as_mut(), &mut p.build_code)?;
        }
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        loop {
            if let Some(item) = self.emit.pop_front() {
                ctx.machine.add_instructions(EMIT_LOOP_INSTR);
                return Ok(Some(self.store(ctx, item)));
            }
            if self.source_done {
                match &mut self.agg {
                    Some(acc) if !self.agg_emitted => {
                        self.agg_emitted = true;
                        // Finalization pass over the group table: one last
                        // run of the fused region.
                        ctx.machine.exec_region(&mut self.code);
                        let results = acc.finish();
                        let pool = self.pools.len() - 1;
                        self.emit.extend((0..results.len()).map(|idx| Item {
                            row: Base::Pool {
                                pool: pool as u16,
                                idx: idx as u32,
                            },
                            build: None,
                        }));
                        self.pools[pool] = Pool {
                            used: results.len(),
                            rows: results,
                        };
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
        if let Some(p) = &mut self.probe {
            p.table.clear();
            p.build.close(ctx)?;
        }
        Ok(())
    }
}
