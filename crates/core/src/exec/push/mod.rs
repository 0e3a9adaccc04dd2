//! The push-based executor backend: batch-at-a-time data flow over one
//! fused code region.
//!
//! A [`PushPipelineOp`] compiles a `PlanNode::PushPipeline` subtree into
//! one driver loop over a *group*: a source (a sequential scan, or the
//! sorted run a nested sort group formed), stages (filters, projections and
//! at most one join: a hash probe, an index nest-loop probe, or a merge
//! with an index range) and a sink (the parent, an aggregate, or a sort
//! forming its run). Where the pull executor re-enters each operator's
//! code region once per `next` call (the paper's PCPCPC interleaving), the
//! group executes its *combined* region ([`OpKind::PushGroup`], the price
//! mode selection in [`crate::optimizer::choose_pipeline_modes`] uses)
//! once per source batch. A sort is a pipeline breaker: its input side
//! fuses as one group's sink, its output side is the next group's source.
//!
//! Everything else is the pull executor's: plans, catalog, arena, profiler
//! brackets, cancellation, fault sites, morsels — and the row kernels
//! (`ScanCursor`, `RowFilter`, `RowProject`, `JoinTable`, `IndexCursor`,
//! `MergeCursor`, `SortRun`, `Accumulator`). A group differs from the pull
//! operators only in *who owns the loop* and *how often the code region
//! executes*, which is why its output is **bit-identical** to pull.
//!
//! A batch holds rows by reference (`Item`): a table row by id, a run row
//! by slot, a projected row in a per-stage pool rebuilt in place batch
//! after batch, and past the join the matched row beside it, read as a
//! pair by programs lowered over the joined schema. Only a row the group
//! hands upward or sorts is kept in the arena.

use crate::arena::{Held, TableRow, TupleArena, TupleSlot};
use crate::context::ExecContext;
use crate::exec::agg::Accumulator;
use crate::exec::filter::RowFilter;
use crate::exec::hashjoin::JoinTable;
use crate::exec::indexscan::IndexCursor;
use crate::exec::mergejoin::MergeCursor;
use crate::exec::project::RowProject;
use crate::exec::seqscan::ScanCursor;
use crate::exec::sort::SortRun;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::{Expr, Program, RowRef};
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::{projected_schema, push_member_kinds, IndexMode, PlanNode};
use bufferdb_cachesim::CodeRegion;
use bufferdb_storage::Catalog;
use bufferdb_types::{Datum, DbError, Result, SchemaRef, Tuple};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// Source rows pumped per fused-region execution. One batch is one pass of
/// the push driver's hot loop; within it only the combined region is live.
const PUSH_BATCH_ROWS: u32 = 256;

/// Instructions charged per tuple handed upward from the emit queue or the
/// sorted run (the push driver's dequeue is branch-free pointer work, not a
/// region re-entry).
const EMIT_LOOP_INSTR: u64 = 24;

/// A row in flight, by reference.
#[derive(Debug, Clone, Copy)]
struct Item {
    row: Base,
    /// Past the join: the row it matched ([`Join::right`]).
    build: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
enum Base {
    /// A row of the scanned table.
    Table(u32),
    /// A row built into `pools[pool]`.
    Pool { pool: u16, idx: u32 },
    /// A row of the sorted run the group reads.
    Slot(TupleSlot),
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

/// The scanned table's rows and its arena registration (no rows when the
/// group reads a sorted run).
type Scanned<'a> = (&'a [Tuple], u32);

/// What batch items resolve against.
struct View<'a> {
    scan: Scanned<'a>,
    pools: &'a [Pool],
    /// The group's join, once the items carry its matches.
    join: Option<&'a Join>,
    arena: &'a TupleArena,
}

impl<'a> View<'a> {
    fn new(
        scan: Scanned<'a>,
        pools: &'a [Pool],
        join: Option<&'a Join>,
        arena: &'a TupleArena,
    ) -> Self {
        View {
            scan,
            pools,
            join,
            arena,
        }
    }

    /// The item's row before the join.
    fn left(&self, item: Item) -> &'a Tuple {
        match item.row {
            Base::Table(id) => &self.scan.0[id as usize],
            Base::Pool { pool, idx } => &self.pools[pool as usize].rows[idx as usize],
            Base::Slot(slot) => self.arena.tuple(slot),
        }
    }

    fn row(&self, item: Item) -> RowRef<'a> {
        match (item.row, item.build.zip(self.join)) {
            (_, Some((b, join))) => RowRef::pair(self.left(item), join.right(b, self.arena)),
            (Base::Slot(slot), None) => self.arena.row(slot),
            _ => RowRef::one(self.left(item)),
        }
    }

    /// Column `col` of the item's row as a join key.
    fn key(&self, item: Item, col: usize) -> Option<i64> {
        self.row(item).get(col).and_then(Datum::as_int)
    }

    /// The item as an arena slot holds it: a table row by reference, a
    /// pair of them as a pair, a run row as its slot held it, anything
    /// else built.
    fn keep(&self, item: Item) -> Held {
        let table_row = |id| TableRow {
            table: self.scan.1,
            id,
        };
        let held = match (item.row, item.build.zip(self.join)) {
            (Base::Slot(slot), None) => Some(self.arena.hold(slot)),
            (Base::Table(id), None) => Some(Held::Row(table_row(id))),
            (Base::Table(id), Some((b, join))) => join
                .right_row(b)
                .map(|r| Held::Pair(table_row(id), r, OnceCell::new())),
            _ => None,
        };
        held.unwrap_or_else(|| {
            let row = self.row(item);
            let mut t = Tuple::new(vec![Datum::Null; row.arity()]);
            row.copy_into(t.values_mut());
            Held::Owned(t)
        })
    }
}

/// One fused non-terminal stage.
enum Stage {
    Filter(RowFilter),
    /// Builds its rows into `pools[pool]`.
    Project {
        project: RowProject,
        pool: u16,
    },
    /// The group's join (see [`Join`]).
    Join,
}

/// The group's join. Its other side never re-enters a region of its own:
/// the kernel runs inside the fused region.
enum Join {
    /// The hash-join probe. The build side stays a pull subtree drained at
    /// `open` (blocking, like the pull join); only probing is fused.
    Hash {
        build: Box<dyn Operator>,
        build_code: CodeRegion,
        probe_key: usize,
        table: JoinTable,
    },
    /// The index nest-loop probe: one lookup per outer row, charged as the
    /// pull inner index scan charges it, then the qual per match.
    Index {
        cursor: IndexCursor,
        param_col: usize,
        qual: Option<RowFilter>,
    },
    /// The merge of the group's sorted run with an index range, advanced
    /// through the pull merge join's cursor.
    Merge {
        cursor: IndexCursor,
        bounds: (Option<i64>, Option<i64>),
        keys: (usize, usize),
        merge: MergeCursor<u32>,
        /// The right side ran out below the last left key.
        done: bool,
    },
}

impl Join {
    /// The row a joined item's `build` names: a hash build row, or a heap
    /// row of the index-probed table.
    fn right<'a>(&'a self, b: u32, arena: &'a TupleArena) -> &'a Tuple {
        match self {
            Join::Hash { table, .. } => arena.resolve(table.row(b)),
            Join::Index { cursor, .. } | Join::Merge { cursor, .. } => cursor.table().row(b),
        }
    }

    /// That row as a table row, when it is one.
    fn right_row(&self, b: u32) -> Option<TableRow> {
        match self {
            Join::Hash { table, .. } => match table.row(b) {
                Held::Row(r) => Some(*r),
                _ => None,
            },
            Join::Index { cursor, .. } | Join::Merge { cursor, .. } => Some(TableRow {
                table: cursor.table_id(),
                id: b,
            }),
        }
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        match self {
            Join::Hash {
                build,
                build_code,
                table,
                ..
            } => {
                build.open(ctx)?;
                table.build(ctx, build.as_mut(), build_code)
            }
            Join::Index { cursor, .. } => {
                cursor.open(ctx);
                Ok(())
            }
            Join::Merge {
                cursor,
                bounds,
                keys,
                merge,
                done,
            } => {
                cursor.open(ctx);
                cursor.descend(&mut ctx.machine, bounds.0.unwrap_or(0));
                cursor.range(*bounds, ctx.morsel.take());
                *done = false;
                merge.reset();
                merge.advance(ctx, &mut |ctx: &mut ExecContext| {
                    right_row(ctx, cursor, keys.1)
                })
            }
        }
    }

    /// Join every item of `batch` — rows of `scan` and `pools`, none joined
    /// yet — into `out`.
    fn run(
        &mut self,
        ctx: &mut ExecContext,
        (scan, pools): (Scanned<'_>, &[Pool]),
        batch: &[Item],
        out: &mut Vec<Item>,
    ) -> Result<()> {
        out.clear();
        let joined = |item, b| Item {
            build: Some(b),
            ..item
        };
        match self {
            Join::Hash {
                probe_key, table, ..
            } => {
                for &item in batch {
                    let k = View::new(scan, pools, None, &ctx.arena).key(item, *probe_key);
                    out.extend(
                        table
                            .probe(&mut ctx.machine, k)
                            .iter()
                            .map(|&m| joined(item, m)),
                    );
                }
            }
            Join::Index {
                cursor,
                param_col,
                qual,
            } => {
                for &item in batch {
                    let k = View::new(scan, pools, None, &ctx.arena).key(item, *param_col);
                    cursor.lookup(&mut ctx.machine, k);
                    while let Some(id) = cursor.next(ctx)? {
                        if let Some(q) = qual {
                            let left = View::new(scan, pools, None, &ctx.arena).left(item);
                            let pair = RowRef::pair(left, cursor.table().row(id));
                            if !q.keep(&mut ctx.machine, pair)? {
                                continue;
                            }
                        }
                        out.push(joined(item, id));
                    }
                }
            }
            Join::Merge {
                cursor,
                keys,
                merge,
                done,
                ..
            } => {
                let mut next = |ctx: &mut ExecContext| right_row(ctx, cursor, keys.1);
                for &item in batch {
                    // NULL join keys match nothing.
                    let Some(lk) = View::new(scan, pools, None, &ctx.arena)
                        .key(item, keys.0)
                        .filter(|_| !*done)
                    else {
                        continue;
                    };
                    merge.left(lk)?;
                    match merge.align(ctx, lk, &mut next)? {
                        Some(group) => out.extend(group.iter().map(|&r| joined(item, r))),
                        None => *done = true,
                    }
                }
            }
        }
        Ok(())
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        match self {
            Join::Hash { build, table, .. } => {
                table.clear();
                build.close(ctx)
            }
            Join::Index { cursor, .. } | Join::Merge { cursor, .. } => {
                cursor.clear();
                Ok(())
            }
        }
    }
}

/// The merge's right side: the index cursor's next heap row and its key.
fn right_row(
    ctx: &mut ExecContext,
    cursor: &mut IndexCursor,
    key: usize,
) -> Result<Option<(u32, Option<i64>)>> {
    let id = cursor.next(ctx)?;
    Ok(id.map(|id| (id, cursor.table().row(id).get(key).as_int())))
}

/// Where a group's rows come from.
enum Source {
    Scan(ScanCursor),
    /// The sorted run a nested sort group forms.
    Run(Box<PushPipelineOp>),
}

impl Source {
    fn scanned(&self) -> Scanned<'_> {
        match self {
            Source::Scan(scan) => (scan.table().rows(), scan.table_id()),
            Source::Run(_) => (&[], 0),
        }
    }
}

/// Where a group's rows go.
enum Sink {
    /// Up to the parent, through the emit queue.
    Emit,
    Agg(Accumulator),
    /// Into a sorted run, handed upward once the source is done.
    Sort(SortRun),
}

/// A fused push pipeline behind the pull [`Operator`] interface: the parent
/// still demand-pulls one tuple per `next`, but internally tuples are
/// produced batch-at-a-time into an emit queue, with one combined-region
/// execution per batch.
pub struct PushPipelineOp {
    schema: SchemaRef,
    /// The fused group's combined code region.
    code: CodeRegion,
    source: Source,
    /// Stages in application order (closest to the source first).
    stages: Vec<Stage>,
    join: Option<Join>,
    sink: Sink,
    /// Whether the sink's result (aggregate rows, the sorted run) is done.
    finished: bool,
    /// Pool 0 holds the source's projected rows, pool `k` those of the
    /// `k`-th projection, the last one the aggregate's results.
    pools: Vec<Pool>,
    batch: Vec<Item>,
    /// The join's output, swapped with `batch`.
    spare: Vec<Item>,
    emit: VecDeque<Item>,
    source_done: bool,
    out_region: u32,
    batch_hint: usize,
}

/// The pipeline compiled below a node: its source, stages, join and sink,
/// and the schema of the rows they deliver (past the join, a pair read as
/// the joined row).
struct Walked {
    source: Source,
    stages: Vec<Stage>,
    join: Option<Join>,
    sink: Sink,
    schema: SchemaRef,
}

impl Walked {
    fn new(source: Source, schema: SchemaRef) -> Self {
        Walked {
            source,
            stages: Vec::new(),
            join: None,
            sink: Sink::Emit,
            schema,
        }
    }

    /// Lower `e` over the rows delivered so far.
    fn program(&self, e: &Expr) -> Program {
        Program::new(e, &self.schema)
    }

    /// Add the group's one join, whose other side has rows of `right`.
    fn join(mut self, join: Join, right: &SchemaRef) -> Result<Self> {
        if self.join.is_some() {
            return Err(DbError::InvalidPlan(
                "push group: at most one fused join".into(),
            ));
        }
        self.schema = self.schema.join(right).into_ref();
        self.stages.push(Stage::Join);
        self.join = Some(join);
        Ok(self)
    }
}

impl PushPipelineOp {
    /// Compile the subtree under a `PlanNode::PushPipeline` marker.
    ///
    /// Registers profiler labels for the fused nodes in plan pre-order
    /// (the contract `explain_analyze` and the exchange's
    /// `register_labels_rec` rely on); fused nodes own no brackets, so
    /// their slots read zero and all fused work — a nested sort group's
    /// included — lands on the enclosing `PushPipeline` bracket. Hash-join
    /// build subtrees are real pull operators built via the normal path
    /// and keep their own attribution.
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
            join: w.join,
            sink: w.sink,
            finished: false,
            pools: (0..projections + 2).map(|_| Pool::default()).collect(),
            batch: Vec::new(),
            spare: Vec::new(),
            emit: VecDeque::new(),
            source_done: false,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        })
    }

    /// Pump one source batch through the fused stages into the sink. One
    /// fused-region execution per call.
    fn pump_batch(&mut self, ctx: &mut ExecContext) -> Result<()> {
        ctx.check_cancel()?;
        ctx.machine.exec_region(&mut self.code);
        let PushPipelineOp {
            source,
            stages,
            join,
            sink,
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
            let row = match source {
                Source::Scan(scan) => {
                    let Some(id) = scan.claim(ctx)? else {
                        *source_done = true;
                        break;
                    };
                    ctx.tuple_yield();
                    if !scan.test(ctx, id, scanned == 0)? {
                        continue;
                    }
                    match scan.projection_arity() {
                        None => Base::Table(id),
                        Some(arity) => {
                            let (idx, out) = pools[0].next_row(arity);
                            scan.project(&mut ctx.machine, id, out.values_mut())?;
                            Base::Pool { pool: 0, idx }
                        }
                    }
                }
                Source::Run(group) => {
                    let Some(slot) = group.next(ctx)? else {
                        *source_done = true;
                        break;
                    };
                    ctx.tuple_yield();
                    Base::Slot(slot)
                }
            };
            batch.push(Item { row, build: None });
        }
        let scan = source.scanned();
        for stage in stages.iter_mut() {
            if batch.is_empty() {
                break;
            }
            let (read, write) = match stage {
                Stage::Project { pool, .. } => pools.split_at_mut(*pool as usize),
                _ => (&mut pools[..], &mut [][..]),
            };
            let read = &*read;
            if let (Stage::Join, Some(j)) = (&*stage, join.as_mut()) {
                j.run(ctx, (scan, read), batch, spare)?;
                std::mem::swap(batch, spare);
                continue;
            }
            let view = View::new(scan, read, join.as_ref(), &ctx.arena);
            match stage {
                Stage::Filter(filter) => {
                    let mut kept = 0;
                    for i in 0..batch.len() {
                        let item = batch[i];
                        if filter.keep(&mut ctx.machine, view.row(item))? {
                            batch[kept] = item;
                            kept += 1;
                        }
                    }
                    batch.truncate(kept);
                }
                Stage::Project { project, pool } => {
                    let out = &mut write[0];
                    for item in batch.iter_mut() {
                        let row = view.row(*item);
                        let (idx, t) = out.next_row(project.arity());
                        project.write(&mut ctx.machine, row, t.values_mut())?;
                        *item = Item {
                            row: Base::Pool { pool: *pool, idx },
                            build: None,
                        };
                    }
                }
                // Joined above.
                Stage::Join => {}
            }
        }
        match sink {
            Sink::Emit => emit.extend(batch.iter().copied()),
            Sink::Agg(acc) => {
                let view = View::new(scan, pools, join.as_ref(), &ctx.arena);
                for &item in batch.iter() {
                    acc.update(&mut ctx.machine, view.row(item))?;
                }
            }
            Sink::Sort(run) => {
                for &item in batch.iter() {
                    let held = View::new(scan, pools, join.as_ref(), &ctx.arena).keep(item);
                    run.push(ctx, held);
                }
            }
        }
        Ok(())
    }

    /// Copy `item` into the output region: a pooled row by swapping it
    /// with the slot's recycled tuple, anything else as [`View::keep`]
    /// keeps it.
    fn store(&mut self, ctx: &mut ExecContext, item: Item) -> TupleSlot {
        let region = self.out_region;
        if let Item {
            row: Base::Pool { pool, idx },
            build: None,
        } = item
        {
            let row = &mut self.pools[pool as usize].rows[idx as usize];
            let spare = ctx.arena.recycle(region, row.arity());
            let t = std::mem::replace(row, spare);
            return ctx.arena.store(region, t, &mut ctx.machine);
        }
        let view = View::new(
            self.source.scanned(),
            &self.pools,
            self.join.as_ref(),
            &ctx.arena,
        );
        let held = view.keep(item);
        ctx.arena.store_held(region, held, &mut ctx.machine)
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
    let register = |fm: &mut FootprintModel, node: &PlanNode| {
        if fm.obs_enabled() {
            fm.obs_register(super::obs_label(node));
        }
    };
    register(fm, node);
    let invalid = |what: &str| Err(DbError::InvalidPlan(format!("push group: {what}")));
    if matches!(node, PlanNode::Aggregate { .. } | PlanNode::Sort { .. }) && !at_root {
        return invalid("an aggregate or sort must sit at the pipeline root");
    }
    match node {
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            let acc = Accumulator::new(group_by.clone(), aggs, |e| w.program(e))?;
            w.sink = Sink::Agg(acc);
            Ok(w)
        }
        PlanNode::Sort { input, keys } => {
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            w.sink = Sink::Sort(SortRun::new(keys.clone()));
            Ok(w)
        }
        PlanNode::Filter { input, predicate } => {
            let site = fm.predicate_site();
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            let filter = RowFilter::new(predicate, &w.schema, site);
            w.stages.push(Stage::Filter(filter));
            Ok(w)
        }
        PlanNode::Project { input, exprs } => {
            let mut w = walk(input, catalog, fm, worker_fm, false)?;
            let pool = 1 + w
                .stages
                .iter()
                .filter(|s| matches!(s, Stage::Project { .. }))
                .count() as u16;
            let project = RowProject::new(exprs, &w.schema);
            w.stages.push(Stage::Project { project, pool });
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
            let w = walk(probe, catalog, fm, worker_fm, false)?;
            let build = super::build_rec(build, catalog, fm, worker_fm)?;
            let right = build.schema();
            let join = Join::Hash {
                build,
                build_code,
                probe_key: *probe_key,
                table,
            };
            w.join(join, &right)
        }
        PlanNode::NestLoopJoin {
            outer,
            inner,
            param_outer_col: Some(param_col),
            qual,
            ..
        } => {
            let PlanNode::IndexScan {
                index,
                mode: IndexMode::LookupParam,
            } = &**inner
            else {
                return invalid("a nest-loop probe needs a parameterized index scan");
            };
            let w = walk(outer, catalog, fm, worker_fm, false)?;
            register(fm, inner);
            let cursor = IndexCursor::new(catalog, fm, index)?;
            let right = cursor.table().schema().clone();
            let (joined, site) = (w.schema.join(&right).into_ref(), fm.predicate_site());
            let join = Join::Index {
                qual: qual.as_ref().map(|q| RowFilter::new(q, &joined, site)),
                cursor,
                param_col: *param_col,
            };
            w.join(join, &right)
        }
        PlanNode::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (
                PlanNode::PushPipeline { input: sorted },
                PlanNode::IndexScan {
                    index,
                    mode: IndexMode::Range { lo, hi },
                },
            ) = (&**left, &**right)
            else {
                return invalid(
                    "a merge needs a fused sort on the left, an index range on the right",
                );
            };
            register(fm, left);
            let run = PushPipelineOp::compile(sorted, catalog, fm, worker_fm)?;
            if !matches!(run.sink, Sink::Sort(_)) {
                return invalid("a merge's left group must end in a sort");
            }
            register(fm, right);
            let cursor = IndexCursor::new(catalog, fm, index)?;
            let right = cursor.table().schema().clone();
            let join = Join::Merge {
                cursor,
                bounds: (*lo, *hi),
                keys: (*left_key, *right_key),
                merge: MergeCursor::new(fm),
                done: false,
            };
            let schema = run.schema.clone();
            Walked::new(Source::Run(Box::new(run)), schema).join(join, &right)
        }
        PlanNode::SeqScan {
            table,
            predicate,
            projection,
        } => {
            let table = catalog.table(table)?;
            let schema = match projection {
                Some(exprs) => projected_schema(table.schema(), exprs)?,
                None => table.schema().clone(),
            };
            let scan = ScanCursor::new(table, fm, predicate.as_ref(), projection.as_deref());
            Ok(Walked::new(Source::Scan(scan), schema))
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
        self.finished = false;
        match &mut self.source {
            Source::Scan(scan) => scan.open(ctx),
            Source::Run(group) => group.open(ctx)?,
        }
        match &mut self.sink {
            Sink::Emit => {}
            Sink::Agg(acc) => acc.reset(ctx),
            Sink::Sort(run) => run.begin(ctx, &self.schema),
        }
        self.join.as_mut().map_or(Ok(()), |j| j.open(ctx))
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        loop {
            if let Some(item) = self.emit.pop_front() {
                ctx.machine.add_instructions(EMIT_LOOP_INSTR);
                return Ok(Some(self.store(ctx, item)));
            }
            if self.source_done {
                let first = !std::mem::replace(&mut self.finished, true);
                match &mut self.sink {
                    Sink::Agg(acc) if first => {
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
                    Sink::Sort(run) => {
                        if first {
                            run.sort(ctx);
                        }
                        let slot = run.next(ctx);
                        if slot.is_some() {
                            ctx.machine.add_instructions(EMIT_LOOP_INSTR);
                        }
                        return Ok(slot);
                    }
                    _ => return Ok(None),
                }
            }
            self.pump_batch(ctx)?;
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.emit.clear();
        if let Sink::Sort(run) = &mut self.sink {
            run.clear();
        }
        if let Source::Run(group) = &mut self.source {
            group.close(ctx)?;
        }
        self.join.as_mut().map_or(Ok(()), |j| j.close(ctx))
    }
}
