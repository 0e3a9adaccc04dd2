//! The demand-pull executor: Volcano iterators over the simulated machine.
//!
//! Every operator implements the open/next/close (+ rescan) interface of §4.
//! `next` produces **one tuple per call** — the paper's PCPCPC interleaving —
//! and executes the operator's synthetic code region through the machine
//! simulator on every call, so instruction-cache behaviour emerges from the
//! execution pattern rather than being assumed.

pub mod agg;
pub mod buffer;
pub mod exchange;
pub mod filter;
pub mod hashjoin;
pub mod indexscan;
pub mod limit;
pub mod materialize;
pub mod mergejoin;
pub mod nestloop;
pub(crate) mod phase;
pub mod project;
pub mod push;
pub mod reused;
pub mod seqscan;
pub mod sort;
pub mod sysscan;

use crate::arena::TupleSlot;
use crate::cancel::CancelToken;
use crate::context::{CoreSlicer, ExecContext};
use crate::fault::{self, FaultRegistry};
use crate::footprint::FootprintModel;
use crate::obs::trace::{TraceEvent, TraceReport, Tracer};
use crate::obs::{ProfiledOp, QueryProfile, QueryProfiler};
use crate::plan::PlanNode;
use crate::session::QueryOpts;
use crate::stats::ExecStats;
use bufferdb_cachesim::{
    BreakdownReport, CodeLayout, HeatSnapshot, Machine, MachineConfig, PerfCounters,
};
use bufferdb_storage::Catalog;
use bufferdb_types::{DataType, Datum, DbError, Result, SchemaRef, Tuple};
use exchange::ExchangeDelegate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Default live-slot window for an operator's output region when no buffer
/// operator raised it: the consumer holds at most the current tuple while the
/// producer writes the next one.
pub const DEFAULT_BATCH: usize = 2;

/// The iterator interface every operator supports (§4).
///
/// `Send` because exchange operators move per-worker subtree copies into
/// scoped threads.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> SchemaRef;

    /// Initialize state; called once before any `next`.
    fn open(&mut self, ctx: &mut ExecContext) -> Result<()>;

    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>>;

    /// Release state; called once after the last `next`.
    fn close(&mut self, ctx: &mut ExecContext) -> Result<()>;

    /// Restart the iterator, optionally with a new parameter (the inner side
    /// of a nested-loop join). Operators that cannot restart return an error.
    fn rescan(&mut self, _ctx: &mut ExecContext, _param: Option<&Datum>) -> Result<()> {
        Err(DbError::ExecProtocol(format!(
            "operator over {} does not support rescan",
            self.schema()
        )))
    }

    /// A parent buffer operator announces it will keep up to `n` output
    /// tuples of this operator alive (§5: the buffer stores pointers; the
    /// tuples stay in the child's memory space). Called before `open`.
    fn set_batch_hint(&mut self, _n: usize) {}
}

/// Estimated simulated slot width in bytes for tuples of `schema`.
pub fn schema_slot_bytes(schema: &SchemaRef) -> u32 {
    let payload: usize = schema
        .fields()
        .iter()
        .map(|f| match f.ty {
            DataType::Bool => 1,
            DataType::Int | DataType::Float => 8,
            DataType::Decimal => 16,
            DataType::Date => 4,
            DataType::Str => 48,
        })
        .sum();
    ((16 + payload).next_multiple_of(16)) as u32
}

/// Build an executable operator tree for `plan`.
///
/// `fm` owns the simulated code layout; passing the same model for several
/// plans makes them share operator code, as compiled binaries do.
pub fn build_executor(
    plan: &PlanNode,
    catalog: &Catalog,
    fm: &mut FootprintModel,
) -> Result<Box<dyn Operator>> {
    // Validate the whole tree up front (schemas, column indices).
    plan.output_schema(catalog)?;
    build_rec(plan, catalog, fm, &FootprintModel::new)
}

/// [`build_executor`] with an explicit factory for the fresh per-core
/// footprint models exchange worker subtrees are built against. The server
/// passes a factory that clones one pre-linked master layout, so every query
/// (and every lane) maps each operator to the *same* simulated text
/// addresses — the precondition for modeling cross-query i-cache reuse and
/// interference on shared pool workers.
pub(crate) fn build_executor_with(
    plan: &PlanNode,
    catalog: &Catalog,
    fm: &mut FootprintModel,
    worker_fm: &dyn Fn() -> FootprintModel,
) -> Result<Box<dyn Operator>> {
    plan.output_schema(catalog)?;
    build_rec(plan, catalog, fm, worker_fm)
}

/// Short operator label for profiling output.
fn obs_label(plan: &PlanNode) -> String {
    match plan {
        PlanNode::SeqScan { table, .. } => format!("SeqScan({table})"),
        PlanNode::IndexScan { index, .. } => format!("IndexScan({index})"),
        PlanNode::ReusedScan { handle } => format!("ReusedScan({} rows)", handle.row_count()),
        PlanNode::SysScan { table } => format!("SysScan({table})"),
        PlanNode::NestLoopJoin { .. } => "NestLoopJoin".to_string(),
        PlanNode::HashJoin { .. } => "HashJoin".to_string(),
        PlanNode::MergeJoin { .. } => "MergeJoin".to_string(),
        PlanNode::Sort { .. } => "Sort".to_string(),
        PlanNode::Aggregate { .. } => "Aggregate".to_string(),
        PlanNode::Project { .. } => "Project".to_string(),
        PlanNode::Buffer { size, .. } => format!("Buffer({size})"),
        PlanNode::Filter { .. } => "Filter".to_string(),
        PlanNode::Limit { .. } => "Limit".to_string(),
        PlanNode::Materialize { .. } => "Materialize".to_string(),
        PlanNode::Exchange { workers, .. } => format!("Exchange({workers})"),
        PlanNode::PushPipeline { .. } => "PushPipeline".to_string(),
    }
}

/// Register every node of `plan` (pre-order) without building operators.
/// The exchange registers its subtree this way so the coordinating profiler
/// has slots for the merged per-worker stats at the same pre-order ids
/// `explain_analyze` derives from the plan walk.
fn register_labels_rec(plan: &PlanNode, fm: &mut FootprintModel) {
    fm.obs_register(obs_label(plan));
    for c in plan.children() {
        register_labels_rec(c, fm);
    }
}

fn build_rec(
    plan: &PlanNode,
    catalog: &Catalog,
    fm: &mut FootprintModel,
    worker_fm: &dyn Fn() -> FootprintModel,
) -> Result<Box<dyn Operator>> {
    // Register this node *before* recursing so ids follow plan pre-order —
    // the contract `explain_analyze` relies on to map nodes to stats.
    let obs = if fm.obs_enabled() {
        Some(fm.obs_register(obs_label(plan)))
    } else {
        None
    };
    let op: Box<dyn Operator> = match plan {
        PlanNode::SeqScan {
            table,
            predicate,
            projection,
        } => Box::new(seqscan::SeqScanOp::new(
            catalog,
            fm,
            table,
            predicate.clone(),
            projection.clone(),
        )?),
        PlanNode::IndexScan { index, mode } => Box::new(indexscan::IndexScanOp::new(
            catalog,
            fm,
            index,
            mode.clone(),
        )?),
        PlanNode::ReusedScan { handle } => Box::new(reused::ReusedScanOp::new(fm, handle.clone())),
        PlanNode::SysScan { table } => Box::new(sysscan::SysScanOp::new(
            table.clone(),
            catalog.sys_table(table)?,
        )),
        PlanNode::NestLoopJoin {
            outer,
            inner,
            param_outer_col,
            qual,
            ..
        } => {
            let o = build_rec(outer, catalog, fm, worker_fm)?;
            let i = build_rec(inner, catalog, fm, worker_fm)?;
            Box::new(nestloop::NestLoopOp::new(
                fm,
                o,
                i,
                *param_outer_col,
                qual.clone(),
            ))
        }
        PlanNode::HashJoin {
            probe,
            build,
            probe_key,
            build_key,
        } => {
            let p = build_rec(probe, catalog, fm, worker_fm)?;
            let b = build_rec(build, catalog, fm, worker_fm)?;
            Box::new(hashjoin::HashJoinOp::new(fm, p, b, *probe_key, *build_key))
        }
        PlanNode::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = build_rec(left, catalog, fm, worker_fm)?;
            let r = build_rec(right, catalog, fm, worker_fm)?;
            Box::new(mergejoin::MergeJoinOp::new(fm, l, r, *left_key, *right_key))
        }
        PlanNode::Sort { input, keys } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            Box::new(sort::SortOp::new(fm, c, keys.clone()))
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            Box::new(agg::AggregateOp::new(
                fm,
                c,
                group_by.clone(),
                aggs.clone(),
            )?)
        }
        PlanNode::Project { input, exprs } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            Box::new(project::ProjectOp::new(fm, c, exprs.clone())?)
        }
        PlanNode::Buffer { input, size } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            let mut b = buffer::BufferOp::new(fm, c, *size)?;
            // Fill/drain gauges are internal to the refill loop, so the
            // buffer reports them itself rather than via the decorator.
            b.set_obs(obs);
            Box::new(b)
        }
        PlanNode::Filter { input, predicate } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            Box::new(filter::FilterOp::new(fm, c, predicate.clone())?)
        }
        PlanNode::Limit { input, limit } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            Box::new(limit::LimitOp::new(fm, c, *limit))
        }
        PlanNode::Materialize { input } => {
            let c = build_rec(input, catalog, fm, worker_fm)?;
            Box::new(materialize::MaterializeOp::new(fm, c))
        }
        PlanNode::Exchange { input, workers } => {
            // The subtree's profiler slots live in the coordinating model at
            // the ids right after the exchange; the worker copies are built
            // against fresh models (separate per-core code mappings) whose
            // registration follows the same pre-order, so worker op `i`
            // merges into `child_base + i`.
            let child_base = fm.obs_labels().len();
            if fm.obs_enabled() {
                register_labels_rec(input, fm);
            }
            let schema = input.output_schema(catalog)?;
            let domain = exchange::driving_leaf_rows(input, catalog)?;
            let n = (*workers).max(1);
            let mut worker_trees = Vec::with_capacity(n);
            let mut worker_labels = Vec::new();
            for w in 0..n {
                let mut wfm = worker_fm();
                if fm.obs_enabled() {
                    wfm.enable_obs();
                }
                let tree = build_rec(input, catalog, &mut wfm, worker_fm)?;
                if w == 0 {
                    worker_labels = wfm.obs_labels().to_vec();
                }
                worker_trees.push(tree);
            }
            Box::new(exchange::ExchangeOp::new(
                fm,
                schema,
                *workers,
                domain,
                obs,
                child_base,
                worker_trees,
                worker_labels,
            ))
        }
        PlanNode::PushPipeline { input } => {
            // The compile walk registers the fused nodes' labels in plan
            // pre-order (hash-join build subtrees are built through this
            // function and register + bracket themselves); the fused work
            // itself lands on this node's bracket.
            Box::new(push::PushPipelineOp::compile(
                input, catalog, fm, worker_fm,
            )?)
        }
    };
    Ok(match obs {
        Some(id) => Box::new(ProfiledOp::new(id, op)),
        None => op,
    })
}

/// What one query execution produced — even when it failed.
///
/// A clean run has [`QueryOutcome::error`] `None`; otherwise
/// [`QueryOutcome::rows`] holds whatever was produced before the failure and
/// [`QueryOutcome::stats`] the simulated work actually done (cancelled or
/// fault-injected runs still conserve counters exactly).
/// [`QueryOutcome::profile`] is present when profiling was requested and the
/// run ended with balanced profiler brackets — every clean run and every
/// typed-error run; it is dropped only after a contained panic, whose unwind
/// skips the profiler's exit records.
///
/// Fields are accessor-based so the struct can grow (plan-cache provenance,
/// adaptive-refinement decisions, …) without breaking downstream matches.
#[derive(Debug)]
pub struct QueryOutcome {
    rows: Vec<Tuple>,
    stats: ExecStats,
    profile: Option<QueryProfile>,
    error: Option<DbError>,
    trace: Option<TraceReport>,
    heat: Option<HeatSnapshot>,
}

impl QueryOutcome {
    /// The outcome of a query that failed before its drive started: no
    /// rows, zero counters (priced on `cfg`), no profile, no trace.
    pub(crate) fn failed(cfg: &MachineConfig, error: DbError) -> Self {
        let counters = PerfCounters::default();
        QueryOutcome {
            rows: Vec::new(),
            stats: ExecStats {
                rows: 0,
                counters,
                breakdown: BreakdownReport::from_counters(&counters, cfg),
                wall: Duration::ZERO,
            },
            profile: None,
            error: Some(error),
            trace: None,
            heat: None,
        }
    }

    /// The per-segment L1i heatmap (when requested via
    /// [`crate::session::QueryOpts::heatmap`]). Conservation holds exactly:
    /// the snapshot's total misses equal [`ExecStats::counters`]'
    /// `l1i_misses` for a serial run (worker cores' heat stays on their
    /// machines).
    pub fn heat(&self) -> Option<&HeatSnapshot> {
        self.heat.as_ref()
    }

    /// Rows produced before completion or failure.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Whole-query simulated counters, breakdown and wall-clock time.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Per-operator attribution (when requested and brackets balanced).
    pub fn profile(&self) -> Option<&QueryProfile> {
        self.profile.as_ref()
    }

    /// The first failure, if any.
    pub fn error(&self) -> Option<&DbError> {
        self.error.as_ref()
    }

    /// The merged flight-recorder trace (when requested). Unlike the
    /// profile, the trace survives contained panics — whatever the rings
    /// held at the moment of failure is exactly what a flight recorder is
    /// for.
    pub fn trace(&self) -> Option<&TraceReport> {
        self.trace.as_ref()
    }

    /// Mutable access to the trace, used by the prepared-query layer to
    /// stamp post-execution adaptivity instants onto the same clock.
    pub(crate) fn trace_mut(&mut self) -> Option<&mut TraceReport> {
        self.trace.as_mut()
    }

    /// Detach the trace, leaving the outcome otherwise intact.
    pub fn take_trace(&mut self) -> Option<TraceReport> {
        self.trace.take()
    }

    /// Whether the query ran to completion without failure.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Decompose into owned parts: `(rows, stats, profile, error)`.
    pub fn into_parts(self) -> (Vec<Tuple>, ExecStats, Option<QueryProfile>, Option<DbError>) {
        (self.rows, self.stats, self.profile, self.error)
    }

    /// Convert to the classic `Result` shape, discarding partial output on
    /// failure.
    pub fn into_result(self) -> Result<(Vec<Tuple>, ExecStats, Option<QueryProfile>)> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.rows, self.stats, self.profile)),
        }
    }
}

/// Execute `plan` end to end under `opts`, never panicking: executor errors
/// (including cancellation and injected faults) land in
/// [`QueryOutcome::error`], and a panic anywhere in the serial driving path
/// is contained and converted to [`DbError::WorkerFailed`] — the same
/// containment exchange lanes apply on their own threads.
pub fn execute_query(
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &MachineConfig,
    opts: &QueryOpts,
) -> QueryOutcome {
    let mut fm = FootprintModel::new();
    if opts.wants_profile() {
        fm.enable_obs();
    }
    match build_executor(plan, catalog, &mut fm) {
        Ok(root) => drive_root(root, &fm, cfg, opts),
        Err(e) => QueryOutcome::failed(cfg, e),
    }
}

/// Drive an already-built operator tree to completion on a fresh machine
/// under `opts` — [`execute_query`] minus the plan → tree step, for callers
/// that assemble operators no plan node instantiates. `fm` is the model
/// `root` was built against (its registered labels shape the profile).
pub fn drive_root(
    root: Box<dyn Operator>,
    fm: &FootprintModel,
    cfg: &MachineConfig,
    opts: &QueryOpts,
) -> QueryOutcome {
    run_drive(DriveSpec::new(root, fm, opts), None, cfg)
}

/// Everything the drive spine needs that is decided before the drive starts.
pub(crate) struct DriveSpec {
    pub(crate) root: Box<dyn Operator>,
    /// Profiler labels (empty when profiling is off).
    pub(crate) labels: Vec<String>,
    pub(crate) cancel: CancelToken,
    pub(crate) faults: Arc<FaultRegistry>,
    pub(crate) trace: bool,
    /// Seal the drive machine's L1i heat ledger into the outcome.
    pub(crate) heatmap: bool,
    /// Owner tag for cross-query miss attribution. 0 — the simulator's
    /// "untagged" sentinel, never handed out by a server — marks a solo
    /// run, which never switches attribution on.
    pub(crate) tag: u32,
    /// Cooperative time-slicer installed into the drive context. Only the
    /// virtual server's session core sets one, so resident queries
    /// time-share a single simulated machine at tuple granularity.
    pub(crate) slicer: Option<Box<dyn CoreSlicer>>,
}

impl DriveSpec {
    /// A solo drive of `root` (built against `fm`) under `opts`.
    pub(crate) fn new(root: Box<dyn Operator>, fm: &FootprintModel, opts: &QueryOpts) -> Self {
        DriveSpec {
            root,
            labels: fm.obs_labels().to_vec(),
            cancel: opts.resolve_cancel(),
            faults: opts.resolve_faults(),
            trace: opts.wants_trace(),
            heatmap: opts.wants_heatmap(),
            tag: 0,
            slicer: None,
        }
    }

    /// A pool drive for a multi-query server: `plan` is built on the calling
    /// thread against clones of the server's pre-linked `master` layout
    /// (every query and every lane maps each operator to the same text
    /// addresses). Heat is a server-level ledger. The server assigns `tag`
    /// once the build has succeeded.
    pub(crate) fn for_server(
        plan: &PlanNode,
        catalog: &Catalog,
        master: &CodeLayout,
        opts: &QueryOpts,
    ) -> Result<Self> {
        let mut fm = FootprintModel::with_layout(master.clone());
        if opts.wants_profile() {
            fm.enable_obs();
        }
        let root = build_executor_with(plan, catalog, &mut fm, &|| {
            FootprintModel::with_layout(master.clone())
        })?;
        Ok(DriveSpec {
            heatmap: false,
            ..DriveSpec::new(root, &fm, opts)
        })
    }
}

/// The one drive spine: run `spec.root` open → next* → close and seal rows,
/// counters, profile, trace and heat into a [`QueryOutcome`]. Typed errors
/// and contained panics both land in the outcome, never unwind.
///
/// A solo run (`pool` is `None`) drives a fresh machine. A server drive
/// borrows a long-lived pool machine for the duration and installs the
/// server's phase delegate, which also owns the counter accounting — other
/// queries' work on the same machine must not be charged to this one.
pub(crate) fn run_drive(
    spec: DriveSpec,
    pool: Option<(&mut Machine, Box<dyn ExchangeDelegate>)>,
    cfg: &MachineConfig,
) -> QueryOutcome {
    let wall_start = std::time::Instant::now();
    let mut ctx = ExecContext::new(cfg.clone());
    let mut home = None;
    if let Some((machine, mut delegate)) = pool {
        std::mem::swap(&mut ctx.machine, machine);
        home = Some(machine);
        delegate.begin_drive(ctx.machine.snapshot());
        ctx.delegate = Some(delegate);
    }
    if spec.tag != 0 {
        ctx.machine.set_query_tag(spec.tag);
    }
    ctx.cancel = spec.cancel;
    ctx.faults = spec.faults;
    ctx.slicer = spec.slicer;
    if !spec.labels.is_empty() {
        ctx.profiler = Some(QueryProfiler::new(&spec.labels));
    }
    if spec.trace {
        ctx.tracer = Some(Tracer::new(&match spec.tag {
            0 => "coordinator".into(),
            tag => format!("query-{tag}"),
        }));
    }
    if spec.heatmap {
        ctx.machine.enable_heatmap();
    }
    let mut root = spec.root;
    let mut rows = Vec::new();
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
        root.open(&mut ctx)?;
        while let Some(slot) = root.next(&mut ctx)? {
            // Root drive loop is the universal cancellation granule:
            // plans with no buffer, exchange, or blocking operator
            // still stop within one output row.
            ctx.check_cancel()?;
            ctx.tuple_yield();
            rows.push(ctx.arena.tuple(slot).clone());
        }
        root.close(&mut ctx)
    }));
    let mut panicked = false;
    let error = match caught {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(payload) => {
            panicked = true;
            ctx.trace(TraceEvent::WorkerPanic);
            Some(DbError::WorkerFailed(format!(
                "executor panicked: {}",
                fault::panic_message(&*payload)
            )))
        }
    };
    let final_snap = ctx.machine.snapshot();
    let counters = match ctx.delegate.take() {
        Some(mut d) => d.seal_drive(final_snap),
        // A solo run owns its machine outright. (On a server drive this
        // arm is unreachable: the exchange always puts the delegate back.)
        None => final_snap,
    };
    let breakdown = ctx.machine.breakdown_for(&counters);
    // Typed errors unwind through `ProfiledOp`, which closes its bracket on
    // the way out, so the profile still conserves exactly. A panic skips
    // those exits and leaves the enter-stack unbalanced: drop the profile
    // (the whole-query counters above remain valid either way).
    let profile = match ctx.profiler.take() {
        Some(p) if !panicked => Some(p.seal(counters)),
        _ => None,
    };
    // The trace, by contrast, is kept even after a panic: rings are plain
    // already-written memory, and the events leading up to the failure are
    // the recorder's whole point.
    let trace = ctx.tracer.take().map(Tracer::finish);
    let heat = spec.heatmap.then(|| ctx.machine.heat_snapshot());
    if let Some(machine) = home {
        std::mem::swap(&mut ctx.machine, machine);
    }
    QueryOutcome {
        stats: ExecStats {
            rows: rows.len() as u64,
            counters,
            breakdown,
            wall: wall_start.elapsed(),
        },
        rows,
        profile,
        error,
        trace,
        heat,
    }
}
