//! Morsel-driven parallel exchange: fan-out + ordered gather.
//!
//! The exchange partitions its subtree's driving scan into *morsels*
//! (contiguous row-id ranges) and runs them as one phase (`PhaseState`,
//! `exec/phase.rs`): a private copy of the subtree per lane, each lane with
//! its own [`ExecContext`] (arena, and when the query is profiled its own
//! [`crate::obs::QueryProfiler`] over the same subtree labels). A solo query
//! runs the phase on one scoped thread per lane, each on a fresh simulated
//! [`Machine`] — per-core L1i/ITLB/branch state, as the paper assumes — and
//! each running its lane's fixed morsel stripe; a server query hands it to
//! the server's scheduler, whose workers steal morsels. Either
//! way every lane's counters and profile are merged into the coordinating
//! context with exact conservation (see [`ExecContext::absorb_worker`]).
//!
//! Gathered tuples are resequenced by morsel index, so when the driving
//! leaf is a sequential scan the output order is exactly the serial order —
//! parallel execution is bit-identical to serial, including the
//! floating-point accumulation order of any aggregate above the exchange.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::phase::{PhaseOutcome, PhaseState, WorkerOutcome};
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::footprint::{FootprintModel, OpKind};
use crate::obs::{ExchangeLane, ObsId};
use crate::plan::PlanNode;
use bufferdb_cachesim::{CodeRegion, Machine, PerfCounters};
use bufferdb_storage::Catalog;
use bufferdb_types::{DbError, Result, SchemaRef, Tuple};
use std::collections::VecDeque;

/// Upper bound on rows per morsel. Large enough that per-morsel overhead
/// (one subtree open/close, one coordinator dispatch) is noise; small
/// enough that a scan splits into many more morsels than workers, so each
/// solo lane's fixed stripe interleaves the whole scan and server workers
/// have morsels left to steal.
pub const MORSEL_ROWS: u32 = 4096;

/// Morsels per worker targeted when the domain is small: a solo lane's
/// stripe spans the scan in several pieces, and server workers stealing
/// between lanes need several morsels per lane to balance.
const MORSELS_PER_WORKER: usize = 4;

/// Modeled instructions the coordinator spends handing one gathered tuple
/// to its parent.
const GATHER_INSTR: u64 = 10;

/// Rows of the subtree's driving leaf scan — the morsel domain. The driving
/// leaf is the first-opened scan of the subtree (probe side of a hash join,
/// outer side of a nested loop), reached through first children.
pub(crate) fn driving_leaf_rows(plan: &PlanNode, catalog: &Catalog) -> Result<u32> {
    match plan {
        PlanNode::SeqScan { table, .. } => Ok(catalog.table(table)?.row_count() as u32),
        PlanNode::IndexScan { index, .. } => {
            let idx = catalog.index(index)?;
            Ok(catalog.table(&idx.table)?.row_count() as u32)
        }
        other => {
            let children = other.children();
            match children.first() {
                Some(c) => driving_leaf_rows(c, catalog),
                None => Err(DbError::InvalidPlan(
                    "exchange subtree has no driving scan".into(),
                )),
            }
        }
    }
}

/// A parallel phase as an exchange hands it to a runner: the morsel ranges
/// (bucket `i` collects morsel `i`'s output rows, in index order) plus the
/// pre-built per-lane subtree copies and their profiler labels.
pub(crate) struct PhaseRequest {
    pub(crate) morsels: Vec<(u32, u32)>,
    pub(crate) trees: Vec<Box<dyn Operator>>,
    /// Subtree labels for per-lane profilers; empty when unprofiled.
    pub(crate) labels: Vec<String>,
}

/// A scheduler that runs exchange phases on shared server workers instead of
/// per-query scoped threads. Installed on [`ExecContext`] by the server's
/// drive runners; when present, [`ExchangeOp::open`] routes its parallel
/// phase through it, so queries submitted to a [`crate::server`] share one
/// fixed worker pool (and its simulated per-core i-caches) instead of
/// spinning up threads per query.
///
/// The trait also owns the drive's counter bookkeeping: in server mode the
/// coordinator borrows a pool worker's long-lived machine, so the query's
/// total is *assembled* — machine deltas outside phases (tracked between
/// `begin_drive`/`run_phase`/`seal_drive` snapshots) plus every lane's
/// accumulated per-unit deltas — rather than read off a fresh machine.
///
/// `Send` because lane contexts (which embed the delegate slot's type) are
/// handed between pool workers behind locks.
pub(crate) trait ExchangeDelegate: Send {
    /// Note the machine snapshot at drive start: the baseline for the
    /// coordinator's own-work accounting.
    fn begin_drive(&mut self, base: PerfCounters);

    /// Run one parallel phase to completion. Called with the delegate taken
    /// *out* of `ctx` (no reentrancy through this context).
    fn run_phase(&mut self, ctx: &mut ExecContext, req: PhaseRequest) -> PhaseOutcome;

    /// Close the drive: `now` is the final machine snapshot. Returns the
    /// query's total counters: coordinator deltas outside phases plus every
    /// lane's accumulated counters.
    fn seal_drive(&mut self, now: PerfCounters) -> PerfCounters;
}

/// The exchange operator (plan node [`PlanNode::Exchange`]).
pub struct ExchangeOp {
    schema: SchemaRef,
    code: CodeRegion,
    workers: usize,
    /// Row-id domain of the driving leaf scan, partitioned into morsels.
    domain: u32,
    obs: Option<ObsId>,
    /// Profiler id of the subtree's root: worker op `i` merges into
    /// `child_base + i` (both sides register the subtree in pre-order).
    child_base: usize,
    worker_trees: Vec<Box<dyn Operator>>,
    /// Subtree labels for per-worker profilers; empty when unprofiled.
    worker_labels: Vec<String>,
    gathered: VecDeque<Tuple>,
    out_region: u32,
    batch_hint: usize,
}

impl ExchangeOp {
    /// Build an exchange over pre-built per-worker subtree copies.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fm: &mut FootprintModel,
        schema: SchemaRef,
        workers: usize,
        domain: u32,
        obs: Option<ObsId>,
        child_base: usize,
        worker_trees: Vec<Box<dyn Operator>>,
        worker_labels: Vec<String>,
    ) -> Self {
        ExchangeOp {
            schema,
            code: fm.region_for(&OpKind::Exchange),
            workers: workers.max(1),
            domain,
            obs,
            child_base,
            worker_trees,
            worker_labels,
            gathered: VecDeque::new(),
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        }
    }

    fn morsels(&self) -> Vec<(u32, u32)> {
        let chunk = (self.domain as usize)
            .div_ceil(self.workers * MORSELS_PER_WORKER)
            .clamp(1, MORSEL_ROWS as usize) as u32;
        let mut out = Vec::new();
        let mut lo = 0u32;
        while lo < self.domain {
            let hi = lo.saturating_add(chunk).min(self.domain);
            out.push((lo, hi));
            lo = hi;
        }
        out
    }

    /// Merge lane outcomes into the coordinating context: restore trees,
    /// fold profiles and lane records, model the per-morsel dispatch cost,
    /// surface the first failure.
    ///
    /// In `server_mode` the lane counters are *not* folded into the
    /// coordinator's machine — the lanes ran on long-lived pool-worker
    /// machines whose counters stay put; the delegate assembles the query
    /// total instead. After absorbing lane profiles the profiler is
    /// resynchronized to the machine so deltas that accrued on the borrowed
    /// core during the phase (they belong to lanes, already absorbed above)
    /// are not double-charged to the enclosing operator bracket.
    fn merge_outcomes(
        &mut self,
        ctx: &mut ExecContext,
        outcomes: Vec<WorkerOutcome>,
        server_mode: bool,
    ) -> Option<DbError> {
        let mut restored = Vec::with_capacity(outcomes.len());
        let mut first_err = None;
        let mut dispatched = 0u64;
        for oc in outcomes {
            dispatched += oc.morsels;
            let lane = ExchangeLane {
                worker: oc.worker,
                morsels: oc.morsels,
                rows: oc.rows,
                counters: oc.counters,
            };
            if server_mode {
                ctx.absorb_lane_profile(self.obs, self.child_base, oc.profile.as_ref(), lane);
            } else {
                ctx.absorb_worker(
                    self.obs,
                    self.child_base,
                    oc.counters,
                    oc.profile.as_ref(),
                    lane,
                );
            }
            ctx.absorb_trace(oc.trace);
            if let Some(tree) = oc.tree {
                restored.push(tree);
            }
            if first_err.is_none() {
                first_err = oc.error;
            }
        }
        self.worker_trees = restored;
        if server_mode {
            let now = ctx.machine.snapshot();
            if let Some(p) = ctx.profiler.as_mut() {
                p.resync(now);
            }
        }
        // Coordinator-side dispatch cost: one pass over the exchange's code
        // per morsel handed out, inside the exchange's profiling bracket.
        for _ in 0..dispatched {
            ctx.machine.exec_region(&mut self.code);
        }
        first_err
    }
}

/// Run a phase without a server: thread `w` takes lane `w` and a fresh
/// machine (a private core) and runs lane `w`'s morsel stripe on it.
fn run_solo(ctx: &ExecContext, req: PhaseRequest) -> PhaseOutcome {
    let threads = req.trees.len();
    let phase = &PhaseState::new(req, 0, ctx);
    let cfg = ctx.machine.config();
    std::thread::scope(|s| {
        for w in 0..threads {
            s.spawn(move || phase.run_stripe(w, &mut Machine::new(cfg.clone())));
        }
    });
    phase.collect()
}

impl Operator for ExchangeOp {
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
        let req = PhaseRequest {
            morsels: self.morsels(),
            trees: std::mem::take(&mut self.worker_trees),
            labels: self.worker_labels.clone(),
        };
        let (out, server_mode) = match ctx.delegate.take() {
            Some(mut delegate) => {
                let out = delegate.run_phase(ctx, req);
                ctx.delegate = Some(delegate);
                (out, true)
            }
            None => (run_solo(ctx, req), false),
        };
        // Resequence by morsel index: serial row order for seq-scan leaves.
        self.gathered = out.buckets.into_iter().flatten().collect();
        match self.merge_outcomes(ctx, out.outcomes, server_mode) {
            Some(e) => {
                // Partial gathers are meaningless once any lane failed.
                self.gathered.clear();
                Err(e)
            }
            None => Ok(()),
        }
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        match self.gathered.pop_front() {
            None => Ok(None),
            Some(t) => {
                ctx.machine.add_instructions(GATHER_INSTR);
                Ok(Some(ctx.arena.store(self.out_region, t, &mut ctx.machine)))
            }
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<()> {
        self.gathered.clear();
        Ok(())
    }
}
