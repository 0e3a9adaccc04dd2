//! The one way an exchange phase runs: phase state holding the morsels, the
//! per-lane output buckets and the lanes themselves.
//!
//! When an exchange opens it builds a [`PhaseState`]: the morsel ranges of
//! its driving scan, striped across per-lane shards (shard `w` owns morsels
//! `w`, `w + W`, `w + 2W`, …), plus one [`Lane`] per plan-time worker, and
//! finally [`PhaseState::collect`]s it. Two kinds of runner drive it:
//!
//! - a solo query runs one scoped thread per lane, each on a fresh
//!   simulated machine ([`PhaseState::run_stripe`]): thread `w` owns lane
//!   `w` for the whole phase and runs exactly shard `w`'s stripe, so which
//!   core runs which morsel is fixed and every solo counter is exact;
//! - a server hands the phase to its scheduler, whose pool workers loop
//!   [`PhaseState::begin_unit`] / [`PhaseState::run_unit`], claiming units
//!   of *different queries'* phases (stealing across shards) onto their
//!   **long-lived machines**. The machine (and its L1i) persists across
//!   queries, so a unit of query B executed right after a unit of query A
//!   on the same worker misses on the lines A's code evicted — counted per
//!   query in [`bufferdb_cachesim::PerfCounters::l1i_cross_misses`] via the
//!   cache's evictor tags.
//!
//! A unit swaps the running worker's machine into the lane's context for
//! the duration of one morsel, and writes the morsel's rows straight into
//! its bucket: no channel, no per-tuple hand-off between threads.
//!
//! Claim path discipline (this is a profiled hot path): one short lane-pool
//! lock, one atomic `fetch_add` per shard probed, no per-morsel allocation —
//! buckets and lanes are all preallocated at phase construction.

use crate::context::ExecContext;
use crate::exec::exchange::PhaseRequest;
use crate::exec::Operator;
use crate::fault;
use crate::obs::hist;
use crate::obs::trace::{TraceEvent, Tracer};
use crate::obs::{QueryProfile, QueryProfiler};
use bufferdb_cachesim::{Machine, PerfCounters};
use bufferdb_types::{DbError, Result, Tuple};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Modeled instructions a lane spends handing one tuple to the gather
/// (outside any operator bracket: this is the lane residual charged to the
/// exchange operator).
const QUEUE_PUSH_INSTR: u64 = 12;

/// Lock, recovering from poison: a panicked unit must never cascade a
/// poisoned-lock panic through unrelated queries on the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What one lane brings home from the parallel phase.
pub(crate) struct WorkerOutcome {
    pub(crate) worker: u64,
    /// The lane's subtree, handed back for reuse — `None` when the lane
    /// panicked (the tree's internal state is indeterminate after unwind).
    pub(crate) tree: Option<Box<dyn Operator>>,
    pub(crate) counters: PerfCounters,
    pub(crate) profile: Option<QueryProfile>,
    /// The lane's flight-recorder track; unlike the profile it survives
    /// panics (the ring holds exactly the events leading up to the failure).
    pub(crate) trace: Option<Tracer>,
    pub(crate) morsels: u64,
    pub(crate) rows: u64,
    pub(crate) error: Option<DbError>,
}

/// A collected phase: per-morsel output buckets (bucket `i` holds morsel
/// `i`'s rows) plus one outcome per lane, in lane order.
pub(crate) struct PhaseOutcome {
    pub(crate) buckets: Vec<Vec<Tuple>>,
    pub(crate) outcomes: Vec<WorkerOutcome>,
}

/// One exchange lane: a private subtree copy plus the execution state that
/// persists across the morsels this lane runs (arena, profiler, trace ring).
/// The machine inside `ctx` is a cold placeholder — every unit swaps the
/// claiming worker's live machine in for the duration of the morsel.
pub(crate) struct Lane {
    lane_id: u64,
    tree: Box<dyn Operator>,
    ctx: ExecContext,
    /// Sum of this lane's per-unit machine deltas (its share of the query
    /// total).
    total: PerfCounters,
    morsels: u64,
    rows: u64,
    panicked: bool,
}

/// One exchange phase, claimable unit by unit.
pub(crate) struct PhaseState {
    /// Owning query's tag, stamped on the machine for cross-query miss
    /// attribution before every unit; 0 (untagged) for a solo query.
    tag: u32,
    morsels: Vec<(u32, u32)>,
    /// Striped run-queue: shard `s` owns morsel indices `s`, `s + W`,
    /// `s + 2W`, … where `W` is the shard count; claiming is one
    /// `fetch_add` per shard probed, lock-free under the lane lock.
    shards: Vec<AtomicU64>,
    lanes: Mutex<Vec<Lane>>,
    buckets: Mutex<Vec<Vec<Tuple>>>,
    completed: AtomicU32,
    /// Every morsel has been claimed.
    drained: AtomicBool,
    /// First failure stops the phase; later claims drain without running.
    stop: AtomicBool,
    error: Mutex<Option<DbError>>,
    /// Units claimed from a shard other than the claimant's preferred one.
    steals: AtomicU64,
    /// Virtual-time bookkeeping (ns); unused (zero) off the virtual server.
    pub(crate) start_v: AtomicU64,
    pub(crate) max_end_v: AtomicU64,
}

impl PhaseState {
    /// Build the phase from an exchange's request, cloning per-lane
    /// contexts off the coordinating one (same machine config, shared
    /// cancel token and fault registry, per-lane profiler and trace ring).
    pub(crate) fn new(req: PhaseRequest, tag: u32, ctx: &ExecContext) -> Self {
        let cfg = ctx.machine.config().clone();
        let lanes: Vec<Lane> = req
            .trees
            .into_iter()
            .enumerate()
            .map(|(i, tree)| {
                let mut lctx = ExecContext::for_worker(cfg.clone(), &ctx.cancel, &ctx.faults);
                if !req.labels.is_empty() {
                    lctx.profiler = Some(QueryProfiler::new(&req.labels));
                }
                lctx.tracer = ctx
                    .tracer
                    .as_ref()
                    .map(|t| t.for_worker(format!("worker-{i}")));
                Lane {
                    lane_id: i as u64,
                    tree,
                    ctx: lctx,
                    total: PerfCounters::default(),
                    morsels: 0,
                    rows: 0,
                    panicked: false,
                }
            })
            .collect();
        let n_shards = lanes.len().max(1);
        let n_morsels = req.morsels.len();
        PhaseState {
            tag,
            morsels: req.morsels,
            shards: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            lanes: Mutex::new(lanes),
            buckets: Mutex::new((0..n_morsels).map(|_| Vec::new()).collect()),
            completed: AtomicU32::new(0),
            drained: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            steals: AtomicU64::new(0),
            start_v: AtomicU64::new(0),
            max_end_v: AtomicU64::new(0),
        }
    }

    /// All morsels ran (or drained): the phase may be collected.
    pub(crate) fn done(&self) -> bool {
        self.completed.load(Ordering::Acquire) as usize >= self.morsels.len()
    }

    /// Units claimed outside the claimant's preferred shard.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Claim the next morsel index: preferred shard first, then steal from
    /// siblings in ring order.
    fn claim(&self, preferred: usize) -> Option<usize> {
        let n = self.shards.len();
        for off in 0..n {
            let s = (preferred + off) % n;
            let c = self.shards[s].fetch_add(1, Ordering::Relaxed) as usize;
            let idx = s + c * n;
            if idx < self.morsels.len() {
                if off != 0 {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(idx);
            }
        }
        None
    }

    /// Check out a lane *and* claim a morsel for it (a server worker's
    /// step), atomically with respect to phase completion: here a lane only
    /// ever leaves the pool together with a claimed morsel, so once every
    /// morsel is accounted (`done`), all lanes are guaranteed back in the
    /// pool and `collect` cannot lose one.
    pub(crate) fn begin_unit(&self, preferred: usize) -> Option<(Lane, usize)> {
        if self.drained.load(Ordering::Relaxed) {
            return None;
        }
        let mut lanes = lock(&self.lanes);
        if lanes.is_empty() {
            return None;
        }
        let Some(idx) = self.claim(preferred) else {
            // Every shard is past its last morsel, and shard counters only
            // grow: later probes (a server walks every open phase under its
            // scheduler lock) can return at once.
            self.drained.store(true, Ordering::Relaxed);
            return None;
        };
        let lane = lanes.pop()?;
        Some((lane, idx))
    }

    /// Record a failure and stop the phase; later units drain unrun.
    fn fail(&self, e: DbError) {
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::Release);
    }

    /// Run one claimed unit on `machine` (the claiming worker's core,
    /// swapped into the lane for the duration) and hand the lane back.
    /// Returns the unit's simulated cycle cost (for virtual-time callers;
    /// everyone else ignores it).
    pub(crate) fn run_unit(&self, mut lane: Lane, idx: usize, machine: &mut Machine) -> u64 {
        let cycles = self.run_morsel(&mut lane, idx, machine);
        // Lane return *precedes* the completion count, so `done` implies
        // every lane is home.
        lock(&self.lanes).push(lane);
        self.completed.fetch_add(1, Ordering::Release);
        cycles
    }

    /// Run lane `w`'s stripe — morsels `w`, `w + W`, `w + 2W`, … — start to
    /// finish on `machine`, the one core this lane gets on the solo path.
    /// Nothing is claimed, so a solo run places every morsel the same way.
    pub(crate) fn run_stripe(&self, w: usize, machine: &mut Machine) {
        let taken = {
            let mut lanes = lock(&self.lanes);
            let at = lanes.iter().position(|l| l.lane_id == w as u64);
            at.map(|at| lanes.swap_remove(at))
        };
        let Some(mut lane) = taken else {
            // One thread per lane: a missing lane is a bug, never a skip.
            let e = format!("exchange lane {w} taken twice");
            return self.fail(DbError::WorkerFailed(e));
        };
        for idx in (w..self.morsels.len()).step_by(self.shards.len()) {
            self.run_morsel(&mut lane, idx, machine);
        }
        lock(&self.lanes).push(lane);
    }

    fn run_morsel(&self, lane: &mut Lane, idx: usize, machine: &mut Machine) -> u64 {
        // Drained after a stop: account the morsel without running it.
        if self.stop.load(Ordering::Acquire) {
            return 0;
        }
        let range = self.morsels[idx];
        std::mem::swap(machine, &mut lane.ctx.machine);
        if self.tag != 0 {
            lane.ctx.machine.set_query_tag(self.tag);
        }
        let base = lane.ctx.machine.snapshot();
        if let Some(p) = lane.ctx.profiler.as_mut() {
            // Drop whatever deltas accrued on this core since the lane's
            // previous unit: only this unit's work is charged here.
            p.resync(base);
        }
        let t0 = lane.ctx.trace_now();
        lane.ctx.trace(TraceEvent::MorselClaim {
            morsel: idx as u32,
            lo: range.0,
            hi: range.1,
        });
        lane.morsels += 1;
        let mut out: Vec<Tuple> = Vec::new();
        let caught = {
            let (lane, out) = (&mut *lane, &mut out);
            catch_unwind(AssertUnwindSafe(move || -> Result<()> {
                let (tree, ctx) = (&mut lane.tree, &mut lane.ctx);
                ctx.check_cancel()?;
                ctx.fault(fault::EXCHANGE_MORSEL)?;
                ctx.morsel = Some(range);
                tree.open(ctx)?;
                while let Some(slot) = tree.next(ctx)? {
                    out.push(ctx.arena.tuple(slot).clone());
                    ctx.machine.add_instructions(QUEUE_PUSH_INSTR);
                }
                if !out.is_empty() {
                    ctx.trace(TraceEvent::GatherEnqueue {
                        morsel: idx as u32,
                        rows: out.len() as u64,
                    });
                }
                tree.close(ctx)
            }))
        };
        lane.rows += out.len() as u64;
        match caught {
            Ok(Ok(())) => {
                lane.ctx.trace(TraceEvent::MorselComplete {
                    morsel: idx as u32,
                    rows: out.len() as u64,
                    start_ns: t0,
                });
                if lane.ctx.trace_enabled() {
                    let dt = lane.ctx.trace_now().saturating_sub(t0);
                    lane.ctx.trace_metric(hist::MORSEL_SERVICE_NS, dt);
                }
            }
            Ok(Err(e)) => {
                lane.ctx
                    .trace(TraceEvent::MorselAbort { morsel: idx as u32 });
                self.fail(e);
            }
            Err(payload) => {
                lane.panicked = true;
                lane.ctx
                    .trace(TraceEvent::MorselAbort { morsel: idx as u32 });
                lane.ctx.trace(TraceEvent::WorkerPanic);
                self.fail(DbError::WorkerFailed(format!(
                    "exchange lane {} panicked: {}",
                    lane.lane_id,
                    fault::panic_message(&*payload)
                )));
            }
        }
        let delta = lane.ctx.machine.snapshot() - base;
        lane.total = lane.total + delta;
        std::mem::swap(machine, &mut lane.ctx.machine);
        let cycles = machine.cycles_for(&delta);
        if !out.is_empty() {
            lock(&self.buckets)[idx] = out;
        }
        cycles
    }

    /// Raise the latest-unit-end virtual clock (virtual-time mode only).
    pub(crate) fn note_end_v(&self, v: u64) {
        self.max_end_v.fetch_max(v, Ordering::Relaxed);
    }

    /// Tear the completed phase down into the exchange's merge shape. Must
    /// only be called once all lanes are back in the pool: once `done()`
    /// holds on a server, once the stripe threads joined solo.
    pub(crate) fn collect(&self) -> PhaseOutcome {
        let lanes = std::mem::take(&mut *lock(&self.lanes));
        let buckets = std::mem::take(&mut *lock(&self.buckets));
        let mut outcomes: Vec<WorkerOutcome> = lanes
            .into_iter()
            .map(|mut lane| {
                let counters = lane.total;
                // A panicked lane's profiler brackets are unbalanced; only
                // its lane counters survive (conservation holds — they are
                // charged to the exchange's gather residual).
                let profile = if lane.panicked {
                    None
                } else {
                    lane.ctx.profiler.take().map(|p| p.seal(counters))
                };
                WorkerOutcome {
                    worker: lane.lane_id,
                    tree: (!lane.panicked).then_some(lane.tree),
                    counters,
                    profile,
                    trace: lane.ctx.tracer.take(),
                    morsels: lane.morsels,
                    rows: lane.rows,
                    error: None,
                }
            })
            .collect();
        // The lane pool is LIFO; restore id order so merging (and trace
        // track order) is deterministic.
        outcomes.sort_by_key(|o| o.worker);
        if let Some(e) = lock(&self.error).take() {
            if let Some(first) = outcomes.first_mut() {
                first.error = Some(e);
            }
        }
        PhaseOutcome { buckets, outcomes }
    }
}
