//! Multi-query server: many concurrent sessions over one shared
//! work-stealing morsel scheduler and a **fixed pool of simulated cores**.
//!
//! The paper models a single query's instruction-cache behaviour; a real
//! database runs many queries at once, and their code footprints fight over
//! the same L1i. This module makes that fight observable. A [`Server`] owns
//! `workers` long-lived [`bufferdb_cachesim::Machine`]s — one per pool
//! worker, created once and reused for every query the server ever runs —
//! so L1i/ITLB/branch state carries across query switches exactly as it
//! does on a real core. Admission is bounded: at most `admission_slots`
//! queries drive concurrently, the rest wait FIFO.
//!
//! A submitted query is decomposed the same way the standalone executor
//! decomposes it — the exchange operator splits its driving scan into
//! morsels and builds the same phase (`exec/phase.rs`) — but instead of
//! running it on per-query scoped threads, the exchange hands the phase to
//! the server (`ExchangeDelegate`). Morsels land in per-lane shards and any
//! pool worker may claim or steal them, interleaving units of *different
//! queries* on one core. Misses a query takes on cache lines
//! evicted by another query's code are attributed to the victim query's
//! [`bufferdb_cachesim::PerfCounters::l1i_cross_misses`].
//!
//! Counter conservation is exact: a query's total equals its coordinator's
//! own machine deltas (tracked between phase boundaries) plus every lane's
//! per-unit deltas, and the per-operator profile sums to that total — the
//! same invariant the scoped-thread path keeps, asserted in
//! `tests/server.rs`.
//!
//! Two drivers share one scheduler (`sched.rs`: admission, open phases,
//! owner tags, completion accounting, query spans):
//! - [`Server`]: real OS threads over the scheduler behind a mutex, timed
//!   in wall nanoseconds, for concurrent-session workloads;
//! - [`virt::VirtualServer`]: a deterministic twin driven by simulated
//!   time, for reproducible interference experiments (`repro server`) and
//!   the traffic driver's queueing model.

pub mod virt;

mod sched;

use crate::cancel::CancelToken;
use crate::context::ExecContext;
use crate::exec::exchange::{ExchangeDelegate, PhaseRequest};
use crate::exec::phase::{PhaseOutcome, PhaseState};
use crate::exec::{run_drive, DriveSpec, QueryOutcome};
use crate::footprint::FootprintModel;
use crate::obs::trace::{
    TimedEvent, TraceClock, TraceEvent, TraceReport, TraceRing, TraceTrack, DEFAULT_RING_CAPACITY,
};
use crate::plan::PlanNode;
use crate::session::QueryOpts;
use bufferdb_cachesim::{CodeLayout, Machine, MachineConfig, PerfCounters};
use bufferdb_storage::Catalog;
use bufferdb_types::{DbError, Result};
use sched::Sched;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock, recovering from poison (a failed query must not wedge the pool).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Server sizing and the simulated hardware its pool runs on.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool workers; each owns one long-lived simulated machine.
    pub workers: usize,
    /// Queries allowed to drive concurrently; the rest queue FIFO.
    pub admission_slots: usize,
    /// Hardware model for every pool machine.
    pub machine: MachineConfig,
}

impl ServerConfig {
    /// `workers` pool cores, `slots` admission slots, on `machine`.
    pub fn new(workers: usize, slots: usize, machine: MachineConfig) -> Self {
        ServerConfig {
            workers: workers.max(1),
            admission_slots: slots.max(1),
            machine,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new(4, 4, MachineConfig::pentium4_like())
    }
}

/// Aggregate scheduler counters, snapshotted via [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries accepted by `submit`.
    pub submitted: u64,
    /// Queries whose drives finished (clean or failed).
    pub completed: u64,
    /// Queries that finished with an error.
    pub failed: u64,
    /// Morsel units executed across all phases.
    pub units: u64,
    /// Units claimed from a shard other than the claimant's preferred one.
    pub steals: u64,
}

/// The always-on server flight recorder: two continuous rings spanning the
/// whole server run — one for query lifecycle spans
/// ([`TraceEvent::QueryWait`] / [`TraceEvent::QueryRun`]), one for
/// session-core activity ([`TraceEvent::CoreTurn`] on the virtual server).
/// Unlike the per-query [`crate::obs::trace::Tracer`], these rings outlive individual queries,
/// so cross-query effects (a burst of admissions, one query's turns
/// displacing another's cache state) land on one shared timeline.
///
/// The owning server stamps every event itself: virtual nanoseconds on
/// [`virt::VirtualServer`], wall nanoseconds since the server started on
/// the threaded [`Server`]. Recording is a ring store — no simulated code
/// executes, so an observed server retires exactly the same modeled
/// instructions as an unobserved one.
pub struct ServerRecorder {
    queries: TraceRing,
    core: TraceRing,
}

impl ServerRecorder {
    /// A recorder with default-capacity rings.
    pub fn new() -> Self {
        ServerRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder with explicit per-ring capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ServerRecorder {
            queries: TraceRing::with_capacity(cap),
            core: TraceRing::with_capacity(cap),
        }
    }

    /// Record a query-lifecycle event at an explicit timestamp.
    pub fn record_query(&mut self, ts_ns: u64, event: TraceEvent) {
        self.queries.push(TimedEvent { ts_ns, event });
    }

    /// Record a session-core event at an explicit timestamp.
    pub fn record_core(&mut self, ts_ns: u64, event: TraceEvent) {
        self.core.push(TimedEvent { ts_ns, event });
    }

    /// Seal into a [`TraceReport`]: `server.queries` and `server.core`
    /// tracks on one shared timeline, renderable with
    /// [`TraceReport::perfetto_json`] or [`TraceReport::summary`].
    pub fn finish(self) -> TraceReport {
        TraceReport::from_tracks(vec![
            TraceTrack::from_ring("server.queries".into(), self.queries),
            TraceTrack::from_ring("server.core".into(), self.core),
        ])
    }
}

impl Default for ServerRecorder {
    fn default() -> Self {
        ServerRecorder::new()
    }
}

/// One query submission, builder style — the single entry point for both
/// servers ([`Server::submit`] and [`virt::VirtualServer::submit`]).
///
/// Everything per-query rides on the unified [`QueryOpts`]: profiling,
/// tracing, timeout, a caller-held cancel token, a per-query fault
/// registry, and the subplan-reuse policy. The arrival time matters only to
/// the virtual server's simulated clock (the threaded server admits
/// immediately) and defaults to 0.
///
/// ```ignore
/// let id = vs.submit(SubmitSpec::new(&plan, &catalog).at(500).opts(
///     QueryOpts::new().profile(true).cancel(token),
/// ))?;
/// ```
pub struct SubmitSpec<'a> {
    plan: &'a PlanNode,
    catalog: &'a Catalog,
    arrival_ns: u64,
    opts: QueryOpts,
}

impl<'a> SubmitSpec<'a> {
    /// A submission of `plan` against `catalog` with default options,
    /// arriving at virtual time 0.
    pub fn new(plan: &'a PlanNode, catalog: &'a Catalog) -> Self {
        SubmitSpec {
            plan,
            catalog,
            arrival_ns: 0,
            opts: QueryOpts::new(),
        }
    }

    /// Set the simulated arrival time in nanoseconds (virtual server only;
    /// the threaded server ignores it).
    pub fn at(mut self, arrival_ns: u64) -> Self {
        self.arrival_ns = arrival_ns;
        self
    }

    /// Replace the per-query options.
    pub fn opts(mut self, opts: QueryOpts) -> Self {
        self.opts = opts;
        self
    }

    /// The plan to execute.
    pub fn plan(&self) -> &'a PlanNode {
        self.plan
    }

    /// The catalog the plan runs against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The simulated arrival time (nanoseconds).
    pub fn arrival_ns(&self) -> u64 {
        self.arrival_ns
    }

    /// The per-query options.
    pub fn query_opts(&self) -> &QueryOpts {
        &self.opts
    }
}

/// Coordinator-side counter assembly shared by both delegate impls: the
/// query total is (machine deltas outside phases) + (sum of lane deltas),
/// because lanes run on other cores — or on this core, excluded here and
/// charged to their own query.
#[derive(Default)]
pub(crate) struct DriveAccounting {
    unit_base: PerfCounters,
    drive_total: PerfCounters,
    lanes_total: PerfCounters,
}

impl DriveAccounting {
    pub(crate) fn begin(&mut self, base: PerfCounters) {
        self.unit_base = base;
    }

    /// Close the coordinator segment ending at `now`; returns its delta.
    pub(crate) fn pause(&mut self, now: PerfCounters) -> PerfCounters {
        let d = now - self.unit_base;
        self.drive_total = self.drive_total + d;
        self.unit_base = now;
        d
    }

    /// Reopen coordinator accounting at `now` (after a pause for a quantum
    /// or a phase: whatever the machine did in between belongs to other
    /// residents or to lanes, not the coordinator).
    pub(crate) fn resume(&mut self, now: PerfCounters) {
        self.unit_base = now;
    }

    /// A collected phase: credit its lanes and resume at `now`.
    pub(crate) fn end_phase(&mut self, out: &PhaseOutcome, now: PerfCounters) {
        for o in &out.outcomes {
            self.lanes_total = self.lanes_total + o.counters;
        }
        self.resume(now);
    }

    /// Final segment + assembled query total (coordinator segments + lane
    /// deltas).
    pub(crate) fn seal(&mut self, now: PerfCounters) -> PerfCounters {
        self.pause(now);
        self.drive_total + self.lanes_total
    }
}

struct Shared {
    cfg: ServerConfig,
    /// The scheduler; each job's reply channel rides in its queue entry.
    state: Mutex<Sched<mpsc::Sender<QueryOutcome>>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Wall clock every span and arrival is stamped on.
    clock: TraceClock,
}

/// Handle to one submitted query: await its outcome, or cancel it.
pub struct QueryTicket {
    rx: mpsc::Receiver<QueryOutcome>,
    cancel: CancelToken,
    tag: u32,
    cfg: MachineConfig,
}

impl QueryTicket {
    /// The query's server-assigned tag (its owner id in cross-query miss
    /// attribution).
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Request cooperative cancellation of the in-flight query.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the query finishes. If the server died under the query
    /// (unreachable in normal operation), a synthesized failure outcome is
    /// returned rather than panicking.
    pub fn wait(self) -> QueryOutcome {
        match self.rx.recv() {
            Ok(out) => out,
            Err(_) => QueryOutcome::failed(
                &self.cfg,
                DbError::WorkerFailed("server shut down before the query completed".into()),
            ),
        }
    }
}

/// The threaded multi-query server. See the module docs for the model.
pub struct Server {
    shared: Arc<Shared>,
    /// Pre-linked master code layout; every submitted query's footprint
    /// model is a clone, so all queries share one simulated text section.
    master: CodeLayout,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spin up the fixed worker pool. Workers (and their simulated
    /// machines) live until the server is dropped.
    pub fn new(cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            state: Mutex::new(Sched::new(cfg.admission_slots)),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            clock: TraceClock::new(),
        });
        let handles = (0..cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(w, &shared))
            })
            .collect();
        Server {
            shared,
            master: FootprintModel::prelinked(),
            handles,
        }
    }

    /// Switch on the always-on flight recorder. Spans for queries already
    /// in flight are not back-filled — enable before submitting for a
    /// complete timeline. Idempotent (re-enabling keeps the current rings).
    pub fn enable_flight_recorder(&self) {
        lock(&self.shared.state)
            .recorder
            .get_or_insert_with(ServerRecorder::new);
    }

    /// Seal and take the server flight recorder's report, switching
    /// recording off. `None` when it was never enabled.
    pub fn finish_recorder(&self) -> Option<TraceReport> {
        lock(&self.shared.state)
            .recorder
            .take()
            .map(ServerRecorder::finish)
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> ServerStats {
        lock(&self.shared.state).stats
    }

    /// Submit a query for execution. The operator tree is built on the
    /// calling thread (pool workers never touch the catalog); execution
    /// starts when an admission slot and a worker free up. Arrival time on
    /// the spec is ignored — the threaded server has no simulated clock.
    ///
    /// Per-query cancel tokens, timeouts, and fault registries all ride on
    /// the spec's [`QueryOpts`]; an explicit cancel token wins over a
    /// timeout-derived one, and an unset fault registry means no faults.
    pub fn submit(&self, spec: SubmitSpec<'_>) -> Result<QueryTicket> {
        let (plan, catalog, opts) = (spec.plan, spec.catalog, &spec.opts);
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(DbError::WorkerFailed("server is shut down".into()));
        }
        let spec = DriveSpec::for_server(plan, catalog, &self.master, opts)?;
        let cancel = spec.cancel.clone();
        let (tx, rx) = mpsc::channel();
        let arrival_ns = self.shared.clock.now_ns();
        let (_, tag) = lock(&self.shared.state).enqueue(spec, arrival_ns, tx);
        self.shared.cv.notify_all();
        Ok(QueryTicket {
            rx,
            cancel,
            tag,
            cfg: self.shared.cfg.machine.clone(),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // The lock round-trip orders the store before any parked worker's
        // re-check, so the wakeup cannot be missed.
        drop(lock(&self.shared.state));
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(w: usize, shared: &Arc<Shared>) {
    let mut machine = Machine::new(shared.cfg.machine.clone());
    loop {
        let mut st = lock(&shared.state);
        // 1. Morsels of running queries take priority over admission:
        //    finish what is in flight before widening the working set.
        if let Some((phase, lane, idx)) = st.claim(w) {
            drop(st);
            phase.run_unit(lane, idx, &mut machine);
            lock(&shared.state).unit_done();
            shared.cv.notify_all();
            continue;
        }
        // 2. Admit the next waiting query if a slot is open.
        if let Some(job) = st.admit(u64::MAX) {
            let start_ns = shared.clock.now_ns();
            st.started(job.id, job.arrival_ns, start_ns);
            drop(st);
            let tag = job.spec.tag;
            let delegate = Box::new(ServerDelegate {
                shared: Arc::clone(shared),
                acct: DriveAccounting::default(),
                tag,
                hint: w,
            });
            let out = run_drive(
                job.spec,
                Some((&mut machine, delegate)),
                &shared.cfg.machine,
            );
            let now = shared.clock.now_ns();
            lock(&shared.state).finished(job.id, tag, start_ns, now, &out);
            // A dropped ticket just discards the outcome.
            let _ = job.reply.send(out);
            shared.cv.notify_all();
            continue;
        }
        // 3. Nothing to claim or admit: park until a unit, phase,
        //    submission or completion notifies. Checked and parked under
        //    the one lock, so no notification is missed; timed as a belt.
        if shared.shutdown.load(Ordering::Acquire) && st.waiting.is_empty() && st.phases.is_empty()
        {
            break;
        }
        let _ = shared.cv.wait_timeout(st, Duration::from_millis(5));
    }
}

/// The threaded server's phase delegate: registers the phase for the pool,
/// then helps run **its own** phase's units (deadlock-free: it can always
/// drain its own phase; a unit never blocks) while parking between claims.
struct ServerDelegate {
    shared: Arc<Shared>,
    acct: DriveAccounting,
    tag: u32,
    /// Preferred shard: the admitting worker's index.
    hint: usize,
}

impl ExchangeDelegate for ServerDelegate {
    fn begin_drive(&mut self, base: PerfCounters) {
        self.acct.begin(base);
    }

    fn run_phase(&mut self, ctx: &mut ExecContext, req: PhaseRequest) -> PhaseOutcome {
        self.acct.pause(ctx.machine.snapshot());
        let phase = Arc::new(PhaseState::new(req, self.tag, ctx));
        lock(&self.shared.state).open_phase(Arc::clone(&phase));
        self.shared.cv.notify_all();
        while !phase.done() {
            if let Some((lane, idx)) = phase.begin_unit(self.hint) {
                phase.run_unit(lane, idx, &mut ctx.machine);
                lock(&self.shared.state).unit_done();
                self.shared.cv.notify_all();
            } else {
                // Units in flight on other workers: wait for completions.
                let st = lock(&self.shared.state);
                if !phase.done() {
                    let _ = self.shared.cv.wait_timeout(st, Duration::from_millis(2));
                }
            }
        }
        lock(&self.shared.state).close_phase(&phase);
        let out = phase.collect();
        self.acct.end_phase(&out, ctx.machine.snapshot());
        out
    }

    fn seal_drive(&mut self, now: PerfCounters) -> PerfCounters {
        self.acct.seal(now)
    }
}
