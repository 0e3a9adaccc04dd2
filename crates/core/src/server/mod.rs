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
//! morsels — but instead of spawning per-query scoped threads, the exchange
//! hands the phase to the server scheduler
//! (`ExchangeDelegate`). Morsels land in per-lane
//! shards and any pool worker may claim or steal them, interleaving units
//! of *different queries* on one core. Misses a query takes on cache lines
//! evicted by another query's code are attributed to the victim query's
//! [`bufferdb_cachesim::PerfCounters::l1i_cross_misses`].
//!
//! Counter conservation is exact: a query's total equals its coordinator's
//! own machine deltas (tracked between phase boundaries) plus every lane's
//! per-unit deltas, and the per-operator profile sums to that total — the
//! same invariant the scoped-thread path keeps, asserted in
//! `tests/server.rs`.
//!
//! Two frontends share this machinery:
//! - [`Server`]: real OS threads, for concurrent-session workloads;
//! - [`virt::VirtualServer`]: a single-threaded deterministic twin driven
//!   by simulated time, for reproducible interference experiments
//!   (`repro server`) and the traffic driver's queueing model.

pub mod virt;

mod phase;

use crate::cancel::CancelToken;
use crate::context::ExecContext;
use crate::exec::exchange::{ExchangeDelegate, PhaseOutcome, PhaseRequest};
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
use phase::PhaseState;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// [`virt::VirtualServer`], wall nanoseconds (via the internal clock) on
/// the threaded [`Server`]. Recording is a ring store — no simulated code
/// executes, so an observed server retires exactly the same modeled
/// instructions as an unobserved one.
pub struct ServerRecorder {
    clock: TraceClock,
    queries: TraceRing,
    core: TraceRing,
}

impl ServerRecorder {
    /// A recorder with default-capacity rings, clock origin now.
    pub fn new() -> Self {
        ServerRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder with explicit per-ring capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ServerRecorder {
            clock: TraceClock::new(),
            queries: TraceRing::with_capacity(cap),
            core: TraceRing::with_capacity(cap),
        }
    }

    /// Wall nanoseconds since the recorder was created (the threaded
    /// server's time base; the virtual server uses its own clock).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
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

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    units: AtomicU64,
    steals: AtomicU64,
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

    /// Reopen coordinator accounting at `now` (end of a phase: whatever the
    /// machine did in between belongs to lanes, not the coordinator).
    pub(crate) fn resume(&mut self, now: PerfCounters) {
        self.unit_base = now;
    }

    pub(crate) fn add_lanes(&mut self, sum: PerfCounters) {
        self.lanes_total = self.lanes_total + sum;
    }

    /// Final segment + assembled query total.
    pub(crate) fn seal(&mut self, now: PerfCounters) -> PerfCounters {
        self.pause(now);
        self.total()
    }

    /// Assembled total so far (coordinator segments + lane deltas).
    pub(crate) fn total(&self) -> PerfCounters {
        self.drive_total + self.lanes_total
    }
}

/// An admitted-or-waiting query on the threaded server.
struct Job {
    /// Submission id (monotonic per server), echoed in recorder spans.
    id: u64,
    /// Wall timestamp at submit on the recorder's clock (0 when the
    /// recorder is off).
    arrival_ns: u64,
    spec: DriveSpec,
    reply: mpsc::Sender<QueryOutcome>,
}

struct SchedState {
    waiting: VecDeque<Job>,
    active: usize,
    /// Open phases, claimable by any pool worker.
    phases: Vec<Arc<PhaseState>>,
    tags: OwnerTags,
}

/// Owner tags of the queries submitted and not yet finished.
///
/// Issuing wraps past 0 — the simulator's "untagged" sentinel, under which
/// a query's cross-query misses would be attributed to no one — and skips
/// every tag a live query still holds, so after 2³² submissions a
/// long-running query never shares its tag (the virtual server's
/// `alloc_tag` rule). The skip terminates: at most `slots + waiting` tags
/// are live at once.
struct OwnerTags {
    next: u32,
    live: HashSet<u32>,
}

impl OwnerTags {
    fn new() -> Self {
        OwnerTags {
            next: 1,
            live: HashSet::new(),
        }
    }

    fn issue(&mut self) -> u32 {
        loop {
            let tag = self.next;
            self.next = self.next.wrapping_add(1);
            if tag != 0 && self.live.insert(tag) {
                return tag;
            }
        }
    }

    fn retire(&mut self, tag: u32) {
        self.live.remove(&tag);
    }
}

struct Shared {
    cfg: ServerConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    shutdown: AtomicBool,
    stats: StatCells,
    /// Server-scoped flight recorder; `None` until enabled.
    recorder: Mutex<Option<ServerRecorder>>,
}

impl Shared {
    /// Wake everyone; taken after any state change a parked worker might be
    /// waiting on. The lock round-trip prevents missed wakeups.
    fn notify(&self) {
        drop(lock(&self.state));
        self.cv.notify_all();
    }
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
            state: Mutex::new(SchedState {
                waiting: VecDeque::new(),
                active: 0,
                phases: Vec::new(),
                tags: OwnerTags::new(),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
            recorder: Mutex::new(None),
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
        let mut rec = lock(&self.shared.recorder);
        if rec.is_none() {
            *rec = Some(ServerRecorder::new());
        }
    }

    /// Seal and take the server flight recorder's report, switching
    /// recording off. `None` when it was never enabled.
    pub fn finish_recorder(&self) -> Option<TraceReport> {
        lock(&self.shared.recorder)
            .take()
            .map(ServerRecorder::finish)
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            units: s.units.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
        }
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
        let mut spec = DriveSpec::for_server(plan, catalog, &self.master, opts)?;
        let tag = lock(&self.shared.state).tags.issue();
        spec.tag = tag;
        let cancel = spec.cancel.clone();
        let (tx, rx) = mpsc::channel();
        let id = self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let arrival_ns = lock(&self.shared.recorder)
            .as_ref()
            .map_or(0, ServerRecorder::now_ns);
        let job = Job {
            id,
            arrival_ns,
            spec,
            reply: tx,
        };
        lock(&self.shared.state).waiting.push_back(job);
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
        self.shared.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claim one unit from any open phase (own shard first within each phase).
fn find_unit(shared: &Shared, w: usize) -> Option<(Arc<PhaseState>, phase::Lane, usize)> {
    let phases: Vec<Arc<PhaseState>> = lock(&shared.state).phases.clone();
    let n = phases.len();
    if n == 0 {
        return None;
    }
    for off in 0..n {
        let p = &phases[(w + off) % n];
        if let Some((lane, idx)) = p.begin_unit(w) {
            return Some((Arc::clone(p), lane, idx));
        }
    }
    None
}

fn worker_loop(w: usize, shared: &Arc<Shared>) {
    let mut machine = Machine::new(shared.cfg.machine.clone());
    loop {
        // 1. Morsels of running queries take priority over admission:
        //    finish what is in flight before widening the working set.
        if let Some((phase, lane, idx)) = find_unit(shared, w) {
            phase.run_unit(lane, idx, &mut machine);
            shared.stats.units.fetch_add(1, Ordering::Relaxed);
            shared.notify();
            continue;
        }
        // 2. Admit the next waiting query if a slot is open.
        let admitted = {
            let mut st = lock(&shared.state);
            let job = if st.active < shared.cfg.admission_slots {
                st.waiting.pop_front()
            } else {
                None
            };
            if job.is_some() {
                st.active += 1;
            }
            job
        };
        if let Some(job) = admitted {
            let tag = job.spec.tag;
            let delegate = Box::new(ServerDelegate {
                shared: Arc::clone(shared),
                acct: DriveAccounting::default(),
                tag: job.spec.tag,
                hint: w,
            });
            // Wait span: arrival (at submit) → first run (now).
            let run_start_ns = {
                let mut rec = lock(&shared.recorder);
                rec.as_mut().map(|r| {
                    let now = r.now_ns();
                    r.record_query(
                        now,
                        TraceEvent::QueryWait {
                            query: job.id,
                            start_ns: job.arrival_ns.min(now),
                        },
                    );
                    now
                })
            };
            let out = run_drive(
                job.spec,
                Some((&mut machine, delegate)),
                &shared.cfg.machine,
            );
            if let Some(start_ns) = run_start_ns {
                let mut rec = lock(&shared.recorder);
                if let Some(r) = rec.as_mut() {
                    let now = r.now_ns();
                    r.record_query(
                        now,
                        TraceEvent::QueryRun {
                            query: job.id,
                            rows: out.rows().len() as u64,
                            ok: out.is_ok(),
                            start_ns,
                        },
                    );
                }
            }
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            if !out.is_ok() {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            // A dropped ticket just discards the outcome.
            let _ = job.reply.send(out);
            {
                let mut st = lock(&shared.state);
                st.active -= 1;
                st.tags.retire(tag);
            }
            shared.cv.notify_all();
            continue;
        }
        // 3. Park until something changes.
        let st = lock(&shared.state);
        if shared.shutdown.load(Ordering::Acquire) && st.waiting.is_empty() && st.phases.is_empty()
        {
            break;
        }
        let has_work = !st.phases.is_empty()
            || (!st.waiting.is_empty() && st.active < shared.cfg.admission_slots);
        if !has_work {
            // Timed, as a belt against lost notifications.
            let _ = shared.cv.wait_timeout(st, Duration::from_millis(5));
        }
    }
}

/// The threaded server's phase scheduler: registers the phase for the pool,
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
        {
            lock(&self.shared.state).phases.push(Arc::clone(&phase));
        }
        self.shared.cv.notify_all();
        while !phase.done() {
            if let Some((lane, idx)) = phase.begin_unit(self.hint) {
                phase.run_unit(lane, idx, &mut ctx.machine);
                self.shared.stats.units.fetch_add(1, Ordering::Relaxed);
                self.shared.notify();
            } else {
                // Units in flight on other workers: wait for completions.
                let st = lock(&self.shared.state);
                if !phase.done() {
                    let _ = self.shared.cv.wait_timeout(st, Duration::from_millis(2));
                }
            }
        }
        {
            let mut st = lock(&self.shared.state);
            st.phases.retain(|p| !Arc::ptr_eq(p, &phase));
        }
        self.shared
            .stats
            .steals
            .fetch_add(phase.steals(), Ordering::Relaxed);
        let out = phase.collect();
        let lane_sum = out
            .outcomes
            .iter()
            .fold(PerfCounters::default(), |acc, o| acc + o.counters);
        self.acct.add_lanes(lane_sum);
        self.acct.resume(ctx.machine.snapshot());
        out
    }

    fn seal_drive(&mut self, now: PerfCounters) -> PerfCounters {
        self.acct.seal(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_tags_wrap_past_the_untagged_sentinel() {
        let mut tags = OwnerTags::new();
        tags.next = u32::MAX - 1;
        let issued: Vec<u32> = (0..4)
            .map(|_| {
                let t = tags.issue();
                tags.retire(t);
                t
            })
            .collect();
        assert_eq!(issued, [u32::MAX - 1, u32::MAX, 1, 2]);
    }

    #[test]
    fn owner_tags_skip_live_tags_across_wraparound() {
        let mut tags = OwnerTags::new();
        // A long-lived query holds tag 5; the counter is about to wrap.
        tags.live.insert(5);
        tags.next = u32::MAX - 1;
        let issued: Vec<u32> = (0..8).map(|_| tags.issue()).collect();
        assert_eq!(
            issued,
            vec![u32::MAX - 1, u32::MAX, 1, 2, 3, 4, 6, 7],
            "issuing must wrap past the sentinel 0 and skip the live tag 5"
        );
        // Retired tags come back on the next lap; live ones still do not.
        tags.retire(2);
        tags.next = 1;
        assert_eq!(tags.issue(), 2);
        assert_eq!(tags.issue(), 8);
    }
}
