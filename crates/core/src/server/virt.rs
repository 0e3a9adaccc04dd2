//! Deterministic single-threaded-in-spirit twin of the threaded
//! [`super::Server`], driven by simulated time instead of OS scheduling.
//!
//! The machine model here is deliberately asymmetric, mirroring how a
//! database server actually loses its instruction cache:
//!
//! - **One session core** hosts every admitted query's *drive* — the
//!   coordinator side of the plan (aggregate consume loops, hash builds,
//!   sort fills, exchange merges). Resident drives time-share this single
//!   simulated machine cooperatively: each blocking loop calls
//!   [`crate::context::ExecContext::tuple_yield`] once per tuple, and when
//!   a drive's cycle quantum expires it parks and the next resident runs.
//!   Because the L1i is *one physical cache*, every switch layers the next
//!   query's code footprint over the previous one's; the misses a resumed
//!   query takes on lines another query evicted are charged to its
//!   [`bufferdb_cachesim::PerfCounters::l1i_cross_misses`]. This is the
//!   interference the `repro server` experiment sweeps — and the lever the
//!   buffered plans pull: a buffer refill runs as one uninterrupted burst
//!   (no yield inside the refill loop), and between refills only the
//!   current operator group's code re-warms per quantum, not the whole
//!   pipeline footprint.
//! - **A pool of `workers - 1` morsel cores** runs the parallel phases the
//!   exchanges hand over (`ExchangeDelegate`).
//!   Pool cores interleave units of *different queries'* phases, claimed
//!   by the same scheduler code as the threaded server's (`sched.rs`).
//!   With `workers = 1` the pool is empty and phase units run inline on
//!   the session core between drive turns — one configured core means one
//!   core of simulated compute.
//!
//! Drives need a real call stack to park mid-operator, so each admitted
//! query runs on an OS thread — but in strict lockstep: the scheduler
//! grants the session machine to exactly one drive at a time over a
//! channel and blocks until that drive yields it back (quantum expiry,
//! phase wait, or completion). At any instant at most one drive thread is
//! runnable, so the schedule — and every counter — is a pure function of
//! the submissions: bit-for-bit reproducible.
//!
//! Virtual time: the session core's clock advances by the machine-model
//! cycle cost of each grant-to-yield window; pool clocks advance per unit.
//! A drive blocked on a phase resumes no earlier than the phase's last
//! unit's end. Latency (`done_ns - arrival_ns`) therefore includes both
//! core queueing and phase execution.
//!
//! Wall-clock timeouts do not exist in virtual time; `QueryOpts::timeout`
//! is ignored here. Cancellation and fault injection work exactly as on
//! the threaded server (cancel before submission or arm a fault site).

use super::sched::{Job, Sched};
use super::{lock, DriveAccounting, ServerConfig, ServerRecorder, ServerStats, SubmitSpec};
use crate::cancel::CancelToken;
use crate::context::{CoreSlicer, ExecContext};
use crate::exec::exchange::{ExchangeDelegate, PhaseRequest};
use crate::exec::phase::{PhaseOutcome, PhaseState};
use crate::exec::{run_drive, DriveSpec, QueryOutcome};
use crate::fault::FaultRegistry;
use crate::footprint::FootprintModel;
use crate::obs::trace::{TraceEvent, TraceReport};
use crate::obs::QueryProfiler;
use bufferdb_cachesim::{CodeLayout, HeatSnapshot, Machine, MachineConfig, PerfCounters};
use bufferdb_storage::{Catalog, FnSysTable};
use bufferdb_types::{DataType, Datum, DbError, Field, Result, Schema, Tuple};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Default drive quantum on the session core, in simulated cycles. Small
/// enough that 4-8 residents genuinely interleave within one query's
/// lifetime; large enough that a quantum covers many tuples (the switch
/// itself is free in model time — only the cache displacement costs).
pub const DEFAULT_QUANTUM_CYCLES: u64 = 40_000;

/// Simulated cycles → nanoseconds on the model's clock.
fn to_ns(cycles: u64, clock_hz: u64) -> u64 {
    ((cycles as u128 * 1_000_000_000u128) / clock_hz.max(1) as u128) as u64
}

/// One finished query with its simulated queueing timeline.
#[derive(Debug)]
pub struct CompletedQuery {
    /// Submission id (monotonic per server).
    pub id: u64,
    /// The query's cross-query attribution tag.
    pub tag: u32,
    /// When the query arrived (as passed via [`SubmitSpec::at`]).
    pub arrival_ns: u64,
    /// When the session core first ran its drive.
    pub start_ns: u64,
    /// When the drive finished; `done_ns - arrival_ns` is the latency.
    pub done_ns: u64,
    /// The execution outcome (rows, stats, profile, error, trace).
    pub outcome: QueryOutcome,
}

/// Why a drive handed the session machine back.
enum DriveYield {
    /// Quantum expired; still runnable.
    Quantum,
    /// Blocked until this phase's morsels all complete on the pool.
    PhaseWait(Arc<PhaseState>),
    /// Drive finished; the thread exits after this send.
    Done(Box<QueryOutcome>),
}

/// A yielded turn: the session machine coming home plus the reason.
struct YieldMsg {
    slot: usize,
    machine: Machine,
    why: DriveYield,
}

/// Drive-side end of the turn protocol, shared by the slicer (quantum
/// yields) and the delegate (phase waits) of one resident query.
struct DriveGate {
    slot: usize,
    tag: u32,
    cfg: MachineConfig,
    turn_rx: Mutex<mpsc::Receiver<Machine>>,
    yield_tx: mpsc::Sender<YieldMsg>,
    /// Cold stand-in left in the context while the real machine is away.
    spare: Mutex<Option<Machine>>,
    acct: Mutex<DriveAccounting>,
    cancel: CancelToken,
}

impl DriveGate {
    /// Block for the first grant of the session machine. `None` means the
    /// scheduler is gone and the drive should never start.
    fn first_turn(&self) -> Option<Machine> {
        lock(&self.turn_rx).recv().ok()
    }

    /// Swap the session machine out of `slot_machine`, send it home with
    /// `why`, and block until the next grant (swapped back in, re-tagged).
    /// Returns `false` if the scheduler is gone: the drive is cancelled and
    /// `slot_machine` holds a valid (cold or real) machine so the operator
    /// stack can unwind normally through its next cancellation check.
    fn yield_turn(&self, slot_machine: &mut Machine, why: DriveYield) -> bool {
        let spare = lock(&self.spare)
            .take()
            .unwrap_or_else(|| Machine::new(self.cfg.clone()));
        let real = std::mem::replace(slot_machine, spare);
        let msg = YieldMsg {
            slot: self.slot,
            machine: real,
            why,
        };
        if let Err(mpsc::SendError(msg)) = self.yield_tx.send(msg) {
            // Scheduler dropped mid-run: keep the real machine, abandon.
            let spare = std::mem::replace(slot_machine, msg.machine);
            *lock(&self.spare) = Some(spare);
            self.cancel.cancel();
            return false;
        }
        match lock(&self.turn_rx).recv() {
            Ok(mut granted) => {
                granted.set_query_tag(self.tag);
                let spare = std::mem::replace(slot_machine, granted);
                *lock(&self.spare) = Some(spare);
                true
            }
            Err(_) => {
                self.cancel.cancel();
                false
            }
        }
    }
}

/// The session core's [`CoreSlicer`]: tracks the cycle quantum at tuple
/// boundaries and parks the drive when it expires.
struct TurnSlicer {
    gate: Arc<DriveGate>,
    quantum_cycles: u64,
    /// Counters at the start of the current quantum; `None` until the
    /// first tuple boundary after the first grant.
    base: Option<PerfCounters>,
}

impl CoreSlicer for TurnSlicer {
    fn maybe_yield(&mut self, machine: &mut Machine, profiler: Option<&mut QueryProfiler>) {
        let now = machine.snapshot();
        let Some(base) = self.base else {
            self.base = Some(now);
            return;
        };
        if machine.cycles_for(&(now - base)) < self.quantum_cycles {
            return;
        }
        lock(&self.gate.acct).pause(now);
        self.gate.yield_turn(machine, DriveYield::Quantum);
        // On resume the machine carries other residents' deltas (and their
        // L1i footprints — the interference): re-base both the accounting
        // and the profiler so none of it is charged to this query.
        let snap = machine.snapshot();
        if let Some(p) = profiler {
            p.resync(snap);
        }
        lock(&self.gate.acct).resume(snap);
        self.base = Some(snap);
    }
}

/// The session core's phase delegate: registers the phase with the
/// scheduler, parks the drive until the pool finishes it, and folds the
/// lane deltas into the query total on resume.
struct SlicedDelegate {
    core: Arc<Mutex<VCore>>,
    gate: Arc<DriveGate>,
}

impl ExchangeDelegate for SlicedDelegate {
    fn begin_drive(&mut self, base: PerfCounters) {
        lock(&self.gate.acct).begin(base);
    }

    fn run_phase(&mut self, ctx: &mut ExecContext, req: PhaseRequest) -> PhaseOutcome {
        lock(&self.gate.acct).pause(ctx.machine.snapshot());
        let phase = Arc::new(PhaseState::new(req, self.gate.tag, ctx));
        lock(&self.core).sched.open_phase(Arc::clone(&phase));
        // Park. A live re-grant means the phase is done; a dead scheduler
        // means the query is cancelled and whatever ran is collected as-is
        // (every claimed unit completes within its claiming step, so the
        // lanes are home either way).
        self.gate
            .yield_turn(&mut ctx.machine, DriveYield::PhaseWait(Arc::clone(&phase)));
        // Other residents ran on this machine while we were parked; the
        // exchange re-bases the profiler when it merges the lanes.
        let out = phase.collect();
        lock(&self.gate.acct).end_phase(&out, ctx.machine.snapshot());
        out
    }

    fn seal_drive(&mut self, now: PerfCounters) -> PerfCounters {
        lock(&self.gate.acct).seal(now)
    }
}

/// One pool (morsel) core.
struct VWorker {
    machine: Option<Machine>,
    vclock: u64,
    /// Morsel units this core has run (surfaced by `sys.workers`).
    units: u64,
}

/// Completed queries retained for `sys.queries` introspection (bounded).
const QUERY_LOG_CAP: usize = 1024;

/// One completed query's row in the bounded introspection log.
struct QueryLogEntry {
    id: u64,
    tag: u32,
    arrival_ns: u64,
    start_ns: u64,
    done_ns: u64,
    rows: u64,
    ok: bool,
    l1i_misses: u64,
    l1i_cross_misses: u64,
}

/// A query currently admitted (its drive thread is live), mirrored into
/// [`VCore`] so `sys.queries` can list running queries without reaching
/// into the scheduler's resident table.
struct RunningInfo {
    id: u64,
    tag: u32,
    arrival_ns: u64,
    start_ns: Option<u64>,
}

/// State shared with drive threads (they push phases; the stepper reads
/// everything else between grants, when no drive is runnable).
struct VCore {
    cfg: MachineConfig,
    clock_hz: u64,
    /// Admission, open phases, tags, stats and query spans, stamped in
    /// virtual nanoseconds.
    sched: Sched<()>,
    /// Session core clock; the machine itself lives in the scheduler and
    /// is `None` only while granted to a drive.
    core_v: u64,
    core_machine: Option<Machine>,
    pool: Vec<VWorker>,
    finished: Vec<CompletedQuery>,
    /// Session-core quantum grants processed (turn switches).
    turns: u64,
    /// Phase units run inline on the session core (`workers == 1`).
    core_units: u64,
    /// Whether the heat ledger is enabled (replacement machines installed
    /// by `fail_resident` must inherit it).
    heatmap: bool,
    /// Admitted queries, mirrored for `sys.queries`.
    running: Vec<RunningInfo>,
    /// Bounded log of completed queries for `sys.queries`.
    log: VecDeque<QueryLogEntry>,
}

impl VCore {
    fn push_log(&mut self, entry: QueryLogEntry) {
        if self.log.len() == QUERY_LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back(entry);
    }

    /// The machines at home: the session core's (absent while granted to a
    /// drive) followed by every pool core's.
    fn home_machines(&self) -> impl Iterator<Item = &Machine> {
        self.core_machine
            .iter()
            .chain(self.pool.iter().filter_map(|w| w.machine.as_ref()))
    }

    /// Every home machine's heat ledger folded into one snapshot.
    fn heatmap(&self) -> HeatSnapshot {
        let mut snap = HeatSnapshot::default();
        for m in self.home_machines() {
            snap.merge(&m.heat_snapshot());
        }
        snap
    }
}

/// A query admitted onto the session core: its parked drive thread plus
/// the scheduler-side turn bookkeeping.
struct Resident {
    id: u64,
    tag: u32,
    arrival: u64,
    start_v: Option<u64>,
    /// Earliest virtual time this drive may run again (arrival before the
    /// first turn; the phase's last unit end after a phase wait).
    ready_at: u64,
    waiting_on: Option<Arc<PhaseState>>,
    turn_tx: mpsc::Sender<Machine>,
    cancel: CancelToken,
    handle: Option<JoinHandle<()>>,
}

/// Deterministic multi-query server in simulated time. See module docs.
pub struct VirtualServer {
    core: Arc<Mutex<VCore>>,
    residents: Vec<Option<Resident>>,
    free: Vec<usize>,
    /// Round-robin turn order over resident slots.
    ring: VecDeque<usize>,
    yield_rx: mpsc::Receiver<YieldMsg>,
    yield_tx: mpsc::Sender<YieldMsg>,
    master: CodeLayout,
    faults: Arc<FaultRegistry>,
}

impl VirtualServer {
    /// A session core, `cfg.workers - 1` pool cores (zero when
    /// `cfg.workers == 1`; phase units then run inline on the session
    /// core), and `cfg.admission_slots` resident-drive slots, at virtual
    /// time zero.
    pub fn new(cfg: ServerConfig) -> Self {
        let clock_hz = cfg.machine.clock_hz;
        let pool_n = cfg.workers.saturating_sub(1);
        let (yield_tx, yield_rx) = mpsc::channel();
        VirtualServer {
            core: Arc::new(Mutex::new(VCore {
                cfg: cfg.machine.clone(),
                clock_hz,
                sched: Sched::new(cfg.admission_slots),
                core_v: 0,
                core_machine: Some(Machine::new(cfg.machine.clone())),
                pool: (0..pool_n)
                    .map(|_| VWorker {
                        machine: Some(Machine::new(cfg.machine.clone())),
                        vclock: 0,
                        units: 0,
                    })
                    .collect(),
                finished: Vec::new(),
                turns: 0,
                core_units: 0,
                heatmap: false,
                running: Vec::new(),
                log: VecDeque::new(),
            })),
            residents: Vec::new(),
            free: Vec::new(),
            ring: VecDeque::new(),
            yield_rx,
            yield_tx,
            master: FootprintModel::prelinked(),
            faults: Arc::new(FaultRegistry::new()),
        }
    }

    /// The fault registry shared by every query this server runs (arm sites
    /// here, as on a [`crate::session::Session`]).
    pub fn faults(&self) -> &Arc<FaultRegistry> {
        &self.faults
    }

    /// Queue a query with its simulated arrival time
    /// ([`SubmitSpec::at`], nanoseconds). Submissions must come in
    /// nondecreasing arrival order; admission is FIFO. Returns the
    /// submission id echoed in [`CompletedQuery::id`].
    ///
    /// Wall-clock timeouts do not exist in virtual time, so
    /// `QueryOpts::timeout` is ignored; a caller-held cancel token
    /// (`QueryOpts::cancel`) works as on the threaded server. A per-query
    /// fault registry on the opts overrides the server-shared one.
    pub fn submit(&mut self, spec: SubmitSpec<'_>) -> Result<u64> {
        let (plan, catalog, opts) = (spec.plan(), spec.catalog(), spec.query_opts());
        let arrival_ns = spec.arrival_ns();
        // Refused before anything is counted or allocated for it.
        let latest = lock(&self.core).sched.waiting.back().map(|j| j.arrival_ns);
        if latest.is_some_and(|at| at > arrival_ns) {
            return Err(DbError::ExecProtocol(
                "virtual server submissions must arrive in order".into(),
            ));
        }
        // An explicit token beats a timeout when the spec resolves its
        // options, so pinning one here is what ignores the timeout.
        let mut opts = opts.clone();
        if opts.cancel_override().is_none() {
            opts = opts.cancel(CancelToken::new());
        }
        if opts.fault_registry().is_none() {
            opts = opts.faults(Arc::clone(&self.faults));
        }
        let spec = DriveSpec::for_server(plan, catalog, &self.master, &opts)?;
        Ok(lock(&self.core).sched.enqueue(spec, arrival_ns, ()).0)
    }

    /// Spawn the drive thread for an admitted job and enter it in the ring.
    fn spawn_resident(&mut self, job: Job<()>) {
        let Job {
            id,
            arrival_ns: arrival,
            mut spec,
            ..
        } = job;
        let tag = spec.tag;
        let cancel = spec.cancel.clone();
        let cfg = lock(&self.core).cfg.clone();
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.residents.push(None);
                self.residents.len() - 1
            }
        };
        let (turn_tx, turn_rx) = mpsc::channel();
        let gate = Arc::new(DriveGate {
            slot,
            tag,
            cfg: cfg.clone(),
            turn_rx: Mutex::new(turn_rx),
            yield_tx: self.yield_tx.clone(),
            spare: Mutex::new(Some(Machine::new(cfg.clone()))),
            acct: Mutex::new(DriveAccounting::default()),
            cancel: cancel.clone(),
        });
        spec.slicer = Some(Box::new(TurnSlicer {
            gate: Arc::clone(&gate),
            quantum_cycles: DEFAULT_QUANTUM_CYCLES,
            base: None,
        }));
        let delegate = Box::new(SlicedDelegate {
            core: Arc::clone(&self.core),
            gate: Arc::clone(&gate),
        });
        let handle = std::thread::spawn(move || {
            let Some(mut machine) = gate.first_turn() else {
                return;
            };
            let outcome = run_drive(spec, Some((&mut machine, delegate)), &cfg);
            let _ = gate.yield_tx.send(YieldMsg {
                slot: gate.slot,
                machine,
                why: DriveYield::Done(Box::new(outcome)),
            });
        });
        self.residents[slot] = Some(Resident {
            id,
            tag,
            arrival,
            start_v: None,
            ready_at: arrival,
            waiting_on: None,
            turn_tx,
            cancel,
            handle: Some(handle),
        });
        self.ring.push_back(slot);
        lock(&self.core).running.push(RunningInfo {
            id,
            tag,
            arrival_ns: arrival,
            start_ns: None,
        });
    }

    /// A phase just completed: unregister it, credit its steals, and wake
    /// every resident parked on it at the phase's last unit end. Takes the
    /// fields split apart so callers can hold the core lock.
    fn resolve_phase(residents: &mut [Option<Resident>], c: &mut VCore, phase: &Arc<PhaseState>) {
        c.sched.close_phase(phase);
        let end = phase.max_end_v.load(Ordering::Relaxed);
        for r in residents.iter_mut().flatten() {
            if r.waiting_on.as_ref().is_some_and(|p| Arc::ptr_eq(p, phase)) {
                r.waiting_on = None;
                r.ready_at = r.ready_at.max(end);
            }
        }
    }

    /// Grant the session machine to the resident in ring position `pos`
    /// whose turn starts at `turn_v`, and process its yield.
    fn run_core_turn(&mut self, pos: usize, turn_v: u64) {
        let Some(slot) = self.ring.remove(pos) else {
            return;
        };
        let machine = {
            let mut c = lock(&self.core);
            c.core_v = turn_v;
            let Some(r) = self.residents[slot].as_mut() else {
                return;
            };
            if r.start_v.is_none() {
                r.start_v = Some(turn_v);
                // First grant ends the wait: admission queueing + any core
                // contention between arrival and this turn.
                let (id, arrival) = (r.id, r.arrival);
                c.sched.started(id, arrival, turn_v);
                if let Some(ri) = c.running.iter_mut().find(|ri| ri.id == id) {
                    ri.start_ns = Some(turn_v);
                }
            }
            let Some(m) = c.core_machine.take() else {
                // The session machine is home whenever no turn is in flight.
                // If it is somehow absent, retire the resident rather than
                // wedging the turn ring.
                drop(c);
                self.fail_resident(slot, None);
                return;
            };
            m
        };
        let base = machine.snapshot();
        let Some(resident) = self.residents[slot].as_ref() else {
            // Checked under the lock above; return the machine home.
            lock(&self.core).core_machine = Some(machine);
            return;
        };
        let turn_tag = resident.tag;
        if let Err(mpsc::SendError(machine)) = resident.turn_tx.send(machine) {
            // Drive thread died without yielding (it never starts without a
            // grant, so this is the post-drop path of an abandoned thread).
            self.fail_resident(slot, Some(machine));
            return;
        }
        let Ok(msg) = self.yield_rx.recv() else {
            // Unreachable while `self.yield_tx` lives, but if every sender is
            // gone the granted machine is lost with its thread: retire the
            // resident and let `fail_resident` install a replacement machine.
            self.fail_resident(slot, None);
            return;
        };
        debug_assert_eq!(msg.slot, slot);
        let delta = msg.machine.snapshot() - base;
        let cycles = msg.machine.cycles_for(&delta);
        let mut c = lock(&self.core);
        c.core_v += to_ns(cycles, c.clock_hz);
        c.core_machine = Some(msg.machine);
        let now_v = c.core_v;
        c.turns += 1;
        if let Some(rec) = c.sched.recorder.as_mut() {
            rec.record_core(
                now_v,
                TraceEvent::CoreTurn {
                    tag: turn_tag,
                    cross_misses: delta.l1i_cross_misses,
                    start_ns: turn_v,
                },
            );
        }
        match msg.why {
            DriveYield::Quantum => {
                if let Some(r) = self.residents[slot].as_mut() {
                    r.ready_at = now_v;
                }
                self.ring.push_back(slot);
            }
            DriveYield::PhaseWait(phase) => {
                phase.start_v.store(now_v, Ordering::Relaxed);
                phase.note_end_v(now_v);
                if let Some(r) = self.residents[slot].as_mut() {
                    r.ready_at = now_v;
                    r.waiting_on = Some(Arc::clone(&phase));
                }
                if phase.done() {
                    // Born done (zero-morsel phase): wake immediately.
                    Self::resolve_phase(&mut self.residents, &mut c, &phase);
                }
                self.ring.push_back(slot);
            }
            DriveYield::Done(outcome) => {
                drop(c);
                self.retire(slot, *outcome);
            }
        }
    }

    /// Retire the resident in `slot` at the session core's clock: the
    /// scheduler counts it done, `sys.queries` logs it and `run_until`
    /// hands its outcome back.
    fn retire(&mut self, slot: usize, outcome: QueryOutcome) {
        let Some(r) = self.residents[slot].take() else {
            return;
        };
        let mut c = lock(&self.core);
        let now_v = c.core_v;
        let start_ns = r.start_v.unwrap_or(now_v);
        c.sched.finished(r.id, r.tag, start_ns, now_v, &outcome);
        let counters = outcome.stats().counters;
        c.running.retain(|ri| ri.id != r.id);
        c.push_log(QueryLogEntry {
            id: r.id,
            tag: r.tag,
            arrival_ns: r.arrival,
            start_ns,
            done_ns: now_v,
            rows: outcome.rows().len() as u64,
            ok: outcome.is_ok(),
            l1i_misses: counters.l1i_misses,
            l1i_cross_misses: counters.l1i_cross_misses,
        });
        c.finished.push(CompletedQuery {
            id: r.id,
            tag: r.tag,
            arrival_ns: r.arrival,
            start_ns,
            done_ns: now_v,
            outcome,
        });
        drop(c);
        if let Some(h) = r.handle {
            let _ = h.join();
        }
        self.free.push(slot);
    }

    /// Retire a resident whose thread is gone (scheduler-restart path):
    /// synthesize a failed completion so accounting stays conserved.
    fn fail_resident(&mut self, slot: usize, machine: Option<Machine>) {
        if self.residents[slot].is_none() {
            return;
        }
        let outcome = {
            let mut c = lock(&self.core);
            // Restore the granted machine, or install a cold replacement
            // when it was lost with a dead drive thread, so the core is
            // never machineless.
            let machine = machine.unwrap_or_else(|| {
                let mut m = Machine::new(c.cfg.clone());
                if c.heatmap {
                    m.enable_heatmap();
                }
                m
            });
            c.core_machine = Some(machine);
            QueryOutcome::failed(
                &c.cfg,
                DbError::WorkerFailed("virtual drive thread lost".into()),
            )
        };
        self.retire(slot, outcome);
    }

    /// Run one pool unit on the earliest-clocked pool core — or, when the
    /// pool is empty (`workers = 1`), inline on the session core between
    /// drive turns. Returns whether anything ran.
    fn run_pool_unit(&mut self) -> bool {
        let (phase, lane, idx, mut machine, w, on_core) = {
            let mut c = lock(&self.core);
            let Some((w, machine, on_core)) = (if c.pool.is_empty() {
                // No drive turn is in flight while the scheduler steps, so
                // the session machine is home; borrow it for one unit.
                c.core_machine.take().map(|m| (0, m, true))
            } else {
                c.pool
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, p)| p.machine.is_some())
                    .min_by_key(|(i, p)| (p.vclock, *i))
                    .and_then(|(i, p)| p.machine.take().map(|m| (i, m, false)))
            }) else {
                return false;
            };
            let Some((p, lane, idx)) = c.sched.claim(w) else {
                // All remaining phases are done but unresolved (shouldn't
                // happen — completion resolves eagerly); sweep them so the
                // outer loop can't spin.
                if on_core {
                    c.core_machine = Some(machine);
                } else {
                    c.pool[w].machine = Some(machine);
                }
                let done: Vec<Arc<PhaseState>> = c
                    .sched
                    .phases
                    .iter()
                    .filter(|p| p.done())
                    .cloned()
                    .collect();
                for p in &done {
                    Self::resolve_phase(&mut self.residents, &mut c, p);
                }
                return !done.is_empty();
            };
            let start = p.start_v.load(Ordering::Relaxed);
            if on_core {
                c.core_v = c.core_v.max(start);
            } else {
                let wk = &mut c.pool[w];
                wk.vclock = wk.vclock.max(start);
            }
            (p, lane, idx, machine, w, on_core)
        };
        let cycles = phase.run_unit(lane, idx, &mut machine);
        let mut c = lock(&self.core);
        c.sched.unit_done();
        let ns = to_ns(cycles, c.clock_hz);
        let end = if on_core {
            c.core_v += ns;
            c.core_units += 1;
            c.core_machine = Some(machine);
            c.core_v
        } else {
            let wk = &mut c.pool[w];
            wk.vclock += ns;
            wk.units += 1;
            wk.machine = Some(machine);
            wk.vclock
        };
        phase.note_end_v(end);
        if phase.done() {
            Self::resolve_phase(&mut self.residents, &mut c, &phase);
        }
        true
    }

    /// Advance simulated time, admitting any job with `arrival ≤ horizon`
    /// (or at or before the session core's current clock), and return the
    /// queries that completed, ordered by completion time.
    pub fn run_until(&mut self, horizon_ns: u64) -> Vec<CompletedQuery> {
        loop {
            // Admissions are free in model time; slots bound concurrency.
            loop {
                let job = {
                    let mut c = lock(&self.core);
                    let reach = c.core_v.max(horizon_ns);
                    c.sched.admit(reach)
                };
                match job {
                    Some(j) => self.spawn_resident(j),
                    None => break,
                }
            }
            // Candidate events, in virtual-time order. Session-core turn:
            // the frontmost ring entry minimizing max(core_v, ready_at)
            // among runnable residents.
            let (core_cand, pool_cand) = {
                let c = lock(&self.core);
                let mut core_cand: Option<(u64, usize)> = None;
                for (pos, &slot) in self.ring.iter().enumerate() {
                    let Some(r) = self.residents[slot].as_ref() else {
                        continue;
                    };
                    if r.waiting_on.is_some() {
                        continue;
                    }
                    let t = c.core_v.max(r.ready_at);
                    if core_cand.is_none_or(|(bt, _)| t < bt) {
                        core_cand = Some((t, pos));
                    }
                }
                let pool_cand: Option<u64> = if c.sched.phases.is_empty() {
                    None
                } else {
                    let start = c
                        .sched
                        .phases
                        .iter()
                        .map(|p| p.start_v.load(Ordering::Relaxed))
                        .min()
                        .unwrap_or(0);
                    if c.pool.is_empty() {
                        // workers = 1: phase units run on the session core.
                        Some(c.core_v.max(start))
                    } else {
                        c.pool.iter().map(|p| p.vclock).min().map(|v| v.max(start))
                    }
                };
                (core_cand, pool_cand)
            };
            match (core_cand, pool_cand) {
                (Some((ct, pos)), Some(pt)) => {
                    if ct <= pt {
                        self.run_core_turn(pos, ct);
                    } else {
                        self.run_pool_unit();
                    }
                }
                (Some((ct, pos)), None) => self.run_core_turn(pos, ct),
                (None, Some(_)) => {
                    if !self.run_pool_unit() {
                        break;
                    }
                }
                (None, None) => break,
            }
        }
        let mut done = std::mem::take(&mut lock(&self.core).finished);
        done.sort_by_key(|c| (c.done_ns, c.id));
        done
    }

    /// Run everything queued to completion.
    pub fn drain(&mut self) -> Vec<CompletedQuery> {
        self.run_until(u64::MAX)
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> ServerStats {
        lock(&self.core).sched.stats
    }

    /// Session-core quantum grants processed so far.
    pub fn turns(&self) -> u64 {
        lock(&self.core).turns
    }

    /// Enable the per-segment L1i heat ledger on the session core and every
    /// pool core. Enable **before the first submission** for exact miss
    /// conservation (Σ heat-cell misses == Σ machine `l1i_misses`);
    /// attribution adds zero modeled cost either way. Idempotent.
    pub fn enable_heatmap(&mut self) {
        let mut c = lock(&self.core);
        c.heatmap = true;
        if let Some(m) = c.core_machine.as_mut() {
            m.enable_heatmap();
        }
        for w in c.pool.iter_mut() {
            if let Some(m) = w.machine.as_mut() {
                m.enable_heatmap();
            }
        }
    }

    /// The merged server-wide heatmap: the session core's ledger folded
    /// with every pool core's. Call between [`VirtualServer::run_until`]
    /// steps (all machines are home then); a machine away on a live drive
    /// turn contributes nothing until it comes home. Empty when
    /// [`VirtualServer::enable_heatmap`] was never called.
    pub fn heatmap(&self) -> HeatSnapshot {
        lock(&self.core).heatmap()
    }

    /// Machine-total counters summed over the session core and pool cores —
    /// the conservation denominator the heatmap is checked against.
    pub fn machine_counters(&self) -> PerfCounters {
        lock(&self.core)
            .home_machines()
            .fold(PerfCounters::default(), |total, m| total + m.snapshot())
    }

    /// Switch on the always-on server flight recorder (admission waits,
    /// per-query runs, session-core quantum turns with their cross-miss
    /// charge), stamped in virtual nanoseconds. Idempotent.
    pub fn enable_flight_recorder(&mut self) {
        lock(&self.core)
            .sched
            .recorder
            .get_or_insert_with(ServerRecorder::new);
    }

    /// Seal and take the server flight recorder's report (one timeline for
    /// the whole server run), switching recording off. `None` when it was
    /// never enabled.
    pub fn finish_recorder(&mut self) -> Option<TraceReport> {
        lock(&self.core)
            .sched
            .recorder
            .take()
            .map(ServerRecorder::finish)
    }

    /// Register this server's `sys.*` introspection tables in `catalog`:
    ///
    /// * `sys.queries` — waiting, running, and completed queries with their
    ///   wait/run timelines and L1i (cross-)miss totals (completed rows are
    ///   retained in a bounded log of the most recent 1024);
    /// * `sys.workers` — per-core virtual clocks, turn/unit counts, and
    ///   carried L1i state;
    /// * `sys.cache_segments` — the per-segment heatmap rollup (empty until
    ///   [`VirtualServer::enable_heatmap`]).
    ///
    /// Providers snapshot under the scheduler lock *between* turns and
    /// execute as zero-footprint [`crate::plan::PlanNode::SysScan`] leaves,
    /// so a query over them adds exactly zero modeled cycles or misses to
    /// anything it observes — including other queries running on this very
    /// server (the observer-effect-zero invariant `tests/observatory.rs`
    /// asserts).
    pub fn install_sys_tables(&self, catalog: &Catalog) {
        let queries_schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("state", DataType::Str),
            Field::new("tag", DataType::Int),
            Field::new("arrival_ns", DataType::Int),
            Field::nullable("start_ns", DataType::Int),
            Field::nullable("done_ns", DataType::Int),
            Field::nullable("wait_ns", DataType::Int),
            Field::nullable("run_ns", DataType::Int),
            Field::nullable("rows", DataType::Int),
            Field::nullable("ok", DataType::Bool),
            Field::nullable("l1i_misses", DataType::Int),
            Field::nullable("l1i_cross_misses", DataType::Int),
        ])
        .into_ref();
        let core = Arc::clone(&self.core);
        catalog.register_sys_table(
            "sys.queries",
            Arc::new(
                FnSysTable::new(queries_schema, move || {
                    let c = lock(&core);
                    let int = |v: u64| Datum::Int(v as i64);
                    let mut rows = Vec::new();
                    for j in &c.sched.waiting {
                        rows.push(Tuple::new(vec![
                            int(j.id),
                            Datum::str("waiting"),
                            int(j.spec.tag as u64),
                            int(j.arrival_ns),
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                        ]));
                    }
                    for ri in &c.running {
                        rows.push(Tuple::new(vec![
                            int(ri.id),
                            Datum::str("running"),
                            int(ri.tag as u64),
                            int(ri.arrival_ns),
                            ri.start_ns.map_or(Datum::Null, int),
                            Datum::Null,
                            ri.start_ns
                                .map_or(Datum::Null, |s| int(s.saturating_sub(ri.arrival_ns))),
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                            Datum::Null,
                        ]));
                    }
                    for e in &c.log {
                        rows.push(Tuple::new(vec![
                            int(e.id),
                            Datum::str("done"),
                            int(e.tag as u64),
                            int(e.arrival_ns),
                            int(e.start_ns),
                            int(e.done_ns),
                            int(e.start_ns.saturating_sub(e.arrival_ns)),
                            int(e.done_ns.saturating_sub(e.start_ns)),
                            int(e.rows),
                            Datum::Bool(e.ok),
                            int(e.l1i_misses),
                            int(e.l1i_cross_misses),
                        ]));
                    }
                    rows.sort_by_key(|t| t.get(0).as_int());
                    rows
                })
                .with_approx_rows(16),
            ),
        );

        let workers_schema = Schema::new(vec![
            Field::new("core", DataType::Str),
            Field::new("vclock_ns", DataType::Int),
            Field::new("turns", DataType::Int),
            Field::new("units", DataType::Int),
            Field::new("resident", DataType::Bool),
            Field::nullable("l1i_misses", DataType::Int),
            Field::nullable("l1i_cross_misses", DataType::Int),
        ])
        .into_ref();
        let core = Arc::clone(&self.core);
        catalog.register_sys_table(
            "sys.workers",
            Arc::new(
                FnSysTable::new(workers_schema, move || {
                    let c = lock(&core);
                    let int = |v: u64| Datum::Int(v as i64);
                    let carried = |m: Option<&Machine>| match m {
                        // `resident == false` means the machine is away on a
                        // live drive turn; its counters come home with it.
                        Some(m) => {
                            let s = m.snapshot();
                            (
                                Datum::Bool(true),
                                int(s.l1i_misses),
                                int(s.l1i_cross_misses),
                            )
                        }
                        None => (Datum::Bool(false), Datum::Null, Datum::Null),
                    };
                    let mut rows = Vec::new();
                    let (res, misses, cross) = carried(c.core_machine.as_ref());
                    rows.push(Tuple::new(vec![
                        Datum::str("session"),
                        int(c.core_v),
                        int(c.turns),
                        int(c.core_units),
                        res,
                        misses,
                        cross,
                    ]));
                    for (i, w) in c.pool.iter().enumerate() {
                        let (res, misses, cross) = carried(w.machine.as_ref());
                        rows.push(Tuple::new(vec![
                            Datum::str(format!("pool-{i}")),
                            int(w.vclock),
                            Datum::Int(0),
                            int(w.units),
                            res,
                            misses,
                            cross,
                        ]));
                    }
                    rows
                })
                .with_approx_rows(1 + lock(&self.core).pool.len() as u64),
            ),
        );

        let segments_schema = Schema::new(vec![
            Field::new("segment", DataType::Str),
            Field::new("misses", DataType::Int),
            Field::new("cross_misses", DataType::Int),
            Field::new("evictions", DataType::Int),
            Field::new("cross_caused", DataType::Int),
        ])
        .into_ref();
        let core = Arc::clone(&self.core);
        catalog.register_sys_table(
            "sys.cache_segments",
            Arc::new(FnSysTable::new(segments_schema, move || {
                lock(&core)
                    .heatmap()
                    .by_segment()
                    .into_iter()
                    .map(|(seg, cell)| {
                        Tuple::new(vec![
                            Datum::str(seg),
                            Datum::Int(cell.misses as i64),
                            Datum::Int(cell.cross_misses as i64),
                            Datum::Int(cell.evictions as i64),
                            Datum::Int(cell.cross_caused as i64),
                        ])
                    })
                    .collect()
            })),
        );
    }
}

impl Drop for VirtualServer {
    fn drop(&mut self) {
        // Wake and retire any still-parked drives: cancelling first makes
        // the unwind prompt, dropping the grant sender makes it certain.
        for r in self.residents.iter_mut().flatten() {
            r.cancel.cancel();
        }
        for r in self.residents.drain(..).flatten() {
            let Resident {
                turn_tx, handle, ..
            } = r;
            drop(turn_tx);
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_one_has_no_hidden_pool_core() {
        // Before the sizing fix, workers = 1 built a one-core pool anyway,
        // giving the "single worker" config two cores of simulated compute.
        let vs = VirtualServer::new(ServerConfig::new(
            1,
            2,
            bufferdb_cachesim::MachineConfig::pentium4_like(),
        ));
        assert!(lock(&vs.core).pool.is_empty(), "workers=1 ⇒ empty pool");
        let vs2 = VirtualServer::new(ServerConfig::new(
            2,
            2,
            bufferdb_cachesim::MachineConfig::pentium4_like(),
        ));
        assert_eq!(lock(&vs2.core).pool.len(), 1);
    }
}
