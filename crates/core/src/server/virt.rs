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
//! query runs on an OS thread — but in strict lockstep, with no scheduler
//! thread: whichever thread holds the session core runs the scheduling
//! step (`VCore::step`) itself, under the core lock. A drive whose quantum
//! expires (or that waits on a phase, or finishes) sends the machine home,
//! accounts its turn and steps: pool units run right there on its stack,
//! and when a step grants the next turn to the same drive it takes the
//! machine back and continues with no thread hand-off. Only when the turn
//! goes elsewhere does it wake exactly one thread — the chosen resident,
//! or the [`VirtualServer::run_until`] caller once nothing admitted can
//! run — and park. At any instant at most one thread steps or drives, so
//! the schedule — and every counter — is a pure function of the
//! submissions: bit-for-bit reproducible.
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
use crate::exec::phase::{Lane, PhaseOutcome, PhaseState};
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Default drive quantum on the session core, in simulated cycles. Small
/// enough that 4-8 residents genuinely interleave within one query's
/// lifetime; large enough that a quantum covers many tuples (the switch
/// itself is free in model time — only the cache displacement costs).
pub const DEFAULT_QUANTUM_CYCLES: u64 = 40_000;

/// A cold machine standing in for one lost with a dead drive thread; it
/// inherits the heat ledger when the server has it on.
fn cold_machine(cfg: &MachineConfig, heatmap: bool) -> Machine {
    let mut m = Machine::new(cfg.clone());
    if heatmap {
        m.enable_heatmap();
    }
    m
}

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
    /// Drive finished; the thread exits after scheduling the next turn.
    Done(Box<QueryOutcome>),
}

/// Who holds the session core's next turn.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// The [`VirtualServer::run_until`] caller: nothing admitted can run.
    Caller,
    /// The resident drive in this slot.
    Drive(usize),
}

/// What one scheduling step decided.
enum Step {
    /// Run this pool unit (with the core lock released), then step again.
    Unit(Box<Unit>),
    /// The session core's next turn is granted.
    Turn(Owner),
}

/// A pool unit claimed by a step, with the machine it runs on.
struct Unit {
    phase: Arc<PhaseState>,
    lane: Lane,
    idx: usize,
    machine: Machine,
    /// The pool core it runs on; `None` for the session core (`workers = 1`).
    worker: Option<usize>,
}

/// Drive-side end of the turn hand-off, shared by the slicer (quantum
/// yields) and the delegate (phase waits) of one resident query.
struct DriveGate {
    slot: usize,
    tag: u32,
    cfg: MachineConfig,
    core: Arc<Mutex<VCore>>,
    /// This drive's own wake-up: notified only when a step grants it a turn
    /// (or the server is dropped).
    wake: Condvar,
    /// Cold stand-in left in the context while the real machine is away.
    spare: Mutex<Option<Machine>>,
    acct: Mutex<DriveAccounting>,
    cancel: CancelToken,
}

impl DriveGate {
    /// The drive thread: park until the first turn, run the query, then send
    /// the machine home with the outcome and schedule the next turn.
    fn run(&self, spec: DriveSpec, delegate: Box<SlicedDelegate>) {
        let _lost = LostDrive(self);
        let me = Owner::Drive(self.slot);
        let c = lock(&self.core);
        let mut c = self
            .wake
            .wait_while(c, |c| c.owner != Some(me) && !c.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if c.closed {
            return;
        }
        let mut machine = c.take_machine();
        drop(c);
        let outcome = run_drive(spec, Some((&mut machine, delegate)), &self.cfg);
        let mut c = lock(&self.core);
        if !c.closed {
            c.end_turn(self.slot, machine, DriveYield::Done(Box::new(outcome)));
            let (c, next) = run_steps(&self.core, c);
            c.wake(next);
        }
    }

    /// Swap the session machine out of `slot_machine`, send it home with
    /// `why` and run scheduling steps until this drive's next turn; the
    /// machine is then swapped back in, re-tagged. If the server is dropped
    /// meanwhile the drive is cancelled and `slot_machine` keeps a valid
    /// machine, so the operator stack unwinds normally through its next
    /// cancellation check.
    fn yield_turn(&self, slot_machine: &mut Machine, why: DriveYield) {
        let mut c = lock(&self.core);
        if !c.closed {
            let spare = lock(&self.spare)
                .take()
                .unwrap_or_else(|| Machine::new(self.cfg.clone()));
            c.end_turn(self.slot, std::mem::replace(slot_machine, spare), why);
            c = hand_off(&self.core, c, Owner::Drive(self.slot), &self.wake);
        }
        if c.closed {
            self.cancel.cancel();
            return;
        }
        let mut granted = c.take_machine();
        drop(c);
        granted.set_query_tag(self.tag);
        *lock(&self.spare) = Some(std::mem::replace(slot_machine, granted));
    }
}

/// Armed for the life of a drive thread: if the thread unwinds outside
/// `run_drive` (which contains executor panics itself), its query retires
/// as `WorkerFailed` and the turn it held moves on instead of wedging
/// `run_until`; a session machine lost with the thread is replaced by a
/// cold one when the core next takes it.
struct LostDrive<'a>(&'a DriveGate);

impl Drop for LostDrive<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let gate = self.0;
        let mut c = lock(&gate.core);
        let ours = c.residents.get(gate.slot).and_then(Option::as_ref);
        if c.closed || !ours.is_some_and(|r| std::ptr::eq(&*r.gate, gate)) {
            return;
        }
        c.ring.retain(|&s| s != gate.slot);
        let outcome = QueryOutcome::failed(
            &c.cfg,
            DbError::WorkerFailed("virtual drive thread lost".into()),
        );
        c.retire(gate.slot, outcome);
        if c.owner == Some(Owner::Drive(gate.slot)) {
            let (c, next) = run_steps(&gate.core, c);
            c.wake(next);
        }
    }
}

/// Run scheduling steps on the calling thread until one grants the session
/// core's next turn, running the pool units they claim along the way. No
/// one holds the turn meanwhile: a unit runs with the lock released, and a
/// drive just spawned into a retired drive's slot must not take a turn
/// granted to its predecessor.
fn run_steps<'a>(
    core: &'a Arc<Mutex<VCore>>,
    mut c: MutexGuard<'a, VCore>,
) -> (MutexGuard<'a, VCore>, Owner) {
    c.owner = None;
    loop {
        match c.step(core) {
            Step::Unit(u) => {
                drop(c);
                let Unit {
                    phase,
                    lane,
                    idx,
                    mut machine,
                    worker,
                } = *u;
                let cycles = phase.run_unit(lane, idx, &mut machine);
                c = lock(core);
                c.unit_done(&phase, machine, worker, cycles);
            }
            Step::Turn(next) => {
                c.owner = Some(next);
                return (c, next);
            }
        }
    }
}

/// Step until the session core's next turn is granted. If it is `me`'s,
/// return at once: the calling thread keeps the core with no hand-off.
/// Otherwise wake exactly the one thread that holds it and park on `wake`
/// until a later step — run by whichever thread holds the core then —
/// grants `me` a turn, or the server is dropped.
fn hand_off<'a>(
    core: &'a Arc<Mutex<VCore>>,
    c: MutexGuard<'a, VCore>,
    me: Owner,
    wake: &Condvar,
) -> MutexGuard<'a, VCore> {
    let (c, next) = run_steps(core, c);
    if next == me {
        return c;
    }
    c.wake(next);
    wake.wait_while(c, |c| c.owner != Some(me) && !c.closed)
        .unwrap_or_else(PoisonError::into_inner)
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
struct SlicedDelegate(Arc<DriveGate>);

impl ExchangeDelegate for SlicedDelegate {
    fn begin_drive(&mut self, base: PerfCounters) {
        lock(&self.0.acct).begin(base);
    }

    fn run_phase(&mut self, ctx: &mut ExecContext, req: PhaseRequest) -> PhaseOutcome {
        let gate = &self.0;
        lock(&gate.acct).pause(ctx.machine.snapshot());
        let phase = Arc::new(PhaseState::new(req, gate.tag, ctx));
        lock(&gate.core).sched.open_phase(Arc::clone(&phase));
        // Park. The next turn means the phase is done; a dropped server
        // means the query is cancelled and whatever ran is collected as-is
        // (every claimed unit completes within its claiming step, so the
        // lanes are home either way).
        gate.yield_turn(&mut ctx.machine, DriveYield::PhaseWait(Arc::clone(&phase)));
        // Other residents ran on this machine while we were parked; the
        // exchange re-bases the profiler when it merges the lanes.
        let out = phase.collect();
        lock(&gate.acct).end_phase(&out, ctx.machine.snapshot());
        out
    }

    fn seal_drive(&mut self, now: PerfCounters) -> PerfCounters {
        lock(&self.0.acct).seal(now)
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

/// A query admitted onto the session core: its drive thread plus the
/// scheduler-side turn bookkeeping.
struct Resident {
    id: u64,
    arrival: u64,
    start_v: Option<u64>,
    /// Earliest virtual time this drive may run again (arrival before the
    /// first turn; the phase's last unit end after a phase wait).
    ready_at: u64,
    waiting_on: Option<Arc<PhaseState>>,
    gate: Arc<DriveGate>,
    handle: JoinHandle<()>,
}

/// The session core, the pool and the resident drives, behind one lock;
/// whichever thread holds the session core steps it.
struct VCore {
    cfg: MachineConfig,
    clock_hz: u64,
    /// Admission, open phases, tags, stats and query spans, stamped in
    /// virtual nanoseconds.
    sched: Sched<()>,
    /// Latest arrival accepted so far: submissions may not go back in time.
    latest_arrival: u64,
    /// Admission reach of the current [`VirtualServer::run_until`] call.
    horizon: u64,
    /// Session core clock; the machine is `None` only while a drive holds it.
    core_v: u64,
    core_machine: Option<Machine>,
    /// Counters when the session machine left for the current turn.
    turn_base: PerfCounters,
    /// Who holds the session core's current turn; `None` while a thread
    /// steps to decide it.
    owner: Option<Owner>,
    /// The `run_until` caller's wake-up.
    caller: Arc<Condvar>,
    /// Set when the server is dropped: parked drives unwind, nobody steps.
    closed: bool,
    pool: Vec<VWorker>,
    /// Admitted queries by slot; `free` lists the empty slots.
    residents: Vec<Option<Resident>>,
    free: Vec<usize>,
    /// Round-robin turn order over resident slots (the turn holder is out).
    ring: VecDeque<usize>,
    /// Drive threads that finished, joined by the next `run_until` return.
    exited: Vec<JoinHandle<()>>,
    finished: Vec<CompletedQuery>,
    /// Session-core quantum grants processed (turn switches).
    turns: u64,
    /// Phase units run inline on the session core (`workers == 1`).
    core_units: u64,
    /// Whether the heat ledger is enabled (a replacement machine installed
    /// for a lost drive must inherit it).
    heatmap: bool,
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

    /// One scheduling step: admit every job that has arrived, then pick the
    /// earliest event in virtual time — a session-core turn, granted here,
    /// or a pool unit, claimed for the stepping thread to run.
    fn step(&mut self, core: &Arc<Mutex<VCore>>) -> Step {
        loop {
            // Admissions are free in model time; slots bound concurrency.
            while let Some(job) = self.sched.admit(self.core_v.max(self.horizon)) {
                self.spawn_resident(job, core);
            }
            // Session-core turn: the frontmost ring entry minimizing
            // max(core_v, ready_at) among runnable residents.
            let mut core_cand: Option<(u64, usize)> = None;
            for (pos, &slot) in self.ring.iter().enumerate() {
                let Some(r) = self.residents[slot].as_ref() else {
                    continue;
                };
                if r.waiting_on.is_some() {
                    continue;
                }
                let t = self.core_v.max(r.ready_at);
                if core_cand.is_none_or(|(bt, _)| t < bt) {
                    core_cand = Some((t, pos));
                }
            }
            // Pool unit: the earliest pool core, or the session core when
            // the pool is empty (`workers = 1`), from the earliest phase start.
            let unit_v = self.pool.iter().map(|p| p.vclock).min();
            let pool_cand = self
                .sched
                .phases
                .iter()
                .map(|p| p.start_v.load(Ordering::Relaxed))
                .min()
                .map(|start| unit_v.unwrap_or(self.core_v).max(start));
            // Ties go to the session core.
            let turn = core_cand.filter(|&(ct, _)| pool_cand.is_none_or(|pt| ct <= pt));
            if let Some((ct, pos)) = turn {
                if let Some(slot) = self.grant(pos, ct) {
                    return Step::Turn(Owner::Drive(slot));
                }
            } else {
                // An open phase always has a claimable unit: a unit finishes
                // within its claiming step and resolves its phase when it is
                // the last, and a zero-morsel phase resolves at its wait.
                return match pool_cand.and_then(|_| self.claim_unit()) {
                    Some(unit) => Step::Unit(Box::new(unit)),
                    None => Step::Turn(Owner::Caller),
                };
            }
        }
    }

    /// Spawn the drive thread for an admitted job and enter it in the ring.
    fn spawn_resident(&mut self, job: Job<()>, core: &Arc<Mutex<VCore>>) {
        let Job {
            id,
            arrival_ns: arrival,
            mut spec,
            ..
        } = job;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.residents.push(None);
            self.residents.len() - 1
        });
        let gate = Arc::new(DriveGate {
            slot,
            tag: spec.tag,
            cfg: self.cfg.clone(),
            core: Arc::clone(core),
            wake: Condvar::new(),
            spare: Mutex::new(Some(Machine::new(self.cfg.clone()))),
            acct: Mutex::new(DriveAccounting::default()),
            cancel: spec.cancel.clone(),
        });
        spec.slicer = Some(Box::new(TurnSlicer {
            gate: Arc::clone(&gate),
            quantum_cycles: DEFAULT_QUANTUM_CYCLES,
            base: None,
        }));
        let delegate = Box::new(SlicedDelegate(Arc::clone(&gate)));
        let drive = Arc::clone(&gate);
        let handle = std::thread::spawn(move || drive.run(spec, delegate));
        self.residents[slot] = Some(Resident {
            id,
            arrival,
            start_v: None,
            ready_at: arrival,
            waiting_on: None,
            gate,
            handle,
        });
        self.ring.push_back(slot);
    }

    /// Grant the session core's turn starting at `turn_v` to the resident in
    /// ring position `pos`; returns its slot.
    fn grant(&mut self, pos: usize, turn_v: u64) -> Option<usize> {
        let slot = self.ring.remove(pos)?;
        self.core_v = turn_v;
        let r = self.residents[slot].as_mut()?;
        if r.start_v.is_none() {
            r.start_v = Some(turn_v);
            // First grant ends the wait: admission queueing + any core
            // contention between arrival and this turn.
            self.sched.started(r.id, r.arrival, turn_v);
        }
        Some(slot)
    }

    /// The turn holder takes the session machine (home between turns).
    fn take_machine(&mut self) -> Machine {
        let m = self
            .core_machine
            .take()
            .unwrap_or_else(|| cold_machine(&self.cfg, self.heatmap));
        self.turn_base = m.snapshot();
        m
    }

    /// The session machine came home from `slot`'s turn: advance the core
    /// clock by the turn's cycles, then requeue, park or retire the drive.
    fn end_turn(&mut self, slot: usize, machine: Machine, why: DriveYield) {
        let delta = machine.snapshot() - self.turn_base;
        let turn_v = self.core_v;
        self.core_v += to_ns(machine.cycles_for(&delta), self.clock_hz);
        self.core_machine = Some(machine);
        self.turns += 1;
        let now_v = self.core_v;
        let Some(r) = self.residents[slot].as_mut() else {
            return;
        };
        if let Some(rec) = self.sched.recorder.as_mut() {
            rec.record_core(
                now_v,
                TraceEvent::CoreTurn {
                    tag: r.gate.tag,
                    cross_misses: delta.l1i_cross_misses,
                    start_ns: turn_v,
                },
            );
        }
        r.ready_at = now_v;
        match why {
            DriveYield::Quantum => self.ring.push_back(slot),
            DriveYield::PhaseWait(phase) => {
                phase.start_v.store(now_v, Ordering::Relaxed);
                phase.note_end_v(now_v);
                r.waiting_on = Some(Arc::clone(&phase));
                if phase.done() {
                    // Born done (zero-morsel phase): wake immediately.
                    self.resolve_phase(&phase);
                }
                self.ring.push_back(slot);
            }
            DriveYield::Done(outcome) => self.retire(slot, *outcome),
        }
    }

    /// Wake the one thread that holds the session core's turn.
    fn wake(&self, who: Owner) {
        match who {
            Owner::Caller => self.caller.notify_one(),
            Owner::Drive(slot) => {
                if let Some(r) = &self.residents[slot] {
                    r.gate.wake.notify_one();
                }
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
        let now_v = self.core_v;
        let start_ns = r.start_v.unwrap_or(now_v);
        let tag = r.gate.tag;
        self.sched.finished(r.id, tag, start_ns, now_v, &outcome);
        let counters = outcome.stats().counters;
        self.push_log(QueryLogEntry {
            id: r.id,
            tag,
            arrival_ns: r.arrival,
            start_ns,
            done_ns: now_v,
            rows: outcome.rows().len() as u64,
            ok: outcome.is_ok(),
            l1i_misses: counters.l1i_misses,
            l1i_cross_misses: counters.l1i_cross_misses,
        });
        self.finished.push(CompletedQuery {
            id: r.id,
            tag,
            arrival_ns: r.arrival,
            start_ns,
            done_ns: now_v,
            outcome,
        });
        self.exited.push(r.handle);
        self.free.push(slot);
    }

    /// A phase just completed: unregister it, credit its steals, and wake
    /// every resident parked on it at the phase's last unit end.
    fn resolve_phase(&mut self, phase: &Arc<PhaseState>) {
        self.sched.close_phase(phase);
        let end = phase.max_end_v.load(Ordering::Relaxed);
        for r in self.residents.iter_mut().flatten() {
            if r.waiting_on.as_ref().is_some_and(|p| Arc::ptr_eq(p, phase)) {
                r.waiting_on = None;
                r.ready_at = r.ready_at.max(end);
            }
        }
    }

    /// Claim one unit for the earliest-clocked pool core — or, when the
    /// pool is empty (`workers = 1`), for the session core between drive
    /// turns. Every machine is home while a step runs.
    fn claim_unit(&mut self) -> Option<Unit> {
        let worker = (0..self.pool.len()).min_by_key(|&w| (self.pool[w].vclock, w));
        let (phase, lane, idx) = self.sched.claim(worker.unwrap_or(0))?;
        let (clock, home) = match worker {
            None => (&mut self.core_v, &mut self.core_machine),
            Some(w) => {
                let wk = &mut self.pool[w];
                (&mut wk.vclock, &mut wk.machine)
            }
        };
        *clock = (*clock).max(phase.start_v.load(Ordering::Relaxed));
        let machine = home
            .take()
            .unwrap_or_else(|| cold_machine(&self.cfg, self.heatmap));
        Some(Unit {
            phase,
            lane,
            idx,
            machine,
            worker,
        })
    }

    /// A claimed unit ran for `cycles`: advance its core's clock and put
    /// the machine back.
    fn unit_done(
        &mut self,
        phase: &Arc<PhaseState>,
        machine: Machine,
        worker: Option<usize>,
        cycles: u64,
    ) {
        self.sched.unit_done();
        let ns = to_ns(cycles, self.clock_hz);
        let (clock, units, home) = match worker {
            None => (
                &mut self.core_v,
                &mut self.core_units,
                &mut self.core_machine,
            ),
            Some(w) => {
                let wk = &mut self.pool[w];
                (&mut wk.vclock, &mut wk.units, &mut wk.machine)
            }
        };
        *clock += ns;
        *units += 1;
        *home = Some(machine);
        phase.note_end_v(*clock);
        if phase.done() {
            self.resolve_phase(phase);
        }
    }
}

/// Deterministic multi-query server in simulated time. See module docs.
pub struct VirtualServer {
    core: Arc<Mutex<VCore>>,
    master: CodeLayout,
    faults: Arc<FaultRegistry>,
}

impl VirtualServer {
    /// A session core, `cfg.workers - 1` pool cores (zero when
    /// `cfg.workers == 1`; phase units then run inline on the session
    /// core), and `cfg.admission_slots` resident-drive slots, at virtual
    /// time zero.
    pub fn new(cfg: ServerConfig) -> Self {
        let pool_n = cfg.workers.saturating_sub(1);
        VirtualServer {
            core: Arc::new(Mutex::new(VCore {
                cfg: cfg.machine.clone(),
                clock_hz: cfg.machine.clock_hz,
                sched: Sched::new(cfg.admission_slots),
                latest_arrival: 0,
                horizon: 0,
                core_v: 0,
                core_machine: Some(Machine::new(cfg.machine.clone())),
                turn_base: PerfCounters::default(),
                owner: Some(Owner::Caller),
                caller: Arc::new(Condvar::new()),
                closed: false,
                pool: (0..pool_n)
                    .map(|_| VWorker {
                        machine: Some(Machine::new(cfg.machine.clone())),
                        vclock: 0,
                        units: 0,
                    })
                    .collect(),
                residents: Vec::new(),
                free: Vec::new(),
                ring: VecDeque::new(),
                exited: Vec::new(),
                finished: Vec::new(),
                turns: 0,
                core_units: 0,
                heatmap: false,
                log: VecDeque::new(),
            })),
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
    /// nondecreasing arrival order — against every earlier submission, run
    /// or still queued; admission is FIFO. Returns the submission id echoed
    /// in [`CompletedQuery::id`].
    ///
    /// Wall-clock timeouts do not exist in virtual time, so
    /// `QueryOpts::timeout` is ignored; a caller-held cancel token
    /// (`QueryOpts::cancel`) works as on the threaded server. A per-query
    /// fault registry on the opts overrides the server-shared one.
    pub fn submit(&mut self, spec: SubmitSpec<'_>) -> Result<u64> {
        let (plan, catalog, opts) = (spec.plan(), spec.catalog(), spec.query_opts());
        let arrival_ns = spec.arrival_ns();
        // Refused before anything is counted or allocated for it.
        if arrival_ns < lock(&self.core).latest_arrival {
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
        let mut c = lock(&self.core);
        c.latest_arrival = arrival_ns;
        Ok(c.sched.enqueue(spec, arrival_ns, ()).0)
    }

    /// Advance simulated time, admitting any job with `arrival ≤ horizon`
    /// (or at or before the session core's current clock), and return the
    /// queries that completed, ordered by completion time.
    pub fn run_until(&mut self, horizon_ns: u64) -> Vec<CompletedQuery> {
        let mut c = lock(&self.core);
        c.horizon = horizon_ns;
        let caller = Arc::clone(&c.caller);
        let mut c = hand_off(&self.core, c, Owner::Caller, &caller);
        let exited = std::mem::take(&mut c.exited);
        let mut done = std::mem::take(&mut c.finished);
        drop(c);
        for h in exited {
            let _ = h.join();
        }
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
                    for r in c.residents.iter().flatten() {
                        rows.push(Tuple::new(vec![
                            int(r.id),
                            Datum::str("running"),
                            int(r.gate.tag as u64),
                            int(r.arrival),
                            r.start_v.map_or(Datum::Null, int),
                            Datum::Null,
                            r.start_v
                                .map_or(Datum::Null, |s| int(s.saturating_sub(r.arrival))),
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
        // the unwind prompt, closing the core makes it certain.
        let handles: Vec<JoinHandle<()>> = {
            let mut c = lock(&self.core);
            c.closed = true;
            let parked: Vec<Resident> = c.residents.drain(..).flatten().collect();
            for r in &parked {
                r.gate.cancel.cancel();
                r.gate.wake.notify_one();
            }
            let exited = std::mem::take(&mut c.exited);
            parked.into_iter().map(|r| r.handle).chain(exited).collect()
        };
        for h in handles {
            let _ = h.join();
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
