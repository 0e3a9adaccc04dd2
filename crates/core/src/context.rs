//! Execution context threaded through every operator call.

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::exec::exchange::ExchangeDelegate;
use crate::fault::FaultRegistry;
use crate::obs::trace::{TraceEvent, Tracer};
use crate::obs::{ExchangeLane, ObsEvent, ObsId, QueryProfile, QueryProfiler};
use bufferdb_cachesim::{Machine, MachineConfig, PerfCounters};
use bufferdb_types::Result;
use std::sync::Arc;

/// Per-query execution state: the simulated machine and the tuple arena.
///
/// Operators receive `&mut ExecContext` on every `open`/`next`/`close` call,
/// mirroring PostgreSQL's `EState`.
pub struct ExecContext {
    /// The simulated CPU (caches, predictor, counters).
    pub machine: Machine,
    /// Intermediate tuple storage.
    pub arena: TupleArena,
    /// Per-operator stats sink; `None` (the default) makes every `obs_*`
    /// helper a no-op, so unprofiled runs pay nothing.
    pub profiler: Option<QueryProfiler>,
    /// Row-range morsel handed to a worker pipeline by an exchange operator;
    /// the driving leaf scan claims it (`take`) at `open` and restricts
    /// itself to rows in `[lo, hi)`.
    pub morsel: Option<(u32, u32)>,
    /// Cooperative cancellation flag, checked at morsel-claim, buffer-fill
    /// and blocking-operator loop boundaries. Cloned into worker contexts so
    /// one token stops the whole pool.
    pub cancel: CancelToken,
    /// Fault-injection sites (empty and free in production; see
    /// [`crate::fault`]). Shared with worker contexts so hit counts are
    /// pool-global.
    pub faults: Arc<FaultRegistry>,
    /// Flight-recorder handle; `None` (the default) makes every `trace_*`
    /// helper a no-op, so untraced runs pay nothing (see
    /// [`crate::obs::trace`]).
    pub tracer: Option<Tracer>,
    /// Server-side phase scheduler. When installed (by
    /// [`crate::server`] drive runners), exchange operators hand their
    /// parallel phases to it instead of spawning per-query scoped threads.
    pub(crate) delegate: Option<Box<dyn ExchangeDelegate>>,
    /// Cooperative time-slicer for multi-query cores. When installed (by
    /// the virtual server's session core), drive-side blocking loops call
    /// [`ExecContext::tuple_yield`] once per tuple; the slicer decides when
    /// the quantum is up and parks this query so another resident query can
    /// run on the same simulated machine. `None` (the default) costs one
    /// branch per tuple.
    pub(crate) slicer: Option<Box<dyn CoreSlicer>>,
}

/// Cooperative time-slicing hook for queries sharing one simulated core.
///
/// Installed into the drive context by the virtual server. The single
/// method is called at tuple boundaries of every blocking drive-side loop;
/// the implementation tracks the cycle quantum and, when it expires, hands
/// the machine back to the scheduler and blocks until this query's next
/// turn. The machine handed back on resume is the same core with *other
/// queries'* L1i state layered on top — that displacement is the modeled
/// cross-query interference.
pub trait CoreSlicer: Send {
    /// Yield the core if the quantum expired. On resume the implementation
    /// must re-base `profiler` (if present) so counters retired by other
    /// queries during the gap are not charged to this query's operators.
    fn maybe_yield(&mut self, machine: &mut Machine, profiler: Option<&mut QueryProfiler>);
}

impl ExecContext {
    /// Fresh context for one query under the given machine configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        ExecContext {
            machine: Machine::new(cfg),
            arena: TupleArena::new(),
            profiler: None,
            morsel: None,
            cancel: CancelToken::new(),
            faults: Arc::new(FaultRegistry::new()),
            tracer: None,
            delegate: None,
            slicer: None,
        }
    }

    /// Fresh context for an exchange lane: same machine configuration,
    /// sharing the coordinator's cancel token and fault registry.
    pub fn for_worker(
        cfg: MachineConfig,
        parent_cancel: &CancelToken,
        parent_faults: &Arc<FaultRegistry>,
    ) -> Self {
        let mut ctx = ExecContext::new(cfg);
        ctx.cancel = parent_cancel.clone();
        ctx.faults = Arc::clone(parent_faults);
        ctx
    }

    /// Fail with [`bufferdb_types::DbError::Cancelled`] if the query's
    /// cancel token fired. Called at granule boundaries, never per tuple.
    /// A fired cancellation is recorded on the flight recorder.
    pub fn check_cancel(&mut self) -> Result<()> {
        let r = self.cancel.check();
        if r.is_err() {
            self.trace(TraceEvent::CancelObserved);
        }
        r
    }

    /// Pass through the named fault-injection site (no-op unless armed).
    /// A tripped fault is recorded on the flight recorder.
    pub fn fault(&mut self, site: &str) -> Result<()> {
        let r = self.faults.hit(site);
        if r.is_err() && self.tracer.is_some() {
            self.trace(TraceEvent::FaultTrip { site: site.into() });
        }
        r
    }

    /// Whether a flight recorder is attached (gate for any tracing work
    /// that needs preparation, e.g. snapshotting counters before a span).
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Nanoseconds on the trace clock, or 0 when tracing is off.
    pub fn trace_now(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::now_ns)
    }

    /// Record a flight-recorder event (no-op when tracing is off).
    pub fn trace(&mut self, event: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(event);
        }
    }

    /// Record a histogram sample (no-op when tracing is off; see
    /// [`crate::obs::hist`] for metric names).
    pub fn trace_metric(&mut self, name: &str, v: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.metric(name, v);
        }
    }

    /// Tuple-boundary yield point for drive-side blocking loops (aggregate
    /// consume, sort fill, hash build, exchange drain, buffer refill). A
    /// no-op — one branch — unless a [`CoreSlicer`] is installed by the
    /// virtual server's session core.
    #[inline]
    pub fn tuple_yield(&mut self) {
        let ExecContext {
            slicer,
            machine,
            profiler,
            ..
        } = self;
        if let Some(s) = slicer.as_mut() {
            s.maybe_yield(machine, profiler.as_mut());
        }
    }

    /// Fold a joined worker's tracer into this context's recorder
    /// (no-op when either side is untraced).
    pub fn absorb_trace(&mut self, worker: Option<Tracer>) {
        if let (Some(t), Some(w)) = (self.tracer.as_mut(), worker) {
            t.absorb(w);
        }
    }

    /// Merge one exchange worker's results into this context: the worker
    /// core's counters into the machine, and (when profiling) the worker's
    /// per-operator profile into the query profiler plus a lane record on
    /// the exchange operator. `child_base` is the profiler id of the
    /// exchange subtree's root.
    pub fn absorb_worker(
        &mut self,
        exchange: Option<ObsId>,
        child_base: usize,
        counters: PerfCounters,
        profile: Option<&QueryProfile>,
        lane: ExchangeLane,
    ) {
        self.machine.absorb(&counters);
        self.absorb_lane_profile(exchange, child_base, profile, lane);
    }

    /// The profiler half of [`ExecContext::absorb_worker`], without folding
    /// counters into this context's machine. Server lanes run on long-lived
    /// pool-worker machines whose counters stay where they accrued; only the
    /// per-query attribution migrates to the coordinating profiler.
    pub(crate) fn absorb_lane_profile(
        &mut self,
        exchange: Option<ObsId>,
        child_base: usize,
        profile: Option<&QueryProfile>,
        lane: ExchangeLane,
    ) {
        if let (Some(id), Some(p)) = (exchange, self.profiler.as_mut()) {
            if let Some(wp) = profile {
                p.absorb_worker(child_base, id, wp);
            }
            p.exchange_lane(id, lane);
        }
    }

    /// Record entry into operator `id` (called by the profiling decorator).
    pub fn obs_enter(&mut self, id: ObsId) {
        if let Some(p) = self.profiler.as_mut() {
            p.enter(id, self.machine.snapshot());
        }
    }

    /// Record exit from operator `id` with what the call did.
    pub fn obs_exit(&mut self, id: ObsId, event: ObsEvent) {
        if let Some(p) = self.profiler.as_mut() {
            p.exit(id, event, self.machine.snapshot());
        }
    }

    /// A buffer operator finished a refill pass that stored `stored` tuples.
    pub fn obs_buffer_fill(&mut self, id: Option<ObsId>, stored: u64) {
        if let (Some(id), Some(p)) = (id, self.profiler.as_mut()) {
            p.buffer_fill(id, stored);
        }
    }

    /// A buffer operator's batch was fully consumed.
    pub fn obs_buffer_drain(&mut self, id: Option<ObsId>) {
        if let (Some(id), Some(p)) = (id, self.profiler.as_mut()) {
            p.buffer_drain(id);
        }
    }
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("counters", &self.machine.snapshot())
            .field("regions", &self.arena.region_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_has_clean_counters() {
        let ctx = ExecContext::new(MachineConfig::pentium4_like());
        let c = ctx.machine.snapshot();
        assert_eq!(c.instructions, 0);
        assert_eq!(ctx.arena.region_count(), 0);
    }
}
