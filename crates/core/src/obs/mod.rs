//! Query observability: per-operator profiling without touching the
//! iterator protocol.
//!
//! The profiler attributes the simulated machine's activity to individual
//! operator instances by *exclusive* (self) time, the way `perf` call-graph
//! leaves or PostgreSQL's per-node EXPLAIN ANALYZE instrumentation do.
//! Every operator built by [`crate::exec::build_executor`] under a profiled
//! [`crate::footprint::FootprintModel`] is wrapped in a [`ProfiledOp`]
//! decorator; on entry to and exit from each `open`/`next`/`close`/`rescan`
//! call the decorator snapshots the machine counters and the profiler
//! charges the delta since the previous boundary to whichever operator is
//! currently on top of the call stack. Summing the per-operator deltas
//! therefore reconstructs the whole-query counter delta *by construction* —
//! the conservation property the integration tests pin down.
//!
//! Crucially, the profiler performs no simulated work itself: it reads
//! counters but never executes code regions, branches or data accesses, so
//! a profiled run retires the same modeled instructions as an unprofiled
//! one (the buffer's "light-weight" claim extends to the instrumentation).

pub mod hist;
pub mod trace;

pub use hist::{Histogram, MetricsRegistry};
pub use trace::{TimedEvent, TraceEvent, TraceReport, TraceRing, TraceTrack, Tracer};

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::Operator;
use bufferdb_cachesim::PerfCounters;
use bufferdb_types::{Datum, Result, SchemaRef};

/// Identifier of one operator instance in a profiled plan. Ids are assigned
/// pre-order during executor construction (parent before children, children
/// in [`crate::plan::PlanNode::children`] order), so a pre-order walk of the
/// plan tree maps each node to its id without any side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsId(pub usize);

/// Which iterator call a profiling boundary belongs to.
#[derive(Debug, Clone, Copy)]
pub enum ObsEvent {
    /// `open` completed.
    Open,
    /// `next` completed; `produced` is whether it returned a tuple.
    Next {
        /// Whether the call yielded a tuple (vs. end-of-stream).
        produced: bool,
    },
    /// `close` completed.
    Close,
    /// `rescan` completed.
    Rescan,
}

/// Buffer-operator gauges: how the pointer array actually behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferGauges {
    /// Refill passes that stored at least one tuple.
    pub fills: u64,
    /// Total tuples stored across all fills.
    pub tuples_buffered: u64,
    /// Batches fully consumed by the parent (drain/refill cycles).
    pub drains: u64,
}

impl BufferGauges {
    /// Mean tuples per fill — how full the array gets in practice.
    pub fn avg_occupancy(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.tuples_buffered as f64 / self.fills as f64
        }
    }
}

/// Per-worker measurements of one exchange operator's lane.
#[derive(Debug, Clone, Default)]
pub struct ExchangeLane {
    /// Worker index within the exchange (0-based).
    pub worker: u64,
    /// Morsels the worker claimed.
    pub morsels: u64,
    /// Tuples the worker produced.
    pub rows: u64,
    /// Everything the worker's simulated core executed (whole lane, not
    /// split per operator — the per-operator split is merged into the
    /// subtree's [`OpStats`] by [`QueryProfiler::absorb_worker`]).
    pub counters: PerfCounters,
}

/// Everything measured for one operator instance.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Short operator label ("SeqScan(lineitem)", "Buffer(160)", …).
    pub label: String,
    /// `open` calls observed.
    pub opens: u64,
    /// `next` calls observed.
    pub next_calls: u64,
    /// Tuples produced (`next` calls that returned `Some`).
    pub rows: u64,
    /// `rescan` calls observed (inner side of a nested-loop join).
    pub rescans: u64,
    /// `close` calls observed.
    pub closes: u64,
    /// Exclusive simulated-counter delta attributed to this operator.
    pub counters: PerfCounters,
    /// Gather-wait residual, present only on exchange operators: what the
    /// workers' cores executed *outside* operator brackets (the bounded-queue
    /// hand-off between iterator calls). Kept out of `counters` so operator
    /// time stays operator time; [`QueryProfile::sum_op_counters`] adds it
    /// back, preserving conservation.
    pub gather_wait: PerfCounters,
    /// Buffer gauges, present only for buffer operators.
    pub buffer: Option<BufferGauges>,
    /// Per-worker lanes, present only for exchange operators.
    pub workers: Option<Vec<ExchangeLane>>,
}

/// The per-operator stats sink threaded through [`ExecContext`].
///
/// Operators never talk to it directly — [`ProfiledOp`] drives `enter`/
/// `exit`, and [`crate::exec::buffer::BufferOp`] reports its gauges through
/// the context's no-op-when-disabled helpers.
#[derive(Debug)]
pub struct QueryProfiler {
    ops: Vec<OpStats>,
    stack: Vec<ObsId>,
    last: PerfCounters,
}

impl QueryProfiler {
    /// A profiler expecting one operator per label, ids matching indices.
    pub fn new(labels: &[String]) -> Self {
        QueryProfiler {
            ops: labels
                .iter()
                .map(|l| OpStats {
                    label: l.clone(),
                    ..Default::default()
                })
                .collect(),
            stack: Vec::new(),
            last: PerfCounters::default(),
        }
    }

    /// Charge the counter delta since the previous boundary to the operator
    /// currently on top of the stack (drop it if the stack is empty — only
    /// possible before the root's `open`, when nothing has run yet).
    fn charge(&mut self, now: PerfCounters) {
        let delta = now - self.last;
        self.last = now;
        if let Some(&ObsId(top)) = self.stack.last() {
            self.ops[top].counters = self.ops[top].counters + delta;
        }
    }

    /// An operator call begins: charge the gap to the caller, push callee.
    pub fn enter(&mut self, id: ObsId, now: PerfCounters) {
        self.charge(now);
        self.stack.push(id);
    }

    /// An operator call ends: charge its self-time, pop, record the event.
    pub fn exit(&mut self, id: ObsId, event: ObsEvent, now: PerfCounters) {
        self.charge(now);
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "profiler enter/exit mismatch");
        let op = &mut self.ops[id.0];
        match event {
            ObsEvent::Open => op.opens += 1,
            ObsEvent::Next { produced } => {
                op.next_calls += 1;
                op.rows += produced as u64;
            }
            ObsEvent::Close => op.closes += 1,
            ObsEvent::Rescan => op.rescans += 1,
        }
    }

    /// A buffer refill pass stored `stored` tuples.
    pub fn buffer_fill(&mut self, id: ObsId, stored: u64) {
        let g = self.ops[id.0]
            .buffer
            .get_or_insert_with(BufferGauges::default);
        g.fills += 1;
        g.tuples_buffered += stored;
    }

    /// A buffered batch was fully consumed by the parent.
    pub fn buffer_drain(&mut self, id: ObsId) {
        let g = self.ops[id.0]
            .buffer
            .get_or_insert_with(BufferGauges::default);
        g.drains += 1;
    }

    /// Merge a worker's finished profile into this one.
    ///
    /// The worker executed a copy of the exchange's subtree, whose operators
    /// were registered in this profiler starting at `base` (the exchange's
    /// own id plus one — worker trees are registered in the same pre-order).
    /// Each worker operator's stats fold into the corresponding subtree slot;
    /// whatever the worker's core executed *outside* operator brackets (the
    /// queue hand-off between iterator calls) is the lane residual, recorded
    /// on the exchange operator's explicit [`OpStats::gather_wait`] bucket —
    /// not folded into its operator time.
    ///
    /// The caller must absorb `worker.total` into the coordinating machine
    /// (see `Machine::absorb`) in the same bracket; advancing `last` here by
    /// the same amount keeps that snapshot jump from being double-charged to
    /// whichever operator is on the stack. Conservation is preserved exactly:
    /// the op sum and the final total both grow by `worker.total`.
    pub fn absorb_worker(&mut self, base: usize, exchange: ObsId, worker: &QueryProfile) {
        let mut attributed = PerfCounters::default();
        for (i, wop) in worker.ops.iter().enumerate() {
            let op = &mut self.ops[base + i];
            op.opens += wop.opens;
            op.next_calls += wop.next_calls;
            op.rows += wop.rows;
            op.rescans += wop.rescans;
            op.closes += wop.closes;
            op.counters = op.counters + wop.counters;
            if let Some(wg) = &wop.buffer {
                let g = op.buffer.get_or_insert_with(BufferGauges::default);
                g.fills += wg.fills;
                g.tuples_buffered += wg.tuples_buffered;
                g.drains += wg.drains;
            }
            attributed = attributed + wop.counters;
        }
        let ex = &mut self.ops[exchange.0];
        ex.gather_wait = ex.gather_wait + (worker.total - attributed);
        self.last = self.last + worker.total;
    }

    /// Record one worker lane's gauges on an exchange operator.
    pub fn exchange_lane(&mut self, id: ObsId, lane: ExchangeLane) {
        self.ops[id.0]
            .workers
            .get_or_insert_with(Vec::new)
            .push(lane);
    }

    /// Seal the profile with the final whole-query counter snapshot.
    pub fn finish(mut self, total: PerfCounters) -> QueryProfile {
        self.charge(total);
        debug_assert!(self.stack.is_empty(), "profiler stack not unwound");
        QueryProfile {
            ops: self.ops,
            total,
        }
    }

    /// Re-base the profiler at `now` without charging the delta to anyone.
    ///
    /// A server worker's machine runs *other* queries' morsels between two
    /// units of this query; the counters those units retire must not land
    /// on whichever of this query's operators is on the stack. The unit
    /// boundary calls `resync` with the machine snapshot at hand-back so
    /// only this query's own execution is ever charged.
    pub fn resync(&mut self, now: PerfCounters) {
        self.last = now;
    }

    /// Seal the profile with an externally accounted total, charging
    /// nothing. Used when the total is assembled from per-unit snapshot
    /// deltas (server execution) rather than one final machine snapshot.
    pub fn seal(self, total: PerfCounters) -> QueryProfile {
        debug_assert!(self.stack.is_empty(), "profiler stack not unwound");
        QueryProfile {
            ops: self.ops,
            total,
        }
    }
}

/// The finished per-operator profile of one query execution.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Per-operator stats, indexed by [`ObsId`] (pre-order plan position).
    pub ops: Vec<OpStats>,
    /// Whole-query counter delta (equals the sum of `ops` deltas).
    pub total: PerfCounters,
}

impl QueryProfile {
    /// Stats for one operator.
    pub fn op(&self, id: ObsId) -> &OpStats {
        &self.ops[id.0]
    }

    /// Field-wise sum of every operator's exclusive delta plus the
    /// exchange gather-wait residuals. Equals [`QueryProfile::total`] —
    /// the conservation invariant.
    pub fn sum_op_counters(&self) -> PerfCounters {
        self.ops.iter().fold(PerfCounters::default(), |acc, op| {
            acc + op.counters + op.gather_wait
        })
    }

    /// Field-wise sum of every operator's gather-wait residual (non-zero
    /// only on exchange operators).
    pub fn gather_wait_total(&self) -> PerfCounters {
        self.ops
            .iter()
            .fold(PerfCounters::default(), |acc, op| acc + op.gather_wait)
    }

    /// This operator's share of whole-query L1i misses in [0, 1].
    pub fn l1i_share(&self, id: ObsId) -> f64 {
        if self.total.l1i_misses == 0 {
            0.0
        } else {
            self.op(id).counters.l1i_misses as f64 / self.total.l1i_misses as f64
        }
    }
}

/// Transparent profiling decorator around any operator.
///
/// Forwards the full iterator protocol unchanged and brackets each call
/// with counter snapshots. Because it never touches the machine, wrapping
/// is free in modeled cost.
pub struct ProfiledOp {
    id: ObsId,
    inner: Box<dyn Operator>,
}

impl ProfiledOp {
    /// Wrap `inner`, reporting as operator `id`.
    pub fn new(id: ObsId, inner: Box<dyn Operator>) -> Self {
        ProfiledOp { id, inner }
    }
}

impl Operator for ProfiledOp {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        ctx.obs_enter(self.id);
        let r = self.inner.open(ctx);
        ctx.obs_exit(self.id, ObsEvent::Open);
        r
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.obs_enter(self.id);
        let r = self.inner.next(ctx);
        let produced = matches!(r, Ok(Some(_)));
        ctx.obs_exit(self.id, ObsEvent::Next { produced });
        r
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        ctx.obs_enter(self.id);
        let r = self.inner.close(ctx);
        ctx.obs_exit(self.id, ObsEvent::Close);
        r
    }

    fn rescan(&mut self, ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        ctx.obs_enter(self.id);
        let r = self.inner.rescan(ctx, param);
        ctx.obs_exit(self.id, ObsEvent::Rescan);
        r
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.inner.set_batch_hint(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(instr: u64, l1i: u64) -> PerfCounters {
        PerfCounters {
            instructions: instr,
            l1i_misses: l1i,
            ..Default::default()
        }
    }

    #[test]
    fn exclusive_attribution_is_conservative() {
        // parent enter -> child enter -> child exit -> parent exit: the
        // child's self-time is carved out of the parent's bracket.
        let labels = vec!["parent".to_string(), "child".to_string()];
        let mut p = QueryProfiler::new(&labels);
        p.enter(ObsId(0), counters(0, 0));
        p.enter(ObsId(1), counters(10, 1)); // parent ran 10 instr before child
        p.exit(ObsId(1), ObsEvent::Next { produced: true }, counters(30, 4));
        p.exit(ObsId(0), ObsEvent::Next { produced: true }, counters(35, 4));
        let profile = p.finish(counters(35, 4));
        assert_eq!(profile.op(ObsId(0)).counters.instructions, 15); // 10 + 5
        assert_eq!(profile.op(ObsId(1)).counters.instructions, 20);
        assert_eq!(profile.op(ObsId(1)).counters.l1i_misses, 3);
        assert_eq!(profile.sum_op_counters(), profile.total);
    }

    #[test]
    fn events_are_counted_per_operator() {
        let labels = vec!["op".to_string()];
        let mut p = QueryProfiler::new(&labels);
        let c = PerfCounters::default();
        p.enter(ObsId(0), c);
        p.exit(ObsId(0), ObsEvent::Open, c);
        for produced in [true, true, false] {
            p.enter(ObsId(0), c);
            p.exit(ObsId(0), ObsEvent::Next { produced }, c);
        }
        p.enter(ObsId(0), c);
        p.exit(ObsId(0), ObsEvent::Rescan, c);
        p.enter(ObsId(0), c);
        p.exit(ObsId(0), ObsEvent::Close, c);
        let profile = p.finish(c);
        let op = profile.op(ObsId(0));
        assert_eq!(op.opens, 1);
        assert_eq!(op.next_calls, 3);
        assert_eq!(op.rows, 2);
        assert_eq!(op.rescans, 1);
        assert_eq!(op.closes, 1);
    }

    #[test]
    fn buffer_gauges_accumulate() {
        let labels = vec!["buf".to_string()];
        let mut p = QueryProfiler::new(&labels);
        p.buffer_fill(ObsId(0), 100);
        p.buffer_fill(ObsId(0), 50);
        p.buffer_drain(ObsId(0));
        let profile = p.finish(PerfCounters::default());
        let g = profile.op(ObsId(0)).buffer.expect("gauges");
        assert_eq!(g.fills, 2);
        assert_eq!(g.tuples_buffered, 150);
        assert_eq!(g.drains, 1);
        assert!((g.avg_occupancy() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn l1i_share_handles_zero_total() {
        let p = QueryProfiler::new(&["x".to_string()]);
        let profile = p.finish(PerfCounters::default());
        assert_eq!(profile.l1i_share(ObsId(0)), 0.0);
    }
}
