//! The flight recorder: per-worker event rings, end-of-query merge, and
//! the Perfetto/terminal renderers.
//!
//! Each execution thread (coordinator, exchange workers) owns a private
//! [`TraceRing`] — a fixed-size, power-of-two ring of timestamped
//! [`TraceEvent`]s. Writes are single-producer and wait-free: one slot
//! store plus a release-ordered cursor bump, overwriting the oldest event
//! when full and *counting* the overflow instead of ever blocking the hot
//! path. Rings merge at query end (workers hand their [`Tracer`] back with
//! their counters, exactly like profiler absorption) into a
//! [`TraceReport`] carried on `QueryOutcome`.
//!
//! Like the profiler, the recorder executes no simulated code regions: a
//! traced run retires the same modeled instructions as an untraced one. The
//! only cost is real (host) time, bounded by a few stores per event.

use crate::obs::hist::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default per-ring capacity in events (power of two).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// The monotonic time base shared by every ring of one query execution.
///
/// Workers copy the coordinator's clock so all tracks share one origin;
/// timestamps are nanoseconds since that origin.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    origin: Instant,
}

impl TraceClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        TraceClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for TraceClock {
    fn default() -> Self {
        TraceClock::new()
    }
}

/// One typed flight-recorder event.
///
/// Duration-shaped events carry their own `start_ns`, so a span never needs
/// a matching begin event to survive ring overflow — whatever is left in
/// the ring renders standalone.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A worker claimed morsel `morsel` covering rows `[lo, hi)`.
    MorselClaim {
        /// Morsel index in scan order.
        morsel: u32,
        /// First row of the morsel.
        lo: u32,
        /// One past the last row of the morsel.
        hi: u32,
    },
    /// A claimed morsel ran to completion (span since `start_ns`).
    MorselComplete {
        /// Morsel index in scan order.
        morsel: u32,
        /// Tuples the morsel produced into the gather queue.
        rows: u64,
        /// Timestamp of the corresponding claim.
        start_ns: u64,
    },
    /// A claimed morsel terminated abnormally (error, cancel, or panic).
    MorselAbort {
        /// Morsel index in scan order.
        morsel: u32,
    },
    /// A buffer refill pass finished (span since `start_ns`).
    FillEnd {
        /// Operator id ([`crate::obs::ObsId`]) of the buffer, `u32::MAX`
        /// when the plan is unprofiled.
        op: u32,
        /// Tuples stored by this fill.
        rows: u64,
        /// Simulated L1i misses charged while filling this granule.
        l1i_misses: u64,
        /// Timestamp at fill start.
        start_ns: u64,
    },
    /// The parent fully consumed a buffered batch.
    DrainEnd {
        /// Operator id of the buffer, `u32::MAX` when unprofiled.
        op: u32,
        /// Tuples that were resident when the drain completed.
        occupancy: u64,
    },
    /// A lane handed a morsel's output to the gather.
    GatherEnqueue {
        /// Morsel index in scan order.
        morsel: u32,
        /// Tuples sent for this morsel.
        rows: u64,
    },
    /// Adaptive refinement installed a new plan generation.
    AdaptInstall {
        /// Generation number after the install.
        generation: u64,
        /// Buffer operators in the installed plan.
        buffers: u64,
    },
    /// A pending adaptation was validated against its first clean run.
    AdaptValidate {
        /// Whether the validation measured a regression.
        regressed: bool,
    },
    /// Adaptive refinement rolled back to the prior plan.
    AdaptRollback,
    /// Adaptation froze this plan-cache entry (no further attempts).
    AdaptFreeze,
    /// A fault-injection site tripped.
    FaultTrip {
        /// The site name (e.g. `buffer.fill`).
        site: String,
    },
    /// A cancellation (explicit or deadline) was observed at a check point.
    CancelObserved,
    /// A panic was contained on this track (`catch_unwind`).
    WorkerPanic,
    /// A query waited for admission + its first core grant (span since
    /// `start_ns` = arrival). Server flight recorder only.
    QueryWait {
        /// Submission id.
        query: u64,
        /// Arrival timestamp (span start).
        start_ns: u64,
    },
    /// A query's drive ran start to finish (span since `start_ns` = first
    /// grant). Server flight recorder only.
    QueryRun {
        /// Submission id.
        query: u64,
        /// Result rows produced.
        rows: u64,
        /// Whether the drive completed cleanly.
        ok: bool,
        /// First-grant timestamp (span start).
        start_ns: u64,
    },
    /// One session-core quantum turn (span since `start_ns` = grant).
    /// Each turn switches the shared machine to another resident's code
    /// footprint; `cross_misses` is the L1i displacement this turn paid
    /// for lines other queries evicted. Server flight recorder only.
    CoreTurn {
        /// The running query's cross-query attribution tag.
        tag: u32,
        /// Cross-query L1i misses charged during this turn.
        cross_misses: u64,
        /// Grant timestamp (span start).
        start_ns: u64,
    },
}

/// Internal: one argument value for the Perfetto `args` object.
enum Arg {
    U(u64),
    B(bool),
    S(String),
}

impl TraceEvent {
    /// Stable dotted event name, used as the Perfetto event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::MorselClaim { .. } => "morsel.claim",
            TraceEvent::MorselComplete { .. } => "morsel.run",
            TraceEvent::MorselAbort { .. } => "morsel.abort",
            TraceEvent::FillEnd { .. } => "buffer.fill",
            TraceEvent::DrainEnd { .. } => "buffer.drain",
            TraceEvent::GatherEnqueue { .. } => "gather.enqueue",
            TraceEvent::AdaptInstall { .. } => "adapt.install",
            TraceEvent::AdaptValidate { .. } => "adapt.validate",
            TraceEvent::AdaptRollback => "adapt.rollback",
            TraceEvent::AdaptFreeze => "adapt.freeze",
            TraceEvent::FaultTrip { .. } => "fault.trip",
            TraceEvent::CancelObserved => "cancel.observed",
            TraceEvent::WorkerPanic => "worker.panic",
            TraceEvent::QueryWait { .. } => "query.wait",
            TraceEvent::QueryRun { .. } => "query.run",
            TraceEvent::CoreTurn { .. } => "core.turn",
        }
    }

    /// For duration-shaped events, the embedded start timestamp.
    pub fn span_start_ns(&self) -> Option<u64> {
        match self {
            TraceEvent::MorselComplete { start_ns, .. }
            | TraceEvent::FillEnd { start_ns, .. }
            | TraceEvent::QueryWait { start_ns, .. }
            | TraceEvent::QueryRun { start_ns, .. }
            | TraceEvent::CoreTurn { start_ns, .. } => Some(*start_ns),
            _ => None,
        }
    }

    fn args(&self) -> Vec<(&'static str, Arg)> {
        match self {
            TraceEvent::MorselClaim { morsel, lo, hi } => vec![
                ("morsel", Arg::U(*morsel as u64)),
                ("lo", Arg::U(*lo as u64)),
                ("hi", Arg::U(*hi as u64)),
            ],
            TraceEvent::MorselComplete { morsel, rows, .. } => {
                vec![("morsel", Arg::U(*morsel as u64)), ("rows", Arg::U(*rows))]
            }
            TraceEvent::MorselAbort { morsel } => vec![("morsel", Arg::U(*morsel as u64))],
            TraceEvent::FillEnd {
                op,
                rows,
                l1i_misses,
                ..
            } => vec![
                ("op", Arg::U(*op as u64)),
                ("rows", Arg::U(*rows)),
                ("l1i_misses", Arg::U(*l1i_misses)),
            ],
            TraceEvent::DrainEnd { op, occupancy } => vec![
                ("op", Arg::U(*op as u64)),
                ("occupancy", Arg::U(*occupancy)),
            ],
            TraceEvent::GatherEnqueue { morsel, rows } => {
                vec![("morsel", Arg::U(*morsel as u64)), ("rows", Arg::U(*rows))]
            }
            TraceEvent::AdaptInstall {
                generation,
                buffers,
            } => vec![
                ("generation", Arg::U(*generation)),
                ("buffers", Arg::U(*buffers)),
            ],
            TraceEvent::AdaptValidate { regressed } => vec![("regressed", Arg::B(*regressed))],
            TraceEvent::AdaptRollback | TraceEvent::AdaptFreeze => vec![],
            TraceEvent::FaultTrip { site } => vec![("site", Arg::S(site.clone()))],
            TraceEvent::CancelObserved | TraceEvent::WorkerPanic => vec![],
            TraceEvent::QueryWait { query, .. } => vec![("query", Arg::U(*query))],
            TraceEvent::QueryRun {
                query, rows, ok, ..
            } => vec![
                ("query", Arg::U(*query)),
                ("rows", Arg::U(*rows)),
                ("ok", Arg::B(*ok)),
            ],
            TraceEvent::CoreTurn {
                tag, cross_misses, ..
            } => vec![
                ("tag", Arg::U(*tag as u64)),
                ("cross_misses", Arg::U(*cross_misses)),
            ],
        }
    }
}

/// A timestamped event (nanoseconds since the query's [`TraceClock`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the clock origin.
    pub ts_ns: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A fixed-capacity, single-writer event ring.
///
/// Capacity is rounded up to a power of two; the write cursor is an
/// [`AtomicU64`] bumped with release ordering after the slot store
/// (seqlock-style publication), so recording is a handful of instructions,
/// never allocates after warm-up, and never blocks. When full, the oldest
/// event is overwritten and the loss shows up in [`TraceRing::dropped`].
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<TimedEvent>,
    mask: u64,
    cursor: AtomicU64,
}

impl TraceRing {
    /// A ring with [`DEFAULT_RING_CAPACITY`] slots.
    pub fn new() -> Self {
        TraceRing::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A ring with at least `cap` slots (rounded up to a power of two).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        TraceRing {
            slots: Vec::with_capacity(cap),
            mask: (cap as u64) - 1,
            cursor: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Record one event, overwriting the oldest when full.
    pub fn push(&mut self, ev: TimedEvent) {
        let cur = self.cursor.load(Ordering::Relaxed);
        let idx = (cur & self.mask) as usize;
        if idx < self.slots.len() {
            self.slots[idx] = ev;
        } else {
            self.slots.push(ev);
        }
        self.cursor.store(cur + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        let cur = self.recorded();
        if cur <= self.capacity() as u64 {
            return self.slots.clone();
        }
        let start = (cur & self.mask) as usize;
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[start..]);
        out.extend_from_slice(&self.slots[..start]);
        out
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new()
    }
}

/// One finished track of the merged trace: a named thread's retained
/// events plus its overflow accounting.
#[derive(Debug, Clone)]
pub struct TraceTrack {
    /// Track name (`coordinator`, `worker-0`, `worker-1`, …).
    pub name: String,
    /// Retained events, oldest first.
    pub events: Vec<TimedEvent>,
    /// Total events ever recorded on this track.
    pub recorded: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

impl TraceTrack {
    /// Seal a ring into a finished track (used by the per-query tracer and
    /// by the server flight recorder, whose rings live outside any tracer).
    pub fn from_ring(name: String, ring: TraceRing) -> Self {
        TraceTrack {
            events: ring.events(),
            recorded: ring.recorded(),
            dropped: ring.dropped(),
            name,
        }
    }
}

/// One thread's handle on the flight recorder: a ring, the shared clock,
/// and a private metrics registry; absorbed worker tracers accumulate as
/// finished tracks.
#[derive(Debug)]
pub struct Tracer {
    clock: TraceClock,
    name: String,
    ring: TraceRing,
    finished: Vec<TraceTrack>,
    metrics: MetricsRegistry,
}

impl Tracer {
    /// A fresh tracer (and clock) named `name`, default ring capacity.
    pub fn new(name: &str) -> Self {
        Tracer::with_capacity(name, DEFAULT_RING_CAPACITY)
    }

    /// A fresh tracer with an explicit ring capacity.
    pub fn with_capacity(name: &str, cap: usize) -> Self {
        Tracer {
            clock: TraceClock::new(),
            name: name.to_string(),
            ring: TraceRing::with_capacity(cap),
            finished: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A tracer for a spawned worker: same clock (shared time base), same
    /// ring capacity, empty ring and metrics. Hand it back via
    /// [`Tracer::absorb`] when the worker joins.
    pub fn for_worker(&self, name: String) -> Tracer {
        Tracer {
            clock: self.clock,
            name,
            ring: TraceRing::with_capacity(self.ring.capacity()),
            finished: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Nanoseconds since the shared clock origin.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record `event` stamped now.
    pub fn record(&mut self, event: TraceEvent) {
        let ts_ns = self.now_ns();
        self.record_at(ts_ns, event);
    }

    /// Record `event` with an explicit timestamp.
    pub fn record_at(&mut self, ts_ns: u64, event: TraceEvent) {
        self.ring.push(TimedEvent { ts_ns, event });
    }

    /// Record one histogram sample (see [`crate::obs::hist`] metric names).
    pub fn metric(&mut self, name: &str, v: u64) {
        self.metrics.record(name, v);
    }

    /// Merge a joined worker's tracer: its ring becomes a finished track,
    /// its own finished tracks chain along, and
    /// its metrics fold into ours.
    pub fn absorb(&mut self, worker: Tracer) {
        let Tracer {
            name,
            ring,
            finished,
            metrics,
            ..
        } = worker;
        self.metrics.merge(&metrics);
        self.finished.push(TraceTrack::from_ring(name, ring));
        self.finished.extend(finished);
    }

    /// Seal the recorder into a [`TraceReport`]; this tracer's own ring
    /// becomes the first track.
    pub fn finish(self) -> TraceReport {
        let Tracer {
            clock,
            name,
            ring,
            finished,
            metrics,
        } = self;
        let mut tracks = vec![TraceTrack::from_ring(name, ring)];
        tracks.extend(finished);
        TraceReport {
            tracks,
            instants: Vec::new(),
            metrics,
            clock,
        }
    }
}

/// The merged flight-recorder output of one query execution.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-thread tracks; index 0 is the coordinator.
    pub tracks: Vec<TraceTrack>,
    /// Query-level instants recorded after execution (adaptivity
    /// decisions), on their own Perfetto track.
    pub instants: Vec<TimedEvent>,
    /// Merged histogram metrics from every track.
    pub metrics: MetricsRegistry,
    clock: TraceClock,
}

impl TraceReport {
    /// Assemble a report from externally built tracks — the server flight
    /// recorder stamps its rings with virtual (or wall) time itself, so the
    /// report's clock is fresh and only used for later `record_instant`s.
    pub fn from_tracks(tracks: Vec<TraceTrack>) -> Self {
        TraceReport {
            tracks,
            instants: Vec::new(),
            metrics: MetricsRegistry::new(),
            clock: TraceClock::new(),
        }
    }

    /// Record a query-level instant stamped now (the report keeps the
    /// execution's clock, so post-execution decisions — plan-cache installs,
    /// rollbacks — land on the same time base).
    pub fn record_instant(&mut self, event: TraceEvent) {
        self.instants.push(TimedEvent {
            ts_ns: self.clock.now_ns(),
            event,
        });
    }

    /// Total events recorded across all tracks (including dropped ones).
    pub fn events_recorded(&self) -> u64 {
        self.tracks.iter().map(|t| t.recorded).sum()
    }

    /// Total events lost to ring overflow across all tracks.
    pub fn events_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// The track named `name`, if present.
    pub fn track(&self, name: &str) -> Option<&TraceTrack> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// Render as Chrome/Perfetto trace-event JSON (catapult format): one
    /// `thread_name`-labelled track per recorded thread, duration (`"X"`)
    /// events for spans, instants (`"i"`) otherwise, and adaptivity
    /// decisions as global instants on a dedicated track. Timestamps are
    /// microseconds with nanosecond fraction.
    pub fn perfetto_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for (tid, track) in self.tracks.iter().enumerate() {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(&track.name)
                ),
                &mut out,
            );
            for ev in &track.events {
                emit(render_event(ev, tid, false), &mut out);
            }
        }
        if !self.instants.is_empty() {
            let tid = self.tracks.len();
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"adaptivity\"}}}}"
                ),
                &mut out,
            );
            for ev in &self.instants {
                emit(render_event(ev, tid, true), &mut out);
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// A terminal timeline: per-track activity strips on a shared time
    /// axis, morsel/fill/drain tallies, adaptivity instants, and histogram
    /// quantiles.
    pub fn summary(&self) -> String {
        const WIDTH: usize = 28;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for ev in self
            .tracks
            .iter()
            .flat_map(|t| t.events.iter())
            .chain(self.instants.iter())
        {
            let start = ev.event.span_start_ns().unwrap_or(ev.ts_ns);
            lo = lo.min(start);
            hi = hi.max(ev.ts_ns);
        }
        let span = if lo == u64::MAX { 0 } else { hi - lo };
        let mut s = format!(
            "flight recorder: {} tracks, {} events ({} dropped), span {:.3} ms\n",
            self.tracks.len(),
            self.events_recorded(),
            self.events_dropped(),
            span as f64 / 1e6,
        );
        let name_w = self
            .tracks
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(0)
            .max(11);
        for track in &self.tracks {
            let mut strip = ['.'; WIDTH];
            let mut claims = 0u64;
            let mut completes = 0u64;
            let mut aborts = 0u64;
            let mut fills = 0u64;
            let mut drains = 0u64;
            let mut faults = 0u64;
            let mut cancels = 0u64;
            let mut panics = 0u64;
            let mut waits = 0u64;
            let mut runs = 0u64;
            let mut turns = 0u64;
            let mut turn_cross = 0u64;
            for ev in &track.events {
                let a = ev.event.span_start_ns().unwrap_or(ev.ts_ns);
                let (ca, cb) = (col(a, lo, span, WIDTH), col(ev.ts_ns, lo, span, WIDTH));
                for c in strip.iter_mut().take(cb + 1).skip(ca) {
                    *c = '#';
                }
                match ev.event {
                    TraceEvent::MorselClaim { .. } => claims += 1,
                    TraceEvent::MorselComplete { .. } => completes += 1,
                    TraceEvent::MorselAbort { .. } => aborts += 1,
                    TraceEvent::FillEnd { .. } => fills += 1,
                    TraceEvent::DrainEnd { .. } => drains += 1,
                    TraceEvent::FaultTrip { .. } => faults += 1,
                    TraceEvent::CancelObserved => cancels += 1,
                    TraceEvent::WorkerPanic => panics += 1,
                    TraceEvent::QueryWait { .. } => waits += 1,
                    TraceEvent::QueryRun { .. } => runs += 1,
                    TraceEvent::CoreTurn { cross_misses, .. } => {
                        turns += 1;
                        turn_cross += cross_misses;
                    }
                    _ => {}
                }
            }
            let mut notes = Vec::new();
            if claims + completes + aborts > 0 {
                notes.push(format!(
                    "morsels {claims} claimed/{completes} ok/{aborts} aborted"
                ));
            }
            if fills + drains > 0 {
                notes.push(format!("fills {fills}, drains {drains}"));
            }
            if faults > 0 {
                notes.push(format!("faults {faults}"));
            }
            if cancels > 0 {
                notes.push(format!("cancel seen {cancels}"));
            }
            if panics > 0 {
                notes.push(format!("panics contained {panics}"));
            }
            if waits + runs > 0 {
                notes.push(format!("queries {waits} waited/{runs} ran"));
            }
            if turns > 0 {
                notes.push(format!("turns {turns} ({turn_cross} cross misses)"));
            }
            let notes = if notes.is_empty() {
                String::new()
            } else {
                format!("  {}", notes.join(", "))
            };
            s.push_str(&format!(
                "  {:<name_w$} |{}| {} ev{}\n",
                track.name,
                strip.iter().collect::<String>(),
                track.events.len(),
                notes,
            ));
        }
        for ev in &self.instants {
            s.push_str(&format!(
                "  adaptivity @{:>9.3} ms  {:?}\n",
                ev.ts_ns as f64 / 1e6,
                ev.event
            ));
        }
        let sums = self.metrics.summaries();
        if !sums.is_empty() {
            s.push_str("  histograms (p50/p95/p99/max):\n");
            for (name, h) in sums {
                s.push_str(&format!(
                    "    {:<22} n={:<7} {} / {} / {} / {}\n",
                    name, h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        s
    }
}

/// Map a timestamp to a strip column.
fn col(ts: u64, lo: u64, span: u64, width: usize) -> usize {
    if span == 0 {
        0
    } else {
        (((ts - lo) as u128 * (width as u128 - 1)) / span as u128) as usize
    }
}

fn render_event(ev: &TimedEvent, tid: usize, global: bool) -> String {
    let name = ev.event.name();
    let mut args = String::new();
    for (i, (k, v)) in ev.event.args().iter().enumerate() {
        if i > 0 {
            args.push(',');
        }
        match v {
            Arg::U(u) => args.push_str(&format!("\"{k}\":{u}")),
            Arg::B(b) => args.push_str(&format!("\"{k}\":{b}")),
            Arg::S(s) => args.push_str(&format!("\"{k}\":\"{}\"", json_escape(s))),
        }
    }
    let ts_us = |ns: u64| format!("{:.3}", ns as f64 / 1000.0);
    match ev.event.span_start_ns() {
        Some(start) => format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"ts\":{},\
             \"dur\":{},\"args\":{{{args}}}}}",
            ts_us(start),
            ts_us(ev.ts_ns.saturating_sub(start)),
        ),
        None => format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"ts\":{},\
             \"s\":\"{}\",\"args\":{{{args}}}}}",
            ts_us(ev.ts_ns),
            if global { "g" } else { "t" },
        ),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::hist::MORSEL_SERVICE_NS;

    fn claim(m: u32) -> TraceEvent {
        TraceEvent::MorselClaim {
            morsel: m,
            lo: 0,
            hi: 10,
        }
    }

    #[test]
    fn ring_overflow_overwrites_oldest_and_counts() {
        let mut ring = TraceRing::with_capacity(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..100u32 {
            ring.push(TimedEvent {
                ts_ns: i as u64,
                event: claim(i),
            });
        }
        assert_eq!(ring.recorded(), 100);
        assert_eq!(ring.dropped(), 92);
        let events = ring.events();
        assert_eq!(events.len(), 8);
        // Oldest-first: exactly the last 8 events survive, in order.
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (92..100).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_capacity_rounds_to_power_of_two() {
        assert_eq!(TraceRing::with_capacity(100).capacity(), 128);
        assert_eq!(TraceRing::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn absorb_chains_tracks_and_merges_metrics() {
        let mut root = Tracer::new("coordinator");
        root.record(claim(0));
        let mut w0 = root.for_worker("worker-0".into());
        w0.metric(MORSEL_SERVICE_NS, 100);
        let mut nested = w0.for_worker("nested".into());
        nested.record(TraceEvent::WorkerPanic);
        w0.absorb(nested);
        root.absorb(w0);
        root.metric(MORSEL_SERVICE_NS, 300);
        let report = root.finish();
        let names: Vec<_> = report.tracks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["coordinator", "worker-0", "nested"]);
        assert_eq!(report.events_recorded(), 2);
        assert_eq!(report.events_dropped(), 0);
        assert_eq!(
            report.metrics.get(MORSEL_SERVICE_NS).map(|h| h.count()),
            Some(2)
        );
    }

    #[test]
    fn perfetto_json_shape() {
        let mut t = Tracer::new("coordinator");
        t.record(TraceEvent::FillEnd {
            op: 1,
            rows: 100,
            l1i_misses: 7,
            start_ns: 0,
        });
        t.record(TraceEvent::FaultTrip {
            site: "buffer.fill".into(),
        });
        let mut report = t.finish();
        report.record_instant(TraceEvent::AdaptInstall {
            generation: 1,
            buffers: 3,
        });
        let json = report.perfetto_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"name\":\"buffer.fill\""));
        assert!(json.contains("\"l1i_misses\":7"));
        assert!(json.contains("\"site\":\"buffer.fill\""));
        assert!(json.contains("\"name\":\"adaptivity\""));
        assert!(json.contains("\"name\":\"adapt.install\"") && json.contains("\"s\":\"g\""));
        // Balanced braces => plausibly well-formed; the integration tests
        // parse it properly with python in CI.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn summary_renders_tracks_and_histograms() {
        let mut t = Tracer::new("coordinator");
        t.record(claim(0));
        t.record(TraceEvent::MorselComplete {
            morsel: 0,
            rows: 10,
            start_ns: 0,
        });
        t.metric(MORSEL_SERVICE_NS, 1234);
        let report = t.finish();
        let s = report.summary();
        assert!(s.contains("flight recorder: 1 tracks"));
        assert!(s.contains("morsels 1 claimed/1 ok/0 aborted"));
        assert!(s.contains(MORSEL_SERVICE_NS));
    }

    #[test]
    fn clock_is_monotonic_and_shared() {
        let t = Tracer::new("a");
        let w = t.for_worker("b".into());
        let a = t.now_ns();
        let b = w.now_ns();
        assert!(b >= a, "worker clock shares the origin");
    }
}
