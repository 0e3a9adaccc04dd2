//! Benchmark-side spans: one per call into a layer's public functions.
//!
//! Spans live in memory while the run measures and are written out as
//! Chrome/Perfetto trace JSON when it ends. A disabled recorder (the
//! untraced run) records nothing and reads no clock.

use bufferdb_bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans written to the trace file; a run may record more (every one of
/// them feeds the per-layer numbers), but the file stays loadable.
pub const MAX_SPANS_IN_FILE: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The request (query, job) the span belongs to; spans of one request
    /// share it.
    pub request: u32,
}

/// Handle returned by [`Spans::enter`] and consumed by [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between spans (traced runs alternate
    /// traced and plain blocks).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "no span may be open across a switch");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u32) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let id = self.spans.len() as u32;
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span; returns the
    /// span's duration in nanoseconds (0 from a disabled recorder).
    pub fn exit(&mut self, id: SpanId) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        let span = &mut self.spans[id.0 as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Run `f` inside a span. For a body that opens spans of its own use
    /// [`Spans::enter`]/[`Spans::exit`].
    pub fn around<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus what its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Chrome trace-event JSON (loads in Perfetto): one complete (`"X"`)
    /// event per span with its id, parent and request in `args`, for the
    /// first `max_spans` spans.
    pub fn to_perfetto(&self, workload: &str, max_spans: usize) -> String {
        let kept = self.spans.len().min(max_spans);
        let mut events = vec![Json::Obj(vec![
            ("name".into(), Json::str("thread_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::U64(1)),
            ("tid".into(), Json::U64(1)),
            (
                "args".into(),
                Json::Obj(vec![(
                    "name".into(),
                    Json::str(format!("benchmark:{workload}")),
                )]),
            ),
        ])];
        for (i, s) in self.spans[..kept].iter().enumerate() {
            events.push(Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("ph".into(), Json::str("X")),
                ("pid".into(), Json::U64(1)),
                ("tid".into(), Json::U64(1)),
                ("ts".into(), Json::F64(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::U64(i as u64 + 1)),
                        ("parent".into(), Json::U64(u64::from(s.parent))),
                        ("request".into(), Json::U64(u64::from(s.request))),
                    ]),
                ),
            ]));
        }
        let doc = Json::Obj(vec![
            ("displayTimeUnit".into(), Json::str("ms")),
            ("spans_recorded".into(), Json::U64(self.spans.len() as u64)),
            ("spans_written".into(), Json::U64(kept as u64)),
            ("traceEvents".into(), Json::Arr(events)),
        ]);
        crate::report::one_line(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.enter("a", 1);
        s.exit(id);
        assert_eq!(s.around("b", 1, || 7), 7);
        assert!(s.all().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut s = Spans::new(true);
        let root = s.enter("request", 5);
        let child = s.enter("layer.call", 5);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(child);
        s.around("layer.call", 5, || ());
        s.exit(root);
        let spans = s.all();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 1)
        );
        assert!(spans
            .iter()
            .all(|x| x.request == 5 && x.end_ns >= x.start_ns));
        let t = s.totals();
        assert_eq!(t["layer.call"].count, 2);
        assert_eq!(t["layer.call"].self_ns, t["layer.call"].total_ns);
        assert_eq!(
            t["request"].self_ns,
            t["request"].total_ns - t["layer.call"].total_ns
        );
        assert_eq!(s.durations_ns("layer.call").len(), 2);
    }

    #[test]
    fn perfetto_export_parses_and_carries_ids() {
        let mut s = Spans::new(true);
        let root = s.enter("request", 9);
        s.around("inner", 9, || ());
        s.exit(root);
        let doc = Json::parse(&s.to_perfetto("w", MAX_SPANS_IN_FILE)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let inner = &events[2];
        assert_eq!(inner.get("ph").and_then(Json::as_str), Some("X"));
        let args = inner.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(args.get("request").and_then(Json::as_u64), Some(9));
        assert!(inner.get("ts").is_some() && inner.get("dur").is_some());
    }
}
