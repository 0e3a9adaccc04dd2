//! Flight-recorder integration: ring overflow accounting, trace/profiler
//! conservation across worker counts, completeness under injected faults
//! and cancellation, Perfetto export stability, and the zero-overhead
//! guarantee for the disabled path.

use bufferdb::core::fault;
use bufferdb::core::obs::{TimedEvent, TraceRing};
use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries};
use std::time::Duration;

fn small_catalog(n: i64) -> Catalog {
    let c = Catalog::new();
    let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
    for i in 0..n {
        b.push(Tuple::new(vec![Datum::Int(i)]));
    }
    c.add_table(b);
    c
}

fn buffered_agg() -> PlanNode {
    PlanNode::Aggregate {
        input: Box::new(PlanNode::Buffer {
            input: Box::new(PlanNode::SeqScan {
                table: "t".into(),
                predicate: Some(Expr::col(0).le(Expr::lit(500))),
                projection: None,
            }),
            size: 100,
        }),
        group_by: vec![],
        aggs: vec![AggSpec::count_star("n")],
    }
}

/// Count terminal-event bookkeeping over every track: each claimed morsel
/// must end in exactly one `MorselComplete` or `MorselAbort`.
fn assert_morsel_completeness(trace: &TraceReport) {
    for track in &trace.tracks {
        assert_eq!(
            track.dropped, 0,
            "{}: this suite must not overflow the ring",
            track.name
        );
        let mut claims = 0u64;
        let mut terminal = 0u64;
        for ev in &track.events {
            match ev.event {
                TraceEvent::MorselClaim { .. } => claims += 1,
                TraceEvent::MorselComplete { .. } | TraceEvent::MorselAbort { .. } => terminal += 1,
                _ => {}
            }
        }
        assert_eq!(
            claims, terminal,
            "{}: every claimed morsel needs a terminal event",
            track.name
        );
    }
}

#[test]
fn ring_overflow_counts_drops_and_keeps_newest() {
    let mut ring = TraceRing::with_capacity(8);
    for i in 0..100u64 {
        ring.push(TimedEvent {
            ts_ns: i,
            event: TraceEvent::MorselClaim {
                morsel: i as u32,
                lo: 0,
                hi: 0,
            },
        });
    }
    assert_eq!(ring.capacity(), 8);
    assert_eq!(ring.recorded(), 100);
    assert_eq!(ring.dropped(), 92);
    let events = ring.events();
    assert_eq!(events.len(), 8);
    // Oldest-first rotation: the retained window is exactly the newest 8.
    let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
    assert_eq!(ts, (92..100).collect::<Vec<u64>>());
}

#[test]
fn tracer_overflow_is_reported_never_fatal() {
    let mut tracer = Tracer::with_capacity("t", 4);
    for _ in 0..100 {
        tracer.record(TraceEvent::CancelObserved);
    }
    let report = tracer.finish();
    assert_eq!(report.events_recorded(), 100);
    assert_eq!(report.events_dropped(), 96);
    // The renderers stay well-defined on an overflowed trace.
    assert!(report.perfetto_json().contains("\"traceEvents\""));
    assert!(report.summary().contains("96 dropped"));
}

#[test]
fn trace_and_profiler_conserve_at_1_2_7_workers() {
    let catalog = tpch::generate_catalog(0.002, 7);
    let machine = MachineConfig::pentium4_like();
    let plan = queries::tpch_q12(&catalog).unwrap();
    for workers in [1usize, 2, 7] {
        let par = parallelize_plan(&plan, &catalog, workers).unwrap();
        let opts = QueryOpts::new().profile(true).trace(true);
        let mut out = execute_query(&par, &catalog, &machine, &opts);
        assert!(out.is_ok(), "{workers} workers: {:?}", out.error());
        let trace = out.take_trace().expect("trace was requested");
        let (_, stats, profile) = out.into_result().unwrap();
        let profile = profile.unwrap();

        // Profiler conservation: per-operator counters plus the explicit
        // gather-wait residual sum exactly to the machine snapshot.
        assert_eq!(
            profile.sum_op_counters(),
            stats.counters,
            "{workers} workers: counters not conserved"
        );
        let attributed = profile
            .ops
            .iter()
            .fold(PerfCounters::default(), |acc, op| acc + op.counters);
        assert_eq!(
            attributed + profile.gather_wait_total(),
            stats.counters,
            "{workers} workers: gather-wait residual not accounted"
        );

        // Trace completeness and cross-check against the profiler lanes.
        assert_morsel_completeness(&trace);
        let trace_morsels: u64 = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e.event, TraceEvent::MorselComplete { .. }))
            .count() as u64;
        let lane_morsels: u64 = profile
            .ops
            .iter()
            .filter_map(|op| op.workers.as_ref())
            .flatten()
            .map(|lane| lane.morsels)
            .sum();
        assert_eq!(
            trace_morsels, lane_morsels,
            "{workers} workers: trace morsels disagree with profiler lanes"
        );
        // Exactly the coordinator plus one name per exchange lane (each
        // exchange phase has its own tracks under those names); no other
        // thread records anything.
        let names: std::collections::BTreeSet<String> =
            trace.tracks.iter().map(|t| t.name.to_string()).collect();
        let want = std::iter::once("coordinator".to_string())
            .chain((0..workers).map(|i| format!("worker-{i}")))
            .collect();
        assert_eq!(names, want, "{workers} workers: trace tracks");
    }
}

#[test]
fn injected_fill_fault_leaves_complete_trace() {
    // Buffer fills inside exchange workers, so the fault trips on a worker
    // thread mid-morsel and the abort bookkeeping is exercised.
    let plan = PlanNode::Exchange {
        input: Box::new(PlanNode::Buffer {
            input: Box::new(PlanNode::SeqScan {
                table: "t".into(),
                predicate: None,
                projection: None,
            }),
            size: 64,
        }),
        workers: 2,
    };
    let session = Session::new(small_catalog(20_000), MachineConfig::pentium4_like());
    session
        .faults()
        .arm(fault::BUFFER_FILL, Trigger::at_row(3), FaultMode::Error);
    let out = session.query(&plan, &QueryOpts::new().trace(true));
    assert!(out.error().is_some(), "armed fault must surface");
    let trace = out.trace().expect("trace survives a failed query");
    assert_morsel_completeness(trace);
    let tripped =
        trace.tracks.iter().flat_map(|t| &t.events).any(
            |e| matches!(&e.event, TraceEvent::FaultTrip { site } if site == fault::BUFFER_FILL),
        );
    assert!(tripped, "fault trip must be recorded on some track");
}

#[test]
fn cancelled_query_leaves_complete_trace() {
    let catalog = tpch::generate_catalog(0.002, 7);
    let plan = queries::tpch_q6(&catalog).unwrap();
    let par = parallelize_plan(&plan, &catalog, 2).unwrap();
    let mut session = Session::new(catalog, MachineConfig::pentium4_like());
    session.set_timeout(Some(Duration::ZERO));
    let out = session.query(&par, &QueryOpts::new().trace(true));
    assert!(
        matches!(out.error(), Some(DbError::Cancelled(_))),
        "{:?}",
        out.error()
    );
    let trace = out.trace().expect("trace survives a cancelled query");
    assert_morsel_completeness(trace);
    let observed = trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .any(|e| matches!(e.event, TraceEvent::CancelObserved));
    assert!(observed, "cancellation must be observed on some track");
}

/// Zero the volatile fields of a Perfetto document: wall-clock timestamps
/// and durations vary run to run, everything else (track layout, event
/// names, simulated counters in args) is deterministic.
fn normalize_times(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = find_time_key(rest) {
        let (key, at) = pos;
        let end = at + key.len();
        out.push_str(&rest[..end]);
        out.push('0');
        let tail = &rest[end..];
        let skip = tail
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(tail.len());
        rest = &tail[skip..];
    }
    out.push_str(rest);
    out
}

fn find_time_key(s: &str) -> Option<(&'static str, usize)> {
    ["\"ts\":", "\"dur\":"]
        .iter()
        .filter_map(|k| s.find(k).map(|i| (*k, i)))
        .min_by_key(|&(_, i)| i)
}

#[test]
fn perfetto_export_matches_golden_file() {
    let c = small_catalog(1000);
    let opts = QueryOpts::new().trace(true);
    let mut out = execute_query(&buffered_agg(), &c, &MachineConfig::pentium4_like(), &opts);
    assert!(out.is_ok(), "{:?}", out.error());
    let json = out.take_trace().unwrap().perfetto_json();
    let got = normalize_times(&json);
    let full = format!(
        "{}/tests/golden/trace_buffered_agg.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BUFFERDB_UPDATE_GOLDEN").is_some() {
        std::fs::write(&full, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&full).expect("missing golden (set BUFFERDB_UPDATE_GOLDEN=1)");
    assert_eq!(
        got, want,
        "normalized Perfetto export changed; rerun with BUFFERDB_UPDATE_GOLDEN=1 \
         and review the diff if the change is intentional"
    );
}

#[test]
fn tracing_costs_nothing_modeled_and_is_off_by_default() {
    let c = small_catalog(5000);
    let machine = MachineConfig::pentium4_like();
    let plan = buffered_agg();
    let plain = execute_query(&plan, &c, &machine, &QueryOpts::new());
    assert!(plain.trace().is_none(), "tracing must be off by default");
    let opts = QueryOpts::new().trace(true);
    let traced = execute_query(&plan, &c, &machine, &opts);
    assert!(traced.trace().is_some());
    // The recorder adds zero modeled work: identical instruction stream
    // and cycle count, not merely "within 5%".
    let (_, a, _) = plain.into_result().unwrap();
    let (_, b, _) = traced.into_result().unwrap();
    assert_eq!(a.counters.instructions, b.counters.instructions);
    assert_eq!(a.counters, b.counters);
}
