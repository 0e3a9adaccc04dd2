//! Server observatory invariants: `sys.*` introspection must be provably
//! free (zero modeled cycles or misses — the observer effect the design
//! forbids), the per-segment i-cache heatmap must conserve *exactly*
//! against machine counter totals at any concurrency and under faults, and
//! the server flight recorder must change nothing it records.

use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries};

fn catalog() -> Catalog {
    tpch::generate_catalog(0.002, 7)
}

fn machine() -> MachineConfig {
    MachineConfig::pentium4_like()
}

/// The multi-stream workload every server test drives: 8 jobs cycling 4
/// distinct plans, closed-loop over `streams` admission slots.
fn run_workload(vs: &mut VirtualServer, catalog: &Catalog, streams: usize) -> Vec<CompletedQuery> {
    run_workload_with(vs, catalog, streams, false)
}

/// `refine` inserts buffer operators (as production plans would), so fault
/// sites like `buffer.fill` exist in the plan.
fn run_workload_with(
    vs: &mut VirtualServer,
    catalog: &Catalog,
    streams: usize,
    refine: bool,
) -> Vec<CompletedQuery> {
    const JOBS: usize = 8;
    let mut plans = vec![
        queries::paper_query1(catalog).unwrap(),
        queries::tpch_q6(catalog).unwrap(),
        queries::paper_query2(catalog).unwrap(),
        queries::tpch_q12(catalog).unwrap(),
    ];
    if refine {
        plans = plans
            .iter()
            .map(|p| refine_plan(p, catalog, &RefineConfig::default()))
            .collect();
    }
    let mut next_job: Vec<usize> = Vec::new();
    for job in 0..streams.min(JOBS) {
        vs.submit(SubmitSpec::new(&plans[job % plans.len()], catalog))
            .unwrap();
        next_job.push(job);
    }
    let mut all = Vec::new();
    loop {
        let done = vs.drain();
        if done.is_empty() {
            break;
        }
        for c in done {
            let next = next_job[c.id as usize] + streams;
            if next < JOBS {
                vs.submit(SubmitSpec::new(&plans[next % plans.len()], catalog).at(c.done_ns))
                    .unwrap();
                next_job.push(next);
            }
            all.push(c);
        }
    }
    all
}

fn sys_scan(table: &str) -> PlanNode {
    PlanNode::SysScan {
        table: table.into(),
    }
}

// --- sys.* tables are real tables -----------------------------------------

#[test]
fn sys_tables_compose_with_filters_aggregates_and_explain() {
    let catalog = catalog();
    let mut vs = VirtualServer::new(ServerConfig::new(4, 2, machine()));
    vs.install_sys_tables(&catalog);
    let done = run_workload(&mut vs, &catalog, 2);
    assert_eq!(done.len(), 8);

    // Plain scan: every completed query appears as a "done" row.
    let (rows, _, _) = execute_query(
        &sys_scan("sys.queries"),
        &catalog,
        &machine(),
        &QueryOpts::new(),
    )
    .into_result()
    .unwrap();
    let done_rows = rows
        .iter()
        .filter(|t| t.get(1).as_str() == Some("done"))
        .count();
    assert_eq!(done_rows, 8, "one sys.queries row per completed query");
    for t in &rows {
        if t.get(1).as_str() == Some("done") {
            let wait = t.get(6).as_int().unwrap();
            let run = t.get(7).as_int().unwrap();
            assert!(wait >= 0 && run > 0, "wait {wait} run {run}");
            assert_eq!(t.get(9), &Datum::Bool(true), "workload runs clean");
        }
    }

    // Filter + aggregate over sys.queries: count failed queries (none).
    let agg = PlanNode::Aggregate {
        input: Box::new(PlanNode::Filter {
            input: Box::new(sys_scan("sys.queries")),
            predicate: Expr::col(9).eq(Expr::lit(Datum::Bool(false))),
        }),
        group_by: vec![],
        aggs: vec![AggSpec::count_star("failed")],
    };
    let (rows, _, _) = execute_query(&agg, &catalog, &machine(), &QueryOpts::new())
        .into_result()
        .unwrap();
    assert_eq!(rows[0].get(0).as_int(), Some(0));

    // sys.workers: session row plus one per pool core, all home between
    // drains, carrying their L1i state.
    let (rows, _, _) = execute_query(
        &sys_scan("sys.workers"),
        &catalog,
        &machine(),
        &QueryOpts::new(),
    )
    .into_result()
    .unwrap();
    assert_eq!(rows.len(), 4, "session + (workers - 1) pool cores");
    let session = rows
        .iter()
        .find(|t| t.get(0).as_str() == Some("session"))
        .expect("session row");
    assert!(session.get(2).as_int().unwrap() > 0, "turns counted");
    assert_eq!(session.get(4), &Datum::Bool(true), "machine home");
    assert!(session.get(5).as_int().unwrap() > 0, "carried L1i state");

    // explain_analyze runs over a sys table like any heap table.
    let text = explain_analyze(&sys_scan("sys.workers"), &catalog, &machine()).unwrap();
    assert!(text.contains("actual_rows 4"), "{text}");
}

#[test]
fn database_cache_tables_reflect_cache_state() {
    let db = Database::open(catalog(), machine());
    db.install_sys_tables();
    let plan = queries::paper_query1(db.catalog()).unwrap();
    let q = db.prepare(&plan).unwrap();
    assert!(q.execute().is_ok());
    let q2 = db.prepare(&plan).unwrap(); // second prepare hits the cache
    assert!(q2.execute().is_ok());

    let (rows, _, _) = execute_query(
        &sys_scan("sys.plan_cache"),
        db.catalog(),
        &machine(),
        &QueryOpts::new(),
    )
    .into_result()
    .unwrap();
    assert_eq!(rows.len(), 1, "one resident entry");
    let hits = rows[0].get(3).as_int().unwrap();
    assert!(hits >= 1, "second prepare must count as a hit, got {hits}");
    assert!(
        rows[0].get(0).as_str().unwrap().starts_with("0x"),
        "fingerprint is hex"
    );

    // The reuse cache table exists and matches its stats() entry count.
    let (rows, _, _) = execute_query(
        &sys_scan("sys.reuse_cache"),
        db.catalog(),
        &machine(),
        &QueryOpts::new(),
    )
    .into_result()
    .unwrap();
    assert_eq!(rows.len() as u64, db.reuse_cache().stats().entries);
}

// --- observer-effect zero --------------------------------------------------

#[test]
fn sys_scans_add_exactly_zero_modeled_cost() {
    let catalog = catalog();
    let mut vs = VirtualServer::new(ServerConfig::new(4, 2, machine()));
    vs.install_sys_tables(&catalog);
    run_workload(&mut vs, &catalog, 2);

    for table in ["sys.queries", "sys.workers", "sys.cache_segments"] {
        let out = execute_query(&sys_scan(table), &catalog, &machine(), &QueryOpts::new());
        assert!(out.is_ok(), "{table}: {:?}", out.error());
        assert_eq!(
            out.stats().counters,
            PerfCounters::default(),
            "{table}: a sys scan must execute zero modeled work"
        );
    }

    // Composition stays free only for the sys leaf: a filter over it runs
    // real predicate code. What must hold is that *observing the server*
    // changes nothing in the server: counters before == after the scans.
    let before = vs.machine_counters();
    for table in ["sys.queries", "sys.workers", "sys.cache_segments"] {
        execute_query(&sys_scan(table), &catalog, &machine(), &QueryOpts::new());
    }
    assert_eq!(
        vs.machine_counters(),
        before,
        "introspection must not perturb the observed server"
    );
}

#[test]
fn flight_recorder_and_heatmap_change_no_physics() {
    let catalog = catalog();
    let run = |observe: bool| {
        let mut vs = VirtualServer::new(ServerConfig::new(4, 2, machine()));
        if observe {
            vs.enable_heatmap();
            vs.enable_flight_recorder();
        }
        let done = run_workload(&mut vs, &catalog, 2);
        let per_query: Vec<PerfCounters> =
            done.iter().map(|c| c.outcome.stats().counters).collect();
        let latencies: Vec<u64> = done.iter().map(|c| c.done_ns - c.arrival_ns).collect();
        (per_query, latencies, vs.machine_counters())
    };
    let (base_counters, base_latency, base_machine) = run(false);
    let (obs_counters, obs_latency, obs_machine) = run(true);
    assert_eq!(base_counters, obs_counters, "per-query counters identical");
    assert_eq!(base_latency, obs_latency, "virtual timelines identical");
    assert_eq!(base_machine, obs_machine, "machine totals identical");
}

#[test]
fn recorder_captures_waits_runs_and_turns() {
    let catalog = catalog();
    let mut vs = VirtualServer::new(ServerConfig::new(4, 2, machine()));
    vs.enable_flight_recorder();
    let done = run_workload(&mut vs, &catalog, 2);
    let report = vs.finish_recorder().expect("recorder enabled");
    assert!(vs.finish_recorder().is_none(), "finish detaches");
    let names: Vec<&str> = report.tracks.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["server.queries", "server.core"]);
    let runs = report.tracks[0]
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::QueryRun { .. }))
        .count();
    assert_eq!(runs, done.len(), "one run span per completed query");
    let turns = report.tracks[1]
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::CoreTurn { .. }))
        .count();
    assert!(turns as u64 >= done.len() as u64, "turn spans recorded");
    let json = report.perfetto_json();
    assert!(
        json.contains("query.wait") && json.contains("core.turn"),
        "{json}"
    );
}

// --- heatmap conservation --------------------------------------------------

#[test]
fn heatmap_conserves_exactly_at_any_concurrency() {
    let catalog = catalog();
    for streams in [1usize, 2, 7] {
        let mut vs = VirtualServer::new(ServerConfig::new(8, streams, machine()));
        vs.enable_heatmap();
        run_workload(&mut vs, &catalog, streams);
        let totals = vs.machine_counters();
        let snap = vs.heatmap();
        assert_eq!(
            snap.total_misses(),
            totals.l1i_misses,
            "{streams} streams: per-(segment,owner) misses must sum to machine L1i misses"
        );
        assert_eq!(
            snap.total_cross_misses(),
            totals.l1i_cross_misses,
            "{streams} streams: cross-attributed misses must sum to machine cross misses"
        );
        assert_eq!(
            snap.total_cross_caused(),
            snap.total_cross_misses(),
            "{streams} streams: every cross miss has exactly one attributed culprit"
        );
        if streams > 1 {
            assert!(
                totals.l1i_cross_misses > 0,
                "{streams} streams must actually interfere"
            );
        }
    }
}

#[test]
fn heatmap_conserves_under_injected_faults() {
    let catalog = catalog();
    let mut vs = VirtualServer::new(ServerConfig::new(4, 2, machine()));
    vs.enable_heatmap();
    vs.faults()
        .arm("buffer.fill", Trigger::every(3), FaultMode::Error);
    let done = run_workload_with(&mut vs, &catalog, 2, true);
    assert!(
        done.iter().any(|c| !c.outcome.is_ok()),
        "the fault must actually trip"
    );
    let totals = vs.machine_counters();
    let snap = vs.heatmap();
    assert_eq!(snap.total_misses(), totals.l1i_misses);
    assert_eq!(snap.total_cross_misses(), totals.l1i_cross_misses);
}

#[test]
fn sys_cache_segments_matches_heatmap_rollup() {
    let catalog = catalog();
    let mut vs = VirtualServer::new(ServerConfig::new(4, 2, machine()));
    vs.enable_heatmap();
    vs.install_sys_tables(&catalog);
    run_workload(&mut vs, &catalog, 2);
    let (rows, _, _) = execute_query(
        &sys_scan("sys.cache_segments"),
        &catalog,
        &machine(),
        &QueryOpts::new(),
    )
    .into_result()
    .unwrap();
    assert!(!rows.is_empty(), "workload must heat some segments");
    let table_misses: i64 = rows.iter().map(|t| t.get(1).as_int().unwrap()).sum();
    let table_cross: i64 = rows.iter().map(|t| t.get(2).as_int().unwrap()).sum();
    let totals = vs.machine_counters();
    assert_eq!(table_misses as u64, totals.l1i_misses);
    assert_eq!(table_cross as u64, totals.l1i_cross_misses);
}

// --- per-query heatmap + explain_analyze ----------------------------------

#[test]
fn query_heatmap_conserves_and_renders() {
    let catalog = catalog();
    let plan = queries::paper_query1(&catalog).unwrap();
    let out = execute_query(&plan, &catalog, &machine(), &QueryOpts::new().heatmap(true));
    assert!(out.is_ok());
    let heat = out.heat().expect("heatmap requested");
    assert_eq!(heat.total_misses(), out.stats().counters.l1i_misses);
    assert!(
        heat.cells.keys().any(|(seg, _)| seg == "scan_core"),
        "scan segment attributed: {:?}",
        heat.cells.keys().collect::<Vec<_>>()
    );

    let text = explain_analyze(&plan, &catalog, &machine()).unwrap();
    assert!(text.contains("i-cache heatmap:"), "{text}");
}
