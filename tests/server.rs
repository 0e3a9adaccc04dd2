//! Multi-query server correctness: concurrent queries on the shared
//! work-stealing pool — threaded or virtual — must produce exactly the
//! standalone executor's results, conserve per-query counters (including
//! the cross-query L1i interference bucket), and contain faults without
//! poisoning the pool.

use bufferdb::prelude::*;
use bufferdb::tpch::queries::JoinMethod;
use bufferdb::tpch::{self, queries};
use std::sync::Arc;
use std::time::Duration;

fn catalog() -> Catalog {
    tpch::generate_catalog(0.002, 7)
}

/// A mixed bag of plans: serial and parallelized, scans through joins.
fn suite(catalog: &Catalog, lanes: usize) -> Vec<(&'static str, PlanNode)> {
    let base = vec![
        ("paper q1", queries::paper_query1(catalog).unwrap()),
        ("paper q2", queries::paper_query2(catalog).unwrap()),
        ("tpch q1", queries::tpch_q1(catalog).unwrap()),
        ("tpch q6", queries::tpch_q6(catalog).unwrap()),
    ];
    base.into_iter()
        .map(|(name, plan)| (name, parallelize_plan(&plan, catalog, lanes).unwrap()))
        .collect()
}

/// Order-normalized row fingerprints (multiset compare, bit-exact rows).
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    v.sort();
    v
}

fn solo_rows(plan: &PlanNode, catalog: &Catalog) -> Vec<String> {
    let machine = MachineConfig::pentium4_like();
    let (rows, _, _) = execute_query(plan, catalog, &machine, &QueryOpts::new())
        .into_result()
        .unwrap();
    normalized(&rows)
}

fn assert_conserved(name: &str, out: &QueryOutcome) {
    let c = out.stats().counters;
    assert!(
        c.l1i_cross_misses <= c.l1i_misses,
        "{name}: cross-query L1i misses must be a subset of L1i misses \
         ({} > {})",
        c.l1i_cross_misses,
        c.l1i_misses
    );
    let profile = out.profile().expect("profiling was requested");
    assert_eq!(
        profile.total, c,
        "{name}: profile total must equal the query's assembled counters"
    );
    assert_eq!(
        profile.sum_op_counters(),
        c,
        "{name}: per-operator counters must sum exactly to the query total"
    );
}

/// The two server drivers, tabled like `tests/frontends.rs` tables the
/// five doors: every assertion below runs against both.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Threaded,
    Virtual,
}

/// Run `plans` in submission order on a fresh `driver` server of `workers`
/// cores and `slots` admission slots with the flight recorder on. Returns
/// the outcomes in submission order, the scheduler counters and the
/// recorder's report.
fn run_on(
    driver: Driver,
    workers: usize,
    slots: usize,
    catalog: &Catalog,
    plans: &[&PlanNode],
    opts: &QueryOpts,
) -> (Vec<QueryOutcome>, ServerStats, TraceReport) {
    let cfg = ServerConfig::new(workers, slots, MachineConfig::pentium4_like());
    match driver {
        Driver::Threaded => {
            let server = Server::new(cfg);
            server.enable_flight_recorder();
            let tickets: Vec<_> = plans
                .iter()
                .map(|plan| {
                    let spec = SubmitSpec::new(plan, catalog).opts(opts.clone());
                    server.submit(spec).expect("submit")
                })
                .collect();
            let outs = tickets.into_iter().map(QueryTicket::wait).collect();
            let report = server.finish_recorder().expect("recorder enabled");
            (outs, server.stats(), report)
        }
        Driver::Virtual => {
            let mut vs = VirtualServer::new(cfg);
            vs.enable_flight_recorder();
            for plan in plans {
                vs.submit(SubmitSpec::new(plan, catalog).opts(opts.clone()))
                    .expect("submit");
            }
            let mut done = vs.drain();
            done.sort_by_key(|c| c.id);
            let report = vs.finish_recorder().expect("recorder enabled");
            let outs = done.into_iter().map(|c| c.outcome).collect();
            (outs, vs.stats(), report)
        }
    }
}

/// Exactly one `query.wait` and one `query.run` span per submitted query.
fn assert_one_wait_and_run_per_query(what: &str, report: &TraceReport, queries: u64) {
    let mut waits = vec![0u32; queries as usize];
    let mut runs = vec![0u32; queries as usize];
    for ev in report.tracks.iter().flat_map(|t| &t.events) {
        match ev.event {
            TraceEvent::QueryWait { query, .. } => waits[query as usize] += 1,
            TraceEvent::QueryRun { query, .. } => runs[query as usize] += 1,
            _ => {}
        }
    }
    assert!(
        waits.iter().chain(&runs).all(|&n| n == 1),
        "{what}: spans per query: waits {waits:?}, runs {runs:?}"
    );
}

/// N concurrent queries on both servers with pools of {1, 2, 7} workers:
/// every query's rows are bit-identical to a standalone run of the same
/// plan, every query's counters conserve exactly — including the
/// `l1i_cross_misses` interference bucket staying a subset of total L1i
/// misses — the scheduler counts every submission, and the flight recorder
/// holds one wait and one run span per query.
#[test]
fn concurrent_queries_match_solo_and_conserve_counters() {
    let catalog = catalog();
    let lanes = 2;
    let plans = suite(&catalog, lanes);
    let expected: Vec<Vec<String>> = plans
        .iter()
        .map(|(_, plan)| solo_rows(plan, &catalog))
        .collect();
    // Two rounds of the suite, so every machine carries another query's
    // residue.
    let jobs: Vec<&PlanNode> = plans.iter().chain(&plans).map(|(_, p)| p).collect();
    let opts = QueryOpts::new().profile(true);
    for driver in [Driver::Threaded, Driver::Virtual] {
        for workers in [1usize, 2, 7] {
            let what = format!("{driver:?} server, {workers} workers");
            let (outs, stats, report) =
                run_on(driver, workers, workers.max(2), &catalog, &jobs, &opts);
            for (i, out) in outs.iter().enumerate() {
                let name = plans[i % plans.len()].0;
                assert!(out.error().is_none(), "{name} ({what}): {:?}", out.error());
                assert_eq!(
                    normalized(out.rows()),
                    expected[i % plans.len()],
                    "{name} ({what}): rows differ from solo run"
                );
                assert_conserved(name, out);
            }
            let n = jobs.len() as u64;
            assert_eq!(
                (stats.submitted, stats.completed, stats.failed),
                (n, n, 0),
                "{what}"
            );
            assert!(
                stats.units > 0,
                "{what}: exchange phases must run through the pool"
            );
            assert_one_wait_and_run_per_query(&what, &report, n);
        }
    }
}

/// The phase engine is one path whoever runs it: a 2-lane exchange gives
/// the same rows, in the same order, solo and on both servers, and its
/// per-lane morsel counts sum to the phase's morsel count everywhere.
#[test]
fn exchange_phase_runs_alike_solo_and_on_both_servers() {
    let catalog = Catalog::new();
    let mut t = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
    for i in 0..20_000 {
        t.push(Tuple::new(vec![Datum::Int(i)]));
    }
    catalog.add_table(t);
    let plan = PlanNode::Exchange {
        input: Box::new(PlanNode::SeqScan {
            table: "t".into(),
            predicate: Some(Expr::col(0).le(Expr::lit(15_000))),
            projection: None,
        }),
        workers: 2,
    };
    // 20 000 rows over 2 lanes at 4 morsels per lane: 8 morsels of 2 500.
    let morsels = 8;
    let lane_morsels = |what: &str, out: &QueryOutcome| -> Vec<u64> {
        let profile = out.profile().expect("profiling was requested");
        let lanes: Vec<&ExchangeLane> = profile
            .ops
            .iter()
            .filter_map(|op| op.workers.as_ref())
            .flatten()
            .collect();
        assert_eq!(lanes.len(), 2, "{what}: one lane record per lane");
        lanes.iter().map(|l| l.morsels).collect()
    };
    let opts = QueryOpts::new().profile(true);
    let solo = execute_query(&plan, &catalog, &MachineConfig::pentium4_like(), &opts);
    assert!(solo.is_ok(), "solo: {:?}", solo.error());
    assert_eq!(solo.rows().len(), 15_001);
    // Solo lanes run fixed stripes: each takes every second morsel.
    assert_eq!(lane_morsels("solo", &solo), [4, 4]);
    for driver in [Driver::Threaded, Driver::Virtual] {
        let what = format!("{driver:?} server");
        let (outs, _, _) = run_on(driver, 3, 2, &catalog, &[&plan], &opts);
        assert!(outs[0].is_ok(), "{what}: {:?}", outs[0].error());
        assert_eq!(
            outs[0].rows(),
            solo.rows(),
            "{what}: rows or their order differ"
        );
        assert_eq!(lane_morsels(&what, &outs[0]).iter().sum::<u64>(), morsels);
    }
}

/// A query that faults (typed error and injected panic) or times out
/// mid-stream must fail alone: concurrent and subsequent queries on the
/// same pool still run to the correct result.
#[test]
fn faulted_query_does_not_poison_the_pool() {
    let catalog = catalog();
    let lanes = 2;
    let plans = suite(&catalog, lanes);
    let (victim_name, victim) = &plans[0];
    let server = Server::new(ServerConfig::new(2, 3, MachineConfig::pentium4_like()));
    let opts = QueryOpts::new().profile(true);
    for mode in [FaultMode::Error, FaultMode::Panic] {
        // Arm a mid-stream fault on the victim only; its registry is not
        // shared with the healthy queries.
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(
            bufferdb::core::fault::EXCHANGE_MORSEL,
            Trigger::at_row(1),
            mode,
        );
        let bad = server
            .submit(SubmitSpec::new(victim, &catalog).opts(opts.clone().faults(faults)))
            .expect("submit victim");
        let healthy: Vec<_> = plans
            .iter()
            .map(|(name, plan)| {
                let spec = SubmitSpec::new(plan, &catalog).opts(opts.clone());
                (*name, server.submit(spec).unwrap())
            })
            .collect();
        let bad_out = bad.wait();
        assert!(
            bad_out.error().is_some(),
            "{victim_name}: armed {mode:?} fault must surface as an error"
        );
        for (name, ticket) in healthy {
            let out = ticket.wait();
            assert!(
                out.error().is_none(),
                "{name} alongside a {mode:?}-faulted query: {:?}",
                out.error()
            );
            assert_conserved(name, &out);
        }
    }
    // Cancellation (as an already-expired timeout, so it deterministically
    // lands mid-stream) behaves the same way.
    let cancelled = server
        .submit(SubmitSpec::new(victim, &catalog).opts(QueryOpts::new().timeout(Duration::ZERO)))
        .expect("submit cancelled");
    let out = cancelled.wait();
    assert!(
        matches!(out.error(), Some(DbError::Cancelled(_))),
        "expired timeout must cancel: {:?}",
        out.error()
    );
    let (name, plan) = &plans[1];
    let after = server
        .submit(SubmitSpec::new(plan, &catalog).opts(opts.clone()))
        .unwrap()
        .wait();
    assert!(
        after.error().is_none(),
        "{name} after cancel: {:?}",
        after.error()
    );
    assert_eq!(normalized(after.rows()), solo_rows(plan, &catalog));
    assert!(server.stats().failed >= 3);
}

/// A submission that arrives before an earlier one — still queued or
/// already run — is refused whole: it takes no id, no owner tag and no
/// place in the `submitted` count, so the submissions around it are
/// numbered and tagged as if it had never come.
#[test]
fn virtual_server_refuses_an_out_of_order_arrival_before_counting_it() {
    let catalog = catalog();
    let plans = suite(&catalog, 2);
    let plan = &plans[3].1;
    let run = |stray: bool| {
        let mut vs = VirtualServer::new(ServerConfig::default());
        let first = vs
            .submit(SubmitSpec::new(plan, &catalog).at(1_000))
            .unwrap();
        if stray {
            let refused = vs.submit(SubmitSpec::new(plan, &catalog).at(999));
            assert!(matches!(refused, Err(DbError::ExecProtocol(_))));
            assert_eq!(vs.stats().submitted, 1);
        }
        let second = vs
            .submit(SubmitSpec::new(plan, &catalog).at(1_000))
            .unwrap();
        assert_eq!((first, second), (0, 1));
        assert_eq!(vs.stats().submitted, 2);
        let done = vs.drain();
        done.iter().map(|c| (c.id, c.tag)).collect::<Vec<_>>()
    };
    let tags = run(true);
    assert_eq!(tags.len(), 2);
    assert_eq!(tags, run(false));
    // Once `drain` has admitted the whole queue, the latest arrival still
    // bounds the next one.
    let mut vs = VirtualServer::new(ServerConfig::default());
    vs.submit(SubmitSpec::new(plan, &catalog).at(1_000))
        .unwrap();
    assert_eq!(vs.drain().len(), 1);
    let refused = vs.submit(SubmitSpec::new(plan, &catalog).at(999));
    assert!(matches!(refused, Err(DbError::ExecProtocol(_))));
    assert_eq!(vs.stats().submitted, 1);
    assert_eq!(
        vs.submit(SubmitSpec::new(plan, &catalog).at(1_000))
            .unwrap(),
        1
    );
    assert_eq!(vs.drain().len(), 1);
}

/// `workers = 1` means one core of simulated compute, period. The session
/// core absorbs the exchange phases inline, so a single-worker server must
/// still complete parallel plans correctly — and must take strictly longer
/// than a two-worker server (which used to be impossible to observe: the
/// old sizing gave workers=1 a hidden pool core, making it a secret
/// workers=2).
#[test]
fn virtual_server_workers_one_runs_on_one_core() {
    let catalog = catalog();
    let lanes = 2;
    let plans = suite(&catalog, lanes);
    let makespan = |workers: usize| {
        let mut vs = VirtualServer::new(ServerConfig::new(
            workers,
            2,
            MachineConfig::pentium4_like(),
        ));
        for (_, plan) in &plans {
            vs.submit(SubmitSpec::new(plan, &catalog)).unwrap();
        }
        let done = vs.drain();
        assert_eq!(done.len(), plans.len());
        for c in &done {
            let (name, plan) = &plans[c.id as usize % plans.len()];
            assert!(
                c.outcome.error().is_none(),
                "{name}: {:?}",
                c.outcome.error()
            );
            assert_eq!(
                normalized(c.outcome.rows()),
                solo_rows(plan, &catalog),
                "{name} on a {workers}-worker virtual server: rows differ"
            );
        }
        let stats = vs.stats();
        assert!(stats.units > 0, "exchange phases must still run");
        done.iter().map(|c| c.done_ns).max().unwrap()
    };
    let one = makespan(1);
    let two = makespan(2);
    assert!(
        one > two,
        "one configured core must be strictly slower than two \
         (workers=1 makespan {one} ns vs workers=2 makespan {two} ns)"
    );
}

/// The virtual twin is bit-for-bit deterministic: identical submissions
/// yield identical per-query counters, timelines, and scheduler stats —
/// and concurrent streams show real cross-query L1i interference.
#[test]
fn virtual_server_is_deterministic_and_attributes_interference() {
    let catalog = catalog();
    let lanes = 2;
    let plans = suite(&catalog, lanes);
    let run = || {
        let mut vs = VirtualServer::new(ServerConfig::new(4, 4, MachineConfig::pentium4_like()));
        let opts = QueryOpts::new().profile(true);
        for _ in 0..2 {
            for (_, plan) in &plans {
                vs.submit(SubmitSpec::new(plan, &catalog).opts(opts.clone()))
                    .expect("submit");
            }
        }
        let done = vs.drain();
        let stats = vs.stats();
        (done, stats)
    };
    let (a, stats_a) = run();
    let (b, stats_b) = run();
    assert_eq!(a.len(), 2 * plans.len());
    assert_eq!(stats_a, stats_b, "scheduler stats must be reproducible");
    let mut cross_total = 0u64;
    for (qa, qb) in a.iter().zip(&b) {
        assert_eq!(qa.id, qb.id);
        assert_eq!(
            qa.outcome.stats().counters,
            qb.outcome.stats().counters,
            "query {}: counters must be bit-identical across runs",
            qa.id
        );
        assert_eq!((qa.start_ns, qa.done_ns), (qb.start_ns, qb.done_ns));
        assert!(qa.start_ns >= qa.arrival_ns && qa.done_ns > qa.start_ns);
        cross_total += qa.outcome.stats().counters.l1i_cross_misses;
    }
    assert!(
        cross_total > 0,
        "concurrent streams on shared cores must show cross-query L1i misses"
    );
}

/// The virtual server's schedule is pinned, not just reproducible: four
/// closed-loop clients run 16 jobs of the suite on 4 workers and 4 slots,
/// each client resubmitting at its previous job's completion, and the turn
/// count plus every query's timeline and L1i counters must match the
/// committed golden. `BUFFERDB_UPDATE_GOLDEN=1` regenerates it.
#[test]
fn virtual_server_schedule_matches_golden() {
    let catalog = catalog();
    let plans = suite(&catalog, 2);
    let (clients, total) = (4, 16);
    let mut vs = VirtualServer::new(ServerConfig::new(4, 4, MachineConfig::pentium4_like()));
    // The job each submission id runs; ids count from zero.
    let mut jobs = Vec::new();
    let submit = |vs: &mut VirtualServer, jobs: &mut Vec<usize>, job: usize, at: u64| {
        vs.submit(SubmitSpec::new(&plans[job % plans.len()].1, &catalog).at(at))
            .expect("submit");
        jobs.push(job);
    };
    for job in 0..clients {
        submit(&mut vs, &mut jobs, job, 0);
    }
    let mut lines = Vec::new();
    loop {
        let done = vs.drain();
        if done.is_empty() {
            break;
        }
        for c in done {
            assert!(c.outcome.is_ok(), "query {}: {:?}", c.id, c.outcome.error());
            let k = c.outcome.stats().counters;
            lines.push(format!(
                "{} {} {} {} {} {} {} {}",
                c.id,
                c.tag,
                c.arrival_ns,
                c.start_ns,
                c.done_ns,
                k.instructions,
                k.l1i_misses,
                k.l1i_cross_misses
            ));
            let next = jobs[c.id as usize] + clients;
            if next < total {
                submit(&mut vs, &mut jobs, next, c.done_ns);
            }
        }
    }
    assert_eq!(lines.len(), total);
    let got = format!(
        "turns {}\n# id tag arrival_ns start_ns done_ns instructions l1i_misses l1i_cross_misses\n{}\n",
        vs.turns(),
        lines.join("\n")
    );
    let full = format!(
        "{}/tests/golden/virtual_schedule.txt",
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
        "virtual-server schedule changed; rerun with BUFFERDB_UPDATE_GOLDEN=1 \
         and review the diff if the change is intentional"
    );
}

/// More concurrent query *streams* ⇒ more cross-query interference. Each
/// stream is a client repeating its own query: one stream keeps its code
/// warm in the shared text section (near-zero cross misses), while S
/// streams time-share the session core with *distinct operator families*
/// whose combined footprint overflows the L1i, so every quantum switch
/// evicts another stream's lines. The suite is chosen for that diversity —
/// streams running near-identical plans share text and interfere little,
/// which is correct and exactly why each added stream here brings a new
/// operator mix (aggregate → hash join → sort/merge → semi-join).
#[test]
fn virtual_server_interference_grows_with_streams() {
    let catalog = catalog();
    let lanes = 2;
    let plans: Vec<(&'static str, PlanNode)> = vec![
        ("paper q1", queries::paper_query1(&catalog).unwrap()),
        (
            "paper q3 hash",
            queries::paper_query3(&catalog, JoinMethod::HashJoin).unwrap(),
        ),
        (
            "paper q3 merge",
            queries::paper_query3(&catalog, JoinMethod::MergeJoin).unwrap(),
        ),
        ("tpch q12", queries::tpch_q12(&catalog).unwrap()),
    ];
    let plans: Vec<(&'static str, PlanNode)> = plans
        .into_iter()
        .map(|(name, plan)| (name, parallelize_plan(&plan, &catalog, lanes).unwrap()))
        .collect();
    // S streams × 3 rounds, round-robin submission, slots = S, on a pool
    // wider than any S so admitted queries share the free workers.
    let cross_at = |streams: usize| {
        let mut vs = VirtualServer::new(ServerConfig::new(
            6,
            streams,
            MachineConfig::pentium4_like(),
        ));
        for _ in 0..3 {
            for (_, plan) in plans.iter().take(streams) {
                vs.submit(SubmitSpec::new(plan, &catalog)).unwrap();
            }
        }
        vs.drain()
            .iter()
            .map(|c| c.outcome.stats().counters.l1i_cross_misses)
            .sum::<u64>()
    };
    let c1 = cross_at(1);
    let c2 = cross_at(2);
    let c4 = cross_at(4);
    assert!(
        c1 < c2 && c2 < c4,
        "cross-query L1i misses must grow with stream count: \
         1 stream = {c1}, 2 streams = {c2}, 4 streams = {c4}"
    );
}
