//! Executor-mode equivalence: the push backend must be a drop-in
//! replacement for the pull backends. Every query in the TPC-H mix, at
//! every worker count, must produce **bit-identical rows in identical
//! order** under pull, buffered pull and push;
//! push-mode profiles must conserve counters exactly; and faults and
//! cancellation must surface identically through the shared sites.

use bufferdb::core::fault;
use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries};
use std::time::Duration;

const MODES: [ExecModePolicy; 3] = [
    ExecModePolicy::Pull,
    ExecModePolicy::BufferedPull,
    ExecModePolicy::Push,
];

fn catalog() -> Catalog {
    tpch::generate_catalog(0.002, 7)
}

/// The showdown mix: scans, filtered aggregation, and a join.
fn suite(catalog: &Catalog) -> Vec<(&'static str, PlanNode)> {
    vec![
        ("paper q1", queries::paper_query1(catalog).unwrap()),
        ("paper q2", queries::paper_query2(catalog).unwrap()),
        ("tpch q1", queries::tpch_q1(catalog).unwrap()),
        ("tpch q6", queries::tpch_q6(catalog).unwrap()),
    ]
}

fn db(mode: ExecModePolicy, workers: usize) -> Database {
    // `generate_catalog` is seeded, so every database sees identical data.
    let mut db = Database::open(catalog(), MachineConfig::pentium4_like()).with_exec_mode(mode);
    db.set_threads(workers);
    db
}

/// Rows in execution order, bit-exact — deliberately *not* sorted: push
/// must reproduce the pull backend's row order, not just its multiset.
fn exact_rows(out: QueryOutcome) -> Vec<String> {
    let (rows, _, _) = out.into_result().expect("query must succeed");
    rows.iter().map(|t| format!("{t}")).collect()
}

fn is_push(n: &PlanNode) -> bool {
    matches!(n, PlanNode::PushPipeline { .. })
}

/// Every mode, every query, at 1/2/7 workers: rows are bit-identical and
/// in identical order to the pull baseline. Also guards against a vacuous
/// pass: push mode must actually have fused pipelines into the plans.
#[test]
fn all_modes_produce_bit_identical_rows_at_every_worker_count() {
    for workers in [1usize, 2, 7] {
        let reference = db(ExecModePolicy::Pull, workers);
        let expected: Vec<(&str, Vec<String>)> = suite(reference.catalog())
            .into_iter()
            .map(|(name, plan)| {
                let prepared = reference.prepare(&plan).unwrap();
                (name, exact_rows(prepared.execute()))
            })
            .collect();
        for mode in MODES {
            if mode == ExecModePolicy::Pull {
                continue;
            }
            let candidate = db(mode, workers);
            let mut fused = 0usize;
            for ((name, plan), (_, want)) in suite(candidate.catalog()).into_iter().zip(&expected) {
                let prepared = candidate.prepare(&plan).unwrap();
                fused += prepared.plan().count(is_push);
                let got = exact_rows(prepared.execute());
                assert_eq!(
                    &got,
                    want,
                    "{name} x{workers} under {} diverges from pull",
                    mode.label()
                );
            }
            if mode == ExecModePolicy::Push {
                assert!(
                    fused > 0,
                    "push mode x{workers} fused nothing: equivalence is vacuous"
                );
            }
        }
    }
}

/// Paper Query 3 under each join method: push fuses one nest-loop probe
/// group; a hash probe group beside its build side's scan group; a sort
/// group and the merge group over its run. Every mode at 1/2 workers
/// returns the pull rows, in order.
#[test]
fn paper_query3_joins_fuse_and_match_pull_at_one_and_two_workers() {
    use queries::JoinMethod;
    let methods = [
        JoinMethod::NestLoop,
        JoinMethod::HashJoin,
        JoinMethod::MergeJoin,
    ];
    for workers in [1usize, 2] {
        let reference = db(ExecModePolicy::Pull, workers);
        for method in methods {
            let plan = queries::paper_query3(reference.catalog(), method).unwrap();
            let want = exact_rows(reference.prepare(&plan).unwrap().execute());
            for mode in MODES {
                let candidate = db(mode, workers);
                let prepared = candidate.prepare(&plan).unwrap();
                if mode == ExecModePolicy::Push && workers == 1 {
                    let groups = if method == JoinMethod::NestLoop { 1 } else { 2 };
                    assert_eq!(
                        prepared.plan().count(is_push),
                        groups,
                        "{method:?} under push: {:?}",
                        prepared.plan()
                    );
                }
                let got = exact_rows(prepared.execute());
                assert_eq!(got, want, "{method:?} x{workers} under {}", mode.label());
            }
        }
    }
}

/// Push-mode profiles conserve exactly: the assembled query counters equal
/// the profile total, and per-operator counters sum to that total — the
/// fused pipelines' work is fully attributed, never dropped or doubled.
#[test]
fn push_mode_profiles_conserve_counters() {
    for workers in [1usize, 2] {
        let database = db(ExecModePolicy::Push, workers);
        for (name, plan) in suite(database.catalog()) {
            let prepared = database.prepare(&plan).unwrap();
            let out = prepared.execute_opts(&QueryOpts::new().profile(true));
            assert!(
                out.error().is_none(),
                "{name} x{workers}: {:?}",
                out.error()
            );
            let c = out.stats().counters;
            let profile = out.profile().expect("profiling was requested");
            assert_eq!(
                profile.total, c,
                "{name} x{workers}: profile total must equal query counters"
            );
            assert_eq!(
                profile.sum_op_counters(),
                c,
                "{name} x{workers}: per-operator counters must sum to the total"
            );
        }
    }
}

const CHAOS_ROWS: i64 = 2000;

fn chaos_catalog() -> Catalog {
    let c = Catalog::new();
    let mut big = TableBuilder::new(
        "big",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    );
    for i in 0..CHAOS_ROWS {
        big.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i * 3 % 97)]));
    }
    c.add_table(big);
    c
}

fn chaos_db(mode: ExecModePolicy) -> Database {
    Database::open(chaos_catalog(), MachineConfig::pentium4_like()).with_exec_mode(mode)
}

fn scan() -> PlanNode {
    PlanNode::SeqScan {
        table: "big".into(),
        predicate: None,
        projection: None,
    }
}

/// A plan guaranteed to pass through `site` in both executor backends.
fn chaos_plan(site: &str) -> PlanNode {
    match site {
        fault::SEQSCAN_NEXT => PlanNode::Filter {
            input: Box::new(scan()),
            predicate: Expr::col(0).lt(Expr::lit(CHAOS_ROWS)),
        },
        fault::HASHJOIN_BUILD => PlanNode::HashJoin {
            probe: Box::new(scan()),
            build: Box::new(scan()),
            probe_key: 0,
            build_key: 0,
        },
        other => panic!("no chaos plan for site {other:?}"),
    }
}

/// The fault sites are *shared* between backends: arming a site fails a
/// push-mode query with the identical typed error a pull-mode query gets,
/// and both recover to the full, identical result on the next run.
#[test]
fn armed_faults_fail_identically_in_pull_and_push_mode() {
    for site in [fault::SEQSCAN_NEXT, fault::HASHJOIN_BUILD] {
        let plan = chaos_plan(site);
        let mut clean: Vec<Vec<String>> = Vec::new();
        for mode in [ExecModePolicy::Pull, ExecModePolicy::Push] {
            let database = chaos_db(mode);
            let prepared = database.prepare(&plan).unwrap();
            if mode == ExecModePolicy::Push {
                assert!(
                    prepared.plan().count(is_push) > 0,
                    "{site}: chaos plan must actually fuse under push"
                );
            }
            database
                .session()
                .faults()
                .arm(site, Trigger::at_row(2), FaultMode::Error);
            let out = prepared.execute();
            assert!(
                matches!(out.error(), Some(DbError::FaultInjected(_))),
                "{site} under {}: {:?}",
                mode.label(),
                out.error()
            );
            let recovered = prepared.execute();
            assert!(
                recovered.error().is_none(),
                "{site}: {:?}",
                recovered.error()
            );
            clean.push(exact_rows(recovered));
        }
        assert_eq!(
            clean[0], clean[1],
            "{site}: post-fault recovery rows diverge between backends"
        );
    }
}

/// Cancellation cuts both backends at a granule boundary with the same
/// typed error, and partial push-mode profiles still conserve.
#[test]
fn cancellation_behaves_identically_in_pull_and_push_mode() {
    let plan = chaos_plan(fault::HASHJOIN_BUILD);
    for mode in [ExecModePolicy::Pull, ExecModePolicy::Push] {
        let mut database = chaos_db(mode);
        database.set_timeout(Some(Duration::ZERO));
        let prepared = database.prepare(&plan).unwrap();
        let out = prepared.execute_opts(&QueryOpts::new().profile(true));
        assert!(
            matches!(out.error(), Some(DbError::Cancelled(_))),
            "{} mode: {:?}",
            mode.label(),
            out.error()
        );
        let profile = out.profile().expect("cancellation unwinds cleanly");
        assert_eq!(
            profile.sum_op_counters(),
            out.stats().counters,
            "{} mode: partial profile after cancel does not conserve",
            mode.label()
        );
        database.set_timeout(None);
        let clean = database.prepare(&plan).unwrap().execute();
        assert!(clean.error().is_none(), "{:?}", clean.error());
        assert_eq!(clean.rows().len(), CHAOS_ROWS as usize);
    }
}
