//! Spine parity: every frontend drives a plan through the same executor
//! spine, so the same plan under the same options must come back the same
//! way — clean, failed with a typed error, or failed with a contained panic
//! — no matter which door it entered by.

use bufferdb::core::fault;
use bufferdb::prelude::*;
use bufferdb::tpch;
use std::sync::Arc;

type Frontend = fn(&Database, &PlanNode, &QueryOpts) -> QueryOutcome;

fn machine() -> MachineConfig {
    MachineConfig::pentium4_like()
}

const FRONTENDS: [(&str, Frontend); 5] = [
    ("execute_query", |db, plan, opts| {
        execute_query(plan, db.catalog(), &machine(), opts)
    }),
    ("Session::query", |db, plan, opts| {
        db.session().query(plan, opts)
    }),
    ("PreparedQuery::execute_opts", |db, plan, opts| {
        db.prepare(plan).expect("prepare").execute_opts(opts)
    }),
    ("Server::submit", |db, plan, opts| {
        Server::new(ServerConfig::new(2, 2, machine()))
            .submit(SubmitSpec::new(plan, db.catalog()).opts(opts.clone()))
            .expect("submit")
            .wait()
    }),
    ("VirtualServer::submit", |db, plan, opts| {
        let mut vs = VirtualServer::new(ServerConfig::new(2, 2, machine()));
        vs.submit(SubmitSpec::new(plan, db.catalog()).opts(opts.clone()))
            .expect("submit");
        vs.drain().pop().expect("one completion").outcome
    }),
];

fn rendered(rows: &[Tuple]) -> Vec<String> {
    rows.iter().map(|t| t.to_string()).collect()
}

fn saw_worker_panic(trace: &TraceReport) -> bool {
    trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .any(|e| matches!(e.event, TraceEvent::WorkerPanic))
}

#[test]
fn every_frontend_runs_and_fails_a_plan_the_same_way() {
    // Injected panics are expected here; keep them off the test log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !fault::panic_message(info.payload()).starts_with(fault::INJECTED_PANIC_PREFIX) {
            default_hook(info);
        }
    }));

    let db = Database::open(tpch::generate_catalog(0.002, 7), machine());
    // Serial, many output rows, so a mid-stream failure visibly truncates.
    let plan = PlanNode::SeqScan {
        table: "orders".into(),
        predicate: Some(Expr::col(0).gt(Expr::lit(100))),
        projection: None,
    };
    let opts = QueryOpts::new().profile(true).trace(true);

    let mut clean: Option<Vec<String>> = None;
    for (name, run) in FRONTENDS {
        let out = run(&db, &plan, &opts);
        assert!(out.is_ok(), "{name}: {:?}", out.error());
        let rows = rendered(out.rows());
        assert!(rows.len() > 100, "{name}: only {} rows", rows.len());
        assert_eq!(
            clean.get_or_insert_with(|| rows.clone()),
            &rows,
            "{name}: rows differ"
        );
        let profile = out
            .profile()
            .unwrap_or_else(|| panic!("{name}: no profile"));
        assert_eq!(
            profile.sum_op_counters(),
            profile.total,
            "{name}: profile does not conserve"
        );
        assert_eq!(profile.total, out.stats().counters, "{name}: profile total");
        assert!(out.trace().is_some(), "{name}: no trace");
    }
    let clean_rows = clean.expect("frontends ran").len();

    for mode in [FaultMode::Error, FaultMode::Panic] {
        for (name, run) in FRONTENDS {
            let faults = Arc::new(FaultRegistry::new());
            faults.arm(fault::SEQSCAN_NEXT, Trigger::at_row(10), mode);
            let out = run(&db, &plan, &opts.clone().faults(faults));
            assert!(
                out.rows().len() < clean_rows,
                "{name} {mode:?}: {} rows",
                out.rows().len()
            );
            let trace = out
                .trace()
                .unwrap_or_else(|| panic!("{name} {mode:?}: no trace"));
            match mode {
                FaultMode::Error => {
                    assert!(
                        matches!(out.error(), Some(DbError::FaultInjected(_))),
                        "{name}: {:?}",
                        out.error()
                    );
                    assert!(out.profile().is_some(), "{name}: typed error keeps profile");
                    assert!(!saw_worker_panic(trace), "{name}: no panic happened");
                }
                FaultMode::Panic => {
                    assert!(
                        matches!(out.error(), Some(DbError::WorkerFailed(_))),
                        "{name}: {:?}",
                        out.error()
                    );
                    assert!(out.profile().is_none(), "{name}: panic drops the profile");
                    assert!(saw_worker_panic(trace), "{name}: trace lacks WorkerPanic");
                }
            }
        }
    }
}
