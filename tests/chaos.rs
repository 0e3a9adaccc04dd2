//! Chaos suite: every fault-injection site, at every worker count, in both
//! modes (typed error and contained panic), must fail with a clean typed
//! `Err` — no hang, no poisoned lock — and leave the session fully usable:
//! the very next query over the same plan returns the complete, correct
//! result. Error-mode failures additionally keep the per-operator profile
//! balanced, so partial counters conserve exactly.

use bufferdb::core::fault;
use bufferdb::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Large enough to trigger both exchange parallelization (512-row floor)
/// and the parallel hash-join build (256-row floor).
const ROWS: i64 = 2000;

/// Suppress the default panic-hook backtrace for *injected* panics (they are
/// the point of this suite); genuine panics still print normally.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if fault::panic_message(info.payload()).starts_with(fault::INJECTED_PANIC_PREFIX) {
                return;
            }
            default(info);
        }));
    });
}

fn chaos_catalog() -> Catalog {
    let c = Catalog::new();
    let mut big = TableBuilder::new(
        "big",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    );
    for i in 0..ROWS {
        big.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i * 3 % 97)]));
    }
    c.add_table(big);
    let t = c.table("big").unwrap();
    let pairs: Vec<(i64, u32)> = t
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| (r.get(0).as_int().unwrap(), i as u32))
        .collect();
    c.add_index(IndexDef {
        name: "big_k".into(),
        table: "big".into(),
        key_column: 0,
        btree: BTreeIndex::bulk_load(pairs),
    });
    c
}

fn scan() -> PlanNode {
    PlanNode::SeqScan {
        table: "big".into(),
        predicate: None,
        projection: None,
    }
}

/// A plan guaranteed to pass through `site` when run at `workers` threads.
/// Every plan produces exactly [`ROWS`] rows when no fault fires.
fn plan_for(site: &str, workers: usize, catalog: &Catalog) -> PlanNode {
    match site {
        fault::SEQSCAN_NEXT => parallelize_plan(&scan(), catalog, workers).unwrap(),
        fault::INDEXSCAN_NEXT => PlanNode::IndexScan {
            index: "big_k".into(),
            mode: IndexMode::Range { lo: None, hi: None },
        },
        fault::EXCHANGE_MORSEL => PlanNode::Exchange {
            input: Box::new(scan()),
            workers,
        },
        fault::HASHJOIN_BUILD => PlanNode::HashJoin {
            probe: Box::new(scan()),
            build: Box::new(scan()),
            probe_key: 0,
            build_key: 0,
        },
        fault::BUFFER_FILL => PlanNode::Buffer {
            input: Box::new(scan()),
            size: 64,
        },
        other => panic!("no chaos plan for site {other:?}"),
    }
}

/// The tentpole sweep: site x worker count x mode. Error mode must surface
/// as `FaultInjected` (even when the fault fires on a worker thread); panic
/// mode must be contained and surface as `WorkerFailed`. After every
/// failure the session runs the same plan clean and gets the full result —
/// proving no lock was poisoned and no stale state leaked.
#[test]
fn every_site_and_worker_count_fails_cleanly_and_recovers() {
    quiet_injected_panics();
    let mut session = Session::new(chaos_catalog(), MachineConfig::pentium4_like());
    for workers in [1usize, 2, 7] {
        session.set_threads(workers);
        for site in fault::ALL_SITES {
            let plan = plan_for(site, workers, session.catalog());
            for mode in [FaultMode::Error, FaultMode::Panic] {
                session.faults().arm(site, Trigger::at_row(2), mode);
                let out = session.query(&plan, &QueryOpts::new());
                match mode {
                    FaultMode::Error => assert!(
                        matches!(out.error(), Some(DbError::FaultInjected(_))),
                        "{site} x{workers} error mode: {:?}",
                        out.error()
                    ),
                    FaultMode::Panic => assert!(
                        matches!(out.error(), Some(DbError::WorkerFailed(_))),
                        "{site} x{workers} panic mode: {:?}",
                        out.error()
                    ),
                }
                session.faults().clear();
                let clean = session.query(&plan, &QueryOpts::new());
                assert!(
                    clean.error().is_none(),
                    "{site} x{workers} after {mode:?}: session did not recover: {:?}",
                    clean.error()
                );
                assert_eq!(
                    clean.rows().len(),
                    ROWS as usize,
                    "{site} x{workers} after {mode:?}: wrong recovery result"
                );
            }
        }
    }
}

/// An injected *error* unwinds cleanly through the profiler brackets, so
/// the partial per-operator profile still sums exactly to the aggregate
/// machine snapshot — the acceptance criterion for counter conservation
/// after failure.
#[test]
fn injected_error_keeps_profiled_counters_conserved() {
    quiet_injected_panics();
    let mut session = Session::new(chaos_catalog(), MachineConfig::pentium4_like());
    session.set_threads(2);
    for site in fault::ALL_SITES {
        let plan = plan_for(site, 2, session.catalog());
        session
            .faults()
            .arm(site, Trigger::at_row(2), FaultMode::Error);
        let out = session.query(&plan, &QueryOpts::new().profile(true));
        assert!(
            matches!(out.error(), Some(DbError::FaultInjected(_))),
            "{site}: {:?}",
            out.error()
        );
        let profile = out
            .profile()
            .unwrap_or_else(|| panic!("{site}: clean error unwind must keep a balanced profile"));
        assert_eq!(
            profile.sum_op_counters(),
            out.stats().counters,
            "{site}: partial profile does not conserve"
        );
        session.faults().clear();
    }
    // Follow-up profiled query on the recovered session: complete and exact.
    let plan = plan_for(fault::SEQSCAN_NEXT, 2, session.catalog());
    let out = session.query(&plan, &QueryOpts::new().profile(true));
    assert!(out.error().is_none(), "{:?}", out.error());
    assert_eq!(out.rows().len(), ROWS as usize);
    let profile = out.profile().expect("profiled clean run");
    assert_eq!(profile.sum_op_counters(), out.stats().counters);
}

/// A zero timeout cancels at the first granule boundary with a typed
/// `Cancelled` error, partial counters conserved; clearing the timeout
/// restores normal operation on the same session.
#[test]
fn zero_timeout_cancels_with_conserved_partial_profile() {
    let mut session = Session::new(chaos_catalog(), MachineConfig::pentium4_like());
    let plan = plan_for(fault::BUFFER_FILL, 1, session.catalog());
    session.set_timeout(Some(Duration::ZERO));
    let out = session.query(&plan, &QueryOpts::new().profile(true));
    assert!(
        matches!(out.error(), Some(DbError::Cancelled(_))),
        "{:?}",
        out.error()
    );
    let profile = out.profile().expect("cancellation unwinds cleanly");
    assert_eq!(
        profile.sum_op_counters(),
        out.stats().counters,
        "partial profile after timeout does not conserve"
    );
    session.set_timeout(None);
    let out = session.query(&plan, &QueryOpts::new().profile(true));
    assert!(out.error().is_none(), "{:?}", out.error());
    assert_eq!(out.rows().len(), ROWS as usize);
    let profile = out.profile().expect("profiled clean run");
    assert_eq!(profile.sum_op_counters(), out.stats().counters);
}

/// `Session::cancel` from another thread stops the in-flight query with a
/// typed `Cancelled` error, and the session remains usable afterwards.
#[test]
fn cross_thread_cancel_stops_inflight_query() {
    let session = Session::new(chaos_catalog(), MachineConfig::pentium4_like());
    // Hash self-join, rerun until a cancel lands while it is in flight: a
    // run can finish before the canceller is next scheduled, and such a run
    // must simply be complete.
    let plan = plan_for(fault::HASHJOIN_BUILD, 1, session.catalog());
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            // Cancel continuously: the first call after `run` installs its
            // fresh token stops the query at the next granule boundary.
            while !done.load(Ordering::Relaxed) {
                session.cancel();
                std::thread::yield_now();
            }
        });
        let cancelled = |out: &QueryOutcome| matches!(out.error(), Some(DbError::Cancelled(_)));
        let mut out = session.query(&plan, &QueryOpts::new());
        for _ in 0..1000 {
            if cancelled(&out) {
                break;
            }
            assert!(out.error().is_none(), "{:?}", out.error());
            assert_eq!(out.rows().len(), ROWS as usize);
            out = session.query(&plan, &QueryOpts::new());
        }
        done.store(true, Ordering::Relaxed);
        out
    });
    assert!(
        matches!(out.error(), Some(DbError::Cancelled(_))),
        "{:?}",
        out.error()
    );
    let clean = session.query(&plan, &QueryOpts::new());
    assert!(clean.error().is_none(), "{:?}", clean.error());
    assert_eq!(clean.rows().len(), ROWS as usize);
}
