//! Subplan reuse-cache correctness: spliced replays must be bit-identical
//! to recomputation at any worker count, profiles must conserve counters
//! with a `ReusedScan` in the plan, stats-epoch bumps must invalidate
//! without disturbing in-flight handles, and faulted or cancelled
//! producing runs must never poison the cache.

use bufferdb::core::fault;
use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries, queries::JoinMethod};
use std::sync::Arc;
use std::time::Duration;

fn suite_plans(catalog: &bufferdb::storage::Catalog) -> Vec<(&'static str, PlanNode)> {
    vec![
        (
            "paper q3 hj",
            queries::paper_query3(catalog, JoinMethod::HashJoin).unwrap(),
        ),
        ("tpch q1", queries::tpch_q1(catalog).unwrap()),
        ("tpch q12", queries::tpch_q12(catalog).unwrap()),
        ("tpch q14", queries::tpch_q14(catalog).unwrap()),
    ]
}

/// Order-normalized row fingerprints: render each row and sort, so result
/// sets compare as multisets while staying bit-exact per row.
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    v.sort();
    v
}

fn is_reused(n: &PlanNode) -> bool {
    matches!(n, PlanNode::ReusedScan { .. })
}

fn open_db() -> Database {
    let mut db = Database::open(
        tpch::generate_catalog(0.002, 7),
        MachineConfig::pentium4_like(),
    );
    db.set_threads(1);
    db
}

/// Every suite query, replayed from the reuse cache at 1, 2 and 7 workers,
/// must produce exactly the recomputed result set.
#[test]
fn reused_results_are_bit_identical_at_every_worker_count() {
    let mut db = open_db();
    let off = QueryOpts::new().reuse(ReusePolicy::Off);
    let on = QueryOpts::new();
    let plans = suite_plans(db.catalog());

    let recomputed: Vec<Vec<String>> = plans
        .iter()
        .map(|(name, plan)| {
            let q = db.prepare_opts(plan, &off).unwrap();
            let out = q.execute_opts(&off);
            assert!(out.is_ok(), "{name}: recompute baseline failed");
            normalized(out.rows())
        })
        .collect();

    let mut installed = 0;
    for (_, plan) in &plans {
        installed += db.harvest_reuse(plan, &on);
    }
    assert!(installed >= plans.len(), "every suite query must harvest");

    for workers in [1usize, 2, 7] {
        db.set_threads(workers);
        for ((name, plan), want) in plans.iter().zip(&recomputed) {
            let q = db.prepare_opts(plan, &on).unwrap();
            assert!(
                q.plan().count(is_reused) >= 1,
                "{name} at {workers} workers: no ReusedScan spliced"
            );
            let out = q.execute_opts(&on);
            assert!(
                out.is_ok(),
                "{name} at {workers} workers: {:?}",
                out.error()
            );
            assert_eq!(
                normalized(out.rows()),
                *want,
                "{name} at {workers} workers: reused result differs from recomputed"
            );
        }
    }
}

/// Profiling a plan containing a spliced `ReusedScan` must conserve
/// counters exactly: per-operator sums equal the aggregate snapshot.
#[test]
fn profile_conserves_counters_when_reused_scan_replaces_a_subtree() {
    let db = open_db();
    let on = QueryOpts::new();
    for (name, plan) in suite_plans(db.catalog()) {
        db.harvest_reuse(&plan, &on);
        let q = db.prepare_opts(&plan, &on).unwrap();
        assert!(q.plan().count(is_reused) >= 1, "{name}: no splice");
        let out = q.execute_opts(&on.clone().profile(true));
        assert!(out.is_ok(), "{name}: {:?}", out.error());
        let profile = out.profile().expect("profiling was requested");
        assert_eq!(
            profile.sum_op_counters(),
            out.stats().counters,
            "{name}: per-operator sum != query snapshot with ReusedScan"
        );
        assert!(
            profile
                .ops
                .iter()
                .any(|op| op.label.starts_with("ReusedScan")),
            "{name}: profile must attribute work to the ReusedScan leaf"
        );
    }
}

/// A stats-epoch bump invalidates every cached subplan: queries prepared
/// before the bump finish consistently off their `Arc`'d handle, and the
/// next prepare recomputes instead of splicing.
#[test]
fn stats_epoch_bump_invalidates_without_disturbing_prepared_queries() {
    let db = open_db();
    let off = QueryOpts::new().reuse(ReusePolicy::Off);
    let on = QueryOpts::new();
    let plan = queries::tpch_q12(db.catalog()).unwrap();
    let want = {
        let q = db.prepare_opts(&plan, &off).unwrap();
        normalized(q.execute_opts(&off).rows())
    };

    assert!(db.harvest_reuse(&plan, &on) >= 1);
    let q = db.prepare_opts(&plan, &on).unwrap();
    assert_eq!(q.plan().count(is_reused), 1, "whole-plan aggregate splice");

    // The bump lands while `q` is still outstanding — mid-stream from the
    // cache's point of view.
    db.catalog().bump_stats_epoch();
    let out = q.execute_opts(&on);
    assert!(out.is_ok(), "in-flight replay survives the bump");
    assert_eq!(
        normalized(out.rows()),
        want,
        "replay after the bump still returns the rows it was prepared with"
    );

    // The next prepare sweeps the stale entry and recomputes.
    let q2 = db.prepare_opts(&plan, &on).unwrap();
    assert_eq!(q2.plan().count(is_reused), 0, "stale entry must not splice");
    assert!(db.reuse_cache().is_empty(), "sweep reclaims the entry");
    let s = db.reuse_cache().stats();
    assert!(s.invalidations >= 1, "sweep counts the invalidation");
    assert_eq!(normalized(q2.execute_opts(&on).rows()), want);

    // Re-harvesting under the new epoch fills the cache again.
    assert!(db.harvest_reuse(&plan, &on) >= 1);
    let q3 = db.prepare_opts(&plan, &on).unwrap();
    assert_eq!(q3.plan().count(is_reused), 1);
    assert_eq!(normalized(q3.execute_opts(&on).rows()), want);
}

/// A fault injected into the producing run must leave the cache empty —
/// a failed harvest never installs, and the failure is not memoized as a
/// merit refusal (a later clean harvest succeeds).
#[test]
fn fault_during_install_never_poisons_the_cache() {
    let db = open_db();
    let plan = queries::tpch_q12(db.catalog()).unwrap();

    let faults = Arc::new(FaultRegistry::new());
    faults.arm(fault::SEQSCAN_NEXT, Trigger::every(1), FaultMode::Error);
    let faulty = QueryOpts::new().faults(Arc::clone(&faults));
    assert_eq!(db.harvest_reuse(&plan, &faulty), 0);
    assert!(db.reuse_cache().is_empty(), "faulted run must not install");
    assert!(db.reuse_cache().stats().install_failures >= 1);

    // Prepares in between see nothing to splice.
    let on = QueryOpts::new();
    let q = db.prepare_opts(&plan, &on).unwrap();
    assert_eq!(q.plan().count(is_reused), 0);

    // A clean harvest afterwards installs normally: transient failures are
    // not remembered as refusals.
    assert!(db.harvest_reuse(&plan, &on) >= 1);
    assert_eq!(
        db.prepare_opts(&plan, &on).unwrap().plan().count(is_reused),
        1
    );
}

/// A cancelled (zero-timeout) producing run likewise installs nothing and
/// does not block a later clean harvest.
#[test]
fn cancel_during_install_installs_nothing() {
    let db = open_db();
    let plan = queries::tpch_q14(db.catalog()).unwrap();

    let cancelled = QueryOpts::new().timeout(Duration::ZERO);
    assert_eq!(db.harvest_reuse(&plan, &cancelled), 0);
    assert!(db.reuse_cache().is_empty());
    assert!(db.reuse_cache().stats().install_failures >= 1);

    let on = QueryOpts::new();
    assert!(db.harvest_reuse(&plan, &on) >= 1);
    let q = db.prepare_opts(&plan, &on).unwrap();
    assert!(q.plan().count(is_reused) >= 1);
}

/// `ReusePolicy` gates each side independently: `ReadOnly` splices but
/// never installs; `Off` neither splices nor installs even on a hot cache.
#[test]
fn reuse_policy_gates_splice_and_install_independently() {
    let db = open_db();
    let plan = queries::tpch_q12(db.catalog()).unwrap();
    let ro = QueryOpts::new().reuse(ReusePolicy::ReadOnly);
    let off = QueryOpts::new().reuse(ReusePolicy::Off);
    let on = QueryOpts::new();

    assert_eq!(db.harvest_reuse(&plan, &ro), 0, "ReadOnly must not install");
    assert_eq!(db.harvest_reuse(&plan, &off), 0, "Off must not install");
    assert!(db.reuse_cache().is_empty());

    assert!(db.harvest_reuse(&plan, &on) >= 1);
    assert_eq!(
        db.prepare_opts(&plan, &off)
            .unwrap()
            .plan()
            .count(is_reused),
        0,
        "Off must not splice a hot cache"
    );
    assert_eq!(
        db.prepare_opts(&plan, &ro).unwrap().plan().count(is_reused),
        1,
        "ReadOnly splices"
    );
}

/// A byte budget too small for the working set forces benefit-per-byte
/// eviction; residency never exceeds the budget and the counters stay
/// consistent (installs − evictions − invalidations = live entries).
#[test]
fn tight_budget_evicts_by_benefit_per_byte_with_exact_accounting() {
    let catalog = tpch::generate_catalog(0.002, 7);
    // The suite's aggregate outputs run 48-400 bytes; 160 bytes admits
    // the small ones one-at-a-time, so later installs must evict.
    let mut db = Database::open(catalog, MachineConfig::pentium4_like())
        .with_reuse_cache(Arc::new(ReuseCache::new(160)));
    db.set_threads(1);
    let on = QueryOpts::new();
    let plans = suite_plans(db.catalog());
    for (_, plan) in &plans {
        db.harvest_reuse(plan, &on);
    }
    let s = db.reuse_cache().stats();
    assert!(s.installs >= 2, "multiple installs expected, got {s:?}");
    assert!(s.evictions >= 1, "the tight budget must evict, got {s:?}");
    assert!(s.bytes <= 160, "residency above budget: {s:?}");
    assert_eq!(
        s.installs - s.evictions - s.invalidations,
        s.entries,
        "entry accounting must balance: {s:?}"
    );
    // What remains still splices and replays correctly.
    let mut spliced = 0;
    for (name, plan) in &plans {
        let q = db.prepare_opts(plan, &on).unwrap();
        if q.plan().count(is_reused) >= 1 {
            spliced += 1;
            let off = QueryOpts::new().reuse(ReusePolicy::Off);
            let want = normalized(
                db.prepare_opts(plan, &off)
                    .unwrap()
                    .execute_opts(&off)
                    .rows(),
            );
            assert_eq!(normalized(q.execute_opts(&on).rows()), want, "{name}");
        }
    }
    assert!(spliced >= 1, "survivors must still replay");
}
