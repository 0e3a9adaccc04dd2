//! Plan-cache correctness suite: fingerprint hits and misses, LRU eviction,
//! invalidation on stats-epoch / machine / thread-count changes, result
//! equivalence cached vs. uncached (serial and parallel), and the
//! no-poisoning guarantee — a faulted or cancelled execution must never
//! modify a cached plan.

use bufferdb::core::fault::{self, FaultMode, Trigger};
use bufferdb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Rows in the test table: big enough that the refiner sees a
/// buffering-worthy cardinality and the parallelizer sees a morsel-worthy
/// scan (512-row floor).
const ROWS: i64 = 10_000;

fn test_catalog() -> Catalog {
    let c = Catalog::new();
    let mut b = TableBuilder::new(
        "lineitem",
        Schema::new(vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_quantity", DataType::Int),
        ]),
    );
    for i in 0..ROWS {
        b.push(Tuple::new(vec![Datum::Int(i / 4), Datum::Int(i % 50)]));
    }
    c.add_table(b);
    c
}

fn scan() -> PlanNode {
    PlanNode::SeqScan {
        table: "lineitem".into(),
        predicate: Some(Expr::col(1).le(Expr::lit(45))),
        projection: None,
    }
}

/// The refine-suite Query 1 shape: scan + 3 aggregates overflows the 16 KB
/// budget, so static refinement places a buffer — giving the `buffer.fill`
/// fault site something to hit.
fn agg_plan() -> PlanNode {
    PlanNode::Aggregate {
        input: Box::new(scan()),
        group_by: vec![],
        aggs: vec![
            AggSpec::new(AggFunc::Sum, Expr::col(1), "s"),
            AggSpec::new(AggFunc::Avg, Expr::col(1), "a"),
            AggSpec::count_star("n"),
        ],
    }
}

fn db() -> Database {
    Database::open(test_catalog(), MachineConfig::pentium4_like())
}

fn rendered(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    v.sort();
    v
}

#[test]
fn same_plan_hits_different_plan_misses() {
    let db = db();
    db.prepare(&agg_plan()).unwrap();
    db.prepare(&agg_plan()).unwrap();
    db.prepare(&scan()).unwrap();
    let s = db.plan_cache().stats();
    assert_eq!(s.hits, 1, "second prepare of the same plan must hit");
    assert_eq!(s.misses, 2, "distinct fingerprints must miss");
    assert_eq!(s.entries, 2);
}

#[test]
fn eviction_at_capacity_is_lru() {
    let db = db().with_plan_cache(Arc::new(PlanCache::new(2)));
    let limit = |n: u64| PlanNode::Limit {
        input: Box::new(scan()),
        limit: n,
    };
    db.prepare(&limit(1)).unwrap();
    db.prepare(&limit(2)).unwrap();
    db.prepare(&limit(1)).unwrap(); // refresh 1 → victim is 2
    db.prepare(&limit(3)).unwrap(); // evicts 2
    assert_eq!(db.plan_cache().stats().evictions, 1);
    db.prepare(&limit(1)).unwrap();
    assert_eq!(db.plan_cache().stats().hits, 2, "limit(1) stayed resident");
    db.prepare(&limit(2)).unwrap();
    assert_eq!(db.plan_cache().stats().hits, 2, "limit(2) was evicted");
}

#[test]
fn stats_epoch_bump_invalidates_cached_plans() {
    let db = db();
    let before = db.prepare(&agg_plan()).unwrap();
    db.catalog().bump_stats_epoch();
    let after = db.prepare(&agg_plan()).unwrap();
    assert_ne!(before.fingerprint(), after.fingerprint());
    assert!(
        !Arc::ptr_eq(before.entry(), after.entry()),
        "post-bump prepare must re-optimize, not reuse the stale entry"
    );
    let s = db.plan_cache().stats();
    assert_eq!(s.invalidations, 1, "stale entry swept");
    assert_eq!(s.hits, 0);
}

#[test]
fn machine_config_change_re_keys() {
    let a = Database::open(test_catalog(), MachineConfig::pentium4_like());
    let b = Database::open(test_catalog(), MachineConfig::large_l1i());
    let fa = a.prepare(&agg_plan()).unwrap().fingerprint();
    let fb = b.prepare(&agg_plan()).unwrap().fingerprint();
    assert_ne!(fa, fb, "a different machine must not share cached plans");
}

#[test]
fn thread_count_change_re_keys() {
    let mut db = db();
    let f1 = db.prepare(&agg_plan()).unwrap().fingerprint();
    db.set_threads(4);
    let f4 = db.prepare(&agg_plan()).unwrap().fingerprint();
    assert_ne!(f1, f4);
    assert_eq!(db.plan_cache().stats().hits, 0);
    // And back: the 1-thread entry is still resident and hits.
    db.set_threads(1);
    db.prepare(&agg_plan()).unwrap();
    assert_eq!(db.plan_cache().stats().hits, 1);
}

#[test]
fn cached_results_match_uncached_at_1_2_7_workers() {
    for workers in [1usize, 2, 7] {
        let mut db = db();
        db.set_threads(workers);
        for plan in [agg_plan(), scan()] {
            let direct = prepare_physical_plan(&plan, db.catalog(), db.refine_config(), workers)
                .unwrap_or_else(|e| panic!("{workers} workers: prepare: {e}"));
            let machine = db.session().machine();
            let (rows, _, _) = execute_query(&direct, db.catalog(), machine, &QueryOpts::new())
                .into_result()
                .unwrap_or_else(|e| panic!("{workers} workers: uncached run: {e}"));
            let prepared = db.prepare(&plan).unwrap();
            for round in 0..2 {
                let out = prepared.execute();
                assert!(
                    out.is_ok(),
                    "{workers} workers round {round}: {:?}",
                    out.error()
                );
                assert_eq!(
                    rendered(out.rows()),
                    rendered(&rows),
                    "{workers} workers round {round}: cached result differs"
                );
            }
        }
        assert!(db.plan_cache().stats().misses >= 2);
    }
}

#[test]
fn buffer_fill_fault_does_not_poison_the_cache() {
    let db = db();
    let q = db.prepare(&agg_plan()).unwrap();
    let static_plan = q.plan();
    assert!(
        static_plan.buffer_count() >= 1,
        "precondition: refined plan must contain a buffer: {static_plan:?}"
    );
    db.session()
        .faults()
        .arm(fault::BUFFER_FILL, Trigger::at_row(2), FaultMode::Error);
    let out = q.execute_adaptive();
    assert!(
        matches!(out.error(), Some(DbError::FaultInjected(_))),
        "{:?}",
        out.error()
    );
    assert_eq!(q.generation(), 0, "failed run must not adapt the plan");
    assert_eq!(q.plan(), static_plan, "failed run must not modify the plan");
    db.session().faults().clear();
    let clean = q.execute();
    assert!(clean.is_ok(), "{:?}", clean.error());
    assert_eq!(clean.rows().len(), 1, "single aggregate row");
}

#[test]
fn mid_query_cancel_does_not_poison_the_cache() {
    let db = db();
    let q = db.prepare(&agg_plan()).unwrap();
    let static_plan = q.plan();
    let out = q.execute_adaptive_opts(&QueryOpts::new().timeout(Duration::ZERO));
    assert!(
        matches!(out.error(), Some(DbError::Cancelled(_))),
        "{:?}",
        out.error()
    );
    assert_eq!(q.generation(), 0, "cancelled run must not adapt the plan");
    assert_eq!(
        q.plan(),
        static_plan,
        "cancelled run must not modify the plan"
    );
    let clean = q.execute();
    assert!(clean.is_ok(), "{:?}", clean.error());
}

#[test]
fn adaptation_preserves_results() {
    // Whatever the adaptive loop decides, the answer must not change.
    let db = db();
    let q = db.prepare(&agg_plan()).unwrap();
    let baseline = q.execute();
    assert!(baseline.is_ok());
    for _ in 0..4 {
        let out = q.execute_adaptive();
        assert!(out.is_ok(), "{:?}", out.error());
        assert_eq!(rendered(out.rows()), rendered(baseline.rows()));
    }
    let after = q.execute();
    assert_eq!(rendered(after.rows()), rendered(baseline.rows()));
}

#[test]
fn evicted_entry_handle_stays_usable() {
    let db = db().with_plan_cache(Arc::new(PlanCache::new(1)));
    let q = db.prepare(&agg_plan()).unwrap();
    db.prepare(&scan()).unwrap(); // evicts the agg entry
    assert_eq!(db.plan_cache().stats().evictions, 1);
    let out = q.execute();
    assert!(out.is_ok(), "handle must outlive eviction");
}

/// A fixed 2 000-request trace — 24 shapes drawn with a skew, a 12-entry
/// LRU cache, five stats-epoch bumps, the aggregate harvested into the
/// reuse cache after each — must keep its cache statistics. The reuse
/// half was recorded when keys were still computed from `format!("{:?}")`
/// renderings; the plan cache's exact LRU depends only on which keys are
/// equal, and `tests/prop_plans.rs` pins the key values themselves.
#[test]
fn fixed_request_trace_keeps_its_cache_statistics() {
    use bufferdb::types::Rng;

    let db = db().with_plan_cache(Arc::new(PlanCache::new(12)));
    let filtered = |hi: i64| PlanNode::Filter {
        input: Box::new(agg_plan()),
        predicate: Expr::col(2).le(Expr::lit(hi)),
    };
    let mut shapes = vec![agg_plan(), scan()];
    shapes.extend((0..11).map(filtered));
    shapes.extend((0..11).map(|k| PlanNode::SeqScan {
        table: "lineitem".into(),
        predicate: Some(Expr::col(0).le(Expr::lit(k))),
        projection: None,
    }));
    let mut rng = Rng::seed_from_u64(2000);
    for request in 0..2000 {
        if request % 400 == 200 {
            db.catalog().bump_stats_epoch();
        }
        if request % 400 == 210 {
            assert_eq!(db.harvest_reuse(&agg_plan(), &QueryOpts::new()), 1);
        }
        let n = shapes.len();
        let shape = rng.gen_range(0..n) * rng.gen_range(0..n) / n;
        db.prepare(&shapes[shape]).unwrap();
    }
    let cache = db.plan_cache().stats();
    assert_eq!(
        (
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.invalidations,
            cache.entries
        ),
        (1480, 520, 448, 60, 12)
    );
    let reuse = db.reuse_cache().stats();
    assert_eq!(
        reuse,
        ReuseStats {
            lookups: 2738,
            hits: 1380,
            installs: 5,
            install_failures: 0,
            evictions: 0,
            invalidations: 4,
            entries: 1,
            bytes: 48,
            budget_bytes: reuse.budget_bytes,
            cycles_saved: 0,
        }
    );
}
