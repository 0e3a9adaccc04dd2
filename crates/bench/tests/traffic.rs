//! Integration tests for the open-loop traffic driver: determinism, the
//! report's shape, and chaos scoped to its regime without plan-cache
//! poisoning.

use std::sync::OnceLock;

use bufferdb_bench::json::{Json, SCHEMA_VERSION};
use bufferdb_bench::{run_traffic, RegimeSpec, TrafficConfig, TrafficRun};

/// A two-regime scenario small enough for debug-mode CI: steady then a
/// stats-epoch shift, three windows each, ~4 queries per window. The
/// shift regime's thread bump is dropped: parallel lanes claim morsels
/// through a racy shared queue, so their modeled profile is
/// schedule-dependent and exact-equality assertions need serial plans.
fn tiny_cfg() -> TrafficConfig {
    let mut cfg = TrafficConfig::scripted(0.002, 7, 2);
    cfg.queries_per_window = 4.0;
    for regime in &mut cfg.regimes {
        regime.windows = 3;
        regime.threads = None;
    }
    cfg
}

fn tiny_run() -> &'static TrafficRun {
    static RUN: OnceLock<TrafficRun> = OnceLock::new();
    RUN.get_or_init(|| run_traffic(&tiny_cfg()))
}

#[test]
fn traffic_run_is_deterministic() {
    let first = tiny_run();
    let second = run_traffic(&tiny_cfg());
    assert_eq!(
        first.report.total_instructions, second.report.total_instructions,
        "modeled instruction stream must be identical for the same seed"
    );
    assert_eq!(first.report.to_json(), second.report.to_json());
    assert_eq!(first.table, second.table);
}

#[test]
fn report_carries_schema_version_and_regime_shape() {
    let run = tiny_run();
    let doc = Json::parse(&run.report.to_json()).expect("report parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("bufferdb-traffic/v1")
    );
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION)
    );
    let regimes = doc
        .get("regimes")
        .and_then(|r| r.as_arr())
        .expect("regimes");
    assert_eq!(regimes.len(), 2);
    for regime in regimes {
        let classes = regime
            .get("classes")
            .and_then(|c| c.as_arr())
            .expect("classes");
        assert!(!classes.is_empty(), "each regime reports class latencies");
        assert_eq!(
            classes[0].get("class").and_then(|c| c.as_str()),
            Some("all"),
            "the aggregate series leads the class table"
        );
        for key in ["p50_ns", "p95_ns", "p99_ns", "mean_ns"] {
            assert!(classes[0].get(key).is_some(), "missing {key}");
        }
    }
    // Cancellations and fault trips are disjoint subsets of the errors.
    for r in &run.report.regimes {
        assert!(
            r.cancelled + r.fault_trips <= r.errors,
            "{}: {} cancelled + {} fault trips > {} errors",
            r.name,
            r.cancelled,
            r.fault_trips,
            r.errors
        );
    }
    // The shift regime re-prepares after the stats-epoch bump: its misses
    // and invalidation sweep must be visible.
    assert!(run.report.regimes[1].cache_misses > 0);
    assert!(run.report.regimes[1].cache_invalidations > 0);
    assert_eq!(
        run.report.issued,
        run.report.regimes.iter().map(|r| r.issued).sum::<u64>()
    );
}

/// Chaos is armed for exactly one regime: the steady regime before it and
/// the recovery regime after it stay clean, and the recovery regime runs
/// entirely from cached plans — injected faults neither evict nor poison
/// plan-cache entries.
#[test]
fn chaos_stays_in_its_regime_and_does_not_poison_the_cache() {
    let mut cfg = TrafficConfig::scripted(0.002, 11, 1);
    cfg.queries_per_window = 4.0;
    cfg.regimes = vec![
        RegimeSpec::steady("steady", 3),
        RegimeSpec {
            // ~12k lineitem rows per scan at sf 0.002: p = 5e-5 trips
            // roughly half the scans in the regime.
            fault_spec: Some("seqscan.next:error:prob(31,0.00005)".to_string()),
            ..RegimeSpec::steady("chaos", 3)
        },
        RegimeSpec::steady("recover", 3),
    ];
    let run = run_traffic(&cfg);
    let [steady, chaos, recover] = &run.report.regimes[..] else {
        panic!("expected 3 regimes");
    };

    assert_eq!(steady.errors, 0, "no faults before the chaos regime");
    assert!(chaos.fault_trips >= 1, "the armed fault must trip");
    assert_eq!(
        chaos.errors, chaos.fault_trips,
        "injected faults are the only failure cause under chaos"
    );
    assert_eq!(recover.errors, 0, "faults must not outlive their regime");
    assert!(recover.ok > 0);
    assert_eq!(
        recover.cache_misses, 0,
        "fault trips must not evict or poison cached plans"
    );
    for regime in &run.report.regimes {
        assert_eq!(regime.issued, regime.ok + regime.errors);
    }
    let totals: u64 = run.report.regimes.iter().map(|r| r.ok + r.errors).sum();
    assert_eq!(run.report.issued, totals, "every arrival is accounted for");
}
