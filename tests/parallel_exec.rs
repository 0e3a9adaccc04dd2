//! Parallel-execution correctness: morsel-driven plans must produce exactly
//! the serial result set at any worker count, and the merged per-worker
//! counters must conserve the aggregate snapshot.

use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries, queries::JoinMethod};

fn all_queries(catalog: &bufferdb::storage::Catalog) -> Vec<(&'static str, PlanNode)> {
    vec![
        ("paper q1", queries::paper_query1(catalog).unwrap()),
        ("paper q2", queries::paper_query2(catalog).unwrap()),
        (
            "paper q3 nl",
            queries::paper_query3(catalog, JoinMethod::NestLoop).unwrap(),
        ),
        (
            "paper q3 hj",
            queries::paper_query3(catalog, JoinMethod::HashJoin).unwrap(),
        ),
        (
            "paper q3 mj",
            queries::paper_query3(catalog, JoinMethod::MergeJoin).unwrap(),
        ),
        ("tpch q1", queries::tpch_q1(catalog).unwrap()),
        ("tpch q6", queries::tpch_q6(catalog).unwrap()),
        ("tpch q12", queries::tpch_q12(catalog).unwrap()),
        ("tpch q14", queries::tpch_q14(catalog).unwrap()),
    ]
}

/// Order-normalized row fingerprints: render each row and sort, so result
/// sets compare as multisets while staying bit-exact per row (a float that
/// accumulated in a different order renders differently and fails).
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    v.sort();
    v
}

/// Every suite query, parallelized at 1, 2 and 7 workers, must produce
/// exactly the serial result set.
#[test]
fn parallel_results_match_serial_at_every_worker_count() {
    let catalog = tpch::generate_catalog(0.002, 7);
    let machine = MachineConfig::pentium4_like();
    for (name, plan) in all_queries(&catalog) {
        let serial = normalized(
            &execute_query(&plan, &catalog, &machine, &QueryOpts::new())
                .into_result()
                .map(|(rows, _, _)| rows)
                .unwrap(),
        );
        for workers in [1usize, 2, 7] {
            let par = parallelize_plan(&plan, &catalog, workers).unwrap();
            let (rows, _, _) = execute_query(&par, &catalog, &machine, &QueryOpts::new())
                .into_result()
                .unwrap_or_else(|e| panic!("{name} at {workers} workers: {e}"));
            assert_eq!(
                normalized(&rows),
                serial,
                "{name} at {workers} workers: parallel result differs from serial"
            );
        }
    }
}

/// The same holds after plan refinement runs on top of the parallelized
/// plan (buffers placed below exchange boundaries).
#[test]
fn refined_parallel_results_match_serial() {
    let catalog = tpch::generate_catalog(0.002, 7);
    let machine = MachineConfig::pentium4_like();
    let cfg = RefineConfig::default();
    for (name, plan) in all_queries(&catalog) {
        let serial = normalized(
            &execute_query(&plan, &catalog, &machine, &QueryOpts::new())
                .into_result()
                .map(|(rows, _, _)| rows)
                .unwrap(),
        );
        for workers in [2usize, 7] {
            let par = refine_plan(
                &parallelize_plan(&plan, &catalog, workers).unwrap(),
                &catalog,
                &cfg,
            );
            let (rows, _, _) = execute_query(&par, &catalog, &machine, &QueryOpts::new())
                .into_result()
                .unwrap_or_else(|e| panic!("{name} refined at {workers} workers: {e}"));
            assert_eq!(
                normalized(&rows),
                serial,
                "{name} refined at {workers} workers: parallel result differs from serial"
            );
        }
    }
}

/// Profiler conservation under parallelism: per-operator counters (with
/// worker-lane work folded in) must sum exactly to the aggregate machine
/// snapshot, and exchange lanes must account for every gathered row. Solo
/// lanes run fixed morsel stripes, so a second run repeats every counter
/// and every lane record exactly.
#[test]
fn parallel_profile_conserves_counters_and_lane_rows() {
    let catalog = tpch::generate_catalog(0.002, 7);
    let machine = MachineConfig::pentium4_like();
    for (name, plan) in all_queries(&catalog) {
        for workers in [2usize, 7] {
            let par = parallelize_plan(&plan, &catalog, workers).unwrap();
            let opts = QueryOpts::new().profile(true);
            let run = || {
                let (_, stats, profile) = execute_query(&par, &catalog, &machine, &opts)
                    .into_result()
                    .unwrap_or_else(|e| panic!("{name} at {workers} workers: {e}"));
                (stats, profile.expect("profiling was requested"))
            };
            let (stats, profile) = run();
            assert_eq!(
                profile.sum_op_counters(),
                stats.counters,
                "{name} at {workers} workers: per-operator sum != query snapshot"
            );
            for op in &profile.ops {
                if let Some(lanes) = &op.workers {
                    assert!(
                        !lanes.is_empty(),
                        "{name} at {workers} workers: exchange without lanes"
                    );
                    let lane_rows: u64 = lanes.iter().map(|l| l.rows).sum();
                    assert_eq!(
                        lane_rows, op.rows,
                        "{name} at {workers} workers: lane rows != exchange rows"
                    );
                }
            }
            let lane_records = |p: &QueryProfile| -> Vec<_> {
                (p.ops.iter().filter_map(|op| op.workers.as_ref()).flatten())
                    .map(|l| (l.worker, l.morsels, l.rows, l.counters))
                    .collect()
            };
            let (again, again_profile) = run();
            assert_eq!(
                stats.counters, again.counters,
                "{name} at {workers} workers: counters differ between two runs"
            );
            assert_eq!(
                lane_records(&profile),
                lane_records(&again_profile),
                "{name} at {workers} workers: lane records differ between two runs"
            );
        }
    }
}

/// The lineitem scans are large enough to parallelize at the test scale, so
/// the TPC-H suite queries must actually contain exchanges — otherwise the
/// determinism assertions above test nothing.
#[test]
fn tpch_plans_actually_parallelize() {
    let catalog = tpch::generate_catalog(0.002, 7);
    for name in ["tpch q1", "tpch q6", "tpch q12", "tpch q14"] {
        let plan = all_queries(&catalog)
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1;
        let par = parallelize_plan(&plan, &catalog, 4).unwrap();
        assert!(
            par.count(|n| matches!(n, PlanNode::Exchange { .. })) >= 1,
            "{name}: expected at least one exchange"
        );
    }
}
