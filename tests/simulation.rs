//! Simulation-level integration: determinism, headline shapes from the
//! paper (Query 1 buffered wins, Query 2 does not, misses scale ∝ 1/B),
//! and machine ablations (a big-enough L1i removes the thrashing).

use bufferdb::prelude::*;
use bufferdb::tpch::{self, queries};

fn stats_of(plan: &PlanNode, catalog: &Catalog, cfg: &MachineConfig) -> ExecStats {
    let (_, stats, _) = execute_query(plan, catalog, cfg, &QueryOpts::new())
        .into_result()
        .unwrap();
    stats
}

fn buffered_q1(catalog: &bufferdb::storage::Catalog, size: usize) -> PlanNode {
    let plan = queries::paper_query1(catalog).unwrap();
    let PlanNode::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        panic!()
    };
    PlanNode::Aggregate {
        input: Box::new(PlanNode::Buffer { input, size }),
        group_by,
        aggs,
    }
}

#[test]
fn execution_is_deterministic() {
    let catalog = tpch::generate_catalog(0.001, 21);
    let machine = MachineConfig::pentium4_like();
    let plan = queries::paper_query1(&catalog).unwrap();
    let a = stats_of(&plan, &catalog, &machine);
    let b = stats_of(&plan, &catalog, &machine);
    assert_eq!(a.counters, b.counters, "identical runs, identical counters");
}

#[test]
fn query1_buffering_wins_query2_does_not() {
    let catalog = tpch::generate_catalog(0.002, 21);
    let machine = MachineConfig::pentium4_like();
    let cfg = RefineConfig::default();

    let q1 = queries::paper_query1(&catalog).unwrap();
    let q1_ref = refine_plan(&q1, &catalog, &cfg);
    let o1 = stats_of(&q1, &catalog, &machine);
    let b1 = stats_of(&q1_ref, &catalog, &machine);
    assert!(b1.seconds() < o1.seconds(), "Q1 buffered must win");
    assert!(
        (b1.counters.l1i_misses as f64) < 0.5 * o1.counters.l1i_misses as f64,
        "Q1 L1i misses must drop by more than half: {} -> {}",
        o1.counters.l1i_misses,
        b1.counters.l1i_misses
    );

    // Q2: forcing a buffer where refinement declines must not help.
    let q2 = queries::paper_query2(&catalog).unwrap();
    let PlanNode::Aggregate {
        input,
        group_by,
        aggs,
    } = q2.clone()
    else {
        panic!()
    };
    let q2_forced = PlanNode::Aggregate {
        input: Box::new(PlanNode::Buffer { input, size: 100 }),
        group_by,
        aggs,
    };
    let o2 = stats_of(&q2, &catalog, &machine);
    let b2 = stats_of(&q2_forced, &catalog, &machine);
    assert!(
        b2.seconds() >= o2.seconds() * 0.995,
        "Q2 buffering must not meaningfully win: {} vs {}",
        b2.seconds(),
        o2.seconds()
    );
}

#[test]
fn miss_reduction_scales_inversely_with_buffer_size() {
    // §7.4: "The number of reduced trace cache misses is roughly
    // proportional to 1/buffersize", flattening past ~100.
    let catalog = tpch::generate_catalog(0.002, 21);
    let machine = MachineConfig::pentium4_like();
    let misses = |size: usize| {
        let s = stats_of(&buffered_q1(&catalog, size), &catalog, &machine);
        s.counters.l1i_misses
    };
    let m1 = misses(1);
    let m10 = misses(10);
    let m100 = misses(100);
    let m1000 = misses(1000);
    assert!(m10 < m1 / 4, "size 10 ≪ size 1: {m10} vs {m1}");
    assert!(m100 < m10, "size 100 < size 10");
    // Beyond ~100 there is "only a small incentive to make it bigger".
    let gain_10_100 = m10 as f64 / m100 as f64;
    let gain_100_1000 = m100 as f64 / m1000.max(1) as f64;
    assert!(
        gain_10_100 > gain_100_1000,
        "diminishing returns: {gain_10_100} vs {gain_100_1000}"
    );
}

#[test]
fn larger_l1i_removes_thrashing() {
    let catalog = tpch::generate_catalog(0.002, 21);
    let plan = queries::paper_query1(&catalog).unwrap();
    let small = MachineConfig::pentium4_like();
    let big = MachineConfig::large_l1i();
    let s = stats_of(&plan, &catalog, &small);
    let b = stats_of(&plan, &catalog, &big);
    assert!(
        b.counters.l1i_misses * 10 < s.counters.l1i_misses,
        "32 KB L1i must eliminate Query 1 thrashing: {} vs {}",
        b.counters.l1i_misses,
        s.counters.l1i_misses
    );
}

#[test]
fn buffering_reduces_itlb_misses() {
    let catalog = tpch::generate_catalog(0.002, 21);
    let machine = MachineConfig::pentium4_like();
    let plan = queries::paper_query1(&catalog).unwrap();
    let refined = refine_plan(&plan, &catalog, &RefineConfig::default());
    let o = stats_of(&plan, &catalog, &machine);
    let b = stats_of(&refined, &catalog, &machine);
    assert!(
        b.counters.itlb_misses < o.counters.itlb_misses,
        "{} vs {}",
        b.counters.itlb_misses,
        o.counters.itlb_misses
    );
}

#[test]
fn instruction_counts_nearly_identical() {
    // Table 4: "Both the original and buffered plans have almost the same
    // number (less than 1% difference) of instructions executed."
    let catalog = tpch::generate_catalog(0.002, 21);
    let machine = MachineConfig::pentium4_like();
    let plan = queries::paper_query1(&catalog).unwrap();
    let refined = refine_plan(&plan, &catalog, &RefineConfig::default());
    let o = stats_of(&plan, &catalog, &machine);
    let b = stats_of(&refined, &catalog, &machine);
    let ratio = b.counters.instructions as f64 / o.counters.instructions as f64;
    assert!((0.99..=1.01).contains(&ratio), "instruction ratio {ratio}");
}

#[test]
fn wall_clock_is_recorded() {
    let catalog = tpch::generate_catalog(0.001, 21);
    let machine = MachineConfig::pentium4_like();
    let plan = queries::paper_query2(&catalog).unwrap();
    let s = stats_of(&plan, &catalog, &machine);
    assert!(s.wall.as_nanos() > 0);
    assert!(s.rows == 1);
}

/// The segment definition orders of real builds — the pre-linked server
/// layout and the executor build of each of the benchmark's nine queries in
/// every executor mode — as `crates/cachesim`'s link-memo differential test
/// replays them (it cannot see plans). Regenerate with
/// `BUFFERDB_UPDATE_GOLDEN=1`.
#[test]
fn cachesim_define_order_fixture_is_current() {
    use bufferdb::core::exec::build_executor;
    use bufferdb::core::footprint::FootprintModel;
    use std::fmt::Write;

    let catalog = tpch::generate_catalog(0.001, 42);
    let plans = [
        ("paper Q1", queries::paper_query1(&catalog)),
        ("paper Q2", queries::paper_query2(&catalog)),
        (
            "paper Q3 nestloop",
            queries::paper_query3(&catalog, queries::JoinMethod::NestLoop),
        ),
        (
            "paper Q3 hashjoin",
            queries::paper_query3(&catalog, queries::JoinMethod::HashJoin),
        ),
        (
            "paper Q3 mergejoin",
            queries::paper_query3(&catalog, queries::JoinMethod::MergeJoin),
        ),
        ("TPC-H Q1", queries::tpch_q1(&catalog)),
        ("TPC-H Q6", queries::tpch_q6(&catalog)),
        ("TPC-H Q12", queries::tpch_q12(&catalog)),
        ("TPC-H Q14", queries::tpch_q14(&catalog)),
    ];
    let mut fixture = String::new();
    let mut record = |label: &str, layout: &bufferdb::cachesim::CodeLayout| {
        let defs: Vec<String> = (layout.defined().iter())
            .map(|s| format!("{}={}", s.name, s.bytes))
            .collect();
        writeln!(fixture, "{label}: {}", defs.join(" ")).unwrap();
    };
    record("prelinked", &FootprintModel::prelinked());
    for (name, plan) in plans {
        let plan = plan.unwrap();
        for mode in [
            ExecModePolicy::Pull,
            ExecModePolicy::BufferedPull,
            ExecModePolicy::Push,
        ] {
            let physical =
                prepare_plan_parts_with_mode(&plan, &catalog, &RefineConfig::default(), 1, mode)
                    .unwrap()
                    .physical;
            let mut fm = FootprintModel::new();
            build_executor(&physical, &catalog, &mut fm).unwrap();
            record(&format!("{name}/{}", mode.label()), fm.layout());
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/cachesim/tests/fixtures/define_orders.txt"
    );
    if std::env::var_os("BUFFERDB_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &fixture).unwrap();
    }
    let committed = std::fs::read_to_string(path).expect("fixture (set BUFFERDB_UPDATE_GOLDEN=1)");
    assert_eq!(
        committed, fixture,
        "build orders changed; rerun with BUFFERDB_UPDATE_GOLDEN=1"
    );
}

/// The modeled branch counters, pinned exactly. No committed baseline
/// records them (`modeled_cycles` folds mispredictions in at 20 cycles
/// each, and `BENCH_modes.json` carries neither), so a change to how
/// `cachesim` fires a region's branch sites must reproduce these values.
/// Paper Query 1 unbuffered and refined and Query 3 by hash join on the
/// Pentium 4 preset's bimodal table, and Query 1 once under gshare.
#[test]
fn branch_counters_are_pinned() {
    let catalog = tpch::generate_catalog(0.002, 42);
    let p4 = MachineConfig::pentium4_like();
    let q1 = queries::paper_query1(&catalog).unwrap();
    let q1_buffered = refine_plan(&q1, &catalog, &RefineConfig::default());
    let q3_hj = queries::paper_query3(&catalog, queries::JoinMethod::HashJoin).unwrap();
    let cases = [
        ("paper Q1 pull", &q1, &p4),
        ("paper Q1 buffered", &q1_buffered, &p4),
        ("paper Q3-HJ", &q3_hj, &p4),
        ("paper Q1 pull, gshare", &q1, &p4.clone().with_gshare()),
    ];
    let measured: Vec<(&str, u64, u64)> = cases
        .into_iter()
        .map(|(label, plan, machine)| {
            let c = stats_of(plan, &catalog, machine).counters;
            (label, c.branches, c.mispredictions)
        })
        .collect();
    let pinned = [
        ("paper Q1 pull", 1_358_126, 182_736),
        ("paper Q1 buffered", 1_359_070, 183_536),
        ("paper Q3-HJ", 2_458_063, 319_272),
        ("paper Q1 pull, gshare", 1_358_126, 78_000),
    ];
    assert_eq!(measured, pinned);
}
