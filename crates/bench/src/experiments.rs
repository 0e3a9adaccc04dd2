//! One function per paper artifact (table or figure).

use crate::runner::{
    comparison_report, reduction, run_plan, ModesEntry, ModesReport, PlanCacheReport,
    PreparedQueryMetrics, RunResult,
};
use bufferdb_cachesim::MachineConfig;
use bufferdb_core::exec::execute_query;
use bufferdb_core::footprint::OpKind;
use bufferdb_core::obs::TraceEvent;
use bufferdb_core::optimizer::ExecModePolicy;
use bufferdb_core::plan::explain::explain;
use bufferdb_core::plan::{AggFunc, PlanNode};
use bufferdb_core::prepare::{prepare_plan_parts_with_mode, Database};
use bufferdb_core::refine::calibrate::calibrate_cardinality_threshold;
use bufferdb_core::refine::{refine_plan, RefineConfig};
use bufferdb_core::session::QueryOpts;
use bufferdb_storage::Catalog;
use bufferdb_tpch::queries::{self, JoinMethod};
use bufferdb_types::Date;
use std::fmt::Write as _;

/// Shared context for every experiment: data, machine, refiner settings.
pub struct ExperimentCtx {
    /// TPC-H catalog.
    pub catalog: Catalog,
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Refinement configuration.
    pub refine: RefineConfig,
    /// Scale factor the catalog was generated at.
    pub scale: f64,
}

impl ExperimentCtx {
    /// Generate data and defaults for `scale` (the paper uses 0.2; smaller
    /// scales keep simulation time reasonable — shapes are scale-invariant).
    pub fn new(scale: f64, seed: u64) -> Self {
        ExperimentCtx {
            catalog: bufferdb_tpch::generate_catalog(scale, seed),
            machine: MachineConfig::pentium4_like(),
            refine: RefineConfig::default(),
            scale,
        }
    }

    fn buffered(&self, plan: &PlanNode) -> PlanNode {
        refine_plan(plan, &self.catalog, &self.refine)
    }
}

/// Wrap `plan`'s input edge in an explicit buffer (for experiments that
/// force buffering regardless of the refiner's verdict, e.g. Figure 9).
fn buffer_above_input(plan: &PlanNode, size: usize) -> PlanNode {
    match plan {
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => PlanNode::Aggregate {
            input: Box::new(PlanNode::Buffer {
                input: input.clone(),
                size,
            }),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        other => PlanNode::Buffer {
            input: Box::new(other.clone()),
            size,
        },
    }
}

/// Table 1: the simulated machine specification.
pub fn table1(ctx: &ExperimentCtx) -> String {
    format!(
        "== Table 1: system specification ==\n{}",
        ctx.machine.to_table1()
    )
}

/// Table 2: operator instruction footprints.
pub fn table2() -> String {
    let rows: Vec<(&str, OpKind)> = vec![
        (
            "Scan, without predicates",
            OpKind::SeqScan { with_pred: false },
        ),
        ("Scan, with predicates", OpKind::SeqScan { with_pred: true }),
        ("IndexScan", OpKind::IndexScan),
        ("Sort", OpKind::Sort),
        ("NestLoop", OpKind::NestLoop),
        ("Merge Join", OpKind::MergeJoin),
        ("Hash Join, build", OpKind::HashBuild),
        ("Hash Join, probe", OpKind::HashProbe),
        ("Aggregation, base", OpKind::Aggregate { funcs: vec![] }),
        (
            "  + COUNT",
            OpKind::Aggregate {
                funcs: vec![AggFunc::CountStar],
            },
        ),
        (
            "  + MIN",
            OpKind::Aggregate {
                funcs: vec![AggFunc::Min],
            },
        ),
        (
            "  + MAX",
            OpKind::Aggregate {
                funcs: vec![AggFunc::Max],
            },
        ),
        (
            "  + SUM",
            OpKind::Aggregate {
                funcs: vec![AggFunc::Sum],
            },
        ),
        (
            "  + AVG",
            OpKind::Aggregate {
                funcs: vec![AggFunc::Avg],
            },
        ),
        ("Buffer", OpKind::Buffer),
    ];
    let mut s = String::from("== Table 2: instruction footprints ==\n");
    for (name, kind) in rows {
        let _ = writeln!(
            s,
            "{name:<28} {:>6.1} K",
            kind.footprint_bytes() as f64 / 1000.0
        );
    }
    s
}

/// Figure 4: execution-time breakdown of the unbuffered paper Query 1.
pub fn fig4(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query1(&ctx.catalog).expect("query 1");
    let run = run_plan("Query 1 (original)", &plan, &ctx.catalog, &ctx.machine);
    let mut s = String::from("== Figure 4: instruction cache thrashing impact (Query 1) ==\n");
    let _ = writeln!(s, "{}", run.chart_row());
    let _ = writeln!(s, "{}", run.stats.breakdown);
    let _ = writeln!(
        s,
        "L1i miss fraction of modeled time: {:.1}%",
        100.0 * run.stats.breakdown.l1i_fraction()
    );
    s
}

/// Figure 9: Query 2 original vs (unhelpfully) buffered — the combined
/// footprint already fits in L1i, so buffering must not win.
pub fn fig9(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query2(&ctx.catalog).expect("query 2");
    let refined = ctx.buffered(&plan);
    let forced = buffer_above_input(&plan, ctx.refine.buffer_size);
    let original = run_plan("Original Plan", &plan, &ctx.catalog, &ctx.machine);
    let buffered = run_plan("Buffered Plan", &forced, &ctx.catalog, &ctx.machine);
    let mut s = comparison_report("Figure 9: Query 2 (fits in L1i)", &original, &buffered);
    let _ = writeln!(
        s,
        "plan refinement adds {} buffer(s) for Query 2 (expected: 0)",
        refined.buffer_count()
    );
    s
}

/// Figure 10: Query 1 original vs buffered (the paper's headline single-table
/// result: ~80 % fewer trace-cache misses, ~12 % faster).
pub fn fig10(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query1(&ctx.catalog).expect("query 1");
    let refined = ctx.buffered(&plan);
    let original = run_plan("Original Plan", &plan, &ctx.catalog, &ctx.machine);
    let buffered = run_plan("Buffered Plan", &refined, &ctx.catalog, &ctx.machine);
    let mut s = comparison_report("Figure 10: Query 1 (exceeds L1i)", &original, &buffered);
    let _ = writeln!(s, "\nrefined plan:\n{}", explain(&refined, &ctx.catalog));
    s
}

/// Figure 11: elapsed time vs output cardinality (the §7.3 threshold sweep).
pub fn fig11(ctx: &ExperimentCtx) -> String {
    let lineitem = ctx.catalog.table("lineitem").expect("lineitem");
    let n = lineitem.row_count() as f64;
    let start = Date::parse("1992-01-02").expect("date");
    let span = 2405 + 121; // order-date span + max ship offset
    let mut s = String::from(
        "== Figure 11: cardinality effects (Query 1 template) ==\n\
         cardinality | original (s) | buffered (s) | winner\n",
    );
    for frac in [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let cutoff = start.add_days((span as f64 * frac) as i32);
        let plan = queries::paper_query1_with_cutoff(&ctx.catalog, &cutoff.to_string())
            .expect("query 1 template");
        let buffered_plan = buffer_above_input(&plan, ctx.refine.buffer_size);
        let orig = run_plan("orig", &plan, &ctx.catalog, &ctx.machine);
        let buf = run_plan("buf", &buffered_plan, &ctx.catalog, &ctx.machine);
        let card = orig.rows[0].get(2).as_int().unwrap_or(0);
        let _ = writeln!(
            s,
            "{:>11} | {:>12.4} | {:>12.4} | {}",
            card,
            orig.stats.seconds(),
            buf.stats.seconds(),
            if buf.stats.seconds() < orig.stats.seconds() {
                "buffered"
            } else {
                "original"
            },
        );
        let _ = n; // cardinality reported from the actual run
    }
    s
}

/// Buffer sizes swept by Figures 12 and 13.
pub const BUFFER_SIZES: [usize; 12] = [1, 2, 4, 8, 16, 32, 64, 100, 256, 1024, 4096, 8192];

/// Figure 12: elapsed time vs buffer size for Query 1.
pub fn fig12(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query1(&ctx.catalog).expect("query 1");
    let orig = run_plan("orig", &plan, &ctx.catalog, &ctx.machine);
    let mut s = String::from(
        "== Figure 12: varied buffer sizes (Query 1) ==\n\
         buffer size | elapsed (s) | vs original\n",
    );
    let _ = writeln!(
        s,
        "{:>11} | {:>11.4} | (original plan)",
        0,
        orig.stats.seconds()
    );
    for size in BUFFER_SIZES {
        let buffered = buffer_above_input(&plan, size);
        let run = run_plan("buf", &buffered, &ctx.catalog, &ctx.machine);
        let _ = writeln!(
            s,
            "{:>11} | {:>11.4} | {:+.1}%",
            size,
            run.stats.seconds(),
            100.0 * run.stats.improvement_over(&orig.stats)
        );
    }
    s
}

/// Figure 13: breakdown per buffer size.
pub fn fig13(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query1(&ctx.catalog).expect("query 1");
    let mut s = String::from("== Figure 13: breakdown for varied buffer sizes (Query 1) ==\n");
    for size in BUFFER_SIZES {
        let buffered = buffer_above_input(&plan, size);
        let run = run_plan(
            &format!("size {size}"),
            &buffered,
            &ctx.catalog,
            &ctx.machine,
        );
        let _ = writeln!(s, "{}", run.chart_row());
    }
    s
}

fn query3_pair(ctx: &ExperimentCtx, method: JoinMethod) -> (RunResult, RunResult, PlanNode) {
    let plan = queries::paper_query3(&ctx.catalog, method).expect("query 3");
    let refined = ctx.buffered(&plan);
    let original = run_plan("Original Plan", &plan, &ctx.catalog, &ctx.machine);
    let buffered = run_plan("Buffered Plan", &refined, &ctx.catalog, &ctx.machine);
    (original, buffered, refined)
}

/// Figures 15/16/17: Query 3 under one join method, original vs buffered.
pub fn join_figure(ctx: &ExperimentCtx, method: JoinMethod) -> String {
    let (fig, title) = match method {
        JoinMethod::NestLoop => (15, "nested-loop join"),
        JoinMethod::HashJoin => (16, "hash join"),
        JoinMethod::MergeJoin => (17, "merge join"),
    };
    let (original, buffered, refined) = query3_pair(ctx, method);
    let mut s = comparison_report(
        &format!("Figure {fig}: Query 3 with {title}"),
        &original,
        &buffered,
    );
    let _ = writeln!(s, "\nbuffered plan:\n{}", explain(&refined, &ctx.catalog));
    s
}

/// Table 3: overall improvement for the three join methods.
pub fn table3(ctx: &ExperimentCtx) -> String {
    let mut s = String::from(
        "== Table 3: overall improvement ==\n\
         method     | original (s) | buffered (s) | improvement\n",
    );
    for (name, m) in [
        ("NestLoop", JoinMethod::NestLoop),
        ("Hash Join", JoinMethod::HashJoin),
        ("Merge Join", JoinMethod::MergeJoin),
    ] {
        let (o, b, _) = query3_pair(ctx, m);
        let _ = writeln!(
            s,
            "{name:<10} | {:>12.3} | {:>12.3} | {:>4.1}%",
            o.stats.seconds(),
            b.stats.seconds(),
            100.0 * b.stats.improvement_over(&o.stats)
        );
    }
    s
}

/// Table 4: CPI for the three join methods (plus the instruction-count
/// delta confirming buffers are light-weight).
pub fn table4(ctx: &ExperimentCtx) -> String {
    let mut s = String::from(
        "== Table 4: cost per instruction ==\n\
         method     | original CPI | buffered CPI | instruction delta\n",
    );
    for (name, m) in [
        ("NestLoop", JoinMethod::NestLoop),
        ("Hash Join", JoinMethod::HashJoin),
        ("Merge Join", JoinMethod::MergeJoin),
    ] {
        let (o, b, _) = query3_pair(ctx, m);
        let delta = -reduction(o.stats.counters.instructions, b.stats.counters.instructions);
        let _ = writeln!(
            s,
            "{name:<10} | {:>12.2} | {:>12.2} | {delta:+.2}%",
            o.stats.cpi(),
            b.stats.cpi(),
        );
    }
    s
}

/// Table 5: TPC-H queries, original vs refined plan.
///
/// The paper's row labels were lost in the scanned text; per its prose
/// ("expensive queries without subqueries and without very selective
/// predicates") we use Q1, Q6, Q12 and Q14 — see EXPERIMENTS.md.
pub fn table5(ctx: &ExperimentCtx) -> String {
    let plans: Vec<(&str, PlanNode)> = vec![
        ("Q1", queries::tpch_q1(&ctx.catalog).expect("q1")),
        ("Q6", queries::tpch_q6(&ctx.catalog).expect("q6")),
        ("Q12", queries::tpch_q12(&ctx.catalog).expect("q12")),
        ("Q14", queries::tpch_q14(&ctx.catalog).expect("q14")),
    ];
    let mut s = String::from(
        "== Table 5: TPC-H queries ==\n\
         query | original (s) | buffered (s) | improvement | buffers added\n",
    );
    for (name, plan) in plans {
        let refined = ctx.buffered(&plan);
        let o = run_plan("orig", &plan, &ctx.catalog, &ctx.machine);
        let b = run_plan("buf", &refined, &ctx.catalog, &ctx.machine);
        let _ = writeln!(
            s,
            "{name:<5} | {:>12.3} | {:>12.3} | {:>10.1}% | {}",
            o.stats.seconds(),
            b.stats.seconds(),
            100.0 * b.stats.improvement_over(&o.stats),
            refined.buffer_count(),
        );
    }
    s
}

/// Modeled wall-clock of a profiled parallel run: every core's cycles are
/// in the conserved total, but per exchange the worker lanes ran
/// concurrently — so the modeled wall clock replaces each exchange's
/// lane-cycle *sum* with its lane-cycle *maximum* (the critical path).
fn modeled_wall_seconds(
    stats: &bufferdb_core::stats::ExecStats,
    profile: &bufferdb_core::obs::QueryProfile,
    cfg: &MachineConfig,
) -> f64 {
    use bufferdb_cachesim::BreakdownReport;
    let cycles = |c: &bufferdb_cachesim::PerfCounters| {
        BreakdownReport::from_counters(c, cfg).total_cycles as i128
    };
    let mut wall = cycles(&stats.counters);
    for op in &profile.ops {
        if let Some(lanes) = &op.workers {
            let lane_cycles: Vec<i128> = lanes.iter().map(|l| cycles(&l.counters)).collect();
            wall -= lane_cycles.iter().sum::<i128>();
            wall += lane_cycles.iter().copied().max().unwrap_or(0);
        }
    }
    wall.max(0) as f64 / cfg.clock_hz as f64
}

/// Resolve a trace-target query name to its plan.
fn plan_by_name(catalog: &Catalog, name: &str) -> PlanNode {
    match name {
        "paperQ1" => queries::paper_query1(catalog).expect("paper q1"),
        "paperQ2" => queries::paper_query2(catalog).expect("paper q2"),
        "Q1" => queries::tpch_q1(catalog).expect("q1"),
        "Q6" => queries::tpch_q6(catalog).expect("q6"),
        "Q12" => queries::tpch_q12(catalog).expect("q12"),
        "Q14" => queries::tpch_q14(catalog).expect("q14"),
        other => panic!("unknown trace query {other:?} (try Q1 Q6 Q12 Q14 paperQ1 paperQ2)"),
    }
}

/// Run `name` under the flight recorder at `threads` workers through the
/// adaptive prepared-query path. Returns `(perfetto_json, summary)` — the
/// Chrome/Perfetto trace-event document and the terminal timeline.
///
/// The adaptive loop runs a few rounds so the exported trace carries
/// adaptivity instants when observation moves the plan. The round that
/// installed a new plan generation wins (it shows the pre-split
/// execution *and* the decision that changed it); failing that, the
/// last round with any instants; failing that, the last round.
pub fn trace_query(ctx: &ExperimentCtx, seed: u64, threads: usize, name: &str) -> (String, String) {
    let mut db = Database::open(
        bufferdb_tpch::generate_catalog(ctx.scale, seed),
        ctx.machine.clone(),
    )
    .with_refine_config(ctx.refine.clone());
    db.set_threads(threads);
    let plan = plan_by_name(db.catalog(), name);
    let prepared = db
        .prepare(&plan)
        .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
    let opts = QueryOpts::new().trace(true);
    const ROUNDS: usize = 6;
    let mut with_install = None;
    let mut with_instants = None;
    let mut last = None;
    for round in 0..ROUNDS {
        let mut out = prepared.execute_adaptive_opts(&opts);
        if let Some(err) = out.error() {
            panic!("{name}: traced round {round}: {err}");
        }
        let trace = out.take_trace().expect("trace was requested");
        let installed = trace
            .instants
            .iter()
            .any(|ev| matches!(ev.event, TraceEvent::AdaptInstall { .. }));
        if installed {
            with_install = Some(trace);
        } else if !trace.instants.is_empty() {
            with_instants = Some(trace);
        } else {
            last = Some(trace);
        }
    }
    let trace = with_install
        .or(with_instants)
        .or(last)
        .expect("at least one round executed");
    (trace.perfetto_json(), trace.summary())
}

/// Worker counts swept by the executor-mode showdown.
pub const MODES_WORKERS: [usize; 3] = [1, 2, 4];

/// Mode policies swept by the showdown, pull first (it is the baseline
/// the other modes' speedups are computed against).
pub const MODES_POLICIES: [ExecModePolicy; 3] = [
    ExecModePolicy::Pull,
    ExecModePolicy::BufferedPull,
    ExecModePolicy::Push,
];

/// The executor-mode showdown: the TPC-H mix prepared under each
/// [`ExecModePolicy`] — unbuffered pull, the paper's buffered pull and the
/// fused batch-at-a-time push backend — at 1/2/4 exchange workers. Every
/// cell asserts bit-identical rows against the pull baseline and exact
/// per-operator counter conservation before any number is reported; the
/// physics (instructions, L1i misses, modeled wall clock) are the only
/// things allowed to differ. The `repro` binary serializes this to
/// `BENCH_modes.json`.
pub fn modes_metrics(ctx: &ExperimentCtx, seed: u64) -> ModesReport {
    let plans: Vec<(&str, PlanNode)> = vec![
        (
            "paper Q1",
            queries::paper_query1(&ctx.catalog).expect("paper q1"),
        ),
        (
            "paper Q2",
            queries::paper_query2(&ctx.catalog).expect("paper q2"),
        ),
        ("Q1", queries::tpch_q1(&ctx.catalog).expect("q1")),
        ("Q6", queries::tpch_q6(&ctx.catalog).expect("q6")),
        ("Q12", queries::tpch_q12(&ctx.catalog).expect("q12")),
        ("Q14", queries::tpch_q14(&ctx.catalog).expect("q14")),
        (
            "paper Q3 NL",
            queries::paper_query3(&ctx.catalog, JoinMethod::NestLoop).expect("paper q3"),
        ),
        (
            "paper Q3 HJ",
            queries::paper_query3(&ctx.catalog, JoinMethod::HashJoin).expect("paper q3"),
        ),
        (
            "paper Q3 MJ",
            queries::paper_query3(&ctx.catalog, JoinMethod::MergeJoin).expect("paper q3"),
        ),
    ];
    let mut report = ModesReport {
        scale: ctx.scale,
        seed,
        entries: Vec::new(),
    };
    for (name, plan) in plans {
        for workers in MODES_WORKERS {
            let mut pull_rows: Option<Vec<String>> = None;
            let mut pull_wall: Option<f64> = None;
            for mode in MODES_POLICIES {
                let parts =
                    prepare_plan_parts_with_mode(&plan, &ctx.catalog, &ctx.refine, workers, mode)
                        .unwrap_or_else(|e| panic!("{name}: prepare ({}): {e}", mode.label()));
                let opts = crate::runner::profiled_exec_options();
                let label = format!("{name} x{workers} ({})", mode.label());
                let outcome = execute_query(&parts.physical, &ctx.catalog, &ctx.machine, &opts);
                let (rows, stats, profile, error) = outcome.into_parts();
                if let Some(err) = error {
                    crate::runner::fail_query(&label, &stats, rows.len(), err);
                }
                let profile = profile.expect("profiling was requested");
                assert_eq!(
                    profile.sum_op_counters(),
                    stats.counters,
                    "{name} x{workers} under {}: counters not conserved",
                    mode.label()
                );
                let rendered: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
                match &pull_rows {
                    None => pull_rows = Some(rendered),
                    Some(expected) => assert_eq!(
                        &rendered,
                        expected,
                        "{name} x{workers} under {}: rows diverge from pull",
                        mode.label()
                    ),
                }
                let modeled = modeled_wall_seconds(&stats, &profile, &ctx.machine);
                let base = *pull_wall.get_or_insert(modeled);
                report.entries.push(ModesEntry {
                    query: name.to_string(),
                    mode: mode.label().to_string(),
                    workers: workers as u64,
                    rows: rows.len() as u64,
                    fused_pipelines: (parts.physical)
                        .count(|n| matches!(n, PlanNode::PushPipeline { .. }))
                        as u64,
                    buffers: parts.physical.buffer_count() as u64,
                    modeled_wall_seconds: modeled,
                    modeled_cpu_seconds: stats.seconds(),
                    speedup_vs_pull: if modeled > 0.0 { base / modeled } else { 1.0 },
                    instructions: stats.counters.instructions,
                    l1i_misses: stats.counters.l1i_misses,
                });
            }
        }
    }
    report
}

/// Plain-text rendering of the mode showdown (the `repro modes` report).
pub fn modes_table(report: &ModesReport) -> String {
    let mut s = String::from(
        "== Executor-mode showdown: pull vs buffered pull vs push ==\n\
         (speedup is vs the unbuffered pull run of the same query/workers;\n\
          fused = push pipelines in the plan, buf = refiner-placed buffers)\n\
         query    | mode          | workers | fused | buf | wall (s) | speedup | L1i misses\n",
    );
    for e in &report.entries {
        let _ = writeln!(
            s,
            "{:<8} | {:<13} | {:>7} | {:>5} | {:>3} | {:>8.4} | {:>6.2}x | {:>10}",
            e.query,
            e.mode,
            e.workers,
            e.fused_pipelines,
            e.buffers,
            e.modeled_wall_seconds,
            e.speedup_vs_pull,
            e.l1i_misses,
        );
    }
    s
}

/// Prepared-query study for the plan cache and the adaptive refinement
/// loop: each query is prepared through a cleared cache (misses) and a warm
/// one (hits), then executed adaptively until the feedback loop converges,
/// and the static plan's simulated L1i misses are compared against the
/// adapted plan's. Every value is a pure function of (scale, seed): the
/// `repro` binary serializes this to `BENCH_plancache.json`, which CI
/// regenerates and `cmp`s against the committed copy.
///
/// The interesting rows are queries whose execution groups *statically* fit
/// the 16 KB L1i budget but thrash at runtime (the footprint model excludes
/// the executor dispatch loop and conflict misses) — the paper's Query 2 is
/// the canonical case. There the observed group miss rate exceeds the
/// threshold, the adaptive loop tightens the effective budget, and
/// re-refinement splits the group with a buffer the static pass declined.
pub fn prepared_metrics(ctx: &ExperimentCtx, seed: u64) -> PlanCacheReport {
    // `Database` owns its catalog; regenerate identically from the seed. It
    // runs serial (the session default), so the report is host-independent.
    let db = Database::open(
        bufferdb_tpch::generate_catalog(ctx.scale, seed),
        ctx.machine.clone(),
    )
    .with_refine_config(ctx.refine.clone());
    let plans: Vec<(&str, PlanNode)> = vec![
        (
            "paperQ1",
            queries::paper_query1(db.catalog()).expect("paper q1"),
        ),
        (
            "paperQ2",
            queries::paper_query2(db.catalog()).expect("paper q2"),
        ),
        ("Q1", queries::tpch_q1(db.catalog()).expect("q1")),
        ("Q6", queries::tpch_q6(db.catalog()).expect("q6")),
        ("Q12", queries::tpch_q12(db.catalog()).expect("q12")),
        ("Q14", queries::tpch_q14(db.catalog()).expect("q14")),
    ];

    // Five cold rounds (the cache is cleared first, so every prepare
    // misses), then five warm ones (every prepare hits).
    const ROUNDS: usize = 5;
    for round in 0..2 * ROUNDS {
        if round < ROUNDS {
            db.plan_cache().clear();
        }
        for (name, plan) in &plans {
            db.prepare(plan)
                .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
        }
    }

    let mut report = PlanCacheReport {
        scale: ctx.scale,
        seed,
        ..PlanCacheReport::default()
    };
    for (name, plan) in &plans {
        let q = db
            .prepare(plan)
            .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
        let static_plan = q.plan();
        let profiled = QueryOpts::new().profile(true);
        let s_out = q.execute_opts(&profiled);
        assert!(s_out.is_ok(), "{name}: static run: {:?}", s_out.error());
        let static_l1i = s_out.stats().counters.l1i_misses;
        // Drive the feedback loop to convergence (bounded by the
        // adaptive loop's generation cap).
        let mut generation = q.generation();
        loop {
            let out = q.execute_adaptive();
            assert!(out.is_ok(), "{name}: adaptive run: {:?}", out.error());
            if q.generation() == generation {
                break;
            }
            generation = q.generation();
        }
        let adapted_plan = q.plan();
        let a_out = q.execute_opts(&profiled);
        assert!(a_out.is_ok(), "{name}: adapted run: {:?}", a_out.error());
        report.queries.push(PreparedQueryMetrics {
            query: name.to_string(),
            rows: a_out.rows().len() as u64,
            static_buffers: static_plan.buffer_count() as u64,
            adapted_buffers: adapted_plan.buffer_count() as u64,
            generations: generation,
            static_l1i_misses: static_l1i,
            adapted_l1i_misses: a_out.stats().counters.l1i_misses,
        });
    }
    let cache = db.plan_cache().stats();
    report.hits = cache.hits;
    report.misses = cache.misses;
    report.entries = cache.entries as u64;
    report
}

/// Plain-text rendering of the prepared-query study (`repro prepared`).
pub fn prepared_table(report: &PlanCacheReport) -> String {
    let mut s = String::from(
        "== Prepared queries: plan cache + adaptive refinement ==\n\
         query   | buffers     | gens | L1i misses static -> adapted\n",
    );
    for q in &report.queries {
        let _ = writeln!(
            s,
            "{:<7} | {:>2} -> {:>2}    | {:>4} | {:>10} -> {:>10}  ({:+.1}%)",
            q.query,
            q.static_buffers,
            q.adapted_buffers,
            q.generations,
            q.static_l1i_misses,
            q.adapted_l1i_misses,
            -reduction(q.static_l1i_misses, q.adapted_l1i_misses),
        );
    }
    let _ = writeln!(
        s,
        "cache: {} hits, {} misses, {} resident",
        report.hits, report.misses, report.entries
    );
    s
}

/// §7.3 calibration: the cardinality threshold for this machine.
pub fn calibrate(ctx: &ExperimentCtx) -> String {
    let report = calibrate_cardinality_threshold(&ctx.machine, ctx.refine.buffer_size);
    let mut s = String::from(
        "== Calibration: cardinality threshold (Query 1 template) ==\n\
         cardinality | original (s) | buffered (s)\n",
    );
    for (card, o, b) in &report.points {
        let _ = writeln!(s, "{card:>11} | {o:>12.4} | {b:>12.4}");
    }
    let _ = writeln!(s, "threshold: {}", report.threshold);
    s
}

/// Ablations called out in DESIGN.md: predictor choice, refinement vs
/// buffer-everything, and a larger L1i.
pub fn ablation(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query1(&ctx.catalog).expect("query 1");
    let refined = ctx.buffered(&plan);
    let mut s = String::from("== Ablations (Query 1) ==\n");

    // (a) Branch predictor: gshare vs bimodal.
    for (name, machine) in [
        ("bimodal", ctx.machine.clone()),
        ("gshare", ctx.machine.clone().with_gshare()),
    ] {
        let o = run_plan("orig", &plan, &ctx.catalog, &machine);
        let b = run_plan("buf", &refined, &ctx.catalog, &machine);
        let _ = writeln!(
            s,
            "predictor {name:<8}: mispred {} -> {} ({:+.1}% reduction), time {:+.1}%",
            o.stats.counters.mispredictions,
            b.stats.counters.mispredictions,
            reduction(
                o.stats.counters.mispredictions,
                b.stats.counters.mispredictions
            ),
            100.0 * b.stats.improvement_over(&o.stats),
        );
    }

    // (b) Refinement vs buffering every edge (the "too much buffering" risk
    // §6 warns about: extra buffers cost overhead without extra locality).
    let everywhere = buffer_everywhere(&plan, ctx.refine.buffer_size);
    let o = run_plan("orig", &plan, &ctx.catalog, &ctx.machine);
    let r = run_plan("refined", &refined, &ctx.catalog, &ctx.machine);
    let e = run_plan("everywhere", &everywhere, &ctx.catalog, &ctx.machine);
    let _ = writeln!(
        s,
        "placement: none {:.4}s | refined {:.4}s ({} buffers) | everywhere {:.4}s ({} buffers)",
        o.stats.seconds(),
        r.stats.seconds(),
        refined.buffer_count(),
        e.stats.seconds(),
        everywhere.buffer_count(),
    );

    // (c) A 32 KB L1i: the refiner stops recommending buffers.
    let mut big = ctx.machine.clone();
    big.l1i.capacity = 32 * 1024;
    let big_refine = RefineConfig {
        l1i_capacity: 40 * 1024,
        ..ctx.refine.clone()
    };
    let refined_big = refine_plan(&plan, &ctx.catalog, &big_refine);
    let o_big = run_plan("orig-32k", &plan, &ctx.catalog, &big);
    let _ = writeln!(
        s,
        "32 KB L1i: refiner adds {} buffer(s); unbuffered L1i misses drop to {} (16 KB: {})",
        refined_big.buffer_count(),
        o_big.stats.counters.l1i_misses,
        o.stats.counters.l1i_misses,
    );

    // (d) Pointer buffering vs copying the tuples (§5: "the overhead of
    // copying would reduce the benefit of buffering instructions").
    let (copy_secs, copy_instr) = crate::run_copy_buffered_query1(ctx);
    let _ = writeln!(
        s,
        "buffer variant: pointer {:.4}s ({} instr) | copying {:.4}s ({} instr, {:+.1}% slower than pointer)",
        r.stats.seconds(),
        r.stats.counters.instructions,
        copy_secs,
        copy_instr,
        100.0 * (copy_secs / r.stats.seconds() - 1.0),
    );

    // (e) Other architectures (the paper also ran UltraSparc and Athlon).
    for (name, machine) in [
        ("ultrasparc", MachineConfig::ultrasparc_like()),
        ("athlon", MachineConfig::athlon_like()),
    ] {
        let oo = run_plan("orig", &plan, &ctx.catalog, &machine);
        let bb = run_plan("buf", &refined, &ctx.catalog, &machine);
        let _ = writeln!(
            s,
            "arch {name:<10}: {:.4}s -> {:.4}s ({:+.1}%), L1i misses {} -> {}",
            oo.stats.seconds(),
            bb.stats.seconds(),
            100.0 * bb.stats.improvement_over(&oo.stats),
            oo.stats.counters.l1i_misses,
            bb.stats.counters.l1i_misses,
        );
    }
    s
}

/// Miss-curve analysis (§3's premise that L1 caches stay small): per-iteration
/// i-cache misses of the Query-1 operator pair (scan 13.2 K, aggregation
/// 8.4 K) as cache capacity grows, interleaved vs batched.
pub fn misscurve(_ctx: &ExperimentCtx) -> String {
    use bufferdb_cachesim::misscurve::{sweep, STANDARD_CAPACITIES};
    let points = sweep(13_200, 8_400, &STANDARD_CAPACITIES);
    let mut s = String::from(
        "== Miss curve: Query-1 operator pair vs L1i capacity ==\n         capacity | interleaved misses/iter | batched misses/iter\n",
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>7}K | {:>23.1} | {:>19.1}",
            p.capacity / 1024,
            p.interleaved,
            p.batched
        );
    }
    let _ = writeln!(
        s,
        "the interleaved cliff sits between the individual and combined \
         footprints; batching (buffering) moves it down to the larger \
         individual footprint."
    );
    s
}

/// Related-work comparison (§2): tuple-at-a-time vs the paper's buffering vs
/// Padmanabhan-style block-oriented processing, on the Query 1 shape. Block
/// processing *is* the fused push group — operators exchange batches and
/// their combined code runs once per batch — so the third row is the same
/// plan under [`ExecModePolicy::Push`].
pub fn blockcmp(ctx: &ExperimentCtx) -> String {
    let plan = queries::paper_query1(&ctx.catalog).expect("query 1");
    let refined = ctx.buffered(&plan);
    let fused =
        prepare_plan_parts_with_mode(&plan, &ctx.catalog, &ctx.refine, 1, ExecModePolicy::Push)
            .expect("query 1: prepare (push)")
            .physical;
    let tuple = run_plan("tuple-at-a-time", &plan, &ctx.catalog, &ctx.machine);
    let buffered = run_plan("buffered (paper)", &refined, &ctx.catalog, &ctx.machine);
    let block = run_plan("block-oriented", &fused, &ctx.catalog, &ctx.machine);

    let mut s =
        String::from("== Related work: buffering vs block-oriented processing (Query 1) ==\n");
    let _ = writeln!(s, "{}", tuple.chart_row());
    let _ = writeln!(s, "{}", buffered.chart_row());
    let _ = writeln!(s, "{}", block.chart_row());
    let _ = writeln!(
        s,
        "L1i misses: tuple {} | buffered {} | block {}",
        tuple.stats.counters.l1i_misses,
        buffered.stats.counters.l1i_misses,
        block.stats.counters.l1i_misses,
    );
    let _ = writeln!(
        s,
        "block result check: {} (must equal {})",
        block.rows[0], tuple.rows[0]
    );
    let _ = writeln!(
        s,
        "note: block processing beats buffered-level locality but needs every \
         operator of the pipeline rewritten to exchange batches; the buffer \
         operator reuses the existing operators unchanged (§2, §5)."
    );
    s
}

/// Wrap every pipelined edge in a buffer (ablation baseline: "too much
/// buffering").
pub fn buffer_everywhere(plan: &PlanNode, size: usize) -> PlanNode {
    let wrap = |child: &PlanNode| {
        let inner = buffer_everywhere(child, size);
        if matches!(inner, PlanNode::Buffer { .. }) || child.is_blocking() {
            inner
        } else {
            PlanNode::Buffer {
                input: Box::new(inner),
                size,
            }
        }
    };
    let inputs = match plan {
        // A fused push group is already batch-at-a-time internally; a
        // buffer above (or inside) it would only add copies.
        PlanNode::PushPipeline { .. } => return plan.clone(),
        // A buffer or an exchange already batches at its boundary; buffer
        // below it only.
        PlanNode::Buffer { input, .. } | PlanNode::Exchange { input, .. } => {
            vec![buffer_everywhere(input, size)]
        }
        // The parameterized inner cannot be usefully buffered.
        PlanNode::NestLoopJoin { outer, inner, .. } => {
            vec![wrap(outer), buffer_everywhere(inner, size)]
        }
        _ => plan.children().into_iter().map(wrap).collect(),
    };
    plan.with_inputs(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentCtx {
        ExperimentCtx::new(0.001, 42)
    }

    #[test]
    fn table_reports_render() {
        let ctx = tiny();
        assert!(table1(&ctx).contains("27 cycles"));
        assert!(table2().contains("Buffer"));
        assert!(table2().contains("13.2 K"));
    }

    #[test]
    fn fig10_shows_buffered_winning() {
        let ctx = tiny();
        let report = fig10(&ctx);
        assert!(report.contains("Buffered Plan"), "{report}");
        assert!(
            report.contains("*Buffer*"),
            "refined plan must contain a buffer\n{report}"
        );
    }

    #[test]
    fn fig9_refiner_declines() {
        let ctx = tiny();
        let report = fig9(&ctx);
        assert!(report.contains("(expected: 0)"));
        assert!(report.contains("adds 0 buffer(s)"), "{report}");
    }

    #[test]
    fn buffer_everywhere_adds_more_buffers_than_refinement() {
        let ctx = tiny();
        let plan = queries::paper_query3(&ctx.catalog, JoinMethod::MergeJoin).unwrap();
        let everywhere = buffer_everywhere(&plan, 100);
        let refined = ctx.buffered(&plan);
        assert!(everywhere.buffer_count() >= refined.buffer_count());
        // Results agree.
        let a = run_plan("a", &plan, &ctx.catalog, &ctx.machine);
        let b = run_plan("b", &everywhere, &ctx.catalog, &ctx.machine);
        assert_eq!(format!("{}", a.rows[0]), format!("{}", b.rows[0]));
    }

    #[test]
    fn join_figures_render_for_all_methods() {
        let ctx = tiny();
        for m in [
            JoinMethod::NestLoop,
            JoinMethod::HashJoin,
            JoinMethod::MergeJoin,
        ] {
            let report = join_figure(&ctx, m);
            assert!(report.contains("trace (L1i) misses"), "{report}");
        }
    }
}
