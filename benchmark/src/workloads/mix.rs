//! `pull_thrash` and `batched_exec`: the nine-query mix M9, run serially.
//!
//! Both run the same queries over the same data. `pull_thrash` runs them as
//! unbuffered pull, where operator footprints exceed the modeled 16 KB L1i
//! and every `next()` walks `Machine::exec_region` down the miss path (the
//! paper's PCPCPC case). `batched_exec` runs them buffered and fused, where
//! one region re-executes back to back and stays resident (CCCCC…PPPPP). A
//! change to the simulator's miss path shows on the first and not the
//! second; a change to repeated-region execution the other way round.

use crate::harness::{
    digest, drive_traced, finish_trace, matches_oracle, no_work, report_exec_spans, report_tpch,
    timed, Block, EndToEnd, RunArgs, Totals,
};
use crate::probes;
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::spans::Spans;
use crate::stats;
use bufferdb::prelude::*;
use bufferdb::tpch;
use bufferdb::tpch::queries::{self, JoinMethod};
use bufferdb_bench::json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// TPC-H scale factor: one pull round of M9 takes about half a second, so a
/// run holds enough queries for a 95th percentile.
const SCALE: f64 = 0.001;

/// The paper's buffered-over-original elapsed-time improvements (%), for
/// Query 1 and Query 3 under its three join methods.
const PAPER_IMPROVEMENT_PCT: [(&str, f64); 4] = [
    ("paper Q1", 12.0),
    ("paper Q3 nestloop", 15.0),
    ("paper Q3 hashjoin", 15.0),
    ("paper Q3 mergejoin", 12.0),
];

fn m9(c: &Catalog) -> Vec<(&'static str, PlanNode)> {
    let plans = [
        ("paper Q1", queries::paper_query1(c)),
        ("paper Q2", queries::paper_query2(c)),
        (
            "paper Q3 nestloop",
            queries::paper_query3(c, JoinMethod::NestLoop),
        ),
        (
            "paper Q3 hashjoin",
            queries::paper_query3(c, JoinMethod::HashJoin),
        ),
        (
            "paper Q3 mergejoin",
            queries::paper_query3(c, JoinMethod::MergeJoin),
        ),
        ("TPC-H Q1", queries::tpch_q1(c)),
        ("TPC-H Q6", queries::tpch_q6(c)),
        ("TPC-H Q12", queries::tpch_q12(c)),
        ("TPC-H Q14", queries::tpch_q14(c)),
    ];
    plans
        .into_iter()
        .map(|(name, plan)| (name, plan.expect("M9 plan builds over a TPC-H catalog")))
        .collect()
}

/// One (query, executor mode) pair of the timed round.
struct Cell {
    query: usize,
    mode: ExecModePolicy,
    plan: PlanNode,
}

struct Setup {
    catalog: Catalog,
    catalog_s: f64,
    logical: Vec<(&'static str, PlanNode)>,
    /// Unbuffered pull run of each query: row oracle and fidelity baseline.
    oracle: Vec<(u64, ExecStats)>,
    cells: Vec<Cell>,
}

fn set_up(seed: u64, scale: f64, modes: &[ExecModePolicy], cfg: &MachineConfig) -> Setup {
    let (catalog, catalog_s) = timed(|| tpch::generate_catalog(scale, seed));
    let logical = m9(&catalog);
    let oracle = logical
        .iter()
        .map(|(name, plan)| {
            let out = execute_query(plan, &catalog, cfg, &QueryOpts::new());
            assert!(
                out.is_ok(),
                "oracle run of {name} failed: {:?}",
                out.error()
            );
            (digest(out.rows()), *out.stats())
        })
        .collect();
    let rc = RefineConfig::default();
    let cells = modes
        .iter()
        .flat_map(|&mode| {
            logical
                .iter()
                .enumerate()
                .map(move |(query, (_, plan))| (query, mode, plan))
        })
        .map(|(query, mode, plan)| Cell {
            query,
            mode,
            plan: prepare_plan_parts_with_mode(plan, &catalog, &rc, 1, mode)
                .expect("M9 plan prepares")
                .physical,
        })
        .collect();
    Setup {
        catalog,
        catalog_s,
        logical,
        oracle,
        cells,
    }
}

/// Tie the benchmark to the committed behavioural contract: at the
/// baseline's own (scale, seed) the paper's Query 1 must retire exactly the
/// instructions and L1i misses `BENCH_modes.json` records for each mode.
/// `None` when there is nothing to compare against.
fn baseline_cross_check(seed: u64, cfg: &MachineConfig) -> Option<bool> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_modes.json");
    let Some(doc) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    else {
        println!("  baseline cross-check skipped: no readable BENCH_modes.json in this checkout");
        return None;
    };
    let (Some(scale), Some(base_seed), Some(runs)) = (
        doc.get("scale_factor").and_then(Json::as_f64),
        doc.get("seed").and_then(Json::as_u64),
        doc.get("runs").and_then(Json::as_arr),
    ) else {
        println!("  baseline cross-check skipped: BENCH_modes.json has an unknown shape");
        return None;
    };
    if seed != base_seed {
        println!("  baseline cross-check skipped: seed {seed} is not the baseline's {base_seed}");
        return None;
    }
    let catalog = tpch::generate_catalog(scale, seed);
    let q1 = queries::paper_query1(&catalog).expect("paper query 1");
    let mut ok = true;
    for mode in [
        ExecModePolicy::Pull,
        ExecModePolicy::BufferedPull,
        ExecModePolicy::Push,
    ] {
        let cell = runs.iter().find(|r| {
            r.get("query").and_then(Json::as_str) == Some("paper Q1")
                && r.get("mode").and_then(Json::as_str) == Some(mode.label())
                && r.get("workers").and_then(Json::as_u64) == Some(1)
        });
        let want = cell.and_then(|r| {
            Some((
                r.get("instructions")?.as_u64()?,
                r.get("l1i_misses")?.as_u64()?,
            ))
        });
        let plan = prepare_plan_parts_with_mode(&q1, &catalog, &RefineConfig::default(), 1, mode)
            .expect("paper query 1 prepares")
            .physical;
        let c = execute_query(&plan, &catalog, cfg, &QueryOpts::new())
            .stats()
            .counters;
        let got = (c.instructions, c.l1i_misses);
        let same = want == Some(got);
        println!(
            "  baseline cross-check paper Q1 {:<13} instructions/l1i_misses {:?} vs committed {:?}: {}",
            mode.label(),
            got,
            want,
            if same { "equal" } else { "DIFFERENT" }
        );
        ok &= same;
    }
    Some(ok)
}

/// Modeled speed-ups over unbuffered pull and the distance from the paper's
/// reported improvements. `cell_work` is each cell's modeled (cycles, L1i
/// misses) in the first timed round.
fn paper_fidelity(m: &mut Metrics, s: &Setup, cell_work: &[(u64, u64)]) {
    let pull_cycles = |query: usize| s.oracle[query].1.breakdown.total_cycles;
    let pull_total: u64 = (0..s.oracle.len()).map(pull_cycles).sum();
    let mode_total = |mode: ExecModePolicy| -> u64 {
        let cells = s.cells.iter().zip(cell_work);
        cells
            .filter(|(c, _)| c.mode == mode)
            .map(|(_, w)| w.0)
            .sum()
    };
    m.set(
        "paper.speedup_buffered",
        pull_total as f64 / mode_total(ExecModePolicy::BufferedPull) as f64,
    );
    m.set(
        "paper.speedup_push",
        pull_total as f64 / mode_total(ExecModePolicy::Push) as f64,
    );
    let errors: Vec<f64> = PAPER_IMPROVEMENT_PCT
        .iter()
        .map(|&(name, paper_pct)| {
            let buffered = s.cells.iter().zip(cell_work).find(|(c, _)| {
                s.logical[c.query].0 == name && c.mode == ExecModePolicy::BufferedPull
            });
            let (cell, &(buffered, _)) = buffered.expect("buffered cell of a paper query");
            let pull = pull_cycles(cell.query) as f64;
            let measured_pct = 100.0 * (pull - buffered as f64) / pull;
            println!(
                "  {name}: buffered improves modeled time {measured_pct:.1} % (paper {paper_pct} %)"
            );
            (measured_pct - paper_pct).abs()
        })
        .collect();
    m.set(
        "paper.err_pp",
        errors.iter().sum::<f64>() / errors.len() as f64,
    );
}

/// Run the mix under `modes` for `args.seconds`.
pub fn run(workload: &'static str, modes: &[ExecModePolicy], args: &RunArgs) -> RunResult {
    let cfg = MachineConfig::pentium4_like();
    let scale = args.scale(SCALE);
    let mut e2e = EndToEnd::default();
    let s = e2e.set_up(|| set_up(args.seed, scale, modes, &cfg));

    let mut spans = Spans::new(args.trace);
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    // Modeled (cycles, L1i misses) of each cell in the first round.
    let mut cell_work: Vec<(u64, u64)> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let mut round = 0u32;
    while round == 0 || start.elapsed() < budget {
        // A traced run alternates hand-driven rounds under spans with plain
        // `execute_query` rounds; their rates differ by the span overhead.
        let traced_round = args.trace && round.is_multiple_of(2);
        let mut work = Totals::default();
        let t_round = Instant::now();
        for (i, cell) in s.cells.iter().enumerate() {
            let oracle_digest = s.oracle[cell.query].0;
            let t = Instant::now();
            let (ok, counters, breakdown) = if traced_round {
                let request = round * s.cells.len() as u32 + i as u32 + 1;
                let q = spans.enter("query", request);
                let driven = drive_traced(&cell.plan, &s.catalog, &cfg, &mut spans, request);
                spans.exit(q);
                match driven {
                    Ok(d) => (digest(&d.rows) == oracle_digest, d.counters, d.breakdown),
                    Err(_) => {
                        let (counters, breakdown) = no_work(&cfg);
                        (false, counters, breakdown)
                    }
                }
            } else {
                let out = execute_query(&cell.plan, &s.catalog, &cfg, &QueryOpts::new());
                let st = out.stats();
                (
                    matches_oracle(&out, oracle_digest),
                    st.counters,
                    st.breakdown,
                )
            };
            e2e.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            attempted += 1;
            failed += u64::from(!ok);
            work.add(&counters, &breakdown);
            if round == 0 {
                cell_work.push((breakdown.total_cycles, counters.l1i_misses));
                e2e.modeled_latency_ms.push(breakdown.seconds() * 1e3);
            }
        }
        let seconds = t_round.elapsed().as_secs_f64();
        e2e.blocks.push(Block::new(
            s.cells.len() as u64,
            &work,
            seconds,
            traced_round,
        ));
        // The engine sees identical inputs every round, so every round must
        // retire identical modeled work, hand-driven or not. The first round
        // is the fixed set the modeled metrics cover.
        if round == 0 {
            e2e.fixed = work;
        }
        correct &= work == e2e.fixed;
        round += 1;
    }
    e2e.end_timed(cpu0);
    e2e.repeat_set_up(args, || set_up(args.seed, scale, modes, &cfg));
    correct &= failed == 0 && e2e.fixed.components_conserve();

    let mut constants = vec![
        ("scale_factor".to_string(), Json::F64(scale)),
        (
            "queries_per_round".to_string(),
            Json::U64(s.cells.len() as u64),
        ),
        ("rounds".to_string(), Json::U64(u64::from(round))),
        (
            "modes".to_string(),
            Json::Arr(modes.iter().map(|m| Json::str(m.label())).collect()),
        ),
    ];
    let (metrics, details) = if args.trace {
        let mut m = Metrics::new(PER_LAYER);
        for (cell, (cycles, l1i_misses)) in s.cells.iter().zip(&cell_work) {
            println!(
                "  {:<20} {:<13} modeled cycles {cycles:>11}  L1i misses {l1i_misses:>9}",
                s.logical[cell.query].0,
                cell.mode.label()
            );
        }
        report_tpch(&mut m, &s.catalog, s.catalog_s);
        e2e.report_layers(&mut m);
        report_exec_spans(&mut m, &spans);
        let buffered_and_fused = [ExecModePolicy::BufferedPull, ExecModePolicy::Push]
            .iter()
            .all(|m| modes.contains(m));
        if buffered_and_fused {
            paper_fidelity(&mut m, &s, &cell_work);
            correct &= baseline_cross_check(args.seed, &cfg).unwrap_or(true);
        }
        let logical: Vec<PlanNode> = s.logical.iter().map(|(_, p)| p.clone()).collect();
        let serial: Vec<PlanNode> = s.cells.iter().map(|c| c.plan.clone()).collect();
        let thrashing = modes == [ExecModePolicy::Pull];
        correct &= probes::common_layers(
            &mut m, &s.catalog, &cfg, &logical, &serial, thrashing, args.seed,
        );
        finish_trace(args, workload, &spans, &mut constants);
        (m, Vec::new())
    } else {
        e2e.metrics(args.smoke)
    };
    RunResult {
        workload,
        attempted,
        failed,
        correct,
        metrics,
        details,
        constants,
    }
}
