//! `short_prepared`: one closed-loop client sending short prepared queries.
//!
//! Each request is `Database::prepare` then `execute` of a plan drawn
//! Zipf(1.0) from 96 shapes — half again as many as the 64-entry plan cache
//! holds, so the hot head hits and the tail evicts. Every 4 096th request is
//! preceded by a write, `Catalog::bump_stats_epoch`, which invalidates every
//! cached plan and reused intermediate. Requests take tens of microseconds,
//! nearly all of it per-query fixed path (fingerprint, cache, refine on a
//! miss, executor and machine construction); per-tuple work is small.

use crate::harness::{
    digest, drive_traced, finish_trace, matches_oracle, median_or_zero, no_work, report_exec_spans,
    report_tpch, timed, Block, EndToEnd, RunArgs, Totals,
};
use crate::probes;
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{self, Zipf};
use bufferdb::prelude::*;
use bufferdb::tpch;
use bufferdb::types::Rng;
use bufferdb_bench::json::Json;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.002;
const SHAPES: usize = 96;
const ZIPF_THETA: f64 = 1.0;
/// Requests between two stats-epoch bumps.
const WRITE_EVERY: u64 = 4096;
/// Requests per block; rates are medians over blocks.
const BLOCK: u64 = 10_000;
/// Blocks whose requests make the fixed set the modeled metrics cover: the
/// draws differ by seed, and over a single block the drawn mix of heavy and
/// light shapes still moved modeled cycles by 2.4 % between seeds.
const FIXED_BLOCKS: u64 = 4;
/// Index ranges span 1 to this many keys.
const MAX_RANGE_KEYS: i64 = 64;

fn count_over(input: PlanNode) -> PlanNode {
    PlanNode::Aggregate {
        input: Box::new(input),
        group_by: vec![],
        aggs: vec![AggSpec::count_star("n")],
    }
}

/// Position of `column` in `table`'s schema.
fn column(c: &Catalog, table: &str, column: &str) -> usize {
    c.table(table)
        .and_then(|t| t.schema().index_of(column))
        .expect("TPC-H column")
}

fn filtered_count(c: &Catalog, table: &str, col: &str, pred: impl Fn(Expr) -> Expr) -> PlanNode {
    count_over(PlanNode::SeqScan {
        table: table.into(),
        predicate: Some(pred(Expr::col(column(c, table, col)))),
        projection: None,
    })
}

/// `COUNT(*)` of nation ⋈ region: the shape whose aggregate is harvested
/// into the reuse cache.
fn join_shape(c: &Catalog) -> PlanNode {
    count_over(PlanNode::HashJoin {
        probe: Box::new(PlanNode::SeqScan {
            table: "nation".into(),
            predicate: None,
            projection: None,
        }),
        build: Box::new(PlanNode::SeqScan {
            table: "region".into(),
            predicate: None,
            projection: None,
        }),
        probe_key: column(c, "nation", "n_regionkey"),
        build_key: column(c, "region", "r_regionkey"),
    })
}

/// The 96 shapes in popularity order. The list depends on the catalog's
/// sizes only; the seed decides which ranks are drawn, not what they are.
fn shapes(c: &Catalog) -> Vec<PlanNode> {
    let range_counts = |index: &str, table: &str, n: usize| -> Vec<PlanNode> {
        let keys = c.table(table).expect("indexed table").rows().len() as i64;
        (0..n as i64)
            .map(|i| {
                // Width grows with rank: point lookups are the popular
                // requests, and the slow tail is a continuum with no gap for
                // the 95th percentile to fall into.
                let width = 1 + i * (MAX_RANGE_KEYS - 1) / (n as i64 - 1);
                let lo = 1 + (i * 37) % (keys - width).max(1);
                count_over(PlanNode::IndexScan {
                    index: index.into(),
                    mode: IndexMode::Range {
                        lo: Some(lo),
                        hi: Some(lo + width - 1),
                    },
                })
            })
            .collect()
    };
    let orders = range_counts("orders_pkey", "orders", 40);
    let customers = range_counts("customer_pkey", "customer", 40);
    let mut scans = vec![join_shape(c)];
    for k in 0..5i64 {
        scans.push(filtered_count(c, "nation", "n_regionkey", |col| {
            col.eq(Expr::lit(k))
        }));
        scans.push(filtered_count(c, "region", "r_regionkey", |col| {
            col.le(Expr::lit(k))
        }));
        scans.push(filtered_count(c, "supplier", "s_nationkey", |col| {
            col.eq(Expr::lit(k))
        }));
    }
    // Interleave the families so every stretch of ranks mixes index ranges
    // with scans, and the join sits in the hot head.
    let mut out = Vec::with_capacity(SHAPES);
    let (mut o, mut cu, mut s) = (orders.into_iter(), customers.into_iter(), scans.into_iter());
    while out.len() < SHAPES {
        out.extend(o.next());
        out.extend(cu.next());
        out.extend(s.next());
    }
    assert_eq!(out.len(), SHAPES);
    out
}

struct Setup {
    db: Database,
    catalog_s: f64,
    shapes: Vec<PlanNode>,
    join: PlanNode,
    /// Digest of each shape's rows under unbuffered pull.
    oracle: Vec<u64>,
}

fn set_up(seed: u64, scale: f64, cfg: &MachineConfig, spans: &mut Spans) -> Setup {
    let (catalog, catalog_s) = timed(|| tpch::generate_catalog(scale, seed));
    let db = Database::open(catalog, cfg.clone());
    let shapes = shapes(db.catalog());
    let oracle = shapes
        .iter()
        .map(|plan| {
            let out = execute_query(plan, db.catalog(), cfg, &QueryOpts::new());
            assert!(out.is_ok(), "oracle run failed: {:?}", out.error());
            digest(out.rows())
        })
        .collect();
    let join = join_shape(db.catalog());
    spans.around("prepare.harvest_reuse", 0, || {
        db.harvest_reuse(&join, &QueryOpts::new())
    });
    Setup {
        db,
        catalog_s,
        shapes,
        join,
        oracle,
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let workload = "short_prepared";
    let cfg = MachineConfig::pentium4_like();
    let scale = args.scale(SCALE);
    let block_len = if args.smoke { BLOCK / 5 } else { BLOCK };
    let mut spans = Spans::new(args.trace);
    let mut e2e = EndToEnd::default();
    let s = e2e.set_up(|| set_up(args.seed, scale, &cfg, &mut spans));
    let db = &s.db;

    let zipf = Zipf::new(SHAPES, ZIPF_THETA);
    let mut rng = Rng::seed_from_u64(args.seed);
    let opts = QueryOpts::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Prepare spans of traced blocks, split by what the plan cache did.
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    let cache0 = db.plan_cache().stats();
    let budget = Duration::from_secs(args.seconds);
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let mut block = 0u64;
    while block < FIXED_BLOCKS || start.elapsed() < budget {
        // A traced run alternates blocks under spans (hand-driven execution)
        // with plain blocks; their rates differ by the span overhead.
        let traced_block = args.trace && block.is_multiple_of(2);
        spans.set_enabled(traced_block);
        let mut work = Totals::default();
        let t_block = Instant::now();
        for _ in 0..block_len {
            let request = attempted as u32 + 1;
            if attempted > 0 && attempted % WRITE_EVERY == 0 {
                // The write beside the reads: cached plans and the reused
                // join go stale; the join is harvested again.
                spans.around("storage.bump_stats_epoch", request, || {
                    db.catalog().bump_stats_epoch()
                });
                spans.around("prepare.harvest_reuse", request, || {
                    db.harvest_reuse(&s.join, &opts)
                });
            }
            let shape = zipf.sample(&mut rng);
            let t = Instant::now();
            let root = spans.enter("request", request);
            let misses_before = traced_block.then(|| db.plan_cache().stats().misses);
            let p = spans.enter("prepare.prepare", request);
            let prepared = db.prepare(&s.shapes[shape]);
            let prepare_ns = spans.exit(p) as f64;
            if let Some(before) = misses_before {
                if db.plan_cache().stats().misses > before {
                    miss_ns.push(prepare_ns);
                } else {
                    hit_ns.push(prepare_ns);
                }
            }
            let executed = prepared.and_then(|prepared| {
                if traced_block {
                    let e = spans.enter("prepare.execute", request);
                    let driven =
                        drive_traced(&prepared.plan(), db.catalog(), &cfg, &mut spans, request);
                    spans.exit(e);
                    driven.map(|d| (digest(&d.rows) == s.oracle[shape], d.counters, d.breakdown))
                } else {
                    let out = prepared.execute();
                    let st = out.stats();
                    Ok((
                        matches_oracle(&out, s.oracle[shape]),
                        st.counters,
                        st.breakdown,
                    ))
                }
            });
            spans.exit(root);
            let (ok, counters, breakdown) = executed.unwrap_or_else(|_| {
                let (counters, breakdown) = no_work(&cfg);
                (false, counters, breakdown)
            });
            e2e.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            attempted += 1;
            failed += u64::from(!ok);
            work.add(&counters, &breakdown);
            if block < FIXED_BLOCKS {
                e2e.modeled_latency_ms.push(breakdown.seconds() * 1e3);
                e2e.fixed.add(&counters, &breakdown);
            }
        }
        let seconds = t_block.elapsed().as_secs_f64();
        e2e.blocks
            .push(Block::new(block_len, &work, seconds, traced_block));
        block += 1;
    }
    e2e.end_timed(cpu0);
    spans.set_enabled(args.trace);
    e2e.repeat_set_up(args, || {
        set_up(args.seed, scale, &cfg, &mut Spans::new(false))
    });
    let mut correct = failed == 0 && e2e.fixed.components_conserve();

    let mut constants = vec![
        ("scale_factor".to_string(), Json::F64(scale)),
        ("shapes".to_string(), Json::U64(SHAPES as u64)),
        ("zipf_theta".to_string(), Json::F64(ZIPF_THETA)),
        ("write_every".to_string(), Json::U64(WRITE_EVERY)),
        ("block_requests".to_string(), Json::U64(block_len)),
        ("blocks".to_string(), Json::U64(block)),
        ("fixed_blocks".to_string(), Json::U64(FIXED_BLOCKS)),
        (
            "plan_cache_capacity".to_string(),
            Json::U64(db.plan_cache().capacity() as u64),
        ),
    ];
    let (metrics, details) = if args.trace {
        let mut m = Metrics::new(PER_LAYER);
        report_tpch(&mut m, db.catalog(), s.catalog_s);
        e2e.report_layers(&mut m);
        report_exec_spans(&mut m, &spans);
        m.set("prepare.hit_us_p50", median_or_zero(&hit_ns) / 1e3);
        m.set("prepare.miss_us_p50", median_or_zero(&miss_ns) / 1e3);
        m.set(
            "prepare.execute_us_p50",
            median_or_zero(&spans.durations_ns("prepare.execute")) / 1e3,
        );
        m.set(
            "prepare.reuse_harvest_us",
            median_or_zero(&spans.durations_ns("prepare.harvest_reuse")) / 1e3,
        );
        let cache = db.plan_cache().stats();
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        m.set(
            "prepare.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set(
            "prepare.evictions",
            (cache.evictions - cache0.evictions) as f64,
        );
        m.set(
            "prepare.invalidations",
            (cache.invalidations - cache0.invalidations) as f64,
        );
        m.set(
            "prepare.reuse_hit_ratio",
            db.reuse_cache().stats().hit_rate(),
        );
        let rc = RefineConfig::default();
        let serial: Vec<PlanNode> = s
            .shapes
            .iter()
            .map(|p| prepare_physical_plan(p, db.catalog(), &rc, 1).expect("shape prepares"))
            .collect();
        correct &= probes::common_layers(
            &mut m,
            db.catalog(),
            &cfg,
            &s.shapes,
            &serial,
            false,
            args.seed,
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
