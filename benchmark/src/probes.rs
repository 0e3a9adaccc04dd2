//! Per-layer numbers that do not depend on which workload is running: direct
//! calls into each layer's public functions, timed as the median of batches.
//! They run in the traced run only, after the timed section.

use crate::report::Metrics;
use crate::stats;
use bufferdb::cachesim::{Cache, Machine};
use bufferdb::core::context::ExecContext;
use bufferdb::core::exec::buffer::BufferOp;
use bufferdb::core::exec::seqscan::SeqScanOp;
use bufferdb::core::exec::Operator;
use bufferdb::prelude::*;
use bufferdb::tpch;
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the probe reports their median.
const BATCHES: usize = 15;
/// Shortest batch worth timing.
const MIN_BATCH_NS: u128 = 2_000_000;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches, the batch
/// size doubled until one batch takes [`MIN_BATCH_NS`].
fn probe_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed().as_nanos() >= MIN_BATCH_NS || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median_of(&samples)
}

fn storage_and_index(m: &mut Metrics, catalog: &Catalog) {
    m.set(
        "storage.table_lookup_ns",
        probe_ns(|| catalog.table("orders").expect("orders table")),
    );
    m.set(
        "storage.bump_epoch_ns",
        probe_ns(|| catalog.bump_stats_epoch()),
    );
    let index = catalog.index("orders_pkey").expect("orders_pkey index");
    // Order keys are dense in 1..=n; a prime stride visits them out of order.
    let keys = index.btree.len().max(1) as i64;
    let mut key = 0i64;
    m.set(
        "index.btree_lookup_ns",
        probe_ns(|| {
            key = (key + 7919) % keys;
            index.btree.lookup(key + 1)
        }),
    );
}

/// Host cost of the simulator's own entry points. Returns the per-call cost
/// of the alternating and the repeating `exec_region` pattern.
fn cachesim_host(m: &mut Metrics, cfg: &MachineConfig) -> (f64, f64) {
    // Two operator footprints that cannot both stay L1i-resident: the
    // paper's Query 1 pair (scan with predicate, three-function aggregate).
    let scan = OpKind::SeqScan { with_pred: true };
    let agg = OpKind::Aggregate {
        funcs: vec![AggFunc::Sum, AggFunc::Avg, AggFunc::CountStar],
    };
    assert!(
        FootprintModel::combined_footprint(&[scan.clone(), agg.clone()]) > cfg.l1i.capacity,
        "probe regions must overflow the modeled L1i"
    );
    let regions = || {
        let mut fm = FootprintModel::new();
        (fm.region_for(&scan), fm.region_for(&agg))
    };

    let alternating = |machine: &mut Machine| {
        let (mut a, mut b) = regions();
        probe_ns(|| {
            machine.exec_region(&mut a);
            machine.exec_region(&mut b);
        }) / 2.0
    };
    let alt = alternating(&mut Machine::new(cfg.clone()));
    m.set("cachesim.exec_region_alt_ns", alt);

    let mut heated = Machine::new(cfg.clone());
    heated.enable_heatmap();
    m.set("cachesim.exec_region_heat_ns", alternating(&mut heated));

    let mut machine = Machine::new(cfg.clone());
    let (mut a, mut b) = regions();
    let rep = probe_ns(|| {
        for _ in 0..100 {
            machine.exec_region(&mut a);
        }
        for _ in 0..100 {
            machine.exec_region(&mut b);
        }
    }) / 200.0;
    m.set("cachesim.exec_region_rep_ns", rep);

    let mut hot = Cache::new(cfg.l1i);
    hot.access(0x1000);
    m.set(
        "cachesim.cache_access_hit_ns",
        probe_ns(|| hot.access(0x1000)),
    );
    let mut cold = Cache::new(cfg.l1i);
    let mut addr = 0u64;
    m.set(
        "cachesim.cache_access_miss_ns",
        probe_ns(|| {
            addr = addr.wrapping_add(64);
            cold.access(addr)
        }),
    );

    let mut machine = Machine::new(cfg.clone());
    let mut addr = 0x1000_0000u64;
    m.set(
        "cachesim.data_read_ns",
        probe_ns(|| {
            addr += 64;
            machine.data_read(addr, 64)
        }),
    );
    let mut i = 0u64;
    m.set(
        "cachesim.branch_ns",
        probe_ns(|| {
            i += 1;
            machine.branch(0x400 + (i % 64) * 16, !i.is_multiple_of(3))
        }),
    );
    m.set(
        "cachesim.machine_new_us",
        probe_ns(|| Machine::new(cfg.clone())) / 1e3,
    );
    (alt, rep)
}

fn exec_operators(m: &mut Metrics, catalog: &Catalog, cfg: &MachineConfig) {
    let scan = |fm: &mut FootprintModel| {
        SeqScanOp::new(catalog, fm, "lineitem", None, None).expect("lineitem scan")
    };
    let next_ns = |mut op: Box<dyn Operator>| {
        let mut ctx = ExecContext::new(cfg.clone());
        op.open(&mut ctx).expect("open");
        probe_ns(|| {
            if op.next(&mut ctx).expect("next").is_none() {
                op.rescan(&mut ctx, None).expect("rescan");
            }
        })
    };
    let mut fm = FootprintModel::new();
    m.set("exec.seqscan_next_ns", next_ns(Box::new(scan(&mut fm))));
    let mut fm = FootprintModel::new();
    let child = Box::new(scan(&mut fm));
    let buffered = BufferOp::new(&mut fm, child, RefineConfig::default().buffer_size)
        .expect("buffer over scan");
    m.set("exec.buffer_next_ns", next_ns(Box::new(buffered)));

    let q2 = tpch::queries::paper_query2(catalog).expect("paper query 2");
    let push = prepare_plan_parts_with_mode(
        &q2,
        catalog,
        &RefineConfig::default(),
        1,
        ExecModePolicy::Push,
    )
    .expect("push plan")
    .physical;
    let rows = catalog
        .table("lineitem")
        .expect("lineitem")
        .rows()
        .len()
        .max(1);
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            black_box(execute_query(&push, catalog, cfg, &QueryOpts::new()));
            t.elapsed().as_nanos() as f64 / rows as f64
        })
        .collect();
    m.set("exec.push_ns_per_input_row", stats::median_of(&runs));
}

fn count_buffers(plan: &PlanNode) -> u64 {
    u64::from(matches!(plan, PlanNode::Buffer { .. }))
        + plan.children().into_iter().map(count_buffers).sum::<u64>()
}

/// Number of fused push pipelines in `plan`.
fn count_push_pipelines(plan: &PlanNode) -> u64 {
    u64::from(matches!(plan, PlanNode::PushPipeline { .. }))
        + plan
            .children()
            .into_iter()
            .map(count_push_pipelines)
            .sum::<u64>()
}

/// Planning passes over the workload's logical plans: median microseconds
/// per plan (each plan's own time is the median of five calls).
fn planning(m: &mut Metrics, logical: &[PlanNode], catalog: &Catalog, cfg: &MachineConfig) {
    let rc = RefineConfig::default();
    let per_plan_us = |f: &dyn Fn(&PlanNode)| -> f64 {
        let per_plan: Vec<f64> = logical
            .iter()
            .map(|p| {
                let calls: Vec<f64> = (0..5)
                    .map(|_| {
                        let t = Instant::now();
                        f(p);
                        t.elapsed().as_nanos() as f64 / 1e3
                    })
                    .collect();
                stats::median_of(&calls)
            })
            .collect();
        stats::median_of(&per_plan)
    };
    m.set(
        "optimizer.choose_modes_us",
        per_plan_us(&|p| {
            black_box(choose_pipeline_modes(p, &rc, ExecModePolicy::Push));
        }),
    );
    m.set(
        "parallel.parallelize_us",
        per_plan_us(&|p| {
            black_box(parallelize_plan(p, catalog, 2).expect("parallelize"));
        }),
    );
    m.set(
        "refine.refine_plan_us",
        per_plan_us(&|p| {
            black_box(refine_plan(p, catalog, &rc));
        }),
    );
    m.set(
        "refine.buffers_placed",
        logical
            .iter()
            .map(|p| count_buffers(&refine_plan(p, catalog, &rc)))
            .sum::<u64>() as f64,
    );
    let epoch = catalog.stats_epoch();
    m.set(
        "prepare.fingerprint_us",
        per_plan_us(&|p| {
            black_box(fingerprint_plan(p, cfg, 1, epoch, &rc));
        }),
    );
}

/// The per-query floor: `Session::query` on an index range holding no keys.
fn session_floor(m: &mut Metrics, seed: u64, cfg: &MachineConfig) {
    let session = Session::new(tpch::generate_catalog(0.0002, seed), cfg.clone());
    let empty = PlanNode::IndexScan {
        index: "orders_pkey".into(),
        mode: IndexMode::Range {
            lo: Some(-2),
            hi: Some(-1),
        },
    };
    let opts = QueryOpts::new();
    let out = session.query(&empty, &opts);
    assert!(
        out.is_ok() && out.rows().is_empty(),
        "the floor query returns no rows"
    );
    m.set(
        "session.query_fixed_us",
        probe_ns(|| session.query(&empty, &opts)) / 1e3,
    );
}

/// Run `plan` under `opts`: host nanoseconds and the outcome.
fn timed_run(
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &MachineConfig,
    opts: &QueryOpts,
) -> (f64, QueryOutcome) {
    let t = Instant::now();
    let out = execute_query(plan, catalog, cfg, opts);
    let ns = t.elapsed().as_nanos() as f64;
    assert!(out.is_ok(), "observer run failed: {:?}", out.error());
    (ns, out)
}

/// Sum over every simulated counter of how far `a` and `b` are apart.
fn abs_delta(a: &PerfCounters, b: &PerfCounters) -> u64 {
    let fields = |c: &PerfCounters| {
        [
            c.instructions,
            c.l1i_accesses,
            c.l1i_misses,
            c.l1i_cross_misses,
            c.l1d_accesses,
            c.l1d_misses,
            c.l2_accesses,
            c.l2_misses,
            c.l2_covered,
            c.itlb_accesses,
            c.itlb_misses,
            c.branches,
            c.mispredictions,
        ]
    };
    fields(a)
        .iter()
        .zip(fields(b))
        .map(|(x, y)| x.abs_diff(y))
        .sum()
}

/// A/B of the engine's public observer switches over the workload's plans,
/// run serially, and the operator counts the profiled arm yields. `plans`
/// must be serial (threaded counters wobble). `region_call_ns` is the
/// `exec_region` probe cost of the pattern these plans execute.
fn observers(
    m: &mut Metrics,
    plans: &[PlanNode],
    catalog: &Catalog,
    cfg: &MachineConfig,
    region_call_ns: f64,
) -> bool {
    let off = QueryOpts::new();
    let observers = [
        ("obs.profile_overhead_pct", QueryOpts::new().profile(true)),
        ("obs.trace_overhead_pct", QueryOpts::new().trace(true)),
        ("obs.heatmap_overhead_pct", QueryOpts::new().heatmap(true)),
    ];
    // Each repetition runs every plan with observers off and then, right
    // after it, once per observer: an observer's cost is the median over all
    // (repetition, plan) pairs of its time against the unobserved run beside
    // it, so a machine that changes speed mid-probe moves both alike.
    let mut base_ns = Vec::new();
    let mut ratios: [Vec<f64>; 3] = Default::default();
    let mut delta = 0u64;
    let mut profiled = Vec::new();
    let mut reps = 2;
    while base_ns.len() < reps {
        let mut total = 0.0;
        profiled.clear();
        for plan in plans {
            let (off_ns, unobserved) = timed_run(plan, catalog, cfg, &off);
            total += off_ns;
            for (arm, (_, opts)) in observers.iter().enumerate() {
                let (on_ns, observed) = timed_run(plan, catalog, cfg, opts);
                ratios[arm].push(on_ns / off_ns);
                delta += abs_delta(&observed.stats().counters, &unobserved.stats().counters);
                if arm == 0 {
                    profiled.push(observed);
                }
            }
        }
        if base_ns.is_empty() {
            // Enough repetitions that each arm runs for a third of a second.
            reps = ((3e8 / total).ceil() as usize).clamp(2, 200);
        }
        base_ns.push(total);
    }
    for ((name, _), r) in observers.iter().zip(&ratios) {
        m.set(name, 100.0 * (stats::median_of(r) - 1.0));
    }
    m.set("obs.observer_delta_events", delta as f64);
    let unobserved_ns = stats::median_of(&base_ns);

    let buffer_size = RefineConfig::default().buffer_size as f64;
    let (mut next_calls, mut rows, mut buffers, mut fills, mut buffered) = (0, 0, 0, 0, 0);
    let mut conserved = true;
    for out in &profiled {
        let profile = out.profile().expect("profiled arm carries a profile");
        conserved &= profile.sum_op_counters() == out.stats().counters;
        for op in &profile.ops {
            next_calls += op.next_calls;
            rows += op.rows;
            if let Some(g) = &op.buffer {
                buffers += 1;
                fills += g.fills;
                buffered += g.tuples_buffered;
            }
        }
    }
    m.set("exec.next_calls", next_calls as f64);
    m.set("exec.rows_out", rows as f64);
    m.set("exec.buffers", f64::from(buffers));
    m.set(
        "exec.push_pipelines",
        plans.iter().map(count_push_pipelines).sum::<u64>() as f64,
    );
    m.set("exec.buffer_fills", fills as f64);
    m.set(
        "exec.buffer_avg_occupancy",
        if fills == 0 {
            0.0
        } else {
            buffered as f64 / fills as f64 / buffer_size
        },
    );
    m.set(
        "exec.host_ns_per_next_call",
        unobserved_ns / next_calls.max(1) as f64,
    );
    // An estimate: it prices every `next()` at one `exec_region` call of the
    // plans' dominant pattern, which over-counts fused push batches.
    m.set(
        "cachesim.region_replay_share",
        next_calls as f64 * region_call_ns / unobserved_ns,
    );
    conserved && delta == 0
}

/// Every workload-independent per-layer metric. `logical` are the workload's
/// plans as written, `serial` the physical plans it runs (prepared for one
/// worker), `thrashing` whether those plans run unbuffered pull. Returns
/// whether the invariants held: profiles conserve and observers change no
/// modeled counter.
pub fn common_layers(
    m: &mut Metrics,
    catalog: &Catalog,
    cfg: &MachineConfig,
    logical: &[PlanNode],
    serial: &[PlanNode],
    thrashing: bool,
    seed: u64,
) -> bool {
    let (alt, rep) = cachesim_host(m, cfg);
    exec_operators(m, catalog, cfg);
    planning(m, logical, catalog, cfg);
    session_floor(m, seed, cfg);
    let ok = observers(m, serial, catalog, cfg, if thrashing { alt } else { rep });
    // Last: it moves the catalog's stats epoch.
    storage_and_index(m, catalog);
    ok
}
