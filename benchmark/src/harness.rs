//! What the four workloads share: run arguments, the row oracle, counter
//! totals, the end-to-end metric set, and hand-driving a plan under spans.

use crate::report::{Metrics, END_TO_END};
use crate::spans::{Spans, MAX_SPANS_IN_FILE};
use crate::stats::{self, Summary};
use bufferdb::core::context::ExecContext;
use bufferdb::core::exec::build_executor;
use bufferdb::prelude::*;
use bufferdb_bench::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: u64,
    pub trace: bool,
    /// Shrunken inputs for the self-test; numbers from it mean nothing.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// `full`, or a fifth of it under `--smoke`.
    pub fn scale(&self, full: f64) -> f64 {
        if self.smoke {
            full / 5.0
        } else {
            full
        }
    }
}

/// Set-ups per untraced run, whose `setup_s` is their median: at least
/// `SETUP_REPS_MIN`, and cheap set-ups repeat until they add up to
/// `SETUP_MIN_TOTAL_S`, because a 20 ms set-up timed three times is mostly
/// scheduler noise.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 30;
const SETUP_MIN_TOTAL_S: f64 = 1.0;

/// Order-sensitive digest of a result: FNV-1a over each row's text.
pub fn digest(rows: &[Tuple]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for b in row.to_string().bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whether `out` finished cleanly with exactly the oracle's rows.
pub fn matches_oracle(out: &QueryOutcome, oracle_digest: u64) -> bool {
    out.is_ok() && digest(out.rows()) == oracle_digest
}

/// Sums of simulated counters and of the cost model's cycle components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub counters: PerfCounters,
    pub cycles: u64,
    pub cycles_l1i: u64,
    pub cycles_l2: u64,
    pub cycles_mispredict: u64,
    pub cycles_l1d: u64,
    pub cycles_itlb: u64,
    pub cycles_base: u64,
}

impl Totals {
    pub fn add(&mut self, counters: &PerfCounters, b: &BreakdownReport) {
        self.counters = self.counters + *counters;
        self.cycles += b.total_cycles;
        self.cycles_l1i += b.l1i_penalty;
        self.cycles_l2 += b.l2_penalty;
        self.cycles_mispredict += b.mispred_penalty;
        self.cycles_l1d += b.l1d_penalty;
        self.cycles_itlb += b.itlb_penalty;
        self.cycles_base += b.base_cycles;
    }

    pub fn add_stats(&mut self, s: &ExecStats) {
        self.add(&s.counters, &s.breakdown);
    }

    /// Events the simulator processed: every cache/TLB lookup and branch.
    pub fn sim_events(&self) -> u64 {
        let c = &self.counters;
        c.l1i_accesses + c.l1d_accesses + c.itlb_accesses + c.branches
    }

    /// Each modeled cycle has exactly one cause: the components sum to the
    /// total, with no overlap.
    pub fn components_conserve(&self) -> bool {
        self.cycles_l1i
            + self.cycles_l2
            + self.cycles_mispredict
            + self.cycles_l1d
            + self.cycles_itlb
            + self.cycles_base
            == self.cycles
    }

    /// The `cachesim.*` counts and cycle components.
    pub fn report(&self, m: &mut Metrics) {
        let c = &self.counters;
        for (name, v) in [
            ("cachesim.instructions", c.instructions),
            ("cachesim.l1i_accesses", c.l1i_accesses),
            ("cachesim.l1i_misses", c.l1i_misses),
            ("cachesim.l1d_accesses", c.l1d_accesses),
            ("cachesim.l1d_misses", c.l1d_misses),
            ("cachesim.l2_accesses", c.l2_accesses),
            ("cachesim.l2_misses", c.l2_misses),
            ("cachesim.l2_covered", c.l2_covered),
            ("cachesim.itlb_misses", c.itlb_misses),
            ("cachesim.branches", c.branches),
            ("cachesim.mispredictions", c.mispredictions),
            ("cachesim.sim_events", self.sim_events()),
            ("cachesim.cycles_l1i", self.cycles_l1i),
            ("cachesim.cycles_l2", self.cycles_l2),
            ("cachesim.cycles_mispredict", self.cycles_mispredict),
            ("cachesim.cycles_l1d", self.cycles_l1d),
            ("cachesim.cycles_itlb", self.cycles_itlb),
            ("cachesim.cycles_base", self.cycles_base),
        ] {
            m.set(name, v as f64);
        }
    }
}

/// One block of the timed section: a round, a batch of requests or of jobs.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub queries: u64,
    pub instructions: u64,
    pub sim_events: u64,
    pub seconds: f64,
    /// Whether the block ran under spans (traced runs alternate).
    pub traced: bool,
}

impl Block {
    pub fn new(queries: u64, work: &Totals, seconds: f64, traced: bool) -> Self {
        Block {
            queries,
            instructions: work.counters.instructions,
            sim_events: work.sim_events(),
            seconds,
            traced,
        }
    }
}

/// Everything the end-to-end metrics are computed from.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub blocks: Vec<Block>,
    pub latency_us: Vec<f64>,
    pub host_cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Modeled work of a fixed set of operations (one round, the first
    /// block, the virtual half): it repeats exactly for a seed however long
    /// the run is, and every modeled metric is taken from it.
    pub fixed: Totals,
    /// Modeled latency of each operation of the fixed set.
    pub modeled_latency_ms: Vec<f64>,
}

impl EndToEnd {
    /// Run the workload's set-up once, timed, before the timed section.
    pub fn set_up<S>(&mut self, f: impl FnOnce() -> S) -> S {
        let (s, secs) = timed(f);
        self.setup_s.push(secs);
        s
    }

    /// Close the timed section that started at CPU reading `cpu0`. The peak
    /// resident set is read here, before [`EndToEnd::repeat_set_up`] builds
    /// more catalogs: what one set-up and one run need.
    pub fn end_timed(&mut self, cpu0: f64) {
        self.host_cpu_s = stats::cpu_seconds() - cpu0;
        self.peak_rss_mb = stats::peak_rss_mib();
    }

    /// Set up again (and drop the result) until `setup_s` has enough samples
    /// for a median. Untraced runs only: a traced run reports no set-up time.
    pub fn repeat_set_up<S>(&mut self, args: &RunArgs, mut f: impl FnMut() -> S) {
        let enough = |samples: &[f64]| {
            let total: f64 = samples.iter().sum();
            samples.len() >= SETUP_REPS_MAX
                || (samples.len() >= SETUP_REPS_MIN && total >= SETUP_MIN_TOTAL_S)
        };
        while !args.trace && !enough(&self.setup_s) {
            let (s, secs) = timed(&mut f);
            drop(s);
            self.setup_s.push(secs);
        }
    }

    /// `work` per second of each block that ran traced or plain.
    fn block_rates(&self, traced: bool, work: fn(&Block) -> f64) -> Vec<f64> {
        let blocks = self.blocks.iter().filter(|b| b.traced == traced);
        blocks.map(|b| work(b) / b.seconds).collect()
    }

    /// The per-layer numbers every workload takes from its timed section:
    /// simulated counts of the fixed operation set, host time per simulated
    /// event, and what the spans cost (traced against plain blocks).
    pub fn report_layers(&self, m: &mut Metrics) {
        self.fixed.report(m);
        let host_ns: f64 = self.blocks.iter().map(|b| b.seconds * 1e9).sum();
        let events: u64 = self.blocks.iter().map(|b| b.sim_events).sum();
        m.set(
            "cachesim.host_ns_per_sim_event",
            host_ns / events.max(1) as f64,
        );
        let queries = |b: &Block| b.queries as f64;
        let (plain, traced) = (
            self.block_rates(false, queries),
            self.block_rates(true, queries),
        );
        if plain.is_empty() || traced.is_empty() {
            println!("  span overhead not measured: the run held a single block");
        } else {
            let (plain, traced) = (stats::median_of(&plain), stats::median_of(&traced));
            m.set("bench.span_overhead_pct", 100.0 * (plain - traced) / plain);
        }
    }

    /// The end-to-end metrics. A `smoke` run is too short for a 95th
    /// percentile and reports its slowest query instead.
    pub fn metrics(&self, smoke: bool) -> (Metrics, Vec<(String, Summary)>) {
        // Rates are medians over blocks, so one preempted block cannot move
        // them (an untraced run has plain blocks only).
        let qps = stats::summarize(&self.block_rates(false, |b| b.queries as f64));
        let minstr = stats::summarize(&self.block_rates(false, |b| b.instructions as f64 / 1e6));
        let lat = stats::sorted(&self.latency_us);
        let thin_tail = smoke.then(|| lat[lat.len() - 1]);
        let p95 = stats::percentile(&lat, 95.0)
            .or(thin_tail)
            .unwrap_or_else(|| {
                panic!(
                    "run too short: {} timed queries leave fewer than {} beyond the 95th                      percentile; raise --seconds",
                    lat.len(),
                    stats::MIN_BEYOND
                )
            });
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", stats::median_of(&self.setup_s));
        m.set("queries_per_host_s", qps.median);
        m.set("sim_minstr_per_host_s", minstr.median);
        m.set(
            "host_cpu_ms_per_query",
            self.host_cpu_s * 1e3 / lat.len() as f64,
        );
        m.set("peak_rss_mb", self.peak_rss_mb);
        m.set("query_host_us_p50", stats::median(&lat));
        m.set("query_host_us_p95", p95);
        m.set("modeled_cycles", self.fixed.cycles as f64);
        m.set("modeled_l1i_misses", self.fixed.counters.l1i_misses as f64);
        m.set(
            "modeled_latency_ms_p50",
            stats::median_of(&self.modeled_latency_ms),
        );
        assert!(m.complete(), "an end-to-end metric was not measured");
        let details = vec![
            ("setup_s".into(), stats::summarize(&self.setup_s)),
            ("queries_per_host_s by block".into(), qps),
            ("sim_minstr_per_host_s by block".into(), minstr),
            ("query_host_us".into(), stats::summarize(&lat)),
            (
                "modeled_latency_ms".into(),
                stats::summarize(&self.modeled_latency_ms),
            ),
        ];
        (m, details)
    }
}

/// Counters and breakdown of an operation that did no simulated work (one
/// that failed before executing).
pub fn no_work(cfg: &MachineConfig) -> (PerfCounters, BreakdownReport) {
    let zero = PerfCounters::default();
    (zero, BreakdownReport::from_counters(&zero, cfg))
}

/// Result of [`drive_traced`].
pub struct Driven {
    pub rows: Vec<Tuple>,
    pub counters: PerfCounters,
    pub breakdown: BreakdownReport,
}

/// Execute `plan` the way `execute_query` does — build, context, open, pull
/// to exhaustion, close — with a span around each step.
pub fn drive_traced(
    plan: &PlanNode,
    catalog: &Catalog,
    cfg: &MachineConfig,
    spans: &mut Spans,
    request: u32,
) -> Result<Driven> {
    let mut fm = FootprintModel::new();
    let mut root = spans.around("exec.build_executor", request, || {
        build_executor(plan, catalog, &mut fm)
    })?;
    let mut ctx = spans.around("exec.context_new", request, || {
        ExecContext::new(cfg.clone())
    });
    spans.around("exec.open", request, || root.open(&mut ctx))?;
    let mut rows = Vec::new();
    spans.around("exec.drive", request, || -> Result<()> {
        while let Some(slot) = root.next(&mut ctx)? {
            ctx.check_cancel()?;
            rows.push(ctx.arena.tuple(slot).clone());
        }
        Ok(())
    })?;
    spans.around("exec.close", request, || root.close(&mut ctx))?;
    let counters = ctx.machine.snapshot();
    Ok(Driven {
        rows,
        breakdown: ctx.machine.breakdown_for(&counters),
        counters,
    })
}

/// Median of `values`, or 0 for a layer that was never entered.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median_of(values)
    }
}

/// The `exec.*` span metrics from whatever [`drive_traced`] recorded.
pub fn report_exec_spans(m: &mut Metrics, spans: &Spans) {
    let median_us = |name: &str| median_or_zero(&spans.durations_ns(name)) / 1e3;
    let totals = spans.totals();
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    m.set("exec.build_executor_us", median_us("exec.build_executor"));
    m.set("exec.context_new_us", median_us("exec.context_new"));
    m.set("exec.open_s", total_s("exec.open"));
    m.set("exec.drive_s", total_s("exec.drive"));
    m.set("exec.close_s", total_s("exec.close"));
}

/// Where the time under spans went: each span name's self time, largest
/// first, as a share of all root spans' time.
fn print_self_time(spans: &Spans) {
    let roots = spans.all().iter().filter(|s| s.parent == 0);
    let under_spans: u64 = roots.map(|s| s.end_ns - s.start_ns).sum();
    let mut rows: Vec<_> = spans.totals().into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "  self time by span, share of {:.3} s under spans:",
        under_spans as f64 / 1e9
    );
    for (name, t) in rows {
        println!(
            "    {name:<28} calls {:>9}  self {:>10.4} s  {:>6.2} %",
            t.count,
            t.self_ns as f64 / 1e9,
            100.0 * t.self_ns as f64 / under_spans.max(1) as f64
        );
    }
}

/// The `tpch.*` metrics: how long the catalog took and how many rows it has.
pub fn report_tpch(m: &mut Metrics, catalog: &Catalog, catalog_s: f64) {
    m.set("tpch.generate_catalog_s", catalog_s);
    let rows: usize = catalog
        .table_names()
        .iter()
        .map(|t| catalog.table(t).expect("listed table").rows().len())
        .sum();
    m.set("tpch.rows_generated", rows as f64);
}

/// End of a traced run: print where the time under spans went and write them
/// as `<out>/<workload>.spans.json`.
pub fn finish_trace(
    args: &RunArgs,
    workload: &str,
    spans: &Spans,
    constants: &mut Vec<(String, Json)>,
) {
    print_self_time(spans);
    let path = args.out_dir.join(format!("{workload}.spans.json"));
    std::fs::create_dir_all(&args.out_dir).expect("create the out directory");
    // The self-test reads the file back with the repository's JSON parser,
    // which is quadratic in the input's size: a smoke run keeps it small.
    let max_spans = if args.smoke {
        MAX_SPANS_IN_FILE / 25
    } else {
        MAX_SPANS_IN_FILE
    };
    std::fs::write(&path, spans.to_perfetto(workload, max_spans)).expect("write the span file");
    constants.push(("spans_file".to_string(), Json::str(path.to_string_lossy())));
}

/// Time `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
