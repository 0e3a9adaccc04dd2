//! `repro reuse`: the subplan reuse-cache sweep.
//!
//! Every cell replays the same zipfian workload — `QUERIES_PER_STREAM`
//! queries per client stream, each stream drawing independently from an
//! 8-class query pool with zipfian skew — against one
//! [`Database`] whose [`ReuseCache`] is bounded to the cell's byte budget.
//! The grid crosses stream count with cache budget; budget 0 is the
//! reuse-off baseline (installation is refused outright, so every query
//! recomputes from base tables).
//!
//! The flow per query is the API the cache was designed around:
//! [`Database::prepare_opts`] (which splices
//! [`bufferdb_core::plan::PlanNode::ReusedScan`] leaves over cached
//! subtrees), execute, then
//! [`bufferdb_core::prepare::PreparedQuery::harvest_reuse`] to offer the
//! query's materialization points to the cache. Hot classes therefore pay
//! one producing run and replay afterwards; cold classes keep recomputing.
//!
//! Result rows are asserted bit-identical across every cell (same
//! scale/seed ⇒ same catalog), so the sweep itself proves reuse never
//! changes answers before any physics are reported. The simulator is
//! deterministic, so the committed `BENCH_reuse.json` is bit-stable for a
//! (scale, seed) and CI drift-gates hit rate and modeled cycles saved.

use crate::json::{Json, SCHEMA_VERSION};
use bufferdb_cachesim::MachineConfig;
use bufferdb_core::plan::PlanNode;
use bufferdb_core::prepare::{Database, ReuseCache, DEFAULT_REUSE_BUDGET_BYTES};
use bufferdb_storage::Catalog;
use bufferdb_tpch::queries::{self, JoinMethod};
use bufferdb_types::Tuple;
use std::fmt::Write as _;
use std::sync::Arc;

/// Client stream counts the sweep crosses with each cache budget.
pub const STREAM_COUNTS: [usize; 3] = [1, 2, 4];

/// Cache byte budgets: reuse-off baseline, a deliberately tight budget
/// (the workload's aggregate outputs are ~100 bytes each, so 256 bytes
/// holds only the two best entries and forces benefit-per-byte eviction),
/// and the default.
pub const BUDGETS: [u64; 3] = [0, 256, DEFAULT_REUSE_BUDGET_BYTES];

/// Queries each stream issues per cell.
const QUERIES_PER_STREAM: usize = 12;

/// Zipf exponent for class popularity (1.0 = classic harmonic skew).
const ZIPF_EXPONENT: f64 = 1.1;

/// One (streams × budget) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ReuseSweepEntry {
    /// Concurrent client streams (interleaved round-robin).
    pub streams: u64,
    /// Reuse-cache byte budget (0 = reuse off).
    pub budget_bytes: u64,
    /// Queries executed.
    pub queries: u64,
    /// Subplan lookups at splice time.
    pub lookups: u64,
    /// Lookups that spliced a cached subtree.
    pub hits: u64,
    /// hits / lookups (0 when no lookups).
    pub hit_rate: f64,
    /// Entries installed by harvesting.
    pub installs: u64,
    /// Install attempts refused (over budget, not beneficial, failed run).
    pub install_failures: u64,
    /// Entries evicted in benefit-per-byte order.
    pub evictions: u64,
    /// Entries swept by stats-epoch bumps.
    pub invalidations: u64,
    /// Live entries at end of cell.
    pub entries: u64,
    /// Exact bytes of live materialized rows at end of cell.
    pub resident_bytes: u64,
    /// Modeled cycles saved: hits × (recompute − replay), incl. retired.
    pub cycles_saved: u64,
    /// Total modeled cycles over all queries in the cell.
    pub total_cycles: u64,
    /// Total simulated instructions over all queries.
    pub instructions: u64,
    /// Total simulated L1i misses over all queries.
    pub l1i_misses: u64,
    /// `total_cycles` of the budget-0 cell at the same stream count minus
    /// this cell's (saturating; 0 for the baseline itself).
    pub cycles_saved_vs_off: u64,
    /// Same delta for L1i misses.
    pub l1i_saved_vs_off: u64,
}

impl ReuseSweepEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("streams".into(), Json::U64(self.streams)),
            ("budget_bytes".into(), Json::U64(self.budget_bytes)),
            ("queries".into(), Json::U64(self.queries)),
            ("lookups".into(), Json::U64(self.lookups)),
            ("hits".into(), Json::U64(self.hits)),
            ("hit_rate".into(), Json::F64(self.hit_rate)),
            ("installs".into(), Json::U64(self.installs)),
            ("install_failures".into(), Json::U64(self.install_failures)),
            ("evictions".into(), Json::U64(self.evictions)),
            ("invalidations".into(), Json::U64(self.invalidations)),
            ("entries".into(), Json::U64(self.entries)),
            ("resident_bytes".into(), Json::U64(self.resident_bytes)),
            ("cycles_saved".into(), Json::U64(self.cycles_saved)),
            ("total_cycles".into(), Json::U64(self.total_cycles)),
            ("instructions".into(), Json::U64(self.instructions)),
            ("l1i_misses".into(), Json::U64(self.l1i_misses)),
            (
                "cycles_saved_vs_off".into(),
                Json::U64(self.cycles_saved_vs_off),
            ),
            ("l1i_saved_vs_off".into(), Json::U64(self.l1i_saved_vs_off)),
        ])
    }
}

/// The machine-readable reuse-sweep report (`BENCH_reuse.json`).
#[derive(Debug, Clone, Default)]
pub struct ReuseReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Query classes in the zipfian pool.
    pub classes: u64,
    /// Queries per stream per cell.
    pub queries_per_stream: u64,
    /// One entry per (streams × budget) cell.
    pub entries: Vec<ReuseSweepEntry>,
}

impl ReuseReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-reuse/v1", "entries");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            ("classes".into(), Json::U64(self.classes)),
            (
                "queries_per_stream".into(),
                Json::U64(self.queries_per_stream),
            ),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
        .pretty()
    }

    /// The entry for a (streams, budget) cell, if present.
    pub fn cell(&self, streams: u64, budget_bytes: u64) -> Option<&ReuseSweepEntry> {
        self.entries
            .iter()
            .find(|e| e.streams == streams && e.budget_bytes == budget_bytes)
    }
}

/// The 8 workload classes. Aggregation-heavy on purpose: aggregate roots
/// and hash-join builds are the cache's install points, so each class is a
/// realistic reuse candidate with a distinct instruction footprint.
fn class_plans(catalog: &Catalog) -> Vec<(&'static str, PlanNode)> {
    vec![
        ("paperQ1", queries::paper_query1(catalog).expect("paper q1")),
        (
            "paperQ3hj",
            queries::paper_query3(catalog, JoinMethod::HashJoin).expect("paper q3 hj"),
        ),
        (
            "paperQ3mj",
            queries::paper_query3(catalog, JoinMethod::MergeJoin).expect("paper q3 mj"),
        ),
        ("Q12", queries::tpch_q12(catalog).expect("q12")),
        ("Q6", queries::tpch_q6(catalog).expect("q6")),
        ("Q14", queries::tpch_q14(catalog).expect("q14")),
        ("paperQ2", queries::paper_query2(catalog).expect("paper q2")),
        ("Q1", queries::tpch_q1(catalog).expect("q1")),
    ]
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipfian class pick: CDF over `1/(rank+1)^s`, sampled with a per-stream
/// splitmix64 counter so every cell replays identical sequences.
fn zipf_pick(state: &mut u64, cdf: &[f64]) -> usize {
    *state = state.wrapping_add(1);
    let u = (splitmix(*state) >> 11) as f64 / (1u64 << 53) as f64;
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

fn zipf_cdf(classes: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..classes)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Order-normalized row fingerprints (multiset compare, bit-exact per row).
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    v.sort();
    v
}

fn run_cell(
    scale: f64,
    seed: u64,
    streams: usize,
    budget: u64,
    expected: &mut [Option<Vec<String>>],
) -> ReuseSweepEntry {
    // `Database` owns its catalog; regenerate identically from the seed so
    // every cell queries bit-identical tables.
    let mut db = Database::open(
        bufferdb_tpch::generate_catalog(scale, seed),
        MachineConfig::pentium4_like(),
    )
    .with_reuse_cache(Arc::new(ReuseCache::new(budget)));
    // Serial execution: the committed artifact must be host-independent.
    db.set_threads(1);
    let pool = class_plans(db.catalog());
    let cdf = zipf_cdf(pool.len());
    // The shared runner wiring: carries the process-wide `--timeout-ms`
    // and `BUFFERDB_FAULT` registry (a hand-rolled `QueryOpts::new()`
    // here would silently drop both knobs).
    let opts = crate::runner::profiled_exec_options();
    let mut rng: Vec<u64> = (0..streams)
        .map(|s| splitmix(seed ^ (s as u64).wrapping_mul(0xA076_1D64_78BD_642F)))
        .collect();

    let mut entry = ReuseSweepEntry {
        streams: streams as u64,
        budget_bytes: budget,
        queries: 0,
        lookups: 0,
        hits: 0,
        hit_rate: 0.0,
        installs: 0,
        install_failures: 0,
        evictions: 0,
        invalidations: 0,
        entries: 0,
        resident_bytes: 0,
        cycles_saved: 0,
        total_cycles: 0,
        instructions: 0,
        l1i_misses: 0,
        cycles_saved_vs_off: 0,
        l1i_saved_vs_off: 0,
    };
    // Streams interleave round-robin: stream s issues its i-th query in
    // global round i, so hot-class installs from one stream are visible to
    // the others mid-run — the sharing the cache exists for.
    for _round in 0..QUERIES_PER_STREAM {
        for stream_rng in rng.iter_mut().take(streams) {
            let class = zipf_pick(stream_rng, &cdf);
            let (name, plan) = &pool[class];
            let q = db
                .prepare_opts(plan, &opts)
                .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
            let label = format!("{name} (streams {streams}, budget {budget})");
            let (rows, stats, _profile, error) = q.execute_opts(&opts).into_parts();
            if let Some(err) = error {
                crate::runner::fail_query(&label, &stats, rows.len(), err);
            }
            let rows = normalized(&rows);
            match &expected[class] {
                Some(want) => assert_eq!(&rows, want, "{label}: reuse changed the answer"),
                None => expected[class] = Some(rows),
            }
            entry.queries += 1;
            entry.total_cycles += stats.breakdown.total_cycles;
            entry.instructions += stats.counters.instructions;
            entry.l1i_misses += stats.counters.l1i_misses;
            q.harvest_reuse(&opts);
        }
    }
    let s = db.reuse_cache().stats();
    entry.lookups = s.lookups;
    entry.hits = s.hits;
    entry.hit_rate = s.hit_rate();
    entry.installs = s.installs;
    entry.install_failures = s.install_failures;
    entry.evictions = s.evictions;
    entry.invalidations = s.invalidations;
    entry.entries = s.entries;
    entry.resident_bytes = s.bytes;
    entry.cycles_saved = s.cycles_saved;
    entry
}

/// Run the full sweep: [`STREAM_COUNTS`] × [`BUDGETS`].
pub fn reuse_metrics(scale: f64, seed: u64) -> ReuseReport {
    let mut report = ReuseReport {
        scale,
        seed,
        classes: 8,
        queries_per_stream: QUERIES_PER_STREAM as u64,
        entries: Vec::new(),
    };
    // Expected result rows per class, filled by the first cell that runs
    // each class and asserted against by every later cell.
    let mut expected: Vec<Option<Vec<String>>> = vec![None; 8];
    for &streams in &STREAM_COUNTS {
        for &budget in &BUDGETS {
            report
                .entries
                .push(run_cell(scale, seed, streams, budget, &mut expected));
        }
    }
    // Deltas against the reuse-off baseline at the same stream count.
    for i in 0..report.entries.len() {
        let (streams, cycles, l1i) = {
            let e = &report.entries[i];
            (e.streams, e.total_cycles, e.l1i_misses)
        };
        if let Some(off) = report.cell(streams, 0) {
            let (off_cycles, off_l1i) = (off.total_cycles, off.l1i_misses);
            let e = &mut report.entries[i];
            e.cycles_saved_vs_off = off_cycles.saturating_sub(cycles);
            e.l1i_saved_vs_off = off_l1i.saturating_sub(l1i);
        }
    }
    report
}

fn human_bytes(b: u64) -> String {
    match b {
        0 => "off".to_string(),
        b if b % (1024 * 1024) == 0 => format!("{}M", b / (1024 * 1024)),
        b if b % 1024 == 0 => format!("{}K", b / 1024),
        b => format!("{b}B"),
    }
}

/// Plain-text rendering of the sweep (the `repro reuse` report).
pub fn reuse_table(report: &ReuseReport) -> String {
    let mut s = format!(
        "== Subplan reuse: zipfian workload, {} classes, {} queries/stream ==\n\
         streams | budget | hit rate | installs | evict | inval | cycles saved | total cycles | L1i misses\n",
        report.classes, report.queries_per_stream
    );
    for e in &report.entries {
        let _ = writeln!(
            s,
            "{:>7} | {:>6} | {:>7.1}% | {:>8} | {:>5} | {:>5} | {:>12} | {:>12} | {}",
            e.streams,
            human_bytes(e.budget_bytes),
            100.0 * e.hit_rate,
            e.installs,
            e.evictions,
            e.invalidations,
            e.cycles_saved,
            e.total_cycles,
            e.l1i_misses,
        );
    }
    // The headline claim, computed the same way the CI gate does.
    let max_streams = *STREAM_COUNTS.iter().max().unwrap() as u64;
    if let (Some(on), Some(off)) = (
        report.cell(max_streams, DEFAULT_REUSE_BUDGET_BYTES),
        report.cell(max_streams, 0),
    ) {
        if off.total_cycles > 0 {
            let _ = writeln!(
                s,
                "default budget at {max_streams} streams: {:.1}% subplan hit rate, \
                 {:.1}% of modeled cycles eliminated vs reuse-off",
                100.0 * on.hit_rate,
                100.0 * on.cycles_saved_vs_off as f64 / off.total_cycles as f64,
            );
        }
    }
    s
}
