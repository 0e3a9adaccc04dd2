//! `repro server`: the cross-query instruction-cache interference sweep.
//!
//! Every cell executes the same fixed job list — `TOTAL_JOBS` (24) queries
//! cycling an 8-plan pool of distinct operator mixes — on one
//! [`bufferdb_core::server::virt::VirtualServer`]; the only variable is
//! how many closed-loop client streams drain the list concurrently.
//! Admission slots equal the stream count, so S jobs' drives time-share
//! the session core (and their phases the morsel pool); misses a query
//! takes on lines evicted by another query's code land in its
//! `l1i_cross_misses` bucket. With one stream the queries run back to
//! back — the footprint is displaced once per *query*; with S streams it
//! is displaced once per *quantum*. The sweep crosses stream count with
//! buffer policy:
//!
//! - `none`     — parallelized plans, no buffer operators;
//! - `static`   — plans refined once by the paper's §6 algorithm;
//! - `adaptive` — per-plan feedback loop (the plan-cache model: clients
//!   running the same query share one plan and its feedback state): each
//!   completion's profile runs one [`adapt_plan`] pass, so the refiner
//!   *observes the concurrency* — interference inflates observed group
//!   miss rates, which tightens the effective L1i budget and splits
//!   groups the static pass kept whole.
//!
//! The virtual scheduler is deterministic, so the committed
//! `BENCH_server.json` is bit-stable for a (scale, seed) and CI can gate on
//! the adapted interference level directly.

use crate::json::{Json, SCHEMA_VERSION};
use bufferdb_cachesim::MachineConfig;
use bufferdb_core::parallel::parallelize_plan;
use bufferdb_core::plan::PlanNode;
use bufferdb_core::prepare::{adapt_plan, AdaptState};
use bufferdb_core::refine::{refine_plan, RefineConfig};
use bufferdb_core::server::virt::{CompletedQuery, VirtualServer};
use bufferdb_core::server::{ServerConfig, SubmitSpec};
use bufferdb_core::session::QueryOpts;
use bufferdb_storage::Catalog;
use bufferdb_tpch::queries::{self, JoinMethod};
use std::fmt::Write as _;

/// Stream counts the sweep crosses with each buffer policy.
pub const STREAM_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Pool workers. Wider than the largest stream count so admitted queries
/// always share free workers (that sharing is the interference channel).
pub(crate) const WORKERS: usize = 10;

/// Exchange lanes per query plan.
const LANES: usize = 2;

/// Total queries per sweep cell, split evenly across the streams (24 is
/// divisible by every entry of [`STREAM_COUNTS`]).
const TOTAL_JOBS: usize = 24;

/// Buffer policy of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Parallelized plans with no buffer operators.
    None,
    /// Statically refined plans (§6, one pass at prepare time).
    Static,
    /// Static start plus a per-stream profile-feedback adaptation loop.
    Adaptive,
}

impl Policy {
    /// All policies, in report order.
    pub const ALL: [Policy; 3] = [Policy::None, Policy::Static, Policy::Adaptive];

    /// Stable name used in the report and CI gates.
    pub fn name(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Static => "static",
            Policy::Adaptive => "adaptive",
        }
    }
}

/// One (stream count × policy) cell of the sweep.
#[derive(Debug, Clone, Default)]
pub struct ServerSweepEntry {
    /// Concurrent closed-loop streams (= admission slots).
    pub streams: u64,
    /// Buffer policy name.
    pub policy: String,
    /// Queries completed.
    pub queries: u64,
    /// Queries that failed (must be 0; kept for the analyzer).
    pub failed: u64,
    /// Morsel units executed through the shared scheduler.
    pub units: u64,
    /// Units claimed outside the claimant's preferred shard.
    pub steals: u64,
    /// Total simulated instructions over all queries.
    pub instructions: u64,
    /// Total simulated L1i misses over all queries.
    pub l1i_misses: u64,
    /// Misses on lines another query's code evicted (⊆ `l1i_misses`).
    pub l1i_cross_misses: u64,
    /// Conserved modeled CPU seconds over all queries.
    pub modeled_cpu_seconds: f64,
    /// Mean per-query latency (arrival → completion) in virtual ms.
    pub mean_latency_ms: f64,
    /// Virtual time at which the last query completed, ms.
    pub makespan_ms: f64,
}

impl ServerSweepEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("streams".into(), Json::U64(self.streams)),
            ("policy".into(), Json::str(&self.policy)),
            ("queries".into(), Json::U64(self.queries)),
            ("failed".into(), Json::U64(self.failed)),
            ("units".into(), Json::U64(self.units)),
            ("steals".into(), Json::U64(self.steals)),
            ("instructions".into(), Json::U64(self.instructions)),
            ("l1i_misses".into(), Json::U64(self.l1i_misses)),
            ("l1i_cross_misses".into(), Json::U64(self.l1i_cross_misses)),
            (
                "modeled_cpu_seconds".into(),
                Json::F64(self.modeled_cpu_seconds),
            ),
            ("mean_latency_ms".into(), Json::F64(self.mean_latency_ms)),
            ("makespan_ms".into(), Json::F64(self.makespan_ms)),
        ])
    }
}

/// The machine-readable interference-sweep report (`BENCH_server.json`).
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// TPC-H scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Pool workers every cell ran with.
    pub workers: u64,
    /// Exchange lanes per query plan.
    pub lanes: u64,
    /// Total queries per cell.
    pub jobs: u64,
    /// One entry per (stream count × policy).
    pub entries: Vec<ServerSweepEntry>,
}

impl ServerReport {
    /// The report's `schema` string and the top-level array its payload
    /// lives under.
    pub const SCHEMA: (&'static str, &'static str) = ("bufferdb-server/v1", "entries");

    /// Render the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::str(Self::SCHEMA.0)),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("scale_factor".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            ("workers".into(), Json::U64(self.workers)),
            ("lanes".into(), Json::U64(self.lanes)),
            ("jobs".into(), Json::U64(self.jobs)),
            (
                Self::SCHEMA.1.into(),
                Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
        .pretty()
    }

    /// The entry for a (streams, policy) cell, if present.
    pub fn cell(&self, streams: u64, policy: &str) -> Option<&ServerSweepEntry> {
        self.entries
            .iter()
            .find(|e| e.streams == streams && e.policy == policy)
    }
}

/// The 8 distinct workload queries, parallelized to [`LANES`] exchange
/// lanes and cycled round-robin through a job list; every added client
/// stream picks up a *different* code footprint mix. `repro heatmap`,
/// `repro trace --server` and `repro systables` run the same mix.
pub(crate) fn stream_plans(catalog: &Catalog) -> Vec<PlanNode> {
    // Ordered for operator-mix diversity: interference is displacement of
    // *distinct* code, so each added stream should bring a different
    // operator family (aggregate → hash join → sort/merge → semi-join …)
    // rather than re-warming the shared text the earlier streams already
    // keep resident.
    [
        queries::paper_query1(catalog).expect("paper q1"),
        queries::paper_query3(catalog, JoinMethod::HashJoin).expect("paper q3 hj"),
        queries::paper_query3(catalog, JoinMethod::MergeJoin).expect("paper q3 mj"),
        queries::tpch_q12(catalog).expect("q12"),
        queries::tpch_q6(catalog).expect("q6"),
        queries::tpch_q14(catalog).expect("q14"),
        queries::paper_query2(catalog).expect("paper q2"),
        queries::tpch_q1(catalog).expect("q1"),
    ]
    .iter()
    .map(|p| parallelize_plan(p, catalog, LANES).expect("parallelize stream plan"))
    .collect()
}

/// Drive `total` jobs through `streams` closed-loop clients on `vs`. Client `i` runs jobs `i, i + S, i + 2S, …`,
/// each submitted at its predecessor's completion instant; job `j` runs
/// `plans[j % plans.len()]` as it stands when submitted. `on_done(job,
/// ran, completion, plan)` sees every completion in virtual-time order,
/// with the plan it ran, before the client's next job is submitted, and
/// may replace `plan`, the one that query's later jobs run. Panics on a
/// failed query.
pub(crate) fn closed_loop(
    vs: &mut VirtualServer,
    catalog: &Catalog,
    streams: usize,
    total: usize,
    opts: &QueryOpts,
    plans: &mut [PlanNode],
    mut on_done: impl FnMut(usize, &PlanNode, &CompletedQuery, &mut PlanNode),
) {
    let n = plans.len();
    // (job, plan it runs), indexed by submission id.
    let mut submitted: Vec<(usize, PlanNode)> = Vec::new();
    let submit = |vs: &mut VirtualServer, plan: &PlanNode, at: u64| {
        let spec = SubmitSpec::new(plan, catalog).at(at).opts(opts.clone());
        vs.submit(spec).expect("submit");
        plan.clone()
    };
    for job in 0..streams.min(total) {
        submitted.push((job, submit(vs, &plans[job % n], 0)));
    }
    loop {
        let done = vs.drain();
        if done.is_empty() {
            break;
        }
        for c in done {
            let (job, ran) = &submitted[c.id as usize];
            let job = *job;
            if let Some(e) = c.outcome.error() {
                panic!("job {job} (submission {}): {e}", c.id);
            }
            on_done(job, ran, &c, &mut plans[job % n]);
            let next = job + streams;
            if next < total {
                submitted.push((next, submit(vs, &plans[next % n], c.done_ns)));
            }
        }
    }
}

fn run_cell(
    catalog: &Catalog,
    machine: &MachineConfig,
    refine_cfg: &RefineConfig,
    streams: usize,
    policy: Policy,
) -> ServerSweepEntry {
    // The sweep models a plan cache: all clients running the same query
    // share one physical plan and one adaptive-feedback state.
    let bases = stream_plans(catalog);
    let mut physical: Vec<PlanNode> = bases
        .iter()
        .map(|base| match policy {
            Policy::None => base.clone(),
            Policy::Static | Policy::Adaptive => refine_plan(base, catalog, refine_cfg),
        })
        .collect();
    let mut adapt: Vec<AdaptState> = bases.iter().map(|_| AdaptState::default()).collect();

    let mut entry = ServerSweepEntry {
        streams: streams as u64,
        policy: policy.name().to_string(),
        ..ServerSweepEntry::default()
    };
    let mut latency_ns_sum = 0u128;
    // Every cell executes the *same* job list, so the only variable across
    // cells is how many clients drain it concurrently: comparable total
    // work, varying interleaving depth.
    let mut vs = VirtualServer::new(ServerConfig::new(WORKERS, streams, machine.clone()));
    let opts = QueryOpts::new().profile(true);
    closed_loop(
        &mut vs,
        catalog,
        streams,
        TOTAL_JOBS,
        &opts,
        &mut physical,
        |job, ran, c, plan| {
            let counters = c.outcome.stats().counters;
            let profile = c.outcome.profile().expect("profiled run");
            assert_eq!(
                profile.sum_op_counters(),
                counters,
                "job {job} (submission {}): per-operator counters must conserve",
                c.id
            );
            if policy == Policy::Adaptive {
                let i = job % bases.len();
                let decision =
                    adapt_plan(&bases[i], ran, profile, catalog, refine_cfg, &mut adapt[i]);
                if let Some(new_plan) = decision.new_plan {
                    *plan = new_plan;
                }
            }
            entry.queries += 1;
            entry.instructions += counters.instructions;
            entry.l1i_misses += counters.l1i_misses;
            entry.l1i_cross_misses += counters.l1i_cross_misses;
            entry.modeled_cpu_seconds += c.outcome.stats().breakdown.seconds();
            latency_ns_sum += (c.done_ns - c.arrival_ns) as u128;
            entry.makespan_ms = entry.makespan_ms.max(c.done_ns as f64 / 1e6);
        },
    );
    let stats = vs.stats();
    entry.failed = stats.failed;
    entry.units = stats.units;
    entry.steals = stats.steals;
    entry.mean_latency_ms = if entry.queries > 0 {
        latency_ns_sum as f64 / entry.queries as f64 / 1e6
    } else {
        0.0
    };
    entry
}

/// Run the full sweep: [`STREAM_COUNTS`] × {none, static, adaptive}.
pub fn server_metrics(scale: f64, seed: u64) -> ServerReport {
    let catalog = bufferdb_tpch::generate_catalog(scale, seed);
    let machine = MachineConfig::pentium4_like();
    let refine_cfg = RefineConfig::default();
    let mut report = ServerReport {
        scale,
        seed,
        workers: WORKERS as u64,
        lanes: LANES as u64,
        jobs: TOTAL_JOBS as u64,
        entries: Vec::new(),
    };
    for &s in &STREAM_COUNTS {
        for policy in Policy::ALL {
            report
                .entries
                .push(run_cell(&catalog, &machine, &refine_cfg, s, policy));
        }
    }
    report
}

/// Plain-text rendering of the sweep (the `repro server` report).
pub fn server_table(report: &ServerReport) -> String {
    let mut s = format!(
        "== Server: cross-query L1i interference, {} workers, {} jobs/cell ==\n\
         streams | policy   | cross L1i | total L1i | cross% | cpu (s) | latency (ms) | units | steals\n",
        report.workers, report.jobs
    );
    for e in &report.entries {
        let pct = if e.l1i_misses > 0 {
            100.0 * e.l1i_cross_misses as f64 / e.l1i_misses as f64
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "{:>7} | {:<8} | {:>9} | {:>9} | {:>5.1}% | {:>7.3} | {:>12.3} | {:>5} | {}",
            e.streams,
            e.policy,
            e.l1i_cross_misses,
            e.l1i_misses,
            pct,
            e.modeled_cpu_seconds,
            e.mean_latency_ms,
            e.units,
            e.steals,
        );
    }
    // The two headline claims, computed the same way the CI gate does.
    for &streams in STREAM_COUNTS.iter().filter(|&&n| n >= 4) {
        if let (Some(none), Some(adapt)) = (
            report.cell(streams as u64, "none"),
            report.cell(streams as u64, "adaptive"),
        ) {
            if none.l1i_cross_misses > 0 {
                let recovered = 100.0
                    * (none.l1i_cross_misses.saturating_sub(adapt.l1i_cross_misses)) as f64
                    / none.l1i_cross_misses as f64;
                let _ = writeln!(
                    s,
                    "adaptive recovery at {streams} streams: {recovered:.1}% of the \
                     no-buffer interference"
                );
            }
        }
    }
    s
}
