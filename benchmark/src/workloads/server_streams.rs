//! `server_streams`: the multi-query server under both of its drivers.
//!
//! The only workload where `core::server` (admission, quanta, phase
//! hand-off, the morsel pool, steals) and `exec::exchange` do the work.
//! **Half A** (host clock) keeps two queries outstanding on the threaded
//! `Server` from one generator thread, a closed loop, for the timed section.
//! **Half B** (modeled clock) sends a fixed number of jobs to the
//! `VirtualServer` as an open loop with Poisson arrivals in virtual time; its results are bit-deterministic for a seed, and latency is timed
//! from each job's scheduled arrival. The virtual server's *host* time is
//! too noisy to gate on (one OS-thread hand-off per quantum), so it is a
//! per-layer number only.

use crate::harness::{
    digest, drive_traced, finish_trace, matches_oracle, median_or_zero, report_exec_spans,
    report_tpch, timed, Block, EndToEnd, RunArgs, Totals,
};
use crate::probes;
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::spans::Spans;
use crate::stats;
use bufferdb::prelude::*;
use bufferdb::tpch;
use bufferdb::tpch::queries::{self, JoinMethod};
use bufferdb::types::Rng;
use bufferdb_bench::json::Json;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.001;
/// Exchange lanes per plan.
const LANES: usize = 2;
/// Half A: queries the generator keeps outstanding, and admission slots.
const STREAMS: usize = 2;
/// Half A: jobs per block, a multiple of the pool size so every block holds
/// the same mix; rates are medians over blocks.
const BLOCK_JOBS: u64 = 24;
/// Half B sizing. With 32 jobs the median latency fell between two sparse
/// clusters and moved 8 % (IQR over ten seeds) on data changes alone; 64
/// jobs bring that to under 3 %.
const VIRT_WORKERS: usize = 4;
const VIRT_SLOTS: usize = 4;
const VIRT_JOBS: usize = 64;
/// Half B arrival rate in jobs per virtual second at [`SCALE`]: 0.7 of the
/// 22.3 jobs/s the virtual server sustains with its four slots kept full,
/// measured once at seed 42 and frozen — never re-calibrated per run, or a
/// slower scheduler would be handed a lighter load.
const VIRT_ARRIVALS_PER_S: f64 = 15.6;
/// Half B's arrival schedule is one frozen draw of that Poisson process, not
/// redrawn per `--seed`: the median latency is decided by which jobs happen
/// to queue behind which, and redrawing the schedule per seed moved it by a
/// quarter (IQR over ten seeds) with the engine unchanged.
const VIRT_ARRIVAL_SEED: u64 = 42;
/// Half B is pumped in windows of this much virtual time.
const VIRT_WINDOW_NS: u64 = 250_000_000;

/// Eight plans of distinct operator mixes, ordered so each added stream
/// brings a different operator family (the pool `repro server` cycles).
fn pool(c: &Catalog) -> Vec<PlanNode> {
    [
        queries::paper_query1(c),
        queries::paper_query3(c, JoinMethod::HashJoin),
        queries::paper_query3(c, JoinMethod::MergeJoin),
        queries::tpch_q12(c),
        queries::tpch_q6(c),
        queries::tpch_q14(c),
        queries::paper_query2(c),
        queries::tpch_q1(c),
    ]
    .into_iter()
    .map(|p| p.expect("pool plan builds over a TPC-H catalog"))
    .collect()
}

struct Setup {
    catalog: Catalog,
    catalog_s: f64,
    logical: Vec<PlanNode>,
    /// Plans as submitted: parallelized over [`LANES`] and refined.
    physical: Vec<PlanNode>,
    /// Digest of each plan's rows under serial unbuffered pull.
    oracle: Vec<u64>,
    server: Server,
}

fn set_up(seed: u64, scale: f64, cfg: &MachineConfig) -> Setup {
    let (catalog, catalog_s) = timed(|| tpch::generate_catalog(scale, seed));
    let logical = pool(&catalog);
    let rc = RefineConfig::default();
    let physical = logical
        .iter()
        .map(|p| prepare_physical_plan(p, &catalog, &rc, LANES).expect("pool plan prepares"))
        .collect();
    let oracle = logical
        .iter()
        .map(|plan| {
            let out = execute_query(plan, &catalog, cfg, &QueryOpts::new());
            assert!(out.is_ok(), "oracle run failed: {:?}", out.error());
            digest(out.rows())
        })
        .collect();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let server = Server::new(ServerConfig::new(workers, STREAMS, cfg.clone()));
    Setup {
        catalog,
        catalog_s,
        logical,
        physical,
        oracle,
        server,
    }
}

/// What half B measured.
struct Virtual {
    totals: Totals,
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    failed: u64,
    host_s: f64,
    turns: u64,
}

/// Half B: `jobs` open-loop arrivals on a fresh virtual server. All jobs are
/// submitted up front with their arrival instants — admission follows the
/// virtual clock, so pumping in windows changes no modeled number.
fn virtual_half(
    s: &Setup,
    cfg: &MachineConfig,
    jobs: usize,
    rate_per_s: f64,
    recorder: bool,
    spans: &mut Spans,
) -> Virtual {
    let t_host = Instant::now();
    let mut vs = VirtualServer::new(ServerConfig::new(VIRT_WORKERS, VIRT_SLOTS, cfg.clone()));
    if recorder {
        vs.enable_flight_recorder();
    }
    let mut rng = Rng::seed_from_u64(VIRT_ARRIVAL_SEED);
    let mut arrival = 0u64;
    for job in 0..jobs {
        let plan = &s.physical[job % s.physical.len()];
        spans
            .around("server.virt_submit", job as u32 + 1, || {
                vs.submit(SubmitSpec::new(plan, &s.catalog).at(arrival))
            })
            .expect("virtual submit");
        arrival += stats::poisson_gap_ns(&mut rng, rate_per_s);
    }
    let mut done = Vec::new();
    let mut horizon = VIRT_WINDOW_NS;
    while horizon < arrival {
        done.extend(spans.around("server.virt_run_until", 0, || vs.run_until(horizon)));
        horizon += VIRT_WINDOW_NS;
    }
    done.extend(spans.around("server.virt_drain", 0, || vs.drain()));

    let mut v = Virtual {
        totals: Totals::default(),
        latency_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        failed: (jobs - done.len()) as u64,
        host_s: 0.0,
        turns: vs.turns(),
    };
    for c in &done {
        // Submission ids count from zero in submission order.
        let plan = c.id as usize % s.physical.len();
        v.failed += u64::from(!matches_oracle(&c.outcome, s.oracle[plan]));
        v.totals.add_stats(c.outcome.stats());
        v.latency_ms.push((c.done_ns - c.arrival_ns) as f64 / 1e6);
        v.queue_wait_ms
            .push((c.start_ns - c.arrival_ns) as f64 / 1e6);
    }
    drop(vs);
    v.host_s = t_host.elapsed().as_secs_f64();
    v
}

pub fn run(args: &RunArgs) -> RunResult {
    let workload = "server_streams";
    let cfg = MachineConfig::pentium4_like();
    let scale = args.scale(SCALE);
    // Smaller tables shorten every job, so the same load needs more arrivals.
    let virt_rate = VIRT_ARRIVALS_PER_S * SCALE / scale;
    let virt_jobs = if args.smoke { VIRT_JOBS / 4 } else { VIRT_JOBS };
    let mut e2e = EndToEnd::default();
    let s = e2e.set_up(|| set_up(args.seed, scale, &cfg));

    // ---- Half A: threaded server, closed loop, host clock ----
    let mut spans = Spans::new(args.trace);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs(args.seconds);
    let stats0 = s.server.stats();
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let mut outstanding: VecDeque<(usize, Instant, QueryTicket)> = VecDeque::new();
    let mut submitted = 0usize;
    let mut block_start = Instant::now();
    let mut work = Totals::default();
    loop {
        // A traced run alternates blocks under spans with plain blocks.
        let traced_block = args.trace && (attempted / BLOCK_JOBS).is_multiple_of(2);
        spans.set_enabled(traced_block);
        let accepting = attempted < BLOCK_JOBS || start.elapsed() < budget;
        while accepting && outstanding.len() < STREAMS {
            let plan = submitted % s.physical.len();
            submitted += 1;
            let t = Instant::now();
            let ticket = spans
                .around("server.submit", submitted as u32, || {
                    s.server
                        .submit(SubmitSpec::new(&s.physical[plan], &s.catalog))
                })
                .expect("submit to a live server");
            outstanding.push_back((plan, t, ticket));
        }
        // Replies are collected in submission order, as a client with one
        // connection per stream would see them.
        let Some((plan, t, ticket)) = outstanding.pop_front() else {
            break;
        };
        let job = (submitted - outstanding.len()) as u32;
        let out = spans.around("server.ticket_wait", job, || ticket.wait());
        e2e.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        attempted += 1;
        failed += u64::from(!matches_oracle(&out, s.oracle[plan]));
        work.add_stats(out.stats());
        if attempted % BLOCK_JOBS == 0 {
            let seconds = block_start.elapsed().as_secs_f64();
            e2e.blocks
                .push(Block::new(BLOCK_JOBS, &work, seconds, traced_block));
            block_start = Instant::now();
            work = Totals::default();
        }
    }
    let wall_a = start.elapsed().as_secs_f64();
    e2e.end_timed(cpu0);
    let jobs_a = attempted;
    spans.set_enabled(args.trace);

    // ---- Half B: virtual server, open loop, modeled clock ----
    let virt = virtual_half(&s, &cfg, virt_jobs, virt_rate, false, &mut spans);
    attempted += virt_jobs as u64;
    failed += virt.failed;
    e2e.fixed = virt.totals;
    e2e.modeled_latency_ms = virt.latency_ms.clone();
    let mut correct = failed == 0 && e2e.fixed.components_conserve();
    e2e.repeat_set_up(args, || set_up(args.seed, scale, &cfg));

    let mut constants = vec![
        ("scale_factor".to_string(), Json::F64(scale)),
        ("lanes".to_string(), Json::U64(LANES as u64)),
        ("streams".to_string(), Json::U64(STREAMS as u64)),
        ("threaded_jobs".to_string(), Json::U64(jobs_a)),
        ("virt_workers".to_string(), Json::U64(VIRT_WORKERS as u64)),
        ("virt_slots".to_string(), Json::U64(VIRT_SLOTS as u64)),
        ("virt_jobs".to_string(), Json::U64(virt_jobs as u64)),
        ("virt_arrivals_per_s".to_string(), Json::F64(virt_rate)),
    ];
    let (metrics, details) = if args.trace {
        let mut m = Metrics::new(PER_LAYER);
        report_tpch(&mut m, &s.catalog, s.catalog_s);
        e2e.report_layers(&mut m);
        let median = |name: &str| median_or_zero(&spans.durations_ns(name));
        m.set("server.submit_us_p50", median("server.submit") / 1e3);
        m.set(
            "server.ticket_wait_ms_p50",
            median("server.ticket_wait") / 1e6,
        );
        let st = s.server.stats();
        let (units, steals) = (st.units - stats0.units, st.steals - stats0.steals);
        m.set("server.units", units as f64);
        m.set("server.steals", steals as f64);
        m.set("server.steal_ratio", steals as f64 / units.max(1) as f64);
        m.set("server.cores_busy", e2e.host_cpu_s / wall_a);
        m.set("server.virt_host_s", virt.host_s);
        m.set("server.virt_turns", virt.turns as f64);
        m.set(
            "server.virt_host_us_per_turn",
            virt.host_s * 1e6 / virt.turns.max(1) as f64,
        );
        m.set(
            "server.virt_submit_us_p50",
            median("server.virt_submit") / 1e3,
        );
        m.set(
            "server.virt_run_until_ms_p50",
            median("server.virt_run_until") / 1e6,
        );
        m.set(
            "server.virt_queue_wait_ms_p50",
            median_or_zero(&virt.queue_wait_ms),
        );
        m.set(
            "server.virt_l1i_cross_misses",
            virt.totals.counters.l1i_cross_misses as f64,
        );

        // The flight recorder is an observer: same modeled results, and its
        // host cost is the difference between two half-B runs.
        let recorded = virtual_half(&s, &cfg, virt_jobs, virt_rate, true, &mut Spans::new(false));
        m.set(
            "obs.recorder_overhead_pct",
            100.0 * (recorded.host_s - virt.host_s) / virt.host_s,
        );
        correct &= recorded.totals == virt.totals && recorded.latency_ms == virt.latency_ms;

        // `exec.*` spans: one hand-driven serial pass over the submitted plans.
        for (i, plan) in s.physical.iter().enumerate() {
            let driven = drive_traced(plan, &s.catalog, &cfg, &mut spans, 0);
            correct &= driven.is_ok_and(|d| digest(&d.rows) == s.oracle[i]);
        }
        report_exec_spans(&mut m, &spans);
        let rc = RefineConfig::default();
        let serial: Vec<PlanNode> = s
            .logical
            .iter()
            .map(|p| prepare_physical_plan(p, &s.catalog, &rc, 1).expect("pool plan prepares"))
            .collect();
        correct &= probes::common_layers(
            &mut m, &s.catalog, &cfg, &s.logical, &serial, false, args.seed,
        );
        finish_trace(args, workload, &spans, &mut constants);
        let virt_latency = stats::summarize(&virt.latency_ms);
        (m, vec![("server.virt latency_ms".into(), virt_latency)])
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
