//! `repro` — regenerate any table or figure from the paper, and the
//! committed `BENCH_*.json` reports. `repro --help` prints the experiments
//! and options (`USAGE` below).
//!
//! The paper runs at TPC-H scale factor 0.2 on real hardware; the default
//! here is 0.02 because every tuple pays for cache simulation. Shapes (who
//! wins, by what factor, where crossovers fall) are scale-invariant.

use bufferdb_bench::experiments as exp;
use bufferdb_bench::experiments::ExperimentCtx;
use bufferdb_tpch::queries::JoinMethod;

const USAGE: &str = "usage: repro [--sf <scale>] [--seed <n>] [--threads <n>] [--timeout-ms <n>]
             [--regimes <n>] <experiment>...
experiments:
  table1    machine specification
  table2    operator instruction footprints
  fig4      Query 1 breakdown (unbuffered)
  fig9      Query 2 original vs buffered (no benefit expected)
  fig10     Query 1 original vs buffered
  fig11     cardinality sweep
  fig12     buffer-size sweep (elapsed)
  fig13     buffer-size sweep (breakdown)
  fig15     Query 3, nested-loop join
  fig16     Query 3, hash join
  fig17     Query 3, merge join
  table3    overall improvement, three join methods
  table4    CPI, three join methods
  table5    TPC-H Q1/Q6/Q12/Q14 original vs refined
  calibrate cardinality-threshold calibration
  ablation  predictor / placement / cache-size / copy-buffer / cross-arch
  blockcmp  buffering vs block-oriented processing (related work)
  misscurve i-cache miss rate vs capacity, interleaved vs batched
  modes     executor showdown: pull vs buffered pull vs push at
            1/2/4 workers on the TPC-H mix, write BENCH_modes.json
  prepared  plan-cache hits/misses + adaptive refinement,
            write BENCH_plancache.json
  analyze   EXPLAIN ANALYZE of Query 1, unbuffered vs buffered
  analyze <file.json>  validate a bench report's schema/schema_version and
            summarize it (rejects unknown versions, exit code 2)
  analyze <new.json> <committed.json>  gate a fresh BENCH_modes.json against
            the committed one: exact on every cell, push beats pull at one
            worker (exit code 1)
  trace <query>  flight-recorder trace of one query (Q1 Q6 Q12 Q14
            paperQ1 paperQ2), write Perfetto JSON to TRACE_<query>.json
  trace --server  whole-server flight recorder: admission waits, query
            runs and quantum turns across a multi-stream run, write
            Perfetto JSON to TRACE_server.json
  heatmap   per-segment L1i eviction attribution over the multi-stream
            server workload, write BENCH_heatmap.json (exactly conserved
            against machine totals)
  systables install every sys.* introspection table, run a workload, and
            query each through an ordinary plan (asserts zero modeled cost)
  traffic   open-loop traffic run with scripted regime switches, write
            BENCH_traffic.json
  server    multi-query interference sweep: {1,2,4,8} concurrent streams ×
            {none,static,adaptive} buffer policy on the shared scheduler,
            write BENCH_server.json
  reuse     subplan reuse-cache sweep: zipfian workload over {1,2,4} client
            streams × {off,tight,default} cache budgets, write BENCH_reuse.json
  all       every experiment above except analyze <file.json>, trace,
            heatmap, systables, traffic, server and reuse
options:
  --threads <n>     trace: worker budget of the traced query (default: all
                    cores)
  --timeout-ms <n>  cancel any single query after <n> ms (exit code 3)
  --regimes <n>     traffic: number of scripted regimes, 1-4 (default 4:
                    steady, shift, burst, chaos)
environment:
  BUFFERDB_FAULT    comma-separated fault specs `site:mode:trigger` injected
                    into every query (sites: seqscan.next indexscan.next
                    exchange.morsel hashjoin.build buffer.fill; modes:
                    error panic; triggers: at_row(N) every(N) prob(SEED,P))";

fn main() {
    let mut scale = 0.02_f64;
    let mut seed = 42_u64;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut regimes = 4_usize;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sf" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--sf needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
            }
            "--timeout-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--timeout-ms needs an integer"));
                bufferdb_bench::runner::set_query_timeout_ms(ms);
            }
            "--regimes" => {
                regimes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| (1..=4).contains(&n))
                    .unwrap_or_else(|| die("--regimes needs an integer in 1..=4"));
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        die("no experiment given");
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "table1",
            "table2",
            "fig4",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig15",
            "fig16",
            "fig17",
            "table3",
            "table4",
            "table5",
            "calibrate",
            "ablation",
            "blockcmp",
            "misscurve",
            "modes",
            "prepared",
            "analyze",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    // Generated by the first experiment that needs it: `analyze <file>`,
    // the sweeps that build their own catalogs and a mistyped experiment
    // name do not wait for one.
    let ctx = std::cell::LazyCell::new(|| {
        eprintln!("generating TPC-H catalog at scale factor {scale} (seed {seed})…");
        let ctx = ExperimentCtx::new(scale, seed);
        eprintln!(
            "lineitem rows: {}\n",
            ctx.catalog.table("lineitem").expect("lineitem").row_count()
        );
        ctx
    });

    let mut i = 0;
    while i < experiments.len() {
        let e = &experiments[i];
        i += 1;
        let report = match e.as_str() {
            "table1" => exp::table1(&ctx),
            "table2" => exp::table2(),
            "fig4" => exp::fig4(&ctx),
            "fig9" => exp::fig9(&ctx),
            "fig10" => exp::fig10(&ctx),
            "fig11" => exp::fig11(&ctx),
            "fig12" => exp::fig12(&ctx),
            "fig13" => exp::fig13(&ctx),
            "fig15" => exp::join_figure(&ctx, JoinMethod::NestLoop),
            "fig16" => exp::join_figure(&ctx, JoinMethod::HashJoin),
            "fig17" => exp::join_figure(&ctx, JoinMethod::MergeJoin),
            "table3" => exp::table3(&ctx),
            "table4" => exp::table4(&ctx),
            "table5" => exp::table5(&ctx),
            "calibrate" => exp::calibrate(&ctx),
            "ablation" => exp::ablation(&ctx),
            "blockcmp" => exp::blockcmp(&ctx),
            "misscurve" => exp::misscurve(&ctx),
            "modes" => write_modes(&ctx, seed),
            "prepared" => write_prepared(&ctx, seed),
            "analyze" => {
                // `analyze <file.json>` validates a report, `analyze
                // <new.json> <committed.json>` gates a modes report; bare
                // `analyze` keeps the EXPLAIN ANALYZE behavior.
                let json = |at: usize| experiments.get(at).filter(|a| a.ends_with(".json"));
                match (json(i).cloned(), json(i + 1).cloned()) {
                    (Some(new), Some(committed)) => {
                        i += 2;
                        compare_modes(&new, &committed)
                    }
                    (Some(path), None) => {
                        i += 1;
                        analyze_report(&path)
                    }
                    _ => analyze_query1(&ctx),
                }
            }
            "traffic" => write_traffic(scale, seed, regimes),
            "server" => write_server(scale, seed),
            "reuse" => write_reuse(scale, seed),
            "heatmap" => write_heatmap(scale, seed),
            "systables" => bufferdb_bench::sys_tables_demo(scale, seed),
            "trace" => {
                let query = experiments
                    .get(i)
                    .unwrap_or_else(|| die("trace needs a query name (e.g. `trace Q12`)"));
                i += 1;
                if query == "--server" {
                    write_server_trace(scale, seed)
                } else {
                    write_trace(&ctx, seed, threads, query)
                }
            }
            other => die(&format!("unknown experiment {other:?}")),
        };
        println!("{report}");
    }
}

/// Run the executor-mode showdown and write `BENCH_modes.json` (uploaded
/// as a CI artifact and drift-gated against the committed copy). Rows are
/// asserted bit-identical across modes before any physics are reported.
fn write_modes(ctx: &ExperimentCtx, seed: u64) -> String {
    let report = exp::modes_metrics(ctx, seed);
    let path = "BENCH_modes.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "{}wrote {path} ({} cells)\n",
        exp::modes_table(&report),
        report.entries.len()
    )
}

/// Run the prepared-query study and write `BENCH_plancache.json`
/// (uploaded as a CI artifact). Runs serial — one worker — so the
/// committed artifact is host-independent and deterministic for a seed.
fn write_prepared(ctx: &ExperimentCtx, seed: u64) -> String {
    let report = exp::prepared_metrics(ctx, seed);
    let path = "BENCH_plancache.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "{}wrote {path} ({} queries)\n",
        exp::prepared_table(&report),
        report.queries.len()
    )
}

/// Trace one query under the flight recorder and write the Perfetto JSON
/// next to the current directory (load it at `ui.perfetto.dev` or
/// `chrome://tracing`).
fn write_trace(ctx: &ExperimentCtx, seed: u64, threads: usize, query: &str) -> String {
    const KNOWN: [&str; 6] = ["Q1", "Q6", "Q12", "Q14", "paperQ1", "paperQ2"];
    if !KNOWN.contains(&query) {
        die(&format!(
            "unknown trace query {query:?} (expected one of {})",
            KNOWN.join(" ")
        ));
    }
    let (json, summary) = exp::trace_query(ctx, seed, threads, query);
    let path = format!("TRACE_{query}.json");
    if let Err(e) = std::fs::write(&path, &json) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "== Flight recorder: {query} at {threads} workers ==\n{summary}wrote {path} ({} bytes)\n",
        json.len()
    )
}

/// Run the open-loop traffic observatory and write `BENCH_traffic.json`.
fn write_traffic(scale: f64, seed: u64, regimes: usize) -> String {
    use bufferdb_bench::traffic::{run_traffic, TrafficConfig};
    // Fail malformed BUFFERDB_FAULT with exit 2 (the CLI contract) before
    // the run starts; run_traffic itself re-arms it per regime.
    if let Err(msg) = bufferdb_core::fault::FaultRegistry::from_env() {
        die(&format!("invalid BUFFERDB_FAULT: {msg}"));
    }
    let run = run_traffic(&TrafficConfig::scripted(scale, seed, regimes));
    let path = "BENCH_traffic.json";
    if let Err(e) = std::fs::write(path, run.report.to_json()) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "{}wrote {path} ({} regimes)\n",
        run.table,
        run.report.regimes.len()
    )
}

/// Run the multi-query interference sweep on the deterministic virtual
/// scheduler and write `BENCH_server.json` (uploaded as a CI artifact;
/// bit-stable for a given scale/seed/stream list).
fn write_server(scale: f64, seed: u64) -> String {
    let report = bufferdb_bench::server_metrics(scale, seed);
    let path = "BENCH_server.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "{}wrote {path} ({} cells)\n",
        bufferdb_bench::server_table(&report),
        report.entries.len()
    )
}

/// Run the subplan reuse-cache sweep and write `BENCH_reuse.json`
/// (uploaded as a CI artifact and drift-gated against the committed copy).
/// Runs serial and on the deterministic simulator, so the artifact is
/// bit-stable for a (scale, seed); rows are asserted bit-identical across
/// every cell before any physics are reported.
fn write_reuse(scale: f64, seed: u64) -> String {
    let report = bufferdb_bench::reuse_metrics(scale, seed);
    let path = "BENCH_reuse.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "{}wrote {path} ({} cells)\n",
        bufferdb_bench::reuse_table(&report),
        report.entries.len()
    )
}

/// Run the server workload with the per-segment heat ledger on and write
/// `BENCH_heatmap.json` (uploaded as a CI artifact and drift-gated against
/// the committed copy). The serializer itself asserts exact conservation
/// against the machine-counter totals.
fn write_heatmap(scale: f64, seed: u64) -> String {
    let report = bufferdb_bench::heatmap_metrics(scale, seed);
    let path = "BENCH_heatmap.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "{}wrote {path} ({} segments)\n",
        bufferdb_bench::heatmap_table(&report),
        report.segments.len()
    )
}

/// Run the server workload under the always-on flight recorder and write
/// the whole-run Perfetto timeline to `TRACE_server.json`.
fn write_server_trace(scale: f64, seed: u64) -> String {
    let (json, summary) = bufferdb_bench::server_trace(scale, seed);
    let path = "TRACE_server.json";
    if let Err(e) = std::fs::write(path, &json) {
        die(&format!("cannot write {path}: {e}"));
    }
    format!(
        "== Server flight recorder ==\n{summary}wrote {path} ({} bytes)\n",
        json.len()
    )
}

/// Validate a bench report ([`bufferdb_bench::check_report`]) and print a
/// short summary. Unknown schemas or versions are a hard error (exit 2)
/// rather than a misparse.
fn analyze_report(path: &str) -> String {
    match bufferdb_bench::check_report(&read(path)) {
        Ok(summary) => format!("== Report check ==\n{path}: {summary}\n"),
        Err(e) => die(&format!("{path}: {e}")),
    }
}

/// Gate a fresh `BENCH_modes.json` against the committed one
/// ([`bufferdb_bench::compare_modes`]); any violated rule exits 1 with
/// every violation listed.
fn compare_modes(new: &str, committed: &str) -> String {
    match bufferdb_bench::compare_modes(&read(new), &read(committed)) {
        Ok(summary) => format!("== Modes gate ==\n{new} vs {committed}: {summary}\n"),
        Err(e) => {
            eprintln!("error: {new} vs {committed}:\n{e}");
            std::process::exit(1)
        }
    }
}

/// EXPLAIN ANALYZE of the paper's Query 1, before and after refinement:
/// per-operator attribution of the L1i misses buffering removes.
fn analyze_query1(ctx: &ExperimentCtx) -> String {
    use bufferdb_core::plan::analyze::explain_analyze;
    use bufferdb_core::refine::{refine_plan, RefineConfig};
    let plan = bufferdb_tpch::queries::paper_query1(&ctx.catalog).expect("query 1");
    let refined = refine_plan(&plan, &ctx.catalog, &RefineConfig::default());
    let orig = explain_analyze(&plan, &ctx.catalog, &ctx.machine).expect("analyze original");
    let buf = explain_analyze(&refined, &ctx.catalog, &ctx.machine).expect("analyze refined");
    format!("== EXPLAIN ANALYZE: Query 1 original ==\n{orig}\n== EXPLAIN ANALYZE: Query 1 refined ==\n{buf}")
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2)
}
