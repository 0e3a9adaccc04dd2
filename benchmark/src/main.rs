//! The repository's benchmark: one workload per invocation, measured from
//! outside the engine. See `README.md` beside this package.

mod agree;
mod harness;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use harness::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bufferdb-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
  bufferdb-benchmark agree <A> <B>      (two result files, or two directories of them)
  bufferdb-benchmark list";

fn die(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("agree") => {
            let [_, a, b] = args.as_slice() else {
                return die("agree takes exactly two paths");
            };
            match agree::agree(a.as_ref(), b.as_ref()) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(n) => {
                    eprintln!("{n} breach(es)");
                    ExitCode::FAILURE
                }
                Err(e) => die(&e),
            }
        }
        Some("list") => {
            for (name, why) in workloads::WORKLOADS {
                println!("{name:<16} {why}");
            }
            ExitCode::SUCCESS
        }
        _ => run_workload(&args),
    }
}

fn run_workload(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 42,
        seconds: 20,
        trace: false,
        smoke: false,
        out_dir: report::default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return die(&format!("{flag} needs a value"));
        };
        let bad_value = || die(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(seed) => run.seed = seed,
                Err(_) => return bad_value(),
            },
            "--seconds" => match value.parse() {
                Ok(seconds) => run.seconds = seconds,
                Err(_) => return bad_value(),
            },
            "--trace" => match value.as_str() {
                "0" => run.trace = false,
                "1" => run.trace = true,
                _ => return bad_value(),
            },
            "--out" => run.out_dir = PathBuf::from(value),
            _ => return die(&format!("unknown argument {flag}")),
        }
    }
    let Some(workload) = workload else {
        return die("no --workload given");
    };
    if run.seconds == 0 || run.seconds > 120 {
        return die("--seconds must be between 1 and 120");
    }
    let Some(result) = workloads::run(&workload, &run) else {
        return die(&format!("unknown workload {workload:?}"));
    };
    report::print_table(&result);
    report::write_result(&run.out_dir, &result, run.seed, run.seconds, run.trace);
    println!("{}", report::contract_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: the run was not correct (failed operations or a broken invariant)");
        ExitCode::FAILURE
    }
}
