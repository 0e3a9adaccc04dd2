//! The four workloads. Names are fixed: later issues cite them.

mod mix;
mod server_streams;
mod short_prepared;

use crate::harness::RunArgs;
use crate::report::RunResult;
use bufferdb::prelude::ExecModePolicy;

/// `(name, why it exists)`, in suite order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pull_thrash",
        "unbuffered pull: operator footprints overflow the modeled L1i, so the simulator's miss path and per-tuple next() dominate",
    ),
    (
        "batched_exec",
        "same queries buffered and fused: one region re-executes back to back, so the simulator's hit path and batch fill/drain dominate",
    ),
    (
        "short_prepared",
        "tens-of-microsecond prepared requests with epoch bumps: the per-query fixed path (plan cache, refine, executor build) dominates",
    ),
    (
        "server_streams",
        "concurrent queries on the threaded and the virtual server: admission, quanta, morsel pool and exchange do the work",
    ),
];

/// Run `workload`, or `None` for a name the benchmark does not have.
pub fn run(workload: &str, args: &RunArgs) -> Option<RunResult> {
    Some(match workload {
        "pull_thrash" => mix::run("pull_thrash", &[ExecModePolicy::Pull], args),
        "batched_exec" => mix::run(
            "batched_exec",
            &[ExecModePolicy::BufferedPull, ExecModePolicy::Push],
            args,
        ),
        "short_prepared" => short_prepared::run(args),
        "server_streams" => server_streams::run(args),
        _ => return None,
    })
}
