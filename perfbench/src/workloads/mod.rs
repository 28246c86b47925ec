//! The three workloads.  Each takes the workload seed, measures for the given seconds,
//! checks its outputs and records its metrics in the [`Report`].

pub mod crash_restart;
pub mod mine_distinct;
pub mod serve_mixed;
pub mod serving;

use crate::report::Report;
use crate::RunArgs;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &["serve_mixed", "mine_distinct", "crash_restart"];

/// Runs the named workload (one of [`NAMES`]).
pub fn run(args: &RunArgs, report: &mut Report) -> std::io::Result<()> {
    match args.workload.as_str() {
        "serve_mixed" => serve_mixed::run(args, report),
        "mine_distinct" => mine_distinct::run(args, report),
        "crash_restart" => crash_restart::run(args, report),
        other => Err(std::io::Error::other(format!("unknown workload {other}"))),
    }
}
