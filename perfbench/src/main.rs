//! Runs one workload of the end-to-end benchmark; see the library docs and
//! `perfbench/README.md`.
//!
//! ```sh
//! perfbench --workload serve_mixed --seed 1 --seconds 20 --trace 0
//! ```

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::report::Report;
use perfbench::{workloads, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]";

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--record" => record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    let out_dir = PathBuf::from("perfbench").join("out");
    Ok(RunArgs {
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        record,
        workload,
    })
}

/// The git commit of the checkout, or `git unknown` outside one.
fn source_id() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("git unknown".to_string(), |out| {
            format!("git {}", String::from_utf8_lossy(&out.stdout).trim())
        })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(1);
    }
    let mut report = Report::default();
    let outcome = workloads::run(&args, &mut report);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = outcome {
        eprintln!("{} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.record {
        return ExitCode::SUCCESS;
    }
    let ok_share = report.ok_share();
    report.metric("ok_share", "ratio", ok_share, report.attempted as usize);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        source_id()
    );
    println!(
        "# attempted={} failed={} ok_share={ok_share}",
        report.attempted, report.failed
    );
    for line in report.lines() {
        println!("# {line}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.result_json(names));
    ExitCode::SUCCESS
}
