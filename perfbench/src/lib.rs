//! The repository's end-to-end benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload
//! through the public entry points (the HTTP server and `Session`), checks its outputs,
//! and prints every metric with its unit and sample count.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and `metrics`, holding the
//! end-to-end metrics of an untraced run (`--trace 0`) or the per-layer metrics of a
//! traced one (`--trace 1`).  `BENCHMARK.json` at the repository root lists both.

pub mod client;
pub mod handlers;
pub mod inputs;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod speed;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// A run stops starting new work past this point, so it ends well inside three minutes
/// however slow the machine.
pub const HARD_LIMIT: Duration = Duration::from_secs(120);

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Print the `mine_distinct` spec digest for the references table.
    pub record: bool,
    /// Scratch directory for server state, removed after the run.
    pub work_dir: PathBuf,
    /// Directory the traced run writes its spans to.
    pub out_dir: PathBuf,
}

/// Share of a traced pass's own timing its spans may leave uncovered: the clock reads
/// and bookkeeping between an operation's timing and the spans inside it.
pub const TRACE_GAP: f64 = 0.02;

/// Cost of one span (a `begin`/`end` pair around no work), median of many, in ns.
pub fn span_cost_ns() -> f64 {
    let mut tracer = trace::Tracer::new(std::time::Instant::now());
    let mut costs = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = std::time::Instant::now();
        for _ in 0..256 {
            tracer.leaf("calibrate", 0, || ());
        }
        costs.push(start.elapsed().as_nanos() as f64 / 256.0);
    }
    stats::median(&costs).unwrap_or(0.0)
}

/// Whether span self times summing to `self_ns` account for the `timed_ns` a pass
/// measured with its own clock: never more, and at most [`TRACE_GAP`] less.
pub fn spans_cover(self_ns: u64, timed_ns: u64) -> bool {
    self_ns <= timed_ns && self_ns as f64 >= (1.0 - TRACE_GAP) * timed_ns as f64
}

/// The tracing overhead of `n` operations from their paired times: `n` times the median
/// of each operation's traced time minus its untraced time, in milliseconds.  The median
/// keeps the difference from resting on the few operations whose work varies most
/// between two passes (a read that re-maps in one pass and not the other).
pub fn overhead_ms(traced: &[Duration], untraced: &[Duration]) -> f64 {
    let diffs: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| (t.as_secs_f64() - u.as_secs_f64()) * 1e3)
        .collect();
    stats::median(&diffs).unwrap_or(0.0) * diffs.len() as f64
}

/// Shared ending of every traced pass.  `traced` holds the time of each operation of the
/// pass (a request, or a call made outside any request), taken by the pass's own clock
/// reads outside the tracer; `untraced` the same operations' times in an identical pass
/// with the tracer off.  Checks that the span self times add up to the traced time,
/// states the tracing overhead as traced minus untraced, writes the spans out and
/// zero-fills the per-layer metrics the workload does not reach.
pub fn finish_trace(
    args: &RunArgs,
    report: &mut Report,
    spans: &[trace::Span],
    traced: &[Duration],
    untraced: &[Duration],
) -> std::io::Result<()> {
    let self_ns: u64 = trace::self_times(spans).iter().sum();
    let timed_ns: u64 = traced.iter().map(|d| d.as_nanos() as u64).sum();
    let untimed_ns: u64 = untraced.iter().map(|d| d.as_nanos() as u64).sum();
    report.check(spans_cover(self_ns, timed_ns), || {
        format!("span self times sum to {self_ns} ns, the pass timed {timed_ns} ns")
    });
    report.check(traced.len() == untraced.len(), || {
        format!(
            "{} traced operations, {} untraced",
            traced.len(),
            untraced.len()
        )
    });
    let ms = |ns: u64| ns as f64 / 1e6;
    report.metric("trace.e2e_ms", "ms", ms(timed_ns), traced.len());
    report.metric("trace.self_sum_ms", "ms", ms(self_ns), spans.len());
    report.metric(
        "trace.overhead_ms",
        "ms",
        overhead_ms(traced, untraced),
        traced.len(),
    );
    let span_ns = span_cost_ns();
    report.notes.push(format!(
        "summed operation time: traced {:.3} ms, untraced {:.3} ms over {} operations; \
         {} spans at {span_ns:.0} ns each would cost {:.3} ms",
        ms(timed_ns),
        ms(untimed_ns),
        traced.len(),
        spans.len(),
        spans.len() as f64 * span_ns / 1e6
    ));
    for (layer, total) in trace::layer_totals(spans) {
        report.notes.push(format!(
            "self time {layer:<14} {:>12.3} ms over {} spans",
            total.self_ns as f64 / 1e6,
            total.count
        ));
    }
    let path = args
        .out_dir
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    trace::write_jsonl(&path, spans)?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    for (name, unit) in metrics::PER_LAYER {
        if report.get(name).is_none() {
            report.metric(name, unit, 0.0, 0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_median_paired_difference_per_operation() {
        let ms = Duration::from_millis;
        // Four operations, each 1 ms slower traced, except one whose work varied by 90 ms.
        let traced = [ms(11), ms(21), ms(31), ms(100)];
        let untraced = [ms(10), ms(20), ms(30), ms(10)];
        assert!((overhead_ms(&traced, &untraced) - 4.0).abs() < 1e-9);
        assert_eq!(overhead_ms(&[], &[]), 0.0);
    }

    #[test]
    fn spans_cover_the_timed_work_within_the_gap() {
        assert!(spans_cover(990, 1000));
        assert!(spans_cover(1000, 1000));
        // Work outside every span, or spans outside the timed operations, fail.
        assert!(!spans_cover(970, 1000));
        assert!(!spans_cover(1001, 1000));
    }
}
