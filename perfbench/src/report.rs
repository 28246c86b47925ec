//! The result of one run: operation counts, output checks and named metrics.
//!
//! The report prints one line per metric (name, value, unit, sample count) and the run
//! context, then, as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Counts and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests, pushes, snapshots and output checks.
    pub attempted: u64,
    /// Operations that failed: non-2xx responses, I/O errors and failed checks.
    pub failed: u64,
    /// Output checks that failed, with what they found.
    pub check_failures: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
    /// Free-form context lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed as u64;
    }

    /// Counts one output check; a failing check is an operation failure too.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Records a metric (a later value under the same name replaces it).
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                name,
                unit,
                value,
                samples,
            },
        );
    }

    /// Notes the highest percentile of `samples_ms` (at most p99) that keeps ten samples
    /// beyond it.  Tails are reported, not gated: on a shared two-vCPU machine their
    /// run-to-run spread is wider than any bound a regression gate could use.
    pub fn tail_note(&mut self, what: &str, samples_ms: &[f64]) {
        if let Some(p) = crate::stats::highest_supported(&[0.99, 0.95, 0.9, 0.5], samples_ms.len())
        {
            let value = crate::stats::percentile(samples_ms, p).unwrap_or(f64::NAN);
            self.notes.push(format!(
                "{what} p{:.0} = {value:.3} ms over {} samples",
                p * 100.0,
                samples_ms.len()
            ));
        }
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Whether every output check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
            && self.attempted > 0
            && self.metrics.values().all(|m| m.value.is_finite())
    }

    /// Human-readable lines: notes, failures, then one line per metric.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.notes.clone();
        out.extend(
            self.check_failures
                .iter()
                .map(|f| format!("check failed: {f}")),
        );
        for m in self.metrics.values() {
            out.push(format!(
                "{:<28} {:>20.9} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// The result line, restricted to `names` (in that order).
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        let mut correct = self.correct();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(m) if m.unit == *unit && m.value.is_finite() => m.value,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with every digit of the `f64` (Rust's shortest round-trip form).
fn number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_count_as_failed_operations() {
        let mut report = Report::default();
        report.op(true);
        report.ops(8, 1);
        report.check(false, || "version 3 != 4".to_string());
        assert_eq!((report.attempted, report.failed), (10, 2));
        assert!((report.ok_share() - 0.8).abs() < 1e-12);
        assert!(!report.correct());
    }

    #[test]
    fn result_line_has_exactly_the_asked_metrics() {
        let mut report = Report::default();
        report.op(true);
        report.metric("latency_ms", "ms", 1.203_456_789, 10);
        report.metric("extra", "count", 3.0, 1);
        let line = report.result_json(&[("latency_ms", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
        let missing = report.result_json(&[("setup_s", "s")]);
        assert!(missing.starts_with("{\"correct\": false"));
    }
}
