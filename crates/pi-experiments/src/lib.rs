//! # pi-experiments — reproduction harness for every table and figure
//!
//! Each function in [`figures`] regenerates one table or figure from the paper's evaluation
//! (§7 and the appendices) using the synthetic stand-in workloads from `pi-workloads`, and
//! returns an [`ExperimentReport`] — a set of plain-text lines containing the measured series
//! next to the shape the paper reports, so the printed report is itself the paper-vs-measured
//! comparison.  The `experiments` binary prints them (`experiments --exp fig6a`,
//! `experiments --exp all`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;

/// The output of one reproduced experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Short identifier (`table1`, `fig6a`, …) used by the CLI.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the paper reports (the shape we are trying to match).
    pub paper_claim: String,
    /// The measured output, one line per row/series point.
    pub lines: Vec<String>,
}

impl ExperimentReport {
    /// Creates a report.
    pub fn new(id: &str, title: &str, paper_claim: &str) -> Self {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            paper_claim: paper_claim.to_string(),
            lines: Vec::new(),
        }
    }

    /// Appends one output line.
    pub fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        out.push_str(&format!("   paper: {}\n", self.paper_claim));
        for line in &self.lines {
            out.push_str(&format!("   {line}\n"));
        }
        out
    }
}

/// The registry of all experiments, in paper order.
pub fn experiment_ids() -> Vec<&'static str> {
    vec![
        "table1", "cost-fit", "fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b",
        "fig7c", "fig9", "fig10", "fig11", "fig12", "fig15",
    ]
}

/// Runs one experiment by id.
pub fn run_experiment(id: &str) -> Option<ExperimentReport> {
    Some(match id {
        "table1" => figures::table1(),
        "cost-fit" => figures::cost_fit(),
        "fig5" => figures::fig5(),
        "fig6a" => figures::fig6a(),
        "fig6b" => figures::fig6b(),
        "fig6c" => figures::fig6c(),
        "fig6d" => figures::fig6d(),
        "fig7a" => figures::fig7a(),
        "fig7b" => figures::fig7b(),
        "fig7c" => figures::fig7c(),
        "fig9" => figures::fig9(),
        "fig10" => figures::fig10(),
        "fig11" => figures::fig11(),
        "fig12" => figures::fig12(),
        "fig15" => figures::fig15(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_runs_and_produces_output() {
        // The heavyweight scaling experiments (fig11/fig12) are exercised by the benches and
        // by `--exp all`; here we smoke-test the cheap ones so `cargo test` stays fast.
        for id in ["table1", "cost-fit", "fig5", "fig6b"] {
            let report = run_experiment(id).unwrap_or_else(|| panic!("unknown id {id}"));
            assert_eq!(report.id, id);
            assert!(!report.lines.is_empty(), "{id} produced no output");
            assert!(report.render().contains("paper:"));
        }
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(run_experiment("fig99").is_none());
        assert!(experiment_ids().contains(&"fig15"));
    }
}
