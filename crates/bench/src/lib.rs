//! Shared helpers for the custom bench harnesses: each one times its workload with
//! `std::time::Instant` and records its lines in a `BENCH_*.json` trajectory file at the
//! workspace root.
//!
//! The paper's runtime figures (Figures 11 and 12, Appendix B) are timed by
//! `pi-experiments --exp fig11` and `--exp fig12`, and mining end to end by perfbench's
//! `mine_distinct` workload (`bash perfbench/run.sh`), not here.

/// One recorded line of a `BENCH_*.json` trajectory file.
///
/// Every harness writes through this one shape, whether a line is a mean over repetitions
/// or a percentile the serving load generator computes by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLine {
    /// Bench id, e.g. `"serving/ingest_post_p99"`.
    pub id: String,
    /// Mean (or, for percentile lines, the percentile itself), in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, ns.
    pub min_ns: f64,
    /// Slowest sample, ns.
    pub max_ns: f64,
    /// Samples behind the line.
    pub iterations: u64,
}

/// Parses a previous trajectory file (if any) into `(bench id, mean ns)` pairs, with a
/// by-hand line scan rather than a JSON dependency — these files are machine-written by
/// [`write_bench_json`], so the one-line-per-bench shape is known.
pub fn read_bench_json(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id) = line
            .split("\"id\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
        else {
            continue;
        };
        let Some(mean) = line
            .split("\"mean_ns\": ")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((id.to_string(), mean));
    }
    out
}

/// Renders a trajectory file: the `header` key/value pairs (values are raw JSON fragments,
/// e.g. `"512"` or `"\"olap_random_walk\""`) followed by one line per bench.
pub fn render_bench_json(header: &[(&str, String)], lines: &[BenchLine]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"benches\": [\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"max_ns\": {:.0}, \"iterations\": {}}}{}\n",
            line.id,
            line.mean_ns,
            line.min_ns,
            line.max_ns,
            line.iterations,
            if i + 1 == lines.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes a trajectory file via [`render_bench_json`], reporting the outcome to the
/// terminal (benches run with `--nocapture` semantics, so this is the user-visible record
/// of where the numbers went).
pub fn write_bench_json(path: &str, header: &[(&str, String)], lines: &[BenchLine]) {
    match std::fs::write(path, render_bench_json(header, lines)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Prints a one-line old-vs-new comparison per bench present in both runs, so a bench run
/// against a checked-in trajectory file reports the delta without leaving the terminal.
/// Benches are matched on id.  `file_label` names the file the old numbers came from
/// (`BENCH_serving.json`, `BENCH_persist.json`, …).
pub fn print_comparison(file_label: &str, previous: &[(String, f64)], current: &[BenchLine]) {
    if previous.is_empty() {
        return;
    }
    println!("vs previous {file_label}:");
    for line in current {
        let Some((_, old)) = previous.iter().find(|(id, _)| *id == line.id) else {
            continue;
        };
        let ratio = old / line.mean_ns;
        println!(
            "  {}: {:.3} ms -> {:.3} ms ({:.2}x)",
            line.id,
            old / 1e6,
            line.mean_ns / 1e6,
            ratio
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_round_trips_through_the_line_scanner() {
        let lines = vec![BenchLine {
            id: "serving/ingest_post".into(),
            mean_ns: 125000.0,
            min_ns: 90000.0,
            max_ns: 410000.0,
            iterations: 384,
        }];
        let header = [("tenants", "64".to_string())];
        let text = render_bench_json(&header, &lines);
        assert!(text.contains("\"tenants\": 64"));
        let dir = std::env::temp_dir().join("pi-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        std::fs::write(&path, &text).unwrap();
        let parsed = read_bench_json(path.to_str().unwrap());
        assert_eq!(parsed, vec![("serving/ingest_post".to_string(), 125000.0)]);
    }
}
