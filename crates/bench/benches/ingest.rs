//! Trace-scale streaming ingest: sustained lines/s and bounded memory, measured honestly.
//!
//! Streams a Zipf-shaped trace (`pi_workloads::trace::zipf_trace` — ~256 distinct OLAP
//! analyses revisited Zipf-style, mixed SQL + frames, 1% garbage lines) through
//! `Session::push_stream_tagged` and records:
//!
//! * sustained throughput (lines/s) over the whole stream, plus per-decile per-line costs
//!   (min/max deciles expose whether ingest *slows down* as the session grows — it must
//!   not, that is the point of the arena-backed log);
//! * the session's `memory_footprint()` at the halfway mark and at the end.  With the
//!   shape pool fixed, the footprint must not double between the two checkpoints — growth
//!   past the warm point is per-row bookkeeping and window-bounded mined record rows (a
//!   few dozen bytes/row), never trees; the memo stays flat once the pool is warm;
//! * per-stage wall-clock (parse vs mining) from the session's own timers.
//!
//! Results go to `BENCH_ingest.json` at the workspace root.  Knobs:
//! `PI_INGEST_LINES` (default 100 000) shortens the trace for CI smoke runs;
//! `PI_INGEST_MIN_QPS` (default 100 000, `0` disables) is the sustained-throughput floor
//! asserted when the trace runs at full default length.

use pi_core::{PiOptions, Session};
use pi_graph::WindowStrategy;
use std::time::Instant;

const DEFAULT_LINES: usize = 100_000;
const SHAPES: usize = 256;
const GARBAGE_RATE: f64 = 0.01;
const SEED: u64 = 42;
const DECILES: usize = 10;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let lines = env_usize("PI_INGEST_LINES", DEFAULT_LINES).max(DECILES);
    let min_qps = env_usize("PI_INGEST_MIN_QPS", 100_000);

    let mut session = Session::new(PiOptions {
        window: WindowStrategy::sliding(16),
        ..PiOptions::default()
    });
    let mut trace = pi_workloads::trace::zipf_trace(lines, SHAPES, GARBAGE_RATE, SEED);
    let pool = trace.pool_size();

    let mut appended = 0usize;
    let mut decile_line_ns: Vec<f64> = Vec::with_capacity(DECILES);
    let mut warm_footprint = 0usize;
    let per_decile = lines / DECILES;
    let start = Instant::now();
    for decile in 0..DECILES {
        // The last decile also takes the rounding remainder.
        let take = if decile + 1 == DECILES {
            lines - per_decile * (DECILES - 1)
        } else {
            per_decile
        };
        let t = Instant::now();
        appended += session.push_stream_tagged(trace.by_ref().take(take));
        decile_line_ns.push(t.elapsed().as_nanos() as f64 / take as f64);
        if decile + 1 == DECILES / 2 {
            warm_footprint = session.memory_footprint();
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    let qps = lines as f64 / total_s;
    println!(
        "  decile ns/line: {:?}",
        decile_line_ns.iter().map(|v| *v as u64).collect::<Vec<_>>()
    );
    let footprint = session.memory_footprint();
    let timings = session.timings();

    println!(
        "ingest: {lines} lines ({pool} shape pool, {:.0}% garbage) in {total_s:.2}s = {qps:.0} lines/s",
        GARBAGE_RATE * 100.0
    );
    println!(
        "  appended {appended} rows, {} distinct trees, {} skipped ({} parse errors sampled)",
        session.distinct(),
        session.skipped(),
        session.parse_errors().entries().count(),
    );
    println!(
        "  footprint: {} KiB warm (halfway) -> {} KiB final ({:.2}x)",
        warm_footprint / 1024,
        footprint / 1024,
        footprint as f64 / warm_footprint as f64
    );
    println!(
        "  stage ms: parse {:.0}, mining {:.0}",
        timings.parse_ms, timings.mining_ms
    );

    // Bounded memory: with the shape pool fixed, the session may not double its footprint
    // across the second half of the trace — growth is per-row bookkeeping plus
    // window-bounded mined record rows, not trees (and not an unbounded memo).
    assert!(
        footprint <= 2 * warm_footprint,
        "footprint doubled: {warm_footprint} -> {footprint} bytes"
    );
    // The log really collapsed to the pool: both dialects render each analysis to the same
    // tree, so distinct trees are bounded by the pool, not 2x it.
    assert!(
        session.distinct() <= pool,
        "{} distinct trees from a {pool}-shape pool",
        session.distinct()
    );
    // Ingest must not decelerate as the log grows (arena + sliding window => flat cost).
    let first = decile_line_ns[0];
    let last = decile_line_ns[DECILES - 1];
    assert!(
        last <= 3.0 * first.max(1.0),
        "ingest slowed down: {first:.0} ns/line (decile 1) -> {last:.0} ns/line (decile {DECILES})"
    );
    if lines >= DEFAULT_LINES && min_qps > 0 {
        assert!(
            qps >= min_qps as f64,
            "sustained {qps:.0} lines/s is below the {min_qps} floor"
        );
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    let previous = bench::read_bench_json(path);
    let min_ns = decile_line_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_ns = decile_line_ns.iter().cloned().fold(0.0f64, f64::max);
    let lines_out = vec![bench::BenchLine {
        id: "ingest/per_line".to_string(),
        mean_ns: total_s * 1e9 / lines as f64,
        min_ns,
        max_ns,
        iterations: lines as u64,
    }];
    bench::write_bench_json(
        path,
        &[
            ("log", "\"zipf_trace\"".to_string()),
            ("lines", lines.to_string()),
            ("shape_pool", pool.to_string()),
            ("garbage_rate", format!("{GARBAGE_RATE}")),
            ("qps", format!("{qps:.0}")),
            ("distinct_trees", session.distinct().to_string()),
            ("skipped", session.skipped().to_string()),
            ("warm_footprint_bytes", warm_footprint.to_string()),
            ("final_footprint_bytes", footprint.to_string()),
            ("parse_ms", format!("{:.0}", timings.parse_ms)),
            ("mining_ms", format!("{:.0}", timings.mining_ms)),
        ],
        &lines_out,
    );
    bench::print_comparison("BENCH_ingest.json", &previous, &lines_out);
}
