//! `mine_distinct`: batch mining of a log with almost no repeats, in-process and
//! single-threaded.
//!
//! Sixty-four `zipf_trace` logs whose shape pool equals their line count (1% garbage) are
//! mined in turn with `sliding(16)`: each pushed through `Session::push_stream_tagged` in
//! 64-line batches into a fresh session, then `Session::snapshot`, then rendered with
//! `interface_spec`.  Cycling over several logs makes a run's medians describe the
//! workload rather than one log's shape.  Each step is timed on the thread's CPU clock,
//! and the reference kernel runs after every mining ([`crate::speed`]).  Every line misses
//! the parse cache and every admitted pair misses the alignment memo, so parsing and
//! alignment do their most work here, and HTTP, journal and codec do none.
//!
//! The traced pass splits the same ingest into the public calls it is made of: the
//! front-end's `parse_statements_lossy`, `GraphBuilder::extend_batch` on a
//! `GraphAccumulator`, and `InteractionMapper::map_tagged`.

use crate::inputs::{sub_seed, trace_lines, Line, BATCH};
use crate::report::Report;
use crate::speed::{thread_cpu, Speed};
use crate::stats::{mean_of_medians, median, percentile};
use crate::sut::{render_spec, session_options};
use crate::trace::{self, Tracer};
use crate::RunArgs;
use pi_ast::ErrorSample;
use pi_core::{InteractionMapper, PiOptions, Session};
use pi_graph::{GraphAccumulator, GraphBuilder};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sliding window of this workload (at window 2 parsing would dominate ingest).
pub const WINDOW: usize = 16;
/// Lines in each mined log.
pub const LINES: usize = 1024;
/// Logs a run cycles over: what a log costs to map varies by a fifth from one log to the
/// next, so a run's figures average many.
pub const LOGS: usize = 64;
/// Without a recorded digest, every this-many-th log is checked against a one-push
/// reference session; checking all of them would take a third as long as the run.
const REFERENCE_STRIDE: usize = 8;
/// Session builds timed together for one `setup_s` sample (one block after each mining):
/// one build takes about as long as the clock's resolution, a block of them does not.
const SETUP_BLOCK: usize = 256;
/// Write batches a run measures at least (p99 needs a thousand).
const MIN_WRITES: usize = 1000;
/// Untraced session minings in a traced run.
const TRACED_RUN_BASELINE: usize = 3;
/// Passes of the split ingest in a traced run, each made once traced and once untraced.
const SPLIT_PASSES: usize = 3;

/// Per-seed digests of the rendered specs (FNV-1a over every log's spec, in order),
/// recorded with `perfbench --record`.
const RECORDED: &str = include_str!("../../references/mine_distinct.tsv");

/// The recorded digest for `seed`, if any.
fn recorded_digest(seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let (s, digest) = line.split_once('\t')?;
        (s.trim().parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(digest.trim(), 16).ok())
            .flatten()
    })
}

/// FNV-1a over a string's bytes.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The logs of `seed`.
pub fn logs(seed: u64) -> Vec<Vec<Line>> {
    (0..LOGS as u64)
        .map(|k| trace_lines(LINES, LINES, sub_seed(seed, k)))
        .collect()
}

/// The reference spec: the whole log in one push, one snapshot, rendered.
pub fn reference_spec(opts: &PiOptions, lines: &[Line]) -> String {
    let mut session = Session::new(opts.clone());
    session.push_stream_tagged(lines.iter().map(|(d, t)| (*d, t)));
    render_spec(&session.into_snapshot().interface)
}

/// One untraced mining of a log; times are CPU milliseconds of the mining thread.
struct Mined {
    /// Which of the seed's logs.
    log: usize,
    writes_ms: Vec<f64>,
    ingest_ms: f64,
    read_ms: f64,
    spec: String,
    applied: usize,
    footprint: usize,
}

fn cpu_ms_since(start: Duration) -> f64 {
    (thread_cpu() - start).as_secs_f64() * 1e3
}

fn mine(opts: &PiOptions, log: usize, lines: &[Line]) -> Mined {
    let mut session = Session::new(opts.clone());
    let mut writes_ms = Vec::with_capacity(lines.len() / BATCH + 1);
    for batch in lines.chunks(BATCH) {
        let start = thread_cpu();
        black_box(session.push_stream_tagged(batch.iter().map(|(d, t)| (*d, t))));
        writes_ms.push(cpu_ms_since(start));
    }
    let footprint = session.memory_footprint();
    let start = thread_cpu();
    let snapshot = session.snapshot();
    let spec = render_spec(&snapshot.interface);
    let read_ms = cpu_ms_since(start);
    Mined {
        log,
        ingest_ms: writes_ms.iter().sum(),
        writes_ms,
        read_ms,
        spec,
        applied: snapshot.version as usize + snapshot.skipped,
        footprint,
    }
}

/// CPU seconds per `Session` build, over one block of [`SETUP_BLOCK`] builds timed
/// together.
fn setup_block() -> f64 {
    let mut sessions = Vec::with_capacity(SETUP_BLOCK);
    let start = thread_cpu();
    for _ in 0..SETUP_BLOCK {
        sessions.push(Session::new(session_options(black_box(WINDOW))));
    }
    let elapsed = (thread_cpu() - start).as_secs_f64();
    black_box(&sessions);
    elapsed / SETUP_BLOCK as f64
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) -> std::io::Result<()> {
    let opts = session_options(WINDOW);
    let mut speed = Speed::new();
    let mut setup_s = Vec::new();
    let logs = logs(args.seed);
    if args.record {
        let references: Vec<String> = logs.iter().map(|l| reference_spec(&opts, l)).collect();
        println!("{}\t{:016x}", args.seed, fnv1a(&references.concat()));
        return Ok(());
    }
    let recorded = recorded_digest(args.seed);
    // Warm-up: the allocator's first growth and cold caches stay out of the timings.
    black_box(mine(&opts, 0, &logs[0]));

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut runs = Vec::new();
    // Each log's spec from its first mining; later minings must reproduce it.
    let mut specs: Vec<Option<String>> = vec![None; LOGS];
    let mut writes = 0usize;
    loop {
        let done = if args.trace {
            runs.len() >= TRACED_RUN_BASELINE
        } else {
            runs.len() >= LOGS && started.elapsed() >= budget && writes >= MIN_WRITES
        };
        if done || started.elapsed() >= crate::HARD_LIMIT {
            break;
        }
        // The traced run's untraced baseline mines the log its traced pass mines.
        let k = if args.trace { 0 } else { runs.len() % LOGS };
        let mined = mine(&opts, k, &logs[k]);
        speed.sample();
        setup_s.push(setup_block());
        report.ops(mined.writes_ms.len() + 1, 0);
        report.check(mined.applied == LINES, || {
            format!(
                "log {k}: version + skipped = {} != {LINES} lines",
                mined.applied
            )
        });
        match &specs[k] {
            Some(first) => report.check(mined.spec == *first, || {
                format!("log {k}: spec changed between two minings")
            }),
            None => specs[k] = Some(mined.spec.clone()),
        }
        writes += mined.writes_ms.len();
        runs.push(mined);
    }
    // Untimed: the specs against the recorded digest, or else every
    // [`REFERENCE_STRIDE`]-th one against a one-push reference.
    let mined_specs: Vec<&String> = specs.iter().flatten().collect();
    if let (Some(recorded), LOGS) = (recorded, mined_specs.len()) {
        let digest = fnv1a(&mined_specs.iter().map(|s| s.as_str()).collect::<String>());
        report.check(digest == recorded, || {
            format!("spec digest {digest:016x} != recorded {recorded:016x}")
        });
    } else {
        for (k, spec) in specs.iter().enumerate().step_by(REFERENCE_STRIDE) {
            if let Some(spec) = spec {
                report.check(*spec == reference_spec(&opts, &logs[k]), || {
                    format!("log {k}: streamed spec differs from the one-push reference")
                });
            }
        }
    }
    // Gated timings: CPU times at the reference speed.  Per log, the median over the
    // run's minings of it; then the mean over the logs, so each log weighs the same.
    let scale = speed.factor();
    report.notes.push(speed.note());
    let per_log = |f: fn(&Mined) -> f64| {
        let mut groups = vec![Vec::new(); LOGS];
        for m in &runs {
            groups[m.log].push(f(m));
        }
        mean_of_medians(&groups).map_or(f64::NAN, |mean| mean * scale)
    };
    let n = runs.len();
    let nan = f64::NAN;
    report.metric(
        "setup_s",
        "s",
        median(&setup_s).map_or(f64::NAN, |m| m * scale),
        setup_s.len() * SETUP_BLOCK,
    );
    report.metric(
        "peak_rss_mb",
        "MiB",
        crate::sut::peak_rss_mib(std::process::id())?,
        1,
    );
    report.metric("read_ms", "ms", per_log(|m| m.read_ms), n);
    report.metric(
        "interfaces_s",
        "s",
        per_log(|m| (m.ingest_ms + m.read_ms) / 1e3),
        n,
    );
    report.metric(
        "ingest_sps",
        "stmt/s",
        LINES as f64 / per_log(|m| m.ingest_ms / 1e3),
        n,
    );
    let write_ms: Vec<f64> = runs.iter().flat_map(|m| m.writes_ms.clone()).collect();
    report.notes.push(format!(
        "write (one 64-line push, CPU ms as measured) p50 = {:.3} ms over {} samples",
        percentile(&write_ms, 0.5).unwrap_or(nan),
        write_ms.len()
    ));
    report.tail_note("write", &write_ms);
    if args.trace {
        let footprint = runs.last().map_or(0, |m| m.footprint);
        report.metric(
            "session.footprint_mb",
            "MiB",
            footprint as f64 / 1048576.0,
            1,
        );
        let session_ms = median(
            &runs
                .iter()
                .map(|m| m.ingest_ms + m.read_ms)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(nan);
        let first = specs[0].as_deref().unwrap_or_default();
        let split_ms = traced(args, report, &opts, &logs[0], first)?;
        report.notes.push(format!(
            "log to interface: traced split path {split_ms:.3} ms, untraced session {session_ms:.3} CPU ms"
        ));
    }
    Ok(())
}

/// One pass of the split ingest.
struct Split {
    spans: Vec<trace::Span>,
    /// Each request's time, taken outside the tracer: one per batch, then the mapping.
    ops: Vec<Duration>,
    took: Duration,
    batches: usize,
    spec: String,
    acc: GraphAccumulator,
    widgets: usize,
    skipped: usize,
}

/// The session's ingest split into the public calls it is made of, with a span around
/// each when `tracer` is on; the pass times itself outside the tracer.
fn split_pass(mut tracer: Tracer, opts: &PiOptions, lines: &[Line]) -> Split {
    let frontends = pi_core::standard_frontends();
    let builder = GraphBuilder::new()
        .window(opts.window)
        .policy(opts.policy)
        .parallel(opts.parallel)
        .threads(opts.threads)
        .steal_seed(opts.steal_seed)
        .memoize(opts.memoize);
    let mapper = InteractionMapper::new(opts.library.clone()).with_options(opts.mapper);
    let mut acc = GraphAccumulator::new();
    let mut errors = ErrorSample::new(ErrorSample::DEFAULT_CAPACITY);
    let mut dialects = Vec::with_capacity(lines.len());
    let mut nodes = Vec::with_capacity(BATCH);
    let mut skipped = 0usize;

    let batches = lines.chunks(BATCH).count();
    let mut ops = Vec::with_capacity(batches + 1);
    let start = Instant::now();
    for (i, batch) in lines.chunks(BATCH).enumerate() {
        let request = i as u64 + 1;
        let asked = Instant::now();
        let span = tracer.begin("request", request);
        tracer.leaf("parse", request, || {
            for (dialect, text) in batch {
                let before = nodes.len();
                skipped += match frontends.get(*dialect) {
                    Some(frontend) => {
                        frontend.parse_statements_lossy(text, &mut nodes, &mut errors)
                    }
                    None => 1,
                };
                dialects.extend(std::iter::repeat_n(*dialect, nodes.len() - before));
            }
        });
        tracer.leaf("graph", request, || {
            builder.extend_batch(&mut acc, nodes.drain(..));
        });
        tracer.end(span);
        ops.push(asked.elapsed());
    }
    let request = batches as u64 + 1;
    let asked = Instant::now();
    let span = tracer.begin("request", request);
    let graph = tracer.leaf("graph", request, || acc.to_graph());
    let interface = tracer.leaf("mapper", request, || mapper.map_tagged(&graph, &dialects));
    let spec = tracer.leaf("ui", request, || render_spec(&interface));
    tracer.end(span);
    ops.push(asked.elapsed());
    let took = start.elapsed();
    Split {
        spans: tracer.finish(),
        ops,
        took,
        batches,
        spec,
        acc,
        widgets: interface.widgets().len(),
        skipped,
    }
}

/// The traced pass: the same ingest, split into its public calls, with a span around
/// each.  The split path runs [`SPLIT_PASSES`] times traced and as often untraced,
/// alternating; the traced pass of median time is reported, and each of its requests is
/// paired with the median time of the same request untraced.  Returns the reported
/// pass's time in milliseconds.
fn traced(
    args: &RunArgs,
    report: &mut Report,
    opts: &PiOptions,
    lines: &[Line],
    reference: &str,
) -> std::io::Result<f64> {
    let mut untraced: Vec<Vec<Duration>> = Vec::with_capacity(SPLIT_PASSES);
    let mut passes = Vec::with_capacity(SPLIT_PASSES);
    for _ in 0..SPLIT_PASSES {
        for tracer in [Tracer::off(), Tracer::new(Instant::now())] {
            let pass = split_pass(tracer, opts, lines);
            report.check(pass.spec == reference, || {
                "split-path spec differs from the session's".to_string()
            });
            if pass.spans.is_empty() {
                untraced.push(pass.ops);
            } else {
                passes.push(pass);
            }
        }
    }
    passes.sort_by_key(|p| p.took);
    let pass = passes.swap_remove(SPLIT_PASSES / 2);
    let untraced_ops: Vec<Duration> = (0..pass.ops.len())
        .map(|i| {
            let times: Vec<f64> = untraced.iter().map(|ops| ops[i].as_secs_f64()).collect();
            Duration::from_secs_f64(median(&times).unwrap_or(0.0))
        })
        .collect();

    let spans = pass.spans;
    let acc = pass.acc;
    let batches = pass.batches;
    let stats = acc.stats();
    let pairs = opts.window.pair_count(acc.len());
    let totals = trace::layer_totals(&spans);
    let self_ms = |layer: &str| totals.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    report.metric("parse.ms", "ms", self_ms("parse"), batches);
    report.metric("parse.statements", "count", acc.len() as f64, 1);
    report.metric("parse.skipped", "count", pass.skipped as f64, 1);
    report.metric("graph.mining_ms", "ms", self_ms("graph"), batches + 1);
    report.metric(
        "graph.alignments",
        "count",
        acc.memo().alignments() as f64,
        1,
    );
    report.metric(
        "graph.memo_hit_share",
        "ratio",
        1.0 - acc.memo().alignments() as f64 / pairs.max(1) as f64,
        1,
    );
    report.metric("graph.distinct_trees", "count", acc.distinct() as f64, 1);
    report.metric("graph.edges", "count", stats.edges as f64, 1);
    report.metric("graph.diff_records", "count", stats.diff_records as f64, 1);
    report.metric("mapper.ms", "ms", self_ms("mapper"), 1);
    report.metric("mapper.maps", "count", 1.0, 1);
    report.metric("mapper.records_in", "count", stats.diff_records as f64, 1);
    report.metric("mapper.widgets", "count", pass.widgets as f64, 1);
    report.metric("ui.render_ms", "ms", self_ms("ui"), 1);
    report.metric("ui.bytes", "bytes", pass.spec.len() as f64, 1);
    crate::finish_trace(args, report, &spans, &pass.ops, &untraced_ops)?;
    Ok(pass.took.as_secs_f64() * 1e3)
}
