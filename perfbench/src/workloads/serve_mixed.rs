//! `serve_mixed`: writes beside reads on the serving path.
//!
//! A separate server process (default mining options, default queue bound, journal on,
//! 2 acceptors, 2 pool workers) takes 16 tenants' `zipf_trace`s (256-shape pool, 1%
//! garbage) as 64-statement `POST /logs` batches over one writer connection, while one
//! reader connection fetches `GET /interfaces/{user}/{thread}` round-robin over tenants
//! already written.  Both run open loop at fixed rates; latency is timed from each
//! request's due time.  Latencies grow through the window with the tenants' graphs, so
//! their p50 is taken over the whole window.  A 30-second window journals about
//! 10 MB, so the journal's 8 MiB trigger fires one checkpoint late in the window.  The
//! ingest rate is the server's own: statements applied per second of its parse and
//! mining time, read from `/stats`.  After the window come [`SWEEPS`] rounds of one
//! batch to every tenant, a drain, and a timed fetch of every tenant's interface,
//! checking that it covers every statement the tenant posted.
//!
//! `BENCHMARK.json` does not gate this workload; run it with `--seconds 30`.  Its ack
//! latency follows the disk's sync latency, which on the shared two-vCPU virtual machine
//! it was written on moved by half between runs of the same seed minutes apart.

use super::serving::{
    drain, gauge_metrics, launch_timed, record_request_layers, spill_bytes, MapTally, PATIENCE,
};
use crate::client;
use crate::inputs::{round_robin_batches, serving_logs, Batch, BATCH, TENANTS};
use crate::loadgen::{open_loop, RealClock, Sent};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::sut::pool_options;
use crate::trace::{self, Span, Tracer};
use crate::{handlers, RunArgs};
use pi_server::client::Connection;
use pi_server::{PoolGauge, SessionPool};
use pi_ui::Json;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `POST /logs` batches per second on the writer connection.
pub const POST_RATE: u32 = 50;
/// `GET /interfaces/…` requests per second on the reader connection.
pub const GET_RATE: u32 = 5;
/// Rounds after the window that each fetch every tenant's interface.
pub const SWEEPS: usize = 3;
/// How often the traced passes sample the pool's backlog.
const BACKLOG_SAMPLE: Duration = Duration::from_millis(10);
/// The open-loop schedule of one run.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Writes, one per `1 / POST_RATE` seconds from the start.
    pub posts: usize,
    /// Reads, one per `1 / GET_RATE` seconds from `read_offset`.
    pub gets: usize,
    /// When the first read falls due: after every tenant's first write.
    pub read_offset: Duration,
}

impl Schedule {
    /// The schedule filling `seconds`.
    pub fn new(seconds: u64) -> Schedule {
        let post_interval = Duration::from_secs(1) / POST_RATE;
        let read_offset = post_interval * (TENANTS as u32 + 1);
        let window = Duration::from_secs(seconds);
        Schedule {
            posts: (seconds * u64::from(POST_RATE)) as usize,
            gets: ((window - read_offset.min(window)).as_secs_f64() * f64::from(GET_RATE)).ceil()
                as usize,
            read_offset,
        }
    }

    fn post_interval(&self) -> Duration {
        Duration::from_secs(1) / POST_RATE
    }

    fn get_interval(&self) -> Duration {
        Duration::from_secs(1) / GET_RATE
    }
}

/// The tenant read `j` targets: round-robin over the `written` tenants whose first
/// write has been acknowledged.
pub fn read_target(j: usize, written: usize) -> usize {
    j % written.clamp(1, TENANTS)
}

/// Statements each tenant was sent in `batches`.
pub fn per_tenant_statements(batches: &[Batch]) -> Vec<usize> {
    let mut sent = vec![0; TENANTS];
    for batch in batches {
        sent[batch.tenant] += batch.item.queries.len();
    }
    sent
}

/// Waits until the writer has acknowledged a write to at least one tenant.
fn wait_written(acked: &AtomicUsize) -> usize {
    loop {
        let written = acked.load(Ordering::Acquire).min(TENANTS);
        if written > 0 {
            return written;
        }
        std::thread::yield_now();
    }
}

/// The untraced pass over HTTP: returns the write and read timings.
fn drive_http(
    addr: std::net::SocketAddr,
    batches: &[Batch],
    schedule: Schedule,
) -> std::io::Result<(Vec<Sent>, Vec<Sent>)> {
    let acked = AtomicUsize::new(0);
    let mut writer_conn = Connection::open(addr)?;
    let mut reader_conn = Connection::open(addr)?;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut clock = RealClock::new(start);
            open_loop(
                &mut clock,
                Duration::ZERO,
                schedule.post_interval(),
                schedule.posts,
                |i, _| {
                    let batch = &batches[i];
                    let ok = client::post(&mut writer_conn, &batch.body, batch.item.queries.len());
                    acked.fetch_max(i + 1, Ordering::AcqRel);
                    ok
                },
            )
        });
        let reader = scope.spawn(|| {
            let mut clock = RealClock::new(start);
            open_loop(
                &mut clock,
                schedule.read_offset,
                schedule.get_interval(),
                schedule.gets,
                |j, _| {
                    let tenant = read_target(j, wait_written(&acked));
                    client::get_interface(&mut reader_conn, tenant).is_some()
                },
            )
        });
        let posts = writer.join().expect("writer thread panicked");
        let gets = reader.join().expect("reader thread panicked");
        Ok((posts, gets))
    })
}

/// Fetches every tenant's interface once over `conn`, checking that it covers every
/// statement sent; returns how long the fetches took.
fn sweep(conn: &mut Connection, sent: &[usize], report: &mut Report) -> Duration {
    let start = Instant::now();
    let replies: Vec<_> = (0..TENANTS)
        .map(|t| client::get_interface(conn, t))
        .collect();
    let took = start.elapsed();
    for (tenant, reply) in replies.iter().enumerate() {
        report.op(reply.is_some());
        let covered = reply.as_ref().map(|r| r.version + r.skipped);
        report.check(covered == Some(sent[tenant]), || {
            format!(
                "tenant {tenant}: version + skipped = {covered:?}, posted {}",
                sent[tenant]
            )
        });
    }
    took
}

/// Statements applied (mined or skipped) and milliseconds of parse plus mining time, as
/// the server's `/stats` reports them.
fn applied(stats: &Json) -> (f64, f64) {
    let n = |path: &[&str]| client::number(stats, path);
    (
        n(&["queries"]) + n(&["skipped"]),
        n(&["timings_ms", "parse"]) + n(&["timings_ms", "mining"]),
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) -> std::io::Result<()> {
    let schedule = Schedule::new(args.seconds);
    let lines = (schedule.posts.div_ceil(TENANTS) + SWEEPS) * BATCH;
    let all = round_robin_batches(&serving_logs(args.seed, 1, lines));
    let (batches, rest) = all.split_at(schedule.posts);
    // Round-robin order puts one batch of every tenant in any TENANTS consecutive ones.
    let rounds: Vec<&[Batch]> = rest.chunks(TENANTS).take(SWEEPS).collect();
    let mut sent = per_tenant_statements(batches);

    let (setup, server, _dir) = launch_timed(args, "serve", None)?;
    let (applied_before, apply_ms_before) = applied(&client::stats(server.addr)?);
    let (posts, gets) = drive_http(server.addr, batches, schedule)?;
    client::wait_drained(server.addr, PATIENCE)?;
    let stats = client::stats(server.addr)?;
    let (applied_after, apply_ms_after) = applied(&stats);
    let checkpoints = client::number(&stats, &["durability", "checkpoints"]);
    report.notes.push(format!(
        "{checkpoints} checkpoint(s) by the end of the window"
    ));
    let mut conn = Connection::open(server.addr)?;
    let mut sweeps = Vec::with_capacity(SWEEPS);
    for round in &rounds {
        for batch in *round {
            let statements = batch.item.queries.len();
            report.op(client::post(&mut conn, &batch.body, statements));
            sent[batch.tenant] += statements;
        }
        client::wait_drained(server.addr, PATIENCE)?;
        sweeps.push(sweep(&mut conn, &sent, report).as_secs_f64());
    }
    drop(conn);
    let peak = server.peak_rss_mib()?;
    server.kill()?;

    let failed = |s: &[Sent]| s.iter().filter(|x| !x.ok).count();
    report.ops(posts.len(), failed(&posts));
    report.ops(gets.len(), failed(&gets));
    let write_ms: Vec<f64> = posts.iter().map(Sent::latency_ms).collect();
    let read_ms: Vec<f64> = gets.iter().map(Sent::latency_ms).collect();
    let nan = f64::NAN;
    report.metric("setup_s", "s", median(&setup).unwrap_or(nan), setup.len());
    report.metric("peak_rss_mb", "MiB", peak, 1);
    report.notes.push(format!(
        "write p50 = {:.3} ms over {} samples",
        percentile(&write_ms, 0.5).unwrap_or(nan),
        write_ms.len()
    ));
    report.metric(
        "read_ms",
        "ms",
        percentile(&read_ms, 0.5).unwrap_or(nan),
        read_ms.len(),
    );
    report.metric(
        "interfaces_s",
        "s",
        median(&sweeps).unwrap_or(nan),
        SWEEPS * TENANTS,
    );
    let applied_n = applied_after - applied_before;
    report.metric(
        "ingest_sps",
        "stmt/s",
        applied_n / ((apply_ms_after - apply_ms_before) / 1e3),
        applied_n as usize,
    );
    report.notes.push(format!("sweeps {sweeps:.3?} s"));
    report.tail_note("write", &write_ms);
    report.tail_note("read", &read_ms);
    if args.trace {
        let all: Vec<&Sent> = posts.iter().chain(&gets).collect();
        let lag: Vec<f64> = all.iter().map(|s| s.lag_ms()).collect();
        report.metric(
            "loadgen.lag_p99_ms",
            "ms",
            percentile(&lag, 0.99).unwrap_or(nan),
            lag.len(),
        );
        report.metric("http.requests", "count", all.len() as f64, 1);
        report.metric(
            "http.failed",
            "count",
            (failed(&posts) + failed(&gets)) as f64,
            1,
        );
        let round_trip: Vec<f64> = posts.iter().map(Sent::round_trip_ms).collect();
        traced(args, report, batches, &rounds, schedule, &round_trip)?;
    }
    Ok(())
}

/// One in-process pass: what it produced and how long each operation took.
struct InProcess {
    spans: Vec<Span>,
    /// Every operation's own timing: writes and reads of the window, then the rounds'.
    ops: Vec<Duration>,
    /// Requests of the window.
    requests: usize,
    /// Reads, in the window and in the rounds.
    reads: usize,
    failed: usize,
    backlog_max: usize,
    tally: MapTally,
    ui_bytes: usize,
    /// The last round's snapshots: widgets, edges and diff records, summed.
    widgets: usize,
    edges: usize,
    records: usize,
    gauge: PoolGauge,
    snapshot_bytes: u64,
}

/// The same traffic and schedule as the HTTP pass, in-process through the functions
/// the route handlers call, with every span recorded when `traced` (a fresh pool in
/// `dir` either way).
fn in_process(
    report: &mut Report,
    dir: &std::path::Path,
    traced: bool,
    batches: &[Batch],
    rounds: &[&[Batch]],
    schedule: Schedule,
) -> std::io::Result<InProcess> {
    let pool = SessionPool::new(pool_options(dir, None));
    pool.wait_ready();
    let acked = AtomicUsize::new(0);
    let backlog_max = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let tracer = || {
        if traced {
            Tracer::new(start)
        } else {
            Tracer::off()
        }
    };
    let ((writer_spans, posts), (reader_spans, gets, mut tally, mut ui_bytes)) =
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    backlog_max.fetch_max(pool.gauge().queued, Ordering::Relaxed);
                    std::thread::sleep(BACKLOG_SAMPLE);
                }
            });
            let writer = scope.spawn(|| {
                let mut tracer = tracer();
                let posts = open_loop(
                    &mut RealClock::new(start),
                    Duration::ZERO,
                    schedule.post_interval(),
                    schedule.posts,
                    |i, _| {
                        let batch = &batches[i];
                        let ok = handlers::post(
                            &mut tracer,
                            i as u64 + 1,
                            &pool,
                            &batch.body,
                            batch.item.queries.len(),
                        );
                        acked.fetch_max(i + 1, Ordering::AcqRel);
                        ok
                    },
                );
                (tracer.finish(), posts)
            });
            let reader = scope.spawn(|| {
                let mut tracer = tracer();
                let mut tally = MapTally::default();
                let mut ui_bytes = 0usize;
                let gets = open_loop(
                    &mut RealClock::new(start),
                    schedule.read_offset,
                    schedule.get_interval(),
                    schedule.gets,
                    |j, _| {
                        let tenant = read_target(j, wait_written(&acked));
                        let request = (schedule.posts + j) as u64 + 1;
                        match handlers::get(&mut tracer, request, &pool, tenant) {
                            Some((snapshot, body)) => {
                                ui_bytes += body.len();
                                let records = snapshot.graph_stats.diff_records;
                                tally.read(tenant, snapshot.version, records);
                                true
                            }
                            None => false,
                        }
                    },
                );
                (tracer.finish(), gets, tally, ui_bytes)
            });
            let out = (
                writer.join().expect("in-process writer panicked"),
                reader.join().expect("in-process reader panicked"),
            );
            stop.store(true, Ordering::Release);
            out
        });
    let mut ops: Vec<Duration> = posts.iter().chain(&gets).map(|s| s.done - s.sent).collect();
    let failed = posts.iter().chain(&gets).filter(|s| !s.ok).count();
    let requests = posts.len() + gets.len();
    let reads = gets.len() + rounds.len() * TENANTS;

    // The rounds after the window, as the HTTP pass makes them.
    drain(&pool);
    let mut tracer = tracer();
    let mut sent = per_tenant_statements(batches);
    let mut request = requests as u64;
    let (mut widgets, mut edges, mut records) = (0, 0, 0);
    for round in rounds {
        for batch in *round {
            request += 1;
            let statements = batch.item.queries.len();
            let asked = Instant::now();
            let ok = handlers::post(&mut tracer, request, &pool, &batch.body, statements);
            ops.push(asked.elapsed());
            report.op(ok);
            sent[batch.tenant] += statements;
        }
        drain(&pool);
        (widgets, edges, records) = (0, 0, 0);
        for (tenant, &expected) in sent.iter().enumerate() {
            request += 1;
            let asked = Instant::now();
            let reply = handlers::get(&mut tracer, request, &pool, tenant);
            ops.push(asked.elapsed());
            let covered = reply.as_ref().map(|(s, _)| s.version as usize + s.skipped);
            report.check(covered == Some(expected), || {
                format!("in-process tenant {tenant}: covered {covered:?}, posted {expected}")
            });
            if let Some((snapshot, body)) = reply {
                ui_bytes += body.len();
                tally.read(tenant, snapshot.version, snapshot.graph_stats.diff_records);
                widgets += snapshot.interface.widgets().len();
                edges += snapshot.graph_stats.edges;
                records += snapshot.graph_stats.diff_records;
            }
        }
    }
    let gauge = pool.gauge();
    pool.close();
    drop(pool);
    Ok(InProcess {
        spans: trace::merge(vec![writer_spans, reader_spans, tracer.finish()]),
        ops,
        requests,
        reads,
        failed,
        backlog_max: backlog_max.load(Ordering::Relaxed),
        tally,
        ui_bytes,
        widgets,
        edges,
        records,
        gauge,
        snapshot_bytes: spill_bytes(dir)?,
    })
}

/// The traced pass: the same traffic and schedule, in-process through the functions the
/// route handlers call, once untraced and once traced; the per-layer metrics come from
/// the traced one.
fn traced(
    args: &RunArgs,
    report: &mut Report,
    batches: &[Batch],
    rounds: &[&[Batch]],
    schedule: Schedule,
    untraced_post_ms: &[f64],
) -> std::io::Result<()> {
    let untraced = in_process(
        report,
        &args.work_dir.join("serve-untraced"),
        false,
        batches,
        rounds,
        schedule,
    )?;
    let dir = args.work_dir.join("serve-traced");
    let pass = in_process(report, &dir, true, batches, rounds, schedule)?;
    for (what, p) in [("untraced", &untraced), ("traced", &pass)] {
        report.check(p.failed == 0, || {
            format!("{} {what} in-process requests failed", p.failed)
        });
    }
    let spans = pass.spans;
    record_request_layers(report, &spans, untraced_post_ms);
    gauge_metrics(report, &pass.gauge);
    report.metric(
        "pool.backlog_max",
        "count",
        pass.backlog_max as f64,
        pass.requests,
    );
    report.metric("graph.edges", "count", pass.edges as f64, TENANTS);
    report.metric("graph.diff_records", "count", pass.records as f64, TENANTS);
    report.metric("mapper.maps", "count", pass.tally.maps as f64, 1);
    report.metric(
        "mapper.records_in",
        "count",
        pass.tally.records_in as f64,
        1,
    );
    report.metric("mapper.widgets", "count", pass.widgets as f64, TENANTS);
    let posted = batches.iter().chain(rounds.iter().flat_map(|r| r.iter()));
    let (bodies, bytes) = posted.fold((0, 0), |(n, b), batch| (n + 1, b + batch.body.len()));
    report.metric("wire.bytes", "bytes", bytes as f64, bodies);
    report.metric(
        "codec.snapshot_bytes",
        "bytes",
        pass.snapshot_bytes as f64,
        1,
    );
    report.metric("ui.bytes", "bytes", pass.ui_bytes as f64, pass.reads);
    crate::finish_trace(args, report, &spans, &pass.ops, &untraced.ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_only_target_written_tenants() {
        assert_eq!(read_target(5, 1), 0);
        assert_eq!(read_target(5, 3), 2);
        assert_eq!(read_target(17, TENANTS), 1);
        assert!((0..100).all(|j| read_target(j, 4) < 4));
    }

    #[test]
    fn schedule_fills_the_window() {
        let schedule = Schedule::new(30);
        assert_eq!(schedule.posts, 30 * POST_RATE as usize);
        // Reads start after every tenant's first write is due and end inside the window.
        assert!(schedule.read_offset > Duration::from_secs(1) / POST_RATE * TENANTS as u32);
        let last = schedule.read_offset + schedule.get_interval() * (schedule.gets as u32 - 1);
        assert!(last < Duration::from_secs(30));
    }
}
