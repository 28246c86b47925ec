//! `crash_restart`: the durable lifecycle.
//!
//! Each cycle launches a fresh journaled server (the `serve_mixed` options, except that
//! its per-tenant queues hold [`DEEP_QUEUE`] statements, not the default 256) and ships 16
//! tenants' `zipf_trace`s (one of [`INPUT_SETS`] sets, in turn) to it as 64-statement
//! `POST /logs` batches from a closed-loop shipper on two connections that waits for each
//! ack; the write phase ends when the apply backlog drains.  The server takes its
//! checkpoint, then every tenant sends an un-checkpointed tail.  The server is killed with
//! SIGKILL, a new server process opens the same directory, and the benchmark waits for
//! `/readyz` and fetches every tenant's interface.  This is the only workload that runs
//! restore, hydrate and journal replay, and the only one that measures write-only ingest
//! while the mapper is idle.
//!
//! The gated figures are the server's CPU time, read from its process CPU clock, for the
//! write phase (to the drained backlog and the checkpoint), for each first read after the
//! restart, and for the restarted process from launch to its last interface.  Waiting on
//! the disk is not in them: `fdatasync` latency on the benchmark's virtual disk moved
//! between 0.12 and 0.6 ms from one hour to the next, so the acknowledgement latency it
//! sets is reported, not gated.  The reference kernel runs twice a cycle, while no server
//! runs ([`crate::speed`]).

use super::serving::{
    drain, gauge_metrics, launch_timed, record_request_layers, spill_bytes, MapTally, PATIENCE,
};
use crate::client;
use crate::inputs::{round_robin_batches, serving_logs, sub_seed, Batch, Line, BATCH, TENANTS};
use crate::loadgen::{closed_loop, RealClock, Sent};
use crate::report::Report;
use crate::speed::Speed;
use crate::stats::{mean_of_medians, median, percentile};
use crate::sut::{pool_options, render_spec, session_options, ServerProc, DEEP_QUEUE, READY_POLL};
use crate::trace::{self, Span, Tracer};
use crate::{handlers, RunArgs};
use pi_core::Session;
use pi_server::client::Connection;
use pi_server::{PoolGauge, SessionPool};
use pi_ui::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Statements each tenant writes before the checkpoint: 16 tenants' worth is more than
/// the 8 MiB of journal that triggers one.
pub const WRITE_LINES: usize = 100 * BATCH;
/// Statements each tenant writes after the checkpoint: the journal tail replayed on
/// restart.
pub const TAIL_LINES: usize = 2 * BATCH;
/// Closed-loop shipper connections.
pub const CONNECTIONS: usize = 2;
/// Input sets a run cycles over, one per cycle: what 16 tenants' traces cost to mine and
/// map varies by a tenth from one set to the next, so a run's medians describe the
/// workload rather than one set.
pub const INPUT_SETS: usize = 4;

/// The inputs of one cycle.
struct Inputs {
    write: Vec<Batch>,
    tail: Vec<Batch>,
    /// Statements each tenant sends over a cycle.
    sent: Vec<usize>,
    /// The tenant whose interface is compared with an in-process session.
    sampled: usize,
    /// That tenant's statements, in order.
    sampled_lines: Vec<Line>,
}

/// Input set `set` of workload seed `seed`.
fn inputs(seed: u64, set: usize) -> Inputs {
    let logs = serving_logs(sub_seed(seed, set as u64), 2, WRITE_LINES + TAIL_LINES);
    let (head, tail): (Vec<Vec<Line>>, Vec<Vec<Line>>) = logs
        .iter()
        .map(|l| (l[..WRITE_LINES].to_vec(), l[WRITE_LINES..].to_vec()))
        .unzip();
    let sampled = ((seed + set as u64) % TENANTS as u64) as usize;
    Inputs {
        write: round_robin_batches(&head),
        tail: round_robin_batches(&tail),
        sent: logs.iter().map(Vec::len).collect(),
        sampled,
        sampled_lines: logs[sampled].clone(),
    }
}

/// Splits batches across the shipper connections by tenant.
fn per_connection(batches: &[Batch]) -> Vec<Vec<&Batch>> {
    let mut out = vec![Vec::new(); CONNECTIONS];
    for batch in batches {
        out[batch.tenant % CONNECTIONS].push(batch);
    }
    out
}

/// Ships `batches` over HTTP, closed loop on [`CONNECTIONS`] connections; request times
/// count from `epoch`.
fn ship_http(
    addr: std::net::SocketAddr,
    batches: &[Batch],
    epoch: Instant,
) -> std::io::Result<Vec<Sent>> {
    let shares = per_connection(batches);
    let mut conns = (0..CONNECTIONS)
        .map(|_| Connection::open(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let sent = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .zip(conns.iter_mut())
            .map(|(share, conn)| {
                scope.spawn(move || {
                    closed_loop(&mut RealClock::new(epoch), share.len(), |i, _| {
                        client::post(conn, &share[i].body, share[i].item.queries.len())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shipper thread panicked"))
            .collect()
    });
    Ok(sent)
}

/// Waits for the server's first completed checkpoint.
fn wait_checkpoint(addr: std::net::SocketAddr) -> std::io::Result<()> {
    let start = Instant::now();
    while client::number(&client::stats(addr)?, &["durability", "checkpoints"]) < 1.0 {
        if start.elapsed() > PATIENCE {
            return Err(std::io::Error::other("no checkpoint in time"));
        }
        std::thread::sleep(client::STATS_POLL);
    }
    Ok(())
}

/// Copies the regular files of `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One untraced cycle's measurements: the server's CPU time (`*_cpu_*`) and the wall
/// time the benchmark saw.
struct Cycle {
    posts: Vec<Sent>,
    /// Server CPU from the write phase's first request to the drained backlog and the
    /// completed checkpoint, in seconds.
    write_cpu_s: f64,
    /// The same phase on the wall clock, in seconds.
    write_s: f64,
    /// Server CPU of each first read after the restart, in ms.
    reads_cpu_ms: Vec<f64>,
    /// The same reads' latencies, in ms.
    reads_ms: Vec<f64>,
    /// Restarted server's CPU from launch to its last interface served, in seconds.
    interfaces_cpu_s: f64,
    /// The same span on the wall clock, in seconds.
    interfaces_s: f64,
    peak_rss_mib: f64,
    setup_s: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One untraced cycle in `dir`, timed from `epoch`; with `keep` the crashed directory is
/// copied there before the restart.  Takes a kernel sample before each server launch.
fn cycle(
    report: &mut Report,
    speed: &mut Speed,
    inputs: &Inputs,
    reference: &Json,
    dir: &Path,
    keep: Option<&Path>,
    epoch: Instant,
) -> std::io::Result<Cycle> {
    speed.sample();
    let server = ServerProc::launch(dir, Some(DEEP_QUEUE))?;
    let setup_s = server.wait_ready(PATIENCE, READY_POLL)?.as_secs_f64();
    let cpu = server.clock()?;
    let (start, start_cpu) = (Instant::now(), cpu.now()?);
    let mut posts = ship_http(server.addr, &inputs.write, epoch)?;
    client::wait_drained(server.addr, PATIENCE)?;
    wait_checkpoint(server.addr)?;
    let write_cpu_s = (cpu.now()? - start_cpu).as_secs_f64();
    let write_s = start.elapsed().as_secs_f64();
    posts.extend(ship_http(server.addr, &inputs.tail, epoch)?);
    server.kill()?;
    if let Some(keep) = keep {
        copy_dir(dir, keep)?;
    }

    speed.sample();
    let restarted = ServerProc::launch(dir, Some(DEEP_QUEUE))?;
    // Polled less often: every poll is server CPU inside `interfaces_s`.
    restarted.wait_ready(PATIENCE, client::STATS_POLL)?;
    let cpu = restarted.clock()?;
    let mut conn = Connection::open(restarted.addr)?;
    let mut reads_ms = Vec::with_capacity(TENANTS);
    let mut reads_cpu_ms = Vec::with_capacity(TENANTS);
    for tenant in 0..TENANTS {
        let (asked, asked_cpu) = (Instant::now(), cpu.now()?);
        let reply = client::get_interface(&mut conn, tenant);
        reads_ms.push(ms(asked.elapsed()));
        reads_cpu_ms.push(ms(cpu.now()? - asked_cpu));
        report.op(reply.is_some());
        let covered = reply.as_ref().map(|r| r.version + r.skipped);
        report.check(covered == Some(inputs.sent[tenant]), || {
            format!(
                "restarted tenant {tenant}: version + skipped = {covered:?}, acked {}",
                inputs.sent[tenant]
            )
        });
        if tenant == inputs.sampled {
            report.check(reply.is_some_and(|r| r.spec == *reference), || {
                format!("restarted tenant {tenant}'s spec differs from an in-process session")
            });
        }
    }
    let interfaces_cpu_s = cpu.now()?.as_secs_f64();
    let interfaces_s = restarted.launched.elapsed().as_secs_f64();
    let peak_rss_mib = restarted.peak_rss_mib()?;
    restarted.kill()?;
    Ok(Cycle {
        posts,
        write_cpu_s,
        write_s,
        reads_cpu_ms,
        reads_ms,
        interfaces_cpu_s,
        interfaces_s,
        peak_rss_mib,
        setup_s,
    })
}

/// The sampled tenant's interface from an in-process session over the same statements.
fn reference_spec(inputs: &Inputs) -> std::io::Result<Json> {
    let mut session = Session::new(session_options(2));
    for batch in inputs.sampled_lines.chunks(BATCH) {
        session.push_stream_tagged(batch.iter().map(|(d, t)| (*d, t)));
    }
    Json::parse(&render_spec(&session.snapshot().interface))
        .map_err(|e| std::io::Error::other(format!("reference spec: {e}")))
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) -> std::io::Result<()> {
    let sets: Vec<Inputs> = (0..INPUT_SETS).map(|k| inputs(args.seed, k)).collect();
    let references = sets
        .iter()
        .map(reference_spec)
        .collect::<std::io::Result<Vec<Json>>>()?;
    let mut speed = Speed::new();
    let (mut setup, server, dir) = launch_timed(args, "fresh", Some(DEEP_QUEUE))?;
    server.kill()?;
    std::fs::remove_dir_all(&dir)?;

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut cycles = Vec::new();
    let crashed = args.work_dir.join("crashed");
    loop {
        let done = if args.trace {
            !cycles.is_empty()
        } else {
            !cycles.is_empty() && started.elapsed() >= budget
        };
        if done || started.elapsed() >= crate::HARD_LIMIT {
            break;
        }
        let dir = args.work_dir.join(format!("cycle-{}", cycles.len()));
        let keep = args.trace.then_some(crashed.as_path());
        let k = cycles.len() % INPUT_SETS;
        let cycle = cycle(
            report,
            &mut speed,
            &sets[k],
            &references[k],
            &dir,
            keep,
            started,
        )?;
        std::fs::remove_dir_all(&dir)?;
        setup.push(cycle.setup_s);
        cycles.push(cycle);
    }

    let posts: Vec<&Sent> = cycles.iter().flat_map(|c| &c.posts).collect();
    report.ops(posts.len(), posts.iter().filter(|s| !s.ok).count());
    let write_ms: Vec<f64> = posts.iter().map(|s| s.latency_ms()).collect();
    let reads_ms: Vec<f64> = cycles.iter().flat_map(|c| c.reads_ms.clone()).collect();
    // Per tenant of each input set, the median over cycles of its first read's server CPU.
    let mut reads_cpu_ms = vec![Vec::new(); INPUT_SETS * TENANTS];
    for (i, cycle) in cycles.iter().enumerate() {
        for (tenant, &ms) in cycle.reads_cpu_ms.iter().enumerate() {
            reads_cpu_ms[(i % INPUT_SETS) * TENANTS + tenant].push(ms);
        }
    }
    let per_cycle = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<_>>();
    let statements: usize = sets[0].write.iter().map(|b| b.item.queries.len()).sum();
    let n = cycles.len();
    let nan = f64::NAN;
    // Gated timings: the server's CPU times at the reference speed, medians over the run
    // (for reads, the mean over tenants of each tenant's median, so each weighs the same).
    let scale = speed.factor();
    report.notes.push(speed.note());
    let scaled = |samples: &[f64]| median(samples).map_or(nan, |m| m * scale);
    report.metric("setup_s", "s", median(&setup).unwrap_or(nan), setup.len());
    report.metric(
        "peak_rss_mb",
        "MiB",
        median(&per_cycle(|c| c.peak_rss_mib)).unwrap_or(nan),
        n,
    );
    report.metric(
        "read_ms",
        "ms",
        mean_of_medians(&reads_cpu_ms).map_or(nan, |m| m * scale),
        n * TENANTS,
    );
    report.metric(
        "interfaces_s",
        "s",
        scaled(&per_cycle(|c| c.interfaces_cpu_s)),
        n,
    );
    report.metric(
        "ingest_sps",
        "stmt/s",
        statements as f64 / scaled(&per_cycle(|c| c.write_cpu_s)),
        n,
    );
    let wall = |samples: &[f64]| median(samples).unwrap_or(nan);
    report.notes.push(format!(
        "wall clock, not gated: POST ack p50 {:.3} ms over {} samples, first GET p50 {:.3} ms, \
         restart to every interface {:.3} s, write phase {:.0} stmt/s (medians over {n} cycles)",
        percentile(&write_ms, 0.5).unwrap_or(nan),
        write_ms.len(),
        wall(&reads_ms),
        wall(&per_cycle(|c| c.interfaces_s)),
        statements as f64 / wall(&per_cycle(|c| c.write_s)),
    ));
    report.tail_note("write", &write_ms);
    if args.trace {
        report.metric(
            "http.requests",
            "count",
            (posts.len() + reads_ms.len()) as f64,
            1,
        );
        report.metric(
            "http.failed",
            "count",
            posts.iter().filter(|s| !s.ok).count() as f64,
            1,
        );
        let round_trip: Vec<f64> = posts.iter().map(|s| s.round_trip_ms()).collect();
        traced(
            args,
            report,
            &sets[0],
            &references[0],
            &crashed,
            &round_trip,
        )?;
    }
    Ok(())
}

/// Ships `batches` in-process through the route handlers' calls, closed loop on
/// [`CONNECTIONS`] threads, each with a tracer that is on when `traced`.
fn ship_in_process(
    pool: &SessionPool,
    batches: &[Batch],
    epoch: Instant,
    first_request: u64,
    traced: bool,
) -> (Vec<Vec<Span>>, Vec<Sent>) {
    let shares = per_connection(batches);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(k, share)| {
                scope.spawn(move || {
                    let mut tracer = if traced {
                        Tracer::new(epoch)
                    } else {
                        Tracer::off()
                    };
                    let sent = closed_loop(&mut RealClock::new(epoch), share.len(), |i, _| {
                        let request = first_request + (i * CONNECTIONS + k) as u64 + 1;
                        let batch = share[i];
                        handlers::post(
                            &mut tracer,
                            request,
                            pool,
                            &batch.body,
                            batch.item.queries.len(),
                        )
                    });
                    (tracer.finish(), sent)
                })
            })
            .collect();
        let mut spans = Vec::new();
        let mut sent = Vec::new();
        for handle in handles {
            let (s, done) = handle.join().expect("in-process shipper panicked");
            spans.push(s);
            sent.extend(done);
        }
        (spans, sent)
    })
}

/// Runs `f` in a span named `name` when `tracer` is on, and adds its time, taken outside
/// the tracer, to `ops`.
fn timed<T>(
    ops: &mut Vec<Duration>,
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = tracer.leaf(name, 0, f);
    ops.push(start.elapsed());
    out
}

/// One in-process pass of the lifecycle: what it produced and how long each operation
/// took.
struct InProcess {
    spans: Vec<Span>,
    /// Every operation's own timing: writes, the restart's calls and reads, codec calls.
    ops: Vec<Duration>,
    writes: PoolGauge,
    restart: PoolGauge,
    tally: MapTally,
    widgets: usize,
    edges: usize,
    records: usize,
    ui_bytes: usize,
}

/// The lifecycle in-process through the route handlers' calls, with every span recorded
/// when `traced`: the write phase, checkpoint and tail into a fresh pool in `fresh`, a
/// restart over `crashed` (a copy of an untraced cycle's crashed directory), then the
/// codec calls on the sampled tenant's session.
fn in_process(
    report: &mut Report,
    inputs: &Inputs,
    reference: &Json,
    fresh: &Path,
    crashed: &Path,
    traced: bool,
) -> std::io::Result<InProcess> {
    let epoch = Instant::now();
    let tracer = || {
        if traced {
            Tracer::new(epoch)
        } else {
            Tracer::off()
        }
    };
    let mut parts: Vec<Vec<Span>> = Vec::new();
    let mut ops: Vec<Duration> = Vec::new();

    // Write phase, checkpoint and tail.
    let pool = SessionPool::new(pool_options(fresh, Some(DEEP_QUEUE)));
    pool.wait_ready();
    let (spans, mut posts) = ship_in_process(&pool, &inputs.write, epoch, 0, traced);
    parts.extend(spans);
    drain(&pool);
    let waited = Instant::now();
    while pool.gauge().checkpoints < 1 && waited.elapsed() < PATIENCE {
        std::thread::sleep(Duration::from_millis(5));
    }
    let first_tail = inputs.write.len() as u64;
    let (spans, tail) = ship_in_process(&pool, &inputs.tail, epoch, first_tail, traced);
    parts.extend(spans);
    posts.extend(tail);
    drain(&pool);
    let writes: PoolGauge = pool.gauge();
    let failed = posts.iter().filter(|s| !s.ok).count();
    report.check(failed == 0, || format!("{failed} in-process writes failed"));
    report.check(writes.checkpoints >= 1, || {
        "the in-process write phase took no checkpoint".to_string()
    });
    ops.extend(posts.iter().map(|s| s.done - s.sent));
    pool.close();
    drop(pool);

    // Restart over the crashed directory.
    let mut tracer = tracer();
    let pool = timed(&mut ops, &mut tracer, "pool.open", || {
        SessionPool::new(pool_options(crashed, Some(DEEP_QUEUE)))
    });
    timed(&mut ops, &mut tracer, "pool.recover", || pool.wait_ready());
    let mut tally = MapTally::default();
    let (mut widgets, mut edges, mut records, mut ui_bytes) = (0, 0, 0, 0);
    for tenant in 0..TENANTS {
        let request = (inputs.write.len() + inputs.tail.len() + tenant) as u64 + 1;
        let asked = Instant::now();
        let reply = handlers::get(&mut tracer, request, &pool, tenant);
        ops.push(asked.elapsed());
        let covered = reply.as_ref().map(|(s, _)| s.version as usize + s.skipped);
        report.check(covered == Some(inputs.sent[tenant]), || {
            format!(
                "in-process restart tenant {tenant}: covered {covered:?}, acked {}",
                inputs.sent[tenant]
            )
        });
        if let Some((snapshot, body)) = reply {
            if tenant == inputs.sampled {
                report.check(Json::parse(&body).ok().as_ref() == Some(reference), || {
                    "in-process restart: sampled spec differs from an in-process session"
                        .to_string()
                });
            }
            tally.read(tenant, snapshot.version, snapshot.graph_stats.diff_records);
            widgets += snapshot.interface.widgets().len();
            edges += snapshot.graph_stats.edges;
            records += snapshot.graph_stats.diff_records;
            ui_bytes += body.len();
        }
    }
    let restart: PoolGauge = pool.gauge();
    pool.close();
    drop(pool);

    // Codec calls on the sampled tenant's session: persist, restore, hydrate.
    let mut session = Session::new(session_options(2));
    session.push_stream_tagged(inputs.sampled_lines.iter().map(|(d, t)| (*d, t)));
    let bytes = timed(&mut ops, &mut tracer, "codec.persist", || {
        session.persist_to_vec()
    });
    let bytes = bytes.map_err(|e| std::io::Error::other(format!("persist: {e}")))?;
    let restored = timed(&mut ops, &mut tracer, "codec.restore", || {
        Session::restore_with(&mut bytes.as_slice(), session_options(2))
    });
    let mut restored = restored.map_err(|e| std::io::Error::other(format!("restore: {e}")))?;
    timed(&mut ops, &mut tracer, "codec.hydrate", || {
        restored.hydrate()
    });
    report.check(restored.version() == session.version(), || {
        "restored session lost statements".to_string()
    });
    parts.push(tracer.finish());
    Ok(InProcess {
        spans: trace::merge(parts),
        ops,
        writes,
        restart,
        tally,
        widgets,
        edges,
        records,
        ui_bytes,
    })
}

/// The traced pass: the lifecycle in-process through the route handlers' calls, once
/// untraced and once traced, each restarting over its own copy of the untraced cycle's
/// crashed directory; the per-layer metrics come from the traced one.
fn traced(
    args: &RunArgs,
    report: &mut Report,
    inputs: &Inputs,
    reference: &Json,
    crashed: &Path,
    untraced_post_ms: &[f64],
) -> std::io::Result<()> {
    let copies = [
        args.work_dir.join("crashed-untraced"),
        args.work_dir.join("crashed-traced"),
    ];
    for copy in &copies {
        copy_dir(crashed, copy)?;
    }
    let untraced = in_process(
        report,
        inputs,
        reference,
        &args.work_dir.join("untraced-writes"),
        &copies[0],
        false,
    )?;
    let pass = in_process(
        report,
        inputs,
        reference,
        &args.work_dir.join("traced-writes"),
        &copies[1],
        true,
    )?;
    let spans = pass.spans;
    record_request_layers(report, &spans, untraced_post_ms);
    gauge_metrics(report, &pass.writes);
    let totals = trace::layer_totals(&spans);
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let restart = &pass.restart;
    report.metric(
        "pool.recovered_statements",
        "count",
        restart.recovered_statements as f64,
        1,
    );
    report.metric("pool.recovery_ms", "ms", restart.last_recovery_ms, 1);
    report.metric("pool.rehydrations", "count", restart.rehydrations as f64, 1);
    report.metric("codec.restore_ms", "ms", restart.restore_ms, 1);
    report.metric("codec.hydrate_ms", "ms", ms("codec.hydrate"), 1);
    report.metric(
        "codec.snapshot_bytes",
        "bytes",
        spill_bytes(crashed)? as f64,
        1,
    );
    report.metric("mapper.ms", "ms", restart.mapping_ms, 1);
    report.metric("mapper.maps", "count", pass.tally.maps as f64, 1);
    report.metric(
        "mapper.records_in",
        "count",
        pass.tally.records_in as f64,
        1,
    );
    report.metric("mapper.widgets", "count", pass.widgets as f64, TENANTS);
    report.metric("graph.edges", "count", pass.edges as f64, TENANTS);
    report.metric("graph.diff_records", "count", pass.records as f64, TENANTS);
    report.metric(
        "wire.bytes",
        "bytes",
        inputs
            .write
            .iter()
            .chain(&inputs.tail)
            .map(|b| b.body.len())
            .sum::<usize>() as f64,
        inputs.write.len() + inputs.tail.len(),
    );
    report.metric("ui.bytes", "bytes", pass.ui_bytes as f64, TENANTS);
    report.notes.push(format!(
        "restart: open {:.3} ms, recovery {:.3} ms, first interfaces {:.3} ms",
        ms("pool.open"),
        ms("pool.recover"),
        ms("pool.snapshot") + ms("ui") + ms("request")
    ));
    crate::finish_trace(args, report, &spans, &pass.ops, &untraced.ops)
}
