//! Serving latency under multi-tenant load: a loopback load generator drives the
//! `pi-server` HTTP service with 64 tenants' worth of Zipf-repetitive mixed SQL + frames
//! traffic and measures what a client actually sees — `POST /logs` ingest latency (the
//! acceptor decodes and enqueues; mining happens on the pool's workers) and `GET
//! /interfaces/{user}/{thread}` snapshot latency (read-your-writes: queued statements are
//! applied before the snapshot renders).  p50/p99/mean for both, plus the sustained
//! statement throughput, land in `BENCH_serving.json` at the workspace root so successive
//! runs can track the serving trajectory.

use bench::BenchLine;
use pi_server::client::Connection;
use pi_server::wire::{encode_batch, LogItem};
use pi_server::{PoolOptions, Server, ServerOptions};
use pi_ui::Json;
use pi_workloads::frames;
use std::time::Instant;

/// Concurrent tenants (the acceptance floor for the serving numbers).
const TENANTS: usize = 64;
/// Statements each tenant ingests over the run.
const STATEMENTS_PER_TENANT: usize = 48;
/// Statements per `POST /logs` batch.
const BATCH: usize = 8;
/// Distinct query shapes per tenant's Zipf-repetitive walk.
const DISTINCT: usize = 12;
/// Client threads, each driving its share of the tenants over one keep-alive connection.
const CLIENTS: usize = 8;
/// A tenant issues a snapshot `GET` after every `SNAPSHOT_EVERY` batches (and one final).
const SNAPSHOT_EVERY: usize = 2;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn stat_lines(prefix: &str, mut samples: Vec<f64>) -> Vec<BenchLine> {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len() as u64;
    let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    let line = |suffix: &str, value: f64| BenchLine {
        id: format!("{prefix}{suffix}"),
        mean_ns: value,
        min_ns: samples.first().copied().unwrap_or(0.0),
        max_ns: samples.last().copied().unwrap_or(0.0),
        iterations: n,
    };
    vec![
        line("", mean),
        line("_p50", percentile(&samples, 0.50)),
        line("_p99", percentile(&samples, 0.99)),
    ]
}

/// One client thread's share of the run: drive `tenants` round-robin, one batch per tenant
/// per round, snapshotting every few batches.  Returns (ingest ns, snapshot ns) samples.
fn drive_tenants(
    addr: std::net::SocketAddr,
    tenants: &[usize],
) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let mut conn = Connection::open(addr)?;
    let mut ingest_ns = Vec::new();
    let mut snapshot_ns = Vec::new();
    // Each tenant walks its own seed: same repetitive mixture, different queries.
    let logs: Vec<_> = tenants
        .iter()
        .map(|t| frames::repetitive_mixed_walk(1000 + *t as u64, STATEMENTS_PER_TENANT, DISTINCT))
        .collect();
    let rounds = STATEMENTS_PER_TENANT / BATCH;
    for round in 0..rounds {
        for (slot, tenant) in tenants.iter().enumerate() {
            let log = &logs[slot];
            let queries: Vec<_> = (round * BATCH..(round + 1) * BATCH)
                .map(|i| (log.dialects[i], log.text[i].as_str().into()))
                .collect();
            let item = LogItem {
                user_id: format!("user-{tenant}"),
                thread_id: "t0".to_string(),
                queries,
            };
            let body = encode_batch(std::slice::from_ref(&item));
            let start = Instant::now();
            let (status, _, response) = conn.request("POST", "/logs", Some(&body))?;
            ingest_ns.push(start.elapsed().as_nanos() as f64);
            assert!(
                status == 202 || status == 429,
                "unexpected {status}: {response}"
            );
            if (round + 1) % SNAPSHOT_EVERY == 0 {
                let path = format!("/interfaces/user-{tenant}/t0");
                let start = Instant::now();
                let (status, _, _) = conn.request("GET", &path, None)?;
                snapshot_ns.push(start.elapsed().as_nanos() as f64);
                assert_eq!(status, 200);
            }
        }
    }
    Ok((ingest_ns, snapshot_ns))
}

fn main() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            http_threads: CLIENTS,
            pool: PoolOptions {
                capacity: TENANTS * 2, // headroom: this run measures latency, not eviction
                shards: 16,
                queue_depth: 256,
                workers: 2,
                ..PoolOptions::default()
            },
            spill_dir: None,
        },
    )
    .expect("bind loopback server");
    let addr = server.addr();

    let started = Instant::now();
    let shares: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| (0..TENANTS).filter(|t| t % CLIENTS == c).collect())
        .collect();
    let results: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| scope.spawn(move || drive_tenants(addr, share).expect("client io")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut ingest_ns = Vec::new();
    let mut snapshot_ns = Vec::new();
    for (ingest, snapshot) in results {
        ingest_ns.extend(ingest);
        snapshot_ns.extend(snapshot);
    }
    let statements = TENANTS * STATEMENTS_PER_TENANT;
    let sustained_qps = statements as f64 / wall_s;

    // Spot-check correctness before publishing numbers: a sampled tenant's final interface
    // carries every statement it sent and maps at least one widget.
    let (status, _, body) =
        pi_server::client::http_request(addr, "GET", "/interfaces/user-0/t0", None)
            .expect("final fetch");
    assert_eq!(status, 200);
    let interface = Json::parse(&body).expect("interface JSON");
    assert_eq!(
        interface.get("version").and_then(Json::as_f64),
        Some(STATEMENTS_PER_TENANT as f64),
        "tenant 0 should have ingested every statement: {body}"
    );
    assert!(
        interface
            .get("interface")
            .and_then(|i| i.get("widgets"))
            .and_then(Json::as_array)
            .is_some_and(|w| !w.is_empty()),
        "tenant 0's interface should map widgets"
    );
    let gauge = server.pool().gauge();
    assert_eq!(
        gauge.accepted as usize, statements,
        "no batch should have been shed"
    );
    server.shutdown();

    let total_ingest_ns: f64 = ingest_ns.iter().sum();
    let mut lines = stat_lines("serving/ingest_post", ingest_ns);
    lines.extend(stat_lines("serving/snapshot_get", snapshot_ns));
    // Amortised per-statement ingest cost, for like-for-like ratios against the mining
    // benches' per-query numbers.
    lines.push(BenchLine {
        id: "serving/ingest_per_statement".into(),
        mean_ns: total_ingest_ns / statements as f64,
        min_ns: 0.0,
        max_ns: 0.0,
        iterations: statements as u64,
    });

    println!(
        "serving: {TENANTS} tenants x {STATEMENTS_PER_TENANT} statements over {CLIENTS} connections in {wall_s:.2}s ({sustained_qps:.0} statements/s sustained)"
    );
    for line in &lines {
        println!("  {}: {:.3} ms", line.id, line.mean_ns / 1e6);
    }

    // crates/bench -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    let previous = bench::read_bench_json(path);
    bench::write_bench_json(
        path,
        &[
            ("workload", "\"repetitive_mixed_walk\"".to_string()),
            ("tenants", TENANTS.to_string()),
            ("statements", statements.to_string()),
            ("batch", BATCH.to_string()),
            ("clients", CLIENTS.to_string()),
            ("sustained_qps", format!("{sustained_qps:.0}")),
        ],
        &lines,
    );
    bench::print_comparison("BENCH_serving.json", &previous, &lines);
}
