//! Durability cost and recovery time for the journaled serving pool.
//!
//! Three measurements, written to `BENCH_recovery.json` at the workspace root:
//!
//! 1. **Baseline sustained ingest** — a no-journal pool drains a Zipf-repetitive
//!    multi-tenant trace end to end (enqueue + background mining), statements/s.
//! 2. **Journaled sustained ingest** — the same trace through a pool with the write-ahead
//!    journal on (fsync group commit before every acknowledgement, periodic
//!    checkpoints).  The run **asserts** the journaled throughput stays at or above
//!    `PI_RECOVERY_MIN_RATIO` (default 0.7) of the baseline — the acceptance floor for
//!    the durability tax.
//! 3. **Recovery wall time** — the pool checkpoints at an idle point (as a long-lived
//!    server does once its interval elapses), ingests a fresh un-checkpointed tail, and
//!    is killed (`simulate_crash`: workers abandoned mid-stride, journal truncated to
//!    its fsync watermark — exactly what `kill -9` leaves).  A fresh pool opens over the
//!    directory and the time from open to readiness (snapshot restore + journal tail
//!    replay) is recorded.  The tail, not the trace length, bounds recovery: that is the
//!    checkpoint contract.
//!
//! `PI_RECOVERY_LINES` scales the trace (default 100 000 statements; CI smoke runs use a
//! few thousand), `PI_RECOVERY_REPEATS` the per-arm repeat count whose median is
//! compared (default 2), and `PI_RECOVERY_MIN_RATIO` the enforced floor.  Correctness is
//! spot-checked before any number is published: after recovery a sampled tenant must
//! serve every statement it ingested.

use bench::BenchLine;
use pi_server::{DurabilityOptions, PoolOptions, SessionPool};
use pi_workloads::frames;
use std::sync::Arc;
use std::time::Instant;

/// Concurrent tenants sharing the pool.
const TENANTS: usize = 16;
/// Statements per `enqueue_tagged` batch — the chunk size a trace-upload client would
/// POST per request.  One journal record (and one group-committed fsync window) per
/// batch, so this is the unit the durability tax is amortised over.
const BATCH: usize = 4096;
/// Distinct query shapes per tenant's Zipf-repetitive walk.
const DISTINCT: usize = 48;
/// Per-tenant statements ingested *after* the idle checkpoint and before the kill — the
/// un-checkpointed journal tail that crash recovery has to replay.
const TAIL: usize = 512;
/// Concurrent client connections pushing the trace (each multiplexes TENANTS / CLIENTS
/// tenants, like the serving bench's connection model).  Kept well below TENANTS: a
/// thread per tenant oversubscribes small boxes so badly that every group-commit hand-off
/// eats a scheduler delay, which would measure the host's run queue, not the journal.
const CLIENTS: usize = 4;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median wall time of a run set (even count: lower middle, the conservative pick).
fn median(runs: &mut [f64]) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[(runs.len() - 1) / 2]
}

fn pool_options(durability: Option<DurabilityOptions>, per_tenant: usize) -> PoolOptions {
    PoolOptions {
        capacity: TENANTS * 2,
        // The shard count the floor was measured with.  The journal is one segment whatever
        // the count, so group commit coalesces concurrent appends from every tenant.
        shards: 2,
        queue_depth: per_tenant + BATCH, // the run never sheds; backpressure is not under test
        workers: 2,
        durability,
        ..PoolOptions::default()
    }
}

/// Pushes the whole trace — CLIENTS concurrent connections, each multiplexing its share
/// of tenants — and waits for the background workers to drain it.  Returns the sustained
/// wall time (acknowledge + mine, the client-visible pipeline).  Concurrency matters for
/// the journaled arm: group commit only amortises the fsync across appends that arrive
/// while a sync is in flight.
fn ingest(pool: &Arc<SessionPool>, streams: &[Vec<(pi_ast::Dialect, String)>]) -> f64 {
    let per_tenant = streams[0].len();
    let rounds = per_tenant.div_ceil(BATCH);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                // Round-robin over this client's tenants, one batch each per round —
                // interleaved ingest, so every tenant is live at once.
                for round in 0..rounds {
                    for (t, stream) in streams.iter().enumerate() {
                        if t % CLIENTS != c {
                            continue;
                        }
                        let lo = round * BATCH;
                        let hi = (lo + BATCH).min(stream.len());
                        pool.enqueue_tagged(
                            &format!("user-{t}"),
                            "t0",
                            stream[lo..hi].iter().map(|(d, s)| (*d, s.as_str())),
                        )
                        .expect("queue sized for the whole trace");
                    }
                }
            });
        }
    });
    while pool.gauge().queued > 0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    start.elapsed().as_secs_f64()
}

fn assert_tenant_complete(pool: &Arc<SessionPool>, per_tenant: usize, label: &str) {
    let snap = pool.snapshot("user-0", "t0").expect("tenant 0 exists");
    assert_eq!(
        snap.version as usize, per_tenant,
        "{label}: tenant 0 must serve every ingested statement"
    );
}

fn main() {
    let lines = env_usize("PI_RECOVERY_LINES", 100_000);
    let min_ratio = env_f64("PI_RECOVERY_MIN_RATIO", 0.7);
    let repeats = env_usize("PI_RECOVERY_REPEATS", 2).max(1);
    let per_tenant = lines.div_ceil(TENANTS);
    let statements = per_tenant * TENANTS;
    let streams: Vec<Vec<(pi_ast::Dialect, String)>> = (0..TENANTS)
        .map(|t| {
            let log = frames::repetitive_mixed_walk(9000 + t as u64, per_tenant, DISTINCT);
            log.dialects
                .iter()
                .copied()
                .zip(log.text.iter().cloned())
                .collect()
        })
        .collect();

    // Phase 1: no-journal baseline, median of `repeats` runs.  Single runs on a shared
    // (often single-core) box swing by double digits; the median resists outliers in
    // both directions, where a min would hand whichever arm gets the luckier scheduler
    // draw an unearned win.
    let mut baseline_runs = Vec::new();
    for _ in 0..repeats {
        let pool = SessionPool::new(pool_options(None, per_tenant));
        let s = ingest(&pool, &streams);
        assert_tenant_complete(&pool, per_tenant, "baseline");
        pool.close();
        baseline_runs.push(s);
    }
    let baseline_s = median(&mut baseline_runs);
    let baseline_qps = statements as f64 / baseline_s;

    // Phase 2: journaled ingest, a fresh scratch directory per repeat so no run replays
    // its predecessor's state.  The checkpoint interval is the production default shape:
    // large enough that its cost amortises to noise per statement (a checkpoint is ~tens
    // of ms of snapshot serialisation; at a 16 MiB interval that is well under 0.1 µs per
    // ingested statement), small enough that recovery replay stays bounded.  The last
    // repeat's pool stays open — it is the one phase 3 checkpoints and then kills.
    let mut journaled_runs = Vec::new();
    let mut live = None;
    for rep in 0..repeats {
        let dir =
            std::env::temp_dir().join(format!("pi-bench-recovery-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durability = DurabilityOptions::new(&dir);
        durability.checkpoint_bytes = 16 * 1024 * 1024;
        let pool =
            SessionPool::with_spill(pool_options(Some(durability.clone()), per_tenant), None);
        pool.wait_ready();
        let s = ingest(&pool, &streams);
        assert_tenant_complete(&pool, per_tenant, "journaled");
        journaled_runs.push(s);
        if rep + 1 == repeats {
            live = Some((pool, dir, durability));
        } else {
            pool.close();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (journaled_pool, dir, durability) = live.expect("repeats >= 1");
    let journaled_s = median(&mut journaled_runs);
    let journaled_qps = statements as f64 / journaled_s;
    let ratio = journaled_qps / baseline_qps;

    // Phase 3: checkpoint at an idle point (what a long-lived server does on its own once
    // the interval elapses), ingest a fresh un-checkpointed tail on top, then kill.  The
    // crash therefore lands exactly where ARIES puts it: snapshots cover everything up to
    // the checkpoint, and recovery = restore every snapshot + replay only the journaled
    // tail.  Recovery time is bounded by the checkpoint interval, not the trace length.
    assert!(journaled_pool.checkpoint(), "idle checkpoint completes");
    let tails: Vec<Vec<(pi_ast::Dialect, String)>> = (0..TENANTS)
        .map(|t| {
            let log = frames::repetitive_mixed_walk(7000 + t as u64, TAIL, DISTINCT);
            log.dialects
                .iter()
                .copied()
                .zip(log.text.iter().cloned())
                .collect()
        })
        .collect();
    ingest(&journaled_pool, &tails);
    journaled_pool
        .simulate_crash()
        .expect("journal kill switch");
    let ingest_gauge = journaled_pool.gauge();
    let journal_stats = ingest_gauge.journal.clone().expect("journaled pool");
    drop(journaled_pool);
    let recovery_started = Instant::now();
    let recovered_pool = SessionPool::with_spill(pool_options(Some(durability), per_tenant), None);
    recovered_pool.wait_ready();
    let recovery_s = recovery_started.elapsed().as_secs_f64();
    assert_tenant_complete(&recovered_pool, per_tenant + TAIL, "recovered");
    let recovery_gauge = recovered_pool.gauge();
    recovered_pool.close();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "recovery: {statements} statements across {TENANTS} tenants (batch {BATCH})\n\
         \x20 baseline  {baseline_qps:.0} statements/s ({baseline_s:.2}s)\n\
         \x20 journaled {journaled_qps:.0} statements/s ({journaled_s:.2}s, ratio {ratio:.3}, \
         {} fsyncs, {} checkpoints)\n\
         \x20 recovery  {:.1} ms ({} statements replayed, {} tenants)",
        journal_stats.syncs,
        ingest_gauge.checkpoints,
        recovery_s * 1e3,
        recovery_gauge.recovered_statements,
        recovery_gauge.recovered_tenants,
    );
    assert!(
        ratio >= min_ratio,
        "journaled ingest fell to {ratio:.3}x of baseline (floor {min_ratio}): \
         {journaled_qps:.0} vs {baseline_qps:.0} statements/s"
    );

    let lines_out = vec![
        BenchLine {
            id: "recovery/baseline_ingest_per_statement".into(),
            mean_ns: baseline_s * 1e9 / statements as f64,
            min_ns: 0.0,
            max_ns: 0.0,
            iterations: statements as u64,
        },
        BenchLine {
            id: "recovery/journaled_ingest_per_statement".into(),
            mean_ns: journaled_s * 1e9 / statements as f64,
            min_ns: 0.0,
            max_ns: 0.0,
            iterations: statements as u64,
        },
        BenchLine {
            id: "recovery/restart_to_ready".into(),
            mean_ns: recovery_s * 1e9,
            min_ns: 0.0,
            max_ns: 0.0,
            iterations: recovery_gauge.recovered_statements.max(1),
        },
    ];

    // crates/bench -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    let previous = bench::read_bench_json(path);
    bench::write_bench_json(
        path,
        &[
            ("workload", "\"repetitive_mixed_walk\"".to_string()),
            ("statements", statements.to_string()),
            ("tenants", TENANTS.to_string()),
            ("batch", BATCH.to_string()),
            ("baseline_qps", format!("{baseline_qps:.0}")),
            ("journaled_qps", format!("{journaled_qps:.0}")),
            ("journal_throughput_ratio", format!("{ratio:.3}")),
            (
                "recovered_statements",
                recovery_gauge.recovered_statements.to_string(),
            ),
            ("checkpoints", ingest_gauge.checkpoints.to_string()),
        ],
        &lines_out,
    );
    bench::print_comparison("BENCH_recovery.json", &previous, &lines_out);
}
