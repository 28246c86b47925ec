//! Crash-recovery properties for the durable serving pool, driven by the deterministic
//! fault-injection harness (`--features faults`).
//!
//! The contract under test is the write-ahead journal's acknowledgement guarantee: **a
//! statement the pool acknowledged is never lost**, no matter where the process dies.
//! Each property case derives a kill schedule from its proptest seed — an injected crash
//! at the n-th journal append, journal fsync or spill write, plus a torn tail of unsynced
//! bytes left on the active segment — runs ingest until the crash fires, "kills" the
//! process ([`SessionPool::simulate_crash`] truncates the journal to its durable watermark
//! plus the torn tail and abandons all in-memory state), then reopens a pool over the same
//! directory and checks every tenant against solo ground-truth replays:
//!
//! * every acknowledged statement is present after recovery;
//! * the recovered state is byte-identical to a solo replay of some *prefix-extension* of
//!   the acked statements (a record that was fully written but not yet acknowledged may
//!   legitimately survive in the torn tail — like any WAL — but nothing is reordered,
//!   duplicated or invented);
//! * torn or corrupt trailing bytes are discarded, never replayed, never a panic.
//!
//! Deterministic companions cover the supervisor (a statement that panics the miner is
//! quarantined, and re-quarantined when journal recovery replays it after a restart) and
//! garbage appended to journal segments.

#![cfg(feature = "faults")]

use precision_interfaces::ast::Dialect;
use precision_interfaces::core::{GeneratedInterface, PiOptions, Session};
use precision_interfaces::graph::InteractionGraph;
use precision_interfaces::server::faults::{FaultOp, FaultPlan};
use precision_interfaces::server::{DurabilityOptions, EnqueueError, PoolOptions, SessionPool};
use precision_interfaces::workloads::frames::repetitive_mixed_walk;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per case (process-unique + case-unique).
fn scratch(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("pi-crash-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tenant's snapshot together with its mined graph.
type Mined = (GeneratedInterface, InteractionGraph);

/// The tenant `user/t0` as the pool serves it: its snapshot, then its graph.
fn read(pool: &SessionPool, user: &str) -> Option<Mined> {
    let snapshot = pool.snapshot(user, "t0")?;
    let graph = pool.graph(user, "t0").expect("the tenant was just read");
    Some((snapshot, graph))
}

fn replay(statements: &[(Dialect, String)]) -> Mined {
    let mut session = Session::new(PiOptions::default());
    for (dialect, text) in statements {
        session.push_stream_tagged([(*dialect, text)]);
    }
    (session.snapshot(), session.graph())
}

fn same((pooled, pooled_graph): &Mined, (solo, solo_graph): &Mined) -> bool {
    pooled.version == solo.version
        && pooled.skipped == solo.skipped
        && pooled_graph == solo_graph
        && pooled.interface.describe() == solo.interface.describe()
}

/// Finds the statement-count `k` in `lo..=hi` whose solo replay of `stream[..k]` matches
/// the recovered snapshot exactly — i.e. recovery reproduced a clean prefix of the
/// tenant's stream at least `lo` (the acked count) long.
fn matching_prefix(
    pooled: &Mined,
    stream: &[(Dialect, String)],
    lo: usize,
    hi: usize,
) -> Option<usize> {
    (lo..=hi).find(|&k| same(pooled, &replay(&stream[..k])))
}

fn durable_opts(dir: &PathBuf, plan: Option<Arc<FaultPlan>>) -> PoolOptions {
    let mut durability = DurabilityOptions::new(dir);
    // Checkpoint aggressively so kill schedules land across rotation, spill and prune,
    // not just mid-append.
    durability.checkpoint_bytes = 4096;
    durability.faults = plan;
    PoolOptions {
        capacity: 2, // three tenants through two seats: evictions write spills mid-run
        shards: 1,
        queue_depth: 4096,
        workers: 1,
        durability: Some(durability),
        ..PoolOptions::default()
    }
}

const TENANTS: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: a randomized kill schedule (crash at the n-th append, fsync
    /// or spill write, with a torn tail) never loses an acknowledged statement, and
    /// recovery reconstructs a byte-identical clean prefix of every tenant's stream.
    #[test]
    fn acked_statements_survive_a_randomized_kill(
        seed in 0u64..4096,
        crash_point in 0usize..3,
        crash_nth in 1u64..24,
        torn in 0u64..64,
        length in 6usize..20,
    ) {
        let dir = scratch("kill");
        let op = [FaultOp::JournalAppend, FaultOp::JournalSync, FaultOp::SpillWrite][crash_point];
        let plan = Arc::new(FaultPlan::new().with_crash(op, crash_nth).with_torn_keep(torn));
        let streams: Vec<Vec<(Dialect, String)>> = (0..TENANTS)
            .map(|t| {
                let log = repetitive_mixed_walk(seed * 131 + t, length, 5);
                log.dialects
                    .iter()
                    .copied()
                    .zip(log.text.iter().cloned())
                    .collect()
            })
            .collect();

        // Round-robin single-statement ingest, recording exactly what was acknowledged.
        // The journal is fail-stop, so the first error ends the whole run — like the real
        // process, which dies at its crash point.
        let pool = SessionPool::with_spill(durable_opts(&dir, Some(plan)), None);
        pool.wait_ready();
        let mut acked = vec![0usize; TENANTS as usize];
        let mut attempted = vec![0usize; TENANTS as usize];
        'ingest: for i in 0..length {
            for (t, stream) in streams.iter().enumerate() {
                let user = format!("user-{t}");
                let (dialect, text) = &stream[i];
                attempted[t] = i + 1;
                match pool.enqueue_tagged(&user, "t0", [(*dialect, text.as_str())]) {
                    Ok(_) => acked[t] = i + 1,
                    Err(_) => break 'ingest,
                }
            }
        }
        pool.simulate_crash().ok();
        drop(pool);

        // Reopen over the same directory (no faults this lifetime) and compare every
        // tenant against ground truth.
        let recovered = SessionPool::with_spill(durable_opts(&dir, None), None);
        recovered.wait_ready();
        prop_assert!(!recovered.is_recovering());
        for (t, stream) in streams.iter().enumerate() {
            let user = format!("user-{t}");
            match read(&recovered, &user) {
                Some(pooled) => {
                    let matched = matching_prefix(&pooled, stream, acked[t], attempted[t]);
                    prop_assert!(
                        matched.is_some(),
                        "tenant {t}: recovered state is not a clean >= acked prefix \
                         (acked {}, attempted {}, crash {op:?} #{crash_nth}, torn {torn})",
                        acked[t],
                        attempted[t],
                    );
                }
                // A tenant may vanish entirely only if nothing of hers was ever acked.
                None => prop_assert_eq!(
                    acked[t],
                    0,
                    "tenant {} lost {} acked statements",
                    t,
                    acked[t]
                ),
            }
        }
        recovered.close();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Garbage appended past the last intact record — the torn tail a real kill can leave —
/// is detected by the record checksums, discarded, and never replayed.
#[test]
fn torn_journal_tails_are_discarded_never_replayed() {
    let dir = scratch("torn");
    let stream: Vec<(Dialect, String)> = (0..6)
        .map(|i| (Dialect::SQL, format!("SELECT a FROM t WHERE x = {i}")))
        .collect();
    let pool = SessionPool::with_spill(durable_opts(&dir, None), None);
    pool.wait_ready();
    for (dialect, text) in &stream {
        pool.enqueue_tagged("ada", "t0", [(*dialect, text.as_str())])
            .unwrap();
    }
    pool.simulate_crash().unwrap();
    drop(pool);
    // Smear garbage onto the end of every journal segment: a partial frame, a bogus
    // length, raw noise.  None of it checksums, so recovery must stop cleanly before it.
    let mut smeared = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "wal") {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(&[0xA5; 37]).unwrap();
            smeared += 1;
        }
    }
    assert!(smeared >= 1, "the journal left segments behind");
    let recovered = SessionPool::with_spill(durable_opts(&dir, None), None);
    recovered.wait_ready();
    let pooled = read(&recovered, "ada").unwrap();
    let solo = replay(&stream);
    assert!(
        same(&pooled, &solo),
        "recovery must reproduce exactly the acked stream despite the garbage tail"
    );
    recovered.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A statement that panics the miner is quarantined rather than wedging its tenant — and
/// because the statement was journaled before it ever ran, recovery replays it after a
/// restart, panics again, and re-quarantines it: the poison is contained in every
/// lifetime, while all surrounding statements survive in order.
#[test]
fn poisoned_statements_are_quarantined_across_restarts() {
    let dir = scratch("poison");
    let good: Vec<(Dialect, String)> = (0..4)
        .map(|i| (Dialect::SQL, format!("SELECT a FROM t WHERE x = {i}")))
        .collect();
    let marker_plan = || Some(Arc::new(FaultPlan::new().with_panic_marker("POISONPILL")));

    let pool = SessionPool::with_spill(durable_opts(&dir, marker_plan()), None);
    pool.wait_ready();
    for (dialect, text) in &good[..2] {
        pool.enqueue_tagged("ada", "t0", [(*dialect, text.as_str())])
            .unwrap();
    }
    pool.enqueue_tagged("ada", "t0", [(Dialect::SQL, "SELECT POISONPILL FROM t")])
        .unwrap();
    for (dialect, text) in &good[2..] {
        pool.enqueue_tagged("ada", "t0", [(*dialect, text.as_str())])
            .unwrap();
    }
    // The snapshot's inline apply hits the marker; the supervisor quarantines it and the
    // interface reflects only the healthy statements.
    let snap = read(&pool, "ada").unwrap();
    assert!(same(&snap, &replay(&good)));
    let gauge = pool.gauge();
    assert!(gauge.worker_panics >= 1);
    assert_eq!(gauge.quarantined_statements, 1);
    pool.simulate_crash().unwrap();
    drop(pool);

    // Second lifetime, same poison plan: recovery replays the journaled statement, the
    // panic fires again inside the supervised recovery path, and the quarantine repeats.
    let recovered = SessionPool::with_spill(durable_opts(&dir, marker_plan()), None);
    recovered.wait_ready();
    let snap = read(&recovered, "ada").unwrap();
    assert!(
        same(&snap, &replay(&good)),
        "recovered state must carry every healthy statement and no poison"
    );
    let gauge = recovered.gauge();
    assert!(gauge.worker_panics >= 1, "recovery re-hit the poison");
    assert!(gauge.quarantined_statements >= 1);
    assert!(gauge
        .quarantine_samples
        .iter()
        .any(|s| s.contains("POISONPILL")));
    recovered.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected I/O error on a journal fsync fails the batch *before* acknowledgement and
/// flips the journal fail-stop: nothing later acks, readiness goes red, and — the actual
/// durability point — a restart serves exactly the batches that were acked, no more.
#[test]
fn journal_fsync_failure_never_acks_then_restart_recovers_the_acked_prefix() {
    let dir = scratch("fsync-err");
    let stream: Vec<(Dialect, String)> = (0..6)
        .map(|i| (Dialect::SQL, format!("SELECT a FROM t WHERE x = {i}")))
        .collect();
    let plan = Arc::new(FaultPlan::new().with_io_error(FaultOp::JournalSync, 3));
    let pool = SessionPool::with_spill(durable_opts(&dir, Some(plan)), None);
    pool.wait_ready();
    let mut acked = 0usize;
    for (dialect, text) in &stream {
        match pool.enqueue_tagged("ada", "t0", [(*dialect, text.as_str())]) {
            Ok(_) => acked += 1,
            Err(err) => {
                assert!(matches!(err, EnqueueError::Journal(_)), "{err}");
                break;
            }
        }
    }
    assert!(acked < stream.len(), "the injected fsync error fired");
    assert!(!pool.is_ready(), "a failed journal blocks readiness");
    pool.simulate_crash().ok();
    drop(pool);

    let recovered = SessionPool::with_spill(durable_opts(&dir, None), None);
    recovered.wait_ready();
    let pooled = read(&recovered, "ada").unwrap();
    // Group commit may have made the failing batch itself durable before the fsync error
    // surfaced; anything beyond acked+1 would be an invented statement.
    assert!(
        matching_prefix(&pooled, &stream, acked, (acked + 1).min(stream.len())).is_some(),
        "restart must serve the acked prefix (possibly +1 written-not-acked)"
    );
    recovered.close();
    let _ = std::fs::remove_dir_all(&dir);
}
