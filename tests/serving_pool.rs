//! Property tests for the multi-tenant `SessionPool`: concurrent interleaved ingest — with
//! forced LRU eviction and replay rehydration in the loop — must be invisible in every
//! tenant's snapshot.  The contract under test is the serving layer's whole correctness
//! story: a pooled, queued, evicted-and-rehydrated session yields **byte-identical**
//! interfaces to a plain single-threaded [`Session`] fed the same statements in the same
//! order (wall-clock timings excepted).
//!
//! The pool is configured adversarially: one shard (so LRU order is global and every
//! insert contends), capacity two with four tenants (so residency churns constantly), and
//! one pushing thread per tenant with mid-stream snapshots (so rehydration races live
//! ingest).  Runs under `PI_THREADS=1` and `PI_THREADS=4` in CI like every other
//! determinism property.

use precision_interfaces::core::{GeneratedInterface, PiOptions, Session};
use precision_interfaces::graph::InteractionGraph;
use precision_interfaces::server::{DurabilityOptions, EnqueueError, PoolOptions, SessionPool};
use precision_interfaces::workloads::frames::repetitive_mixed_walk;
use proptest::prelude::*;
use std::sync::Arc;

const TENANTS: usize = 4;

/// The single-threaded ground truth: one fresh session fed the tenant's statements in
/// order, snapshotted once at the end, and the graph it mined.
fn replay(
    statements: &[(precision_interfaces::ast::Dialect, String)],
) -> (GeneratedInterface, InteractionGraph) {
    let mut session = Session::new(PiOptions::default());
    for (dialect, text) in statements {
        session.push_stream_tagged([(*dialect, text)]);
    }
    (session.snapshot(), session.graph())
}

/// Compares tenant `tenant`'s pooled snapshot, and its graph read back from the pool, with
/// the solo replay.
fn assert_identical(
    tenant: usize,
    pool: &SessionPool,
    pooled: &GeneratedInterface,
    (solo, solo_graph): &(GeneratedInterface, InteractionGraph),
) {
    assert_eq!(pooled.version, solo.version, "tenant {tenant}: version");
    assert_eq!(pooled.skipped, solo.skipped, "tenant {tenant}: skipped");
    assert_eq!(pooled.dialects, solo.dialects, "tenant {tenant}: dialects");
    let pooled_graph = pool
        .graph(&format!("user-{tenant}"), "t0")
        .expect("the tenant was just read");
    assert_eq!(&pooled_graph, solo_graph, "tenant {tenant}: graph");
    assert_eq!(
        pooled.graph_stats, solo.graph_stats,
        "tenant {tenant}: graph stats"
    );
    assert_eq!(
        pooled.interface.describe(),
        solo.interface.describe(),
        "tenant {tenant}: interface"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Four tenants push concurrently through a two-seat pool; every tenant's final
    /// snapshot equals its solo replay, despite arbitrary cross-tenant interleaving,
    /// queueing, eviction and rehydration in between.
    #[test]
    fn concurrent_pooled_ingest_is_byte_identical_to_solo_replay(
        seed in 0u64..1024,
        lengths in prop::collection::vec(1usize..16, TENANTS..TENANTS + 1),
        snapshot_every in 1usize..5,
        garble in prop::collection::vec(prop::bool::ANY, TENANTS..TENANTS + 1),
    ) {
        // Each tenant's stream: a Zipf-repetitive mixed SQL + frames walk on its own seed,
        // with an unparseable statement spliced in for half the tenants (the skip counter
        // must survive eviction round-trips too).
        let streams: Vec<Vec<(precision_interfaces::ast::Dialect, String)>> = (0..TENANTS)
            .map(|t| {
                let log = repetitive_mixed_walk(seed * 31 + t as u64, lengths[t], 5);
                let mut stream: Vec<_> = log
                    .dialects
                    .iter()
                    .copied()
                    .zip(log.text.iter().cloned())
                    .collect();
                if garble[t] {
                    let dialect = stream[0].0;
                    stream.insert(stream.len() / 2, (dialect, "NOT A QUERY ((".to_string()));
                }
                stream
            })
            .collect();

        let pool = SessionPool::new(PoolOptions {
            capacity: 2, // far below TENANTS: residency churns on nearly every touch
            shards: 1,   // one global LRU order, maximal contention
            queue_depth: 256,
            workers: 2,
            ..PoolOptions::default()
        });

        std::thread::scope(|scope| {
            for (t, stream) in streams.iter().enumerate() {
                let pool: &Arc<SessionPool> = &pool;
                scope.spawn(move || {
                    let user = format!("user-{t}");
                    for (i, (dialect, text)) in stream.iter().enumerate() {
                        pool.enqueue_tagged(&user, "t0", [(*dialect, text.as_str())])
                            .expect("queue_depth is far above any stream length");
                        // Mid-stream snapshots force rehydration *during* another tenant's
                        // live ingest, not just at the quiet end.
                        if (i + 1) % snapshot_every == 0 {
                            pool.snapshot(&user, "t0").expect("tenant just pushed");
                        }
                    }
                });
            }
        });

        // Final pass: every tenant's pooled snapshot vs its solo replay.  With 4 tenants
        // in 2 seats this pass alone forces evictions and rehydrations.
        for (t, stream) in streams.iter().enumerate() {
            let pooled = pool
                .snapshot(&format!("user-{t}"), "t0")
                .expect("every tenant pushed at least one statement");
            let solo = replay(stream);
            assert_identical(t, &pool, &pooled, &solo);
        }

        // The adversarial shape really did exercise the archive: four tenants cannot have
        // shared two seats without churn.
        let gauge = pool.gauge();
        prop_assert!(gauge.evictions >= 1, "expected evictions, saw none");
        prop_assert!(gauge.rehydrations >= 1, "expected rehydrations, saw none");
        pool.close();
    }
}

/// Deterministic companion to the property: a fixed script whose eviction and rehydration
/// points are known, so a regression fails with a readable trace rather than a shrunken
/// proptest case.
#[test]
fn eviction_and_rehydration_are_invisible_in_snapshots() {
    let pool = SessionPool::new(PoolOptions {
        capacity: 2,
        shards: 1,
        queue_depth: 64,
        workers: 1,
        ..PoolOptions::default()
    });
    let streams: Vec<Vec<_>> = (0..3)
        .map(|t| {
            let log = repetitive_mixed_walk(77 + t, 8, 4);
            log.dialects
                .iter()
                .copied()
                .zip(log.text.iter().cloned())
                .collect()
        })
        .collect();
    // Round-robin single-statement pushes: every third touch evicts somebody.
    for i in 0..8 {
        for (t, stream) in streams.iter().enumerate() {
            let (dialect, text): &(_, String) = &stream[i];
            pool.enqueue_tagged(&format!("user-{t}"), "t0", [(*dialect, text.as_str())])
                .expect("queue has room");
        }
    }
    for (t, stream) in streams.iter().enumerate() {
        let pooled = pool
            .snapshot(&format!("user-{t}"), "t0")
            .expect("resident or archived");
        assert_identical(t, &pool, &pooled, &replay(stream));
    }
    let gauge = pool.gauge();
    assert!(gauge.evictions >= 1);
    assert!(gauge.rehydrations >= 1);
    pool.close();
}

/// Graceful shutdown under live load: `close()` lands in the middle of concurrent pusher
/// threads, and afterwards **no statement that was acknowledged is missing** — a pool
/// reopened over the same durable directory serves, for every tenant, state byte-identical
/// to a solo replay of exactly the statements that pusher saw acknowledged.
#[test]
fn graceful_shutdown_under_load_loses_no_acked_statement() {
    let dir = std::env::temp_dir().join(format!(
        "pi-shutdown-under-load-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = PoolOptions {
        capacity: 2, // three tenants through two seats: shutdown races eviction too
        shards: 1,
        queue_depth: 1024,
        workers: 2,
        durability: Some(DurabilityOptions::new(&dir)),
        ..PoolOptions::default()
    };
    let streams: Vec<Vec<(precision_interfaces::ast::Dialect, String)>> = (0..3)
        .map(|t| {
            let log = repetitive_mixed_walk(4242 + t, 48, 6);
            log.dialects
                .iter()
                .copied()
                .zip(log.text.iter().cloned())
                .collect()
        })
        .collect();

    let pool = SessionPool::with_spill(opts.clone(), None);
    pool.wait_ready();
    // Each pusher records the exact prefix the pool acknowledged before shutdown cut it
    // off; those are the statements the durability contract covers.
    let acked: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                let pool = &pool;
                scope.spawn(move || {
                    let user = format!("user-{t}");
                    let mut acked = 0usize;
                    for (dialect, text) in stream {
                        match pool.enqueue_tagged(&user, "t0", [(*dialect, text.as_str())]) {
                            Ok(_) => acked += 1,
                            Err(EnqueueError::ShuttingDown) => break,
                            Err(err) => panic!("unexpected enqueue error: {err}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        // Let the pushers build up momentum, then pull the rug mid-stream.
        std::thread::sleep(std::time::Duration::from_millis(30));
        pool.close();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(pool);

    let reopened = SessionPool::with_spill(opts, None);
    reopened.wait_ready();
    for (t, stream) in streams.iter().enumerate() {
        if acked[t] == 0 {
            continue;
        }
        let pooled = reopened
            .snapshot(&format!("user-{t}"), "t0")
            .expect("acked tenants survive the restart");
        assert_identical(t, &reopened, &pooled, &replay(&stream[..acked[t]]));
    }
    reopened.close();
    let _ = std::fs::remove_dir_all(&dir);
}
