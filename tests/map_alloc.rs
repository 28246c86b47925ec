//! Allocation budget for mapping: heap allocations per `Session::snapshot`, counted exactly.
//!
//! The counting global allocator of `support/counting_alloc.rs` keeps a per-thread tally of
//! allocation calls (`alloc`, `alloc_zeroed` and `realloc`).  The test mines four fixed
//! `zipf_trace` logs uncounted, each the way the `mine_distinct` benchmark does: a fresh
//! session at `sliding(16)`, one thread, 64-line pushes.  Only the `Session::snapshot` call
//! that follows is counted: the column build, Algorithms 1–3, the widgets' domains and the
//! cached interface's clone.  The per-record columns are this thread's, reused from one
//! mapping to the next, so only the first snapshot grows them.  Counts repeat exactly from
//! run to run, so the budget guards the mapper's allocation diet without timing noise.
//!
//! This binary holds one test, like `parse_alloc.rs`: a test on another thread could
//! intern a string or grow shared state first and move an allocation out of the count.

use precision_interfaces::graph::WindowStrategy;
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::trace::zipf_trace;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// Most allocations one snapshot of a corpus log may make: the measured 778.2 (815.8
/// before the column build read interned ids and the per-record columns were reused across
/// mappings; 1627.0 before the merge passes reused their buffers and skipped unchanged
/// steps).
const BUDGET: f64 = 780.0;

/// Lines per push: the `mine_distinct` benchmark pushes each log 64 lines at a time.
const BATCH: usize = 64;

#[test]
fn mapping_stays_within_its_allocation_budget() {
    let options = PiOptions {
        window: WindowStrategy::sliding(16),
        threads: 1,
        ..PiOptions::default()
    };
    let mut allocated = 0;
    let logs = 21..=24;
    for seed in logs.clone() {
        let log: Vec<(Dialect, String)> = zipf_trace(1024, 1024, 0.01, seed).collect();
        let mut session = Session::new(options.clone());
        for batch in log.chunks(BATCH) {
            session.push_stream_tagged(batch.iter().map(|(d, t)| (*d, t)));
        }
        let before = allocations();
        let snapshot = session.snapshot();
        allocated += allocations() - before;
        assert!(!snapshot.interface.widgets().is_empty());
    }
    let per_snapshot = allocated as f64 / logs.count() as f64;
    println!("{allocated} allocations over four snapshots: {per_snapshot:.1} each");
    assert!(
        per_snapshot <= BUDGET,
        "a snapshot allocates {per_snapshot:.1} times, over its budget of {BUDGET}"
    );
}
