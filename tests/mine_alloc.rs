//! Allocation budget for mining: heap allocations per alignment, counted exactly.
//!
//! The counting global allocator of `support/counting_alloc.rs` keeps a per-thread tally of
//! allocation calls (`alloc`, `alloc_zeroed` and `realloc`).  The test parses four fixed
//! `zipf_trace` logs uncounted, then mines each the way a session does: a fresh
//! accumulator, `sliding(16)` pairs, 64-query `GraphBuilder::extend_batch` calls.  Only the
//! `extend_batch` calls are counted, and the total is divided by the memo's alignments, so
//! the figure charges a memo miss with everything mining allocates: the aligner's working
//! state, the change table's growth, the run rows, the memo and the dedup table.
//! `threads(1)` keeps every alignment on the counting thread, and counts repeat exactly from
//! run to run, so the budget guards the aligner's allocation diet without timing noise.
//!
//! This binary holds one test, like `parse_alloc.rs`: a test on another thread could
//! intern a string or grow shared state first and move an allocation out of the count.

use precision_interfaces::ast::ErrorSample;
use precision_interfaces::graph::{GraphAccumulator, GraphBuilder, WindowStrategy};
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::trace::zipf_trace;

/// Most allocations mining may make per alignment over the corpus: the measured 0.018,
/// almost all of it the amortised growth of the tables mining appends to (before the
/// aligner reused its working state and wrote changes straight into the change table, a
/// memo miss built a fresh scratch, a leaf vector and a change vector: 8.59).
const BUDGET: f64 = 0.02;

/// Queries per `extend_batch`: the `mine_distinct` benchmark pushes each log to its session
/// 64 lines at a time.
const BATCH: usize = 64;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// Parses one trace log in order, each line with its dialect's front-end.
fn parse_log(seed: u64) -> Vec<Node> {
    let frontends = standard_frontends();
    let mut errors = ErrorSample::new(0);
    let mut nodes = Vec::new();
    for (dialect, text) in zipf_trace(1024, 1024, 0.0, seed) {
        let frontend = frontends.get(dialect).expect("registered");
        frontend.parse_statements_lossy(&text, &mut nodes, &mut errors);
    }
    nodes
}

#[test]
fn mining_stays_within_its_allocation_budget() {
    let logs: Vec<Vec<Node>> = (21..=24).map(parse_log).collect();
    let builder = GraphBuilder::new()
        .window(WindowStrategy::sliding(16))
        .threads(1);
    let (mut alignments, mut allocated) = (0, 0);
    for log in &logs {
        assert_eq!(log.len(), 1024, "every trace line parses");
        let mut acc = GraphAccumulator::new();
        for batch in log.chunks(BATCH) {
            let before = allocations();
            builder.extend_batch(&mut acc, batch.iter().cloned());
            allocated += allocations() - before;
        }
        alignments += acc.memo().alignments();
    }
    let per_alignment = allocated as f64 / alignments as f64;
    println!("{allocated} allocations over {alignments} alignments: {per_alignment:.3} each");
    assert!(
        per_alignment <= BUDGET,
        "mining allocates {per_alignment:.3} times an alignment, over its budget of {BUDGET}"
    );
}
