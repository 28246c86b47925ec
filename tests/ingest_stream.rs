//! Tier-1 smoke test for trace-scale streaming ingest: a 10⁵-line Zipf trace streams
//! through `Session::push_stream_tagged` and the session's memory footprint must stay
//! bounded — log storage collapses to the distinct-shape arena, and everything that does
//! grow per row (class ids, dialect tags, window-bounded mined records) grows by a small
//! *constant* per row, never per-query trees.
//!
//! The mining window is kept minimal (`sliding(2)`) so the test is about the *ingest*
//! path — chunked extends, the parse cache, skip-and-count, arena-backed log storage —
//! and stays fast in debug builds.  `memory_footprint()` covers mined state too (the pair
//! table and the alignment memo): change lists and the memo grow only with new shape
//! pairs, and each admitted pair adds one 16-byte run row, so streaming the second half
//! of the trace may not double the halfway footprint — superlinear retention
//! (per-duplicate trees, an unbounded memo) would blow straight through that bound.

use precision_interfaces::graph::WindowStrategy;
use precision_interfaces::prelude::*;

#[test]
fn streaming_a_hundred_thousand_line_trace_keeps_the_footprint_bounded() {
    const LINES: usize = 100_000;
    const WARM: usize = LINES / 2;

    let mut session = Session::new(PiOptions {
        window: WindowStrategy::sliding(2),
        ..PiOptions::default()
    });
    let mut trace = pi_workloads::trace::zipf_trace(LINES, 256, 0.01, 7);
    let pool = trace.pool_size();

    let warm_appended = session.push_stream_tagged(trace.by_ref().take(WARM));
    let warm_footprint = session.memory_footprint();
    assert!(warm_appended > 0 && warm_footprint > 0);

    let appended = warm_appended + session.push_stream_tagged(trace.by_ref());
    let footprint = session.memory_footprint();

    // Every line was either appended or skipped as garbage, and the garbage was sampled.
    assert_eq!(appended + session.skipped(), LINES);
    assert_eq!(session.skipped(), trace.garbage_emitted());
    assert_eq!(session.parse_errors().seen(), trace.garbage_emitted());

    // The log collapsed to the shape pool: the arena holds distinct trees, not rows.
    assert!(
        session.distinct() <= pool,
        "{} distinct trees from a {pool}-shape pool",
        session.distinct()
    );

    // The bounded-memory contract: the shape pool (and with it the arena and the alignment
    // memo) is fully introduced early in the trace, so the second half of the stream adds
    // only per-row constants — bookkeeping bytes and window-bounded record rows.  Anything
    // superlinear, or any per-duplicate tree retention, doubles the halfway footprint.
    assert!(
        footprint <= 2 * warm_footprint,
        "footprint doubled across the stream: {warm_footprint} -> {footprint} bytes"
    );
    // And an absolute sanity bound: the whole estimate lands around 15 MiB (arena, parse
    // cache, memo, change lists, and a run row per admitted pair); a retained per-query
    // tree (~30 nodes × 128 bytes × 10⁵ rows) would blow far past this.
    assert!(
        footprint < 48 << 20,
        "footprint {footprint} bytes is not trace-scale bounded"
    );
}
