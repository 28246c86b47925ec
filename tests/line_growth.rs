//! The bytes a session holds per line, checked against the allocator.
//!
//! README states what each further line of a log costs a session once its shapes are
//! known: a 5-byte class id and dialect tag per row, a 16-byte run row per mined pair, and,
//! for a pair of shapes the window meets for the first time, its change list (a 16-byte row
//! per change, a 12-byte list row and at most four 8-byte memo slots).  On a Zipf trace such
//! first meetings keep coming long after every shape is known.
//!
//! The counting global allocator of `support/counting_alloc.rs` keeps a per-thread tally of
//! live bytes.  The test streams two prefixes of `zipf_trace(40_000, 256, 0.01, 7)`, of
//! 20,000 and 40,000 lines (both past its 2,500-line warm-up), through fresh sessions at
//! windows 2 and 16, after one pass of the whole log through a session it drops (which
//! interns every string and grows this thread's aligner scratch, so neither is charged to a
//! prefix).  The live bytes the longer prefix holds beyond the shorter one are compared
//! with README's figures over the sessions' own counts.
//!
//! The allowance is for vector capacity: a buffer doubles when it fills, so it holds
//! between its length and twice that.  The buffers that grow with every line (class ids,
//! dialect tags, run rows) double their length between the two prefixes, so their live
//! bytes grow by one to two times what README's figures add.  The change lists and the
//! memo grow more slowly, so all that holds for them is that each holds at most twice its
//! length at the longer prefix and at least its length at the shorter one.
//!
//! This binary holds one test, like `footprint.rs`: a test on another thread could intern
//! a string first and move an allocation out of the count.

use precision_interfaces::graph::WindowStrategy;
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::trace::zipf_trace;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;

/// README's bytes per row: a 4-byte class id and a 1-byte dialect tag.
const ROW: f64 = 5.0;
/// README's bytes per mined pair: one run row.
const RUN: f64 = 16.0;
/// README's bytes per change of a pair met for the first time: one change row.
const CHANGE: f64 = 16.0;
/// README's bytes per pair met for the first time, besides its changes: a 12-byte list row
/// and at most four 8-byte memo slots.
const LIST: f64 = 12.0 + 4.0 * 8.0;

/// What one prefix's session holds: its live bytes and the counts README's figures read.
struct Held {
    live: f64,
    rows: f64,
    runs: f64,
    changes: f64,
    lists: f64,
}

fn hold(options: &PiOptions, lines: &[(Dialect, String)]) -> Held {
    let before = live_bytes();
    let mut session = Session::new(options.clone());
    session.push_stream_tagged(lines.iter().map(|(d, t)| (*d, t)));
    let live = (live_bytes() - before) as f64;
    let graph = session.graph();
    Held {
        live,
        rows: session.len() as f64,
        runs: graph.store().runs().len() as f64,
        changes: graph.store().rows().len() as f64,
        lists: graph.store().list_count() as f64,
    }
}

#[test]
fn each_line_costs_what_readme_states() {
    let log: Vec<(Dialect, String)> = zipf_trace(40_000, 256, 0.01, 7).collect();
    let (short, long) = (&log[..20_000], &log[..]);
    let added = (long.len() - short.len()) as f64;
    for w in [2, 16] {
        let options = PiOptions {
            window: WindowStrategy::sliding(w),
            threads: 1,
            ..PiOptions::default()
        };
        Session::new(options.clone()).push_stream_tagged(long.iter().map(|(d, t)| (*d, t)));
        let (a, b) = (hold(&options, short), hold(&options, long));
        let per_line = (ROW * (b.rows - a.rows) + RUN * (b.runs - a.runs)) / added;
        let pairs = |h: &Held| CHANGE * h.changes + LIST * h.lists;
        let first_met = (pairs(&b) - pairs(&a)) / added;
        let grown = (b.live - a.live) / added;
        let most = 2.0 * per_line + (2.0 * pairs(&b) - pairs(&a)) / added;
        println!(
            "sliding({w}): {:.2} runs and {:.4} first-met pairs ({:.2} changes) a line; \
             README: {per_line:.1} B a line for rows and runs, {first_met:.1} B for first-met \
             pairs; live bytes grew {grown:.1} B a line, at most {most:.1} allowed",
            (b.runs - a.runs) / added,
            (b.lists - a.lists) / added,
            (b.changes - a.changes) / added,
        );
        assert!(
            grown >= per_line,
            "sliding({w}): live bytes grew {grown:.1} B a line, less than README's {per_line:.1}"
        );
        assert!(
            grown <= most,
            "sliding({w}): live bytes grew {grown:.1} B a line, more than README's figures \
             with their capacity allow ({most:.1})"
        );
    }
}
