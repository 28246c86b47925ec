//! `Session::memory_footprint` checked against the allocator.
//!
//! The counting global allocator of `support/counting_alloc.rs` keeps a per-thread tally of
//! live bytes (allocated minus freed).  The test first streams each log through a session it
//! drops, which interns every string of the log in the process-wide string arena and grows
//! this thread's aligner scratch, so neither is charged to the session measured next.  It
//! then streams the log again through a fresh session and compares the footprint with the
//! live bytes the session holds: `zipf_trace(20_000, 256, 0.01, 7)` at windows 2 and 16.
//!
//! This binary holds one test, like `parse_alloc.rs`: a test on another thread could
//! intern a string first and move an allocation out of the count.

use precision_interfaces::graph::WindowStrategy;
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::trace::zipf_trace;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;

/// How far the footprint may read from the live bytes, as a share of them.
const BAND: f64 = 0.25;

#[test]
fn the_footprint_reads_the_live_bytes_a_session_holds() {
    let log: Vec<(Dialect, String)> = zipf_trace(20_000, 256, 0.01, 7).collect();
    let lines = || log.iter().map(|(d, t)| (*d, t));
    for w in [2, 16] {
        let options = PiOptions {
            window: WindowStrategy::sliding(w),
            threads: 1,
            ..PiOptions::default()
        };
        Session::new(options.clone()).push_stream_tagged(lines());
        let before = live_bytes();
        let mut session = Session::new(options);
        session.push_stream_tagged(lines());
        let live = (live_bytes() - before) as f64;
        let footprint = session.memory_footprint() as f64;
        let ratio = footprint / live;
        println!(
            "sliding({w}): footprint {:.2} MiB, live {:.2} MiB, ratio {ratio:.3}",
            footprint / 1048576.0,
            live / 1048576.0
        );
        assert!(
            (1.0 - BAND..=1.0 + BAND).contains(&ratio),
            "sliding({w}): the footprint reads {ratio:.3} of the live bytes"
        );
    }
}
