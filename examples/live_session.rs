//! Streaming ingestion: feed an analyst's queries into a [`Session`] one at a time, as they
//! would arrive from a live connection, and refresh the interface after each append.
//!
//! Each `push_stream_tagged` call runs only the new tree alignments the sliding window
//! admits (`O(w)` per query, however long the session gets), and each `snapshot()` is
//! byte-identical to a batch build of the same prefix — the interface simply *refines* as
//! evidence accumulates.
//!
//! ```sh
//! cargo run --example live_session
//! ```

use precision_interfaces::prelude::*;

fn main() {
    // The analyst's stream, in arrival order: an OLAP exploration that varies the month
    // filter, then the aggregate, then the grouping column.  One statement arrives garbled
    // (a client-side typo) — the session skips it and keeps streaming.
    let stream = [
        "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
        "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 8 GROUP BY DestState",
        "SELECT COUNT(Delay), DestState FROM ontime WHERE Mnoth = ", // garbled mid-typing
        "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 3 GROUP BY DestState",
        "SELECT AVG(Delay), DestState FROM ontime WHERE Month = 3 GROUP BY DestState",
        "SELECT AVG(Delay), Carrier FROM ontime WHERE Month = 3 GROUP BY Carrier",
    ];

    let mut session = Session::new(PiOptions::default());
    for sql in stream {
        let appended = session.push_stream_tagged([(Dialect::SQL, sql)]);
        let snapshot = session.snapshot();
        println!(
            "v{} | {:>7} | {} queries, {} skipped, {} edges, {} widgets",
            snapshot.version,
            if appended == 0 { "skipped" } else { "ingested" },
            snapshot.queries.len(),
            snapshot.skipped,
            snapshot.graph_stats.edges,
            snapshot.interface.widgets().len(),
        );
    }

    let final_snapshot = session.snapshot();
    println!(
        "\nfinal interface:\n{}",
        final_snapshot.interface.describe()
    );
    println!("accumulated timings: {}", final_snapshot.timings);

    // The streaming path and the batch path are one code path: rebuilding from the full log
    // in one shot yields the identical interface.
    let batch = PrecisionInterfaces::default()
        .from_sql_log(&stream.join(";\n"))
        .expect("the stream contains parsable queries");
    assert_eq!(batch.version, final_snapshot.version);
    assert_eq!(
        batch.interface.describe(),
        final_snapshot.interface.describe()
    );
    println!("\nbatch rebuild of the same log is identical: true");
}
