//! Mining a mixed SQL + dataframe query log into ONE interface.
//!
//! An analyst flips between a SQL console and a notebook while chasing one question.  The
//! two front-ends (`pi-sql`, `pi-frames`) target the same tree model, so the structurally
//! identical queries diff cleanly against each other regardless of surface language: the
//! interleaved log mines into a single interaction graph and a single widget set, and every
//! widget option — and the initial query — renders in the dialect its query arrived in.
//!
//! ```sh
//! cargo run --example mixed_frontends
//! ```

use precision_interfaces::prelude::*;

fn main() {
    // The interleaved stream: the same OLAP analysis, half typed as SQL, half as method
    // chains, plus one garbled notebook line the session skips.
    let stream: [(Dialect, &str); 7] = [
        (
            Dialect::SQL,
            "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
        ),
        (
            Dialect::FRAMES,
            "ontime.filter(Month == 8).groupby(DestState).agg(COUNT(Delay))",
        ),
        (
            Dialect::SQL,
            "SELECT AVG(Delay), DestState FROM ontime WHERE Month = 8 GROUP BY DestState",
        ),
        (Dialect::FRAMES, "ontime.filter(Month == ).groupby("), // garbled mid-typing
        (
            Dialect::FRAMES,
            "ontime.filter(Month == 3).groupby(DestState).agg(AVG(Delay))",
        ),
        (
            Dialect::SQL,
            "SELECT AVG(Delay), Carrier FROM ontime WHERE Month = 3 GROUP BY Carrier",
        ),
        (
            Dialect::FRAMES,
            "ontime.filter(Month == 1).groupby(Carrier).agg(AVG(Delay))",
        ),
    ];

    let mut session = Session::new(PiOptions::default());
    session.push_stream_tagged(stream);
    let snapshot = session.snapshot();
    println!(
        "mined {} queries ({} skipped) from {} dialects into one interface:\n{}",
        snapshot.version,
        snapshot.skipped,
        {
            let mut dialects: Vec<&str> = snapshot.dialects.iter().map(|d| d.name()).collect();
            dialects.sort_unstable();
            dialects.dedup();
            dialects.len()
        },
        snapshot.interface.describe()
    );
    assert!(snapshot.interface.expressiveness(&snapshot.queries) >= 1.0);

    // Every widget option remembers the front-end its value arrived through and renders
    // with that front-end's renderer.
    let frontends = standard_frontends();
    for widget in snapshot.interface.widgets() {
        println!("widget @ {}:", widget.path);
        for (subtree, dialect) in widget.domain.tagged_subtrees() {
            println!("  [{dialect:>6}] {}", frontends.render(dialect, subtree));
        }
    }

    // The compiled web page embeds the same per-dialect renderings in its JSON spec.
    let layout = EditorLayout::new(&snapshot.interface, 2);
    let html = compile_html(&snapshot.interface, &layout, "mixed-dialect explorer");
    println!(
        "\ncompiled HTML: {} bytes, initial query in {}:\n{}",
        html.len(),
        snapshot.interface.initial_dialect(),
        frontends.render(
            snapshot.interface.initial_dialect(),
            snapshot.interface.initial_query()
        )
    );

    // Cross-dialect identity is what makes this work: the same analysis parses to the
    // same tree through either front-end.
    let sql = SqlFrontend
        .parse_one("SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState")
        .unwrap();
    let frames = FramesFrontend
        .parse_one("ontime.filter(Month == 9).groupby(DestState).agg(COUNT(Delay))")
        .unwrap();
    assert_eq!(sql, frames);
    println!("\nSQL and frames spellings of one analysis parse to one tree: true");
}
