//! Quickstart: generate an interface from a small OLAP query log, inspect its widgets, and
//! run its initial query through the bundled execution engine.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use precision_interfaces::prelude::*;

fn main() {
    // A miniature analysis log in the style of the paper's Listing 2: the analyst keeps the
    // query shape fixed and varies the aggregate, the month filter, and the grouping column.
    let log = "
        SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState;
        SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 8 AND Day = 3 GROUP BY DestState;
        SELECT AVG(Delay), DestState FROM ontime WHERE Month = 8 AND Day = 3 GROUP BY DestState;
        SELECT AVG(Delay), DestState FROM ontime WHERE Month = 8 AND Day = 12 GROUP BY DestState;
        SELECT AVG(Delay), Carrier FROM ontime WHERE Month = 8 AND Day = 12 GROUP BY Carrier;
        SELECT SUM(Delay), Carrier FROM ontime WHERE Month = 2 AND Day = 12 GROUP BY Carrier;
    ";

    // 1. Mine the log and map it to widgets.
    let generated = PrecisionInterfaces::default()
        .from_sql_log(log)
        .expect("the log parses");
    println!("generated interface:\n{}", generated.interface.describe());
    println!(
        "covers the whole input log: {}",
        generated.interface.expressiveness(&generated.queries) >= 1.0
    );
    println!("pipeline timings: {}", generated.timings);

    // 2. The interface starts at the first query of the log; execute and render it.
    let catalog = Catalog::demo(42);
    let result = exec(generated.interface.initial_query(), &catalog).expect("query runs");
    println!(
        "\ninitial query:\n{}",
        SqlFrontend.render(generated.interface.initial_query())
    );
    println!("\n{}", render(&result));

    // 3. Probe generalisation: is an unseen month/grouping combination expressible?  For this
    //    log the greedy merger (Algorithm 3) collapses everything into one whole-query radio —
    //    cheaper than the five fine-grained widgets, but it only replays logged queries, so the
    //    probe reports false.  Disabling merging (`MapperOptions { enable_merging: false }`)
    //    keeps the sliders/drop-downs and makes the unseen combination expressible.
    let unseen = SqlFrontend
        .parse_one(
            "SELECT AVG(Delay), Carrier FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY Carrier",
        )
        .unwrap();
    println!(
        "unseen query expressible through the widgets: {}",
        generated.interface.can_express(&unseen)
    );
}
