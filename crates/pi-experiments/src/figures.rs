//! One function per table / figure of the paper's evaluation.

use crate::ExperimentReport;
use pi_ast::Frontend as _;
use pi_core::precision::{closure_precision, filtered_closure, SchemaMap};
use pi_core::recall::{cross_recall, holdout_recall, recall_curve, split_log};
use pi_core::{PiOptions, PrecisionInterfaces};
use pi_diff::{extract_changes, AncestorPolicy};
use pi_graph::WindowStrategy;
use pi_widgets::fit::fit_cost;
use pi_widgets::{CostFunction, WidgetType};
use pi_workloads::{adhoc, mix, olap, sdss, traces, QueryLog};
use std::time::Instant;

/// The schema used by the precision experiments: the SDSS subset plus OnTime.
fn schema_map() -> SchemaMap {
    let mut schema = SchemaMap::new();
    for (table, columns) in sdss::schema() {
        schema.add_table(table, columns.iter().copied());
    }
    for (table, columns) in olap::schema() {
        schema.add_table(table, columns.iter().copied());
    }
    schema
}

fn default_pipeline() -> PrecisionInterfaces {
    PrecisionInterfaces::default()
}

fn training_sizes() -> Vec<usize> {
    vec![1, 2, 5, 10, 20, 50, 100]
}

// ---------------------------------------------------------------------------- Table 1

/// Table 1: the `diffs` records for the two Figure 3 queries.
pub fn table1() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table1",
        "diffs records for the Figure 3 query pair",
        "two str-typed leaf records (ColExpr sales→costs @0/1/0, StrExpr USA→EUR) plus tree-typed ancestors",
    );
    let q1 = pi_sql::SqlFrontend
        .parse_one("SELECT day, sales FROM t WHERE cty = 'USA'")
        .unwrap();
    let q2 = pi_sql::SqlFrontend
        .parse_one("SELECT day, costs FROM t WHERE cty = 'EUR'")
        .unwrap();
    for change in extract_changes(&q1, &q2, AncestorPolicy::Full) {
        report.push(format!(
            "q1=1 q2=2 p={:<8} {:<30} type={}",
            change.path.to_string(),
            change.summary(),
            change.primitive()
        ));
    }
    report
}

// ---------------------------------------------------------------------------- Example 4.4

/// Example 4.4: widget cost functions fitted from (simulated) timing traces.
pub fn cost_fit() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "cost-fit",
        "widget cost functions fitted from interaction timing traces",
        "c_dropdown(n) = 276 + 125·n + 0.07·n², c_textbox(n) = 4790; dropdown/textbox crossover near n≈35",
    );
    let sizes = traces::default_sizes();
    for ty in WidgetType::all() {
        let trace = traces::simulate_trace(ty, &sizes, 10, 42);
        let fitted = fit_cost(&trace);
        report.push(format!(
            "{:>13}: fitted c(n) = {:7.1} + {:6.2}·n + {:5.3}·n²   (c(3)={:6.0}ms, c(30)={:6.0}ms)",
            ty.to_string(),
            fitted.a0,
            fitted.a1,
            fitted.a2,
            fitted.eval(3),
            fitted.eval(30)
        ));
    }
    let dropdown = fit_cost(&traces::simulate_trace(
        WidgetType::Dropdown,
        &sizes,
        10,
        42,
    ));
    let crossover = dropdown.crossover_with(&CostFunction::paper_textbox());
    report.push(format!(
        "dropdown/textbox crossover at n = {:?} (paper: ≈ 34-36)",
        crossover
    ));
    report
}

// ---------------------------------------------------------------------------- Figure 5

/// Figure 5: the widget sets generated for the §7.1 example logs (Listings 4–7).
pub fn fig5() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig5",
        "widgets mapped to the §7.1 example logs",
        "5a: dropdown+slider; 5b: one whole-query choice; 5c: per-component widgets; 5d: TOP toggle+slider; 5e: subquery toggle + inner widgets",
    );
    let cases: Vec<(&str, &str, PiOptions)> = vec![
        (
            "5a (Listing 4: parameter changes in a complex query)",
            "SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 3) WHERE cust = 'Alice' AND country = 'China' GROUP BY spec_ts;
             SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 5) WHERE cust = 'Bob' AND country = 'China' GROUP BY spec_ts;
             SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 9) WHERE cust = 'Carol' AND country = 'China' GROUP BY spec_ts;
             SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 7) WHERE cust = 'Alice' AND country = 'China' GROUP BY spec_ts;",
            PiOptions::default(),
        ),
        (
            "5b (Listing 5 left: three trivial queries)",
            "SELECT avg(a); SELECT count(b); SELECT count(c);",
            PiOptions {
                window: WindowStrategy::AllPairs,
                ..PiOptions::default()
            },
        ),
        (
            "5c (Listing 5 right: thirteen trivial queries)",
            "SELECT avg(a); SELECT count(b); SELECT count(c); SELECT avg(b); SELECT count(a);
             SELECT avg(c); SELECT avg(d); SELECT avg(e); SELECT count(d); SELECT count(e);
             SELECT count(b); SELECT count(c); SELECT avg(a);",
            PiOptions {
                window: WindowStrategy::AllPairs,
                ..PiOptions::default()
            },
        ),
        (
            "5d (Listing 6: TOP clause added then modified)",
            "SELECT g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
             SELECT TOP 1 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
             SELECT TOP 10 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
             SELECT TOP 5 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;",
            PiOptions::default(),
        ),
        (
            "5e (Listing 7: subquery added then modified)",
            "SELECT * FROM T;
             SELECT * FROM (SELECT a FROM T WHERE b > 10);
             SELECT * FROM (SELECT a FROM T WHERE b > 20);
             SELECT * FROM (SELECT b FROM T WHERE b > 20);",
            PiOptions::default(),
        ),
    ];
    for (label, log, options) in cases {
        let generated = PrecisionInterfaces::new(options).from_sql_log(log).unwrap();
        report.push(format!("--- {label}"));
        for line in generated.interface.describe().lines() {
            report.push(line.to_string());
        }
        report.push(format!(
            "    expressiveness over the input log: {:.2}",
            generated.interface.expressiveness(&generated.queries)
        ));
    }
    report
}

// ---------------------------------------------------------------------------- Figure 6

/// Figure 6a: hold-out recall vs number of training queries for single-client SDSS logs.
pub fn fig6a() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig6a",
        "recall vs training size, 9 single-client SDSS logs (200-query windows, 100 hold-out)",
        "≈10 training queries reach full recall for most clients, ~50 for the rest; one slow client whose literals keep changing",
    );
    let options = PiOptions::default();
    let sizes = training_sizes();
    report.push(format!("training sizes: {sizes:?}"));
    for (i, log) in sdss::client_logs(9, 200).iter().enumerate() {
        let curve = recall_curve(&log.queries, &sizes, 100, &options);
        let rendered: Vec<String> = curve
            .iter()
            .map(|p| format!("{}:{:.2}", p.training, p.recall))
            .collect();
        report.push(format!(
            "client C{:<2} [{:<18}]  {}",
            i + 1,
            log.label,
            rendered.join("  ")
        ));
    }
    report
}

/// Figure 6b: the interface generated for SDSS client C1.
pub fn fig6b() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig6b",
        "widgets generated for SDSS client C1 (object lookups)",
        "widgets to change the table, the id attribute, and the numeric object id",
    );
    let log = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 0, 100);
    let generated = default_pipeline().from_queries(log.queries.clone());
    for line in generated.interface.describe().lines() {
        report.push(line.to_string());
    }
    report.push(format!(
        "expressiveness over the client log: {:.2}",
        generated.interface.expressiveness(&log.queries)
    ));
    report
}

/// Figure 6c: recall curves for the OLAP random-walk log and the ad-hoc exploration log.
pub fn fig6c() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig6c",
        "recall vs training size: synthetic OLAP walk vs ad-hoc exploration",
        "OLAP recall climbs with ~100 training queries; ad-hoc recall stays low (≈20% at 100 training queries)",
    );
    let options = PiOptions::default();
    let sizes = training_sizes();
    let olap_log = olap::random_walk(1, 200);
    let olap_curve = recall_curve(&olap_log.queries, &sizes, 100, &options);
    report.push(format!(
        "OLAP   {}",
        olap_curve
            .iter()
            .map(|p| format!("{}:{:.2}", p.training, p.recall))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    // Average over three "students".
    let mut adhoc_points = vec![0.0; sizes.len()];
    let students = 3;
    for s in 0..students {
        let log = adhoc::exploration_log(s as u64, 200);
        let curve = recall_curve(&log.queries, &sizes, 100, &options);
        for (i, p) in curve.iter().enumerate() {
            adhoc_points[i] += p.recall / students as f64;
        }
    }
    report.push(format!(
        "ad-hoc {}",
        sizes
            .iter()
            .zip(adhoc_points)
            .map(|(n, r)| format!("{n}:{r:.2}"))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    report
}

/// Figure 6d: the interface generated from the first 100 OLAP queries.
pub fn fig6d() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig6d",
        "widgets generated for the synthetic OLAP log (first 100 queries)",
        "choice widgets for the aggregation and grouping clauses, sliders for the predicate values",
    );
    let log = olap::random_walk(1, 100);
    let generated = default_pipeline().from_queries(log.queries.clone());
    for line in generated.interface.describe().lines() {
        report.push(line.to_string());
    }
    let numeric = generated
        .interface
        .widgets()
        .iter()
        .filter(|w| {
            matches!(
                w.ty,
                WidgetType::Slider | WidgetType::RangeSlider | WidgetType::Textbox
            )
        })
        .count();
    let choices = generated.interface.widgets().len() - numeric;
    report.push(format!(
        "{numeric} numeric widgets for predicate values, {choices} choice widgets for clause changes"
    ));
    report
}

// ---------------------------------------------------------------------------- Figure 7

fn multi_client_logs(m: usize, per_client: usize) -> Vec<QueryLog> {
    sdss::client_logs(m, per_client)
}

/// Figure 7a: multi-client recall as the *total* number of training queries grows.
pub fn fig7a() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7a",
        "multi-client SDSS recall vs total training queries (M interleaved clients, 50 hold-out)",
        "recall rises slowly with the total training budget because each client contributes few examples",
    );
    let options = PiOptions::default();
    let totals = [5usize, 10, 20, 40, 60, 100];
    for m in [1usize, 3, 5, 8] {
        let mixed = mix::interleave(&multi_client_logs(m, 200), m as u64);
        let split = split_log(&mixed.queries, 50);
        let mut line = format!("M={m}: ");
        for &total in &totals {
            let n = total.min(split.train.len());
            let (recall, _) = holdout_recall(&split.train[..n], split.holdout, &options);
            line.push_str(&format!("{total}:{recall:.2}  "));
        }
        report.push(line);
    }
    report
}

/// Figure 7b: multi-client recall as the number of training queries *per client* grows.
pub fn fig7b() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7b",
        "multi-client SDSS recall vs training queries per client",
        "recall rises rapidly once each client contributes a few dozen examples (each client alone is simple)",
    );
    let options = PiOptions::default();
    let per_client_sizes = [2usize, 5, 10, 20, 40];
    for m in [1usize, 3, 5, 8] {
        let logs = multi_client_logs(m, 200);
        // Hold out the tail of each client's log.
        let holdout: Vec<pi_ast::Node> = logs
            .iter()
            .flat_map(|l| l.queries[l.len() - 50 / m.max(1) - 1..].to_vec())
            .collect();
        let mut line = format!("M={m}: ");
        for &per_client in &per_client_sizes {
            let train = mix::interleave_prefixes(&logs, per_client, m as u64);
            let (recall, _) = holdout_recall(&train.queries, &holdout, &options);
            line.push_str(&format!("{per_client}/client:{recall:.2}  "));
        }
        report.push(line);
    }
    report
}

/// The pairwise cross-client recall matrix shared by Figures 7c, 9 and 10.
fn cross_client_matrix(clients: usize, per_client: usize) -> Vec<Vec<f64>> {
    let options = PiOptions::default();
    let logs = sdss::client_logs(clients, per_client);
    let mut matrix = vec![vec![0.0; clients]; clients];
    for (i, train) in logs.iter().enumerate() {
        for (j, other) in logs.iter().enumerate() {
            if i == j {
                matrix[i][j] = 1.0;
                continue;
            }
            matrix[i][j] = cross_recall(&train.queries, &other.queries, &options);
        }
    }
    matrix
}

/// Figure 7c: how many other clients each client's interface benefits (recall > 0.5).
pub fn fig7c() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7c",
        "cross-client benefit histogram (22 clients × 100 queries)",
        "most training clients benefit at least one other client; several benefit six or more",
    );
    let matrix = cross_client_matrix(22, 100);
    let mut histogram = std::collections::BTreeMap::new();
    for (i, row) in matrix.iter().enumerate() {
        let benefited = row
            .iter()
            .enumerate()
            .filter(|(j, recall)| *j != i && **recall > 0.5)
            .count();
        *histogram.entry(benefited).or_insert(0usize) += 1;
    }
    for (benefited, clients) in histogram {
        report.push(format!(
            "interfaces benefiting {benefited:>2} other clients: {clients} training clients"
        ));
    }
    report
}

/// Figure 9: the full pairwise recall matrix.
pub fn fig9() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig9",
        "pairwise cross-client recall matrix (rows = training client, cols = hold-out client)",
        "block structure: high recall within an analysis archetype, near zero across archetypes",
    );
    let matrix = cross_client_matrix(22, 100);
    for (i, row) in matrix.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|r| format!("{:.0}", r * 9.0)).collect();
        report.push(format!("C{:<2} {}", i + 1, cells.join(" ")));
    }
    report.push("(cells are recall scaled to 0-9)".to_string());
    report
}

/// Figure 10: histogram of hold-out recall values (bimodal).
pub fn fig10() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig10",
        "histogram of cross-client hold-out recall",
        "bimodal: an interface either fully expresses another client's queries (recall ≈ 1) or not at all (recall ≈ 0)",
    );
    let matrix = cross_client_matrix(22, 100);
    let mut buckets = [0usize; 11];
    for (i, row) in matrix.iter().enumerate() {
        for (j, recall) in row.iter().enumerate() {
            if i != j {
                buckets[(recall * 10.0).round() as usize] += 1;
            }
        }
    }
    for (bucket, count) in buckets.iter().enumerate() {
        report.push(format!(
            "recall {:.1}: {count:>4} client pairs",
            bucket as f64 / 10.0
        ));
    }
    report
}

// ---------------------------------------------------------------------------- runtime

/// Figure 11: effect of the sliding-window size and LCA pruning on edges and runtime.
pub fn fig11() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig11",
        "interaction-graph size and runtime vs window size × LCA pruning (per-client logs, ~100 queries)",
        "LCA pruning shrinks the graph by up to ~5×; window=2 drives runtime to near zero; output interfaces unchanged",
    );
    let log = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 3, 100);
    for policy in [AncestorPolicy::Full, AncestorPolicy::LcaPruned] {
        for window in [2usize, 5, 10, 25, 50, 100] {
            let options = PiOptions {
                window: WindowStrategy::Sliding(window),
                policy,
                ..PiOptions::default()
            };
            let start = Instant::now();
            let generated = PrecisionInterfaces::new(options).from_queries(log.queries.clone());
            let total_ms = start.elapsed().as_secs_f64() * 1e3;
            report.push(format!(
                "policy={policy:?} window={window:>3}: records={:>6} edges={:>5} mining={:6.1}ms mapping={:6.1}ms total={:6.1}ms widgets={}",
                generated.graph_stats.diff_records,
                generated.graph_stats.edges,
                generated.timings.mining_ms,
                generated.timings.mapping_ms,
                total_ms,
                generated.interface.widgets().len()
            ));
        }
    }
    report
}

/// Figure 12: scalability with log size (window = 2, LCA pruning on).
pub fn fig12() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig12",
        "scalability with log size (window = 2, LCA pruning)",
        "10,000 queries processed within 10 seconds; ~2,000 queries within ~3 seconds",
    );
    let clients = sdss::client_logs(20, 500);
    let full = mix::interleave(&clients, 1);
    for size in [1000usize, 2000, 5000, 10_000] {
        let queries = full.queries[..size.min(full.len())].to_vec();
        let start = Instant::now();
        let generated = default_pipeline().from_queries(queries);
        let total_s = start.elapsed().as_secs_f64();
        report.push(format!(
            "|Q|={size:>6}: edges={:>6} records={:>7} mining={:7.1}ms mapping={:7.1}ms total={:6.2}s widgets={}",
            generated.graph_stats.edges,
            generated.graph_stats.diff_records,
            generated.timings.mining_ms,
            generated.timings.mapping_ms,
            total_s,
            generated.interface.widgets().len()
        ));
    }
    report
}

// ---------------------------------------------------------------------------- precision

/// Figure 15 (Appendix D): closure precision vs number of interleaved clients.
pub fn fig15() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig15",
        "closure precision vs number of interleaved clients, with and without the schema filter",
        "precision drops from ≈30% (M=1..) towards ≈1% at M=8 without a filter; the column→table filter restores 100%",
    );
    let schema = schema_map();
    for m in [1usize, 3, 5, 8] {
        let logs = sdss::client_logs(m, 100);
        let mixed = mix::interleave(&logs, m as u64);
        let generated = default_pipeline().from_queries(mixed.queries.clone());
        let closure = generated.interface.enumerate_closure(20_000);
        let unfiltered = closure_precision(&generated.interface, &schema, 20_000);
        let filtered = filtered_closure(&generated.interface, &schema, 20_000);
        report.push(format!(
            "M={m}: closure={:>6} queries  precision(no filter)={:.2}  precision(filtered)=1.00  filtered size={}",
            closure.len(),
            unfiltered,
            filtered.len()
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6b_interface_covers_its_log() {
        let report = fig6b();
        assert!(report.lines.iter().any(|l| l.contains("expressiveness")));
        assert!(report
            .lines
            .iter()
            .any(|l| l.contains("1.00") || l.contains("0.9")));
    }

    #[test]
    fn fig15_precision_drops_with_heterogeneity() {
        let report = fig15();
        let precisions: Vec<f64> = report
            .lines
            .iter()
            .filter_map(|l| {
                l.split("precision(no filter)=")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
            })
            .collect();
        assert_eq!(precisions.len(), 4);
        // Mixing more clients never increases precision, and it ends well below 1.
        assert!(precisions.last().unwrap() < &0.7);
        assert!(precisions.first().unwrap() >= precisions.last().unwrap());
    }
}
