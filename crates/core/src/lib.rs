//! # pi-core — Precision Interfaces: interface generation from query logs
//!
//! This crate implements the paper's primary contribution on top of the substrate crates:
//!
//! * the **interface model** (§4.4): an interface is a set of widgets plus an initial query;
//!   its cost is the sum of widget costs; its *closure* is the set of queries reachable by
//!   widget interactions, and expressiveness/recall/precision are all defined against that
//!   closure ([`Interface`]);
//! * the **interface generation problem** (§4.5) and its graph-contraction heuristic (§5):
//!   initialisation (Algorithm 1 / 2) and iterative merging of redundant ancestor/descendant
//!   widgets (Algorithm 3) ([`InteractionMapper`]);
//! * the **end-to-end pipeline** (§3.2, §6): parse a query log, mine the interaction graph
//!   (with the sliding-window and LCA-pruning optimisations), map it to widgets, and report
//!   stage timings ([`PrecisionInterfaces`], [`GeneratedInterface`]);
//! * **streaming ingestion** ([`Session`]): queries are appended one at a time, each new
//!   query is diffed only against the predecessors the window strategy admits, and versioned
//!   snapshots are byte-identical to batch builds of the same prefix — the one-shot entry
//!   points are thin wrappers over a session;
//! * **pluggable front-ends**: sessions route text through a
//!   [`Frontends`](pi_ast::Frontends) registry ([`standard_frontends`] bundles SQL and the
//!   dataframe dialect), tag every query with its [`Dialect`](pi_ast::Dialect), and thread
//!   the tags into the generated interface so mixed-language logs mine into one interface
//!   whose options render in their originating language;
//! * the **evaluation utilities** used throughout §7: hold-out recall curves
//!   ([`recall`]) and closure precision against a database schema with and without the
//!   column→table filter of Appendix D ([`precision`]).
//!
//! ```
//! use pi_core::PrecisionInterfaces;
//!
//! let log = "
//!     SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState;
//!     SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 8 GROUP BY DestState;
//!     SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 3 GROUP BY DestState;
//! ";
//! let generated = PrecisionInterfaces::default().from_sql_log(log).unwrap();
//! assert!(generated.interface.expressiveness(&generated.queries) >= 1.0);
//! // The month literal maps to a single numeric widget.
//! assert_eq!(generated.interface.widgets().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod frontends;
mod interface;
mod mapper;
mod pipeline;
pub mod precision;
pub mod recall;
pub mod session;

pub use frontends::standard_frontends;
pub use interface::Interface;
pub use mapper::{InteractionMapper, MapperOptions};
pub use pi_graph::InteractionGraph;
pub use pipeline::{GeneratedInterface, PiOptions, PrecisionInterfaces, StageTimings};
pub use session::{Session, SNAPSHOT_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_widgets::WidgetType;

    fn parse_result(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn generate(log: &str) -> GeneratedInterface {
        PrecisionInterfaces::default().from_sql_log(log).unwrap()
    }

    // ---------------------------------------------------------------- §7.1 trade-off examples

    #[test]
    fn listing4_parameter_changes_yield_dropdown_and_slider() {
        // Figure 5a: customer-name drop-down + spec_ts slider for Listing 4's template.
        let log = "
          SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 3) WHERE cust = 'Alice' AND country = 'China' GROUP BY spec_ts;
          SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 5) WHERE cust = 'Bob' AND country = 'China' GROUP BY spec_ts;
          SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 9) WHERE cust = 'Carol' AND country = 'China' GROUP BY spec_ts;
          SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 7) WHERE cust = 'Alice' AND country = 'China' GROUP BY spec_ts;
        ";
        let generated = generate(log);
        let widgets = generated.interface.widgets();
        assert_eq!(widgets.len(), 2, "{}", generated.interface.describe());
        let types: Vec<WidgetType> = widgets.iter().map(|w| w.ty).collect();
        assert!(types.contains(&WidgetType::Slider));
        assert!(types.contains(&WidgetType::Dropdown));
        // Generalisation: combinations never observed together are still expressible
        // (cust='Bob' with +9 appears in no log entry).
        let unseen = parse_result(
            "SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 9) WHERE cust = 'Bob' AND country = 'China' GROUP BY spec_ts",
        )
        .unwrap();
        assert!(generated.interface.can_express(&unseen));
        // But changes never observed at all (the country) are not expressible.
        let off_script = parse_result(
            "SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 3) WHERE cust = 'Alice' AND country = 'France' GROUP BY spec_ts",
        )
        .unwrap();
        assert!(!generated.interface.can_express(&off_script));
    }

    #[test]
    fn listing5_small_log_maps_to_a_single_choice_widget() {
        // Figure 5b: with three queries it is cheapest to pick the whole query directly from a
        // single choice widget.  (Like the paper's experiment this compares every query pair.)
        let log = "SELECT avg(a); SELECT count(b); SELECT count(c);";
        let options = PiOptions {
            window: pi_graph::WindowStrategy::AllPairs,
            ..PiOptions::default()
        };
        let generated = PrecisionInterfaces::new(options).from_sql_log(log).unwrap();
        assert_eq!(
            generated.interface.widgets().len(),
            1,
            "{}",
            generated.interface.describe()
        );
        let w = &generated.interface.widgets()[0];
        assert!(matches!(
            w.ty,
            WidgetType::RadioButton | WidgetType::Dropdown
        ));
        assert!(generated.interface.expressiveness(&generated.queries) >= 1.0);
    }

    #[test]
    fn listing5_larger_log_decomposes_into_per_component_widgets() {
        // Figure 5c: with more queries, per-component widgets (function name + argument)
        // become cheaper than one long list of whole queries.
        let log = "
          SELECT avg(a); SELECT count(b); SELECT count(c); SELECT avg(b); SELECT count(a);
          SELECT avg(c); SELECT avg(d); SELECT avg(e); SELECT count(d); SELECT count(e);
          SELECT count(b); SELECT count(c); SELECT avg(a);
        ";
        let generated = generate(log);
        let widgets = generated.interface.widgets();
        assert!(
            widgets.len() >= 2,
            "expected decomposition, got {}",
            generated.interface.describe()
        );
        assert!(widgets.iter().all(|w| !w.path.is_root()));
        // All 13 log queries stay expressible.
        assert!(generated.interface.expressiveness(&generated.queries) >= 1.0);
    }

    #[test]
    fn listing6_top_clause_gets_a_toggle_and_a_slider() {
        // Figure 5d: a Toggle-TOP button plus a slider for the limit.
        let log = "
          SELECT g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
          SELECT TOP 1 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
          SELECT TOP 10 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
          SELECT TOP 5 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID;
        ";
        let generated = generate(log);
        let types: Vec<WidgetType> = generated.interface.widgets().iter().map(|w| w.ty).collect();
        assert!(
            types
                .iter()
                .any(|t| matches!(t, WidgetType::ToggleButton | WidgetType::Checkbox)),
            "no toggle in {}",
            generated.interface.describe()
        );
        assert!(
            types.contains(&WidgetType::Slider),
            "no slider in {}",
            generated.interface.describe()
        );
        // A TOP value never seen (e.g. 7) is expressible thanks to slider extrapolation.
        let unseen = parse_result(
            "SELECT TOP 7 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID",
        )
        .unwrap();
        assert!(generated.interface.can_express(&unseen));
    }

    #[test]
    fn listing7_subquery_toggle_with_inner_widgets() {
        // Figure 5e: toggle between table and subquery, then modify the subquery's parts.
        let log = "
          SELECT * FROM T;
          SELECT * FROM (SELECT a FROM T WHERE b > 10);
          SELECT * FROM (SELECT a FROM T WHERE b > 20);
          SELECT * FROM (SELECT b FROM T WHERE b > 20);
        ";
        let generated = generate(log);
        let widgets = generated.interface.widgets();
        assert!(widgets.len() >= 2, "{}", generated.interface.describe());
        assert!(generated.interface.expressiveness(&generated.queries) >= 1.0);
        // The unseen combination (SELECT b ... > 10) is expressible via the cross-product.
        let unseen = parse_result("SELECT * FROM (SELECT b FROM T WHERE b > 10)").unwrap();
        assert!(generated.interface.can_express(&unseen));
    }

    // ---------------------------------------------------------------- pipeline invariants

    #[test]
    fn full_log_coverage_holds_for_every_policy_combination() {
        use pi_diff::AncestorPolicy;
        use pi_graph::WindowStrategy;
        let log = "
          SELECT * FROM SpecLineIndex WHERE specObjId = 0x400;
          SELECT * FROM XCRedshift WHERE specObjId = 0x199;
          SELECT * FROM SpecLineIndex WHERE specObjId = 0x3;
          SELECT * FROM XCRedshift WHERE specObjId = 0x42;
        ";
        for window in [WindowStrategy::AllPairs, WindowStrategy::Sliding(2)] {
            for policy in [AncestorPolicy::Full, AncestorPolicy::LcaPruned] {
                let options = PiOptions {
                    window,
                    policy,
                    ..PiOptions::default()
                };
                let generated = PrecisionInterfaces::new(options).from_sql_log(log).unwrap();
                assert!(
                    generated.interface.expressiveness(&generated.queries) >= 1.0,
                    "coverage violated for {window:?}/{policy:?}: {}",
                    generated.interface.describe()
                );
            }
        }
    }

    #[test]
    fn optimisations_do_not_change_the_generated_interface() {
        // Appendix B: "the optimizations improve the runtime, but do not affect the resulting
        // interfaces".
        use pi_diff::AncestorPolicy;
        use pi_graph::WindowStrategy;
        let log = "
          SELECT * FROM SpecLineIndex WHERE specObjId = 0x400;
          SELECT * FROM SpecLineIndex WHERE specObjId = 0x199;
          SELECT * FROM XCRedshift WHERE specObjId = 0x199;
          SELECT * FROM XCRedshift WHERE specObjId = 0x3;
        ";
        let baseline = PrecisionInterfaces::new(PiOptions {
            window: WindowStrategy::AllPairs,
            policy: AncestorPolicy::Full,
            ..PiOptions::default()
        })
        .from_sql_log(log)
        .unwrap();
        let optimised = PrecisionInterfaces::new(PiOptions {
            window: WindowStrategy::Sliding(2),
            policy: AncestorPolicy::LcaPruned,
            ..PiOptions::default()
        })
        .from_sql_log(log)
        .unwrap();
        let summarise = |g: &GeneratedInterface| {
            let mut v: Vec<(String, String)> = g
                .interface
                .widgets()
                .iter()
                .map(|w| (w.path.to_string(), w.ty.to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(summarise(&baseline), summarise(&optimised));
    }

    #[test]
    fn merging_reduces_interface_cost() {
        let log = "
          SELECT sales, day FROM t WHERE cty = 'USA';
          SELECT costs, day FROM t WHERE cty = 'EUR';
          SELECT sales, day FROM t WHERE cty = 'EUR';
          SELECT costs, day FROM t WHERE cty = 'CHN';
        ";
        let no_merge = PrecisionInterfaces::new(PiOptions {
            mapper: MapperOptions {
                enable_merging: false,
            },
            ..PiOptions::default()
        })
        .from_sql_log(log)
        .unwrap();
        let merged = generate(log);
        assert!(merged.interface.cost() <= no_merge.interface.cost());
        assert!(merged.interface.expressiveness(&merged.queries) >= 1.0);
    }
}
