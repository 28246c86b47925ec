//! # pi-graph — the interaction graph
//!
//! The interaction graph `G = (V, E)` (paper §4.2) has one vertex per query in the log and a
//! directed labelled edge `(q_i, q_j, t_k)` for every pair of compared queries, where the label
//! `t_k` is an *interaction*: the set of diff records sufficient to transform `q_i` into `q_j`.
//!
//! Building the graph is the most expensive step of the pipeline, so the builder implements
//! the paper's two optimisations:
//!
//! * **sliding-window pair enumeration** (§6.1) — only queries within a window of size
//!   `n_win` are compared, reducing the number of tree alignments from `O(|Q|²)` to
//!   `O(|Q|·n_win)`;
//! * **LCA pruning** (§6.2) — forwarded to `pi-diff`, it keeps the number of materialised
//!   ancestor records (and therefore the mapper's input size) small.
//!
//! Beyond the paper, the builder exploits how *repetitive* real logs are (a handful of
//! distinct query shapes dominates most logs): at ingest every query is collapsed to a
//! distinct-tree id ([`DedupTable`]), and the expensive alignment runs once per distinct
//! ordered pair of shapes ([`DiffMemo`]) — `O(d²)` alignments for `d` distinct shapes
//! instead of `O(n²)` under `AllPairs` — and every log pair adds one run row pointing at its
//! shapes' memoized change list in the pair table ([`pi_diff::DiffStore`]).  Memoization is on by
//! default and *invisible*: graphs are byte-identical with it on or off
//! ([`GraphBuilder::memoize`] exists for A/B measurement).
//!
//! Aligning distinct shape pairs is embarrassingly parallel, and it is mining's one fan-out:
//! the memoized builder cuts a batch's missing pairs into equal-count chunks, and scoped
//! workers claim the chunks from one shared counter, each aligning its chunk into a store of
//! its own.  The stores are appended in chunk order after the workers join, so **chunk
//! order, not claim order, defines the output** — the merged graph is byte-identical to the
//! serial fold for every worker count and every first claim (property-tested with
//! [`GraphBuilder::steal_seed`], which picks the chunk claimed first).  The fan-out engages
//! only when the batch's estimated alignment work (cached node counts through
//! `pi_diff::align_cost_model`) would amortise the thread overhead, so small batches and
//! single-query extends stay serial; worker counts resolve from [`GraphBuilder::threads`],
//! the `PI_THREADS` environment variable, or the available cores, in that order.  The
//! unmemoized reference builder always mines serially.
//!
//! Construction is *incremental at heart*: [`GraphBuilder::extend_batch`] appends queries to
//! a [`GraphAccumulator`], diffing each only against the predecessors the window strategy
//! admits, and [`GraphBuilder::build`] is one such step over the whole log.  A streaming
//! session therefore produces graphs byte-identical to batch builds of the same prefix —
//! the invariant `pi-core::Session` relies on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
pub mod codec;
mod dedup;
mod graph;

pub use builder::{GraphAccumulator, GraphBuilder, WindowStrategy};
pub use dedup::{DedupTable, DiffMemo};
pub use graph::{Edge, GraphStats, InteractionGraph, IntoQueryLog, QueryLog};

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_diff::AncestorPolicy;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn olap_log() -> Vec<pi_ast::Node> {
        // Listing 2 with one extra step.
        [
            "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
            "SELECT DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
            "SELECT DestState FROM ontime WHERE Month = 8 AND Day = 3 GROUP BY DestState",
            "SELECT DestState FROM ontime WHERE Month = 8 AND Day = 5 GROUP BY DestState",
        ]
        .iter()
        .map(|q| parse(q).unwrap())
        .collect()
    }

    #[test]
    fn all_pairs_graph_has_quadratic_edges() {
        let log = olap_log();
        let g = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .build(&log);
        assert_eq!(g.queries().len(), 4);
        // 4 choose 2 pairs, all of which differ
        assert_eq!(g.edges().len(), 6);
        assert!(g.stats().diff_records > 0);
    }

    #[test]
    fn sliding_window_reduces_comparisons_but_keeps_connectivity() {
        let log = olap_log();
        let all = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .build(&log);
        let windowed = GraphBuilder::new()
            .window(WindowStrategy::Sliding(2))
            .build(&log);
        assert!(windowed.edges().len() < all.edges().len());
        assert_eq!(windowed.edges().len(), 3); // consecutive pairs only
        assert!(windowed.is_connected());
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let log = olap_log();
        let serial = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(false)
            .build(&log);
        let parallel = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(true)
            .build(&log);
        assert_eq!(serial.edges().len(), parallel.edges().len());
        assert_eq!(serial.store().len(), parallel.store().len());
        for (a, b) in serial.edges().zip(parallel.edges()) {
            assert_eq!((a.from, a.to), (b.from, b.to));
            assert_eq!(a.leaves, b.leaves);
        }
    }

    #[test]
    fn lca_pruning_shrinks_the_store_without_losing_edges() {
        let log = olap_log();
        let full = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .policy(AncestorPolicy::Full)
            .build(&log);
        let pruned = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .policy(AncestorPolicy::LcaPruned)
            .build(&log);
        assert_eq!(full.edges().len(), pruned.edges().len());
        assert!(pruned.store().len() < full.store().len());
    }

    #[test]
    fn duplicate_queries_produce_no_edge() {
        let q = parse("SELECT a FROM t").unwrap();
        let g = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .build(&[q.clone(), q]);
        assert_eq!(g.edges().len(), 0);
        // Identical queries need no edge to be mutually expressible.
        assert!(g.is_connected());
    }
}
