//! # pi-diff — subtree differences between query ASTs
//!
//! Interactions in Precision Interfaces are modelled as *subtree transformations* between pairs
//! of queries (paper §4.2).  Given two ASTs `q1` and `q2`, this crate produces the `diffs`
//! table: records `d = (p, t1, t2)` where `p` is the path of the changed subtree, `t1` is the
//! subtree in `q1` and `t2` the subtree in `q2` (either side may be absent for additions and
//! deletions).  Each record can be interpreted as a function `d(q) = q'` that replaces the
//! subtree rooted at `p`.
//!
//! Two kinds of records are produced:
//!
//! * **leaf diffs** — the minimally-sized changed subtrees found by ordered tree matching
//!   (preserving ancestor and left-to-right sibling relationships, like the matching algorithm
//!   referenced in the paper), and
//! * **ancestor diffs** — every ancestor of a changed subtree is itself a valid transformation
//!   (replacing a bigger region, up to the whole query).
//!
//! The ancestor set can be pruned with **LCA pruning** (paper §6.2): only leaf diffs and least
//! common ancestors of two leaf diffs can ever matter to the widget mapper, because a non-LCA
//! ancestor expresses exactly the same edges as its child at strictly higher widget cost.
//!
//! The table is kept *logical*, as the paper allows.  A [`DiffStore`] holds one change list
//! per alignment and one run row per compared pair that uses it, and each change is a
//! [`ChangeRow`] of ids: a path id into the store's path table, a member id per side into
//! its member table (one subtree per distinct [`NodeId`](pi_ast::NodeId)), and the leaf
//! flag.  Both tables fill as changes are written, so writing a change costs a probe per id
//! and reading one maps ids: a `mine_distinct` log's 44,054 changes hold 43 distinct paths
//! and 1,321 distinct subtrees.  [`TreeChange`] is the same change as a value, which
//! [`extract_changes`] returns.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod align;
pub mod codec;
mod record;
mod store;
mod table;

pub use align::leaf_changes;
pub use record::{apply_leaf_changes, AncestorPolicy, ChangeKind, RecordRef, TreeChange};
pub use store::{DiffId, DiffStore, Run};
pub use table::{ChangeRow, ABSENT};

use pi_ast::Node;

/// Extracts the *index-free* change list between two queries: the `diffs` records of the
/// pair minus their `(q1, q2)` endpoints, leaf changes first (in matcher order), then the
/// ancestors `policy` keeps (in path order).  `policy` selects between the full ancestor
/// closure and LCA pruning.
///
/// This is the memoizable unit of pair mining — alignment depends only on tree structure, so
/// one change list serves every log pair whose members are structurally identical to
/// `(a, b)`: a [`DiffStore`] holds the list once, as rows of path and member ids, and a run
/// row per such pair, and reads each record back as a [`RecordRef`] that stamps a change
/// with its pair's endpoints.  Mining builds that list with [`DiffStore::push_alignment`],
/// which runs the same matcher and closure on a reused scratch and writes rows straight
/// into the store's tables; this function runs them on a fresh scratch and a fresh table
/// and returns the changes as values.
pub fn extract_changes(a: &Node, b: &Node, policy: AncestorPolicy) -> Vec<TreeChange> {
    record::build_changes(a, b, policy)
}

/// Estimated cost of aligning two trees with `a_nodes` and `b_nodes` nodes, in abstract
/// *node-op units*.
///
/// The matcher descends top-down with hash short-circuits, but its worst case — and, for
/// trees that actually differ, its typical shape around the changed regions — is the LCS
/// over child sequences, which is bounded by the product of the subtree sizes.  The product
/// is therefore a cheap proxy for alignment work (two cached node counts and a multiply),
/// monotone in both inputs.  One unit corresponds to a few nanoseconds of alignment work on
/// current hardware; consumers that need an absolute threshold calibrate against a measured
/// workload (see `pi-graph`'s parallel gate).
pub fn align_cost_model(a_nodes: usize, b_nodes: usize) -> u64 {
    (a_nodes as u64).saturating_mul(b_nodes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_ast::{Node, NodeKind, Path};

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn fig3_queries() -> (Node, Node) {
        // Figure 3: the two queries differ in the second projection (sales -> costs) and the
        // constant of the equality predicate (USA -> EUR).
        let q1 = parse("SELECT day, sales FROM t WHERE cty = 'USA'").unwrap();
        let q2 = parse("SELECT day, costs FROM t WHERE cty = 'EUR'").unwrap();
        (q1, q2)
    }

    #[test]
    fn table1_leaf_and_ancestor_records() {
        let (q1, q2) = fig3_queries();
        let diffs = extract_changes(&q1, &q2, AncestorPolicy::Full);

        // Two leaf diffs: the ColExpr swap and the StrExpr swap (both `str`-typed), plus
        // ancestor records for the projection clause, the predicate, and the whole query.
        let leaves: Vec<_> = diffs.iter().filter(|d| d.is_leaf).collect();
        assert_eq!(leaves.len(), 2, "{diffs:#?}");
        assert!(leaves
            .iter()
            .all(|d| d.primitive() == pi_ast::PrimitiveType::Str));

        let col = leaves
            .iter()
            .find(|d| d.before.as_ref().unwrap().kind() == NodeKind::ColExpr)
            .unwrap();
        assert_eq!(col.before.as_ref().unwrap().attr_str("name"), Some("sales"));
        assert_eq!(col.after.as_ref().unwrap().attr_str("name"), Some("costs"));
        assert_eq!(col.path, "0/1/0".parse::<Path>().unwrap());

        let lit = leaves
            .iter()
            .find(|d| d.before.as_ref().unwrap().kind() == NodeKind::StrExpr)
            .unwrap();
        assert_eq!(lit.before.as_ref().unwrap().attr_str("value"), Some("USA"));
        assert_eq!(lit.after.as_ref().unwrap().attr_str("value"), Some("EUR"));

        // Ancestors include the root (the whole-query replacement a toggle button would use).
        assert!(diffs.iter().any(|d| d.path.is_root() && !d.is_leaf));
    }

    #[test]
    fn lca_pruning_drops_single_child_ancestors() {
        let (q1, q2) = fig3_queries();
        let full = extract_changes(&q1, &q2, AncestorPolicy::Full);
        let pruned = extract_changes(&q1, &q2, AncestorPolicy::LcaPruned);
        assert!(pruned.len() < full.len());
        // Leaf diffs are always preserved.
        assert_eq!(
            pruned.iter().filter(|d| d.is_leaf).count(),
            full.iter().filter(|d| d.is_leaf).count()
        );
        // The root is the LCA of the two leaf diffs, so it must be retained.
        assert!(pruned.iter().any(|d| d.path.is_root()));
        // The BiExpr ancestor of only the StrExpr change must be pruned (Example 6.1).
        assert!(!pruned.iter().any(|d| {
            !d.is_leaf
                && d.before
                    .as_ref()
                    .map(|n| n.kind() == NodeKind::BiExpr)
                    .unwrap_or(false)
        }));
    }

    #[test]
    fn identical_queries_produce_no_diffs() {
        let q = parse("SELECT a FROM t WHERE b = 1").unwrap();
        assert!(extract_changes(&q, &q, AncestorPolicy::Full).is_empty());
    }

    #[test]
    fn addition_of_top_clause_is_an_insert() {
        // Listing 6: a TOP clause is added.
        let q1 = parse("SELECT g.objID FROM Galaxy AS g WHERE d = 1").unwrap();
        let q2 = parse("SELECT TOP 1 g.objID FROM Galaxy AS g WHERE d = 1").unwrap();
        let diffs = extract_changes(&q1, &q2, AncestorPolicy::Full);
        let add = diffs
            .iter()
            .find(|d| d.change_kind() == ChangeKind::Addition)
            .expect("an addition record");
        assert!(add.before.is_none());
        assert_eq!(add.after.as_ref().unwrap().kind(), NodeKind::Limit);
    }

    #[test]
    fn deletion_of_aggregation_is_a_delete() {
        // Listing 2: q1 -> q2 removes the COUNT(Delay) projection.
        let q1 = parse("SELECT COUNT(Delay), DestState FROM ontime GROUP BY DestState").unwrap();
        let q2 = parse("SELECT DestState FROM ontime GROUP BY DestState").unwrap();
        let diffs = extract_changes(&q1, &q2, AncestorPolicy::Full);
        let del = diffs
            .iter()
            .find(|d| d.change_kind() == ChangeKind::Deletion)
            .expect("a deletion record");
        assert!(del.after.is_none());
        assert_eq!(del.before.as_ref().unwrap().kind(), NodeKind::ProjClause);
    }

    #[test]
    fn numeric_changes_are_num_typed() {
        let q1 = parse("SELECT DestState FROM ontime WHERE Month = 9").unwrap();
        let q2 = parse("SELECT DestState FROM ontime WHERE Month = 8").unwrap();
        let diffs = extract_changes(&q1, &q2, AncestorPolicy::LcaPruned);
        let leaf = diffs.iter().find(|d| d.is_leaf).unwrap();
        assert_eq!(leaf.primitive(), pi_ast::PrimitiveType::Num);
        assert_eq!(leaf.before.as_ref().unwrap().numeric_value(), Some(9.0));
        assert_eq!(leaf.after.as_ref().unwrap().numeric_value(), Some(8.0));
    }

    #[test]
    fn subquery_swap_is_a_tree_typed_change() {
        // Listing 7: the FROM relation toggles between a table and a subquery.
        let q1 = parse("SELECT * FROM T").unwrap();
        let q2 = parse("SELECT * FROM (SELECT a FROM T WHERE b > 10)").unwrap();
        let diffs = extract_changes(&q1, &q2, AncestorPolicy::LcaPruned);
        let leaf = diffs.iter().find(|d| d.is_leaf).unwrap();
        assert_eq!(leaf.primitive(), pi_ast::PrimitiveType::Tree);
        assert_eq!(leaf.path, "1/0".parse::<Path>().unwrap());
    }

    #[test]
    fn applying_a_diff_transforms_q1_into_q2() {
        let q1 = parse("SELECT DestState FROM ontime WHERE Month = 9").unwrap();
        let q2 = parse("SELECT DestState FROM ontime WHERE Month = 8").unwrap();
        let diffs = extract_changes(&q1, &q2, AncestorPolicy::Full);
        // Applying every leaf diff to q1 must yield q2 (the d(q)=q' semantics of §4.2).
        let mut q = q1.clone();
        for d in diffs.iter().filter(|d| d.is_leaf) {
            q = d.apply(&q).unwrap();
        }
        assert_eq!(q, q2);
        // And the inverse recovers q1.
        let mut back = q2;
        for d in diffs.iter().filter(|d| d.is_leaf).rev() {
            back = d.apply_inverse(&back).unwrap();
        }
        assert_eq!(back, q1);
    }
}
