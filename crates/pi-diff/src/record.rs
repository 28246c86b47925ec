//! The `diffs` table: records of subtree transformations between pairs of log queries.

use crate::align::{leaf_changes, LeafChange};
use pi_ast::{Node, Path, PrimitiveType, ReplaceError};
use std::sync::Arc;

/// How the ancestor closure of leaf diffs is materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AncestorPolicy {
    /// Every proper ancestor of a leaf diff becomes a record (baseline behaviour, §4.2).
    Full,
    /// Least-common-ancestor pruning (§6.2): keep leaf diffs, LCAs of pairs of leaf diffs,
    /// and the whole-query (root) transformation — the "replace the entire AST" option the
    /// paper always keeps available (Figure 4's d3/d4).  Produces the same final interfaces
    /// as [`AncestorPolicy::Full`] at a fraction of the cost.
    #[default]
    LcaPruned,
}

/// The nature of a transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// A subtree is replaced by a different subtree.
    Replacement,
    /// A subtree is inserted (the `t1` side is null).
    Addition,
    /// A subtree is removed (the `t2` side is null).
    Deletion,
}

/// One row of the `diffs` table: `d = (q1, q2, p, t1, t2, type)` (paper Table 1).
///
/// The `(p, t1, t2)` payload lives in a shared [`TreeChange`] (`Arc`-allocated), reachable
/// through `Deref` — `record.path`, `record.before`, `record.after` and `record.is_leaf`
/// all read the shared payload.  Duplicate-collapsed mining mints one payload per distinct
/// tree pair and stamps it with `(q1, q2)` per log pair, so a record is 4 words and its
/// clone is a single refcount bump; subtree sides in turn alias the queries they came from
/// ([`Node`] is a copy-on-write handle), so nothing here ever deep-copies a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRecord {
    /// Index of the source query in the log.
    pub q1: usize,
    /// Index of the target query in the log.
    pub q2: usize,
    /// The index-free transformation, shared across every log pair it recurs in.
    change: Arc<TreeChange>,
}

impl std::ops::Deref for DiffRecord {
    type Target = TreeChange;

    fn deref(&self) -> &TreeChange {
        &self.change
    }
}

impl DiffRecord {
    /// Builds a record from an owned change (the payload is `Arc`-allocated here).
    pub fn new(q1: usize, q2: usize, change: TreeChange) -> Self {
        DiffRecord {
            q1,
            q2,
            change: Arc::new(change),
        }
    }

    /// Builds a record sharing an already-allocated change payload — the memoized mining
    /// path, where one alignment's changes are stamped with many `(q1, q2)` endpoints.
    pub fn from_shared(q1: usize, q2: usize, change: Arc<TreeChange>) -> Self {
        DiffRecord { q1, q2, change }
    }

    /// The shared index-free change payload.
    pub fn change(&self) -> &Arc<TreeChange> {
        &self.change
    }
    /// Whether the record replaces, adds, or removes a subtree.
    pub fn change_kind(&self) -> ChangeKind {
        match (&self.before, &self.after) {
            (Some(_), Some(_)) => ChangeKind::Replacement,
            (None, Some(_)) => ChangeKind::Addition,
            (Some(_), None) => ChangeKind::Deletion,
            (None, None) => unreachable!("a diff record must have at least one side"),
        }
    }

    /// The primitive type of the transformation (the `type` column of Table 1).
    ///
    /// Replacements take the join of both sides' types; additions and deletions are typed by
    /// whichever side exists.  Ancestor records are always `tree`.
    pub fn primitive(&self) -> PrimitiveType {
        if !self.is_leaf {
            return PrimitiveType::Tree;
        }
        match (&self.before, &self.after) {
            (Some(a), Some(b)) => a.primitive_type().join(b.primitive_type()),
            (Some(a), None) => a.primitive_type().join(PrimitiveType::Tree),
            (None, Some(b)) => b.primitive_type().join(PrimitiveType::Tree),
            (None, None) => PrimitiveType::Tree,
        }
    }

    /// Applies the transformation to a query: `d(q) = q'` (Example 4.2).
    pub fn apply(&self, q: &Node) -> Result<Node, ReplaceError> {
        match self.change_kind() {
            ChangeKind::Replacement => {
                let after = self.after.as_ref().expect("after side");
                q.replaced(&self.path, after.clone())
            }
            ChangeKind::Addition => {
                insert_subtree(q, &self.path, self.after.as_ref().expect("after side"))
            }
            ChangeKind::Deletion => q.removed(&self.path),
        }
    }

    /// Applies the inverse transformation: `d⁻¹(q') = q`.
    pub fn apply_inverse(&self, q: &Node) -> Result<Node, ReplaceError> {
        match self.change_kind() {
            ChangeKind::Replacement => {
                let before = self.before.as_ref().expect("before side");
                q.replaced(&self.path, before.clone())
            }
            ChangeKind::Deletion => {
                insert_subtree(q, &self.path, self.before.as_ref().expect("before side"))
            }
            ChangeKind::Addition => q.removed(&self.path),
        }
    }

    /// The subtrees this record contributes to a widget domain (both sides when present).
    pub fn domain_subtrees(&self) -> Vec<&Node> {
        self.before.iter().chain(self.after.iter()).collect()
    }

    /// A one-line human-readable summary, used by experiment output and debugging.
    pub fn summary(&self) -> String {
        let fmt_side = |side: &Option<Node>| match side {
            Some(n) => n.label(),
            None => "∅".to_string(),
        };
        format!(
            "{} @{}: {} → {} [{}]",
            match self.change_kind() {
                ChangeKind::Replacement => "repl",
                ChangeKind::Addition => "add ",
                ChangeKind::Deletion => "del ",
            },
            self.path,
            fmt_side(&self.before),
            fmt_side(&self.after),
            self.primitive()
        )
    }
}

/// Inserts `subtree` at `path` in `q`, shifting later siblings right.
///
/// Paths pointing one slot past the end of the parent's child list append; in-range paths
/// insert before the existing child, matching the source-coordinate convention of the aligner.
fn insert_subtree(q: &Node, path: &Path, subtree: &Node) -> Result<Node, ReplaceError> {
    q.inserted(path, subtree.clone())
}

/// Applies a set of *leaf* records (all extracted from the same query pair) to a query.
///
/// Record paths are expressed in the source query's coordinates, so applying them one by one
/// in arbitrary order can shift sibling indices out from under later records.  This helper
/// applies them in a safe order: replacements first (index-stable), then deletions from the
/// highest path down (so earlier removals cannot shift later ones), then additions from the
/// lowest path up (so earlier insertions create the slots later ones expect).
pub fn apply_leaf_changes(base: &Node, records: &[DiffRecord]) -> Result<Node, ReplaceError> {
    let mut out = base.clone();
    for record in records.iter().filter(|r| r.is_leaf) {
        if record.change_kind() == ChangeKind::Replacement {
            out = record.apply(&out)?;
        }
    }
    let mut deletions: Vec<&DiffRecord> = records
        .iter()
        .filter(|r| r.is_leaf && r.change_kind() == ChangeKind::Deletion)
        .collect();
    deletions.sort_by(|a, b| b.path.cmp(&a.path));
    for record in deletions {
        out = record.apply(&out)?;
    }
    let mut additions: Vec<&DiffRecord> = records
        .iter()
        .filter(|r| r.is_leaf && r.change_kind() == ChangeKind::Addition)
        .collect();
    additions.sort_by(|a, b| a.path.cmp(&b.path));
    for record in additions {
        out = record.apply(&out)?;
    }
    Ok(out)
}

/// One change of a pair alignment, *index-free*: a [`DiffRecord`] minus the `(q1, q2)` log
/// endpoints.
///
/// Alignment is purely structural — two structurally identical tree pairs produce identical
/// change lists wherever they sit in the log — so this is the unit worth memoizing per
/// distinct tree pair.  [`TreeChange::to_record`] re-wraps a memoized change into a
/// [`DiffRecord`] for a concrete `(q1, q2)` pair: a cheap per-occurrence step (a path clone
/// plus subtree refcount bumps), against the expensive once-per-distinct-pair alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeChange {
    /// Path of the transformed subtree (source-tree coordinates).
    pub path: Path,
    /// Subtree in the source tree; `None` for additions.
    pub before: Option<Node>,
    /// Subtree in the target tree; `None` for deletions.
    pub after: Option<Node>,
    /// True for a minimal changed subtree (leaf diff) rather than an ancestor record.
    pub is_leaf: bool,
}

impl TreeChange {
    /// Attaches log endpoints, producing the [`DiffRecord`] row for one concrete query pair
    /// (clones the change into a fresh shared payload; use [`DiffRecord::from_shared`]
    /// when the payload is already `Arc`-allocated).
    pub fn to_record(&self, q1: usize, q2: usize) -> DiffRecord {
        DiffRecord::new(q1, q2, self.clone())
    }
}

/// Builds the index-free change list between two trees, expanding (and optionally pruning)
/// ancestors — everything [`build_records`] computes except the log endpoints.  Leaf changes
/// come first, in matcher order, then ancestors in [`Path`] order.
pub fn build_changes(a: &Node, b: &Node, policy: AncestorPolicy) -> Vec<TreeChange> {
    let leaves = leaf_changes(a, b);
    if leaves.is_empty() {
        return Vec::new();
    }

    let ancestor_paths = ancestor_paths(&leaves, policy);

    let mut out: Vec<TreeChange> = Vec::with_capacity(leaves.len() + ancestor_paths.len());
    out.extend(leaves.into_iter().map(
        |LeafChange {
             path,
             before,
             after,
         }| TreeChange {
            path,
            before,
            after,
            is_leaf: true,
        },
    ));

    for path in ancestor_paths {
        // Both sides must exist: an ancestor of a change always exists in the source tree, and
        // in the target tree unless sibling shifts moved it; such rare cases are simply skipped.
        if let (Some(before), Some(after)) = (a.get(&path), b.get(&path)) {
            if before.same_tree(after) {
                continue;
            }
            out.push(TreeChange {
                before: Some(before.clone()),
                after: Some(after.clone()),
                path,
                is_leaf: false,
            });
        }
    }
    out
}

/// Builds the diff records between two queries, expanding (and optionally pruning) ancestors.
pub fn build_records(
    a: &Node,
    b: &Node,
    q1_idx: usize,
    q2_idx: usize,
    policy: AncestorPolicy,
) -> Vec<DiffRecord> {
    build_changes(a, b, policy)
        .into_iter()
        .map(|change| DiffRecord::new(q1_idx, q2_idx, change))
        .collect()
}

/// Computes the ancestor paths to materialise for a set of leaf changes, in [`Path`] order,
/// without the leaf paths themselves (those are emitted as leaf records, so a root-level
/// replacement already *is* the whole-tree transformation).
///
/// `LcaPruned` keeps the root — the whole-query transformation is always a viable
/// interaction (Figure 4) — and the least common ancestor of every pair of leaf paths.
/// Sorted, adjacent pairs alone give every pair's: in `Path` (lexicographic) order, the
/// common prefix of `p[i]` and `p[j]` (`i < j`) is the shortest of the adjacent pairs'
/// common prefixes between them, and that one is also a prefix of `p[i]` — so each pairwise
/// LCA is some adjacent pair's, in `O(k log k)` for `k` leaves instead of `O(k²)`.
/// Duplicate leaf paths add nothing (a path's LCA with itself is a leaf path) and are
/// dropped first.  `Full` keeps every proper ancestor of every leaf path.
fn ancestor_paths(leaves: &[LeafChange], policy: AncestorPolicy) -> Vec<Path> {
    let mut leaf_paths: Vec<&Path> = leaves.iter().map(|l| &l.path).collect();
    leaf_paths.sort_unstable();
    leaf_paths.dedup();
    let mut out: Vec<Path> = match policy {
        AncestorPolicy::Full => leaf_paths
            .iter()
            .flat_map(|path| (0..path.depth()).map(|depth| Path::from(&path.steps()[..depth])))
            .collect(),
        AncestorPolicy::LcaPruned => std::iter::once(Path::root())
            .chain(
                leaf_paths
                    .windows(2)
                    .map(|pair| pair[0].common_prefix(pair[1])),
            )
            .collect(),
    };
    out.sort_unstable();
    out.dedup();
    out.retain(|path| leaf_paths.binary_search(&path).is_err());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    #[test]
    fn change_kind_covers_all_shapes() {
        let n = Node::int(1);
        let change = |before: Option<Node>, after: Option<Node>| TreeChange {
            path: Path::root(),
            before,
            after,
            is_leaf: true,
        };
        let repl = DiffRecord::new(0, 1, change(Some(n.clone()), Some(Node::int(2))));
        assert_eq!(repl.change_kind(), ChangeKind::Replacement);
        let add = DiffRecord::new(0, 1, change(None, Some(n.clone())));
        assert_eq!(add.change_kind(), ChangeKind::Addition);
        let del = DiffRecord::new(0, 1, change(Some(n), None));
        assert_eq!(del.change_kind(), ChangeKind::Deletion);
        // Records sharing one payload are equal to records owning an identical one.
        let shared = DiffRecord::from_shared(0, 1, std::sync::Arc::clone(repl.change()));
        assert_eq!(shared, repl);
    }

    #[test]
    fn ancestor_records_are_tree_typed() {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap();
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap();
        let records = build_records(&a, &b, 0, 1, AncestorPolicy::Full);
        for r in records.iter().filter(|r| !r.is_leaf) {
            assert_eq!(r.primitive(), PrimitiveType::Tree);
            assert_eq!(r.change_kind(), ChangeKind::Replacement);
        }
    }

    #[test]
    fn lca_pruning_keeps_only_lcas() {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap();
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap();
        let records = build_records(&a, &b, 0, 1, AncestorPolicy::LcaPruned);
        let ancestors: Vec<&DiffRecord> = records.iter().filter(|r| !r.is_leaf).collect();
        // Exactly one ancestor: the root, the LCA of the projection change and the predicate
        // change.
        assert_eq!(ancestors.len(), 1);
        assert!(ancestors[0].path.is_root());
    }

    #[test]
    fn single_leaf_change_keeps_only_the_leaf_and_the_root_under_pruning() {
        let a = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let records = build_records(&a, &b, 0, 1, AncestorPolicy::LcaPruned);
        // The leaf itself plus the whole-query transformation; the intermediate Where/BiExpr
        // ancestors are pruned.
        assert_eq!(records.len(), 2);
        assert_eq!(records.iter().filter(|r| r.is_leaf).count(), 1);
        assert!(records.iter().any(|r| !r.is_leaf && r.path.is_root()));
        let full = build_records(&a, &b, 0, 1, AncestorPolicy::Full);
        assert!(full.len() > records.len());
    }

    #[test]
    fn ancestor_paths_equal_the_pairwise_definition() {
        use std::collections::BTreeSet;
        // A fixed LCG keeps the generated sets reproducible.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let mut heap_deep = 0;
        for _ in 0..3_000 {
            let mut paths: Vec<Path> = Vec::new();
            for _ in 0..1 + next(8) {
                let earlier = (!paths.is_empty()).then(|| paths[next(paths.len())].clone());
                let path = match (next(4), earlier) {
                    // A duplicate of an earlier leaf path.
                    (0, Some(earlier)) => earlier,
                    // An ancestor or a descendant of an earlier leaf path.
                    (1, Some(earlier)) if next(2) == 0 => {
                        Path::from(&earlier.steps()[..next(earlier.depth() + 1)])
                    }
                    (1, Some(mut earlier)) => {
                        for _ in 0..1 + next(4) {
                            earlier.push(next(3));
                        }
                        earlier
                    }
                    // A fresh path, up to 12 steps: past `Path`'s 8 inline steps.
                    _ => Path::from_steps((0..next(13)).map(|_| next(3))),
                };
                heap_deep += usize::from(path.depth() > 8);
                paths.push(path);
            }
            let leaves: Vec<LeafChange> = paths
                .iter()
                .map(|path| LeafChange {
                    path: path.clone(),
                    before: None,
                    after: Some(Node::int(0)),
                })
                .collect();
            // §6.2 as written: the root plus every pair's least common ancestor; Full: every
            // proper ancestor.  Leaf paths are leaf records, never ancestors.
            let mut pairwise = BTreeSet::from([Path::root()]);
            let mut proper = BTreeSet::new();
            for (i, path) in paths.iter().enumerate() {
                for other in &paths[i + 1..] {
                    pairwise.insert(path.common_prefix(other));
                }
                let mut cur = path.clone();
                while let Some(parent) = cur.parent() {
                    proper.insert(parent.clone());
                    cur = parent;
                }
            }
            for path in &paths {
                pairwise.remove(path);
                proper.remove(path);
            }
            assert_eq!(
                ancestor_paths(&leaves, AncestorPolicy::LcaPruned),
                pairwise.into_iter().collect::<Vec<_>>(),
                "{paths:?}"
            );
            assert_eq!(
                ancestor_paths(&leaves, AncestorPolicy::Full),
                proper.into_iter().collect::<Vec<_>>(),
                "{paths:?}"
            );
        }
        assert!(
            heap_deep > 100,
            "{heap_deep} heap-depth leaf paths generated"
        );
    }

    #[test]
    fn addition_apply_inserts_and_inverse_removes() {
        let a = parse("SELECT a, c FROM t").unwrap();
        let b = parse("SELECT a, b, c FROM t").unwrap();
        let records = build_records(&a, &b, 0, 1, AncestorPolicy::LcaPruned);
        let add = records
            .iter()
            .find(|r| r.change_kind() == ChangeKind::Addition)
            .unwrap();
        let applied = add.apply(&a).unwrap();
        assert_eq!(applied, b);
        let undone = add.apply_inverse(&applied).unwrap();
        assert_eq!(undone, a);
    }

    #[test]
    fn summary_is_informative() {
        let a = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let records = build_records(&a, &b, 3, 4, AncestorPolicy::LcaPruned);
        let s = records[0].summary();
        assert!(s.contains("repl"));
        assert!(s.contains("1"));
        assert!(s.contains("2"));
        assert!(s.contains("num"));
    }

    #[test]
    fn domain_subtrees_returns_both_sides() {
        let a = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let records = build_records(&a, &b, 0, 1, AncestorPolicy::LcaPruned);
        assert_eq!(records[0].domain_subtrees().len(), 2);
    }
}
