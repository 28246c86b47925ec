//! The `diffs` table: records of subtree transformations between pairs of log queries.

use crate::align::Scratch;
use crate::table::{ChangeRow, ChangeTable};
use pi_ast::{Node, Path, PrimitiveType, ReplaceError};

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

/// One row of the `diffs` table, `d = (q1, q2, p, t1, t2, type)` (paper Table 1), as read
/// from a [`DiffStore`](crate::DiffStore): the log endpoints of the record's compared pair
/// and the change the pair's list shares with every other pair that uses the list, read off
/// the store's change row and its path and member tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordRef<'a> {
    /// Index of the source query in the log.
    pub q1: usize,
    /// Index of the target query in the log.
    pub q2: usize,
    path: &'a Path,
    before: Option<&'a Node>,
    after: Option<&'a Node>,
    is_leaf: bool,
}

impl<'a> RecordRef<'a> {
    /// A view of one record: endpoints plus a change value it borrows.
    pub fn new(q1: usize, q2: usize, change: &'a TreeChange) -> Self {
        RecordRef {
            q1,
            q2,
            path: &change.path,
            before: change.before.as_ref(),
            after: change.after.as_ref(),
            is_leaf: change.is_leaf,
        }
    }

    /// A view of one record: endpoints plus a change row, read through its table.
    pub(crate) fn of_row(q1: usize, q2: usize, table: &'a ChangeTable, row: ChangeRow) -> Self {
        RecordRef {
            q1,
            q2,
            path: table.paths.get(row.path),
            before: table.members.get(row.before),
            after: table.members.get(row.after),
            is_leaf: row.is_leaf,
        }
    }

    /// Path of the transformed subtree (source-tree coordinates).
    pub fn path(&self) -> &'a Path {
        self.path
    }

    /// Subtree in the source tree; `None` for additions.
    pub fn before(&self) -> Option<&'a Node> {
        self.before
    }

    /// Subtree in the target tree; `None` for deletions.
    pub fn after(&self) -> Option<&'a Node> {
        self.after
    }

    /// True for a minimal changed subtree (leaf diff) rather than an ancestor record.
    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }
}

impl TreeChange {
    /// Whether the change replaces, adds, or removes a subtree.
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

    /// The subtrees this change contributes to a widget domain (both sides when present).
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

/// Applies the *leaf* changes of one alignment (ancestor changes are skipped) to a query.
///
/// Change paths are expressed in the source query's coordinates, so applying them one by one
/// in arbitrary order can shift sibling indices out from under later changes.  This helper
/// applies them in a safe order: replacements first (index-stable), then deletions from the
/// highest path down (so earlier removals cannot shift later ones), then additions from the
/// lowest path up (so earlier insertions create the slots later ones expect).
pub fn apply_leaf_changes(base: &Node, changes: &[TreeChange]) -> Result<Node, ReplaceError> {
    let mut out = base.clone();
    for change in changes.iter().filter(|c| c.is_leaf) {
        if change.change_kind() == ChangeKind::Replacement {
            out = change.apply(&out)?;
        }
    }
    let mut deletions: Vec<&TreeChange> = changes
        .iter()
        .filter(|c| c.is_leaf && c.change_kind() == ChangeKind::Deletion)
        .collect();
    deletions.sort_by(|a, b| b.path.cmp(&a.path));
    for change in deletions {
        out = change.apply(&out)?;
    }
    let mut additions: Vec<&TreeChange> = changes
        .iter()
        .filter(|c| c.is_leaf && c.change_kind() == ChangeKind::Addition)
        .collect();
    additions.sort_by(|a, b| a.path.cmp(&b.path));
    for change in additions {
        out = change.apply(&out)?;
    }
    Ok(out)
}

/// One change of a pair alignment, *index-free*: a `diffs` record minus the `(q1, q2)` log
/// endpoints.
///
/// Alignment is purely structural — two structurally identical tree pairs produce identical
/// change lists wherever they sit in the log — so this is the unit worth memoizing per
/// distinct tree pair.  A [`DiffStore`](crate::DiffStore) keeps one change list per
/// alignment, each change as a row of ids, and lets every compared pair of the same shapes
/// point at it; a [`RecordRef`] pairs a change with the endpoints of one such pair.  This
/// value is what [`crate::extract_changes`] returns.
///
/// Subtree sides alias the queries they came from ([`Node`] is a copy-on-write handle), so
/// nothing here deep-copies a tree.
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

/// Builds the index-free change list between two trees, expanding (and optionally pruning)
/// ancestors.  Leaf changes come first, in matcher order, then ancestors in [`Path`] order.
/// Runs on a fresh [`Scratch`] into a fresh change table; a
/// [`DiffStore`](crate::DiffStore) runs the same code on a reused scratch and writes the
/// list straight into its own table.
pub fn build_changes(a: &Node, b: &Node, policy: AncestorPolicy) -> Vec<TreeChange> {
    let mut table = ChangeTable::default();
    Scratch::default().changes_into(a, b, policy, &mut table);
    table.rows.iter().map(|&row| table.change(row)).collect()
}

impl Scratch {
    /// Aligns `a` with `b` and appends their change list to `out`'s rows: the leaf changes
    /// in matcher order, then the ancestors `policy` keeps, in [`Path`] order.  Returns the
    /// number of leaf changes.
    pub(crate) fn changes_into(
        &mut self,
        a: &Node,
        b: &Node,
        policy: AncestorPolicy,
        out: &mut ChangeTable,
    ) -> usize {
        let first = out.rows.len();
        self.leaves_into(a, b, out);
        let leaves = out.rows.len() - first;
        if leaves == 0 {
            return 0;
        }
        self.close(out, first, policy);
        for path in self.ancestors.drain(..) {
            // Both sides must exist: an ancestor of a change always exists in the source
            // tree, and in the target tree unless sibling shifts moved it; such rare cases
            // are simply skipped.
            if let (Some(before), Some(after)) = (a.get(&path), b.get(&path)) {
                if !before.same_tree(after) {
                    out.push(path.steps(), Some(before), Some(after), false);
                }
            }
        }
        leaves
    }

    /// Fills `self.ancestors` with the ancestor paths to materialise for a set of leaf
    /// changes, in [`Path`] order, without the leaf paths themselves (those are emitted as
    /// leaf records, so a root-level replacement already *is* the whole-tree
    /// transformation).
    ///
    /// `LcaPruned` keeps the root — the whole-query transformation is always a viable
    /// interaction (Figure 4) — and the least common ancestor of every pair of leaf paths.
    /// Sorted, adjacent pairs alone give every pair's: in `Path` (lexicographic) order, the
    /// common prefix of `p[i]` and `p[j]` (`i < j`) is the shortest of the adjacent pairs'
    /// common prefixes between them, and that one is also a prefix of `p[i]` — so each
    /// pairwise LCA is some adjacent pair's, in `O(k log k)` for `k` leaves instead of
    /// `O(k²)`.  Duplicate leaf paths add nothing (a path's LCA with itself is a leaf path)
    /// and are dropped first.  `Full` keeps every proper ancestor of every leaf path.
    ///
    /// The leaves are `table`'s rows from `first` on, and their paths are read from its
    /// path table, where equal paths have equal ids.
    fn close(&mut self, table: &ChangeTable, first: usize, policy: AncestorPolicy) {
        let leaves = &table.rows[first..];
        let path = |i: usize| table.paths.get(leaves[i].path);
        let (order, out) = (&mut self.leaf_order, &mut self.ancestors);
        order.clear();
        order.extend(0..leaves.len());
        order.sort_unstable_by(|&x, &y| path(x).cmp(path(y)));
        order.dedup_by(|x, y| leaves[*x].path == leaves[*y].path);
        out.clear();
        match policy {
            AncestorPolicy::Full => {
                for &i in order.iter() {
                    let steps = path(i).steps();
                    out.extend((0..steps.len()).map(|depth| Path::from(&steps[..depth])));
                }
            }
            AncestorPolicy::LcaPruned => {
                out.push(Path::root());
                out.extend(
                    order
                        .windows(2)
                        .map(|pair| path(pair[0]).common_prefix(path(pair[1]))),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|ancestor| order.binary_search_by(|&i| path(i).cmp(ancestor)).is_err());
    }
}

/// The ancestor closure of `leaves` on a fresh [`Scratch`] and a fresh table.
#[cfg(test)]
fn ancestor_paths(leaves: &[TreeChange], policy: AncestorPolicy) -> Vec<Path> {
    let mut table = ChangeTable::default();
    for leaf in leaves {
        table.push_change(leaf);
    }
    let mut scratch = Scratch::default();
    scratch.close(&table, 0, policy);
    scratch.ancestors
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
        let repl = change(Some(n.clone()), Some(Node::int(2)));
        assert_eq!(repl.change_kind(), ChangeKind::Replacement);
        let add = change(None, Some(n.clone()));
        assert_eq!(add.change_kind(), ChangeKind::Addition);
        let del = change(Some(n), None);
        assert_eq!(del.change_kind(), ChangeKind::Deletion);
        // A view of a record reads its endpoints and the change it borrows.
        let view = RecordRef::new(0, 1, &repl);
        assert_eq!((view.q1, view.q2, view.path()), (0, 1, &repl.path));
        assert_eq!(
            (view.before(), view.after()),
            (repl.before.as_ref(), repl.after.as_ref())
        );
        assert!(view.is_leaf());
    }

    #[test]
    fn ancestor_records_are_tree_typed() {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap();
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap();
        let changes = build_changes(&a, &b, AncestorPolicy::Full);
        for r in changes.iter().filter(|r| !r.is_leaf) {
            assert_eq!(r.primitive(), PrimitiveType::Tree);
            assert_eq!(r.change_kind(), ChangeKind::Replacement);
        }
    }

    #[test]
    fn lca_pruning_keeps_only_lcas() {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap();
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap();
        let changes = build_changes(&a, &b, AncestorPolicy::LcaPruned);
        let ancestors: Vec<&TreeChange> = changes.iter().filter(|r| !r.is_leaf).collect();
        // Exactly one ancestor: the root, the LCA of the projection change and the predicate
        // change.
        assert_eq!(ancestors.len(), 1);
        assert!(ancestors[0].path.is_root());
    }

    #[test]
    fn single_leaf_change_keeps_only_the_leaf_and_the_root_under_pruning() {
        let a = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let changes = build_changes(&a, &b, AncestorPolicy::LcaPruned);
        // The leaf itself plus the whole-query transformation; the intermediate Where/BiExpr
        // ancestors are pruned.
        assert_eq!(changes.len(), 2);
        assert_eq!(changes.iter().filter(|r| r.is_leaf).count(), 1);
        assert!(changes.iter().any(|r| !r.is_leaf && r.path.is_root()));
        let full = build_changes(&a, &b, AncestorPolicy::Full);
        assert!(full.len() > changes.len());
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
            let leaves: Vec<TreeChange> = paths
                .iter()
                .map(|path| TreeChange {
                    path: path.clone(),
                    before: None,
                    after: Some(Node::int(0)),
                    is_leaf: true,
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
        let changes = build_changes(&a, &b, AncestorPolicy::LcaPruned);
        let add = changes
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
        let changes = build_changes(&a, &b, AncestorPolicy::LcaPruned);
        let s = changes[0].summary();
        assert!(s.contains("repl"));
        assert!(s.contains("1"));
        assert!(s.contains("2"));
        assert!(s.contains("num"));
    }

    #[test]
    fn domain_subtrees_returns_both_sides() {
        let a = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let changes = build_changes(&a, &b, AncestorPolicy::LcaPruned);
        assert_eq!(changes[0].domain_subtrees().len(), 2);
    }
}
