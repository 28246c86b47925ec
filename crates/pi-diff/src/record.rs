//! The `diffs` table: records of subtree transformations between pairs of log queries.
//!
//! A pair's change list is its leaf changes, then the ancestors an [`AncestorPolicy`]
//! keeps.  The matcher in `align.rs` finds both in one walk: the node pairs whose child
//! lists it aligns are the proper prefixes of the leaf paths, and it records, for each,
//! whether the leaves below it branch, which is what LCA pruning keeps.

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
/// Runs on a fresh aligner scratch into a fresh change table; a
/// [`DiffStore`](crate::DiffStore) runs the same code on a reused scratch and writes the
/// list straight into its own table.
pub fn build_changes(a: &Node, b: &Node, policy: AncestorPolicy) -> Vec<TreeChange> {
    let mut table = ChangeTable::default();
    Scratch::default().changes_into(a, b, policy, &mut table);
    table.rows.iter().map(|&row| table.change(row)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_ast::NodeKind;

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

    /// A fixed LCG, so the generated trees are reproducible.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = (self.0)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) as usize % bound
        }
    }

    /// A random tree of at most `depth` levels over two list kinds and three column names,
    /// whose siblings often repeat a shape.
    fn tree(rng: &mut Lcg, depth: usize) -> Node {
        if depth == 0 || rng.below(3) == 0 {
            return Node::column(["x", "y", "z"][rng.below(3)]);
        }
        let kind = match rng.below(3) {
            0 => NodeKind::From,
            _ => NodeKind::Project,
        };
        let mut children: Vec<Node> = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let child = match children.last() {
                Some(last) if rng.below(3) == 0 => last.clone(),
                _ => tree(rng, depth - 1),
            };
            children.push(child);
        }
        Node::new(kind).with_children(children)
    }

    /// `t` with one random edit at a random node: the node replaced, one or two children
    /// inserted before, between or after its siblings (often copies of one), a child
    /// removed, or a child edited with two insertions in front of its predecessor.
    fn edit(rng: &mut Lcg, t: &Node) -> Node {
        let mut path = Path::root();
        let mut node = t;
        while !node.children().is_empty() && rng.below(3) != 0 {
            let k = rng.below(node.children().len());
            path.push(k);
            node = &node.children()[k];
        }
        let len = node.children().len();
        match rng.below(5) {
            0 | 1 if len > 0 => {
                let at = path.child(rng.below(len + 1));
                let mut edited = t.clone();
                for _ in 0..1 + rng.below(2) {
                    let child = match rng.below(2) {
                        0 => node.children()[rng.below(len)].clone(),
                        _ => tree(rng, 2),
                    };
                    edited = edited.inserted(&at, child).unwrap();
                }
                edited
            }
            2 if len > 1 => t.removed(&path.child(rng.below(len))).unwrap(),
            3 if len > 1 => {
                // An edit inside one child and two insertions before the sibling in front
                // of it: the second insertion takes the edited child's source index.
                let k = rng.below(len - 1);
                let inner = edit(rng, &node.children()[k + 1]);
                let mut edited = t.replaced(&path.child(k + 1), inner).unwrap();
                for _ in 0..2 {
                    edited = edited.inserted(&path.child(k), tree(rng, 1)).unwrap();
                }
                edited
            }
            _ => t.replaced(&path, tree(rng, 2)).unwrap(),
        }
    }

    /// The ancestor rows §6.2 defines for a list's leaf paths, pairwise: for `LcaPruned`
    /// the root and every pair's least common ancestor, for `Full` every proper prefix.
    /// Leaf paths are removed, and a path is a row only where both trees hold differing
    /// subtrees.
    fn pairwise_ancestors(
        a: &Node,
        b: &Node,
        leaves: &[Path],
        policy: AncestorPolicy,
    ) -> Vec<TreeChange> {
        use std::collections::BTreeSet;
        let mut paths = BTreeSet::new();
        for (i, path) in leaves.iter().enumerate() {
            match policy {
                AncestorPolicy::LcaPruned => {
                    paths.insert(Path::root());
                    for other in &leaves[i + 1..] {
                        paths.insert(path.common_prefix(other));
                    }
                }
                AncestorPolicy::Full => {
                    let mut cur = path.clone();
                    while let Some(parent) = cur.parent() {
                        paths.insert(parent.clone());
                        cur = parent;
                    }
                }
            }
        }
        for path in leaves {
            paths.remove(path);
        }
        (paths.into_iter())
            .filter_map(|path| {
                let (before, after) = (a.get(&path)?, b.get(&path)?);
                (!before.same_tree(after)).then(|| TreeChange {
                    before: Some(before.clone()),
                    after: Some(after.clone()),
                    path,
                    is_leaf: false,
                })
            })
            .collect()
    }

    #[test]
    fn ancestor_rows_equal_the_pairwise_definition() {
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        // How often the generated pairs reach the cases the walk has to get right.
        let (mut deep, mut nested, mut inserted_before, mut repeated) = (0, 0, 0, 0);
        for _ in 0..3_000 {
            let base = tree(&mut rng, 4);
            let mut edited = base.clone();
            for _ in 0..1 + rng.below(4) {
                edited = edit(&mut rng, &edited);
            }
            // A tower of ten levels, each behind a sibling, over a quarter of the pairs:
            // their changes lie past `Path`'s 8 inline steps.
            let tower = |t: Node| {
                (0..10).fold(t, |inner, _| {
                    Node::new(NodeKind::Project).with_children([Node::column("s"), inner])
                })
            };
            let (a, b) = match rng.below(4) {
                0 => (tower(base), tower(edited)),
                _ => (base, edited),
            };
            let leaves: Vec<TreeChange> = crate::leaf_changes(&a, &b);
            let paths: Vec<Path> = leaves.iter().map(|c| c.path.clone()).collect();
            for policy in [AncestorPolicy::LcaPruned, AncestorPolicy::Full] {
                let changes = build_changes(&a, &b, policy);
                let (head, ancestors) = changes.split_at(leaves.len());
                assert_eq!(head, &leaves[..], "{policy:?}: the leaves come first");
                assert_eq!(
                    ancestors,
                    &pairwise_ancestors(&a, &b, &paths, policy)[..],
                    "{policy:?} over the leaf paths {paths:?}"
                );
            }
            deep += usize::from(paths.iter().any(|p| p.depth() > 8));
            nested +=
                usize::from((paths.iter()).any(|p| paths.iter().any(|q| p.is_strict_prefix_of(q))));
            inserted_before += usize::from(leaves.iter().any(|c| {
                let parent = c.path.parent().and_then(|parent| a.get(&parent));
                c.before.is_none()
                    && parent.is_some_and(|p| c.path.last() < Some(p.children().len()))
            }));
            repeated += usize::from(leaves.iter().any(|c| {
                let parent = c.path.parent().and_then(|parent| a.get(&parent));
                parent.is_some_and(|p| {
                    let hashes = p.children().iter().map(Node::structural_hash);
                    let distinct: std::collections::HashSet<u64> = hashes.collect();
                    distinct.len() < p.children().len()
                })
            }));
        }
        assert!(
            deep > 500 && nested > 50 && inserted_before > 500 && repeated > 500,
            "{deep} deep, {nested} nested, {inserted_before} inserted before a sibling, \
             {repeated} under repeated sibling shapes"
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
}
