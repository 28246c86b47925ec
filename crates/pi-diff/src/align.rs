//! Ordered tree matching and extraction of minimal changed subtrees ("leaf diffs").
//!
//! The matcher preserves ancestor relationships and left-to-right sibling order, in the spirit
//! of the ordered tree matching algorithm the paper references (Bille's survey).  It proceeds
//! top-down:
//!
//! * two nodes with different labels (kind or attributes) are reported as a single replacement
//!   of the whole subtree;
//! * two nodes with the same label have their child lists aligned — exactly-equal subtrees are
//!   anchored with a longest-common-subsequence pass over structural hashes, and whatever sits
//!   between anchors is paired positionally and recursed into (or reported as an insertion /
//!   deletion when one side runs out).
//!
//! All of an alignment's working state lives in one [`Scratch`], cleared and reused from one
//! alignment to the next: the current path is pushed and popped in place (and copied only
//! when the table meets it for the first time), the anchors of every open level share one
//! stack, and the hash and LCS buffers are refilled per level.  The matcher writes each leaf
//! change straight onto the end of a change table, as a row of ids: the current path's id
//! is one probe of the table's path index, and each side's member id one probe of its
//! member index, so an emitted change copies no path and clones no subtree handle unless
//! the path or the subtree is new to the table.
//!
//! The ancestor closure is found by the same walk.  Every proper prefix of a leaf path is a
//! node pair whose child lists the matcher aligned, so the walk records those pairs in
//! preorder, which is [`Path`] order, each with what it saw below it: whether a leaf change
//! lies below, whether the leaves below take two or more distinct child steps (the pair is
//! then a least common ancestor of two of them), and whether an earlier gap's insertion
//! landed on the pair's own path (which makes it a leaf path).  The ancestor rows are read
//! off that list once the leaves are written; nothing is sorted.
//!
//! A [`DiffStore`] keeps one scratch per thread and hands its change table over
//! ([`DiffStore::push_alignment`]), so once the buffers and tables have grown an alignment
//! allocates nothing.  [`leaf_changes`] and [`crate::extract_changes`] run the same code on
//! a fresh scratch and a fresh table.
//!
//! [`DiffStore`]: crate::DiffStore
//! [`DiffStore::push_alignment`]: crate::DiffStore::push_alignment

use crate::record::{AncestorPolicy, TreeChange};
use crate::table::ChangeTable;
use pi_ast::{Node, Path};

/// Computes the minimal changed subtrees that transform `a` into `b`, in matcher order, each
/// marked `is_leaf`.
///
/// A change's path locates it in the *source* tree: for replacements and deletions it is the
/// changed subtree's path, for insertions the position (in source coordinates) where the new
/// subtree appears.  Both sides alias their source queries: [`Node`] is a copy-on-write
/// handle, so taking a subtree out of a query is a refcount bump.
pub fn leaf_changes(a: &Node, b: &Node) -> Vec<TreeChange> {
    let mut table = ChangeTable::default();
    Scratch::default().leaves_into(a, b, &mut table);
    table.rows.iter().map(|&row| table.change(row)).collect()
}

/// The working state of an alignment and its ancestor closure, shared by every recursion
/// level and reused from one alignment to the next.  Every buffer is refilled before it is
/// read, so reuse cannot change a result.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Location of the node pair being aligned; the root between alignments.
    path: Path,
    /// LCS anchors of every open level, innermost on top; a level truncates back to its
    /// base before it returns.
    anchors: Vec<(usize, usize)>,
    /// Structural hashes of the untrimmed middles of the current level's child lists.
    ah: Vec<u64>,
    bh: Vec<u64>,
    /// The current level's LCS table.
    dp: Vec<u32>,
    /// The node pairs whose child lists this alignment aligned and that have a leaf change
    /// below them, in preorder.
    visits: Vec<Visit>,
}

/// A node pair whose child lists the matcher aligned, with what its walk found below it.
/// The walk records pairs in preorder and enters children by increasing index, so the
/// visits of an alignment are in [`Path`] order; a pair with no leaf change below is
/// dropped, with everything under it, when its walk returns.
#[derive(Debug, Clone, Copy)]
struct Visit {
    /// The pair's depth: its path is its parent's path and then `step`.
    depth: usize,
    /// The pair's index in its parent's child list; 0 for the root.
    step: usize,
    /// The leaves below take two or more distinct child steps, so the pair is the least
    /// common ancestor of two of them.
    branching: bool,
    /// An earlier gap's insertion landed on the pair's own path, which is therefore a leaf
    /// path as well.
    leaf_path: bool,
}

/// What the walk of one pair's child lists has found so far.
#[derive(Default)]
struct Level {
    /// The first child step a leaf change was emitted under.
    first_step: Option<usize>,
    /// A leaf change was emitted under a second, different child step.
    branching: bool,
    /// One past the highest child index an insertion landed on.  A later gap's pair whose
    /// index lies below it sits on an insertion's path: every insertion range starts at the
    /// anchor that closes its gap, below every later pair.
    inserted_end: usize,
}

impl Level {
    fn leaf_under(&mut self, step: usize) {
        match self.first_step {
            None => self.first_step = Some(step),
            Some(first) => self.branching |= first != step,
        }
    }
}

impl Scratch {
    /// Appends the leaf changes that transform `a` into `b` to `out`, in matcher order,
    /// each marked `is_leaf`, and records the walk's visits.
    pub(crate) fn leaves_into(&mut self, a: &Node, b: &Node, out: &mut ChangeTable) {
        // Balanced pushes and pops leave both at their base; a panic that unwound out of an
        // earlier alignment may not have.
        self.anchors.clear();
        self.visits.clear();
        while self.path.pop().is_some() {}
        self.diff_nodes(a, b, false, out);
    }

    /// Aligns `a` with `b` and appends their change list to `out`'s rows: the leaf changes
    /// in matcher order, then the ancestors `policy` keeps, in [`Path`] order.  Returns the
    /// number of leaf changes.
    ///
    /// The ancestors are the recorded visits, less those on a leaf path (a leaf record
    /// already is that transformation, so a root-level replacement is the whole-tree
    /// one).  `Full` keeps every other visit: each is a proper prefix of a leaf path, and
    /// each such prefix is a visit.  `LcaPruned` keeps the root (the whole-query
    /// transformation is always a viable interaction, Figure 4) and each branching visit:
    /// the least common ancestor of two leaf paths is either one of them or the node where
    /// they take different child steps.  A kept path becomes a row only where both trees
    /// hold differing subtrees there.
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
        for k in 0..self.visits.len() {
            let visit = self.visits[k];
            // The path holds the previous visit's, so its first `depth - 1` steps are this
            // visit's parent's; the root comes first.
            if visit.depth > 0 {
                while self.path.depth() >= visit.depth {
                    self.path.pop();
                }
                self.path.push(visit.step);
            }
            let kept = match policy {
                AncestorPolicy::Full => true,
                AncestorPolicy::LcaPruned => visit.depth == 0 || visit.branching,
            };
            if !kept || visit.leaf_path {
                continue;
            }
            // Both sides must exist: an ancestor of a change always exists in the source
            // tree, and in the target tree unless sibling shifts moved it; such rare cases
            // are simply skipped.
            if let (Some(before), Some(after)) = (a.get(&self.path), b.get(&self.path)) {
                if !before.same_tree(after) {
                    out.push(self.path.steps(), Some(before), Some(after), false);
                }
            }
        }
        while self.path.pop().is_some() {}
        leaves
    }

    fn diff_nodes(&mut self, a: &Node, b: &Node, leaf_path: bool, out: &mut ChangeTable) {
        // O(1) equal-subtree short-circuit on the memoized structural hash — this, not the
        // deep `==`, is what makes pairwise alignment cheap on mostly-identical log queries.
        if a.same_tree(b) {
            return;
        }
        if !a.same_label(b) {
            self.emit(Some(a), Some(b), out);
            return;
        }
        self.align_children(a, b, leaf_path, out);
    }

    /// Records a leaf change at the current path.
    fn emit(&self, before: Option<&Node>, after: Option<&Node>, out: &mut ChangeTable) {
        out.push(self.path.steps(), before, after, true);
    }

    /// Aligns the child lists of two same-labelled nodes and recurses, recording the pair
    /// as a visit.
    fn align_children(&mut self, a: &Node, b: &Node, leaf_path: bool, out: &mut ChangeTable) {
        let visit = self.visits.len();
        self.visits.push(Visit {
            depth: self.path.depth(),
            step: self.path.last().unwrap_or(0),
            branching: false,
            leaf_path,
        });
        let ac = a.children();
        let bc = b.children();
        let (n, m) = (ac.len(), bc.len());

        // Anchor exactly-equal subtrees with an LCS over structural hashes.  Child lists of
        // log queries overwhelmingly agree at both ends (one clause changed in the middle),
        // so trim the common prefix and suffix first: greedily matching equal ends always
        // yields *a* maximal LCS, and trimming shrinks the quadratic DP to the changed
        // middle (often empty).  When sibling hashes repeat, this is a different — equally
        // optimal — tie-break than the untrimmed DP walk would pick: end-anchored matches
        // keep changes local (one in-place replacement rather than a delete/insert pair
        // straddling the duplicate), which is at worst neutral for the record count.
        let mut prefix = 0usize;
        while prefix < n && prefix < m && ac[prefix].same_tree(&bc[prefix]) {
            prefix += 1;
        }
        let mut suffix = 0usize;
        while suffix < n - prefix
            && suffix < m - prefix
            && ac[n - 1 - suffix].same_tree(&bc[m - 1 - suffix])
        {
            suffix += 1;
        }
        // The trimmed ends are anchors too, but the gaps between consecutive end anchors are
        // empty, so they are walked rather than stored: the walk starts just past the prefix
        // and ends at the first suffix anchor, `(n - suffix, m - suffix)` — the `(n, m)`
        // sentinel when there is no suffix.
        let base = self.anchors.len();
        self.lcs_anchors(&ac[prefix..n - suffix], &bc[prefix..m - suffix], prefix);
        let mut level = Level::default();
        let (mut ai, mut bi) = (prefix, prefix);
        for k in base..=self.anchors.len() {
            let (anchor_a, anchor_b) = self
                .anchors
                .get(k)
                .copied()
                .unwrap_or((n - suffix, m - suffix));
            self.gap(&ac[ai..anchor_a], &bc[bi..anchor_b], ai, &mut level, out);
            ai = anchor_a + 1;
            bi = anchor_b + 1;
        }
        self.anchors.truncate(base);
        match level.first_step {
            // No leaf below: neither this pair nor any pair under it is an ancestor.
            None => self.visits.truncate(visit),
            Some(_) => self.visits[visit].branching = level.branching,
        }
    }

    /// Everything between two anchors: unmatched children, paired positionally from
    /// source index `at`, then the leftovers of the longer side.
    fn gap(
        &mut self,
        gap_a: &[Node],
        gap_b: &[Node],
        at: usize,
        level: &mut Level,
        out: &mut ChangeTable,
    ) {
        let paired = gap_a.len().min(gap_b.len());
        for k in 0..paired {
            let rows = out.rows.len();
            self.path.push(at + k);
            self.diff_nodes(&gap_a[k], &gap_b[k], at + k < level.inserted_end, out);
            self.path.pop();
            if out.rows.len() > rows {
                level.leaf_under(at + k);
            }
        }
        // Source has extra children: deletions.  Target has extra children: insertions,
        // whose path records where they would be inserted, in source coordinates.  At most
        // one of the two loops runs.
        for (k, extra) in gap_a.iter().enumerate().skip(paired) {
            self.path.push(at + k);
            self.emit(Some(extra), None, out);
            self.path.pop();
            level.leaf_under(at + k);
        }
        for (k, extra) in gap_b.iter().enumerate().skip(paired) {
            self.path.push(at + k);
            self.emit(None, Some(extra), out);
            self.path.pop();
            level.leaf_under(at + k);
            level.inserted_end = level.inserted_end.max(at + k + 1);
        }
    }

    /// Pushes the longest common subsequence of two child lists (compared by structural
    /// hash) onto the anchor stack as index pairs shifted by `offset`.
    fn lcs_anchors(&mut self, a: &[Node], b: &[Node], offset: usize) {
        let (n, m) = (a.len(), b.len());
        if n == 0 || m == 0 {
            return;
        }
        self.ah.clear();
        self.ah.extend(a.iter().map(Node::structural_hash));
        self.bh.clear();
        self.bh.extend(b.iter().map(Node::structural_hash));
        let (ah, bh) = (&self.ah, &self.bh);
        // dp[i·w + j] = LCS length of a[i..], b[j..], in one flat row-major buffer.
        let w = m + 1;
        let dp = &mut self.dp;
        dp.clear();
        dp.resize((n + 1) * w, 0);
        for i in (0..n).rev() {
            for j in (0..m).rev() {
                dp[i * w + j] = if ah[i] == bh[j] {
                    dp[(i + 1) * w + j + 1] + 1
                } else {
                    dp[(i + 1) * w + j].max(dp[i * w + j + 1])
                };
            }
        }
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            if ah[i] == bh[j] {
                self.anchors.push((i + offset, j + offset));
                i += 1;
                j += 1;
            } else if dp[(i + 1) * w + j] >= dp[i * w + j + 1] {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChangeKind;
    use pi_ast::Frontend as _;
    use pi_ast::NodeKind;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    #[test]
    fn equal_trees_have_no_changes() {
        let q = parse("SELECT a, b FROM t WHERE c = 1").unwrap();
        assert!(leaf_changes(&q, &q).is_empty());
    }

    #[test]
    fn single_literal_change_is_one_leaf() {
        let a = parse("SELECT a FROM t WHERE c = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE c = 2").unwrap();
        let changes = leaf_changes(&a, &b);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].change_kind(), ChangeKind::Replacement);
        assert_eq!(
            changes[0].before.as_ref().unwrap().numeric_value(),
            Some(1.0)
        );
        assert_eq!(
            changes[0].after.as_ref().unwrap().numeric_value(),
            Some(2.0)
        );
    }

    #[test]
    fn completely_different_roots_collapse_to_one_change() {
        let a = parse("SELECT a FROM t").unwrap();
        let b = parse("SELECT DISTINCT a FROM t").unwrap();
        // The DISTINCT flag lives in the root's attributes, so the whole tree is replaced.
        let changes = leaf_changes(&a, &b);
        assert_eq!(changes.len(), 1);
        assert!(changes[0].path.is_root());
    }

    #[test]
    fn insertion_in_the_middle_is_detected_without_spurious_changes() {
        let a = parse("SELECT a, c FROM t").unwrap();
        let b = parse("SELECT a, b, c FROM t").unwrap();
        let changes = leaf_changes(&a, &b);
        assert_eq!(changes.len(), 1, "{changes:#?}");
        assert!(changes[0].before.is_none());
        assert_eq!(
            changes[0].after.as_ref().unwrap().kind(),
            NodeKind::ProjClause
        );
        // Inserted at index 1 of the projection list.
        assert_eq!(changes[0].path.to_string(), "0/1");
    }

    #[test]
    fn deletion_at_the_front_is_detected() {
        let a = parse("SELECT COUNT(Delay), DestState FROM ontime").unwrap();
        let b = parse("SELECT DestState FROM ontime").unwrap();
        let changes = leaf_changes(&a, &b);
        assert_eq!(changes.len(), 1, "{changes:#?}");
        assert!(changes[0].after.is_none());
        assert_eq!(changes[0].path.to_string(), "0/0");
    }

    #[test]
    fn multiple_independent_changes_are_all_reported() {
        let a = parse("SELECT sales, day FROM t WHERE cty = 'USA' AND y = 1").unwrap();
        let b = parse("SELECT costs, day FROM t WHERE cty = 'EUR' AND y = 1").unwrap();
        let changes = leaf_changes(&a, &b);
        assert_eq!(changes.len(), 2);
        assert!(changes
            .iter()
            .all(|c| c.is_leaf && c.change_kind() == ChangeKind::Replacement));
    }

    #[test]
    fn sibling_swap_reports_localised_changes() {
        let a = parse("SELECT a, b FROM t").unwrap();
        let b = parse("SELECT b, a FROM t").unwrap();
        let changes = leaf_changes(&a, &b);
        // An ordered matcher cannot "move" nodes; it reports the columns as changed in place
        // (either two replacements, or one anchor plus an insert/delete pair).
        assert!(!changes.is_empty() && changes.len() <= 2, "{changes:#?}");
    }

    /// The LCS anchors of two lists of columns named by the given numbers (equal numbers,
    /// equal hashes), read back off a fresh scratch.
    fn lcs_pairs(a: &[u64], b: &[u64]) -> Vec<(usize, usize)> {
        let cols = |names: &[u64]| {
            names
                .iter()
                .map(|n| col(&n.to_string()))
                .collect::<Vec<_>>()
        };
        let mut scratch = Scratch::default();
        scratch.lcs_anchors(&cols(a), &cols(b), 0);
        scratch.anchors
    }

    #[test]
    fn lcs_matches_longest_anchor_sequence() {
        assert_eq!(
            lcs_pairs(&[1, 2, 3], &[1, 2, 3]),
            vec![(0, 0), (1, 1), (2, 2)]
        );
        assert_eq!(lcs_pairs(&[1, 9, 3], &[1, 3]), vec![(0, 0), (2, 1)]);
        assert_eq!(lcs_pairs(&[], &[1]), vec![]);
        assert_eq!(lcs_pairs(&[5, 1, 2], &[1, 2, 5]).len(), 2);
        // A one-child side anchors at that child's first match.
        assert_eq!(lcs_pairs(&[7], &[1, 7, 2, 7]), vec![(0, 1)]);
        assert_eq!(lcs_pairs(&[1, 7, 2, 7], &[7]), vec![(1, 0)]);
        assert_eq!(lcs_pairs(&[7], &[1, 2]), vec![]);
    }

    /// A same-labelled interior node over `children`: aligning two of these recurses into
    /// their child lists.
    fn list<const N: usize>(children: [Node; N]) -> Node {
        Node::new(NodeKind::Project).with_children(children)
    }

    fn col(name: &str) -> Node {
        Node::column(name)
    }

    /// `path kind before>after`, one line per change in emission order.
    fn show(a: &Node, b: &Node) -> Vec<String> {
        let side = |n: &Option<Node>| n.as_ref().map_or("-".to_string(), Node::label);
        leaf_changes(a, b)
            .iter()
            .map(|c| format!("{} {}>{}", c.path, side(&c.before), side(&c.after)))
            .collect()
    }

    #[test]
    fn an_insertion_takes_the_next_anchors_source_index() {
        // No end trims (both ends differ), so the LCS anchors `x` and `z`; `y` lands between
        // them at source index 2 — the index of the anchor that follows it.
        let a = list([list([col("c")]), col("x"), col("z"), list([col("e")])]);
        let b = list([
            list([col("d")]),
            col("x"),
            col("y"),
            col("z"),
            list([col("f")]),
        ]);
        assert_eq!(show(&a, &b), ["0/0 c>d", "2 ->y", "3/0 e>f"]);
        assert_eq!(show(&b, &a), ["0/0 d>c", "2 y>-", "4/0 f>e"]);
    }

    #[test]
    fn repeated_sibling_hashes_follow_the_lcs_tie_break() {
        let (x, y) = (col("x"), col("y"));
        let a = list([x.clone(), y.clone(), x.clone()]);
        let b = list([y.clone(), x.clone(), y.clone()]);
        assert_eq!(show(&a, &b), ["0 x>-", "3 ->y"]);
        assert_eq!(show(&b, &a), ["0 y>-", "3 ->x"]);
        // A trimmed prefix in front of a repeated middle.
        let a = list([x.clone(), x.clone(), y.clone()]);
        let b = list([x.clone(), y.clone(), x.clone()]);
        assert_eq!(show(&a, &b), ["1 x>-", "3 ->x"]);
        // Equal-length middles of repeated shapes pair positionally between anchors.
        let a = list([col("p"), x.clone(), y.clone(), x.clone(), col("q")]);
        let b = list([col("r"), y.clone(), x.clone(), y.clone(), col("s")]);
        assert_eq!(show(&a, &b), ["0 p>r", "1 x>-", "4 q>y", "5 ->s"]);
        // Trimmed ends leave the middles `[x]` and `[x, y, x]`: `x` anchors at its first
        // occurrence, and `y` and the second `x` are inserted after it.
        let a = list([col("s"), x.clone(), col("t")]);
        let b = list([col("s"), x.clone(), y.clone(), x.clone(), col("t")]);
        assert_eq!(show(&a, &b), ["2 ->y", "3 ->x"]);
        assert_eq!(show(&b, &a), ["2 y>-", "3 x>-"]);
    }

    #[test]
    fn an_insertion_on_a_recursed_pairs_path_makes_it_a_leaf_path() {
        // `x` anchors, so `y` and `z` are inserted at 0 and 1, and the lists after `x` pair
        // at source index 1, the path `z`'s insertion took.
        let a = list([col("x"), list([col("c"), col("e")])]);
        let b = list([col("y"), col("z"), col("x"), list([col("d"), col("f")])]);
        assert_eq!(show(&a, &b), ["0 ->y", "1 ->z", "1/0 c>d", "1/1 e>f"]);
        // `1` is the least common ancestor of `1/0` and `1/1` and a prefix of both, but it
        // is a leaf path, so only the root is an ancestor row.
        for policy in [AncestorPolicy::LcaPruned, AncestorPolicy::Full] {
            let changes = crate::extract_changes(&a, &b, policy);
            let ancestors: Vec<String> = (changes.iter().filter(|c| !c.is_leaf))
                .map(|c| c.path.to_string())
                .collect();
            assert_eq!(ancestors, ["/"], "{policy:?}");
        }
    }

    #[test]
    fn prefix_only_and_suffix_only_trims() {
        let (x, y) = (col("x"), col("y"));
        let prefix_only = (
            list([x.clone(), y.clone(), col("p")]),
            list([x.clone(), y.clone(), col("q")]),
        );
        assert_eq!(show(&prefix_only.0, &prefix_only.1), ["2 p>q"]);
        let suffix_only = (
            list([col("p"), x.clone(), y.clone()]),
            list([col("q"), x.clone(), y.clone()]),
        );
        assert_eq!(show(&suffix_only.0, &suffix_only.1), ["0 p>q"]);
        // Suffix trim with a longer source middle: pair, then delete the leftover.
        let a = list([col("p"), col("r"), x.clone()]);
        let b = list([col("q"), x.clone()]);
        assert_eq!(show(&a, &b), ["0 p>q", "1 r>-"]);
        assert_eq!(show(&b, &a), ["0 q>p", "1 ->r"]);
    }

    #[test]
    fn an_empty_middle_on_one_side_is_a_pure_insertion_or_deletion() {
        let (x, y, z) = (col("x"), col("y"), col("z"));
        let three = list([x.clone(), y.clone(), z.clone()]);
        let two = list([x.clone(), z.clone()]);
        assert_eq!(show(&three, &two), ["1 y>-"]);
        assert_eq!(show(&two, &three), ["1 ->y"]);
        // Both trims meet: the whole source list is prefix and the target only appends.
        let short = list([x.clone(), y.clone()]);
        let long = list([x.clone(), y.clone(), z.clone(), x.clone()]);
        assert_eq!(show(&short, &long), ["2 ->z", "3 ->x"]);
        assert_eq!(show(&long, &short), ["2 z>-", "3 x>-"]);
    }

    #[test]
    fn changes_nested_under_trimmed_ends_keep_their_offsets() {
        let inner = |leaf: &str| list([col("k"), col("k2"), col(leaf), col("t")]);
        let a = list([col("s"), col("s2"), inner("p"), col("u")]);
        let b = list([col("s"), col("s2"), inner("q"), col("u")]);
        assert_eq!(show(&a, &b), ["2/2 p>q"]);
        // Two changed children under one trimmed prefix: emitted in sibling order.
        let a = list([col("s"), inner("p"), inner("r"), col("u")]);
        let b = list([col("s"), inner("q"), inner("w"), col("u")]);
        assert_eq!(show(&a, &b), ["1/2 p>q", "2/2 r>w"]);
    }

    #[test]
    fn changes_deeper_than_the_inline_path_capacity() {
        // Ten nested levels, each with a trimmed sibling in front: the changes sit at depth
        // 11, past `Path`'s eight inline steps.
        fn deep(levels: usize, bottom: Node) -> Node {
            (0..levels).fold(bottom, |inner, _| list([col("s"), inner]))
        }
        let a = deep(10, list([col("k"), col("p")]));
        let b = deep(10, list([col("k"), col("q"), col("n")]));
        let changes = leaf_changes(&a, &b);
        assert!(changes.iter().all(|c| c.path.depth() == 11));
        assert_eq!(
            show(&a, &b),
            ["1/1/1/1/1/1/1/1/1/1/1 p>q", "1/1/1/1/1/1/1/1/1/1/2 ->n"]
        );
        assert_eq!(a.get(&changes[0].path).unwrap().label(), "p");
    }

    #[test]
    fn nested_subquery_changes_stay_local() {
        let a = parse("SELECT * FROM (SELECT a FROM T WHERE b > 10)").unwrap();
        let b = parse("SELECT * FROM (SELECT a FROM T WHERE b > 20)").unwrap();
        let changes = leaf_changes(&a, &b);
        assert_eq!(changes.len(), 1);
        // The path dives into the subquery: FROM -> SubqueryRef -> Select -> Where -> ...
        assert!(changes[0].path.depth() >= 5);
    }
}
