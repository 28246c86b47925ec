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
//! One alignment allocates one [`Scratch`] and every recursion level reuses it: the current
//! path is pushed and popped in place (and copied only into an emitted change), the anchors
//! of every open level share one stack, and the hash and LCS buffers are refilled per level.
//! So a level allocates nothing once the buffers have grown to the widest child list.

use pi_ast::{Node, Path};

/// One minimal changed subtree between two trees.
///
/// Both sides alias their source queries: [`Node`] is a copy-on-write handle, so "cloning a
/// subtree out" of a query at extraction time is a refcount bump, after which diff records,
/// stores, widget domains and applied interactions all share the same allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafChange {
    /// Location of the change.  For replacements and deletions this is the subtree's path in
    /// the *source* tree; for insertions it is the position (in source coordinates) where the
    /// new subtree appears.
    pub path: Path,
    /// The subtree in the source tree (`None` for insertions).
    pub before: Option<Node>,
    /// The subtree in the target tree (`None` for deletions).
    pub after: Option<Node>,
}

impl LeafChange {
    /// True when this change replaces one subtree by another.
    pub fn is_replacement(&self) -> bool {
        self.before.is_some() && self.after.is_some()
    }
}

/// Computes the minimal changed subtrees that transform `a` into `b`.
pub fn leaf_changes(a: &Node, b: &Node) -> Vec<LeafChange> {
    let mut scratch = Scratch::default();
    scratch.diff_nodes(a, b);
    scratch.out
}

/// Convenience alias of [`leaf_changes`], named after its role in the pipeline.
pub fn diff_trees(a: &Node, b: &Node) -> Vec<LeafChange> {
    leaf_changes(a, b)
}

/// The working state of one alignment, shared by every recursion level.
#[derive(Default)]
struct Scratch {
    /// Location of the node pair being aligned.
    path: Path,
    /// LCS anchors of every open level, innermost on top; a level truncates back to its
    /// base before it returns.
    anchors: Vec<(usize, usize)>,
    /// Structural hashes of the untrimmed middles of the current level's child lists.
    ah: Vec<u64>,
    bh: Vec<u64>,
    /// The current level's LCS table.
    dp: Vec<u32>,
    out: Vec<LeafChange>,
}

impl Scratch {
    fn diff_nodes(&mut self, a: &Node, b: &Node) {
        // O(1) equal-subtree short-circuit on the memoized structural hash — this, not the
        // deep `==`, is what makes pairwise alignment cheap on mostly-identical log queries.
        if a.same_tree(b) {
            return;
        }
        if !a.same_label(b) {
            self.emit(Some(a), Some(b));
            return;
        }
        self.align_children(a, b);
    }

    /// Records a change at the current path; the emitted path is rebuilt from the steps so
    /// it is stored inline whenever it fits.
    fn emit(&mut self, before: Option<&Node>, after: Option<&Node>) {
        self.out.push(LeafChange {
            path: Path::from(self.path.steps()),
            before: before.cloned(),
            after: after.cloned(),
        });
    }

    /// Aligns the child lists of two same-labelled nodes and recurses.
    fn align_children(&mut self, a: &Node, b: &Node) {
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
        let (mut ai, mut bi) = (prefix, prefix);
        for k in base..=self.anchors.len() {
            let (anchor_a, anchor_b) = self
                .anchors
                .get(k)
                .copied()
                .unwrap_or((n - suffix, m - suffix));
            self.gap(&ac[ai..anchor_a], &bc[bi..anchor_b], ai);
            ai = anchor_a + 1;
            bi = anchor_b + 1;
        }
        self.anchors.truncate(base);
    }

    /// Everything between two anchors: unmatched children, paired positionally from
    /// source index `at`, then the leftovers of the longer side.
    fn gap(&mut self, gap_a: &[Node], gap_b: &[Node], at: usize) {
        let paired = gap_a.len().min(gap_b.len());
        for k in 0..paired {
            self.path.push(at + k);
            self.diff_nodes(&gap_a[k], &gap_b[k]);
            self.path.pop();
        }
        // Source has extra children: deletions.  Target has extra children: insertions,
        // whose path records where they would be inserted, in source coordinates.  At most
        // one of the two loops runs.
        for (k, extra) in gap_a.iter().enumerate().skip(paired) {
            self.path.push(at + k);
            self.emit(Some(extra), None);
            self.path.pop();
        }
        for (k, extra) in gap_b.iter().enumerate().skip(paired) {
            self.path.push(at + k);
            self.emit(None, Some(extra));
            self.path.pop();
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
        assert!(changes[0].is_replacement());
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
        assert!(changes.iter().all(|c| c.is_replacement()));
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
