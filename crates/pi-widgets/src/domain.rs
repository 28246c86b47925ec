//! Widget domains: the set of subtrees a widget can put at its path.

use pi_ast::{Dialect, Node, NodeId, PrimitiveType};
use pi_diff::RecordRef;
use std::collections::HashSet;

/// What the widget rules read of one subtree: its primitive type and, for a numeric
/// literal, its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberFacts {
    /// The subtree's [`Node::primitive_type`].
    pub prim: PrimitiveType,
    /// The subtree's [`Node::numeric_value`].
    pub value: Option<f64>,
}

impl MemberFacts {
    /// The facts of one subtree.
    pub fn of(node: &Node) -> Self {
        MemberFacts {
            prim: node.primitive_type(),
            value: node.numeric_value(),
        }
    }
}

/// The shape of a domain: everything the widget rules ([`WidgetType::accepts`],
/// [`WidgetType::can_place`]) and cost functions read of it — the number of explicit
/// members, their primitive type, their numeric range, and whether "no subtree at all" is
/// one of the options.  It depends on the members' [`MemberFacts`] only, so it can be
/// built without the subtrees themselves.
///
/// [`WidgetType::accepts`]: crate::WidgetType::accepts
/// [`WidgetType::can_place`]: crate::WidgetType::can_place
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainShape {
    members: usize,
    prim: PrimitiveType,
    includes_absent: bool,
    numeric_range: Option<(f64, f64)>,
}

impl Default for DomainShape {
    fn default() -> Self {
        DomainShape {
            members: 0,
            prim: PrimitiveType::Num,
            includes_absent: false,
            numeric_range: None,
        }
    }
}

impl DomainShape {
    /// Counts one more (distinct) explicit member: the primitive type joins over the
    /// members and the numeric range spans their numeric values.
    pub fn add_member(&mut self, facts: MemberFacts) {
        self.prim = if self.members == 0 {
            facts.prim
        } else {
            self.prim.join(facts.prim)
        };
        if let Some(v) = facts.value {
            self.numeric_range = Some(match self.numeric_range {
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
                None => (v, v),
            });
        }
        self.members += 1;
    }

    /// Marks "absent" (no subtree at the path) as one of the selectable options.
    pub fn set_includes_absent(&mut self, value: bool) {
        self.includes_absent = value;
    }

    /// Number of explicit members.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Number of selectable options (explicit members, plus one for "absent" when allowed).
    pub fn size(&self) -> usize {
        self.members + usize::from(self.includes_absent)
    }

    /// True when the domain has no options at all.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// The join of all member types (paper: a rule will "enforce that the elements in a
    /// domain d are all of a particular type").
    pub fn primitive(&self) -> PrimitiveType {
        self.prim
    }

    /// True when one of the options is "no subtree at this path".
    pub fn includes_absent(&self) -> bool {
        self.includes_absent
    }

    /// The numeric range spanned by the members, if all of them are numeric.
    pub fn numeric_range(&self) -> Option<(f64, f64)> {
        if self.prim == PrimitiveType::Num {
            self.numeric_range
        } else {
            None
        }
    }

    /// Whether `value` lies within [`DomainShape::numeric_range`]: the values a slider
    /// extrapolates its domain to (Example 4.3).
    pub fn spans(&self, value: f64) -> bool {
        self.numeric_range()
            .is_some_and(|(lo, hi)| value >= lo && value <= hi)
    }
}

/// The domain `w.d` of a widget: the subtrees the widget can substitute at its path, plus
/// its [`DomainShape`], the metadata the widget rules and cost functions need.
///
/// Each subtree carries the [`Dialect`] of the query it was first observed in, so a
/// mixed-log interface can render every option in its originating language.  The tag is
/// presentation metadata only — deduplication, typing, widget rules and domain
/// *equality* never look at it: two domains mining the same subtrees from differently
/// spelled logs compare equal.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    subtrees: Vec<Node>,
    dialects: Vec<Dialect>,
    ids: HashSet<NodeId>,
    shape: DomainShape,
}

impl PartialEq for Domain {
    /// Structural equality: member subtrees (in first-seen order) and the "absent"
    /// option.  Dialect tags are deliberately excluded (presentation metadata), and the
    /// remaining fields (`ids`, the rest of the shape) are deterministic functions of the
    /// members.
    fn eq(&self, other: &Self) -> bool {
        self.subtrees == other.subtrees && self.shape.includes_absent == other.shape.includes_absent
    }
}

impl Domain {
    /// An empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a domain from the diff records of one path partition (the `w.D ⊆ diffs`
    /// initialisation of §4.3): both sides of every record are collected, deduplicated by
    /// structural identity, and typed by the join of the member types.  Every member is
    /// tagged with the default dialect; use [`Domain::from_diffs_tagged`] when the
    /// per-query dialects of the log are known.
    pub fn from_diffs<'a>(records: impl IntoIterator<Item = RecordRef<'a>>) -> Self {
        Self::from_diffs_tagged(records, |_| Dialect::default())
    }

    /// [`Domain::from_diffs`] with per-query dialect tags: `tag_of` maps a log index to
    /// the dialect its query arrived in, and each record's `before`/`after` subtree is
    /// tagged with its side's query (`q1` resp. `q2`).  When the same subtree occurs in
    /// several dialects, the first observation wins — "originating dialect" is
    /// well-defined because records arrive in deterministic store order.
    pub fn from_diffs_tagged<'a>(
        records: impl IntoIterator<Item = RecordRef<'a>>,
        tag_of: impl Fn(usize) -> Dialect,
    ) -> Self {
        let mut domain = Domain::new();
        for record in records {
            match record.before() {
                Some(node) => domain.insert_tagged(node.clone(), tag_of(record.q1)),
                None => domain.set_includes_absent(true),
            }
            match record.after() {
                Some(node) => domain.insert_tagged(node.clone(), tag_of(record.q2)),
                None => domain.set_includes_absent(true),
            }
        }
        domain
    }

    /// Builds a domain from explicit subtrees (default-dialect tags).
    pub fn from_subtrees<I: IntoIterator<Item = Node>>(subtrees: I) -> Self {
        let mut domain = Domain::new();
        for node in subtrees {
            domain.insert(node);
        }
        domain
    }

    /// Adds one subtree to the domain with the default dialect tag; see
    /// [`Domain::insert_tagged`].
    pub fn insert(&mut self, node: Node) {
        self.insert_tagged(node, Dialect::default());
    }

    /// Adds one subtree to the domain (deduplicated by `NodeId`, which is O(1) thanks to the
    /// memoized structural hash).  `Node` is a copy-on-write handle, so records coming from
    /// the diff layer share their subtree allocation with the domain.  A duplicate insert
    /// keeps the first observation's dialect tag.
    pub fn insert_tagged(&mut self, node: Node, dialect: Dialect) {
        let id = node.id();
        if !self.ids.insert(id) {
            return;
        }
        self.shape.add_member(MemberFacts::of(&node));
        self.subtrees.push(node);
        self.dialects.push(dialect);
    }

    /// Marks "absent" (no subtree at the path) as one of the selectable options.
    pub fn set_includes_absent(&mut self, value: bool) {
        self.shape.set_includes_absent(value);
    }

    /// What the widget rules and cost functions read of this domain.
    pub fn shape(&self) -> &DomainShape {
        &self.shape
    }

    /// The explicit subtrees of the domain, in first-seen order.
    pub fn subtrees(&self) -> &[Node] {
        &self.subtrees
    }

    /// The originating dialect of each subtree, parallel to [`Domain::subtrees`].
    pub fn dialects(&self) -> &[Dialect] {
        &self.dialects
    }

    /// The subtrees paired with their originating dialects, in first-seen order.
    pub fn tagged_subtrees(&self) -> impl Iterator<Item = (&Node, Dialect)> + '_ {
        self.subtrees.iter().zip(self.dialects.iter().copied())
    }

    /// Number of selectable options (explicit subtrees, plus one for "absent" when allowed).
    pub fn size(&self) -> usize {
        self.shape.size()
    }

    /// True when one of the options is "no subtree at this path" (came from an
    /// addition/deletion diff).
    pub fn includes_absent(&self) -> bool {
        self.shape.includes_absent()
    }

    /// The numeric range spanned by the domain's numeric literals, if all values are numeric.
    /// Sliders extrapolate their domain to this full range (Example 4.3).
    pub fn numeric_range(&self) -> Option<(f64, f64)> {
        self.shape.numeric_range()
    }

    /// Exact membership: is this subtree one of the explicit options?
    pub fn contains_exact(&self, node: &Node) -> bool {
        self.ids.contains(&node.id())
    }

    /// Human-readable option labels, used by the interface editor and the HTML compiler.
    pub fn option_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.subtrees.iter().map(|n| n.label()).collect();
        if self.includes_absent() {
            labels.push("(none)".to_string());
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_diff::{extract_changes, AncestorPolicy};

    fn parse(sql: &str) -> Result<Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    #[test]
    fn dedupes_and_types_members() {
        let d = Domain::from_subtrees(vec![
            Node::string("USA"),
            Node::string("EUR"),
            Node::string("USA"),
        ]);
        assert_eq!(d.size(), 2);
        assert_eq!(d.shape().primitive(), PrimitiveType::Str);
        assert!(d.contains_exact(&Node::string("EUR")));
        assert!(!d.contains_exact(&Node::string("CHN")));
    }

    #[test]
    fn numeric_domains_extrapolate_to_a_range() {
        // Example 4.3: a slider initialised with {1, 5, 100} extrapolates to [1, 100].
        let d = Domain::from_subtrees(vec![Node::int(1), Node::int(5), Node::int(100)]);
        assert_eq!(d.numeric_range(), Some((1.0, 100.0)));
        assert!(d.shape().spans(42.0));
        assert!(d.shape().spans(99.5));
        assert!(!d.shape().spans(101.0));
        assert!(!d.contains_exact(&Node::int(42)));
        // A domain that is not purely numeric spans nothing.
        let mixed = Domain::from_subtrees(vec![Node::int(1), Node::string("x")]);
        assert!(!mixed.shape().spans(1.0));
    }

    #[test]
    fn mixed_type_domains_join_to_str_or_tree() {
        let d = Domain::from_subtrees(vec![Node::int(1), Node::string("x")]);
        assert_eq!(d.shape().primitive(), PrimitiveType::Str);
        assert_eq!(d.numeric_range(), None);
        let d = Domain::from_subtrees(vec![Node::int(1), parse("SELECT a FROM t").unwrap()]);
        assert_eq!(d.shape().primitive(), PrimitiveType::Tree);
    }

    #[test]
    fn from_diffs_collects_both_sides_and_absence() {
        let q1 = parse("SELECT g FROM t").unwrap();
        let q2 = parse("SELECT TOP 1 g FROM t").unwrap();
        let changes = extract_changes(&q1, &q2, AncestorPolicy::LcaPruned);
        let d = Domain::from_diffs(changes.iter().map(|c| RecordRef::new(0, 1, c)));
        assert!(d.includes_absent());
        assert_eq!(d.size(), d.subtrees().len() + 1);
        assert!(d.option_labels().contains(&"(none)".to_string()));
    }

    #[test]
    fn empty_domain_reports_itself() {
        let d = Domain::new();
        assert!(d.shape().is_empty());
        assert_eq!(d.size(), 0);
        assert_eq!(d.option_labels().len(), 0);
    }

    #[test]
    fn members_remember_their_originating_dialect() {
        use pi_ast::Dialect;
        let mut d = Domain::new();
        d.insert_tagged(Node::int(1), Dialect::SQL);
        d.insert_tagged(Node::int(2), Dialect::FRAMES);
        // A duplicate insert keeps the first observation's tag.
        d.insert_tagged(Node::int(1), Dialect::FRAMES);
        assert_eq!(d.dialects(), &[Dialect::SQL, Dialect::FRAMES]);
        let tags: Vec<_> = d.tagged_subtrees().map(|(n, t)| (n.label(), t)).collect();
        assert_eq!(
            tags,
            vec![
                ("1".to_string(), Dialect::SQL),
                ("2".to_string(), Dialect::FRAMES)
            ]
        );
        // Untagged construction defaults to the founding dialect.
        assert_eq!(
            Domain::from_subtrees(vec![Node::int(9)]).dialects(),
            &[Dialect::default()]
        );
    }

    #[test]
    fn equality_ignores_dialect_tags() {
        use pi_ast::Dialect;
        // The same analysis mined from a SQL log and from a frames log must yield equal
        // domains — the tags are presentation metadata, not structure.
        let mut sql_origin = Domain::new();
        sql_origin.insert_tagged(Node::int(1), Dialect::SQL);
        sql_origin.insert_tagged(Node::int(2), Dialect::SQL);
        let mut frames_origin = Domain::new();
        frames_origin.insert_tagged(Node::int(1), Dialect::FRAMES);
        frames_origin.insert_tagged(Node::int(2), Dialect::FRAMES);
        assert_eq!(sql_origin, frames_origin);
        // Structure still matters: members, order and the absent option.
        assert_ne!(
            sql_origin,
            Domain::from_subtrees(vec![Node::int(2), Node::int(1)])
        );
        let mut with_absent = sql_origin.clone();
        with_absent.set_includes_absent(true);
        assert_ne!(sql_origin, with_absent);
    }

    #[test]
    fn from_diffs_tagged_tags_each_side_with_its_query() {
        use pi_ast::Dialect;
        let q1 = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let q2 = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let changes = extract_changes(&q1, &q2, AncestorPolicy::LcaPruned);
        let tag_of = |q: usize| {
            if q == 0 {
                Dialect::SQL
            } else {
                Dialect::FRAMES
            }
        };
        let records = changes.iter().map(|c| RecordRef::new(0, 1, c));
        let d = Domain::from_diffs_tagged(records, tag_of);
        // The literal 1 came from q1 (SQL), the literal 2 from q2 (frames).
        for (node, dialect) in d.tagged_subtrees() {
            match node.label().as_str() {
                "1" => assert_eq!(dialect, Dialect::SQL),
                "2" => assert_eq!(dialect, Dialect::FRAMES),
                _ => {}
            }
        }
    }
}
