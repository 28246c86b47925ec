//! High-level builders for common SQL AST shapes.
//!
//! The experiments and workload generators frequently need to construct queries
//! programmatically (e.g. the OLAP random walk of §7 adds/removes aggregations and predicates).
//! These helpers build well-formed trees without going through SQL text and the parser, which
//! keeps generators fast and makes the intent explicit.

use crate::intern::Sym;
use crate::kind::NodeKind;
use crate::node::Node;
use crate::value::AttrValue;

/// Builder for SELECT statements.
///
/// ```
/// use pi_ast::builder::SelectBuilder;
/// use pi_ast::{Node, NodeKind};
///
/// let q = SelectBuilder::new()
///     .project(Node::column("DestState"))
///     .project_agg("COUNT", Node::column("Delay"))
///     .from_table("ontime")
///     .where_pred(SelectBuilder::eq(Node::column("Month"), Node::int(9)))
///     .group_by(Node::column("DestState"))
///     .build();
/// assert_eq!(q.kind(), NodeKind::Select);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SelectBuilder {
    distinct: bool,
    projections: Vec<Node>,
    relations: Vec<Node>,
    predicates: Vec<Node>,
    groupings: Vec<Node>,
    having: Vec<Node>,
    orderings: Vec<(Node, bool)>,
    limit: Option<Node>,
}

impl SelectBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the query DISTINCT.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Adds a plain projection expression.
    pub fn project(mut self, expr: Node) -> Self {
        self.projections.push(wrap(NodeKind::ProjClause, expr));
        self
    }

    /// Adds an aggregate projection, e.g. `COUNT(Delay)`.
    pub fn project_agg(self, func: &str, arg: Node) -> Self {
        self.project(Self::agg(func, arg))
    }

    /// Projects `*`.
    pub fn project_star(self) -> Self {
        self.project(Node::star())
    }

    /// Adds a base table to the FROM clause.
    pub fn from_table(mut self, name: &str) -> Self {
        self.relations.push(Node::table(name));
        self
    }

    /// Adds a conjunct to the WHERE clause.
    pub fn where_pred(mut self, pred: Node) -> Self {
        self.predicates.push(pred);
        self
    }

    /// Adds a grouping expression.
    pub fn group_by(mut self, expr: Node) -> Self {
        self.groupings.push(wrap(NodeKind::GroupClause, expr));
        self
    }

    /// Adds a conjunct to the HAVING clause.
    pub fn having(mut self, pred: Node) -> Self {
        self.having.push(pred);
        self
    }

    /// Adds an ordering expression; `asc` selects the direction.
    pub fn order_by(mut self, expr: Node, asc: bool) -> Self {
        self.orderings.push((expr, asc));
        self
    }

    /// Sets a LIMIT / TOP count.
    pub fn limit(mut self, n: i64) -> Self {
        self.limit = Some(Node::int(n));
        self
    }

    /// Builds the SELECT node.  Children are emitted in a fixed clause order so that two
    /// queries built with the same clauses always produce identical trees (important for the
    /// purely syntactic diffing downstream).
    pub fn build(self) -> Node {
        let mut clauses = Vec::with_capacity(7);
        let projections = if self.projections.is_empty() {
            vec![wrap(NodeKind::ProjClause, Node::star())]
        } else {
            self.projections
        };
        clauses.push(Node::from_parts(NodeKind::Project, &[], projections));
        clauses.push(Node::from_parts(NodeKind::From, &[], self.relations));
        if !self.predicates.is_empty() {
            clauses.push(wrap(NodeKind::Where, Self::conjunction(self.predicates)));
        }
        if !self.groupings.is_empty() {
            clauses.push(Node::from_parts(NodeKind::GroupBy, &[], self.groupings));
        }
        if !self.having.is_empty() {
            clauses.push(wrap(NodeKind::Having, Self::conjunction(self.having)));
        }
        if !self.orderings.is_empty() {
            let orderings = self
                .orderings
                .into_iter()
                .map(|(expr, asc)| {
                    let dir = if asc { "asc" } else { "desc" };
                    Node::from_parts(NodeKind::OrderClause, &[(Sym::DIR, dir.into())], vec![expr])
                })
                .collect();
            clauses.push(Node::from_parts(NodeKind::OrderBy, &[], orderings));
        }
        if let Some(limit) = self.limit {
            clauses.push(wrap(NodeKind::Limit, limit));
        }
        let attrs: &[(Sym, AttrValue)] = if self.distinct {
            &[(Sym::DISTINCT, AttrValue::Bool(true))]
        } else {
            &[]
        };
        Node::from_parts(NodeKind::Select, attrs, clauses)
    }

    // ------------------------------------------------------------------ expression helpers

    /// `left = right`.
    pub fn eq(left: Node, right: Node) -> Node {
        Self::binop("=", left, right)
    }

    /// `left <op> right`.
    pub fn binop(op: &str, left: Node, right: Node) -> Node {
        Node::from_parts(NodeKind::BiExpr, &[(Sym::OP, op.into())], vec![left, right])
    }

    /// An aggregate call such as `SUM(price)`.  The function name becomes a [`NodeKind::FuncName`]
    /// child so that name-only changes diff as small string leaves.
    pub fn agg(func: &str, arg: Node) -> Node {
        let name = Node::from_parts(
            NodeKind::FuncName,
            &[(Sym::NAME, func.to_uppercase().into())],
            Vec::new(),
        );
        Node::from_parts(NodeKind::AggCall, &[], vec![name, arg])
    }

    /// A scalar function call.
    pub fn func(name: &str, args: Vec<Node>) -> Node {
        let name = Node::from_parts(NodeKind::FuncName, &[(Sym::NAME, name.into())], Vec::new());
        let mut children = Vec::with_capacity(args.len() + 1);
        children.push(name);
        children.extend(args);
        Node::from_parts(NodeKind::FuncCall, &[], children)
    }

    /// Folds a list of predicates into a left-deep AND tree.
    pub fn conjunction(mut preds: Vec<Node>) -> Node {
        assert!(!preds.is_empty(), "conjunction of zero predicates");
        let mut acc = preds.remove(0);
        for p in preds {
            acc = Self::binop("AND", acc, p);
        }
        acc
    }
}

/// A node of `kind` with the single child `child` and no attributes.
fn wrap(kind: NodeKind, child: Node) -> Node {
    Node::from_parts(kind, &[], vec![child])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;

    #[test]
    fn builds_the_paper_figure1_style_query() {
        let q = SelectBuilder::new()
            .project_agg("COUNT", Node::column("Delay"))
            .project(Node::column("DestState"))
            .from_table("ontime")
            .where_pred(SelectBuilder::eq(Node::column("Month"), Node::int(9)))
            .where_pred(SelectBuilder::eq(Node::column("Day"), Node::int(3)))
            .group_by(Node::column("DestState"))
            .build();
        assert_eq!(q.kind(), NodeKind::Select);
        // project, from, where, group by
        assert_eq!(q.arity(), 4);
        let gb: Path = "3".parse().unwrap();
        assert_eq!(q.get(&gb).unwrap().kind(), NodeKind::GroupBy);
        // the WHERE is an AND of the two conjuncts
        let w = q.get(&"2/0".parse().unwrap()).unwrap();
        assert_eq!(w.kind(), NodeKind::BiExpr);
        assert_eq!(w.attr_str("op"), Some("AND"));
    }

    #[test]
    fn empty_projection_defaults_to_star() {
        let q = SelectBuilder::new().from_table("t").build();
        let proj = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(proj.kind(), NodeKind::Star);
    }

    #[test]
    fn clause_order_is_deterministic() {
        let build = || {
            SelectBuilder::new()
                .project(Node::column("a"))
                .from_table("t")
                .where_pred(SelectBuilder::eq(Node::column("b"), Node::int(1)))
                .group_by(Node::column("a"))
                .having(SelectBuilder::binop(
                    ">",
                    SelectBuilder::agg("SUM", Node::column("c")),
                    Node::int(10),
                ))
                .order_by(Node::column("a"), true)
                .limit(5)
                .build()
        };
        assert_eq!(build(), build());
        let q = build();
        let kinds: Vec<_> = q.children().iter().map(|c| c.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                NodeKind::Project,
                NodeKind::From,
                NodeKind::Where,
                NodeKind::GroupBy,
                NodeKind::Having,
                NodeKind::OrderBy,
                NodeKind::Limit
            ]
        );
    }

    #[test]
    fn conjunction_is_left_deep() {
        let c = SelectBuilder::conjunction(vec![
            Node::column("a"),
            Node::column("b"),
            Node::column("c"),
        ]);
        assert_eq!(c.attr_str("op"), Some("AND"));
        assert_eq!(c.children()[0].attr_str("op"), Some("AND"));
        assert_eq!(c.children()[1].attr_str("name"), Some("c"));
    }

    #[test]
    #[should_panic(expected = "conjunction of zero predicates")]
    fn conjunction_of_nothing_panics() {
        let _ = SelectBuilder::conjunction(vec![]);
    }
}
