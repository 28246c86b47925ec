//! Node kinds and the grammar annotations the paper assumes (§4.1).
//!
//! Precision Interfaces does not interpret query semantics, but it does assume two pieces of
//! per-language annotation:
//!
//! 1. a mapping from some *terminal* node kinds to primitive data types (`StrExpr` → string,
//!    `NumExpr` → number) so that typed widgets (sliders, …) can be selected, and
//! 2. knowledge of which node kinds represent *collections* of sub-expressions (the projection
//!    list, the grouping list, …) so that widgets such as checkbox lists can be mapped to them.
//!
//! The first lives here, attached to [`NodeKind`].  The second needs no table: the aligner
//! treats every node's children as an ordered list, so an insertion into or deletion from
//! any of them is a change a list widget can map.

use std::fmt;

/// The primitive type lattice used by widget rules (paper §4.3).
///
/// "Numerics can be cast to strings, and any type can be cast to a tree."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimitiveType {
    /// A numeric literal (integers, floats and hex constants).
    Num,
    /// A string literal or bare identifier-like terminal.
    Str,
    /// Anything else: an arbitrary subtree.
    Tree,
}

impl PrimitiveType {
    /// True when a value of type `self` can be used where `target` is expected.
    ///
    /// The cast order is `Num ⇒ Str ⇒ Tree`: a numeric domain can be shown in a textual
    /// widget, and any domain at all can be shown in a widget that swaps whole subtrees.
    pub fn castable_to(self, target: PrimitiveType) -> bool {
        match (self, target) {
            (a, b) if a == b => true,
            (PrimitiveType::Num, PrimitiveType::Str) => true,
            (_, PrimitiveType::Tree) => true,
            _ => false,
        }
    }

    /// Least upper bound of two types under the cast order.
    pub fn join(self, other: PrimitiveType) -> PrimitiveType {
        if self == other {
            self
        } else if self.castable_to(other) {
            other
        } else if other.castable_to(self) {
            self
        } else {
            PrimitiveType::Tree
        }
    }
}

impl fmt::Display for PrimitiveType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimitiveType::Num => "num",
            PrimitiveType::Str => "str",
            PrimitiveType::Tree => "tree",
        };
        f.write_str(s)
    }
}

/// The kind of an AST node.
///
/// The set of kinds covers the SQL dialect exercised by the paper's three query logs
/// (SDSS, synthetic OLAP, ad-hoc Tableau exports).  `Other` is an escape hatch so that
/// front-ends for other languages can reuse the same tree model without extending the enum.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    // --- statement level -------------------------------------------------------------
    /// A full SELECT statement.
    Select,
    /// The projection clause (collection of [`NodeKind::ProjClause`]).
    Project,
    /// One projected expression (optionally aliased).
    ProjClause,
    /// The FROM clause (collection of relations).
    From,
    /// The WHERE clause.
    Where,
    /// The GROUP BY clause (collection of grouping expressions).
    GroupBy,
    /// One grouping expression.
    GroupClause,
    /// The HAVING clause.
    Having,
    /// The ORDER BY clause (collection of [`NodeKind::OrderClause`]).
    OrderBy,
    /// One ordering expression with direction attribute `dir`.
    OrderClause,
    /// LIMIT / TOP clause with the count as a child expression.
    Limit,
    /// DISTINCT marker on the projection.
    Distinct,

    // --- relations -------------------------------------------------------------------
    /// A base table reference; attribute `name`, optional `alias` and `schema`.
    TableRef,
    /// A derived table: subquery in FROM; optional `alias`.
    SubqueryRef,
    /// A table-valued function (UDF) in FROM, e.g. `dbo.fGetNearbyObjEq(...)`.
    TableFunc,
    /// An explicit JOIN node; attribute `join_type`; children: left, right, on-condition.
    Join,

    // --- expressions -----------------------------------------------------------------
    /// Binary expression; attribute `op` (`=`, `<`, `AND`, `+`, …).
    BiExpr,
    /// Unary expression; attribute `op` (`NOT`, `-`).
    UnExpr,
    /// Function call; first child is a [`NodeKind::FuncName`], remaining children are the
    /// arguments.
    FuncCall,
    /// Aggregate function call; first child is a [`NodeKind::FuncName`] (`COUNT`, `SUM`, …),
    /// remaining children are the arguments; optional `distinct` flag.
    AggCall,
    /// The name of a called function; attribute `name`.  Modelled as a child node (rather
    /// than an attribute of the call) so that changing only the function name produces a
    /// small, string-typed leaf diff that can map to its own widget (Figure 5b/5c).
    FuncName,
    /// CAST expression; attribute `ty` (target type name); one child.
    Cast,
    /// CASE expression; children are [`NodeKind::WhenArm`]s and an optional else expression.
    CaseExpr,
    /// One WHEN/THEN arm of a CASE expression; children: condition/match value, result.
    WhenArm,
    /// The ELSE branch of a CASE expression; one child.
    ElseArm,
    /// A column reference; attribute `name`, optional `table` qualifier.
    ColExpr,
    /// A string literal; attribute `value`.
    StrExpr,
    /// A numeric literal; attribute `value` (int or float).
    NumExpr,
    /// A hexadecimal literal (SDSS object ids); attribute `value` (i64).
    HexExpr,
    /// The `*` projection.
    Star,
    /// NULL literal.
    Null,
    /// A boolean literal; attribute `value`.
    BoolExpr,
    /// A parenthesised scalar subquery used inside an expression.
    ScalarSubquery,
    /// An IN-list / BETWEEN right-hand side holding several expressions.
    ExprList,

    // --- escape hatch ----------------------------------------------------------------
    /// A node kind from another language front-end; the string names the non-terminal.
    Other(String),
}

impl NodeKind {
    /// The primitive type of a *terminal* node of this kind, if any.
    ///
    /// This is the per-language annotation from §4.1: `StrExpr ↦ str`, `NumExpr ↦ num`, etc.
    /// Non-terminal kinds return `None`; the diff layer treats them as `tree`-typed.
    pub fn terminal_type(&self) -> Option<PrimitiveType> {
        match self {
            NodeKind::StrExpr => Some(PrimitiveType::Str),
            NodeKind::ColExpr => Some(PrimitiveType::Str),
            NodeKind::FuncName => Some(PrimitiveType::Str),
            NodeKind::NumExpr | NodeKind::HexExpr => Some(PrimitiveType::Num),
            NodeKind::BoolExpr => Some(PrimitiveType::Str),
            NodeKind::TableRef => Some(PrimitiveType::Str),
            _ => None,
        }
    }

    /// Short display name used by the tree printer and by diff records (`type` column).
    pub fn name(&self) -> &str {
        match self {
            NodeKind::Select => "Select",
            NodeKind::Project => "Project",
            NodeKind::ProjClause => "ProjClause",
            NodeKind::From => "From",
            NodeKind::Where => "Where",
            NodeKind::GroupBy => "GroupBy",
            NodeKind::GroupClause => "GroupClause",
            NodeKind::Having => "Having",
            NodeKind::OrderBy => "OrderBy",
            NodeKind::OrderClause => "OrderClause",
            NodeKind::Limit => "Limit",
            NodeKind::Distinct => "Distinct",
            NodeKind::TableRef => "TableRef",
            NodeKind::SubqueryRef => "SubqueryRef",
            NodeKind::TableFunc => "TableFunc",
            NodeKind::Join => "Join",
            NodeKind::BiExpr => "BiExpr",
            NodeKind::UnExpr => "UnExpr",
            NodeKind::FuncCall => "FuncCall",
            NodeKind::AggCall => "AggCall",
            NodeKind::FuncName => "FuncName",
            NodeKind::Cast => "Cast",
            NodeKind::CaseExpr => "CaseExpr",
            NodeKind::WhenArm => "WhenArm",
            NodeKind::ElseArm => "ElseArm",
            NodeKind::ColExpr => "ColExpr",
            NodeKind::StrExpr => "StrExpr",
            NodeKind::NumExpr => "NumExpr",
            NodeKind::HexExpr => "HexExpr",
            NodeKind::Star => "Star",
            NodeKind::Null => "Null",
            NodeKind::BoolExpr => "BoolExpr",
            NodeKind::ScalarSubquery => "ScalarSubquery",
            NodeKind::ExprList => "ExprList",
            NodeKind::Other(s) => s.as_str(),
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_lattice_matches_paper() {
        // num -> str -> tree; str does not cast down to num.
        assert!(PrimitiveType::Num.castable_to(PrimitiveType::Str));
        assert!(PrimitiveType::Num.castable_to(PrimitiveType::Tree));
        assert!(PrimitiveType::Str.castable_to(PrimitiveType::Tree));
        assert!(!PrimitiveType::Str.castable_to(PrimitiveType::Num));
        assert!(!PrimitiveType::Tree.castable_to(PrimitiveType::Str));
        assert!(!PrimitiveType::Tree.castable_to(PrimitiveType::Num));
        for t in [PrimitiveType::Num, PrimitiveType::Str, PrimitiveType::Tree] {
            assert!(t.castable_to(t));
        }
    }

    #[test]
    fn join_is_least_upper_bound() {
        assert_eq!(
            PrimitiveType::Num.join(PrimitiveType::Str),
            PrimitiveType::Str
        );
        assert_eq!(
            PrimitiveType::Str.join(PrimitiveType::Num),
            PrimitiveType::Str
        );
        assert_eq!(
            PrimitiveType::Num.join(PrimitiveType::Num),
            PrimitiveType::Num
        );
        assert_eq!(
            PrimitiveType::Str.join(PrimitiveType::Tree),
            PrimitiveType::Tree
        );
    }

    #[test]
    fn terminal_annotations() {
        assert_eq!(NodeKind::StrExpr.terminal_type(), Some(PrimitiveType::Str));
        assert_eq!(NodeKind::NumExpr.terminal_type(), Some(PrimitiveType::Num));
        assert_eq!(NodeKind::HexExpr.terminal_type(), Some(PrimitiveType::Num));
        assert_eq!(NodeKind::BiExpr.terminal_type(), None);
        assert_eq!(NodeKind::Select.terminal_type(), None);
    }

    #[test]
    fn other_kind_displays_its_name() {
        let k = NodeKind::Other("SparqlTriple".into());
        assert_eq!(k.to_string(), "SparqlTriple");
        assert_eq!(k.terminal_type(), None);
    }
}
