//! AST → SQL rendering.
//!
//! The generated interface applies widget interactions by substituting subtrees in the current
//! query AST; to actually run the query (`exec()`) or show it to the user, the tree must be
//! turned back into SQL text.  The renderer guarantees a *parse round-trip*: for any tree `t`
//! produced by the parser, `parse(&render(&t)) == t`.

use pi_ast::{AttrValue, Node, NodeKind};
use std::fmt::Write as _;

/// Renders an AST as SQL text.
pub fn render(node: &Node) -> String {
    let mut out = String::new();
    render_node(node, &mut out);
    out
}

/// Renders an AST as SQL with all runs of whitespace collapsed (useful in test assertions).
pub fn render_compact(node: &Node) -> String {
    render(node)
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn render_node(node: &Node, out: &mut String) {
    match node.kind_ref() {
        NodeKind::Select => render_select(node, out),
        // Relation fragments (widget options at FROM paths, e.g. Listing 7's subquery
        // toggle) render as the SQL they stand for, not the generic `Kind(…)` notation —
        // the UI substitutes these fragments into real query text.
        NodeKind::TableRef | NodeKind::SubqueryRef | NodeKind::TableFunc | NodeKind::Join => {
            render_relation(node, out)
        }
        _ => render_expr(node, out),
    }
}

fn render_select(node: &Node, out: &mut String) {
    out.push_str("SELECT ");
    if node.attr("distinct").and_then(AttrValue::as_bool) == Some(true) {
        out.push_str("DISTINCT ");
    }

    // A TOP-style limit is rendered up front, a LIMIT-style one at the end.
    let limit = node
        .children()
        .iter()
        .find(|c| c.kind_ref() == &NodeKind::Limit);
    let top_style = limit
        .map(|l| l.attr_str("style") == Some("top"))
        .unwrap_or(false);
    if top_style {
        if let Some(l) = limit {
            out.push_str("TOP ");
            render_expr(&l.children()[0], out);
            out.push(' ');
        }
    }

    for clause in node.children() {
        match clause.kind_ref() {
            NodeKind::Project => {
                for (i, proj) in clause.children().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_proj_clause(proj, out);
                }
            }
            NodeKind::From if clause.arity() > 0 => {
                out.push_str(" FROM ");
                for (i, rel) in clause.children().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_relation(rel, out);
                }
            }
            NodeKind::Where => {
                out.push_str(" WHERE ");
                render_expr(&clause.children()[0], out);
            }
            NodeKind::GroupBy => {
                out.push_str(" GROUP BY ");
                for (i, g) in clause.children().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_expr(&g.children()[0], out);
                }
            }
            NodeKind::Having => {
                out.push_str(" HAVING ");
                render_expr(&clause.children()[0], out);
            }
            NodeKind::OrderBy => {
                out.push_str(" ORDER BY ");
                for (i, o) in clause.children().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_expr(&o.children()[0], out);
                    if o.attr_str("dir") == Some("desc") {
                        out.push_str(" DESC");
                    }
                }
            }
            NodeKind::Limit if !top_style => {
                out.push_str(" LIMIT ");
                render_expr(&clause.children()[0], out);
            }
            _ => {}
        }
    }
}

fn render_proj_clause(node: &Node, out: &mut String) {
    render_expr(&node.children()[0], out);
    if let Some(alias) = node.attr_str("alias") {
        let _ = write!(out, " AS {alias}");
    }
}

fn render_relation(node: &Node, out: &mut String) {
    match node.kind_ref() {
        NodeKind::TableRef => {
            out.push_str(node.attr_str("name").unwrap_or("?"));
            if let Some(alias) = node.attr_str("alias") {
                let _ = write!(out, " AS {alias}");
            }
        }
        NodeKind::SubqueryRef => {
            out.push('(');
            render_select(&node.children()[0], out);
            out.push(')');
            if let Some(alias) = node.attr_str("alias") {
                let _ = write!(out, " AS {alias}");
            }
        }
        NodeKind::TableFunc => {
            out.push_str(node.attr_str("name").unwrap_or("?"));
            out.push('(');
            for (i, arg) in node.children().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(arg, out);
            }
            out.push(')');
            if let Some(alias) = node.attr_str("alias") {
                let _ = write!(out, " AS {alias}");
            }
        }
        NodeKind::Join => {
            render_relation(&node.children()[0], out);
            let jt = match node.attr_str("join_type") {
                Some("left") => " LEFT JOIN ",
                Some("right") => " RIGHT JOIN ",
                _ => " JOIN ",
            };
            out.push_str(jt);
            render_relation(&node.children()[1], out);
            out.push_str(" ON ");
            render_expr(&node.children()[2], out);
        }
        // A bare Select (view expansion) may appear as a relation in hand-built trees.
        NodeKind::Select => {
            out.push('(');
            render_select(node, out);
            out.push(')');
        }
        _ => render_expr(node, out),
    }
}

/// True when an expression needs parentheses when used as an operand of another operator.
fn is_composite(node: &Node) -> bool {
    matches!(node.kind_ref(), NodeKind::BiExpr | NodeKind::UnExpr)
}

/// True for an `AND` or `OR` expression, the operators that bind looser than `NOT`.
fn is_and_or(node: &Node) -> bool {
    node.kind_ref() == &NodeKind::BiExpr && matches!(node.attr_str("op"), Some("AND" | "OR"))
}

fn render_operand(node: &Node, out: &mut String) {
    if is_composite(node) {
        out.push('(');
        render_expr(node, out);
        out.push(')');
    } else {
        render_expr(node, out);
    }
}

fn render_expr(node: &Node, out: &mut String) {
    match node.kind_ref() {
        NodeKind::ColExpr => {
            if let Some(table) = node.attr_str("table") {
                let _ = write!(out, "{table}.");
            }
            out.push_str(node.attr_str("name").unwrap_or("?"));
        }
        NodeKind::StrExpr => {
            let value = node.attr_str("value").unwrap_or("");
            let _ = write!(out, "'{}'", value.replace('\'', "''"));
        }
        NodeKind::NumExpr => {
            match node.attr("value") {
                Some(AttrValue::Int(i)) => {
                    let _ = write!(out, "{i}");
                }
                Some(AttrValue::Float(f)) => {
                    let _ = write!(out, "{}", AttrValue::Float(*f).render());
                }
                other => {
                    let _ = write!(out, "{}", other.map(|v| v.render()).unwrap_or_default());
                }
            };
        }
        NodeKind::HexExpr => {
            let v = node.attr("value").and_then(AttrValue::as_int).unwrap_or(0);
            let _ = write!(out, "0x{v:x}");
        }
        NodeKind::BoolExpr => {
            let v = node.attr_str("value").unwrap_or("false");
            out.push_str(if v == "true" { "TRUE" } else { "FALSE" });
        }
        NodeKind::Null => out.push_str("NULL"),
        NodeKind::Star => {
            if let Some(table) = node.attr_str("table") {
                let _ = write!(out, "{table}.");
            }
            out.push('*');
        }
        NodeKind::BiExpr => {
            let op = node.attr_str("op").unwrap_or("=");
            let left = &node.children()[0];
            let right = &node.children()[1];
            match op {
                "IN" | "NOT IN" => {
                    render_operand(left, out);
                    let _ = write!(out, " {op} (");
                    render_expr_list(right, out, ", ");
                    out.push(')');
                }
                "BETWEEN" | "NOT BETWEEN" => {
                    render_operand(left, out);
                    let _ = write!(out, " {op} ");
                    render_expr_list(right, out, " AND ");
                }
                _ => {
                    render_operand(left, out);
                    let _ = write!(out, " {op} ");
                    render_operand(right, out);
                }
            }
        }
        NodeKind::UnExpr => {
            let op = node.attr_str("op").unwrap_or("NOT");
            let inner = &node.children()[0];
            match op {
                "IS NULL" | "IS NOT NULL" => {
                    render_operand(inner, out);
                    let _ = write!(out, " {op}");
                }
                "-" => {
                    out.push('-');
                    render_operand(inner, out);
                }
                // `NOT` binds looser than a comparison or another `NOT` and tighter than
                // `AND` and `OR`, so only those two are parenthesised under it: a chain
                // (`NOT NOT x = 1`) renders no deeper than the nesting bound its parse
                // stayed within.
                "NOT" => {
                    out.push_str("NOT ");
                    if is_and_or(inner) {
                        out.push('(');
                        render_expr(inner, out);
                        out.push(')');
                    } else {
                        render_expr(inner, out);
                    }
                }
                _ => {
                    let _ = write!(out, "{op} ");
                    render_operand(inner, out);
                }
            }
        }
        NodeKind::AggCall | NodeKind::FuncCall => {
            // The name lives in a FuncName first child; fall back to a `name` attribute for
            // hand-built trees that use the older shape.
            let (name, args): (&str, &[Node]) = match node.children().first() {
                Some(first) if first.kind_ref() == &NodeKind::FuncName => {
                    (first.attr_str("name").unwrap_or("?"), &node.children()[1..])
                }
                _ => (node.attr_str("name").unwrap_or("?"), node.children()),
            };
            out.push_str(name);
            out.push('(');
            if node.attr("distinct").and_then(AttrValue::as_bool) == Some(true) {
                out.push_str("DISTINCT ");
            }
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(arg, out);
            }
            out.push(')');
        }
        NodeKind::FuncName => {
            out.push_str(node.attr_str("name").unwrap_or("?"));
        }
        NodeKind::Cast => {
            out.push_str("CAST(");
            render_expr(&node.children()[0], out);
            let _ = write!(out, " AS {}", node.attr_str("ty").unwrap_or("varchar"));
            out.push(')');
        }
        NodeKind::CaseExpr => {
            out.push_str("CASE");
            let simple = node.attr_str("form") == Some("simple");
            let mut children = node.children().iter();
            if simple {
                if let Some(operand) = children.next() {
                    out.push(' ');
                    render_expr(operand, out);
                }
            }
            for arm in children {
                match arm.kind_ref() {
                    NodeKind::WhenArm => {
                        out.push_str(" WHEN ");
                        render_expr(&arm.children()[0], out);
                        out.push_str(" THEN ");
                        render_expr(&arm.children()[1], out);
                    }
                    NodeKind::ElseArm => {
                        out.push_str(" ELSE ");
                        render_expr(&arm.children()[0], out);
                    }
                    _ => {}
                }
            }
            out.push_str(" END");
        }
        NodeKind::ScalarSubquery => {
            out.push('(');
            render_select(&node.children()[0], out);
            out.push(')');
        }
        NodeKind::ExprList => render_expr_list(node, out, ", "),
        NodeKind::Select => render_select(node, out),
        // Clause-level nodes rendered in expression position (e.g. diff display): recurse.
        other => {
            let _ = write!(out, "{}", other.name());
            if node.arity() > 0 {
                out.push('(');
                for (i, c) in node.children().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_expr(c, out);
                }
                out.push(')');
            }
        }
    }
}

fn render_expr_list(node: &Node, out: &mut String, sep: &str) {
    for (i, c) in node.children().iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        render_expr(c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// All of the paper's listings (1–7), plus extra shapes exercised by the test suite.
    pub(crate) const PAPER_QUERIES: &[&str] = &[
        // Listing 1
        "SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
        "SELECT * FROM XCRedshift WHERE specObjId = 0x199",
        // Listing 2
        "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
        "SELECT DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
        // Listing 3
        "SELECT CAST(uniquecarrier) AS uniquecarrier FROM ontime",
        "SELECT SUM(flights) FROM ontime WHERE canceled = 1 HAVING SUM(flights) > 149 AND SUM(flights) < 1354",
        "SELECT (CASE carrier WHEN 'AA' THEN 'AA' ELSE 'Other' END) AS carrier, FLOOR(distance/5) AS distance FROM ontime",
        // Listing 4
        "SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now AND spec_ts < now + 3) WHERE cust = 'Alice' AND country = 'China' GROUP BY spec_ts",
        // Listing 5
        "SELECT avg(a)",
        "SELECT count(b)",
        // Listing 6
        "SELECT g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID",
        "SELECT TOP 10 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID",
        // Listing 7
        "SELECT * FROM T",
        "SELECT * FROM (SELECT a FROM T WHERE b > 10)",
        // extras
        "SELECT DISTINCT carrier FROM ontime ORDER BY carrier DESC LIMIT 10",
        "SELECT a FROM t WHERE b IS NOT NULL AND c IN (1, 2, 3) AND d BETWEEN 0.5 AND 2.5",
        "SELECT * FROM a JOIN b ON a.id = b.id",
        "SELECT COUNT(DISTINCT carrier) AS c FROM ontime",
        "SELECT a FROM t WHERE NOT b = 1 OR c LIKE 'x%'",
        "SELECT g.* FROM Galaxy AS g WHERE z > -0.5",
    ];

    #[test]
    fn render_parses_back_to_the_same_tree() {
        for sql in PAPER_QUERIES {
            let t1 = parse(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
            let rendered = render(&t1);
            let t2 = parse(&rendered)
                .unwrap_or_else(|e| panic!("reparse of `{rendered}` (from `{sql}`): {e}"));
            assert_eq!(t1, t2, "round trip failed for `{sql}` -> `{rendered}`");
        }
    }

    #[test]
    fn render_is_idempotent_modulo_text() {
        for sql in PAPER_QUERIES {
            let t1 = parse(sql).unwrap();
            let r1 = render(&t1);
            let r2 = render(&parse(&r1).unwrap());
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn top_style_limit_renders_up_front() {
        let t = parse("SELECT TOP 5 a FROM t").unwrap();
        let sql = render(&t);
        assert!(sql.starts_with("SELECT TOP 5"), "{sql}");
        let t = parse("SELECT a FROM t LIMIT 5").unwrap();
        assert!(render(&t).ends_with("LIMIT 5"));
    }

    #[test]
    fn hex_literals_render_in_hex() {
        let t = parse("SELECT * FROM SpecLineIndex WHERE specObjId = 0x400").unwrap();
        assert!(render(&t).contains("0x400"));
    }

    #[test]
    fn strings_escape_quotes() {
        let t = parse("SELECT * FROM t WHERE name = 'O''Brien'").unwrap();
        assert!(render(&t).contains("'O''Brien'"));
    }

    #[test]
    fn compact_render_collapses_whitespace() {
        let t = parse("SELECT   a ,  b FROM   t").unwrap();
        assert_eq!(render_compact(&t), "SELECT a, b FROM t");
    }

    #[test]
    fn composite_operands_are_parenthesised() {
        let t = parse("SELECT a FROM t WHERE x = 1 AND y = 2 OR z = 3").unwrap();
        let sql = render(&t);
        // precedence must be preserved through the parentheses
        let t2 = parse(&sql).unwrap();
        assert_eq!(t, t2);
        assert!(sql.contains('('));
    }
}
