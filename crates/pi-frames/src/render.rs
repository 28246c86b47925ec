//! AST → frames (method-chain) rendering.
//!
//! The inverse of the parser over the trees the parser (or the frames workload generator)
//! produces: `parse(&render(&t))` is structurally identical to `t` — property-tested in
//! `tests/properties.rs`.  Rendering is *total*: trees built by other front-ends render to
//! something readable (SQL-only constructs fall back to a generic `Kind(child, …)`
//! notation), which is what lets a mixed-log interface show every widget option in the
//! dialect its query arrived in.

use pi_ast::{AttrValue, Node, NodeKind};
use std::fmt::Write as _;

/// Renders an AST as frames method-chain text.
pub fn render(node: &Node) -> String {
    let mut out = String::new();
    render_node(node, &mut out);
    out
}

/// [`render`] with all runs of whitespace collapsed (test assertions).
pub fn render_compact(node: &Node) -> String {
    render(node)
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn render_node(node: &Node, out: &mut String) {
    match node.kind_ref() {
        NodeKind::Select => render_query(node, out),
        // Clause-level fragments (widget domains hold subtrees at arbitrary paths) render
        // as the method call that would produce them.
        NodeKind::Where => {
            out.push_str("filter(");
            render_expr_list(node, out, " & ");
            out.push(')');
        }
        NodeKind::Having => {
            out.push_str("having(");
            render_expr_list(node, out, " & ");
            out.push(')');
        }
        NodeKind::GroupBy => {
            out.push_str("groupby(");
            for (i, clause) in node.children().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(&clause.children()[0], out);
            }
            out.push(')');
        }
        NodeKind::GroupClause => render_expr_list(node, out, ", "),
        NodeKind::OrderBy => {
            out.push_str("sort(");
            for (i, clause) in node.children().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_order_clause(clause, out);
            }
            out.push(')');
        }
        NodeKind::OrderClause => render_order_clause(node, out),
        NodeKind::Limit => render_limit(node, out),
        NodeKind::ProjClause => render_proj_clause(node, out),
        NodeKind::From => {
            for (i, rel) in node.children().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_base(rel, out);
            }
        }
        // Relation fragments render as the chain bases they stand for, mirroring the SQL
        // renderer's treatment of widget options at FROM paths.
        NodeKind::TableRef | NodeKind::SubqueryRef | NodeKind::TableFunc | NodeKind::Join => {
            render_base(node, out)
        }
        _ => render_expr(node, out),
    }
}

/// Renders a full `Select` tree as `base.method(...)...` in canonical method order.
fn render_query(node: &Node, out: &mut String) {
    let clause = |kind: NodeKind| node.children().iter().find(|c| *c.kind_ref() == kind);

    // Base relation.  A tableless query (SQL allows `SELECT avg(a)`) has an empty FROM;
    // `df` stands in so the chain stays well-formed text (render-only, like every
    // SQL-specific construct).
    match clause(NodeKind::From) {
        Some(from) if from.arity() > 0 => {
            render_base(&from.children()[0], out);
            for rel in &from.children()[1..] {
                out.push_str(".crossjoin(");
                render_base(rel, out);
                out.push(')');
            }
        }
        _ => out.push_str("df"),
    }

    if let Some(wh) = clause(NodeKind::Where) {
        out.push_str(".filter(");
        render_expr(&wh.children()[0], out);
        out.push(')');
    }

    let project = clause(NodeKind::Project);
    match clause(NodeKind::GroupBy) {
        Some(gb) => {
            out.push_str(".groupby(");
            for (i, key) in gb.children().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(&key.children()[0], out);
            }
            out.push(')');
            match project.and_then(|p| split_agg_projection(p, gb)) {
                Some(aggs) => {
                    // Projection = aggregates ++ grouping keys: the agg() form.
                    out.push_str(".agg(");
                    for (i, proj) in aggs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        render_proj_clause(proj, out);
                    }
                    out.push(')');
                }
                None => {
                    if let Some(project) = project {
                        render_select_method(project, out);
                    }
                }
            }
        }
        None => {
            if let Some(project) = project {
                if !projects_bare_star(project) {
                    render_select_method(project, out);
                }
            }
        }
    }

    if let Some(hv) = clause(NodeKind::Having) {
        out.push_str(".having(");
        render_expr(&hv.children()[0], out);
        out.push(')');
    }

    if let Some(ob) = clause(NodeKind::OrderBy) {
        out.push_str(".sort(");
        for (i, oc) in ob.children().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_order_clause(oc, out);
        }
        out.push(')');
    }

    if let Some(limit) = clause(NodeKind::Limit) {
        out.push('.');
        render_limit(limit, out);
    }

    if node.attr("distinct").and_then(AttrValue::as_bool) == Some(true) {
        out.push_str(".distinct()");
    }
}

/// When the projection is `aggregates ++ grouping keys` (the shape both parsers build for
/// an aggregation), returns the aggregate prefix so the query renders as `.agg(...)`.
fn split_agg_projection<'a>(project: &'a Node, groupby: &Node) -> Option<Vec<&'a Node>> {
    let projs = project.children();
    let keys = groupby.children();
    if projs.len() < keys.len() {
        return None;
    }
    let split = projs.len() - keys.len();
    let tail_matches = projs[split..].iter().zip(keys.iter()).all(|(proj, key)| {
        proj.arity() == 1
            && proj.attr("alias").is_none()
            && proj.children()[0].same_tree(&key.children()[0])
    });
    tail_matches.then(|| projs[..split].iter().collect())
}

/// True for the implicit `*` projection a bare chain stands for.
fn projects_bare_star(project: &Node) -> bool {
    match project.children() {
        [only] => {
            only.arity() == 1
                && only.attr("alias").is_none()
                && only.children()[0].kind_ref() == &NodeKind::Star
                && only.children()[0].attr("table").is_none()
        }
        _ => false,
    }
}

fn render_select_method(project: &Node, out: &mut String) {
    out.push_str(".select(");
    for (i, proj) in project.children().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_proj_clause(proj, out);
    }
    out.push(')');
}

fn render_proj_clause(node: &Node, out: &mut String) {
    match (node.attr_str("alias"), node.children().first()) {
        (Some(alias), Some(expr)) => {
            out.push_str("alias(");
            render_expr(expr, out);
            let _ = write!(out, ", '{}'", escape_str(alias));
            out.push(')');
        }
        (None, Some(expr)) => render_expr(expr, out),
        _ => {}
    }
}

fn render_order_clause(node: &Node, out: &mut String) {
    let desc = node.attr_str("dir") == Some("desc");
    if desc {
        out.push_str("desc(");
    }
    if let Some(expr) = node.children().first() {
        render_expr(expr, out);
    }
    if desc {
        out.push(')');
    }
}

fn render_limit(node: &Node, out: &mut String) {
    let method = if node.attr_str("style") == Some("top") {
        "head"
    } else {
        "limit"
    };
    out.push_str(method);
    out.push('(');
    if let Some(expr) = node.children().first() {
        render_expr(expr, out);
    }
    out.push(')');
}

fn render_base(node: &Node, out: &mut String) {
    match node.kind_ref() {
        NodeKind::TableRef => out.push_str(node.attr_str("name").unwrap_or("?")),
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
        }
        NodeKind::SubqueryRef => {
            out.push('(');
            render_query(&node.children()[0], out);
            out.push(')');
        }
        NodeKind::Select => {
            out.push('(');
            render_query(node, out);
            out.push(')');
        }
        // Explicit joins are SQL-only; render-only chain notation.
        NodeKind::Join => {
            render_base(&node.children()[0], out);
            out.push_str(".join(");
            render_base(&node.children()[1], out);
            out.push_str(", ");
            render_expr(&node.children()[2], out);
            out.push(')');
        }
        _ => render_expr(node, out),
    }
}

/// True when an expression needs parentheses as an operand of an infix operator.
fn is_composite(node: &Node) -> bool {
    matches!(node.kind_ref(), NodeKind::BiExpr | NodeKind::UnExpr)
}

/// True for a `NOT` (`~`) expression.
fn is_not(node: &Node) -> bool {
    node.kind_ref() == &NodeKind::UnExpr && node.attr_str("op").unwrap_or("NOT") == "NOT"
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
            let _ = write!(out, "'{}'", escape_str(value));
        }
        NodeKind::NumExpr => match node.attr("value") {
            Some(AttrValue::Int(i)) => {
                let _ = write!(out, "{i}");
            }
            Some(AttrValue::Float(f)) => {
                let _ = write!(out, "{}", AttrValue::Float(*f).render());
            }
            other => {
                let _ = write!(out, "{}", other.map(|v| v.render()).unwrap_or_default());
            }
        },
        NodeKind::HexExpr => {
            let v = node.attr("value").and_then(AttrValue::as_int).unwrap_or(0);
            let _ = write!(out, "0x{v:x}");
        }
        NodeKind::BoolExpr => {
            let v = node.attr_str("value").unwrap_or("false");
            out.push_str(if v == "true" { "True" } else { "False" });
        }
        NodeKind::Null => out.push_str("None"),
        NodeKind::Star => {
            if let Some(table) = node.attr_str("table") {
                let _ = write!(out, "{table}.");
            }
            out.push('*');
        }
        NodeKind::BiExpr => render_biexpr(node, out),
        NodeKind::UnExpr => {
            let op = node.attr_str("op").unwrap_or("NOT");
            let inner = &node.children()[0];
            match op {
                // A negated negation is written flat (`~~a`), so a chain renders no deeper
                // than the nesting bound its parse stayed within.
                "NOT" if is_not(inner) => {
                    out.push('~');
                    render_expr(inner, out);
                }
                "NOT" => {
                    out.push('~');
                    render_operand(inner, out);
                }
                "-" => {
                    out.push('-');
                    render_operand(inner, out);
                }
                "IS NULL" => {
                    out.push_str("isnull(");
                    render_expr(inner, out);
                    out.push(')');
                }
                "IS NOT NULL" => {
                    out.push_str("notnull(");
                    render_expr(inner, out);
                    out.push(')');
                }
                other => {
                    let _ = write!(out, "{other} ");
                    render_operand(inner, out);
                }
            }
        }
        NodeKind::AggCall | NodeKind::FuncCall => {
            let (name, args): (&str, &[Node]) = match node.children().first() {
                Some(first) if first.kind_ref() == &NodeKind::FuncName => {
                    (first.attr_str("name").unwrap_or("?"), &node.children()[1..])
                }
                _ => (node.attr_str("name").unwrap_or("?"), node.children()),
            };
            let distinct = node.attr("distinct").and_then(AttrValue::as_bool) == Some(true);
            out.push_str(name);
            if distinct {
                // COUNT(DISTINCT x) spells COUNT_DISTINCT(x); the parser undoes this.
                out.push_str("_DISTINCT");
            }
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(arg, out);
            }
            out.push(')');
        }
        NodeKind::FuncName => out.push_str(node.attr_str("name").unwrap_or("?")),
        NodeKind::Cast => {
            out.push_str("cast(");
            render_expr(&node.children()[0], out);
            let _ = write!(
                out,
                ", '{}')",
                escape_str(node.attr_str("ty").unwrap_or("varchar"))
            );
        }
        NodeKind::ScalarSubquery => {
            out.push('(');
            render_query(&node.children()[0], out);
            out.push(')');
        }
        NodeKind::ExprList => render_expr_list(node, out, ", "),
        NodeKind::Select => {
            out.push('(');
            render_query(node, out);
            out.push(')');
        }
        // SQL-only constructs (CASE arms, …) and clause nodes in expression position:
        // generic `Kind(child, …)` notation, mirroring the SQL renderer's fallback.
        other => {
            let _ = write!(out, "{}", other.name());
            if node.arity() > 0 {
                out.push('(');
                render_expr_list(node, out, ", ");
                out.push(')');
            }
        }
    }
}

fn render_biexpr(node: &Node, out: &mut String) {
    let op = node.attr_str("op").unwrap_or("=");
    let left = &node.children()[0];
    let right = &node.children()[1];
    let mapped = match op {
        "=" => Some("=="),
        "<>" => Some("!="),
        "AND" => Some("&"),
        "OR" => Some("|"),
        "!=" | "<" | "<=" | ">" | ">=" | "+" | "-" | "*" | "/" | "%" => Some(op),
        _ => None,
    };
    match (op, mapped) {
        (_, Some(infix)) => {
            render_operand(left, out);
            let _ = write!(out, " {infix} ");
            render_operand(right, out);
        }
        ("IN", _) | ("NOT IN", _) => {
            out.push_str(if op == "IN" { "isin(" } else { "notin(" });
            render_expr(left, out);
            out.push_str(", ");
            render_expr_list(right, out, ", ");
            out.push(')');
        }
        ("BETWEEN", _) => {
            out.push_str("between(");
            render_expr(left, out);
            out.push_str(", ");
            render_expr_list(right, out, ", ");
            out.push(')');
        }
        ("LIKE", _) => {
            out.push_str("like(");
            render_expr(left, out);
            out.push_str(", ");
            render_expr(right, out);
            out.push(')');
        }
        // SQL-only operators (NOT BETWEEN, ||, …): readable render-only infix.
        _ => {
            render_operand(left, out);
            let _ = write!(out, " {op} ");
            render_operand(right, out);
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

fn escape_str(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\'', "\\'")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Frames spellings of the paper's query shapes, plus extras exercising every method.
    pub(crate) const FRAMES_QUERIES: &[&str] = &[
        "SpecLineIndex.filter(specObjId == 0x400)",
        "XCRedshift.filter(specObjId == 0x199)",
        "ontime.filter(Month == 9 & Day == 3).groupby(DestState).agg(COUNT(Delay))",
        "ontime.filter(Month == 9 & Day == 3).groupby(DestState).agg()",
        "ontime.select(alias(cast(uniquecarrier, 'varchar'), 'uniquecarrier'))",
        "ontime.filter(canceled == 1).agg(SUM(flights)).having(SUM(flights) > 149 & SUM(flights) < 1354)",
        "t.filter(cust == 'Alice' & country == 'China').groupby(spec_ts).agg(sum(price))",
        "df1.agg(avg(a))",
        "df1.agg(count(b))",
        "Galaxy.select(g.objID).head(10)",
        "T.filter(b > 10).select(a)",
        "(T.filter(b > 10).select(a)).select(*)",
        "ontime.select(carrier).distinct().sort(desc(carrier)).limit(10)",
        "t.select(a).filter(notnull(b) & isin(c, 1, 2, 3) & between(d, 0.5, 2.5))",
        "ontime.agg(alias(COUNT_DISTINCT(carrier), 'c'))",
        "t.filter(~(b == 1) | like(c, 'x%')).select(a)",
        "Galaxy.filter(z > -0.5).select(g.*)",
        "dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616).select(d.objID)",
        "t.filter(flag == True & x != None).sort(a, desc(c))",
        "t.select(a + b * 2, FLOOR(distance / 5))",
    ];

    #[test]
    fn render_parses_back_to_the_same_tree() {
        for text in FRAMES_QUERIES {
            let t1 = parse(text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
            let rendered = render(&t1);
            let t2 = parse(&rendered)
                .unwrap_or_else(|e| panic!("reparse of `{rendered}` (from `{text}`): {e}"));
            assert_eq!(t1, t2, "round trip failed for `{text}` -> `{rendered}`");
            assert_eq!(t1.structural_hash(), t2.structural_hash());
        }
    }

    #[test]
    fn render_is_idempotent_modulo_text() {
        for text in FRAMES_QUERIES {
            let t1 = parse(text).unwrap();
            let r1 = render(&t1);
            let r2 = render(&parse(&r1).unwrap());
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn renders_canonical_method_order() {
        let q = parse("t.sort(a).filter(x == 1).groupby(s).agg(SUM(v)).head(5)").unwrap();
        assert_eq!(
            render(&q),
            "t.filter(x == 1).groupby(s).agg(SUM(v)).sort(a).head(5)"
        );
    }

    #[test]
    fn bare_star_projection_renders_as_a_bare_chain() {
        let q = parse("t.filter(x == 1)").unwrap();
        assert_eq!(render(&q), "t.filter(x == 1)");
        // An explicit select(*) normalises away.
        let q = parse("t.select(*).filter(x == 1)").unwrap();
        assert_eq!(render(&q), "t.filter(x == 1)");
    }

    #[test]
    fn sql_parsed_trees_render_to_frames_text() {
        // Rendering is total over trees from the OTHER front-end, and for shared shapes
        // the result round-trips through the frames parser into the identical tree.
        let sql = pi_sql::parse(
            "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
        )
        .unwrap();
        let text = render(&sql);
        assert_eq!(
            text,
            "ontime.filter(Month == 9).groupby(DestState).agg(COUNT(Delay))"
        );
        assert_eq!(parse(&text).unwrap(), sql);
    }

    #[test]
    fn sql_only_constructs_fall_back_to_readable_notation() {
        let case = pi_sql::parse(
            "SELECT (CASE carrier WHEN 'AA' THEN 'AA' ELSE 'Other' END) AS carrier FROM ontime",
        )
        .unwrap();
        let text = render(&case);
        assert!(text.contains("CaseExpr("), "{text}");
        let join = pi_sql::parse("SELECT * FROM a JOIN b ON a.id = b.id").unwrap();
        assert_eq!(render(&join), "a.join(b, a.id == b.id)");
        let tableless = pi_sql::parse("SELECT avg(a)").unwrap();
        assert_eq!(render(&tableless), "df.select(AVG(a))");
    }

    #[test]
    fn fragments_render_as_method_calls() {
        let q = parse("t.filter(x == 1).groupby(s).agg(SUM(v)).sort(desc(a)).head(5)").unwrap();
        let where_clause = q
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::Where)
            .unwrap();
        assert_eq!(render(where_clause), "filter(x == 1)");
        let gb = q
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::GroupBy)
            .unwrap();
        assert_eq!(render(gb), "groupby(s)");
        let ob = q
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::OrderBy)
            .unwrap();
        assert_eq!(render(ob), "sort(desc(a))");
        let limit = q
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::Limit)
            .unwrap();
        assert_eq!(render(limit), "head(5)");
    }

    #[test]
    fn strings_escape_quotes_and_backslashes() {
        let q = parse("t.filter(name == 'O\\'Brien')").unwrap();
        let text = render(&q);
        assert!(text.contains("'O\\'Brien'"), "{text}");
        assert_eq!(parse(&text).unwrap(), q);
    }

    #[test]
    fn compact_render_collapses_whitespace() {
        let q = parse("t.filter( x  ==  1 )").unwrap();
        assert_eq!(render_compact(&q), "t.filter(x == 1)");
    }
}
