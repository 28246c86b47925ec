//! Parser for the method-chain dataframe dialect, producing `pi_ast` trees.
//!
//! The crucial property is **shape compatibility with `pi-sql`**: a frames query and the
//! equivalent SQL query parse into *identical* trees — same clause order (`Project`,
//! `From`, `Where?`, `GroupBy?`, `Having?`, `OrderBy?`, `Limit?`), same node kinds, same
//! attribute spellings (`==` becomes `op: "="`, `&` becomes a left-associative `AND`
//! chain, aggregate names are upper-cased the way the SQL parser canonicalises them).
//! That is what lets a mixed SQL + frames log diff cleanly and mine into one interface.
//!
//! Method chains accumulate clause state and the tree is built in canonical clause order
//! at the end, so `t.groupby(a).filter(x == 1)` and `t.filter(x == 1).groupby(a)` are the
//! same query — method order is surface syntax, not structure.
//!
//! The parser reads borrowed tokens without cloning them and builds each node once,
//! bottom-up, with [`Node::from_parts`].  Recursion is bounded by [`MAX_NESTING`]: a
//! statement nested deeper fails to parse instead of overflowing the stack.

use crate::error::ParseError;
use crate::lexer::{tokenize, Op, Token, TokenKind};
use pi_ast::{AttrValue, IStr, Node, NodeKind, Sym, MAX_NESTING};
use std::borrow::Cow;

/// Aggregate names canonicalised to upper case, mirroring the SQL parser's list.
const AGGREGATES: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE"];

/// Parses a single frames statement (one method chain) into an AST.
pub fn parse(text: &str) -> Result<Node, ParseError> {
    let tokens = tokenize(text)?;
    let mut parser = Parser::new(tokens);
    let node = parser.parse_statement()?;
    parser.expect_end()?;
    Ok(node)
}

/// The statements of a log fragment: its `;`-separated pieces, trimmed, empty ones dropped.
pub(crate) fn statements(text: &str) -> impl Iterator<Item = &str> {
    text.split(';').map(str::trim).filter(|s| !s.is_empty())
}

/// Accumulated clause state of one method chain.
#[derive(Debug, Default)]
struct ChainState {
    select: Vec<Node>,      // ProjClause nodes from select(...)
    agg: Option<Vec<Node>>, // ProjClause nodes from agg(...); Some even when empty
    filters: Vec<Node>,     // predicate expressions from filter(...)
    groupby: Vec<Node>,     // grouping key expressions from groupby(...)
    having: Vec<Node>,      // predicate expressions from having(...)
    sort: Vec<Node>,        // OrderClause nodes from sort(...)
    limit: Option<Node>,    // Limit node from limit(n) / head(n)
    distinct: bool,
}

/// The recursive-descent parser state.
#[derive(Debug)]
pub struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Nesting levels open at the current token; see [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over a token stream.
    pub fn new(tokens: Vec<Token<'a>>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    // ------------------------------------------------------------------ token helpers

    fn peek(&self) -> Option<&TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, n: usize) -> Option<&TokenKind<'a>> {
        self.tokens.get(self.pos + n).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    /// Moves past the current token (callers have peeked it).
    fn advance(&mut self) {
        self.pos += 1;
    }

    fn at(&self, kind: &TokenKind<'_>) -> bool {
        self.peek() == Some(kind)
    }

    fn eat_token(&mut self, kind: &TokenKind<'_>) -> bool {
        let at = self.at(kind);
        if at {
            self.advance();
        }
        at
    }

    fn expect_token(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), ParseError> {
        if self.eat_token(&kind) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn eat_op(&mut self, op: Op) -> bool {
        self.eat_token(&TokenKind::Op(op))
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(tok) => ParseError::new(
                format!("expected {expected}, found {}", tok.describe()),
                self.offset(),
            ),
            None => ParseError::new(
                format!("expected {expected}, found end of input"),
                self.offset(),
            ),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(&TokenKind::Ident(name)) => {
                self.advance();
                Ok(name)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Runs `parse` one nesting level deeper, failing at the current token past the bound.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                format!("nesting deeper than {MAX_NESTING} levels"),
                self.offset(),
            ));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// Parses `( body )`, one nesting level deeper; `open` and `close` name the expected
    /// parentheses in errors.
    fn parenthesized<T>(
        &mut self,
        open: &str,
        close: &str,
        body: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if !self.at(&TokenKind::LParen) {
            return Err(self.unexpected(open));
        }
        self.nested(|p| {
            p.advance();
            let inner = body(p)?;
            p.expect_token(TokenKind::RParen, close)?;
            Ok(inner)
        })
    }

    /// Consumes optional trailing semicolons and verifies nothing else follows.
    pub fn expect_end(&mut self) -> Result<(), ParseError> {
        while self.eat_token(&TokenKind::Semicolon) {}
        match self.peek() {
            None => Ok(()),
            Some(tok) => Err(ParseError::new(
                format!("trailing input: {}", tok.describe()),
                self.offset(),
            )),
        }
    }

    // ------------------------------------------------------------------ statements

    /// Parses one method-chain query.
    pub fn parse_statement(&mut self) -> Result<Node, ParseError> {
        let base = self.parse_base()?;
        let mut state = ChainState::default();
        while self.eat_token(&TokenKind::Dot) {
            let offset = self.offset();
            let method = self.expect_ident("a method name")?;
            let args = self.parenthesized("`(` after the method name", "`)`", Self::parse_args)?;
            apply_method(&mut state, method, args, offset)?;
        }
        state.build(base)
    }

    /// The chain's base relation: a (possibly dotted) table name, a table-valued function,
    /// or a parenthesised subquery chain.
    fn parse_base(&mut self) -> Result<Node, ParseError> {
        if self.at(&TokenKind::LParen) {
            let sub =
                self.parenthesized("`(`", "`)` closing the subquery", Self::parse_statement)?;
            return Ok(wrap(NodeKind::SubqueryRef, sub));
        }
        let mut name = Cow::Borrowed(self.expect_ident("a table name")?);
        // Dotted name parts continue the base only while the next segment is itself
        // followed by a dot or a call — `dbo.fGetNearbyObjEq(...)` is a base, but in
        // `t.filter(...)` the `.filter` belongs to the chain.
        while self.at(&TokenKind::Dot) {
            let Some(&TokenKind::Ident(part)) = self.peek_at(1) else {
                break;
            };
            match self.peek_at(2) {
                Some(TokenKind::LParen) if is_chain_method(part) => break,
                Some(TokenKind::Dot | TokenKind::LParen) => {
                    self.pos += 2;
                    let name = name.to_mut();
                    name.push('.');
                    name.push_str(part);
                }
                _ => break,
            }
        }
        if self.at(&TokenKind::LParen) {
            // Table-valued function base: dbo.fGetNearbyObjEq(5.8, 0.3, 2.0)
            let args = self.parenthesized("`(`", "`)`", Self::parse_args)?;
            Ok(Node::from_parts(
                NodeKind::TableFunc,
                &[(Sym::NAME, AttrValue::from(&*name))],
                args,
            ))
        } else {
            Ok(Node::table(&name))
        }
    }

    /// Comma-separated expressions up to (not including) the closing `)`.
    fn parse_args(&mut self) -> Result<Vec<Node>, ParseError> {
        let mut args = Vec::new();
        if self.at(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.parse_expr()?);
            if !self.eat_token(&TokenKind::Comma) {
                break;
            }
        }
        Ok(args)
    }

    // ------------------------------------------------------------------ expressions

    /// Parses a full expression: `|` over `&` over `~` over comparisons over arithmetic —
    /// the same precedence ladder as the SQL parser's OR / AND / NOT / comparison levels,
    /// so mixed-dialect predicates associate identically.
    pub fn parse_expr(&mut self) -> Result<Node, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_op(Op::Or) {
            let right = self.parse_and()?;
            left = binop("OR", left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_op(Op::And) {
            let right = self.parse_not()?;
            left = binop("AND", left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Node, ParseError> {
        if !self.at(&TokenKind::Op(Op::Not)) {
            return self.parse_comparison();
        }
        self.nested(|p| {
            p.advance();
            Ok(unary("NOT", p.parse_not()?))
        })
    }

    fn parse_comparison(&mut self) -> Result<Node, ParseError> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            // `==` is surface syntax for the SQL parser's `=`; `!=` stays `!=`.
            Some(TokenKind::Op(Op::EqEq)) => "=",
            Some(&TokenKind::Op(op @ (Op::NotEq | Op::Lt | Op::Le | Op::Gt | Op::Ge))) => {
                op.as_str()
            }
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(binop(op, left, right))
    }

    fn parse_additive(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_multiplicative()?;
        while let Some(&TokenKind::Op(op @ (Op::Plus | Op::Minus))) = self.peek() {
            self.advance();
            let right = self.parse_multiplicative()?;
            left = binop(op.as_str(), left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(&TokenKind::Op(op @ (Op::Slash | Op::Percent))) => op.as_str(),
                Some(TokenKind::Star) => "*",
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = binop(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Node, ParseError> {
        match self.peek() {
            // Negation folds into numeric literals so `-5` is a single NumExpr, exactly as
            // the SQL parser does.
            Some(TokenKind::Op(Op::Minus)) => self.nested(|p| {
                p.advance();
                Ok(negate(p.parse_unary()?))
            }),
            Some(TokenKind::Op(Op::Plus)) => self.nested(|p| {
                p.advance();
                p.parse_unary()
            }),
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Node, ParseError> {
        let node = match self.peek() {
            Some(&TokenKind::Int(i)) => Node::int(i),
            Some(&TokenKind::Float(f)) => Node::float(f),
            Some(&TokenKind::Hex(h)) => Node::hex(h),
            Some(TokenKind::Str(s)) => Node::string(s),
            Some(TokenKind::Star) => Node::star(),
            Some(TokenKind::LParen) => return self.parenthesized("`(`", "`)`", Self::parse_expr),
            Some(TokenKind::Ident(_)) => return self.parse_name_or_call(),
            _ => return Err(self.unexpected("an expression")),
        };
        self.advance();
        Ok(node)
    }

    fn parse_name_or_call(&mut self) -> Result<Node, ParseError> {
        let offset = self.offset();
        // Everything before the last dotted part, joined with dots; and the last part.
        let mut qualifier: Option<Cow<'a, str>> = None;
        let mut last = self.expect_ident("an identifier")?;
        while self.at(&TokenKind::Dot) {
            match self.peek_at(1) {
                Some(&TokenKind::Ident(part)) => {
                    self.pos += 2;
                    qualifier = Some(join(qualifier, last));
                    last = part;
                }
                Some(TokenKind::Star) => {
                    // g.* — a table-qualified star projection.
                    self.pos += 2;
                    return Ok(Node::from_parts(
                        NodeKind::Star,
                        &[(Sym::TABLE, AttrValue::from(&*join(qualifier, last)))],
                        Vec::new(),
                    ));
                }
                _ => break,
            }
        }

        if self.at(&TokenKind::LParen) {
            let args = self.parenthesized("`(`", "`)`", Self::parse_args)?;
            return build_call(&join(qualifier, last), args, offset);
        }

        // Bare identifier: python-ish literal keywords, else a column reference.
        Ok(match (qualifier, last) {
            (None, "True") => bool_literal("true"),
            (None, "False") => bool_literal("false"),
            (None, "None") => Node::new(NodeKind::Null),
            (None, name) => Node::column(name),
            (Some(table), name) => Node::qualified_column(&table, name),
        })
    }
}

/// `qualifier.last`, or `last` alone; borrowed unless both parts are present.
fn join<'a>(qualifier: Option<Cow<'a, str>>, last: &'a str) -> Cow<'a, str> {
    match qualifier {
        None => Cow::Borrowed(last),
        Some(qualifier) => Cow::Owned(format!("{qualifier}.{last}")),
    }
}

/// Moves `args` to the end of `dst` (a move, not a copy, when `dst` is still empty).
fn append(dst: &mut Vec<Node>, mut args: Vec<Node>) {
    if dst.is_empty() {
        *dst = args;
    } else {
        dst.append(&mut args);
    }
}

fn apply_method(
    state: &mut ChainState,
    method: &str,
    args: Vec<Node>,
    offset: usize,
) -> Result<(), ParseError> {
    let arity_error = |what: &str| ParseError::new(format!("{method}() takes {what}"), offset);
    match method {
        "filter" => {
            if args.is_empty() {
                return Err(arity_error("at least one predicate"));
            }
            append(&mut state.filters, args);
        }
        "select" => {
            if args.is_empty() {
                return Err(arity_error("at least one projection"));
            }
            append(&mut state.select, args.into_iter().map(proj_clause).collect());
        }
        "agg" => {
            let clauses = args.into_iter().map(proj_clause).collect();
            append(state.agg.get_or_insert_with(Vec::new), clauses);
        }
        "groupby" => {
            if args.is_empty() {
                return Err(arity_error("at least one grouping key"));
            }
            append(&mut state.groupby, args);
        }
        "having" => {
            if args.is_empty() {
                return Err(arity_error("at least one predicate"));
            }
            append(&mut state.having, args);
        }
        "sort" => {
            if args.is_empty() {
                return Err(arity_error("at least one sort key"));
            }
            append(&mut state.sort, args.into_iter().map(order_clause).collect());
        }
        "limit" | "head" => {
            let [expr] =
                <[Node; 1]>::try_from(args).map_err(|_| arity_error("exactly one row count"))?;
            state.limit = Some(if method == "head" {
                // head() is the TOP-style limit, matching `SELECT TOP n`.
                Node::from_parts(NodeKind::Limit, &[(Sym::STYLE, spelled("top"))], vec![expr])
            } else {
                wrap(NodeKind::Limit, expr)
            });
        }
        "distinct" => {
            if !args.is_empty() {
                return Err(arity_error("no arguments"));
            }
            state.distinct = true;
        }
        other => {
            return Err(ParseError::new(
                format!("unknown method `{other}` (expected filter/select/groupby/agg/having/sort/limit/head/distinct)"),
                offset,
            ))
        }
    }
    Ok(())
}

/// True for the identifiers that terminate a dotted base name because they start a chain.
fn is_chain_method(name: &str) -> bool {
    matches!(
        name,
        "filter" | "select" | "groupby" | "agg" | "having" | "sort" | "limit" | "head" | "distinct"
    )
}

/// A node of `kind` with the single child `child` and no attributes.
fn wrap(kind: NodeKind, child: Node) -> Node {
    Node::from_parts(kind, &[], vec![child])
}

/// A grammar spelling as an attribute value (no interning: it lives in the binary).
fn spelled(text: &'static str) -> AttrValue {
    AttrValue::Str(IStr::from_static(text))
}

fn binop(op: &'static str, left: Node, right: Node) -> Node {
    Node::from_parts(
        NodeKind::BiExpr,
        &[(Sym::OP, spelled(op))],
        vec![left, right],
    )
}

fn unary(op: &'static str, inner: Node) -> Node {
    Node::from_parts(NodeKind::UnExpr, &[(Sym::OP, spelled(op))], vec![inner])
}

/// Unary minus, folded into a numeric literal so `-5` is a single NumExpr.
fn negate(inner: Node) -> Node {
    if inner.kind_ref() == &NodeKind::NumExpr {
        match inner.attr("value") {
            Some(AttrValue::Int(i)) => return Node::int(-i),
            Some(AttrValue::Float(f)) => return Node::float(-f),
            _ => {}
        }
    }
    unary("-", inner)
}

fn bool_literal(value: &'static str) -> Node {
    Node::from_parts(
        NodeKind::BoolExpr,
        &[(Sym::VALUE, spelled(value))],
        Vec::new(),
    )
}

/// Wraps a select()/agg() argument into a `ProjClause`, unwrapping `alias(expr, 'name')`.
fn proj_clause(expr: Node) -> Node {
    if let Some((inner, alias)) = match_alias_call(&expr) {
        return Node::from_parts(NodeKind::ProjClause, &[(Sym::ALIAS, alias)], vec![inner]);
    }
    wrap(NodeKind::ProjClause, expr)
}

/// Recognises the `alias(expr, 'name')` pseudo-function inside select()/agg() arguments.
fn match_alias_call(expr: &Node) -> Option<(Node, AttrValue)> {
    if expr.kind_ref() != &NodeKind::FuncCall {
        return None;
    }
    let [name, inner, alias] = expr.children() else {
        return None;
    };
    if name.kind_ref() != &NodeKind::FuncName || name.attr_str("name") != Some("alias") {
        return None;
    }
    let alias = alias.attr("value").filter(|v| v.as_str().is_some())?;
    Some((inner.clone(), alias.clone()))
}

/// Wraps a sort() argument into an `OrderClause`, unwrapping `desc(expr)`.
fn order_clause(expr: Node) -> Node {
    if expr.kind_ref() == &NodeKind::FuncCall {
        if let [name, inner] = expr.children() {
            if name.kind_ref() == &NodeKind::FuncName && name.attr_str("name") == Some("desc") {
                return Node::from_parts(
                    NodeKind::OrderClause,
                    &[(Sym::DIR, spelled("desc"))],
                    vec![inner.clone()],
                );
            }
        }
    }
    Node::from_parts(
        NodeKind::OrderClause,
        &[(Sym::DIR, spelled("asc"))],
        vec![expr],
    )
}

/// Builds a call expression, giving the pseudo-functions (`isnull`, `isin`, `between`,
/// `like`, `cast`, …) their SQL-compatible tree shapes and canonicalising aggregates the
/// way the SQL parser does (`count(x)` → `AggCall[FuncName COUNT, x]`).
fn build_call(name: &str, mut args: Vec<Node>, offset: usize) -> Result<Node, ParseError> {
    let arity_error = |what: &str| ParseError::new(format!("{name}() takes {what}"), offset);
    match name {
        "isnull" | "notnull" => {
            let [inner] = <[Node; 1]>::try_from(args).map_err(|_| arity_error("one argument"))?;
            let op = if name == "isnull" {
                "IS NULL"
            } else {
                "IS NOT NULL"
            };
            Ok(unary(op, inner))
        }
        "isin" | "notin" => {
            if args.len() < 2 {
                return Err(arity_error("an expression plus at least one member"));
            }
            let members = args.split_off(1);
            let left = args.pop().expect("one element left");
            let list = Node::from_parts(NodeKind::ExprList, &[], members);
            let op = if name == "isin" { "IN" } else { "NOT IN" };
            Ok(binop(op, left, list))
        }
        "between" => {
            let [expr, lo, hi] =
                <[Node; 3]>::try_from(args).map_err(|_| arity_error("three arguments"))?;
            let list = Node::from_parts(NodeKind::ExprList, &[], vec![lo, hi]);
            Ok(binop("BETWEEN", expr, list))
        }
        "like" => {
            let [expr, pattern] =
                <[Node; 2]>::try_from(args).map_err(|_| arity_error("two arguments"))?;
            Ok(binop("LIKE", expr, pattern))
        }
        "cast" => {
            let [expr, ty] =
                <[Node; 2]>::try_from(args).map_err(|_| arity_error("two arguments"))?;
            let Some(ty) = ty.attr("value").filter(|v| v.as_str().is_some()) else {
                return Err(arity_error("a string type name as its second argument"));
            };
            Ok(Node::from_parts(
                NodeKind::Cast,
                &[(Sym::TY, ty.clone())],
                vec![expr],
            ))
        }
        _ => {
            let aggregate = |name: &str| {
                AGGREGATES
                    .iter()
                    .copied()
                    .find(|a| a.eq_ignore_ascii_case(name))
            };
            let distinct_of = name
                .len()
                .checked_sub("_DISTINCT".len())
                .and_then(|cut| name.get(..cut).zip(name.get(cut..)))
                .filter(|(_, suffix)| suffix.eq_ignore_ascii_case("_DISTINCT"))
                .and_then(|(prefix, _)| aggregate(prefix));
            let (kind, canonical, distinct) = if let Some(agg) = aggregate(name) {
                (NodeKind::AggCall, spelled(agg), false)
            } else if let Some(agg) = distinct_of {
                // COUNT_DISTINCT(x) ≙ SQL COUNT(DISTINCT x).
                (NodeKind::AggCall, spelled(agg), true)
            } else {
                (NodeKind::FuncCall, name.into(), false)
            };
            let func_name =
                Node::from_parts(NodeKind::FuncName, &[(Sym::NAME, canonical)], Vec::new());
            let mut children = Vec::with_capacity(args.len() + 1);
            children.push(func_name);
            children.append(&mut args);
            let attrs: &[(Sym, AttrValue)] = if distinct {
                &[(Sym::DISTINCT, AttrValue::Bool(true))]
            } else {
                &[]
            };
            Ok(Node::from_parts(kind, attrs, children))
        }
    }
}

impl ChainState {
    /// Builds the canonical `Select` tree: the same clause order the SQL parser produces.
    fn build(self, base: Node) -> Result<Node, ParseError> {
        if self.agg.is_some() && !self.select.is_empty() {
            return Err(ParseError::new(
                "select() and agg() cannot be combined; aggregated projections belong in agg()",
                0,
            ));
        }
        let mut clauses = Vec::with_capacity(4);

        // Projection: agg(...) projects the aggregates followed by the grouping keys (the
        // `SELECT COUNT(Delay), DestState … GROUP BY DestState` shape); select(...) projects
        // its arguments; a bare chain projects `*`.
        let projections = match self.agg {
            Some(mut aggs) => {
                aggs.extend(
                    self.groupby
                        .iter()
                        .map(|key| wrap(NodeKind::ProjClause, key.clone())),
                );
                aggs
            }
            None if !self.select.is_empty() => self.select,
            None => vec![wrap(NodeKind::ProjClause, Node::star())],
        };
        clauses.push(Node::from_parts(NodeKind::Project, &[], projections));
        clauses.push(wrap(NodeKind::From, base));

        if !self.filters.is_empty() {
            clauses.push(wrap(NodeKind::Where, conjoin(self.filters)));
        }

        if !self.groupby.is_empty() {
            let keys = self
                .groupby
                .into_iter()
                .map(|key| wrap(NodeKind::GroupClause, key))
                .collect();
            clauses.push(Node::from_parts(NodeKind::GroupBy, &[], keys));
        }

        if !self.having.is_empty() {
            clauses.push(wrap(NodeKind::Having, conjoin(self.having)));
        }

        if !self.sort.is_empty() {
            clauses.push(Node::from_parts(NodeKind::OrderBy, &[], self.sort));
        }

        if let Some(limit) = self.limit {
            clauses.push(limit);
        }

        let attrs: &[(Sym, AttrValue)] = if self.distinct {
            &[(Sym::DISTINCT, AttrValue::Bool(true))]
        } else {
            &[]
        };
        Ok(Node::from_parts(NodeKind::Select, attrs, clauses))
    }
}

/// Left-associative AND chain, matching the SQL parser's associativity.
fn conjoin(preds: Vec<Node>) -> Node {
    let mut iter = preds.into_iter();
    let first = iter.next().expect("conjoin is called with predicates");
    iter.fold(first, |acc, pred| binop("AND", acc, pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Path;

    #[test]
    fn parses_a_filtered_aggregation() {
        let q = parse("ontime.filter(Month == 9 & Day == 3).groupby(DestState).agg(COUNT(Delay))")
            .unwrap();
        assert_eq!(q.kind(), NodeKind::Select);
        assert_eq!(q.arity(), 4); // Project, From, Where, GroupBy
        let agg = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(agg.kind(), NodeKind::AggCall);
        assert_eq!(agg.children()[0].attr_str("name"), Some("COUNT"));
        // The grouping key is also projected, after the aggregates.
        let dim = q.get(&"0/1/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(dim.attr_str("name"), Some("DestState"));
        let and = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(and.attr_str("op"), Some("AND"));
        let eq = &and.children()[0];
        assert_eq!(eq.attr_str("op"), Some("="));
    }

    #[test]
    fn matches_the_sql_parser_tree_for_the_same_analysis() {
        // The paper's Listing 2 OLAP query, written in both dialects, must be ONE tree.
        let frames =
            parse("ontime.filter(Month == 9 & Day == 3).groupby(DestState).agg(COUNT(Delay))")
                .unwrap();
        let sql = pi_sql::parse(
            "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
        )
        .unwrap();
        assert_eq!(frames, sql);
        assert_eq!(frames.structural_hash(), sql.structural_hash());
    }

    #[test]
    fn method_order_is_surface_syntax_only() {
        let a = parse("t.filter(x == 1).groupby(s).agg(SUM(v))").unwrap();
        let b = parse("t.groupby(s).agg(SUM(v)).filter(x == 1)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_filters_conjoin_left_associatively() {
        let chained = parse("t.filter(a == 1).filter(b == 2).filter(c == 3)").unwrap();
        let single = parse("t.filter(a == 1 & b == 2 & c == 3)").unwrap();
        assert_eq!(chained, single);
        let sql = pi_sql::parse("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3").unwrap();
        assert_eq!(chained, sql);
    }

    #[test]
    fn bare_chain_projects_star() {
        let q = parse("SpecLineIndex.filter(specObjId == 0x400)").unwrap();
        let sql = pi_sql::parse("SELECT * FROM SpecLineIndex WHERE specObjId = 0x400").unwrap();
        assert_eq!(q, sql);
    }

    #[test]
    fn select_head_sort_and_distinct_match_sql() {
        let q = parse("ontime.select(carrier).distinct().sort(desc(carrier)).limit(10)").unwrap();
        let sql =
            pi_sql::parse("SELECT DISTINCT carrier FROM ontime ORDER BY carrier DESC LIMIT 10")
                .unwrap();
        assert_eq!(q, sql);

        let top = parse("Galaxy.select(g.objID).head(10)").unwrap();
        let limit = top.children().last().unwrap();
        assert_eq!(limit.kind(), NodeKind::Limit);
        assert_eq!(limit.attr_str("style"), Some("top"));
    }

    #[test]
    fn table_function_bases_and_qualified_columns() {
        let q = parse("dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616).select(d.objID)").unwrap();
        let from = q.get(&"1/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(from.kind(), NodeKind::TableFunc);
        assert_eq!(from.attr_str("name"), Some("dbo.fGetNearbyObjEq"));
        assert_eq!(from.arity(), 3);
        let col = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(col.attr_str("table"), Some("d"));
        assert_eq!(col.attr_str("name"), Some("objID"));
    }

    #[test]
    fn subquery_bases_nest() {
        let q = parse("(T.filter(b > 10).select(a)).select(*)").unwrap();
        let sql = pi_sql::parse("SELECT * FROM (SELECT a FROM T WHERE b > 10)").unwrap();
        assert_eq!(q, sql);
    }

    #[test]
    fn pseudo_functions_take_sql_shapes() {
        let q =
            parse("t.filter(isin(c, 1, 2, 3) & between(d, 0.5, 2.5) & notnull(b) & like(e, 'x%'))")
                .unwrap();
        let sql = pi_sql::parse(
            "SELECT * FROM t WHERE c IN (1, 2, 3) AND d BETWEEN 0.5 AND 2.5 AND b IS NOT NULL AND e LIKE 'x%'",
        )
        .unwrap();
        assert_eq!(q, sql);
    }

    #[test]
    fn not_cast_alias_and_distinct_aggregates() {
        let q = parse("t.filter(~(d == 4))").unwrap();
        let sql = pi_sql::parse("SELECT * FROM t WHERE NOT d = 4").unwrap();
        assert_eq!(q, sql);

        let q =
            parse("ontime.select(alias(cast(uniquecarrier, 'varchar'), 'uniquecarrier'))").unwrap();
        let sql = pi_sql::parse("SELECT CAST(uniquecarrier) AS uniquecarrier FROM ontime").unwrap();
        assert_eq!(q, sql);

        let q = parse("ontime.agg(alias(COUNT_DISTINCT(carrier), 'c'))").unwrap();
        let sql = pi_sql::parse("SELECT COUNT(DISTINCT carrier) AS c FROM ontime").unwrap();
        assert_eq!(q, sql);
    }

    #[test]
    fn literal_keywords_and_star_qualifiers() {
        let q = parse("t.filter(flag == True).select(g.*)").unwrap();
        let sql = pi_sql::parse("SELECT g.* FROM t WHERE flag = TRUE").unwrap();
        assert_eq!(q, sql);
        let q = parse("t.filter(x != None)").unwrap();
        let pred = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(pred.children()[1].kind(), NodeKind::Null);
    }

    #[test]
    fn arithmetic_precedence_matches_sql() {
        let q = parse("t.select(a + b * 2, FLOOR(distance / 5))").unwrap();
        let sql = pi_sql::parse("SELECT a + b * 2, FLOOR(distance / 5) FROM t").unwrap();
        assert_eq!(q, sql);
        let neg = parse("t.filter(z > -0.5)").unwrap();
        let sqln = pi_sql::parse("SELECT * FROM t WHERE z > -0.5").unwrap();
        assert_eq!(neg, sqln);
    }

    #[test]
    fn non_ascii_literals_match_sql_and_round_trip() {
        let q = parse("t.filter(name == 'café — 雪')").unwrap();
        let sql = pi_sql::parse("SELECT * FROM t WHERE name = 'café — 雪'").unwrap();
        assert_eq!(q, sql);
        assert_eq!(parse(&crate::render(&q)).unwrap(), q);
    }

    #[test]
    fn rejects_malformed_chains() {
        assert!(parse("t.filter(x == 1).explode(y)").is_err()); // unknown method
                                                                // (`t.explode(x)` alone is a *base*: a table-valued function, like
                                                                // `dbo.fGetNearbyObjEq(...)` — only post-base calls must be chain methods.)
        assert!(parse("t.filter()").is_err()); // missing predicate
        assert!(parse("t.head(1, 2)").is_err()); // wrong arity
        assert!(parse("t.select(a).agg(SUM(b))").is_err()); // select+agg conflict
        assert!(parse("t.filter(x == )").is_err());
        assert!(parse("t.filter(x == 1) trailing").is_err());
        assert!(parse("").is_err());
    }

    /// Parses on a thread with a 2 MiB stack, the default of a spawned worker thread.
    fn parse_on_small_stack(text: String) -> Result<Node, ParseError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&text))
            .expect("spawn a parser thread")
            .join()
            .expect("parsing never panics")
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        // The method call's own parentheses are the first level.
        let parens =
            |n: usize| format!("t.filter({}x == 1{})", "(".repeat(n - 1), ")".repeat(n - 1));
        let tildes = |n: usize| format!("t.filter({}x)", "~".repeat(n - 1));
        let minus = |n: usize| format!("t.select({}5)", "-".repeat(n - 1));
        for deep in [parens as fn(usize) -> String, tildes, minus] {
            let err = parse_on_small_stack(deep(100_000)).unwrap_err();
            assert!(err.message().contains("nesting deeper than"), "{err}");
            assert_eq!(err.offset(), 9 + (MAX_NESTING - 1), "{err}");
            assert!(parse_on_small_stack(deep(MAX_NESTING + 1)).is_err());
            assert!(parse_on_small_stack(deep(MAX_NESTING)).is_ok());
        }
        // Subquery bases and call arguments count too.
        let bases = format!("{}t{}", "(".repeat(200), ")".repeat(200));
        let calls = format!("t.select({}a{})", "f(".repeat(200), ")".repeat(200));
        for deep in [bases, calls] {
            let err = parse_on_small_stack(deep).unwrap_err();
            assert!(err.message().contains("nesting deeper than"), "{err}");
        }
    }
}
