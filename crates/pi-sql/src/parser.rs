//! Recursive-descent SQL parser producing `pi_ast` trees.
//!
//! The parser reads borrowed tokens without cloning them and builds each node once,
//! bottom-up, with [`Node::from_parts`]: a clause's children are parsed first and moved into
//! it.  Recursion is bounded by [`MAX_NESTING`]: a statement nested deeper fails with
//! [`ParseErrorKind::NestingTooDeep`] instead of overflowing the stack.

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::{Keyword, Lexer, Op, Token, TokenKind};
use pi_ast::{AttrValue, IStr, Node, NodeKind, Sym, MAX_NESTING};
use std::borrow::Cow;

/// Parses a single SQL statement into an AST.
pub fn parse(sql: &str) -> Result<Node, ParseError> {
    let tokens = Lexer::new(sql).tokenize()?;
    let mut parser = Parser::new(tokens);
    let node = parser.parse_statement()?;
    parser.expect_end()?;
    Ok(node)
}

/// The statements of a log fragment: its `;`-separated pieces, trimmed, empty ones dropped.
pub(crate) fn statements(text: &str) -> impl Iterator<Item = &str> {
    text.split(';').map(str::trim).filter(|s| !s.is_empty())
}

/// The recursive-descent parser state.
#[derive(Debug)]
pub struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Nesting levels open at the current token; see [`MAX_NESTING`].
    depth: usize,
}

const AGGREGATES: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE"];

/// A dotted name as written (`a`, `g.objID`, `dbo.f.g`): everything before the last part,
/// joined with dots, and the last part.  Names of one or two parts borrow from the source.
struct DottedName<'a> {
    qualifier: Option<Cow<'a, str>>,
    last: &'a str,
}

impl<'a> DottedName<'a> {
    fn push(&mut self, part: &'a str) {
        self.qualifier = Some(match self.qualifier.take() {
            None => Cow::Borrowed(self.last),
            Some(qualifier) => Cow::Owned(format!("{qualifier}.{}", self.last)),
        });
        self.last = part;
    }

    /// The whole name, parts joined with dots.
    fn joined(&self) -> Cow<'a, str> {
        match &self.qualifier {
            None => Cow::Borrowed(self.last),
            Some(qualifier) => Cow::Owned(format!("{qualifier}.{}", self.last)),
        }
    }
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

    fn at_keyword(&self, kw: Keyword) -> bool {
        matches!(self.peek(), Some(TokenKind::Keyword(k)) if *k == kw)
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        let at = self.at_keyword(kw);
        if at {
            self.advance();
        }
        at
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(kw.as_str()))
        }
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

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(tok) => ParseError::new(
                ParseErrorKind::UnexpectedToken {
                    found: tok.describe(),
                    expected: expected.to_string(),
                },
                self.offset(),
            ),
            None => ParseError::new(
                ParseErrorKind::UnexpectedEnd {
                    expected: expected.to_string(),
                },
                self.offset(),
            ),
        }
    }

    /// Runs `parse` one nesting level deeper, failing at the current token past the bound.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                ParseErrorKind::NestingTooDeep,
                self.offset(),
            ));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// Parses `( body )`, one nesting level deeper; the `(` must be next.
    fn parenthesized<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if !self.at(&TokenKind::LParen) {
            return Err(self.unexpected("("));
        }
        self.nested(|p| {
            p.advance();
            let inner = body(p)?;
            p.expect_token(TokenKind::RParen, ")")?;
            Ok(inner)
        })
    }

    /// One or more `item`s separated by commas.
    fn comma_list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<Node, ParseError>,
    ) -> Result<Vec<Node>, ParseError> {
        let mut items = Vec::new();
        loop {
            items.push(item(self)?);
            if !self.eat_token(&TokenKind::Comma) {
                return Ok(items);
            }
        }
    }

    /// Consumes an optional trailing semicolon and verifies nothing else follows.
    pub fn expect_end(&mut self) -> Result<(), ParseError> {
        while self.eat_token(&TokenKind::Semicolon) {}
        match self.peek() {
            None => Ok(()),
            Some(tok) => Err(ParseError::new(
                ParseErrorKind::TrailingInput(tok.describe()),
                self.offset(),
            )),
        }
    }

    // ------------------------------------------------------------------ statements

    /// Parses one SELECT statement.
    pub fn parse_statement(&mut self) -> Result<Node, ParseError> {
        self.parse_select()
    }

    fn parse_select(&mut self) -> Result<Node, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);

        // TOP n (SQL Server / SDSS style)
        let top = if self.eat_keyword(Keyword::Top) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut clauses = Vec::with_capacity(4);
        let projections = self.comma_list(Self::parse_proj_clause)?;
        clauses.push(Node::from_parts(NodeKind::Project, &[], projections));

        let relations = if self.eat_keyword(Keyword::From) {
            self.comma_list(Self::parse_relation)?
        } else {
            Vec::new()
        };
        clauses.push(Node::from_parts(NodeKind::From, &[], relations));

        if self.eat_keyword(Keyword::Where) {
            clauses.push(wrap(NodeKind::Where, self.parse_expr()?));
        }

        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            let keys = self.comma_list(|p| Ok(wrap(NodeKind::GroupClause, p.parse_expr()?)))?;
            clauses.push(Node::from_parts(NodeKind::GroupBy, &[], keys));
        }

        if self.eat_keyword(Keyword::Having) {
            clauses.push(wrap(NodeKind::Having, self.parse_expr()?));
        }

        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            let keys = self.comma_list(|p| {
                let expr = p.parse_expr()?;
                let dir = if p.eat_keyword(Keyword::Desc) {
                    "desc"
                } else {
                    p.eat_keyword(Keyword::Asc);
                    "asc"
                };
                Ok(Node::from_parts(
                    NodeKind::OrderClause,
                    &[(Sym::DIR, spelled(dir))],
                    vec![expr],
                ))
            })?;
            clauses.push(Node::from_parts(NodeKind::OrderBy, &[], keys));
        }

        if self.eat_keyword(Keyword::Limit) {
            clauses.push(wrap(NodeKind::Limit, self.parse_expr()?));
        } else if let Some(top) = top {
            clauses.push(Node::from_parts(
                NodeKind::Limit,
                &[(Sym::STYLE, spelled("top"))],
                vec![top],
            ));
        }

        let attrs: &[(Sym, AttrValue)] = if distinct {
            &[(Sym::DISTINCT, AttrValue::Bool(true))]
        } else {
            &[]
        };
        Ok(Node::from_parts(NodeKind::Select, attrs, clauses))
    }

    fn parse_proj_clause(&mut self) -> Result<Node, ParseError> {
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident("projection alias")?)
        } else {
            None
        };
        Ok(aliased(NodeKind::ProjClause, None, alias, vec![expr]))
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

    // ------------------------------------------------------------------ relations

    fn parse_relation(&mut self) -> Result<Node, ParseError> {
        let mut rel = self.parse_relation_primary()?;
        // explicit JOINs bind tighter than the comma list
        loop {
            let join_type = if self.eat_keyword(Keyword::Join) {
                "inner"
            } else if self.at_keyword(Keyword::Inner)
                && self.peek_at(1) == Some(&TokenKind::Keyword(Keyword::Join))
            {
                self.pos += 2;
                "inner"
            } else if (self.at_keyword(Keyword::Left) || self.at_keyword(Keyword::Right))
                && matches!(
                    self.peek_at(1),
                    Some(TokenKind::Keyword(Keyword::Join))
                        | Some(TokenKind::Keyword(Keyword::Outer))
                )
            {
                let side = if self.at_keyword(Keyword::Left) {
                    "left"
                } else {
                    "right"
                };
                self.advance();
                self.eat_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                side
            } else {
                break;
            };
            let right = self.parse_relation_primary()?;
            self.expect_keyword(Keyword::On)?;
            let on = self.parse_expr()?;
            rel = Node::from_parts(
                NodeKind::Join,
                &[(Sym::JOIN_TYPE, spelled(join_type))],
                vec![rel, right, on],
            );
        }
        Ok(rel)
    }

    fn parse_relation_primary(&mut self) -> Result<Node, ParseError> {
        if self.at(&TokenKind::LParen) {
            // derived table
            let sub = self.parenthesized(Self::parse_select)?;
            let alias = self.parse_optional_alias()?;
            return Ok(aliased(NodeKind::SubqueryRef, None, alias, vec![sub]));
        }

        // dotted name: schema.table or schema.func(...)
        let name = self.parse_dotted_name()?;
        let name = AttrValue::from(&*name.joined());
        if self.at(&TokenKind::LParen) {
            // table-valued function
            let args = self.parenthesized(|p| {
                if p.at(&TokenKind::RParen) {
                    Ok(Vec::new())
                } else {
                    p.comma_list(Self::parse_expr)
                }
            })?;
            let alias = self.parse_optional_alias()?;
            Ok(aliased(NodeKind::TableFunc, Some(name), alias, args))
        } else {
            let alias = self.parse_optional_alias()?;
            Ok(aliased(NodeKind::TableRef, Some(name), alias, Vec::new()))
        }
    }

    fn parse_optional_alias(&mut self) -> Result<Option<&'a str>, ParseError> {
        if self.eat_keyword(Keyword::As) {
            return self.expect_ident("alias").map(Some);
        }
        if let Some(&TokenKind::Ident(alias)) = self.peek() {
            self.advance();
            return Ok(Some(alias));
        }
        Ok(None)
    }

    fn parse_dotted_name(&mut self) -> Result<DottedName<'a>, ParseError> {
        let mut name = DottedName {
            qualifier: None,
            last: self.expect_ident("table name")?,
        };
        // only continue if a dot is followed by an identifier
        while self.at(&TokenKind::Dot) && matches!(self.peek_at(1), Some(TokenKind::Ident(_))) {
            self.advance();
            name.push(self.expect_ident("name part")?);
        }
        Ok(name)
    }

    // ------------------------------------------------------------------ expressions

    /// Parses a full boolean expression (entry point also used for arguments and predicates).
    pub fn parse_expr(&mut self) -> Result<Node, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = binop("OR", left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = binop("AND", left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Node, ParseError> {
        if !self.at_keyword(Keyword::Not) {
            return self.parse_comparison();
        }
        self.nested(|p| {
            p.advance();
            Ok(unary("NOT", p.parse_not()?))
        })
    }

    fn parse_comparison(&mut self) -> Result<Node, ParseError> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            let op = if negated { "IS NOT NULL" } else { "IS NULL" };
            return Ok(unary(op, left));
        }

        // [NOT] IN / BETWEEN / LIKE
        let negated = self.at_keyword(Keyword::Not)
            && matches!(
                self.peek_at(1),
                Some(TokenKind::Keyword(Keyword::In))
                    | Some(TokenKind::Keyword(Keyword::Between))
                    | Some(TokenKind::Keyword(Keyword::Like))
            );
        if negated {
            self.advance();
        }

        if self.eat_keyword(Keyword::In) {
            let members = self.parenthesized(|p| {
                if p.at_keyword(Keyword::Select) {
                    Ok(vec![wrap(NodeKind::ScalarSubquery, p.parse_select()?)])
                } else {
                    p.comma_list(Self::parse_expr)
                }
            })?;
            let list = Node::from_parts(NodeKind::ExprList, &[], members);
            let op = if negated { "NOT IN" } else { "IN" };
            return Ok(binop(op, left, list));
        }
        if self.eat_keyword(Keyword::Between) {
            let lo = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let hi = self.parse_additive()?;
            let list = Node::from_parts(NodeKind::ExprList, &[], vec![lo, hi]);
            let op = if negated { "NOT BETWEEN" } else { "BETWEEN" };
            return Ok(binop(op, left, list));
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            let op = if negated { "NOT LIKE" } else { "LIKE" };
            return Ok(binop(op, left, pattern));
        }
        if negated {
            return Err(self.unexpected("IN, BETWEEN or LIKE after NOT"));
        }

        // plain comparison operators
        if let Some(&TokenKind::Op(
            op @ (Op::Eq | Op::Lt | Op::Gt | Op::Le | Op::Ge | Op::LtGt | Op::NotEq),
        )) = self.peek()
        {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(binop(op.as_str(), left, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Node, ParseError> {
        let mut left = self.parse_multiplicative()?;
        while let Some(&TokenKind::Op(op @ (Op::Plus | Op::Minus | Op::Concat))) = self.peek() {
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
            Some(TokenKind::String(s)) => Node::string(s),
            Some(TokenKind::Star) => Node::star(),
            Some(TokenKind::Keyword(Keyword::Null)) => Node::new(NodeKind::Null),
            Some(TokenKind::Keyword(Keyword::True)) => bool_literal("true"),
            Some(TokenKind::Keyword(Keyword::False)) => bool_literal("false"),
            Some(TokenKind::Keyword(Keyword::Cast)) => return self.parse_cast(),
            Some(TokenKind::Keyword(Keyword::Case)) => return self.parse_case(),
            Some(TokenKind::LParen) => {
                return self.parenthesized(|p| {
                    if p.at_keyword(Keyword::Select) {
                        Ok(wrap(NodeKind::ScalarSubquery, p.parse_select()?))
                    } else {
                        p.parse_expr()
                    }
                })
            }
            Some(TokenKind::Ident(_)) => return self.parse_name_or_call(),
            _ => return Err(self.unexpected("an expression")),
        };
        self.advance();
        Ok(node)
    }

    fn parse_cast(&mut self) -> Result<Node, ParseError> {
        self.expect_keyword(Keyword::Cast)?;
        let (expr, ty) = self.parenthesized(|p| {
            let expr = p.parse_expr()?;
            // The target type is optional in some of the ad-hoc student queries
            // (`CAST(uniquecarrier)`); default to "varchar" in that case.
            let ty = if p.eat_keyword(Keyword::As) {
                p.parse_dotted_name()?.joined()
            } else {
                Cow::Borrowed("varchar")
            };
            Ok((expr, ty))
        })?;
        Ok(Node::from_parts(
            NodeKind::Cast,
            &[(Sym::TY, AttrValue::from(&*ty))],
            vec![expr],
        ))
    }

    /// Parses `CASE … END`; the caller has peeked the `CASE`.
    fn parse_case(&mut self) -> Result<Node, ParseError> {
        self.nested(|p| {
            p.advance();
            let mut arms = Vec::new();
            // simple form: CASE operand WHEN v THEN r ...
            let form = if p.at_keyword(Keyword::When) {
                "searched"
            } else {
                arms.push(p.parse_expr()?);
                "simple"
            };
            while p.eat_keyword(Keyword::When) {
                let cond = p.parse_expr()?;
                p.expect_keyword(Keyword::Then)?;
                let result = p.parse_expr()?;
                arms.push(Node::from_parts(NodeKind::WhenArm, &[], vec![cond, result]));
            }
            if p.eat_keyword(Keyword::Else) {
                arms.push(wrap(NodeKind::ElseArm, p.parse_expr()?));
            }
            p.expect_keyword(Keyword::End)?;
            Ok(Node::from_parts(
                NodeKind::CaseExpr,
                &[(Sym::FORM, spelled(form))],
                arms,
            ))
        })
    }

    fn parse_name_or_call(&mut self) -> Result<Node, ParseError> {
        let mut name = DottedName {
            qualifier: None,
            last: self.expect_ident("identifier")?,
        };

        // qualified column or dotted function name
        while self.at(&TokenKind::Dot) {
            match self.peek_at(1) {
                Some(&TokenKind::Ident(part)) => {
                    self.pos += 2;
                    name.push(part);
                }
                Some(TokenKind::Star) => {
                    // t.* projection
                    self.pos += 2;
                    return Ok(Node::from_parts(
                        NodeKind::Star,
                        &[(Sym::TABLE, AttrValue::from(&*name.joined()))],
                        Vec::new(),
                    ));
                }
                _ => break,
            }
        }

        if !self.at(&TokenKind::LParen) {
            // column reference
            return Ok(match &name.qualifier {
                None => Node::column(name.last),
                Some(table) => Node::qualified_column(table, name.last),
            });
        }

        // function call
        let aggregate = match name.qualifier {
            None => AGGREGATES
                .iter()
                .find(|agg| agg.eq_ignore_ascii_case(name.last)),
            Some(_) => None,
        };
        // The function name is modelled as a FuncName child (not an attribute) so that
        // changing only the function name yields a small string-typed leaf diff.
        let canonical = match aggregate {
            Some(agg) => spelled(agg),
            None => AttrValue::from(&*name.joined()),
        };
        let func_name = Node::from_parts(NodeKind::FuncName, &[(Sym::NAME, canonical)], Vec::new());
        let (children, distinct) = self.parenthesized(|p| {
            let mut children = vec![func_name];
            let mut distinct = false;
            if !p.at(&TokenKind::RParen) {
                distinct = aggregate.is_some() && p.eat_keyword(Keyword::Distinct);
                loop {
                    children.push(p.parse_expr()?);
                    if !p.eat_token(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            Ok((children, distinct))
        })?;
        let (kind, attrs): (_, &[(Sym, AttrValue)]) = match (aggregate, distinct) {
            (Some(_), true) => (NodeKind::AggCall, &[(Sym::DISTINCT, AttrValue::Bool(true))]),
            (Some(_), false) => (NodeKind::AggCall, &[]),
            (None, _) => (NodeKind::FuncCall, &[]),
        };
        Ok(Node::from_parts(kind, attrs, children))
    }
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

/// A node whose attributes are its `name`, then its `alias`, each when present.
fn aliased(
    kind: NodeKind,
    name: Option<AttrValue>,
    alias: Option<&str>,
    children: Vec<Node>,
) -> Node {
    let name = name.map(|name| (Sym::NAME, name));
    let alias = alias.map(|alias| (Sym::ALIAS, AttrValue::from(alias)));
    match (name, alias) {
        (None, None) => Node::from_parts(kind, &[], children),
        (Some(one), None) | (None, Some(one)) => Node::from_parts(kind, &[one], children),
        (Some(name), Some(alias)) => Node::from_parts(kind, &[name, alias], children),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Path;

    #[test]
    fn parses_listing2_olap_query() {
        let q = parse(
            "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 and Day = 3 GROUP BY DestState",
        )
        .unwrap();
        assert_eq!(q.kind(), NodeKind::Select);
        assert_eq!(q.arity(), 4);
        let agg = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(agg.kind(), NodeKind::AggCall);
        assert_eq!(agg.children()[0].kind(), NodeKind::FuncName);
        assert_eq!(agg.children()[0].attr_str("name"), Some("COUNT"));
        let and = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(and.attr_str("op"), Some("AND"));
    }

    #[test]
    fn parses_listing1_sdss_query() {
        let q = parse("SELECT * FROM SpecLineIndex WHERE specObjId = 0x400").unwrap();
        let pred = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(pred.attr_str("op"), Some("="));
        assert_eq!(pred.children()[1].kind(), NodeKind::HexExpr);
        assert_eq!(
            pred.children()[1].attr("value").unwrap().as_int(),
            Some(0x400)
        );
    }

    #[test]
    fn parses_listing6_top_and_udf() {
        let q = parse(
            "SELECT TOP 10 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) as d WHERE d.objID = g.objID",
        )
        .unwrap();
        // TOP becomes a trailing Limit node with style=top
        let last = q.children().last().unwrap();
        assert_eq!(last.kind(), NodeKind::Limit);
        assert_eq!(last.attr_str("style"), Some("top"));
        assert_eq!(last.children()[0].attr_num("value"), Some(10.0));
        // FROM has a table and a table function
        let from = q.get(&"1".parse::<Path>().unwrap()).unwrap();
        assert_eq!(from.arity(), 2);
        assert_eq!(from.children()[0].attr_str("alias"), Some("g"));
        assert_eq!(from.children()[1].kind(), NodeKind::TableFunc);
        assert_eq!(
            from.children()[1].attr_str("name"),
            Some("dbo.fGetNearbyObjEq")
        );
        // qualified columns
        let pred = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(pred.children()[0].attr_str("table"), Some("d"));
    }

    #[test]
    fn parses_listing7_subquery_in_from() {
        let q = parse("SELECT * FROM (SELECT a FROM T WHERE b > 10)").unwrap();
        let sub = q.get(&"1/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(sub.kind(), NodeKind::SubqueryRef);
        assert_eq!(sub.children()[0].kind(), NodeKind::Select);
    }

    #[test]
    fn parses_listing3_adhoc_case_and_floor() {
        let q = parse(
            "SELECT (CASE carrier WHEN 'AA' THEN 'AA' ELSE 'Other' END) AS carrier, FLOOR(distance/5) AS distance FROM ontime",
        )
        .unwrap();
        let case = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(case.kind(), NodeKind::CaseExpr);
        assert_eq!(case.attr_str("form"), Some("simple"));
        // operand + 1 when-arm + else
        assert_eq!(case.arity(), 3);
        let proj1 = q.get(&"0/1".parse::<Path>().unwrap()).unwrap();
        assert_eq!(proj1.attr_str("alias"), Some("distance"));
        assert_eq!(proj1.children()[0].kind(), NodeKind::FuncCall);
    }

    #[test]
    fn parses_listing2_having_and_sum() {
        let q = parse(
            "SELECT SUM(flights) FROM ontime WHERE canceled = 1 HAVING SUM(flights) > 149 and SUM(flights) < 1354",
        )
        .unwrap();
        let having = q
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::Having)
            .unwrap();
        assert_eq!(having.children()[0].attr_str("op"), Some("AND"));
    }

    #[test]
    fn parses_listing4_nested_subquery_with_params() {
        let q = parse(
            "SELECT spec_ts, sum(price) FROM (SELECT action, sum(customer) FROM t WHERE spec_ts > now and spec_ts < now + 3) WHERE cust = 'Alice' and country = 'China' GROUP BY spec_ts",
        )
        .unwrap();
        assert_eq!(q.arity(), 4);
        let inner = q.get(&"1/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(inner.kind(), NodeKind::Select);
        // the `now + 3` arithmetic lives inside the inner where clause
        let inner_where = inner
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::Where)
            .unwrap();
        assert!(inner_where.size() > 5);
    }

    #[test]
    fn parses_distinct_count_and_aliases() {
        let q = parse("SELECT COUNT(DISTINCT carrier) AS c FROM ontime").unwrap();
        let agg = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(agg.attr("distinct").and_then(|v| v.as_bool()), Some(true));
        let clause = q.get(&"0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(clause.attr_str("alias"), Some("c"));
    }

    #[test]
    fn parses_in_between_like_not() {
        let q = parse(
            "SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 5 AND 10 AND c LIKE 'x%' AND NOT d = 4 AND e NOT IN (7)",
        )
        .unwrap();
        let w = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        // conjunction tree contains all five operators somewhere
        let mut ops = Vec::new();
        w.visit(&mut |n| {
            if let Some(op) = n.attr_str("op") {
                ops.push(op.to_string());
            }
        });
        for needle in ["IN", "BETWEEN", "LIKE", "NOT", "NOT IN"] {
            assert!(
                ops.iter().any(|o| o == needle),
                "missing {needle} in {ops:?}"
            );
        }
    }

    #[test]
    fn parses_is_null_and_order_by() {
        let q = parse("SELECT a FROM t WHERE b IS NOT NULL ORDER BY a DESC, c").unwrap();
        let ob = q
            .children()
            .iter()
            .find(|c| c.kind() == NodeKind::OrderBy)
            .unwrap();
        assert_eq!(ob.arity(), 2);
        assert_eq!(ob.children()[0].attr_str("dir"), Some("desc"));
        assert_eq!(ob.children()[1].attr_str("dir"), Some("asc"));
    }

    #[test]
    fn parses_explicit_join() {
        let q = parse("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id").unwrap();
        let from = q.get(&"1".parse::<Path>().unwrap()).unwrap();
        assert_eq!(from.arity(), 1);
        let join = &from.children()[0];
        assert_eq!(join.kind(), NodeKind::Join);
        assert_eq!(join.attr_str("join_type"), Some("left"));
        assert_eq!(join.children()[0].kind(), NodeKind::Join);
    }

    #[test]
    fn parses_negative_numbers_and_arithmetic() {
        let q = parse("SELECT a + b * 2, -5, FLOOR(distance / 5) FROM t").unwrap();
        let neg = q.get(&"0/1/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(neg.attr("value").unwrap().as_int(), Some(-5));
        let sum = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(sum.attr_str("op"), Some("+"));
        // precedence: the right operand of + is the * expression
        assert_eq!(sum.children()[1].attr_str("op"), Some("*"));
    }

    #[test]
    fn parses_scalar_subquery_in_predicate() {
        let q = parse("SELECT a FROM t WHERE b > (SELECT MAX(b) FROM t)").unwrap();
        let pred = q.get(&"2/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(pred.children()[1].kind(), NodeKind::ScalarSubquery);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT a FROM t GROUP").is_err());
        assert!(parse("SELECT a FROM t) x").is_err());
        assert!(parse("FROM t").is_err());
    }

    #[test]
    fn parses_cast_without_target_type() {
        // Listing 3: SELECT CAST(uniquecarrier) AS uniquecarrier FROM ontime
        let q = parse("SELECT CAST(uniquecarrier) AS uniquecarrier FROM ontime").unwrap();
        let cast = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(cast.kind(), NodeKind::Cast);
        assert_eq!(cast.attr_str("ty"), Some("varchar"));
    }

    /// Parses on a thread with a 2 MiB stack, the default of a spawned worker thread.
    fn parse_on_small_stack(sql: String) -> Result<Node, ParseError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&sql))
            .expect("spawn a parser thread")
            .join()
            .expect("parsing never panics")
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let parens = |n: usize| format!("SELECT {}a{} FROM t", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("SELECT a FROM t WHERE {}x = 1", "NOT ".repeat(n));
        let minus = |n: usize| format!("SELECT {}5 FROM t", "- ".repeat(n));
        for (deep, first_offset, step) in [
            (parens as fn(usize) -> String, 7, 1),
            (nots, 22, 4),
            (minus, 7, 2),
        ] {
            let err = parse_on_small_stack(deep(100_000)).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::NestingTooDeep);
            assert_eq!(err.offset, first_offset + step * MAX_NESTING, "{err}");
            assert!(parse_on_small_stack(deep(MAX_NESTING + 1)).is_err());
            assert!(parse_on_small_stack(deep(MAX_NESTING)).is_ok());
        }
        // Every nesting construct counts: subqueries, argument lists, CASE and CAST.
        let subqueries = format!(
            "SELECT a FROM {}t{}",
            "(SELECT a FROM ".repeat(200),
            ")".repeat(200)
        );
        let calls = format!("SELECT {}a{} FROM t", "f(".repeat(200), ")".repeat(200));
        let cases = format!(
            "SELECT {}a{} FROM t",
            "CASE WHEN ".repeat(200),
            " THEN 1 END".repeat(200)
        );
        let casts = format!("SELECT {}a{} FROM t", "CAST(".repeat(200), ")".repeat(200));
        let members = format!(
            "SELECT a FROM t WHERE {}1{}",
            "x IN (SELECT a FROM t WHERE ".repeat(200),
            ")".repeat(200)
        );
        for deep in [subqueries, calls, cases, casts, members] {
            let err = parse_on_small_stack(deep).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::NestingTooDeep);
        }
    }

    #[test]
    fn star_with_table_qualifier() {
        let q = parse("SELECT g.* FROM Galaxy g").unwrap();
        let star = q.get(&"0/0/0".parse::<Path>().unwrap()).unwrap();
        assert_eq!(star.kind(), NodeKind::Star);
        assert_eq!(star.attr_str("table"), Some("g"));
    }
}
