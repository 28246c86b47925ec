//! # pi-sql — SQL front-end for Precision Interfaces
//!
//! The paper's prototype fed query logs through a third-party parsing service
//! (sqlparser.com) that returned XML parse trees.  This crate replaces that dependency with a
//! self-contained lexer, recursive-descent parser and SQL renderer that target the
//! [`pi_ast`] tree model directly.
//!
//! The supported dialect covers every query shape that appears in the paper's three logs:
//!
//! * SDSS sky-server queries (Listing 1/6): hex object ids, `TOP n`, table-valued UDFs such as
//!   `dbo.fGetNearbyObjEq(...)`, qualified columns, comma joins;
//! * the synthetic OLAP log (Listing 2): aggregates, `GROUP BY`, conjunctive predicates;
//! * the ad-hoc student log (Listing 3): `CAST`, `CASE … WHEN`, `FLOOR`, `HAVING`;
//! * the example logs of §7.1 (Listings 4, 5, 7): nested subqueries in `FROM`, string and
//!   numeric parameter changes.
//!
//! ```
//! use pi_sql::{parse, render};
//!
//! let q = parse("SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState")
//!     .unwrap();
//! let sql = render(&q);
//! assert!(sql.contains("GROUP BY DestState"));
//! // Round-trip: rendering and re-parsing yields an identical tree.
//! assert_eq!(parse(&sql).unwrap(), q);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod lexer;
mod parser;
mod render;

pub use error::{ParseError, ParseErrorKind};
pub use lexer::{Keyword, Lexer, Op, Token, TokenKind};
pub use parser::{parse, Parser};
pub use render::{render, render_compact};

use pi_ast::{Dialect, Frontend, FrontendError, Node};

/// Result alias for parser entry points.
pub type Result<T, E = ParseError> = std::result::Result<T, E>;

/// The SQL front-end, as a [`Frontend`] implementation ([`Dialect::SQL`]).
///
/// This is how the rest of the workspace reaches this crate: sessions, pipelines, UI
/// compilers and workload generators all go through the trait (or a
/// [`Frontends`](pi_ast::Frontends) registry holding it) rather than calling
/// [`parse`]/[`render`] directly, so a second front-end slots in without touching them.
///
/// ```
/// use pi_ast::Frontend;
/// use pi_sql::SqlFrontend;
///
/// let q = SqlFrontend.parse_one("SELECT a FROM t WHERE x = 1").unwrap();
/// assert_eq!(SqlFrontend.parse_one(&SqlFrontend.render(&q)).unwrap(), q);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SqlFrontend;

impl Frontend for SqlFrontend {
    fn dialect(&self) -> Dialect {
        Dialect::SQL
    }

    fn parse_statements_lossy(
        &self,
        text: &str,
        out: &mut Vec<Node>,
        errors: &mut pi_ast::ErrorSample,
    ) -> usize {
        // Formats the failure message only when the sample will retain it; the steady
        // state on a garbage-heavy trace is a counter bump per bad line.
        let mut skipped = 0;
        for result in parser::statements(text).map(parse) {
            match result {
                Ok(node) => out.push(node),
                Err(e) => {
                    skipped += 1;
                    errors.offer_with(|| FrontendError::new(Dialect::SQL, e.to_string()));
                }
            }
        }
        skipped
    }

    fn parse_one(&self, text: &str) -> std::result::Result<Node, FrontendError> {
        // The single-statement parser lexes the whole text, so `;` inside a string
        // literal stays part of the literal — unlike parse_statements_lossy, whose
        // statement splitter is a lexical `;` split.
        parse(text).map_err(|e| FrontendError::new(Dialect::SQL, e.to_string()))
    }

    fn render(&self, node: &Node) -> String {
        render(node)
    }

    fn render_compact(&self, node: &Node) -> String {
        render_compact(node)
    }
}

#[cfg(test)]
mod frontend_tests {
    use super::*;

    /// Parses a fragment through the trait's log route, returning the trees, the skip
    /// count and the error sample.
    fn lossy(text: &str) -> (Vec<Node>, usize, pi_ast::ErrorSample) {
        let mut all = Vec::new();
        let mut errors = pi_ast::ErrorSample::new(8);
        let skipped = SqlFrontend.parse_statements_lossy(text, &mut all, &mut errors);
        (all, skipped, errors)
    }

    #[test]
    fn frontend_routes_to_the_crate_entry_points() {
        assert_eq!(SqlFrontend.dialect(), Dialect::SQL);
        let (all, skipped, _) = lossy("SELECT a FROM t WHERE x = 1; SELECT a FROM t WHERE x = 2;");
        assert_eq!((all.len(), skipped), (2, 0));
        assert_eq!(all[0], parse("SELECT a FROM t WHERE x = 1").unwrap());
        assert_eq!(SqlFrontend.render(&all[0]), render(&all[0]));
        assert_eq!(SqlFrontend.render_compact(&all[0]), render_compact(&all[0]));
    }

    #[test]
    fn parse_one_keeps_semicolons_inside_string_literals() {
        // Regression: parse_one once split on `;` first, so a literal containing `;`
        // became unparseable through the trait even though pi_sql::parse accepted it.
        let q = SqlFrontend
            .parse_one("SELECT a FROM t WHERE name = 'a;b'")
            .unwrap();
        assert_eq!(q, parse("SELECT a FROM t WHERE name = 'a;b'").unwrap());
        assert_eq!(SqlFrontend.parse_one(&SqlFrontend.render(&q)).unwrap(), q);
    }

    #[test]
    fn statements_fail_individually_with_the_sql_dialect_tag() {
        let (all, skipped, errors) = lossy("SELECT a FROM t; NOT SQL; SELECT b FROM t;");
        assert_eq!(
            all,
            [
                parse("SELECT a FROM t").unwrap(),
                parse("SELECT b FROM t").unwrap()
            ]
        );
        assert_eq!((skipped, errors.seen()), (1, 1));
        assert_eq!(errors.entries().next().unwrap().dialect, Dialect::SQL);
    }
}
