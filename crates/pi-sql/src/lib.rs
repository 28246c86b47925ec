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
pub use parser::{parse, parse_log, Parser};
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

    fn parse(&self, text: &str) -> std::result::Result<Vec<Node>, FrontendError> {
        parse_log(text)
            .into_iter()
            .map(|r| r.map_err(|e| FrontendError::new(Dialect::SQL, e.to_string())))
            .collect()
    }

    fn parse_statements(&self, text: &str) -> Vec<std::result::Result<Node, FrontendError>> {
        parse_log(text)
            .into_iter()
            .map(|r| r.map_err(|e| FrontendError::new(Dialect::SQL, e.to_string())))
            .collect()
    }

    fn parse_statements_lossy(
        &self,
        text: &str,
        out: &mut Vec<Node>,
        errors: &mut pi_ast::ErrorSample,
    ) -> usize {
        // Unlike the default (which routes through `parse_statements` and formats a
        // `FrontendError` per failure), this formats the message only when the sample will
        // actually retain it — on a garbage-heavy trace the steady state is a counter bump
        // per bad line.
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
        // literal stays part of the literal — unlike parse/parse_statements, whose
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

    #[test]
    fn frontend_routes_to_the_crate_entry_points() {
        assert_eq!(SqlFrontend.dialect(), Dialect::SQL);
        let sql = "SELECT a FROM t WHERE x = 1; SELECT a FROM t WHERE x = 2;";
        let all = SqlFrontend.parse(sql).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], parse("SELECT a FROM t WHERE x = 1").unwrap());
        assert_eq!(SqlFrontend.render(&all[0]), render(&all[0]));
        assert_eq!(SqlFrontend.render_compact(&all[0]), render_compact(&all[0]));
    }

    #[test]
    fn parse_one_keeps_semicolons_inside_string_literals() {
        // Regression: the default trait parse_one routed through the `;`-splitting
        // parse_log, so a literal containing `;` became unparseable through the trait
        // even though pi_sql::parse accepted it.
        let q = SqlFrontend
            .parse_one("SELECT a FROM t WHERE name = 'a;b'")
            .unwrap();
        assert_eq!(q, parse("SELECT a FROM t WHERE name = 'a;b'").unwrap());
        assert_eq!(SqlFrontend.parse_one(&SqlFrontend.render(&q)).unwrap(), q);
    }

    #[test]
    fn parse_is_all_or_nothing_but_statements_are_individual() {
        let sql = "SELECT a FROM t; NOT SQL; SELECT b FROM t;";
        assert!(SqlFrontend.parse(sql).is_err());
        let results = SqlFrontend.parse_statements(sql);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok() && results[1].is_err() && results[2].is_ok());
        let err = results[1].clone().unwrap_err();
        assert_eq!(err.dialect, Dialect::SQL);
    }
}
