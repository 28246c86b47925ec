//! # pi-frames — a method-chain dataframe front-end for Precision Interfaces
//!
//! The paper's tree model is language-agnostic, and "any other front-end (SPARQL, a
//! dataframe API, …)" targeting it is a stated design goal.  This crate is that second
//! front-end: a small pandas-style method-chain dialect
//!
//! ```text
//! ontime.filter(Month == 9 & Day == 3).groupby(DestState).agg(COUNT(Delay))
//! ```
//!
//! with its own lexer, recursive-descent parser and renderer — all targeting the same
//! [`pi_ast`] trees as `pi-sql`.  The load-bearing property is **shape compatibility**:
//! the chain above parses into a tree *identical* to
//! `SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY
//! DestState`, so a mixed SQL + frames log diffs cleanly and mines into one shared
//! interface whose widgets show each option in the dialect its query arrived in.
//!
//! Supported methods: `filter`, `select`, `groupby`, `agg`, `having`, `sort` (with
//! `desc(col)`), `limit`, `head` (TOP-style), `distinct`; pseudo-functions `alias`,
//! `cast`, `isnull`/`notnull`, `isin`/`notin`, `between`, `like`, and `AGG_DISTINCT`
//! spellings for `COUNT(DISTINCT …)`.  Method order is surface syntax only — clauses are
//! assembled in the canonical order both parsers share.
//!
//! ```
//! use pi_ast::Frontend;
//! use pi_frames::FramesFrontend;
//!
//! let q = FramesFrontend
//!     .parse_one("ontime.filter(Month == 9).groupby(DestState).agg(COUNT(Delay))")
//!     .unwrap();
//! let text = FramesFrontend.render(&q);
//! assert_eq!(FramesFrontend.parse_one(&text).unwrap(), q);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod lexer;
mod parser;
mod render;

pub use error::ParseError;
pub use lexer::{tokenize, Op, Token, TokenKind};
pub use parser::{parse, Parser};
pub use render::{render, render_compact};

use pi_ast::{Dialect, Frontend, FrontendError, Node};

/// Result alias for parser entry points.
pub type Result<T, E = ParseError> = std::result::Result<T, E>;

/// The frames front-end, as a [`Frontend`] implementation ([`Dialect::FRAMES`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FramesFrontend;

impl Frontend for FramesFrontend {
    fn dialect(&self) -> Dialect {
        Dialect::FRAMES
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
                    errors.offer_with(|| FrontendError::new(Dialect::FRAMES, e.to_string()));
                }
            }
        }
        skipped
    }

    fn parse_one(&self, text: &str) -> std::result::Result<Node, FrontendError> {
        // The single-statement parser lexes the whole text, so `;` inside a string
        // literal stays part of the literal — unlike parse_statements_lossy, whose
        // statement splitter is a lexical `;` split.
        parse(text).map_err(|e| FrontendError::new(Dialect::FRAMES, e.to_string()))
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
        let skipped = FramesFrontend.parse_statements_lossy(text, &mut all, &mut errors);
        (all, skipped, errors)
    }

    #[test]
    fn frontend_routes_to_the_crate_entry_points() {
        assert_eq!(FramesFrontend.dialect(), Dialect::FRAMES);
        let (all, skipped, _) = lossy("t.filter(x == 1); t.filter(x == 2);");
        assert_eq!((all.len(), skipped), (2, 0));
        assert_eq!(all[0], parse("t.filter(x == 1)").unwrap());
        assert_eq!(FramesFrontend.render(&all[0]), render(&all[0]));
    }

    #[test]
    fn parse_one_keeps_semicolons_inside_string_literals() {
        let q = FramesFrontend.parse_one("t.filter(name == 'a;b')").unwrap();
        assert_eq!(q, parse("t.filter(name == 'a;b')").unwrap());
        assert_eq!(
            FramesFrontend
                .parse_one(&FramesFrontend.render(&q))
                .unwrap(),
            q
        );
    }

    #[test]
    fn statements_fail_individually_with_the_frames_dialect_tag() {
        let (all, skipped, errors) = lossy("t.filter(x == 1); ???; t");
        assert_eq!(
            all,
            [parse("t.filter(x == 1)").unwrap(), parse("t").unwrap()]
        );
        assert_eq!((skipped, errors.seen()), (1, 1));
        assert_eq!(errors.entries().next().unwrap().dialect, Dialect::FRAMES);
    }
}
