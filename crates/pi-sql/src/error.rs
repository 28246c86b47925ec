//! Parse errors with source positions.

use std::fmt;

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A character that cannot start any token.
    UnexpectedChar(char),
    /// A string literal that was never closed.
    UnterminatedString,
    /// A numeric literal that could not be interpreted.
    BadNumber(String),
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// What the parser found.
        found: String,
        /// What the parser expected, human readable.
        expected: String,
    },
    /// Input ended in the middle of a statement.
    UnexpectedEnd {
        /// What the parser expected next.
        expected: String,
    },
    /// Extra input after a complete statement.
    TrailingInput(String),
    /// The statement nests deeper than [`pi_ast::MAX_NESTING`] levels.
    NestingTooDeep,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ParseErrorKind::UnterminatedString => write!(f, "unterminated string literal"),
            ParseErrorKind::BadNumber(s) => write!(f, "malformed numeric literal `{s}`"),
            ParseErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "unexpected token `{found}`, expected {expected}")
            }
            ParseErrorKind::UnexpectedEnd { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseErrorKind::TrailingInput(s) => write!(f, "trailing input starting at `{s}`"),
            ParseErrorKind::NestingTooDeep => {
                write!(f, "nesting deeper than {} levels", pi_ast::MAX_NESTING)
            }
        }
    }
}

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The kind of error.
    pub kind: ParseErrorKind,
    /// Byte offset into the original SQL text.
    pub offset: usize,
}

impl ParseError {
    /// Creates a new error at the given offset.
    pub fn new(kind: ParseErrorKind, offset: usize) -> Self {
        ParseError { kind, offset }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_a_useful_message() {
        let e = ParseError::new(
            ParseErrorKind::UnexpectedToken {
                found: ")".into(),
                expected: "an expression".into(),
            },
            12,
        );
        let msg = e.to_string();
        assert!(msg.contains("unexpected token"));
        assert!(msg.contains("byte 12"));
    }

    #[test]
    fn all_kinds_have_distinct_messages() {
        let kinds = [
            ParseErrorKind::UnexpectedChar('!'),
            ParseErrorKind::UnterminatedString,
            ParseErrorKind::BadNumber("1.2.3".into()),
            ParseErrorKind::UnexpectedToken {
                found: "FROM".into(),
                expected: "identifier".into(),
            },
            ParseErrorKind::UnexpectedEnd {
                expected: "FROM".into(),
            },
            ParseErrorKind::TrailingInput("GROUP".into()),
            ParseErrorKind::NestingTooDeep,
        ];
        let msgs: std::collections::HashSet<String> = kinds.iter().map(|k| k.to_string()).collect();
        assert_eq!(msgs.len(), kinds.len());
    }
}
