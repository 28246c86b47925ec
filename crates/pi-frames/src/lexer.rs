//! Tokenizer for the method-chain dataframe dialect.
//!
//! The surface syntax is a small python-ish expression language: identifiers, numeric /
//! hex / string literals, method chains (`t.filter(...)`), comparison operators spelled
//! `==` / `!=`, and `&` / `|` / `~` for the boolean connectives.
//!
//! Tokens borrow from the source text: an identifier is a `&str` slice of it, a string
//! literal is borrowed unless it holds a backslash escape, and operators and punctuation
//! are enum variants.  So tokenizing a statement allocates its token buffer and nothing
//! else, unless a literal holds an escape or the input is malformed.

use crate::error::ParseError;
use std::borrow::Cow;
use std::fmt;

/// One token of frames source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// What the token is.
    pub kind: TokenKind<'a>,
    /// Byte offset of the token's first character (for diagnostics).
    pub offset: usize,
}

/// An operator token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&`
    And,
    /// `|`
    Or,
    /// `~`
    Not,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
}

impl Op {
    /// The operator's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::EqEq => "==",
            Op::NotEq => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::And => "&",
            Op::Or => "|",
            Op::Not => "~",
            Op::Plus => "+",
            Op::Minus => "-",
            Op::Slash => "/",
            Op::Percent => "%",
        }
    }
}

/// The kinds of token the frames lexer produces; text payloads borrow from the source.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// An identifier (table, column, method or function name).
    Ident(&'a str),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A hexadecimal literal (`0x400`).
    Hex(i64),
    /// A string literal (single or double quoted, backslash escapes resolved).
    Str(Cow<'a, str>),
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*` (projection star or multiplication, decided by the parser).
    Star,
    /// `;`
    Semicolon,
    /// An operator: `==`, `!=`, `<=`, `>=`, `<`, `>`, `&`, `|`, `~`, `+`, `-`, `/`, `%`.
    Op(Op),
}

impl TokenKind<'_> {
    /// A short description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(i) => format!("number `{i}`"),
            TokenKind::Float(f) => format!("number `{f}`"),
            TokenKind::Hex(h) => format!("number `0x{h:x}`"),
            TokenKind::Str(s) => format!("string `'{s}'`"),
            TokenKind::Dot => "`.`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::Star => "`*`".to_string(),
            TokenKind::Semicolon => "`;`".to_string(),
            TokenKind::Op(op) => format!("`{}`", op.as_str()),
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Tokenizes a fragment of frames source text.
pub fn tokenize(text: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = text.as_bytes();
    // Logged statements average about four bytes a token, so one buffer of this size holds
    // most statements without growing; the cap keeps a long literal from reserving far
    // more than its text.
    let mut tokens = Vec::with_capacity((text.len() / 3 + 1).min(1024));
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let offset = i;
        let (kind, width) = match c {
            c if c.is_whitespace() => {
                i += 1;
                continue;
            }
            '.' => (TokenKind::Dot, 1),
            ',' => (TokenKind::Comma, 1),
            '(' => (TokenKind::LParen, 1),
            ')' => (TokenKind::RParen, 1),
            '*' => (TokenKind::Star, 1),
            ';' => (TokenKind::Semicolon, 1),
            '=' | '!' | '<' | '>' => {
                let op = match (c, bytes.get(i + 1)) {
                    ('=', Some(b'=')) => (Op::EqEq, 2),
                    ('!', Some(b'=')) => (Op::NotEq, 2),
                    ('<', Some(b'=')) => (Op::Le, 2),
                    ('>', Some(b'=')) => (Op::Ge, 2),
                    ('<', _) => (Op::Lt, 1),
                    ('>', _) => (Op::Gt, 1),
                    _ => {
                        return Err(ParseError::new(
                            format!("unexpected character `{c}` (comparisons are `==`/`!=`)"),
                            offset,
                        ))
                    }
                };
                (TokenKind::Op(op.0), op.1)
            }
            '&' => (TokenKind::Op(Op::And), 1),
            '|' => (TokenKind::Op(Op::Or), 1),
            '~' => (TokenKind::Op(Op::Not), 1),
            '+' => (TokenKind::Op(Op::Plus), 1),
            '-' => (TokenKind::Op(Op::Minus), 1),
            '/' => (TokenKind::Op(Op::Slash), 1),
            '%' => (TokenKind::Op(Op::Percent), 1),
            '\'' | '"' => {
                let (value, end) = lex_string(text, offset)?;
                (TokenKind::Str(value), end - offset)
            }
            '0' if matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) => {
                let start = i + 2;
                let end = start
                    + bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_hexdigit())
                        .count();
                if end == start {
                    return Err(ParseError::new("empty hex literal", offset));
                }
                let value = i64::from_str_radix(&text[start..end], 16)
                    .map_err(|e| ParseError::new(format!("bad hex literal: {e}"), offset))?;
                (TokenKind::Hex(value), end - offset)
            }
            c if c.is_ascii_digit() => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() {
                    let c = bytes[end];
                    if c.is_ascii_digit() {
                        end += 1;
                    } else if c == b'.'
                        && !is_float
                        && bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
                    {
                        // A dot is only part of the number when a digit follows — `1.filter`
                        // would otherwise swallow the method dot.
                        is_float = true;
                        end += 1;
                    } else {
                        break;
                    }
                }
                let slice = &text[i..end];
                let kind = if is_float {
                    TokenKind::Float(slice.parse().map_err(|e| {
                        ParseError::new(format!("bad float literal `{slice}`: {e}"), offset)
                    })?)
                } else {
                    TokenKind::Int(slice.parse().map_err(|e| {
                        ParseError::new(format!("bad integer literal `{slice}`: {e}"), offset)
                    })?)
                };
                (kind, end - offset)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let len = bytes[i..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                (TokenKind::Ident(&text[i..i + len]), len)
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    offset,
                ))
            }
        };
        tokens.push(Token { kind, offset });
        i += width;
    }
    Ok(tokens)
}

/// Lexes the string literal whose opening quote is at `start`: its value, and the offset
/// just past its closing quote.  The value borrows from `text` unless it holds an escape.
fn lex_string(text: &str, start: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let bytes = text.as_bytes();
    let quote = bytes[start];
    let body = start + 1;
    let mut unescaped: Option<String> = None;
    let mut segment = body;
    // The scan is byte-wise: quotes and backslashes are ASCII and never occur inside a
    // multibyte UTF-8 sequence, so every slice boundary below is a char boundary.
    loop {
        let Some(len) = bytes[segment..]
            .iter()
            .position(|&b| b == quote || b == b'\\')
        else {
            return Err(ParseError::new("unterminated string literal", start));
        };
        let stop = segment + len;
        if bytes[stop] == quote {
            let value = match unescaped {
                None => Cow::Borrowed(&text[body..stop]),
                Some(mut value) => {
                    value.push_str(&text[segment..stop]);
                    Cow::Owned(value)
                }
            };
            return Ok((value, stop + 1));
        }
        // A backslash escapes the character after it: `\n` and `\t` are control
        // characters, anything else (`\'`, `\"`, `\\`, …) stands for itself.
        let escaped = text[stop + 1..]
            .chars()
            .next()
            .ok_or_else(|| ParseError::new("unterminated string escape", stop))?;
        let value = unescaped.get_or_insert_with(String::new);
        value.push_str(&text[segment..stop]);
        value.push(match escaped {
            'n' => '\n',
            't' => '\t',
            other => other,
        });
        segment = stop + 1 + escaped.len_utf8();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<TokenKind<'_>> {
        tokenize(text)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_a_method_chain() {
        let toks = kinds("t.filter(x == 1)");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("t"),
                TokenKind::Dot,
                TokenKind::Ident("filter"),
                TokenKind::LParen,
                TokenKind::Ident("x"),
                TokenKind::Op(Op::EqEq),
                TokenKind::Int(1),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn tokenizes_literals() {
        assert_eq!(
            kinds("3.5 0x400 'it\\'s' \"two\" -7"),
            vec![
                TokenKind::Float(3.5),
                TokenKind::Hex(0x400),
                TokenKind::Str("it's".into()),
                TokenKind::Str("two".into()),
                TokenKind::Op(Op::Minus),
                TokenKind::Int(7),
            ]
        );
    }

    #[test]
    fn a_trailing_method_dot_is_not_swallowed_by_an_int() {
        // `head(1)` after an int literal: the dot belongs to the chain, not the number.
        assert_eq!(
            kinds("1.head"),
            vec![TokenKind::Int(1), TokenKind::Dot, TokenKind::Ident("head"),]
        );
    }

    #[test]
    fn comparison_operators_are_two_chars() {
        assert_eq!(
            kinds("<= >= == != < >"),
            vec![
                TokenKind::Op(Op::Le),
                TokenKind::Op(Op::Ge),
                TokenKind::Op(Op::EqEq),
                TokenKind::Op(Op::NotEq),
                TokenKind::Op(Op::Lt),
                TokenKind::Op(Op::Gt),
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("t.filter(x = 1)").is_err()); // `=` alone is not an operator
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("0x").is_err());
        assert!(tokenize("a ? b").is_err());
    }

    #[test]
    fn multibyte_input_errors_without_panicking() {
        // Regression: a multibyte character directly after a comparison operator used to
        // slice mid-char and panic — hostile log lines must hit the skip path, not wedge
        // the session.
        assert!(tokenize("t.filter(x<é)").is_err());
        assert!(tokenize("t.filter(x == ☃)").is_err());
        assert!(tokenize("é").is_err());
    }

    #[test]
    fn string_literals_carry_arbitrary_utf8() {
        // Regression: bytes were cast to chars one at a time, mangling `café` into `cafÃ`
        // and silently breaking cross-dialect tree identity.
        assert_eq!(
            kinds("'café' \"снег ☃\" '\\é'"),
            vec![
                TokenKind::Str("café".into()),
                TokenKind::Str("снег ☃".into()),
                TokenKind::Str("é".into()),
            ]
        );
    }
}
