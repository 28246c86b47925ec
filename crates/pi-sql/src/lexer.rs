//! SQL tokenizer.
//!
//! A small hand-rolled lexer that understands the token shapes present in the SDSS, OLAP and
//! ad-hoc logs: identifiers (optionally quoted with `"` or `[]`), keywords, string literals in
//! single quotes, integer / float / hexadecimal numbers, and the usual punctuation and
//! comparison operators.  Comments (`-- …` and `/* … */`) are skipped.
//!
//! Tokens borrow from the source text: an identifier is a `&str` slice of it, a string
//! literal is borrowed unless it holds a doubled quote, and operators and punctuation are
//! enum variants.  Keywords are recognised case-insensitively in a stack buffer.  So
//! tokenizing a statement allocates its token buffer and nothing else, unless a literal
//! holds an escape or the input is malformed.
//!
//! The whole statement is tokenized before the parser starts, so a lexical error anywhere
//! in a statement wins over an earlier syntax error (`SELECT FROM t ?` reports the `?`).

use crate::error::{ParseError, ParseErrorKind};
use std::borrow::Cow;

/// Declares the keyword enum, its spellings, and the case-insensitive lookup.
macro_rules! keywords {
    ($($variant:ident = $text:literal,)*) => {
        /// SQL keywords recognised by the parser.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($variant,)*
        }

        impl Keyword {
            /// Looks up a keyword from an identifier, case-insensitively and without
            /// allocating.
            pub fn from_ident(s: &str) -> Option<Keyword> {
                let mut upper = [0u8; KEYWORD_MAX_LEN];
                let upper = upper.get_mut(..s.len())?;
                for (dst, src) in upper.iter_mut().zip(s.bytes()) {
                    *dst = src.to_ascii_uppercase();
                }
                match std::str::from_utf8(upper) {
                    $(Ok($text) => Some(Keyword::$variant),)*
                    _ => None,
                }
            }

            /// The canonical upper-case spelling of the keyword.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text,)*
                }
            }
        }
    };
}

/// The longest keyword spelling (`DISTINCT`, `BETWEEN`).
const KEYWORD_MAX_LEN: usize = 8;

keywords! {
    Select = "SELECT",
    Distinct = "DISTINCT",
    Top = "TOP",
    From = "FROM",
    Where = "WHERE",
    Group = "GROUP",
    By = "BY",
    Having = "HAVING",
    Order = "ORDER",
    Limit = "LIMIT",
    Asc = "ASC",
    Desc = "DESC",
    As = "AS",
    And = "AND",
    Or = "OR",
    Not = "NOT",
    In = "IN",
    Between = "BETWEEN",
    Like = "LIKE",
    Is = "IS",
    Null = "NULL",
    True = "TRUE",
    False = "FALSE",
    Case = "CASE",
    When = "WHEN",
    Then = "THEN",
    Else = "ELSE",
    End = "END",
    Cast = "CAST",
    Join = "JOIN",
    Inner = "INNER",
    Left = "LEFT",
    Right = "RIGHT",
    Outer = "OUTER",
    On = "ON",
    Union = "UNION",
    All = "ALL",
}

/// An operator token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `=`
    Eq,
    /// `<>`
    LtGt,
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||`
    Concat,
}

impl Op {
    /// The operator's spelling, which is also its `op` attribute in the tree.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::LtGt => "<>",
            Op::NotEq => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Plus => "+",
            Op::Minus => "-",
            Op::Slash => "/",
            Op::Percent => "%",
            Op::Concat => "||",
        }
    }
}

/// The kind (and payload) of a token; text payloads borrow from the source.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// A recognised SQL keyword.
    Keyword(Keyword),
    /// An identifier (table, column, function name); quotes or brackets stripped.
    Ident(&'a str),
    /// A single-quoted string literal (quotes stripped, `''` unescaped).
    String(Cow<'a, str>),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A hexadecimal literal, e.g. `0x400`.
    Hex(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// An operator: `=`, `<>`, `!=`, `<`, `<=`, `>`, `>=`, `+`, `-`, `/`, `%`, `||`.
    Op(Op),
}

impl TokenKind<'_> {
    /// A compact rendering used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Keyword(k) => k.as_str().to_string(),
            TokenKind::Ident(s) => s.to_string(),
            TokenKind::String(s) => format!("'{s}'"),
            TokenKind::Int(i) => i.to_string(),
            TokenKind::Float(f) => f.to_string(),
            TokenKind::Hex(h) => format!("0x{h:x}"),
            TokenKind::LParen => "(".into(),
            TokenKind::RParen => ")".into(),
            TokenKind::Comma => ",".into(),
            TokenKind::Dot => ".".into(),
            TokenKind::Semicolon => ";".into(),
            TokenKind::Star => "*".into(),
            TokenKind::Op(o) => o.as_str().into(),
        }
    }
}

/// A token together with its byte offset in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character of the token.
    pub offset: usize,
}

/// The tokenizer.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over the given SQL text.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenizes the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>, ParseError> {
        // Logged statements average about four bytes a token, so one buffer of this size
        // holds most statements without growing; the cap keeps a long literal from
        // reserving far more than its text.
        let mut out = Vec::with_capacity((self.src.len() / 3 + 1).min(1024));
        while let Some(tok) = self.next_token()? {
            out.push(tok);
        }
        Ok(out)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek_at(1) == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    self.pos += 2;
                    while self.pos < self.bytes.len() {
                        if self.peek() == Some(b'*') && self.peek_at(1) == Some(b'/') {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.skip_trivia();
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(None);
        };
        let next = self.peek_at(1);
        // Single-byte tokens and operators: (kind, width).
        let (kind, width) = match b {
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b',' => (TokenKind::Comma, 1),
            b';' => (TokenKind::Semicolon, 1),
            b'.' if !next.is_some_and(|c| c.is_ascii_digit()) => (TokenKind::Dot, 1),
            b'*' => (TokenKind::Star, 1),
            b'=' => (TokenKind::Op(Op::Eq), 1),
            b'<' => match next {
                Some(b'=') => (TokenKind::Op(Op::Le), 2),
                Some(b'>') => (TokenKind::Op(Op::LtGt), 2),
                _ => (TokenKind::Op(Op::Lt), 1),
            },
            b'>' if next == Some(b'=') => (TokenKind::Op(Op::Ge), 2),
            b'>' => (TokenKind::Op(Op::Gt), 1),
            b'!' if next == Some(b'=') => (TokenKind::Op(Op::NotEq), 2),
            b'|' if next == Some(b'|') => (TokenKind::Op(Op::Concat), 2),
            b'+' => (TokenKind::Op(Op::Plus), 1),
            b'-' => (TokenKind::Op(Op::Minus), 1),
            b'/' => (TokenKind::Op(Op::Slash), 1),
            b'%' => (TokenKind::Op(Op::Percent), 1),
            b'\'' => (self.lex_string(start)?, 0),
            b'"' | b'[' => (self.lex_quoted_ident(start)?, 0),
            b'0'..=b'9' | b'.' => (self.lex_number(start)?, 0),
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => (self.lex_ident(start), 0),
            other => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedChar(other as char),
                    start,
                ))
            }
        };
        self.pos += width;
        Ok(Some(Token {
            kind,
            offset: start,
        }))
    }

    fn lex_ident(&mut self, start: usize) -> TokenKind<'a> {
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        match Keyword::from_ident(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text),
        }
    }

    fn lex_quoted_ident(&mut self, start: usize) -> Result<TokenKind<'a>, ParseError> {
        let close = if self.bytes[start] == b'[' {
            b']'
        } else {
            b'"'
        };
        let ident_start = start + 1;
        match self.bytes[ident_start..].iter().position(|&b| b == close) {
            Some(len) => {
                self.pos = ident_start + len + 1;
                Ok(TokenKind::Ident(&self.src[ident_start..ident_start + len]))
            }
            None => Err(ParseError::new(ParseErrorKind::UnterminatedString, start)),
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<TokenKind<'a>, ParseError> {
        // The scan is byte-wise and the quote byte 0x27 never occurs inside a multibyte
        // UTF-8 sequence, so every slice boundary below is a char boundary.
        let body = start + 1;
        let mut unescaped: Option<String> = None;
        let mut segment = body;
        loop {
            let Some(len) = self.bytes[segment..].iter().position(|&b| b == b'\'') else {
                return Err(ParseError::new(ParseErrorKind::UnterminatedString, start));
            };
            let quote = segment + len;
            if self.bytes.get(quote + 1) == Some(&b'\'') {
                // A doubled quote escapes a single quote: keep one, continue after both.
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&self.src[segment..=quote]);
                segment = quote + 2;
                continue;
            }
            self.pos = quote + 1;
            let value = match unescaped {
                None => Cow::Borrowed(&self.src[body..quote]),
                Some(mut value) => {
                    value.push_str(&self.src[segment..quote]);
                    Cow::Owned(value)
                }
            };
            return Ok(TokenKind::String(value));
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<TokenKind<'a>, ParseError> {
        // Hexadecimal: 0x.... (used for SDSS object ids)
        if self.peek() == Some(b'0')
            && matches!(self.peek_at(1), Some(b'x') | Some(b'X'))
            && self.peek_at(2).is_some_and(|c| c.is_ascii_hexdigit())
        {
            self.pos += 2;
            let hstart = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let text = &self.src[hstart..self.pos];
            let value = i64::from_str_radix(text, 16)
                .map_err(|_| ParseError::new(ParseErrorKind::BadNumber(text.to_string()), start))?;
            return Ok(TokenKind::Hex(value));
        }

        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !saw_dot && !saw_exp => {
                    saw_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !saw_exp => {
                    saw_exp = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        let bad = || ParseError::new(ParseErrorKind::BadNumber(text.to_string()), start);
        if saw_dot || saw_exp {
            text.parse::<f64>().map(TokenKind::Float).map_err(|_| bad())
        } else {
            text.parse::<i64>().map(TokenKind::Int).map_err(|_| bad())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(sql)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn string_literals_carry_arbitrary_utf8() {
        // Regression: bytes were cast to chars one at a time, mangling `café` into `cafÃ©`
        // — which silently broke cross-dialect tree identity with the frames front-end.
        assert_eq!(
            kinds("'café' 'снег — ☃' 'O''Brien'"),
            vec![
                TokenKind::String("café".into()),
                TokenKind::String("снег — ☃".into()),
                TokenKind::String("O'Brien".into()),
            ]
        );
    }

    #[test]
    fn lexes_keywords_case_insensitively() {
        let toks = kinds("select FROM wHeRe");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::From),
                TokenKind::Keyword(Keyword::Where),
            ]
        );
    }

    #[test]
    fn lexes_identifiers_and_punctuation() {
        let toks = kinds("ontime.DestState, g");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("ontime"),
                TokenKind::Dot,
                TokenKind::Ident("DestState"),
                TokenKind::Comma,
                TokenKind::Ident("g"),
            ]
        );
    }

    #[test]
    fn lexes_numbers_hex_and_floats() {
        let toks = kinds("42 5.848 0x400 1e3");
        assert_eq!(
            toks,
            vec![
                TokenKind::Int(42),
                TokenKind::Float(5.848),
                TokenKind::Hex(0x400),
                TokenKind::Float(1000.0),
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let toks = kinds("'USA' 'O''Brien'");
        assert_eq!(
            toks,
            vec![
                TokenKind::String("USA".into()),
                TokenKind::String("O'Brien".into()),
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let toks = kinds("= <> != <= >= < > + - / %");
        let ops: Vec<&str> = toks
            .into_iter()
            .map(|t| match t {
                TokenKind::Op(o) => o.as_str(),
                other => panic!("not an op: {other:?}"),
            })
            .collect();
        assert_eq!(
            ops,
            vec!["=", "<>", "!=", "<=", ">=", "<", ">", "+", "-", "/", "%"]
        );
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("SELECT -- the projection\n a /* block */ FROM t");
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn quoted_identifiers() {
        let toks = kinds("\"Dest State\" [Delay Minutes]");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("Dest State"),
                TokenKind::Ident("Delay Minutes"),
            ]
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Lexer::new("SELECT ?").tokenize().unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedChar('?')));
        let err = Lexer::new("'oops").tokenize().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnterminatedString));
    }

    #[test]
    fn star_and_semicolon() {
        let toks = kinds("SELECT * FROM t;");
        assert_eq!(toks[1], TokenKind::Star);
        assert_eq!(*toks.last().unwrap(), TokenKind::Semicolon);
    }

    #[test]
    fn leading_dot_number() {
        // ".5" style literals
        let toks = kinds("SELECT .5");
        assert_eq!(toks[1], TokenKind::Float(0.5));
    }
}
