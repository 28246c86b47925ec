//! A minimal JSON writer and reader (no third-party dependency).
//!
//! The writer embeds interface specifications inside the generated HTML page (with the
//! `<script>`-safe escaping the HTML compiler needs) and serialises the server's HTTP
//! responses; the reader ([`Json::parse`]) decodes ingest payloads.  The reader is
//! deliberately *tolerant* in the ways a log-ingest endpoint must be — unknown object keys
//! are simply carried through for the caller to ignore, trailing commas are accepted, and
//! any JSON value is allowed at the top level — while still rejecting structurally broken
//! text with a byte offset, so a malformed batch fails loudly instead of half-ingesting.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// A boolean.
    Bool(bool),
    /// A number (always rendered as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn string(value: &str) -> Json {
        Json::String(value.to_string())
    }

    /// Parses JSON text into a value tree.
    ///
    /// Accepts standard JSON plus two ingest-friendly tolerances: trailing commas inside
    /// arrays and objects, and any value (not just an object or array) at the top level.
    /// Duplicate object keys are kept in arrival order ([`Json::get`] returns the first).
    /// Errors carry the byte offset where parsing stopped.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the top-level value"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (first match wins); `None` for non-objects and missing
    /// keys — callers chain lookups without caring which of the two happened, which is
    /// exactly the tolerance ingest wants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity literals; emitting them produces text no
                    // parser accepts.  Follow the convention of serde_json and
                    // `JSON.stringify`: non-finite numbers serialise as null.
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::String(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        // `<` is escaped so the spec can be embedded raw inside a
                        // `<script>` block: a literal `</script>` (or `<!--`) in a SQL
                        // fragment or label would otherwise terminate the script element
                        // and inject markup into the page.
                        '<' => out.push_str("\\u003c"),
                        // U+2028/U+2029 are valid in JSON strings but are line
                        // terminators in JavaScript source; escape them for the same
                        // script-embedding reason.
                        '\u{2028}' => out.push_str("\\u2028"),
                        '\u{2029}' => out.push_str("\\u2029"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::String(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Serialises the value to compact JSON text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// A parse failure: what went wrong and the byte offset where the parser stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting ceiling for the recursive-descent reader: ingest payloads are a couple of levels
/// deep, so anything past this is hostile input trying to overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("value nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                Some(b'"') => {
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1, // trailing comma before '}' is fine
                        Some(b'}') => {}
                        _ => return Err(self.error("expected ',' or '}' in object")),
                    }
                }
                _ => return Err(self.error("expected a string key or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                Some(_) => {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1, // trailing comma before ']' is fine
                        Some(b']') => {}
                        _ => return Err(self.error("expected ',' or ']' in array")),
                    }
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            _ => {
                self.pos = start;
                Err(self.error("malformed number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest escape-free run in one step; the input is valid UTF-8 (it
            // arrived as &str), so byte-wise scanning never splits a character.
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("UTF-8 input"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // unicode_escape leaves pos after the escape
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
                Some(_) => unreachable!("the scan above stops only at '\"' or '\\'"),
            }
        }
    }

    /// Decodes `XXXX` (pos is at the first hex digit), including a following low-surrogate
    /// escape for supplementary-plane characters; leaves pos after the consumed escape(s).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: needs a \uXXXX low surrogate to form a scalar value.
            if !self.eat_literal("\\u") {
                return Err(self.error("unpaired surrogate escape"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            let scalar = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(scalar).ok_or_else(|| self.error("invalid surrogate pair"))
        } else {
            char::from_u32(high).ok_or_else(|| self.error("unpaired surrogate escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Number(3.0).to_string(), "3");
        assert_eq!(Json::Number(3.5).to_string(), "3.5");
        assert_eq!(Json::string("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::string("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Json::String("\u{1}".into()).to_string(), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        // Regression: these used to render as `NaN` / `inf`, which no JSON parser accepts.
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Number(f64::NEG_INFINITY).to_string(), "null");
        // Finite values are unaffected.
        assert_eq!(Json::Number(-2.5).to_string(), "-2.5");
        assert_eq!(
            Json::Array(vec![Json::Number(1.0), Json::Number(f64::NAN)]).to_string(),
            "[1,null]"
        );
    }

    #[test]
    fn escapes_script_terminators_for_html_embedding() {
        // Regression: a literal `</script>` inside a string used to pass through verbatim,
        // terminating the surrounding <script> block when the JSON is embedded in HTML.
        assert_eq!(
            Json::string("</script><script>alert(1)").to_string(),
            "\"\\u003c/script>\\u003cscript>alert(1)\""
        );
        assert_eq!(
            Json::string("a\u{2028}b\u{2029}c").to_string(),
            "\"a\\u2028b\\u2029c\""
        );
        // `>` needs no escaping; other text is untouched.
        assert_eq!(Json::string("1 > 0").to_string(), "\"1 > 0\"");
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::string("hi"));
        assert_eq!(
            Json::parse("[1, \"two\", [3]]").unwrap(),
            Json::Array(vec![
                Json::Number(1.0),
                Json::string("two"),
                Json::Array(vec![Json::Number(3.0)]),
            ])
        );
        assert_eq!(
            Json::parse("{\"a\": 1, \"b\": {\"c\": null}}").unwrap(),
            Json::Object(vec![
                ("a".into(), Json::Number(1.0)),
                ("b".into(), Json::Object(vec![("c".into(), Json::Null)])),
            ])
        );
    }

    #[test]
    fn parse_decodes_escapes_and_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndAé""#).unwrap(),
            Json::string("a\"b\\c\ndAé")
        );
        // U+1F600 as a surrogate pair, and a real multibyte char raw.
        assert_eq!(
            Json::parse(r#""😀 café""#).unwrap(),
            Json::string("😀 café")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err()); // unpaired high surrogate
        assert!(Json::parse(r#""\udc00""#).is_err()); // lone low surrogate
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let value = Json::Object(vec![
            ("name".into(), Json::string("slider </script>\u{2028}")),
            (
                "options".into(),
                Json::Array(vec![Json::Number(1.0), Json::Null, Json::Bool(false)]),
            ),
        ]);
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
    }

    #[test]
    fn parse_tolerates_trailing_commas_and_unknown_keys() {
        let parsed = Json::parse("{\"known\": 1, \"extra\": [2, 3,],}").unwrap();
        assert_eq!(parsed.get("known"), Some(&Json::Number(1.0)));
        assert_eq!(
            parsed.get("extra").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(parsed.get("absent"), None);
    }

    #[test]
    fn parse_rejects_broken_text_with_an_offset() {
        for broken in [
            "",
            "{",
            "[1 2]",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "1.2.3",
            "{} trailing",
            "\"bad \\x escape\"",
        ] {
            let err = Json::parse(broken).unwrap_err();
            assert!(err.offset <= broken.len(), "offset out of range: {err}");
            assert!(!err.to_string().is_empty());
        }
        // The depth ceiling rejects stack-overflow bombs rather than crashing.
        let bomb = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn accessors_pick_fields_tolerantly() {
        let value = Json::parse("{\"s\": \"x\", \"n\": 7, \"b\": true, \"a\": []}").unwrap();
        assert_eq!(value.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(value.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(value.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("a").and_then(Json::as_array), Some(&[][..]));
        // Wrong-shape lookups answer None, never panic.
        assert_eq!(Json::Null.get("s"), None);
        assert_eq!(value.get("s").and_then(Json::as_f64), None);
    }

    #[test]
    fn serialises_nested_structures() {
        let value = Json::Object(vec![
            ("name".into(), Json::string("slider")),
            (
                "options".into(),
                Json::Array(vec![Json::Number(1.0), Json::Number(2.0)]),
            ),
            ("absent".into(), Json::Bool(false)),
        ]);
        assert_eq!(
            value.to_string(),
            "{\"name\":\"slider\",\"options\":[1,2],\"absent\":false}"
        );
    }
}
