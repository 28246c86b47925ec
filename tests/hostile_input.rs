//! Hostile input never panics either front-end.
//!
//! Real query logs are messy (truncated lines, mixed encodings, other languages, garbage),
//! and a front-end runs on every line a server accepts, so a panic or a stack overflow in
//! a parser takes a tenant — or the process — down.  Four deterministic input families,
//! each parsed by both front-ends through `Frontend::parse_statements_lossy` (the session's
//! ingest call):
//!
//! * arbitrary strings over a mixed alphabet: punctuation, both quote kinds, digits, `0x`,
//!   comment openers and multibyte characters;
//! * token soups drawn from each grammar's own vocabulary, which reach far deeper into the
//!   parsers than random characters do;
//! * generated statements with a few edits (a fragment spliced in, a span cut out), which
//!   stay close enough to the grammar that many still parse;
//! * every char-boundary prefix of the workload generators' statements — the truncated
//!   line a log rotation or a torn write leaves behind.
//!
//! Every call must return, and every tree it yields must round-trip: rendering it and
//! parsing the text back gives the same tree.

use precision_interfaces::ast::ErrorSample;
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::{adhoc, frames, olap, sdss, QueryLog};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Characters and short fragments the arbitrary strings are made of.
const ALPHABET: &[&str] = &[
    " ",
    " ",
    "\t",
    "\n",
    "(",
    ")",
    "[",
    "]",
    ",",
    ".",
    ";",
    "*",
    "=",
    "==",
    "!",
    "!=",
    "<",
    ">",
    "<=",
    ">=",
    "<>",
    "&",
    "|",
    "||",
    "~",
    "+",
    "-",
    "/",
    "%",
    "?",
    "#",
    "@",
    "\\",
    "'",
    "''",
    "\"",
    "0",
    "1",
    "7",
    "9",
    "0x",
    "0X",
    "e",
    ".5",
    "1e",
    "--",
    "/*",
    "*/",
    "a",
    "t",
    "x",
    "_",
    "Z",
    "é",
    "☃",
    "снег",
    "\u{0085}",
    "\u{00a0}",
    "\u{1F600}",
];

/// SQL words and symbols, for token soups.
const SQL_VOCABULARY: &[&str] = &[
    "SELECT",
    "DISTINCT",
    "TOP",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "LIMIT",
    "ASC",
    "DESC",
    "AS",
    "AND",
    "OR",
    "NOT",
    "IN",
    "BETWEEN",
    "LIKE",
    "IS",
    "NULL",
    "TRUE",
    "FALSE",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "CAST",
    "JOIN",
    "INNER",
    "LEFT",
    "RIGHT",
    "OUTER",
    "ON",
    "UNION",
    "ALL",
    "COUNT",
    "sum",
    "floor",
    "dbo",
    "t",
    "u",
    "a",
    "b",
    "g",
    "\"Dest State\"",
    "[x y]",
    "'USA'",
    "'O''Brien'",
    "'café'",
    "42",
    "-7",
    "3.25",
    "1e3",
    "0x400",
    ".5",
    "(",
    ")",
    ",",
    ".",
    ";",
    "*",
    "=",
    "<>",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "+",
    "-",
    "/",
    "%",
    "||",
];

/// Frames words and symbols, for token soups.
const FRAMES_VOCABULARY: &[&str] = &[
    "t",
    "ontime",
    "dbo",
    "a",
    "b",
    "g",
    "filter",
    "select",
    "groupby",
    "agg",
    "having",
    "sort",
    "limit",
    "head",
    "distinct",
    "desc",
    "alias",
    "cast",
    "isnull",
    "notnull",
    "isin",
    "notin",
    "between",
    "like",
    "COUNT",
    "sum",
    "COUNT_DISTINCT",
    "True",
    "False",
    "None",
    "'CA'",
    "\"two\"",
    "'it\\'s'",
    "'é'",
    "42",
    "3.5",
    "0x1F",
    "(",
    ")",
    ",",
    ".",
    ";",
    "*",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "&",
    "|",
    "~",
    "+",
    "-",
    "/",
    "%",
];

/// Parses `text` in `dialect` the way a session ingests it, and checks every tree it
/// yields round-trips through the front-end's renderer.
fn parses_without_panicking(dialect: Dialect, text: &str) {
    let frontends = standard_frontends();
    let frontend = frontends
        .get(dialect)
        .expect("both dialects are registered");
    let mut trees = Vec::new();
    let mut errors = ErrorSample::new(1);
    let skipped = frontend.parse_statements_lossy(text, &mut trees, &mut errors);
    assert_eq!(errors.seen(), skipped);
    for tree in &trees {
        let rendered = frontend.render(tree);
        match frontend.parse_one(&rendered) {
            Ok(again) => assert_eq!(
                &again, tree,
                "{dialect} `{text}` rendered as `{rendered}` parses to a different tree"
            ),
            Err(e) => panic!("{dialect} `{text}` rendered as `{rendered}` fails to parse: {e}"),
        }
    }
}

fn soup(vocabulary: &'static [&'static str], max_len: usize) -> impl Strategy<Value = String> {
    (
        prop::collection::vec(prop::sample::select(vocabulary.to_vec()), 0..max_len),
        prop::bool::ANY,
    )
        .prop_map(|(words, spaced)| words.join(if spaced { " " } else { "" }))
}

/// The generators' statements, each with its dialect (generated once per test binary).
fn generated_statements() -> &'static [(Dialect, String)] {
    static STATEMENTS: OnceLock<Vec<(Dialect, String)>> = OnceLock::new();
    STATEMENTS.get_or_init(|| {
        let mut logs: Vec<QueryLog> = vec![
            olap::random_walk(1, 40),
            adhoc::exploration_log(2, 40),
            frames::mixed_walk(3, 40),
        ];
        logs.extend(sdss::client_logs(4, 10));
        logs.iter()
            .flat_map(|log| log.dialects.iter().copied().zip(log.text.iter().cloned()))
            .collect()
    })
}

/// Applies `edits` to `text`: each splices `fragment` in at a char boundary chosen by
/// `at`, or, when `cut` is set, removes the span from there to a second chosen boundary.
fn edited(text: &str, edits: &[(usize, usize, bool, &str)]) -> String {
    let mut text = text.to_string();
    for &(at, len, cut, fragment) in edits {
        let boundaries: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let start = boundaries[at % boundaries.len()];
        if cut {
            let end = boundaries[(at + len) % boundaries.len()].max(start);
            text.replace_range(start..end, "");
        } else {
            text.insert_str(start, fragment);
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn arbitrary_strings_never_panic_a_front_end(text in soup(ALPHABET, 48)) {
        parses_without_panicking(Dialect::SQL, &text);
        parses_without_panicking(Dialect::FRAMES, &text);
    }

    #[test]
    fn sql_token_soups_never_panic_a_front_end(text in soup(SQL_VOCABULARY, 32)) {
        parses_without_panicking(Dialect::SQL, &text);
        parses_without_panicking(Dialect::FRAMES, &text);
    }

    #[test]
    fn frames_token_soups_never_panic_a_front_end(text in soup(FRAMES_VOCABULARY, 32)) {
        parses_without_panicking(Dialect::FRAMES, &text);
        parses_without_panicking(Dialect::SQL, &text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn edited_statements_never_panic_a_front_end(
        pick in 0usize..1000,
        edits in prop::collection::vec(
            (0usize..200, 0usize..12, prop::bool::ANY, prop::sample::select(ALPHABET.to_vec())),
            1..4,
        ),
    ) {
        let statements = generated_statements();
        let (dialect, text) = &statements[pick % statements.len()];
        let text = edited(text, &edits);
        parses_without_panicking(*dialect, &text);
    }
}

#[test]
fn every_prefix_of_a_generated_statement_parses_or_fails_cleanly() {
    for (dialect, text) in generated_statements() {
        for (cut, _) in text.char_indices().chain([(text.len(), ' ')]) {
            parses_without_panicking(*dialect, &text[..cut]);
        }
    }
}

/// A statement filtering on `n` negations of a comparison, in `dialect`'s syntax: over a
/// parenthesised one, `NOT NOT (x = 1)` or `~~(x == 1)`, or over a bare one, `NOT NOT x = 1`
/// (`NOT` binds looser than `=`; `~` binds tighter than `==`, so frames has no bare form).
fn negation_chain(dialect: Dialect, n: usize, bare: bool) -> String {
    match (dialect == Dialect::SQL, bare) {
        (true, false) => format!("SELECT a FROM t WHERE {}(x = 1)", "NOT ".repeat(n)),
        (true, true) => format!("SELECT a FROM t WHERE {}x = 1", "NOT ".repeat(n)),
        (false, _) => format!("t.filter({}(x == 1))", "~".repeat(n)),
    }
}

#[test]
fn negation_chains_round_trip_at_every_length_a_front_end_accepts() {
    // Parsing a chain nests one level per negation, so each front-end accepts chains up to
    // a longest length set by `MAX_NESTING`; every chain it accepts must re-parse from its
    // rendering to the same tree.
    let frontends = standard_frontends();
    for (dialect, bare) in [
        (Dialect::SQL, false),
        (Dialect::SQL, true),
        (Dialect::FRAMES, false),
    ] {
        let frontend = frontends
            .get(dialect)
            .expect("both dialects are registered");
        let mut longest = 0;
        while let Ok(tree) = frontend.parse_one(&negation_chain(dialect, longest + 1, bare)) {
            longest += 1;
            let rendered = frontend.render(&tree);
            match frontend.parse_one(&rendered) {
                Ok(again) => assert_eq!(
                    again, tree,
                    "{dialect}: the {longest}-long chain re-parses to a different tree"
                ),
                Err(e) => panic!(
                    "{dialect}: the {longest}-long chain renders as `{rendered}`, \
                     which fails to parse: {e}"
                ),
            }
        }
        // Chains past the longest fail on the nesting bound, not on their syntax, and the
        // bound admits chains past the 64 that parenthesised renderings stayed within.
        let err = frontend
            .parse_one(&negation_chain(dialect, longest + 1, bare))
            .unwrap_err();
        assert!(err.to_string().contains("nesting"), "{dialect}: {err}");
        assert!(
            longest > 65,
            "{dialect} accepts chains of at most {longest}"
        );
    }
}
