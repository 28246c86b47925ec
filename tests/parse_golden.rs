//! Front-end fidelity gate: what both parsers make of a fixed corpus is pinned to a text
//! fixture, so a change to the lexers, the parsers or node construction cannot silently
//! change a tree, an error kind or an error offset.
//!
//! The corpus is every statement of four generators at fixed seeds, then a hand-written
//! malformed corpus in each dialect.  Each statement is one fixture line: the dialect, then
//! the tree's structural hash and its `render_compact` text for a parse, or `ERR` and the
//! error's `Display` (kind and byte offset) for a rejection.
//!
//! Regenerate after an *intended* change to what is parsed:
//! `PI_REGEN_GOLDEN=1 cargo test --test parse_golden`.

use precision_interfaces::prelude::*;
use precision_interfaces::workloads::{adhoc, frames, olap, sdss, QueryLog};
use std::fmt::Write as _;

/// Malformed SQL: unterminated strings and quoted identifiers, stray characters, bad
/// numbers, trailing input, missing clauses, and a lexical error after a syntax error.
const MALFORMED_SQL: &[&str] = &[
    "SELECT a FROM t WHERE name = 'abc",
    "SELECT a FROM t WHERE name = 'it''s",
    "SELECT \"col FROM t",
    "SELECT [col FROM t",
    "SELECT a FROM t WHERE x = 1 ?",
    "SELECT a FROM t WHERE x ! 1",
    "SELECT a | b FROM t",
    "SELECT é FROM t",
    "SELECT a FROM t WHERE city = 'café' AND x = ☃",
    "SELECT a FROM t WHERE x = 99999999999999999999",
    "SELECT a FROM t WHERE x = 0xFFFFFFFFFFFFFFFFF",
    "SELECT a FROM t WHERE x = 0xZZ",
    "SELECT 1e FROM t",
    "SELECT 1e+ FROM t",
    "SELECT 1.2.3 FROM t",
    "SELECT a FROM t) x",
    "SELECT a FROM t; SELECT b",
    "SELECT a FROM t WHERE x = 'a' 'b'",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t GROUP a",
    "SELECT a FROM t ORDER BY",
    "SELECT a FROM t LIMIT",
    "FROM t",
    "",
    "   ",
    "SELECT",
    "SELECT a FROM t WHERE x IN (1, 2",
    "SELECT a FROM t WHERE x IN ()",
    "SELECT a FROM t WHERE x NOT 5",
    "SELECT a FROM t WHERE x IS 5",
    "SELECT a FROM t WHERE x BETWEEN 1 OR 2",
    "SELECT CASE WHEN a THEN b FROM t",
    "SELECT CASE a END FROM t",
    "SELECT CAST(a AS FROM t",
    "SELECT CAST a FROM t",
    "SELECT COUNT(DISTINCT) FROM t",
    "SELECT a AS FROM t",
    "SELECT a FROM t AS",
    "SELECT a FROM t JOIN u",
    "SELECT a FROM t LEFT x JOIN u ON a = b",
    "SELECT a FROM t INNER u",
    "SELECT a FROM (SELECT b FROM u",
    "SELECT a FROM dbo.f(1, 2",
    "SELECT x. FROM t",
    "SELECT g.*, h. * FROM t",
    "SELECT a FROM t WHERE x = -",
    "SELECT a FROM t WHERE x = (SELECT MAX(y) FROM u",
    "SELECT TOP FROM t",
    "SELECT FROM t ?",
    "SELECT a FROM t WHERE 'oops",
    "%% trace garbage #7 %%",
    "t.filter(x == 1)",
    // Legal corner cases, pinned alongside the failures.
    "SELECT a FROM t WHERE x = 1 -- trailing comment",
    "SELECT a /* unterminated block comment",
    "SELECT ((((((a)))))) FROM t",
    "SELECT NOT NOT NOT a FROM t",
    "SELECT - -5, -'x', +3, - 2.5e3, .5 FROM t",
    "SELECT a || b, c % 2, d / 3 FROM t WHERE e <> 1 AND f != 2 AND g <= 3 AND h >= 4",
    "select Count(distinct X) as n from T where y is not null and z not like 'a%' order by n desc",
    "SELECT \"Dest State\", [Delay Minutes] FROM \"my table\"",
    "SELECT g.*, dbo.f.g(1) FROM a.b.c AS x, (SELECT 1) y WHERE x.p.q = 'O''Brien'",
    "SELECT a FROM t RIGHT OUTER JOIN u ON t.k = u.k INNER JOIN v ON u.k = v.k",
    "SELECT CASE WHEN a > 1 THEN 'x' WHEN a > 2 THEN 'y' ELSE NULL END FROM t",
    "SELECT a FROM t WHERE b IN (SELECT c FROM u) AND TRUE OR FALSE;;",
];

/// Malformed frames: the same failure families in the dataframe dialect, plus unknown
/// methods and pseudo-function arity errors.
const MALFORMED_FRAMES: &[&str] = &[
    "t.filter(name == 'abc",
    "t.filter(name == \"abc",
    "t.filter(name == 'abc\\",
    "t.filter(x = 1)",
    "t.filter(x ? 1)",
    "t.filter(x ! 1)",
    "t.filter(x<é)",
    "t.filter(x == ☃)",
    "é",
    "t.filter(x == 0x)",
    "t.filter(x == 0xFFFFFFFFFFFFFFFFF)",
    "t.filter(x == 99999999999999999999)",
    "t.filter(x == 1.5.5)",
    "t.filter(x == 1) trailing",
    "t.filter(x == 1);t",
    "t.filter()",
    "t.filter(x == 1).explode(y)",
    "t.filter(x == 1).explode",
    "t.head(1, 2)",
    "t.distinct(1)",
    "t.select(a).agg(SUM(b))",
    "t.filter(x == )",
    "",
    "t.",
    "t.filter(",
    "t.filter(x == 1",
    "(t.filter(x == 1)",
    "t.select(isnull(a, b))",
    "t.select(cast(a, b))",
    "t.select(between(a, 1))",
    "t.select(isin(a))",
    "t.filter(like(a))",
    "t.sort()",
    "t.groupby()",
    "t.having()",
    "t.filter(== 1) ?",
    "t.filter(x == 'a' 'b')",
    "%% trace garbage #7 %%",
    "SELECT a FROM t",
    // Legal corner cases, pinned alongside the failures.
    "t.filter(~~(x == 1))",
    "t.filter(x == -(-5)).select(-y, +3, - 2.5)",
    "t.sort(desc(a), b).head(3)",
    "t.select(alias(a, 'b'), alias(c))",
    "t.filter(x == 'a\\nb\\t\\'c\\\"')",
    "t.filter(x == 1).select(a.*)",
    "t.filter((a == 1 | b == 2) & ~(c != 3))",
    "dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616).select(d.objID)",
    "a.b.c.filter(x.y.z == None & w == True | v == False)",
    "t.agg(COUNT_DISTINCT(a), sum(b), Foo_DISTINCT(c)).groupby(d)",
    "t.filter(notin(a, 1, 2) & notnull(b))",
];

/// One fixture line per statement.
fn statement_line(frontends: &Frontends, dialect: Dialect, text: &str) -> String {
    let frontend = frontends
        .get(dialect)
        .expect("both dialects are registered");
    match frontend.parse_one(text) {
        Ok(node) => format!(
            "{dialect} {:016x} {}",
            node.structural_hash(),
            frontend.render_compact(&node)
        ),
        Err(e) => format!("{dialect} ERR {e}"),
    }
}

fn log_section(out: &mut String, frontends: &Frontends, name: &str, log: &QueryLog) {
    writeln!(out, "== {name}").unwrap();
    for (dialect, text) in log.dialects.iter().zip(&log.text) {
        writeln!(out, "{}", statement_line(frontends, *dialect, text)).unwrap();
    }
}

fn malformed_section(out: &mut String, frontends: &Frontends, dialect: Dialect, corpus: &[&str]) {
    writeln!(out, "== malformed {dialect}").unwrap();
    for text in corpus {
        writeln!(out, "{}", statement_line(frontends, dialect, text)).unwrap();
    }
}

/// The fixture text as the front-ends parse it today.
fn parsed_fixture() -> String {
    let frontends = standard_frontends();
    let mut out = String::new();
    log_section(
        &mut out,
        &frontends,
        "olap::random_walk(seed 3, 150 queries)",
        &olap::random_walk(3, 150),
    );
    log_section(
        &mut out,
        &frontends,
        "adhoc::exploration_log(seed 5, 150 queries)",
        &adhoc::exploration_log(5, 150),
    );
    for (i, log) in sdss::client_logs(4, 40).iter().enumerate() {
        log_section(
            &mut out,
            &frontends,
            &format!("sdss::client_logs(4 clients, 40 queries), client {i}"),
            log,
        );
    }
    log_section(
        &mut out,
        &frontends,
        "frames::mixed_walk(seed 5, 150 queries)",
        &frames::mixed_walk(5, 150),
    );
    malformed_section(&mut out, &frontends, Dialect::SQL, MALFORMED_SQL);
    malformed_section(&mut out, &frontends, Dialect::FRAMES, MALFORMED_FRAMES);
    out
}

#[test]
fn parsed_statements_match_the_golden_fixture() {
    let parsed = parsed_fixture();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parse_golden.txt");
    if std::env::var_os("PI_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &parsed).unwrap();
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden fixture missing — generate it with PI_REGEN_GOLDEN=1 cargo test --test parse_golden",
    );
    if let Some((line, (want, got))) = golden
        .lines()
        .zip(parsed.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "parsed statements differ from the fixture at line {}:\n  fixture: {want}\n  parsed:  {got}\n\
             (regenerate with PI_REGEN_GOLDEN=1 only if the change is intended)",
            line + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        parsed.lines().count(),
        "parsed statements differ from the fixture in length"
    );
}
