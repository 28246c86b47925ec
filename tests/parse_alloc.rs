//! Allocation budget for parsing: heap allocations per statement, counted exactly.
//!
//! The counting global allocator of `support/counting_alloc.rs` keeps a per-thread tally of
//! allocation calls (`alloc`, `alloc_zeroed` and `realloc`).  The test parses a fixed
//! `zipf_trace` corpus the way a session does (`Frontend::parse_statements_lossy`, trees
//! dropped after each line), once to intern every literal and once counted, so the figure
//! is the steady-state cost of a statement whose strings were seen before.
//! Counts repeat exactly from run to run, so the budget guards the parser's allocation
//! diet without timing noise.
//!
//! This binary holds one test: other tests running on other threads could intern a
//! string first and move an allocation out of the counted pass.

use precision_interfaces::ast::ErrorSample;
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::trace::zipf_trace;

/// Most allocations an SQL statement of the corpus may cost, parse and drop together: the
/// measured 40.59 (the front-ends before borrowed tokens and one-shot node construction
/// took 129.29).
const SQL_BUDGET: f64 = 40.6;
/// Most allocations a frames statement of the corpus may cost: the measured 40.31
/// (before: 116.74).
const FRAMES_BUDGET: f64 = 40.4;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// Parses every line of one dialect, dropping the trees; returns (statements, allocations).
fn parse_pass(frontend: &dyn Frontend, lines: &[&str]) -> (usize, u64) {
    let mut out = Vec::with_capacity(4);
    let mut errors = ErrorSample::new(0);
    let mut statements = 0;
    let before = allocations();
    for line in lines {
        frontend.parse_statements_lossy(line, &mut out, &mut errors);
        statements += out.len();
        out.clear();
    }
    (statements, allocations() - before)
}

#[test]
fn parsing_stays_within_its_allocation_budget() {
    let trace: Vec<(Dialect, String)> = [21, 22, 23, 24]
        .into_iter()
        .flat_map(|seed| zipf_trace(1024, 1024, 0.0, seed))
        .collect();
    let frontends = standard_frontends();
    for (dialect, budget) in [(Dialect::SQL, SQL_BUDGET), (Dialect::FRAMES, FRAMES_BUDGET)] {
        let lines: Vec<&str> = trace
            .iter()
            .filter(|(d, _)| *d == dialect)
            .map(|(_, text)| text.as_str())
            .collect();
        let frontend = frontends.get(dialect).expect("registered").as_ref();
        let (warm, _) = parse_pass(frontend, &lines);
        let (statements, allocated) = parse_pass(frontend, &lines);
        assert_eq!(statements, lines.len(), "every {dialect} line parses");
        assert_eq!(warm, statements);
        let per_statement = allocated as f64 / statements as f64;
        println!("{dialect}: {per_statement:.2} allocations a statement over {statements}");
        assert!(
            per_statement <= budget,
            "{dialect} parsing allocates {per_statement:.2} times a statement, over its budget of {budget}"
        );
    }
}
