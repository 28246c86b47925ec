//! Micro-benchmarks for the per-stage costs: parsing, pairwise tree diffing, closure
//! membership, and query execution.

use criterion::{criterion_group, criterion_main, Criterion};
use pi_ast::Frontend as _;
use pi_diff::{extract_changes, AncestorPolicy};
use pi_engine::{exec, Catalog};
use pi_sql::SqlFrontend;
use pi_workloads::sdss;
use std::time::Duration;

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));

    let sql = "SELECT TOP 10 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) AS d WHERE d.objID = g.objID";
    group.bench_function("parse_sdss_query", |b| {
        b.iter(|| SqlFrontend.parse_one(sql).unwrap())
    });

    // The memoized hash must be O(1) — a field read — while the from-scratch recompute walks
    // the whole subtree.  The gap between these two numbers is the memo at work.
    let big = {
        let mut q = SqlFrontend.parse_one(sql).unwrap();
        for _ in 0..6 {
            let wrapped = q.clone();
            q = pi_ast::builder::SelectBuilder::new()
                .project_star()
                .from_subquery(wrapped.clone())
                .from_subquery(wrapped)
                .build();
        }
        q
    };
    group.bench_function(
        &format!("structural_hash_memoized_{}_nodes", big.size()),
        |b| b.iter(|| big.structural_hash()),
    );
    group.bench_function(
        &format!("structural_hash_recompute_{}_nodes", big.size()),
        |b| b.iter(|| big.recomputed_hash()),
    );

    let log = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 1, 2).queries;
    // The raw ordered-tree alignment alone (no ancestor expansion): the inner loop the
    // AllPairs memo amortises, and the unit the prefix/suffix-trimmed flat-buffer LCS
    // optimises.  Before/after numbers for that change live in README.md.
    group.bench_function("leaf_changes_pair", |b| {
        b.iter(|| pi_diff::leaf_changes(&log[0], &log[1]))
    });
    group.bench_function("diff_pair_lca", |b| {
        b.iter(|| extract_changes(&log[0], &log[1], AncestorPolicy::LcaPruned))
    });
    group.bench_function("diff_pair_full", |b| {
        b.iter(|| extract_changes(&log[0], &log[1], AncestorPolicy::Full))
    });

    let generated = pi_core::PrecisionInterfaces::default()
        .from_queries(sdss::client_log(sdss::ClientArchetype::ObjectLookup, 2, 50).queries);
    let probe = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 9, 1).queries[0].clone();
    group.bench_function("closure_membership", |b| {
        b.iter(|| generated.interface.can_express(&probe))
    });

    let catalog = Catalog::demo(1);
    let query = SqlFrontend
        .parse_one("SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState")
        .unwrap();
    group.bench_function("exec_olap_groupby", |b| {
        b.iter(|| exec(&query, &catalog).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
