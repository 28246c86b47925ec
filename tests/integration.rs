//! Cross-crate integration tests: the full pipeline from SQL text to an executable,
//! renderable, schema-checked interface.

use precision_interfaces::core::precision::{query_is_schema_valid, SchemaMap};
use precision_interfaces::core::recall::{holdout_recall, split_log};
use precision_interfaces::core::PiOptions;
use precision_interfaces::graph::InteractionGraph;
use precision_interfaces::prelude::*;
use precision_interfaces::workloads::{frames as frames_logs, mix, olap, sdss};

fn parse(sql: &str) -> Result<Node, FrontendError> {
    SqlFrontend.parse_one(sql)
}

fn render_sql(query: &Node) -> String {
    SqlFrontend.render(query)
}

/// [`PrecisionInterfaces::from_queries`] over `queries`, with the graph
/// [`PrecisionInterfaces::mine`] builds from them.
fn generate(
    pipeline: &PrecisionInterfaces,
    queries: Vec<Node>,
) -> (GeneratedInterface, InteractionGraph) {
    let graph = pipeline.mine(&queries);
    (pipeline.from_queries(queries), graph)
}

fn catalog_schema(catalog: &Catalog) -> SchemaMap {
    let mut schema = SchemaMap::new();
    for (table, columns) in catalog.schema() {
        schema.add_table(&table, columns.iter().map(String::as_str));
    }
    schema
}

#[test]
fn end_to_end_olap_interface_queries_all_execute() {
    // Log -> interface -> closure -> every closure query parses, renders, round-trips, passes
    // the schema check, and executes on the engine.
    let log = olap::random_walk(3, 120);
    let generated = PrecisionInterfaces::default().from_queries(log.queries.clone());
    // The OLAP walk keeps adding/removing clauses, so reaching a late query from the very
    // first one can take several interactions; the single-pass membership check therefore
    // reports a large fraction, not necessarily all, of the log as directly reachable.
    assert!(generated.interface.expressiveness(&log.queries) >= 0.5);
    // The edge-level guarantee does hold: for each step of the walk, every changed subtree is
    // expressed by some widget, either directly or through a widget at an ancestor path (the
    // coverage invariant the merging phase preserves).
    for pair in log.queries.windows(2).take(30) {
        let records =
            pi_diff::extract_changes(&pair[0], &pair[1], pi_diff::AncestorPolicy::LcaPruned);
        let expressed_paths: Vec<_> = records
            .iter()
            .filter(|r| generated.interface.widgets().iter().any(|w| w.expresses(r)))
            .map(|r| r.path.clone())
            .collect();
        for leaf in records.iter().filter(|r| r.is_leaf) {
            assert!(
                expressed_paths.iter().any(|p| p.is_prefix_of(&leaf.path)),
                "leaf change at {} not covered:\n{}",
                leaf.path,
                generated.interface.describe()
            );
        }
    }

    let catalog = Catalog::demo(5);
    let schema = catalog_schema(&catalog);
    let closure = generated.interface.enumerate_closure(300);
    assert!(!closure.is_empty());
    let mut executed = 0;
    for query in &closure {
        let sql = render_sql(query);
        let reparsed = parse(&sql).expect("closure queries render to parsable SQL");
        assert_eq!(&reparsed, query);
        if query_is_schema_valid(query, &schema) {
            let result = exec(query, &catalog).expect("schema-valid closure queries execute");
            let _ = render(&result);
            executed += 1;
        }
    }
    assert!(
        executed > 0,
        "at least some closure queries must be executable"
    );
}

#[test]
fn sdss_client_interface_generalises_and_compiles_to_html() {
    let log = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 11, 150);
    let split = split_log(&log.queries, 50);
    let (recall, generated) =
        holdout_recall(&split.train[..60], split.holdout, &PiOptions::default());
    assert!(
        recall >= 0.9,
        "structured SDSS analyses should generalise, got {recall}"
    );

    // The interface compiles into a self-contained web page mentioning every widget.
    let layout = EditorLayout::new(&generated.interface, 2);
    let html = compile_html(&generated.interface, &layout, "SDSS client");
    assert!(html.contains("<!DOCTYPE html>"));
    for widget in generated.interface.widgets() {
        assert!(html.contains(widget.ty.slug()) || html.contains("input"));
    }

    // The initial query runs against the synthetic SkyServer catalog.
    let catalog = Catalog::demo(11);
    let result = exec(generated.interface.initial_query(), &catalog).unwrap();
    let _ = render(&result);
}

#[test]
fn heterogeneous_logs_lose_precision_but_the_filter_restores_it() {
    use precision_interfaces::core::precision::{closure_precision, filtered_closure};
    let logs = sdss::client_logs(4, 80);
    let mixed = mix::interleave(&logs, 9);
    let generated = PrecisionInterfaces::default().from_queries(mixed.queries.clone());

    let catalog = Catalog::demo(2);
    let schema = catalog_schema(&catalog);
    let precision = closure_precision(&generated.interface, &schema, 5_000);
    assert!(
        precision < 1.0,
        "mixed-client closures should contain invalid queries"
    );
    let filtered = filtered_closure(&generated.interface, &schema, 5_000);
    assert!(filtered.iter().all(|q| query_is_schema_valid(q, &schema)));
}

#[test]
fn optimised_and_baseline_configurations_express_the_same_log() {
    use pi_diff::AncestorPolicy;
    use pi_graph::WindowStrategy;
    let log = sdss::client_log(sdss::ClientArchetype::ConeSearchTop, 2, 60);
    let optimised = PrecisionInterfaces::default().from_queries(log.queries.clone());
    let baseline = PrecisionInterfaces::new(PiOptions {
        window: WindowStrategy::AllPairs,
        policy: AncestorPolicy::Full,
        ..PiOptions::default()
    })
    .from_queries(log.queries.clone());

    assert!(optimised.interface.expressiveness(&log.queries) >= 1.0);
    assert!(baseline.interface.expressiveness(&log.queries) >= 1.0);
    // The optimisations shrink the mined graph dramatically.
    assert!(baseline.graph_stats.diff_records > optimised.graph_stats.diff_records);
    assert!(baseline.graph_stats.edges > optimised.graph_stats.edges);
}

#[test]
fn generated_interfaces_execute_under_user_interaction_sequences() {
    // Simulate a user driving the Listing 6 interface: toggle the TOP clause, move the limit
    // slider, and run the query after each interaction (the exec() loop of Figure 2b).
    let log = "
      SELECT g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(180.0, 0.0, 3000.0) AS d WHERE d.objID = g.objID;
      SELECT TOP 1 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(180.0, 0.0, 3000.0) AS d WHERE d.objID = g.objID;
      SELECT TOP 10 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(180.0, 0.0, 3000.0) AS d WHERE d.objID = g.objID;
      SELECT TOP 5 g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(180.0, 0.0, 3000.0) AS d WHERE d.objID = g.objID;
    ";
    let generated = PrecisionInterfaces::default().from_sql_log(log).unwrap();
    let catalog = Catalog::demo(3);
    let mut seen_row_counts = std::collections::BTreeSet::new();
    for query in generated.interface.enumerate_closure(50) {
        let result = exec(&query, &catalog).expect("closure query executes");
        seen_row_counts.insert(result.num_rows());
    }
    // Different TOP values produce different result sizes.
    assert!(seen_row_counts.len() > 1, "{seen_row_counts:?}");
}

#[test]
fn streaming_session_tracks_the_batch_pipeline_and_compiles_to_html() {
    // Stream a 60-query SDSS client log one query at a time, snapshotting every 20 pushes;
    // the final snapshot must be identical to the one-shot batch run, and its interface
    // must compile to HTML exactly like a batch-produced one.
    let log = sdss::client_log(sdss::ClientArchetype::ConeSearchTop, 7, 60);
    let mut session = Session::new(PiOptions::default());
    let mut refreshes = 0;
    for (k, query) in log.queries.iter().enumerate() {
        assert_eq!(session.push_tagged(Dialect::SQL, query.clone()), k);
        if (k + 1) % 20 == 0 {
            let snapshot = session.snapshot();
            assert_eq!(snapshot.version, k as u64 + 1);
            assert!(snapshot.interface.expressiveness(&log.queries[..=k]) >= 1.0);
            refreshes += 1;
        }
    }
    assert_eq!(refreshes, 3);

    let streamed = session.snapshot();
    let batch = PrecisionInterfaces::default().from_queries(log.queries.clone());
    assert_eq!(streamed.version, batch.version);
    assert_eq!(streamed.graph_stats, batch.graph_stats);
    assert_eq!(streamed.interface.describe(), batch.interface.describe());

    let layout = EditorLayout::new(&streamed.interface, 2);
    let html = compile_html(&streamed.interface, &layout, "live SDSS session");
    assert!(html.contains("<!DOCTYPE html>"));
    assert_eq!(
        html,
        compile_html(&batch.interface, &layout, "live SDSS session")
    );
}

#[test]
fn mixed_dialect_log_mines_end_to_end_into_one_dialect_aware_interface() {
    // The acceptance scenario of the multi-front-end refactor: an interleaved SQL +
    // dataframe log (the same OLAP walk, each entry's language drawn by a coin) mines into
    // ONE interface whose HTML/JSON output renders each closure query in its originating
    // dialect.
    let mixed = frames_logs::mixed_walk(5, 64);
    assert!(mixed.dialects.contains(&Dialect::SQL));
    assert!(mixed.dialects.contains(&Dialect::FRAMES));

    let mut session = Session::new(PiOptions::default());
    for (dialect, query) in mixed.tagged_queries() {
        session.push_tagged(dialect, query);
    }
    let snapshot = session.snapshot();
    assert_eq!(snapshot.version as usize, mixed.len());
    assert_eq!(snapshot.dialects, mixed.dialects);

    // Mining is dialect-blind: the graph — and the widget set itself — equals the
    // pure-SQL walk's (same trees; domain equality ignores presentation tags).
    let (sql_only, sql_graph) = generate(
        &PrecisionInterfaces::default(),
        olap::random_walk(5, 64).queries,
    );
    assert_eq!(session.graph(), sql_graph);
    assert_eq!(snapshot.interface.widgets(), sql_only.interface.widgets());
    assert_eq!(snapshot.interface.describe(), sql_only.interface.describe());

    // The widget domains carry per-option dialect tags from both front-ends...
    let tags: std::collections::BTreeSet<&str> = snapshot
        .interface
        .widgets()
        .iter()
        .flat_map(|w| w.domain.dialects().iter().map(|d| d.name()))
        .collect();
    assert!(tags.contains("sql") && tags.contains("frames"), "{tags:?}");

    // ...and the compiled page renders every option with its own front-end's renderer.
    let frontends = standard_frontends();
    let layout = EditorLayout::new(&snapshot.interface, 2);
    let html = compile_html_with(&snapshot.interface, &layout, "mixed walk", &frontends);
    assert!(html.contains("\"dialect\":\"sql\""));
    assert!(html.contains("\"dialect\":\"frames\""));
    for widget in snapshot.interface.widgets() {
        for (subtree, dialect) in widget.domain.tagged_subtrees() {
            let rendered = frontends.render(dialect, subtree);
            let json_fragment = format!(
                "{}",
                precision_interfaces::ui::json::Json::string(&rendered)
            );
            assert!(
                html.contains(json_fragment.trim_matches('"')),
                "option `{rendered}` ({dialect}) missing from the page"
            );
        }
    }

    // The initial query renders in the dialect of the log's first entry.
    let initial = frontends.render(
        snapshot.interface.initial_dialect(),
        snapshot.interface.initial_query(),
    );
    assert_eq!(snapshot.interface.initial_dialect(), mixed.dialects[0]);
    assert!(html.contains(&format!("\"initialDialect\":\"{}\"", mixed.dialects[0])));
    assert!(!initial.is_empty());
}

#[test]
fn mining_is_identical_under_shared_and_fresh_subtrees() {
    // The COW refactor makes diff records, widget domains and applied interactions alias
    // subtrees of the log queries.  Sharing must be unobservable: mining a log whose trees
    // are freshly re-parsed (zero sharing) yields a byte-identical graph, diff store and
    // widget set to mining the original (shared) trees.
    let logs: Vec<Vec<Node>> = vec![
        olap::random_walk(3, 64).queries,
        sdss::client_log(sdss::ClientArchetype::ObjectLookup, 2, 64).queries,
        mix::interleave(&sdss::client_logs(4, 16), 1).queries,
    ];
    for queries in logs {
        let (shared, shared_graph) = generate(&PrecisionInterfaces::default(), queries.clone());
        let fresh: Vec<Node> = queries
            .iter()
            .map(|q| parse(&render_sql(q)).expect("workload queries round-trip"))
            .collect();
        let (rebuilt, rebuilt_graph) = generate(&PrecisionInterfaces::default(), fresh);
        assert_eq!(shared_graph, rebuilt_graph);
        assert_eq!(shared.graph_stats, rebuilt.graph_stats);
        assert_eq!(shared.interface.widgets(), rebuilt.interface.widgets());
        assert_eq!(shared.interface.describe(), rebuilt.interface.describe());
        // Every domain subtree's memoized hash stays sound under sharing.
        for widget in shared.interface.widgets() {
            for subtree in widget.domain.subtrees() {
                assert_eq!(subtree.structural_hash(), subtree.recomputed_hash());
            }
        }
    }
}

#[test]
fn dedup_memoized_mining_collapses_work_on_repetitive_logs_without_changing_output() {
    use precision_interfaces::graph::{GraphAccumulator, GraphBuilder, WindowStrategy};
    // A duplicate-heavy mixed SQL + frames log: ~24 distinct shapes over 160 queries.
    let log = frames_logs::repetitive_mixed_walk(7, 160, 24);
    for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(5)] {
        let memoized = GraphBuilder::new().window(window).build(&log.queries);
        let unmemoized = GraphBuilder::new()
            .window(window)
            .memoize(false)
            .build(&log.queries);
        // Byte-identical graphs: same edges, same records at the same DiffId offsets.
        assert_eq!(memoized, unmemoized);
        // And the full pipeline (widgets included) agrees too.
        let (on, on_graph) = generate(
            &PrecisionInterfaces::new(PiOptions {
                window,
                ..PiOptions::default()
            }),
            log.queries.clone(),
        );
        let (off, off_graph) = generate(
            &PrecisionInterfaces::new(PiOptions {
                window,
                memoize: false,
                ..PiOptions::default()
            }),
            log.queries.clone(),
        );
        assert_eq!(on_graph, off_graph);
        assert_eq!(on.interface.widgets(), off.interface.widgets());
        assert_eq!(on.interface.describe(), off.interface.describe());
    }
    // The work actually collapses: an AllPairs stream of all 160 queries runs at most
    // d·(d−1) alignments for the d ≤ 24 distinct shapes (each ordered shape pair is
    // aligned once, into the memo, and hit from the memo ever after), not the
    // 160·159/2 = 12720 the pair enumeration visits.
    let builder = GraphBuilder::new().window(WindowStrategy::AllPairs);
    let mut acc = GraphAccumulator::new();
    for q in &log.queries {
        builder.extend(&mut acc, q.clone());
    }
    let d = acc.distinct();
    assert!(d <= 24, "{d} distinct shapes");
    assert!(
        acc.memo().alignments() <= d * d.saturating_sub(1),
        "{} alignments for {d} shapes",
        acc.memo().alignments()
    );
    assert_eq!(acc.to_graph(), builder.build(&log.queries));
}

#[test]
fn scratch_mutations_on_cow_copies_never_perturb_mining() {
    // Mine a log, then torture every query with mutations applied to COW copies (the
    // enumerate_closure access pattern), then mine again: results must be identical.
    let queries = olap::random_walk(5, 96).queries;
    let (baseline, baseline_graph) = generate(&PrecisionInterfaces::default(), queries.clone());
    for q in &queries {
        let deepest = q
            .preorder()
            .into_iter()
            .map(|(p, _)| p)
            .max_by_key(|p| p.depth())
            .expect("non-empty tree");
        let mut copy = q
            .replaced(&deepest, Node::int(123_456))
            .expect("valid path");
        copy.set_attr("scratch", true);
        if !deepest.is_root() {
            copy.remove_at(&deepest).expect("valid path");
        }
    }
    let (again, again_graph) = generate(&PrecisionInterfaces::default(), queries);
    assert_eq!(baseline_graph, again_graph);
    assert_eq!(baseline.graph_stats, again.graph_stats);
    assert_eq!(baseline.interface.describe(), again.interface.describe());
}
