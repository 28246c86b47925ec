//! Property-based tests over the core data structures and invariants.

use pi_ast::{ErrorSample, Node, Path};
use pi_diff::{extract_changes, AncestorPolicy, ChangeKind};
use precision_interfaces::graph::InteractionGraph;
use precision_interfaces::prelude::*;
use proptest::prelude::*;

fn parse(sql: &str) -> Result<Node, FrontendError> {
    SqlFrontend.parse_one(sql)
}

fn render_sql(query: &Node) -> String {
    SqlFrontend.render(query)
}

/// [`PrecisionInterfaces::from_queries`] over `queries`, with the graph
/// [`PrecisionInterfaces::mine`] builds from them: both mine the whole log as one
/// multi-row batch.
fn generate(options: &PiOptions, queries: Vec<Node>) -> (GeneratedInterface, InteractionGraph) {
    let pipeline = PrecisionInterfaces::new(options.clone());
    let graph = pipeline.mine(&queries);
    (pipeline.from_queries(queries), graph)
}

/// Asserts that `session`'s snapshot is what mapping a frozen copy of its graph gives: the
/// interface `map_tagged` makes of `session.graph()` (option dialect tags included) and the
/// graph's stats.
fn assert_snapshot_maps_its_graph(session: &mut Session, what: &str) {
    use precision_interfaces::core::InteractionMapper;
    let snap = session.snapshot();
    let graph = session.graph();
    let options = session.options();
    let mapped = InteractionMapper::new(options.library.clone())
        .with_options(options.mapper)
        .map_tagged(&graph, &session.dialects());
    assert_eq!(snap.graph_stats, graph.stats(), "{what}: stats");
    assert_eq!(
        snap.interface.widgets(),
        mapped.widgets(),
        "{what}: widgets"
    );
    let tags = |interface: &Interface| -> Vec<Vec<Dialect>> {
        interface
            .widgets()
            .iter()
            .map(|w| w.domain.dialects().to_vec())
            .collect()
    };
    assert_eq!(
        tags(&snap.interface),
        tags(&mapped),
        "{what}: option dialects"
    );
    assert_eq!(
        snap.interface.initial_query(),
        mapped.initial_query(),
        "{what}"
    );
    assert_eq!(
        snap.interface.initial_dialect(),
        mapped.initial_dialect(),
        "{what}"
    );
    assert_eq!(snap.interface.describe(), mapped.describe(), "{what}");
}

// ---------------------------------------------------------------- generators

/// A random OLAP-style query over a small vocabulary, written as SQL text and parsed.
fn arb_query() -> impl Strategy<Value = Node> {
    let dims = prop::sample::select(vec!["DestState", "OriginState", "Carrier", "DayOfWeek"]);
    let measures = prop::sample::select(vec!["Delay", "Distance", "Flights"]);
    let aggs = prop::sample::select(vec!["COUNT", "SUM", "AVG", "MAX"]);
    (
        aggs,
        measures,
        dims,
        prop::option::of(1i64..12),
        prop::option::of(1i64..28),
        prop::bool::ANY,
    )
        .prop_map(|(agg, measure, dim, month, day, grouped)| {
            let mut sql = format!("SELECT {agg}({measure}), {dim} FROM ontime");
            let predicates: Vec<String> = (month.map(|m| format!("Month = {m}")).into_iter())
                .chain(day.map(|d| format!("Day = {d}")))
                .collect();
            if !predicates.is_empty() {
                sql += &format!(" WHERE {}", predicates.join(" AND "));
            }
            if grouped {
                sql += &format!(" GROUP BY {dim}");
            }
            parse(&sql).expect("a generated query parses")
        })
}

fn arb_path() -> impl Strategy<Value = Path> {
    prop::collection::vec(0usize..6, 0..6).prop_map(Path::from_steps)
}

/// The store layout the mapper's pair index relies on: every edge's records are one
/// contiguous run of ids that starts at `edge.first`, holds the edge's leaves first
/// (exactly `edge.diffs()`) and then its ancestors, and carries the edge's `(from, to)` on
/// every record; the runs come in edge order and cover the whole store, and no
/// `(from, to)` pair repeats.
fn assert_one_run_per_pair(graph: &precision_interfaces::graph::InteractionGraph, what: &str) {
    use precision_interfaces::diff::DiffId;
    let store = graph.store();
    let edges: Vec<_> = graph.edges().collect();
    let mut pairs = std::collections::HashSet::new();
    let mut next = 0;
    for (k, edge) in edges.iter().enumerate() {
        assert!(
            pairs.insert((edge.from, edge.to)),
            "{what}: pair {k} repeats"
        );
        assert!(edge.leaves > 0, "{what}: edge {k} has no leaves");
        assert_eq!(
            edge.first.0, next,
            "{what}: run {k} does not start where run {k} - 1 ends"
        );
        let end = edges.get(k + 1).map_or(store.len(), |e| e.first.0);
        assert!(
            end >= next + edge.leaves,
            "{what}: runs {k} and {k} + 1 overlap"
        );
        assert!(
            edge.diffs().eq((next..next + edge.leaves).map(DiffId)),
            "{what}: the leaves of run {k}"
        );
        for id in next..end {
            let record = store.get(DiffId(id));
            assert_eq!(
                (record.q1, record.q2),
                (edge.from, edge.to),
                "{what}: record {id} of run {k}"
            );
            let leaf_slot = id - next < edge.leaves;
            assert_eq!(
                record.is_leaf(),
                leaf_slot,
                "{what}: record {id} of run {k}: leaves first"
            );
        }
        next = end;
    }
    assert_eq!(next, store.len(), "{what}: the runs do not cover the store");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------ SQL round trips

    /// Rendering any generated query and re-parsing it yields the identical AST —
    /// structurally identical under the memoized hash, for BOTH front-ends over the same
    /// workload trees (the queries the OLAP walk generates are in both dialects' shared
    /// shape).
    #[test]
    fn sql_render_parse_round_trip(query in arb_query()) {
        let sql = render_sql(&query);
        let reparsed = parse(&sql).expect("rendered SQL parses");
        prop_assert_eq!(reparsed.structural_hash(), query.structural_hash());
        prop_assert_eq!(reparsed, query);
    }

    /// The frames front-end round-trips the same generated workload queries: render to
    /// method-chain text, re-parse, and land on the structurally identical tree.
    #[test]
    fn frames_render_parse_round_trip(query in arb_query()) {
        let text = FramesFrontend.render(&query);
        let reparsed = FramesFrontend.parse_one(&text)
            .unwrap_or_else(|e| panic!("rendered frames `{text}` parses: {e}"));
        prop_assert_eq!(reparsed.structural_hash(), query.structural_hash());
        prop_assert_eq!(reparsed, query);
    }

    /// Cross-dialect identity: rendering a workload query through either front-end and
    /// re-parsing it through that front-end yields one and the same tree — which is what
    /// makes mixed logs diff cleanly.
    #[test]
    fn both_frontends_agree_on_workload_trees(query in arb_query()) {
        let via_sql = parse(&render_sql(&query)).expect("sql round trip");
        let via_frames = FramesFrontend
            .parse_one(&FramesFrontend.render(&query))
            .expect("frames round trip");
        prop_assert_eq!(&via_sql, &via_frames);
        prop_assert_eq!(via_sql.id(), query.id());
    }

    // ------------------------------------------------------------ paths

    /// Path display/parse round-trips, and prefix/LCA relations are consistent.
    #[test]
    fn path_round_trip_and_prefix_laws(a in arb_path(), b in arb_path()) {
        let reparsed: Path = a.to_string().parse().expect("path parses");
        prop_assert_eq!(&reparsed, &a);
        let lca = a.common_prefix(&b);
        prop_assert!(lca.is_prefix_of(&a));
        prop_assert!(lca.is_prefix_of(&b));
        if a.is_prefix_of(&b) && b.is_prefix_of(&a) {
            prop_assert_eq!(&a, &b);
        }
    }

    // ------------------------------------------------------------ diffs

    /// Applying every leaf diff between two queries transforms the first into the second, in
    /// both directions.  The diff of a query with itself is empty.
    #[test]
    fn leaf_diffs_transform_between_queries(a in arb_query(), b in arb_query()) {
        prop_assert!(extract_changes(&a, &a, AncestorPolicy::Full).is_empty());
        let records = extract_changes(&a, &b, AncestorPolicy::Full);
        let forward = pi_diff::apply_leaf_changes(&a, &records).expect("diffs apply");
        prop_assert_eq!(&forward, &b);

        let reverse_records = extract_changes(&b, &a, AncestorPolicy::Full);
        let backward = pi_diff::apply_leaf_changes(&b, &reverse_records).expect("reverse diffs apply");
        prop_assert_eq!(&backward, &a);

        // Every record is classified, and replacements keep both sides.
        for record in &records {
            match record.change_kind() {
                ChangeKind::Replacement => prop_assert!(record.before.is_some() && record.after.is_some()),
                ChangeKind::Addition => prop_assert!(record.before.is_none()),
                ChangeKind::Deletion => prop_assert!(record.after.is_none()),
            }
        }
    }

    // ------------------------------------------------------------ interface generation

    /// Whatever log we hand the pipeline, every *compared* query pair stays covered: for each
    /// consecutive pair, every changed subtree is expressed by some widget, either at its own
    /// path or through a widget at an ancestor path (the coverage invariant behind the g = 1
    /// constraint, which the merging phase must preserve).  Merging never increases the
    /// interface cost.
    #[test]
    fn generated_interfaces_cover_every_compared_pair(queries in prop::collection::vec(arb_query(), 2..10)) {
        let generated = PrecisionInterfaces::default().from_queries(queries.clone());
        for pair in queries.windows(2) {
            let records = extract_changes(&pair[0], &pair[1], AncestorPolicy::LcaPruned);
            let expressed_paths: Vec<Path> = records
                .iter()
                .filter(|r| generated.interface.widgets().iter().any(|w| w.expresses(r)))
                .map(|r| r.path.clone())
                .collect();
            for leaf in records.iter().filter(|r| r.is_leaf) {
                prop_assert!(
                    expressed_paths.iter().any(|p| p.is_prefix_of(&leaf.path)),
                    "change at {} between `{}` and `{}` not covered:\n{}",
                    leaf.path,
                    render_sql(&pair[0]),
                    render_sql(&pair[1]),
                    generated.interface.describe()
                );
            }
        }

        let unmerged = PrecisionInterfaces::new(precision_interfaces::core::PiOptions {
            mapper: precision_interfaces::core::MapperOptions {
                enable_merging: false,
            },
            ..Default::default()
        })
        .from_queries(queries.clone());
        prop_assert!(generated.interface.cost() <= unmerged.interface.cost() + 1e-6);
    }

    // ------------------------------------------------------------ AST core invariants

    /// The memoized structural hash always equals a from-scratch recompute, including after
    /// `replaced`/`removed` mutations at arbitrary valid paths.
    #[test]
    fn memoized_hash_matches_recompute_after_mutations(a in arb_query(), b in arb_query()) {
        prop_assert_eq!(a.structural_hash(), a.recomputed_hash());
        let paths: Vec<Path> = a.preorder().into_iter().map(|(p, _)| p).collect();
        let target = paths[paths.len() / 2].clone();
        let replaced = a.replaced(&target, b.clone()).expect("preorder paths exist");
        prop_assert_eq!(replaced.structural_hash(), replaced.recomputed_hash());
        if !target.is_root() {
            let removed = a.removed(&target).expect("non-root path removal");
            prop_assert_eq!(removed.structural_hash(), removed.recomputed_hash());
            let inserted = removed
                .inserted(&target, b.clone())
                .expect("re-inserting at the removal site");
            prop_assert_eq!(inserted.structural_hash(), inserted.recomputed_hash());
        }
        // Hash equality tracks structural equality.
        prop_assert_eq!(a.structural_hash() == replaced.structural_hash(), a == replaced);
    }

    /// Parallel and serial interaction-graph builds over the same log are identical: same
    /// edges, same diff ids, same records, in the same order.  Two workers on every host and
    /// at every `PI_THREADS`; these logs stay below `PARALLEL_MIN_COST`, so the two-worker
    /// build takes the memo pre-scan path, not the fan-out, which the seeded tests and
    /// `--exp all` at 4 threads cover.
    #[test]
    fn parallel_and_serial_graph_builds_are_identical(
        queries in prop::collection::vec(arb_query(), 2..24),
    ) {
        use precision_interfaces::graph::{GraphBuilder, WindowStrategy};
        for window in [WindowStrategy::AllPairs, WindowStrategy::Sliding(4)] {
            let serial = GraphBuilder::new()
                .window(window)
                .parallel(false)
                .build(queries.clone());
            let parallel = GraphBuilder::new()
                .window(window)
                .parallel(true)
                .threads(2)
                .build(queries.clone());
            prop_assert_eq!(&serial, &parallel);
        }
    }

    /// Attribute-name interning is invisible to rendering: every key round-trips through the
    /// intern table, and a query rebuilt from its rendered SQL renders identically (same text,
    /// same structural identity).
    #[test]
    fn interning_never_changes_render_output(query in arb_query()) {
        use precision_interfaces::ast::Sym;
        query.visit(&mut |node| {
            for (key, _) in node.attrs() {
                assert_eq!(Sym::intern(key.as_str()), *key);
                assert_eq!(Sym::intern(key.as_str()).as_str(), key.as_str());
            }
        });
        let rendered = render_sql(&query);
        let rebuilt = parse(&rendered).expect("rendered SQL parses");
        prop_assert_eq!(render_sql(&rebuilt), rendered);
        prop_assert_eq!(rebuilt.id(), query.id());
    }

    // ------------------------------------------------------------ streaming sessions

    /// The streaming invariant: a `Session` snapshot after `n` pushes is identical to a
    /// batch build of the same `n`-query prefix — same edge list, same diff store (length,
    /// ids and record order), same widget set, same rendered interface — under `AllPairs`
    /// and several sliding windows, for arbitrary interleavings of `push_tagged` and
    /// `snapshot`.
    #[test]
    fn session_snapshots_are_identical_to_batch_builds(
        queries in prop::collection::vec(arb_query(), 1..12),
        snap_every in 1usize..4,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        for window in [
            WindowStrategy::AllPairs,
            WindowStrategy::sliding(2),
            WindowStrategy::sliding(3),
            WindowStrategy::sliding(7),
        ] {
            let options = precision_interfaces::core::PiOptions {
                window,
                ..Default::default()
            };
            let mut session = precision_interfaces::core::Session::new(options.clone());
            for (k, q) in queries.iter().enumerate() {
                prop_assert_eq!(session.push_tagged(Dialect::SQL, q.clone()), k);
                // Interleave snapshots with pushes: every prefix the pattern lands on must
                // match the batch build of exactly that prefix.
                if (k + 1) % snap_every != 0 && k + 1 != queries.len() {
                    continue;
                }
                let snap = session.snapshot();
                let (batch, batch_graph) = generate(&options, queries[..=k].to_vec());
                prop_assert_eq!(snap.version, batch.version);
                prop_assert_eq!(snap.graph_stats, batch.graph_stats);
                // Structural graph equality: same query content, same diff records in the
                // same id order, same edge list.
                prop_assert_eq!(&session.graph(), &batch_graph);
                prop_assert_eq!(snap.interface.widgets(), batch.interface.widgets());
                prop_assert_eq!(snap.interface.describe(), batch.interface.describe());
            }
        }
    }

    /// Streaming SQL text one statement at a time — including unparseable statements —
    /// matches the one-shot `from_sql_log` of the concatenated log: same skip count, same
    /// version, same graph, same interface.
    #[test]
    fn session_sql_text_matches_batch_from_sql_log(
        statements in prop::collection::vec((arb_query(), prop::bool::ANY), 1..10),
    ) {
        let rendered: Vec<String> = statements
            .iter()
            .map(|(q, ok)| {
                if *ok {
                    render_sql(q)
                } else {
                    "THIS IS NOT SQL".to_string()
                }
            })
            .collect();
        let text = rendered.join(";\n");

        let mut session = precision_interfaces::core::Session::new(Default::default());
        for statement in &rendered {
            session.push_stream_tagged([(Dialect::SQL, statement)]);
        }
        let batch = PrecisionInterfaces::default().from_sql_log(&text);

        if session.is_empty() {
            prop_assert!(batch.is_err());
        } else {
            let batch = batch.unwrap();
            let snap = session.snapshot();
            prop_assert_eq!(snap.skipped, batch.skipped);
            prop_assert_eq!(snap.version, batch.version);
            prop_assert_eq!(snap.graph_stats, batch.graph_stats);
            prop_assert_eq!(&session.graph(), &PrecisionInterfaces::default().mine(&batch.queries));
            prop_assert_eq!(snap.interface.widgets(), batch.interface.widgets());
            prop_assert_eq!(snap.interface.describe(), batch.interface.describe());
        }
    }

    /// Mixed-dialect streaming equals mixed-dialect batch: pushing an interleaved SQL +
    /// frames log one *text statement* at a time (each through its own front-end, with
    /// snapshots interleaved) is identical to one bulk tagged append of the whole log —
    /// same graph, same dialect tags, same widgets (including per-option dialect tags),
    /// same rendered interface — under `AllPairs` and sliding windows.
    #[test]
    fn mixed_dialect_session_matches_batch(
        entries in prop::collection::vec((arb_query(), prop::bool::ANY), 1..10),
        snap_every in 1usize..4,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        let tagged: Vec<(Dialect, String)> = entries
            .iter()
            .map(|(q, frames)| {
                if *frames {
                    (Dialect::FRAMES, FramesFrontend.render(q))
                } else {
                    (Dialect::SQL, render_sql(q))
                }
            })
            .collect();
        for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(2), WindowStrategy::sliding(5)] {
            let options = PiOptions { window, ..Default::default() };
            // Streaming: one statement at a time, through the per-dialect text path.
            let mut streamed = Session::new(options.clone());
            for (k, (dialect, text)) in tagged.iter().enumerate() {
                prop_assert_eq!(streamed.push_stream_tagged([(*dialect, text)]), 1);
                prop_assert_eq!(streamed.len(), k + 1);
                if (k + 1) % snap_every == 0 {
                    let _ = streamed.snapshot();
                }
            }
            // Batch: one bulk tagged append of the whole log.
            let mut batch = Session::new(options.clone());
            batch.push_stream_tagged(tagged.iter().map(|(dialect, text)| (*dialect, text)));
            let s = streamed.snapshot();
            let streamed_graph = streamed.graph();
            prop_assert_eq!(&streamed_graph, &batch.graph());
            let b = batch.into_snapshot();
            prop_assert_eq!(s.version, b.version);
            prop_assert_eq!(&s.dialects, &b.dialects);
            prop_assert_eq!(s.graph_stats, b.graph_stats);
            prop_assert_eq!(s.interface.widgets(), b.interface.widgets());
            prop_assert_eq!(s.interface.initial_dialect(), b.interface.initial_dialect());
            prop_assert_eq!(s.interface.describe(), b.interface.describe());
            // And mining stays dialect-blind: an untagged build of the same trees has the
            // identical graph.
            let (_, untagged_graph) =
                generate(&options, entries.iter().map(|(q, _)| q.clone()).collect());
            prop_assert_eq!(&streamed_graph, &untagged_graph);
        }
    }

    // ------------------------------------------------------------ duplicate collapsing

    /// The dedup/alignment memo is invisible: with memoization on or off, batch builds and
    /// interleaved streaming sessions over duplicate-heavy mixed SQL/frames logs produce
    /// byte-identical graphs — same edges, same diff records at the same `DiffId` offsets,
    /// same widgets (per-option dialect tags included), same rendered interface — under
    /// `AllPairs` and sliding windows.
    #[test]
    fn memoized_mining_is_identical_to_unmemoized(
        base in prop::collection::vec((arb_query(), prop::bool::ANY), 2..8),
        dups in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        snap_every in 1usize..4,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        // Inject duplicates: each (source, position) pair re-inserts an existing log entry
        // (query + dialect tag) somewhere in the log, so the final log mixes dialects AND
        // repeats shapes at arbitrary distances.
        let mut log: Vec<(Dialect, Node)> = base
            .iter()
            .map(|(q, frames)| {
                (if *frames { Dialect::FRAMES } else { Dialect::SQL }, q.clone())
            })
            .collect();
        for &(src, pos) in &dups {
            let entry = log[src % log.len()].clone();
            log.insert(pos % (log.len() + 1), entry);
        }
        let queries: Vec<Node> = log.iter().map(|(_, q)| q.clone()).collect();
        for window in [
            WindowStrategy::AllPairs,
            WindowStrategy::sliding(2),
            WindowStrategy::sliding(5),
        ] {
            let memo_on = PiOptions { window, memoize: true, ..Default::default() };
            let memo_off = PiOptions { window, memoize: false, ..Default::default() };
            // Batch builds.
            let (on, on_graph) = generate(&memo_on, queries.clone());
            let (off, off_graph) = generate(&memo_off, queries.clone());
            prop_assert_eq!(on.graph_stats, off.graph_stats);
            prop_assert_eq!(&on_graph, &off_graph);
            prop_assert_eq!(on.interface.widgets(), off.interface.widgets());
            prop_assert_eq!(on.interface.describe(), off.interface.describe());
            // Streaming sessions with interleaved snapshots: the memo persists across
            // pushes, and every snapshot along the way must agree with the memo-off twin.
            let mut s_on = Session::new(memo_on);
            let mut s_off = Session::new(memo_off);
            for (k, (dialect, q)) in log.iter().enumerate() {
                prop_assert_eq!(s_on.push_tagged(*dialect, q.clone()), k);
                prop_assert_eq!(s_off.push_tagged(*dialect, q.clone()), k);
                if (k + 1) % snap_every != 0 && k + 1 != log.len() {
                    continue;
                }
                let a = s_on.snapshot();
                let b = s_off.snapshot();
                prop_assert_eq!(a.version, b.version);
                prop_assert_eq!(&a.dialects, &b.dialects);
                prop_assert_eq!(a.graph_stats, b.graph_stats);
                prop_assert_eq!(&s_on.graph(), &s_off.graph());
                prop_assert_eq!(a.interface.widgets(), b.interface.widgets());
                prop_assert_eq!(a.interface.describe(), b.interface.describe());
            }
            // The streamed memo-on graph equals the memo-off batch build outright.
            prop_assert_eq!(&s_on.graph(), &off_graph);
        }
    }

    // ------------------------------------------------------------ fan-out determinism

    /// Mining's fan-out is invisible: for forced worker counts up to 8 and any seed
    /// (injected through the test-only `steal_seed` hook, which picks the chunk claimed
    /// first and bypasses the cost gate so tiny logs exercise real multi-worker runs), batch
    /// builds and interleaved `push_tagged`/`snapshot` sessions — memo on and off — produce
    /// outputs byte-identical to the single-threaded memoized build: same graph (same
    /// `DiffStore` ids and record order), same widgets, same rendered `describe()`.  Chunk
    /// order, not claim order, defines the output.  The unmemoized builder ignores the
    /// worker count and the seed, so its arm runs once per log, under the forced settings.
    #[test]
    fn work_stealing_is_byte_identical_across_thread_counts_and_steal_orders(
        base in prop::collection::vec((arb_query(), prop::bool::ANY), 2..8),
        dups in prop::collection::vec((0usize..64, 0usize..64), 1..6),
        seed in 0u64..u64::MAX,
        threads in 2usize..9,
        snap_every in 2usize..5,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        // Duplicate injection (as in the memo test) so the memoized paths hit every
        // admission tier while the fan-out runs with a seeded first claim.
        let mut queries: Vec<Node> = base.iter().map(|(q, _)| q.clone()).collect();
        for &(src, pos) in &dups {
            let entry = queries[src % queries.len()].clone();
            queries.insert(pos % (queries.len() + 1), entry);
        }
        for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(3)] {
            let serial = PiOptions { window, threads: 1, ..Default::default() };
            let stolen = PiOptions {
                window,
                threads,
                steal_seed: Some(seed),
                ..Default::default()
            };
            let unmemoized = PiOptions { memoize: false, ..stolen.clone() };
            let (reference, reference_graph) = generate(&serial, queries.clone());
            for options in [&stolen, &unmemoized] {
                let (forced, forced_graph) = generate(options, queries.clone());
                prop_assert_eq!(forced.graph_stats, reference.graph_stats);
                prop_assert_eq!(&forced_graph, &reference_graph);
                prop_assert_eq!(forced.interface.widgets(), reference.interface.widgets());
                prop_assert_eq!(forced.interface.describe(), reference.interface.describe());
            }
            // Interleaved streaming with the seeded first claim: every prefix the snapshot
            // pattern lands on must match the single-threaded batch build of exactly that
            // prefix.
            let mut sessions = [Session::new(stolen), Session::new(unmemoized)];
            for (k, q) in queries.iter().enumerate() {
                for session in &mut sessions {
                    prop_assert_eq!(session.push_tagged(Dialect::SQL, q.clone()), k);
                }
                if (k + 1) % snap_every != 0 && k + 1 != queries.len() {
                    continue;
                }
                let (batch, batch_graph) = generate(&serial, queries[..=k].to_vec());
                for session in &mut sessions {
                    let snap = session.snapshot();
                    prop_assert_eq!(snap.version, batch.version);
                    prop_assert_eq!(&session.graph(), &batch_graph);
                    prop_assert_eq!(snap.interface.widgets(), batch.interface.widgets());
                    prop_assert_eq!(snap.interface.describe(), batch.interface.describe());
                }
            }
        }
    }

    // ------------------------------------------------------------ store layout

    /// Every mining path writes each compared pair's records as one contiguous run (see
    /// `assert_one_run_per_pair`): batch builds, streamed pushes with interleaved
    /// snapshots, memo on with 1 and 4 workers (4 with a seeded first claim), memo
    /// off (once: it ignores the worker count and the seed), and a
    /// `persist → restore → hydrate` round trip.
    #[test]
    fn every_pair_is_one_contiguous_run_of_records(
        base in prop::collection::vec(arb_query(), 2..8),
        dups in prop::collection::vec((0usize..64, 0usize..64), 1..6),
        seed in 0u64..u64::MAX,
        snap_every in 1usize..4,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        let mut queries = base;
        for &(src, pos) in &dups {
            let entry = queries[src % queries.len()].clone();
            queries.insert(pos % (queries.len() + 1), entry);
        }
        for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(3)] {
            for (memoize, threads) in [(true, 1), (true, 4), (false, 4)] {
                let options = PiOptions {
                    window,
                    memoize,
                    threads,
                    steal_seed: (threads > 1).then_some(seed),
                    ..Default::default()
                };
                let what = format!("{window:?} memoize={memoize} threads={threads}");
                let batch = PrecisionInterfaces::new(options.clone()).mine(queries.clone());
                assert_one_run_per_pair(&batch, &format!("batch {what}"));

                let mut session = Session::new(options.clone());
                for (k, q) in queries.iter().enumerate() {
                    session.push_tagged(Dialect::SQL, q.clone());
                    if (k + 1) % snap_every == 0 {
                        let _ = session.snapshot();
                    }
                }
                let streamed = session.graph();
                assert_one_run_per_pair(&streamed, &format!("streamed {what}"));

                let bytes = session.persist_to_vec().expect("persist");
                let mut restored =
                    Session::restore_with(&mut bytes.as_slice(), options).expect("restore");
                restored.hydrate();
                let hydrated = restored.graph();
                assert_one_run_per_pair(&hydrated, &format!("restored {what}"));
                prop_assert_eq!(&hydrated, &streamed);
            }
        }
    }

    /// A snapshot maps the session's records in place, without freezing a graph: at every
    /// version a streamed session snapshots at, its interface equals `map_tagged` over
    /// `session.graph()` and its stats equal that graph's — memo on with 1 and 4 workers
    /// (4 with a seeded first claim), memo off (once: it ignores the worker count
    /// and the seed), and after `persist → restore`, both before and after the restored
    /// session ingests more.
    #[test]
    fn snapshots_equal_mapping_the_session_graph(
        base in prop::collection::vec((arb_query(), prop::bool::ANY), 2..8),
        dups in prop::collection::vec((0usize..64, 0usize..64), 1..6),
        seed in 0u64..u64::MAX,
        snap_every in 1usize..4,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        let mut log: Vec<(Dialect, Node)> = base
            .iter()
            .map(|(q, frames)| {
                (if *frames { Dialect::FRAMES } else { Dialect::SQL }, q.clone())
            })
            .collect();
        for &(src, pos) in &dups {
            let entry = log[src % log.len()].clone();
            log.insert(pos % (log.len() + 1), entry);
        }
        let (head, tail) = log.split_at(log.len() / 2 + 1);
        for (memoize, threads) in [(true, 1), (true, 4), (false, 4)] {
            let options = PiOptions {
                window: WindowStrategy::sliding(3),
                memoize,
                threads,
                steal_seed: (threads > 1).then_some(seed),
                ..Default::default()
            };
            let what = format!("memoize={memoize} threads={threads}");
            let mut session = Session::new(options.clone());
            for (k, (dialect, q)) in head.iter().enumerate() {
                session.push_tagged(*dialect, q.clone());
                if (k + 1) % snap_every == 0 {
                    assert_snapshot_maps_its_graph(&mut session, &format!("streamed {what}"));
                }
            }
            assert_snapshot_maps_its_graph(&mut session, &format!("streamed {what}"));

            let bytes = session.persist_to_vec().expect("persist");
            let mut restored =
                Session::restore_with(&mut bytes.as_slice(), options).expect("restore");
            assert_snapshot_maps_its_graph(&mut restored, &format!("restored {what}"));
            for (k, (dialect, q)) in tail.iter().enumerate() {
                restored.push_tagged(*dialect, q.clone());
                if (k + 1) % snap_every == 0 {
                    assert_snapshot_maps_its_graph(&mut restored, &format!("restored {what}"));
                }
            }
            assert_snapshot_maps_its_graph(&mut restored, &format!("restored {what}"));
        }
    }

    // ------------------------------------------------------------ streaming text ingest

    /// The trace-scale streaming path (`push_stream_tagged`: chunked batch extends, the
    /// parse cache, lossy error sampling) is invisible: streaming a mixed-dialect line
    /// soup with duplicates and garbage leaves the session byte-identical to a cache-free
    /// reference — each line parsed by its front-end's `parse_statements_lossy`, its trees
    /// appended one `push_tagged` at a time, its skips counted here — with the same
    /// appended/skip counts, same distinct trees, same graph, same interface, across
    /// worker counts and memo on/off.
    #[test]
    fn streamed_text_ingest_is_identical_to_per_fragment_pushes(
        base in prop::collection::vec((arb_query(), prop::bool::ANY), 2..8),
        dups in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        garbage_at in prop::collection::vec(0usize..64, 0..4),
        threads in 1usize..5,
        memoize in prop::bool::ANY,
    ) {
        use precision_interfaces::graph::WindowStrategy;
        // Duplicate-heavy mixed-dialect lines (the parse cache and dedup layers both
        // engage), with unparseable lines interleaved at arbitrary positions.
        let mut lines: Vec<(Dialect, String)> = base
            .iter()
            .map(|(q, frames)| {
                if *frames {
                    (Dialect::FRAMES, FramesFrontend.render(q))
                } else {
                    (Dialect::SQL, render_sql(q))
                }
            })
            .collect();
        for &(src, pos) in &dups {
            let entry = lines[src % lines.len()].clone();
            lines.insert(pos % (lines.len() + 1), entry);
        }
        for &pos in &garbage_at {
            lines.insert(pos % (lines.len() + 1), (Dialect::SQL, "%% garbage %%".to_string()));
        }
        let opts = PiOptions {
            window: WindowStrategy::sliding(4),
            memoize,
            threads,
            ..Default::default()
        };
        let mut streamed = Session::new(opts.clone());
        let appended = streamed.push_stream_tagged(lines.iter().map(|(d, t)| (*d, t.as_str())));
        let mut stepped = Session::new(opts);
        let mut stepped_appended = 0usize;
        let mut stepped_skipped = 0usize;
        let mut stepped_errors = ErrorSample::new(ErrorSample::DEFAULT_CAPACITY);
        let frontends = stepped.frontends().clone();
        for (dialect, text) in &lines {
            let Some(frontend) = frontends.get(*dialect) else {
                stepped_skipped += 1;
                stepped_errors.offer_with(|| FrontendError::new(*dialect, "unregistered"));
                continue;
            };
            let mut trees = Vec::new();
            stepped_skipped +=
                frontend.parse_statements_lossy(text, &mut trees, &mut stepped_errors);
            for tree in trees {
                stepped.push_tagged(*dialect, tree);
                stepped_appended += 1;
            }
        }
        prop_assert_eq!(appended, stepped_appended);
        prop_assert_eq!(streamed.skipped(), stepped_skipped);
        prop_assert_eq!(streamed.parse_errors().seen(), stepped_errors.seen());
        prop_assert_eq!(streamed.distinct(), stepped.distinct());
        prop_assert_eq!(&streamed.graph(), &stepped.graph());
        let a = streamed.snapshot();
        let b = stepped.snapshot();
        prop_assert_eq!(&a.dialects, &b.dialects);
        prop_assert_eq!(a.graph_stats, b.graph_stats);
        prop_assert_eq!(a.interface.widgets(), b.interface.widgets());
        prop_assert_eq!(a.interface.describe(), b.interface.describe());
    }

    // ------------------------------------------------------------ COW aliasing

    /// The copy-on-write contract: `replaced()` shares every subtree off the root→path spine
    /// with the original (physical `Arc` sharing, observed via [`Node::ptr_eq`]), further
    /// mutation of the copy never changes the original, and the memoized hashes of both
    /// trees stay equal to a from-scratch recompute under all that sharing.
    #[test]
    fn cow_copies_share_subtrees_and_mutations_never_alias_back(
        a in arb_query(),
        b in arb_query(),
    ) {
        let paths: Vec<Path> = a.preorder().into_iter().map(|(p, _)| p).collect();
        let target = paths[paths.len() / 2].clone();
        let pristine_render = render_sql(&a);
        let pristine_hash = a.structural_hash();

        let mut copy = a.replaced(&target, b.clone()).expect("preorder paths exist");
        // Untouched top-level siblings are the same physical allocation, not equal clones.
        if let Some(&first) = target.steps().first() {
            for (i, child) in a.children().iter().enumerate() {
                if i != first {
                    prop_assert!(
                        child.ptr_eq(&copy.children()[i]),
                        "untouched sibling {i} must be shared"
                    );
                }
            }
        }
        // Pile mutations onto the aliased copy; the original must stay byte-identical.
        copy.set_attr("distinct", true);
        if !target.is_root() {
            let _ = copy.remove_at(&target);
        }
        let _ = copy.replaced(&Path::root(), b);
        prop_assert_eq!(render_sql(&a), pristine_render);
        prop_assert_eq!(a.structural_hash(), pristine_hash);
        prop_assert_eq!(a.structural_hash(), a.recomputed_hash());
        prop_assert_eq!(copy.structural_hash(), copy.recomputed_hash());
    }

    // ------------------------------------------------------------ widget domains

    /// Slider extrapolation: any value between the observed minimum and maximum is considered
    /// expressible; values outside are not.
    #[test]
    fn slider_extrapolation_respects_the_observed_range(
        mut values in prop::collection::vec(-1000i64..1000, 2..8),
        probe in -1000i64..1000,
    ) {
        use precision_interfaces::widgets::{Domain, WidgetLibrary};
        let domain = Domain::from_subtrees(values.iter().map(|v| Node::int(*v)));
        values.sort_unstable();
        let (lo, hi) = (values[0], values[values.len() - 1]);
        let widget = WidgetLibrary::standard()
            .pick(Path::root(), domain, vec![])
            .expect("numeric domains always map to a widget");
        let expressible = widget.can_express_subtree(Some(&Node::int(probe)));
        if probe >= lo && probe <= hi {
            prop_assert!(expressible);
        }
        if probe < lo || probe > hi {
            // Enumerating widgets may still express an exact member; anything else outside the
            // range must be rejected.
            if !values.contains(&probe) {
                prop_assert!(!expressible);
            }
        }
    }
}
