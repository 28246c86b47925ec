//! The end-to-end Precision Interfaces pipeline (Figure 2a).
//!
//! `query log → parse → interaction mining (graph) → interaction mapping (widgets) → interface`
//!
//! The pipeline reports per-stage wall-clock timings and graph statistics because the runtime
//! experiments (Figures 11 and 12, Appendix B) are defined in exactly those terms: number of
//! interaction-graph edges, interaction mining time, and interface mapping time.

use crate::interface::Interface;
use crate::mapper::{InteractionMapper, MapperOptions};
use crate::session::Session;
use pi_ast::Dialect;
use pi_diff::AncestorPolicy;
use pi_graph::{
    GraphBuilder, GraphStats, InteractionGraph, IntoQueryLog, QueryLog, WindowStrategy,
};
use pi_widgets::WidgetLibrary;
use std::fmt;

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct PiOptions {
    /// Pair enumeration strategy (sliding window vs all pairs, §6.1).
    pub window: WindowStrategy,
    /// Ancestor materialisation policy (LCA pruning, §6.2).
    pub policy: AncestorPolicy,
    /// Align each batch's missing distinct shape pairs across cores — mining's one
    /// fan-out, which only the memoized builder has (see [`PiOptions::memoize`]).
    pub parallel: bool,
    /// Worker-thread override for that fan-out (default `0` = automatic).
    ///
    /// `0` resolves to the `PI_THREADS` environment variable if set to a positive integer,
    /// else to every available core when [`PiOptions::parallel`] is on, else serial.  An
    /// explicit `n ≥ 1` wins over both: `1` forces the serial path, `n > 1` enables the
    /// fan-out with up to `n` workers even when `parallel` is off.  The mined graph is
    /// byte-identical at every setting — worker count only redistributes the work.
    pub threads: usize,
    /// Test-only hook: bypasses the fan-out's cost gate, so property tests can drive tiny
    /// logs through it, and picks which chunk of missing pairs the workers claim first.
    /// `None` (the default) in production.  Snapshots are byte-identical for every seed —
    /// chunk results are appended in chunk order, never claim order (property-tested).
    pub steal_seed: Option<u64>,
    /// Collapse duplicate queries and memoize pairwise alignments per distinct tree pair
    /// (on by default; beyond the paper's optimisations).  The mined graph is
    /// byte-identical either way — this knob exists for A/B measurement of the memo.  Off,
    /// mining runs the serial unmemoized reference builder, which `parallel`, `threads` and
    /// `steal_seed` do not steer.
    pub memoize: bool,
    /// The widget type library (and cost functions) available to the mapper.
    pub library: WidgetLibrary,
    /// Mapper options (merging on or off).
    pub mapper: MapperOptions,
}

impl Default for PiOptions {
    fn default() -> Self {
        PiOptions {
            window: WindowStrategy::Sliding(2),
            policy: AncestorPolicy::LcaPruned,
            parallel: false,
            threads: 0,
            steal_seed: None,
            memoize: true,
            library: WidgetLibrary::standard(),
            mapper: MapperOptions::default(),
        }
    }
}

impl PiOptions {
    /// The unoptimised baseline configuration: all pairs, full ancestor closure.
    pub fn baseline() -> Self {
        PiOptions {
            window: WindowStrategy::AllPairs,
            policy: AncestorPolicy::Full,
            ..PiOptions::default()
        }
    }
}

/// Wall-clock timings of the pipeline stages, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Parsing the SQL text into ASTs (zero when the input was already parsed).
    pub parse_ms: f64,
    /// Interaction mining: pairwise tree alignment and interaction-graph construction.
    pub mining_ms: f64,
    /// Interaction mapping: widget initialisation and merging.
    pub mapping_ms: f64,
}

impl StageTimings {
    /// Total end-to-end latency.
    pub fn total_ms(&self) -> f64 {
        self.parse_ms + self.mining_ms + self.mapping_ms
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse {:.1}ms, mining {:.1}ms, mapping {:.1}ms (total {:.1}ms)",
            self.parse_ms,
            self.mining_ms,
            self.mapping_ms,
            self.total_ms()
        )
    }
}

/// Errors the pipeline can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The log contained no parsable queries at all.
    EmptyLog,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyLog => write!(f, "the query log contains no parsable queries"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The output of a pipeline run: the interface plus everything the experiments report.
///
/// Versioned: `version` is the number of queries the producing [`Session`] had ingested at
/// snapshot time, and snapshots with equal versions have identical stats and interfaces
/// (only the bookkeeping differs: `skipped` counts unparseable statements, which don't bump
/// the version, and `timings` keep accumulating).  A batch build of `n` queries is the
/// snapshot at version `n`.
///
/// The mined graph itself is not part of the result: the mapper reads the session's
/// records in place.  Callers that want the graph ask for it with [`Session::graph`] or
/// [`PrecisionInterfaces::mine`].
#[derive(Debug, Clone)]
pub struct GeneratedInterface {
    /// The generated interactive interface.
    pub interface: Interface,
    /// The parsed queries that were used (unparseable log entries are dropped and counted).
    /// Shared: every snapshot of one session version holds the same allocation.
    pub queries: QueryLog,
    /// The dialect each query arrived in, parallel to `queries`.  Batch entry points tag
    /// every query with the front-end they parsed with; mixed-front-end sessions carry one
    /// tag per push.
    pub dialects: Vec<Dialect>,
    /// Number of log entries that failed to parse and were skipped.
    pub skipped: usize,
    /// Interaction-graph statistics (edge and record counts).
    pub graph_stats: GraphStats,
    /// Per-stage timings.  For a streaming session every stage *accumulates* — parse over
    /// all streamed text, mining over all appends, mapping over all snapshot refreshes —
    /// so this is the only field of a snapshot that is not batch-identical.
    pub timings: StageTimings,
    /// The number of queries ingested when this snapshot was taken.
    pub version: u64,
}

/// The Precision Interfaces system: configure once, run over query logs.
#[derive(Debug, Clone, Default)]
pub struct PrecisionInterfaces {
    options: PiOptions,
}

impl PrecisionInterfaces {
    /// Creates a pipeline with the given options.
    pub fn new(options: PiOptions) -> Self {
        PrecisionInterfaces { options }
    }

    /// The options this pipeline runs with.
    pub fn options(&self) -> &PiOptions {
        &self.options
    }

    /// Opens a streaming [`Session`] with this pipeline's options.
    ///
    /// The one-shot entry points below are thin wrappers over such a session — a session
    /// snapshot after `n` pushes is identical to a batch run over those `n` queries.
    pub fn session(&self) -> Session {
        Session::new(self.options.clone())
    }

    /// Runs the pipeline over a textual query log (statements separated by semicolons) in
    /// the given dialect, parsed by the matching front-end of the standard registry.  The
    /// log goes through [`Session::push_stream_tagged`], the one text route every session
    /// ingests by.
    ///
    /// Unparseable statements are skipped (and counted in
    /// [`GeneratedInterface::skipped`]) rather than aborting the run — real query logs contain
    /// typos and statements in unsupported dialects.
    pub fn from_text(
        &self,
        dialect: Dialect,
        log: &str,
    ) -> Result<GeneratedInterface, PipelineError> {
        let mut session = self.session();
        session.push_stream_tagged([(dialect, log)]);
        if session.is_empty() {
            return Err(PipelineError::EmptyLog);
        }
        Ok(session.into_snapshot())
    }

    /// Runs the pipeline over a textual SQL log.
    ///
    /// A SQL-dialect convenience kept for the workspace's founding front-end: exactly
    /// `from_text(Dialect::SQL, log)`, with no behaviour of its own (pinned by a unit
    /// test).  Prefer [`PrecisionInterfaces::from_text`] when the dialect is a parameter.
    pub fn from_sql_log(&self, log: &str) -> Result<GeneratedInterface, PipelineError> {
        self.from_text(Dialect::SQL, log)
    }

    /// Runs the pipeline over an already-parsed query log by appending it to a [`Session`]
    /// as one batch — batch and streaming deliberately share one code path.  The wrapper
    /// stays cheap: owned `Vec<Node>` logs *move* into the session
    /// ([`IntoQueryLog::into_query_vec`]) and the consuming [`Session::into_snapshot`]
    /// maps the session's records in place and moves the interface out, so the only copy
    /// is for `Arc`'d inputs whose caller keeps sharing the nodes.
    pub fn from_queries(&self, queries: impl IntoQueryLog) -> GeneratedInterface {
        let mut session = self.session();
        session.push_batch(queries.into_query_vec());
        session.into_snapshot()
    }

    /// The interaction-mining stage alone (exposed for the runtime experiments).
    pub fn mine(&self, queries: impl IntoQueryLog) -> InteractionGraph {
        GraphBuilder::new()
            .window(self.options.window)
            .policy(self.options.policy)
            .parallel(self.options.parallel)
            .threads(self.options.threads)
            .steal_seed(self.options.steal_seed)
            .memoize(self.options.memoize)
            .build(queries)
    }

    /// The interaction-mapping stage alone (exposed for the runtime experiments).
    /// Widget options get default dialect tags; use
    /// [`InteractionMapper::map_tagged`] directly when per-query dialects matter.
    pub fn map(&self, graph: &InteractionGraph) -> Interface {
        mapper(&self.options).map(graph)
    }
}

/// The mapper these options configure — the one construction shared by batch runs and
/// session snapshots.
pub(crate) fn mapper(options: &PiOptions) -> InteractionMapper {
    InteractionMapper::new(options.library.clone()).with_options(options.mapper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::{Frontend as _, Node};

    fn parse(sql: &str) -> Node {
        pi_sql::SqlFrontend.parse_one(sql).unwrap()
    }

    #[test]
    fn pipeline_reports_timings_and_stats() {
        let log = "
            SELECT a FROM t WHERE x = 1;
            SELECT a FROM t WHERE x = 2;
            SELECT a FROM t WHERE x = 3;
        ";
        let out = PrecisionInterfaces::default().from_sql_log(log).unwrap();
        assert_eq!(out.queries.len(), 3);
        assert_eq!(out.skipped, 0);
        assert_eq!(out.version, 3);
        assert!(out.graph_stats.edges >= 2);
        // The stats are those of the graph mined from the same queries.
        assert_eq!(
            PrecisionInterfaces::default().mine(&out.queries).stats(),
            out.graph_stats
        );
        assert!(out.timings.total_ms() >= 0.0);
        assert!(out.timings.to_string().contains("total"));
    }

    #[test]
    fn unparseable_statements_are_skipped_not_fatal() {
        let log = "
            SELECT a FROM t WHERE x = 1;
            THIS IS NOT SQL AT ALL;
            SELECT a FROM t WHERE x = 2;
        ";
        let out = PrecisionInterfaces::default().from_sql_log(log).unwrap();
        assert_eq!(out.queries.len(), 2);
        assert_eq!(out.skipped, 1);
    }

    #[test]
    fn an_empty_log_is_an_error() {
        let err = PrecisionInterfaces::default()
            .from_sql_log("   ")
            .unwrap_err();
        assert_eq!(err, PipelineError::EmptyLog);
        assert!(err.to_string().contains("no parsable"));
        let err = PrecisionInterfaces::default()
            .from_sql_log("completely broken;")
            .unwrap_err();
        assert_eq!(err, PipelineError::EmptyLog);
    }

    #[test]
    fn from_sql_log_is_a_pinned_alias_of_the_generic_path() {
        // Deprecation hygiene: the SQL convenience must stay byte-identical to
        // from_text(Dialect::SQL, …) — same queries, same dialect tags, same interface.
        let log = "
            SELECT a FROM t WHERE x = 1;
            SELECT a FROM t WHERE x = 2;
            BROKEN STATEMENT;
        ";
        let via_alias = PrecisionInterfaces::default().from_sql_log(log).unwrap();
        let via_generic = PrecisionInterfaces::default()
            .from_text(Dialect::SQL, log)
            .unwrap();
        assert_eq!(via_alias.version, via_generic.version);
        assert_eq!(via_alias.skipped, via_generic.skipped);
        let pipeline = PrecisionInterfaces::default();
        assert_eq!(
            pipeline.mine(&via_alias.queries),
            pipeline.mine(&via_generic.queries)
        );
        assert_eq!(via_alias.dialects, via_generic.dialects);
        assert_eq!(via_alias.dialects, vec![Dialect::SQL; 2]);
        assert_eq!(
            via_alias.interface.widgets(),
            via_generic.interface.widgets()
        );
        assert_eq!(via_alias.interface.initial_dialect(), Dialect::SQL);
    }

    #[test]
    fn from_text_routes_through_the_matching_frontend() {
        let frames_log = "
            ontime.filter(Month == 9).groupby(DestState).agg(COUNT(Delay));
            ontime.filter(Month == 3).groupby(DestState).agg(COUNT(Delay));
        ";
        let generated = PrecisionInterfaces::default()
            .from_text(Dialect::FRAMES, frames_log)
            .unwrap();
        assert_eq!(generated.version, 2);
        assert_eq!(generated.dialects, vec![Dialect::FRAMES; 2]);
        assert_eq!(generated.interface.initial_dialect(), Dialect::FRAMES);
        assert_eq!(generated.interface.widgets().len(), 1);
        // The frames log mines exactly like the equivalent SQL log — one tree model.
        let sql_log = "
            SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState;
            SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 3 GROUP BY DestState;
        ";
        let sql = PrecisionInterfaces::default()
            .from_sql_log(sql_log)
            .unwrap();
        let pipeline = PrecisionInterfaces::default();
        assert_eq!(
            pipeline.mine(&generated.queries),
            pipeline.mine(&sql.queries)
        );
        assert_eq!(generated.interface.describe(), sql.interface.describe());
    }

    #[test]
    fn baseline_options_use_all_pairs_and_full_ancestors() {
        let options = PiOptions::baseline();
        assert_eq!(options.window, WindowStrategy::AllPairs);
        assert_eq!(options.policy, AncestorPolicy::Full);
    }

    #[test]
    fn baseline_has_more_edges_and_records_than_the_optimised_pipeline() {
        let queries: Vec<Node> = (0..20)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {i}")))
            .collect();
        let optimised = PrecisionInterfaces::default().from_queries(queries.clone());
        let baseline = PrecisionInterfaces::new(PiOptions::baseline()).from_queries(queries);
        assert!(baseline.graph_stats.edges > optimised.graph_stats.edges);
        assert!(baseline.graph_stats.diff_records > optimised.graph_stats.diff_records);
    }
}
