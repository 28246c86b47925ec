//! The interaction graph data structure.

use pi_ast::Node;
use pi_diff::{DiffId, DiffStore, Run};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// A shared, immutable query log.
///
/// Every structure that needs the log (the graph, the generated interface, experiment
/// harnesses) holds one of these; cloning it copies a pointer, never the queries.
pub type QueryLog = Arc<[Node]>;

/// Conversion into a [`QueryLog`].
///
/// Owned vectors convert by *moving* their queries into the shared allocation; borrowed logs
/// are cloned once; an existing `QueryLog` (or a reference to one) is shared for free.
pub trait IntoQueryLog {
    /// Performs the conversion.
    fn into_query_log(self) -> QueryLog;

    /// Converts into an owned, *growable* log instead — what a streaming ingest appends to.
    ///
    /// Owned vectors move without any copy; everything else (including a `QueryLog`, whose
    /// nodes stay shared with the caller and therefore cannot be moved out) clones its
    /// queries once.
    fn into_query_vec(self) -> Vec<Node>;
}

impl IntoQueryLog for QueryLog {
    fn into_query_log(self) -> QueryLog {
        self
    }

    fn into_query_vec(self) -> Vec<Node> {
        self.to_vec()
    }
}

impl IntoQueryLog for &QueryLog {
    fn into_query_log(self) -> QueryLog {
        Arc::clone(self)
    }

    fn into_query_vec(self) -> Vec<Node> {
        self.to_vec()
    }
}

impl IntoQueryLog for Vec<Node> {
    fn into_query_log(self) -> QueryLog {
        Arc::from(self)
    }

    fn into_query_vec(self) -> Vec<Node> {
        self
    }
}

impl IntoQueryLog for &[Node] {
    fn into_query_log(self) -> QueryLog {
        Arc::from(self)
    }

    fn into_query_vec(self) -> Vec<Node> {
        self.to_vec()
    }
}

impl IntoQueryLog for &Vec<Node> {
    fn into_query_log(self) -> QueryLog {
        Arc::from(self.as_slice())
    }

    fn into_query_vec(self) -> Vec<Node> {
        self.clone()
    }
}

impl<const N: usize> IntoQueryLog for &[Node; N] {
    fn into_query_log(self) -> QueryLog {
        Arc::from(self.as_slice())
    }

    fn into_query_vec(self) -> Vec<Node> {
        self.to_vec()
    }
}

/// A labelled edge of the interaction graph: the interaction `t_k` (a set of leaf diffs)
/// transforms query `from` into query `to`.
///
/// An edge is its compared pair's run in the [`DiffStore`]: the run's leaf records come
/// first, so the label is the record ids `first..first + leaves`, and the run's ancestor
/// records follow them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the source query in the log.
    pub from: usize,
    /// Index of the target query in the log.
    pub to: usize,
    /// The id of the run's first record, its first leaf.
    pub first: DiffId,
    /// The number of leaf records making up the interaction.
    pub leaves: usize,
}

impl Edge {
    /// The edge of one run row of `store`.
    pub(crate) fn of_run(store: &DiffStore, run: &Run) -> Self {
        Edge {
            from: run.from as usize,
            to: run.to as usize,
            first: DiffId(run.first as usize),
            leaves: store.list_leaves(run.list),
        }
    }

    /// The leaf diff records making up the interaction.
    pub fn diffs(&self) -> impl ExactSizeIterator<Item = DiffId> {
        (self.first.0..self.first.0 + self.leaves).map(DiffId)
    }
}

/// The edges of `store`, one per run row, in append order.
pub(crate) fn edges_of_store(store: &DiffStore) -> impl ExactSizeIterator<Item = Edge> + '_ {
    store.runs().iter().map(move |run| Edge::of_run(store, run))
}

/// Summary statistics about a graph, reported by the runtime experiments (Figures 11/12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of vertices (queries).
    pub queries: usize,
    /// Number of labelled edges.
    pub edges: usize,
    /// Number of materialised diff records (leaf + ancestors).
    pub diff_records: usize,
    /// Number of distinct paths across all records (the mapper's partition count).
    pub distinct_paths: usize,
}

/// The interaction graph: queries as vertices, interactions as labelled edges, plus the
/// pair table of diff records the edges refer to — each edge is one run of the table.
///
/// The internals are kept behind accessors so that construction — batch or incremental —
/// stays the exclusive business of `GraphBuilder` / `GraphAccumulator`: a graph in hand is
/// always a consistent snapshot (every edge's `DiffId`s resolve in the store, every vertex
/// index resolves in the log).
///
/// Equality is *structural* over both parts (query content, and the store's runs and
/// records by content, in order) — exactly the "byte-identical graphs" contract the
/// determinism tests (parallel == serial, streaming == batch) assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InteractionGraph {
    /// The input queries, in log order, shared (not cloned) with whoever built the graph.
    pub(crate) queries: QueryLog,
    /// The pair table: the diff records (leaf and ancestor) and the runs that are the edges.
    pub(crate) store: DiffStore,
}

impl InteractionGraph {
    /// Assembles a graph from pre-built parts (the escape hatch for tests and external
    /// builders).  The parts are trusted to be consistent: run endpoints must index into
    /// `queries`.
    pub fn from_parts(queries: impl IntoQueryLog, store: DiffStore) -> Self {
        InteractionGraph {
            queries: queries.into_query_log(),
            store,
        }
    }

    /// The input queries, in log order, shared (not cloned) with whoever built the graph.
    pub fn queries(&self) -> &QueryLog {
        &self.queries
    }

    /// The pair table of diff records (leaf and ancestor) discovered while diffing pairs.
    pub fn store(&self) -> &DiffStore {
        &self.store
    }

    /// The labelled edges, in the order they were discovered (append order).
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        edges_of_store(&self.store)
    }

    /// Summary statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            queries: self.queries.len(),
            edges: self.store.runs().len(),
            diff_records: self.store.len(),
            distinct_paths: self.store.distinct_paths(),
        }
    }

    /// True when every *distinct* query is reachable from the first query, treating edges as
    /// undirected (each interaction has an inverse).  Duplicate queries share their vertex's
    /// connectivity.
    pub fn is_connected(&self) -> bool {
        if self.queries.is_empty() {
            return true;
        }
        if self.store.runs().is_empty() {
            return self.queries.len() <= 1
                || self
                    .queries
                    .iter()
                    .all(|q| q.structural_hash() == self.queries[0].structural_hash());
        }
        let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); self.queries.len()];
        for e in self.edges() {
            adjacent[e.from].push(e.to);
            adjacent[e.to].push(e.from);
        }
        // Identical queries are implicitly connected (zero-cost self loop).
        let mut by_hash: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for (i, q) in self.queries.iter().enumerate() {
            by_hash.entry(q.structural_hash()).or_default().push(i);
        }
        for group in by_hash.values() {
            for pair in group.windows(2) {
                adjacent[pair[0]].push(pair[1]);
                adjacent[pair[1]].push(pair[0]);
            }
        }
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue = VecDeque::from([0usize]);
        seen.insert(0);
        while let Some(v) = queue.pop_front() {
            for &n in &adjacent[v] {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() == self.queries.len()
    }

    /// The earliest query in the log, used as the interface's initial query `q0` (§4.4).
    pub fn initial_query(&self) -> Option<&Node> {
        self.queries.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_diff::{extract_changes, AncestorPolicy};

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn tiny_graph() -> InteractionGraph {
        let q0 = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let q1 = parse("SELECT a FROM t WHERE x = 2").unwrap();
        let q2 = parse("SELECT b FROM t WHERE x = 2").unwrap();
        let mut store = DiffStore::new();
        let qs = [&q0, &q1, &q2];
        for (i, j) in [(0usize, 1usize), (1, 2)] {
            let list = store.push_list(extract_changes(qs[i], qs[j], AncestorPolicy::LcaPruned));
            store.push_run(i, j, list);
        }
        InteractionGraph::from_parts(vec![q0, q1, q2], store)
    }

    #[test]
    fn stats_count_vertices_edges_and_records() {
        let g = tiny_graph();
        let s = g.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.edges, 2);
        assert!(s.diff_records >= 2);
        assert!(s.distinct_paths >= 2);
        // Each edge is labelled with its run's leading leaf records.
        for edge in g.edges() {
            assert!(edge.leaves > 0);
            assert!(edge.diffs().all(|id| g.store().get(id).is_leaf()));
        }
    }

    #[test]
    fn connectivity_and_initial_query() {
        let g = tiny_graph();
        assert!(g.is_connected());
        assert_eq!(
            g.initial_query().unwrap().structural_hash(),
            g.queries[0].structural_hash()
        );
        let empty = InteractionGraph::default();
        assert!(empty.is_connected());
        assert!(empty.initial_query().is_none());
    }
}
