//! Graph construction: pair enumeration strategies and (optionally parallel) pairwise diffing.
//!
//! Construction is defined *incrementally*: appending query `j` to a log compares it against
//! the predecessors the [`WindowStrategy`] admits (its `j - 1` predecessors for
//! [`WindowStrategy::AllPairs`], the previous `w - 1` for a sliding window), and appends the
//! resulting diff records and edge to the growing graph.  A batch [`GraphBuilder::build`] is
//! exactly the fold of [`GraphBuilder::extend`] over the log, so a streaming session that
//! appends queries one at a time produces a graph byte-identical to a one-shot build of the
//! same prefix — the invariant `pi-core`'s `Session` is built on.
//!
//! With memoization on (the default), each distinct ordered pair of shape classes is aligned
//! once, the first time the memo meets it, and every log pair of those classes streams the
//! memoized change list into the store.  The unmemoized builder aligns every log pair and
//! stays as the reference the memoized one is tested against.
//!
//! Parallel mining is cost-modelled and work-stealing: work items are packed into blocks of
//! comparable *estimated alignment cost* ([`pi_diff::align_cost_model`] over cached node
//! counts) and executed by the [`steal`](crate::steal) scheduler, whose determinism
//! contract — block order, not steal order, defines the output — keeps every parallel build
//! byte-identical to the serial fold.  The memoized builder fans out a batch's missing
//! distinct class pairs and then appends serially; the unmemoized one fans out the log
//! pairs themselves.  The fan-out only engages when the estimated work would amortise the
//! thread-scope overhead (`PARALLEL_MIN_COST`), so small batches and latency-sensitive
//! single-query extends never pay for threads they cannot use.

use crate::dedup::{pair_key, DedupTable, DiffMemo, PairKeyHasher};
use crate::graph::{Edge, GraphStats, InteractionGraph, IntoQueryLog, QueryLog};
use crate::steal;
use pi_ast::Node;
use pi_diff::{
    align_cost_model, extract_changes, extract_diffs, AncestorPolicy, DiffId, DiffRecord,
    DiffStore, TreeChange,
};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::OnceLock;

/// The estimated new work, in [`pi_diff::align_cost_model`] units, below which mining stays
/// serial even when multiple workers are available.
///
/// Calibration, from the committed `BENCH_mining.json` anchors: `mine_sliding16` runs 7,936
/// pair alignments over ~30-node trees (≈ 900 units each, ≈ 7.1 M units total) in ≈ 11.5 ms
/// serial — ≈ 1.6 ns per unit.  600 k units therefore correspond to ≈ 1 ms of serial
/// alignment work, well above the measured tens-of-microseconds cost of a scoped
/// spawn/join cycle, so a batch that crosses the gate has real work to amortise the fan-out
/// against.  The old `new_pairs > 32` gate counted pairs instead of work and sent 32-pair
/// batches of tiny trees (≈ 30 µs of alignment) through the thread scope — the root of the
/// `mine_sliding16` parallel regression this gate fixes.
const PARALLEL_MIN_COST: u64 = 600_000;

/// Floor on a block's estimated cost (≈ 25 µs of alignment work) so stealing never
/// degenerates into per-pair deque traffic when a workload is dominated by near-zero-cost
/// pairs (identical shapes, memo hits).
const MIN_BLOCK_COST: u64 = 16_000;

/// Target number of blocks dealt per worker: enough slack for stealing to balance the
/// triangular AllPairs tail (late rows have more predecessors than early ones) without
/// flooding the deques with tiny blocks.
const BLOCKS_PER_WORKER: u64 = 8;

/// Width, in distinct-class ids, of the square tiles the memo pre-alignment pass iterates:
/// pairs are sorted so one tile touches at most `2 · CLASS_TILE` representatives, keeping
/// both trees of every alignment in flight hot in cache.
const CLASS_TILE: u32 = 8;

/// Parses a `PI_THREADS` override value: `Ok(Some(n))` forces `n` mining workers,
/// `Ok(None)` for the explicit "no override" spellings (empty or `0`), and `Err` for
/// anything else — a typo like `PI_THREADS=fourteen` must not be silently indistinguishable
/// from the variable being unset.
fn parse_thread_override(value: &str) -> Result<Option<usize>, ()> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(()),
    }
}

/// The process-wide `PI_THREADS` override, read once per process.  CI sets it before launch
/// to force every builder in a test run through one scheduler configuration — the serial
/// and 4-worker runs must both reproduce the same graphs bit for bit, so a single-core
/// runner cannot mask a multi-thread identity bug.
///
/// A malformed value is ignored, but *loudly*: one `eprintln!` per process (the `OnceLock`
/// guarantees the once), so a `PI_THREADS=four` typo shows up in the log instead of
/// silently running the auto-sizing policy the operator thought they had overridden.
fn env_thread_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("PI_THREADS") {
        Ok(value) => parse_thread_override(&value).unwrap_or_else(|()| {
            eprintln!(
                "PI_THREADS={value:?} is not a valid worker count (expected a positive \
                 integer); ignoring the override"
            );
            None
        }),
        Err(_) => None,
    })
}

/// Which query pairs are compared when building the interaction graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowStrategy {
    /// Compare every pair of queries (`O(|Q|²)` alignments) — the unoptimised baseline.
    AllPairs,
    /// Compare only queries within a sliding window of the given size over the log order
    /// (§6.1).  A window of 2 compares consecutive queries only.
    ///
    /// Prefer constructing this through [`WindowStrategy::sliding`], which normalises the
    /// window size.  A degenerate `Sliding(w)` with `w < 2` is still accepted and clamped to
    /// 2 wherever pairs are enumerated, but new code should not rely on that clamp — it
    /// exists only so that historical configurations keep working.
    Sliding(usize),
}

impl WindowStrategy {
    /// A sliding window of size `w`, normalised.
    ///
    /// A window below 2 cannot compare anything (a pair needs two queries), so `w < 2` is
    /// normalised to 2 — the paper's minimum, which compares consecutive queries only.  This
    /// constructor makes the degenerate case explicit at construction time instead of
    /// silently clamping deep inside pair enumeration.
    pub fn sliding(w: usize) -> Self {
        WindowStrategy::Sliding(w.max(2))
    }

    /// The `j` partners compared with query `i` (always `j > i`) in a log of `n` queries.
    pub fn row_pairs(self, i: usize, n: usize) -> Range<usize> {
        match self {
            WindowStrategy::AllPairs => (i + 1)..n,
            WindowStrategy::Sliding(w) => (i + 1)..n.min(i + w.max(2)),
        }
    }

    /// The predecessors `i` an *appended* query `j` is compared against (always `i < j`).
    ///
    /// This is the adjoint of [`WindowStrategy::row_pairs`]: `i ∈ prev_pairs(j)` exactly when
    /// `j ∈ row_pairs(i, j + 1)`.  It is the unit of incremental construction — when a log
    /// grows by one query, these are precisely the new alignments to run, and for a sliding
    /// window there are at most `w - 1` of them regardless of how long the log already is.
    pub fn prev_pairs(self, j: usize) -> Range<usize> {
        match self {
            WindowStrategy::AllPairs => 0..j,
            WindowStrategy::Sliding(w) => j.saturating_sub(w.max(2) - 1)..j,
        }
    }

    /// Enumerates the `(i, j)` pairs (with `i < j`) this strategy compares for a log of
    /// `n` queries, in *append order*: all partners of query 1, then of query 2, and so on —
    /// the order in which a streaming ingest discovers them.
    ///
    /// Lazily: `AllPairs` over a large log never materialises its `O(n²)` pair list.
    pub fn pairs(self, n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..n).flat_map(move |j| self.prev_pairs(j).map(move |i| (i, j)))
    }

    /// The exact number of pairs [`WindowStrategy::pairs`] yields, in closed form.
    pub fn pair_count(self, n: usize) -> usize {
        match self {
            WindowStrategy::AllPairs => n * n.saturating_sub(1) / 2,
            WindowStrategy::Sliding(w) => {
                // Each row i contributes min(k, (n-1) - i) pairs, where k is the max offset.
                let k = w.max(2) - 1;
                let m = n.saturating_sub(1);
                if m <= k {
                    m * (m + 1) / 2
                } else {
                    k * (m - k) + k * (k + 1) / 2
                }
            }
        }
    }
}

/// The growable state behind an incremental graph build: the log ingested so far —
/// **arena-backed**: one retained [`Node`] per *distinct* tree shape plus a 4-byte class id
/// per row — the append-only [`DiffStore`], and the edges discovered per appended query.
///
/// Duplicate queries resolve to their distinct-tree id at ingest and the duplicate tree is
/// dropped, so a million-query log of `d` distinct shapes retains `d` trees, not a million.
/// Row indices are unchanged everywhere else: the store and edges keep indexing by log row,
/// and [`GraphAccumulator::to_graph`] materialises the full row-indexed [`QueryLog`] (one
/// refcount bump per row) so frozen graphs are byte-identical to pre-arena builds
/// (property-tested).
///
/// Grown one query at a time with [`GraphBuilder::extend`]; frozen into an
/// [`InteractionGraph`] with [`GraphAccumulator::to_graph`].  Because the store is
/// append-only, every `DiffId` handed out while extending stays valid — and identical —
/// across all later snapshots.
#[derive(Debug, Clone, Default)]
pub struct GraphAccumulator {
    /// Row storage: distinct-tree arena + per-row class ids.  Always maintained (with the
    /// memo on *or* off) — this is the accumulator's query log, not an optimisation.
    pub(crate) dedup: DedupTable,
    pub(crate) store: DiffStore,
    pub(crate) edges: Vec<Edge>,
    /// The duplicate-collapsing alignment memo, persisted across extends so a streaming
    /// session pays one alignment per distinct ordered tree pair over its whole lifetime.
    /// Never observable in the graph: snapshots are byte-identical with or without it.
    pub(crate) memo: DiffMemo,
}

impl GraphAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries ingested so far.
    pub fn len(&self) -> usize {
        self.dedup.len()
    }

    /// True when no query has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.dedup.is_empty()
    }

    /// Number of distinct tree shapes among the ingested queries (`d ≤ n`).
    pub fn distinct(&self) -> usize {
        self.dedup.distinct()
    }

    /// The query at log row `idx` — the retained representative of its shape class,
    /// structurally identical to the query that was pushed.
    pub fn query(&self, idx: usize) -> &Node {
        self.dedup.representative(self.dedup.class_of(idx))
    }

    /// The arena-backed row storage: distinct-tree classes plus per-row class ids.
    pub fn dedup(&self) -> &DedupTable {
        &self.dedup
    }

    /// The diff records accumulated so far.
    pub fn store(&self) -> &DiffStore {
        &self.store
    }

    /// The edges accumulated so far.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The duplicate-collapsing alignment memo accumulated so far (empty when every extend
    /// ran with memoization disabled).  Exposed for introspection — `memoized_pairs()`,
    /// `alignments()` — never needed for correctness.
    pub fn memo(&self) -> &DiffMemo {
        &self.memo
    }

    /// Summary statistics of the graph accumulated so far.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            queries: self.dedup.len(),
            edges: self.edges.len(),
            diff_records: self.store.len(),
            distinct_paths: self.store.distinct_paths(),
        }
    }

    /// Estimated heap bytes of the accumulated *query-log storage*: the distinct-tree arena
    /// plus the per-row class ids ([`DedupTable::footprint_bytes`]).  Grows with the number
    /// of distinct shapes `d` plus 4 bytes per row — not with retained trees per row.
    /// Mined artifacts (store, edges, memo) are intentionally excluded; they are sized by
    /// the window strategy, not by log storage, and are reported separately by
    /// `pi-core`'s session breakdown.
    pub fn log_footprint_bytes(&self) -> usize {
        self.dedup.footprint_bytes()
    }

    /// The full row-indexed query log, materialised from the arena into a fresh shared
    /// allocation: one representative refcount bump per row, never a tree copy.
    pub fn query_log(&self) -> QueryLog {
        (0..self.dedup.len())
            .map(|idx| self.query(idx).clone())
            .collect()
    }

    /// Freezes the current state into an [`InteractionGraph`] without consuming the
    /// accumulator: the row-indexed log is materialised as in
    /// [`GraphAccumulator::query_log`], the store and edges are cloned as-is (record
    /// subtrees are `Arc`-shared, so this copies pointers, not trees).
    pub fn to_graph(&self) -> InteractionGraph {
        InteractionGraph::from_parts(self.query_log(), self.store.clone(), self.edges.clone())
    }
}

/// Builds [`InteractionGraph`]s from parsed query logs.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    window: WindowStrategy,
    policy: AncestorPolicy,
    parallel: bool,
    memoize: bool,
    threads: usize,
    steal_seed: Option<u64>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder {
            window: WindowStrategy::Sliding(2),
            policy: AncestorPolicy::LcaPruned,
            parallel: false,
            memoize: true,
            threads: 0,
            steal_seed: None,
        }
    }
}

impl GraphBuilder {
    /// A builder with the paper's recommended defaults (window = 2, LCA pruning on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pair enumeration strategy.
    pub fn window(mut self, window: WindowStrategy) -> Self {
        self.window = window;
        self
    }

    /// Sets the ancestor materialisation policy.
    pub fn policy(mut self, policy: AncestorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables multi-threaded pairwise diffing.
    ///
    /// When enabled, batches whose estimated alignment work crosses the cost-model gate are
    /// packed into cost-sized blocks and mined by the work-stealing scheduler; smaller
    /// batches — and any build on a single-core host — fall back to the serial path, so
    /// `parallel(true)` is never slower than serial on work too small to share.  The built
    /// graph is byte-identical either way.  See [`GraphBuilder::threads`] for explicit
    /// worker counts.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Overrides the number of mining workers (default `0` = automatic).
    ///
    /// `0` resolves automatically: the `PI_THREADS` environment variable if set to a
    /// positive integer, else every available core when [`GraphBuilder::parallel`] is on,
    /// else serial.  An explicit `n ≥ 1` wins over both: `threads(1)` forces the serial
    /// path outright, and `threads(n > 1)` enables the work-stealing scheduler with exactly
    /// `n` workers even when `parallel` was never switched on (asking for workers *is*
    /// asking for parallelism).  Counts above the physical core count still spawn that many
    /// real workers — oversubscription costs a little time but lets a single-core host
    /// exercise genuine multi-worker interleavings.  Whatever the setting, the built graph
    /// is byte-identical: worker count only changes who does the work, never the output
    /// (see [`GraphBuilder::steal_seed`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Test-only hook: seeds a deterministic perturbation of the work-stealing schedule
    /// *and* bypasses the cost-model gate, so tests can drive logs of any size through the
    /// scheduler and exercise steal interleavings (scattered block deals, rotated victim
    /// scans) a natural run would rarely produce.
    ///
    /// The scheduler's determinism contract — results are merged in *block* order, never
    /// steal order — means the output must not change: every seed, and `None` (the
    /// production default), yields byte-identical graphs.  Property-tested across thread
    /// counts 1–8.
    pub fn steal_seed(mut self, seed: Option<u64>) -> Self {
        self.steal_seed = seed;
        self
    }

    /// The number of mining workers this build may use — see [`GraphBuilder::threads`] for
    /// the precedence order (explicit override, then `PI_THREADS`, then the `parallel`
    /// flag).
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = env_thread_override() {
            return n;
        }
        if self.parallel {
            available_cores()
        } else {
            1
        }
    }

    /// Enables or disables duplicate collapsing + alignment memoization (default: on).
    ///
    /// With memoization the expensive ordered-tree alignment runs once per distinct ordered
    /// pair of tree *shapes* (`O(d²)` for `d` distinct shapes) instead of once per log pair
    /// (`O(n²)` under [`WindowStrategy::AllPairs`]); identical-shape pairs short-circuit to
    /// zero work.  The produced graph is **byte-identical** either way — same edges, same
    /// records, same `DiffId` offsets (property-tested) — so this knob exists purely for
    /// A/B measurement of the memo itself.
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Appends one query to an incrementally built graph, running only the new alignments
    /// the window strategy admits ([`WindowStrategy::prev_pairs`]) and appending their
    /// records to the accumulator's store at stable `DiffId` offsets.  Returns the appended
    /// query's log index.
    ///
    /// Folding `extend` over a log yields the same accumulator state as a one-shot
    /// [`GraphBuilder::build`] of that log — same edges, same records, same ids, in the same
    /// order.
    pub fn extend(&self, acc: &mut GraphAccumulator, query: Node) -> usize {
        self.extend_batch(acc, std::iter::once(query)).start
    }

    /// Appends many queries at once, returning the range of their log indices.
    ///
    /// Equivalent to (and byte-identical with) calling [`GraphBuilder::extend`] per query,
    /// but when the builder is parallel and the batch brings enough new alignments, they are
    /// fanned out across cores — this is how the one-shot pipeline entry points keep their
    /// multi-core mining while being wrappers over a streaming session.
    pub fn extend_batch(
        &self,
        acc: &mut GraphAccumulator,
        queries: impl IntoIterator<Item = Node>,
    ) -> Range<usize> {
        let start = acc.dedup.len();
        // Row storage first: every query resolves to its distinct-tree id and the duplicate
        // tree is dropped right here — the batch never retains more than `d` trees however
        // long it is.  Mining below reads trees back through the class representatives
        // (structurally identical to the pushed queries, so the mined bytes cannot differ).
        for query in queries {
            acc.dedup.ingest(&query);
        }
        let end = acc.dedup.len();
        if self.memoize {
            // Split borrows: the memo/store/edges grow while the dedup table is read.
            let GraphAccumulator {
                dedup,
                store,
                edges,
                memo,
            } = acc;
            self.mine_rows_memoized(dedup, start..end, memo, store, edges);
            return start..end;
        }
        let threads = self.effective_threads();
        if (threads > 1 && end - start > 1) || self.steal_seed.is_some() {
            let dedup = &acc.dedup;
            let policy = self.policy;
            let mined = self.mine_pair_blocks(
                threads,
                start..end,
                // Node counts come from the dedup table's per-class cache — two array loads
                // per pair, no `Node::size` walks over the window's predecessors.
                |i, j| {
                    align_cost_model(
                        dedup.tree_size(dedup.class_of(i)),
                        dedup.tree_size(dedup.class_of(j)),
                    )
                },
                |i, j| {
                    extract_diffs(
                        dedup.representative(dedup.class_of(i)),
                        dedup.representative(dedup.class_of(j)),
                        i,
                        j,
                        policy,
                    )
                },
            );
            if let Some(results) = mined {
                for (i, j, records) in results {
                    append_pair(&mut acc.store, &mut acc.edges, i, j, records);
                }
                return start..end;
            }
        }
        for j in start..end {
            for i in self.window.prev_pairs(j) {
                let records = extract_diffs(acc.query(i), acc.query(j), i, j, self.policy);
                append_pair(&mut acc.store, &mut acc.edges, i, j, records);
            }
        }
        start..end
    }

    /// Builds the interaction graph for a log of parsed queries.
    ///
    /// The log is taken as (or converted into) a [`QueryLog`], so graphs built from an
    /// existing `Arc`'d log share it instead of cloning every query.  The result is
    /// identical to folding [`GraphBuilder::extend`] over the log — pairs are diffed in
    /// append order — the parallel path only computes the alignments concurrently before
    /// assembling them in that same order.
    pub fn build(&self, queries: impl IntoQueryLog) -> InteractionGraph {
        let queries: QueryLog = queries.into_query_log();
        let n = queries.len();
        let mut store = DiffStore::new();
        let mut edges = Vec::new();
        if self.memoize {
            // A one-shot build shares (or takes over) the input log Arc, so the arena is
            // only a mining-side view: a local dedup table over the log's rows.
            let mut dedup = DedupTable::new();
            for query in queries.iter() {
                dedup.ingest(query);
            }
            let mut memo = DiffMemo::new();
            self.mine_rows_memoized(&dedup, 0..n, &mut memo, &mut store, &mut edges);
            return InteractionGraph::from_parts(queries, store, edges);
        }
        let threads = self.effective_threads();
        let mut mined = None;
        if (threads > 1 && n > 1) || self.steal_seed.is_some() {
            let policy = self.policy;
            let log = &queries;
            let sizes: Vec<usize> = log.iter().map(Node::size).collect();
            mined = self.mine_pair_blocks(
                threads,
                0..n,
                |i, j| align_cost_model(sizes[i], sizes[j]),
                |i, j| extract_diffs(&log[i], &log[j], i, j, policy),
            );
        }
        match mined {
            Some(results) => {
                for (i, j, records) in results {
                    append_pair(&mut store, &mut edges, i, j, records);
                }
            }
            None => {
                for j in 0..n {
                    for i in self.window.prev_pairs(j) {
                        let records = extract_diffs(&queries[i], &queries[j], i, j, self.policy);
                        append_pair(&mut store, &mut edges, i, j, records);
                    }
                }
            }
        }
        InteractionGraph::from_parts(queries, store, edges)
    }

    /// The duplicate-collapsing mining path shared by batch builds and incremental extends:
    /// walk the log pairs in append order; identical-shape pairs short-circuit before the
    /// memo is even consulted, and every other pair streams its class pair's memoized change
    /// list straight into the store, aligning the class representatives the first time the
    /// memo meets that ordered pair.
    ///
    /// When multiple workers are available, the batch's missing distinct pairs are first
    /// aligned together ([`GraphBuilder::align_missing_pairs`]), on the work-stealing
    /// scheduler when their estimated cost crosses the parallel gate; the append loop then
    /// only hits the memo.
    ///
    /// Every path is the same fold over the same append order, so the resulting store and
    /// edge list are byte-identical to the unmemoized builder's — alignment is purely
    /// structural, and every query is structurally identical to its class representative.
    fn mine_rows_memoized(
        &self,
        dedup: &DedupTable,
        rows: Range<usize>,
        memo: &mut DiffMemo,
        store: &mut DiffStore,
        edges: &mut Vec<Edge>,
    ) {
        memo.set_policy(self.policy);
        debug_assert!(dedup.len() >= rows.end, "rows ingested before mining");
        let policy = self.policy;
        let threads = self.effective_threads();
        if (threads > 1 && rows.len() > 1) || self.steal_seed.is_some() {
            // The distinct ordered pairs this batch meets but the memo lacks, in
            // first-demand order.
            let mut queued: HashSet<u64, BuildHasherDefault<PairKeyHasher>> = HashSet::default();
            let mut needed: Vec<(u32, u32)> = Vec::new();
            for j in rows.clone() {
                let cb = dedup.class_of(j);
                for i in self.window.prev_pairs(j) {
                    let ca = dedup.class_of(i);
                    if ca != cb && memo.get(ca, cb).is_none() && queued.insert(pair_key(ca, cb)) {
                        needed.push((ca, cb));
                    }
                }
            }
            self.align_missing_pairs(dedup, memo, needed, threads);
        }
        for j in rows {
            let cb = dedup.class_of(j);
            for i in self.window.prev_pairs(j) {
                let ca = dedup.class_of(i);
                if ca == cb {
                    // Structurally identical pair: zero records, no edge — exactly what an
                    // unmemoized `extract_diffs` of the pair would conclude the hard way.
                    continue;
                }
                append_memoized(store, edges, i, j, memo.changes(dedup, ca, cb, policy));
            }
        }
    }

    /// Ensures every pair in `needed` — the distinct ordered class pairs a batch meets but
    /// the memo lacks — is memoized before the append loop runs.  Small sets are aligned
    /// inline, without a thread scope; sets whose estimated cost crosses the parallel gate
    /// fan out through [`GraphBuilder::align_pairs_parallel`].
    fn align_missing_pairs(
        &self,
        dedup: &DedupTable,
        memo: &mut DiffMemo,
        needed: Vec<(u32, u32)>,
        threads: usize,
    ) {
        if needed.is_empty() {
            return;
        }
        let total: u64 = needed
            .iter()
            .map(|&(ca, cb)| align_cost_model(dedup.tree_size(ca), dedup.tree_size(cb)))
            .sum();
        if threads > 1 && (total >= PARALLEL_MIN_COST || self.steal_seed.is_some()) {
            for ((ca, cb), changes) in self.align_pairs_parallel(dedup, needed, threads) {
                memo.insert(ca, cb, changes);
            }
        } else {
            for (ca, cb) in needed {
                let changes = extract_changes(
                    dedup.representative(ca),
                    dedup.representative(cb),
                    self.policy,
                );
                memo.insert(ca, cb, changes);
            }
        }
    }

    /// Aligns the given distinct ordered class pairs on the work-stealing scheduler.
    ///
    /// The pairs are first sorted into [`CLASS_TILE`]-wide square tiles over the
    /// distinct-pair plane — one tile touches at most `2 · CLASS_TILE` representatives, so
    /// both trees of every alignment in flight stay hot in cache — then packed into blocks
    /// of comparable estimated cost, so the alignment load balances by work rather than by
    /// pair count.  Every result is keyed by its class pair, so neither block order nor
    /// steal order can affect the memo's contents.
    fn align_pairs_parallel(
        &self,
        dedup: &DedupTable,
        mut needed: Vec<(u32, u32)>,
        threads: usize,
    ) -> Vec<((u32, u32), Vec<TreeChange>)> {
        needed.sort_unstable_by_key(|&(ca, cb)| (ca / CLASS_TILE, cb / CLASS_TILE, ca, cb));
        let cost =
            |&(ca, cb): &(u32, u32)| align_cost_model(dedup.tree_size(ca), dedup.tree_size(cb));
        let total: u64 = needed.iter().map(cost).sum();
        let target = (total / (threads as u64 * BLOCKS_PER_WORKER)).max(MIN_BLOCK_COST);
        let blocks = steal::pack_by_cost(needed, cost, target);
        let policy = self.policy;
        steal::run_blocks(
            threads,
            self.steal_seed,
            blocks,
            |_, block: &Vec<(u32, u32)>| {
                block
                    .iter()
                    .map(|&(ca, cb)| {
                        let changes = extract_changes(
                            dedup.representative(ca),
                            dedup.representative(cb),
                            policy,
                        );
                        ((ca, cb), changes)
                    })
                    .collect::<Vec<_>>()
            },
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// Enumerates the append-order pairs of `rows`, estimates their total alignment cost,
    /// and — when that cost crosses the parallel gate (or the test hook forces it) — mines
    /// them on the work-stealing scheduler, returning the per-pair records **in append
    /// order**: blocks are contiguous runs of the serial enumeration sized by estimated
    /// cost, and [`steal::run_blocks`] merges results in block order regardless of steal
    /// interleaving, so the output is identical to the serial loop's.
    ///
    /// Returns `None` when the estimated work is too small to amortise the fan-out,
    /// leaving the caller on the serial path — this cost gate replaces the old row-count
    /// (`new_pairs > 32`) threshold, which charged tiny-tree sliding windows a full
    /// thread scope for microseconds of alignment.
    fn mine_pair_blocks<C, F>(
        &self,
        threads: usize,
        rows: Range<usize>,
        pair_cost: C,
        pair_records: F,
    ) -> Option<Vec<(usize, usize, Vec<DiffRecord>)>>
    where
        C: Fn(usize, usize) -> u64,
        F: Fn(usize, usize) -> Vec<DiffRecord> + Sync,
    {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut total: u64 = 0;
        for j in rows {
            for i in self.window.prev_pairs(j) {
                total = total.saturating_add(pair_cost(i, j).max(1));
                pairs.push((i, j));
            }
        }
        if pairs.is_empty() || (total < PARALLEL_MIN_COST && self.steal_seed.is_none()) {
            return None;
        }
        let target = (total / (threads as u64 * BLOCKS_PER_WORKER)).max(MIN_BLOCK_COST);
        let blocks = steal::pack_by_cost(pairs, |&(i, j)| pair_cost(i, j), target);
        let results = steal::run_blocks(
            threads,
            self.steal_seed,
            blocks,
            |_, block: &Vec<(usize, usize)>| {
                block
                    .iter()
                    .map(|&(i, j)| (i, j, pair_records(i, j)))
                    .collect::<Vec<_>>()
            },
        );
        Some(results.into_iter().flatten().collect())
    }
}

/// The number of cores the builder may use; 1 (forcing the serial path) when the platform
/// cannot report its parallelism.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
}

/// Streams a memoized pair entry straight into the store: the entry puts its leaves first,
/// so the leaf ids are exactly the next `leaf_count` appended ids — the same byte-level
/// layout [`append_pair`] produces.  Hash-collision entries (distinct classes, zero
/// changes — the equality the aligner, like the memo-off path, infers from equal hashes)
/// contribute nothing, matching `append_pair`'s empty-records early return.
fn append_memoized(
    store: &mut DiffStore,
    edges: &mut Vec<Edge>,
    i: usize,
    j: usize,
    entry: &crate::dedup::PairChanges,
) {
    if entry.is_empty() {
        return;
    }
    let first = store.next_id().0;
    for change in entry.changes() {
        store.push(DiffRecord::from_shared(i, j, std::sync::Arc::clone(change)));
    }
    edges.push(Edge {
        from: i,
        to: j,
        diffs: (first..first + entry.leaf_count()).map(DiffId).collect(),
    });
}

/// Appends one compared pair's records to the growing store and edge list: leaf records
/// first (their ids label the edge), then ancestors — the order [`extract_diffs`] emits
/// them in; identical pairs contribute nothing.  This fold step is shared by batch builds
/// and incremental extends — it *is* the byte-level layout of the graph, so both paths
/// produce identical stores.
fn append_pair(
    store: &mut DiffStore,
    edges: &mut Vec<Edge>,
    i: usize,
    j: usize,
    records: Vec<DiffRecord>,
) {
    if records.is_empty() {
        return;
    }
    let leaf_count = records.iter().take_while(|r| r.is_leaf).count();
    debug_assert!(
        records[leaf_count..].iter().all(|r| !r.is_leaf),
        "extract_diffs emits leaves first"
    );
    let first = store.next_id().0;
    for record in records {
        store.push(record);
    }
    edges.push(Edge {
        from: i,
        to: j,
        diffs: (first..first + leaf_count).map(DiffId).collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_ast::Node;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    #[test]
    fn pair_enumeration_counts() {
        assert_eq!(WindowStrategy::AllPairs.pairs(4).count(), 6);
        assert_eq!(WindowStrategy::Sliding(2).pairs(4).count(), 3);
        assert_eq!(WindowStrategy::Sliding(3).pairs(4).count(), 5);
        // degenerate windows are clamped to 2
        assert_eq!(WindowStrategy::Sliding(0).pairs(4).count(), 3);
        assert_eq!(WindowStrategy::AllPairs.pairs(0).count(), 0);
        assert_eq!(WindowStrategy::AllPairs.pairs(1).count(), 0);
    }

    #[test]
    fn sliding_constructor_normalises_degenerate_windows() {
        assert_eq!(WindowStrategy::sliding(0), WindowStrategy::Sliding(2));
        assert_eq!(WindowStrategy::sliding(1), WindowStrategy::Sliding(2));
        assert_eq!(WindowStrategy::sliding(2), WindowStrategy::Sliding(2));
        assert_eq!(WindowStrategy::sliding(16), WindowStrategy::Sliding(16));
    }

    #[test]
    fn pair_count_matches_enumeration() {
        for n in 0..40 {
            for strategy in [
                WindowStrategy::AllPairs,
                WindowStrategy::Sliding(0),
                WindowStrategy::Sliding(2),
                WindowStrategy::Sliding(3),
                WindowStrategy::Sliding(7),
                WindowStrategy::Sliding(100),
            ] {
                assert_eq!(
                    strategy.pair_count(n),
                    strategy.pairs(n).count(),
                    "{strategy:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn pairs_are_enumerated_in_append_order() {
        // Every pair (i, j) appears after all pairs with a smaller j: the order a streaming
        // ingest would discover them in.
        for strategy in [WindowStrategy::AllPairs, WindowStrategy::Sliding(3)] {
            let pairs: Vec<(usize, usize)> = strategy.pairs(8).collect();
            for w in pairs.windows(2) {
                assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "{pairs:?}"
                );
            }
        }
    }

    #[test]
    fn prev_pairs_is_the_adjoint_of_row_pairs() {
        for strategy in [
            WindowStrategy::AllPairs,
            WindowStrategy::Sliding(0),
            WindowStrategy::Sliding(2),
            WindowStrategy::Sliding(5),
        ] {
            for j in 0..20usize {
                for i in 0..j {
                    assert_eq!(
                        strategy.prev_pairs(j).contains(&i),
                        strategy.row_pairs(i, j + 1).contains(&j),
                        "{strategy:?} i={i} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliding_window_pairs_stay_within_window() {
        for (i, j) in WindowStrategy::Sliding(3).pairs(10) {
            assert!(j > i && j - i < 3);
        }
    }

    #[test]
    fn builder_skips_identical_pairs() {
        let q = parse("SELECT a FROM t").unwrap();
        let r = parse("SELECT b FROM t").unwrap();
        let g = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .build(vec![q.clone(), q, r]);
        // (0,1) identical -> skipped; (0,2) and (1,2) differ.
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn building_from_an_arc_log_shares_it() {
        let log: crate::QueryLog = vec![
            parse("SELECT a FROM t WHERE x = 1").unwrap(),
            parse("SELECT a FROM t WHERE x = 2").unwrap(),
        ]
        .into_query_log();
        let g = GraphBuilder::new().build(&log);
        assert!(std::sync::Arc::ptr_eq(g.queries(), &log));
    }

    #[test]
    fn parallel_threshold_does_not_change_small_builds() {
        let log: Vec<Node> = (0..5)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {i}")).unwrap())
            .collect();
        let a = GraphBuilder::new().parallel(true).build(&log);
        let b = GraphBuilder::new().parallel(false).build(&log);
        assert_eq!(a.edges().len(), b.edges().len());
    }

    #[test]
    fn parallel_large_build_matches_serial() {
        let log: Vec<Node> = (0..40)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 7)).unwrap())
            .collect();
        let a = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(true)
            .build(&log);
        let b = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(false)
            .build(&log);
        assert_eq!(a.edges().len(), b.edges().len());
        assert_eq!(a.store().len(), b.store().len());
        for (ea, eb) in a.edges().iter().zip(b.edges().iter()) {
            assert_eq!((ea.from, ea.to), (eb.from, eb.to));
        }
    }

    #[test]
    fn extending_one_query_at_a_time_matches_a_batch_build() {
        let log: Vec<Node> = (0..12)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 5)).unwrap())
            .collect();
        for window in [
            WindowStrategy::AllPairs,
            WindowStrategy::sliding(2),
            WindowStrategy::sliding(4),
        ] {
            let builder = GraphBuilder::new().window(window);
            let mut acc = GraphAccumulator::new();
            for (k, q) in log.iter().enumerate() {
                assert_eq!(builder.extend(&mut acc, q.clone()), k);
                // Every intermediate prefix matches the batch build of that prefix.
                assert_eq!(acc.to_graph(), builder.build(log[..=k].to_vec()));
            }
            assert_eq!(acc.stats(), acc.to_graph().stats());
            assert_eq!(acc.len(), log.len());
        }
    }

    #[test]
    fn extend_batch_matches_per_query_extends() {
        let log: Vec<Node> = (0..40)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 7)).unwrap())
            .collect();
        for parallel in [false, true] {
            let builder = GraphBuilder::new()
                .window(WindowStrategy::AllPairs)
                .parallel(parallel);
            let mut bulk = GraphAccumulator::new();
            // Two bulk appends (the second exercises a non-zero row offset in the parallel
            // fan-out) must equal forty single extends.
            assert_eq!(builder.extend_batch(&mut bulk, log[..25].to_vec()), 0..25);
            assert_eq!(builder.extend_batch(&mut bulk, log[25..].to_vec()), 25..40);
            let mut single = GraphAccumulator::new();
            for q in &log {
                builder.extend(&mut single, q.clone());
            }
            assert_eq!(bulk.to_graph(), single.to_graph());
        }
    }

    #[test]
    fn memoized_builds_are_byte_identical_to_unmemoized_builds() {
        // A duplicate-heavy log: 30 queries over 5 distinct shapes, in a mixing order.
        let log: Vec<Node> = (0..30)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", (i * 7) % 5)).unwrap())
            .collect();
        for window in [
            WindowStrategy::AllPairs,
            WindowStrategy::sliding(2),
            WindowStrategy::sliding(5),
        ] {
            for policy in [AncestorPolicy::LcaPruned, AncestorPolicy::Full] {
                for parallel in [false, true] {
                    let base = GraphBuilder::new()
                        .window(window)
                        .policy(policy)
                        .parallel(parallel);
                    let on = base.clone().memoize(true).build(&log);
                    let off = base.memoize(false).build(&log);
                    assert_eq!(on, off, "{window:?} {policy:?} parallel={parallel}");
                }
            }
        }
    }

    #[test]
    fn memoized_extends_persist_the_memo_and_match_unmemoized_extends() {
        let log: Vec<Node> = (0..24)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 4)).unwrap())
            .collect();
        let builder = GraphBuilder::new().window(WindowStrategy::AllPairs);
        let mut memoized = GraphAccumulator::new();
        let mut plain = GraphAccumulator::new();
        for q in &log {
            builder.extend(&mut memoized, q.clone());
            builder.clone().memoize(false).extend(&mut plain, q.clone());
        }
        assert_eq!(memoized.to_graph(), plain.to_graph());
        // Each distinct ordered class pair the log meets is aligned exactly once, although
        // 24·23/2 log pairs were enumerated.
        let classes: Vec<u32> = (0..log.len())
            .map(|row| memoized.dedup().class_of(row))
            .collect();
        let met: HashSet<(u32, u32)> = WindowStrategy::AllPairs
            .pairs(log.len())
            .map(|(i, j)| (classes[i], classes[j]))
            .filter(|(ca, cb)| ca != cb)
            .collect();
        assert_eq!(memoized.distinct(), 4);
        assert_eq!(met.len(), 4 * 3);
        assert_eq!(memoized.memo().alignments(), met.len());
        assert_eq!(memoized.memo().memoized_pairs(), met.len());
        // The arena-backed row storage is maintained with the memo off too (it *is* the
        // accumulator's query log), but the unmemoized accumulator never memoized a pair.
        assert_eq!(plain.distinct(), 4);
        assert_eq!(plain.memo().memoized_pairs(), 0);
        // And a memoized extend picks up seamlessly after unmemoized ones.
        builder.extend(&mut plain, log[0].clone());
        assert_eq!(plain.distinct(), 4);
        builder.extend(&mut memoized, log[0].clone());
        assert_eq!(memoized.to_graph(), plain.to_graph());
    }

    #[test]
    fn parallel_memoized_build_matches_serial_memoized_build() {
        // Enough distinct shapes (> 32 missing pairs) to cross the parallel pre-alignment
        // threshold.
        let log: Vec<Node> = (0..60)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 10)).unwrap())
            .collect();
        let serial = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(false)
            .build(&log);
        let parallel = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(true)
            .build(&log);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pi_threads_values_parse_as_positive_overrides() {
        assert_eq!(parse_thread_override("4"), Ok(Some(4)));
        assert_eq!(parse_thread_override(" 2 "), Ok(Some(2)));
        assert_eq!(parse_thread_override("1"), Ok(Some(1)));
        // 0 and empty are deliberate "no override" spellings.
        assert_eq!(parse_thread_override("0"), Ok(None));
        assert_eq!(parse_thread_override(""), Ok(None));
        assert_eq!(parse_thread_override("  "), Ok(None));
    }

    #[test]
    fn malformed_pi_threads_values_are_flagged_not_swallowed() {
        // Garbage is an *error*, distinct from the unset-like spellings above, so the env
        // reader can warn once instead of silently ignoring an operator's typo.
        for junk in [
            "auto",
            "-2",
            "four",
            "4x",
            "1.5",
            "0x4",
            "+",
            "9999999999999999999999",
        ] {
            assert_eq!(parse_thread_override(junk), Err(()), "junk input {junk:?}");
        }
    }

    #[test]
    fn forced_thread_counts_build_identical_graphs() {
        // Real multi-worker runs even on a single-core host: an explicit count spawns that
        // many workers, and the steal-seed hook pushes every pair through the scheduler.
        let log: Vec<Node> = (0..30)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", (i * 5) % 9)).unwrap())
            .collect();
        for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(4)] {
            for memoize in [true, false] {
                let reference = GraphBuilder::new()
                    .window(window)
                    .memoize(memoize)
                    .threads(1)
                    .build(&log);
                for threads in 2..=8 {
                    let forced = GraphBuilder::new()
                        .window(window)
                        .memoize(memoize)
                        .threads(threads)
                        .steal_seed(Some(threads as u64 * 977))
                        .build(&log);
                    assert_eq!(forced, reference, "{window:?} memo={memoize} t={threads}");
                }
            }
        }
    }

    #[test]
    fn steal_seed_forces_the_scheduler_through_interleaved_extends() {
        let log: Vec<Node> = (0..12)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 4)).unwrap())
            .collect();
        for memoize in [true, false] {
            let serial = GraphBuilder::new()
                .window(WindowStrategy::AllPairs)
                .memoize(memoize)
                .build(&log);
            let builder = GraphBuilder::new()
                .window(WindowStrategy::AllPairs)
                .memoize(memoize)
                .threads(3)
                .steal_seed(Some(0xfeed));
            let mut acc = GraphAccumulator::new();
            // Single-query pushes normally stay serial; the seed drags even those through
            // the scheduler, so this exercises one-row block mining too.
            for q in &log {
                builder.extend(&mut acc, q.clone());
            }
            assert_eq!(acc.to_graph(), serial, "memo={memoize}");
        }
    }

    #[test]
    fn explicit_threads_one_beats_the_parallel_flag() {
        // threads(1) forces the serial path even with parallel(true); the output is the
        // same either way — this pins the precedence, not the bytes.
        let log: Vec<Node> = (0..20)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {i}")).unwrap())
            .collect();
        let a = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(true)
            .threads(1)
            .build(&log);
        let b = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .build(&log);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_diffs_reference_leaf_records_only() {
        let log: Vec<Node> = vec![
            parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap(),
            parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap(),
        ];
        let g = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .policy(AncestorPolicy::Full)
            .build(log);
        assert_eq!(g.edges().len(), 1);
        for id in &g.edges()[0].diffs {
            assert!(g.store().get(*id).is_leaf);
        }
        // Ancestor records are still in the store for the mapper to consider.
        assert!(g.store().iter().any(|(_, r)| !r.is_leaf));
    }
}
