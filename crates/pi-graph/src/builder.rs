//! Graph construction: pair enumeration strategies and pairwise diffing.
//!
//! Construction is defined *incrementally*: appending query `j` to a log compares it against
//! the predecessors the [`WindowStrategy`] admits (its `j - 1` predecessors for
//! [`WindowStrategy::AllPairs`], the previous `w - 1` for a sliding window), and appends the
//! resulting diff records and edge to the growing graph.  [`GraphBuilder::extend_batch`] is
//! the one mining step: a batch [`GraphBuilder::build`] is one `extend_batch` over the whole
//! log, and folding it over any split of the log gives the same graph, so a streaming
//! session that appends queries one at a time produces a graph byte-identical to a one-shot
//! build of the same prefix — the invariant `pi-core`'s `Session` is built on.
//!
//! With memoization on (the default), each distinct ordered pair of shape classes is aligned
//! once, the first time the memo meets it, into one change list of the store, and every log
//! pair of those classes appends one run row pointing at that list.  The unmemoized builder
//! aligns every log pair, serially, into a list of its own and stays as the reference the
//! memoized one is tested against.
//!
//! Mining has one fan-out: when a batch's missing distinct class pairs bring enough
//! estimated alignment work ([`pi_diff::align_cost_model`] over cached node counts, gated by
//! `PARALLEL_MIN_COST`), the memoized builder cuts them into equal-count chunks, aligns the
//! chunks on scoped workers that claim them from one shared counter, and appends each
//! chunk's lists in chunk order.  Chunk order, not claim order, defines the output, so every
//! parallel build is byte-identical to the serial fold.  Below the gate, the append loop
//! aligns the same pairs itself, so small batches and latency-sensitive single-query
//! extends never pay for threads they cannot use.

use crate::dedup::{DedupTable, DiffMemo, PairIndex};
use crate::graph::{edges_of_store, Edge, GraphStats, InteractionGraph, IntoQueryLog, QueryLog};
use pi_ast::Node;
use pi_diff::{align_cost_model, extract_changes, AncestorPolicy, DiffStore, TreeChange};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The estimated new work, in [`pi_diff::align_cost_model`] units, below which mining stays
/// serial even when multiple workers are available.
///
/// Calibration, as serial mining time over the units this gate sums (the batch's missing
/// distinct pairs), on 2 vCPUs: `pi-experiments --exp fig12` at |Q| = 10,000 mines 9,990
/// missing pairs of small SDSS trees (≈ 234 units each, 2.34 M in all) in 34.5–37.9 ms
/// (3 runs), ≈ 15 ns a unit; a serial Sliding(16) build of `olap::random_walk(3, 512)`
/// aligns 2,715 distinct pairs of ≈ 25-node trees (1.64 M units) in 4.4 ms (median of 9
/// builds), ≈ 2.7 ns a unit.  600 k units are therefore ≈ 1.6 ms of serial mining on the
/// larger trees and more on smaller ones, well above the tens of microseconds of a scoped
/// spawn/join cycle, so a batch that crosses the gate has real work to amortise the
/// fan-out against.
const PARALLEL_MIN_COST: u64 = 600_000;

/// Fewest pairs in a chunk: 16 pairs of ~30-node trees are ≈ 15 k cost units, ≈ 25 µs of
/// alignment, so a claim (one atomic add and a fresh store) stays small against its chunk.
const MIN_CHUNK_PAIRS: usize = 16;

/// Target number of chunks per worker: chunks hold equal pair counts, not equal work, so
/// a worker that draws cheap chunks claims more of them.
const CHUNKS_PER_WORKER: usize = 8;

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
/// to force every builder in a test run to one worker count — the serial and 4-worker runs
/// must both reproduce the same graphs bit for bit, so a single-core runner cannot mask a
/// multi-thread identity bug.
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
/// per row — the append-only pair table ([`DiffStore`]) whose run rows are the edges, and
/// the alignment memo that maps class pairs to the table's change lists.
///
/// Duplicate queries resolve to their distinct-tree id at ingest and the duplicate tree is
/// dropped, so a million-query log of `d` distinct shapes retains `d` trees, not a million.
/// Row indices are unchanged everywhere else: the store's runs keep indexing by log row,
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

    /// The pair table accumulated so far: change table, change lists and run rows.
    pub fn store(&self) -> &DiffStore {
        &self.store
    }

    /// The edges accumulated so far, one per run row of the store.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        edges_of_store(&self.store)
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
            edges: self.store.runs().len(),
            diff_records: self.store.len(),
            distinct_paths: self.store.distinct_paths(),
        }
    }

    /// Estimated heap bytes of the accumulated *query-log storage*: the distinct-tree arena
    /// plus the per-row class ids ([`DedupTable::footprint_bytes`]).  Grows with the number
    /// of distinct shapes `d` plus 4 bytes per row — not with retained trees per row.
    /// Mined artifacts (store and memo) are intentionally excluded; they are sized by
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
    /// [`GraphAccumulator::query_log`], and the store is cloned as-is (change subtrees are
    /// shared handles, so this copies rows and pointers, not trees).
    pub fn to_graph(&self) -> InteractionGraph {
        InteractionGraph::from_parts(self.query_log(), self.store.clone())
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

    /// Enables or disables mining's one fan-out: the memoized builder aligning a batch's
    /// missing distinct shape pairs across cores.
    ///
    /// When enabled, a batch whose missing pairs' estimated alignment work crosses the
    /// cost-model gate has them cut into equal-count chunks that scoped workers claim from
    /// one shared counter; smaller batches — and any build on a single-core host — stay
    /// serial, so `parallel(true)` is never slower than serial on work too small to share.
    /// The unmemoized builder always runs serially.  The built graph is byte-identical
    /// either way.  See [`GraphBuilder::threads`] for explicit worker counts.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Overrides the number of workers the memoized builder's pre-alignment fans out to
    /// (default `0` = automatic).
    ///
    /// `0` resolves automatically: the `PI_THREADS` environment variable if set to a
    /// positive integer, else every available core when [`GraphBuilder::parallel`] is on,
    /// else serial.  An explicit `n ≥ 1` wins over both: `threads(1)` forces the serial
    /// path outright, and `threads(n > 1)` enables the fan-out with up to `n` workers (one
    /// per chunk at most) even when `parallel` was never switched on (asking for workers *is*
    /// asking for parallelism).  Counts above the physical core count still run that many
    /// real threads, the calling thread among them — oversubscription costs a little time
    /// but lets a single-core host exercise genuine multi-worker interleavings.  Whatever
    /// the setting, the built graph is byte-identical: worker count only changes who does
    /// the work, never the output (see [`GraphBuilder::steal_seed`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Test-only hook: bypasses the cost-model gate, so tests can drive logs of any size
    /// through the memoized builder's fan-out, and picks which chunk is claimed first (the
    /// seed modulo the chunk count), so the workers meet the chunks in another order than a
    /// natural run's.
    ///
    /// Chunk results are appended in *chunk* order, never claim order, so the output must
    /// not change: every seed, and `None` (the production default), yields byte-identical
    /// graphs.  Property-tested across thread counts 1–8.
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
    /// A/B measurement of the memo itself.  Off, the builder is the serial reference the
    /// memo is tested against: [`GraphBuilder::parallel`], [`GraphBuilder::threads`] and
    /// [`GraphBuilder::steal_seed`] steer nothing.
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Appends one query to an incrementally built graph, running only the new alignments
    /// the window strategy admits ([`WindowStrategy::prev_pairs`]) and appending their runs
    /// to the accumulator's store at stable `DiffId` offsets.  Returns the appended query's
    /// log index.
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
    /// but a memoized builder with parallel options aligns the batch's missing distinct
    /// shape pairs across cores when they bring enough work — this is how the one-shot
    /// pipeline entry points keep their multi-core mining while being wrappers over a
    /// streaming session.  The unmemoized builder mines the batch serially.
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
            // Split borrows: the memo and store grow while the dedup table is read.
            let GraphAccumulator { dedup, store, memo } = acc;
            self.mine_rows_memoized(dedup, start..end, memo, store);
            return start..end;
        }
        for j in start..end {
            for i in self.window.prev_pairs(j) {
                let changes = extract_changes(acc.query(i), acc.query(j), self.policy);
                append_pair(&mut acc.store, i, j, changes);
            }
        }
        start..end
    }

    /// Builds the interaction graph for a log of parsed queries: one
    /// [`GraphBuilder::extend_batch`] of the whole log into a fresh accumulator.
    ///
    /// The log is taken as (or converted into) a [`QueryLog`], and the returned graph
    /// shares it instead of cloning every query; the accumulator's arena is only a
    /// mining-side view of the log's rows.
    pub fn build(&self, queries: impl IntoQueryLog) -> InteractionGraph {
        let queries: QueryLog = queries.into_query_log();
        let mut acc = GraphAccumulator::new();
        self.extend_batch(&mut acc, queries.iter().cloned());
        InteractionGraph::from_parts(queries, acc.store)
    }

    /// The duplicate-collapsing mining path shared by batch builds and incremental extends:
    /// walk the log pairs in append order; identical-shape pairs short-circuit before the
    /// memo is even consulted, and every other pair appends one run row pointing at its
    /// class pair's memoized change list, aligning the class representatives into a new
    /// list the first time the memo meets that ordered pair.
    ///
    /// When multiple workers are available, the batch's missing distinct pairs are first
    /// collected, and aligned on the fan-out when their estimated cost crosses the parallel
    /// gate ([`GraphBuilder::align_missing_pairs`]).  The pre-scan keeps each pair's list
    /// id, or a miss, so the append loop probes the memo again only for the pairs it
    /// missed.
    ///
    /// Every path is the same fold over the same append order, so the resulting runs and
    /// records are byte-identical to the unmemoized builder's — alignment is purely
    /// structural, and every query is structurally identical to its class representative.
    fn mine_rows_memoized(
        &self,
        dedup: &DedupTable,
        rows: Range<usize>,
        memo: &mut DiffMemo,
        store: &mut DiffStore,
    ) {
        memo.set_policy(self.policy);
        debug_assert!(dedup.len() >= rows.end, "rows ingested before mining");
        let policy = self.policy;
        let threads = self.effective_threads();
        // The pre-scan's finding per enumerated pair of distinct classes, in append order.
        let mut found: Vec<Option<u32>> = Vec::new();
        if (threads > 1 && rows.len() > 1) || self.steal_seed.is_some() {
            // The distinct ordered pairs this batch meets but the memo lacks, in
            // first-demand order.
            let mut queued = PairIndex::default();
            let mut needed: Vec<(u32, u32)> = Vec::new();
            for j in rows.clone() {
                let cb = dedup.class_of(j);
                for i in self.window.prev_pairs(j) {
                    let ca = dedup.class_of(i);
                    if ca == cb {
                        continue;
                    }
                    let list = memo.get(ca, cb);
                    if list.is_none() && queued.get(ca, cb).is_none() {
                        queued.insert(ca, cb, 0);
                        needed.push((ca, cb));
                    }
                    found.push(list);
                }
            }
            self.align_missing_pairs(dedup, memo, store, needed, threads);
        }
        let mut found = found.into_iter();
        for j in rows {
            let cb = dedup.class_of(j);
            for i in self.window.prev_pairs(j) {
                let ca = dedup.class_of(i);
                if ca == cb {
                    // Structurally identical pair: zero records, no edge — exactly what an
                    // unmemoized `extract_changes` of the pair would conclude the hard way.
                    continue;
                }
                let list = match found.next() {
                    Some(Some(list)) => list,
                    _ => memo.list(dedup, store, ca, cb, policy),
                };
                store.push_run(i, j, list);
            }
        }
    }

    /// Aligns `needed` — the distinct ordered class pairs a batch meets but the memo lacks,
    /// in first-demand order — on the fan-out when their estimated cost crosses the parallel
    /// gate (or a steal seed bypasses it), appending each chunk's lists in chunk order and
    /// memoizing them.  Below the gate it does nothing: the append loop's `memo.list` aligns
    /// the same pairs in the same first-demand order, without a thread scope.
    fn align_missing_pairs(
        &self,
        dedup: &DedupTable,
        memo: &mut DiffMemo,
        store: &mut DiffStore,
        needed: Vec<(u32, u32)>,
        threads: usize,
    ) {
        let total: u64 = needed
            .iter()
            .map(|&(ca, cb)| align_cost_model(dedup.tree_size(ca), dedup.tree_size(cb)))
            .sum();
        if threads < 2 || (total < PARALLEL_MIN_COST && self.steal_seed.is_none()) {
            return;
        }
        for (chunk, lists) in self.align_pairs_parallel(dedup, needed, threads) {
            let first = store.append_lists(lists);
            for (list, (ca, cb)) in (first..).zip(chunk) {
                memo.insert(ca, cb, list);
            }
        }
    }

    /// Aligns the given distinct ordered class pairs on up to `threads` workers.
    ///
    /// The pairs are first sorted into [`CLASS_TILE`]-wide square tiles over the
    /// distinct-pair plane — one tile touches at most `2 · CLASS_TILE` representatives, so
    /// both trees of every alignment in flight stay hot in cache — then cut into equal-count
    /// chunks, about [`CHUNKS_PER_WORKER`] per worker and at least [`MIN_CHUNK_PAIRS`] pairs
    /// each.  The calling thread and up to `threads - 1` scoped workers claim chunk indices
    /// from one shared counter until none is left; each aligns its chunk, in order, into a
    /// store of its own with [`DiffStore::push_alignment`] (on the thread's reused aligner
    /// state).  The results come back in chunk order, each chunk's pairs beside its store;
    /// list `k` of a chunk's store is its `k`-th pair's.  A steal seed rotates which chunk is
    /// claimed first and changes nothing else.
    fn align_pairs_parallel(
        &self,
        dedup: &DedupTable,
        mut needed: Vec<(u32, u32)>,
        threads: usize,
    ) -> Vec<(Vec<(u32, u32)>, DiffStore)> {
        needed.sort_unstable_by_key(|&(ca, cb)| (ca / CLASS_TILE, cb / CLASS_TILE, ca, cb));
        let size = needed
            .len()
            .div_ceil(threads * CHUNKS_PER_WORKER)
            .max(MIN_CHUNK_PAIRS);
        let chunks: Vec<&[(u32, u32)]> = needed.chunks(size).collect();
        let count = chunks.len();
        let start = self
            .steal_seed
            .map_or(0, |seed| (seed % count.max(1) as u64) as usize);
        let slots: Vec<OnceLock<DiffStore>> =
            std::iter::repeat_with(OnceLock::new).take(count).collect();
        // The counter hands out claims and publishes nothing: each store reaches the caller
        // through its slot, and the scope joins every worker before the slots are read.
        let claims = AtomicUsize::new(0);
        let policy = self.policy;
        let work = || loop {
            let claim = claims.fetch_add(1, Ordering::Relaxed);
            if claim >= count {
                break;
            }
            let k = (start + claim) % count;
            let mut lists = DiffStore::new();
            for &(ca, cb) in chunks[k] {
                lists.push_alignment(dedup.representative(ca), dedup.representative(cb), policy);
            }
            if slots[k].set(lists).is_err() {
                unreachable!("chunk {k} claimed twice");
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads.min(count) {
                scope.spawn(work);
            }
            work();
        });
        chunks
            .into_iter()
            .zip(slots)
            .map(|(chunk, slot)| {
                let lists = slot.into_inner().expect("every chunk is claimed");
                (chunk.to_vec(), lists)
            })
            .collect()
    }
}

/// The number of cores the builder may use; 1 (forcing the serial path) when the platform
/// cannot report its parallelism.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
}

/// Appends one compared pair's freshly aligned changes as a list of its own and a run
/// pointing at it — the unmemoized fold step.  Identical pairs contribute nothing.
fn append_pair(store: &mut DiffStore, i: usize, j: usize, changes: Vec<TreeChange>) {
    if !changes.is_empty() {
        let list = store.push_list(changes);
        store.push_run(i, j, list);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_ast::Node;
    use std::collections::HashSet;

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
        // Two workers on every host and at every `PI_THREADS`: the 42 missing pairs stay
        // far below `PARALLEL_MIN_COST`, so this checks the pre-scan path below the gate,
        // not the fan-out.
        let log: Vec<Node> = (0..40)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 7)).unwrap())
            .collect();
        let a = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(true)
            .threads(2)
            .build(&log);
        let b = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .parallel(false)
            .build(&log);
        assert_eq!(a.edges().len(), b.edges().len());
        assert_eq!(a.store().len(), b.store().len());
        for (ea, eb) in a.edges().zip(b.edges()) {
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
        // Two workers on every host and at every `PI_THREADS`: the 90 missing pairs stay
        // far below `PARALLEL_MIN_COST`, so the memo is pre-scanned and the append loop
        // aligns what it missed.  The seeded tests cover the fan-out itself.
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
            .threads(2)
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
        // many workers, and the steal-seed hook pushes every pair through the fan-out.
        let log: Vec<Node> = (0..30)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", (i * 5) % 9)).unwrap())
            .collect();
        for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(4)] {
            let reference = GraphBuilder::new().window(window).threads(1).build(&log);
            for threads in 2..=8 {
                let forced = GraphBuilder::new()
                    .window(window)
                    .threads(threads)
                    .steal_seed(Some(threads as u64 * 977))
                    .build(&log);
                assert_eq!(forced, reference, "{window:?} t={threads}");
            }
            // The unmemoized builder ignores `threads` and `steal_seed`, so one build under
            // forced settings stands for every count.
            let unmemoized = GraphBuilder::new()
                .window(window)
                .memoize(false)
                .threads(8)
                .steal_seed(Some(8 * 977))
                .build(&log);
            assert_eq!(unmemoized, reference, "{window:?} memo=false");
        }
    }

    #[test]
    fn steal_seed_forces_the_scheduler_through_interleaved_extends() {
        let log: Vec<Node> = (0..12)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 4)).unwrap())
            .collect();
        let serial = GraphBuilder::new()
            .window(WindowStrategy::AllPairs)
            .build(&log);
        for memoize in [true, false] {
            let builder = GraphBuilder::new()
                .window(WindowStrategy::AllPairs)
                .memoize(memoize)
                .threads(3)
                .steal_seed(Some(0xfeed));
            let mut acc = GraphAccumulator::new();
            // Single-query pushes normally stay serial; the seed drags even those through
            // the fan-out, so this exercises one-row chunks too.
            for q in &log {
                builder.extend(&mut acc, q.clone());
            }
            assert_eq!(acc.to_graph(), serial, "memo={memoize}");
        }
    }

    #[test]
    fn every_chunk_is_claimed_once_and_comes_back_in_chunk_order() {
        // 24 shapes: 552 ordered pairs, 8 to 35 chunks from one to eight workers, and seeds
        // below and above every chunk count.
        let mut dedup = DedupTable::default();
        for i in 0..24 {
            dedup.ingest(&parse(&format!("SELECT a FROM t WHERE x = {i}")).unwrap());
        }
        let needed: Vec<(u32, u32)> = (0..24u32)
            .rev()
            .flat_map(|ca| {
                (0..24u32)
                    .filter(move |&cb| cb != ca)
                    .map(move |cb| (ca, cb))
            })
            .collect();
        let mut sorted = needed.clone();
        sorted.sort_unstable_by_key(|&(ca, cb)| (ca / CLASS_TILE, cb / CLASS_TILE, ca, cb));
        for threads in 1..=8 {
            for seed in [None, Some(0), Some(5), Some(1 << 40)] {
                let builder = GraphBuilder::new().steal_seed(seed);
                let chunks = builder.align_pairs_parallel(&dedup, needed.clone(), threads);
                let pairs: Vec<(u32, u32)> = chunks.iter().flat_map(|(c, _)| c.clone()).collect();
                assert_eq!(pairs, sorted, "threads={threads} seed={seed:?}");
                for (chunk, lists) in &chunks {
                    assert_eq!(
                        lists.list_count(),
                        chunk.len(),
                        "threads={threads} seed={seed:?}"
                    );
                }
            }
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
        for id in g.edges().next().unwrap().diffs() {
            assert!(g.store().get(id).is_leaf());
        }
        // Ancestor records are still in the store for the mapper to consider.
        assert!(g.store().iter().any(|(_, r)| !r.is_leaf()));
    }
}
