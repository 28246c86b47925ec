//! Streaming ingestion: a stateful [`Session`] that grows the interaction graph as queries
//! arrive and serves interface snapshots on demand.
//!
//! The paper's interaction graph is defined over a log that grows as the analyst works, and
//! the sliding-window optimisation (§6.1) means an appended query only ever pairs with its
//! `w` predecessors.  A `Session` exploits exactly that: an append runs only the new
//! alignments the window admits (`O(w)` a query for a sliding window, independent of how
//! long the log already is), appending their runs to the session's [`pi_diff::DiffStore`]
//! at stable `DiffId` offsets, while [`Session::snapshot`] lazily re-runs the interaction
//! mapper and returns a versioned [`GeneratedInterface`].
//!
//! A session has two ways in: [`Session::push_tagged`] appends one parsed query, and
//! [`Session::push_stream_tagged`] parses and appends text of any length and dialect.  Both
//! hand their queries to one private append, the only place a session calls
//! [`GraphBuilder::extend_batch`].
//!
//! The load-bearing invariant — property-tested in `tests/properties.rs` and relied on by
//! the one-shot [`PrecisionInterfaces`](crate::PrecisionInterfaces) entry points, which are
//! thin wrappers over a `Session` — is **batch identity**: a snapshot after `n` appends is
//! identical (same graph edges, same diff records in the same order, same widgets, same
//! rendered interface) to a batch build of those same `n` queries.
//!
//! Sessions are front-end pluggable: [`Session::push_stream_tagged`] parses each line with
//! the front-end its dialect names in the session's [`Frontends`] registry, and every query
//! carries its originating [`Dialect`] into the snapshot.  Here the same analysis streams in
//! through *both* bundled front-ends — SQL and the dataframe dialect — and mines into one
//! interface because both parsers target one tree model:
//!
//! ```
//! use pi_ast::Dialect;
//! use pi_core::{PiOptions, Session};
//!
//! let mut session = Session::new(PiOptions::default());
//! session.push_stream_tagged([
//!     (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
//!     (Dialect::FRAMES, "t.filter(x == 2).select(a)"),
//! ]);
//! let v2 = session.snapshot();
//! assert_eq!(v2.version, 2);
//! assert_eq!(v2.dialects, vec![Dialect::SQL, Dialect::FRAMES]);
//! assert_eq!(v2.interface.widgets().len(), 1);
//!
//! session.push_stream_tagged([(Dialect::FRAMES, "t.filter(x == 9).select(a)")]);
//! let v3 = session.snapshot();
//! assert_eq!(v3.version, 3);
//! assert!(v3.interface.expressiveness(&v3.queries) >= 1.0);
//! ```

use crate::interface::Interface;
use crate::pipeline::{GeneratedInterface, PiOptions, StageTimings};
use pi_ast::codec;
use pi_ast::{CodecError, Dialect, ErrorSample, FrontendError, Frontends, IntBuildHasher, Node};
use pi_graph::{
    DedupTable, GraphAccumulator, GraphBuilder, GraphStats, InteractionGraph, QueryLog,
    WindowStrategy,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Leading bytes of every session snapshot — a cheap "is this even ours?" gate before any
/// structured decoding runs.
const SNAPSHOT_MAGIC: &[u8; 6] = b"PISNAP";

/// The snapshot format version this build writes and the single version it reads.
///
/// Any change to the wire layout — section order, kind table order, primitive encodings —
/// must bump this; the golden-fixture compatibility test exists to catch layout drift that
/// forgot to.  Snapshots from other versions fail restore with [`CodecError::Version`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// A memoised snapshot, reused until the next push invalidates it: the mapped interface,
/// its graph stats and the materialised query log — never a copy of the graph.
#[derive(Debug, Clone)]
struct CachedSnapshot {
    version: u64,
    queries: QueryLog,
    stats: GraphStats,
    interface: Interface,
}

/// How many parsed queries a streaming push buffers before handing them to the graph
/// builder in one `extend_batch` call.  Large enough to amortise per-batch overhead and let
/// the memo's pre-alignment fan out; small enough that a streaming session never
/// materialises more than a sliver of the trace.
const STREAM_CHUNK: usize = 1024;

/// Estimated footprint cap for the parse cache; reaching it clears the cache (generational
/// eviction — the hot fragments of a repetitive trace repopulate it within one chunk).
const PARSE_CACHE_MAX_BYTES: usize = 16 << 20;

/// A hash-keyed, collision-safe cache of parsed text fragments.
///
/// Query logs are overwhelmingly repetitive — the same statement text arrives thousands of
/// times — and a parse costs far more than a lookup (~5µs for a 110-byte SQL statement vs
/// ~100ns for a dedup hash lookup).  The cache maps `(dialect, fragment text)` to the
/// parsed statements, keyed by a 64-bit hash but verified by exact text + dialect
/// comparison (a colliding fragment can never serve another's trees).  Cache hits clone the
/// cached trees, which is a refcount bump per statement; the dedup arena then recognises
/// the duplicate shape and drops the clone, so a cached hit allocates nothing.
///
/// Only fragments that parse *cleanly* are cached: a fragment with garbage statements is
/// re-parsed on every occurrence so its failures keep counting (each occurrence of a bad
/// line is one skipped statement, cached or not).
#[derive(Debug, Clone, Default)]
struct ParseCache {
    entries: HashMap<u64, Vec<CachedFragment>>,
    bytes: usize,
}

#[derive(Debug, Clone)]
struct CachedFragment {
    dialect: Dialect,
    text: Box<str>,
    statements: Vec<Node>,
}

impl ParseCache {
    fn key(dialect: Dialect, text: &str) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        dialect.name().hash(&mut h);
        text.hash(&mut h);
        h.finish()
    }

    fn get(&self, dialect: Dialect, text: &str) -> Option<&[Node]> {
        self.entries
            .get(&Self::key(dialect, text))?
            .iter()
            .find(|f| f.dialect == dialect && &*f.text == text)
            .map(|f| f.statements.as_slice())
    }

    fn insert(&mut self, dialect: Dialect, text: &str, statements: Vec<Node>) {
        // Entry estimate: the owned text, the statement handles, the fragment's one-entry
        // vector (which a first push sizes for four fragments) and its map bucket.  The
        // trees are counted as the dedup arena's: every cached statement is the tree the
        // arena keeps for its shape ([`kept_tree`]).
        use std::mem::size_of;
        let entry = 4 * size_of::<CachedFragment>() + size_of::<(u64, Vec<CachedFragment>)>();
        let cost = text.len() + statements.len() * size_of::<Node>() + entry;
        if self.bytes + cost > PARSE_CACHE_MAX_BYTES {
            self.entries.clear();
            self.bytes = 0;
        }
        self.bytes += cost;
        self.entries
            .entry(Self::key(dialect, text))
            .or_default()
            .push(CachedFragment {
                dialect,
                text: text.into(),
                statements,
            });
    }

    /// Estimated bytes retained (text + handles + overhead; shared subtrees excluded).
    fn footprint_bytes(&self) -> usize {
        self.bytes
    }
}

/// The tree the dedup arena keeps for `statement`'s shape once the chunk holding it is
/// appended: the arena's representative when it holds the shape (found without ingesting),
/// or else the chunk's first tree of the shape, which `firsts` records by structural hash.
/// A text whose shape came first under another text (the other dialect, or another
/// spelling) is cached as that tree, and its parsed copy drops after the append.
fn kept_tree(
    dedup: &DedupTable,
    firsts: &mut HashMap<u64, Node, IntBuildHasher>,
    statement: &Node,
) -> Node {
    if let Some(class) = dedup.find(statement) {
        return dedup.representative(class).clone();
    }
    match firsts.entry(statement.structural_hash()) {
        Entry::Occupied(first) if first.get() == statement => first.get().clone(),
        // Another shape with the same hash: the arena tells them apart, and this one keeps
        // its own tree.
        Entry::Occupied(_) => statement.clone(),
        Entry::Vacant(slot) => slot.insert(statement.clone()).clone(),
    }
}

/// A stateful, append-only ingestion session over one analysis's query stream.
///
/// Sessions are **front-end pluggable**: text arrives through
/// [`Session::push_stream_tagged`] in any registered dialect, every query
/// carries the [`Dialect`] it arrived in, and the tags thread through the mined widget
/// domains into the snapshot so the UI can render each closure query in its originating
/// language.  Mining itself is dialect-blind — the front-ends target one tree model, so a
/// mixed SQL + dataframe log diffs into one interaction graph.
///
/// Sessions exploit log repetition the same way batch builds do: the duplicate-collapsing
/// alignment memo (`pi_graph::DiffMemo`) lives in the session's accumulator and persists
/// across pushes, so re-pushing an already-seen query shape costs hash lookups — the
/// expensive tree alignments ran when its shape first paired with the others.  The memo is
/// invisible in snapshots (byte-identical graphs with [`PiOptions::memoize`] on or off).
///
/// Cloning a session forks it: both halves share the diff subtrees accumulated so far
/// (changes hold shared subtree handles) but evolve independently from the clone point.
///
/// Sessions are `Send` (asserted by a compile-time test): a multi-tenant host like
/// `pi-server`'s `SessionPool` can move each tenant's session behind its own lock and
/// apply pushes from whichever worker thread picks the tenant up.  They are *not* designed
/// for shared mutation — one session, one writer at a time.
#[derive(Debug, Clone)]
pub struct Session {
    options: PiOptions,
    frontends: Frontends,
    default_dialect: Dialect,
    builder: GraphBuilder,
    acc: GraphAccumulator,
    /// Distinct dialects seen so far, in first-push order (a handful of entries).
    dialect_table: Vec<Dialect>,
    /// Per-row dialect tag: one byte indexing [`Session::dialect_table`], instead of a
    /// 16-byte `Dialect` per row — at trace scale the difference is megabytes.
    dialect_tags: Vec<u8>,
    skipped: usize,
    errors: ErrorSample,
    parse_cache: ParseCache,
    parse_ms: f64,
    mining_ms: f64,
    mapping_ms: f64,
    cache: Option<CachedSnapshot>,
}

impl Session {
    /// Opens an empty session with the given pipeline options and the standard front-end
    /// registry (SQL as the default dialect, frames alongside).
    pub fn new(options: PiOptions) -> Self {
        Session::with_frontends(options, crate::frontends::standard_frontends())
    }

    /// Opens an empty session over a custom front-end registry.  The registry's first
    /// front-end becomes the session's default dialect (empty registries default to SQL,
    /// leaving the session usable for pre-parsed pushes only).
    pub fn with_frontends(options: PiOptions, frontends: Frontends) -> Self {
        let builder = GraphBuilder::new()
            .window(options.window)
            .policy(options.policy)
            .parallel(options.parallel)
            .threads(options.threads)
            .steal_seed(options.steal_seed)
            .memoize(options.memoize);
        let default_dialect = frontends.default_dialect().unwrap_or_default();
        Session {
            options,
            frontends,
            default_dialect,
            builder,
            acc: GraphAccumulator::new(),
            dialect_table: Vec::new(),
            dialect_tags: Vec::new(),
            skipped: 0,
            errors: ErrorSample::new(ErrorSample::DEFAULT_CAPACITY),
            parse_cache: ParseCache::default(),
            parse_ms: 0.0,
            mining_ms: 0.0,
            mapping_ms: 0.0,
            cache: None,
        }
    }

    /// The table index for `dialect`, minting a new slot on first sight.  Called only for
    /// a query about to be appended, so every table entry is carried by a row.
    fn tag_for(&mut self, dialect: Dialect) -> u8 {
        match self.dialect_table.iter().position(|d| *d == dialect) {
            Some(i) => i as u8,
            None => {
                assert!(
                    self.dialect_table.len() < 256,
                    "a session supports at most 256 distinct dialects"
                );
                self.dialect_table.push(dialect);
                (self.dialect_table.len() - 1) as u8
            }
        }
    }

    /// The options this session runs with.
    pub fn options(&self) -> &PiOptions {
        &self.options
    }

    /// The front-end registry this session routes text through.
    pub fn frontends(&self) -> &Frontends {
        &self.frontends
    }

    /// The session's default dialect: the first front-end of its registry (SQL for
    /// [`Session::new`] and for an empty registry).  It is the tag a one-shot
    /// [`PrecisionInterfaces::from_queries`](crate::PrecisionInterfaces::from_queries) batch
    /// gives its queries, and the dialect hosts parse untagged text in.
    pub fn default_dialect(&self) -> Dialect {
        self.default_dialect
    }

    /// The dialect each ingested query arrived in, parallel to the log rows (row `i` was
    /// pushed in `dialects()[i]`).
    ///
    /// Materialised on demand: internally the session stores one *byte* per row (an index
    /// into a tiny table of distinct dialects), so this allocates `O(n)`.  Poll
    /// [`Session::len`]/[`Session::skipped`] for gauges instead.
    pub fn dialects(&self) -> Vec<Dialect> {
        self.dialect_tags
            .iter()
            .map(|&t| self.dialect_table[t as usize])
            .collect()
    }

    /// Appends one parsed query, incrementally extending the interaction graph: only the
    /// `(i, n)` alignments the window strategy admits are run, so for a sliding window of
    /// `w` this is `O(w)` work however long the log already is.  The query is tagged as
    /// originating in `dialect` (presentation metadata — mining never looks at it).
    /// Returns the query's log index.
    pub fn push_tagged(&mut self, dialect: Dialect, query: Node) -> usize {
        let tag = self.tag_for(dialect);
        self.append([query], [tag]).start
    }

    /// Appends parsed queries as one batch, each tagged with the default dialect: the
    /// one-shot [`PrecisionInterfaces::from_queries`](crate::PrecisionInterfaces::from_queries)
    /// mines its whole log through this in one `extend_batch`.
    pub(crate) fn push_batch(&mut self, queries: Vec<Node>) {
        if queries.is_empty() {
            return;
        }
        let tags = std::iter::repeat(self.tag_for(self.default_dialect)).take(queries.len());
        self.append(queries, tags);
    }

    /// Mines `queries` into the graph with one [`GraphBuilder::extend_batch`] and records
    /// their dialect tags, one per query: the only place a session's log grows.
    fn append(
        &mut self,
        queries: impl IntoIterator<Item = Node>,
        tags: impl IntoIterator<Item = u8>,
    ) -> Range<usize> {
        let start = Instant::now();
        let appended = self.builder.extend_batch(&mut self.acc, queries);
        self.mining_ms += start.elapsed().as_secs_f64() * 1e3;
        self.dialect_tags.extend(tags);
        debug_assert_eq!(self.dialect_tags.len(), self.acc.len());
        appended
    }

    /// Streams a sequence of `(dialect, text)` fragments of any length through the session
    /// in bounded memory, returning how many statements were appended.  This is a session's
    /// one text entry point, from a single statement to a trace of millions of lines:
    ///
    /// * **the trace is never materialised** — fragments are parsed as they arrive and
    ///   buffered in fixed-size chunks (1024 parsed queries), each handed to the graph
    ///   builder in one batch (which also lets the memo's pre-alignment fan out when the
    ///   options ask for it); peak transient state is one chunk, however long the stream;
    /// * **repeated text parses once** — a collision-safe cache maps `(dialect, text)` to
    ///   its parsed statements, so the duplicate-heavy steady state of a real query log
    ///   costs a hash lookup and a refcount bump per repeat instead of a full parse;
    /// * **garbage is skip-and-count** — malformed statements increment
    ///   [`Session::skipped`] and feed the bounded [`Session::parse_errors`] sample without
    ///   allocating per failure, and never abort the stream.  A fragment whose dialect has
    ///   no registered front-end is skipped whole and counted once.
    ///
    /// A dialect enters the session's dialect table only when one of its statements is
    /// appended, so skipped lines leave no trace in the table or in a persisted snapshot.
    ///
    /// The accumulator's distinct-tree arena keeps one retained tree per distinct shape,
    /// so the query log itself grows with the number of *distinct* statements `d` plus
    /// ~5 bytes per row.  Mined state grows per row too, but by a constant: every admitted
    /// pair whose shapes were already aligned appends one 16-byte run row to the
    /// `DiffStore`, however many changes the pair carries, while change lists grow only
    /// with distinct shape pairs ([`Session::memory_footprint`] prices both).  The graph,
    /// snapshots and widgets are byte-identical to pushing the parsed statements one at a
    /// time through [`Session::push_tagged`] (property-tested).
    pub fn push_stream_tagged<I, S>(&mut self, lines: I) -> usize
    where
        I: IntoIterator<Item = (Dialect, S)>,
        S: AsRef<str>,
    {
        let mut appended = 0usize;
        let mut chunk: Vec<Node> = Vec::with_capacity(STREAM_CHUNK);
        let mut chunk_tags: Vec<u8> = Vec::with_capacity(STREAM_CHUNK);
        let mut firsts = HashMap::default();
        let mut scratch: Vec<Node> = Vec::new();
        for (dialect, line) in lines {
            let text = line.as_ref();
            if let Some(statements) = self.parse_cache.get(dialect, text) {
                chunk.extend(statements.iter().cloned());
            } else {
                let Some(frontend) = self.frontends.get(dialect).cloned() else {
                    self.skipped += 1;
                    self.errors.offer_with(|| {
                        FrontendError::new(dialect, "no front-end registered for this dialect")
                    });
                    continue;
                };
                let start = Instant::now();
                let skipped = frontend.parse_statements_lossy(text, &mut scratch, &mut self.errors);
                self.parse_ms += start.elapsed().as_secs_f64() * 1e3;
                self.skipped += skipped;
                if skipped == 0 {
                    // Clean fragments are cached, each statement as the tree the dedup
                    // arena keeps for its shape, so the cache pins no tree of its own.
                    let dedup = self.acc.dedup();
                    let cached = (scratch.iter())
                        .map(|statement| kept_tree(dedup, &mut firsts, statement))
                        .collect();
                    self.parse_cache.insert(dialect, text, cached);
                }
                chunk.append(&mut scratch);
            }
            if chunk.len() > chunk_tags.len() {
                let tag = self.tag_for(dialect);
                chunk_tags.resize(chunk.len(), tag);
            }
            if chunk.len() >= STREAM_CHUNK {
                appended += self.append(chunk.drain(..), chunk_tags.drain(..)).len();
                firsts.clear();
            }
        }
        if !chunk.is_empty() {
            appended += self.append(chunk, chunk_tags).len();
        }
        appended
    }

    /// Number of queries ingested so far.
    ///
    /// Cheap (a field read, no snapshot) — this is what occupancy gauges poll, e.g. the
    /// per-tenant `queries` figure in `pi-server`'s `/stats`, without forcing the mapper
    /// to run.  Equals [`Session::version`].
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// True when no query has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Number of unparseable statements [`Session::push_stream_tagged`] skipped so far; a
    /// fragment in a dialect with no registered front-end counts once.
    ///
    /// Cheap (a field read, no snapshot), so health endpoints can report parse-garbage
    /// rates per poll without re-deriving them from [`GeneratedInterface::skipped`].
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// A bounded sample of recent parse failures (plus an exact total in
    /// [`ErrorSample::seen`]), for `/stats`-style health endpoints.  Retention is capped:
    /// streaming a garbage-heavy trace keeps a recent-ish window of
    /// [`ErrorSample::DEFAULT_CAPACITY`] errors, not one per failure.
    pub fn parse_errors(&self) -> &ErrorSample {
        &self.errors
    }

    /// Estimated heap bytes this session holds, live (no snapshot).
    ///
    /// Counts the distinct-tree arena (a per-node constant, one tree per *distinct* query
    /// shape), per-class bookkeeping, the per-row class id (4 bytes) and dialect tag
    /// (1 byte), the parse cache (fragment text, handles and entries; its trees are the
    /// arena's) and the bounded error sample.  For a repetitive trace this log
    /// storage is dominated by the `d` distinct shapes and grows only ~5 bytes per
    /// additional duplicate row (its class id and dialect tag).  The whole estimate grows a
    /// little faster: the mined state below adds one 16-byte run row per pair the window
    /// admits for that row, whatever the pair's change count.
    ///
    /// Mined state is counted as stored: the `DiffStore`'s run rows, change-list rows and
    /// 16-byte change rows, its path and member tables (whose subtrees alias the arena and
    /// are not double-counted), and the alignment memo's index from class pairs to lists —
    /// the structures a persisted snapshot carries, so this figure is also the right
    /// capacity gauge for eviction-to-snapshot hosts.  Run rows grow with mining volume,
    /// while the lists, changes, tables and memo grow only with *distinct shape pairs* on
    /// the memoized path — duplicate-heavy streams keep them flat.  That is
    /// `O(distinct + runs)`; the edges are the run rows, so they are counted once.
    ///
    /// Buffers count their capacities, not their lengths, so the figure follows what the
    /// allocator holds: `tests/footprint.rs` checks it within ±25% of a counting
    /// allocator's live bytes on Zipf traces at windows 2 and 16.  Deliberately excluded:
    /// the cached snapshot, refreshed per version, which holds the mapped interface, its
    /// stats and the shared query log but no copy of the graph, and the per-thread scratch
    /// the aligner and the mapper reuse, which no session owns.
    pub fn memory_footprint(&self) -> usize {
        self.acc.log_footprint_bytes()
            + self.acc.store().footprint_bytes()
            + self.acc.memo().footprint_bytes()
            + self.dialect_tags.capacity()
            + self.dialect_table.capacity() * std::mem::size_of::<Dialect>()
            + self.parse_cache.footprint_bytes()
            + self.errors.len() * 96
    }

    /// The session version: the number of queries ingested so far.  Bumps on every
    /// successful append, so two snapshots with the same version have identical graphs,
    /// stats and interfaces — and a snapshot at version `n` is identical to a batch build
    /// of the session's first `n` queries.  (Only the bookkeeping fields differ: `skipped`
    /// counts unparseable statements, which don't bump the version, and timings keep
    /// accumulating.)
    pub fn version(&self) -> u64 {
        self.acc.len() as u64
    }

    /// The number of distinct tree shapes among the ingested queries (`d ≤ n`): the size of
    /// the arena the session actually retains trees in.  Cheap (a field read).
    pub fn distinct(&self) -> usize {
        self.acc.distinct()
    }

    /// The query at log row `idx` — the retained representative of its shape class,
    /// structurally identical to the query pushed at that row.  The full row-indexed log is
    /// available from [`Session::snapshot`] (`queries`), which materialises it once per
    /// version.
    pub fn query(&self, idx: usize) -> &Node {
        self.acc.query(idx)
    }

    /// Does nothing: a restored session holds its pair table in the live layout already.
    ///
    /// Kept for hosts that mark a restore boundary with it.  [`Session::restore`] decodes
    /// and validates the whole pair table, so there is nothing left to expand on first
    /// access.
    pub fn hydrate(&mut self) {}

    /// Summary statistics of the graph mined so far (cheap; does not run the mapper).
    pub fn graph_stats(&self) -> GraphStats {
        self.acc.stats()
    }

    /// A frozen copy of the interaction graph mined so far (cheap relative to mining: the
    /// pair table's rows are copied and its subtrees shared, and the log's nodes are
    /// shared into one allocation).
    pub fn graph(&self) -> InteractionGraph {
        self.acc.to_graph()
    }

    /// Returns the generated interface for everything ingested so far.
    ///
    /// Lazy: the interaction mapper only re-runs when queries were pushed since the last
    /// snapshot; repeated snapshots at the same version are served from cache.  The result
    /// is versioned ([`GeneratedInterface::version`]) and **batch-identical**: its stats
    /// and interface are exactly what
    /// [`PrecisionInterfaces::from_queries`](crate::PrecisionInterfaces::from_queries)
    /// would produce for the same query prefix, and [`Session::graph`] at the same version
    /// is the graph a batch build mines.  Only the timings differ — a session reports its
    /// *accumulated* per-stage cost across all pushes and re-maps.
    ///
    /// Cost: pushes are `O(w)`, but a *refreshed* snapshot is not — it runs the mapper
    /// over the session's records in place (no graph copy) and materialises the log into a
    /// shared allocation, `O(n)` refcount bumps.  A cache hit clones the interface and
    /// shares the log.  Snapshot at the cadence the interface refreshes, not per append;
    /// the `session_refresh_sliding16` bench tracks this cost.
    pub fn snapshot(&mut self) -> GeneratedInterface {
        let dialects = self.dialects();
        self.refresh(&dialects);
        let cached = self.cache.as_ref().expect("snapshot cache just refreshed");
        GeneratedInterface {
            interface: cached.interface.clone(),
            queries: QueryLog::clone(&cached.queries),
            dialects,
            skipped: self.skipped,
            graph_stats: cached.stats,
            timings: self.timings(),
            version: cached.version,
        }
    }

    /// Consumes the session, producing its final snapshot without retaining a cache.
    ///
    /// Identical output to [`Session::snapshot`], at the cost of one mapping plus `O(n)`
    /// refcount bumps for the log; the interface is moved out instead of cloned.  This is
    /// what the one-shot batch entry points use: ingest everything, then take the single
    /// snapshot.
    pub fn into_snapshot(mut self) -> GeneratedInterface {
        let dialects = self.dialects();
        self.refresh(&dialects);
        let cached = self.cache.take().expect("snapshot cache just refreshed");
        GeneratedInterface {
            interface: cached.interface,
            queries: cached.queries,
            dialects,
            skipped: self.skipped,
            graph_stats: cached.stats,
            timings: self.timings(),
            version: cached.version,
        }
    }

    /// Maps the accumulator into the snapshot cache unless the cache already holds the
    /// current version.  The mapper reads the accumulator's store in place, and the stats
    /// come from counts at hand: the distinct-path count is the mapper's path table.
    fn refresh(&mut self, dialects: &[Dialect]) {
        let version = self.version();
        if matches!(&self.cache, Some(c) if c.version == version) {
            return;
        }
        let acc = &self.acc;
        let start = Instant::now();
        let mapping = crate::pipeline::mapper(&self.options).map_store(
            acc.store(),
            acc.len(),
            (!acc.is_empty()).then(|| acc.query(0)),
            dialects,
        );
        self.mapping_ms += start.elapsed().as_secs_f64() * 1e3;
        self.cache = Some(CachedSnapshot {
            version,
            queries: acc.query_log(),
            stats: GraphStats {
                queries: acc.len(),
                edges: acc.store().runs().len(),
                diff_records: acc.store().len(),
                distinct_paths: mapping.distinct_paths,
            },
            interface: mapping.interface,
        });
    }

    /// The per-stage wall-clock cost accumulated so far (parse across all streamed text,
    /// mining across all appends, mapping across all snapshot refreshes).
    pub fn timings(&self) -> StageTimings {
        StageTimings {
            parse_ms: self.parse_ms,
            mining_ms: self.mining_ms,
            mapping_ms: self.mapping_ms,
        }
    }

    /// Writes the session's full mining state as a compact, versioned binary snapshot.
    ///
    /// The snapshot captures everything [`Session::restore`] needs to continue the stream
    /// exactly where this session stands: the mined accumulator (distinct-tree arena, the
    /// pair table's changes, lists and runs, and the warm alignment memo), the per-row dialect tags, the skip/error
    /// bookkeeping, accumulated stage timings and the option scalars that shape mining
    /// (window, policy, parallelism, memoization).  Shared subtrees and interned strings
    /// serialize once — payloads are deduplicated by structural identity, so snapshot size
    /// scales with *distinct* state, not log length — and the whole payload rides inside a
    /// checksummed frame, so a flipped bit or truncated file fails restore cleanly instead
    /// of producing a silently different graph.
    ///
    /// Deterministic: equal sessions persist to identical bytes, and
    /// `persist ∘ restore ∘ persist` is byte-stable (pinned by the persistence tests).
    ///
    /// Not captured: the widget library and mapper options (code-like configuration,
    /// re-supplied by [`Session::restore_with`]), the front-end registry (ditto), the parse
    /// cache (a performance artifact that repopulates within one streamed chunk) and any
    /// cached snapshot (recomputed on the first [`Session::snapshot`] after restore).
    ///
    /// The writer reads the pair table as it is stored: it numbers each change of the table
    /// once and writes one row per run.  Persisting a restored session reproduces the
    /// original bytes.  The frame is built in memory and written with one `write_all`: its
    /// checksum is [`codec::checksum`] over the finished payload.
    pub fn persist<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        w.write_all(&self.persist_to_vec()?).map_err(CodecError::Io)
    }

    /// [`Session::persist`] into a fresh buffer — the archival convenience used by
    /// eviction-to-snapshot hosts.
    pub fn persist_to_vec(&self) -> Result<Vec<u8>, CodecError> {
        let mut buf = SNAPSHOT_MAGIC.to_vec();
        codec::put_u32(&mut buf, SNAPSHOT_VERSION)?;
        let header = buf.len();
        self.write_envelope(&mut buf)?;
        let sum = codec::checksum(&buf[header..]);
        codec::put_u64(&mut buf, sum)?;
        Ok(buf)
    }

    /// Restores a session persisted by [`Session::persist`] with default options as the
    /// base; see [`Session::restore_with`].
    pub fn restore(r: &mut &[u8]) -> Result<Session, CodecError> {
        Session::restore_with(r, PiOptions::default())
    }

    /// Restores a session from the snapshot bytes `r` holds, taking library-like
    /// configuration from `base`.  The whole of `r` is the snapshot: restore consumes it,
    /// and bytes past the snapshot's payload fail its checksum.
    ///
    /// The snapshot's own option *scalars* (window, policy, parallel, threads, steal seed,
    /// memoize) win — they shaped the mined state and must keep shaping it — while the
    /// widget library, mapper options and front-end registry come from `base` and the
    /// standard registry respectively, because closures and trait objects don't serialize.
    ///
    /// The restored session is **byte-identical** to the persisted one where it counts:
    /// same graph, same `DiffId`s, same versions, same snapshot output — and its alignment
    /// memo is warm, so the next push only aligns genuinely new shape pairs.  Restoring is
    /// a deserialization pass over *distinct* state plus one small row per run:
    /// milliseconds for a trace that took seconds to mine.  The checksum is verified over
    /// the frame where it lies, with no copy, and the envelope and pair table are then
    /// decoded from the same bytes into the live layout and validated, run by run, so
    /// nothing is left for a first access to expand.
    ///
    /// Any corruption — truncation, bit flips, a foreign file — fails with a clean
    /// [`CodecError`]: the checksum rejects storage damage, and the decoder rejects
    /// whatever passes it but is not a pair table the miner could have written (endpoints
    /// out of range or order, replays of absent memo entries, dangling change indices, a
    /// wrong record count).  A snapshot written by a different format version fails with
    /// [`CodecError::Version`] rather than being misread.
    pub fn restore_with(r: &mut &[u8], base: PiOptions) -> Result<Session, CodecError> {
        if codec::take_bytes(r, SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(codec::corrupt("not a session snapshot (bad magic)"));
        }
        let found = codec::take_u32(r)?;
        if found != SNAPSHOT_VERSION {
            return Err(CodecError::Version {
                found,
                supported: SNAPSHOT_VERSION,
            });
        }
        // The rest is the frame: the payload, then its checksum.
        let frame = std::mem::take(r);
        let Some(payload_len) = frame.len().checked_sub(8) else {
            return Err(codec::corrupt("snapshot truncated before its checksum"));
        };
        let (mut payload, mut tail) = frame.split_at(payload_len);
        let sum = codec::checksum(payload);
        let stored = codec::take_u64(&mut tail)?;
        if stored != sum {
            return Err(codec::corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {sum:#018x})"
            )));
        }
        let session = Session::read_envelope(&mut payload, base)?;
        if !payload.is_empty() {
            return Err(codec::corrupt("trailing bytes inside the snapshot frame"));
        }
        Ok(session)
    }

    /// Writes everything inside the checksummed frame: option scalars, dialect state,
    /// skip/error bookkeeping, timings, then the mined accumulator.
    fn write_envelope<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        match self.options.window {
            WindowStrategy::AllPairs => codec::put_u8(w, 0)?,
            WindowStrategy::Sliding(width) => {
                codec::put_u8(w, 1)?;
                codec::put_varint(w, width as u64)?;
            }
        }
        match self.options.policy {
            pi_diff::AncestorPolicy::Full => codec::put_u8(w, 0)?,
            pi_diff::AncestorPolicy::LcaPruned => codec::put_u8(w, 1)?,
        }
        codec::put_bool(w, self.options.parallel)?;
        codec::put_varint(w, self.options.threads as u64)?;
        match self.options.steal_seed {
            None => codec::put_bool(w, false)?,
            Some(seed) => {
                codec::put_bool(w, true)?;
                codec::put_u64(w, seed)?;
            }
        }
        codec::put_bool(w, self.options.memoize)?;

        codec::put_str(w, self.default_dialect.name())?;
        codec::put_varint(w, self.dialect_table.len() as u64)?;
        for dialect in &self.dialect_table {
            codec::put_str(w, dialect.name())?;
        }
        codec::put_varint(w, self.dialect_tags.len() as u64)?;
        w.write_all(&self.dialect_tags).map_err(CodecError::Io)?;

        codec::put_varint(w, self.skipped as u64)?;
        codec::put_varint(w, self.errors.capacity() as u64)?;
        codec::put_varint(w, self.errors.seen() as u64)?;
        codec::put_varint(w, self.errors.len() as u64)?;
        for error in self.errors.entries() {
            codec::put_str(w, error.dialect.name())?;
            codec::put_str(w, &error.message)?;
        }

        codec::put_f64(w, self.parse_ms)?;
        codec::put_f64(w, self.mining_ms)?;
        codec::put_f64(w, self.mapping_ms)?;

        pi_graph::codec::write_accumulator(w, &self.acc)
    }

    /// Reads the checksummed frame written by [`Session::write_envelope`] from its
    /// already-verified payload.
    fn read_envelope(r: &mut &[u8], base: PiOptions) -> Result<Session, CodecError> {
        let window = match codec::take_u8(r)? {
            0 => WindowStrategy::AllPairs,
            1 => WindowStrategy::Sliding(codec::take_varint(r)? as usize),
            tag => return Err(codec::corrupt(format!("invalid window tag {tag}"))),
        };
        let policy = match codec::take_u8(r)? {
            0 => pi_diff::AncestorPolicy::Full,
            1 => pi_diff::AncestorPolicy::LcaPruned,
            tag => return Err(codec::corrupt(format!("invalid policy tag {tag}"))),
        };
        let parallel = codec::take_bool(r)?;
        let threads = codec::take_varint(r)? as usize;
        let steal_seed = if codec::take_bool(r)? {
            Some(codec::take_u64(r)?)
        } else {
            None
        };
        let memoize = codec::take_bool(r)?;
        let options = PiOptions {
            window,
            policy,
            parallel,
            threads,
            steal_seed,
            memoize,
            ..base
        };

        let restore_dialect = |name: String| Dialect::new(pi_ast::IStr::intern(&name).as_str());
        let default_dialect = restore_dialect(codec::take_str(r)?);
        let table_len = codec::take_count(r)?;
        if table_len > 256 {
            return Err(codec::corrupt(format!(
                "dialect table holds {table_len} entries, sessions cap at 256"
            )));
        }
        let mut dialect_table = Vec::with_capacity(table_len);
        for _ in 0..table_len {
            dialect_table.push(restore_dialect(codec::take_str(r)?));
        }
        let tag_count = codec::take_count(r)?;
        let dialect_tags = codec::take_bytes(r, tag_count)?.to_vec();
        if let Some(&bad) = dialect_tags
            .iter()
            .find(|&&t| usize::from(t) >= dialect_table.len())
        {
            return Err(codec::corrupt(format!(
                "row tag {bad} exceeds the {}-entry dialect table",
                dialect_table.len()
            )));
        }

        let skipped = codec::take_varint(r)? as usize;
        let error_cap = codec::take_count(r)?;
        let error_seen = codec::take_varint(r)? as usize;
        let error_count = codec::take_count(r)?;
        if error_count > error_cap {
            return Err(codec::corrupt(format!(
                "error sample holds {error_count} entries over a cap of {error_cap}"
            )));
        }
        let mut error_entries = Vec::with_capacity(error_count.min(r.len()));
        for _ in 0..error_count {
            let dialect = restore_dialect(codec::take_str(r)?);
            let message = codec::take_str(r)?;
            error_entries.push(FrontendError::new(dialect, message));
        }

        let parse_ms = codec::take_f64(r)?;
        let mining_ms = codec::take_f64(r)?;
        let mapping_ms = codec::take_f64(r)?;

        let acc = pi_graph::codec::read_accumulator(r)?;
        if dialect_tags.len() != acc.len() {
            return Err(codec::corrupt(format!(
                "{} dialect tags for {} log rows",
                dialect_tags.len(),
                acc.len()
            )));
        }

        let mut session = Session::with_frontends(options, crate::frontends::standard_frontends());
        session.default_dialect = default_dialect;
        session.dialect_table = dialect_table;
        session.dialect_tags = dialect_tags;
        session.skipped = skipped;
        session.errors = ErrorSample::from_parts(error_cap, error_seen, error_entries);
        session.parse_ms = parse_ms;
        session.mining_ms = mining_ms;
        session.mapping_ms = mapping_ms;
        session.acc = acc;
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PrecisionInterfaces;
    use pi_ast::Frontend as _;
    use pi_graph::WindowStrategy;

    fn parse(sql: &str) -> Node {
        pi_sql::SqlFrontend.parse_one(sql).unwrap()
    }

    fn log(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 5)))
            .collect()
    }

    /// A snapshot and the graph its session held when it was taken.
    type Mined = (GeneratedInterface, InteractionGraph);

    fn snapped(session: &mut Session) -> Mined {
        (session.snapshot(), session.graph())
    }

    /// The one-shot batch run over `queries`, and the graph a batch build mines from them.
    fn batch(options: &PiOptions, queries: Vec<Node>) -> Mined {
        let pipeline = PrecisionInterfaces::new(options.clone());
        (
            pipeline.from_queries(queries.clone()),
            pipeline.mine(queries),
        )
    }

    fn assert_batch_identical((snap, snap_graph): &Mined, (batch, batch_graph): &Mined) {
        assert_eq!(snap.version, batch.version);
        assert_eq!(snap.graph_stats, batch.graph_stats);
        assert_eq!(snap.graph_stats, snap_graph.stats());
        assert_eq!(snap_graph, batch_graph);
        assert_eq!(snap.interface.widgets(), batch.interface.widgets());
        assert_eq!(snap.interface.describe(), batch.interface.describe());
    }

    #[test]
    fn interleaved_pushes_and_snapshots_match_batch_builds() {
        for window in [WindowStrategy::AllPairs, WindowStrategy::sliding(3)] {
            let options = PiOptions {
                window,
                ..PiOptions::default()
            };
            let queries = log(9);
            let mut session = Session::new(options.clone());
            for (k, q) in queries.iter().enumerate() {
                assert_eq!(session.push_tagged(Dialect::SQL, q.clone()), k);
                let snap = snapped(&mut session);
                assert_batch_identical(&snap, &batch(&options, queries[..=k].to_vec()));
            }
        }
    }

    #[test]
    fn parallel_sessions_match_serial_and_the_batch_path() {
        // A batch append under parallel options must match serial sessions and one-shot
        // builds — and the batch wrappers must keep honouring `parallel` (they reach
        // extend_batch with the whole log, not one query at a time).
        let queries = log(48);
        let parallel_options = PiOptions {
            window: WindowStrategy::AllPairs,
            parallel: true,
            ..PiOptions::default()
        };
        let serial_options = PiOptions {
            parallel: false,
            ..parallel_options.clone()
        };
        let mut par = Session::new(parallel_options.clone());
        let mut ser = Session::new(serial_options);
        par.push_batch(queries.clone());
        ser.push_batch(queries.clone());
        assert_eq!(par.graph(), ser.graph());
        assert_batch_identical(&snapped(&mut par), &batch(&parallel_options, queries));
    }

    #[test]
    fn into_snapshot_matches_snapshot() {
        let queries = log(7);
        let mut kept = Session::new(PiOptions::default());
        let mut consumed = Session::new(PiOptions::default());
        kept.push_batch(queries.clone());
        consumed.push_batch(queries);
        let consumed_graph = consumed.graph();
        assert_batch_identical(
            &snapped(&mut kept),
            &(consumed.into_snapshot(), consumed_graph),
        );
    }

    #[test]
    fn snapshots_are_cached_until_the_next_push() {
        let mut session = Session::new(PiOptions::default());
        session.push_batch(log(4));
        let first = session.snapshot();
        let second = session.snapshot();
        assert_eq!(first.version, second.version);
        assert_eq!(first.interface.describe(), second.interface.describe());
        // A cache hit shares the materialised log instead of rebuilding it.
        assert!(std::sync::Arc::ptr_eq(&first.queries, &second.queries));
        session.push_tagged(Dialect::SQL, log(1).pop().unwrap());
        assert_eq!(session.snapshot().version, first.version + 1);
    }

    #[test]
    fn text_pushes_skip_garbage_and_keep_streaming() {
        let mut session = Session::new(PiOptions::default());
        let a = session.push_stream_tagged([(
            Dialect::SQL,
            "SELECT a FROM t WHERE x = 1; THIS IS NOT SQL;",
        )]);
        let b = session
            .push_stream_tagged([(Dialect::SQL, "ALSO NOT SQL; SELECT a FROM t WHERE x = 2;")]);
        assert_eq!((a, b), (1, 1));
        assert_eq!(session.skipped(), 2);
        assert_eq!(session.version(), 2);
        let snap = session.snapshot();
        assert_eq!(snap.skipped, 2);
        assert_eq!(snap.interface.widgets().len(), 1);
    }

    #[test]
    fn an_empty_session_snapshots_to_an_empty_interface() {
        let mut session = Session::new(PiOptions::default());
        assert!(session.is_empty());
        let snap = session.snapshot();
        assert_eq!(snap.version, 0);
        assert!(snap.interface.widgets().is_empty());
        assert_eq!(snap.graph_stats.queries, 0);
    }

    #[test]
    fn appended_records_keep_stable_diff_ids_across_snapshots() {
        let mut session = Session::new(PiOptions {
            window: WindowStrategy::sliding(4),
            ..PiOptions::default()
        });
        session.push_batch(log(6));
        let (_, early) = snapped(&mut session);
        session.push_batch(log(6));
        let (_, late) = snapped(&mut session);
        // The early snapshot's store is a prefix of the late one's: same ids, same records.
        assert!(early.store().len() <= late.store().len());
        for ((ia, ra), (ib, rb)) in early.store().iter().zip(late.store().iter()) {
            assert_eq!(ia, ib);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn mixed_dialect_streams_mine_into_one_interface() {
        // The same analysis alternates between SQL and the dataframe dialect; the session
        // tags each query and mines them into ONE widget because the trees are identical.
        let mut session = Session::new(PiOptions::default());
        session.push_stream_tagged([
            (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
            (Dialect::FRAMES, "t.filter(x == 2).select(a)"),
            (Dialect::SQL, "SELECT a FROM t WHERE x = 3"),
            (Dialect::FRAMES, "t.filter(x == 9).select(a)"),
        ]);
        let snap = session.snapshot();
        assert_eq!(snap.version, 4);
        assert_eq!(
            snap.dialects,
            vec![Dialect::SQL, Dialect::FRAMES, Dialect::SQL, Dialect::FRAMES]
        );
        assert_eq!(snap.interface.widgets().len(), 1);
        assert_eq!(snap.interface.initial_dialect(), Dialect::SQL);
        assert!(snap.interface.expressiveness(&snap.queries) >= 1.0);
        // The widget's options remember which front-end each value arrived through:
        // 1 and 3 from SQL queries, 2 and 9 from frames queries.
        let domain = &snap.interface.widgets()[0].domain;
        for (node, dialect) in domain.tagged_subtrees() {
            match node.label().as_str() {
                "1" | "3" => assert_eq!(dialect, Dialect::SQL),
                "2" | "9" => assert_eq!(dialect, Dialect::FRAMES),
                other => panic!("unexpected option {other}"),
            }
        }
        // Mining is dialect-blind: the graph equals an all-SQL build of the same trees.
        let all_sql = PrecisionInterfaces::default().mine(&snap.queries);
        assert_eq!(session.graph(), all_sql);
    }

    #[test]
    fn unregistered_dialects_skip_and_count() {
        let mut session = Session::new(PiOptions::default());
        let appended =
            session.push_stream_tagged([(Dialect::new("sparql"), "SELECT ?s WHERE { }")]);
        assert_eq!(appended, 0);
        assert_eq!(session.skipped(), 1);
        assert_eq!(session.version(), 0);
        // The session keeps streaming afterwards.
        session.push_stream_tagged([(Dialect::SQL, "SELECT a FROM t WHERE x = 1")]);
        assert_eq!(session.version(), 1);
    }

    #[test]
    fn custom_registries_change_the_default_frontend() {
        use pi_ast::Frontends;
        // A frames-first session: its default dialect is the dataframe one.
        let registry = Frontends::new().with(pi_frames::FramesFrontend);
        let mut session = Session::with_frontends(PiOptions::default(), registry);
        let frames = session.default_dialect();
        assert_eq!(frames, Dialect::FRAMES);
        session.push_stream_tagged([(frames, "t.filter(x == 1)"), (frames, "t.filter(x == 2)")]);
        assert_eq!(session.dialects(), &[Dialect::FRAMES, Dialect::FRAMES]);
        // SQL is not registered in this session: SQL text skips.
        assert_eq!(
            session.push_stream_tagged([(Dialect::SQL, "SELECT a FROM t")]),
            0
        );
        assert_eq!(session.skipped(), 1);
        let snap = session.snapshot();
        assert_eq!(snap.interface.initial_dialect(), Dialect::FRAMES);
        assert_eq!(snap.interface.widgets().len(), 1);
    }

    #[test]
    fn nesting_past_the_bound_is_skipped_and_the_bound_mines() {
        // On a 2 MiB stack, a spawned worker's default: one statement nested too deep used
        // to overflow it and abort the process.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let depth = pi_ast::MAX_NESTING;
                let sql = |nots: usize, x: i64| {
                    format!("SELECT a FROM t WHERE {}x = {x}", "NOT ".repeat(nots))
                };
                let frames = |parens: usize, x: i64| {
                    let (open, close) = ("(".repeat(parens - 1), ")".repeat(parens - 1));
                    format!("t.filter({open}x == {x}{close})")
                };
                let lines = [
                    (Dialect::SQL, sql(depth, 1)),
                    (Dialect::SQL, sql(100_000, 1)),
                    (Dialect::SQL, sql(depth, 2)),
                    (Dialect::FRAMES, frames(depth, 3)),
                    (Dialect::FRAMES, frames(100_000, 3)),
                    (Dialect::FRAMES, frames(depth, 4)),
                ];
                let mut session = Session::new(PiOptions::default());
                assert_eq!(
                    session.push_stream_tagged(lines.iter().map(|(d, t)| (*d, t))),
                    4
                );
                assert_eq!(session.skipped(), 2);
                let snapshot = session.snapshot();
                assert!(!snapshot.interface.widgets().is_empty());
                let bytes = session.persist_to_vec().expect("the session persists");
                let mut restored =
                    Session::restore_with(&mut bytes.as_slice(), PiOptions::default())
                        .expect("its snapshot restores");
                assert_eq!(
                    restored.snapshot().interface.describe(),
                    snapshot.interface.describe()
                );
            })
            .expect("spawn a session thread")
            .join()
            .expect("the session never panics");
    }

    #[test]
    fn sessions_are_send_and_cheap_accessors_track_state() {
        // The pool-facing audit: a SessionPool moves sessions across worker threads, so
        // Session (and a generated snapshot) must stay Send — if a future change smuggles
        // in an Rc or a non-Send trait object, this stops compiling.
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<GeneratedInterface>();
        // len()/skipped() are the no-snapshot accessors /stats-style gauges poll.
        let mut session = Session::new(PiOptions::default());
        assert_eq!((session.len(), session.skipped()), (0, 0));
        session.push_stream_tagged([(Dialect::SQL, "SELECT a FROM t WHERE x = 1; NOT SQL;")]);
        assert_eq!((session.len(), session.skipped()), (1, 1));
        assert_eq!(session.len() as u64, session.version());
    }

    #[test]
    fn push_stream_matches_per_fragment_pushes() {
        // Chunked, cache-served streaming must be invisible: same graph, same widgets,
        // same dialect tags as streaming each fragment in a call of its own.
        let lines: Vec<String> = (0..300)
            .map(|i| format!("SELECT a FROM t WHERE x = {}", i % 7))
            .collect();
        let options = PiOptions {
            window: WindowStrategy::sliding(8),
            ..PiOptions::default()
        };
        let mut streamed = Session::new(options.clone());
        let mut pushed = Session::new(options);
        assert_eq!(
            streamed.push_stream_tagged(lines.iter().map(|line| (Dialect::SQL, line))),
            300
        );
        for line in &lines {
            pushed.push_stream_tagged([(Dialect::SQL, line)]);
        }
        assert_batch_identical(&snapped(&mut streamed), &snapped(&mut pushed));
        assert_eq!(streamed.dialects(), pushed.dialects());
    }

    #[test]
    fn push_stream_mixed_dialects_and_garbage() {
        let mut session = Session::new(PiOptions::default());
        let appended = session.push_stream_tagged([
            (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
            (Dialect::SQL, "THIS IS NOT SQL"),
            (Dialect::FRAMES, "t.filter(x == 2).select(a)"),
            (Dialect::new("sparql"), "SELECT ?s WHERE { }"),
            (Dialect::SQL, "SELECT a FROM t WHERE x = 3"),
        ]);
        assert_eq!(appended, 3);
        assert_eq!(session.len(), 3);
        assert_eq!(session.skipped(), 2);
        assert_eq!(session.parse_errors().seen(), 2);
        assert!(session.parse_errors().entries().count() >= 1);
        assert_eq!(
            session.dialects(),
            vec![Dialect::SQL, Dialect::FRAMES, Dialect::SQL]
        );
        // The skipped sparql line leaves no entry in the table a snapshot persists.
        assert_eq!(session.dialect_table, [Dialect::SQL, Dialect::FRAMES]);
    }

    #[test]
    fn streamed_duplicates_cost_per_row_bookkeeping_not_trees() {
        // 8 distinct shapes repeated 10k times: after the shapes are warm, each further
        // row may only add per-row bookkeeping (4-byte class id + 1-byte dialect tag) and
        // its mined record rows to the footprint — no new trees, no new parse-cache
        // entries, and (key to the memo's scaling) no new memo pairs: every admitted pair
        // re-hits a shape pair already aligned during warm-up.  The footprint counts
        // capacities, so the two per-row columns may hold up to twice their rows.
        let shapes: Vec<String> = (0..8)
            .map(|i| format!("SELECT a FROM t WHERE x = {i}"))
            .collect();
        let mut session = Session::new(PiOptions {
            window: WindowStrategy::sliding(4),
            ..PiOptions::default()
        });
        let sql = |line| (Dialect::SQL, line);
        session.push_stream_tagged(shapes.iter().cycle().take(1000).map(sql));
        let warm = session.memory_footprint();
        let warm_store = session.acc.store().footprint_bytes();
        let warm_memo = session.acc.memo().footprint_bytes();
        let warm_arena = session.acc.dedup().arena_nodes();
        let warm_cache = session.parse_cache.footprint_bytes();
        assert_eq!(session.distinct(), 8);
        session.push_stream_tagged(shapes.iter().cycle().take(9000).map(sql));
        assert_eq!(session.len(), 10_000);
        assert_eq!(session.distinct(), 8);
        let grown = session.memory_footprint();
        let mined_growth = session.acc.store().footprint_bytes() - warm_store;
        assert_eq!(
            session.acc.memo().footprint_bytes(),
            warm_memo,
            "duplicate-only rows must not grow the alignment memo"
        );
        assert_eq!(
            session.acc.dedup().arena_nodes(),
            warm_arena,
            "no new trees"
        );
        assert_eq!(
            session.parse_cache.footprint_bytes(),
            warm_cache,
            "no new parse-cache entries"
        );
        assert!(
            grown - warm - mined_growth <= 2 * 5 * session.len(),
            "footprint grew {warm} -> {grown} ({mined_growth} of it mined records) for duplicate-only rows"
        );
    }

    #[test]
    fn the_parse_cache_holds_the_arena_trees_and_no_copy_of_its_own() {
        // Two spellings of one shape, first in one chunk and then with the shape already in
        // the arena: every cached statement is the arena's representative, physically.
        let spellings = ["SELECT a FROM t WHERE x = 1", "select a from t where x = 1"];
        let later = "SELECT  a FROM t WHERE x = 1";
        let mut session = Session::new(PiOptions::default());
        session.push_stream_tagged(spellings.map(|text| (Dialect::SQL, text)));
        session.push_stream_tagged([(Dialect::SQL, later)]);
        assert_eq!((session.len(), session.distinct()), (3, 1));
        for text in spellings.into_iter().chain([later]) {
            let cached = session.parse_cache.get(Dialect::SQL, text).unwrap();
            assert!(cached[0].ptr_eq(session.query(0)), "{text}");
        }
    }

    #[test]
    fn memo_hits_grow_the_footprint_by_one_run_row_whatever_the_pair_carries() {
        // Two shape pairs: one differs in one literal, the other in ten.  Once both ordered
        // class pairs are aligned, every further row is a memo hit and may add only its
        // bookkeeping and one run row — the same growth for both, which is the
        // O(distinct + runs) bound on mined state.  The footprint counts capacities, so the
        // growth is that of the per-row columns (a 16-byte run row, a 4-byte class id and a
        // 1-byte dialect tag a row), each holding at most twice its rows.
        let wide = |v: i64| {
            let terms: Vec<String> = (0..10).map(|k| format!("c{k} = {v}")).collect();
            parse(&format!("SELECT a FROM t WHERE {}", terms.join(" AND ")))
        };
        let pairs = [
            [
                parse("SELECT a FROM t WHERE x = 1"),
                parse("SELECT a FROM t WHERE x = 2"),
            ],
            [wide(1), wide(2)],
        ];
        const ROWS: usize = 1000;
        let mut per_row = Vec::new();
        for pair in &pairs {
            let mut session = Session::new(PiOptions {
                window: WindowStrategy::sliding(2),
                ..PiOptions::default()
            });
            for k in 0..3 {
                session.push_tagged(Dialect::SQL, pair[k % 2].clone());
            }
            let changes = session.acc.store().len() / session.acc.store().runs().len();
            let warm = session.memory_footprint();
            for k in 3..3 + ROWS {
                session.push_tagged(Dialect::SQL, pair[k % 2].clone());
            }
            assert_eq!(
                session.acc.memo().alignments(),
                2,
                "only the warm-up aligned"
            );
            let grown = session.memory_footprint() - warm;
            assert!(
                grown <= 2 * (16 + 4 + 1) * session.len(),
                "{grown} bytes over {ROWS} rows"
            );
            per_row.push((changes, grown));
        }
        assert_eq!(per_row[0].0, 2);
        assert!(per_row[1].0 >= 20, "{per_row:?}");
        assert_eq!(per_row[0].1, per_row[1].1, "{per_row:?}");
    }

    #[test]
    fn resealed_mining_section_flips_restore_cleanly_or_fail() {
        // The checksum is a lane sum, not a MAC: bytes changed and re-sealed reach the
        // decoder.  Each flip of the mining section must then either fail restore or give a
        // session that maps and persists without panicking.
        for memoize in [true, false] {
            let mut session = Session::new(PiOptions {
                memoize,
                ..PiOptions::default()
            });
            session.push_stream_tagged([
                (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
                (Dialect::SQL, "SELECT b FROM t WHERE x = 2"),
                (Dialect::SQL, "SELECT a FROM t WHERE x = 3"),
            ]);
            let bytes = session.persist_to_vec().unwrap();
            let mut mining = Vec::new();
            pi_graph::codec::write_accumulator(&mut mining, &session.acc).unwrap();
            let header = SNAPSHOT_MAGIC.len() + 4;
            let end = bytes.len() - 8;
            let section = end - mining.len()..end;
            assert_eq!(&bytes[section.clone()], mining.as_slice());
            let (mut restored_ok, mut rejected) = (0, 0);
            for i in section {
                // Every single-bit flip, a run tag turned into 7, and a full inversion.
                for mask in (0..8).map(|bit| 1u8 << bit).chain([0x07, 0xff]) {
                    let mut bad = bytes.clone();
                    bad[i] ^= mask;
                    let sum = codec::checksum(&bad[header..end]);
                    bad[end..].copy_from_slice(&sum.to_le_bytes());
                    match Session::restore(&mut bad.as_slice()) {
                        Ok(mut restored) => {
                            restored_ok += 1;
                            let _ = restored.graph();
                            let _ = restored.snapshot();
                            restored
                                .persist_to_vec()
                                .expect("a restored session persists");
                        }
                        Err(_) => rejected += 1,
                    }
                }
            }
            assert!(
                restored_ok > 0 && rejected > 0,
                "{restored_ok} / {rejected}"
            );
        }
    }

    /// `bytes` with the one-byte varint 0 at `at` spelled as the overflowing 10-byte varint
    /// `80 80 80 80 80 80 80 80 80 02`, whose bit 64 a wrapping decoder drops to read 0, and
    /// with its checksum resealed.
    fn with_overflowing_zero(bytes: &[u8], at: usize) -> Vec<u8> {
        assert_eq!(bytes[at], 0);
        let mut bad = bytes[..at].to_vec();
        bad.extend([0x80; 9]);
        bad.push(0x02);
        bad.extend(&bytes[at + 1..bytes.len() - 8]);
        let sum = codec::checksum(&bad[SNAPSHOT_MAGIC.len() + 4..]);
        bad.extend(sum.to_le_bytes());
        bad
    }

    #[test]
    fn an_overflowing_varint_fails_restore_in_the_envelope_and_the_node_table() {
        let mut session = Session::new(PiOptions::default());
        session.push_stream_tagged([
            (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
            (Dialect::SQL, "SELECT a FROM t WHERE x = 2"),
        ]);
        let bytes = session.persist_to_vec().unwrap();
        let end = bytes.len() - 8;
        // The envelope's thread count, 0 by default, follows the window, the policy and the
        // parallel flag.
        let mut r = &bytes[SNAPSHOT_MAGIC.len() + 4..end];
        assert_eq!(codec::take_u8(&mut r).unwrap(), 1, "a sliding window");
        codec::take_varint(&mut r).unwrap();
        codec::take_u8(&mut r).unwrap();
        codec::take_bool(&mut r).unwrap();
        let threads_at = end - r.len();
        // The node table's first entry is a leaf: its child count, 0, follows its kind and
        // attributes.
        let mut mining = Vec::new();
        pi_graph::codec::write_accumulator(&mut mining, &session.acc).unwrap();
        let mut r = &bytes[end - mining.len()..end];
        codec::take_count(&mut r).unwrap();
        codec::take_kind(&mut r).unwrap();
        for _ in 0..codec::take_count(&mut r).unwrap() {
            codec::take_str(&mut r).unwrap();
            codec::take_attr_value(&mut r).unwrap();
        }
        let child_count_at = end - r.len();
        for at in [threads_at, child_count_at] {
            let bad = with_overflowing_zero(&bytes, at);
            match Session::restore(&mut bad.as_slice()) {
                Err(CodecError::Corrupt(msg)) => assert!(msg.contains("overflows"), "{msg}"),
                Err(other) => panic!("byte {at}: {other}"),
                Ok(_) => panic!("byte {at}: an overflowing varint restored"),
            }
        }
        Session::restore(&mut bytes.as_slice()).expect("the snapshot as written restores");
    }

    #[test]
    fn timings_accumulate_across_pushes() {
        let mut session = Session::new(PiOptions::default());
        session.push_stream_tagged([(
            Dialect::SQL,
            "SELECT a FROM t WHERE x = 1; SELECT a FROM t WHERE x = 2;",
        )]);
        let snap = session.snapshot();
        assert!(snap.timings.parse_ms >= 0.0);
        assert!(snap.timings.mining_ms >= 0.0);
        assert!(snap.timings.total_ms() >= snap.timings.mapping_ms);
    }
}
