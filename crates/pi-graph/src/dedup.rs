//! Duplicate collapsing and alignment memoization: the machinery that makes AllPairs mining
//! cost `O(d²)` alignments over the `d` *distinct* tree shapes of a log instead of `O(n²)`
//! over its `n` queries.
//!
//! Real query logs are overwhelmingly repetitive — a handful of distinct query shapes
//! accounts for most of a log (the paper's SDSS/SQLShare samples, the Archive Query Log
//! study) — yet pairwise alignment depends only on tree *structure*.  So the builder
//! collapses the log to its distinct shapes at ingest ([`DedupTable`]) and runs the
//! expensive ordered-tree alignment once per distinct ordered pair ([`DiffMemo`]): the
//! memoized change list lives once in the [`DiffStore`](pi_diff::DiffStore), and every log
//! pair of those shapes adds one run row pointing at it.  Both layers are invisible in the
//! output: graphs, records, `DiffId` offsets and edges are byte-identical with the memo on
//! or off — only the work to produce them changes.

use pi_ast::{IntBuildHasher, Node};
use pi_diff::{AncestorPolicy, DiffStore};
use std::collections::HashMap;

/// A structural deduplication table over an append-only query log.
///
/// Each ingested query maps to a *distinct-tree id* (its equivalence class under structural
/// equality); the first query observed with a given shape becomes the class
/// **representative**, and every later duplicate resolves to the same id in O(1) expected
/// time via the memoized [`Node::structural_hash`].
///
/// # Hash-collision fallback contract
///
/// Classes are bucketed by the 64-bit structural hash, but the hash alone never decides
/// membership: on a bucket hit the candidate class's representative is compared with full
/// [`Node`] equality (`PartialEq` verifies kind, attributes and children whenever hashes
/// agree), so two structurally *distinct* trees that collide in the hash are kept as two
/// distinct classes.  This is load-bearing for the memoized builder's byte-identity
/// guarantee: if colliding shapes were merged, alignments for *other* pairs involving the
/// swallowed shape would run against the wrong representative and produce records a
/// memo-off build would not.  (The aligner's own `same_tree` short-circuit still treats a
/// colliding *pair* as equal — that tolerance is the paper's, shared by the memo-off path,
/// so the outputs agree there too.)
#[derive(Debug, Clone, Default)]
pub struct DedupTable {
    /// Canonical representative per class, indexed by distinct-tree id: the first query of
    /// that shape to be ingested (a refcount bump, never a tree copy).
    classes: Vec<Node>,
    /// Node count of each class representative, measured once at class creation.  The
    /// parallel gate's cost model ([`pi_diff::align_cost_model`]) reads these on every
    /// missing pair, and [`Node::size`] is an `O(tree)` walk — caching it here turns the
    /// per-pair estimate into two array loads and a multiply.
    sizes: Vec<u32>,
    /// Structural hash → ids of the classes whose representatives carry that hash.  The
    /// bucket has one entry except under a 64-bit collision.  Keyed by the memoized
    /// structural hash — already well-mixed — through the integer hasher instead of
    /// SipHash: ingest sits on the per-query hot path.
    by_hash: HashMap<u64, Bucket, IntBuildHasher>,
    /// Distinct-tree id per ingested query, in log order.
    class_of: Vec<u32>,
    /// Running Σ of `sizes` — total nodes retained across all class representatives, so the
    /// memory-footprint estimate is an O(1) read rather than an O(d) sum per poll.
    arena_nodes: usize,
}

/// Per-node heap footprint of a retained tree, in bytes: one `NodeInner` (kind, hashes,
/// attr/children vector headers) plus its `Arc` header and amortised attribute entries —
/// 135.5 bytes a node, measured with a counting allocator over the 167 distinct trees of
/// `zipf_trace(20_000, 256, 0.01, 7)`.  Attribute *strings* are interned process-wide
/// (`pi_ast::IStr`) and therefore excluded — they are accounted once globally, not per
/// retained tree.
const NODE_FOOTPRINT_ESTIMATE: usize = 136;

/// A bucket of class ids sharing one structural hash: inline for the overwhelmingly common
/// collision-free case (no heap allocation per distinct shape), a `Vec` under a real 64-bit
/// collision.
#[derive(Debug, Clone)]
enum Bucket {
    One(u32),
    Colliding(Vec<u32>),
}

impl Bucket {
    fn ids(&self) -> &[u32] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Colliding(ids) => ids,
        }
    }

    fn push(&mut self, id: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Colliding(vec![*first, id]),
            Bucket::Colliding(ids) => ids.push(id),
        }
    }
}

impl DedupTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests the next query of the log, returning its distinct-tree id.
    pub fn ingest(&mut self, query: &Node) -> u32 {
        self.ingest_hashed(query.structural_hash(), query)
    }

    /// [`DedupTable::ingest`] with the bucket hash supplied by the caller — the test seam
    /// that lets the collision fallback be exercised without manufacturing a real 64-bit
    /// collision.
    pub(crate) fn ingest_hashed(&mut self, hash: u64, query: &Node) -> u32 {
        let fresh = u32::try_from(self.classes.len()).expect("fewer than 2^32 shapes");
        let class = match self.by_hash.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                // Full equality on every bucket probe: the hash routed us here, the
                // representative decides (see the collision contract above).
                match slot
                    .get()
                    .ids()
                    .iter()
                    .copied()
                    .find(|&c| self.classes[c as usize] == *query)
                {
                    Some(class) => class,
                    None => {
                        slot.get_mut().push(fresh);
                        self.classes.push(query.clone());
                        let size = measured_size(query);
                        self.sizes.push(size);
                        self.arena_nodes += size as usize;
                        fresh
                    }
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Bucket::One(fresh));
                self.classes.push(query.clone());
                let size = measured_size(query);
                self.sizes.push(size);
                self.arena_nodes += size as usize;
                fresh
            }
        };
        self.class_of.push(class);
        class
    }

    /// The class of `query`'s shape, if the table holds it, found as [`DedupTable::ingest`]
    /// finds it (bucket by hash, decide by full equality) but without ingesting anything.
    pub fn find(&self, query: &Node) -> Option<u32> {
        let bucket = self.by_hash.get(&query.structural_hash())?;
        (bucket.ids().iter().copied()).find(|&c| self.classes[c as usize] == *query)
    }

    /// Number of queries ingested so far.
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// True when no query has been ingested.
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }

    /// Number of distinct tree shapes observed so far (`d ≤ n`).
    pub fn distinct(&self) -> usize {
        self.classes.len()
    }

    /// The distinct-tree id of the query at log index `idx`.
    pub fn class_of(&self, idx: usize) -> u32 {
        self.class_of[idx]
    }

    /// The canonical representative of a class: the first ingested query of that shape.
    pub fn representative(&self, class: u32) -> &Node {
        &self.classes[class as usize]
    }

    /// Node count of the class representative, cached at class creation — the input to the
    /// parallel gate's per-pair cost estimate ([`pi_diff::align_cost_model`]).
    pub fn tree_size(&self, class: u32) -> usize {
        self.sizes[class as usize] as usize
    }

    /// Total nodes retained across all class representatives (Σ of [`DedupTable::tree_size`]
    /// over the classes; an O(1) read of a running sum).
    pub fn arena_nodes(&self) -> usize {
        self.arena_nodes
    }

    /// Estimated heap bytes this table retains: the distinct-tree arena (grows with the
    /// number of distinct shapes `d`), the per-class columns and hash buckets, and the
    /// 4-byte per-row class index (grows with log length `n` — the *only* per-row term).
    /// The columns count their capacities; the trees count a measured per-node constant
    /// (136 bytes).  O(1).
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        // A bucket slot and its control byte, at the table's 7/8 load.
        let bucket = (size_of::<(u64, Bucket)>() + 1) * 8 / 7;
        self.arena_nodes * NODE_FOOTPRINT_ESTIMATE
            + self.classes.capacity() * size_of::<Node>()
            + self.sizes.capacity() * size_of::<u32>()
            + self.by_hash.capacity() * bucket
            + self.class_of.capacity() * size_of::<u32>()
    }
}

/// A tree's node count saturated into the cache's `u32` (a tree of ≥ 2³² nodes would not
/// fit in memory anyway; saturation merely caps the cost estimate).
fn measured_size(query: &Node) -> u32 {
    u32::try_from(query.size()).unwrap_or(u32::MAX)
}

/// The memo key of the ordered class pair `(ca, cb)`: source class in the high half, so
/// keys sort by source class, then by target class.
pub(crate) fn pair_key(ca: u32, cb: u32) -> u64 {
    (u64::from(ca) << 32) | u64::from(cb)
}

/// A map from ordered class pairs to `u32` values that finds a pair without hashing it:
/// per source class, its partner classes and their values, sorted by partner class in one
/// contiguous block of a shared arena.  A lookup indexes the source class's block and
/// binary-searches it, which reads one or two cache lines for the few dozen partners a
/// class meets under a sliding window.
///
/// Memory is bounded by the pairs met, not by classes²: a block that fills up moves to the
/// end of the arena with twice the room, so the arena holds at most four slots per pair
/// plus four per source class, and the block table one row per source class.  Classes are
/// dense and assigned first-come, so the block table is as long as the largest source
/// class met.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairIndex {
    /// Per source class: where its partners lie in `partners`.
    blocks: Vec<Block>,
    /// `(target class, value)` entries, block after block, each block sorted by target
    /// class; the slots of a block past its length are spare, and blocks that moved leave
    /// their old slots behind.
    partners: Vec<(u32, u32)>,
    len: usize,
}

/// The block table's and the arena's first sizes, in blocks and in four-slot blocks: an
/// index that holds anything starts at a few kilobytes, instead of regrowing through the
/// smallest sizes one allocation at a time.
const MIN_ROOM: usize = 64;

/// One source class's entries: `len` of them from `start` in the arena, in room for `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    start: u32,
    len: u32,
    cap: u32,
}

impl PairIndex {
    /// Source class `ca`'s `(target class, value)` entries, sorted by target class.
    fn entries(&self, ca: u32) -> &[(u32, u32)] {
        self.blocks.get(ca as usize).map_or(&[], |block| {
            &self.partners[block.start as usize..(block.start + block.len) as usize]
        })
    }

    /// The value stored for `(ca, cb)`, or where in `ca`'s block `cb` would go.
    pub(crate) fn find(&self, ca: u32, cb: u32) -> Result<u32, usize> {
        let entries = self.entries(ca);
        let k = entries.partition_point(|&(c, _)| c < cb);
        match entries.get(k) {
            Some(&(c, value)) if c == cb => Ok(value),
            _ => Err(k),
        }
    }

    /// The value stored for `(ca, cb)`, if any.
    pub(crate) fn get(&self, ca: u32, cb: u32) -> Option<u32> {
        self.find(ca, cb).ok()
    }

    /// Stores `value` for `(ca, cb)`, a pair not stored yet.
    pub(crate) fn insert(&mut self, ca: u32, cb: u32, value: u32) {
        let k = self.find(ca, cb).expect_err("a pair is stored once");
        self.insert_at(ca, cb, k, value);
    }

    /// Stores `value` for `(ca, cb)`, a pair not stored yet, at position `k` of `ca`'s
    /// block, where [`PairIndex::find`] said it goes.
    pub(crate) fn insert_at(&mut self, ca: u32, cb: u32, k: usize, value: u32) {
        if ca as usize >= self.blocks.len() {
            let len = (ca as usize + 1).max(2 * self.blocks.len()).max(MIN_ROOM);
            self.blocks.resize(len, Block::default());
        }
        let mut block = self.blocks[ca as usize];
        let (start, len) = (block.start as usize, block.len as usize);
        if block.len == block.cap {
            if self.partners.capacity() == 0 {
                self.partners.reserve(4 * MIN_ROOM);
            }
            let moved = self.partners.len();
            block.cap = (2 * block.cap).max(4);
            block.start = u32::try_from(moved).expect("fewer than 2^32 memo slots");
            self.partners.extend_from_within(start..start + len);
            self.partners.resize(moved + block.cap as usize, (0, 0));
        }
        let start = block.start as usize;
        self.partners
            .copy_within(start + k..start + len, start + k + 1);
        self.partners[start + k] = (cb, value);
        block.len += 1;
        self.blocks[ca as usize] = block;
        self.len += 1;
    }

    /// The number of pairs stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every `(source class, target class, value)`, in pair-key order.
    fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.blocks.len() as u32)
            .flat_map(move |ca| self.entries(ca).iter().map(move |&(cb, v)| (ca, cb, v)))
    }

    /// Heap bytes held, from the capacities.
    fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Block>()
            + self.partners.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The alignment memo: for each distinct ordered pair of tree shapes already aligned, the
/// id of its change list in the accumulator's [`DiffStore`].  The class vocabulary lives in
/// the accumulator's [`DedupTable`] and the lists in its store, so the lookup methods borrow
/// them per call; the memo itself is an index from class pairs to list ids — per source
/// class, its partner classes sorted in one block of a shared arena — which a lookup reads
/// without hashing.
///
/// Keys are **ordered** `(source class, target class)` pairs, not unordered sets: the
/// aligner's LCS tie-breaking is direction-sensitive (and change paths are expressed in
/// source-tree coordinates), so deriving the reverse direction from a forward alignment
/// could produce a change list a memo-off `extract_changes(b, a, …)` would not — breaking the
/// byte-identity contract.  An ordered memo costs at most twice the unordered pair count
/// and keeps the guarantee unconditional; the alignment budget is still `O(d²)`, not
/// `O(n²)`.
///
/// Every distinct ordered pair is memoized the first time it is met, so it is aligned once
/// per memo lifetime and hit from the memo ever after: a hit appends one run row to the
/// store, however many changes the list holds.
///
/// Entries are computed under one [`AncestorPolicy`]; mining with a different policy
/// forgets them (they describe different ancestor closures).  Their lists stay in the store
/// for the runs that already use them.
#[derive(Debug, Clone, Default)]
pub struct DiffMemo {
    pairs: PairIndex,
    policy: Option<AncestorPolicy>,
    alignments: usize,
}

impl DiffMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ordered distinct pairs whose alignment is memoized.
    pub fn memoized_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of full alignments (class representatives aligned into a change list)
    /// performed through the memoized mining path — exactly one per distinct ordered pair
    /// met (a pair of one shape needs none), the work term duplicate collapsing bounds by
    /// `O(d²)` however many log pairs were enumerated.
    pub fn alignments(&self) -> usize {
        self.alignments
    }

    /// Pins the ancestor policy, forgetting memoized pairs computed under a different one.
    pub(crate) fn set_policy(&mut self, policy: AncestorPolicy) {
        if self.policy != Some(policy) {
            self.pairs = PairIndex::default();
            self.policy = Some(policy);
        }
    }

    /// The list id memoized for the ordered pair `(ca, cb)`, if present.
    pub(crate) fn get(&self, ca: u32, cb: u32) -> Option<u32> {
        self.pairs.get(ca, cb)
    }

    /// The list id memoized for the ordered pair `(ca, cb)`.  On a miss the class
    /// representatives are aligned straight into `store`'s change table as a new list
    /// ([`DiffStore::push_alignment`]), so a miss moves no change through a temporary
    /// vector.  Callers must have pinned the policy via `set_policy`.
    pub(crate) fn list(
        &mut self,
        dedup: &DedupTable,
        store: &mut DiffStore,
        ca: u32,
        cb: u32,
        policy: AncestorPolicy,
    ) -> u32 {
        debug_assert_eq!(self.policy, Some(policy), "set_policy before list");
        let at = match self.pairs.find(ca, cb) {
            Ok(list) => return list,
            Err(at) => at,
        };
        let list = store.push_alignment(dedup.representative(ca), dedup.representative(cb), policy);
        self.alignments += 1;
        self.pairs.insert_at(ca, cb, at, list);
        list
    }

    /// Records an alignment whose list the caller appended (the parallel pre-alignment
    /// path).
    pub(crate) fn insert(&mut self, ca: u32, cb: u32, list: u32) {
        self.alignments += 1;
        self.pairs.insert(ca, cb, list);
    }

    /// The pinned ancestor policy, if any (snapshot codec).
    pub(crate) fn pinned_policy(&self) -> Option<AncestorPolicy> {
        self.policy
    }

    /// The memoized `(pair key, list id)` pairs, in key order (snapshot codec).
    pub(crate) fn pairs_iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        (self.pairs.iter()).map(|(ca, cb, list)| (pair_key(ca, cb), list))
    }

    /// Rebuilds a memo from persisted parts — pinned policy, lifetime alignment count and
    /// memoized pairs.  The snapshot codec's restore path: a restored memo is *warm*, so the
    /// first post-restore push aligns only genuinely new pairs.
    pub(crate) fn from_parts(
        policy: Option<AncestorPolicy>,
        alignments: usize,
        pairs: PairIndex,
    ) -> Self {
        DiffMemo {
            pairs,
            policy,
            alignments,
        }
    }

    /// Heap bytes the memo holds, from its capacities: the pair index's block table and
    /// arena.  The lists themselves are the store's.
    pub fn footprint_bytes(&self) -> usize {
        self.pairs.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> Node {
        pi_sql::SqlFrontend.parse_one(sql).unwrap()
    }

    #[test]
    fn duplicates_collapse_to_one_class_with_the_first_occurrence_as_representative() {
        let mut table = DedupTable::new();
        let a = parse("SELECT a FROM t WHERE x = 1");
        let a_again = parse("SELECT a FROM t WHERE x = 1");
        let b = parse("SELECT a FROM t WHERE x = 2");
        assert_eq!(table.ingest(&a), 0);
        assert_eq!(table.ingest(&b), 1);
        assert_eq!(table.ingest(&a_again), 0);
        assert_eq!((table.len(), table.distinct()), (3, 2));
        assert_eq!(table.class_of(2), table.class_of(0));
        // The representative is the *first* ingested query — physically, not just
        // structurally (a refcount bump of `a`, not of `a_again`).
        assert!(table.representative(0).ptr_eq(&a));
        assert!(!table.is_empty());
        // A lookup finds a shape's class without ingesting it.
        assert_eq!(table.find(&a_again), Some(0));
        assert_eq!(table.find(&parse("SELECT a FROM t WHERE x = 3")), None);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn class_tree_sizes_are_cached_at_ingest() {
        let mut table = DedupTable::new();
        let a = parse("SELECT a FROM t WHERE x = 1");
        let b = parse("SELECT a, b, c FROM t WHERE x = 1 AND y = 2");
        table.ingest(&a);
        table.ingest(&b);
        table.ingest(&a);
        assert_eq!(table.tree_size(0), a.size());
        assert_eq!(table.tree_size(1), b.size());
        assert!(table.tree_size(1) > table.tree_size(0));
    }

    #[test]
    fn hash_collisions_fall_back_to_full_equality_and_stay_distinct() {
        // Two structurally different trees forced into the same bucket must come out as two
        // classes: the bucket scan compares representatives with full `Node` equality.
        let mut table = DedupTable::new();
        let a = parse("SELECT a FROM t WHERE x = 1");
        let b = parse("SELECT b FROM u WHERE y = 2");
        let forced = 0xdead_beef;
        assert_eq!(table.ingest_hashed(forced, &a), 0);
        assert_eq!(table.ingest_hashed(forced, &b), 1);
        assert_eq!(table.distinct(), 2);
        // And re-probing the shared bucket still resolves each shape to its own class.
        assert_eq!(table.ingest_hashed(forced, &a), 0);
        assert_eq!(table.ingest_hashed(forced, &b), 1);
    }

    #[test]
    fn collision_buckets_resolve_ten_thousand_distinct_shapes() {
        // Trace-scale collision pressure: 10 000 distinct trees forced into 8-way 64-bit
        // collision buckets (1 250 buckets, every probe scanning up to 8 representatives
        // with full equality), each shape ingested twice.  Class ids must be dense and
        // first-come, the second pass must resolve every shape to its existing class, and
        // the arena must hold exactly the distinct trees — collision fallback may never
        // mint a duplicate class or merge two shapes.
        const SHAPES: usize = 10_000;
        let shapes: Vec<Node> = (0..SHAPES)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {i}")))
            .collect();
        let mut table = DedupTable::new();
        for (i, query) in shapes.iter().enumerate() {
            assert_eq!(table.ingest_hashed((i / 8) as u64, query), i as u32);
        }
        for (i, query) in shapes.iter().enumerate() {
            assert_eq!(table.ingest_hashed((i / 8) as u64, query), i as u32);
        }
        assert_eq!((table.len(), table.distinct()), (2 * SHAPES, SHAPES));
        for (class, shape) in shapes.iter().enumerate() {
            // Representatives are the first pass's trees, physically.
            assert!(table.representative(class as u32).ptr_eq(shape));
        }
        // Row → class mapping covers both passes.
        assert_eq!(table.class_of(SHAPES + 1_234), 1_234);
    }

    #[test]
    fn memo_aligns_each_recurring_ordered_pair_once_and_matches_extract_changes() {
        let queries = vec![
            parse("SELECT a FROM t WHERE x = 1"),
            parse("SELECT a FROM t WHERE x = 2"),
            parse("SELECT a FROM t WHERE x = 1"),
            parse("SELECT a FROM t WHERE x = 2"),
        ];
        let mut dedup = DedupTable::new();
        for query in &queries {
            dedup.ingest(query);
        }
        let mut memo = DiffMemo::new();
        let mut store = DiffStore::new();
        let policy = AncestorPolicy::LcaPruned;
        memo.set_policy(policy);
        assert_eq!(dedup.distinct(), 2);
        for j in 1..queries.len() {
            for i in 0..j {
                let (ca, cb) = (dedup.class_of(i), dedup.class_of(j));
                if ca == cb {
                    continue;
                }
                let list = memo.list(&dedup, &mut store, ca, cb, policy);
                // The memoized list is the direct extraction, leaves first — exactly what
                // the graph's run of the pair reads.
                let direct = pi_diff::extract_changes(&queries[i], &queries[j], policy);
                assert!(store.list_changes(list).eq(direct.iter().cloned()));
                assert_eq!(
                    store.list_leaves(list),
                    direct.iter().filter(|c| c.is_leaf).count()
                );
                assert!(store.list_len(list) > 0);
            }
        }
        // Four differing log pairs, but only the two recurring ordered distinct pairs were
        // ever aligned, into one list each.
        assert_eq!(memo.alignments(), 2);
        assert_eq!(memo.memoized_pairs(), 2);
        assert_eq!(store.list_count(), 2);
    }

    #[test]
    fn changing_the_ancestor_policy_discards_memoized_pairs() {
        let queries = vec![
            parse("SELECT a FROM t WHERE x = 1"),
            parse("SELECT a FROM t WHERE x = 2"),
            parse("SELECT a FROM t WHERE x = 1"),
        ];
        let mut dedup = DedupTable::new();
        for query in &queries {
            dedup.ingest(query);
        }
        let mut memo = DiffMemo::new();
        let mut store = DiffStore::new();
        memo.set_policy(AncestorPolicy::LcaPruned);
        let pruned = memo.list(&dedup, &mut store, 0, 1, AncestorPolicy::LcaPruned);
        memo.set_policy(AncestorPolicy::Full);
        assert_eq!(memo.memoized_pairs(), 0);
        let full = memo.list(&dedup, &mut store, 0, 1, AncestorPolicy::Full);
        assert_ne!(full, pruned);
        assert!(store.list_len(full) > store.list_len(pruned));
    }

    #[test]
    fn pair_index_finds_every_pair_in_any_insertion_order() {
        // A fixed LCG keeps the pairs reproducible; classes repeat, and blocks move several
        // times as their source classes meet more partners.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32 % bound
        };
        let mut index = PairIndex::default();
        let mut reference = std::collections::BTreeMap::new();
        for value in 0..5_000 {
            let (ca, cb) = (next(40), next(300));
            match index.find(ca, cb) {
                Ok(stored) => assert_eq!(Some(&stored), reference.get(&pair_key(ca, cb))),
                Err(k) => {
                    index.insert_at(ca, cb, k, value);
                    reference.insert(pair_key(ca, cb), value);
                    assert_eq!(index.get(ca, cb), Some(value));
                }
            }
        }
        assert_eq!(index.len(), reference.len());
        let listed: Vec<(u64, u32)> = (index.iter())
            .map(|(ca, cb, v)| (pair_key(ca, cb), v))
            .collect();
        assert_eq!(listed, reference.into_iter().collect::<Vec<_>>());
        assert_eq!(index.get(7, 300), None);
        assert_eq!(index.get(41, 0), None);
        // At most four slots per pair plus four per source class.
        assert!(index.partners.len() <= 4 * (index.len() + index.blocks.len()));
    }
}
