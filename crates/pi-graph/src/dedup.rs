//! Duplicate collapsing and alignment memoization: the machinery that makes AllPairs mining
//! cost `O(d²)` alignments over the `d` *distinct* tree shapes of a log instead of `O(n²)`
//! over its `n` queries.
//!
//! Real query logs are overwhelmingly repetitive — a handful of distinct query shapes
//! accounts for most of a log (the paper's SDSS/SQLShare samples, the Archive Query Log
//! study) — yet pairwise alignment depends only on tree *structure*.  So the builder
//! collapses the log to its distinct shapes at ingest ([`DedupTable`]) and runs the
//! expensive ordered-tree alignment once per distinct ordered pair ([`DiffMemo`]),
//! re-wrapping the memoized index-free change list into concrete `(i, j)` records per log
//! pair.  Both layers are invisible in the output: graphs, stores, `DiffId` offsets and
//! edges are byte-identical with the memo on or off — only the work to produce them
//! changes.

use pi_ast::Node;
use pi_diff::{extract_changes, AncestorPolicy, TreeChange};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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
    /// How many ingested queries each class has absorbed.
    counts: Vec<u32>,
    /// Node count of each class representative, measured once at class creation.  The
    /// parallel scheduler's cost model ([`pi_diff::align_cost_model`]) reads these on every
    /// enumerated pair, and [`Node::size`] is an `O(tree)` walk — caching it here turns the
    /// per-pair estimate into two array loads and a multiply.
    sizes: Vec<u32>,
    /// Structural hash → ids of the classes whose representatives carry that hash.  The
    /// bucket has one entry except under a 64-bit collision.  Keyed by the memoized
    /// structural hash — already well-mixed — through a single splitmix round instead of
    /// SipHash: ingest sits on the per-query hot path.
    by_hash: HashMap<u64, Bucket, BuildHasherDefault<PairKeyHasher>>,
    /// Distinct-tree id per ingested query, in log order.
    class_of: Vec<u32>,
    /// Running Σ of `sizes` — total nodes retained across all class representatives, so the
    /// memory-footprint estimate is an O(1) read rather than an O(d) sum per poll.
    arena_nodes: usize,
}

/// Rough per-node heap footprint of a retained tree, in bytes: one `NodeInner` (kind,
/// hashes, attr/children vector headers) plus its `Arc` header and amortised attribute
/// entries.  Attribute *strings* are interned process-wide (`pi_ast::IStr`) and therefore
/// excluded — they are accounted once globally, not per retained tree.
const NODE_FOOTPRINT_ESTIMATE: usize = 128;

/// Bookkeeping bytes per distinct class: the `classes`/`counts`/`sizes` entries plus the
/// hash-bucket slot.
const CLASS_OVERHEAD_ESTIMATE: usize = 64;

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
                    Some(class) => {
                        self.counts[class as usize] += 1;
                        class
                    }
                    None => {
                        slot.get_mut().push(fresh);
                        self.classes.push(query.clone());
                        self.counts.push(1);
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
                self.counts.push(1);
                let size = measured_size(query);
                self.sizes.push(size);
                self.arena_nodes += size as usize;
                fresh
            }
        };
        self.class_of.push(class);
        class
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

    /// How many ingested queries share the shape of class `class` (≥ 1).
    pub fn count(&self, class: u32) -> u32 {
        self.counts[class as usize]
    }

    /// The canonical representative of a class: the first ingested query of that shape.
    pub fn representative(&self, class: u32) -> &Node {
        &self.classes[class as usize]
    }

    /// Node count of the class representative, cached at class creation — the input to the
    /// parallel scheduler's per-pair cost estimate ([`pi_diff::align_cost_model`]).
    pub fn tree_size(&self, class: u32) -> usize {
        self.sizes[class as usize] as usize
    }

    /// Total nodes retained across all class representatives (Σ of [`DedupTable::tree_size`]
    /// over the classes; an O(1) read of a running sum).
    pub fn arena_nodes(&self) -> usize {
        self.arena_nodes
    }

    /// Estimated heap bytes this table retains: the distinct-tree arena (grows with the
    /// number of distinct shapes `d`) plus the 4-byte per-row class index (grows with log
    /// length `n` — the *only* per-row term).  O(1); the estimate is documented on the
    /// constants, not measured, so it is stable across allocators.
    pub fn footprint_bytes(&self) -> usize {
        self.arena_nodes * NODE_FOOTPRINT_ESTIMATE
            + self.classes.len() * CLASS_OVERHEAD_ESTIMATE
            + self.class_of.len() * std::mem::size_of::<u32>()
    }
}

/// A tree's node count saturated into the cache's `u32` (a tree of ≥ 2³² nodes would not
/// fit in memory anyway; saturation merely caps the cost estimate).
fn measured_size(query: &Node) -> u32 {
    u32::try_from(query.size()).unwrap_or(u32::MAX)
}

/// A memoized alignment: the index-free change list of one ordered distinct pair, in
/// [`extract_changes`] order — leaf changes first, ancestors after.  That is the graph's
/// per-pair record layout, so the builder streams an entry straight into the diff store
/// (leaf ids are the first `leaf_count` appended ids).
///
/// Each change is individually `Arc`-allocated so a log pair's [`pi_diff::DiffRecord`]s
/// can *share* the payloads (`DiffRecord::from_shared`): stamping a memoized pair into the
/// store costs one refcount bump and a 4-word write per record.
#[derive(Debug, Clone)]
pub(crate) struct PairChanges {
    changes: Arc<[Arc<TreeChange>]>,
    leaf_count: usize,
}

impl PairChanges {
    /// Rebuilds an entry from persisted parts: already-shared payloads in stored order
    /// (leaves first) and the leaf count.  The snapshot codec's restore path.
    pub(crate) fn from_shared_parts(changes: Vec<Arc<TreeChange>>, leaf_count: usize) -> Self {
        PairChanges {
            changes: changes.into(),
            leaf_count,
        }
    }

    /// Shares an [`extract_changes`] list, which already puts its leaves first.
    pub(crate) fn from_changes(changes: Vec<TreeChange>) -> Self {
        let leaf_count = changes.iter().take_while(|c| c.is_leaf).count();
        debug_assert!(
            changes[leaf_count..].iter().all(|c| !c.is_leaf),
            "extract_changes emits leaves first"
        );
        PairChanges {
            changes: changes.into_iter().map(Arc::new).collect(),
            leaf_count,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Leaves first, ancestors after.
    pub(crate) fn changes(&self) -> &[Arc<TreeChange>] {
        &self.changes
    }

    pub(crate) fn leaf_count(&self) -> usize {
        self.leaf_count
    }
}

/// A fast, deterministic hasher for the `(u32, u32)` class-pair keys (packed into one
/// `u64`): a single splitmix64 round instead of SipHash, since the hot loop performs one
/// memo probe per enumerated log pair.
#[derive(Default)]
pub(crate) struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("pair keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

pub(crate) fn pair_key(ca: u32, cb: u32) -> u64 {
    (u64::from(ca) << 32) | u64::from(cb)
}

/// The alignment memo: the index-free change list per distinct ordered pair of tree shapes
/// already aligned.  The class vocabulary itself lives in the accumulator's [`DedupTable`]
/// — the memo holds only derived alignments, so the lookup methods borrow the table per call
/// instead of owning a second copy of the log's shapes.
///
/// Keys are **ordered** `(source class, target class)` pairs, not unordered sets: the
/// aligner's LCS tie-breaking is direction-sensitive (and change paths are expressed in
/// source-tree coordinates), so deriving the reverse direction from a forward alignment
/// could produce a change list a memo-off `extract_diffs(b, a, …)` would not — breaking the
/// byte-identity contract.  An ordered memo costs at most twice the unordered pair count
/// and keeps the guarantee unconditional; the alignment budget is still `O(d²)`, not
/// `O(n²)`.
///
/// Every distinct ordered pair is memoized the first time it is met, so it is aligned once
/// per memo lifetime and hit from the memo ever after.  An entry adds only its pointer slice
/// and its map slot: the change payloads are the `Arc`s the store's records share.
///
/// Entries are computed under one [`AncestorPolicy`]; mining with a different policy
/// discards them (they would describe different ancestor closures).
///
/// Cloning a memo is cheap: representatives and change lists are `Arc`-shared, so a forked
/// streaming session keeps the alignments mined so far without copying a tree.
#[derive(Debug, Clone, Default)]
pub struct DiffMemo {
    pairs: HashMap<u64, PairChanges, BuildHasherDefault<PairKeyHasher>>,
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

    /// Number of full alignments (`extract_changes` runs) performed through the memoized
    /// mining path — exactly one per distinct ordered pair met (a pair of one shape needs
    /// none), the work term duplicate collapsing bounds by `O(d²)` however many log pairs
    /// were enumerated.
    pub fn alignments(&self) -> usize {
        self.alignments
    }

    /// Pins the ancestor policy, discarding memoized pairs computed under a different one.
    pub(crate) fn set_policy(&mut self, policy: AncestorPolicy) {
        if self.policy != Some(policy) {
            self.pairs.clear();
            self.policy = Some(policy);
        }
    }

    /// The memoized entry for the ordered pair `(ca, cb)`, if present.
    pub(crate) fn get(&self, ca: u32, cb: u32) -> Option<&PairChanges> {
        self.pairs.get(&pair_key(ca, cb))
    }

    /// The memoized entry for the ordered pair `(ca, cb)`, aligning the class
    /// representatives on a miss.  Callers must have pinned the policy via `set_policy`.
    pub(crate) fn changes(
        &mut self,
        dedup: &DedupTable,
        ca: u32,
        cb: u32,
        policy: AncestorPolicy,
    ) -> &PairChanges {
        debug_assert_eq!(self.policy, Some(policy), "set_policy before changes");
        let alignments = &mut self.alignments;
        self.pairs.entry(pair_key(ca, cb)).or_insert_with(|| {
            *alignments += 1;
            PairChanges::from_changes(extract_changes(
                dedup.representative(ca),
                dedup.representative(cb),
                policy,
            ))
        })
    }

    /// Inserts an externally computed alignment (the parallel pre-computation path).
    pub(crate) fn insert(&mut self, ca: u32, cb: u32, changes: Vec<TreeChange>) {
        self.alignments += 1;
        self.pairs
            .insert(pair_key(ca, cb), PairChanges::from_changes(changes));
    }

    /// The pinned ancestor policy, if any (snapshot codec).
    pub(crate) fn pinned_policy(&self) -> Option<AncestorPolicy> {
        self.policy
    }

    /// Iterates the memoized `(pair key, entry)` pairs in arbitrary order (snapshot codec
    /// sorts by key before writing).
    pub(crate) fn pairs_iter(&self) -> impl Iterator<Item = (u64, &PairChanges)> {
        self.pairs.iter().map(|(k, v)| (*k, v))
    }

    /// Rebuilds a memo from persisted parts — pinned policy, lifetime alignment count and
    /// memoized pairs.  The snapshot codec's restore path: a restored memo is *warm*, so the
    /// first post-restore push aligns only genuinely new pairs.
    pub(crate) fn from_parts(
        policy: Option<AncestorPolicy>,
        alignments: usize,
        pairs: impl IntoIterator<Item = (u64, PairChanges)>,
    ) -> Self {
        DiffMemo {
            pairs: pairs.into_iter().collect(),
            policy,
            alignments,
        }
    }

    /// Estimated heap bytes the memo retains: a fixed overhead per memoized pair (table
    /// slot, key, entry headers) plus the shared-payload pointers of each change list.
    /// Payload subtrees alias the distinct-tree arena and are excluded here.  O(pairs) —
    /// the memo is bounded by distinct ordered pairs, not rows.
    pub fn footprint_bytes(&self) -> usize {
        /// Table slot + packed key + `PairChanges` headers + `Arc` control block.
        const PAIR_OVERHEAD_ESTIMATE: usize = 64;
        /// One shared-payload `Arc` pointer plus its amortised change-header share.
        const CHANGE_PTR_ESTIMATE: usize = 16;
        let change_ptrs: usize = self.pairs.values().map(|p| p.changes().len()).sum();
        self.pairs.len() * PAIR_OVERHEAD_ESTIMATE + change_ptrs * CHANGE_PTR_ESTIMATE
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
        assert_eq!((table.count(0), table.count(1)), (2, 1));
        // The representative is the *first* ingested query — physically, not just
        // structurally (a refcount bump of `a`, not of `a_again`).
        assert!(table.representative(0).ptr_eq(&a));
        assert!(!table.is_empty());
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
        assert_eq!((table.count(0), table.count(1)), (2, 2));
    }

    #[test]
    fn collision_buckets_resolve_ten_thousand_distinct_shapes() {
        // Trace-scale collision pressure: 10 000 distinct trees forced into 8-way 64-bit
        // collision buckets (1 250 buckets, every probe scanning up to 8 representatives
        // with full equality), each shape ingested twice.  Class ids must be dense and
        // first-come, the second pass must resolve every shape to its existing class, and
        // the arena must hold exactly the distinct trees — collision fallback may never
        // mint a duplicate class or merge two shapes.
        use pi_ast::builder::SelectBuilder;
        const SHAPES: usize = 10_000;
        let shapes: Vec<Node> = (0..SHAPES)
            .map(|i| {
                SelectBuilder::new()
                    .project(Node::column("a"))
                    .from_table("t")
                    .where_pred(SelectBuilder::eq(Node::column("x"), Node::int(i as i64)))
                    .build()
            })
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
            assert_eq!(table.count(class as u32), 2);
            // Representatives are the first pass's trees, physically.
            assert!(table.representative(class as u32).ptr_eq(shape));
        }
        // Row → class mapping covers both passes.
        assert_eq!(table.class_of(SHAPES + 1_234), 1_234);
    }

    #[test]
    fn memo_aligns_each_recurring_ordered_pair_once_and_matches_extract_diffs() {
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
        let policy = AncestorPolicy::LcaPruned;
        memo.set_policy(policy);
        assert_eq!(dedup.distinct(), 2);
        for j in 1..queries.len() {
            for i in 0..j {
                let (ca, cb) = (dedup.class_of(i), dedup.class_of(j));
                if ca == cb {
                    continue;
                }
                let entry = memo.changes(&dedup, ca, cb, policy);
                // The memoized entry is the direct extraction, leaves first — exactly what
                // the graph's append step would produce.
                let records: Vec<_> = entry.changes().iter().map(|c| c.to_record(i, j)).collect();
                let direct = pi_diff::extract_diffs(&queries[i], &queries[j], i, j, policy);
                assert_eq!(records, direct);
                assert_eq!(
                    entry.leaf_count(),
                    direct.iter().filter(|r| r.is_leaf).count()
                );
                assert!(!entry.is_empty());
            }
        }
        // Four differing log pairs, but only the two recurring ordered distinct pairs were
        // ever aligned.
        assert_eq!(memo.alignments(), 2);
        assert_eq!(memo.memoized_pairs(), 2);
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
        memo.set_policy(AncestorPolicy::LcaPruned);
        let pruned = memo
            .changes(&dedup, 0, 1, AncestorPolicy::LcaPruned)
            .clone();
        memo.set_policy(AncestorPolicy::Full);
        assert_eq!(memo.memoized_pairs(), 0);
        let full = memo.changes(&dedup, 0, 1, AncestorPolicy::Full);
        assert!(full.changes().len() > pruned.changes().len());
    }
}
