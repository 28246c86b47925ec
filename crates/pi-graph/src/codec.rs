//! Snapshot codec for the mining layer: dedup arena, alignment memo and the pair table,
//! round-tripped as one [`GraphAccumulator`] section.
//!
//! The wire layout is the accumulator's own: a change table, change lists and run rows, so
//! snapshot size scales with *distinct* state plus a few bytes per mined pair — never with
//! raw record volume:
//!
//! * **Dedup arena** — class representatives are written as node-table references in
//!   class-id order, followed by the per-row class ids.  Restore *re-ingests* each row's
//!   representative through [`DedupTable::ingest`], which deterministically reassigns the
//!   same first-come class ids and rebuilds every derived cache (hash buckets, cached
//!   tree sizes, arena totals) — any divergence from the stored ids is reported as
//!   corruption rather than accepted.
//! * **Change table** — every change a memo list or an explicit run uses, once per
//!   distinct content, numbered in the order the memo lists (by key) and then the explicit
//!   runs first use them.  The writer reads the store's rows of ids: it interns each
//!   member's subtree into the node table once, the first time a row names the member, and
//!   folds equal rows by their ids, so it hashes no path and no subtree per change; the
//!   numbering, and so the bytes, are what numbering the changes by content gives.
//! * **Memo** — memoized pairs sorted by packed pair key, each with its list of change
//!   indices, so identical state always serializes to identical bytes (the memo's index
//!   lists them in key order); then a seen-once key
//!   count that is always written as 0 (older writers stored keys of a since-retired
//!   admission set there; readers skip them).  A restored memo is warm: the first
//!   post-restore push aligns only genuinely new pairs.
//! * **Run rows** — one per compared pair, in append order: the endpoints (delta-encoded)
//!   plus either a one-byte "replay the memo entry for this class pair" marker or an
//!   explicit change-index list.  A run replays exactly when its change indices and leaf
//!   count equal its class pair's memo entry; the rest (memo-off sessions, and pairs
//!   aligned without memoizing) are explicit.  A 100k-line session whose naïve record dump
//!   is >100 MB encodes in a few MB this way.
//!
//! Restore decodes everything eagerly into the same layout.  The change table is read into
//! the store's path and member tables, each distinct path and subtree once, as rows of the
//! store's ids; each memo entry and each explicit run then gets a list of rows copied out
//! of it.  A run's replay marker and a memo key are looked up in the memo's index without
//! hashing.  Memory follows the input: a path costs its steps, whatever their values or
//! declared count, and a memo key must name classes the dedup section defined.  Restore
//! validates the run rows as it goes — endpoints in range, append order, replays naming a
//! present non-empty entry, indices naming present changes, and the declared record count
//! — so a malformed table is a [`CodecError`], never a panic later.

use crate::builder::GraphAccumulator;
use crate::dedup::{DedupTable, DiffMemo, PairIndex};
use pi_ast::codec::{
    corrupt, put_u64, put_u8, put_varint, put_zigzag, read_node_table, take_bytes, take_count,
    take_u64, take_u8, take_varint, take_zigzag, CodecError, NodeTableBuilder,
};
use pi_diff::codec::{read_change_table, ChangeTableBuilder};
use pi_diff::{AncestorPolicy, ChangeRow, DiffStore};
use std::io::Write;
use std::ops::Range;

/// A run's payload source: replay the memo entry for the pair's classes, or an explicit
/// change-index list.
const RUN_MEMOIZED: u8 = 0;
const RUN_EXPLICIT: u8 = 1;

/// The snapshot's change indices of the store's lists, assigned the first time the writer
/// meets a list: the change table numbers each store row once, so it sees every distinct
/// row of the table, not every record.
struct SnapshotLists<'a> {
    store: &'a DiffStore,
    changes: ChangeTableBuilder<'a>,
    /// Per store list: the range of `indices` holding its snapshot indices, once met.
    lists: Vec<Option<Range<usize>>>,
    indices: Vec<u32>,
}

impl<'a> SnapshotLists<'a> {
    fn new(store: &'a DiffStore) -> Self {
        SnapshotLists {
            store,
            changes: ChangeTableBuilder::new(store),
            lists: vec![None; store.list_count()],
            indices: Vec::new(),
        }
    }

    /// Where `indices` holds list `list`'s snapshot change indices, interning the list's
    /// changes on first sight.
    fn range(&mut self, list: u32, nodes: &mut NodeTableBuilder) -> Range<usize> {
        if let Some(range) = &self.lists[list as usize] {
            return range.clone();
        }
        let start = self.indices.len();
        for c in self.store.list_range(list) {
            let index = self.changes.intern(c as u32, nodes);
            self.indices.push(index);
        }
        self.lists[list as usize] = Some(start..self.indices.len());
        start..self.indices.len()
    }

    /// List `list`'s snapshot change indices.
    fn of(&mut self, list: u32, nodes: &mut NodeTableBuilder) -> &[u32] {
        let range = self.range(list, nodes);
        &self.indices[range]
    }
}

/// Writes the full mining state of an accumulator: node table, change table, dedup rows,
/// the alignment memo and the run rows.  Identical state writes identical bytes
/// (hash-map-ordered sections are sorted first, and run encoding is value-based, so a
/// restored accumulator re-persists to the same stream).
pub fn write_accumulator<W: Write>(w: &mut W, acc: &GraphAccumulator) -> Result<(), CodecError> {
    let store = &acc.store;
    let dedup = &acc.dedup;
    let mut nodes = NodeTableBuilder::new();
    let mut lists = SnapshotLists::new(store);

    // Number every tree and change before the sections that reference them: class
    // representatives, then the memo's lists by key, then the explicit runs' lists.
    let class_nodes: Vec<u32> = (0..dedup.distinct())
        .map(|class| nodes.intern(dedup.representative(class as u32)))
        .collect();
    let mut memo_pairs: Vec<(u64, u32)> = acc.memo.pairs_iter().collect();
    memo_pairs.sort_unstable_by_key(|&(key, _)| key);
    for &(_, list) in &memo_pairs {
        lists.range(list, &mut nodes);
    }
    let mut runs = Vec::new();
    put_varint(&mut runs, store.runs().len() as u64)?;
    put_varint(&mut runs, store.len() as u64)?;
    let mut prev_to = 0i64;
    for run in store.runs() {
        let (from, to) = (run.from as usize, run.to as usize);
        put_zigzag(&mut runs, to as i64 - prev_to)?;
        prev_to = to as i64;
        put_varint(&mut runs, (to - from) as u64)?;
        let leaves = store.list_leaves(run.list);
        let replay = match acc.memo.get(dedup.class_of(from), dedup.class_of(to)) {
            Some(memo) if memo == run.list => true,
            Some(memo) if store.list_leaves(memo) == leaves => {
                let own = lists.range(run.list, &mut nodes);
                let entry = lists.range(memo, &mut nodes);
                lists.indices[own] == lists.indices[entry]
            }
            _ => false,
        };
        if replay {
            put_u8(&mut runs, RUN_MEMOIZED)?;
        } else {
            put_u8(&mut runs, RUN_EXPLICIT)?;
            put_varint(&mut runs, leaves as u64)?;
            let indices = lists.of(run.list, &mut nodes);
            put_varint(&mut runs, indices.len() as u64)?;
            for &idx in indices {
                put_varint(&mut runs, u64::from(idx))?;
            }
        }
    }

    // Shared tables.
    nodes.write_to(w)?;
    lists.changes.write_to(w)?;

    // Dedup: class representatives in id order, then per-row class ids.
    put_varint(w, dedup.distinct() as u64)?;
    for idx in &class_nodes {
        put_varint(w, u64::from(*idx))?;
    }
    put_varint(w, dedup.len() as u64)?;
    for row in 0..dedup.len() {
        put_varint(w, u64::from(dedup.class_of(row)))?;
    }

    // Memo (before the runs: replay markers resolve against it on read).
    match acc.memo.pinned_policy() {
        None => put_u8(w, 0)?,
        Some(AncestorPolicy::Full) => put_u8(w, 1)?,
        Some(AncestorPolicy::LcaPruned) => put_u8(w, 2)?,
    }
    put_varint(w, acc.memo.alignments() as u64)?;
    put_varint(w, memo_pairs.len() as u64)?;
    for &(key, list) in &memo_pairs {
        put_u64(w, key)?;
        put_varint(w, store.list_leaves(list) as u64)?;
        let indices = lists.of(list, &mut nodes);
        put_varint(w, indices.len() as u64)?;
        for &idx in indices {
            put_varint(w, u64::from(idx))?;
        }
    }
    // The retired seen-once admission set: always empty now, kept so the layout (and
    // `SNAPSHOT_VERSION`) stays put.
    put_varint(w, 0)?;

    // Run rows, length-prefixed.
    put_varint(w, runs.len() as u64)?;
    w.write_all(&runs).map_err(CodecError::Io)?;
    Ok(())
}

/// `n` change indices into `out` (cleared first); each must fit a `u32`.
fn take_indices(r: &mut &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
    out.clear();
    for _ in 0..n {
        let v = take_varint(r)?;
        out.push(u32::try_from(v).map_err(|_| corrupt(format!("index {v} overflows u32")))?);
    }
    Ok(())
}

/// Decodes the run rows into `store`, validating each against the rows, the memo and the
/// change table (see the module docs).
fn read_runs(
    mut blob: &[u8],
    dedup: &DedupTable,
    memo: &DiffMemo,
    table: &[ChangeRow],
    store: &mut DiffStore,
) -> Result<(), CodecError> {
    let r = &mut blob;
    let runs = take_count(r)?;
    let declared = take_count(r)?;
    let mut indices = Vec::new();
    let mut prev_to = 0i64;
    let mut prev = None;
    for k in 0..runs {
        let to = prev_to
            .checked_add(take_zigzag(r)?)
            .filter(|&to| to >= 0 && (to as u64) < dedup.len() as u64)
            .ok_or_else(|| corrupt(format!("run {k} endpoints out of range")))?;
        prev_to = to;
        let offset = take_varint(r)?;
        if offset == 0 || offset > to as u64 {
            return Err(corrupt(format!("run {k} endpoints out of range")));
        }
        let (from, to) = ((to as u64 - offset) as usize, to as usize);
        if prev >= Some((to, from)) {
            return Err(corrupt(format!("run {k} is out of append order")));
        }
        prev = Some((to, from));
        let list = match take_u8(r)? {
            RUN_MEMOIZED => memo
                .get(dedup.class_of(from), dedup.class_of(to))
                .filter(|&list| store.list_len(list) > 0)
                .ok_or_else(|| corrupt(format!("run {k} replays an absent or empty memo entry")))?,
            RUN_EXPLICIT => {
                let leaves = take_count(r)?;
                let total = take_count(r)?;
                if total == 0 || total > declared {
                    return Err(corrupt(format!("run {k} has an impossible record count")));
                }
                take_indices(r, total, &mut indices)?;
                store
                    .push_indexed_list(table, &indices, leaves)
                    .ok_or_else(|| corrupt(format!("run {k} has a malformed change list")))?
            }
            other => return Err(corrupt(format!("invalid run tag {other}"))),
        };
        store.push_run(from, to, list);
        if store.len() > declared {
            return Err(corrupt("pair table exceeds its declared record count"));
        }
    }
    if store.len() != declared {
        return Err(corrupt(format!(
            "pair table declares {declared} records, runs produce {}",
            store.len()
        )));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the pair table"));
    }
    Ok(())
}

/// Reads mining state written by [`write_accumulator`] into an accumulator with the same
/// graph, ids, memo and dedup arena, holding each distinct change once.
pub fn read_accumulator(r: &mut &[u8]) -> Result<GraphAccumulator, CodecError> {
    let nodes = read_node_table(r)?;
    let mut store = DiffStore::new();
    let table = read_change_table(r, &nodes, &mut store)?;

    // Dedup: re-ingest each row's representative; first-come ids must match the stored
    // sequence exactly.
    let distinct = take_count(r)?;
    let mut class_nodes = Vec::with_capacity(distinct.min(r.len()));
    for _ in 0..distinct {
        let idx = take_varint(r)? as usize;
        class_nodes.push(
            nodes
                .get(idx)
                .ok_or_else(|| corrupt(format!("class references missing node {idx}")))?,
        );
    }
    let rows = take_count(r)?;
    let mut dedup = DedupTable::new();
    for row in 0..rows {
        let class = take_varint(r)? as usize;
        let node = *class_nodes
            .get(class)
            .ok_or_else(|| corrupt(format!("row {row} references missing class {class}")))?;
        let assigned = dedup.ingest(node);
        if assigned as usize != class {
            return Err(corrupt(format!(
                "row {row} restored into class {assigned}, snapshot says {class}"
            )));
        }
    }
    if dedup.distinct() != distinct {
        return Err(corrupt(format!(
            "restored {} distinct classes, snapshot says {distinct}",
            dedup.distinct()
        )));
    }

    // Memo: one shared list per entry, keys strictly increasing as written.
    let policy = match take_u8(r)? {
        0 => None,
        1 => Some(AncestorPolicy::Full),
        2 => Some(AncestorPolicy::LcaPruned),
        other => return Err(corrupt(format!("invalid memo policy tag {other}"))),
    };
    let alignments = take_count(r)?;
    let pair_count = take_count(r)?;
    let mut pairs = PairIndex::default();
    let mut indices = Vec::new();
    let mut prev_key = None;
    for _ in 0..pair_count {
        let key = take_u64(r)?;
        if prev_key >= Some(key) {
            return Err(corrupt(format!("memo pair {key:#x} is out of key order")));
        }
        prev_key = Some(key);
        let (ca, cb) = ((key >> 32) as u32, key as u32);
        if ca as usize >= distinct || cb as usize >= distinct {
            return Err(corrupt(format!("memo pair {key:#x} names a missing class")));
        }
        let leaves = take_count(r)?;
        let total = take_count(r)?;
        take_indices(r, total, &mut indices)?;
        let list = store
            .push_indexed_list(&table, &indices, leaves)
            .ok_or_else(|| corrupt(format!("memo pair {key:#x} has a malformed change list")))?;
        pairs.insert(ca, cb, list);
    }
    // Older writers stored a seen-once admission set here; its keys no longer mean
    // anything, so they are skipped.
    let seen_once_count = take_count(r)?;
    take_bytes(r, seen_once_count * 8)?;
    let memo = DiffMemo::from_parts(policy, alignments, pairs);

    let blob_len = take_count(r)?;
    read_runs(take_bytes(r, blob_len)?, &dedup, &memo, &table, &mut store)?;
    Ok(GraphAccumulator { dedup, store, memo })
}

/// The workspace's counting allocator: the tests below count what a hostile change path
/// makes restore request.
#[cfg(test)]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[cfg(test)]
mod tests {
    use super::counting_alloc::allocated_bytes;
    use super::*;
    use crate::builder::GraphBuilder;
    use pi_ast::Frontend as _;
    use pi_ast::Node;

    fn parse(sql: &str) -> Node {
        pi_sql::SqlFrontend.parse_one(sql).unwrap()
    }

    fn mined_accumulator(memoize: bool) -> GraphAccumulator {
        let log: Vec<Node> = [
            "SELECT sales FROM t WHERE cty = 'USA'",
            "SELECT sales FROM t WHERE cty = 'EUR'",
            "SELECT sales FROM t WHERE cty = 'USA'",
            "SELECT costs FROM t WHERE cty = 'EUR'",
            "SELECT sales FROM t WHERE cty = 'EUR'",
            "SELECT sales, costs FROM t WHERE cty = 'USA' ORDER BY sales",
        ]
        .iter()
        .map(|sql| parse(sql))
        .collect();
        let mut acc = GraphAccumulator::new();
        GraphBuilder::new()
            .window(crate::WindowStrategy::AllPairs)
            .memoize(memoize)
            .extend_batch(&mut acc, log);
        acc
    }

    #[test]
    fn accumulator_round_trips_byte_identically() {
        for memoize in [true, false] {
            let acc = mined_accumulator(memoize);
            let mut buf = Vec::new();
            write_accumulator(&mut buf, &acc).unwrap();
            let restored = read_accumulator(&mut buf.as_slice()).unwrap();
            assert_eq!(restored.stats(), acc.stats());
            assert_eq!(restored.to_graph(), acc.to_graph());
            assert_eq!(
                restored.memo().memoized_pairs(),
                acc.memo().memoized_pairs()
            );
            assert_eq!(restored.memo().alignments(), acc.memo().alignments());
            assert_eq!(restored.dedup().distinct(), acc.dedup().distinct());
            for class in 0..acc.dedup().distinct() as u32 {
                assert_eq!(
                    restored.dedup().tree_size(class),
                    acc.dedup().tree_size(class)
                );
            }
            // Persisting the restored state reproduces the exact same bytes.
            let mut again = Vec::new();
            write_accumulator(&mut again, &restored).unwrap();
            assert_eq!(again, buf, "snapshot bytes must be deterministic");
        }
    }

    #[test]
    fn restored_tables_hold_each_distinct_path_and_subtree_once() {
        for memoize in [true, false] {
            let acc = mined_accumulator(memoize);
            let mut buf = Vec::new();
            write_accumulator(&mut buf, &acc).unwrap();
            let restored = read_accumulator(&mut buf.as_slice()).unwrap();
            let store = restored.store();
            let paths = store.paths();
            for (i, path) in paths.iter().enumerate() {
                assert!(!paths[..i].contains(path), "path {i} is stored twice");
            }
            let ids: Vec<_> = store.members().iter().map(Node::id).collect();
            for (i, id) in ids.iter().enumerate() {
                assert!(!ids[..i].contains(id), "subtree {i} is stored twice");
            }
            assert_eq!(paths.len(), acc.store().paths().len());
            assert_eq!(ids.len(), acc.store().members().len());
            // A row per change of each restored list: no more than the live store holds.
            assert!(store.rows().len() <= acc.store().rows().len());
            assert!(store.rows().len() < acc.store().len() || !memoize);
            // One list per memo entry, and one per run that does not replay its entry.
            assert!(
                restored.store().list_count() <= acc.memo().memoized_pairs() + acc.edges().len()
            );
        }
    }

    #[test]
    fn runs_replay_their_memo_entry_by_value() {
        // A prefix mined without the memo gives every pair its own list; the memoized
        // suffix then aligns the same class pairs into memo lists.  The prefix runs equal
        // their pair's entry by value, so they are written as replays, and the restored
        // table needs no list beyond the memo's.
        let log: Vec<Node> = (0..12)
            .map(|i| parse(&format!("SELECT a FROM t WHERE x = {}", i % 3)))
            .collect();
        let builder = GraphBuilder::new().window(crate::WindowStrategy::sliding(3));
        let mut acc = GraphAccumulator::new();
        builder
            .clone()
            .memoize(false)
            .extend_batch(&mut acc, log[..6].to_vec());
        builder.extend_batch(&mut acc, log[6..].to_vec());
        assert!(acc.store().list_count() > acc.memo().memoized_pairs());
        let mut buf = Vec::new();
        write_accumulator(&mut buf, &acc).unwrap();
        let restored = read_accumulator(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.to_graph(), acc.to_graph());
        assert_eq!(
            restored.store().list_count(),
            restored.memo().memoized_pairs()
        );
    }

    #[test]
    fn restore_rejects_malformed_run_rows() {
        // Two shapes, memo on: one run, which replays its memo entry, so the stream's last
        // byte is that run's tag.
        let mut acc = GraphAccumulator::new();
        GraphBuilder::new().extend_batch(
            &mut acc,
            [
                parse("SELECT a FROM t WHERE x = 1"),
                parse("SELECT a FROM t WHERE x = 2"),
            ],
        );
        let mut buf = Vec::new();
        write_accumulator(&mut buf, &acc).unwrap();
        assert_eq!(buf.last(), Some(&RUN_MEMOIZED));
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() = 7;
        assert!(read_accumulator(&mut bad.as_slice()).is_err());
        // An explicit tag there leaves the run's list truncated.
        *bad.last_mut().unwrap() = RUN_EXPLICIT;
        assert!(read_accumulator(&mut bad.as_slice()).is_err());
        assert!(read_accumulator(&mut buf.as_slice()).is_ok());
    }

    #[test]
    fn restored_state_continues_mining_identically() {
        // Mine a prefix, snapshot, restore, then extend both the original and the restored
        // accumulator with the same suffix: stores, edges and ids must stay identical —
        // and the restored memo must be warm (no new alignments for already-seen pairs).
        let log: Vec<Node> = (0..8)
            .map(|i| parse(&format!("SELECT sales FROM t WHERE x = {}", i % 2)))
            .collect();
        let (prefix, suffix) = log.split_at(5);
        let builder = GraphBuilder::new().window(crate::WindowStrategy::Sliding(3));
        let mut live = GraphAccumulator::new();
        builder.extend_batch(&mut live, prefix.to_vec());

        let mut buf = Vec::new();
        write_accumulator(&mut buf, &live).unwrap();
        let mut restored = read_accumulator(&mut buf.as_slice()).unwrap();
        let alignments_before = restored.memo().alignments();

        builder.extend_batch(&mut live, suffix.to_vec());
        builder.extend_batch(&mut restored, suffix.to_vec());
        assert_eq!(restored.to_graph(), live.to_graph());
        // The suffix repeats shapes already aligned in the prefix: a warm memo re-stamps
        // them without any new alignment work.
        assert_eq!(restored.memo().alignments(), alignments_before);
    }

    #[test]
    fn corrupted_accumulator_snapshots_err_cleanly() {
        let acc = mined_accumulator(true);
        let mut buf = Vec::new();
        write_accumulator(&mut buf, &acc).unwrap();
        // Truncation at every length must fail cleanly, never panic.
        for len in 0..buf.len() {
            assert!(read_accumulator(&mut buf[..len].as_ref()).is_err());
        }
        // Bit flips must never panic: either a clean Err, or a structurally valid
        // accumulator that writes again (an in-range endpoint or memo-key flip is
        // indistinguishable at this layer).  Detecting *any* flipped byte is the session
        // envelope's job — the whole payload rides inside a checksummed frame.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x2a;
            if let Ok(restored) = read_accumulator(&mut bad.as_slice()) {
                let _ = restored.to_graph();
                write_accumulator(&mut Vec::new(), &restored).unwrap();
            }
        }
    }

    /// The snapshot of a two-query accumulator with one run, whose one change replaces
    /// `1` with `2` at `path`.
    fn snapshot_with_change_at(path: pi_ast::Path) -> Vec<u8> {
        let mut acc = GraphAccumulator::new();
        acc.dedup.ingest(&parse("SELECT a FROM t WHERE x = 1"));
        acc.dedup.ingest(&parse("SELECT a FROM t WHERE x = 2"));
        let change = pi_diff::TreeChange {
            path,
            before: Some(Node::int(1)),
            after: Some(Node::int(2)),
            is_leaf: true,
        };
        let list = acc.store.push_list(vec![change]);
        acc.store.push_run(0, 1, list);
        let mut buf = Vec::new();
        write_accumulator(&mut buf, &acc).unwrap();
        buf
    }

    /// The bytes restoring `buf` requests, and what it returned.
    fn restore_counted(buf: &[u8]) -> (u64, Result<GraphAccumulator, CodecError>) {
        let before = allocated_bytes();
        let restored = read_accumulator(&mut &buf[..]);
        (allocated_bytes() - before, restored)
    }

    #[test]
    fn hostile_change_paths_cost_what_their_bytes_do() {
        // Restore asks for memory in proportion to the snapshot: a fixed allowance for the
        // tables' first sizes, then a constant per input byte.  Neither a step's value nor a
        // path's declared depth may size an allocation.
        const FIXED: u64 = 64 << 10;
        const PER_BYTE: u64 = 64;
        let deep = pi_ast::Path::from_steps((0..100_000).map(|k| k % 3));
        for path in [pi_ast::Path::from_steps([1usize << 40]), deep] {
            let buf = snapshot_with_change_at(path.clone());
            let (requested, restored) = restore_counted(&buf);
            println!(
                "a {}-step path: {} snapshot bytes, {requested} requested",
                path.depth(),
                buf.len()
            );
            let restored = restored.expect("a deep or wide path is a valid change");
            assert_eq!(restored.store().paths(), std::slice::from_ref(&path));
            assert!(
                requested <= FIXED + PER_BYTE * buf.len() as u64,
                "a {}-step path: restoring {} bytes requested {requested}",
                path.depth(),
                buf.len()
            );
            // Persisting the restored state reproduces the bytes.
            let mut again = Vec::new();
            write_accumulator(&mut again, &restored).unwrap();
            assert_eq!(again, buf);
        }
        // A path that declares 2^27 steps and ends after a few fails as truncated, having
        // asked for no more than a short path would.
        let buf = snapshot_with_change_at(pi_ast::Path::from_steps([4, 2]));
        let mut rest = buf.as_slice();
        read_node_table(&mut rest).unwrap();
        // The change table follows the node table: its count, then the path's length.
        let at = buf.len() - rest.len() + 1;
        assert_eq!(buf[at..at + 3], [2, 4, 2]);
        let mut hostile = buf[..at].to_vec();
        hostile.extend([0x80, 0x80, 0x80, 0x40, 4, 2]);
        let (requested, restored) = restore_counted(&hostile);
        assert!(restored.is_err());
        assert!(requested <= FIXED + PER_BYTE * hostile.len() as u64);
    }
}
