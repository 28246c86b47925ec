//! Snapshot codec for the mining layer: dedup arena, alignment memo and the mined pair
//! table, round-tripped as one [`GraphAccumulator`] section.
//!
//! The wire layout leans on the workspace's mining invariants instead of re-encoding
//! derived state, so snapshot size scales with *distinct* state plus a few bytes per mined
//! pair — never with raw record volume:
//!
//! * **Dedup arena** — class representatives are written as node-table references in
//!   class-id order, followed by the per-row class ids.  Restore *re-ingests* each row's
//!   representative through [`DedupTable::ingest`], which deterministically reassigns the
//!   same first-come class ids and rebuilds every derived cache (hash buckets, counts,
//!   cached tree sizes, arena totals) — any divergence from the stored ids is reported as
//!   corruption rather than accepted.
//! * **Memo** — memoized pairs sorted by packed pair key, so identical state always
//!   serializes to identical bytes, then a seen-once key count that is always written as 0
//!   (older writers stored keys of a since-retired admission set there; readers skip
//!   them).  A restored memo is warm: the first post-restore push aligns only genuinely
//!   new pairs.
//! * **Pair table** — the [`pi_diff::DiffStore`] and edge list are *not* serialized record
//!   by record.  By construction every compared pair appends one contiguous run (leaf
//!   records first, ancestors after) and one edge labelled with exactly that run's leaf
//!   ids, in the same order — the runs tile the store.  So each mined pair costs only its
//!   endpoints (delta-encoded) plus either a one-byte "replay the memo entry for this
//!   class pair" marker or, for runs whose payloads are not the memoized list (memo-off
//!   sessions, and pairs older snapshots aligned without memoizing), an explicit
//!   change-table index list.  A 100k-line session
//!   whose naïve record dump is >100 MB encodes in a few MB this way.
//!
//! Restore splits in two phases: [`read_accumulator_deferred`] decodes and validates the
//! distinct-scale sections (tables, dedup, memo) and returns the pair table as compact
//! [`LatentPairs`] bytes — only its leading counts are checked, since the run scan is the
//! dominant decode cost and the session layer's checksummed frame already rejects storage
//! corruption before this codec runs; [`hydrate_pairs`] performs the full
//! bounds-and-membership scan and expands the runs into the store and edge list when the
//! graph is actually needed.  [`read_accumulator`] chains both for callers that want the
//! eager (and eagerly validated) behaviour.

use crate::builder::GraphAccumulator;
use crate::dedup::{pair_key, DedupTable, DiffMemo, PairChanges};
use crate::graph::Edge;
use pi_ast::codec::{
    corrupt, put_u64, put_u8, put_varint, put_zigzag, read_node_table, CodecError, NodeTableBuilder,
};
use pi_diff::codec::{read_change_table, ChangeTableBuilder};
use pi_diff::{AncestorPolicy, DiffId, DiffRecord, TreeChange};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

/// A run's payload source: replay the memo entry for the pair's classes, or an explicit
/// change-index list.
const RUN_MEMOIZED: u8 = 0;
const RUN_EXPLICIT: u8 = 1;

/// Writes the full mining state of an accumulator: node table, change table, dedup rows,
/// the alignment memo and the pair table.  Identical state writes identical bytes
/// (hash-map-ordered sections are sorted first, and run encoding is value-based, so a
/// restored accumulator re-persists to the same stream).
pub fn write_accumulator<W: Write>(w: &mut W, acc: &GraphAccumulator) -> Result<(), CodecError> {
    let mut nodes = NodeTableBuilder::new();
    let mut changes = ChangeTableBuilder::new();

    // Pre-pass: intern every tree and change payload so both tables are complete before
    // any section that references them is written.
    let dedup = &acc.dedup;
    let class_nodes: Vec<u32> = (0..dedup.distinct())
        .map(|class| nodes.intern(dedup.representative(class as u32)))
        .collect();
    let mut memo_pairs: Vec<(u64, &PairChanges)> = acc.memo.pairs_iter().collect();
    memo_pairs.sort_unstable_by_key(|(key, _)| *key);
    let memo_entries: Vec<(u64, Vec<u32>, usize)> = memo_pairs
        .into_iter()
        .map(|(key, entry)| {
            let idxs = entry
                .changes()
                .iter()
                .map(|c| changes.intern(c, &mut nodes))
                .collect();
            (key, idxs, entry.leaf_count())
        })
        .collect();
    // Value-keyed memo lookup for run encoding: a run whose change-index sequence equals
    // its class pair's memoized entry encodes as a one-byte replay marker.  Matching by
    // interned *indices* (not `Arc` pointers) keeps the encoding stable across restores —
    // an explicit run rebuilt from the shared table compares equal to a memo entry it
    // value-matches, exactly as the original did.
    let memo_by_key: HashMap<u64, (&[u32], usize)> = memo_entries
        .iter()
        .map(|(key, idxs, leaf)| (*key, (idxs.as_slice(), *leaf)))
        .collect();
    let pair_blob = encode_pair_table(acc, &mut changes, &mut nodes, &memo_by_key)?;

    // Shared tables.
    nodes.write_to(w)?;
    changes.write_to(w)?;

    // Dedup: class representatives in id order, then per-row class ids.
    put_varint(w, dedup.distinct() as u64)?;
    for idx in &class_nodes {
        put_varint(w, u64::from(*idx))?;
    }
    put_varint(w, dedup.len() as u64)?;
    for row in 0..dedup.len() {
        put_varint(w, u64::from(dedup.class_of(row)))?;
    }

    // Memo (before the pair table: replay markers resolve against it on read).
    match acc.memo.pinned_policy() {
        None => put_u8(w, 0)?,
        Some(AncestorPolicy::Full) => put_u8(w, 1)?,
        Some(AncestorPolicy::LcaPruned) => put_u8(w, 2)?,
    }
    put_varint(w, acc.memo.alignments() as u64)?;
    put_varint(w, memo_entries.len() as u64)?;
    for (key, idxs, leaf_count) in &memo_entries {
        put_u64(w, *key)?;
        put_varint(w, *leaf_count as u64)?;
        put_varint(w, idxs.len() as u64)?;
        for idx in idxs {
            put_varint(w, u64::from(*idx))?;
        }
    }
    // The retired seen-once admission set: always empty now, kept so the layout (and
    // `SNAPSHOT_VERSION`) stays put.
    put_varint(w, 0)?;

    // Pair table blob, length-prefixed.
    put_varint(w, pair_blob.len() as u64)?;
    w.write_all(&pair_blob).map_err(CodecError::Io)?;
    Ok(())
}

/// Encodes the store + edge list as the run-per-pair table described in the module docs.
fn encode_pair_table(
    acc: &GraphAccumulator,
    changes: &mut ChangeTableBuilder,
    nodes: &mut NodeTableBuilder,
    memo_by_key: &HashMap<u64, (&[u32], usize)>,
) -> Result<Vec<u8>, CodecError> {
    let store = &acc.store;
    let mut blob = Vec::new();
    put_varint(&mut blob, acc.edges.len() as u64)?;
    put_varint(&mut blob, store.len() as u64)?;

    let mut base = 0usize; // next unclaimed record id — runs must tile the store
    let mut prev_to = 0i64;
    let mut run_idxs: Vec<u32> = Vec::new();
    for (k, edge) in acc.edges.iter().enumerate() {
        let leaf_count = edge.diffs.len();
        let contiguous = !edge.diffs.is_empty()
            && edge.diffs[0].0 == base
            && edge.diffs.windows(2).all(|p| p[1].0 == p[0].0 + 1);
        if !contiguous {
            return Err(corrupt(format!(
                "edge {k} labels are not the next contiguous leaf run (snapshot encoding \
                 relies on the builder's append order)"
            )));
        }
        // The run extends past the leaves to the next edge's first leaf (or store end).
        let next_base = acc.edges.get(k + 1).map_or(store.len(), |next| {
            next.diffs.first().map_or(store.len(), |d| d.0)
        });
        if next_base < base + leaf_count || next_base > store.len() {
            return Err(corrupt(format!("edge {k} run overlaps its neighbour")));
        }
        run_idxs.clear();
        for id in base..next_base {
            let record = store.get(DiffId(id));
            if record.q1 != edge.from || record.q2 != edge.to {
                return Err(corrupt(format!(
                    "record {id} endpoints disagree with its edge (snapshot encoding \
                     relies on per-pair record runs)"
                )));
            }
            run_idxs.push(changes.intern(record.change(), nodes));
        }

        put_zigzag(&mut blob, edge.to as i64 - prev_to)?;
        prev_to = edge.to as i64;
        put_varint(&mut blob, (edge.to - edge.from) as u64)?;
        let key = pair_key(acc.dedup.class_of(edge.from), acc.dedup.class_of(edge.to));
        match memo_by_key.get(&key) {
            Some((idxs, leaf)) if *idxs == run_idxs.as_slice() && *leaf == leaf_count => {
                put_u8(&mut blob, RUN_MEMOIZED)?;
            }
            _ => {
                put_u8(&mut blob, RUN_EXPLICIT)?;
                put_varint(&mut blob, leaf_count as u64)?;
                put_varint(&mut blob, run_idxs.len() as u64)?;
                for idx in &run_idxs {
                    put_varint(&mut blob, u64::from(*idx))?;
                }
            }
        }
        base = next_base;
    }
    if base != store.len() {
        return Err(corrupt(format!(
            "{} records beyond the last edge's run",
            store.len() - base
        )));
    }
    Ok(blob)
}

/// The still-unmaterialized pair table of a snapshot: compact run bytes plus the shared
/// change payloads they reference.  Produced by [`read_accumulator_deferred`] (which
/// checks only the leading counts), consumed — and fully validated — by
/// [`hydrate_pairs`]; [`LatentPairs::byte_len`] stands in for the store's memory
/// footprint while the session stays latent.
#[derive(Debug, Clone)]
pub struct LatentPairs {
    bytes: Vec<u8>,
    payloads: Vec<Arc<TreeChange>>,
    edges: usize,
    records: usize,
}

impl LatentPairs {
    /// Number of mined pairs (edges) the table will expand to.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of diff records the table will expand to.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Bytes held latent (run bytes plus shared-payload pointers).
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + self.payloads.len() * std::mem::size_of::<Arc<TreeChange>>()
    }
}

/// A minimal cursor over the in-memory pair blob: the per-byte `io::Read` plumbing is too
/// slow for millions of tiny varints, and the blob is already length-framed.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    #[inline]
    fn u8(&mut self) -> Result<u8, CodecError> {
        let v = *self
            .b
            .get(self.pos)
            .ok_or_else(|| corrupt("mining state truncated"))?;
        self.pos += 1;
        Ok(v)
    }

    /// A fixed-width little-endian `u64` (matches `put_u64`).
    #[inline]
    fn u64_le(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// A varint bounded by the same sanity limit as `take_count`.
    #[inline]
    fn count(&mut self) -> Result<usize, CodecError> {
        const MAX_COUNT: u64 = 1 << 28;
        let v = self.varint()?;
        if v > MAX_COUNT {
            return Err(corrupt(format!("count {v} exceeds sanity bound")));
        }
        Ok(v as usize)
    }

    /// The next `n` raw bytes.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.b.len())
            .ok_or_else(|| corrupt("mining state truncated"))?;
        let slice = &self.b[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err(corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn zigzag(&mut self) -> Result<i64, CodecError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// One decoded run header; `Explicit` carries `(leaf_count, change indices)`.
enum RunPayload {
    Memoized,
    Explicit(usize, std::ops::Range<usize>),
}

/// Per-class-pair record counts for the scan's memoized-run resolution.
///
/// The scan resolves one memo entry per run, and runs outnumber distinct class pairs by
/// orders of magnitude on repetitive logs — a 100k-line Zipf trace replays ~1.4M runs over
/// a few thousand distinct pairs.  A `DiffMemo::get` hash probe per run is the single
/// largest cost of a deferred restore, so for small class counts the totals are spread
/// into a dense `classes × classes` matrix (a multiply and an array index per run); larger
/// class counts fall back to one prebuilt key → total map.
enum MemoTotals {
    /// `totals[ca * distinct + cb]` = the entry's change count (0 = absent or empty).
    Dense(Vec<u32>, usize),
    Sparse(HashMap<u64, u32>),
}

/// Class counts up to this bound get the dense matrix (≤ 4 MiB of `u32` totals).
const DENSE_CLASS_LIMIT: usize = 1024;

impl MemoTotals {
    fn build(memo: &DiffMemo, distinct: usize) -> Self {
        if distinct <= DENSE_CLASS_LIMIT {
            let mut totals = vec![0u32; distinct * distinct];
            for (key, entry) in memo.pairs_iter() {
                let (ca, cb) = ((key >> 32) as usize, key as u32 as usize);
                if ca < distinct && cb < distinct && !entry.is_empty() {
                    totals[ca * distinct + cb] = entry.changes().len() as u32;
                }
            }
            MemoTotals::Dense(totals, distinct)
        } else {
            MemoTotals::Sparse(
                memo.pairs_iter()
                    .filter(|(_, entry)| !entry.is_empty())
                    .map(|(key, entry)| (key, entry.changes().len() as u32))
                    .collect(),
            )
        }
    }

    /// The non-empty entry's change count for `(ca, cb)`, or `None` if absent/empty.
    #[inline]
    fn get(&self, ca: u32, cb: u32) -> Option<usize> {
        let total = match self {
            MemoTotals::Dense(totals, distinct) => totals[ca as usize * distinct + cb as usize],
            MemoTotals::Sparse(map) => map.get(&pair_key(ca, cb)).copied().unwrap_or(0),
        };
        (total > 0).then_some(total as usize)
    }
}

/// Walks every run in the blob, invoking `sink` with `(from, to, payload)`; shared
/// validation for the scan and hydration passes.  `explicit_idx` collects explicit runs'
/// change indices (flat, range-addressed) so hydration avoids per-run allocation.
fn walk_pair_table(
    blob: &[u8],
    rows: usize,
    classes: &[u32],
    memo: &DiffMemo,
    payload_count: usize,
    explicit_idx: &mut Vec<u32>,
    mut sink: impl FnMut(usize, usize, RunPayload),
) -> Result<(usize, usize), CodecError> {
    let distinct = classes.iter().copied().max().map_or(0, |c| c as usize + 1);
    let memo_totals = MemoTotals::build(memo, distinct);
    let mut cur = Cur { b: blob, pos: 0 };
    let edges = cur.varint()? as usize;
    let declared_records = cur.varint()? as usize;
    let mut records = 0usize;
    let mut prev_to = 0i64;
    for k in 0..edges {
        let to = prev_to + cur.zigzag()?;
        prev_to = to;
        let offset = cur.varint()? as i64;
        let from = to - offset;
        if to < 0 || to as usize >= rows || offset < 1 || from < 0 {
            return Err(corrupt(format!("run {k} endpoints out of range")));
        }
        let (from, to) = (from as usize, to as usize);
        match cur.u8()? {
            RUN_MEMOIZED => {
                let total = memo_totals.get(classes[from], classes[to]).ok_or_else(|| {
                    corrupt(format!("run {k} replays an absent or empty memo entry"))
                })?;
                records += total;
                sink(from, to, RunPayload::Memoized);
            }
            RUN_EXPLICIT => {
                let leaf_count = cur.varint()? as usize;
                let total = cur.varint()? as usize;
                if total == 0 || leaf_count > total || total > declared_records {
                    return Err(corrupt(format!("run {k} has an impossible record count")));
                }
                let start = explicit_idx.len();
                for _ in 0..total {
                    let idx = cur.varint()? as usize;
                    if idx >= payload_count {
                        return Err(corrupt(format!("run {k} references missing change {idx}")));
                    }
                    explicit_idx.push(idx as u32);
                }
                records += total;
                sink(
                    from,
                    to,
                    RunPayload::Explicit(leaf_count, start..explicit_idx.len()),
                );
            }
            other => return Err(corrupt(format!("invalid run tag {other}"))),
        }
        if records > declared_records {
            return Err(corrupt("pair table exceeds its declared record count"));
        }
    }
    if records != declared_records {
        return Err(corrupt(format!(
            "pair table declares {declared_records} records, runs produce {records}"
        )));
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes after the pair table"));
    }
    Ok((edges, records))
}

/// Reads mining state written by [`write_accumulator`], deferring pair-table expansion:
/// the returned accumulator carries the rebuilt dedup arena and warm memo but an *empty*
/// store and edge list, and the pair table rides alongside as [`LatentPairs`].  Callers
/// must [`hydrate_pairs`] before touching the graph; until then the accumulator is only
/// good for dedup/memo queries, and semantic errors inside the run blob surface from
/// hydration rather than here (the session layer's checksum already guarantees the bytes
/// are the ones that were written).
pub fn read_accumulator_deferred(
    r: &mut &[u8],
) -> Result<(GraphAccumulator, LatentPairs), CodecError> {
    let nodes = read_node_table(r)?;
    let change_payloads = read_change_table(r, &nodes)?;

    // Everything below the tables is fixed-stride scalars at row/pair volume — hundreds
    // of thousands of tiny varints — so decode through the slice cursor rather than
    // per-item `io::Read` calls (restore always hands us an in-memory frame).
    let mut cur = Cur { b: r, pos: 0 };

    // Dedup: re-ingest each row's representative; first-come ids must match the stored
    // sequence exactly.
    let distinct = cur.count()?;
    let mut class_nodes = Vec::with_capacity(distinct.min(1 << 16));
    for _ in 0..distinct {
        let idx = cur.varint()? as usize;
        class_nodes.push(
            nodes
                .get(idx)
                .ok_or_else(|| corrupt(format!("class references missing node {idx}")))?,
        );
    }
    let rows = cur.count()?;
    let mut dedup = DedupTable::new();
    for row in 0..rows {
        let class = cur.varint()? as usize;
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

    // Memo.
    let policy = match cur.u8()? {
        0 => None,
        1 => Some(AncestorPolicy::Full),
        2 => Some(AncestorPolicy::LcaPruned),
        other => return Err(corrupt(format!("invalid memo policy tag {other}"))),
    };
    let alignments = cur.count()?;
    let pair_count = cur.count()?;
    let mut pairs = Vec::with_capacity(pair_count.min(1 << 16));
    for _ in 0..pair_count {
        let key = cur.u64_le()?;
        let leaf_count = cur.count()?;
        let change_count = cur.count()?;
        if leaf_count > change_count {
            return Err(corrupt(format!(
                "memo pair {key:#x} claims {leaf_count} leaves of {change_count} changes"
            )));
        }
        let mut shared = Vec::with_capacity(change_count.min(1 << 12));
        for _ in 0..change_count {
            let idx = cur.varint()? as usize;
            shared.push(
                change_payloads
                    .get(idx)
                    .ok_or_else(|| corrupt(format!("memo references missing change {idx}")))?
                    .clone(),
            );
        }
        pairs.push((key, PairChanges::from_shared_parts(shared, leaf_count)));
    }
    // Older writers stored a seen-once admission set here; its keys no longer mean
    // anything, so they are skipped.
    let seen_once_count = cur.count()?;
    cur.take(seen_once_count * 8)?;
    let memo = DiffMemo::from_parts(policy, alignments, pairs);

    // Pair table: keep the blob compact and read only its leading counts here.  The full
    // per-run scan is deferred to [`hydrate_pairs`] — at the session layer the blob
    // arrives inside a checksummed frame, so storage corruption is already rejected
    // before this point and the scan would only re-pay the table's dominant decode cost
    // on the restore path.  The counts are bounded like every other section count so a
    // hand-crafted header can't provoke an oversized allocation.
    let blob_len = cur.count()?;
    let blob = cur.take(blob_len)?.to_vec();
    *r = &cur.b[cur.pos..];
    let mut head = Cur { b: &blob, pos: 0 };
    let edges = head.varint()?;
    let records = head.varint()?;
    const MAX_PAIR_COUNT: u64 = 1 << 28;
    if edges > MAX_PAIR_COUNT || records > MAX_PAIR_COUNT {
        return Err(corrupt(format!(
            "pair table declares an implausible size ({edges} edges, {records} records)"
        )));
    }
    let (edges, records) = (edges as usize, records as usize);

    let acc = GraphAccumulator {
        dedup,
        store: pi_diff::DiffStore::new(),
        edges: Vec::new(),
        memo,
    };
    Ok((
        acc,
        LatentPairs {
            bytes: blob,
            payloads: change_payloads,
            edges,
            records,
        },
    ))
}

/// Validates and expands a latent pair table into the accumulator's store and edge list,
/// restoring every `DiffId` at its original offset.  This is where the full
/// bounds-and-membership scan of the run blob happens.  The accumulator must be the one
/// returned by the same [`read_accumulator_deferred`] call (its memo and class ids
/// resolve the replay markers); pairing it with anything else is reported as corruption.
pub fn hydrate_pairs(acc: &mut GraphAccumulator, pairs: LatentPairs) -> Result<(), CodecError> {
    let classes: Vec<u32> = (0..acc.dedup.len())
        .map(|row| acc.dedup.class_of(row))
        .collect();
    let mut store = pi_diff::DiffStore::with_capacity(pairs.records);
    let mut edges = Vec::with_capacity(pairs.edges);
    let mut explicit_idx = Vec::new();
    // Two-pass over explicit runs is avoided by collecting sink closures' work directly;
    // the closure cannot borrow `store` and the index scratch at once, so runs land in a
    // staging list first.
    let mut staged: Vec<(usize, usize, RunPayload)> = Vec::with_capacity(pairs.edges);
    walk_pair_table(
        &pairs.bytes,
        acc.dedup.len(),
        &classes,
        &acc.memo,
        pairs.payloads.len(),
        &mut explicit_idx,
        |from, to, payload| staged.push((from, to, payload)),
    )?;
    for (from, to, payload) in staged {
        let first = store.len();
        let leaf_count = match payload {
            RunPayload::Memoized => {
                let entry = acc
                    .memo
                    .get(classes[from], classes[to])
                    .expect("validated by walk_pair_table");
                for change in entry.changes() {
                    store.push(DiffRecord::from_shared(from, to, Arc::clone(change)));
                }
                entry.leaf_count()
            }
            RunPayload::Explicit(leaf_count, range) => {
                for idx in &explicit_idx[range] {
                    store.push(DiffRecord::from_shared(
                        from,
                        to,
                        Arc::clone(&pairs.payloads[*idx as usize]),
                    ));
                }
                leaf_count
            }
        };
        edges.push(Edge {
            from,
            to,
            diffs: (first..first + leaf_count).map(DiffId).collect(),
        });
    }
    acc.store = store;
    acc.edges = edges;
    Ok(())
}

/// Reads mining state written by [`write_accumulator`] and materializes it fully — the
/// deferred read followed by immediate hydration.
pub fn read_accumulator(r: &mut &[u8]) -> Result<GraphAccumulator, CodecError> {
    let (mut acc, pairs) = read_accumulator_deferred(r)?;
    hydrate_pairs(&mut acc, pairs)?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
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
                assert_eq!(restored.dedup().count(class), acc.dedup().count(class));
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
    fn deferred_read_hydrates_to_the_eager_result() {
        let acc = mined_accumulator(true);
        let mut buf = Vec::new();
        write_accumulator(&mut buf, &acc).unwrap();
        let (mut deferred, pairs) = read_accumulator_deferred(&mut buf.as_slice()).unwrap();
        // Latent: dedup and memo are live, the graph is not materialized yet.
        assert_eq!(deferred.dedup().distinct(), acc.dedup().distinct());
        assert_eq!(deferred.store().len(), 0);
        assert_eq!(pairs.edge_count(), acc.edges.len());
        assert_eq!(pairs.record_count(), acc.store.len());
        assert!(pairs.byte_len() > 0);
        hydrate_pairs(&mut deferred, pairs).unwrap();
        assert_eq!(deferred.to_graph(), acc.to_graph());
        assert_eq!(deferred.stats(), acc.stats());
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
        // accumulator (an in-range endpoint or memo-key flip is indistinguishable at this
        // layer).  Detecting *any* flipped byte is the session envelope's job — the whole
        // payload rides inside a checksummed frame, so pi-core's restore rejects these
        // streams before this reader ever runs.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x2a;
            if let Ok(restored) = read_accumulator(&mut bad.as_slice()) {
                let _ = restored.to_graph();
            }
        }
    }
}
