//! An arena of diff records shared by the interaction graph and the widget mapper.
//!
//! The paper notes that the `diffs` table is *logical* and need not be materialised in full;
//! in practice the interaction graph references diff records by id, and the mapper groups
//! those ids by path, so a simple append-only arena with by-id lookup is all that is needed.

use crate::record::DiffRecord;

/// Identifier of a diff record inside a [`DiffStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiffId(pub usize);

impl std::fmt::Display for DiffId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Append-only arena of diff records.
///
/// Append-only is a load-bearing property, not an implementation detail: once a record is
/// pushed, its [`DiffId`] is stable forever.  Incremental graph construction leans on this —
/// a streaming session keeps appending to one store across pushes, and every snapshot sees
/// the same ids a batch build of the same prefix would have assigned.
///
/// Equality compares record contents in id order — two stores are equal exactly when every
/// `DiffId` resolves to the same record in both.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DiffStore {
    records: Vec<DiffRecord>,
}

impl DiffStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with room for `records` appends — bulk rehydration knows its
    /// exact record count up front and should not pay reallocation churn.
    pub fn with_capacity(records: usize) -> Self {
        Self {
            records: Vec::with_capacity(records),
        }
    }

    /// The id the *next* pushed record will receive.
    ///
    /// Because the store is append-only this is also the offset at which another store's
    /// records would land if appended — the key to merging per-shard stores with stable id
    /// translation.
    pub fn next_id(&self) -> DiffId {
        DiffId(self.records.len())
    }

    /// Adds a record and returns its id.
    pub fn push(&mut self, record: DiffRecord) -> DiffId {
        let id = self.next_id();
        self.records.push(record);
        id
    }

    /// Adds many records, returning their ids in order.
    pub fn extend<I: IntoIterator<Item = DiffRecord>>(&mut self, records: I) -> Vec<DiffId> {
        records.into_iter().map(|r| self.push(r)).collect()
    }

    /// Appends every record of `other` to this store, returning the offset its ids moved by:
    /// `other`'s record `DiffId(k)` is this store's `DiffId(offset + k)` afterwards.
    /// Record subtrees are `Arc`-shared, so this moves pointers, never trees.
    ///
    /// The offset is the caller's rebasing key: any `DiffId` captured against `other` (edge
    /// labels, widget `init_diffs`) must be shifted by it before use against `self` — this
    /// method moves records only, it cannot see the structures that reference them.
    pub fn append(&mut self, other: DiffStore) -> usize {
        let offset = self.records.len();
        self.records.extend(other.records);
        offset
    }

    /// Looks up a record.
    pub fn get(&self, id: DiffId) -> &DiffRecord {
        &self.records[id.0]
    }

    /// Number of records in the store.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DiffId, &DiffRecord)> {
        self.records.iter().enumerate().map(|(i, r)| (DiffId(i), r))
    }

    /// Estimated heap bytes retained by the record arena: the per-record row (endpoints
    /// plus the shared-payload pointer) and an amortised share of the `Arc`-allocated
    /// change payloads.  Payload subtrees are excluded — they alias the distinct-tree
    /// arena, which accounts for them once.  O(1); estimates are documented on the
    /// constant, not measured, so the figure is stable across allocators.
    pub fn footprint_bytes(&self) -> usize {
        /// Amortised bytes per record: the `DiffRecord` row itself (two endpoints plus the
        /// payload pointer, 24 bytes) and a small share of the shared
        /// [`TreeChange`](crate::TreeChange) header.  Repetitive logs stamp each distinct
        /// pair's memoized payload into many records (`DiffRecord::from_shared`), so the
        /// header's full cost sits with the *distinct* entry — priced by the memo's own
        /// footprint — and each aliasing record carries only this amortised slice.
        const RECORD_FOOTPRINT_ESTIMATE: usize = 32;
        self.records.len() * RECORD_FOOTPRINT_ESTIMATE
    }

    /// Number of distinct paths across all records — the mapper's partition count
    /// (Algorithm 1, line 3) without partitioning.  Stats gauges poll this at trace scale
    /// (tens of millions of records), so it hashes path *references* instead of cloning
    /// every path into a map.
    pub fn distinct_paths(&self) -> usize {
        self.records
            .iter()
            .map(|r| &r.path)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    /// All record ids whose record is a leaf diff.
    pub fn leaf_ids(&self) -> Vec<DiffId> {
        self.iter()
            .filter(|(_, r)| r.is_leaf)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{build_records, AncestorPolicy};
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn populated_store() -> DiffStore {
        let mut store = DiffStore::new();
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap();
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap();
        let c = parse("SELECT costs FROM t WHERE cty = 'CHN'").unwrap();
        store.extend(build_records(&a, &b, 0, 1, AncestorPolicy::Full));
        store.extend(build_records(&b, &c, 1, 2, AncestorPolicy::Full));
        store
    }

    #[test]
    fn push_and_get_round_trip() {
        let store = populated_store();
        assert!(!store.is_empty());
        for (id, record) in store.iter() {
            assert_eq!(store.get(id), record);
        }
    }

    #[test]
    fn leaf_ids_only_returns_leaves() {
        let store = populated_store();
        let leaves = store.leaf_ids();
        assert!(!leaves.is_empty());
        assert!(leaves.iter().all(|id| store.get(*id).is_leaf));
        assert!(leaves.len() < store.len());
    }

    #[test]
    fn append_offsets_ids_stably() {
        let mut left = populated_store();
        let right = populated_store();
        let before = left.len();
        assert_eq!(left.next_id(), DiffId(before));
        let offset = left.append(right.clone());
        assert_eq!(offset, before);
        assert_eq!(left.len(), before + right.len());
        for (id, record) in right.iter() {
            assert_eq!(left.get(DiffId(offset + id.0)), record);
        }
        // Pre-existing ids are untouched.
        for (id, record) in populated_store().iter() {
            assert_eq!(left.get(id), record);
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let store = populated_store();
        let ids: Vec<usize> = store.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..store.len()).collect::<Vec<_>>());
        assert_eq!(DiffId(3).to_string(), "d3");
    }
}
