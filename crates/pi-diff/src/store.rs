//! The pair table shared by the interaction graph, the widget mapper and the snapshot codec.
//!
//! The paper notes that the `diffs` table is *logical* and need not be materialised in full.
//! A [`DiffStore`] keeps it in three parts, the same three a snapshot writes:
//!
//! * a **change table** of index-free [`TreeChange`]s;
//! * **change lists**, each a sequence of change-table indices, leaves first: one per
//!   alignment (a memoized ordered class pair, or an unmemoized compared pair), or one per
//!   explicit run read from a snapshot;
//! * **run rows** `(from, to, list)`, one per compared pair that differs, in append order.
//!
//! A record is a position in a run: run `k`'s records are its list's changes stamped with
//! `(from, to)`, and their [`DiffId`]s are `first..first + len`, where `first` is the sum of
//! the earlier runs' list lengths.  Ids are therefore the ones a per-record arena would
//! assign, while repeated pairs of the same shapes cost one run row each.

use crate::record::{RecordRef, TreeChange};

/// Identifier of a diff record inside a [`DiffStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiffId(pub usize);

impl std::fmt::Display for DiffId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// One run row: compared pair `(from, to)` of the log points at change list `list`, and its
/// records take the ids `first..first + len` of the list's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Index of the source query in the log.
    pub from: u32,
    /// Index of the target query in the log.
    pub to: u32,
    /// The change list the pair's records read.
    pub list: u32,
    /// The id of the run's first record.
    pub first: u32,
}

/// A change list: `len` change-table indices from `start` in the store's item column, the
/// first `leaves` of them leaf changes.
#[derive(Debug, Clone, Copy)]
struct List {
    start: u32,
    len: u32,
    leaves: u32,
}

/// The append-only pair table: change table, change lists and run rows.
///
/// Append-only is load-bearing: once a run is pushed, its records' [`DiffId`]s are stable
/// forever.  A streaming session keeps appending to one store across pushes, and every
/// snapshot sees the ids a batch build of the same prefix would have assigned.
///
/// Equality compares runs and records by content in id order: two stores are equal exactly
/// when their runs have the same endpoints and leaf counts and every `DiffId` resolves to
/// the same change in both, however the changes are shared between lists.
#[derive(Debug, Default, Clone)]
pub struct DiffStore {
    changes: Vec<TreeChange>,
    lists: Vec<List>,
    /// The change-table indices of every list, list after list.
    items: Vec<u32>,
    runs: Vec<Run>,
    records: usize,
}

/// A `u32` column value; the store's columns hold fewer than 2³² entries.
fn column(value: usize) -> u32 {
    u32::try_from(value).expect("a diff store column holds fewer than 2^32 entries")
}

impl DiffStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store over a change table restored from a snapshot; lists then
    /// index into it through [`DiffStore::push_shared_list`].
    pub fn with_changes(changes: Vec<TreeChange>) -> Self {
        DiffStore {
            changes,
            ..DiffStore::default()
        }
    }

    /// Appends one alignment's changes to the change table as a new list and returns the
    /// list's id.  The changes come leaves first, as [`crate::extract_changes`] emits them.
    pub fn push_list(&mut self, changes: Vec<TreeChange>) -> u32 {
        let leaves = changes.iter().take_while(|c| c.is_leaf).count();
        debug_assert!(
            changes[leaves..].iter().all(|c| !c.is_leaf),
            "change lists put their leaves first"
        );
        let first = self.changes.len();
        self.changes.extend(changes);
        let indices = first..self.changes.len();
        self.items.extend(indices.map(column));
        self.close_list(leaves)
    }

    /// Adds a list over changes already in the table (snapshot restore, where equal changes
    /// are stored once).  Returns `None`, adding nothing, when an index is out of range or
    /// `leaves` exceeds the list's length.
    pub fn push_shared_list(&mut self, indices: &[u32], leaves: usize) -> Option<u32> {
        if leaves > indices.len() || indices.iter().any(|&c| c as usize >= self.changes.len()) {
            return None;
        }
        self.items.extend_from_slice(indices);
        Some(self.close_list(leaves))
    }

    /// Registers the items appended since the previous list as a new list.
    fn close_list(&mut self, leaves: usize) -> u32 {
        let start = self.lists.last().map_or(0, |l| l.start + l.len);
        let id = column(self.lists.len());
        self.lists.push(List {
            start,
            len: column(self.items.len()) - start,
            leaves: column(leaves),
        });
        id
    }

    /// Appends compared pair `(from, to)` as a run of list `list`'s changes, unless the list
    /// is empty (identical trees, or a hash collision the aligner treats as identity: no
    /// records and no edge).  Returns whether a run was added.
    pub fn push_run(&mut self, from: usize, to: usize, list: u32) -> bool {
        let len = self.list_len(list);
        if len == 0 {
            return false;
        }
        self.runs.push(Run {
            from: column(from),
            to: column(to),
            list,
            first: column(self.records),
        });
        self.records += len;
        true
    }

    /// The change table.
    pub fn changes(&self) -> &[TreeChange] {
        &self.changes
    }

    /// The number of change lists.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// List `list`'s change-table indices, leaves first.
    pub fn list(&self, list: u32) -> &[u32] {
        let List { start, len, .. } = self.lists[list as usize];
        &self.items[start as usize..(start + len) as usize]
    }

    /// List `list`'s changes, leaves first.
    pub fn list_changes(&self, list: u32) -> impl Iterator<Item = &TreeChange> + '_ {
        self.list(list).iter().map(|&c| &self.changes[c as usize])
    }

    /// The number of changes in list `list`.
    pub fn list_len(&self, list: u32) -> usize {
        self.lists[list as usize].len as usize
    }

    /// The number of leading leaf changes in list `list`.
    pub fn list_leaves(&self, list: u32) -> usize {
        self.lists[list as usize].leaves as usize
    }

    /// The run rows, in append order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Looks up a record: a binary search for its run, then an index into the run's list.
    pub fn get(&self, id: DiffId) -> RecordRef<'_> {
        assert!(id.0 < self.records, "{id} is past the store's end");
        let k = self.runs.partition_point(|run| run.first as usize <= id.0) - 1;
        let run = self.runs[k];
        let change = self.list(run.list)[id.0 - run.first as usize];
        RecordRef::new(
            run.from as usize,
            run.to as usize,
            &self.changes[change as usize],
        )
    }

    /// Number of records in the store.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Iterates over `(id, record)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DiffId, RecordRef<'_>)> {
        self.runs
            .iter()
            .flat_map(move |run| {
                self.list_changes(run.list)
                    .map(move |change| RecordRef::new(run.from as usize, run.to as usize, change))
            })
            .enumerate()
            .map(|(i, record)| (DiffId(i), record))
    }

    /// Estimated heap bytes of what the store holds: run rows, list rows and their item
    /// column, and the change table's inline payloads.  Subtrees are excluded — they alias
    /// the distinct-tree arena, which accounts for them once.  A run costs the same however
    /// many changes its list carries.  O(1); the estimate comes from the row sizes, not the
    /// allocator, so the figure is stable across platforms.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.len() * size_of::<Run>()
            + self.lists.len() * size_of::<List>()
            + self.items.len() * size_of::<u32>()
            + self.changes.len() * size_of::<TreeChange>()
    }

    /// Number of distinct paths across all records — the mapper's partition count
    /// (Algorithm 1, line 3) without partitioning.  Reads each list that a run uses once,
    /// so it costs the runs plus the lists' changes, not the records.
    pub fn distinct_paths(&self) -> usize {
        let mut used = vec![false; self.lists.len()];
        let mut paths = std::collections::HashSet::new();
        for run in &self.runs {
            if !std::mem::replace(&mut used[run.list as usize], true) {
                paths.extend(self.list_changes(run.list).map(|change| &change.path));
            }
        }
        paths.len()
    }
}

impl PartialEq for DiffStore {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.runs.len() == other.runs.len()
            && self.runs.iter().zip(&other.runs).all(|(a, b)| {
                (a.from, a.to, a.first) == (b.from, b.to, b.first)
                    && self.list_leaves(a.list) == other.list_leaves(b.list)
                    && self.list_changes(a.list).eq(other.list_changes(b.list))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AncestorPolicy;
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> pi_ast::Node {
        pi_sql::SqlFrontend.parse_one(sql).unwrap()
    }

    /// Two pairs with their own lists, and a third pair sharing the first pair's list.
    fn populated_store() -> DiffStore {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'");
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'");
        let c = parse("SELECT costs FROM t WHERE cty = 'CHN'");
        let mut store = DiffStore::new();
        let ab = store.push_list(crate::extract_changes(&a, &b, AncestorPolicy::Full));
        let bc = store.push_list(crate::extract_changes(&b, &c, AncestorPolicy::Full));
        assert!(store.push_run(0, 1, ab));
        assert!(store.push_run(1, 2, bc));
        assert!(store.push_run(2, 3, ab));
        store
    }

    #[test]
    fn records_are_their_runs_lists_stamped_with_the_pair() {
        let store = populated_store();
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'");
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'");
        let c = parse("SELECT costs FROM t WHERE cty = 'CHN'");
        let policy = AncestorPolicy::Full;
        let expected: Vec<_> = [
            crate::extract_diffs(&a, &b, 0, 1, policy),
            crate::extract_diffs(&b, &c, 1, 2, policy),
            crate::extract_diffs(&a, &b, 2, 3, policy),
        ]
        .concat();
        assert_eq!(store.len(), expected.len());
        let iterated: Vec<_> = store.iter().collect();
        for (k, record) in expected.iter().enumerate() {
            let (id, view) = iterated[k];
            assert_eq!(id, DiffId(k));
            assert_eq!(view, RecordRef::from(record));
            assert_eq!(store.get(id), view);
        }
        // The shared list is stored once: three runs, two lists.
        assert_eq!((store.runs().len(), store.list_count()), (3, 2));
        assert_eq!(
            store.runs()[2].first as usize,
            store.len() - store.list_len(0)
        );
    }

    #[test]
    fn empty_lists_add_no_run() {
        let mut store = DiffStore::new();
        let empty = store.push_list(Vec::new());
        assert!(!store.push_run(0, 1, empty));
        assert!(store.is_empty() && store.runs().is_empty());
    }

    #[test]
    fn equality_is_by_content_not_by_sharing() {
        // The same records with the shared list expanded into a list per pair.
        let shared = populated_store();
        let mut expanded = DiffStore::new();
        for run in shared.runs() {
            let changes = shared.list_changes(run.list).cloned().collect();
            let list = expanded.push_list(changes);
            expanded.push_run(run.from as usize, run.to as usize, list);
        }
        assert_eq!(expanded, shared);
        assert_ne!(expanded.list_count(), shared.list_count());
        // A restored layout: one table entry per distinct change, lists of indices.
        let mut restored = DiffStore::with_changes(shared.changes().to_vec());
        for list in 0..shared.list_count() as u32 {
            let leaves = shared.list_leaves(list);
            assert_eq!(
                restored.push_shared_list(shared.list(list), leaves),
                Some(list)
            );
        }
        for run in shared.runs() {
            restored.push_run(run.from as usize, run.to as usize, run.list);
        }
        assert_eq!(restored, shared);
        assert_eq!(restored.distinct_paths(), shared.distinct_paths());
        // Out-of-range indices and leaf counts are refused.
        assert_eq!(restored.push_shared_list(&[u32::MAX], 0), None);
        assert_eq!(restored.push_shared_list(&[0], 2), None);
        // A different endpoint is a different store.
        let mut moved = restored.clone();
        moved.runs[1].to += 1;
        assert_ne!(moved, shared);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let store = populated_store();
        let ids: Vec<usize> = store.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..store.len()).collect::<Vec<_>>());
        assert_eq!(DiffId(3).to_string(), "d3");
    }
}
