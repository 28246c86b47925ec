//! The pair table shared by the interaction graph, the widget mapper and the snapshot codec.
//!
//! The paper notes that the `diffs` table is *logical* and need not be materialised in full.
//! A [`DiffStore`] keeps it in three parts, the same three a snapshot writes:
//!
//! * a **change table** of index-free changes, each a [`ChangeRow`] of ids: a path id into
//!   the store's path table, a member id per side into its member table (one [`Node`] per
//!   distinct subtree), and the leaf flag;
//! * **change lists**, each a contiguous range of the change table, leaves first: one per
//!   alignment (a memoized ordered class pair, or an unmemoized compared pair), or one per
//!   memo entry and explicit run read from a snapshot;
//! * **run rows** `(from, to, list)`, one per compared pair that differs, in append order.
//!
//! A record is a position in a run: run `k`'s records are its list's changes stamped with
//! `(from, to)`, and their [`DiffId`]s are `first..first + len`, where `first` is the sum of
//! the earlier runs' list lengths.  Ids are therefore the ones a per-record arena would
//! assign, while repeated pairs of the same shapes cost one run row each.
//!
//! **What writing and reading cost.**  The path and member tables fill as rows are written,
//! and every writer writes rows: the aligner as it emits each change
//! ([`DiffStore::push_alignment`], on this thread's reused aligner state; a list's
//! ancestor rows come from the node pairs its walk recorded, with no sort or pass over the
//! leaves),
//! [`DiffStore::push_list`] for change values, [`DiffStore::append_lists`], which maps a
//! parallel block's ids into this store's once per path and per member, and snapshot
//! restore, straight from the change table it decodes ([`DiffStore::intern_change`] and
//! [`DiffStore::push_indexed_list`]).  A write costs one probe of the path index and one of
//! the member index per side, and copies a path or clones a subtree handle only when it is
//! new to the store.  Rows are not deduplicated when written: equal changes of different
//! lists keep a row each, so a list is a range of rows, and the snapshot writer folds equal
//! rows.  A reader maps ids: the widget mapper indexes its per-path and per-member columns
//! by them, and a [`RecordRef`] resolves them to the path and subtrees it lends out.

use crate::align::Scratch;
use crate::record::{AncestorPolicy, RecordRef, TreeChange};
use crate::table::{ChangeRow, ChangeTable, ABSENT};
use pi_ast::{Node, Path};
use std::cell::RefCell;
use std::mem::size_of;
use std::ops::Range;

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

/// A change list: the `len` rows of the change table from `start`, the first `leaves` of
/// them leaf changes.
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
/// the same change in both, however the changes are shared between lists and numbered in
/// the tables.
#[derive(Debug, Default, Clone)]
pub struct DiffStore {
    /// The change rows and their path and member tables, allocated by the first write: a
    /// new store, and so a new session, allocates nothing and stays a few words wide.
    table: Option<Box<ChangeTable>>,
    lists: Vec<List>,
    runs: Vec<Run>,
    records: usize,
}

/// A `u32` column value; the store's columns hold fewer than 2³² entries.
fn column(value: usize) -> u32 {
    u32::try_from(value).expect("a diff store column holds fewer than 2^32 entries")
}

thread_local! {
    /// This thread's aligner state, reused by every alignment it appends to any store.  It
    /// is created on a thread's first alignment, so a new store or session allocates
    /// nothing for it, and it is never persisted.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The change table of a store nothing has been written to.
static EMPTY: ChangeTable = ChangeTable::EMPTY;

impl DiffStore {
    /// Creates an empty store.  It allocates nothing until the first row is written.
    pub fn new() -> Self {
        Self::default()
    }

    fn table(&self) -> &ChangeTable {
        self.table.as_deref().unwrap_or(&EMPTY)
    }

    fn table_mut(&mut self) -> &mut ChangeTable {
        self.table.get_or_insert_with(Box::default)
    }

    /// Aligns `a` with `b` under `policy` and appends their change list, returning its id:
    /// the list [`crate::extract_changes`] returns for the pair, leaves first, with the same
    /// paths.  The matcher writes the leaf changes straight onto the change table as rows,
    /// then the ancestors from the node pairs its walk recorded, on this thread's reused
    /// aligner state, so once the tables and the aligner's buffers have grown an alignment
    /// allocates nothing.
    pub fn push_alignment(&mut self, a: &Node, b: &Node, policy: AncestorPolicy) -> u32 {
        let table = self.table_mut();
        let first = table.rows.len();
        let leaves = SCRATCH.with(|scratch| scratch.borrow_mut().changes_into(a, b, policy, table));
        self.close_appended(first, leaves)
    }

    /// Appends one alignment's changes to the change table as a new list and returns the
    /// list's id.  The changes come leaves first, as [`crate::extract_changes`] emits them.
    pub fn push_list(&mut self, changes: Vec<TreeChange>) -> u32 {
        let table = self.table_mut();
        let first = table.rows.len();
        let leaves = changes.iter().take_while(|c| c.is_leaf).count();
        for change in &changes {
            table.push_change(change);
        }
        self.close_appended(first, leaves)
    }

    /// Moves every change list of `other`, a store that holds lists but no runs, to the end
    /// of this store in order, and returns the id its first list takes here: list `k` of
    /// `other` becomes list `first + k`.  `other`'s path and member ids are mapped into this
    /// store's tables once each, then its rows are copied with their ids mapped.
    pub fn append_lists(&mut self, other: DiffStore) -> u32 {
        debug_assert!(
            other.runs.is_empty(),
            "only change lists move between stores"
        );
        let table = self.table.get_or_insert_with(Box::default);
        let other_table = other.table();
        let paths: Vec<u32> = (other_table.paths.all().iter())
            .map(|path| table.paths.intern(path.steps()))
            .collect();
        let members: Vec<u32> = (other_table.members.all().iter())
            .map(|node| table.members.intern(node))
            .collect();
        let member = |id: u32| {
            if id == ABSENT {
                ABSENT
            } else {
                members[id as usize]
            }
        };
        let first = column(self.lists.len());
        let rows = column(table.rows.len());
        table
            .rows
            .extend(other_table.rows.iter().map(|row| ChangeRow {
                path: paths[row.path as usize],
                before: member(row.before),
                after: member(row.after),
                is_leaf: row.is_leaf,
            }));
        self.lists.extend(other.lists.iter().map(|list| List {
            start: rows + list.start,
            ..*list
        }));
        first
    }

    /// Registers the rows appended to the table from index `first` on, the first `leaves`
    /// of them leaf changes, as a new list.
    fn close_appended(&mut self, first: usize, leaves: usize) -> u32 {
        debug_assert!(
            self.table().rows[first + leaves..]
                .iter()
                .all(|c| !c.is_leaf),
            "change lists put their leaves first"
        );
        let id = column(self.lists.len());
        self.lists.push(List {
            start: column(first),
            len: column(self.table().rows.len() - first),
            leaves: column(leaves),
        });
        id
    }

    /// The row of a change in this store's ids, adding its path and sides to the path and
    /// member tables if they are new; the row itself is not added.  Snapshot restore reads
    /// its change table this way, one row per distinct change, and then adds each list with
    /// [`DiffStore::push_indexed_list`].
    pub fn intern_change(
        &mut self,
        path: &Path,
        before: Option<&Node>,
        after: Option<&Node>,
        is_leaf: bool,
    ) -> ChangeRow {
        self.table_mut().row(path.steps(), before, after, is_leaf)
    }

    /// Adds a list of the rows of `table` at `indices` (rows from
    /// [`DiffStore::intern_change`] on this store), leaves first, and returns its id.
    /// Returns `None`, adding nothing, when an index is out of range or `leaves` exceeds the
    /// list's length.
    pub fn push_indexed_list(
        &mut self,
        table: &[ChangeRow],
        indices: &[u32],
        leaves: usize,
    ) -> Option<u32> {
        if leaves > indices.len() || indices.iter().any(|&c| c as usize >= table.len()) {
            return None;
        }
        let rows = &mut self.table_mut().rows;
        let first = rows.len();
        rows.extend(indices.iter().map(|&c| table[c as usize]));
        let id = column(self.lists.len());
        self.lists.push(List {
            start: column(first),
            len: column(indices.len()),
            leaves: column(leaves),
        });
        Some(id)
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

    /// The change table: one row of ids per change.
    pub fn rows(&self) -> &[ChangeRow] {
        &self.table().rows
    }

    /// The path with id `id`.
    pub fn path(&self, id: u32) -> &Path {
        self.table().paths.get(id)
    }

    /// The path table, in id order: every distinct path of a row, numbered first-come.
    pub fn paths(&self) -> &[Path] {
        self.table().paths.all()
    }

    /// The subtree with member id `id`; `None` for [`ABSENT`].
    pub(crate) fn member(&self, id: u32) -> Option<&Node> {
        self.table().members.get(id)
    }

    /// The member table, in id order: one subtree per distinct [`NodeId`](pi_ast::NodeId)
    /// on either side of a row, numbered first-come.  Member identity is the `NodeId`, the
    /// tolerance the aligner's `same_tree` already applies.
    pub fn members(&self) -> &[Node] {
        self.table().members.all()
    }

    /// The change a row stands for, as a value.
    pub fn change(&self, row: ChangeRow) -> TreeChange {
        self.table().change(row)
    }

    /// The number of change lists.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// Where list `list`'s rows lie in the change table.
    pub fn list_range(&self, list: u32) -> Range<usize> {
        let List { start, len, .. } = self.lists[list as usize];
        start as usize..(start + len) as usize
    }

    /// List `list`'s rows, leaves first.
    pub fn list(&self, list: u32) -> &[ChangeRow] {
        &self.table().rows[self.list_range(list)]
    }

    /// List `list`'s changes as values, leaves first.
    pub fn list_changes(&self, list: u32) -> impl Iterator<Item = TreeChange> + '_ {
        self.list(list).iter().map(|&row| self.table().change(row))
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

    /// A row read as a record of `run`'s pair.
    fn record(&self, run: &Run, row: ChangeRow) -> RecordRef<'_> {
        RecordRef::of_row(run.from as usize, run.to as usize, self.table(), row)
    }

    /// Looks up a record: a binary search for its run, then an index into the run's list.
    pub fn get(&self, id: DiffId) -> RecordRef<'_> {
        assert!(id.0 < self.records, "{id} is past the store's end");
        let k = self.runs.partition_point(|run| run.first as usize <= id.0) - 1;
        let run = &self.runs[k];
        self.record(run, self.list(run.list)[id.0 - run.first as usize])
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
            .flat_map(move |run| self.list(run.list).iter().map(|&row| self.record(run, row)))
            .enumerate()
            .map(|(i, record)| (DiffId(i), record))
    }

    /// Heap bytes the store holds, from its buffers' capacities: run rows, list rows, the
    /// change rows, and the path and member tables with their indices.  Member subtrees are
    /// excluded: they alias the queries they came from, which the distinct-tree arena
    /// accounts for once.  O(paths): a path deeper than a `Path` holds inline adds its heap
    /// steps.
    pub fn footprint_bytes(&self) -> usize {
        self.runs.capacity() * size_of::<Run>()
            + self.lists.capacity() * size_of::<List>()
            + self
                .table
                .as_ref()
                .map_or(0, |table| size_of::<ChangeTable>() + table.heap_bytes())
    }

    /// Number of distinct paths across all records — the mapper's partition count
    /// (Algorithm 1, line 3) without partitioning.  Reads each list that a run uses once,
    /// so it costs the runs plus the lists' changes, not the records.
    pub fn distinct_paths(&self) -> usize {
        let mut used = vec![false; self.lists.len()];
        let mut seen = vec![false; self.paths().len()];
        let mut paths = 0;
        for run in &self.runs {
            if !std::mem::replace(&mut used[run.list as usize], true) {
                for row in self.list(run.list) {
                    let path = row.path as usize;
                    paths += usize::from(!std::mem::replace(&mut seen[path], true));
                }
            }
        }
        paths
    }
}

impl PartialEq for DiffStore {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.runs.len() == other.runs.len()
            && self.runs.iter().zip(&other.runs).all(|(a, b)| {
                (a.from, a.to, a.first) == (b.from, b.to, b.first)
                    && self.list_leaves(a.list) == other.list_leaves(b.list)
                    && (self.list(a.list).iter().map(|&row| self.record(a, row)))
                        .eq(other.list(b.list).iter().map(|&row| other.record(b, row)))
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
        let lists = [
            (0, 1, crate::extract_changes(&a, &b, policy)),
            (1, 2, crate::extract_changes(&b, &c, policy)),
            (2, 3, crate::extract_changes(&a, &b, policy)),
        ];
        let expected: Vec<RecordRef<'_>> = lists
            .iter()
            .flat_map(|(q1, q2, changes)| changes.iter().map(|c| RecordRef::new(*q1, *q2, c)))
            .collect();
        assert_eq!(store.len(), expected.len());
        let iterated: Vec<_> = store.iter().collect();
        for (k, record) in expected.iter().enumerate() {
            let (id, view) = iterated[k];
            assert_eq!(id, DiffId(k));
            assert_eq!(view, *record);
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
            let changes = shared.list_changes(run.list).collect();
            let list = expanded.push_list(changes);
            expanded.push_run(run.from as usize, run.to as usize, list);
        }
        assert_eq!(expanded, shared);
        assert_ne!(expanded.list_count(), shared.list_count());
        // A restored layout: lists copied out of a table of the changes in another order.
        let mut restored = DiffStore::new();
        let table: Vec<ChangeRow> = (shared.rows().iter().rev())
            .map(|&row| {
                let change = shared.change(row);
                let (before, after) = (change.before.as_ref(), change.after.as_ref());
                restored.intern_change(&change.path, before, after, change.is_leaf)
            })
            .collect();
        let last = table.len() as u32 - 1;
        for list in 0..shared.list_count() as u32 {
            let leaves = shared.list_leaves(list);
            let indices: Vec<u32> = (shared.list_range(list)).map(|c| last - c as u32).collect();
            assert_eq!(
                restored.push_indexed_list(&table, &indices, leaves),
                Some(list)
            );
        }
        for run in shared.runs() {
            restored.push_run(run.from as usize, run.to as usize, run.list);
        }
        assert_eq!(restored, shared);
        assert_eq!(restored.distinct_paths(), shared.distinct_paths());
        // Out-of-range indices and leaf counts are refused.
        assert_eq!(restored.push_indexed_list(&table, &[u32::MAX], 0), None);
        assert_eq!(restored.push_indexed_list(&table, &[0], 2), None);
        // A different endpoint is a different store.
        let mut moved = restored.clone();
        moved.runs[1].to += 1;
        assert_ne!(moved, shared);
    }

    #[test]
    fn aligning_on_reused_state_equals_aligning_on_fresh_state() {
        use pi_ast::NodeKind;
        let list = |children: Vec<Node>| Node::new(NodeKind::Project).with_children(children);
        let col = |name: &str| Node::column(name);
        let cols = |names: &[&str]| names.iter().map(|name| col(name)).collect::<Vec<_>>();
        // Eleven nested levels, each behind a trimmed sibling: the changes sit at depth 11,
        // past `Path`'s eight inline steps, so the reused path spills to the heap.
        let deep = |bottom: Node| (0..10).fold(bottom, |inner, _| list(vec![col("s"), inner]));
        // Both ends differ, so nothing is trimmed and the LCS table spans all 26 children,
        // whose shapes repeat.
        let wide = |ends: [&str; 2], middle: &[&str]| {
            let mut children = vec![col(ends[0])];
            for _ in 0..3 {
                children.extend(cols(middle));
            }
            children.push(col(ends[1]));
            list(children)
        };
        // A two-by-two LCS whose one anchor, `x`, is found only if the table's borders read
        // zero: a table left over from a wider alignment would pair the lists positionally.
        let anchored = (list(cols(&["p", "x"])), list(cols(&["x", "r"])));
        let pairs = [
            anchored.clone(),
            (
                deep(list(cols(&["k", "p"]))),
                deep(list(cols(&["k", "q", "n"]))),
            ),
            (
                wide(["p", "q"], &["a", "b", "c", "d", "e", "f", "g", "h"]),
                wide(["r", "s"], &["b", "a", "c", "x", "e", "g", "f", "h"]),
            ),
            anchored,
            (
                parse("SELECT sales FROM t WHERE cty = 'USA'"),
                parse("SELECT costs FROM t WHERE cty = 'EUR'"),
            ),
        ];
        let mut store = DiffStore::new();
        for policy in [AncestorPolicy::LcaPruned, AncestorPolicy::Full] {
            for (a, b) in &pairs {
                let list = store.push_alignment(a, b, policy);
                let fresh = crate::extract_changes(a, b, policy);
                let reused: Vec<TreeChange> = store.list_changes(list).collect();
                // `Debug` shows each path's representation, inline or heap, as well as its
                // steps, so this also pins where every path is stored.
                assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{policy:?}");
                let leaves = fresh.iter().filter(|c| c.is_leaf).count();
                assert_eq!(store.list_leaves(list), leaves);
            }
        }
        assert!(store.paths().iter().any(|path| path.depth() > 8));
        assert_eq!(store.list_count(), 2 * pairs.len());
    }

    #[test]
    fn appended_lists_keep_their_changes_and_leaf_counts() {
        let shared = populated_store();
        let mut worker = DiffStore::new();
        for list in 0..shared.list_count() as u32 {
            worker.push_list(shared.list_changes(list).collect());
        }
        let mut store = populated_store();
        let first = store.append_lists(worker);
        assert_eq!(first as usize, shared.list_count());
        for list in 0..shared.list_count() as u32 {
            let moved = first + list;
            assert!(store.list_changes(moved).eq(shared.list_changes(list)));
            assert_eq!(store.list_leaves(moved), shared.list_leaves(list));
        }
        assert_eq!(store.rows().len(), 2 * shared.rows().len());
        // The tables hold each path and subtree once, however many blocks brought them.
        assert_eq!(store.paths().len(), shared.paths().len());
        assert_eq!(store.members().len(), shared.members().len());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let store = populated_store();
        let ids: Vec<usize> = store.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..store.len()).collect::<Vec<_>>());
        assert_eq!(DiffId(3).to_string(), "d3");
    }
}
