//! Snapshot codec for the diff layer: the change table.
//!
//! A mined session's diff state is a table of index-free changes that change lists refer to
//! by index (see [`crate::DiffStore`]).  The codec writes each distinct change once:
//!
//! * [`ChangeTableBuilder`] collects the store rows a snapshot references into one table,
//!   deduplicated by content — the path, the node-table indices of both sides and the leaf
//!   flag — so equal changes aligned from different representatives, or stored once per
//!   pair by a memo-off build, snapshot as one entry.  It reads the store's ids: each
//!   member's subtree is interned into the node table once, and each row is numbered once,
//!   the first time a list reaches it, so the writer never hashes a path or a subtree per
//!   change.
//! * [`read_change_table`] rebuilds the table against an already-restored node table as
//!   rows of a store's ids, filling the store's path and member tables as it reads; each
//!   list restored from the snapshot then copies its rows out of that table.

use crate::table::{ChangeRow, ABSENT};
use crate::DiffStore;
use pi_ast::codec::{
    corrupt, put_path, put_u8, put_varint, take_count, take_path, take_u8, take_varint, CodecError,
    NodeTableBuilder,
};
use pi_ast::{IntBuildHasher, Node};
use std::collections::HashMap;
use std::io::Write;

/// Marks a member or a row the builder has not numbered yet.
const UNSET: u32 = u32::MAX;

/// A change by content, in snapshot terms: its path id in the store, the node-table indices
/// of its `before` and `after` sides ([`ABSENT`] for a missing side) and its leaf flag.
/// Path ids and members are one per distinct path and subtree, so equal content is equal
/// changes.
type Content = (u32, u32, u32, bool);

/// Builds the deduplicated table of distinct changes a snapshot references, from a store's
/// rows.
///
/// Two-phase like [`NodeTableBuilder`]: sections intern the rows they reference first
/// (interning a row also interns its sides' subtrees into the node table, the first time
/// the row's members are met), then the table is written once with
/// [`ChangeTableBuilder::write_to`] and sections refer to changes by `u32` index.
#[derive(Debug)]
pub struct ChangeTableBuilder<'a> {
    store: &'a DiffStore,
    /// Per member id of the store: its node-table index, or [`UNSET`].
    node_of: Vec<u32>,
    /// Per row of the store: its table index, or [`UNSET`].
    index_of: Vec<u32>,
    by_content: HashMap<Content, u32, IntBuildHasher>,
    /// Distinct changes in emission order.
    entries: Vec<Content>,
}

impl<'a> ChangeTableBuilder<'a> {
    /// An empty table over `store`'s rows.
    pub fn new(store: &'a DiffStore) -> Self {
        ChangeTableBuilder {
            store,
            node_of: vec![UNSET; store.members().len()],
            index_of: vec![UNSET; store.rows().len()],
            by_content: HashMap::default(),
            entries: Vec::new(),
        }
    }

    /// Number of distinct changes interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no change has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns the store's row `c` (and, on first sight, its sides' subtrees into `nodes`),
    /// returning its table index.  Idempotent by content.
    pub fn intern(&mut self, c: u32, nodes: &mut NodeTableBuilder) -> u32 {
        let index = self.index_of[c as usize];
        if index != UNSET {
            return index;
        }
        let row = self.store.rows()[c as usize];
        let before = self.node(row.before, nodes);
        let after = self.node(row.after, nodes);
        let content = (row.path, before, after, row.is_leaf);
        let fresh = u32::try_from(self.entries.len()).expect("fewer than 2^32 distinct changes");
        let index = *self.by_content.entry(content).or_insert(fresh);
        if index == fresh {
            self.entries.push(content);
        }
        self.index_of[c as usize] = index;
        index
    }

    /// The node-table index of member `member`, interning its subtree on first sight.
    fn node(&mut self, member: u32, nodes: &mut NodeTableBuilder) -> u32 {
        let Some(node) = self.store.member(member) else {
            return ABSENT;
        };
        let index = &mut self.node_of[member as usize];
        if *index == UNSET {
            *index = nodes.intern(node);
        }
        *index
    }

    /// Writes the table: a varint count, then per entry the path, a presence/leaf flag
    /// byte and the optional `before`/`after` node-table indices.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        put_varint(w, self.entries.len() as u64)?;
        for &(path, before, after, is_leaf) in &self.entries {
            put_path(w, self.store.path(path))?;
            let flags = u8::from(before != ABSENT)
                | (u8::from(after != ABSENT) << 1)
                | (u8::from(is_leaf) << 2);
            put_u8(w, flags)?;
            for side in [before, after] {
                if side != ABSENT {
                    put_varint(w, u64::from(side))?;
                }
            }
        }
        Ok(())
    }
}

/// Reads a change table written by [`ChangeTableBuilder::write_to`] as rows of `store`'s
/// ids, resolving node indices against an already-restored node table; `store`'s path and
/// member tables fill as the rows are read, and lists are added over the returned rows with
/// [`DiffStore::push_indexed_list`].  A change with neither side is corruption: every
/// change replaces, adds or removes a subtree.
pub fn read_change_table(
    r: &mut &[u8],
    nodes: &[Node],
    store: &mut DiffStore,
) -> Result<Vec<ChangeRow>, CodecError> {
    let count = take_count(r)?;
    let mut rows = Vec::new();
    let node_at = |idx: u64| -> Result<&Node, CodecError> {
        usize::try_from(idx)
            .ok()
            .and_then(|idx| nodes.get(idx))
            .ok_or_else(|| corrupt(format!("change references missing node {idx}")))
    };
    for _ in 0..count {
        let path = take_path(r)?;
        let flags = take_u8(r)?;
        if flags & !0b111 != 0 || flags & 0b011 == 0 {
            return Err(corrupt(format!("invalid change flag byte {flags:#x}")));
        }
        let before = if flags & 0b001 != 0 {
            Some(node_at(take_varint(r)?)?)
        } else {
            None
        };
        let after = if flags & 0b010 != 0 {
            Some(node_at(take_varint(r)?)?)
        } else {
            None
        };
        rows.push(store.intern_change(&path, before, after, flags & 0b100 != 0));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AncestorPolicy;
    use pi_ast::codec::read_node_table;
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> Node {
        pi_sql::SqlFrontend.parse_one(sql).unwrap()
    }

    /// A store of two alignments' lists, then the first alignment again (equal content,
    /// separate rows).
    fn sample_store() -> DiffStore {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'");
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'");
        let c = parse("SELECT costs FROM t WHERE cty = 'CHN'");
        let policy = AncestorPolicy::LcaPruned;
        let mut store = DiffStore::new();
        for (x, y) in [(&a, &b), (&b, &c), (&a, &b)] {
            store.push_list(crate::extract_changes(x, y, policy));
        }
        store
    }

    #[test]
    fn change_table_round_trips_and_dedups_equal_changes() {
        let store = sample_store();
        let mut nodes = NodeTableBuilder::new();
        let mut table = ChangeTableBuilder::new(&store);
        let indices: Vec<Vec<u32>> = (0..3)
            .map(|list| {
                let rows = store.list_range(list);
                rows.map(|c| table.intern(c as u32, &mut nodes)).collect()
            })
            .collect();
        // The repeated alignment folds onto the first one's entries.
        assert_eq!(indices[2], indices[0]);
        assert_eq!(table.len(), store.list_len(0) + store.list_len(1));

        let mut node_buf = Vec::new();
        nodes.write_to(&mut node_buf).unwrap();
        let mut change_buf = Vec::new();
        table.write_to(&mut change_buf).unwrap();
        let restored_nodes = read_node_table(&mut node_buf.as_slice()).unwrap();
        let mut restored = DiffStore::new();
        let rows =
            read_change_table(&mut change_buf.as_slice(), &restored_nodes, &mut restored).unwrap();
        assert_eq!(rows.len(), table.len());
        for (list, idxs) in (0..3).zip(&indices) {
            for (change, &idx) in store.list_changes(list).zip(idxs) {
                assert_eq!(restored.change(rows[idx as usize]), change);
            }
        }
    }

    #[test]
    fn corrupt_change_tables_err_cleanly() {
        let store = sample_store();
        let mut nodes = NodeTableBuilder::new();
        let mut table = ChangeTableBuilder::new(&store);
        for c in 0..store.rows().len() as u32 {
            table.intern(c, &mut nodes);
        }
        let mut node_buf = Vec::new();
        nodes.write_to(&mut node_buf).unwrap();
        let restored_nodes = read_node_table(&mut node_buf.as_slice()).unwrap();
        let mut change_buf = Vec::new();
        table.write_to(&mut change_buf).unwrap();
        let read = |bytes: &[u8], nodes: &[Node]| {
            read_change_table(&mut &bytes[..], nodes, &mut DiffStore::new())
        };
        // Without the node table every side index dangles.
        assert!(read(&change_buf, &[]).is_err());
        // Truncations fail cleanly at every prefix length.
        for len in 0..change_buf.len() {
            assert!(read(&change_buf[..len], &restored_nodes).is_err());
        }
        // A change with neither side is refused.
        let mut sideless = Vec::new();
        put_varint(&mut sideless, 1).unwrap();
        put_path(&mut sideless, &pi_ast::Path::root()).unwrap();
        put_u8(&mut sideless, 0b100).unwrap();
        assert!(read(&sideless, &restored_nodes).is_err());
    }
}
