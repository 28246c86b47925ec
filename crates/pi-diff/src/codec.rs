//! Snapshot codec for the diff layer: the change table.
//!
//! A mined session's diff state is a table of index-free [`TreeChange`] payloads that change
//! lists refer to by index (see [`crate::DiffStore`]).  The codec writes each distinct change
//! once:
//!
//! * [`ChangeTableBuilder`] collects the changes a snapshot references into one table,
//!   deduplicated by content — the node-table indices of both sides, the leaf flag and the
//!   path — so equal changes aligned from different representatives, or stored once per
//!   pair by a memo-off build, snapshot as one entry.
//! * [`read_change_table`] rebuilds the payloads against an already-restored node table, so
//!   every list restored from the snapshot indexes one table entry per distinct change.

use crate::record::TreeChange;
use pi_ast::codec::{
    corrupt, put_path, put_u8, put_varint, take_count, take_path, take_u8, take_varint, CodecError,
    NodeTableBuilder,
};
use pi_ast::{IntBuildHasher, Node};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::{Read, Write};

/// Builds the deduplicated table of distinct [`TreeChange`] payloads referenced by a
/// snapshot.
///
/// Two-phase like [`NodeTableBuilder`]: sections intern their payloads first (interning a
/// change also interns its `before`/`after` subtrees into the node table), then the table
/// is written once with [`ChangeTableBuilder::write_to`] and sections refer to changes by
/// `u32` index.
#[derive(Debug, Default)]
pub struct ChangeTableBuilder<'a> {
    /// Content hash → the newest entry with that hash; entries chain to older ones with
    /// the same hash, and membership is decided by comparing the content.
    by_content: HashMap<u64, u32, IntBuildHasher>,
    /// Distinct payloads in emission order, with their interned node indices and the
    /// previous entry of their hash chain (`u32::MAX` ends a chain).
    entries: Vec<ChangeEntry<'a>>,
}

#[derive(Debug)]
struct ChangeEntry<'a> {
    change: &'a TreeChange,
    before: Option<u32>,
    after: Option<u32>,
    previous: u32,
}

impl<'a> ChangeTableBuilder<'a> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct change payloads interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no payload has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns a change payload (and its subtrees, into `nodes`), returning its table
    /// index.  Idempotent by content.
    pub fn intern(&mut self, change: &'a TreeChange, nodes: &mut NodeTableBuilder) -> u32 {
        let before = change.before.as_ref().map(|n| nodes.intern(n));
        let after = change.after.as_ref().map(|n| nodes.intern(n));
        let mut hasher = IntBuildHasher::default().build_hasher();
        (before, after, change.is_leaf).hash(&mut hasher);
        change.path.hash(&mut hasher);
        let key = hasher.finish();
        let head = self.by_content.get(&key).copied().unwrap_or(u32::MAX);
        let mut idx = head;
        while idx != u32::MAX {
            let entry = &self.entries[idx as usize];
            if (entry.before, entry.after, entry.change.is_leaf) == (before, after, change.is_leaf)
                && entry.change.path == change.path
            {
                return idx;
            }
            idx = entry.previous;
        }
        let idx = u32::try_from(self.entries.len()).expect("fewer than 2^32 distinct changes");
        self.by_content.insert(key, idx);
        self.entries.push(ChangeEntry {
            change,
            before,
            after,
            previous: head,
        });
        idx
    }

    /// Writes the table: a varint count, then per entry the path, a presence/leaf flag
    /// byte and the optional `before`/`after` node-table indices.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        put_varint(w, self.entries.len() as u64)?;
        for entry in &self.entries {
            put_path(w, &entry.change.path)?;
            let flags = u8::from(entry.before.is_some())
                | (u8::from(entry.after.is_some()) << 1)
                | (u8::from(entry.change.is_leaf) << 2);
            put_u8(w, flags)?;
            if let Some(idx) = entry.before {
                put_varint(w, u64::from(idx))?;
            }
            if let Some(idx) = entry.after {
                put_varint(w, u64::from(idx))?;
            }
        }
        Ok(())
    }
}

/// Reads a change table written by [`ChangeTableBuilder::write_to`], resolving node
/// indices against an already-restored node table.  A change with neither side is
/// corruption: every change replaces, adds or removes a subtree.
pub fn read_change_table<R: Read>(
    r: &mut R,
    nodes: &[Node],
) -> Result<Vec<TreeChange>, CodecError> {
    let count = take_count(r)?;
    let mut changes = Vec::with_capacity(count.min(1 << 16));
    let node_at = |idx: u64| -> Result<Node, CodecError> {
        nodes
            .get(usize::try_from(idx).map_err(|_| corrupt("node index overflow"))?)
            .cloned()
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
        changes.push(TreeChange {
            path,
            before,
            after,
            is_leaf: flags & 0b100 != 0,
        });
    }
    Ok(changes)
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

    /// Two alignments' changes, then the first alignment again (equal content, separate
    /// values).
    fn sample_lists() -> [Vec<TreeChange>; 3] {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'");
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'");
        let c = parse("SELECT costs FROM t WHERE cty = 'CHN'");
        let policy = AncestorPolicy::LcaPruned;
        [
            crate::extract_changes(&a, &b, policy),
            crate::extract_changes(&b, &c, policy),
            crate::extract_changes(&a, &b, policy),
        ]
    }

    #[test]
    fn change_table_round_trips_and_dedups_equal_changes() {
        let lists = sample_lists();
        let mut nodes = NodeTableBuilder::new();
        let mut table = ChangeTableBuilder::new();
        let indices: Vec<Vec<u32>> = lists
            .iter()
            .map(|list| list.iter().map(|c| table.intern(c, &mut nodes)).collect())
            .collect();
        // The repeated alignment folds onto the first one's entries.
        assert_eq!(indices[2], indices[0]);
        assert_eq!(table.len(), lists[0].len() + lists[1].len());

        let mut node_buf = Vec::new();
        nodes.write_to(&mut node_buf).unwrap();
        let mut change_buf = Vec::new();
        table.write_to(&mut change_buf).unwrap();
        let restored_nodes = read_node_table(&mut node_buf.as_slice()).unwrap();
        let restored = read_change_table(&mut change_buf.as_slice(), &restored_nodes).unwrap();
        assert_eq!(restored.len(), table.len());
        for (list, idxs) in lists.iter().zip(&indices) {
            for (change, &idx) in list.iter().zip(idxs) {
                assert_eq!(&restored[idx as usize], change);
            }
        }
    }

    #[test]
    fn corrupt_change_tables_err_cleanly() {
        let lists = sample_lists();
        let mut nodes = NodeTableBuilder::new();
        let mut table = ChangeTableBuilder::new();
        for change in lists.iter().flatten() {
            table.intern(change, &mut nodes);
        }
        let mut node_buf = Vec::new();
        nodes.write_to(&mut node_buf).unwrap();
        let restored_nodes = read_node_table(&mut node_buf.as_slice()).unwrap();
        let mut change_buf = Vec::new();
        table.write_to(&mut change_buf).unwrap();
        // Without the node table every side index dangles.
        assert!(read_change_table(&mut change_buf.as_slice(), &[]).is_err());
        // Truncations fail cleanly at every prefix length.
        for len in 0..change_buf.len() {
            assert!(read_change_table(&mut change_buf[..len].as_ref(), &restored_nodes).is_err());
        }
        // A change with neither side is refused.
        let mut sideless = Vec::new();
        put_varint(&mut sideless, 1).unwrap();
        put_path(&mut sideless, &pi_ast::Path::root()).unwrap();
        put_u8(&mut sideless, 0b100).unwrap();
        assert!(read_change_table(&mut sideless.as_slice(), &restored_nodes).is_err());
    }
}
