//! The change table of a [`DiffStore`](crate::DiffStore): changes as rows of ids over a
//! path table and a member table.
//!
//! A mined log holds many changes but few distinct paths and subtrees: a `mine_distinct`
//! log of 1,024 distinct-shape queries at window 16 aligns 44,054 changes over 43 paths and
//! 1,321 subtrees.  So a change is stored as a [`ChangeRow`] of ids, 16 bytes where a
//! [`TreeChange`] takes 96, and each path and each subtree is stored once.  Both tables
//! fill as changes are written, one lookup per side and per path, so every reader (the
//! widget mapper, the snapshot writer, a record view) maps ids instead of hashing changes.

use crate::record::TreeChange;
use pi_ast::{IntBuildHasher, Node, Path};
use std::hash::BuildHasher;
use std::mem::size_of;

/// The member id of an absent side: an addition has no `before` subtree and a deletion no
/// `after` subtree.
pub const ABSENT: u32 = u32::MAX;

/// One change of a [`DiffStore`](crate::DiffStore)'s change table, as ids: a
/// [`TreeChange`] with its path and sides replaced by their ids in the store's path and
/// member tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeRow {
    /// The path id of the transformed subtree's location.
    pub path: u32,
    /// The member id of the subtree in the source tree; [`ABSENT`] for an addition.
    pub before: u32,
    /// The member id of the subtree in the target tree; [`ABSENT`] for a deletion.
    pub after: u32,
    /// True for a minimal changed subtree (leaf diff) rather than an ancestor record.
    pub is_leaf: bool,
}

/// An index from keys to dense ids, assigned first-come: open addressing with linear
/// probing over a power-of-two array of `(hash, id)` slots kept at most half full.  The
/// caller hashes its keys and keeps them; a probe asks it whether an id whose hash matches
/// holds the key.  Memory is at most four slots per id, whatever the keys are.
#[derive(Debug, Clone, Default)]
struct HashIndex {
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    /// The id whose key hashes to `hash`, or [`EMPTY`].
    id: u32,
}

/// Marks a free [`Slot`].
const EMPTY: u32 = u32::MAX;

/// The slot count a non-empty index starts at, so that small tables do not regrow one
/// slot count at a time.
const MIN_SLOTS: usize = 128;

impl HashIndex {
    const EMPTY: HashIndex = HashIndex {
        slots: Vec::new(),
        len: 0,
    };

    /// The id of the key hashing to `hash` for which `holds` is true, or a new id for it.
    /// The flag is true when the id is new.
    fn find_or_add(&mut self, hash: u64, mut holds: impl FnMut(u32) -> bool) -> (u32, bool) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = home(hash, self.slots.len());
        loop {
            let slot = &mut self.slots[at];
            if slot.id == EMPTY {
                let id = u32::try_from(self.len).expect("fewer than 2^32 entries");
                *slot = Slot { hash, id };
                self.len += 1;
                return (id, true);
            }
            if slot.hash == hash && holds(slot.id) {
                return (slot.id, false);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the slot array and re-places every id.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        let free = Slot { hash: 0, id: EMPTY };
        let old = std::mem::replace(&mut self.slots, vec![free; len]);
        for slot in old.into_iter().filter(|slot| slot.id != EMPTY) {
            let mut at = home(slot.hash, len);
            while self.slots[at].id != EMPTY {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = slot;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
    }
}

/// The slot a probe for `hash` starts at in an array of `len` slots, a power of two: the
/// top bits of a Fibonacci product, so hashes that share their low bits still spread.
fn home(hash: u64, len: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

/// Makes room for one more entry, doubling as a `Vec` does but to at least `min` entries,
/// so that a table that holds anything does not regrow through the smallest sizes.
fn reserve_room<T>(table: &mut Vec<T>, min: usize) {
    if table.len() == table.capacity() {
        table.reserve(table.len().max(min));
    }
}

/// The distinct paths of a change table, numbered first-come.  A path is found by a hash
/// of its steps, so its id costs one probe and never an allocation sized by a step's value
/// or by a declared depth: a path read from an untrusted snapshot costs what its steps do.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathTable {
    paths: Vec<Path>,
    index: HashIndex,
}

impl PathTable {
    /// The id of the path with these steps, added if new.
    pub(crate) fn intern(&mut self, steps: &[usize]) -> u32 {
        let hash = IntBuildHasher::default().hash_one(steps);
        let paths = &mut self.paths;
        let (id, fresh) = self
            .index
            .find_or_add(hash, |id| paths[id as usize].steps() == steps);
        if fresh {
            reserve_room(paths, 16);
            paths.push(Path::from(steps));
        }
        id
    }

    pub(crate) fn get(&self, id: u32) -> &Path {
        &self.paths[id as usize]
    }

    pub(crate) fn all(&self) -> &[Path] {
        &self.paths
    }

    fn heap_bytes(&self) -> usize {
        /// Steps a `Path` holds inline; a deeper path keeps its steps on the heap.
        const INLINE_STEPS: usize = 8;
        let spilled: usize = self
            .paths
            .iter()
            .filter(|path| path.depth() > INLINE_STEPS)
            .map(|path| path.depth() * size_of::<usize>())
            .sum();
        self.paths.capacity() * size_of::<Path>() + spilled + self.index.heap_bytes()
    }
}

/// The distinct subtrees on either side of a change table's rows, one [`Node`] per distinct
/// [`NodeId`](pi_ast::NodeId), numbered first-come.
///
/// Member identity is the `NodeId`, the 64-bit structural hash: two subtrees with equal
/// hashes are one member, and the member keeps the first of them.  That is the tolerance
/// the aligner's `same_tree` short-circuit and the widget mapper already apply to a
/// colliding pair.  The dedup arena's contract of deciding by full equality covers query
/// classes only.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemberTable {
    nodes: Vec<Node>,
    index: HashIndex,
}

impl MemberTable {
    /// The member id of `node`, added if new.
    pub(crate) fn intern(&mut self, node: &Node) -> u32 {
        let (id, fresh) = self.index.find_or_add(node.id().0, |_| true);
        if fresh {
            reserve_room(&mut self.nodes, 64);
            self.nodes.push(node.clone());
        }
        id
    }

    /// The member id of a side, [`ABSENT`] when it is missing.
    fn side(&mut self, node: Option<&Node>) -> u32 {
        node.map_or(ABSENT, |node| self.intern(node))
    }

    pub(crate) fn get(&self, id: u32) -> Option<&Node> {
        (id != ABSENT).then(|| &self.nodes[id as usize])
    }

    pub(crate) fn all(&self) -> &[Node] {
        &self.nodes
    }

    /// The member handles and the index; the subtrees alias the queries they came from,
    /// which the dedup arena accounts for.
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node>() + self.index.heap_bytes()
    }
}

/// The change rows and the two tables their ids index.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChangeTable {
    pub(crate) rows: Vec<ChangeRow>,
    pub(crate) paths: PathTable,
    pub(crate) members: MemberTable,
}

impl ChangeTable {
    /// A table with no rows, which allocates nothing.
    pub(crate) const EMPTY: ChangeTable = ChangeTable {
        rows: Vec::new(),
        paths: PathTable {
            paths: Vec::new(),
            index: HashIndex::EMPTY,
        },
        members: MemberTable {
            nodes: Vec::new(),
            index: HashIndex::EMPTY,
        },
    };

    /// The row of a change at the path with steps `steps`, its path and sides added to the
    /// tables if new; the row is not appended.
    pub(crate) fn row(
        &mut self,
        steps: &[usize],
        before: Option<&Node>,
        after: Option<&Node>,
        is_leaf: bool,
    ) -> ChangeRow {
        ChangeRow {
            path: self.paths.intern(steps),
            before: self.members.side(before),
            after: self.members.side(after),
            is_leaf,
        }
    }

    /// Appends a change at the path with steps `steps`.
    pub(crate) fn push(
        &mut self,
        steps: &[usize],
        before: Option<&Node>,
        after: Option<&Node>,
        is_leaf: bool,
    ) {
        let row = self.row(steps, before, after, is_leaf);
        self.rows.push(row);
    }

    /// Appends a change value.
    pub(crate) fn push_change(&mut self, change: &TreeChange) {
        let TreeChange {
            path,
            before,
            after,
            is_leaf,
        } = change;
        self.push(path.steps(), before.as_ref(), after.as_ref(), *is_leaf);
    }

    /// The change a row stands for, as a value.
    pub(crate) fn change(&self, row: ChangeRow) -> TreeChange {
        TreeChange {
            path: self.paths.get(row.path).clone(),
            before: self.members.get(row.before).cloned(),
            after: self.members.get(row.after).cloned(),
            is_leaf: row.is_leaf,
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<ChangeRow>()
            + self.paths.heap_bytes()
            + self.members.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_first_come_and_found_again_across_growth() {
        let mut paths = PathTable::default();
        let steps: Vec<Vec<usize>> = (0..200)
            .map(|k| (0..k % 11).map(|d| (k + d) % 7).collect())
            .collect();
        let mut ids = Vec::new();
        for path in &steps {
            ids.push(paths.intern(path));
        }
        for (path, &id) in steps.iter().zip(&ids) {
            assert_eq!(paths.intern(path), id);
            assert_eq!(paths.get(id).steps(), &path[..]);
        }
        // Equal steps share an id, and ids are dense in first-seen order.
        let mut distinct: Vec<&Vec<usize>> = Vec::new();
        for path in &steps {
            if !distinct.contains(&path) {
                distinct.push(path);
            }
        }
        assert_eq!(paths.all().len(), distinct.len());
        for (id, path) in distinct.iter().enumerate() {
            assert_eq!(paths.get(id as u32).steps(), &path[..]);
        }
    }

    #[test]
    fn members_are_one_per_node_id() {
        let mut members = MemberTable::default();
        let nodes: Vec<Node> = (0..100).map(|k| Node::int(k % 40)).collect();
        let ids: Vec<u32> = nodes.iter().map(|n| members.intern(n)).collect();
        assert_eq!(members.all().len(), 40);
        for (node, &id) in nodes.iter().zip(&ids) {
            assert_eq!(members.get(id), Some(node));
        }
        assert_eq!(members.get(ABSENT), None);
    }
}
