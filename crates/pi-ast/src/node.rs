//! The AST node type and tree manipulation primitives.
//!
//! Every query in the log is one [`Node`] tree.  Nodes follow the model of paper §4.1: a node
//! consists of its kind, a set of attribute/value pairs, and an ordered list of children.
//! Interactions are implemented by *replacing* the subtree at a widget's path with a subtree
//! from the widget's domain ([`Node::replaced`]), which is exactly the `d(q) = q'` semantics
//! of Example 4.2.
//!
//! Two representation choices make the mining pipeline fast:
//!
//! * every node carries a **memoized structural hash**, maintained bottom-up by the
//!   constructors and the path-based mutators, so [`Node::structural_hash`] and [`Node::id`]
//!   are O(1) — pairwise tree alignment (the dominant cost in the paper's Figures 11/12)
//!   compares subtrees by cached hash instead of deep traversal;
//! * attribute names are **interned** ([`Sym`]), so the per-node key storage is a copyable
//!   handle carrying its precomputed hash, and a key mismatch is one integer compare.
//!
//! # One constructor
//!
//! Every tree is built bottom-up through [`Node::from_parts`]: kind, attributes and the
//! already-built children in one call, so each node is allocated once and hashed once.  The
//! parsers, the convenience constructors ([`Node::column`], [`Node::int`], …) and the
//! snapshot node-table reader all build through it.  A node with at most one attribute stores it inline; only longer lists take a shared
//! allocation of their own.
//!
//! The mutators exist for copy-on-write edits of built trees.  To keep the memo sound, all
//! mutation goes through methods that restore the hash invariant ([`Node::set_attr`],
//! [`Node::push_child`], [`Node::replace_at`], [`Node::insert_at`], [`Node::remove_at`]);
//! there is deliberately no public `&mut` access to the child list.
//!
//! # Copy-on-write subtrees
//!
//! A [`Node`] is a cheap handle (`Arc` around the payload), so [`Node::clone`] is O(1) — a
//! single refcount bump — and clones *alias* the whole subtree.  The path mutators un-share
//! lazily with [`Arc::make_mut`]: a mutation at `path` copies only the payloads on the
//! root→`path` spine (O(depth·branching)); every subtree hanging off the spine keeps
//! pointing at the storage it already shared with the pre-mutation tree.  [`Node::replaced`]
//! / [`Node::inserted`] / [`Node::removed`] therefore cost the spine, not the tree — the
//! persistent-tree sharing that keeps per-edit cost proportional to the edit path.  Sharing
//! is never observable through `&self` methods; [`Node::ptr_eq`] exists so tests can assert
//! the aliasing contract.

use crate::intern::{str_hash64, Sym};
use crate::kind::{NodeKind, PrimitiveType};
use crate::path::Path;
use crate::value::AttrValue;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A stable identity for a subtree, derived from its structural hash.
///
/// Two subtrees have equal [`NodeId`]s iff they are structurally identical (same kinds,
/// attributes and child order).  Used for cheap deduplication of widget domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:016x}", self.0)
    }
}

/// Error returned when a path-based mutation cannot be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplaceError {
    /// The path does not designate an existing node (and is not a valid append location).
    PathNotFound {
        /// The offending path.
        path: Path,
    },
    /// Removal of the root node was requested, which would leave no tree.
    CannotRemoveRoot,
}

impl fmt::Display for ReplaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplaceError::PathNotFound { path } => write!(f, "path {path} not found in tree"),
            ReplaceError::CannotRemoveRoot => write!(f, "cannot remove the root node"),
        }
    }
}

impl std::error::Error for ReplaceError {}

/// A node of a query abstract syntax tree.
///
/// `Node` is a cheap handle: the node payload (kind, attributes, children) lives behind a
/// single [`Arc`], so [`Node::clone`] is one refcount bump and clones *alias* the whole
/// subtree.  The mutators un-share copy-on-write (see the crate docs on the sharing
/// contract): a path mutation copies only the `NodeInner`s on the root→path spine, and a
/// sibling hanging off the spine is carried over by bumping its handle — never by walking it.
#[derive(Debug, Clone)]
pub struct Node(Arc<NodeInner>);

/// The payload of one node.  Children are stored inline (`Vec<Node>` is a vector of
/// handles), so un-sharing one tree level is a single allocation plus one refcount bump per
/// child; attribute values are interned handles, so copying the attribute list never
/// copies string bytes.
#[derive(Debug)]
struct NodeInner {
    kind: NodeKind,
    attrs: Attrs,
    children: Vec<Node>,
    /// Memoized hash of the node *label* (kind + attributes), the prefix state of `hash`.
    /// Lets a child-list change refresh `hash` without re-hashing attribute strings — the
    /// spine refresh done by every COW path mutation touches only cached `u64`s.
    label_hash: u64,
    /// Memoized structural hash of the subtree rooted here; maintained by every mutator.
    hash: u64,
}

impl Clone for NodeInner {
    /// The un-sharing copy behind [`Arc::make_mut`]: attribute list and children are carried
    /// over by refcount bumps (O(arity)), never by deep traversal.
    fn clone(&self) -> Self {
        NodeInner {
            kind: self.kind.clone(),
            attrs: self.attrs.clone(),
            children: self.children.clone(),
            label_hash: self.label_hash,
            hash: self.hash,
        }
    }
}

impl NodeInner {
    /// Restores the hash invariant after a change to the direct children.  Children must
    /// already satisfy the invariant; `label_hash` must be current (only `set_attr` changes
    /// the label).
    fn refresh_hash(&mut self) {
        self.hash = children_hash(self.label_hash, &self.children);
    }

    /// Restores both memos after a label (attribute) change.
    fn refresh_label_and_hash(&mut self) {
        self.label_hash = label_hash_of(&self.kind, self.attrs.as_slice());
        self.refresh_hash();
    }
}

/// A node's attribute list.  Most attributed nodes carry exactly one pair (a column's
/// `name`, a literal's `value`, an operator's `op`), which is stored inline; an empty list
/// allocates nothing, and only longer lists take a shared allocation.
#[derive(Debug, Clone)]
enum Attrs {
    Empty,
    One((Sym, AttrValue)),
    Many(Arc<[(Sym, AttrValue)]>),
}

impl Attrs {
    fn from_slice(attrs: &[(Sym, AttrValue)]) -> Attrs {
        match attrs {
            [] => Attrs::Empty,
            [one] => Attrs::One(one.clone()),
            many => Attrs::Many(many.into()),
        }
    }

    fn as_slice(&self) -> &[(Sym, AttrValue)] {
        match self {
            Attrs::Empty => &[],
            Attrs::One(pair) => std::slice::from_ref(pair),
            Attrs::Many(list) => list,
        }
    }
}

// ---------------------------------------------------------------------- hashing internals

/// FNV-1a accumulator used to hash node kinds and attribute values deterministically
/// (no per-process random state, unlike `DefaultHasher` keys obtained via `RandomState`).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// One splitmix64-style mixing step; order-sensitive, so sibling order matters.
fn mix(acc: u64, v: u64) -> u64 {
    let mut x = acc
        .rotate_left(5)
        .wrapping_add(v)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

/// Domain separator baked in at compile time (str_hash64 is `const`).
const NODE_HASH_SEED: u64 = str_hash64("pi-ast.node");

/// Hashes a node's label (kind + attributes); the accumulator state that [`children_hash`]
/// continues from.  Memoized per node as `Node::label_hash` and recomputed only when the kind
/// or attributes change.
fn label_hash_of(kind: &NodeKind, attrs: &[(Sym, AttrValue)]) -> u64 {
    let mut h = mix(NODE_HASH_SEED, hash_of(kind));
    h = mix(h, attrs.len() as u64);
    for (key, value) in attrs {
        h = mix(h, key.hash64());
        h = mix(h, hash_of(value));
    }
    h
}

/// Extends a label hash with the children's *cached* subtree hashes — O(arity) `u64` mixes,
/// no string hashing and no subtree traversal.
fn children_hash(label_hash: u64, children: &[Node]) -> u64 {
    let mut h = mix(label_hash, children.len() as u64);
    for child in children {
        h = mix(h, child.0.hash);
    }
    h
}

impl Node {
    /// Builds a node from its kind, its attribute pairs and its already-built children:
    /// one allocation for the node (none for an empty or one-pair attribute list), and the
    /// label and structural hashes computed once.  The children are moved in.
    ///
    /// Attribute keys must be distinct; pairs keep the given order, which is part of the
    /// node's identity.
    pub fn from_parts(kind: NodeKind, attrs: &[(Sym, AttrValue)], children: Vec<Node>) -> Self {
        debug_assert!(
            attrs
                .iter()
                .enumerate()
                .all(|(i, (key, _))| attrs[..i].iter().all(|(k, _)| k != key)),
            "duplicate attribute key in {attrs:?}"
        );
        let attrs = Attrs::from_slice(attrs);
        let label_hash = label_hash_of(&kind, attrs.as_slice());
        let hash = children_hash(label_hash, &children);
        Node(Arc::new(NodeInner {
            kind,
            attrs,
            children,
            label_hash,
            hash,
        }))
    }

    /// Creates a node of the given kind with no attributes and no children.
    pub fn new(kind: NodeKind) -> Self {
        Node::from_parts(kind, &[], Vec::new())
    }

    /// A childless node with one attribute.
    fn leaf(kind: NodeKind, key: Sym, value: AttrValue) -> Self {
        Node::from_parts(kind, &[(key, value)], Vec::new())
    }

    /// Exclusive access to the payload, un-sharing it copy-on-write if aliased.  The copy is
    /// shallow — children are carried over by refcount bumps — which is what bounds path
    /// mutation to the root→path spine.  Callers must restore the hash invariant afterwards
    /// (`refresh_hash` / `refresh_label_and_hash` on the returned payload).
    fn inner_mut(&mut self) -> &mut NodeInner {
        Arc::make_mut(&mut self.0)
    }

    // ------------------------------------------------------------------ constructors

    /// A column reference node.
    pub fn column(name: &str) -> Self {
        Node::leaf(NodeKind::ColExpr, Sym::NAME, name.into())
    }

    /// A column reference qualified by a table name (`t.col`).
    pub fn qualified_column(table: &str, name: &str) -> Self {
        Node::from_parts(
            NodeKind::ColExpr,
            &[(Sym::NAME, name.into()), (Sym::TABLE, table.into())],
            Vec::new(),
        )
    }

    /// A string literal node.
    pub fn string(value: &str) -> Self {
        Node::leaf(NodeKind::StrExpr, Sym::VALUE, value.into())
    }

    /// An integer literal node.
    pub fn int(value: i64) -> Self {
        Node::leaf(NodeKind::NumExpr, Sym::VALUE, AttrValue::Int(value))
    }

    /// A floating point literal node.
    pub fn float(value: f64) -> Self {
        Node::leaf(NodeKind::NumExpr, Sym::VALUE, AttrValue::Float(value))
    }

    /// A hexadecimal literal node (`0x400`), as found throughout the SDSS log.
    pub fn hex(value: i64) -> Self {
        Node::leaf(NodeKind::HexExpr, Sym::VALUE, AttrValue::Int(value))
    }

    /// A base table reference.
    pub fn table(name: &str) -> Self {
        Node::leaf(NodeKind::TableRef, Sym::NAME, name.into())
    }

    /// The `*` projection.
    pub fn star() -> Self {
        Node::new(NodeKind::Star)
    }

    // ------------------------------------------------------------------ builder-style setters

    /// Adds an attribute (builder style).
    pub fn with_attr<V: Into<AttrValue>>(mut self, key: &str, value: V) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Adds a child (builder style).
    pub fn with_child(mut self, child: Node) -> Self {
        self.push_child(child);
        self
    }

    /// Adds several children (builder style).
    pub fn with_children<I: IntoIterator<Item = Node>>(mut self, children: I) -> Self {
        let inner = self.inner_mut();
        inner.children.extend(children);
        inner.refresh_hash();
        self
    }

    /// Sets (or overwrites) an attribute.
    pub fn set_attr<V: Into<AttrValue>>(&mut self, key: &str, value: V) {
        let key = Sym::intern(key);
        let value = value.into();
        let inner = self.inner_mut();
        let mut attrs = inner.attrs.as_slice().to_vec();
        if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            attrs.push((key, value));
        }
        inner.attrs = Attrs::from_slice(&attrs);
        inner.refresh_label_and_hash();
    }

    /// Appends a child.
    pub fn push_child(&mut self, child: Node) {
        let inner = self.inner_mut();
        inner.children.push(child);
        inner.refresh_hash();
    }

    // ------------------------------------------------------------------ accessors

    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.0.kind.clone()
    }

    /// A reference to the node kind (no clone).
    pub fn kind_ref(&self) -> &NodeKind {
        &self.0.kind
    }

    /// The attribute/value pairs, in insertion order, with interned keys.
    pub fn attrs(&self) -> &[(Sym, AttrValue)] {
        self.0.attrs.as_slice()
    }

    /// Looks up an attribute value by key (a scan of the node's few keys; no interning).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs()
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, v)| v)
    }

    /// Looks up a string attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(AttrValue::as_str)
    }

    /// Looks up a numeric attribute by key (ints are widened to `f64`).
    pub fn attr_num(&self, key: &str) -> Option<f64> {
        self.attr(key).and_then(AttrValue::as_num)
    }

    /// The ordered children.
    pub fn children(&self) -> &[Node] {
        &self.0.children
    }

    /// Number of direct children.
    pub fn arity(&self) -> usize {
        self.0.children.len()
    }

    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.0.children.is_empty()
    }

    // ------------------------------------------------------------------ tree metrics

    /// Total number of nodes in the subtree rooted here.
    pub fn size(&self) -> usize {
        1 + self.0.children.iter().map(Node::size).sum::<usize>()
    }

    /// Height of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.0.children.iter().map(Node::depth).max().unwrap_or(0)
    }

    /// Number of leaves in the subtree.
    pub fn leaf_count(&self) -> usize {
        if self.0.children.is_empty() {
            1
        } else {
            self.0.children.iter().map(Node::leaf_count).sum()
        }
    }

    // ------------------------------------------------------------------ identity & typing

    /// Structural hash of the subtree; equal trees hash equally.
    ///
    /// O(1): the hash is memoized at construction and maintained by every mutator.
    #[inline]
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// The structural identity of the subtree (O(1), backed by the memoized hash).
    #[inline]
    pub fn id(&self) -> NodeId {
        NodeId(self.0.hash)
    }

    /// True when `self` and `other` are the same physical subtree (`Arc::ptr_eq` on the
    /// shared payload).
    ///
    /// Structural equality does *not* imply sharing; this is a physical-aliasing probe used
    /// by tests to verify the copy-on-write contract — after [`Node::replaced`], every
    /// subtree off the root→path spine must still share storage with the original tree.
    pub fn ptr_eq(&self, other: &Node) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True when two subtrees are structurally identical, decided by the memoized hash alone.
    ///
    /// This is the O(1) comparison the aligner uses to skip equal subtrees; a 64-bit
    /// collision would merge two distinct subtrees, which the paper's purely syntactic
    /// pipeline tolerates (the same assumption underlies its hash-anchored LCS).
    #[inline]
    pub fn same_tree(&self, other: &Node) -> bool {
        self.0.hash == other.0.hash
    }

    /// Recomputes the structural hash from scratch, ignoring the memo (O(subtree)).
    ///
    /// Exists so tests and debug assertions can validate the memo invariant; production code
    /// should always use [`Node::structural_hash`].
    pub fn recomputed_hash(&self) -> u64 {
        let attrs = self.attrs();
        let mut h = mix(NODE_HASH_SEED, hash_of(&self.0.kind));
        h = mix(h, attrs.len() as u64);
        for (key, value) in attrs {
            h = mix(h, key.hash64());
            h = mix(h, hash_of(value));
        }
        h = mix(h, self.0.children.len() as u64);
        for child in self.0.children.iter() {
            h = mix(h, child.recomputed_hash());
        }
        h
    }

    /// True when two nodes agree on kind and attributes (children are ignored).
    pub fn same_label(&self, other: &Node) -> bool {
        self.0.kind == other.0.kind && self.attrs() == other.attrs()
    }

    /// The primitive type of this subtree as seen by widget rules.
    ///
    /// Terminal literal kinds use the grammar annotation; anything with children, or any
    /// non-annotated kind, is a `tree`.
    pub fn primitive_type(&self) -> PrimitiveType {
        if self.0.children.is_empty() {
            self.0.kind.terminal_type().unwrap_or(PrimitiveType::Tree)
        } else {
            PrimitiveType::Tree
        }
    }

    /// For numeric terminals, the numeric value (used for slider range extrapolation).
    pub fn numeric_value(&self) -> Option<f64> {
        if self.primitive_type() == PrimitiveType::Num {
            self.attr_num("value")
        } else {
            None
        }
    }

    /// A short human-readable label for this subtree, used in widget option lists.
    pub fn label(&self) -> String {
        match &self.0.kind {
            NodeKind::ColExpr => {
                let name = self.attr_str("name").unwrap_or("?");
                match self.attr_str("table") {
                    Some(t) => format!("{t}.{name}"),
                    None => name.to_string(),
                }
            }
            NodeKind::StrExpr | NodeKind::BoolExpr => {
                self.attr_str("value").unwrap_or("?").to_string()
            }
            NodeKind::NumExpr => self
                .attr("value")
                .map(|v| v.render())
                .unwrap_or_else(|| "?".into()),
            NodeKind::HexExpr => self
                .attr("value")
                .and_then(AttrValue::as_int)
                .map(|v| format!("0x{v:x}"))
                .unwrap_or_else(|| "?".into()),
            NodeKind::TableRef => self.attr_str("name").unwrap_or("?").to_string(),
            NodeKind::Star => "*".to_string(),
            NodeKind::Null => "NULL".to_string(),
            NodeKind::FuncName => self.attr_str("name").unwrap_or("?").to_string(),
            NodeKind::FuncCall | NodeKind::AggCall => {
                let name = self
                    .children()
                    .first()
                    .filter(|c| c.0.kind == NodeKind::FuncName)
                    .and_then(|c| c.attr_str("name"))
                    .or_else(|| self.attr_str("name"))
                    .unwrap_or("?");
                format!("{name}(…)")
            }
            other => format!("{}[{}]", other.name(), self.size()),
        }
    }

    // ------------------------------------------------------------------ navigation & mutation

    /// The subtree at `path`, if it exists.
    pub fn get(&self, path: &Path) -> Option<&Node> {
        let mut cur = self;
        for &step in path.steps() {
            cur = cur.0.children.get(step)?;
        }
        Some(cur)
    }

    /// Replaces the subtree at `path` with `subtree`, in place.
    ///
    /// If `path` designates a position exactly one past the end of an existing node's child
    /// list, the subtree is *appended* there; this is how additions (diffs whose "before" side
    /// is null) are applied.
    pub fn replace_at(&mut self, path: &Path, subtree: Node) -> Result<(), ReplaceError> {
        self.replace_steps(path.steps(), subtree)
            .map_err(|_| ReplaceError::PathNotFound { path: path.clone() })
    }

    fn replace_steps(&mut self, steps: &[usize], subtree: Node) -> Result<(), ()> {
        match steps {
            [] => {
                *self = subtree;
                Ok(())
            }
            [idx, rest @ ..] => {
                // Validate the index before un-sharing this level: an out-of-bounds step
                // must not copy the payload.  (A failure deeper down may still have
                // un-shared the levels above it — harmless, since contents are unchanged.)
                let arity = self.0.children.len();
                if rest.is_empty() && *idx == arity {
                    let inner = self.inner_mut();
                    inner.children.push(subtree);
                    inner.refresh_hash();
                } else if *idx < arity {
                    let inner = self.inner_mut();
                    inner.children[*idx].replace_steps(rest, subtree)?;
                    inner.refresh_hash();
                } else {
                    return Err(());
                }
                Ok(())
            }
        }
    }

    /// Returns a copy of this tree with the subtree at `path` replaced by `subtree`.
    ///
    /// O(depth·branching), not O(tree): the clone is a refcount bump and `replace_at`
    /// un-shares only the root→`path` spine; every untouched subtree is physically shared
    /// between `self` and the result (see [`Node::ptr_eq`]).
    pub fn replaced(&self, path: &Path, subtree: Node) -> Result<Node, ReplaceError> {
        let mut out = self.clone();
        out.replace_at(path, subtree)?;
        Ok(out)
    }

    /// Inserts `subtree` so that it ends up *at* `path`, shifting later siblings right.
    /// A path pointing one slot past the end of the parent's child list appends.
    pub fn insert_at(&mut self, path: &Path, subtree: Node) -> Result<(), ReplaceError> {
        let Some(parent_path) = path.parent() else {
            // Inserting at the root is a whole-tree replacement.
            *self = subtree;
            return Ok(());
        };
        let idx = path.last().expect("non-root path has a last step");
        self.insert_steps(parent_path.steps(), idx, subtree)
            .map_err(|_| ReplaceError::PathNotFound { path: path.clone() })
    }

    fn insert_steps(&mut self, steps: &[usize], idx: usize, subtree: Node) -> Result<(), ()> {
        match steps {
            [] => {
                if idx > self.0.children.len() {
                    return Err(());
                }
                let inner = self.inner_mut();
                inner.children.insert(idx, subtree);
                inner.refresh_hash();
                Ok(())
            }
            [step, rest @ ..] => {
                if *step >= self.0.children.len() {
                    return Err(());
                }
                let inner = self.inner_mut();
                inner.children[*step].insert_steps(rest, idx, subtree)?;
                inner.refresh_hash();
                Ok(())
            }
        }
    }

    /// Returns a copy of this tree with `subtree` inserted at `path`.
    ///
    /// Like [`Node::replaced`], copies only the root→`path` spine.
    pub fn inserted(&self, path: &Path, subtree: Node) -> Result<Node, ReplaceError> {
        let mut out = self.clone();
        out.insert_at(path, subtree)?;
        Ok(out)
    }

    /// Removes the subtree at `path`, shifting later siblings left.  Used to apply deletions
    /// (diffs whose "after" side is null).
    pub fn remove_at(&mut self, path: &Path) -> Result<Node, ReplaceError> {
        if path.is_root() {
            return Err(ReplaceError::CannotRemoveRoot);
        }
        self.remove_steps(path.steps())
            .map_err(|_| ReplaceError::PathNotFound { path: path.clone() })
    }

    fn remove_steps(&mut self, steps: &[usize]) -> Result<Node, ()> {
        match steps {
            [] => unreachable!("remove_at rejects the root path"),
            [idx] => {
                if *idx >= self.0.children.len() {
                    return Err(());
                }
                let inner = self.inner_mut();
                let removed = inner.children.remove(*idx);
                inner.refresh_hash();
                Ok(removed)
            }
            [step, rest @ ..] => {
                if *step >= self.0.children.len() {
                    return Err(());
                }
                let inner = self.inner_mut();
                let removed = inner.children[*step].remove_steps(rest)?;
                inner.refresh_hash();
                Ok(removed)
            }
        }
    }

    /// Returns a copy of this tree with the subtree at `path` removed.
    ///
    /// Like [`Node::replaced`], copies only the root→`path` spine.
    pub fn removed(&self, path: &Path) -> Result<Node, ReplaceError> {
        let mut out = self.clone();
        out.remove_at(path)?;
        Ok(out)
    }

    // ------------------------------------------------------------------ traversal

    /// Pre-order traversal of `(path, node)` pairs, root first.
    pub fn preorder(&self) -> Vec<(Path, &Node)> {
        let mut out = Vec::with_capacity(self.size());
        self.preorder_into(Path::root(), &mut out);
        out
    }

    fn preorder_into<'a>(&'a self, path: Path, out: &mut Vec<(Path, &'a Node)>) {
        out.push((path.clone(), self));
        for (i, child) in self.0.children.iter().enumerate() {
            child.preorder_into(path.child(i), out);
        }
    }

    /// Iterates over every node in the subtree (pre-order) without materialising paths.
    pub fn visit<F: FnMut(&Node)>(&self, f: &mut F) {
        f(self);
        for child in self.0.children.iter() {
            child.visit(f);
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        // COW-aliased subtrees short-circuit on pointer identity; the memoized hash then
        // filters out almost all unequal pairs in O(1); the structural compare below keeps
        // `Eq` sound in the (vanishingly unlikely) event of a collision.
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash
                && self.0.kind == other.0.kind
                && self.attrs() == other.attrs()
                && self.0.children == other.0.children)
    }
}

impl Eq for Node {}

impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.kind.name())?;
        if !self.attrs().is_empty() {
            write!(f, "(")?;
            for (i, (k, v)) in self.attrs().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Node {
        // SELECT sales, costs FROM t WHERE cty = 'USA'
        Node::new(NodeKind::Select)
            .with_child(
                Node::new(NodeKind::Project)
                    .with_child(Node::new(NodeKind::ProjClause).with_child(Node::column("sales")))
                    .with_child(Node::new(NodeKind::ProjClause).with_child(Node::column("costs"))),
            )
            .with_child(Node::new(NodeKind::From).with_child(Node::table("t")))
            .with_child(
                Node::new(NodeKind::Where).with_child(
                    Node::new(NodeKind::BiExpr)
                        .with_attr("op", "=")
                        .with_child(Node::column("cty"))
                        .with_child(Node::string("USA")),
                ),
            )
    }

    #[test]
    fn constructors_set_expected_attrs() {
        assert_eq!(Node::column("a").attr_str("name"), Some("a"));
        assert_eq!(Node::string("x").attr_str("value"), Some("x"));
        assert_eq!(Node::int(5).attr_num("value"), Some(5.0));
        assert_eq!(
            Node::hex(0x400).attr("value").unwrap().as_int(),
            Some(0x400)
        );
        assert_eq!(Node::table("t").attr_str("name"), Some("t"));
    }

    #[test]
    fn get_follows_paths_like_the_paper() {
        let t = sample_tree();
        // 0/1/0 is the second projection clause's column (paper Table 1, d1).
        let p: Path = "0/1/0".parse().unwrap();
        let n = t.get(&p).unwrap();
        assert_eq!(n.kind(), NodeKind::ColExpr);
        assert_eq!(n.attr_str("name"), Some("costs"));
        // 2/0/1 is the string literal in the predicate (paper Table 1, d2 uses 2/0/0/1 with an
        // extra level; our WHERE has one fewer wrapper).
        let p2: Path = "2/0/1".parse().unwrap();
        assert_eq!(t.get(&p2).unwrap().attr_str("value"), Some("USA"));
        assert!(t.get(&"9/9".parse().unwrap()).is_none());
    }

    #[test]
    fn replace_at_swaps_subtrees() {
        let t = sample_tree();
        let p: Path = "2/0/1".parse().unwrap();
        let t2 = t.replaced(&p, Node::string("EUR")).unwrap();
        assert_eq!(t2.get(&p).unwrap().attr_str("value"), Some("EUR"));
        // original untouched
        assert_eq!(t.get(&p).unwrap().attr_str("value"), Some("USA"));
        // replacing the root swaps the whole query
        let swapped = t.replaced(&Path::root(), Node::star()).unwrap();
        assert_eq!(swapped.kind(), NodeKind::Star);
    }

    #[test]
    fn replace_at_appends_when_index_is_one_past_end() {
        let mut t = sample_tree();
        // Append a GROUP BY clause as the 4th child of the root.
        let p: Path = "3".parse().unwrap();
        t.replace_at(&p, Node::new(NodeKind::GroupBy)).unwrap();
        assert_eq!(t.arity(), 4);
        // Far past the end is an error.
        let err = t.replace_at(&"9".parse().unwrap(), Node::star());
        assert!(err.is_err());
    }

    #[test]
    fn remove_at_deletes_and_shifts() {
        let mut t = sample_tree();
        let removed = t.remove_at(&"0/0".parse().unwrap()).unwrap();
        assert_eq!(removed.kind(), NodeKind::ProjClause);
        // The remaining projection clause shifted into slot 0.
        assert_eq!(
            t.get(&"0/0/0".parse().unwrap()).unwrap().attr_str("name"),
            Some("costs")
        );
        assert!(t.remove_at(&Path::root()).is_err());
        assert!(t.remove_at(&"0/7".parse().unwrap()).is_err());
    }

    #[test]
    fn insert_at_shifts_right_and_appends() {
        let mut t = sample_tree();
        t.insert_at(
            &"0/1".parse().unwrap(),
            Node::new(NodeKind::ProjClause).with_child(Node::column("day")),
        )
        .unwrap();
        assert_eq!(t.get(&"0".parse().unwrap()).unwrap().arity(), 3);
        assert_eq!(
            t.get(&"0/1/0".parse().unwrap()).unwrap().attr_str("name"),
            Some("day")
        );
        assert_eq!(
            t.get(&"0/2/0".parse().unwrap()).unwrap().attr_str("name"),
            Some("costs")
        );
        assert_eq!(t.structural_hash(), t.recomputed_hash());
        // Appending one past the end works; beyond is an error.
        assert!(t.insert_at(&"3".parse().unwrap(), Node::star()).is_ok());
        assert!(t.insert_at(&"9".parse().unwrap(), Node::star()).is_err());
        // An inserted() copy leaves the original alone.
        let t2 = t.inserted(&"0/0".parse().unwrap(), Node::star()).unwrap();
        assert_eq!(t2.get(&"0".parse().unwrap()).unwrap().arity(), 4);
        assert_eq!(t.get(&"0".parse().unwrap()).unwrap().arity(), 3);
    }

    #[test]
    fn metrics_and_traversal_agree() {
        let t = sample_tree();
        let pre = t.preorder();
        assert_eq!(pre.len(), t.size());
        assert_eq!(pre[0].0, Path::root());
        // Each (path, node) pair is consistent with get().
        for (p, n) in &pre {
            assert!(std::ptr::eq(t.get(p).unwrap(), *n));
        }
        assert!(t.depth() >= 4);
        assert!(t.leaf_count() >= 4);
    }

    #[test]
    fn structural_hash_tracks_equality() {
        let a = sample_tree();
        let b = sample_tree();
        assert_eq!(a, b);
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert_eq!(a.id(), b.id());
        assert!(a.same_tree(&b));
        let c = a
            .replaced(&"2/0/1".parse().unwrap(), Node::string("EUR"))
            .unwrap();
        assert_ne!(a, c);
        assert_ne!(a.structural_hash(), c.structural_hash());
        assert!(!a.same_tree(&c));
    }

    #[test]
    fn memoized_hash_survives_every_mutator() {
        // The memo must equal a from-scratch recompute after arbitrary mutation sequences.
        let mut t = sample_tree();
        assert_eq!(t.structural_hash(), t.recomputed_hash());

        t.replace_at(&"2/0/1".parse().unwrap(), Node::string("EUR"))
            .unwrap();
        assert_eq!(t.structural_hash(), t.recomputed_hash());

        t.remove_at(&"0/0".parse().unwrap()).unwrap();
        assert_eq!(t.structural_hash(), t.recomputed_hash());

        t.insert_at(&"0/0".parse().unwrap(), Node::new(NodeKind::ProjClause))
            .unwrap();
        assert_eq!(t.structural_hash(), t.recomputed_hash());

        t.set_attr("distinct", true);
        assert_eq!(t.structural_hash(), t.recomputed_hash());

        t.push_child(Node::new(NodeKind::Limit).with_child(Node::int(5)));
        assert_eq!(t.structural_hash(), t.recomputed_hash());

        // Mutated copies and their sources both stay consistent.
        let copy = t
            .replaced(&"1/0".parse().unwrap(), Node::table("u"))
            .unwrap();
        assert_eq!(copy.structural_hash(), copy.recomputed_hash());
        assert_eq!(t.structural_hash(), t.recomputed_hash());
    }

    #[test]
    fn replaced_shares_untouched_subtrees_with_the_original() {
        let t = sample_tree();
        let t2 = t
            .replaced(&"2/0/1".parse().unwrap(), Node::string("EUR"))
            .unwrap();
        // Subtrees off the root→path spine are the same physical allocation.
        for path in ["0", "1", "0/0", "0/1", "2/0/0"] {
            let p: Path = path.parse().unwrap();
            assert!(
                t.get(&p).unwrap().ptr_eq(t2.get(&p).unwrap()),
                "subtree at {path} must be shared"
            );
        }
        // Spine nodes (root, 2, 2/0) are copies, and the replaced leaf differs.
        assert!(!t.ptr_eq(&t2));
        for path in ["2", "2/0", "2/0/1"] {
            let p: Path = path.parse().unwrap();
            assert!(!t.get(&p).unwrap().ptr_eq(t2.get(&p).unwrap()));
        }
        // Same sharing discipline for inserted() and removed().
        let t3 = t.inserted(&"0/1".parse().unwrap(), Node::star()).unwrap();
        assert!(t
            .get(&"1".parse().unwrap())
            .unwrap()
            .ptr_eq(t3.get(&"1".parse().unwrap()).unwrap()));
        assert!(t
            .get(&"0/0".parse().unwrap())
            .unwrap()
            .ptr_eq(t3.get(&"0/0".parse().unwrap()).unwrap()));
        let t4 = t.removed(&"0/0".parse().unwrap()).unwrap();
        assert!(t
            .get(&"2".parse().unwrap())
            .unwrap()
            .ptr_eq(t4.get(&"2".parse().unwrap()).unwrap()));
        // The removed subtree itself is handed back still sharing the original's storage.
        let cut = t.clone().remove_at(&"0/0".parse().unwrap()).unwrap();
        assert!(cut.ptr_eq(t.get(&"0/0".parse().unwrap()).unwrap()));
    }

    #[test]
    fn mutating_a_cow_copy_never_changes_the_original() {
        let t = sample_tree();
        let pristine_render = crate::pretty(&t).to_string();
        let pristine_hash = t.structural_hash();

        let mut copy = t
            .replaced(&"2/0/1".parse().unwrap(), Node::string("EUR"))
            .unwrap();
        // Pile further mutations onto the aliased copy through every mutator.
        copy.replace_at(&"0/0/0".parse().unwrap(), Node::column("zzz"))
            .unwrap();
        copy.set_attr("distinct", true);
        copy.push_child(Node::new(NodeKind::Limit).with_child(Node::int(5)));
        copy.insert_at(&"0/0".parse().unwrap(), Node::new(NodeKind::ProjClause))
            .unwrap();
        copy.remove_at(&"1/0".parse().unwrap()).unwrap();

        // The original is bit-for-bit what it was, and both memos are still sound.
        assert_eq!(crate::pretty(&t).to_string(), pristine_render);
        assert_eq!(t.structural_hash(), pristine_hash);
        assert_eq!(t.structural_hash(), t.recomputed_hash());
        assert_eq!(copy.structural_hash(), copy.recomputed_hash());
    }

    #[test]
    fn clones_are_aliases_until_mutated() {
        let t = sample_tree();
        let c = t.clone();
        assert!(t.ptr_eq(&c));
        let mut m = t.clone();
        m.set_attr("distinct", true);
        assert!(!t.ptr_eq(&m));
        // Un-sharing the root does not un-share the children.
        assert!(t.children()[0].ptr_eq(&m.children()[0]));
    }

    #[test]
    fn primitive_types_follow_annotations() {
        assert_eq!(Node::string("x").primitive_type(), PrimitiveType::Str);
        assert_eq!(Node::int(5).primitive_type(), PrimitiveType::Num);
        assert_eq!(Node::hex(16).primitive_type(), PrimitiveType::Num);
        assert_eq!(Node::column("c").primitive_type(), PrimitiveType::Str);
        assert_eq!(sample_tree().primitive_type(), PrimitiveType::Tree);
        // A column expression *with* children would be a tree.
        let weird = Node::column("c").with_child(Node::int(1));
        assert_eq!(weird.primitive_type(), PrimitiveType::Tree);
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(Node::column("a").label(), "a");
        assert_eq!(Node::qualified_column("g", "objID").label(), "g.objID");
        assert_eq!(Node::string("USA").label(), "USA");
        assert_eq!(Node::int(42).label(), "42");
        assert_eq!(Node::hex(0x400).label(), "0x400");
        assert_eq!(Node::star().label(), "*");
    }

    #[test]
    fn from_parts_builds_what_the_mutators_build() {
        // Zero, one and three attributes: the empty, inline and shared layouts.
        let built = Node::from_parts(
            NodeKind::TableRef,
            &[
                (Sym::NAME, "t".into()),
                (Sym::ALIAS, "x".into()),
                (Sym::intern("schema"), "dbo".into()),
            ],
            vec![
                Node::int(1),
                Node::from_parts(NodeKind::Star, &[], Vec::new()),
            ],
        );
        let mutated = Node::new(NodeKind::TableRef)
            .with_attr("name", "t")
            .with_attr("alias", "x")
            .with_attr("schema", "dbo")
            .with_child(Node::new(NodeKind::NumExpr).with_attr("value", 1i64))
            .with_child(Node::star());
        assert_eq!(built, mutated);
        assert_eq!(built.structural_hash(), mutated.structural_hash());
        assert_eq!(built.structural_hash(), built.recomputed_hash());
        assert_eq!(built.attr_str("schema"), Some("dbo"));
        // Attribute order is part of the label.
        let swapped = Node::from_parts(
            NodeKind::ColExpr,
            &[(Sym::TABLE, "g".into()), (Sym::NAME, "a".into())],
            Vec::new(),
        );
        assert_ne!(swapped, Node::qualified_column("g", "a"));
        assert_ne!(
            swapped.structural_hash(),
            Node::qualified_column("g", "a").structural_hash()
        );
        // Overwriting and adding through the mutators moves between layouts soundly.
        let mut grown = Node::column("a");
        grown.set_attr("table", "g");
        assert_eq!(grown, Node::qualified_column("g", "a"));
        grown.set_attr("name", "b");
        assert_eq!(grown, Node::qualified_column("g", "b"));
        assert_eq!(grown.structural_hash(), grown.recomputed_hash());
    }

    #[test]
    fn set_attr_overwrites() {
        let mut n = Node::column("a");
        n.set_attr("name", "b");
        assert_eq!(n.attr_str("name"), Some("b"));
        assert_eq!(n.attrs().len(), 1);
        assert_eq!(n.structural_hash(), n.recomputed_hash());
    }

    #[test]
    fn numeric_value_only_for_numeric_terminals() {
        assert_eq!(Node::int(7).numeric_value(), Some(7.0));
        assert_eq!(Node::float(2.5).numeric_value(), Some(2.5));
        assert_eq!(Node::hex(0x10).numeric_value(), Some(16.0));
        assert_eq!(Node::string("7").numeric_value(), None);
        assert_eq!(sample_tree().numeric_value(), None);
    }

    #[test]
    fn attr_probe_with_unknown_key_is_none() {
        // attr() must not intern unseen keys; either way it reports absence.
        let n = Node::column("a");
        assert_eq!(n.attr("this_key_is_never_set_anywhere"), None);
        assert_eq!(n.attr_str("another_never_set_key"), None);
    }
}
