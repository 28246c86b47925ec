//! Binary codec primitives: varints, frame checksums and a deduplicated node table.
//!
//! Mining state (dedup arenas, diff stores, alignment memos) survives process boundaries as
//! a compact, version-stamped binary snapshot, and the server's spill files and journal
//! records use the same grammar.  This module holds the language-level layer of that codec
//! — the byte primitives shared by every section, plus the serialized form of the tree model
//! itself ([`Node`], [`NodeKind`], [`AttrValue`], [`Path`]) — and is the one decoder of
//! those bytes:
//!
//! * **Primitives** — LEB128 varints for counts and indices, fixed-width little-endian
//!   integers for hashes and checksums, zigzag for signed values, length-prefixed UTF-8 for
//!   strings.  Writers take any [`Write`].  Readers take the bytes they decode as a slice
//!   (`&mut &[u8]`) and advance it past what they read: every reader's input is a whole
//!   frame already in memory (a snapshot, a spill file, a journal segment), so a read is a
//!   bounds check, never a call through `std::io`.
//! * **One varint rule** — a varint ends within 10 bytes, and its 10th byte may only be 0
//!   or 1 (bit 63); anything longer or larger is [`CodecError::Corrupt`].  Counts read
//!   with [`take_count`] are bounded by one sanity cap, a length is checked against the
//!   bytes left before anything is reserved, a count of entries reserves no more of them
//!   than the bytes left can hold at one byte an entry, and input that ends early is
//!   `Io(UnexpectedEof)`.
//! * **Integrity** — [`checksum`] is the one frame checksum: a producer stamps it over its
//!   finished payload, and a consumer recomputes it over the frame it holds to reject *any*
//!   corruption with a clean [`CodecError::Corrupt`] — never a panic, never a silently
//!   wrong structure.  [`put_record`] frames journal records with it, and
//!   [`RecordScanner`] replays them.
//! * **Structural sharing** — [`NodeTableBuilder`] serializes a set of trees as one table
//!   of *distinct* subtrees (children-first, deduplicated by structural identity), so a
//!   snapshot's size scales with distinct state: a subtree shared by a thousand class
//!   representatives is written once and re-shared (`Arc`-aliased) on load.  Each entry
//!   carries its memoized structural hash, which the reader verifies after rebuilding —
//!   a flipped byte anywhere in a tree payload fails restore instead of corrupting mining.
//!
//! Interned strings ([`crate::IStr`] payloads, [`crate::Sym`] attribute keys) serialize by
//! *content* and re-intern on load: the arenas are process-wide and content-hashed, so
//! restored trees hash and compare identically to the originals regardless of interning
//! order.

use crate::hash::IntBuildHasher;
use crate::intern::Sym;
use crate::kind::NodeKind;
use crate::node::Node;
use crate::path::Path;
use crate::value::AttrValue;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};

/// Hard cap on a count or a length prefix (defence against corrupt prefixes driving huge
/// loops or allocations before the checksum check is reached).
const MAX_PAYLOAD: u64 = 1 << 28;

/// Errors produced while writing or reading a binary snapshot.
///
/// Restore is total: malformed input of any kind — truncation, bit flips, an unknown
/// version stamp — surfaces as an `Err`, never a panic and never a silently wrong
/// structure (tree payloads are re-verified against their stored structural hashes).
#[derive(Debug)]
pub enum CodecError {
    /// An underlying IO failure (includes truncation, surfaced as `UnexpectedEof`).
    Io(io::Error),
    /// The payload is malformed: bad magic, an invalid tag, an out-of-range index, a
    /// structural-hash or checksum mismatch.
    Corrupt(String),
    /// The snapshot was written by an incompatible format version.
    Version {
        /// The version stamp found in the snapshot header.
        found: u32,
        /// The single version this build can read.
        supported: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "snapshot io error: {e}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            CodecError::Version { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Shorthand for a malformed-payload error.
pub fn corrupt(msg: impl Into<String>) -> CodecError {
    CodecError::Corrupt(msg.into())
}

// ------------------------------------------------------------------ checksum

/// FNV-1a offset basis / prime, matching the deterministic hashing used elsewhere in the
/// crate.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Frame checksums interleave this many independent FNV-1a accumulators (byte `p` feeds
/// lane `p % LANES`).  A single FNV chain is latency-bound — one dependent multiply per
/// byte puts a multi-megabyte snapshot's verify pass at milliseconds — while independent
/// lanes pipeline to roughly the multiplier's throughput.  Same error-detection class;
/// the lanes plus the total length fold into one `u64` at the end.
const LANES: usize = 8;

fn fnv_fold(mut sum: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        sum ^= u64::from(b);
        sum = sum.wrapping_mul(FNV_PRIME);
    }
    sum
}

/// The frame checksum over a complete buffer: producers stamp it over their finished
/// payload, and readers verify the frame they hold against it in one pass.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut chunks = bytes.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &b) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, &b) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    let mut sum = FNV_OFFSET;
    for lane in &lanes {
        sum = fnv_fold(sum, &lane.to_le_bytes());
    }
    fnv_fold(sum, &(bytes.len() as u64).to_le_bytes())
}

// ------------------------------------------------------------------ primitives

/// Writes one byte.
pub fn put_u8<W: Write>(w: &mut W, v: u8) -> Result<(), CodecError> {
    w.write_all(&[v]).map_err(CodecError::Io)
}

/// Reads one byte.
#[inline]
pub fn take_u8(r: &mut &[u8]) -> Result<u8, CodecError> {
    let (&byte, rest) = r
        .split_first()
        .ok_or_else(|| CodecError::Io(io::ErrorKind::UnexpectedEof.into()))?;
    *r = rest;
    Ok(byte)
}

/// Writes a fixed-width little-endian `u32` (version stamps).
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> Result<(), CodecError> {
    w.write_all(&v.to_le_bytes()).map_err(CodecError::Io)
}

/// Reads a fixed-width little-endian `u32`.
#[inline]
pub fn take_u32(r: &mut &[u8]) -> Result<u32, CodecError> {
    let bytes = take_bytes(r, 4)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Writes a fixed-width little-endian `u64` (hashes, checksums).
pub fn put_u64<W: Write>(w: &mut W, v: u64) -> Result<(), CodecError> {
    w.write_all(&v.to_le_bytes()).map_err(CodecError::Io)
}

/// Reads a fixed-width little-endian `u64`.
#[inline]
pub fn take_u64(r: &mut &[u8]) -> Result<u64, CodecError> {
    let bytes = take_bytes(r, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Writes an LEB128 varint (counts, indices — small values cost one byte).
pub fn put_varint<W: Write>(w: &mut W, mut v: u64) -> Result<(), CodecError> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return put_u8(w, byte);
        }
        put_u8(w, byte | 0x80)?;
    }
}

/// Reads an LEB128 varint.  The 10th byte carries bit 63 alone, so it may only be 0 or 1:
/// a larger one overflows a `u64` or continues past 10 bytes, and is corrupt.
#[inline]
pub fn take_varint(r: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = take_u8(r)?;
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a varint and checks it fits a `usize` count bounded by `MAX_PAYLOAD`.
#[inline]
pub fn take_count(r: &mut &[u8]) -> Result<usize, CodecError> {
    let v = take_varint(r)?;
    if v > MAX_PAYLOAD {
        return Err(corrupt(format!("count {v} exceeds sanity bound")));
    }
    Ok(v as usize)
}

/// Writes a signed integer as a zigzag-encoded varint.
pub fn put_zigzag<W: Write>(w: &mut W, v: i64) -> Result<(), CodecError> {
    put_varint(w, ((v << 1) ^ (v >> 63)) as u64)
}

/// Reads a zigzag-encoded signed integer.
#[inline]
pub fn take_zigzag(r: &mut &[u8]) -> Result<i64, CodecError> {
    let v = take_varint(r)?;
    Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
}

/// Writes an `f64` by bit pattern (exact round-trip, NaN included).
pub fn put_f64<W: Write>(w: &mut W, v: f64) -> Result<(), CodecError> {
    put_u64(w, v.to_bits())
}

/// Reads an `f64` by bit pattern.
#[inline]
pub fn take_f64(r: &mut &[u8]) -> Result<f64, CodecError> {
    Ok(f64::from_bits(take_u64(r)?))
}

/// Writes a boolean as one byte.
pub fn put_bool<W: Write>(w: &mut W, v: bool) -> Result<(), CodecError> {
    put_u8(w, u8::from(v))
}

/// Reads a boolean, rejecting any byte other than 0 or 1.
#[inline]
pub fn take_bool(r: &mut &[u8]) -> Result<bool, CodecError> {
    match take_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(corrupt(format!("invalid bool byte {other}"))),
    }
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_str<W: Write>(w: &mut W, s: &str) -> Result<(), CodecError> {
    put_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes()).map_err(CodecError::Io)
}

/// Reads a length-prefixed UTF-8 string, validating the encoding.  A length longer than
/// the input fails before anything is allocated.
#[inline]
pub fn take_str(r: &mut &[u8]) -> Result<String, CodecError> {
    let len = take_count(r)?;
    let bytes = take_bytes(r, len)?;
    let text = std::str::from_utf8(bytes).map_err(|_| corrupt("string payload is not UTF-8"))?;
    Ok(text.to_owned())
}

/// The next `len` bytes, whose length the input declared; a shorter input fails with
/// `UnexpectedEof`, having reserved nothing.
#[inline]
pub fn take_bytes<'a>(r: &mut &'a [u8], len: usize) -> Result<&'a [u8], CodecError> {
    if r.len() < len {
        return Err(CodecError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    let (bytes, rest) = r.split_at(len);
    *r = rest;
    Ok(bytes)
}

// ------------------------------------------------------------------ journal records

/// Frames one journal record: `varint(len) ++ payload ++ u64 checksum(payload)`.
///
/// Records written back-to-back form an append-only log that [`RecordScanner`] can replay,
/// stopping cleanly at the first torn or corrupt suffix (a crash mid-append leaves a
/// partial frame; a record is only ever surfaced once its full payload verifies).
pub fn put_record<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), CodecError> {
    if payload.len() as u64 > MAX_PAYLOAD {
        return Err(corrupt(format!(
            "record payload {} exceeds sanity bound",
            payload.len()
        )));
    }
    put_varint(w, payload.len() as u64)?;
    w.write_all(payload).map_err(CodecError::Io)?;
    put_u64(w, checksum(payload))
}

/// [`put_record`] into a fresh buffer — one contiguous frame, so callers that need
/// all-or-nothing visibility can hand the bytes to a single `write_all`.
pub fn record_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 12);
    put_record(&mut buf, payload).expect("Vec write is infallible and payload is bounded");
    buf
}

/// Reads one [`put_record`] frame, returning its payload once the checksum verifies.
fn take_record<'a>(r: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = take_count(r)?;
    let payload = take_bytes(r, len)?;
    if take_u64(r)? != checksum(payload) {
        return Err(corrupt("record checksum mismatch"));
    }
    Ok(payload)
}

/// Replays a buffer of [`put_record`] frames, yielding each verified payload in order.
///
/// The scan is *tolerant of torn tails*: a frame that fails to read — a truncated or
/// corrupt length prefix, a payload shorter than its declared length, an absurd length, or
/// a checksum mismatch — stops the scan at the last good frame boundary instead of
/// erroring, exactly the states a crash mid-append (or a partial page flush) leaves behind.
/// [`RecordScanner::valid_len`] reports the byte offset of that boundary (where a
/// recovering writer should truncate and resume) and [`RecordScanner::torn`] whether
/// anything was discarded.
#[derive(Debug)]
pub struct RecordScanner<'a> {
    buf: &'a [u8],
    at: usize,
    torn: bool,
}

impl<'a> RecordScanner<'a> {
    /// Starts a scan at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordScanner {
            buf,
            at: 0,
            torn: false,
        }
    }

    /// Byte length of the verified prefix: every frame before this offset round-tripped.
    pub fn valid_len(&self) -> usize {
        self.at
    }

    /// True once the scan hit a torn or corrupt suffix (only meaningful after
    /// [`next_record`](Self::next_record) has returned `None`).
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Bytes past the verified prefix — the torn tail a recovering writer discards.
    pub fn trailing_bytes(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next verified payload, or `None` at a clean end of log *or* a torn tail
    /// (distinguish with [`torn`](Self::torn)).
    #[allow(clippy::should_implement_trait)]
    pub fn next_record(&mut self) -> Option<&'a [u8]> {
        if self.torn || self.at == self.buf.len() {
            return None;
        }
        let mut rest = &self.buf[self.at..];
        match take_record(&mut rest) {
            Ok(payload) => {
                self.at = self.buf.len() - rest.len();
                Some(payload)
            }
            Err(_) => {
                self.torn = true;
                None
            }
        }
    }
}

// ------------------------------------------------------------------ path / kind / value

/// Writes a [`Path`] as a varint step count followed by its steps.
pub fn put_path<W: Write>(w: &mut W, path: &Path) -> Result<(), CodecError> {
    put_varint(w, path.steps().len() as u64)?;
    for &step in path.steps() {
        put_varint(w, step as u64)?;
    }
    Ok(())
}

/// Reads a [`Path`].
#[inline]
pub fn take_path(r: &mut &[u8]) -> Result<Path, CodecError> {
    let len = take_count(r)?;
    let mut steps = Vec::with_capacity(len.min(r.len()));
    for _ in 0..len {
        steps.push(take_varint(r)? as usize);
    }
    Ok(Path::from(steps))
}

/// The tag minted for [`NodeKind::Other`]; named kinds use their declaration index.
const KIND_OTHER_TAG: u8 = 255;

/// Named kinds in declaration order.  The *position* of each kind in this table is its wire
/// tag, so reordering or inserting mid-table is a format break (bump the snapshot version).
const KIND_TABLE: [NodeKind; 34] = [
    NodeKind::Select,
    NodeKind::Project,
    NodeKind::ProjClause,
    NodeKind::From,
    NodeKind::Where,
    NodeKind::GroupBy,
    NodeKind::GroupClause,
    NodeKind::Having,
    NodeKind::OrderBy,
    NodeKind::OrderClause,
    NodeKind::Limit,
    NodeKind::Distinct,
    NodeKind::TableRef,
    NodeKind::SubqueryRef,
    NodeKind::TableFunc,
    NodeKind::Join,
    NodeKind::BiExpr,
    NodeKind::UnExpr,
    NodeKind::FuncCall,
    NodeKind::AggCall,
    NodeKind::FuncName,
    NodeKind::Cast,
    NodeKind::CaseExpr,
    NodeKind::WhenArm,
    NodeKind::ElseArm,
    NodeKind::ColExpr,
    NodeKind::StrExpr,
    NodeKind::NumExpr,
    NodeKind::HexExpr,
    NodeKind::Star,
    NodeKind::Null,
    NodeKind::BoolExpr,
    NodeKind::ScalarSubquery,
    NodeKind::ExprList,
];

/// Writes a [`NodeKind`] as a one-byte tag (plus the name string for `Other`).
pub fn put_kind<W: Write>(w: &mut W, kind: &NodeKind) -> Result<(), CodecError> {
    if let NodeKind::Other(name) = kind {
        put_u8(w, KIND_OTHER_TAG)?;
        return put_str(w, name);
    }
    match KIND_TABLE.iter().position(|k| k == kind) {
        Some(tag) => put_u8(w, tag as u8),
        None => Err(corrupt(format!("unmapped node kind {kind:?}"))),
    }
}

/// Reads a [`NodeKind`].
#[inline]
pub fn take_kind(r: &mut &[u8]) -> Result<NodeKind, CodecError> {
    let tag = take_u8(r)?;
    if tag == KIND_OTHER_TAG {
        return Ok(NodeKind::Other(take_str(r)?));
    }
    KIND_TABLE
        .get(tag as usize)
        .cloned()
        .ok_or_else(|| corrupt(format!("invalid node kind tag {tag}")))
}

/// Writes an [`AttrValue`] as a one-byte tag plus its payload.
pub fn put_attr_value<W: Write>(w: &mut W, value: &AttrValue) -> Result<(), CodecError> {
    match value {
        AttrValue::Str(s) => {
            put_u8(w, 0)?;
            put_str(w, s.as_str())
        }
        AttrValue::Int(i) => {
            put_u8(w, 1)?;
            put_zigzag(w, *i)
        }
        AttrValue::Float(f) => {
            put_u8(w, 2)?;
            put_f64(w, *f)
        }
        AttrValue::Bool(b) => {
            put_u8(w, 3)?;
            put_bool(w, *b)
        }
    }
}

/// Reads an [`AttrValue`]; string payloads re-intern by content.
#[inline]
pub fn take_attr_value(r: &mut &[u8]) -> Result<AttrValue, CodecError> {
    match take_u8(r)? {
        0 => Ok(AttrValue::from(take_str(r)?)),
        1 => Ok(AttrValue::Int(take_zigzag(r)?)),
        2 => Ok(AttrValue::Float(take_f64(r)?)),
        3 => Ok(AttrValue::Bool(take_bool(r)?)),
        other => Err(corrupt(format!("invalid attr value tag {other}"))),
    }
}

// ------------------------------------------------------------------ node table

/// Builds the deduplicated table of distinct subtrees referenced by a snapshot.
///
/// Usage is two-phase: every section that references trees first [`intern`]s them (a no-op
/// for subtrees already seen — deduplication is by structural identity, pointer-aliased
/// clones short-circuit), then the table is written once with [`write_to`] and sections
/// refer to trees by their `u32` table index.  Entries are ordered children-first, so the
/// reader can rebuild each tree from already-rebuilt children in a single pass,
/// `Arc`-sharing every repeated subtree.
///
/// [`intern`]: NodeTableBuilder::intern
/// [`write_to`]: NodeTableBuilder::write_to
#[derive(Debug, Default)]
pub struct NodeTableBuilder {
    /// Structural hash → the newest entry carrying that hash.  Each entry links to the
    /// previous one with the same hash, so a chain has one link except under a real 64-bit
    /// collision; membership is decided by full equality, mirroring the dedup table's
    /// collision contract.
    by_hash: HashMap<u64, u32, IntBuildHasher>,
    /// Distinct subtrees in emission order, each with the table indices of its children
    /// and the previous entry of its hash chain ([`NO_ENTRY`] ends a chain).
    entries: Vec<(Node, Vec<u32>, u32)>,
}

/// The end of a [`NodeTableBuilder`] hash chain.
const NO_ENTRY: u32 = u32::MAX;

impl NodeTableBuilder {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct subtrees interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no subtree has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn lookup(&self, node: &Node) -> Option<u32> {
        let mut idx = *self.by_hash.get(&node.structural_hash())?;
        while idx != NO_ENTRY {
            let (seen, _, previous) = &self.entries[idx as usize];
            if seen.ptr_eq(node) || seen == node {
                return Some(idx);
            }
            idx = *previous;
        }
        None
    }

    /// Interns a tree (and, recursively, every distinct subtree of it), returning its table
    /// index.  Idempotent: structurally identical trees map to one entry.
    pub fn intern(&mut self, node: &Node) -> u32 {
        if let Some(idx) = self.lookup(node) {
            return idx;
        }
        let children: Vec<u32> = node.children().iter().map(|c| self.intern(c)).collect();
        let idx = u32::try_from(self.entries.len()).expect("fewer than 2^32 distinct subtrees");
        let previous = self
            .by_hash
            .insert(node.structural_hash(), idx)
            .unwrap_or(NO_ENTRY);
        self.entries.push((node.clone(), children, previous));
        idx
    }

    /// Writes the table: a varint entry count, then per entry the kind, attributes, child
    /// indices (all smaller than the entry's own index) and the memoized structural hash
    /// the reader re-verifies.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        put_varint(w, self.entries.len() as u64)?;
        for (node, children, _) in &self.entries {
            put_kind(w, node.kind_ref())?;
            put_varint(w, node.attrs().len() as u64)?;
            for (key, value) in node.attrs() {
                put_str(w, key.as_str())?;
                put_attr_value(w, value)?;
            }
            put_varint(w, children.len() as u64)?;
            for &child in children {
                put_varint(w, u64::from(child))?;
            }
            put_u64(w, node.structural_hash())?;
        }
        Ok(())
    }
}

/// Reads a node table written by [`NodeTableBuilder::write_to`], rebuilding every distinct
/// subtree exactly once (repeated subtrees are `Arc`-shared) and verifying each rebuilt
/// tree's structural hash against the stored one.
pub fn read_node_table(r: &mut &[u8]) -> Result<Vec<Node>, CodecError> {
    let count = take_count(r)?;
    let mut nodes: Vec<Node> = Vec::with_capacity(count.min(r.len()));
    let mut attrs = Vec::new();
    for i in 0..count {
        let kind = take_kind(r)?;
        let attr_count = take_count(r)?;
        attrs.clear();
        for _ in 0..attr_count {
            let key = Sym::intern(&take_str(r)?);
            if attrs.iter().any(|(k, _)| *k == key) {
                return Err(corrupt(format!("node {i} repeats attribute {key}")));
            }
            attrs.push((key, take_attr_value(r)?));
        }
        let child_count = take_count(r)?;
        let mut children = Vec::with_capacity(child_count.min(r.len()));
        for _ in 0..child_count {
            let child = take_varint(r)? as usize;
            if child >= i {
                return Err(corrupt(format!(
                    "node {i} references not-yet-defined child {child}"
                )));
            }
            children.push(nodes[child].clone());
        }
        let node = Node::from_parts(kind, &attrs, children);
        let stored_hash = take_u64(r)?;
        if node.structural_hash() != stored_hash {
            return Err(corrupt(format!(
                "node {i} structural hash mismatch (stored {stored_hash:#x}, rebuilt {:#x})",
                node.structural_hash()
            )));
        }
        nodes.push(node);
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::NodeKind;

    fn sample_tree(tag: i64) -> Node {
        Node::new(NodeKind::Select)
            .with_child(
                Node::new(NodeKind::Project)
                    .with_child(Node::new(NodeKind::ProjClause).with_child(Node::column("sales"))),
            )
            .with_child(Node::new(NodeKind::From).with_child(Node::table("t")))
            .with_child(
                Node::new(NodeKind::Where).with_child(
                    Node::new(NodeKind::BiExpr)
                        .with_attr("op", "=")
                        .with_child(Node::column("x"))
                        .with_child(Node::int(tag)),
                ),
            )
    }

    #[test]
    fn varints_round_trip_across_magnitudes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v).unwrap();
            assert_eq!(take_varint(&mut buf.as_slice()).unwrap(), v);
        }
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, -123_456] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v).unwrap();
            assert_eq!(take_zigzag(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn truncated_primitives_err_cleanly() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello world").unwrap();
        buf.truncate(4);
        assert!(take_str(&mut buf.as_slice()).is_err());
        assert!(take_varint(&mut [0x80u8, 0x80].as_slice()).is_err());
        assert!(take_bool(&mut [7u8].as_slice()).is_err());
    }

    #[test]
    fn kinds_and_values_round_trip() {
        for kind in KIND_TABLE
            .iter()
            .cloned()
            .chain([NodeKind::Other("SparqlTriple".to_string())])
        {
            let mut buf = Vec::new();
            put_kind(&mut buf, &kind).unwrap();
            assert_eq!(take_kind(&mut buf.as_slice()).unwrap(), kind);
        }
        for value in [
            AttrValue::from("abc"),
            AttrValue::Int(-9),
            AttrValue::Float(2.5),
            AttrValue::Bool(true),
        ] {
            let mut buf = Vec::new();
            put_attr_value(&mut buf, &value).unwrap();
            assert_eq!(take_attr_value(&mut buf.as_slice()).unwrap(), value);
        }
        let path = Path::from_steps([0usize, 3, 1]);
        let mut buf = Vec::new();
        put_path(&mut buf, &path).unwrap();
        assert_eq!(take_path(&mut buf.as_slice()).unwrap(), path);
    }

    #[test]
    fn node_table_deduplicates_shared_subtrees() {
        let a = sample_tree(1);
        let b = sample_tree(2);
        let mut table = NodeTableBuilder::new();
        let ia = table.intern(&a);
        let ib = table.intern(&b);
        assert_ne!(ia, ib);
        // Interning again is a no-op.
        assert_eq!(table.intern(&a), ia);
        // The two trees differ only in the literal: the shared prefix (projection, FROM,
        // column refs…) must appear once, so the table is far smaller than 2× a tree.
        assert!(table.len() < a.size() + b.size());

        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        let nodes = read_node_table(&mut buf.as_slice()).unwrap();
        assert_eq!(nodes.len(), table.len());
        assert_eq!(nodes[ia as usize], a);
        assert_eq!(nodes[ib as usize], b);
        // Structurally shared subtrees come back physically shared.
        assert!(nodes[ia as usize].children()[1].ptr_eq(&nodes[ib as usize].children()[1]));
    }

    #[test]
    fn corrupted_node_table_errs_instead_of_misreading() {
        let mut table = NodeTableBuilder::new();
        table.intern(&sample_tree(7));
        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        // Flip one byte at every offset: every mutation must either read back the exact
        // same table or fail cleanly — never panic, never return a silently different tree.
        let original = read_node_table(&mut buf.as_slice()).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x41;
            if let Ok(nodes) = read_node_table(&mut bad.as_slice()) {
                assert_eq!(nodes, original, "byte {i} silently changed the table");
            }
        }
        // Truncations fail cleanly too.
        for len in 0..buf.len() {
            assert!(read_node_table(&mut buf[..len].as_ref()).is_err());
        }
    }

    #[test]
    fn a_repeated_attribute_key_is_corrupt() {
        let node = Node::column("a");
        let mut buf = Vec::new();
        put_varint(&mut buf, 1).unwrap();
        put_kind(&mut buf, node.kind_ref()).unwrap();
        put_varint(&mut buf, 2).unwrap();
        for _ in 0..2 {
            put_str(&mut buf, "name").unwrap();
            put_attr_value(&mut buf, &AttrValue::from("a")).unwrap();
        }
        put_varint(&mut buf, 0).unwrap();
        put_u64(&mut buf, node.structural_hash()).unwrap();
        let err = read_node_table(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("repeats attribute name"), "{err}");
    }

    #[test]
    fn record_log_round_trips_and_reports_clean_end() {
        let payloads: Vec<Vec<u8>> = vec![
            b"first".to_vec(),
            Vec::new(),
            vec![0xAB; 300],
            b"last record".to_vec(),
        ];
        let mut log = Vec::new();
        for p in &payloads {
            put_record(&mut log, p).unwrap();
        }
        let mut scan = RecordScanner::new(&log);
        let mut seen = Vec::new();
        while let Some(p) = scan.next_record() {
            seen.push(p.to_vec());
        }
        assert_eq!(seen, payloads);
        assert!(!scan.torn());
        assert_eq!(scan.valid_len(), log.len());
        assert_eq!(scan.trailing_bytes(), 0);
        // record_frame produces the exact same bytes as put_record.
        assert_eq!(record_frame(b"first"), &log[..b"first".len() + 9]);
    }

    #[test]
    fn record_scanner_discards_torn_and_corrupt_tails() {
        let mut log = Vec::new();
        put_record(&mut log, b"good one").unwrap();
        put_record(&mut log, b"good two").unwrap();
        let intact = log.len();
        put_record(&mut log, b"the record a crash tears").unwrap();

        // Every truncation point inside the last frame must yield exactly the two intact
        // records and flag the tail as torn; truncating at the frame boundary is clean.
        for cut in intact..log.len() {
            let mut scan = RecordScanner::new(&log[..cut]);
            assert_eq!(scan.next_record(), Some(b"good one".as_slice()));
            assert_eq!(scan.next_record(), Some(b"good two".as_slice()));
            assert_eq!(scan.next_record(), None);
            assert_eq!(scan.torn(), cut != intact, "cut at byte {cut}");
            assert_eq!(scan.valid_len(), intact);
            assert_eq!(scan.trailing_bytes(), cut - intact);
        }

        // A bit flip anywhere in the tail frame (length, payload or checksum) is discarded
        // rather than replayed; flips in earlier frames stop the scan at the damage point.
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0x10;
            let mut scan = RecordScanner::new(&bad);
            let mut seen = 0;
            while let Some(p) = scan.next_record() {
                assert!(p == b"good one" || p == b"good two" || p == b"the record a crash tears");
                seen += 1;
            }
            assert!(seen < 3, "flip at byte {i} replayed the corrupt log fully");
            assert!(scan.torn(), "flip at byte {i} was not flagged");
        }
    }

    #[test]
    fn checksums_detect_every_single_byte_flip() {
        let payload = b"snapshot payload bytes, folded across lane boundaries".to_vec();
        let sum = checksum(&payload);
        for i in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[i] ^= 1;
            assert_ne!(checksum(&flipped), sum, "flip at byte {i}");
        }
    }

    #[test]
    fn the_varint_rule_refuses_a_tenth_byte_above_one() {
        // u64::MAX and 2^63 end in a 10th byte of 1; both round-trip.
        for v in [u64::MAX, 1 << 63] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v).unwrap();
            assert_eq!((buf.len(), buf[9]), (10, 1));
            let mut r = buf.as_slice();
            assert_eq!(take_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
        // A 10th byte of 2 sets bit 64, and one with its high bit set continues past 10
        // bytes: both are corrupt, never a wrapped value.
        let overflowing = [[0x80; 9].as_slice(), &[0x02]].concat();
        let too_long = [[0xff; 10].as_slice(), &[0x01]].concat();
        for bad in [&overflowing, &too_long] {
            assert!(matches!(
                take_varint(&mut bad.as_slice()),
                Err(CodecError::Corrupt(_))
            ));
        }
        // A record frame behind that length prefix (an empty payload's checksum follows)
        // is a torn tail, not an empty record.
        let mut log = record_frame(b"good");
        let intact = log.len();
        log.extend(&overflowing);
        log.extend(checksum(b"").to_le_bytes());
        let mut scan = RecordScanner::new(&log);
        assert_eq!(scan.next_record(), Some(b"good".as_slice()));
        assert_eq!(scan.next_record(), None);
        assert!(scan.torn());
        assert_eq!(scan.valid_len(), intact);
    }
}
