//! A process-wide, shard-locked intern arena for literal and identifier strings.
//!
//! [`Sym`](crate::Sym) interns the *bounded* vocabulary of attribute names; [`IStr`] extends
//! interning to the *unbounded-but-repetitive* population of attribute values — column
//! identifiers, string literals, operators — so a million-query trace that mentions `'CA'`
//! in half its filters stores those bytes once, and every `AttrValue::Str` is a copyable
//! 16-byte handle instead of an owned `String`.
//!
//! Design points:
//!
//! * The table is split into [`SHARD_COUNT`] independently `RwLock`ed shards, so the
//!   `PI_THREADS` worker pool (and the server's session pool) can intern concurrently
//!   without funnelling through one lock.  Reads take a shard read lock; only first-sight
//!   insertion takes the write lock (double-checked).
//! * A string is hashed once per intern, with a per-process keyed hash (literals arrive
//!   from outside the program, so their hashes must not be predictable): the top bits
//!   pick the shard and the whole hash keys the shard's table.
//! * Interned strings are leaked (`Box::leak`), so [`IStr::as_str`] is a field read and the
//!   handle is `Copy`.  The arena therefore grows with the number of *distinct* strings ever
//!   interned and never shrinks — by construction the right trade for trace ingest, where
//!   the distinct population is bounded by the schema/literal vocabulary while the log is
//!   not.  [`IStr::arena_stats`] reports the live size for memory accounting.
//! * A grammar's fixed spellings (operators, directions, aggregate names) need no arena:
//!   [`IStr::from_static`] wraps a `&'static str` without a lookup, so a parser attaches
//!   `op: "AND"` without hashing or locking.
//! * Equality, [`Hash`] and [`Ord`] go through the string *content* (equality first tries
//!   the pointer: the arena holds one allocation per distinct string, so two interned
//!   handles of one string alias).  Content semantics keep structural hashes and orderings
//!   independent of interning order — exactly the property `Sym::hash64` pins for names.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::hash::IntBuildHasher;

/// Number of independently locked arena shards (a power of two: the shard is the hash's
/// top bits).
const SHARD_COUNT: usize = 16;

/// Live size of the intern arena; see [`IStr::arena_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Distinct strings interned so far, process-wide.
    pub strings: usize,
    /// Total bytes of interned string payload (excluding table overhead).
    pub bytes: usize,
}

static STRINGS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// One arena shard: each interned string under its hash.
#[derive(Default)]
struct Shard {
    by_hash: HashMap<u64, &'static str, IntBuildHasher>,
    /// Strings whose hash an earlier, different string already holds in `by_hash` (a
    /// 64-bit collision of the keyed hash; expected to stay empty).
    collided: HashSet<&'static str>,
}

impl Shard {
    fn get(&self, hash: u64, s: &str) -> Option<&'static str> {
        match self.by_hash.get(&hash) {
            Some(&text) if text == s => Some(text),
            Some(_) => self.collided.get(s).copied(),
            None => None,
        }
    }

    fn insert(&mut self, hash: u64, text: &'static str) {
        match self.by_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(text);
            }
            Entry::Occupied(_) => {
                self.collided.insert(text);
            }
        }
    }
}

/// The arena's hash key, drawn once per process.
fn hash_state() -> &'static RandomState {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new)
}

/// The string's one hash and the shard it lives in.
fn locate(s: &str) -> (u64, &'static RwLock<Shard>) {
    static SHARDS: OnceLock<[RwLock<Shard>; SHARD_COUNT]> = OnceLock::new();
    let shards = SHARDS.get_or_init(|| std::array::from_fn(|_| RwLock::default()));
    let hash = hash_state().hash_one(s);
    let shard = (hash >> (64 - SHARD_COUNT.trailing_zeros())) as usize;
    (hash, &shards[shard])
}

/// An interned string value: a `Copy` handle into the process-wide literal arena.
///
/// Obtain one with [`IStr::intern`] (or the `From` impls); read it back with
/// [`IStr::as_str`] — a field read, no lock.  `IStr` also derefs to `str`.
#[derive(Clone, Copy)]
pub struct IStr {
    text: &'static str,
}

impl IStr {
    /// Interns a string, returning its handle (inserting on first sight).
    pub fn intern(s: &str) -> IStr {
        Self::intern_with(s, |s| s.to_string())
    }

    /// Interns an owned string, reusing its allocation when it is the first sighting.
    pub fn intern_owned(s: String) -> IStr {
        Self::intern_with(s, |s| s)
    }

    /// Interns `s`, turning it into the leaked copy with `own` only on first sight.
    fn intern_with<S: AsRef<str>>(s: S, own: impl FnOnce(S) -> String) -> IStr {
        let (hash, shard) = locate(s.as_ref());
        if let Some(text) = shard
            .read()
            .expect("istr arena poisoned")
            .get(hash, s.as_ref())
        {
            return IStr { text };
        }
        let mut table = shard.write().expect("istr arena poisoned");
        // Re-check under the write lock: another thread may have inserted meanwhile.
        if let Some(text) = table.get(hash, s.as_ref()) {
            return IStr { text };
        }
        let leaked: &'static str = Box::leak(own(s).into_boxed_str());
        table.insert(hash, leaked);
        STRINGS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(leaked.len(), Ordering::Relaxed);
        IStr { text: leaked }
    }

    /// Wraps a string that lives for the whole program, such as a grammar's operator
    /// spelling, without touching the arena.
    pub fn from_static(text: &'static str) -> IStr {
        IStr { text }
    }

    /// The interned string (a field read, no lock).
    pub fn as_str(self) -> &'static str {
        self.text
    }

    /// Current size of the process-wide arena, for memory accounting.  Monotonic: the arena
    /// never shrinks.
    pub fn arena_stats() -> ArenaStats {
        ArenaStats {
            strings: STRINGS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.text, other.text) || self.text == other.text
    }
}

impl Eq for IStr {}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(other.text)
    }
}

impl Hash for IStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hashing, byte-compatible with `String`/`str`, so swapping `String` payloads
        // for `IStr` leaves every structural hash in the workspace unchanged.
        self.text.hash(state);
    }
}

impl std::ops::Deref for IStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr::intern(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr::intern_owned(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_pointer_equal() {
        let a = IStr::intern("istr_idempotent");
        let b = IStr::intern("istr_idempotent");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a.as_str(), "istr_idempotent");
    }

    #[test]
    fn distinct_strings_are_unequal() {
        assert_ne!(IStr::intern("istr_alpha"), IStr::intern("istr_beta"));
    }

    #[test]
    fn static_handles_equal_interned_ones() {
        let interned = IStr::intern("istr_static_probe");
        let wrapped = IStr::from_static("istr_static_probe");
        assert_eq!(interned, wrapped);
        assert_eq!(interned.cmp(&wrapped), std::cmp::Ordering::Equal);
        assert_ne!(IStr::from_static("istr_static_other"), interned);
    }

    #[test]
    fn hash_matches_str_content_hash() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            v(&mut s);
            s.finish()
        };
        let interned = IStr::intern("istr_hash_probe");
        assert_eq!(
            h(&|s| interned.hash(s)),
            h(&|s| "istr_hash_probe".to_string().hash(s)),
        );
    }

    #[test]
    fn colliding_hashes_keep_both_strings() {
        let mut shard = Shard::default();
        shard.insert(7, "istr_first");
        shard.insert(7, "istr_second");
        assert_eq!(shard.get(7, "istr_first"), Some("istr_first"));
        assert_eq!(shard.get(7, "istr_second"), Some("istr_second"));
        assert_eq!(shard.get(7, "istr_third"), None);
        assert_eq!(shard.get(8, "istr_first"), None);
    }

    #[test]
    fn ordering_follows_content() {
        assert!(IStr::intern("istr_a") < IStr::intern("istr_b"));
    }

    #[test]
    fn arena_stats_grow_only_on_first_sight() {
        let before = IStr::arena_stats();
        let s = IStr::intern("istr_stats_probe_once");
        let after = IStr::arena_stats();
        assert!(after.strings > before.strings);
        assert!(after.bytes >= before.bytes + s.len());
        // Re-interning hands back the same allocation; the counters are monotonic and only
        // first sightings bump them (pointer equality proves no second allocation happened).
        let again = IStr::intern("istr_stats_probe_once");
        assert!(std::ptr::eq(s.as_str(), again.as_str()));
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| IStr::intern(&format!("istr_threaded_{}", (t + i) % 20)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<IStr>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all[1..] {
            for (a, b) in all[0].iter().zip(row) {
                if a.as_str() == b.as_str() {
                    assert_eq!(a, b);
                }
            }
        }
    }
}
