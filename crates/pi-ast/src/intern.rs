//! Interned attribute names.
//!
//! Query ASTs carry a tiny vocabulary of attribute keys (`name`, `value`, `op`, `alias`, …)
//! repeated across millions of nodes.  A [`Sym`] is a copyable handle on a key: its string
//! and the string's 64-bit hash, computed once, so structural hashing never re-reads key
//! bytes and a mismatch is one integer compare.
//!
//! Two design points matter for the rest of the workspace:
//!
//! * The grammar's keys are **constants** ([`Sym::NAME`], [`Sym::VALUE`], [`Sym::OP`], …):
//!   a parser names them directly, and [`Sym::intern`] / [`Sym::lookup`] resolve their
//!   spellings with a `match`, so building or probing a grammar attribute takes no lock.
//!   Only keys outside the grammar (front-ends of other languages, hand-built trees) reach
//!   the locked table, which leaks each new name once; that vocabulary is bounded by the
//!   languages in use, so the leak is a few hundred bytes per process.
//! * Equality, [`Hash`], [`Ord`] and [`Sym::hash64`] are all derived from the *string*,
//!   never from when or where it was interned, so structural hashes and orderings are
//!   independent of interning order — parallel and serial pipelines produce
//!   byte-identical output.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned attribute name.
///
/// `Sym` is a cheap copyable handle; two `Sym`s are equal iff their strings are equal.
/// Obtain one with [`Sym::intern`] or name a grammar key directly ([`Sym::NAME`], …);
/// read it back with [`Sym::as_str`] (a field read, no lock).
#[derive(Clone, Copy)]
pub struct Sym {
    hash: u64,
    text: &'static str,
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (std::ptr::eq(self.text, other.text) || self.text == other.text)
    }
}

impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(other.text)
    }
}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Declares the grammar's symbol constants and the `match` that resolves their spellings.
macro_rules! grammar_syms {
    ($($(#[$doc:meta])* $konst:ident = $text:literal;)*) => {
        impl Sym {
            $(
                $(#[$doc])*
                pub const $konst: Sym = Sym { hash: str_hash64($text), text: $text };
            )*
        }

        /// The constant symbol spelled `name`, if it is a grammar key.
        fn grammar_sym(name: &str) -> Option<Sym> {
            match name {
                $($text => Some(Sym::$konst),)*
                _ => None,
            }
        }
    };
}

grammar_syms! {
    /// `name`: a column, table, table function or function name.
    NAME = "name";
    /// `value`: a literal's value.
    VALUE = "value";
    /// `op`: an operator's spelling.
    OP = "op";
    /// `alias`: a projection or relation alias.
    ALIAS = "alias";
    /// `table`: the qualifier of a column or a star.
    TABLE = "table";
    /// `distinct`: `SELECT DISTINCT` and `COUNT(DISTINCT …)`.
    DISTINCT = "distinct";
    /// `style`: the spelling of a limit (`top` for `SELECT TOP n`).
    STYLE = "style";
    /// `dir`: an ordering direction.
    DIR = "dir";
    /// `join_type`: `inner`, `left` or `right`.
    JOIN_TYPE = "join_type";
    /// `form`: `simple` or `searched` CASE.
    FORM = "form";
    /// `ty`: a CAST's target type.
    TY = "ty";
}

/// Names outside the grammar, leaked once each.
fn table() -> &'static RwLock<HashMap<&'static str, Sym>> {
    static TABLE: OnceLock<RwLock<HashMap<&'static str, Sym>>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

/// FNV-1a over a string; deterministic across runs and platforms, `const`-evaluable so
/// domain-separator seeds and grammar symbols are baked in at compile time.
pub(crate) const fn str_hash64(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        i += 1;
    }
    h
}

impl Sym {
    /// Interns a string, returning its symbol (inserting it on first sight).
    pub fn intern(name: &str) -> Sym {
        if let Some(sym) = Sym::lookup(name) {
            return sym;
        }
        let mut table = table().write().expect("interner poisoned");
        // Re-check under the write lock: another thread may have inserted meanwhile.
        if let Some(&sym) = table.get(name) {
            return sym;
        }
        let text: &'static str = Box::leak(name.to_string().into_boxed_str());
        let sym = Sym {
            hash: str_hash64(text),
            text,
        };
        table.insert(text, sym);
        sym
    }

    /// Looks a string up without interning it; `None` when it was never interned.
    pub fn lookup(name: &str) -> Option<Sym> {
        grammar_sym(name).or_else(|| {
            let table = table().read().expect("interner poisoned");
            table.get(name).copied()
        })
    }

    /// The interned string (a field read, no lock).
    pub fn as_str(self) -> &'static str {
        self.text
    }

    /// The symbol's precomputed 64-bit string hash (independent of interning order; a field
    /// read, no lock).
    pub fn hash64(self) -> u64 {
        self.hash
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::intern("name");
        let b = Sym::intern("name");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "name");
        assert_eq!(a.to_string(), "name");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Sym::intern("alpha_key");
        let b = Sym::intern("beta_key");
        assert_ne!(a, b);
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    fn lookup_does_not_insert() {
        assert!(Sym::lookup("never_interned_key_xyzzy").is_none());
        let s = Sym::intern("now_interned_key_xyzzy");
        assert_eq!(Sym::lookup("now_interned_key_xyzzy"), Some(s));
    }

    #[test]
    fn grammar_keys_resolve_to_their_constants() {
        for (sym, text) in [
            (Sym::NAME, "name"),
            (Sym::VALUE, "value"),
            (Sym::OP, "op"),
            (Sym::ALIAS, "alias"),
            (Sym::TABLE, "table"),
            (Sym::DISTINCT, "distinct"),
            (Sym::STYLE, "style"),
            (Sym::DIR, "dir"),
            (Sym::JOIN_TYPE, "join_type"),
            (Sym::FORM, "form"),
            (Sym::TY, "ty"),
        ] {
            assert_eq!(Sym::intern(text), sym);
            assert_eq!(Sym::lookup(text), Some(sym));
            assert_eq!(sym.as_str(), text);
            assert_eq!(sym.hash64(), str_hash64(text));
        }
        assert_ne!(Sym::intern("names"), Sym::NAME);
    }

    #[test]
    fn order_follows_the_string() {
        assert!(Sym::intern("zz_order_key") > Sym::ALIAS);
        assert!(Sym::intern("aa_order_key") < Sym::ALIAS);
    }

    #[test]
    fn hash_matches_direct_fnv() {
        let s = Sym::intern("op");
        assert_eq!(s.hash64(), str_hash64("op"));
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| Sym::intern(&format!("threaded_{}", (t + i) % 20)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread resolved the same strings to the same symbols.
        for row in &all[1..] {
            for (a, b) in all[0].iter().zip(row) {
                assert_eq!(a == b, a.as_str() == b.as_str());
            }
        }
    }
}
