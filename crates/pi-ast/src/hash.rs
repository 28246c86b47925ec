//! A fast, deterministic hasher for integer keys.
//!
//! The workspace's hot hash maps are keyed by integers that are already well spread —
//! structural hashes, packed class pairs, table indices — or by short integer sequences
//! such as [`Path`](crate::Path) steps.  SipHash's flooding resistance buys nothing there
//! and costs several times more per probe, so these maps use [`IntHasher`]: one multiply
//! per word while hashing, and one splitmix64 finalising round, so a single-word key gets
//! well-mixed low and high bits.

use std::hash::{BuildHasherDefault, Hasher};

/// The [`std::hash::BuildHasher`] of [`IntHasher`], for `HashMap<K, V, IntBuildHasher>`.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A multiply-rotate word hasher with a splitmix64 finish.  Not flooding-resistant: use it
/// only for keys an adversary does not choose bit by bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        IntBuildHasher::default().hash_one(value)
    }

    #[test]
    fn distinct_small_keys_spread_over_the_low_bits() {
        // Consecutive integers and short step sequences must not share low bits, which a
        // hash table indexes by.
        let mut low: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for k in 0u64..1024 {
            low.insert(hash_of(&k) & 0xFFFF);
        }
        assert!(low.len() > 1000, "{} distinct low halves", low.len());
        assert_ne!(hash_of(&[0usize, 1][..]), hash_of(&[1usize, 0][..]));
        assert_ne!(hash_of(&[0usize][..]), hash_of(&[0usize, 0][..]));
        // Byte writes of a partial word hash like the zero-padded word.
        let mut a = IntHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = IntHasher::default();
        b.write_u64(0x03_02_01);
        assert_eq!(a.finish(), b.finish());
    }
}
