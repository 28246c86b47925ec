//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships the slice of the
//! `rand` 0.8 API it actually uses: [`Rng::gen_range`] / [`Rng::gen_bool`] over the standard
//! numeric types, [`SeedableRng::seed_from_u64`] and a deterministic [`rngs::StdRng`]
//! (xoshiro256++ seeded via splitmix64).  All generators in this workspace are seeded
//! explicitly, so determinism — not cryptographic quality — is the contract that matters.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[lo, hi)`.
    fn sample_half_open(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self;
    /// Samples uniformly from `[lo, hi]`.
    fn sample_closed(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self;
}

/// A range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a sample from the range.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range called with an empty range");
        T::sample_closed(rng, lo, hi)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                lo.wrapping_add(uniform_u128(rng, span) as $t)
            }
            fn sample_closed(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                lo.wrapping_add(uniform_u128(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                lo + (hi - lo) * unit
            }
            fn sample_closed(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + (hi - lo) * unit
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Uniform draw from `[0, span)` by rejection sampling (no modulo bias).
fn uniform_u128(rng: &mut dyn RngCore, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span <= u64::MAX as u128 {
        let span64 = span as u64;
        // Largest multiple of span that fits in u64.
        let zone = u64::MAX - (u64::MAX % span64 + 1) % span64;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return (v % span64) as u128;
            }
        }
    } else {
        loop {
            let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            if v < span * (u128::MAX / span) {
                return v % span;
            }
        }
    }
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers, available on every [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Samples a value uniformly from the given range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator: xoshiro256++ seeded via splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed with splitmix64, as the xoshiro authors recommend.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Re-exports matching `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000i64), b.gen_range(0..1000i64));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&v));
            let v = rng.gen_range(3..=9i64);
            assert!((3..=9).contains(&v));
            let f = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.gen_range(0..7usize);
            assert!(u < 7);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
