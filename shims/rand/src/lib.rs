//! Offline drop-in stand-in for the `rand` crate surface this workspace
//! uses: `StdRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}`, and
//! `seq::SliceRandom::{shuffle, choose}`.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — a different
//! stream than the real `StdRng` (ChaCha12), but the workspace only
//! relies on seeded determinism and distribution quality, not on exact
//! reference values.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32 bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value from the "standard" distribution of `T`
    /// (`[0, 1)` for floats, full range for integers).
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: Into<Range<T>>,
        Self: Sized,
    {
        let range = range.into();
        T::sample_uniform(range.start, range.end, self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable by [`Rng::gen`].
pub trait StandardSample {
    /// Draws one standard-distribution sample.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($ty:ty),*) => {$(
        impl StandardSample for $ty {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types samplable by [`Rng::gen_range`].
pub trait UniformSample: Sized {
    /// Draws uniformly from `[low, high)`.
    fn sample_uniform<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! impl_uniform_int {
    ($($ty:ty),*) => {$(
        impl UniformSample for $ty {
            fn sample_uniform<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                // Lemire-style scaling: multiply-shift maps 64 random
                // bits onto the span with negligible bias for the span
                // sizes used here.
                let offset = ((u128::from(rng.next_u64()) * span) >> 64) as i128;
                (low as i128 + offset) as $ty
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformSample for f64 {
    fn sample_uniform<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low < high, "gen_range: empty range");
        low + f64::sample_standard(rng) * (high - low)
    }
}

impl UniformSample for f32 {
    fn sample_uniform<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low < high, "gen_range: empty range");
        low + f32::sample_standard(rng) * (high - low)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's deterministic generator: xoshiro256**.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, per the xoshiro authors'
            // recommendation.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

/// Slice sampling helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{RngCore, UniformSample};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Picks a uniformly random element, `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_uniform(0, i + 1, rng);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[usize::sample_uniform(0, self.len(), rng)])
            }
        }
    }
}

/// Common imports, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn seeded_runs_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_are_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
        assert!(samples.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
