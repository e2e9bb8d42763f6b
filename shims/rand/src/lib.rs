//! Vendored offline subset of `rand` 0.8.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the slice of the rand API it uses: `StdRng` seeded via
//! `seed_from_u64`, the `Rng` extension methods (`gen`, `gen_range`,
//! `gen_bool`), `SliceRandom::{choose, shuffle}` and
//! `seq::index::sample`. The generator is xoshiro256++ seeded through
//! SplitMix64 — deterministic per seed, which is all the workspace relies
//! on (every call site uses `seed_from_u64` explicitly; nothing here is
//! used for cryptography).

use std::ops::Range;

/// Low-level generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding interface (only the `seed_from_u64` entry point the workspace
/// uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator standing in for rand's
    /// `StdRng`. Different numeric stream than the real crate, but every
    /// use in this workspace only needs a deterministic, well-mixed stream
    /// per seed.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; splitmix64 cannot
            // produce four zeros from any seed, but keep the guard explicit.
            if s == [0; 4] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias: the workspace's `small_rng` feature only ever seeds
    /// deterministically, so the same generator serves both.
    pub type SmallRng = StdRng;
}

/// Types that `Rng::gen` can produce (the subset of rand's `Standard`
/// distribution the workspace samples).
pub trait StandardSample {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// Types `Rng::gen_range` can sample from a half-open `Range`.
pub trait UniformSample: Copy + PartialOrd {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "cannot sample empty range {:?}..{:?}",
                    range.start,
                    range.end
                );
                let span = (range.end as i128 - range.start as i128) as u128;
                // Modulo bias is at most span/2^64 — irrelevant for the
                // test/workload generation this shim serves.
                let v = (rng.next_u64() as u128) % span;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "cannot sample empty range {:?}..{:?}",
                    range.start,
                    range.end
                );
                let unit = <$t as StandardSample>::sample(rng);
                range.start + unit * (range.end - range.start)
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// User-facing extension methods, auto-implemented for every generator.
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice helpers (`choose`, `shuffle`).
    pub trait SliceRandom {
        type Item;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }

    pub mod index {
        use super::super::{Rng, RngCore};

        /// The result of [`sample`]: distinct indices in `0..length`.
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// Iterate the sampled indices (by value, matching rand's
            /// `IndexVec::iter` which yields `usize`).
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }

            pub fn len(&self) -> usize {
                self.0.len()
            }

            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        /// Sample `amount` distinct indices from `0..length` via a partial
        /// Fisher–Yates shuffle of the pool `0..length`. Only the positions
        /// a swap touched are stored, so a call costs O(amount²) time and
        /// O(amount) memory whatever `length` is (callers sample a handful
        /// of variables out of thousands); the draws and the result are
        /// those of shuffling the whole pool.
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} distinct indices from 0..{length}"
            );
            // `(position, value)` writes over the identity pool, newest last.
            let mut moved: Vec<(usize, usize)> = Vec::with_capacity(2 * amount);
            let at = |moved: &[(usize, usize)], p: usize| {
                moved.iter().rev().find(|&&(q, _)| q == p).map_or(p, |&(_, v)| v)
            };
            for i in 0..amount {
                let j = i + rng.gen_range(0..length - i);
                let (vi, vj) = (at(&moved, i), at(&moved, j));
                moved.push((j, vi));
                moved.push((i, vj));
            }
            IndexVec((0..amount).map(|i| at(&moved, i)).collect())
        }
    }
}

pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((0.22..0.28).contains(&frac), "{frac}");
    }

    #[test]
    fn shuffle_and_choose() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle landing on identity is astronomically unlikely");
        assert!(v.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn index_sample_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let idx = super::seq::index::sample(&mut rng, 20, 5);
            let got: BTreeSet<usize> = idx.iter().collect();
            assert_eq!(got.len(), 5);
            assert!(got.iter().all(|&i| i < 20));
        }
        let all = super::seq::index::sample(&mut rng, 4, 4);
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), 4);
    }

    #[test]
    fn index_sample_matches_a_shuffle_of_the_whole_pool() {
        // The pool-free sample must draw and return exactly what a
        // partial Fisher–Yates over a materialised `0..length` does, so
        // generated inputs stay the same for every seed.
        for seed in 0..50 {
            for (length, amount) in [(1, 1), (4, 4), (20, 5), (2000, 3), (64, 64)] {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let got = super::seq::index::sample(&mut a, length, amount).into_vec();
                let mut pool: Vec<usize> = (0..length).collect();
                for i in 0..amount {
                    let j = i + b.gen_range(0..length - i);
                    pool.swap(i, j);
                }
                pool.truncate(amount);
                assert_eq!(got, pool, "seed {seed}, {amount} of {length}");
                assert_eq!(a.next_u64(), b.next_u64(), "same number of draws");
            }
        }
    }
}
