//! A minimal, dependency-free, offline drop-in for the subset of the
//! `rand 0.8` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors tiny shims for its external dependencies. This one provides:
//!
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator seeded via
//!   SplitMix64 (`seed_from_u64`), matching the shape (not the stream) of
//!   `rand::rngs::StdRng`;
//! * the [`Rng`] extension trait with `gen`, `gen_range`, `gen_bool`;
//! * the [`SeedableRng`] constructor trait.
//!
//! Determinism is the only contract the workspace relies on: the same seed
//! always yields the same stream, on every platform and thread. Statistical
//! quality is that of xoshiro256++, which is more than adequate for
//! simulation noise and exploration draws.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Types that can construct themselves from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A uniform-random value of a primitive type (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    #[inline]
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    #[inline]
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    #[inline]
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types over which `gen_range` can sample uniformly.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`hi` exclusive).
    fn sample_exclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]` (`hi` inclusive).
    fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_exclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
            #[inline]
            fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_exclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let u = <$t as Standard>::standard(rng);
                lo + (hi - lo) * u
            }
            #[inline]
            fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                Self::sample_exclusive(lo, hi, rng)
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from this range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// The random-number-generator interface.
///
/// One required method (`next_u64`); everything else has default
/// implementations, so the trait stays usable through `&mut dyn`-style
/// unsized generics (`R: Rng + ?Sized`).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform value of `T` (`f64` in `[0, 1)`, full-range integers).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// A uniform value in `range` (`a..b` or `a..=b`).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as Standard>::standard(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Concrete generator types.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator, seeded with SplitMix64.
    ///
    /// Drop-in for `rand::rngs::StdRng` in this workspace: same name, same
    /// `seed_from_u64` constructor, deterministic cross-platform stream.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ (Blackman & Vigna).
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

    /// Alias kept for API compatibility with `rand::rngs::SmallRng`.
    pub type SmallRng = StdRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let i = rng.gen_range(3usize..10);
            assert!((3..10).contains(&i));
            let j = rng.gen_range(1i32..=5);
            assert!((1..=5).contains(&j));
            let f = rng.gen_range(0.4f64..2.5);
            assert!((0.4..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn works_through_unsized_generic() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!(draw(&mut rng).is_finite());
    }
}
