//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate provides the (small) `rand` 0.8 API surface the repository uses:
//! [`Rng::gen`], [`Rng::gen_range`], [`SeedableRng::seed_from_u64`], and
//! [`rngs::StdRng`]. The generator is xoshiro256++ seeded through SplitMix64
//! — deterministic given a seed, which is all the experiment harness and the
//! possible-worlds test oracles require. Swap back to the real crate by replacing
//! the `[patch]`-style path dependency in each manifest.

#![warn(missing_docs)]

use std::ops::Range;

/// Low-level source of randomness: a stream of `u64`s (and `u32`s derived
/// from them). Object-safe, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from their "standard" distribution by
/// [`Rng::gen`] (`f64` in `[0, 1)`, full-range integers, `bool`).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types supporting uniform sampling from a half-open `lo..hi` range via
/// [`Rng::gen_range`].
pub trait SampleRange: Sized {
    /// Draw uniformly from `[range.start, range.end)`. Panics when empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl SampleRange for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty f64 sample range");
        let u = f64::sample_standard(rng);
        let v = range.start + u * (range.end - range.start);
        // Guard against round-up to the excluded endpoint.
        if v >= range.end {
            range.start
        } else {
            v
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty integer sample range");
                let width = range.end.wrapping_sub(range.start) as u64;
                // Multiply-shift uniform mapping (bias < 2^-64: irrelevant
                // for test workload generation).
                let v = ((rng.next_u64() as u128 * width as u128) >> 64) as u64;
                range.start.wrapping_add(v as $t)
            }
        }
    )*};
}

impl_sample_range_int!(usize, u64, u32, i64, i32, u16, u8);

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Sample from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from `range` (half-open).
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman–Vigna),
    /// seeded through SplitMix64. Statistically strong, 4×64-bit state,
    /// and — the property everything here relies on — fully deterministic
    /// per seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        // Mean of U[0,1) over 10k draws: within 0.02 of 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen_range(-3.0f64..7.0);
            assert!((-3.0..7.0).contains(&x));
            let n = rng.gen_range(2usize..5);
            assert!((2..5).contains(&n));
        }
    }

    #[test]
    fn dyn_rng_core_supports_gen() {
        // The Pdf trait samples through `&mut dyn RngCore`.
        let mut rng = StdRng::seed_from_u64(1);
        let dynr: &mut dyn RngCore = &mut rng;
        let u: f64 = dynr.gen();
        assert!((0.0..1.0).contains(&u));
    }
}
