//! In-tree pseudo-random number generation.
//!
//! Two small, well-studied generators replace the `rand` crate:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. One u64 of state,
//!   equidistributed, and the canonical seeder for larger generators.
//! * [`Xoshiro256StarStar`] — Blackman/Vigna's xoshiro256**, the
//!   general-purpose workhorse (period 2^256 − 1, passes BigCrush).
//!
//! Everything in the workspace draws randomness through the [`Rng`]
//! trait, so tests and kernels stay deterministic for a fixed seed
//! across platforms and toolchain updates — unlike `rand`, whose
//! `StdRng` stream is explicitly not stable between versions.

use std::ops::{Range, RangeInclusive};

/// The random-source trait: one required method, everything else derived.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn random_f64(&mut self) -> f64 {
        // Top 53 bits scaled by 2^-53: the standard uniform double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from `range` (half-open `a..b` or inclusive `a..=b`
    /// integer ranges, half-open `f64` ranges).
    ///
    /// # Panics
    /// Panics on an empty range.
    #[inline]
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        self.random_f64() < p
    }

    /// Fills `dest` with uniformly random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Uniform integer in `[0, span)` by masked rejection — unbiased, and
/// cheap because the expected number of draws is below 2.
#[inline]
fn uniform_below<G: Rng + ?Sized>(rng: &mut G, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let mask = span.next_power_of_two() - 1;
    loop {
        let x = rng.next_u64() & mask;
        if x < span {
            return x;
        }
    }
}

/// Range types [`Rng::random_range`] accepts.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i32, u32, i64, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.random_f64() * (self.end - self.start);
        // Rounding can land exactly on `end`; clamp back inside.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Steele/Lea/Flood SplitMix64: `z = (s += 0x9E3779B97F4A7C15)` mixed
/// through two xor-shift-multiply rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from any 64-bit seed (all seeds are valid).
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        avalanche(self.state)
    }
}

/// SplitMix64's output mix, a bijection on `u64` in which each input bit
/// flips each output bit with probability close to ½.
#[inline]
pub const fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Blackman/Vigna xoshiro256**: 256 bits of state, period 2^256 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace's default generator (deterministic across platforms).
pub type StdRng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Seeds the 256-bit state through SplitMix64, per the authors'
    /// recommendation (guarantees a nonzero state for every seed).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
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

impl<G: Rng + ?Sized> Rng for &mut G {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference output for seed 1234567 from the public-domain C
        // implementation (Vigna, prng.di.unimi.it).
        let mut rng = SplitMix64::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn integer_ranges_cover_and_stay_inside() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.random_range(10u32..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should appear");
        for _ in 0..1000 {
            let v = rng.random_range(2u32..=4);
            assert!((2..=4).contains(&v));
        }
        for _ in 0..1000 {
            let v = rng.random_range(-5i32..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn f64_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.random_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&v), "{v}");
        }
    }

    #[test]
    fn random_bool_matches_probability_roughly() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        // 13 random bytes are essentially never all zero.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        StdRng::seed_from_u64(0).random_range(5u32..5);
    }
}
