//! Offline stand-in for the `rand` crate.
//!
//! The evaluation container has no registry access, so the workspace
//! vendors the *API surface it actually uses* as a tiny local crate with
//! the same package name: [`rngs::SmallRng`], [`SeedableRng`] and the
//! [`Rng`] extension trait with `random` / `random_range` (the rand 0.9
//! method names). The generator is xoshiro256++ seeded through SplitMix64
//! — the same construction rand's own `SmallRng` documents — so streams
//! are deterministic, well distributed, fast, and entirely dependency
//! free. Streams are **not** bit-compatible with crates.io `rand`; every
//! consumer in this workspace only requires determinism, not a specific
//! stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Seedable random number generator constructors.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The core generator interface plus the convenience methods the
/// workspace uses (`random`, `random_range`).
pub trait Rng {
    /// The next raw 64 bits from the generator.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of `T` (rand 0.9's `random`).
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_raw(self.next_u64())
    }

    /// A uniform sample from `range` (rand 0.9's `random_range`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample(self)
    }
}

/// Types with a canonical uniform distribution over the full domain
/// (the subset of rand's `StandardUniform` the workspace needs).
pub trait Standard {
    /// Maps 64 uniform bits to a uniform value of `Self`.
    fn from_raw(raw: u64) -> Self;
}

impl Standard for u64 {
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn from_raw(raw: u64) -> Self {
        (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn from_raw(raw: u64) -> Self {
        raw & 1 == 1
    }
}

/// Ranges a uniform sample can be drawn from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (reduce(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + (rng.next_u64() as $t);
                }
                lo + (reduce(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}

impl_sample_range_uint!(u64, usize, u32, u16, u8);

/// Debiased multiply-shift range reduction (Lemire). The tiny modulo
/// bias of the plain variant would be invisible to these workloads, but
/// the widening form is just as cheap.
fn reduce(raw: u64, span: u64) -> u64 {
    ((u128::from(raw) * u128::from(span)) >> 64) as u64
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A small, fast, seedable generator: xoshiro256++ with SplitMix64
    /// seed expansion (the construction rand documents for its own
    /// `SmallRng`).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(0u64..10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let v = rng.random_range(1u64..=5);
            assert!((1..=5).contains(&v));
        }
    }
}
