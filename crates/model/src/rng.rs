//! The seeded generator behind every workload stream and seeded test:
//! SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom
//! number generators", OOPSLA 2014). It is full-period and passes
//! BigCrush used as a stream, and its output is pinned here by
//! known-answer tests: the arrival streams of the serving workloads, the
//! NAS key sets behind the simulated benchmark numbers and every seeded
//! property suite are functions of it, so swapping it for another
//! generator would silently move all of them. No model in this crate
//! draws from it.
//!
//! Every draw is a direct call on [`StdRng`]: `random::<T>()` for a
//! value uniform over `T`'s domain (`f64` over `[0, 1)`), and
//! `random_range(a..b)` for an integer in `[a, b)`.

use std::ops::Range;

/// Deterministic 64-bit generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform over `T`'s domain.
    pub fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Uniform draw from `[start, end)`: the high half of a widening
    /// multiply, whose tiny bias is irrelevant for workload generation.
    pub fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let lo = range.start.to_u64();
        let hi = range.end.to_u64();
        assert!(hi > lo, "empty range");
        let span = hi - lo;
        let v = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        T::from_u64(lo + v)
    }
}

/// Types [`StdRng::random`] draws uniformly from their full domain.
pub trait Standard: Sized {
    fn draw(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn draw(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn draw(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u8 {
    fn draw(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for bool {
    fn draw(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types usable as [`StdRng::random_range`] endpoints.
pub trait UniformInt: Copy {
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_of_three_seeds_are_known() {
        let first4 = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            [(); 4].map(|_| rng.next_u64())
        };
        assert_eq!(
            first4(0),
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec
            ]
        );
        assert_eq!(
            first4(1),
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b
            ]
        );
        assert_eq!(
            first4(0x15AD_5EED),
            [
                0x446d_9e19_8364_7e8e,
                0x7b6d_da36_1b86_85ae,
                0xc605_c197_aa8e_af84,
                0x49fc_2feb_3194_adcf
            ]
        );
    }

    #[test]
    fn draws_map_the_next_output_as_they_always_have() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.random::<f64>(), 0.8833108082136426);
        assert_eq!(rng.random_range(0..1u32 << 19), 226_244);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(rng.random::<f64>(), 0.5665615751722809);
        assert_eq!(rng.random_range(0..1u32 << 19), 391_004);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_low = false;
        for _ in 0..10_000 {
            let v: usize = rng.random_range(0..7usize);
            assert!(v < 7);
            seen_low |= v == 0;
        }
        assert!(seen_low, "distribution covers the low end");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
