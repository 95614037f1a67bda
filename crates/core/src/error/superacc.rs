//! Exact, order-independent summation of non-negative `f64` terms.
//!
//! The error drivers sum one RED (and one RED²) per operand pair — up to
//! 2^40 terms. A running `f64` sum rounds after every add, so its result
//! depends on the order of the adds, and therefore on how a sweep is split
//! across threads and engines. [`Superaccumulator`] follows Neal, "Fast
//! exact summation using small and large superaccumulators"
//! (arXiv:1505.05571): every term is added *exactly* into an integer
//! mantissa sum selected by its exponent field, and the total is rounded
//! to `f64` once, at the end. Integer addition is associative, so the
//! result is the correctly rounded exact sum whatever the order of adds or
//! merges.
//!
//! # Layout
//!
//! The *large* superaccumulator holds one `u128` mantissa sum per (value
//! of the exponent field, bank): a term `m·2^(e−1075)` adds its 53-bit
//! mantissa `m` to bin `e`. 2^64 adds of `m < 2^53` cannot overflow a
//! `u128`, so — unlike Neal's 64-bit chunks — a bin never needs flushing.
//! [`Superaccumulator::add_lanes`] sends consecutive lanes of a block to
//! [`BANKS`] interleaved banks, so runs of terms with the same exponent do
//! not serialize on one memory location; the banks of one exponent share
//! a cache line. [`Superaccumulator::sum`] folds every bin into the
//! *small* superaccumulator — one fixed-point integer whose least
//! significant bit is 2^−1074 — and rounds that to nearest, ties to even.

/// Number of interleaved bins per exponent.
const BANKS: usize = 4;

/// One bin per value of the 11-bit exponent field; field 2047 (infinity
/// and NaN) is never written because only finite terms are accepted.
const BINS: usize = 2048;

const FRACTION_MASK: u64 = (1 << 52) - 1;

/// Limbs of the small superaccumulator: bin 2046 scales its `u128` by
/// 2^2045 ulps of 2^−1074, and summing the banks adds two carry bits —
/// 2045 + 130 < 35 · 64.
const FIXED_LIMBS: usize = 35;

/// Exact accumulator for sums of finite, non-negative `f64` terms.
///
/// # Examples
///
/// ```
/// use sdlc_core::error::Superaccumulator;
///
/// // Left to right, a running f64 sum loses both 1.0s (1e16 + 1 is a
/// // tie that rounds back to 1e16); the exact sum is 1e16 + 2 in any
/// // order.
/// let mut acc = Superaccumulator::new();
/// for x in [1e16, 1.0, 1.0] {
///     acc.add(x);
/// }
/// assert_eq!(acc.sum(), 1e16 + 2.0);
///
/// let mut tiny = Superaccumulator::new();
/// for _ in 0..10 {
///     tiny.add(0.1);
/// }
/// // Ten correctly rounded 0.1s sum to exactly 1.0000000000000000555…,
/// // which rounds to 1.0 (a running f64 sum gives 0.9999999999999999).
/// assert_eq!(tiny.sum(), 1.0);
/// ```
#[derive(Clone)]
pub struct Superaccumulator {
    bins: Box<[[u128; BANKS]; BINS]>,
}

impl Default for Superaccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Superaccumulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Superaccumulator")
            .field("sum", &self.sum())
            .finish()
    }
}

/// The mantissa-sum bin and integer mantissa of a finite non-negative
/// term: `x = mantissa · 2^(max(bin, 1) − 1075)`.
#[inline(always)]
fn split(x: f64) -> (usize, u64) {
    let bits = x.to_bits();
    let exponent = (bits >> 52) as usize & (BINS - 1);
    (
        exponent,
        (bits & FRACTION_MASK) | (u64::from(exponent != 0) << 52),
    )
}

impl Superaccumulator {
    /// Creates an empty accumulator (sum `+0.0`).
    #[must_use]
    pub fn new() -> Self {
        let bins: Box<[[u128; BANKS]]> = vec![[0u128; BANKS]; BINS].into_boxed_slice();
        Self {
            bins: bins.try_into().expect("BINS bins"),
        }
    }

    /// Adds one term exactly.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative (other than `-0.0`), infinite or NaN.
    pub fn add(&mut self, x: f64) {
        assert!(
            x.is_finite() && !x.is_sign_negative() || x == 0.0,
            "superaccumulator terms must be finite and non-negative, got {x}"
        );
        let (bin, mantissa) = split(x);
        self.bins[bin][0] += u128::from(mantissa);
    }

    /// Adds 64 terms exactly, lane `i` into bank `i % BANKS`; callers pass
    /// `+0.0` for lanes that carry no term. The result equals 64 calls of
    /// [`Superaccumulator::add`].
    ///
    /// Terms must be finite and non-negative (checked in debug builds
    /// only: this is the per-block hot path).
    pub fn add_lanes(&mut self, xs: &[f64; 64]) {
        for group in xs.chunks_exact(BANKS) {
            for (bank, &x) in group.iter().enumerate() {
                debug_assert!(x.is_finite() && (x >= 0.0), "bad term {x}");
                let (bin, mantissa) = split(x);
                self.bins[bin][bank] += u128::from(mantissa);
            }
        }
    }

    /// Adds every term of `other` into `self` (exact).
    pub fn merge(&mut self, other: &Superaccumulator) {
        for (mine, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
            for (m, &t) in mine.iter_mut().zip(theirs) {
                // Skip empty bins so untouched pages stay unmapped.
                if t != 0 {
                    *m += t;
                }
            }
        }
    }

    /// The exact sum of every term added so far, rounded once to the
    /// nearest `f64` (ties to even); `+inf` if it exceeds `f64::MAX`.
    #[must_use]
    pub fn sum(&self) -> f64 {
        let mut fixed = [0u64; FIXED_LIMBS];
        for (exponent, banks) in self.bins.iter().enumerate() {
            // Fields 0 (subnormals) and 1 share the scale 2^−1074.
            let shift = exponent.max(1) - 1;
            for &mantissas in banks {
                if mantissas != 0 {
                    add_shifted(&mut fixed, mantissas, shift);
                }
            }
        }
        round_to_f64(&fixed, -1074)
    }
}

/// Adds `value · 2^shift` into a little-endian limb integer.
fn add_shifted(limbs: &mut [u64], value: u128, shift: usize) {
    let (index, offset) = (shift / 64, shift % 64);
    let low = value << offset;
    let high = if offset == 0 {
        0
    } else {
        (value >> (128 - offset)) as u64
    };
    let mut carry = false;
    for (k, part) in [low as u64, (low >> 64) as u64, high]
        .into_iter()
        .enumerate()
    {
        let (sum, c1) = limbs[index + k].overflowing_add(part);
        let (sum, c2) = sum.overflowing_add(u64::from(carry));
        limbs[index + k] = sum;
        carry = c1 || c2;
    }
    let mut k = index + 3;
    while carry {
        let (sum, c) = limbs[k].overflowing_add(1);
        limbs[k] = sum;
        carry = c;
        k += 1;
    }
}

/// Rounds the non-negative integer `Σ limbs[k]·2^(64k)`, scaled by
/// `2^scale`, to the nearest `f64`, ties to even (`+inf` on overflow).
///
/// `scale` must be at least −1074: every representable bit of the result
/// is then an integer number of input ulps.
pub(crate) fn round_to_f64(limbs: &[u64], scale: i32) -> f64 {
    debug_assert!(scale >= -1074);
    let Some(top) = limbs.iter().rposition(|&l| l != 0) else {
        return 0.0;
    };
    let bit_len = (64 * top + 64 - limbs[top].leading_zeros() as usize) as i64;
    // The result's ulp: 2^(exponent − 52) for a normal result, 2^−1074 for
    // a subnormal one — expressed as a count of input bits to drop.
    let exponent = bit_len - 1 + i64::from(scale);
    let ulp = (exponent - 52).max(-1074);
    let drop = ulp - i64::from(scale);
    let mantissa = if drop <= 0 {
        // At most 53 significant bits, all kept: exact.
        limbs[0] << (-drop)
    } else {
        let drop = drop as usize;
        let kept = bits_at(limbs, drop);
        let round = bits_at(limbs, drop - 1) & 1 == 1;
        let sticky = drop >= 2 && any_below(limbs, drop - 1);
        kept + u64::from(round && (sticky || kept & 1 == 1))
    };
    // `mantissa` ≤ 2^53 carries a leading 1 at bit 52 exactly when the
    // result is normal, so adding it to the biased ulp exponent yields the
    // IEEE encoding directly (a carry to 2^53 bumps the exponent field).
    let bits = (((ulp + 1074) as u64) << 52) + mantissa;
    if bits >= f64::INFINITY.to_bits() {
        f64::INFINITY
    } else {
        f64::from_bits(bits)
    }
}

/// The 64 bits of `limbs` starting at bit `start` (zero past the end).
fn bits_at(limbs: &[u64], start: usize) -> u64 {
    let (index, offset) = (start / 64, start % 64);
    let low = limbs.get(index).copied().unwrap_or(0) >> offset;
    if offset == 0 {
        low
    } else {
        low | limbs.get(index + 1).copied().unwrap_or(0) << (64 - offset)
    }
}

/// Whether any bit below bit `end` is set.
fn any_below(limbs: &[u64], end: usize) -> bool {
    let (index, offset) = (end / 64, end % 64);
    limbs[..index].iter().any(|&l| l != 0)
        || (offset != 0 && limbs[index] & ((1u64 << offset) - 1) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_sums() {
        let mut acc = Superaccumulator::new();
        assert_eq!(acc.sum(), 0.0);
        acc.add(0.5);
        acc.add(0.25);
        assert_eq!(acc.sum(), 0.75);
        acc.add(f64::from_bits(1)); // smallest subnormal
        assert_eq!(acc.sum(), 0.75);
        let mut sub = Superaccumulator::new();
        sub.add(f64::from_bits(1));
        sub.add(f64::from_bits(3));
        assert_eq!(sub.sum(), f64::from_bits(4));
    }

    #[test]
    fn integers_round_to_nearest_even() {
        // 2^53 + 1 is a tie between 2^53 and 2^53 + 2: even wins.
        assert_eq!(round_to_f64(&[(1 << 53) + 1], 0), 9_007_199_254_740_992.0);
        // 2^53 + 3 ties between +2 and +4: +4 is even.
        assert_eq!(round_to_f64(&[(1 << 53) + 3], 0), 9_007_199_254_740_996.0);
        // Just above the tie rounds up.
        assert_eq!(round_to_f64(&[1 << 54 | 3], 0), 18_014_398_509_481_988.0);
        assert_eq!(round_to_f64(&[0, 1], 0), 2f64.powi(64));
        assert_eq!(round_to_f64(&[u64::MAX, u64::MAX], 0), 2f64.powi(128));
        assert_eq!(round_to_f64(&[1], 2000), f64::INFINITY);
    }

    #[test]
    fn lanes_and_scalar_adds_agree() {
        let xs: [f64; 64] = core::array::from_fn(|i| (i as f64 + 0.1) / 7.0);
        let mut lanes = Superaccumulator::new();
        lanes.add_lanes(&xs);
        let mut scalar = Superaccumulator::new();
        for &x in xs.iter().rev() {
            scalar.add(x);
        }
        assert_eq!(lanes.sum(), scalar.sum());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_terms_are_rejected() {
        Superaccumulator::new().add(-1.0);
    }
}
