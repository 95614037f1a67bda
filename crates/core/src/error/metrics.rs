//! Error-metric accumulation and the finished [`ErrorMetrics`] record.

use core::fmt;

use sdlc_wideint::U256;

use crate::batch::LANES;
use crate::error::superacc::{round_to_f64, Superaccumulator};

/// Exact integer sum of error distances, `high · 2^128 + low`: room for
/// 2^64 terms below 2^256.
#[derive(Debug, Clone, Copy, Default)]
struct EdSum {
    low: u128,
    high: U256,
}

impl EdSum {
    fn add(&mut self, ed: u128) {
        let (low, carry) = self.low.overflowing_add(ed);
        self.low = low;
        if carry {
            self.high += U256::ONE;
        }
    }

    fn add_wide(&mut self, ed: &U256) {
        self.add(ed.as_u128());
        self.high += ed.shr(128);
    }

    fn merge(&mut self, other: &EdSum) {
        self.add(other.low);
        self.high += other.high;
    }

    /// The sum rounded once to the nearest `f64`.
    fn to_f64(self) -> f64 {
        let [h0, h1, h2, h3] = *self.high.limbs();
        round_to_f64(
            &[self.low as u64, (self.low >> 64) as u64, h0, h1, h2, h3],
            0,
        )
    }
}

/// Streaming accumulator for error statistics.
///
/// Feed it `(exact, approximate)` product pairs one at a time with
/// [`ErrorAccumulator::record_u64`] (products ≤ 128 bits),
/// [`ErrorAccumulator::record_i64`] (signed) or
/// [`ErrorAccumulator::record`] (wide), or 64 lanes at a time with
/// [`ErrorAccumulator::record_block_u64`] /
/// [`ErrorAccumulator::record_block_i64`]; partial accumulators from
/// worker threads combine with [`ErrorAccumulator::merge`].
///
/// Every statistic is **order-independent**: error distances are summed
/// as exact integers, each pair's RED and RED² go into a
/// [`Superaccumulator`] that sums them exactly, and the maxima break ties
/// on the operand pair. So any recording order, any split into partial
/// accumulators and any merge tree give bit-identical [`ErrorMetrics`] —
/// which is what makes the error drivers independent of thread count and
/// engine. Each sum is rounded to `f64` once, in
/// [`ErrorAccumulator::finish`].
///
/// # Examples
///
/// ```
/// use sdlc_core::error::ErrorAccumulator;
/// use sdlc_wideint::U256;
///
/// let mut acc = ErrorAccumulator::new();
/// acc.record_u64(9, 7, (3, 3));   // ED = 2, RED = 2/9
/// acc.record_u64(4, 4, (2, 2));   // exact
/// let m = acc.finish(U256::from_u64(9)); // Pmax of a 2-bit multiplier
/// assert_eq!(m.samples, 2);
/// assert_eq!(m.error_rate, 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ErrorAccumulator {
    samples: u64,
    errors: u64,
    undefined_red: u64,
    sum_ed: EdSum,
    sum_red: Superaccumulator,
    sum_red_sq: Superaccumulator,
    max_red: f64,
    max_ed: f64,
    worst_red_operands: Option<(u128, u128)>,
}

/// `u128 → f64` (round to nearest). `u64 → f64` is a single instruction
/// while `u128 → f64` is a slow libcall; both round identically for values
/// that fit, and error distances and ≤64-bit products always fit.
fn to_f64(x: u128) -> f64 {
    if x <= u128::from(u64::MAX) {
        x as u64 as f64
    } else {
        x as f64
    }
}

fn or_lanes(x: &[u64; LANES]) -> u64 {
    x.iter().fold(0, |acc, &v| acc | v)
}

/// The largest of 64 non-negative values, in eight independent chains.
fn max_lanes<T: PartialOrd + Copy + Default>(x: &[T; LANES]) -> T {
    let mut top = [T::default(); 8];
    for chunk in x.chunks_exact(8) {
        for (t, &v) in top.iter_mut().zip(chunk) {
            *t = if v > *t { v } else { *t };
        }
    }
    top.iter()
        .fold(T::default(), |m, &t| if t > m { t } else { m })
}

/// The lane-wise statistics of one block.
struct BlockStats {
    /// Per-lane RED; `+0.0` where the lane is exact or its exact product
    /// is zero (undefined RED).
    red: [f64; LANES],
    red_sq: [f64; LANES],
    errors: u64,
    undefined: u64,
    ed_sum: u128,
}

/// One straight-line pass over the block. `SMALL` promises every value is
/// below 2^52, where `x as f64` equals the branch-free, vectorizable
/// `from_bits(2^52 bits | x) − 2^52` and the ED sum fits `u64`.
#[inline(always)]
fn block_stats<const SMALL: bool>(ed: &[u64; LANES], magnitude: &[u64; LANES]) -> BlockStats {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let convert = |x: u64| {
        if SMALL {
            f64::from_bits(x | TWO_52.to_bits()) - TWO_52
        } else {
            x as f64
        }
    };
    let mut stats = BlockStats {
        red: [0.0; LANES],
        red_sq: [0.0; LANES],
        errors: 0,
        undefined: 0,
        ed_sum: 0,
    };
    let mut ed_sum = 0u64;
    for i in 0..LANES {
        let (d, m) = (ed[i], magnitude[i]);
        let error = u64::from(d != 0);
        let zero = u64::from(m == 0);
        stats.errors += error;
        stats.undefined += error & zero;
        if SMALL {
            ed_sum += d;
        } else {
            stats.ed_sum += u128::from(d);
        }
        // RED = ED / |P|; a zero |P| divides by 1 and is masked out.
        let q = convert(d) / convert(m | zero);
        let red = f64::from_bits(q.to_bits() & zero.wrapping_sub(1));
        stats.red[i] = red;
        stats.red_sq[i] = red * red;
    }
    if SMALL {
        stats.ed_sum = u128::from(ed_sum);
    }
    stats
}

impl ErrorAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one multiplication with products that fit in `u128`,
    /// tagging it with the operand pair for worst-case reporting.
    ///
    /// A wrong product against an exact product of zero (possible for
    /// baselines like ETM whose OR chains ignore a zero operand) has no
    /// defined RED; such pairs count toward ER and the ED statistics but
    /// are excluded from the RED mean and maximum
    /// ([`ErrorMetrics::undefined_red_count`] reports how many).
    pub fn record_u64(&mut self, exact: u128, approx: u128, operands: (u64, u64)) {
        self.record_distance(
            exact.abs_diff(approx),
            exact,
            (u128::from(operands.0), u128::from(operands.1)),
        );
    }

    /// Records one *signed* multiplication with products that fit `i128`:
    /// `ED = |P − P′|` over the signed values and `RED = ED / |P|`, so a
    /// sign-magnitude model's statistics are the unsigned core's mirrored
    /// into every quadrant. Operands are tagged as full-width
    /// two's-complement patterns (see
    /// [`ErrorMetrics::worst_red_operands_signed`]); the zero-product
    /// convention matches [`ErrorAccumulator::record_u64`].
    pub fn record_i64(&mut self, exact: i128, approx: i128, operands: (i64, i64)) {
        self.record_distance(
            exact.abs_diff(approx),
            exact.unsigned_abs(),
            (
                i128::from(operands.0) as u128,
                i128::from(operands.1) as u128,
            ),
        );
    }

    /// Records one multiplication with wide products; see
    /// [`ErrorAccumulator::record_u64`] for the zero-product convention.
    pub fn record(&mut self, exact: &U256, approx: &U256, operands: (u128, u128)) {
        self.samples += 1;
        if exact == approx {
            return;
        }
        self.errors += 1;
        let ed = exact.abs_diff(approx);
        self.sum_ed.add_wide(&ed);
        let ed = ed.to_f64();
        self.max_ed = self.max_ed.max(ed);
        if exact.is_zero() {
            self.undefined_red += 1;
            return;
        }
        self.record_red(ed / exact.to_f64(), operands);
    }

    /// Records one pair given its error distance and exact-product
    /// magnitude.
    fn record_distance(&mut self, ed: u128, magnitude: u128, operands: (u128, u128)) {
        self.samples += 1;
        if ed == 0 {
            return;
        }
        self.errors += 1;
        self.sum_ed.add(ed);
        let ed = to_f64(ed);
        self.max_ed = self.max_ed.max(ed);
        if magnitude == 0 {
            self.undefined_red += 1;
            return;
        }
        self.record_red(ed / to_f64(magnitude), operands);
    }

    fn record_red(&mut self, red: f64, operands: (u128, u128)) {
        self.sum_red.add(red);
        self.sum_red_sq.add(red * red);
        self.offer_worst(red, operands);
    }

    /// Keeps the largest RED; among pairs at the same RED, the smallest
    /// operand pattern pair (the first in an exhaustive sweep's order), so
    /// the choice does not depend on recording order.
    fn offer_worst(&mut self, red: f64, operands: (u128, u128)) {
        let better = red > self.max_red
            || (red == self.max_red && self.worst_red_operands.is_some_and(|w| operands < w));
        if better {
            self.max_red = red;
            self.worst_red_operands = Some(operands);
        }
    }

    /// Records a 64-lane block of unsigned pairs: lane `i` multiplied
    /// `a[i] × b[i]` to `approx[i]`. Only lanes `0..valid` are recorded.
    /// The result is identical to [`ErrorAccumulator::record_u64`] on each
    /// valid lane; a full block of operands up to 32 bits is computed
    /// lane-wise — distances, branch-free RED divisions, sums and maxima.
    ///
    /// # Panics
    ///
    /// Panics if `valid > 64`.
    pub fn record_block_u64(
        &mut self,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &[u64; LANES],
        valid: usize,
    ) {
        assert!(valid <= LANES, "a block holds at most {LANES} lanes");
        let narrow = or_lanes(a).leading_zeros() + or_lanes(b).leading_zeros() >= 64;
        if valid < LANES || !narrow {
            // Partial blocks and products beyond 64 bits: per pair.
            for i in 0..valid {
                self.record_u64(
                    u128::from(a[i]) * u128::from(b[i]),
                    u128::from(approx[i]),
                    (a[i], b[i]),
                );
            }
            return;
        }
        let mut exact = [0u64; LANES];
        let mut ed = [0u64; LANES];
        for i in 0..LANES {
            exact[i] = a[i] * b[i];
            ed[i] = exact[i].abs_diff(approx[i]);
        }
        self.record_lanes(&ed, &exact, |i| (u128::from(a[i]), u128::from(b[i])));
    }

    /// [`ErrorAccumulator::record_block_u64`] for one block of an
    /// exhaustive row: lane `i` multiplied `a × (b0 + i)`. The exact
    /// products step by `a` from lane to lane, so no operand lanes are
    /// built.
    pub(crate) fn record_row_block(
        &mut self,
        a: u64,
        b0: u64,
        approx: &[u64; LANES],
        valid: usize,
    ) {
        if valid < LANES || 64 - a.leading_zeros() + 64 - (b0 + 63).leading_zeros() > 64 {
            let b: [u64; LANES] = core::array::from_fn(|i| b0 + i as u64);
            self.record_block_u64(&[a; LANES], &b, approx, valid);
            return;
        }
        let mut exact = [0u64; LANES];
        let mut ed = [0u64; LANES];
        let mut product = a * b0;
        for i in 0..LANES {
            exact[i] = product;
            ed[i] = product.abs_diff(approx[i]);
            // Wraps only past the last lane.
            product = product.wrapping_add(a);
        }
        self.record_lanes(&ed, &exact, |i| (u128::from(a), u128::from(b0 + i as u64)));
    }

    /// [`ErrorAccumulator::record_block_i64`] for one full block of an
    /// exhaustive signed row: lane `i` multiplied `a × (b_first + i)`.
    pub(crate) fn record_signed_row_block(&mut self, a: i64, b_first: i64, approx: &[i64; LANES]) {
        let b: [i64; LANES] = core::array::from_fn(|i| b_first + i as i64);
        let bits = |x: i64| 64 - x.unsigned_abs().leading_zeros();
        if bits(a) + bits(b_first).max(bits(b[LANES - 1])) > 63 {
            self.record_block_i64(&[a; LANES], &b, approx, LANES);
            return;
        }
        let mut magnitude = [0u64; LANES];
        let mut ed = [0u64; LANES];
        let mut product = a * b_first;
        for i in 0..LANES {
            magnitude[i] = product.unsigned_abs();
            ed[i] = product.abs_diff(approx[i]);
            // Wraps only past the last lane.
            product = product.wrapping_add(a);
        }
        self.record_lanes(&ed, &magnitude, |i| {
            (i128::from(a) as u128, i128::from(b[i]) as u128)
        });
    }

    /// The signed twin of [`ErrorAccumulator::record_block_u64`]: lane `i`
    /// multiplied `a[i] × b[i]` to `approx[i]`, recorded as by
    /// [`ErrorAccumulator::record_i64`].
    ///
    /// # Panics
    ///
    /// Panics if `valid > 64`.
    pub fn record_block_i64(
        &mut self,
        a: &[i64; LANES],
        b: &[i64; LANES],
        approx: &[i64; LANES],
        valid: usize,
    ) {
        assert!(valid <= LANES, "a block holds at most {LANES} lanes");
        let magnitude_or = |x: &[i64; LANES]| x.iter().fold(0, |acc, v| acc | v.unsigned_abs());
        // |a·b| < 2^63, so every product fits i64.
        let narrow = magnitude_or(a).leading_zeros() + magnitude_or(b).leading_zeros() >= 65;
        if valid < LANES || !narrow {
            for i in 0..valid {
                self.record_i64(
                    i128::from(a[i]) * i128::from(b[i]),
                    i128::from(approx[i]),
                    (a[i], b[i]),
                );
            }
            return;
        }
        let mut magnitude = [0u64; LANES];
        let mut ed = [0u64; LANES];
        for i in 0..LANES {
            let exact = a[i] * b[i];
            magnitude[i] = exact.unsigned_abs();
            ed[i] = exact.abs_diff(approx[i]);
        }
        self.record_lanes(&ed, &magnitude, |i| {
            (i128::from(a[i]) as u128, i128::from(b[i]) as u128)
        });
    }

    /// The shared lane-wise body of the block recorders: lane `i` has error
    /// distance `ed[i]` against an exact product of magnitude
    /// `magnitude[i]`.
    fn record_lanes(
        &mut self,
        ed: &[u64; LANES],
        magnitude: &[u64; LANES],
        operands: impl Fn(usize) -> (u128, u128),
    ) {
        self.samples += LANES as u64;
        // Below 2^52 both conversions to f64 can take the exact
        // SIMD-friendly route, and 64 distances cannot overflow a u64 sum.
        let small = (or_lanes(ed) | or_lanes(magnitude)) < 1 << 52;
        let BlockStats {
            red,
            red_sq,
            errors,
            undefined,
            ed_sum,
        } = if small {
            block_stats::<true>(ed, magnitude)
        } else {
            block_stats::<false>(ed, magnitude)
        };
        if errors == 0 {
            return;
        }
        self.errors += errors;
        self.undefined_red += undefined;
        self.sum_ed.add(ed_sum);
        // u64 → f64 is monotone, so the largest ED converts once.
        self.max_ed = self.max_ed.max(max_lanes(ed) as f64);
        self.sum_red.add_lanes(&red);
        self.sum_red_sq.add_lanes(&red_sq);
        let block_max = max_lanes(&red);
        if block_max > 0.0 && block_max >= self.max_red {
            let worst = (0..LANES)
                .filter(|&i| red[i] == block_max)
                .map(&operands)
                .min()
                .expect("some lane holds the block maximum");
            self.offer_worst(block_max, worst);
        }
    }

    /// Number of samples recorded so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Combines a partial accumulator (e.g. from another thread) into this
    /// one. Exact: merging in any order or tree shape gives the same
    /// result as recording every pair into one accumulator.
    pub fn merge(&mut self, other: &ErrorAccumulator) {
        self.samples += other.samples;
        self.errors += other.errors;
        self.undefined_red += other.undefined_red;
        self.sum_ed.merge(&other.sum_ed);
        self.sum_red.merge(&other.sum_red);
        self.sum_red_sq.merge(&other.sum_red_sq);
        self.max_ed = self.max_ed.max(other.max_ed);
        if let Some(operands) = other.worst_red_operands {
            self.offer_worst(other.max_red, operands);
        }
    }

    /// Finalizes the statistics given `Pmax = (2^N − 1)²`.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `pmax` is zero.
    #[must_use]
    pub fn finish(&self, pmax: U256) -> ErrorMetrics {
        self.finish_inner(pmax, false)
    }

    /// [`ErrorAccumulator::finish`] for a stream recorded through
    /// [`ErrorAccumulator::record_i64`]: `pmax` is the signed product
    /// magnitude ceiling `(2^{N−1})²` and the metrics carry the
    /// [`ErrorMetrics::signed`] marker, making the worst-operand pair
    /// decodable as two's complement.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `pmax` is zero.
    #[must_use]
    pub fn finish_signed(&self, pmax: U256) -> ErrorMetrics {
        self.finish_inner(pmax, true)
    }

    fn finish_inner(&self, pmax: U256, signed: bool) -> ErrorMetrics {
        assert!(self.samples > 0, "cannot finish an empty accumulator");
        assert!(!pmax.is_zero(), "Pmax must be positive");
        let n = self.samples as f64;
        let red_n = (self.samples - self.undefined_red) as f64;
        let med = self.sum_ed.to_f64() / n;
        let error_rate = self.errors as f64 / n;
        let mred = if red_n > 0.0 {
            self.sum_red.sum() / red_n
        } else {
            0.0
        };
        // Standard errors of the sample means (exact sweeps report them
        // too; they are then the finite-population values of a hypothetical
        // redraw, still useful as scale indicators).
        let mred_variance = if red_n > 1.0 {
            ((self.sum_red_sq.sum() / red_n) - mred * mred).max(0.0)
        } else {
            0.0
        };
        ErrorMetrics {
            samples: self.samples,
            error_rate,
            mred,
            med,
            nmed: med / pmax.to_f64(),
            max_red: self.max_red,
            max_ed: self.max_ed,
            mred_std_error: if red_n > 0.0 {
                (mred_variance / red_n).sqrt()
            } else {
                0.0
            },
            er_std_error: (error_rate * (1.0 - error_rate) / n).sqrt(),
            undefined_red_count: self.undefined_red,
            worst_red_operands: self.worst_red_operands,
            signed,
        }
    }
}

/// Finished error statistics for one multiplier configuration.
///
/// Field meanings follow the paper's Section III; `mred`, `error_rate` and
/// `max_red` are fractions in `[0, 1]` (multiply by 100 for the paper's
/// percentage tables).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMetrics {
    /// Number of operand pairs evaluated.
    pub samples: u64,
    /// ER — fraction of pairs with `P′ ≠ P`.
    pub error_rate: f64,
    /// MRED — mean relative error distance.
    pub mred: f64,
    /// MED — mean error distance (absolute).
    pub med: f64,
    /// NMED — MED normalized by `Pmax`.
    pub nmed: f64,
    /// Largest observed RED.
    pub max_red: f64,
    /// Largest observed ED.
    pub max_ed: f64,
    /// Standard error of the MRED estimate (Monte-Carlo uncertainty).
    pub mred_std_error: f64,
    /// Standard error of the ER estimate (binomial).
    pub er_std_error: f64,
    /// Wrong products whose exact product was zero (RED undefined;
    /// excluded from `mred`/`max_red`, included in ER/ED statistics).
    pub undefined_red_count: u64,
    /// Operand pair achieving `max_red`, if any error was seen. For
    /// signed runs these are full-width two's-complement patterns; decode
    /// them with [`ErrorMetrics::worst_red_operands_signed`].
    pub worst_red_operands: Option<(u128, u128)>,
    /// Whether the operand domain was signed (recorded through
    /// [`ErrorAccumulator::record_i64`] / finished with
    /// [`ErrorAccumulator::finish_signed`]): the sweep covered
    /// `[-2^{N-1}, 2^{N-1})²` and `Pmax = (2^{N-1})²`.
    pub signed: bool,
}

impl ErrorMetrics {
    /// The worst-RED operand pair of a signed run, decoded from the
    /// two's-complement patterns (`None` for unsigned runs or when no
    /// error was seen).
    #[must_use]
    pub fn worst_red_operands_signed(&self) -> Option<(i128, i128)> {
        if !self.signed {
            return None;
        }
        self.worst_red_operands.map(|(a, b)| (a as i128, b as i128))
    }
}

impl fmt::Display for ErrorMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MRED {:.5}%  NMED {:.6}  ER {:.2}%  MAX(RED) {:.4}%  ({} samples{})",
            self.mred * 100.0,
            self.nmed,
            self.error_rate * 100.0,
            self.max_red * 100.0,
            self.samples,
            if self.signed { ", signed" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_stream_has_zero_errors() {
        let mut acc = ErrorAccumulator::new();
        for x in 1..100u128 {
            acc.record_u64(x, x, (x as u64, 1));
        }
        let m = acc.finish(U256::from_u64(10000));
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.mred, 0.0);
        assert_eq!(m.nmed, 0.0);
        assert_eq!(m.max_red, 0.0);
        assert!(m.worst_red_operands.is_none());
    }

    #[test]
    fn single_error_metrics() {
        let mut acc = ErrorAccumulator::new();
        acc.record_u64(10, 7, (5, 2));
        acc.record_u64(10, 10, (5, 2));
        let m = acc.finish(U256::from_u64(100));
        assert_eq!(m.samples, 2);
        assert_eq!(m.error_rate, 0.5);
        assert!((m.mred - 0.15).abs() < 1e-12); // (3/10)/2
        assert!((m.med - 1.5).abs() < 1e-12);
        assert!((m.nmed - 0.015).abs() < 1e-12);
        assert!((m.max_red - 0.3).abs() < 1e-12);
        assert_eq!(m.worst_red_operands, Some((5, 2)));
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = ErrorAccumulator::new();
        let mut b = ErrorAccumulator::new();
        let mut whole = ErrorAccumulator::new();
        for i in 1..50u128 {
            let approx = i * i - (i % 3);
            a.record_u64(i * i, approx, (i as u64, i as u64));
            whole.record_u64(i * i, approx, (i as u64, i as u64));
        }
        for i in 50..100u128 {
            let approx = i * i - (i % 7);
            b.record_u64(i * i, approx, (i as u64, i as u64));
            whole.record_u64(i * i, approx, (i as u64, i as u64));
        }
        let pmax = U256::from_u64(99 * 99);
        // Exact sums: merging in either direction equals one stream.
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a.finish(pmax), whole.finish(pmax));
        assert_eq!(ba.finish(pmax), whole.finish(pmax));
    }

    #[test]
    fn row_blocks_match_per_pair_records() {
        let pmax = U256::from_u128(u128::MAX);
        // Rows whose products fit u64 take the stepping path; the last
        // two overflow it and fall back to exact per-pair records.
        for (a, b0) in [
            (0u64, 0u64),
            (77, 4096),
            (0xFFFF_FFFF, 1 << 31),
            (1 << 40, 1 << 30),
        ] {
            let approx: [u64; LANES] =
                core::array::from_fn(|i| a.wrapping_mul(b0 + i as u64) ^ (i as u64 % 5));
            let mut rows = ErrorAccumulator::new();
            rows.record_row_block(a, b0, &approx, LANES);
            let mut pairs = ErrorAccumulator::new();
            for (i, &p) in approx.iter().enumerate() {
                let b = b0 + i as u64;
                pairs.record_u64(u128::from(a) * u128::from(b), u128::from(p), (a, b));
            }
            assert_eq!(rows.finish(pmax), pairs.finish(pmax), "a {a} b0 {b0}");
        }
        for (a, b_first) in [(-3i64, -64i64), (1 << 20, 1 << 30), (-(1 << 40), 1 << 30)] {
            let approx: [i64; LANES] =
                core::array::from_fn(|i| a.wrapping_mul(b_first + i as i64) ^ (i as i64 % 3));
            let mut rows = ErrorAccumulator::new();
            rows.record_signed_row_block(a, b_first, &approx);
            let mut pairs = ErrorAccumulator::new();
            for (i, &p) in approx.iter().enumerate() {
                let b = b_first + i as i64;
                pairs.record_i64(i128::from(a) * i128::from(b), i128::from(p), (a, b));
            }
            assert_eq!(rows.finish_signed(pmax), pairs.finish_signed(pmax), "a {a}");
        }
    }

    #[test]
    fn wide_and_narrow_paths_agree() {
        let mut narrow = ErrorAccumulator::new();
        let mut wide = ErrorAccumulator::new();
        let cases = [(100u128, 90u128), (17, 17), (255 * 255, 255 * 254)];
        for &(p, q) in &cases {
            narrow.record_u64(p, q, (1, 1));
            wide.record(&U256::from_u128(p), &U256::from_u128(q), (1, 1));
        }
        let pmax = U256::from_u64(255 * 255);
        let a = narrow.finish(pmax);
        let b = wide.finish(pmax);
        assert!((a.mred - b.mred).abs() < 1e-12);
        assert!((a.nmed - b.nmed).abs() < 1e-12);
        assert_eq!(a.error_rate, b.error_rate);
    }

    #[test]
    #[should_panic(expected = "empty accumulator")]
    fn finish_empty_panics() {
        let _ = ErrorAccumulator::new().finish(U256::ONE);
    }

    #[test]
    fn standard_errors_shrink_with_sample_count() {
        let run = |n: u64| {
            let mut acc = ErrorAccumulator::new();
            for i in 0..n {
                // Half the samples err with RED = 0.2.
                if i % 2 == 0 {
                    acc.record_u64(10, 8, (1, 1));
                } else {
                    acc.record_u64(10, 10, (1, 1));
                }
            }
            acc.finish(U256::from_u64(100))
        };
        let small = run(100);
        let large = run(10_000);
        assert!(small.er_std_error > large.er_std_error * 5.0);
        assert!(small.mred_std_error > large.mred_std_error * 5.0);
        // Binomial check: p = 0.5 at n = 100 → 0.05.
        assert!((small.er_std_error - 0.05).abs() < 1e-12);
    }

    #[test]
    fn signed_records_mirror_unsigned_magnitudes() {
        // Same magnitudes, all four sign quadrants: the signed statistics
        // must equal the unsigned ones computed on the magnitudes.
        let mut unsigned = ErrorAccumulator::new();
        let mut signed = ErrorAccumulator::new();
        for (exact, approx) in [(100i128, 90i128), (17, 17), (55, 48)] {
            unsigned.record_u64(exact as u128, approx as u128, (5, 20));
            for (sa, sb) in [(1i128, 1i128), (-1, 1), (1, -1), (-1, -1)] {
                let sign = sa * sb;
                signed.record_i64(exact * sign, approx * sign, (5 * sa as i64, 20 * sb as i64));
            }
        }
        let pmax = U256::from_u64(1 << 14);
        let u = unsigned.finish(pmax);
        let s = signed.finish_signed(pmax);
        assert!(!u.signed && s.signed);
        assert_eq!(s.samples, 4 * u.samples);
        assert_eq!(s.error_rate, u.error_rate);
        // Four copies of each term: the exact sums scale by exactly 4.
        assert_eq!(s.mred, u.mred);
        assert_eq!(s.med, u.med);
        assert_eq!(s.max_red, u.max_red);
        assert_eq!(u.worst_red_operands_signed(), None);
        assert_eq!(s.worst_red_operands_signed(), Some((5, 20)));
        assert!(s.to_string().contains("signed"), "{s}");
        assert!(!u.to_string().contains("signed"), "{u}");
    }

    #[test]
    fn signed_zero_product_errors_have_undefined_red() {
        let mut acc = ErrorAccumulator::new();
        acc.record_i64(0, -3, (-1, 0));
        acc.record_i64(-10, -8, (5, -2));
        let m = acc.finish_signed(U256::from_u64(100));
        assert_eq!(m.undefined_red_count, 1);
        assert_eq!(m.error_rate, 1.0);
        assert!((m.max_red - 0.2).abs() < 1e-15);
        assert_eq!(m.worst_red_operands_signed(), Some((5, -2)));
    }

    #[test]
    fn display_mentions_all_metrics() {
        let mut acc = ErrorAccumulator::new();
        acc.record_u64(10, 9, (5, 2));
        let text = acc.finish(U256::from_u64(100)).to_string();
        for needle in ["MRED", "NMED", "ER", "MAX(RED)"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
