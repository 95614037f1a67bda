//! Exhaustive and Monte-Carlo error evaluation drivers.
//!
//! The paper evaluates "all possible combinations of operands" (Section
//! III). That is 2^{2N} pairs — trivial up to 12 bits, 4.3 G pairs at
//! 16 bits. [`exhaustive`] sweeps every pair in parallel; [`sampled`] draws
//! a seeded uniform sample for the widths where exhaustion is unreasonable
//! on a laptop. Both drivers are deterministic: thread count never changes
//! the result, and sampling depends only on the seed.
//!
//! Every driver runs on one of two [`Engine`]s: the scalar path calls
//! [`Multiplier::multiply_u64`] once per pair, while the bit-sliced path
//! evaluates 64 pairs per pass through the transposed bit-plane models of
//! [`crate::batch`] and records them lane-wise
//! ([`ErrorAccumulator::record_block_u64`]). The products are bit-exact
//! twins and [`ErrorAccumulator`] sums exactly, independent of recording
//! order, so both engines — at any thread count — return bit-identical
//! [`ErrorMetrics`]; the bit-sliced engine is a pure speedup that also
//! raises the exhaustive ceiling to [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]
//! bits.

use core::fmt;

use sdlc_wideint::{bitplane, SplitMix64};

use crate::batch::{BatchMultiplier, Batchable, BATCH_MAX_WIDTH, LANES};
use crate::error::metrics::{ErrorAccumulator, ErrorMetrics};
use crate::multiplier::Multiplier;

/// Which evaluation engine a driver runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// One [`Multiplier::multiply_u64`] call per operand pair.
    #[default]
    Scalar,
    /// 64 pairs per pass through the bit-sliced [`crate::batch`] models.
    BitSliced,
}

impl Engine {
    /// Short identifier used in reports and CLI flags.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::BitSliced => "bitsliced",
        }
    }
}

impl core::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "bitsliced" => Ok(Engine::BitSliced),
            other => Err(format!(
                "unknown engine {other:?}; expected \"scalar\" or \"bitsliced\""
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Errors reported by the evaluation drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Exhaustive evaluation was requested for a width whose 2^{2N} space
    /// is too large to sweep.
    WidthTooLarge {
        /// Requested width.
        width: u32,
        /// Largest width the driver accepts.
        limit: u32,
    },
    /// A sample count of zero was requested.
    NoSamples,
    /// The bit-sliced engine was asked to evaluate a model wider than its
    /// 64-lane plane stack supports.
    UnsupportedWidth {
        /// Requested width.
        width: u32,
        /// Largest width the bit-sliced engine accepts.
        limit: u32,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::WidthTooLarge { width, limit } => write!(
                f,
                "exhaustive evaluation of a {width}-bit multiplier needs 2^{} cases; \
                 the driver accepts at most {limit}-bit",
                2 * width
            ),
            EvalError::NoSamples => write!(f, "sample count must be positive"),
            EvalError::UnsupportedWidth { width, limit } => write!(
                f,
                "the bit-sliced engine supports models up to {limit}-bit, got {width}-bit"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Largest width accepted by the scalar [`exhaustive`] (2^32 cases,
/// ≈ minutes of CPU).
pub const EXHAUSTIVE_WIDTH_LIMIT: u32 = 16;

/// Largest width accepted by [`exhaustive_bitsliced`]: the 64-lane engine
/// turns the 16-bit full sweep from minutes into seconds, which raises the
/// practical ceiling to 20 bits (2^40 cases, ≈ minutes again).
pub const BITSLICED_EXHAUSTIVE_WIDTH_LIMIT: u32 = 20;

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every parallel driver (scalar and bit-sliced, metrics and histogram)
/// partitions and merges through the one shared splitter in
/// `sdlc-wideint`, as do the compiled-engine equivalence checks in
/// `sdlc-sim`. The sampled drivers' fixed 256-shard layout keeps their
/// draws thread-count independent; the exact accumulators make every
/// merge order give the same metrics.
pub(crate) use sdlc_wideint::parallel::{parallel_chunks, parallel_shard_chunks};

/// Exhaustively evaluates every operand pair of an `N ≤ 16` bit multiplier
/// using all available cores.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`EXHAUSTIVE_WIDTH_LIMIT`] bits.
pub fn exhaustive<M>(multiplier: &M) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    exhaustive_with_threads(multiplier, default_threads())
}

/// [`exhaustive`] with an explicit worker-thread count (the count only
/// partitions the sweep: the exact accumulation makes the result
/// bit-identical for every count).
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`EXHAUSTIVE_WIDTH_LIMIT`] bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn exhaustive_with_threads<M>(multiplier: &M, threads: usize) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    assert!(threads > 0, "thread count must be positive");
    let width = multiplier.width();
    if width > EXHAUSTIVE_WIDTH_LIMIT {
        return Err(EvalError::WidthTooLarge {
            width,
            limit: EXHAUSTIVE_WIDTH_LIMIT,
        });
    }
    let count: u64 = 1u64 << width;
    let partials = parallel_chunks(count, threads, |lo, hi| {
        let mut acc = ErrorAccumulator::new();
        let mut approx = [0u64; LANES];
        for a in lo..hi {
            for b0 in (0..count).step_by(LANES) {
                let valid = (count - b0).min(LANES as u64) as usize;
                for (i, p) in approx.iter_mut().enumerate().take(valid) {
                    // Products of models up to 16 bits fit a u64.
                    *p = multiplier.multiply_u64(a, b0 + i as u64) as u64;
                }
                acc.record_row_block(a, b0, &approx, valid);
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish(multiplier.max_product()))
}

/// [`exhaustive`] dispatched on an [`Engine`]; both engines return
/// bit-identical [`ErrorMetrics`] wherever both accept the width.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above the selected engine's width
/// limit ([`EXHAUSTIVE_WIDTH_LIMIT`] or
/// [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]).
pub fn exhaustive_with_engine<M>(multiplier: &M, engine: Engine) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    match engine {
        Engine::Scalar => exhaustive(multiplier),
        Engine::BitSliced => exhaustive_bitsliced(multiplier),
    }
}

/// Exhaustively evaluates every operand pair through the bit-sliced
/// 64-lane engine, recording each block lane-wise; the resulting
/// [`ErrorMetrics`] are bit-identical to [`exhaustive`]'s, at a fraction
/// of the cost.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`] bits.
pub fn exhaustive_bitsliced<M>(multiplier: &M) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    exhaustive_bitsliced_with_threads(multiplier, default_threads())
}

/// [`exhaustive_bitsliced`] with an explicit worker-thread count (as with
/// the scalar driver, the count only partitions the sweep; results are
/// bit-identical for every count).
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`] bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn exhaustive_bitsliced_with_threads<M>(
    multiplier: &M,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    assert!(threads > 0, "thread count must be positive");
    let width = multiplier.width();
    if width > BITSLICED_EXHAUSTIVE_WIDTH_LIMIT {
        return Err(EvalError::WidthTooLarge {
            width,
            limit: BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
        });
    }
    let count: u64 = 1u64 << width;
    let partials = parallel_chunks(count, threads, |lo, hi| {
        let batch = multiplier.batch_model();
        let mut acc = ErrorAccumulator::new();
        sweep_blocks(&batch, lo, hi, count, |a, b0, valid, approx| {
            acc.record_row_block(a, b0, approx, valid);
        });
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish(multiplier.max_product()))
}

/// Walks the `[lo, hi) × [0, count)` operand rectangle in 64-lane blocks
/// through a bit-sliced model, handing each block's un-transposed products
/// to `visit(a, b0, valid, products)`. The exhaustive drivers (metrics and
/// histogram) share this loop.
pub(crate) fn sweep_blocks<B: BatchMultiplier>(
    batch: &B,
    lo: u64,
    hi: u64,
    count: u64,
    mut visit: impl FnMut(u64, u64, usize, &[u64; LANES]),
) {
    let width = batch.width();
    let planes = width as usize;
    let mut approx = [0u64; LANES];
    if count >= LANES as u64 {
        for a in lo..hi {
            batch.sweep_operand_row(a, count, &mut |b0, product| {
                crate::batch::extract_product_lanes(product, &mut approx);
                visit(a, b0, LANES, &approx);
            });
        }
    } else {
        // Fewer pairs than lanes (widths 2 and 4): transpose one
        // zero-padded block per `a` and ignore the idle lanes.
        let valid = count as usize;
        let lanes: [u64; LANES] = core::array::from_fn(|i| if i < valid { i as u64 } else { 0 });
        let b_planes = bitplane::transposed64(&lanes);
        let mut product = [0u64; LANES];
        for a in lo..hi {
            batch.multiply_planes_bcast(a, &b_planes[..planes], &mut product[..2 * planes]);
            crate::batch::extract_product_lanes(&product[..2 * planes], &mut approx);
            visit(a, 0, valid, &approx);
        }
    }
}

/// Evaluates `samples` uniformly random operand pairs (seeded, parallel,
/// deterministic for a given `(seed, samples)` regardless of thread count).
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`.
pub fn sampled<M>(multiplier: &M, samples: u64, seed: u64) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    sampled_with_threads(multiplier, samples, seed, default_threads())
}

/// [`sampled`] with an explicit thread count.
///
/// Each worker draws from an independent SplitMix64 stream derived from the
/// seed and its worker index, so the union of draws is a pure function of
/// `(seed, samples, threads→partitioning)`; we fix the partitioning as a
/// function of `samples` only, making results thread-count independent.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn sampled_with_threads<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    assert!(threads > 0, "thread count must be positive");
    if samples == 0 {
        return Err(EvalError::NoSamples);
    }
    let width = multiplier.width();
    // Fixed logical partitioning: 256 shards, each with its own substream.
    const SHARDS: u64 = 256;
    let per_shard = samples.div_ceil(SHARDS);
    let shard_list: Vec<u64> = (0..SHARDS).collect();
    let partials = parallel_shard_chunks(&shard_list, threads, |shards| {
        let mut acc = ErrorAccumulator::new();
        for &shard in shards {
            let mut rng = SplitMix64::new(seed ^ (shard.wrapping_mul(0x9e37_79b9)));
            let begin = shard * per_shard;
            let end = (begin + per_shard).min(samples);
            if width <= 32 {
                let (mut a, mut b, mut approx) = ([0u64; LANES], [0u64; LANES], [0u64; LANES]);
                let mut n = begin;
                while n < end {
                    let valid = (end - n).min(LANES as u64) as usize;
                    for i in 0..valid {
                        a[i] = rng.next_bits(width);
                        b[i] = rng.next_bits(width);
                        approx[i] = multiplier.multiply_u64(a[i], b[i]) as u64;
                    }
                    acc.record_block_u64(&a, &b, &approx, valid);
                    n += valid as u64;
                }
            } else {
                for _ in begin..end {
                    let a = draw_u128(&mut rng, width);
                    let b = draw_u128(&mut rng, width);
                    let exact = sdlc_wideint::U256::from_u128(a)
                        .wrapping_mul(&sdlc_wideint::U256::from_u128(b));
                    let approx = multiplier.multiply(a, b);
                    acc.record(&exact, &approx, (a, b));
                }
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish(multiplier.max_product()))
}

/// [`sampled`] dispatched on an [`Engine`]; for widths both engines
/// accept, the draws are identical and the accumulation exact, so the
/// metrics are bit-identical.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] if the bit-sliced engine was selected
/// for a model wider than 32 bits.
pub fn sampled_with_engine<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    engine: Engine,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    match engine {
        Engine::Scalar => sampled(multiplier, samples, seed),
        Engine::BitSliced => sampled_bitsliced(multiplier, samples, seed),
    }
}

/// [`sampled`] through the bit-sliced 64-lane engine: same SplitMix64
/// shard streams, each 64-draw block recorded lane-wise, bit-identical
/// [`ErrorMetrics`].
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits.
pub fn sampled_bitsliced<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    sampled_bitsliced_with_threads(multiplier, samples, seed, default_threads())
}

/// [`sampled_bitsliced`] with an explicit thread count (partitioning
/// only; the fixed 256-shard layout keeps results thread-count
/// independent, exactly like the scalar driver).
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn sampled_bitsliced_with_threads<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    assert!(threads > 0, "thread count must be positive");
    if samples == 0 {
        return Err(EvalError::NoSamples);
    }
    let width = multiplier.width();
    if width > BATCH_MAX_WIDTH {
        return Err(EvalError::UnsupportedWidth {
            width,
            limit: BATCH_MAX_WIDTH,
        });
    }
    const SHARDS: u64 = 256;
    let per_shard = samples.div_ceil(SHARDS);
    let shard_list: Vec<u64> = (0..SHARDS).collect();
    let partials = parallel_shard_chunks(&shard_list, threads, |shards| {
        let batch = multiplier.batch_model();
        let mut acc = ErrorAccumulator::new();
        let mut a_lanes = [0u64; LANES];
        let mut b_lanes = [0u64; LANES];
        let mut approx = [0u64; LANES];
        let mut product = [0u64; LANES];
        let planes = width as usize;
        for &shard in shards {
            let mut rng = SplitMix64::new(seed ^ (shard.wrapping_mul(0x9e37_79b9)));
            let begin = shard * per_shard;
            let end = (begin + per_shard).min(samples);
            let mut n = begin;
            while n < end {
                let valid = (end - n).min(LANES as u64) as usize;
                for i in 0..valid {
                    a_lanes[i] = rng.next_bits(width);
                    b_lanes[i] = rng.next_bits(width);
                }
                a_lanes[valid..].fill(0);
                b_lanes[valid..].fill(0);
                let a_planes = operand_planes(&a_lanes, width);
                let b_planes = operand_planes(&b_lanes, width);
                batch.multiply_planes(
                    &a_planes[..planes],
                    &b_planes[..planes],
                    &mut product[..2 * planes],
                );
                crate::batch::extract_product_lanes(&product[..2 * planes], &mut approx);
                acc.record_block_u64(&a_lanes, &b_lanes, &approx, valid);
                n += valid as u64;
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish(multiplier.max_product()))
}

/// Transposes 64 lane-form operands into `width` bit-planes, picking the
/// cheapest block network that fits.
fn operand_planes(lanes: &[u64; LANES], width: u32) -> [u64; BATCH_MAX_WIDTH as usize] {
    let mut out = [0u64; BATCH_MAX_WIDTH as usize];
    if width <= 16 {
        let narrow: [u16; LANES] = core::array::from_fn(|i| lanes[i] as u16);
        out[..16].copy_from_slice(&bitplane::planes_from_lanes16(&narrow));
    } else {
        let narrow: [u32; LANES] = core::array::from_fn(|i| lanes[i] as u32);
        out.copy_from_slice(&bitplane::planes_from_lanes32(&narrow));
    }
    out
}

fn draw_u128(rng: &mut SplitMix64, width: u32) -> u128 {
    if width <= 64 {
        u128::from(rng.next_bits(width))
    } else {
        let high = rng.next_bits(width - 64);
        let low = rng.next_u64();
        (u128::from(high) << 64) | u128::from(low)
    }
}

/// Evaluates error metrics under a *caller-supplied operand distribution*
/// instead of the uniform one — real workloads (image pixels against a
/// handful of kernel weights, filter taps, …) exercise very different dot
/// patterns, and SDLC's error profile depends on which bits collide (see
/// the Figure 8 kernel-sensitivity notes in `EXPERIMENTS.md`).
///
/// `draw` receives a seeded PRNG and the sample index and returns the
/// operand pair; single-threaded and deterministic in `seed`.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`.
///
/// # Panics
///
/// Panics (through the multiplier) if `draw` emits operands beyond the
/// multiplier's width.
///
/// # Examples
///
/// ```
/// use sdlc_core::error::sampled_with_operands;
/// use sdlc_core::SdlcMultiplier;
///
/// let m = SdlcMultiplier::new(8, 2)?;
/// // Image-like workload: pixel × one of three kernel weights.
/// let weights = [164u64, 204, 255];
/// let metrics = sampled_with_operands(&m, 10_000, 1, |rng, _| {
///     (rng.next_bits(8), weights[rng.next_below(3) as usize])
/// })
/// .unwrap();
/// assert!(metrics.mred < 0.05);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
pub fn sampled_with_operands<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    mut draw: impl FnMut(&mut SplitMix64, u64) -> (u64, u64),
) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier,
{
    if samples == 0 {
        return Err(EvalError::NoSamples);
    }
    assert!(
        multiplier.width() <= 32,
        "distribution evaluation uses the u64 fast path"
    );
    let mut rng = SplitMix64::new(seed);
    let mut acc = ErrorAccumulator::new();
    for i in 0..samples {
        let (a, b) = draw(&mut rng, i);
        let exact = u128::from(a) * u128::from(b);
        let approx = multiplier.multiply_u64(a, b);
        acc.record_u64(exact, approx, (a, b));
    }
    Ok(acc.finish(multiplier.max_product()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccurateMultiplier, SdlcMultiplier};

    #[test]
    fn accurate_multiplier_has_no_error() {
        let m = AccurateMultiplier::new(8).unwrap();
        let metrics = exhaustive(&m).unwrap();
        assert_eq!(metrics.error_rate, 0.0);
        assert_eq!(metrics.mred, 0.0);
        assert_eq!(metrics.samples, 1 << 16);
    }

    #[test]
    fn exhaustive_is_thread_count_invariant() {
        let m = SdlcMultiplier::new(6, 2).unwrap();
        let one = exhaustive_with_threads(&m, 1).unwrap();
        for threads in [2, 7] {
            assert_eq!(one, exhaustive_with_threads(&m, threads).unwrap());
        }
    }

    #[test]
    fn sampled_is_thread_count_invariant() {
        let m = SdlcMultiplier::new(12, 2).unwrap();
        let one = sampled_with_threads(&m, 40_000, 42, 1).unwrap();
        for threads in [2, 5] {
            assert_eq!(one, sampled_with_threads(&m, 40_000, 42, threads).unwrap());
        }
    }

    #[test]
    fn sampled_approaches_exhaustive() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        let exact = exhaustive(&m).unwrap();
        let sample = sampled(&m, 400_000, 7).unwrap();
        assert!(
            (exact.error_rate - sample.error_rate).abs() < 0.01,
            "ER {} vs {}",
            exact.error_rate,
            sample.error_rate
        );
        assert!((exact.mred - sample.mred).abs() / exact.mred < 0.05);
    }

    #[test]
    fn rejects_oversized_exhaustive() {
        let m = SdlcMultiplier::new(32, 2).unwrap();
        let err = exhaustive(&m).unwrap_err();
        assert!(matches!(err, EvalError::WidthTooLarge { width: 32, .. }));
        assert!(err.to_string().contains("32-bit"));
    }

    #[test]
    fn bitsliced_exhaustive_is_bit_identical_to_scalar() {
        for depth in [2u32, 3, 4] {
            let m = SdlcMultiplier::new(8, depth).unwrap();
            let scalar = exhaustive_with_threads(&m, 3).unwrap();
            let bitsliced = exhaustive_bitsliced_with_threads(&m, 3).unwrap();
            assert_eq!(scalar, bitsliced, "depth {depth}");
        }
        // Tiny widths exercise the partial-block path (count < 64 lanes).
        for width in [2u32, 4] {
            let m = SdlcMultiplier::new(width, 2).unwrap();
            assert_eq!(
                exhaustive_with_threads(&m, 2).unwrap(),
                exhaustive_bitsliced_with_threads(&m, 2).unwrap(),
                "width {width}"
            );
        }
    }

    #[test]
    fn bitsliced_exhaustive_is_thread_count_invariant() {
        let m = SdlcMultiplier::new(6, 3).unwrap();
        let one = exhaustive_bitsliced_with_threads(&m, 1).unwrap();
        for threads in [2, 7] {
            assert_eq!(one, exhaustive_bitsliced_with_threads(&m, threads).unwrap());
        }
    }

    #[test]
    fn bitsliced_sampled_is_bit_identical_to_scalar() {
        let m = SdlcMultiplier::new(12, 3).unwrap();
        let scalar = sampled_with_threads(&m, 40_000, 42, 4).unwrap();
        let bitsliced = sampled_bitsliced_with_threads(&m, 40_000, 42, 4).unwrap();
        assert_eq!(scalar, bitsliced);
        // ETM errs on exact-zero products; the undefined-RED path must
        // agree too.
        let etm = crate::baselines::EtmMultiplier::new(8).unwrap();
        let scalar = sampled_with_threads(&etm, 20_000, 7, 4).unwrap();
        let bitsliced = sampled_bitsliced_with_threads(&etm, 20_000, 7, 4).unwrap();
        assert_eq!(scalar, bitsliced);
        assert!(scalar.undefined_red_count > 0);
    }

    #[test]
    fn engine_dispatch_and_parsing() {
        let m = SdlcMultiplier::new(6, 2).unwrap();
        assert_eq!(
            exhaustive_with_engine(&m, Engine::Scalar).unwrap(),
            exhaustive_with_engine(&m, Engine::BitSliced).unwrap()
        );
        assert_eq!(
            sampled_with_engine(&m, 5000, 3, Engine::Scalar).unwrap(),
            sampled_with_engine(&m, 5000, 3, Engine::BitSliced).unwrap()
        );
        assert_eq!("scalar".parse::<Engine>().unwrap(), Engine::Scalar);
        assert_eq!("bitsliced".parse::<Engine>().unwrap(), Engine::BitSliced);
        assert_eq!(Engine::default(), Engine::Scalar);
        assert_eq!(Engine::BitSliced.to_string(), "bitsliced");
        assert!("turbo".parse::<Engine>().unwrap_err().contains("turbo"));
    }

    #[test]
    fn bitsliced_limits() {
        // 32-bit exhaustive exceeds even the raised bit-sliced limit.
        let m = SdlcMultiplier::new(32, 2).unwrap();
        let err = exhaustive_bitsliced(&m).unwrap_err();
        assert!(matches!(err, EvalError::WidthTooLarge { width: 32, limit }
                if limit == BITSLICED_EXHAUSTIVE_WIDTH_LIMIT));
        // Sampling through the bit-sliced engine caps at 32-bit models.
        let wide = SdlcMultiplier::new(64, 2).unwrap();
        let err = sampled_bitsliced(&wide, 100, 1).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedWidth { width: 64, .. }));
        assert!(err.to_string().contains("bit-sliced"));
        assert_eq!(
            sampled_bitsliced(&m, 0, 1).unwrap_err(),
            EvalError::NoSamples
        );
    }

    #[test]
    fn rejects_zero_samples() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        assert_eq!(sampled(&m, 0, 1).unwrap_err(), EvalError::NoSamples);
    }

    #[test]
    fn sampled_works_for_wide_multipliers() {
        let m = SdlcMultiplier::new(64, 2).unwrap();
        let metrics = sampled(&m, 4_000, 3).unwrap();
        assert!(metrics.error_rate > 0.9, "wide SDLC errs almost always");
        assert!(
            metrics.mred < 1e-3,
            "but relative error is tiny: {}",
            metrics.mred
        );
    }

    #[test]
    fn distribution_evaluation_differs_from_uniform() {
        let m = SdlcMultiplier::new(8, 3).unwrap();
        let uniform = exhaustive(&m).unwrap();
        // Kernel-weight workload (small Q0.8 weights): different collisions.
        let weights = [24u64, 30, 40];
        let workload = sampled_with_operands(&m, 200_000, 5, |rng, _| {
            (rng.next_bits(8), weights[rng.next_below(3) as usize])
        })
        .unwrap();
        let rel = (workload.mred - uniform.mred).abs() / uniform.mred;
        assert!(
            rel > 0.2,
            "workload MRED {} vs uniform {}",
            workload.mred,
            uniform.mred
        );
    }

    #[test]
    fn distribution_evaluation_matches_uniform_when_uniform() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        let exact = exhaustive(&m).unwrap();
        let sampled_uniform = sampled_with_operands(&m, 400_000, 9, |rng, _| {
            (rng.next_bits(8), rng.next_bits(8))
        })
        .unwrap();
        assert!((exact.mred - sampled_uniform.mred).abs() / exact.mred < 0.05);
        assert!((exact.error_rate - sampled_uniform.error_rate).abs() < 0.01);
    }

    #[test]
    fn distribution_evaluation_is_deterministic_and_validates() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        let draw = |rng: &mut sdlc_wideint::SplitMix64, _: u64| (rng.next_bits(8), 3u64);
        let a = sampled_with_operands(&m, 1000, 7, draw).unwrap();
        let b = sampled_with_operands(&m, 1000, 7, draw).unwrap();
        assert_eq!(a.mred, b.mred);
        assert_eq!(
            sampled_with_operands(&m, 0, 7, draw).unwrap_err(),
            EvalError::NoSamples
        );
    }
}
