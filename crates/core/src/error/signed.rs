//! Exhaustive and Monte-Carlo error evaluation over the signed domain.
//!
//! These drivers are the signed twins of [`crate::error::evaluate`]: the
//! same 2^{2N} pair space is swept, but the patterns are interpreted as
//! two's complement, errors are measured on the signed values
//! (`ED = |P − P′|`, `RED = ED / |P|`) and NMED is normalized by the
//! signed product ceiling `Pmax = (2^{N−1})²` (see
//! [`SignedMultiplier::max_product_magnitude`]).
//!
//! Pair order is the *pattern* order `0, 1, …, 2^N − 1` — i.e. the
//! non-negative half first, then the negative half — which is exactly the
//! unsigned drivers' order, and the worst-RED tie-break picks the first
//! pair in it. The bit-sliced engines record each 64-lane block at once
//! ([`ErrorAccumulator::record_block_i64`]); the accumulation is exact, so
//! scalar and bit-sliced engines agree bit for bit at any thread count,
//! just like the unsigned drivers.

use sdlc_wideint::SplitMix64;

use crate::batch::signed::sign_extend;
use crate::batch::{SignedBatchMultiplier, BATCH_MAX_WIDTH, LANES};
use crate::error::evaluate::{
    parallel_chunks, parallel_shard_chunks, Engine, EvalError, BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
    EXHAUSTIVE_WIDTH_LIMIT,
};
use crate::error::metrics::{ErrorAccumulator, ErrorMetrics};
use crate::signed::{SignedBatchable, SignedMultiplier};

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Exhaustively evaluates every signed operand pair of an `N ≤ 16` bit
/// multiplier using all available cores.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`EXHAUSTIVE_WIDTH_LIMIT`] bits.
pub fn exhaustive_signed<M>(multiplier: &M) -> Result<ErrorMetrics, EvalError>
where
    M: SignedMultiplier + Sync,
{
    exhaustive_signed_with_threads(multiplier, default_threads())
}

/// [`exhaustive_signed`] with an explicit worker-thread count (the count
/// only partitions the sweep; results never depend on it).
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`EXHAUSTIVE_WIDTH_LIMIT`] bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn exhaustive_signed_with_threads<M>(
    multiplier: &M,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedMultiplier + Sync,
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
        let mut approx = [0i64; LANES];
        for ua in lo..hi {
            let a = sign_extend(ua, width) as i64;
            for b0 in (0..count).step_by(LANES) {
                let valid = (count - b0).min(LANES as u64) as usize;
                for (i, p) in approx.iter_mut().enumerate().take(valid) {
                    let b = sign_extend(b0 + i as u64, width) as i64;
                    // Products of models up to 16 bits fit an i64.
                    *p = multiplier.multiply_i64(a, b) as i64;
                }
                record_signed_row(&mut acc, width, a, b0, &approx, valid);
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish_signed(multiplier.max_product_magnitude()))
}

/// [`exhaustive_signed`] dispatched on an [`Engine`]; both engines return
/// bit-identical [`ErrorMetrics`] wherever both accept the width.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above the selected engine's width
/// limit.
pub fn exhaustive_signed_with_engine<M>(
    multiplier: &M,
    engine: Engine,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
{
    match engine {
        Engine::Scalar => exhaustive_signed(multiplier),
        Engine::BitSliced => exhaustive_signed_bitsliced(multiplier),
    }
}

/// Exhaustively evaluates every signed operand pair through the bit-sliced
/// 64-lane engine, recording each block lane-wise; the resulting
/// [`ErrorMetrics`] are bit-identical to [`exhaustive_signed`]'s, at a
/// fraction of the cost.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`] bits.
pub fn exhaustive_signed_bitsliced<M>(multiplier: &M) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
{
    exhaustive_signed_bitsliced_with_threads(multiplier, default_threads())
}

/// [`exhaustive_signed_bitsliced`] with an explicit worker-thread count.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`] bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn exhaustive_signed_bitsliced_with_threads<M>(
    multiplier: &M,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
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
        let batch = multiplier.signed_batch_model();
        let mut acc = ErrorAccumulator::new();
        let mut approx = [0u64; LANES];
        if count >= LANES as u64 {
            for ua in lo..hi {
                batch.sweep_operand_row_signed(ua, count, &mut |b0, product| {
                    crate::batch::extract_product_lanes(product, &mut approx);
                    record_signed_block(&mut acc, width, ua, b0, LANES, &approx);
                });
            }
        } else {
            // Fewer patterns than lanes (widths 2 and 4): one zero-padded
            // block per row, idle lanes ignored.
            let valid = count as usize;
            let lanes: [u64; LANES] =
                core::array::from_fn(|i| if i < valid { i as u64 } else { 0 });
            let b_planes = sdlc_wideint::bitplane::transposed64(&lanes);
            let planes = width as usize;
            let mut a_planes = [0u64; BATCH_MAX_WIDTH as usize];
            let mut product = [0u64; LANES];
            for ua in lo..hi {
                sdlc_wideint::bitplane::broadcast_planes(ua, width, &mut a_planes);
                batch.multiply_planes_signed(
                    &a_planes[..planes],
                    &b_planes[..planes],
                    &mut product[..2 * planes],
                );
                crate::batch::extract_product_lanes(&product[..2 * planes], &mut approx);
                record_signed_block(&mut acc, width, ua, 0, valid, &approx);
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish_signed(multiplier.max_product_magnitude()))
}

/// Feeds one exhaustive signed block — pattern row `ua`, column patterns
/// `b0..b0 + valid` — into the accumulator, lane-wise.
fn record_signed_block(
    acc: &mut ErrorAccumulator,
    width: u32,
    ua: u64,
    b0: u64,
    valid: usize,
    approx: &[u64; LANES],
) {
    let approx: [i64; LANES] = core::array::from_fn(|i| sign_extend(approx[i], 2 * width) as i64);
    record_signed_row(
        acc,
        width,
        sign_extend(ua, width) as i64,
        b0,
        &approx,
        valid,
    );
}

/// Records `a × b` for the column patterns `b0..b0 + valid` of a signed
/// row. From 7 bits on, blocks start 64-aligned on a side of the sign
/// boundary 2^(N−1), so `b` steps by one per lane; the blocks of narrower
/// widths straddle it and take explicit lanes.
fn record_signed_row(
    acc: &mut ErrorAccumulator,
    width: u32,
    a: i64,
    b0: u64,
    approx: &[i64; LANES],
    valid: usize,
) {
    if valid == LANES && width >= 7 {
        acc.record_signed_row_block(a, sign_extend(b0, width) as i64, approx);
    } else {
        let b: [i64; LANES] = core::array::from_fn(|i| sign_extend(b0 + i as u64, width) as i64);
        acc.record_block_i64(&[a; LANES], &b, approx, valid);
    }
}

/// Evaluates `samples` uniformly random signed operand pairs (seeded,
/// parallel, deterministic for a given `(seed, samples)` regardless of
/// thread count). The draws are the unsigned drivers' bit patterns
/// reinterpreted as two's complement, so a seed covers the same lattice of
/// pairs in both domains.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits (the
/// signed samplers use the `multiply_i64` fast path).
pub fn sampled_signed<M>(multiplier: &M, samples: u64, seed: u64) -> Result<ErrorMetrics, EvalError>
where
    M: SignedMultiplier + Sync,
{
    sampled_signed_with_threads(multiplier, samples, seed, default_threads())
}

/// [`sampled_signed`] with an explicit thread count (partitioning only;
/// the fixed 256-shard layout keeps results thread-count independent).
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn sampled_signed_with_threads<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedMultiplier + Sync,
{
    assert!(threads > 0, "thread count must be positive");
    if samples == 0 {
        return Err(EvalError::NoSamples);
    }
    let width = multiplier.width();
    if width > 32 {
        return Err(EvalError::UnsupportedWidth { width, limit: 32 });
    }
    const SHARDS: u64 = 256;
    let per_shard = samples.div_ceil(SHARDS);
    let shard_list: Vec<u64> = (0..SHARDS).collect();
    let partials = parallel_shard_chunks(&shard_list, threads, |shards| {
        let mut acc = ErrorAccumulator::new();
        let (mut a, mut b, mut approx) = ([0i64; LANES], [0i64; LANES], [0i64; LANES]);
        for &shard in shards {
            let mut rng = SplitMix64::new(seed ^ (shard.wrapping_mul(0x9e37_79b9)));
            let begin = shard * per_shard;
            let end = (begin + per_shard).min(samples);
            let mut n = begin;
            while n < end {
                let valid = (end - n).min(LANES as u64) as usize;
                for i in 0..valid {
                    a[i] = sign_extend(rng.next_bits(width), width) as i64;
                    b[i] = sign_extend(rng.next_bits(width), width) as i64;
                    // Products of models up to 32 bits fit an i64.
                    approx[i] = multiplier.multiply_i64(a[i], b[i]) as i64;
                }
                acc.record_block_i64(&a, &b, &approx, valid);
                n += valid as u64;
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish_signed(multiplier.max_product_magnitude()))
}

/// [`sampled_signed`] dispatched on an [`Engine`]; for widths both
/// engines accept, the draws are identical and the accumulation exact, so
/// the metrics are bit-identical.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits.
pub fn sampled_signed_with_engine<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    engine: Engine,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
{
    match engine {
        Engine::Scalar => sampled_signed(multiplier, samples, seed),
        Engine::BitSliced => sampled_signed_bitsliced(multiplier, samples, seed),
    }
}

/// [`sampled_signed`] through the bit-sliced 64-lane engine: same
/// SplitMix64 shard streams, each 64-draw block recorded lane-wise,
/// bit-identical [`ErrorMetrics`].
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits.
pub fn sampled_signed_bitsliced<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
{
    sampled_signed_bitsliced_with_threads(multiplier, samples, seed, default_threads())
}

/// [`sampled_signed_bitsliced`] with an explicit thread count.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn sampled_signed_bitsliced_with_threads<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
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
        let batch = multiplier.signed_batch_model();
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
                let a_planes = sdlc_wideint::bitplane::transposed64(&a_lanes);
                let b_planes = sdlc_wideint::bitplane::transposed64(&b_lanes);
                batch.multiply_planes_signed(
                    &a_planes[..planes],
                    &b_planes[..planes],
                    &mut product[..2 * planes],
                );
                crate::batch::extract_product_lanes(&product[..2 * planes], &mut approx);
                let a: [i64; LANES] =
                    core::array::from_fn(|i| sign_extend(a_lanes[i], width) as i64);
                let b: [i64; LANES] =
                    core::array::from_fn(|i| sign_extend(b_lanes[i], width) as i64);
                let signed_approx: [i64; LANES] =
                    core::array::from_fn(|i| sign_extend(approx[i], 2 * width) as i64);
                acc.record_block_i64(&a, &b, &signed_approx, valid);
                n += valid as u64;
            }
        }
        acc
    });
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(total.finish_signed(multiplier.max_product_magnitude()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed::{signed_accurate, signed_sdlc, SignMagnitude};
    use crate::{Multiplier, SdlcMultiplier};

    #[test]
    fn accurate_signed_has_no_error() {
        let m = signed_accurate(8).unwrap();
        let metrics = exhaustive_signed(&m).unwrap();
        assert_eq!(metrics.error_rate, 0.0);
        assert_eq!(metrics.samples, 1 << 16);
        assert!(metrics.signed);
    }

    #[test]
    fn signed_sweep_equals_manual_unsigned_core_cross_check() {
        // Replay the exact sweep through the *unsigned* core by hand —
        // magnitudes in, signs re-applied — and demand bit-identical
        // metrics from the signed driver (accumulation is exact, so the
        // driver's thread split does not matter).
        let inner = SdlcMultiplier::new(6, 2).unwrap();
        let m = SignMagnitude::new(inner.clone());
        let metrics = exhaustive_signed_with_threads(&m, 3).unwrap();
        let mut acc = ErrorAccumulator::new();
        for ua in 0..64u64 {
            for ub in 0..64u64 {
                let a = sign_extend(ua, 6) as i64;
                let b = sign_extend(ub, 6) as i64;
                let magnitude = inner.multiply_u64(a.unsigned_abs(), b.unsigned_abs()) as i128;
                let approx = if (a < 0) != (b < 0) {
                    -magnitude
                } else {
                    magnitude
                };
                acc.record_i64(i128::from(a) * i128::from(b), approx, (a, b));
            }
        }
        assert_eq!(metrics, acc.finish_signed(m.max_product_magnitude()));
        assert!(metrics.mred > 0.0);
    }

    #[test]
    fn engines_are_bit_identical_exhaustive() {
        for depth in [2u32, 3, 4] {
            let m = signed_sdlc(8, depth).unwrap();
            let scalar = exhaustive_signed_with_threads(&m, 3).unwrap();
            let bitsliced = exhaustive_signed_bitsliced_with_threads(&m, 3).unwrap();
            assert_eq!(scalar, bitsliced, "depth {depth}");
        }
        // Tiny widths exercise the partial-block path (count < 64 lanes).
        for width in [2u32, 4] {
            let m = signed_sdlc(width, 2).unwrap();
            assert_eq!(
                exhaustive_signed_with_threads(&m, 2).unwrap(),
                exhaustive_signed_bitsliced_with_threads(&m, 2).unwrap(),
                "width {width}"
            );
        }
    }

    #[test]
    fn engines_are_bit_identical_sampled() {
        let m = signed_sdlc(12, 3).unwrap();
        let scalar = sampled_signed_with_threads(&m, 40_000, 42, 4).unwrap();
        let bitsliced = sampled_signed_bitsliced_with_threads(&m, 40_000, 42, 4).unwrap();
        assert_eq!(scalar, bitsliced);
        // The zero-operand rows err through the undefined-RED path for
        // ETM; that bookkeeping must agree too.
        let etm = SignMagnitude::new(crate::baselines::EtmMultiplier::new(8).unwrap());
        let scalar = sampled_signed_with_threads(&etm, 20_000, 7, 4).unwrap();
        let bitsliced = sampled_signed_bitsliced_with_threads(&etm, 20_000, 7, 4).unwrap();
        assert_eq!(scalar, bitsliced);
    }

    #[test]
    fn thread_count_never_changes_results() {
        let m = signed_sdlc(6, 2).unwrap();
        assert_eq!(
            exhaustive_signed_with_threads(&m, 1).unwrap(),
            exhaustive_signed_with_threads(&m, 7).unwrap()
        );
        assert_eq!(
            exhaustive_signed_bitsliced_with_threads(&m, 1).unwrap(),
            exhaustive_signed_bitsliced_with_threads(&m, 7).unwrap()
        );
        assert_eq!(
            sampled_signed_with_threads(&m, 9_000, 3, 1).unwrap(),
            sampled_signed_with_threads(&m, 9_000, 3, 5).unwrap()
        );
    }

    #[test]
    fn engine_dispatch_agrees() {
        let m = signed_sdlc(6, 2).unwrap();
        assert_eq!(
            exhaustive_signed_with_engine(&m, Engine::Scalar).unwrap(),
            exhaustive_signed_with_engine(&m, Engine::BitSliced).unwrap()
        );
        assert_eq!(
            sampled_signed_with_engine(&m, 5_000, 3, Engine::Scalar).unwrap(),
            sampled_signed_with_engine(&m, 5_000, 3, Engine::BitSliced).unwrap()
        );
    }

    #[test]
    fn width_and_sample_limits() {
        let wide = signed_sdlc(32, 2).unwrap();
        assert!(matches!(
            exhaustive_signed(&wide).unwrap_err(),
            EvalError::WidthTooLarge { width: 32, .. }
        ));
        assert!(matches!(
            exhaustive_signed_bitsliced(&wide).unwrap_err(),
            EvalError::WidthTooLarge { width: 32, limit }
                if limit == BITSLICED_EXHAUSTIVE_WIDTH_LIMIT
        ));
        let very_wide = signed_sdlc(64, 2).unwrap();
        assert!(matches!(
            sampled_signed(&very_wide, 100, 1).unwrap_err(),
            EvalError::UnsupportedWidth { width: 64, .. }
        ));
        assert_eq!(
            sampled_signed(&wide, 0, 1).unwrap_err(),
            EvalError::NoSamples
        );
        assert_eq!(
            sampled_signed_bitsliced(&wide, 0, 1).unwrap_err(),
            EvalError::NoSamples
        );
    }

    #[test]
    fn worst_red_pair_is_reported_signed() {
        let m = signed_sdlc(8, 4).unwrap();
        let metrics = exhaustive_signed(&m).unwrap();
        let (a, b) = metrics.worst_red_operands_signed().expect("errors exist");
        let (min, max) = crate::signed::signed_operand_range(8);
        assert!((min..=max).contains(&a) && (min..=max).contains(&b));
        // Re-check the reported pair actually achieves the reported RED.
        let exact = a * b;
        let approx = m.multiply_i64(a as i64, b as i64);
        let red = exact.abs_diff(approx) as f64 / exact.unsigned_abs() as f64;
        assert!((red - metrics.max_red).abs() < 1e-12);
    }
}
