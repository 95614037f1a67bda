//! Order-independence of the exact error accumulation.
//!
//! `ErrorAccumulator` sums error distances as integers and RED/RED² in a
//! `Superaccumulator`, rounding each sum to `f64` once. These properties
//! pin that down: any recording order, any split into partial
//! accumulators and any merge tree, recorded pair by pair or 64 lanes at
//! a time, give bit-identical `ErrorMetrics`; the superaccumulator's sum
//! is the correctly rounded exact sum; and the worst-RED pair does not
//! depend on order. The 14-bit thread-count sweeps run in release builds
//! (CI's release step); debug runs skip them.

use proptest::prelude::*;
use sdlc::core::batch::LANES;
use sdlc::core::error::{
    evaluate, evaluate_signed, Coverage, Engine, ErrorAccumulator, ErrorMetrics, Superaccumulator,
};
use sdlc::core::signed::signed_sdlc;
use sdlc::core::{Multiplier, SdlcMultiplier, SignedMultiplier};
use sdlc::wideint::{SplitMix64, Wide, U256};

/// One recorded multiplication: operands and approximate product.
#[derive(Clone, Copy, Debug)]
struct Pair {
    a: u64,
    b: u64,
    approx: u64,
}

/// A stream of `n` pairs of `width`-bit operands through an SDLC model,
/// with a few products replaced by random values so zero exact products
/// with wrong results (undefined RED) and overshooting products occur.
fn pair_stream(rng: &mut SplitMix64, width: u32, depth: u32, n: usize) -> Vec<Pair> {
    let model = SdlcMultiplier::new(width, depth).unwrap();
    (0..n)
        .map(|_| {
            let a = if rng.next_below(8) == 0 {
                0
            } else {
                rng.next_bits(width)
            };
            let b = rng.next_bits(width);
            let approx = if rng.next_below(16) == 0 {
                rng.next_bits(2 * width)
            } else {
                model.multiply_u64(a, b) as u64
            };
            Pair { a, b, approx }
        })
        .collect()
}

fn record_pairs(acc: &mut ErrorAccumulator, pairs: &[Pair]) {
    for p in pairs {
        acc.record_u64(
            u128::from(p.a) * u128::from(p.b),
            u128::from(p.approx),
            (p.a, p.b),
        );
    }
}

/// Records `pairs` 64 lanes at a time; the last block may be partial.
fn record_blocks(acc: &mut ErrorAccumulator, pairs: &[Pair]) {
    for chunk in pairs.chunks(LANES) {
        let lane = |f: fn(&Pair) -> u64| -> [u64; LANES] {
            core::array::from_fn(|i| chunk.get(i).map_or(0, f))
        };
        acc.record_block_u64(
            &lane(|p| p.a),
            &lane(|p| p.b),
            &lane(|p| p.approx),
            chunk.len(),
        );
    }
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Splits `pairs` into random partial accumulators, records each either
/// pair by pair or in blocks, and merges them along a random tree.
fn random_merge_tree(rng: &mut SplitMix64, pairs: &[Pair]) -> ErrorAccumulator {
    let mut parts: Vec<ErrorAccumulator> = Vec::new();
    let mut rest = pairs;
    while !rest.is_empty() {
        let take = (rng.next_below(150) as usize + 1).min(rest.len());
        let mut acc = ErrorAccumulator::new();
        if rng.next_below(2) == 0 {
            record_pairs(&mut acc, &rest[..take]);
        } else {
            record_blocks(&mut acc, &rest[..take]);
        }
        parts.push(acc);
        rest = &rest[take..];
    }
    while parts.len() > 1 {
        let i = rng.next_below(parts.len() as u64) as usize;
        let taken = parts.swap_remove(i);
        let j = rng.next_below(parts.len() as u64) as usize;
        parts[j].merge(&taken);
    }
    parts.pop().unwrap_or_default()
}

proptest! {
    /// Shuffled order, random merge trees and per-block recording all
    /// give bit-identical metrics.
    #[test]
    fn recording_order_never_changes_metrics(
        seed in any::<u64>(),
        half in 2u32..9,
        n in 1usize..400,
    ) {
        let width = 2 * half;
        let mut rng = SplitMix64::new(seed);
        let pairs = pair_stream(&mut rng, width, 2 + (seed % 3) as u32, n);
        let pmax = SdlcMultiplier::new(width, 2).unwrap().max_product();
        let mut sequential = ErrorAccumulator::new();
        record_pairs(&mut sequential, &pairs);
        let reference = sequential.finish(pmax);

        let mut shuffled = pairs.clone();
        shuffle(&mut rng, &mut shuffled);
        let mut acc = ErrorAccumulator::new();
        record_pairs(&mut acc, &shuffled);
        prop_assert_eq!(&acc.finish(pmax), &reference);

        let mut blocks = ErrorAccumulator::new();
        record_blocks(&mut blocks, &shuffled);
        prop_assert_eq!(&blocks.finish(pmax), &reference);

        prop_assert_eq!(&random_merge_tree(&mut rng, &shuffled).finish(pmax), &reference);
    }

    /// The signed recorders obey the same contract.
    #[test]
    fn signed_recording_order_never_changes_metrics(
        seed in any::<u64>(),
        half in 2u32..9,
        n in 1usize..300,
    ) {
        let width = 2 * half;
        let mut rng = SplitMix64::new(seed);
        let model = signed_sdlc(width, 2).unwrap();
        let extend = |x: u64, bits: u32| ((x << (64 - bits)) as i64) >> (64 - bits);
        let pairs: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| {
                let a = extend(rng.next_bits(width), width);
                let b = extend(rng.next_bits(width), width);
                let approx = if rng.next_below(16) == 0 {
                    extend(rng.next_bits(2 * width), 2 * width)
                } else {
                    model.multiply_i64(a, b) as i64
                };
                (a, b, approx)
            })
            .collect();
        let pmax = model.max_product_magnitude();
        let per_pair = |pairs: &[(i64, i64, i64)]| {
            let mut acc = ErrorAccumulator::new();
            for &(a, b, approx) in pairs {
                acc.record_i64(i128::from(a) * i128::from(b), i128::from(approx), (a, b));
            }
            acc.finish_signed(pmax)
        };
        let reference = per_pair(&pairs);
        let mut shuffled = pairs.clone();
        shuffle(&mut rng, &mut shuffled);
        prop_assert_eq!(&per_pair(&shuffled), &reference);
        let mut blocks = ErrorAccumulator::new();
        for chunk in shuffled.chunks(LANES) {
            let lane = |f: fn(&(i64, i64, i64)) -> i64| -> [i64; LANES] {
                core::array::from_fn(|i| chunk.get(i).map_or(0, f))
            };
            blocks.record_block_i64(&lane(|p| p.0), &lane(|p| p.1), &lane(|p| p.2), chunk.len());
        }
        prop_assert_eq!(&blocks.finish_signed(pmax), &reference);
    }

    /// Random finite non-negative terms across the whole exponent range
    /// sum to the correctly rounded exact sum, in any order and split.
    #[test]
    fn superaccumulator_is_correctly_rounded(seed in any::<u64>(), n in 1usize..200) {
        let mut rng = SplitMix64::new(seed);
        let terms: Vec<f64> = (0..n)
            .map(|_| {
                let bits = rng.next_u64() >> 1;
                // Keep the exponent finite; favour a narrow band so sums
                // actually interact, with outliers anywhere.
                let bits = if rng.next_below(4) == 0 {
                    bits % 0x7FF0_0000_0000_0000
                } else {
                    (bits & ((1 << 52) - 1)) | ((1000 + rng.next_below(40)) << 52)
                };
                f64::from_bits(bits)
            })
            .collect();
        let expected = exact_sum(&terms);
        prop_assert_eq!(sum_scalar(&terms).to_bits(), expected.to_bits());
        let mut shuffled = terms.clone();
        shuffle(&mut rng, &mut shuffled);
        let mut lanes = Superaccumulator::new();
        let mut scalar = Superaccumulator::new();
        for (k, chunk) in shuffled.chunks(LANES).enumerate() {
            if chunk.len() == LANES && k % 2 == 0 {
                lanes.add_lanes(chunk.try_into().unwrap());
            } else {
                chunk.iter().for_each(|&x| scalar.add(x));
            }
        }
        lanes.merge(&scalar);
        prop_assert_eq!(lanes.sum().to_bits(), expected.to_bits());
    }
}

/// Limbs of the reference fixed-point sum: 2^−1074 … 2^1500.
type Fixed = Wide<40>;

/// Correctly rounded exact sum of finite non-negative terms, computed
/// independently of `Superaccumulator`: a 2560-bit integer in units of
/// 2^−1074, rounded by [`round_fixed`].
fn exact_sum(terms: &[f64]) -> f64 {
    let mut total = Fixed::ZERO;
    for &x in terms {
        let bits = x.to_bits();
        let exponent = (bits >> 52) as u32;
        let mantissa = (bits & ((1 << 52) - 1)) | (u64::from(exponent != 0) << 52);
        total += Fixed::from_u64(mantissa) << exponent.max(1).saturating_sub(1);
    }
    round_fixed(&total, -1074)
}

/// Rounds `total · 2^lsb` to 53 significant bits (ties to even), or to a
/// multiple of 2^−1074 below the normal range, and scales the result by
/// exact powers of two (overflowing to `+inf`).
fn round_fixed<const L: usize>(total: &Wide<L>, lsb: i32) -> f64 {
    let len = total.bit_len();
    if len == 0 {
        return 0.0;
    }
    let drop = (len as i32 - 53).max(-1074 - lsb).max(0) as u32;
    let mut mantissa = total.shr(drop).as_u64();
    if drop > 0 {
        let round = total.bit(drop - 1);
        let sticky = total.trailing_zeros() < drop - 1;
        if round && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
    }
    let pow2 = |k: i32| {
        if k >= -1022 {
            f64::from_bits(((k + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (k + 1074))
        }
    };
    let scale = drop as i32 + lsb;
    if scale > 1023 {
        mantissa as f64 * pow2(1023) * pow2(scale - 1023)
    } else {
        mantissa as f64 * pow2(scale)
    }
}

fn sum_scalar(terms: &[f64]) -> f64 {
    let mut acc = Superaccumulator::new();
    terms.iter().for_each(|&x| acc.add(x));
    acc.sum()
}

#[test]
fn subnormals_sum_exactly() {
    let tiny = f64::from_bits(1);
    assert_eq!(sum_scalar(&[tiny; 7]), f64::from_bits(7));
    let terms: Vec<f64> = (1..300u64)
        .map(|k| f64::from_bits(k * 0x0000_7FFF_1234))
        .collect();
    assert_eq!(sum_scalar(&terms).to_bits(), exact_sum(&terms).to_bits());
    // Subnormals summing across the normal boundary.
    let half = f64::from_bits(1 << 51);
    assert_eq!(sum_scalar(&[half, half]), f64::MIN_POSITIVE);
}

#[test]
fn huge_and_tiny_terms_mix_exactly() {
    let big = 2f64.powi(1023);
    let terms = [big, 1e-300, f64::from_bits(1), 1.0, big / 2.0, 3.5];
    assert_eq!(sum_scalar(&terms).to_bits(), exact_sum(&terms).to_bits());
    assert_eq!(sum_scalar(&terms), big * 1.5);
    // Past f64::MAX the correctly rounded sum is +inf.
    assert_eq!(sum_scalar(&[f64::MAX, f64::MAX]), f64::INFINITY);
    // The tiny terms survive cancellation-free regrouping: removing the
    // huge ones leaves them intact.
    assert_eq!(sum_scalar(&[1e-300, 1e-300]), 2e-300);
}

#[test]
fn final_rounding_ties_to_even() {
    let two53 = 2f64.powi(53);
    // 2^53 + 1 lies halfway between 2^53 and 2^53 + 2: even wins.
    assert_eq!(sum_scalar(&[two53, 1.0]), two53);
    // 2^53 + 3 lies halfway between 2^53 + 2 and 2^53 + 4.
    assert_eq!(sum_scalar(&[two53, 1.0, 2.0]), two53 + 4.0);
    // Any bit below the tie breaks it upwards.
    assert_eq!(sum_scalar(&[two53, 1.0, f64::from_bits(1)]), two53 + 2.0);
    // Ten 0.1s: exact sum 1.0000000000000000555…, rounds to 1.0.
    assert_eq!(sum_scalar(&[0.1; 10]), 1.0);
}

/// 2^36 equal terms, built by doubling merges: the bins carry far past 64
/// bits and the sum stays exact.
#[test]
fn many_equal_terms_carry_exactly() {
    let term = 0.1f64;
    let mut acc = Superaccumulator::new();
    for _ in 0..LANES {
        acc.add_lanes(&[term; LANES]);
    }
    // 2^12 terms so far; 24 doublings reach 2^36.
    for _ in 0..24 {
        let copy = acc.clone();
        acc.merge(&copy);
    }
    let mantissa = (term.to_bits() & ((1 << 52) - 1)) | (1 << 52);
    // 0.1 = mantissa · 2^−56, so 2^36 copies are mantissa · 2^−20 exactly.
    assert_eq!(acc.sum(), mantissa as f64 * 2f64.powi(-20));
}

/// 2^31 + 64 equal terms added one block at a time (release builds only:
/// about 2^25 blocks).
#[test]
#[cfg_attr(debug_assertions, ignore = "2^31 adds; runs in the release CI step")]
fn two_to_the_31_adds_carry_exactly() {
    let term = 0.3f64;
    let mut acc = Superaccumulator::new();
    let blocks = (1u64 << 31) / LANES as u64 + 1;
    for _ in 0..blocks {
        acc.add_lanes(&[term; LANES]);
    }
    let mantissa = (term.to_bits() & ((1 << 52) - 1)) | (1 << 52);
    let ulp = (term.to_bits() >> 52) as i32 - 1075;
    let exact = Wide::<2>::from_u64(mantissa) * Wide::<2>::from_u64(blocks * LANES as u64);
    let expected = round_fixed(&exact, ulp);
    assert_eq!(acc.sum(), expected);
}

#[test]
fn worst_red_tie_break_ignores_order() {
    // RED 1/6 three ways: 6→5 at (2, 3), 12→10 at (3, 4), 6→5 at (6, 1).
    let pairs = [(2u64, 3u64, 5u64), (3, 4, 10), (6, 1, 5), (5, 5, 24)];
    let pmax = U256::from_u64(1 << 10);
    let finish = |order: &[(u64, u64, u64)], blocks: bool| -> ErrorMetrics {
        let mut acc = ErrorAccumulator::new();
        if blocks {
            let lane = |f: fn(&(u64, u64, u64)) -> u64| -> [u64; LANES] {
                core::array::from_fn(|i| order.get(i).map_or(0, f))
            };
            // A full block: pad with exact 0 × 0 pairs.
            acc.record_block_u64(&lane(|p| p.0), &lane(|p| p.1), &lane(|p| p.2), LANES);
            acc.finish(pmax)
        } else {
            for &(a, b, approx) in order {
                acc.record_u64(u128::from(a * b), u128::from(approx), (a, b));
            }
            acc.finish(pmax)
        }
    };
    let forward = finish(&pairs, false);
    assert_eq!(forward.worst_red_operands, Some((2, 3)));
    let mut reversed = pairs;
    reversed.reverse();
    let backward = finish(&reversed, false);
    assert_eq!(backward.worst_red_operands, Some((2, 3)));
    assert_eq!(finish(&reversed, true).worst_red_operands, Some((2, 3)));
    // Split across accumulators and merged either way round.
    let mut low = ErrorAccumulator::new();
    let mut high = ErrorAccumulator::new();
    low.record_u64(12, 10, (3, 4));
    high.record_u64(6, 5, (2, 3));
    let mut merged = low.clone();
    merged.merge(&high);
    high.merge(&low);
    assert_eq!(merged.finish(pmax).worst_red_operands, Some((2, 3)));
    assert_eq!(high.finish(pmax).worst_red_operands, Some((2, 3)));

    // Signed: a tie between a negative and a positive operand picks the
    // smaller two's-complement pattern, i.e. the non-negative one — the
    // first in the signed sweep's pattern order.
    let mut signed = ErrorAccumulator::new();
    signed.record_i64(-6, -5, (-2, 3));
    signed.record_i64(6, 5, (2, 3));
    let m = signed.finish_signed(pmax);
    assert_eq!(m.worst_red_operands_signed(), Some((2, 3)));
}

/// Exhaustive 14-bit sweeps on the bit-sliced engine return identical
/// metrics at 1, 2 and 7 threads (release builds only).
#[test]
#[cfg_attr(debug_assertions, ignore = "14-bit sweeps run in the release CI step")]
fn exhaustive_14_bit_is_thread_count_invariant() {
    let m = SdlcMultiplier::new(14, 2).unwrap();
    let one = evaluate(&m, Coverage::Exhaustive, Engine::BitSliced, 1).unwrap();
    for threads in [2, 7] {
        assert_eq!(
            one,
            evaluate(&m, Coverage::Exhaustive, Engine::BitSliced, threads).unwrap()
        );
    }
    let signed = signed_sdlc(12, 3).unwrap();
    let one = evaluate_signed(&signed, Coverage::Exhaustive, Engine::BitSliced, 1).unwrap();
    for threads in [2, 7] {
        assert_eq!(
            one,
            evaluate_signed(&signed, Coverage::Exhaustive, Engine::BitSliced, threads).unwrap()
        );
    }
}

/// The scalar and bit-sliced engines agree exactly at a width where the
/// old running sums drifted between thread splits (release builds only).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "12-bit scalar sweep runs in the release CI step"
)]
fn engines_agree_across_thread_splits() {
    let m = SdlcMultiplier::new(12, 4).unwrap();
    assert_eq!(
        evaluate(&m, Coverage::Exhaustive, Engine::Scalar, 1).unwrap(),
        evaluate(&m, Coverage::Exhaustive, Engine::BitSliced, 7).unwrap()
    );
}
