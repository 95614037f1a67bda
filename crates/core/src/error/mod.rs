//! Error analysis for approximate multipliers (Section III of the paper).
//!
//! The metrics follow Liang/Han/Lombardi's definitions as used in the
//! paper:
//!
//! * `ED  = |P − P′|` — error distance of one multiplication;
//! * `RED = ED / P` — relative error distance (defined as 0 when `ED = 0`,
//!   which covers the `P = 0` corner);
//! * `ER` — fraction of operand pairs with a wrong product;
//! * `MED = Σ ED / 2^{2N}`, `NMED = MED / Pmax` with `Pmax = (2^N − 1)²`;
//! * `MRED = Σ RED / 2^{2N}`; plus the observed maxima `MAX(RED)`/`MAX(ED)`.
//!
//! [`evaluate`] and [`evaluate_signed`] are the one error sweep, for
//! unsigned and two's-complement models: a [`Coverage`] (every operand
//! pair, as the paper does up to 16 bits, or a seeded Monte-Carlo sample),
//! an [`Engine`] (the scalar per-pair path, or the bit-sliced 64-lane path
//! of [`crate::batch`] that packs 64 multiplications into word-wide
//! boolean ops) and a worker-thread count. [`exhaustive`] and [`sampled`]
//! run the scalar engine on all cores for any [`crate::Multiplier`],
//! bit-sliced twin or not; the `_with_engine` forms run either engine on
//! all cores; [`sampled_with_operands`] draws from a caller-supplied
//! operand distribution. [`RedHistogram`] reproduces the RED probability
//! distribution of Figure 5; [`error_rate_depth2`] and
//! [`mean_error_distance`] derive error statistics exactly, independent of
//! simulation.
//!
//! [`ErrorAccumulator`] sums error distances as integers and RED/RED² in a
//! [`Superaccumulator`], so the metrics are exact sums rounded once —
//! bit-identical across engines, thread counts and recording order.

mod analytic;
mod evaluate;
mod histogram;
mod metrics;
mod superacc;

pub use analytic::{
    adjacent_ones_profile, error_rate_depth2, mean_error_distance, normalized_mean_error_distance,
};
pub use evaluate::{
    evaluate, evaluate_signed, exhaustive, exhaustive_signed_with_engine, exhaustive_with_engine,
    sampled, sampled_signed_with_engine, sampled_with_engine, sampled_with_operands, Coverage,
    Engine, EvalError, BITSLICED_EXHAUSTIVE_WIDTH_LIMIT, EXHAUSTIVE_WIDTH_LIMIT,
};
pub use histogram::{RedHistogram, RED_HISTOGRAM_BINS};
pub use metrics::{ErrorAccumulator, ErrorMetrics};
// The deterministic work splitter every parallel driver shards through —
// re-exported so downstream sweeps (benches, external tools) can partition
// work the exact same way and inherit the bit-identity guarantees.
pub use sdlc_wideint::parallel::{parallel_chunks, parallel_shard_chunks};
pub use superacc::Superaccumulator;
