//! Exhaustive and Monte-Carlo error evaluation drivers.
//!
//! The paper evaluates "all possible combinations of operands" (Section
//! III). That is 2^{2N} pairs — trivial up to 12 bits, 4.3 G pairs at
//! 16 bits. A [`Coverage::Exhaustive`] sweep visits every pair in
//! parallel; a [`Coverage::Sampled`] sweep draws a seeded uniform sample
//! for the widths where exhaustion is unreasonable on a laptop. Both are
//! deterministic: thread count never changes the result, and sampling
//! depends only on the seed.
//!
//! There is one exhaustive and one sampled sweep body. Each is generic
//! over the operand *domain* — unsigned, or two's complement with errors
//! measured on the signed values and NMED normalized by the signed
//! ceiling `(2^{N−1})²` — and over the *product source*, the [`Engine`]:
//! the scalar source calls [`Multiplier::multiply_u64`] (or
//! [`SignedMultiplier::multiply_i64`]) once per pair, while the bit-sliced
//! source evaluates 64 pairs per pass through the transposed bit-plane
//! models of [`crate::batch`]. Either way, every 64-lane block is recorded
//! lane-wise ([`ErrorAccumulator::record_block_u64`],
//! [`ErrorAccumulator::record_block_i64`]). Signed sweeps walk operand
//! *patterns* `0, 1, …, 2^N − 1` — the non-negative half first — so both
//! domains visit pairs in the same order. The products are bit-exact
//! twins and [`ErrorAccumulator`] sums exactly, independent of recording
//! order, so both engines — at any thread count — return bit-identical
//! [`ErrorMetrics`]; the bit-sliced engine is a pure speedup that also
//! raises the exhaustive ceiling to [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]
//! bits.

use core::fmt;

use sdlc_wideint::parallel::{parallel_chunks, parallel_shard_chunks};
use sdlc_wideint::{bitplane, SplitMix64, U256};

use crate::batch::signed::sign_extend;
use crate::batch::{
    extract_product_lanes, BatchMultiplier, Batchable, SignedBatchMultiplier, BATCH_MAX_WIDTH,
    LANES,
};
use crate::error::metrics::{ErrorAccumulator, ErrorMetrics};
use crate::multiplier::Multiplier;
use crate::signed::{SignedBatchable, SignedMultiplier};

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

/// How much of the operand space a sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coverage {
    /// Every operand pair, 2^{2N} of them.
    Exhaustive,
    /// `samples` uniformly random pairs, drawn from `seed`.
    Sampled {
        /// Number of operand pairs to draw.
        samples: u64,
        /// Seed of the SplitMix64 shard streams.
        seed: u64,
    },
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
    /// A sampler was asked to evaluate a model wider than its engine
    /// supports: the bit-sliced engine's 64-lane plane stack in either
    /// domain, or the scalar engine's `multiply_i64` fast path for signed
    /// models.
    UnsupportedWidth {
        /// Requested width.
        width: u32,
        /// Largest width the engine accepts.
        limit: u32,
        /// The engine whose limit was hit.
        engine: Engine,
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
            EvalError::UnsupportedWidth {
                width,
                limit,
                engine,
            } => {
                let what = match engine {
                    Engine::Scalar => "scalar engine samples signed",
                    Engine::BitSliced => "bit-sliced engine supports",
                };
                write!(f, "the {what} models up to {limit}-bit, got {width}-bit")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Largest width the scalar engine sweeps exhaustively (2^32 cases,
/// ≈ minutes of CPU).
pub const EXHAUSTIVE_WIDTH_LIMIT: u32 = 16;

/// Largest width the bit-sliced engine sweeps exhaustively: the 64-lane
/// engine turns the 16-bit full sweep from minutes into seconds, which
/// raises the practical ceiling to 20 bits (2^40 cases, ≈ minutes again).
pub const BITSLICED_EXHAUSTIVE_WIDTH_LIMIT: u32 = 20;

pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Exhaustively evaluates every operand pair of an `N ≤ 16` bit multiplier
/// on the scalar engine, using all available cores. Unlike
/// [`evaluate`], this accepts any [`Multiplier`], bit-sliced twin or not.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`EXHAUSTIVE_WIDTH_LIMIT`] bits.
pub fn exhaustive<M>(multiplier: &M) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    sweep(
        &Unsigned(multiplier),
        Coverage::Exhaustive,
        default_threads(),
        || Scalar,
    )
}

/// Evaluates `samples` uniformly random operand pairs on the scalar engine
/// (seeded, parallel, deterministic for a given `(seed, samples)`
/// regardless of thread count). Accepts any [`Multiplier`] of any width;
/// beyond 32 bits the pairs are recorded one by one with 256-bit products.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`.
pub fn sampled<M>(multiplier: &M, samples: u64, seed: u64) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    sweep(
        &Unsigned(multiplier),
        Coverage::Sampled { samples, seed },
        default_threads(),
        || Scalar,
    )
}

/// Evaluates an unsigned model over `coverage` on `engine` with an explicit
/// worker-thread count. The count only partitions the work: the sampled
/// sweep's fixed 256-shard layout keeps its draws thread-count independent
/// and the exact accumulation makes every merge order agree, so the
/// metrics are bit-identical for every count and both engines.
///
/// # Errors
///
/// - [`EvalError::WidthTooLarge`] for an exhaustive sweep above the
///   engine's limit ([`EXHAUSTIVE_WIDTH_LIMIT`] or
///   [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]);
/// - [`EvalError::NoSamples`] for a sampled sweep of zero samples;
/// - [`EvalError::UnsupportedWidth`] for bit-sliced sampling above
///   [`BATCH_MAX_WIDTH`] bits (scalar sampling has no width limit).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn evaluate<M>(
    multiplier: &M,
    coverage: Coverage,
    engine: Engine,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    sweep_on(&Unsigned(multiplier), coverage, engine, threads)
}

/// [`evaluate`] over the signed domain: operand patterns are read as two's
/// complement, errors are measured on the signed values (`ED = |P − P′|`,
/// `RED = ED / |P|`) and NMED is normalized by
/// [`SignedMultiplier::max_product_magnitude`]. A seed draws the same bit
/// patterns as in the unsigned domain.
///
/// # Errors
///
/// As [`evaluate`], except that sampling on either engine stops at 32
/// bits ([`EvalError::UnsupportedWidth`]): the scalar engine uses the
/// `multiply_i64` fast path.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn evaluate_signed<M>(
    multiplier: &M,
    coverage: Coverage,
    engine: Engine,
    threads: usize,
) -> Result<ErrorMetrics, EvalError>
where
    M: SignedBatchable + Sync,
{
    sweep_on(&Signed(multiplier), coverage, engine, threads)
}

/// Exhaustive [`evaluate`] on all available cores.
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
    evaluate(multiplier, Coverage::Exhaustive, engine, default_threads())
}

/// Sampled [`evaluate`] on all available cores; for widths both engines
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
    let coverage = Coverage::Sampled { samples, seed };
    evaluate(multiplier, coverage, engine, default_threads())
}

/// Exhaustive [`evaluate_signed`] on all available cores.
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
    evaluate_signed(multiplier, Coverage::Exhaustive, engine, default_threads())
}

/// Sampled [`evaluate_signed`] on all available cores.
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
    let coverage = Coverage::Sampled { samples, seed };
    evaluate_signed(multiplier, coverage, engine, default_threads())
}

/// An operand domain: how a sweep turns operand patterns into products,
/// records them and finishes the metrics.
trait Domain: Sync {
    /// A product lane value: `u64`, or `i64` for two's complement.
    type Lane: Copy + Default;

    fn width(&self) -> u32;

    /// Widest model a sampled sweep on `engine` accepts.
    fn sampled_limit(engine: Engine) -> u32;

    /// The scalar product of two operand patterns.
    fn multiply(&self, a: u64, b: u64) -> Self::Lane;

    /// Un-transposes a block's `2N` product planes into lane values.
    fn read_products(planes: &[u64], out: &mut [Self::Lane; LANES]);

    /// Records lanes `0..valid` of the exhaustive row block
    /// `a × (b0 + i)`, operands given as patterns.
    fn record_row(
        &self,
        acc: &mut ErrorAccumulator,
        a: u64,
        b0: u64,
        approx: &[Self::Lane; LANES],
        valid: usize,
    );

    /// Records lanes `0..valid` of the block `a[i] × b[i]`, operands
    /// given as patterns.
    fn record_block(
        &self,
        acc: &mut ErrorAccumulator,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &[Self::Lane; LANES],
        valid: usize,
    );

    /// Records `n` draws from `rng` pair by pair with 256-bit products —
    /// the sampled sweep's path for models wider than 32 bits.
    fn record_wide(&self, acc: &mut ErrorAccumulator, rng: &mut SplitMix64, n: u64);

    fn finish(&self, acc: &ErrorAccumulator) -> ErrorMetrics;
}

/// A domain whose model has a bit-sliced twin.
trait SlicedDomain: Domain {
    type Model;

    /// Builds the bit-sliced twin (workers build one each).
    fn model(&self) -> Self::Model;

    fn multiply_planes(model: &Self::Model, a: &[u64], b: &[u64], product: &mut [u64]);

    /// [`SlicedDomain::multiply_planes`] with the pattern `a` in every lane.
    fn multiply_bcast(model: &Self::Model, a: u64, b: &[u64], product: &mut [u64]);

    /// One exhaustive row `a × [0, count)` in 64-lane blocks.
    fn sweep_row(model: &Self::Model, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64]));
}

/// The unsigned domain.
struct Unsigned<'m, M>(&'m M);

impl<M: Multiplier + Sync> Domain for Unsigned<'_, M> {
    type Lane = u64;

    fn width(&self) -> u32 {
        self.0.width()
    }

    fn sampled_limit(engine: Engine) -> u32 {
        match engine {
            Engine::Scalar => u32::MAX,
            Engine::BitSliced => BATCH_MAX_WIDTH,
        }
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        // Products of models up to 32 bits fit a u64.
        self.0.multiply_u64(a, b) as u64
    }

    fn read_products(planes: &[u64], out: &mut [u64; LANES]) {
        extract_product_lanes(planes, out);
    }

    fn record_row(
        &self,
        acc: &mut ErrorAccumulator,
        a: u64,
        b0: u64,
        approx: &[u64; LANES],
        valid: usize,
    ) {
        acc.record_row_block(a, b0, approx, valid);
    }

    fn record_block(
        &self,
        acc: &mut ErrorAccumulator,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &[u64; LANES],
        valid: usize,
    ) {
        acc.record_block_u64(a, b, approx, valid);
    }

    fn record_wide(&self, acc: &mut ErrorAccumulator, rng: &mut SplitMix64, n: u64) {
        let width = self.width();
        for _ in 0..n {
            let a = draw_u128(rng, width);
            let b = draw_u128(rng, width);
            let exact = U256::from_u128(a).wrapping_mul(&U256::from_u128(b));
            acc.record(&exact, &self.0.multiply(a, b), (a, b));
        }
    }

    fn finish(&self, acc: &ErrorAccumulator) -> ErrorMetrics {
        acc.finish(self.0.max_product())
    }
}

impl<M: Batchable + Sync> SlicedDomain for Unsigned<'_, M> {
    type Model = M::Batch;

    fn model(&self) -> M::Batch {
        self.0.batch_model()
    }

    fn multiply_planes(model: &M::Batch, a: &[u64], b: &[u64], product: &mut [u64]) {
        model.multiply_planes(a, b, product);
    }

    fn multiply_bcast(model: &M::Batch, a: u64, b: &[u64], product: &mut [u64]) {
        model.multiply_planes_bcast(a, b, product);
    }

    fn sweep_row(model: &M::Batch, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64])) {
        model.sweep_operand_row(a, count, emit);
    }
}

/// The two's-complement domain.
struct Signed<'m, M>(&'m M);

impl<M: SignedMultiplier + Sync> Signed<'_, M> {
    fn operand(&self, pattern: u64) -> i64 {
        sign_extend(pattern, self.width()) as i64
    }
}

impl<M: SignedMultiplier + Sync> Domain for Signed<'_, M> {
    type Lane = i64;

    fn width(&self) -> u32 {
        self.0.width()
    }

    fn sampled_limit(_: Engine) -> u32 {
        BATCH_MAX_WIDTH
    }

    fn multiply(&self, a: u64, b: u64) -> i64 {
        // Products of models up to 32 bits fit an i64.
        self.0.multiply_i64(self.operand(a), self.operand(b)) as i64
    }

    fn read_products(planes: &[u64], out: &mut [i64; LANES]) {
        let mut patterns = [0u64; LANES];
        extract_product_lanes(planes, &mut patterns);
        let bits = planes.len() as u32;
        *out = patterns.map(|p| sign_extend(p, bits) as i64);
    }

    /// From 7 bits on, full blocks start 64-aligned on one side of the
    /// sign boundary 2^(N−1), so `b` steps by one per lane; the blocks of
    /// narrower widths straddle it and take explicit lanes.
    fn record_row(
        &self,
        acc: &mut ErrorAccumulator,
        a: u64,
        b0: u64,
        approx: &[i64; LANES],
        valid: usize,
    ) {
        let a = self.operand(a);
        if valid == LANES && self.width() >= 7 {
            acc.record_signed_row_block(a, self.operand(b0), approx);
        } else {
            let b: [i64; LANES] = core::array::from_fn(|i| self.operand(b0 + i as u64));
            acc.record_block_i64(&[a; LANES], &b, approx, valid);
        }
    }

    fn record_block(
        &self,
        acc: &mut ErrorAccumulator,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &[i64; LANES],
        valid: usize,
    ) {
        let a = a.map(|p| self.operand(p));
        let b = b.map(|p| self.operand(p));
        acc.record_block_i64(&a, &b, approx, valid);
    }

    fn record_wide(&self, _: &mut ErrorAccumulator, _: &mut SplitMix64, _: u64) {
        unreachable!("signed sampling stops at {BATCH_MAX_WIDTH} bits");
    }

    fn finish(&self, acc: &ErrorAccumulator) -> ErrorMetrics {
        acc.finish_signed(self.0.max_product_magnitude())
    }
}

impl<M: SignedBatchable + Sync> SlicedDomain for Signed<'_, M> {
    type Model = M::Batch;

    fn model(&self) -> M::Batch {
        self.0.signed_batch_model()
    }

    fn multiply_planes(model: &M::Batch, a: &[u64], b: &[u64], product: &mut [u64]) {
        model.multiply_planes_signed(a, b, product);
    }

    fn multiply_bcast(model: &M::Batch, a: u64, b: &[u64], product: &mut [u64]) {
        let width = model.width();
        let mut a_planes = [0u64; BATCH_MAX_WIDTH as usize];
        bitplane::broadcast_planes(a, width, &mut a_planes);
        model.multiply_planes_signed(&a_planes[..width as usize], b, product);
    }

    fn sweep_row(model: &M::Batch, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64])) {
        model.sweep_operand_row_signed(a, count, emit);
    }
}

/// A source of 64-lane product blocks; every worker thread builds its own.
trait Products<D: Domain> {
    const ENGINE: Engine;

    /// Walks the row `a × [0, count)`, calling `visit(b0, valid, approx)`
    /// once per block of consecutive `b`.
    fn row(
        &mut self,
        domain: &D,
        a: u64,
        count: u64,
        visit: impl FnMut(u64, usize, &[D::Lane; LANES]),
    );

    /// Fills `approx[i]` with the product `a[i] × b[i]` of every lane.
    fn block(
        &mut self,
        domain: &D,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &mut [D::Lane; LANES],
    );
}

/// One scalar multiplication per pair; works for any model.
struct Scalar;

impl<D: Domain> Products<D> for Scalar {
    const ENGINE: Engine = Engine::Scalar;

    fn row(
        &mut self,
        domain: &D,
        a: u64,
        count: u64,
        mut visit: impl FnMut(u64, usize, &[D::Lane; LANES]),
    ) {
        let mut approx = [D::Lane::default(); LANES];
        for b0 in (0..count).step_by(LANES) {
            let valid = (count - b0).min(LANES as u64) as usize;
            for (i, p) in approx.iter_mut().enumerate().take(valid) {
                *p = domain.multiply(a, b0 + i as u64);
            }
            visit(b0, valid, &approx);
        }
    }

    fn block(
        &mut self,
        domain: &D,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &mut [D::Lane; LANES],
    ) {
        *approx = core::array::from_fn(|i| domain.multiply(a[i], b[i]));
    }
}

/// 64 pairs per pass through the domain's bit-sliced model.
struct Sliced<D: SlicedDomain>(D::Model);

impl<D: SlicedDomain> Products<D> for Sliced<D> {
    const ENGINE: Engine = Engine::BitSliced;

    fn row(
        &mut self,
        domain: &D,
        a: u64,
        count: u64,
        mut visit: impl FnMut(u64, usize, &[D::Lane; LANES]),
    ) {
        let mut approx = [D::Lane::default(); LANES];
        if count >= LANES as u64 {
            D::sweep_row(&self.0, a, count, &mut |b0, product| {
                D::read_products(product, &mut approx);
                visit(b0, LANES, &approx);
            });
        } else {
            // Fewer pairs than lanes (widths 2 and 4): one zero-padded
            // block per row, idle lanes ignored.
            let planes = domain.width() as usize;
            let valid = count as usize;
            let lanes: [u64; LANES] =
                core::array::from_fn(|i| if i < valid { i as u64 } else { 0 });
            let b_planes = bitplane::transposed64(&lanes);
            let mut product = [0u64; LANES];
            D::multiply_bcast(&self.0, a, &b_planes[..planes], &mut product[..2 * planes]);
            D::read_products(&product[..2 * planes], &mut approx);
            visit(0, valid, &approx);
        }
    }

    fn block(
        &mut self,
        domain: &D,
        a: &[u64; LANES],
        b: &[u64; LANES],
        approx: &mut [D::Lane; LANES],
    ) {
        let width = domain.width();
        let planes = width as usize;
        let a_planes = operand_planes(a, width);
        let b_planes = operand_planes(b, width);
        let mut product = [0u64; LANES];
        D::multiply_planes(
            &self.0,
            &a_planes[..planes],
            &b_planes[..planes],
            &mut product[..2 * planes],
        );
        D::read_products(&product[..2 * planes], approx);
    }
}

/// Runs `coverage` on the product source `engine` selects.
fn sweep_on<D: SlicedDomain>(
    domain: &D,
    coverage: Coverage,
    engine: Engine,
    threads: usize,
) -> Result<ErrorMetrics, EvalError> {
    match engine {
        Engine::Scalar => sweep(domain, coverage, threads, || Scalar),
        Engine::BitSliced => sweep(domain, coverage, threads, || Sliced::<D>(domain.model())),
    }
}

/// Runs `coverage` with products from the source `products` builds.
fn sweep<D, S>(
    domain: &D,
    coverage: Coverage,
    threads: usize,
    products: impl Fn() -> S + Sync,
) -> Result<ErrorMetrics, EvalError>
where
    D: Domain,
    S: Products<D>,
{
    assert!(threads > 0, "thread count must be positive");
    let partials = match coverage {
        Coverage::Exhaustive => exhaustive_sweep(domain, threads, products)?,
        Coverage::Sampled { samples, seed } => {
            sampled_sweep(domain, samples, seed, threads, products)?
        }
    };
    let mut total = ErrorAccumulator::new();
    for p in &partials {
        total.merge(p);
    }
    Ok(domain.finish(&total))
}

/// Records every operand pair, one row of `a` per step, split by rows
/// across the workers.
fn exhaustive_sweep<D, S>(
    domain: &D,
    threads: usize,
    products: impl Fn() -> S + Sync,
) -> Result<Vec<ErrorAccumulator>, EvalError>
where
    D: Domain,
    S: Products<D>,
{
    let width = domain.width();
    let limit = match S::ENGINE {
        Engine::Scalar => EXHAUSTIVE_WIDTH_LIMIT,
        Engine::BitSliced => BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
    };
    if width > limit {
        return Err(EvalError::WidthTooLarge { width, limit });
    }
    let count: u64 = 1u64 << width;
    Ok(parallel_chunks(count, threads, |lo, hi| {
        let mut source = products();
        let mut acc = ErrorAccumulator::new();
        for a in lo..hi {
            source.row(domain, a, count, |b0, valid, approx| {
                domain.record_row(&mut acc, a, b0, approx, valid);
            });
        }
        acc
    }))
}

/// Records `samples` seeded pairs in 256 fixed shards, each drawing from
/// its own SplitMix64 substream, so the draws depend only on
/// `(seed, samples)` and never on how the shards are split across
/// workers.
fn sampled_sweep<D, S>(
    domain: &D,
    samples: u64,
    seed: u64,
    threads: usize,
    products: impl Fn() -> S + Sync,
) -> Result<Vec<ErrorAccumulator>, EvalError>
where
    D: Domain,
    S: Products<D>,
{
    if samples == 0 {
        return Err(EvalError::NoSamples);
    }
    let width = domain.width();
    let limit = D::sampled_limit(S::ENGINE);
    if width > limit {
        return Err(EvalError::UnsupportedWidth {
            width,
            limit,
            engine: S::ENGINE,
        });
    }
    const SHARDS: u64 = 256;
    let per_shard = samples.div_ceil(SHARDS);
    let shard_list: Vec<u64> = (0..SHARDS).collect();
    Ok(parallel_shard_chunks(&shard_list, threads, |shards| {
        let mut source = products();
        let mut acc = ErrorAccumulator::new();
        let (mut a, mut b) = ([0u64; LANES], [0u64; LANES]);
        let mut approx = [D::Lane::default(); LANES];
        for &shard in shards {
            let mut rng = SplitMix64::new(seed ^ (shard.wrapping_mul(0x9e37_79b9)));
            let begin = shard * per_shard;
            let end = (begin + per_shard).min(samples);
            if width > 32 {
                domain.record_wide(&mut acc, &mut rng, end.saturating_sub(begin));
                continue;
            }
            let mut n = begin;
            while n < end {
                let valid = (end - n).min(LANES as u64) as usize;
                for i in 0..valid {
                    a[i] = rng.next_bits(width);
                    b[i] = rng.next_bits(width);
                }
                a[valid..].fill(0);
                b[valid..].fill(0);
                source.block(domain, &a, &b, &mut approx);
                domain.record_block(&mut acc, &a, &b, &approx, valid);
                n += valid as u64;
            }
        }
        acc
    }))
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
/// patterns, and SDLC's error profile depends on which bits collide: a
/// weight whose set bits share a logic cluster errs, one whose bits do
/// not multiplies exactly.
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
    use crate::signed::{signed_accurate, signed_sdlc, SignMagnitude};
    use crate::{AccurateMultiplier, SdlcMultiplier};

    const EXHAUSTIVE: Coverage = Coverage::Exhaustive;

    fn sample(samples: u64, seed: u64) -> Coverage {
        Coverage::Sampled { samples, seed }
    }

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
        let one = evaluate(&m, EXHAUSTIVE, Engine::Scalar, 1).unwrap();
        for threads in [2, 7] {
            assert_eq!(
                one,
                evaluate(&m, EXHAUSTIVE, Engine::Scalar, threads).unwrap()
            );
        }
    }

    #[test]
    fn sampled_is_thread_count_invariant() {
        let m = SdlcMultiplier::new(12, 2).unwrap();
        let one = evaluate(&m, sample(40_000, 42), Engine::Scalar, 1).unwrap();
        for threads in [2, 5] {
            let other = evaluate(&m, sample(40_000, 42), Engine::Scalar, threads).unwrap();
            assert_eq!(one, other);
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
            let scalar = evaluate(&m, EXHAUSTIVE, Engine::Scalar, 3).unwrap();
            let bitsliced = evaluate(&m, EXHAUSTIVE, Engine::BitSliced, 3).unwrap();
            assert_eq!(scalar, bitsliced, "depth {depth}");
        }
        // Tiny widths exercise the partial-block path (count < 64 lanes).
        for width in [2u32, 4] {
            let m = SdlcMultiplier::new(width, 2).unwrap();
            assert_eq!(
                evaluate(&m, EXHAUSTIVE, Engine::Scalar, 2).unwrap(),
                evaluate(&m, EXHAUSTIVE, Engine::BitSliced, 2).unwrap(),
                "width {width}"
            );
        }
    }

    #[test]
    fn bitsliced_exhaustive_is_thread_count_invariant() {
        let m = SdlcMultiplier::new(6, 3).unwrap();
        let one = evaluate(&m, EXHAUSTIVE, Engine::BitSliced, 1).unwrap();
        for threads in [2, 7] {
            let other = evaluate(&m, EXHAUSTIVE, Engine::BitSliced, threads).unwrap();
            assert_eq!(one, other);
        }
    }

    #[test]
    fn bitsliced_sampled_is_bit_identical_to_scalar() {
        let m = SdlcMultiplier::new(12, 3).unwrap();
        let scalar = evaluate(&m, sample(40_000, 42), Engine::Scalar, 4).unwrap();
        let bitsliced = evaluate(&m, sample(40_000, 42), Engine::BitSliced, 4).unwrap();
        assert_eq!(scalar, bitsliced);
        // ETM errs on exact-zero products; the undefined-RED path must
        // agree too.
        let etm = crate::baselines::EtmMultiplier::new(8).unwrap();
        let scalar = evaluate(&etm, sample(20_000, 7), Engine::Scalar, 4).unwrap();
        let bitsliced = evaluate(&etm, sample(20_000, 7), Engine::BitSliced, 4).unwrap();
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
        let err = exhaustive_with_engine(&m, Engine::BitSliced).unwrap_err();
        assert!(matches!(err, EvalError::WidthTooLarge { width: 32, limit }
                if limit == BITSLICED_EXHAUSTIVE_WIDTH_LIMIT));
        // Sampling through the bit-sliced engine caps at 32-bit models.
        let wide = SdlcMultiplier::new(64, 2).unwrap();
        let err = sampled_with_engine(&wide, 100, 1, Engine::BitSliced).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedWidth { width: 64, .. }));
        assert!(err.to_string().contains("bit-sliced"));
        assert_eq!(
            sampled_with_engine(&m, 0, 1, Engine::BitSliced).unwrap_err(),
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

    #[test]
    fn accurate_signed_has_no_error() {
        let m = signed_accurate(8).unwrap();
        let metrics = exhaustive_signed_with_engine(&m, Engine::Scalar).unwrap();
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
        let metrics = evaluate_signed(&m, EXHAUSTIVE, Engine::Scalar, 3).unwrap();
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
    fn signed_engines_are_bit_identical_exhaustive() {
        for depth in [2u32, 3, 4] {
            let m = signed_sdlc(8, depth).unwrap();
            let scalar = evaluate_signed(&m, EXHAUSTIVE, Engine::Scalar, 3).unwrap();
            let bitsliced = evaluate_signed(&m, EXHAUSTIVE, Engine::BitSliced, 3).unwrap();
            assert_eq!(scalar, bitsliced, "depth {depth}");
        }
        // Tiny widths exercise the partial-block path (count < 64 lanes).
        for width in [2u32, 4] {
            let m = signed_sdlc(width, 2).unwrap();
            assert_eq!(
                evaluate_signed(&m, EXHAUSTIVE, Engine::Scalar, 2).unwrap(),
                evaluate_signed(&m, EXHAUSTIVE, Engine::BitSliced, 2).unwrap(),
                "width {width}"
            );
        }
    }

    #[test]
    fn signed_engines_are_bit_identical_sampled() {
        let m = signed_sdlc(12, 3).unwrap();
        let scalar = evaluate_signed(&m, sample(40_000, 42), Engine::Scalar, 4).unwrap();
        let bitsliced = evaluate_signed(&m, sample(40_000, 42), Engine::BitSliced, 4).unwrap();
        assert_eq!(scalar, bitsliced);
        // The zero-operand rows err through the undefined-RED path for
        // ETM; that bookkeeping must agree too.
        let etm = SignMagnitude::new(crate::baselines::EtmMultiplier::new(8).unwrap());
        let scalar = evaluate_signed(&etm, sample(20_000, 7), Engine::Scalar, 4).unwrap();
        let bitsliced = evaluate_signed(&etm, sample(20_000, 7), Engine::BitSliced, 4).unwrap();
        assert_eq!(scalar, bitsliced);
    }

    #[test]
    fn signed_thread_count_never_changes_results() {
        let m = signed_sdlc(6, 2).unwrap();
        for engine in [Engine::Scalar, Engine::BitSliced] {
            assert_eq!(
                evaluate_signed(&m, EXHAUSTIVE, engine, 1).unwrap(),
                evaluate_signed(&m, EXHAUSTIVE, engine, 7).unwrap()
            );
        }
        assert_eq!(
            evaluate_signed(&m, sample(9_000, 3), Engine::Scalar, 1).unwrap(),
            evaluate_signed(&m, sample(9_000, 3), Engine::Scalar, 5).unwrap()
        );
    }

    #[test]
    fn signed_engine_dispatch_agrees() {
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
    fn signed_width_and_sample_limits() {
        let wide = signed_sdlc(32, 2).unwrap();
        assert!(matches!(
            exhaustive_signed_with_engine(&wide, Engine::Scalar).unwrap_err(),
            EvalError::WidthTooLarge { width: 32, .. }
        ));
        assert!(matches!(
            exhaustive_signed_with_engine(&wide, Engine::BitSliced).unwrap_err(),
            EvalError::WidthTooLarge { width: 32, limit }
                if limit == BITSLICED_EXHAUSTIVE_WIDTH_LIMIT
        ));
        let very_wide = signed_sdlc(64, 2).unwrap();
        assert!(matches!(
            sampled_signed_with_engine(&very_wide, 100, 1, Engine::Scalar).unwrap_err(),
            EvalError::UnsupportedWidth { width: 64, .. }
        ));
        for engine in [Engine::Scalar, Engine::BitSliced] {
            assert_eq!(
                sampled_signed_with_engine(&wide, 0, 1, engine).unwrap_err(),
                EvalError::NoSamples
            );
        }
    }

    #[test]
    fn signed_worst_red_pair_is_reported_signed() {
        let m = signed_sdlc(8, 4).unwrap();
        let metrics = exhaustive_signed_with_engine(&m, Engine::Scalar).unwrap();
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
