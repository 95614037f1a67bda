//! Equivalence checking between netlists and functional models.
//!
//! Every circuit generator in the workspace is validated against its
//! word-level model: exhaustively for narrow operands, by seeded sampling
//! above that. A mismatch reports the first failing operand pair.
//!
//! [`check`] covers unsigned netlists and [`check_signed`]
//! two's-complement ones; a [`Sweep`] picks the operand pairs and an
//! [`Engine`] the simulator. The two domains share one exhaustive and one
//! sampled sweep per engine and differ only in their corner operands, in
//! how a product is decoded and compared, and in the counterexample they
//! report ([`Mismatch`] or [`SignedMismatch`]).
//!
//! The scalar engine drives one vector at a time through [`LogicSim`] —
//! the reference. The compiled engine flattens the netlist once
//! ([`CompiledNetlist`]) and evaluates **512 operand pairs per sweep**:
//! eight 64-lane bit-plane words per value slot ([`CompiledSim`] with
//! `W = 8`), so each op's dispatch is paid once per 512 pairs. Operand
//! planes reuse the `sdlc_wideint::bitplane` transpose machinery, and the
//! operand space is sharded across scoped threads through the same
//! [`parallel_chunks`] splitter as the `sdlc-core` error drivers.
//!
//! * Exhaustive sweeps compare row-major 64-lane blocks `(a, b0 .. b0 +
//!   63)` against the model's block ([`Model::block`], or [`Model::pair`]
//!   lane by lane). The compiled engine shards rows; each thread fills a
//!   sweep with the next eight blocks of its chunk (a sweep may span rows)
//!   and then checks the blocks in order.
//! * Sampled sweeps check the domain's corner pairs, then seeded draws.
//!   The compiled engine generates each 512-pair group straight from the
//!   seed (the generator seeks with [`SplitMix64::advance`]), so memory
//!   stays bounded for any sample count.
//!
//! Operands up to 128 bits are packed as two 64-plane halves, and products
//! up to 256 bits decode 64 planes at a time, so the compiled engine
//! covers every multiplier the workspace builds; the scalar engine only
//! runs when asked for. Pair order, lane decoding order and chunk merge
//! order all follow the scalar sweep, so the engines return bit-identical
//! verdicts — including the *same first* counterexample — at a fraction
//! of the cost (the differential suite proves it).

use core::fmt;

use sdlc_netlist::{NetId, Netlist};
use sdlc_wideint::parallel::parallel_chunks;
use sdlc_wideint::{bitplane, SplitMix64, I256, U256};

use crate::compile::{CompiledNetlist, CompiledSim};
use crate::logic::ab_stimulus;
use crate::LogicSim;

const LANES: usize = bitplane::LANES;

/// Widest operands an exhaustive sweep accepts (2^32 pairs).
const EXHAUSTIVE_MAX_WIDTH: u32 = 16;

/// Which simulation engine an equivalence check runs on.
///
/// Mirrors `sdlc_core::error::Engine` (scalar vs bit-sliced) one level
/// down the stack: here the alternatives are the scalar netlist walk and
/// the compiled word-parallel program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// One [`LogicSim`] sweep per operand pair — the reference engine.
    #[default]
    Scalar,
    /// 512 pairs per sweep through the compiled program, sharded across
    /// threads.
    Compiled,
}

impl Engine {
    /// Short identifier used in reports and CLI flags.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Compiled => "compiled",
        }
    }
}

impl core::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine {other:?}; expected \"scalar\" or \"compiled\""
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Which operand pairs an equivalence check covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sweep {
    /// Every pair of `width`-bit operand patterns in row-major order
    /// (practical to ~8 bits on the scalar engine, ~12 bits compiled).
    Exhaustive,
    /// Every ordered pair of the domain's corner operands (0, 1 and
    /// all-ones unsigned; 0, 1, −1, MAX and MIN signed), then `samples`
    /// seeded draws.
    Sampled {
        /// Number of seeded operand pairs after the corners.
        samples: u64,
        /// Seed of the SplitMix64 draw stream.
        seed: u64,
    },
}

impl Sweep {
    /// Number of operand pairs the sweep checks at `width` bits, in the
    /// two's-complement domain if `signed`.
    ///
    /// # Panics
    ///
    /// Panics for an exhaustive sweep wider than 16 bits.
    #[must_use]
    pub fn pairs(self, width: u32, signed: bool) -> u64 {
        match self {
            Sweep::Exhaustive => {
                assert!(
                    width <= EXHAUSTIVE_MAX_WIDTH,
                    "exhaustive sweeps stop at 16 bits, got {width}"
                );
                1u64 << (2 * width)
            }
            Sweep::Sampled { samples, .. } => corner_pairs(width, signed) + samples,
        }
    }

    /// One line naming the pairs checked, such as `exhaustive, 65536
    /// operand pairs` or `sampled, 25 signed corners + 100 seeded pairs`.
    ///
    /// # Panics
    ///
    /// As [`Sweep::pairs`].
    #[must_use]
    pub fn coverage(self, width: u32, signed: bool) -> String {
        let domain = if signed { "signed " } else { "" };
        match self {
            Sweep::Exhaustive => format!(
                "exhaustive, {} {domain}operand pairs",
                self.pairs(width, signed)
            ),
            Sweep::Sampled { samples, .. } => format!(
                "sampled, {} {domain}corners + {samples} seeded pairs",
                corner_pairs(width, signed)
            ),
        }
    }
}

/// Number of corner pairs a sampled sweep starts with.
fn corner_pairs(width: u32, signed: bool) -> u64 {
    let corners = if signed {
        Signed::corners(width).len()
    } else {
        Unsigned::corners(width).len()
    };
    (corners * corners) as u64
}

/// The functional model a check compares the netlist with: every
/// `Fn(a, b) -> product` closure over the domain's operands (`u128` →
/// [`U256`] unsigned, `i128` → [`I256`] signed), or a [`Batched`] model.
///
/// Sampled sweeps call [`Model::pair`] once per pair, in sequence order on
/// the scalar engine. Exhaustive sweeps compare 64-lane row blocks: a
/// model with a batched form answers [`Model::block`]; the others have
/// their blocks filled from [`Model::pair`] lane by lane, which panics if
/// a product does not fit 64 bits.
pub trait Model<Operand, Product>: Sync {
    /// The product of one operand pair.
    fn pair(&self, a: Operand, b: Operand) -> Product;

    /// Writes the products of the operand patterns `(a, b0 + i)` to
    /// `out[i]` — the raw product unsigned, its 64-bit two's-complement
    /// pattern signed; lanes past the last pattern are ignored — and
    /// returns `true`, or returns `false` if the model has no batched form.
    fn block(&self, _a: u64, _b0: u64, _out: &mut [u64; LANES]) -> bool {
        false
    }
}

impl<O, P, F: Fn(O, O) -> P + Sync> Model<O, P> for F {
    fn pair(&self, a: O, b: O) -> P {
        self(a, b)
    }
}

/// A per-pair model with a batched row-block form, such as `sdlc-core`'s
/// `exhaustive_block` over a bit-sliced twin: one call per 64 pairs is
/// what keeps the model side from dominating a compiled exhaustive sweep
/// at 10+ bits.
pub struct Batched<P, B> {
    /// The product of one operand pair.
    pub pair: P,
    /// Fills one row block, as [`Model::block`] describes.
    pub block: B,
}

impl<O, P, F, B> Model<O, P> for Batched<F, B>
where
    F: Fn(O, O) -> P + Sync,
    B: Fn(u64, u64, &mut [u64; LANES]) + Sync,
{
    fn pair(&self, a: O, b: O) -> P {
        (self.pair)(a, b)
    }

    fn block(&self, a: u64, b0: u64, out: &mut [u64; LANES]) -> bool {
        (self.block)(a, b0, out);
        true
    }
}

/// A counterexample from an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Left operand.
    pub a: u128,
    /// Right operand.
    pub b: u128,
    /// Product computed by the netlist.
    pub netlist_product: U256,
    /// Product computed by the reference model.
    pub model_product: U256,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "netlist({}, {}) = {} but model says {}",
            self.a, self.b, self.netlist_product, self.model_product
        )
    }
}

/// A counterexample from a *signed* equivalence check, with operands and
/// products decoded from their two's-complement bus patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMismatch {
    /// Left operand (signed value).
    pub a: i128,
    /// Right operand (signed value).
    pub b: i128,
    /// Signed product computed by the netlist.
    pub netlist_product: I256,
    /// Signed product computed by the reference model.
    pub model_product: I256,
}

impl std::fmt::Display for SignedMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "signed netlist({}, {}) = {} but model says {}",
            self.a, self.b, self.netlist_product, self.model_product
        )
    }
}

/// Checks an unsigned `a`/`b`→`p` netlist against `model` over `sweep`
/// with `width`-bit operands. Both engines walk the same pairs in the same
/// order, so verdicts and the first counterexample are bit-identical.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if the netlist lacks the `a`/`b`/`p` buses or has other inputs,
/// if operands overflow an input bus, and for an exhaustive sweep wider
/// than 16 bits or with a `p` bus wider than 64 bits.
pub fn check(
    netlist: &Netlist,
    width: u32,
    sweep: Sweep,
    model: impl Model<u128, U256>,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    run::<Unsigned>(netlist, width, sweep, &model, engine)
}

/// [`check`] for a two's-complement netlist: operand patterns are read as
/// signed values and the low `2·width` bits of `p` as the signed product.
/// Exhaustive sweeps walk the bit patterns `0..2^width` on each bus.
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
///
/// # Panics
///
/// As [`check`].
pub fn check_signed(
    netlist: &Netlist,
    width: u32,
    sweep: Sweep,
    model: impl Model<i128, I256>,
    engine: Engine,
) -> Result<(), Box<SignedMismatch>> {
    run::<Signed>(netlist, width, sweep, &model, engine)
}

/// Exhaustive [`check`] with a per-pair model; kept because the
/// `perfbench/trace` harness calls it.
pub fn check_exhaustive_with_engine(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(u128, u128) -> U256 + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    check(netlist, width, Sweep::Exhaustive, model, engine)
}

/// Sampled [`check`] with a per-pair model; kept because the
/// `perfbench/trace` harness calls it.
pub fn check_sampled_with_engine(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    model: impl Fn(u128, u128) -> U256 + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    let sweep = Sweep::Sampled { samples, seed };
    check(netlist, width, sweep, model, engine)
}

/// Exhaustive [`check`] with a block-only model; kept because the
/// `perfbench/trace` harness calls it.
pub fn check_exhaustive_batched(
    netlist: &Netlist,
    width: u32,
    block_model: impl Fn(u64, u64, &mut [u64; LANES]) + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    let model = Batched {
        pair: |_: u128, _: u128| -> U256 { unreachable!("exhaustive sweeps read blocks") },
        block: block_model,
    };
    check(netlist, width, Sweep::Exhaustive, model, engine)
}

/// Exhaustive [`check_signed`] with a per-pair model; kept because the
/// `perfbench/trace` harness calls it.
pub fn check_exhaustive_signed_with_engine(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(i128, i128) -> I256 + Sync,
    engine: Engine,
) -> Result<(), Box<SignedMismatch>> {
    check_signed(netlist, width, Sweep::Exhaustive, model, engine)
}

/// Sampled [`check_signed`] with a per-pair model; kept because the
/// `perfbench/trace` harness calls it.
pub fn check_sampled_signed_with_engine(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    model: impl Fn(i128, i128) -> I256 + Sync,
    engine: Engine,
) -> Result<(), Box<SignedMismatch>> {
    let sweep = Sweep::Sampled { samples, seed };
    check_signed(netlist, width, sweep, model, engine)
}

// ---------------------------------------------------------------------
// Operand domains.
// ---------------------------------------------------------------------

/// An operand domain: its corner operands, its per-pair model signature,
/// and how a netlist product is compared and reported. Operands always
/// travel as bit patterns.
trait Domain {
    type Operand: Copy;
    type Product;
    type Report: Send;

    /// Corner operand patterns; every ordered pair of them opens a
    /// sampled sweep.
    fn corners(width: u32) -> Vec<u128>;

    /// The model operand of a `width`-bit pattern.
    fn operand(pattern: u128, width: u32) -> Self::Operand;

    /// A model product as a block lane.
    fn lane(product: Self::Product) -> u64;

    /// A block lane as a model product.
    fn product(lane: u64) -> Self::Product;

    /// The netlist's raw `p` lane in block-lane form.
    fn netlist_lane(raw: u64, width: u32) -> u64;

    /// Compares the netlist's raw product `got` of the patterns `(a, b)`
    /// with the model's product.
    fn mismatch(
        width: u32,
        a: u128,
        b: u128,
        got: &U256,
        expect: Self::Product,
    ) -> Option<Box<Self::Report>>;
}

/// The unsigned domain: operands are their patterns and products compare
/// as raw integers.
struct Unsigned;

impl Domain for Unsigned {
    type Operand = u128;
    type Product = U256;
    type Report = Mismatch;

    fn corners(width: u32) -> Vec<u128> {
        vec![0, 1, all_ones(width)]
    }

    fn operand(pattern: u128, _: u32) -> u128 {
        pattern
    }

    fn lane(product: U256) -> u64 {
        product
            .to_u128()
            .and_then(|p| u64::try_from(p).ok())
            .unwrap_or_else(|| panic!("model product {product} exceeds a 64-bit lane"))
    }

    fn product(lane: u64) -> U256 {
        U256::from_u64(lane)
    }

    fn netlist_lane(raw: u64, _: u32) -> u64 {
        raw
    }

    fn mismatch(_: u32, a: u128, b: u128, got: &U256, expect: U256) -> Option<Box<Mismatch>> {
        (*got != expect).then(|| {
            Box::new(Mismatch {
                a,
                b,
                netlist_product: *got,
                model_product: expect,
            })
        })
    }
}

/// The two's-complement domain: operand patterns are sign-extended, a
/// netlist product is the low `2·width` bits of `p`, and block lanes hold
/// products as 64-bit two's-complement patterns.
struct Signed;

impl Domain for Signed {
    type Operand = i128;
    type Product = I256;
    type Report = SignedMismatch;

    /// 0, 1, −1, MAX and MIN.
    fn corners(width: u32) -> Vec<u128> {
        let min = 1u128 << (width - 1);
        vec![0, 1, all_ones(width), min - 1, min]
    }

    fn operand(pattern: u128, width: u32) -> i128 {
        ((pattern << (128 - width)) as i128) >> (128 - width)
    }

    fn lane(product: I256) -> u64 {
        product
            .to_i128()
            .and_then(|p| i64::try_from(p).ok())
            .unwrap_or_else(|| panic!("model product {product} exceeds a 64-bit lane"))
            as u64
    }

    fn product(lane: u64) -> I256 {
        I256::from_i128(i128::from(lane as i64))
    }

    fn netlist_lane(raw: u64, width: u32) -> u64 {
        let shift = 64 - 2 * width;
        (((raw << shift) as i64) >> shift) as u64
    }

    fn mismatch(
        width: u32,
        a: u128,
        b: u128,
        got: &U256,
        expect: I256,
    ) -> Option<Box<SignedMismatch>> {
        let got = I256::from_twos_complement(got, 2 * width);
        (got != expect).then(|| {
            Box::new(SignedMismatch {
                a: Self::operand(a, width),
                b: Self::operand(b, width),
                netlist_product: got,
                model_product: expect,
            })
        })
    }
}

/// The all-ones pattern of `width` bits.
fn all_ones(width: u32) -> u128 {
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Writes the model's row block `(a, b0 + i)` of `width`-bit patterns,
/// from [`Model::pair`] lane by lane if the model has no batched form.
fn row_block<D: Domain>(
    model: &impl Model<D::Operand, D::Product>,
    width: u32,
    a: u64,
    b0: u64,
    out: &mut [u64; LANES],
) {
    if model.block(a, b0, out) {
        return;
    }
    let a = D::operand(a.into(), width);
    for (lane, b) in out.iter_mut().zip(b0..(1u64 << width)) {
        *lane = D::lane(model.pair(a, D::operand(b.into(), width)));
    }
}

/// Compares the netlist's raw product `got` of the patterns `(a, b)` with
/// the model's.
fn pair_mismatch<D: Domain>(
    model: &impl Model<D::Operand, D::Product>,
    width: u32,
    a: u128,
    b: u128,
    got: &U256,
) -> Option<Box<D::Report>> {
    let expect = model.pair(D::operand(a, width), D::operand(b, width));
    D::mismatch(width, a, b, got, expect)
}

/// Compares lanes `0..valid` of the netlist's row block `(a, b0 + i)`
/// with the model's; the first differing lane is the counterexample.
fn block_mismatch<D: Domain>(
    model: &impl Model<D::Operand, D::Product>,
    width: u32,
    a: u64,
    b0: u64,
    valid: usize,
    got: &[u64; LANES],
) -> Option<Box<D::Report>> {
    let mut expect = [0u64; LANES];
    row_block::<D>(model, width, a, b0, &mut expect);
    let i = (0..valid).find(|&i| D::netlist_lane(got[i], width) != expect[i])?;
    let b = b0 + i as u64;
    D::mismatch(
        width,
        a.into(),
        b.into(),
        &U256::from_u64(got[i]),
        D::product(expect[i]),
    )
}

// ---------------------------------------------------------------------
// Sweeps: one exhaustive and one sampled body per engine.
// ---------------------------------------------------------------------

/// Runs `sweep` on `engine`.
fn run<D: Domain>(
    netlist: &Netlist,
    width: u32,
    sweep: Sweep,
    model: &impl Model<D::Operand, D::Product>,
    engine: Engine,
) -> Result<(), Box<D::Report>> {
    let found = match sweep {
        Sweep::Exhaustive => {
            assert!(
                width <= EXHAUSTIVE_MAX_WIDTH,
                "exhaustive equivalence beyond 16 bits is impractical"
            );
            let p_len = netlist.bus("p").expect("output bus `p`").len();
            assert!(p_len <= 64, "exhaustive checks need products <= 64 bits");
            match engine {
                Engine::Scalar => scalar_exhaustive::<D>(netlist, width, model),
                Engine::Compiled => compiled_exhaustive::<D>(netlist, width, model),
            }
        }
        Sweep::Sampled { samples, seed } => {
            let sequence = SampledPairs::new::<D>(width, samples, seed);
            match engine {
                Engine::Scalar => scalar_sampled::<D>(netlist, width, &sequence, model),
                Engine::Compiled => compiled_sampled::<D>(netlist, width, &sequence, model),
            }
        }
    };
    found.map_or(Ok(()), Err)
}

/// Walks every pair through [`LogicSim`] in row-major order, comparing
/// one 64-lane row block at a time.
fn scalar_exhaustive<D: Domain>(
    netlist: &Netlist,
    width: u32,
    model: &impl Model<D::Operand, D::Product>,
) -> Option<Box<D::Report>> {
    let count = 1u64 << width;
    let mut sim = LogicSim::new(netlist);
    let mut got = [0u64; LANES];
    for a in 0..count {
        for b0 in (0..count).step_by(LANES) {
            let valid = (count - b0).min(LANES as u64) as usize;
            for (lane, b) in got.iter_mut().zip(b0..count) {
                sim.apply(&ab_stimulus(netlist, a.into(), b.into()));
                *lane = sim.read_bus("p") as u64;
            }
            if let Some(mismatch) = block_mismatch::<D>(model, width, a, b0, valid, &got) {
                return Some(mismatch);
            }
        }
    }
    None
}

/// Walks a sampled sequence through [`LogicSim`] pair by pair.
fn scalar_sampled<D: Domain>(
    netlist: &Netlist,
    width: u32,
    sequence: &SampledPairs,
    model: &impl Model<D::Operand, D::Product>,
) -> Option<Box<D::Report>> {
    let mut sim = LogicSim::new(netlist);
    sequence.iter().find_map(|(a, b)| {
        sim.apply(&ab_stimulus(netlist, a, b));
        pair_mismatch::<D>(model, width, a, b, &read_product(&sim, netlist))
    })
}

/// Reads the `p` output bus as a [`U256`] regardless of width.
fn read_product(sim: &LogicSim<'_>, netlist: &Netlist) -> U256 {
    let bits = netlist.bus("p").expect("output bus `p`");
    let mut out = U256::ZERO;
    for (i, net) in bits.iter().enumerate() {
        if sim.value(*net) {
            out.set_bit(i as u32, true);
        }
    }
    out
}

/// Sweeps the full `count × count` operand rectangle in row-major 64-lane
/// blocks `(a, b0)`, rows sharded across threads through the shared chunk
/// splitter. Each chunk's blocks are evaluated `WORDS` at a time (a group
/// may span rows) and compared in order, stopping the chunk at its first
/// counterexample; chunks merge in order, so the first counterexample is
/// the one the scalar engine reports.
fn compiled_exhaustive<D: Domain>(
    netlist: &Netlist,
    width: u32,
    model: &impl Model<D::Operand, D::Product>,
) -> Option<Box<D::Report>> {
    let ports = AbPorts::of(netlist, width);
    let program = CompiledNetlist::compile(netlist);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let count = 1u64 << width;
    // Exhaustive operands stay below 2^16: planes past 64 stay zero.
    let (a_low, b_low) = (ports.a_len.min(64), ports.b_len.min(64));
    let blocks_per_row = count.div_ceil(LANES as u64);
    let block = |k: u64| (k / blocks_per_row, (k % blocks_per_row) * LANES as u64);
    let partials = parallel_chunks(count, threads, |lo, hi| {
        let mut worker = ports.worker(&program);
        let mut planes = [0u64; LANES];
        let mut lanes = [0u64; LANES];
        let (first, end) = (lo * blocks_per_row, hi * blocks_per_row);
        for start in (first..end).step_by(WORDS) {
            let group = start..end.min(start + WORDS as u64);
            for (word, k) in group.clone().enumerate() {
                let (a, b0) = block(k);
                bitplane::broadcast_planes(a, a_low as u32, &mut planes);
                set_word(&planes[..a_low], word, &mut worker.a_planes);
                bitplane::counter_planes(b0, b_low as u32, &mut planes);
                set_word(&planes[..b_low], word, &mut worker.b_planes);
            }
            ports.evaluate(&mut worker);
            for (word, k) in group.enumerate() {
                let (a, b0) = block(k);
                let valid = (count - b0).min(LANES as u64) as usize;
                ports.product_lanes(&worker.sim, word, &mut lanes);
                if let Some(mismatch) = block_mismatch::<D>(model, width, a, b0, valid, &lanes) {
                    return Some(mismatch);
                }
            }
        }
        None
    });
    partials.into_iter().flatten().next()
}

/// Sweeps a sampled sequence in order, `GROUP` pairs per sweep, groups
/// sharded across threads. Each group is generated straight from the seed
/// ([`SampledPairs::fill`]), so memory stays bounded for any sample count.
/// Lane decoding follows sequence order, so the first counterexample
/// matches the scalar engine's.
fn compiled_sampled<D: Domain>(
    netlist: &Netlist,
    width: u32,
    sequence: &SampledPairs,
    model: &impl Model<D::Operand, D::Product>,
) -> Option<Box<D::Report>> {
    let ports = AbPorts::of(netlist, width);
    let program = CompiledNetlist::compile(netlist);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total = sequence.len();
    let groups = total.div_ceil(GROUP as u64);
    let partials = parallel_chunks(groups, threads, |lo, hi| {
        let mut worker = ports.worker(&program);
        let mut buffer = [(0u128, 0u128); GROUP];
        let mut lanes = [U256::ZERO; LANES];
        for group in lo..hi {
            let start = group * GROUP as u64;
            let pairs = &mut buffer[..(total - start).min(GROUP as u64) as usize];
            sequence.fill(start, pairs);
            for (word, block) in pairs.chunks(LANES).enumerate() {
                let mut a_lanes = [0u128; LANES];
                let mut b_lanes = [0u128; LANES];
                for (i, &(a, b)) in block.iter().enumerate() {
                    a_lanes[i] = a;
                    b_lanes[i] = b;
                }
                operand_planes(&a_lanes, word, &mut worker.a_planes);
                operand_planes(&b_lanes, word, &mut worker.b_planes);
            }
            ports.evaluate(&mut worker);
            for (word, block) in pairs.chunks(LANES).enumerate() {
                ports.wide_product_lanes(&worker.sim, word, &mut lanes);
                for (&(a, b), got) in block.iter().zip(&lanes) {
                    if let Some(mismatch) = pair_mismatch::<D>(model, width, a, b, got) {
                        return Some(mismatch);
                    }
                }
            }
        }
        None
    });
    partials.into_iter().flatten().next()
}

/// A sampled sweep's pair sequence: every ordered pair of the domain's
/// corners, then `samples` seeded draws. The scalar engine iterates it in
/// order ([`SampledPairs::iter`]); the compiled engine generates any
/// stretch on its own by seeking the generator with
/// [`SplitMix64::advance`] ([`SampledPairs::fill`]), which is what makes
/// their first counterexamples identical.
struct SampledPairs {
    corners: Vec<(u128, u128)>,
    width: u32,
    samples: u64,
    seed: u64,
}

impl SampledPairs {
    fn new<D: Domain>(width: u32, samples: u64, seed: u64) -> Self {
        let corners = D::corners(width);
        Self {
            corners: corners
                .iter()
                .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
                .collect(),
            width,
            samples,
            seed,
        }
    }

    /// Number of pairs in the sequence.
    fn len(&self) -> u64 {
        self.corners.len() as u64 + self.samples
    }

    /// The whole sequence in order.
    fn iter(&self) -> impl Iterator<Item = (u128, u128)> + '_ {
        let mut rng = SplitMix64::new(self.seed);
        let draws = (0..self.samples).map(move |_| {
            let a = draw_pattern(&mut rng, self.width);
            (a, draw_pattern(&mut rng, self.width))
        });
        self.corners.iter().copied().chain(draws)
    }

    /// Generator outputs one [`draw_pattern`] consumes.
    fn outputs_per_operand(&self) -> u64 {
        match self.width {
            0 => 0,
            1..=64 => 1,
            _ => 2,
        }
    }

    /// Writes pairs `start .. start + out.len()` of the sequence.
    fn fill(&self, start: u64, out: &mut [(u128, u128)]) {
        let corners = self.corners.len() as u64;
        let mut rng = SplitMix64::new(self.seed);
        rng.advance(start.saturating_sub(corners) * 2 * self.outputs_per_operand());
        for (k, pair) in (start..).zip(out) {
            *pair = if k < corners {
                self.corners[k as usize]
            } else {
                let a = draw_pattern(&mut rng, self.width);
                (a, draw_pattern(&mut rng, self.width))
            };
        }
    }
}

fn draw_pattern(rng: &mut SplitMix64, width: u32) -> u128 {
    if width <= 64 {
        u128::from(rng.next_bits(width))
    } else {
        (u128::from(rng.next_bits(width - 64)) << 64) | u128::from(rng.next_u64())
    }
}

// ---------------------------------------------------------------------
// Compiled word-parallel machinery.
// ---------------------------------------------------------------------

/// 64-lane words per compiled sweep: the opcode match and index loads of
/// every op are paid once per `WORDS` words.
const WORDS: usize = 8;
/// Operand pairs per compiled sweep.
const GROUP: usize = WORDS * LANES;

/// The compiled sweeps' executor: `WORDS` words per value slot.
type GroupSim<'p> = CompiledSim<'p, WORDS>;

/// Pre-resolved `a`/`b`/`p` port map for the compiled sweeps: stimulus
/// slots are written straight from operand bit-planes, products read
/// straight from the `p` nets.
struct AbPorts {
    /// Per primary input (netlist order): operand bus (false = `a`) and
    /// bit position within it.
    input_src: Vec<(bool, usize)>,
    a_len: usize,
    b_len: usize,
    p_nets: Vec<NetId>,
}

impl AbPorts {
    /// Resolves the ports of a netlist swept with `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if a bus is missing, the netlist has other inputs, an
    /// operand bus is narrower than `width` (the operands would overflow
    /// it, as [`ab_stimulus`] reports for the scalar engine) or the `p`
    /// bus exceeds 256 bits.
    fn of(netlist: &Netlist, width: u32) -> Self {
        let bus_a = netlist.bus("a").expect("input bus `a`");
        let bus_b = netlist.bus("b").expect("input bus `b`");
        let p_nets = netlist.bus("p").expect("output bus `p`").to_vec();
        assert!(bus_a.len() >= width as usize, "operand a overflows bus");
        assert!(bus_b.len() >= width as usize, "operand b overflows bus");
        assert!(p_nets.len() <= 256, "products beyond 256 bits");
        assert_eq!(
            netlist.inputs().len(),
            bus_a.len() + bus_b.len(),
            "netlist has inputs beyond a/b"
        );
        let input_src = netlist
            .inputs()
            .iter()
            .map(|&input| {
                if let Some(j) = bus_a.iter().position(|&n| n == input) {
                    (false, j)
                } else {
                    let j = bus_b
                        .iter()
                        .position(|&n| n == input)
                        .expect("net in a bus");
                    (true, j)
                }
            })
            .collect();
        Self {
            input_src,
            a_len: bus_a.len(),
            b_len: bus_b.len(),
            p_nets,
        }
    }

    /// A zeroed worker state for one thread: the executor, its stimulus
    /// buffer and one `WORDS`-word plane per operand bit.
    fn worker<'p>(&self, program: &'p CompiledNetlist) -> GroupWorker<'p> {
        GroupWorker {
            sim: CompiledSim::wide(program),
            stimulus: vec![0; self.input_src.len() * WORDS],
            a_planes: vec![[0; WORDS]; self.a_len],
            b_planes: vec![[0; WORDS]; self.b_len],
        }
    }

    /// Settles the worker's operand planes through the program.
    fn evaluate(&self, worker: &mut GroupWorker<'_>) {
        let (words, _) = worker.stimulus.as_chunks_mut::<WORDS>();
        for (word, &(is_b, bit)) in words.iter_mut().zip(&self.input_src) {
            *word = if is_b {
                worker.b_planes[bit]
            } else {
                worker.a_planes[bit]
            };
        }
        worker.sim.evaluate(&worker.stimulus);
    }

    /// Decodes the 64 per-lane products of stimulus word `word` from a `p`
    /// bus of at most 64 bits.
    fn product_lanes(&self, sim: &GroupSim<'_>, word: usize, out: &mut [u64; LANES]) {
        let mut planes = [0u64; LANES];
        for (plane, &net) in planes.iter_mut().zip(&self.p_nets) {
            *plane = sim.planes(net)[word];
        }
        bitplane::lanes_from_planes(&planes[..self.p_nets.len()], out);
    }

    /// Transposes `p` planes `64·chunk ..` (zero past the bus) of stimulus
    /// word `word` into one 64-bit limb per lane.
    fn product_chunk(&self, sim: &GroupSim<'_>, word: usize, chunk: usize, out: &mut [u64; LANES]) {
        let mut planes = [0u64; LANES];
        let nets = self.p_nets.iter().skip(chunk * LANES);
        for (plane, &net) in planes.iter_mut().zip(nets) {
            *plane = sim.planes(net)[word];
        }
        *out = bitplane::transposed64(&planes);
    }

    /// Decodes the 64 per-lane products of stimulus word `word` from a `p`
    /// bus of any supported width (up to 256 bits), one 64-plane transpose
    /// per limb.
    fn wide_product_lanes(&self, sim: &GroupSim<'_>, word: usize, out: &mut [U256; LANES]) {
        let len = self.p_nets.len();
        let mut limb = [0u64; LANES];
        if len <= 64 {
            self.product_lanes(sim, word, &mut limb);
            for (o, &l) in out.iter_mut().zip(&limb) {
                *o = U256::from_u64(l);
            }
            return;
        }
        for chunk in 0..len.div_ceil(LANES) {
            self.product_chunk(sim, word, chunk, &mut limb);
            for (o, &l) in out.iter_mut().zip(&limb) {
                o.limbs_mut()[chunk] = l;
            }
        }
    }
}

/// One thread's sweep state: a [`GroupSim`] plus the operand planes of the
/// group it evaluates next (`a_planes[j][w]` is bit `j` of word `w`).
struct GroupWorker<'p> {
    sim: GroupSim<'p>,
    stimulus: Vec<u64>,
    a_planes: Vec<[u64; WORDS]>,
    b_planes: Vec<[u64; WORDS]>,
}

/// Writes `planes` into word `word` of a `WORDS`-word plane stack.
fn set_word(planes: &[u64], word: usize, out: &mut [[u64; WORDS]]) {
    for (o, &plane) in out.iter_mut().zip(planes) {
        o[word] = plane;
    }
}

/// Writes word `word` of the bit-planes of 64 lane operands for a bus of
/// `out.len()` bits: the low and high 64-bit halves each take one
/// transpose (bits past 128 stay zero).
fn operand_planes(lanes: &[u128; LANES], word: usize, out: &mut [[u64; WORDS]]) {
    let low = bitplane::transposed64(&core::array::from_fn(|i| lanes[i] as u64));
    set_word(&low, word, out);
    if out.len() > 64 {
        let high = bitplane::transposed64(&core::array::from_fn(|i| (lanes[i] >> 64) as u64));
        set_word(&high, word, &mut out[64..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::reduce::{rows_to_columns, wallace, RowBits};

    fn wallace_multiplier(width: u32) -> Netlist {
        let mut n = Netlist::new("mul");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let rows: Vec<RowBits> = b
            .iter()
            .enumerate()
            .map(|(k, &bk)| {
                let bits: Vec<_> = a.iter().map(|&aj| n.and2(aj, bk)).collect();
                RowBits { offset: k, bits }
            })
            .collect();
        let columns = rows_to_columns(&rows, 2 * width as usize);
        let p = wallace(&mut n, columns);
        n.set_output_bus("p", p);
        n
    }

    fn exact(a: u128, b: u128) -> U256 {
        U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
    }

    fn exact_signed(a: i128, b: i128) -> I256 {
        I256::from_i128(a * b)
    }

    fn sampled(samples: u64, seed: u64) -> Sweep {
        Sweep::Sampled { samples, seed }
    }

    #[test]
    fn exhaustive_passes_for_exact_multiplier() {
        let n = wallace_multiplier(4);
        check(&n, 4, Sweep::Exhaustive, exact, Engine::Scalar).unwrap();
    }

    #[test]
    fn exhaustive_passes_on_the_compiled_engine() {
        let n = wallace_multiplier(4);
        check(&n, 4, Sweep::Exhaustive, exact, Engine::Compiled).unwrap();
    }

    #[test]
    fn sampled_passes_for_wide_multiplier() {
        let n = wallace_multiplier(20);
        for engine in [Engine::Scalar, Engine::Compiled] {
            check(&n, 20, sampled(500, 3), exact, engine).unwrap();
        }
    }

    #[test]
    fn compiled_sweeps_cover_operands_past_64_bits() {
        // 70-bit operands take two transposes each and the 140-bit
        // product three limbs; both engines agree on pass and on the
        // first failure.
        let n = wallace_multiplier(70);
        for engine in [Engine::Scalar, Engine::Compiled] {
            check(&n, 70, sampled(40, 8), exact, engine).unwrap();
        }
        let wrong = |a: u128, b: u128| {
            let p = exact(a, b);
            if a >> 68 == 3 {
                p ^ (U256::ONE << 130)
            } else {
                p
            }
        };
        let [scalar, compiled] = [Engine::Scalar, Engine::Compiled]
            .map(|engine| check(&n, 70, sampled(40, 8), wrong, engine));
        let scalar = scalar.unwrap_err();
        assert_eq!(scalar, compiled.unwrap_err());
        assert_eq!(scalar.a >> 68, 3);
    }

    #[test]
    fn batched_checks_match_per_pair_checks() {
        let n = wallace_multiplier(4);
        let exact_block = |a: u64, b0: u64, out: &mut [u64; LANES]| {
            for (i, lane) in out.iter_mut().enumerate() {
                // 4-bit sweep: only the 16 valid lanes are compared.
                *lane = a * ((b0 + i as u64) & 0xF);
            }
        };
        for engine in [Engine::Scalar, Engine::Compiled] {
            let model = Batched {
                pair: exact,
                block: exact_block,
            };
            check(&n, 4, Sweep::Exhaustive, model, engine).unwrap();
        }
        // A planted stripe bug surfaces as the same first counterexample
        // on both engines.
        let wrong_block = |a: u64, b0: u64, out: &mut [u64; LANES]| {
            exact_block(a, b0, out);
            for (i, lane) in out.iter_mut().enumerate() {
                if a == 5 && b0 + i as u64 >= 9 {
                    *lane ^= 1;
                }
            }
        };
        let [scalar, compiled] = [Engine::Scalar, Engine::Compiled].map(|engine| {
            let model = Batched {
                pair: exact,
                block: wrong_block,
            };
            check(&n, 4, Sweep::Exhaustive, model, engine).unwrap_err()
        });
        assert_eq!(scalar, compiled);
        assert_eq!((scalar.a, scalar.b), (5, 9));
    }

    #[test]
    fn mismatch_is_reported_with_operands() {
        let n = wallace_multiplier(4);
        // Deliberately wrong model.
        let wrong = |a: u128, b: u128| U256::from_u128(a.wrapping_add(b));
        let err = check(&n, 4, Sweep::Exhaustive, wrong, Engine::Scalar).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("netlist("));
        // First mismatching pair under row-major order: a=0,b=1 → product 0 vs model 1.
        assert_eq!((err.a, err.b), (0, 1));
    }

    #[test]
    fn both_engines_report_the_same_first_mismatch() {
        let n = wallace_multiplier(4);
        let wrong = |a: u128, b: u128| U256::from_u128(a.wrapping_add(b));
        for sweep in [Sweep::Exhaustive, sampled(40, 9)] {
            let [scalar, compiled] = [Engine::Scalar, Engine::Compiled]
                .map(|engine| check(&n, 4, sweep, wrong, engine).unwrap_err());
            assert_eq!(scalar, compiled, "{sweep:?}");
        }
    }

    #[test]
    #[should_panic(expected = "overflows bus")]
    fn compiled_engine_preserves_the_operand_overflow_panic() {
        // Operands wider than the netlist's buses must fail loudly on
        // BOTH engines (the compiled path checks the bus widths rather
        // than silently truncating the packed operands).
        let n = wallace_multiplier(4);
        // Draws 6-bit operands against 4-bit buses.
        let _ = check(&n, 6, sampled(16, 1), exact, Engine::Compiled);
    }

    #[test]
    fn streamed_groups_reproduce_the_reference_sequences() {
        for width in [3u32, 64, 65, 128] {
            for samples in [0u64, 1, 63, 64, 511, 513] {
                for streamed in [
                    SampledPairs::new::<Unsigned>(width, samples, 21),
                    SampledPairs::new::<Signed>(width, samples, 21),
                ] {
                    let reference: Vec<_> = streamed.iter().collect();
                    assert_eq!(streamed.len(), reference.len() as u64);
                    // Any stretch, from any start, matches the reference.
                    for start in [0usize, 1, 8, 9, 24, 25, 300, 512] {
                        let start = start.min(reference.len());
                        let mut out = vec![(0, 0); (reference.len() - start).min(GROUP)];
                        streamed.fill(start as u64, &mut out);
                        assert_eq!(
                            out,
                            reference[start..start + out.len()],
                            "{width}/{samples}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_parsing_and_display() {
        assert_eq!("scalar".parse::<Engine>().unwrap(), Engine::Scalar);
        assert_eq!("compiled".parse::<Engine>().unwrap(), Engine::Compiled);
        assert_eq!(Engine::default(), Engine::Scalar);
        assert_eq!(Engine::Compiled.to_string(), "compiled");
        let err = "turbo".parse::<Engine>().unwrap_err();
        assert!(err.contains("turbo") && err.contains("compiled"), "{err}");
    }

    fn signed_wallace_multiplier(width: u32) -> Netlist {
        sdlc_netlist::signed::sign_magnitude_wrap(&wallace_multiplier(width), width)
    }

    #[test]
    fn signed_exhaustive_passes_for_exact_multiplier() {
        let n = signed_wallace_multiplier(5);
        for engine in [Engine::Scalar, Engine::Compiled] {
            check_signed(&n, 5, Sweep::Exhaustive, exact_signed, engine).unwrap();
        }
    }

    #[test]
    fn signed_sampled_passes_for_wide_multiplier() {
        let n = signed_wallace_multiplier(18);
        for engine in [Engine::Scalar, Engine::Compiled] {
            check_signed(&n, 18, sampled(300, 11), exact_signed, engine).unwrap();
        }
    }

    #[test]
    fn signed_engines_report_the_same_first_mismatch() {
        let n = signed_wallace_multiplier(4);
        let wrong = |_: i128, _: i128| I256::ZERO;
        for sweep in [Sweep::Exhaustive, sampled(30, 2)] {
            let [scalar, compiled] = [Engine::Scalar, Engine::Compiled]
                .map(|engine| check_signed(&n, 4, sweep, wrong, engine).unwrap_err());
            assert_eq!(scalar, compiled, "{sweep:?}");
        }
    }

    #[test]
    fn signed_mismatch_formats_signed_operands() {
        let n = signed_wallace_multiplier(4);
        // Deliberately wrong model: claims every product is zero.
        let zero = |_: i128, _: i128| I256::ZERO;
        let err = check_signed(&n, 4, Sweep::Exhaustive, zero, Engine::Scalar).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("signed netlist("), "{text}");
        // First wrong pair in pattern order is a=1, b=1 (1·1 = 1 ≠ 0).
        assert_eq!((err.a, err.b), (1, 1));
        assert_eq!(err.model_product, I256::ZERO);
        assert_eq!(err.netlist_product.to_i128(), Some(1));
        // Negative operands and products print with their signs.
        let wrong_if_negative = |a: i128, b: i128| {
            // Wrong only where a product is negative, to land on a
            // signed counterexample.
            if a * b < 0 {
                I256::ZERO
            } else {
                I256::from_i128(a * b)
            }
        };
        let err =
            check_signed(&n, 4, sampled(0, 0), wrong_if_negative, Engine::Scalar).unwrap_err();
        assert!(err.a < 0 || err.b < 0);
        assert!(err.to_string().contains('-'), "{err}");
    }
}
