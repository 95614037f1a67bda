//! Equivalence checking between netlists and functional models.
//!
//! Every circuit generator in the workspace is validated against its
//! word-level model: exhaustively for narrow operands, by seeded sampling
//! above that. A mismatch reports the first failing operand pair.
//!
//! Each check runs on one of two [`Engine`]s. The scalar engine drives
//! one vector at a time through [`LogicSim`] — the reference. The
//! compiled engine flattens the netlist once ([`CompiledNetlist`]) and
//! evaluates **512 operand pairs per sweep**: eight 64-lane bit-plane
//! words per value slot ([`CompiledSim`] with `W = 8`), so each op's
//! dispatch is paid once per 512 pairs. Operand planes reuse the
//! `sdlc_wideint::bitplane` transpose machinery, and the operand space is
//! sharded across scoped threads through the same
//! [`parallel_chunks`] splitter as the `sdlc-core` error drivers.
//!
//! * Exhaustive sweeps shard rows; each thread fills a sweep with the next
//!   eight row-major `(a, b0 .. b0 + 63)` blocks of its chunk (a sweep may
//!   span rows) and then checks the blocks in order.
//! * Sampled sweeps generate each 512-pair group straight from the seed
//!   (the generator seeks with [`SplitMix64::advance`]), so memory stays
//!   bounded for any sample count.
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

/// Which simulation engine an equivalence check runs on.
///
/// Mirrors `sdlc_core::error::Engine` (scalar vs bit-sliced) one level
/// down the stack: here the alternatives are the scalar netlist walk and
/// the compiled 64-lane program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// One [`LogicSim`] sweep per operand pair — the reference engine.
    #[default]
    Scalar,
    /// 64 pairs per sweep through the compiled program, sharded across
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

/// Checks the netlist against `model` on every operand pair of
/// `width × width` inputs (practical to ~8 bits on the scalar engine,
/// ~10–12 bits compiled).
///
/// Runs the scalar reference engine; [`check_exhaustive_with_engine`]
/// selects the compiled fast path.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16` (2^{2w} vectors would not terminate reasonably).
pub fn check_exhaustive(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(u128, u128) -> U256,
) -> Result<(), Box<Mismatch>> {
    assert!(
        width <= 16,
        "exhaustive equivalence beyond 16 bits is impractical"
    );
    let mut sim = LogicSim::new(netlist);
    for a in 0..(1u128 << width) {
        for b in 0..(1u128 << width) {
            check_one(netlist, &mut sim, a, b, &model)?;
        }
    }
    Ok(())
}

/// [`check_exhaustive`] dispatched on an [`Engine`]. Both engines sweep
/// the same row-major pair order, so pass/fail results and the first
/// reported counterexample are bit-identical.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16`.
pub fn check_exhaustive_with_engine(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(u128, u128) -> U256 + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    match engine {
        Engine::Scalar => check_exhaustive(netlist, width, model),
        Engine::Compiled => {
            assert!(
                width <= 16,
                "exhaustive equivalence beyond 16 bits is impractical"
            );
            let count = 1u64 << width;
            match exhaustive_walk_compiled(netlist, width, count, |a, b, got| {
                unsigned_check_pair(a, b, got, &model)
            }) {
                Some(mismatch) => Err(mismatch),
                None => Ok(()),
            }
        }
    }
}

/// [`check_exhaustive_with_engine`] with a **64-lane block model**: the
/// model side produces the products of `(a, b0), …, (a, b0 + 63)` in one
/// call instead of being asked pair by pair. Built for bit-sliced model
/// twins (`sdlc-core::batch`): at 10+ bits the per-pair scalar model call
/// dominates the compiled netlist sweep, and batching it is what raises
/// the practical exhaustive-equivalence ceiling to 12 bits.
///
/// Both engines sweep the identical row-major pair order (the scalar
/// engine consumes the same block model lane by lane), so verdicts and
/// the first reported counterexample are bit-identical to the per-pair
/// checks.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16` (the sweep would not terminate reasonably) or
/// the `p` bus exceeds 64 bits (lane products must fit one `u64`).
pub fn check_exhaustive_batched(
    netlist: &Netlist,
    width: u32,
    block_model: impl Fn(u64, u64, &mut [u64; bitplane::LANES]) + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    assert!(
        width <= 16,
        "exhaustive equivalence beyond 16 bits is impractical"
    );
    let count = 1u64 << width;
    let check_block = |a: u64, b0: u64, valid: usize, got: &[u64; bitplane::LANES]| {
        let mut expect = [0u64; bitplane::LANES];
        block_model(a, b0, &mut expect);
        for i in 0..valid {
            if got[i] != expect[i] {
                return Some(Box::new(Mismatch {
                    a: u128::from(a),
                    b: u128::from(b0 + i as u64),
                    netlist_product: U256::from_u128(u128::from(got[i])),
                    model_product: U256::from_u128(u128::from(expect[i])),
                }));
            }
        }
        None
    };
    let found = match engine {
        Engine::Compiled => {
            let p_len = netlist.bus("p").expect("output bus `p`").len();
            assert!(p_len <= 64, "batched checks need products <= 64 bits");
            exhaustive_walk_compiled_blocks(netlist, width, count, check_block)
        }
        Engine::Scalar => {
            // Scalar netlist walk, same block-model consumption order.
            let mut sim = LogicSim::new(netlist);
            let mut found = None;
            'rows: for a in 0..count {
                let mut b0 = 0u64;
                while b0 < count {
                    let valid = (count - b0).min(bitplane::LANES as u64) as usize;
                    let mut got = [0u64; bitplane::LANES];
                    for (i, lane) in got.iter_mut().enumerate().take(valid) {
                        sim.apply(&ab_stimulus(
                            netlist,
                            u128::from(a),
                            u128::from(b0 + i as u64),
                        ));
                        *lane = read_product_u64(&sim, netlist);
                    }
                    if let Some(err) = check_block(a, b0, valid, &got) {
                        found = Some(err);
                        break 'rows;
                    }
                    b0 += bitplane::LANES as u64;
                }
            }
            found
        }
    };
    match found {
        Some(mismatch) => Err(mismatch),
        None => Ok(()),
    }
}

/// Reads the `p` output bus of a scalar sweep as a raw `u64` pattern (the
/// batched checks' product domain).
fn read_product_u64(sim: &LogicSim<'_>, netlist: &Netlist) -> u64 {
    let bits = netlist.bus("p").expect("output bus `p`");
    assert!(bits.len() <= 64, "batched checks need products <= 64 bits");
    bits.iter()
        .enumerate()
        .map(|(i, net)| u64::from(sim.value(*net)) << i)
        .sum()
}

/// Checks `samples` seeded random operand pairs plus the corner cases
/// (0, 1, all-ones in each position).
///
/// Runs the scalar reference engine; [`check_sampled_with_engine`]
/// selects the compiled fast path.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_sampled(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    model: impl Fn(u128, u128) -> U256,
) -> Result<(), Box<Mismatch>> {
    let mut sim = LogicSim::new(netlist);
    for (a, b) in sampled_pairs(width, samples, seed) {
        check_one(netlist, &mut sim, a, b, &model)?;
    }
    Ok(())
}

/// [`check_sampled`] dispatched on an [`Engine`]: identical corner cases,
/// identical seeded draws, identical pair order — bit-identical verdicts
/// and first counterexamples.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_sampled_with_engine(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    model: impl Fn(u128, u128) -> U256 + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    match engine {
        Engine::Compiled => {
            let sequence = SampledPairs::unsigned(width, samples, seed);
            match pairs_walk_compiled(netlist, width, &sequence, |a, b, got| {
                unsigned_check_pair(a, b, got, &model)
            }) {
                Some(mismatch) => Err(mismatch),
                None => Ok(()),
            }
        }
        Engine::Scalar => check_sampled(netlist, width, samples, seed, model),
    }
}

/// One unsigned pair comparison of the compiled sweeps: the netlist's
/// raw product lane against the model's [`U256`] product.
fn unsigned_check_pair(
    a: u128,
    b: u128,
    got: &U256,
    model: &impl Fn(u128, u128) -> U256,
) -> Option<Box<Mismatch>> {
    let expect = model(a, b);
    if expect == *got {
        None
    } else {
        Some(Box::new(Mismatch {
            a,
            b,
            netlist_product: *got,
            model_product: expect,
        }))
    }
}

/// The unsigned sampled stimulus sequence: nine corner pairs, then
/// `samples` seeded draws. The scalar engine iterates exactly this
/// sequence; the compiled engine streams the same pairs group by group
/// ([`SampledPairs::fill`]), which is what makes their first
/// counterexamples identical.
fn sampled_pairs(width: u32, samples: u64, seed: u64) -> impl Iterator<Item = (u128, u128)> {
    let corner_pairs = corner_pairs(&unsigned_corners(width));
    let mut rng = SplitMix64::new(seed);
    let draws = (0..samples).map(move |_| {
        let a = draw_pattern(&mut rng, width);
        let b = draw_pattern(&mut rng, width);
        (a, b)
    });
    corner_pairs.into_iter().chain(draws)
}

/// The all-ones pattern of `width` bits.
fn all_ones(width: u32) -> u128 {
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Unsigned corner operands: 0, 1 and all-ones.
fn unsigned_corners(width: u32) -> Vec<u128> {
    vec![0, 1, all_ones(width)]
}

/// Every ordered pair of corner operands, row-major.
fn corner_pairs(corners: &[u128]) -> Vec<(u128, u128)> {
    corners
        .iter()
        .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
        .collect()
}

fn draw_pattern(rng: &mut SplitMix64, width: u32) -> u128 {
    if width <= 64 {
        u128::from(rng.next_bits(width))
    } else {
        (u128::from(rng.next_bits(width - 64)) << 64) | u128::from(rng.next_u64())
    }
}

/// Random-access form of a sampled sequence ([`sampled_pairs`] or
/// [`sampled_signed_patterns`]): the corner pairs, then `samples` seeded
/// draws, any stretch of which can be generated on its own by seeking the
/// generator with [`SplitMix64::advance`] — the compiled sweeps stream
/// groups instead of collecting the whole sequence.
struct SampledPairs {
    corners: Vec<(u128, u128)>,
    width: u32,
    samples: u64,
    seed: u64,
}

impl SampledPairs {
    fn unsigned(width: u32, samples: u64, seed: u64) -> Self {
        Self {
            corners: corner_pairs(&unsigned_corners(width)),
            width,
            samples,
            seed,
        }
    }

    fn signed(width: u32, samples: u64, seed: u64) -> Self {
        Self {
            corners: corner_pairs(&signed_corners(width)),
            width,
            samples,
            seed,
        }
    }

    /// Number of pairs in the sequence.
    fn len(&self) -> u64 {
        self.corners.len() as u64 + self.samples
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

fn check_one(
    netlist: &Netlist,
    sim: &mut LogicSim<'_>,
    a: u128,
    b: u128,
    model: &impl Fn(u128, u128) -> U256,
) -> Result<(), Box<Mismatch>> {
    sim.apply(&ab_stimulus(netlist, a, b));
    let got = read_product(sim, netlist);
    let expect = model(a, b);
    if got != expect {
        return Err(Box::new(Mismatch {
            a,
            b,
            netlist_product: got,
            model_product: expect,
        }));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Compiled word-parallel sweeps.
// ---------------------------------------------------------------------

/// 64-lane words per compiled sweep: the opcode match and index loads of
/// every op are paid once per `WORDS` words.
const WORDS: usize = 8;
/// Operand pairs per compiled sweep.
const GROUP: usize = WORDS * bitplane::LANES;

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
    /// bus of at most 64 bits, using the cheapest bitplane transpose that
    /// fits its width.
    fn product_lanes(&self, sim: &GroupSim<'_>, word: usize, out: &mut [u64; bitplane::LANES]) {
        let len = self.p_nets.len();
        if len <= 16 {
            let mut planes = [0u64; 16];
            for (plane, &net) in planes.iter_mut().zip(&self.p_nets) {
                *plane = sim.planes(net)[word];
            }
            let lanes = bitplane::lanes_from_planes16(&planes);
            for (o, &l) in out.iter_mut().zip(&lanes) {
                *o = u64::from(l);
            }
        } else if len <= 32 {
            let mut planes = [0u64; 32];
            for (plane, &net) in planes.iter_mut().zip(&self.p_nets) {
                *plane = sim.planes(net)[word];
            }
            let lanes = bitplane::lanes_from_planes32(&planes);
            for (o, &l) in out.iter_mut().zip(&lanes) {
                *o = u64::from(l);
            }
        } else {
            self.product_chunk(sim, word, 0, out);
        }
    }

    /// Transposes `p` planes `64·chunk ..` (zero past the bus) of stimulus
    /// word `word` into one 64-bit limb per lane.
    fn product_chunk(
        &self,
        sim: &GroupSim<'_>,
        word: usize,
        chunk: usize,
        out: &mut [u64; bitplane::LANES],
    ) {
        let mut planes = [0u64; bitplane::LANES];
        let nets = self.p_nets.iter().skip(chunk * bitplane::LANES);
        for (plane, &net) in planes.iter_mut().zip(nets) {
            *plane = sim.planes(net)[word];
        }
        *out = bitplane::transposed64(&planes);
    }

    /// Decodes the 64 per-lane products of stimulus word `word` from a `p`
    /// bus of any supported width (up to 256 bits), one 64-plane transpose
    /// per limb.
    fn wide_product_lanes(
        &self,
        sim: &GroupSim<'_>,
        word: usize,
        out: &mut [U256; bitplane::LANES],
    ) {
        let len = self.p_nets.len();
        let mut limb = [0u64; bitplane::LANES];
        if len <= 64 {
            self.product_lanes(sim, word, &mut limb);
            for (o, &l) in out.iter_mut().zip(&limb) {
                *o = U256::from_u64(l);
            }
            return;
        }
        for chunk in 0..len.div_ceil(bitplane::LANES) {
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
fn operand_planes(lanes: &[u128; bitplane::LANES], word: usize, out: &mut [[u64; WORDS]]) {
    let low = bitplane::transposed64(&core::array::from_fn(|i| lanes[i] as u64));
    set_word(&low, word, out);
    if out.len() > 64 {
        let high = bitplane::transposed64(&core::array::from_fn(|i| (lanes[i] >> 64) as u64));
        set_word(&high, word, &mut out[64..]);
    }
}

/// Sweeps the full `count × count` operand rectangle in row-major order,
/// 64 consecutive `b` values per block, rows sharded across threads via
/// the shared chunk splitter. `check_pair(a, b, netlist_product)` is
/// called in exact scalar order within each chunk; the first `Some`
/// across chunks (merged in chunk order) is therefore the same
/// counterexample the scalar engine reports.
fn exhaustive_walk_compiled<E: Send>(
    netlist: &Netlist,
    width: u32,
    count: u64,
    check_pair: impl Fn(u128, u128, &U256) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    exhaustive_sweeps(netlist, width, count, |ports, sim, word, a, b0, valid| {
        let mut lanes = [U256::ZERO; bitplane::LANES];
        ports.wide_product_lanes(sim, word, &mut lanes);
        (0..valid).find_map(|i| check_pair(u128::from(a), u128::from(b0 + i as u64), &lanes[i]))
    })
}

/// The block form of the compiled exhaustive sweep for products of at
/// most 64 bits: `check_block(a, b0, valid, product_lanes)` receives one
/// whole 64-lane block per call (lane `i` is the netlist's raw product
/// for `(a, b0 + i)`; only the first `valid` lanes are meaningful).
/// Blocks arrive in exact row-major scalar order within each chunk,
/// chunks merge in order — same first-counterexample guarantee as the
/// per-pair walk.
fn exhaustive_walk_compiled_blocks<E: Send>(
    netlist: &Netlist,
    width: u32,
    count: u64,
    check_block: impl Fn(u64, u64, usize, &[u64; bitplane::LANES]) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    exhaustive_sweeps(netlist, width, count, |ports, sim, word, a, b0, valid| {
        let mut lanes = [0u64; bitplane::LANES];
        ports.product_lanes(sim, word, &mut lanes);
        check_block(a, b0, valid, &lanes)
    })
}

/// The shared driver of the compiled exhaustive walks. Rows are sharded
/// across threads; each chunk's row-major 64-lane blocks `(a, b0)` are
/// evaluated `WORDS` at a time (a group may span rows), then handed in
/// order to `visit(ports, sim, word, a, b0, valid)`, stopping the chunk at
/// its first `Some`.
fn exhaustive_sweeps<E: Send>(
    netlist: &Netlist,
    width: u32,
    count: u64,
    visit: impl Fn(&AbPorts, &GroupSim<'_>, usize, u64, u64, usize) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    let ports = AbPorts::of(netlist, width);
    let program = CompiledNetlist::compile(netlist);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Exhaustive operands stay below 2^16: planes past 64 stay zero.
    let (a_low, b_low) = (ports.a_len.min(64), ports.b_len.min(64));
    let blocks_per_row = count.div_ceil(bitplane::LANES as u64);
    let block = |k: u64| {
        (
            k / blocks_per_row,
            (k % blocks_per_row) * bitplane::LANES as u64,
        )
    };
    let partials = parallel_chunks(count, threads, |lo, hi| {
        let mut worker = ports.worker(&program);
        let mut planes = [0u64; bitplane::LANES];
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
                let valid = (count - b0).min(bitplane::LANES as u64) as usize;
                if let Some(err) = visit(&ports, &worker.sim, word, a, b0, valid) {
                    return Some(err);
                }
            }
        }
        None
    });
    partials.into_iter().flatten().next()
}

/// Sweeps a sampled pair sequence in order, `GROUP` pairs per sweep,
/// groups sharded across threads. Each group is generated straight from
/// the seed ([`SampledPairs::fill`]), so memory stays bounded for any
/// sample count. Lane decoding follows sequence order, so the first
/// `Some` matches the scalar engine's.
fn pairs_walk_compiled<E: Send>(
    netlist: &Netlist,
    width: u32,
    sequence: &SampledPairs,
    check_pair: impl Fn(u128, u128, &U256) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    let ports = AbPorts::of(netlist, width);
    let program = CompiledNetlist::compile(netlist);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total = sequence.len();
    let groups = total.div_ceil(GROUP as u64);
    let partials = parallel_chunks(groups, threads, |lo, hi| {
        let mut worker = ports.worker(&program);
        let mut buffer = [(0u128, 0u128); GROUP];
        let mut lanes = [U256::ZERO; bitplane::LANES];
        for group in lo..hi {
            let start = group * GROUP as u64;
            let pairs = &mut buffer[..(total - start).min(GROUP as u64) as usize];
            sequence.fill(start, pairs);
            for (word, block) in pairs.chunks(bitplane::LANES).enumerate() {
                let mut a_lanes = [0u128; bitplane::LANES];
                let mut b_lanes = [0u128; bitplane::LANES];
                for (i, &(a, b)) in block.iter().enumerate() {
                    a_lanes[i] = a;
                    b_lanes[i] = b;
                }
                operand_planes(&a_lanes, word, &mut worker.a_planes);
                operand_planes(&b_lanes, word, &mut worker.b_planes);
            }
            ports.evaluate(&mut worker);
            for (word, block) in pairs.chunks(bitplane::LANES).enumerate() {
                ports.wide_product_lanes(&worker.sim, word, &mut lanes);
                for (&(a, b), got) in block.iter().zip(&lanes) {
                    if let Some(err) = check_pair(a, b, got) {
                        return Some(err);
                    }
                }
            }
        }
        None
    });
    partials.into_iter().flatten().next()
}

// ---------------------------------------------------------------------
// Signed checks.
// ---------------------------------------------------------------------

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

/// Interprets the low `width` bits of a pattern as two's complement.
fn sign_extend(pattern: u128, width: u32) -> i128 {
    ((pattern << (128 - width)) as i128) >> (128 - width)
}

/// Checks a signed (two's-complement `a`/`b`→`p`) netlist against `model`
/// on every operand pair of `width × width` signed inputs, walking the
/// bit patterns `0..2^width` on each bus (practical to ~8 bits scalar,
/// ~10–12 bits compiled via [`check_exhaustive_signed_with_engine`]).
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16` or `width == 128` (the pattern walk needs
/// `1 << width` to fit).
pub fn check_exhaustive_signed(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(i128, i128) -> I256,
) -> Result<(), Box<SignedMismatch>> {
    assert!(
        width <= 16,
        "exhaustive equivalence beyond 16 bits is impractical"
    );
    let mut sim = LogicSim::new(netlist);
    for ua in 0..(1u128 << width) {
        for ub in 0..(1u128 << width) {
            check_one_signed(netlist, &mut sim, width, ua, ub, &model)?;
        }
    }
    Ok(())
}

/// [`check_exhaustive_signed`] dispatched on an [`Engine`]; both engines
/// walk the identical pattern order, so verdicts and first
/// counterexamples are bit-identical.
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16`.
pub fn check_exhaustive_signed_with_engine(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(i128, i128) -> I256 + Sync,
    engine: Engine,
) -> Result<(), Box<SignedMismatch>> {
    match engine {
        Engine::Scalar => check_exhaustive_signed(netlist, width, model),
        Engine::Compiled => {
            assert!(
                width <= 16,
                "exhaustive equivalence beyond 16 bits is impractical"
            );
            let count = 1u64 << width;
            match exhaustive_walk_compiled(netlist, width, count, |ua, ub, got| {
                signed_check_pair(width, ua, ub, got, &model)
            }) {
                Some(mismatch) => Err(mismatch),
                None => Ok(()),
            }
        }
    }
}

/// Checks `samples` seeded random signed operand pairs plus the signed
/// corner patterns (0, ±1, MAX, MIN in each position).
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
pub fn check_sampled_signed(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    model: impl Fn(i128, i128) -> I256,
) -> Result<(), Box<SignedMismatch>> {
    let mut sim = LogicSim::new(netlist);
    for (ua, ub) in sampled_signed_patterns(width, samples, seed) {
        check_one_signed(netlist, &mut sim, width, ua, ub, &model)?;
    }
    Ok(())
}

/// [`check_sampled_signed`] dispatched on an [`Engine`]: identical
/// corner patterns, identical seeded draws, bit-identical verdicts and
/// first counterexamples.
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
pub fn check_sampled_signed_with_engine(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    model: impl Fn(i128, i128) -> I256 + Sync,
    engine: Engine,
) -> Result<(), Box<SignedMismatch>> {
    match engine {
        Engine::Compiled => {
            let sequence = SampledPairs::signed(width, samples, seed);
            match pairs_walk_compiled(netlist, width, &sequence, |ua, ub, got| {
                signed_check_pair(width, ua, ub, got, &model)
            }) {
                Some(mismatch) => Err(mismatch),
                None => Ok(()),
            }
        }
        Engine::Scalar => check_sampled_signed(netlist, width, samples, seed, model),
    }
}

/// The signed sampled stimulus sequence: 25 signed corner pairs, then
/// `samples` seeded pattern draws — the scalar engine's stimulus, which
/// the compiled engine streams through [`SampledPairs::fill`].
fn sampled_signed_patterns(
    width: u32,
    samples: u64,
    seed: u64,
) -> impl Iterator<Item = (u128, u128)> {
    let corner_pairs = corner_pairs(&signed_corners(width));
    let mut rng = SplitMix64::new(seed);
    let draws = (0..samples).map(move |_| {
        let ua = draw_pattern(&mut rng, width);
        let ub = draw_pattern(&mut rng, width);
        (ua, ub)
    });
    corner_pairs.into_iter().chain(draws)
}

/// Signed corner patterns: 0, 1, −1, MAX and MIN.
fn signed_corners(width: u32) -> Vec<u128> {
    let min_pattern = 1u128 << (width - 1); // MIN = 100…0
    let max_pattern = min_pattern - 1; // MAX = 011…1
    vec![
        0,
        1,
        all_ones(width), /* −1 */
        max_pattern,
        min_pattern,
    ]
}

/// One signed pair comparison of the compiled sweeps, decoding the raw
/// product lane exactly like the scalar engine decodes the `p` bus.
fn signed_check_pair(
    width: u32,
    ua: u128,
    ub: u128,
    got_raw: &U256,
    model: &impl Fn(i128, i128) -> I256,
) -> Option<Box<SignedMismatch>> {
    let got = I256::from_twos_complement(got_raw, 2 * width);
    let (a, b) = (sign_extend(ua, width), sign_extend(ub, width));
    let expect = model(a, b);
    if got == expect {
        None
    } else {
        Some(Box::new(SignedMismatch {
            a,
            b,
            netlist_product: got,
            model_product: expect,
        }))
    }
}

fn check_one_signed(
    netlist: &Netlist,
    sim: &mut LogicSim<'_>,
    width: u32,
    ua: u128,
    ub: u128,
    model: &impl Fn(i128, i128) -> I256,
) -> Result<(), Box<SignedMismatch>> {
    sim.apply(&ab_stimulus(netlist, ua, ub));
    let raw = read_product(sim, netlist);
    let got = I256::from_twos_complement(&raw, 2 * width);
    let (a, b) = (sign_extend(ua, width), sign_extend(ub, width));
    let expect = model(a, b);
    if got != expect {
        return Err(Box::new(SignedMismatch {
            a,
            b,
            netlist_product: got,
            model_product: expect,
        }));
    }
    Ok(())
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

    #[test]
    fn exhaustive_passes_for_exact_multiplier() {
        let n = wallace_multiplier(4);
        check_exhaustive(&n, 4, |a, b| {
            U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
        })
        .unwrap();
    }

    #[test]
    fn exhaustive_passes_on_the_compiled_engine() {
        let n = wallace_multiplier(4);
        check_exhaustive_with_engine(
            &n,
            4,
            |a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b)),
            Engine::Compiled,
        )
        .unwrap();
    }

    #[test]
    fn sampled_passes_for_wide_multiplier() {
        let n = wallace_multiplier(20);
        check_sampled(&n, 20, 500, 3, |a, b| {
            U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
        })
        .unwrap();
        check_sampled_with_engine(
            &n,
            20,
            500,
            3,
            |a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b)),
            Engine::Compiled,
        )
        .unwrap();
    }

    #[test]
    fn compiled_sweeps_cover_operands_past_64_bits() {
        // 70-bit operands take two transposes each and the 140-bit
        // product three limbs; both engines agree on pass and on the
        // first failure.
        let n = wallace_multiplier(70);
        let exact = |a: u128, b: u128| U256::from_u128(a).wrapping_mul(&U256::from_u128(b));
        for engine in [Engine::Scalar, Engine::Compiled] {
            check_sampled_with_engine(&n, 70, 40, 8, exact, engine).unwrap();
        }
        let wrong = |a: u128, b: u128| {
            let p = exact(a, b);
            if a >> 68 == 3 {
                p ^ (U256::ONE << 130)
            } else {
                p
            }
        };
        let scalar = check_sampled_with_engine(&n, 70, 40, 8, wrong, Engine::Scalar).unwrap_err();
        let compiled =
            check_sampled_with_engine(&n, 70, 40, 8, wrong, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
        assert_eq!(scalar.a >> 68, 3);
    }

    #[test]
    fn batched_checks_match_per_pair_checks() {
        let n = wallace_multiplier(4);
        let exact_block = |a: u64, b0: u64, out: &mut [u64; bitplane::LANES]| {
            for (i, lane) in out.iter_mut().enumerate() {
                // 4-bit sweep: only the 16 valid lanes are compared.
                *lane = a * ((b0 + i as u64) & 0xF);
            }
        };
        for engine in [Engine::Scalar, Engine::Compiled] {
            check_exhaustive_batched(&n, 4, exact_block, engine).unwrap();
        }
        // A planted stripe bug surfaces as the same first counterexample
        // on both engines — and as the per-pair scalar reference reports.
        let wrong_block = |a: u64, b0: u64, out: &mut [u64; bitplane::LANES]| {
            exact_block(a, b0, out);
            for (i, lane) in out.iter_mut().enumerate() {
                if a == 5 && b0 + i as u64 >= 9 {
                    *lane ^= 1;
                }
            }
        };
        let scalar = check_exhaustive_batched(&n, 4, wrong_block, Engine::Scalar).unwrap_err();
        let compiled = check_exhaustive_batched(&n, 4, wrong_block, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
        assert_eq!((scalar.a, scalar.b), (5, 9));
    }

    #[test]
    fn mismatch_is_reported_with_operands() {
        let n = wallace_multiplier(4);
        // Deliberately wrong model.
        let err = check_exhaustive(&n, 4, |a, b| U256::from_u128(a.wrapping_add(b))).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("netlist("));
        // First mismatching pair under row-major order: a=0,b=1 → product 0 vs model 1.
        assert_eq!((err.a, err.b), (0, 1));
    }

    #[test]
    fn both_engines_report_the_same_first_mismatch() {
        let n = wallace_multiplier(4);
        let wrong = |a: u128, b: u128| U256::from_u128(a.wrapping_add(b));
        let scalar = check_exhaustive_with_engine(&n, 4, wrong, Engine::Scalar).unwrap_err();
        let compiled = check_exhaustive_with_engine(&n, 4, wrong, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
        let scalar = check_sampled_with_engine(&n, 4, 40, 9, wrong, Engine::Scalar).unwrap_err();
        let compiled =
            check_sampled_with_engine(&n, 4, 40, 9, wrong, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
    }

    #[test]
    #[should_panic(expected = "overflows bus")]
    fn compiled_engine_preserves_the_operand_overflow_panic() {
        // Operands wider than the netlist's buses must fail loudly on
        // BOTH engines (the compiled path checks the bus widths rather
        // than silently truncating the packed operands).
        let n = wallace_multiplier(4);
        let _ = check_sampled_with_engine(
            &n,
            6, // draws 6-bit operands against 4-bit buses
            16,
            1,
            |a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b)),
            Engine::Compiled,
        );
    }

    #[test]
    fn streamed_groups_reproduce_the_reference_sequences() {
        for width in [3u32, 64, 65, 128] {
            for samples in [0u64, 1, 63, 64, 511, 513] {
                let sequences = [
                    (
                        SampledPairs::unsigned(width, samples, 21),
                        sampled_pairs(width, samples, 21).collect::<Vec<_>>(),
                    ),
                    (
                        SampledPairs::signed(width, samples, 21),
                        sampled_signed_patterns(width, samples, 21).collect(),
                    ),
                ];
                for (streamed, reference) in &sequences {
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
        check_exhaustive_signed(&n, 5, |a, b| I256::from_i128(a * b)).unwrap();
        check_exhaustive_signed_with_engine(&n, 5, |a, b| I256::from_i128(a * b), Engine::Compiled)
            .unwrap();
    }

    #[test]
    fn signed_sampled_passes_for_wide_multiplier() {
        let n = signed_wallace_multiplier(18);
        check_sampled_signed(&n, 18, 300, 11, |a, b| I256::from_i128(a * b)).unwrap();
        check_sampled_signed_with_engine(
            &n,
            18,
            300,
            11,
            |a, b| I256::from_i128(a * b),
            Engine::Compiled,
        )
        .unwrap();
    }

    #[test]
    fn signed_engines_report_the_same_first_mismatch() {
        let n = signed_wallace_multiplier(4);
        let wrong = |_: i128, _: i128| I256::ZERO;
        let scalar = check_exhaustive_signed_with_engine(&n, 4, wrong, Engine::Scalar).unwrap_err();
        let compiled =
            check_exhaustive_signed_with_engine(&n, 4, wrong, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
        let scalar =
            check_sampled_signed_with_engine(&n, 4, 30, 2, wrong, Engine::Scalar).unwrap_err();
        let compiled =
            check_sampled_signed_with_engine(&n, 4, 30, 2, wrong, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
    }

    #[test]
    fn signed_mismatch_formats_signed_operands() {
        let n = signed_wallace_multiplier(4);
        // Deliberately wrong model: claims every product is zero.
        let err = check_exhaustive_signed(&n, 4, |_, _| I256::ZERO).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("signed netlist("), "{text}");
        // First wrong pair in pattern order is a=1, b=1 (1·1 = 1 ≠ 0).
        assert_eq!((err.a, err.b), (1, 1));
        assert_eq!(err.model_product, I256::ZERO);
        assert_eq!(err.netlist_product.to_i128(), Some(1));
        // Negative operands and products print with their signs.
        let err = check_sampled_signed(&n, 4, 0, 0, |a, b| {
            // Wrong only where a product is negative, to land on a
            // signed counterexample.
            if a * b < 0 {
                I256::ZERO
            } else {
                I256::from_i128(a * b)
            }
        })
        .unwrap_err();
        assert!(err.a < 0 || err.b < 0);
        assert!(err.to_string().contains('-'), "{err}");
    }
}
