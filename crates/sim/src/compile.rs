//! Compiled netlist evaluation: flatten once, fold hard, sweep word-wide.
//!
//! The structural reference engine, [`crate::LogicSim`], re-walks the
//! [`Netlist`] for every vector: per-gate enum dispatch, a `NetId`
//! indirection per pin, and bounds checks against the full net table. [`CompiledNetlist`] pays those costs once,
//! at compile time, producing a dense struct-of-arrays program the
//! executor can stream through:
//!
//! * **Constant folding** — `Const0`/`Const1` gates become two reserved
//!   value slots (always `0` / all-ones); no opcode is emitted for them.
//! * **Constant propagation** — gates *fed* by the const slots fold too:
//!   `AND(x, 1)` aliases `x`, `OR(x, 1)` aliases const-1, `XOR(x, 1)`
//!   rewrites to `NOT x`, a mux with a constant select aliases the chosen
//!   data pin, and so on, cascading through the whole cone.
//! * **Degenerate gates** — same-source gates collapse (`AND(x, x)` is
//!   `x`, `XOR(x, x)` is const-0, `NAND(x, x)` is `NOT x`), and
//!   `NOT(NOT x)` chases back to `x`.
//! * **Common-subexpression sharing** — two surviving gates with the same
//!   opcode and (commutatively canonicalized) source slots share one op;
//!   the second aliases the first's output slot.
//! * **Buffer chasing** — a `Buf` gate emits no opcode either: its output
//!   net aliases its source's slot, and chains collapse transitively.
//! * **Pre-mapped ports** — primary inputs get dedicated slots in
//!   declaration order, so stimulus words are written straight into the
//!   value array; any net (including bus bits) resolves to its slot once
//!   via [`CompiledNetlist::slot_of`].
//!
//! Every fold preserves the boolean function of each net, so the per-net
//! value stream — and therefore the per-net toggle count — is bit-identical
//! to that of the scalar reference, lane by lane (the differential suite
//! proves it).
//!
//! The executor, [`CompiledSim`], evaluates 64 independent vectors per
//! sweep — lane `i` of every value word is stimulus stream `i`, as if 64
//! [`crate::LogicSim`]s ran side by side — and its inner loop reads
//! compact opcodes and `u32` slot indices from flat arrays instead of
//! matching on gate structs. [`CompiledSim::apply`] keeps the same lane-wise toggle
//! accounting; [`CompiledSim::evaluate`] skips it for equivalence sweeps
//! where only final values matter.
//!
//! One interpreter body serves every sweep width: `CompiledSim<'_, W>`
//! holds `W` words (64·`W` lanes) per value slot, so the opcode match and
//! the four index loads of each op are paid once per `W` words. The
//! default `W = 1` is the 64-lane, toggle-counting instance that activity
//! estimation streams through; the equivalence sweeps in [`crate::equiv`]
//! run a wider instance (see [`CompiledSim::wide`]).

use std::collections::HashMap;

use sdlc_netlist::{GateKind, NetId, Netlist};

/// Slot holding the folded constant-0 plane.
pub(crate) const SLOT_CONST0: u32 = 0;
/// Slot holding the folded constant-1 plane.
pub(crate) const SLOT_CONST1: u32 = 1;

/// Compact opcode of one compiled operation.
///
/// `Input`, `Const0`, `Const1` and `Buf` never appear: inputs are written
/// directly into their slots, constants fold into the two reserved slots,
/// and buffers alias their source slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum OpCode {
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Not,
    Mux,
}

/// Outcome of folding one gate: either it needs no op (its output net
/// aliases an existing slot) or it survives as a (possibly rewritten) op.
enum Folded {
    Alias(u32),
    Op(OpCode, u32, u32, u32),
}

/// Applies the constant-propagation / degenerate-gate rewrite rules until
/// fixpoint. `not_source` maps the output slot of every emitted `NOT` op
/// back to its source slot, which is what lets `NOT(NOT x)` alias `x`.
fn fold(
    mut opcode: OpCode,
    mut a: u32,
    mut b: u32,
    c: u32,
    not_source: &HashMap<u32, u32>,
) -> Folded {
    loop {
        // Canonicalize commutative operand order (const slots are 0/1 and
        // therefore always sort into `a`, so the rules below only need to
        // test one side).
        if !matches!(opcode, OpCode::Not | OpCode::Mux) && a > b {
            core::mem::swap(&mut a, &mut b);
        }
        let rewrite_not = |x: u32| Folded::Op(OpCode::Not, x, x, x);
        return match opcode {
            OpCode::Not => {
                if a == SLOT_CONST0 {
                    Folded::Alias(SLOT_CONST1)
                } else if a == SLOT_CONST1 {
                    Folded::Alias(SLOT_CONST0)
                } else if let Some(&source) = not_source.get(&a) {
                    Folded::Alias(source)
                } else {
                    rewrite_not(a)
                }
            }
            // Sources are [sel, a, b]: sel ? b : a (slots sel=a, lo=b, hi=c).
            OpCode::Mux => {
                let (sel, lo, hi) = (a, b, c);
                if sel == SLOT_CONST0 {
                    Folded::Alias(lo)
                } else if sel == SLOT_CONST1 || lo == hi {
                    Folded::Alias(hi)
                } else if lo == SLOT_CONST0 && hi == SLOT_CONST1 {
                    Folded::Alias(sel)
                } else if lo == SLOT_CONST1 && hi == SLOT_CONST0 {
                    rewrite_not(sel)
                } else if lo == SLOT_CONST0 {
                    // sel ? hi : 0
                    (opcode, a, b) = (OpCode::And, sel, hi);
                    continue;
                } else if hi == SLOT_CONST1 {
                    // sel ? 1 : lo
                    (opcode, a, b) = (OpCode::Or, sel, lo);
                    continue;
                } else {
                    Folded::Op(OpCode::Mux, sel, lo, hi)
                }
            }
            OpCode::And => {
                if a == SLOT_CONST0 {
                    Folded::Alias(SLOT_CONST0)
                } else if a == SLOT_CONST1 || a == b {
                    Folded::Alias(b)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            OpCode::Or => {
                if a == SLOT_CONST0 || a == b {
                    Folded::Alias(b)
                } else if a == SLOT_CONST1 {
                    Folded::Alias(SLOT_CONST1)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            OpCode::Nand => {
                if a == SLOT_CONST0 {
                    Folded::Alias(SLOT_CONST1)
                } else if a == SLOT_CONST1 || a == b {
                    (opcode, a) = (OpCode::Not, b);
                    continue;
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            OpCode::Nor => {
                if a == SLOT_CONST0 || a == b {
                    (opcode, a) = (OpCode::Not, b);
                    continue;
                } else if a == SLOT_CONST1 {
                    Folded::Alias(SLOT_CONST0)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            OpCode::Xor => {
                if a == SLOT_CONST0 {
                    Folded::Alias(b)
                } else if a == SLOT_CONST1 {
                    (opcode, a) = (OpCode::Not, b);
                    continue;
                } else if a == b {
                    Folded::Alias(SLOT_CONST0)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            OpCode::Xnor => {
                if a == SLOT_CONST0 {
                    (opcode, a) = (OpCode::Not, b);
                    continue;
                } else if a == SLOT_CONST1 {
                    Folded::Alias(b)
                } else if a == b {
                    Folded::Alias(SLOT_CONST1)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
        };
    }
}

/// A [`Netlist`] flattened into a dense, cache-friendly program.
///
/// Compiling borrows the netlist only for the duration of
/// [`CompiledNetlist::compile`]; the program owns everything it needs, so
/// one compiled instance can be shared (`&CompiledNetlist` is `Sync`)
/// across worker threads that each run their own [`CompiledSim`].
///
/// # Examples
///
/// ```
/// use sdlc_netlist::Netlist;
/// use sdlc_sim::{CompiledNetlist, CompiledSim};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let buffered = n.buf(a); // folds away
/// let y = n.and2(buffered, b);
/// n.set_output_bus("y", vec![y]);
///
/// let program = CompiledNetlist::compile(&n);
/// assert_eq!(program.op_count(), 1); // the AND; the Buf is chased
///
/// let mut sim = CompiledSim::new(&program);
/// sim.evaluate(&[0b1100, 0b1010]);
/// assert_eq!(sim.plane(y), 0b1000);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    // Struct-of-arrays program, one entry per non-folded logic op.
    pub(crate) code: Vec<OpCode>,
    pub(crate) src0: Vec<u32>,
    pub(crate) src1: Vec<u32>,
    pub(crate) src2: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    /// Net index → value-slot index (aliased for folded gates).
    slot_of_net: Vec<u32>,
    /// Slot per primary input, in declaration order.
    input_slots: Vec<u32>,
    slot_count: usize,
}

impl CompiledNetlist {
    /// Flattens a netlist into its compiled program.
    ///
    /// # Panics
    ///
    /// Panics if the netlist violates the feed-forward discipline (an
    /// input net read before it is driven) — [`Netlist::validate`] catches
    /// the same conditions.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> Self {
        let mut slot_of_net = vec![u32::MAX; netlist.net_count()];
        let mut input_slots = Vec::with_capacity(netlist.inputs().len());
        // Slots 0/1 are the folded constants.
        let mut slot_count: u32 = 2;
        let mut code = Vec::new();
        let mut src0 = Vec::new();
        let mut src1 = Vec::new();
        let mut src2 = Vec::new();
        let mut dst = Vec::new();
        let mut shared: HashMap<(OpCode, u32, u32, u32), u32> = HashMap::new();
        let mut not_source: HashMap<u32, u32> = HashMap::new();
        let slot = |table: &[u32], net: NetId| -> u32 {
            let s = table[net.index()];
            assert!(s != u32::MAX, "net {net} read before it is driven");
            s
        };
        for gate in netlist.gates() {
            let out = gate.output.index();
            match gate.kind {
                GateKind::Input => {
                    slot_of_net[out] = slot_count;
                    input_slots.push(slot_count);
                    slot_count += 1;
                }
                GateKind::Const0 => slot_of_net[out] = SLOT_CONST0,
                GateKind::Const1 => slot_of_net[out] = SLOT_CONST1,
                GateKind::Buf => {
                    // Chains collapse transitively: the source is already
                    // resolved to its own (possibly aliased) slot.
                    slot_of_net[out] = slot(&slot_of_net, gate.inputs[0]);
                }
                kind => {
                    let opcode = match kind {
                        GateKind::And2 => OpCode::And,
                        GateKind::Or2 => OpCode::Or,
                        GateKind::Nand2 => OpCode::Nand,
                        GateKind::Nor2 => OpCode::Nor,
                        GateKind::Xor2 => OpCode::Xor,
                        GateKind::Xnor2 => OpCode::Xnor,
                        GateKind::Not => OpCode::Not,
                        GateKind::Mux2 => OpCode::Mux,
                        _ => unreachable!("folded kinds handled above"),
                    };
                    let a = slot(&slot_of_net, gate.inputs[0]);
                    let b = if gate.inputs.len() > 1 {
                        slot(&slot_of_net, gate.inputs[1])
                    } else {
                        a
                    };
                    let c = if gate.inputs.len() > 2 {
                        slot(&slot_of_net, gate.inputs[2])
                    } else {
                        a
                    };
                    match fold(opcode, a, b, c, &not_source) {
                        Folded::Alias(s) => slot_of_net[out] = s,
                        Folded::Op(opcode, a, b, c) => {
                            if let Some(&existing) = shared.get(&(opcode, a, b, c)) {
                                // Common subexpression: share the earlier
                                // gate's op and slot.
                                slot_of_net[out] = existing;
                                continue;
                            }
                            let d = slot_count;
                            slot_count += 1;
                            code.push(opcode);
                            src0.push(a);
                            src1.push(b);
                            src2.push(c);
                            dst.push(d);
                            shared.insert((opcode, a, b, c), d);
                            if opcode == OpCode::Not {
                                not_source.insert(d, a);
                            }
                            slot_of_net[out] = d;
                        }
                    }
                }
            }
        }
        Self {
            code,
            src0,
            src1,
            src2,
            dst,
            slot_of_net,
            input_slots,
            slot_count: slot_count as usize,
        }
    }

    /// Number of executed operations (gates that survived folding).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Number of value slots (two constants + inputs + op outputs).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Value-slot index of a net (folded nets alias their source's slot).
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the compiled netlist.
    #[must_use]
    pub fn slot_of(&self, net: NetId) -> usize {
        self.slot_of_net[net.index()] as usize
    }

    /// Slots of the primary inputs, in declaration order.
    #[must_use]
    pub fn input_slots(&self) -> &[u32] {
        &self.input_slots
    }

    /// Number of nets of the source netlist (for scatter tables).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.slot_of_net.len()
    }

    /// Scatters per-slot toggle counts back to the source netlist's net
    /// indexing (folded nets report their alias target's count, which
    /// equals what the scalar reference counts for them: every fold
    /// preserves the net's boolean function, so its value stream — and
    /// toggle count — is the alias target's). Dead nets — left behind
    /// without a driver by `sdlc-netlist`'s DCE pass, which keeps net
    /// numbering stable — never move and report 0.
    pub(crate) fn scatter_toggles(&self, toggles: &[u64]) -> Vec<u64> {
        self.slot_of_net
            .iter()
            .map(|&slot| {
                if slot == u32::MAX {
                    0
                } else {
                    toggles[slot as usize]
                }
            })
            .collect()
    }
}

/// Executor over a [`CompiledNetlist`] program, `W` words (64·`W` lanes)
/// per value slot.
///
/// Each instance owns only its value (and toggle) arrays; the program is
/// shared by reference, so spawning one executor per worker thread is
/// cheap. The default `W = 1` is the 64-lane engine: lane `i` of every
/// value word is stimulus stream `i`, and [`CompiledSim::apply`] counts
/// toggles between consecutive words. Wider instances
/// ([`CompiledSim::wide`]) only [`evaluate`](CompiledSim::evaluate): they
/// settle `W` independent 64-lane words per op dispatch, the equivalence
/// sweeps' fast path.
#[derive(Debug, Clone)]
pub struct CompiledSim<'p, const W: usize = 1> {
    program: &'p CompiledNetlist,
    values: Vec<[u64; W]>,
    toggles: Vec<u64>,
    words_applied: u64,
}

impl<'p> CompiledSim<'p> {
    /// Creates a 64-lane executor with all lanes at 0 (and the constant
    /// slots pre-loaded).
    #[must_use]
    pub fn new(program: &'p CompiledNetlist) -> Self {
        Self::wide(program)
    }

    /// Applies one stimulus word per primary input (ordered like the
    /// source netlist's `inputs()`) and settles all lanes, accumulating
    /// lane-wise toggle counts against the previous word — each lane
    /// counts like a [`crate::LogicSim`] stream (the first word establishes
    /// state for free).
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn apply(&mut self, stimulus: &[u64]) {
        if self.words_applied == 0 {
            self.exec::<false>(stimulus);
        } else {
            self.exec::<true>(stimulus);
        }
        self.words_applied += 1;
    }

    /// Current 64-lane plane of one net.
    #[must_use]
    pub fn plane(&self, net: NetId) -> u64 {
        self.planes(net)[0]
    }

    /// Lane-`lane` value of one net.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane_value(&self, net: NetId, lane: u32) -> bool {
        assert!(lane < 64);
        (self.plane(net) >> lane) & 1 == 1
    }

    /// Per-net toggle counts summed over all 64 lanes, scattered back to
    /// the source netlist's net indexing (folded nets report their alias
    /// target's count — identical to the scalar reference, since every
    /// fold preserves the net's boolean function).
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        self.program.scatter_toggles(&self.toggles)
    }

    /// Number of stimulus words applied with toggle accounting.
    #[must_use]
    pub fn words_applied(&self) -> u64 {
        self.words_applied
    }

    /// Total vectors that produced countable transitions:
    /// `(words − 1) × 64`: every lane's vectors after its first.
    #[must_use]
    pub fn transition_vectors(&self) -> u64 {
        self.words_applied.saturating_sub(1) * 64
    }
}

impl<'p, const W: usize> CompiledSim<'p, W> {
    /// Creates an executor of `W` words per slot with all lanes at 0 (and
    /// the constant slots pre-loaded): `CompiledSim::<8>::wide(&program)`
    /// settles 512 lanes per sweep.
    ///
    /// # Panics
    ///
    /// Panics if `W == 0`.
    #[must_use]
    pub fn wide(program: &'p CompiledNetlist) -> Self {
        assert!(W > 0, "an executor needs at least one word per slot");
        let mut values = vec![[0u64; W]; program.slot_count()];
        values[SLOT_CONST1 as usize] = [u64::MAX; W];
        Self {
            program,
            toggles: vec![0; program.slot_count()],
            values,
            words_applied: 0,
        }
    }

    /// The compiled program this executor runs.
    #[must_use]
    pub fn program(&self) -> &'p CompiledNetlist {
        self.program
    }

    /// The one interpreter body. Toggle accounting (`TOGGLED`) sums over
    /// all `W` words; only the 64-lane [`CompiledSim::apply`] asks for it.
    #[inline]
    fn exec<const TOGGLED: bool>(&mut self, stimulus: &[u64]) {
        let p = self.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots.len() * W,
            "stimulus width mismatch"
        );
        let values = &mut self.values[..];
        let toggles = &mut self.toggles[..];
        let (words, _) = stimulus.as_chunks::<W>();
        for (&slot, word) in p.input_slots.iter().zip(words) {
            let slot = slot as usize;
            if TOGGLED {
                toggles[slot] += toggled(&values[slot], word);
            }
            values[slot] = *word;
        }
        // Zipped slice iteration keeps the hot loop free of per-op bounds
        // checks on the program arrays.
        let ops = p
            .code
            .iter()
            .zip(&p.src0)
            .zip(&p.src1)
            .zip(&p.src2)
            .zip(&p.dst);
        for ((((&code, &s0), &s1), &s2), &d) in ops {
            let new = eval_op(
                code,
                values[s0 as usize],
                values[s1 as usize],
                values[s2 as usize],
            );
            let d = d as usize;
            if TOGGLED {
                toggles[d] += toggled(&values[d], &new);
            }
            values[d] = new;
        }
    }

    /// Settles all lanes *without* toggle accounting — the equivalence
    /// fast path, where only final values matter. The stimulus holds `W`
    /// consecutive words per primary input (input-major, inputs ordered
    /// like the source netlist's `inputs()`): word `w` of every input
    /// forms the `w`-th independent 64-lane vector group.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from `W` × the input count.
    pub fn evaluate(&mut self, stimulus: &[u64]) {
        self.exec::<false>(stimulus);
    }

    /// Current planes of one net, one 64-lane word per stimulus word.
    #[must_use]
    pub fn planes(&self, net: NetId) -> &[u64; W] {
        &self.values[self.program.slot_of(net)]
    }
}

/// Lanes that differ between two slot values, summed over all words.
#[inline]
fn toggled<const W: usize>(old: &[u64; W], new: &[u64; W]) -> u64 {
    old.iter()
        .zip(new)
        .map(|(o, n)| u64::from((o ^ n).count_ones()))
        .sum()
}

/// One op evaluated across `W` words: the opcode is matched once, then
/// applied word-wise.
#[inline]
fn eval_op<const W: usize>(code: OpCode, a: [u64; W], b: [u64; W], c: [u64; W]) -> [u64; W] {
    match code {
        OpCode::And => core::array::from_fn(|i| a[i] & b[i]),
        OpCode::Or => core::array::from_fn(|i| a[i] | b[i]),
        OpCode::Nand => core::array::from_fn(|i| !(a[i] & b[i])),
        OpCode::Nor => core::array::from_fn(|i| !(a[i] | b[i])),
        OpCode::Xor => core::array::from_fn(|i| a[i] ^ b[i]),
        OpCode::Xnor => core::array::from_fn(|i| !(a[i] ^ b[i])),
        OpCode::Not => core::array::from_fn(|i| !a[i]),
        // Sources are [sel, a, b]: sel ? b : a.
        OpCode::Mux => core::array::from_fn(|i| (b[i] & !a[i]) | (c[i] & a[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::lanewise_reference;
    use sdlc_wideint::SplitMix64;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = sdlc_netlist::adders::ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    /// Applies `words` to the compiled engine and checks every net's final
    /// plane, every toggle total and the transition count against 64
    /// lane-wise `LogicSim` streams.
    fn assert_matches_lanewise_reference(n: &Netlist, words: &[Vec<u64>]) {
        let program = CompiledNetlist::compile(n);
        let mut compiled = CompiledSim::new(&program);
        for word in words {
            compiled.apply(word);
        }
        let (planes, toggles) = lanewise_reference(n, words);
        for gate in n.gates() {
            let id = gate.output;
            assert_eq!(compiled.plane(id), planes[id.index()], "net {id}");
        }
        assert_eq!(compiled.toggles_per_net(), toggles);
        assert_eq!(compiled.transition_vectors(), (words.len() as u64 - 1) * 64);
    }

    /// `count` stimulus words of `inputs` random lanes each.
    fn random_words(seed: u64, count: usize, inputs: usize) -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect()
    }

    #[test]
    fn matches_bit_parallel_values_and_toggles() {
        let n = adder(6);
        assert_matches_lanewise_reference(&n, &random_words(0xC0DE, 12, 12));
    }

    #[test]
    fn constants_and_buffers_fold_through_the_whole_cone() {
        let mut n = Netlist::new("folded");
        let a = n.add_input("a");
        let one = n.const1();
        let zero = n.const0();
        let b1 = n.buf(a);
        let b2 = n.buf(b1);
        let x = n.and2(b2, one); // == a
        let y = n.or2(x, zero); // == a
        n.set_output_bus("y", vec![y]);
        let program = CompiledNetlist::compile(&n);
        // Constant propagation eats the whole cone: both logic gates
        // alias `a` and nothing executes.
        assert_eq!(program.op_count(), 0);
        assert_eq!(program.slot_of(b2), program.slot_of(a));
        assert_eq!(program.slot_of(y), program.slot_of(a));
        let mut sim = CompiledSim::new(&program);
        sim.evaluate(&[0xF0F0]);
        assert_eq!(sim.plane(y), 0xF0F0);
        // Folded nets report their source's toggles; constants never move.
        let mut sim = CompiledSim::new(&program);
        sim.apply(&[0]);
        sim.apply(&[0b11]);
        let toggles = sim.toggles_per_net();
        assert_eq!(toggles[b2.index()], toggles[a.index()]);
        assert_eq!(toggles[y.index()], toggles[a.index()]);
        assert_eq!(toggles[one.index()], 0);
        assert_eq!(toggles[zero.index()], 0);
    }

    #[test]
    fn constant_propagation_rewrites_and_cascades() {
        let mut n = Netlist::new("constprop");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.const1();
        let zero = n.const0();
        // NAND(a, 1) -> NOT a (one op), then XNOR(that, 0) -> NOT(NOT a)
        // -> alias a; OR(b, 1) -> const1; NOR(b, 0) -> NOT b.
        let not_a = n.nand2(a, one);
        let back = n.xnor2(not_a, zero);
        let always = n.or2(b, one);
        let not_b = n.nor2(b, zero);
        let xor_same = n.xor2(b, b); // -> const0
        n.set_output_bus("y", vec![not_a, back, always, not_b, xor_same]);
        let program = CompiledNetlist::compile(&n);
        // Only the two NOTs survive.
        assert_eq!(program.op_count(), 2);
        assert_eq!(program.slot_of(back), program.slot_of(a));
        assert_eq!(program.slot_of(always), SLOT_CONST1 as usize);
        assert_eq!(program.slot_of(xor_same), SLOT_CONST0 as usize);
        assert_matches_lanewise_reference(&n, &random_words(7, 6, 2));
    }

    #[test]
    fn common_subexpressions_share_one_op() {
        let mut n = Netlist::new("cse");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x1 = n.and2(a, b);
        let x2 = n.and2(b, a); // commutatively identical
        let x3 = n.and2(a, b); // literally identical
        let y = n.xor2(x1, x2); // == const0 after sharing
        n.set_output_bus("y", vec![x3, y]);
        let program = CompiledNetlist::compile(&n);
        assert_eq!(program.op_count(), 1);
        assert_eq!(program.slot_of(x2), program.slot_of(x1));
        assert_eq!(program.slot_of(x3), program.slot_of(x1));
        assert_eq!(program.slot_of(y), SLOT_CONST0 as usize);
        // Shared nets still count toggles like the scalar reference.
        let words = [[0u64, 0], [u64::MAX, 0b1010], [0b1100, 0b0110]].map(|w| w.to_vec());
        assert_matches_lanewise_reference(&n, &words);
    }

    #[test]
    fn mux_folds_constant_selects_and_data() {
        let mut n = Netlist::new("muxfold");
        let sel = n.add_input("sel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.const1();
        let zero = n.const0();
        let pick_a = n.mux2(zero, a, b); // sel=0 -> a
        let pick_b = n.mux2(one, a, b); // sel=1 -> b
        let ident = n.mux2(sel, zero, one); // == sel
        let inv = n.mux2(sel, one, zero); // == NOT sel
        let gate_and = n.mux2(sel, zero, b); // == AND(sel, b)
        let gate_or = n.mux2(sel, a, one); // == OR(sel, a)
        let same = n.mux2(sel, a, a); // == a
        n.set_output_bus(
            "y",
            vec![pick_a, pick_b, ident, inv, gate_and, gate_or, same],
        );
        let program = CompiledNetlist::compile(&n);
        assert_eq!(program.slot_of(pick_a), program.slot_of(a));
        assert_eq!(program.slot_of(pick_b), program.slot_of(b));
        assert_eq!(program.slot_of(ident), program.slot_of(sel));
        assert_eq!(program.slot_of(same), program.slot_of(a));
        // NOT sel, AND(sel,b), OR(sel,a) survive as rewritten ops.
        assert_eq!(program.op_count(), 3);
        assert_matches_lanewise_reference(&n, &random_words(0xB0, 8, 3));
    }

    #[test]
    fn levels_are_topological() {
        let n = adder(8);
        let program = CompiledNetlist::compile(&n);
        // Program order is topological: every op reads slots written by
        // inputs, constants or earlier ops, so the level each op derives
        // from its sources (inputs and constants are level 0) is strictly
        // above theirs.
        let mut slot_level: Vec<Option<u32>> = vec![None; program.slot_count()];
        for s in [SLOT_CONST0, SLOT_CONST1]
            .iter()
            .chain(program.input_slots())
        {
            slot_level[*s as usize] = Some(0);
        }
        let mut depth = 0;
        for i in 0..program.op_count() {
            let sources = [program.src0[i], program.src1[i], program.src2[i]];
            let lvl = 1 + sources
                .iter()
                .map(|&s| slot_level[s as usize].unwrap_or_else(|| panic!("op {i} reads ahead")))
                .max()
                .unwrap();
            slot_level[program.dst[i] as usize] = Some(lvl);
            depth = depth.max(lvl);
        }
        // A ripple adder's carry chain makes the depth at least its width.
        assert!(depth >= 8);
    }

    #[test]
    fn mux_pin_convention_matches_gatekind() {
        let mut n = Netlist::new("mux");
        let sel = n.add_input("sel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.mux2(sel, a, b);
        n.set_output_bus("y", vec![y]);
        let program = CompiledNetlist::compile(&n);
        let mut sim = CompiledSim::new(&program);
        // sel lanes 0b01: lane0 selects b, lane1 selects a.
        sim.evaluate(&[0b01, 0b10, 0b01]);
        assert!(sim.lane_value(y, 0)); // sel=1 → b=1
        assert!(sim.lane_value(y, 1)); // sel=0 → a=1
    }

    #[test]
    #[should_panic(expected = "stimulus width mismatch")]
    fn wrong_stimulus_width_panics() {
        let n = adder(4);
        let program = CompiledNetlist::compile(&n);
        CompiledSim::new(&program).evaluate(&[0]);
    }
}
