//! Compiled word-parallel glitch-activity engine.
//!
//! [`crate::TimingSim`] observes glitches by event-driven simulation: one
//! vector pair at a time, a `Vec<bool>` allocation per gate evaluation,
//! and a heap push per candidate transition. That made `glitch_power` the
//! slow tail of the synthesis flow once zero-delay activity moved to the
//! compiled engine.
//!
//! This module compiles the netlist into a [`TimedProgram`] — the timing
//! twin of [`crate::CompiledNetlist`]: dense ops with per-op
//! **fixed-point delays** and CSR fanout lists, plus per-net
//! **arrival-time metadata** (STA-style upper bounds computed from the
//! same `sdlc-techlib` load model). Unlike the zero-delay program it does
//! *not* fold buffers or constant-fed gates: every cell has its own delay,
//! and folding would change which pulses get inertially filtered.
//!
//! [`GlitchSim`] runs **64 independent stimulus streams** (lane `i` of
//! every plane word is stream `i`) as one **topological waveform pass**
//! per applied word, after waveform-based timing simulation (Holst, Imhof
//! & Wunderlich, TODAES 2015; GATSPI, DAC 2022). A net's transitions are
//! a time-sorted list of `(tick, 64-lane mask)` entries; each op reached
//! by a change merges its fan-in lists in `(tick, source slot)` order,
//! re-evaluating word-wide after every entry, and emits its own list.
//! Delays are per-op constants, so lanes whose activity travels the same
//! path share entries, and the inertial cancellation rule is a few
//! word-wide boolean ops.
//!
//! The emulation is **exact**: per-net transition counts (functional
//! toggles *and* glitches), total transitions and settle times match
//! [`crate::TimingSim`] lane for lane. Both engines read
//! [`sdlc_techlib::Library::gate_delays_ps`] with the same 1/1024 ps
//! quantization. The scalar engine captures every input change before
//! popping anything, then pops equal-time events in gate order, which is
//! topological — so every fan-in change at a tick lands before an op's
//! own event at that tick, which is what the `(tick, source slot)` merge
//! sees (input slots precede op slots). `tests/glitch_differential.rs`
//! checks it on random gate DAGs, tied and zero delays, and every
//! generator family.

use sdlc_netlist::{GateKind, NetId, Netlist};
use sdlc_techlib::Library;

use crate::timing::to_fixed_ps;

/// Slot holding the constant-0 plane.
const SLOT_CONST0: u32 = 0;
/// Slot holding the constant-1 plane.
const SLOT_CONST1: u32 = 1;
/// First primary-input slot: inputs take consecutive slots in
/// declaration order, and op outputs follow them in program order.
const SLOT_FIRST_INPUT: u32 = 2;

/// One timed op. Buffers are real ops here — a buffer has a real delay
/// and can filter pulses, so the timing engine must keep it.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: GateKind,
    /// Distinct source slots, ascending (the merge tie-break order); only
    /// the first `sources` are meaningful.
    src: [u32; 3],
    sources: u8,
    /// Pin `k` reads `src[pin[k]]`; pins are `[a, b]` or `[sel, lo, hi]`,
    /// unused pins repeat pin 0, and a net read on two pins is one source.
    pin: [u8; 3],
    /// Inertial delay in 1/1024 ps ticks.
    delay: u64,
}

impl Op {
    /// Word-wide evaluation over the op's current source planes.
    #[inline]
    fn eval(&self, planes: &[u64; 3]) -> u64 {
        let a = planes[self.pin[0] as usize];
        let b = planes[self.pin[1] as usize];
        match self.kind {
            GateKind::And2 => a & b,
            GateKind::Or2 => a | b,
            GateKind::Nand2 => !(a & b),
            GateKind::Nor2 => !(a | b),
            GateKind::Xor2 => a ^ b,
            GateKind::Xnor2 => !(a ^ b),
            GateKind::Not => !a,
            GateKind::Buf => a,
            // Pins are [sel, lo, hi]: sel ? hi : lo.
            GateKind::Mux2 => (b & !a) | (planes[self.pin[2] as usize] & a),
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
                unreachable!("ports are slots, not ops")
            }
        }
    }

    /// The op's source planes read from a slot table.
    #[inline]
    fn planes(&self, values: &[u64]) -> [u64; 3] {
        self.src.map(|s| values[s as usize])
    }
}

/// A [`Netlist`] flattened into a timed program: the compile-once side of
/// the word-parallel glitch engine.
///
/// Shared by reference across worker threads; each thread runs its own
/// [`GlitchSim`].
#[derive(Debug, Clone)]
pub struct TimedProgram {
    ops: Vec<Op>,
    /// Slot of op 0's output; op `i` writes slot `first_op_slot + i`.
    first_op_slot: u32,
    /// CSR fanout: ops reading slot `s` are
    /// `fanout_ops[fanout_start[s]..fanout_start[s + 1]]`, in program
    /// order — so the last one is the slot's last consumer, after which
    /// its transition list is dead.
    fanout_start: Vec<u32>,
    fanout_ops: Vec<u32>,
    /// Net index → value-slot index.
    slot_of_net: Vec<u32>,
    /// STA-style worst-case arrival time per slot in 1/1024 ps ticks (0
    /// for inputs and constants), computed in the simulator's own
    /// fixed-point domain — an *exact* upper bound on any event time it
    /// can produce for that net (a plain f64 STA sum is not: per-gate
    /// rounding makes tick sums drift past it on deep paths).
    arrival_ticks: Vec<u64>,
    /// Topological depth in ops (buffers count as a level here, unlike
    /// the folded zero-delay program).
    max_level: u32,
}

impl TimedProgram {
    /// Compiles the netlist against a library's delay model.
    ///
    /// # Panics
    ///
    /// Panics if the netlist violates the feed-forward discipline.
    #[must_use]
    pub fn compile(netlist: &Netlist, library: &Library) -> Self {
        let delays_ps = library.gate_delays_ps(netlist);
        let first_op_slot = SLOT_FIRST_INPUT + netlist.inputs().len() as u32;
        let mut slot_of_net = vec![u32::MAX; netlist.net_count()];
        let mut arrival_ticks = vec![0u64; first_op_slot as usize];
        let mut slot_level = vec![0u32; first_op_slot as usize];
        let mut next_input = SLOT_FIRST_INPUT;
        let mut ops = Vec::new();
        let slot = |table: &[u32], net: NetId| -> u32 {
            let s = table[net.index()];
            assert!(s != u32::MAX, "net {net} read before it is driven");
            s
        };
        for (gate, &delay) in netlist.gates().iter().zip(&delays_ps) {
            let out = gate.output.index();
            match gate.kind {
                GateKind::Input => {
                    slot_of_net[out] = next_input;
                    next_input += 1;
                }
                GateKind::Const0 => slot_of_net[out] = SLOT_CONST0,
                GateKind::Const1 => slot_of_net[out] = SLOT_CONST1,
                kind => {
                    let mut pins = [slot(&slot_of_net, gate.inputs[0]); 3];
                    for (pin, &net) in pins.iter_mut().zip(&gate.inputs).skip(1) {
                        *pin = slot(&slot_of_net, net);
                    }
                    let mut src = pins;
                    src.sort_unstable();
                    let mut sources = 1;
                    for k in 1..3 {
                        if src[k] != src[sources - 1] {
                            src[sources] = src[k];
                            sources += 1;
                        }
                    }
                    let pin = pins.map(|s| src[..sources].partition_point(|&d| d < s) as u8);
                    let delay = to_fixed_ps(delay);
                    let arrival = pins.iter().map(|&s| arrival_ticks[s as usize]).max();
                    arrival_ticks.push(arrival.unwrap_or(0) + delay);
                    let level = pins.iter().map(|&s| slot_level[s as usize]).max();
                    slot_level.push(level.unwrap_or(0) + 1);
                    slot_of_net[out] = first_op_slot + ops.len() as u32;
                    ops.push(Op {
                        kind,
                        src,
                        sources: sources as u8,
                        pin,
                        delay,
                    });
                }
            }
        }
        // CSR fanout per slot, ops in program order.
        let slot_count = arrival_ticks.len();
        let mut fanout_start = vec![0u32; slot_count + 1];
        for op in &ops {
            for &s in &op.src[..op.sources as usize] {
                fanout_start[s as usize + 1] += 1;
            }
        }
        for i in 1..fanout_start.len() {
            fanout_start[i] += fanout_start[i - 1];
        }
        let mut fanout_ops = vec![0u32; fanout_start[slot_count] as usize];
        let mut next = fanout_start.clone();
        for (i, op) in ops.iter().enumerate() {
            for &s in &op.src[..op.sources as usize] {
                fanout_ops[next[s as usize] as usize] = i as u32;
                next[s as usize] += 1;
            }
        }
        Self {
            ops,
            first_op_slot,
            fanout_start,
            fanout_ops,
            slot_of_net,
            arrival_ticks,
            max_level: slot_level.into_iter().max().unwrap_or(0),
        }
    }

    /// Number of timed ops (every logic cell, buffers included).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of value slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.arrival_ticks.len()
    }

    /// STA-style worst-case arrival time of a net, in ps, computed in the
    /// simulator's own fixed-point domain — no event the simulator
    /// produces for this net can ever land later.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the compiled netlist.
    #[must_use]
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrival_ticks[self.slot_of_net[net.index()] as usize] as f64 / 1024.0
    }

    /// The deepest arrival time of any net — the program's critical path
    /// under the same load model as `sdlc-synth`'s STA, and an exact
    /// upper bound on every [`GlitchApplyResult::settle_ps`] (for both
    /// timing engines: the scalar one sums the same quantized delays).
    #[must_use]
    pub fn critical_arrival_ps(&self) -> f64 {
        self.arrival_ticks.iter().copied().max().unwrap_or(0) as f64 / 1024.0
    }

    /// Topological depth in timed ops (buffers included).
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    fn input_count(&self) -> usize {
        (self.first_op_slot - SLOT_FIRST_INPUT) as usize
    }

    fn fanout(&self, slot: u32) -> &[u32] {
        let lo = self.fanout_start[slot as usize] as usize;
        let hi = self.fanout_start[slot as usize + 1] as usize;
        &self.fanout_ops[lo..hi]
    }
}

/// Result of settling one 64-lane input transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchApplyResult {
    /// Net transitions summed over all 64 lanes (glitches included) — the
    /// sum of the per-lane [`crate::ApplyResult::transitions`].
    pub transitions: u64,
    /// Time of the last transition in any lane, in ps — the maximum of
    /// the per-lane settle times (bounded by
    /// [`TimedProgram::critical_arrival_ps`]).
    pub settle_ps: f64,
}

/// One entry of a net's transition list: the lanes that flip at `tick`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    tick: u64,
    mask: u64,
}

/// 64-lane glitch executor over a [`TimedProgram`] — the exact
/// word-parallel twin of [`crate::TimingSim`].
///
/// Lane `i` of every stimulus word is an independent vector stream; per
/// lane, transition accounting (inertial pulse filtering included) is
/// identical to running one scalar `TimingSim` on that stream.
///
/// Each [`GlitchSim::apply`] is one pass, in program order, over the ops
/// a changed input reaches: every such op turns its fan-in transition
/// lists into its own, and the planes are committed at the end. Lists
/// live in one arena, appended whole and so in ascending start order. A
/// list dies once its slot's last consumer has read it, and when the
/// arena has doubled past its live entries the live lists are copied
/// forward — memory follows the live set, not the word's transition
/// count. Buffers keep their capacity across calls; steady state
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct GlitchSim<'p> {
    program: &'p TimedProgram,
    values: Vec<u64>,
    toggles: Vec<u64>,
    /// The transition-list arena of the current `apply`.
    edges: Vec<Edge>,
    /// Per slot: `edges` range of its list — non-empty exactly while the
    /// list is live.
    lists: Vec<(usize, usize)>,
    /// Slots whose lists sit in `edges`, in ascending start order.
    listed: Vec<u32>,
    /// Total entries of live lists.
    live: usize,
    /// Ops with a changed fan-in, one bit per op.
    dirty: Vec<u64>,
    /// Slots that moved in the current `apply`, with the XOR of their
    /// flips (committed to `values` at the end).
    touched: Vec<(u32, u64)>,
    /// Events of the op being run: `(tick, value-0 lanes, value-1 lanes)`.
    events: Vec<(u64, u64, u64)>,
    settled_once: bool,
}

impl<'p> GlitchSim<'p> {
    /// Arena size below which compaction is not worth a pass.
    const MIN_COMPACT: usize = 1 << 10;

    /// Creates an executor with all lanes at 0 (constants pre-loaded).
    #[must_use]
    pub fn new(program: &'p TimedProgram) -> Self {
        let mut values = vec![0u64; program.slot_count()];
        values[SLOT_CONST1 as usize] = u64::MAX;
        Self {
            program,
            toggles: vec![0; program.slot_count()],
            values,
            edges: Vec::new(),
            lists: vec![(0, 0); program.slot_count()],
            listed: Vec::new(),
            live: 0,
            dirty: vec![0; program.op_count().div_ceil(64)],
            touched: Vec::new(),
            events: Vec::new(),
            settled_once: false,
        }
    }

    /// Establishes a steady state for one stimulus word per primary input
    /// (lane `i` of each word is stream `i`) without counting activity.
    ///
    /// # Panics
    ///
    /// Panics on stimulus width mismatch.
    pub fn settle(&mut self, stimulus: &[u64]) {
        let p = self.program;
        assert_eq!(stimulus.len(), p.input_count(), "stimulus width mismatch");
        let first_input = SLOT_FIRST_INPUT as usize;
        self.values[first_input..first_input + stimulus.len()].copy_from_slice(stimulus);
        for (i, op) in p.ops.iter().enumerate() {
            self.values[p.first_op_slot as usize + i] = op.eval(&op.planes(&self.values));
        }
        self.settled_once = true;
    }

    /// Applies a new stimulus word per input against the current steady
    /// state and simulates every lane to quiescence, counting every
    /// transition (glitches included) exactly like 64 scalar
    /// [`crate::TimingSim`] streams.
    ///
    /// # Panics
    ///
    /// Panics if [`GlitchSim::settle`] has not established an initial
    /// state, or on stimulus width mismatch.
    pub fn apply(&mut self, stimulus: &[u64]) -> GlitchApplyResult {
        assert!(self.settled_once, "call settle() before apply()");
        let p = self.program;
        assert_eq!(stimulus.len(), p.input_count(), "stimulus width mismatch");
        let mut transitions = 0u64;
        let mut last_tick = 0u64;
        // Input changes land at t = 0.
        for (k, &word) in stimulus.iter().enumerate() {
            let slot = SLOT_FIRST_INPUT + k as u32;
            let changed = self.values[slot as usize] ^ word;
            if changed != 0 {
                let flips = u64::from(changed.count_ones());
                self.toggles[slot as usize] += flips;
                transitions += flips;
                let start = self.edges.len();
                self.edges.push(Edge {
                    tick: 0,
                    mask: changed,
                });
                self.publish(slot, changed, start);
            }
        }
        // Dirty ops in program order: marks only ever land on later ops,
        // so rereading the current word after clearing its lowest bit
        // visits them all.
        for w in 0..self.dirty.len() {
            while self.dirty[w] != 0 {
                let bits = self.dirty[w];
                self.dirty[w] = bits & (bits - 1);
                let (fired, tick) = self.run_op(w * 64 + bits.trailing_zeros() as usize);
                transitions += fired;
                last_tick = last_tick.max(tick);
            }
        }
        for &(slot, flips) in &self.touched {
            self.values[slot as usize] ^= flips;
        }
        // Every list was retired by its last consumer.
        debug_assert_eq!(self.live, 0);
        self.touched.clear();
        self.edges.clear();
        self.listed.clear();
        GlitchApplyResult {
            transitions,
            settle_ps: last_tick as f64 / 1024.0,
        }
    }

    /// Records that `slot` moved: `flips` is the XOR of its masks, and
    /// the arena entries from `start` on are its transition list, kept
    /// (and its consumers marked dirty) only when something reads it.
    fn publish(&mut self, slot: u32, flips: u64, start: usize) {
        self.touched.push((slot, flips));
        let consumers = self.program.fanout(slot);
        if consumers.is_empty() {
            self.edges.truncate(start);
            return;
        }
        self.lists[slot as usize] = (start, self.edges.len());
        self.listed.push(slot);
        self.live += self.edges.len() - start;
        for &op in consumers {
            self.dirty[op as usize / 64] |= 1 << (op % 64);
        }
    }

    /// Turns one dirty op's fan-in lists into its output list. Returns
    /// the op's fired transitions and the tick of its last one.
    fn run_op(&mut self, index: usize) -> (u64, u64) {
        let p = self.program;
        let op = &p.ops[index];
        let dst = p.first_op_slot + index as u32;
        let sources = &op.src[..op.sources as usize];
        let edges = &mut self.edges;
        // Per fan-in list: read position, end, and the tick at its head
        // (`u64::MAX` once exhausted).
        let (mut pos, mut end, mut heads) = ([0; 3], [0; 3], [u64::MAX; 3]);
        for (j, &s) in sources.iter().enumerate() {
            (pos[j], end[j]) = self.lists[s as usize];
            if pos[j] < end[j] {
                heads[j] = edges[pos[j]].tick;
            }
        }
        let mut planes = op.planes(&self.values);
        let mut present = op.eval(&planes);
        let mut out = self.values[dst as usize];
        let start = edges.len();
        let (mut fired_total, mut last_tick, mut flips) = (0u64, 0u64, 0u64);
        let events = &mut self.events;
        events.clear();
        let mut head = 0;
        loop {
            // The next group: the earliest tick heading any fan-in list.
            let tick = heads[0].min(heads[1]).min(heads[2]);
            // Events due before it fire against the present evaluation,
            // which every fan-in change up to them has reached. Inertial
            // rule, word-wide: a lane fires where its scheduled value
            // still matches the present evaluation and differs from the
            // output (the value-0 half pops first, as in the scalar
            // heap — equivalently `fired_low = low & !present & out`, then
            // `fired_high = high & present & !(out & !fired_low)`).
            while let Some(&(t, low, high)) = events.get(head).filter(|e| e.0 < tick) {
                head += 1;
                let fired = ((high & present) | (low & !present)) & (out ^ present);
                if fired != 0 {
                    out ^= fired;
                    flips ^= fired;
                    fired_total += u64::from(fired.count_ones());
                    last_tick = t;
                    edges.push(Edge {
                        tick: t,
                        mask: fired,
                    });
                }
            }
            if tick == u64::MAX {
                break;
            }
            // Merge this tick's entries in source-slot order; each one
            // schedules the lanes it moved at the value the op evaluates
            // to right after it.
            let (mut low, mut high) = (0u64, 0u64);
            for j in 0..sources.len() {
                if heads[j] == tick {
                    let mask = edges[pos[j]].mask;
                    pos[j] += 1;
                    heads[j] = if pos[j] < end[j] {
                        edges[pos[j]].tick
                    } else {
                        u64::MAX
                    };
                    planes[j] ^= mask;
                    present = op.eval(&planes);
                    low |= mask & !present;
                    high |= mask & present;
                }
            }
            events.push((tick + op.delay, low, high));
        }
        self.toggles[dst as usize] += fired_total;
        if fired_total != 0 {
            self.publish(dst, flips, start);
        }
        for &s in sources {
            if p.fanout(s).last() == Some(&(index as u32)) {
                let (lo, hi) = std::mem::take(&mut self.lists[s as usize]);
                self.live -= hi - lo;
            }
        }
        if self.edges.len() >= Self::MIN_COMPACT.max(2 * self.live) {
            self.compact();
        }
        (fired_total, last_tick)
    }

    /// Copies the live lists to the front of the arena, in order.
    fn compact(&mut self) {
        let mut write = 0;
        let (edges, lists) = (&mut self.edges, &mut self.lists);
        self.listed.retain(|&slot| {
            let (lo, hi) = lists[slot as usize];
            edges.copy_within(lo..hi, write);
            lists[slot as usize] = (write, write + hi - lo);
            write += hi - lo;
            hi > lo
        });
        edges.truncate(write);
    }

    /// Per-net transition counts (glitches included) since construction,
    /// summed over all 64 lanes and scattered to the source netlist's net
    /// indexing. Dead nets (no driver after DCE) never move and report 0.
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        self.program
            .slot_of_net
            .iter()
            .map(|&slot| {
                if slot == u32::MAX {
                    0
                } else {
                    self.toggles[slot as usize]
                }
            })
            .collect()
    }

    /// Current 64-lane plane of one net.
    #[must_use]
    pub fn plane(&self, net: NetId) -> u64 {
        self.values[self.program.slot_of_net[net.index()] as usize]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::ab_stimulus;
    use crate::TimingSim;
    use sdlc_netlist::adders::ripple_add;
    use sdlc_wideint::SplitMix64;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    /// Lane 0 broadcast: a single-stream compiled run must match one
    /// scalar TimingSim transition for transition.
    #[test]
    fn single_lane_matches_timing_sim_exactly() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut compiled = GlitchSim::new(&program);
        let mut scalar = TimingSim::new(&n, &lib);
        let mut rng = SplitMix64::new(0x911);
        let to_planes =
            |bits: &[bool]| -> Vec<u64> { bits.iter().map(|&b| u64::from(b)).collect() };
        let first = ab_stimulus(&n, 0xA5, 0x5A);
        scalar.settle(&first);
        compiled.settle(&to_planes(&first));
        for _ in 0..40 {
            let a = u128::from(rng.next_bits(8));
            let b = u128::from(rng.next_bits(8));
            let stimulus = ab_stimulus(&n, a, b);
            let want = scalar.apply(&stimulus);
            let got = compiled.apply(&to_planes(&stimulus));
            assert_eq!(got.transitions, want.transitions, "{a}x{b}");
            assert!((got.settle_ps - want.settle_ps).abs() < 1e-9, "{a}x{b}");
        }
        // Per-net totals and final values agree too.
        for gate in n.gates() {
            let net = gate.output;
            assert_eq!(compiled.lane_value(net, 0), scalar.value(net), "net {net}");
        }
        assert_eq!(compiled.toggles_per_net(), scalar.toggles().to_vec());
    }

    /// All 64 lanes running distinct streams must equal 64 scalar sims.
    #[test]
    fn all_lanes_match_their_scalar_streams() {
        let n = adder(6);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut rng = SplitMix64::new(0x64);
        let words: Vec<Vec<u64>> = (0..8)
            .map(|_| (0..12).map(|_| rng.next_u64()).collect())
            .collect();
        let mut compiled = GlitchSim::new(&program);
        compiled.settle(&words[0]);
        let mut compiled_transitions = 0u64;
        for word in &words[1..] {
            compiled_transitions += compiled.apply(word).transitions;
        }
        let mut scalar_totals = vec![0u64; n.net_count()];
        let mut scalar_transitions = 0u64;
        for lane in 0..64u32 {
            let mut sim = TimingSim::new(&n, &lib);
            let bits = |word: &Vec<u64>| -> Vec<bool> {
                word.iter().map(|&w| (w >> lane) & 1 == 1).collect()
            };
            sim.settle(&bits(&words[0]));
            for word in &words[1..] {
                scalar_transitions += sim.apply(&bits(word)).transitions;
            }
            for (total, &t) in scalar_totals.iter_mut().zip(sim.toggles()) {
                *total += t;
            }
        }
        assert_eq!(compiled.toggles_per_net(), scalar_totals);
        assert_eq!(compiled_transitions, scalar_transitions);
    }

    #[test]
    fn settle_times_respect_the_arrival_bound() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let bound = program.critical_arrival_ps();
        assert!(bound > 0.0);
        let mut sim = GlitchSim::new(&program);
        sim.settle(&[0u64; 16]);
        let mut rng = SplitMix64::new(3);
        for _ in 0..20 {
            let stimulus: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            let result = sim.apply(&stimulus);
            assert!(
                result.settle_ps <= bound + 1e-6,
                "{} > {bound}",
                result.settle_ps
            );
        }
        // Per-net arrivals are monotone along the carry chain.
        let p_bus = n.bus("p").unwrap();
        assert!(program.arrival_ps(p_bus[7]) > program.arrival_ps(p_bus[0]));
        assert!(program.max_level() >= 8);
        assert!(program.op_count() >= n.cell_count() - 2);
    }

    #[test]
    fn no_change_costs_nothing() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut sim = GlitchSim::new(&program);
        let word = vec![0xDEADu64; 8];
        sim.settle(&word);
        let result = sim.apply(&word);
        assert_eq!(result.transitions, 0);
        assert_eq!(result.settle_ps, 0.0);
    }

    #[test]
    #[should_panic(expected = "call settle()")]
    fn apply_before_settle_panics() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let _ = GlitchSim::new(&program).apply(&[0u64; 8]);
    }
}
