//! Differential proof that the compiled glitch engine is a bit-exact
//! twin of the scalar event-driven [`TimingSim`]: identical per-net
//! transition totals (functional toggles *and* glitches), identical total
//! transition counts and settle times for identical per-lane streams —
//! plus the folding contract of the zero-delay compiled engine
//! (const-prop/CSE programs bit-identical to lane-wise `LogicSim`
//! streams, toggles included).

mod common;

use common::lanewise_reference;
use proptest::prelude::*;
use sdlc::core::baselines::TruncatedMultiplier;
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, sdlc_multiplier, signed_multiplier,
    truncated_multiplier, ReductionScheme,
};
use sdlc::core::SdlcMultiplier;
use sdlc::netlist::Netlist;
use sdlc::sim::activity::{glitch_activity, timing_activity_with_engine};
use sdlc::sim::{CompiledNetlist, CompiledSim, Engine, GlitchSim, TimedProgram, TimingSim};
use sdlc::techlib::Library;
use sdlc::wideint::SplitMix64;

/// Builds a random feed-forward gate DAG (same shape as the zero-delay
/// engine suite): `inputs` primary inputs, then `ops` gates decoded from
/// the seeds — buffers, constants and muxes included, so delay-bearing
/// buffers and const-fed gates are exercised, not just arithmetic cells.
///
/// Event-driven simulation of an *arbitrary* DAG can amplify
/// exponentially (an XOR tree doubles its waveform event count per
/// level), so gate sources are redirected to primary inputs whenever a
/// candidate gate's worst-case event bound would exceed a cap — the DAGs
/// keep reconvergent, glitchy structure without pathological cases that
/// would stall the differential sweep.
fn random_dag(inputs: u32, ops: &[(u8, u32, u32, u32)]) -> Netlist {
    const EVENT_CAP: u64 = 64;
    let mut n = Netlist::new("dag");
    let mut nets = n.add_input_bus("a", inputs);
    // Worst-case events per net and per vector transition: one per input,
    // the sum of the source bounds per gate output.
    let mut events: Vec<u64> = vec![1; nets.len()];
    for &(kind, s0, s1, s2) in ops {
        let pick = |s: u32| -> usize { s as usize % nets.len() };
        let (mut ia, mut ib, mut ic) = (pick(s0), pick(s1), pick(s2));
        if events[ia] + events[ib] + events[ic] > EVENT_CAP {
            (ia, ib, ic) = (
                ia % inputs as usize,
                ib % inputs as usize,
                ic % inputs as usize,
            );
        }
        events.push(events[ia] + events[ib] + events[ic]);
        let (a, b, c) = (nets[ia], nets[ib], nets[ic]);
        let out = match kind % 11 {
            0 => n.buf(a),
            1 => n.not(a),
            2 => n.and2(a, b),
            3 => n.or2(a, b),
            4 => n.nand2(a, b),
            5 => n.nor2(a, b),
            6 => n.xor2(a, b),
            7 => n.xnor2(a, b),
            8 => n.mux2(a, b, c),
            9 => {
                let zero = n.const0();
                n.or2(a, zero)
            }
            _ => {
                let one = n.const1();
                n.and2(b, one)
            }
        };
        nets.push(out);
    }
    let outs: Vec<_> = nets.iter().rev().take(8).copied().collect();
    n.set_output_bus("p", outs);
    n
}

/// Runs `words` through the compiled glitch engine and through scalar
/// [`TimingSim`] streams, asserting exact per-net/total agreement. The
/// words must carry `streams` distinct lane streams replicated across all
/// 64 lanes (lane `i` = stream `i % streams`), so the compiled totals are
/// exactly `64 / streams` times the scalar sum.
fn assert_glitch_match(n: &Netlist, words: &[Vec<u64>], streams: u32) {
    assert_glitch_match_on(n, &Library::generic_90nm(), words, streams);
}

/// [`assert_glitch_match`] under an arbitrary delay library.
fn assert_glitch_match_on(n: &Netlist, lib: &Library, words: &[Vec<u64>], streams: u32) {
    assert_eq!(64 % streams, 0);
    let replication = u64::from(64 / streams);
    let program = TimedProgram::compile(n, lib);
    let mut compiled = GlitchSim::new(&program);
    compiled.settle(&words[0]);
    let mut compiled_transitions = 0u64;
    let mut compiled_settle = 0.0f64;
    for word in &words[1..] {
        let result = compiled.apply(word);
        compiled_transitions += result.transitions;
        compiled_settle = compiled_settle.max(result.settle_ps);
    }
    let mut scalar_totals = vec![0u64; n.net_count()];
    let mut scalar_transitions = 0u64;
    let mut scalar_settle = 0.0f64;
    for lane in 0..streams {
        let bits =
            |word: &Vec<u64>| -> Vec<bool> { word.iter().map(|&w| (w >> lane) & 1 == 1).collect() };
        let mut sim = TimingSim::new(n, lib);
        sim.settle(&bits(&words[0]));
        for word in &words[1..] {
            let result = sim.apply(&bits(word));
            scalar_transitions += result.transitions;
            scalar_settle = scalar_settle.max(result.settle_ps);
        }
        for (total, &t) in scalar_totals.iter_mut().zip(sim.toggles()) {
            *total += t;
        }
        // Final lane values match the scalar steady state.
        for gate in n.gates() {
            assert_eq!(
                compiled.lane_value(gate.output, lane),
                sim.value(gate.output),
                "net {} lane {lane}",
                gate.output
            );
        }
    }
    let scaled: Vec<u64> = scalar_totals.iter().map(|&t| t * replication).collect();
    assert_eq!(compiled.toggles_per_net(), scaled);
    assert_eq!(compiled_transitions, scalar_transitions * replication);
    assert!((compiled_settle - scalar_settle).abs() < 1e-9);
    // No event can land past the STA arrival bound.
    assert!(compiled_settle <= program.critical_arrival_ps() + 1e-6);
}

/// Replicates an 8-bit pattern into all 8 byte lanes, so 64 lanes carry 8
/// distinct streams.
fn replicate8(byte: u64) -> u64 {
    (byte & 0xFF) * 0x0101_0101_0101_0101
}

/// A library whose cells all share one delay with no load slope, so
/// fan-ins from different gates reach an op on the same tick: merge ties
/// between sources are the rule, not the exception. A zero delay puts
/// every event of a word on tick 0.
fn uniform_library(delay_ps: f64) -> Library {
    let cells: String = [
        "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2",
    ]
    .iter()
    .map(|name| {
        format!("  cell {name} {{ area 1 cap 1 delay {delay_ps} drive 0 energy 1 leak 0 }}\n")
    })
    .collect();
    Library::from_text(&format!(
        "library uniform {{\n  wire_cap_per_fanout_ff 0\n{cells}}}\n"
    ))
    .unwrap()
}

/// `count` stimulus words where every other word moves only one input, so
/// consecutive applies carry most of the circuit's state over unchanged.
fn sparse_words(inputs: usize, count: usize, rng: &mut SplitMix64) -> Vec<Vec<u64>> {
    let mut words: Vec<Vec<u64>> = Vec::new();
    for k in 0..count {
        let word = if k % 2 == 0 {
            (0..inputs).map(|_| rng.next_u64()).collect()
        } else {
            let mut word = words[k - 1].clone();
            word[rng.next_bits(16) as usize % inputs] ^= rng.next_u64();
            word
        };
        words.push(word);
    }
    words
}

proptest! {
    /// On random gate DAGs, the compiled glitch engine counts exactly the
    /// transitions (glitches included) that scalar TimingSim streams do.
    #[test]
    fn compiled_glitches_match_timing_sim_on_random_dags(
        inputs in 1u32..7,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..40),
        seed in any::<u64>(),
    ) {
        let n = random_dag(inputs, &ops);
        n.validate().unwrap();
        let mut rng = SplitMix64::new(seed);
        let words: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..inputs).map(|_| replicate8(rng.next_u64())).collect())
            .collect();
        assert_glitch_match(&n, &words, 8);
    }

    /// Equal delays everywhere tie fan-in arrivals from different gates
    /// on one tick; zero delays put a whole word on tick 0. Runs of eight
    /// words carry state across applies.
    #[test]
    fn uniform_delays_match_timing_sim_on_random_dags(
        inputs in 1u32..7,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..40),
        delay in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n = random_dag(inputs, &ops);
        let mut rng = SplitMix64::new(seed);
        let words: Vec<Vec<u64>> = (0..8)
            .map(|_| (0..inputs).map(|_| replicate8(rng.next_u64())).collect())
            .collect();
        let lib = uniform_library([0.0, 10.0, 12.5][delay]);
        assert_glitch_match_on(&n, &lib, &words, 8);
    }

    /// Deeper zero-delay folding stays bit-identical to the lane-wise
    /// `LogicSim` reference on DAGs stuffed with const feeds and duplicate
    /// gates.
    #[test]
    fn folding_keeps_values_and_toggles_bit_identical(
        inputs in 1u32..6,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..48),
        seed in any::<u64>(),
    ) {
        let mut n = random_dag(inputs, &ops);
        // Duplicate every third op's signature on purpose (CSE bait) and
        // re-emit const-fed gates.
        let nets: Vec<_> = n.gates().iter().map(|g| g.output).collect();
        let mut dup = Vec::new();
        for (i, gate) in n.gates().iter().enumerate().skip(inputs as usize) {
            if i % 3 == 0 && gate.inputs.len() == 2 {
                dup.push((gate.kind, gate.inputs[0], gate.inputs[1]));
            }
        }
        for (kind, a, b) in dup {
            let redone = n.add_gate(kind, &[b, a]); // swapped: still CSE-able
            let zero = n.const0();
            let _ = n.or2(redone, zero);
        }
        let tail: Vec<_> = nets.iter().rev().take(4).copied().collect();
        n.set_output_bus("q", tail);
        n.validate().unwrap();

        let program = CompiledNetlist::compile(&n);
        prop_assert!(program.op_count() <= n.cell_count());
        let mut compiled = CompiledSim::new(&program);
        let mut rng = SplitMix64::new(seed);
        let words: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect();
        for word in &words {
            compiled.apply(word);
        }
        let (planes, toggles) = lanewise_reference(&n, &words);
        for gate in n.gates() {
            let net = gate.output;
            prop_assert_eq!(compiled.plane(net), planes[net.index()], "net {}", net);
        }
        prop_assert_eq!(compiled.toggles_per_net(), toggles);
    }
}

/// Every circuit generator family produces identical glitch totals on the
/// compiled engine and on scalar TimingSim streams.
#[test]
fn every_generator_family_agrees_with_timing_sim() {
    let scheme = ReductionScheme::RippleRows;
    let sdlc2 = SdlcMultiplier::new(6, 2).unwrap();
    let sdlc4 = SdlcMultiplier::new(6, 4).unwrap();
    let trunc = TruncatedMultiplier::new(6, 3).unwrap();
    let netlists: Vec<Netlist> = vec![
        accurate_multiplier(6, scheme).unwrap(),
        accurate_multiplier(6, ReductionScheme::Wallace).unwrap(),
        sdlc_multiplier(&sdlc2, scheme),
        sdlc_multiplier(&sdlc4, ReductionScheme::Dadda),
        truncated_multiplier(&trunc, scheme),
        etm_multiplier(6, scheme).unwrap(),
        kulkarni_multiplier(8, scheme).unwrap(),
        signed_multiplier(&sdlc_multiplier(&sdlc2, scheme), 6),
    ];
    for n in &netlists {
        let inputs = n.inputs().len();
        let mut rng = SplitMix64::new(0x6117C4);
        let words: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..inputs).map(|_| replicate8(rng.next_u64())).collect())
            .collect();
        assert_glitch_match(n, &words, 8);
    }
}

/// The full 64-lane stream layout (no replication) matches 64 scalar
/// sims on a real multiplier.
#[test]
fn full_64_lane_streams_match_on_an_sdlc_multiplier() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let n = sdlc_multiplier(&model, ReductionScheme::Wallace);
    let mut rng = SplitMix64::new(0xFEED);
    let words: Vec<Vec<u64>> = (0..3)
        .map(|_| (0..n.inputs().len()).map(|_| rng.next_u64()).collect())
        .collect();
    assert_glitch_match(&n, &words, 64);
}

/// The glitch-activity driver: deterministic, glitch-aware, within the
/// documented tolerance of the scalar reference's estimate.
#[test]
fn glitch_activity_driver_contract() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let lib = Library::generic_90nm();
    let compiled = timing_activity_with_engine(&n, &lib, 0x5D1C, 512, Engine::Compiled);
    assert_eq!(compiled, glitch_activity(&n, &lib, 0x5D1C, 512));
    assert!(compiled.includes_glitches);
    assert_eq!(compiled.transition_count, 512);
    let scalar = timing_activity_with_engine(&n, &lib, 0x5D1C, 512, Engine::Scalar);
    let rel = (compiled.mean_activity() - scalar.mean_activity()).abs() / scalar.mean_activity();
    assert!(rel < 0.15, "engines diverge beyond tolerance: {rel}");
    // Glitch-aware totals dominate the zero-delay estimate.
    let zero_delay = sdlc::sim::activity::random_activity(&n, 0x5D1C, 512);
    assert!(compiled.mean_activity() >= zero_delay.mean_activity());
}

/// TimingSim's own settle times also respect the TimedProgram's arrival
/// metadata — the two engines share one delay model.
#[test]
fn arrival_metadata_bounds_both_engines() {
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let lib = Library::generic_90nm();
    let program = TimedProgram::compile(&n, &lib);
    let bound = program.critical_arrival_ps();
    let mut sim = TimingSim::new(&n, &lib);
    let stim = |a: u128, b: u128| sdlc::sim::ab_stimulus(&n, a, b);
    sim.settle(&stim(0, 0));
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..50 {
        let a = u128::from(rng.next_bits(8));
        let b = u128::from(rng.next_bits(8));
        let result = sim.apply(&stim(a, b));
        assert!(result.settle_ps <= bound + 1e-6);
    }
}

/// Wide ripple arrays produce tens of thousands of transition-list
/// entries per applied word, enough for the waveform arena to compact
/// mid-pass; live lists must survive the copy, and dead ones must not
/// leak into the next word (words that move one input rerun ops whose
/// other fan-ins stay quiet).
#[test]
fn arena_compaction_keeps_lists_exact() {
    let n = accurate_multiplier(16, ReductionScheme::RippleRows).unwrap();
    let mut rng = SplitMix64::new(0xC0DE);
    let words = sparse_words(n.inputs().len(), 6, &mut rng);
    assert_glitch_match(&n, &words, 64);
}

/// Gates that read one net on two pins (the net is one fan-in source
/// feeding both), muxes whose select is also a data input, and ops whose
/// outputs nothing reads, under tied and load-dependent delays, over runs
/// where state carries across applies.
#[test]
fn shared_pins_and_unread_ops_match_timing_sim() {
    let mut n = Netlist::new("pins");
    let a = n.add_input_bus("a", 4);
    let b = n.add_input_bus("b", 2);
    let x = n.xor2(a[0], a[1]);
    let self_xor = n.xor2(x, x);
    let self_xnor = n.xnor2(a[2], a[2]);
    let self_and = n.and2(x, x);
    let sel_lo = n.mux2(a[3], a[3], x);
    let sel_hi = n.mux2(a[3], x, a[3]);
    let all_one = n.mux2(b[0], b[0], b[0]);
    let lo_hi = n.mux2(x, b[1], b[1]);
    let or = n.or2(self_xor, sel_lo);
    let nand = n.nand2(sel_hi, lo_hi);
    let y = n.xor2(or, nand);
    // Read by nothing, and not outputs either.
    let _ = n.nor2(y, self_and);
    let _ = n.buf(all_one);
    let _ = n.not(self_xnor);
    n.set_output_bus("p", vec![y, self_and, all_one]);
    n.validate().unwrap();
    let mut rng = SplitMix64::new(0x5A17);
    for lib in [Library::generic_90nm(), uniform_library(10.0)] {
        let words = sparse_words(n.inputs().len(), 9, &mut rng);
        assert_glitch_match_on(&n, &lib, &words, 64);
    }
}

/// Multiplier families under tied delays, full 64-lane streams.
#[test]
fn generator_families_match_under_uniform_delays() {
    let sdlc2 = SdlcMultiplier::new(6, 2).unwrap();
    let netlists = [
        accurate_multiplier(6, ReductionScheme::RippleRows).unwrap(),
        accurate_multiplier(6, ReductionScheme::Wallace).unwrap(),
        sdlc_multiplier(&sdlc2, ReductionScheme::Dadda),
        signed_multiplier(&sdlc_multiplier(&sdlc2, ReductionScheme::RippleRows), 6),
    ];
    let lib = uniform_library(10.0);
    let mut rng = SplitMix64::new(0x7135);
    for n in &netlists {
        let words = sparse_words(n.inputs().len(), 5, &mut rng);
        assert_glitch_match_on(n, &lib, &words, 64);
    }
}
