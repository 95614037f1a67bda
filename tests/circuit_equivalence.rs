//! Cross-crate integration: every circuit generator must agree with its
//! functional model through the gate-level simulator, and the simulation
//! engines must agree with each other on real multipliers.

use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::batch::exhaustive_block;
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, sdlc_multiplier,
    truncated_multiplier, ReductionScheme,
};
use sdlc::core::{Batchable, ClusterVariant, Multiplier, SdlcMultiplier};
use sdlc::netlist::passes;
use sdlc::sim::equiv::{check, Batched, Sweep};
use sdlc::sim::{
    ab_stimulus, CompiledNetlist, CompiledSim, Engine, GlitchSim, LogicSim, TimedProgram, TimingSim,
};
use sdlc::techlib::Library;
use sdlc::wideint::SplitMix64;
use sdlc::wideint::U256;

fn exact(a: u128, b: u128) -> U256 {
    U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
}

fn sampled(samples: u64, seed: u64) -> Sweep {
    Sweep::Sampled { samples, seed }
}

#[test]
fn every_generator_matches_its_model_at_6_bits() {
    let scheme = ReductionScheme::RippleRows;
    // SDLC at every depth and variant.
    for depth in [1u32, 2, 3, 4, 6] {
        for variant in [
            ClusterVariant::Progressive,
            ClusterVariant::CeilTails,
            ClusterVariant::PairTails,
            ClusterVariant::FullOr,
        ] {
            let model = SdlcMultiplier::with_variant(6, depth, variant).unwrap();
            let netlist = sdlc_multiplier(&model, scheme);
            let reference = |a, b| model.multiply(a, b);
            check(&netlist, 6, Sweep::Exhaustive, reference, Engine::Scalar)
                .unwrap_or_else(|e| panic!("sdlc d{depth} {variant:?}: {e}"));
        }
    }
    // ETM and truncation.
    let etm = EtmMultiplier::new(6).unwrap();
    let netlist = etm_multiplier(6, scheme).unwrap();
    let reference = |a, b| etm.multiply(a, b);
    check(&netlist, 6, Sweep::Exhaustive, reference, Engine::Scalar).unwrap();
    for dropped in [0u32, 3, 7] {
        let model = TruncatedMultiplier::new(6, dropped).unwrap();
        let netlist = truncated_multiplier(&model, scheme);
        let reference = |a, b| model.multiply(a, b);
        check(&netlist, 6, Sweep::Exhaustive, reference, Engine::Scalar)
            .unwrap_or_else(|e| panic!("trunc {dropped}: {e}"));
    }
}

#[test]
fn optimization_passes_preserve_multiplier_behavior() {
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let mut netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let before = netlist.cell_count();
    let stats = passes::optimize(&mut netlist);
    assert!(stats.dead_gates_removed + stats.gates_simplified > 0);
    assert!(netlist.cell_count() <= before);
    let reference = |a, b| model.multiply(a, b);
    check(&netlist, 8, Sweep::Exhaustive, reference, Engine::Compiled).unwrap();
}

#[test]
fn sdlc_circuit_matches_model_exhaustively_at_10_bits() {
    // 2^20 = 1,048,576 operand pairs. On the scalar engine this sweep
    // capped circuit equivalence at 8 bits; the compiled word-parallel
    // engine packs 512 pairs per sweep and shards rows across cores,
    // making the 10-bit exhaustive check routine CI material.
    for depth in [2u32, 4] {
        let model = SdlcMultiplier::new(10, depth).unwrap();
        let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
        let reference = |a, b| U256::from_u128(model.multiply_u64(a as u64, b as u64));
        check(&netlist, 10, Sweep::Exhaustive, reference, Engine::Compiled)
            .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2^24 pairs want the release suite")]
fn sdlc_circuit_matches_model_exhaustively_at_12_bits() {
    // 2^24 = 16.8 M operand pairs — the new compiled-equivalence ceiling.
    // At this size the per-pair scalar model call dominates the compiled
    // netlist sweep, so the model side rides its bit-sliced 64-lane twin
    // as a `Batched` model (identical verdict semantics, proven against
    // the per-pair checks at 10 bits above).
    for depth in [2u32, 4] {
        let model = SdlcMultiplier::new(12, depth).unwrap();
        let batch = model.batch_model();
        let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
        let reference = Batched {
            pair: |a, b| model.multiply(a, b),
            block: |a, b0, out: &mut [u64; 64]| exhaustive_block(&batch, a, b0, out),
        };
        check(&netlist, 12, Sweep::Exhaustive, reference, Engine::Compiled)
            .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
    }
}

#[test]
fn batched_and_per_pair_checks_agree_at_8_bits() {
    // The batched model path must be a drop-in twin of the per-pair
    // model calls: same pass verdicts here, and `sdlc-sim`'s own suite
    // proves same first counterexamples on planted bugs.
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let batch = model.batch_model();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Dadda);
    for engine in [Engine::Scalar, Engine::Compiled] {
        let reference = Batched {
            pair: |a, b| model.multiply(a, b),
            block: |a, b0, out: &mut [u64; 64]| exhaustive_block(&batch, a, b0, out),
        };
        check(&netlist, 8, Sweep::Exhaustive, reference, engine)
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
    }
}

#[test]
fn kulkarni_circuit_matches_model_at_16_bits() {
    let model = KulkarniMultiplier::new(16).unwrap();
    let netlist = kulkarni_multiplier(16, ReductionScheme::RippleRows).unwrap();
    // The compiled engine covers the identical sampled sequence.
    for engine in [Engine::Scalar, Engine::Compiled] {
        let reference = |a, b| model.multiply(a, b);
        check(&netlist, 16, sampled(300, 7), reference, engine).unwrap();
    }
}

#[test]
fn wide_sdlc_circuit_matches_model_at_32_bits() {
    let model = SdlcMultiplier::new(32, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let reference = |a, b| model.multiply(a, b);
    check(&netlist, 32, sampled(200, 13), reference, Engine::Scalar).unwrap();
}

#[test]
fn all_four_engines_agree_on_an_sdlc_multiplier() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let lib = Library::generic_90nm();
    let program = CompiledNetlist::compile(&netlist);
    let timed = TimedProgram::compile(&netlist, &lib);
    let mut scalar = LogicSim::new(&netlist);
    let mut compiled = CompiledSim::new(&program);
    let mut timing = TimingSim::new(&netlist, &lib);
    let mut glitch = GlitchSim::new(&timed);
    timing.settle(&ab_stimulus(&netlist, 0, 0));
    glitch.settle(&vec![0; netlist.inputs().len()]);

    let mut rng = SplitMix64::new(0xE9417);
    for _ in 0..300 {
        let a = u128::from(rng.next_bits(8));
        let b = u128::from(rng.next_bits(8));
        let stimulus = ab_stimulus(&netlist, a, b);
        scalar.apply(&stimulus);
        // Every lane of the word-wide engines carries the same stream.
        let word_stimulus: Vec<u64> = stimulus
            .iter()
            .map(|&bit| if bit { u64::MAX } else { 0 })
            .collect();
        compiled.apply(&word_stimulus);
        timing.apply(&stimulus);
        glitch.apply(&word_stimulus);

        let expect = model.multiply(a, b).to_u128().unwrap();
        assert_eq!(scalar.read_bus("p"), expect);
        assert_eq!(timing.read_bus("p"), expect);
        let p_bus = netlist.bus("p").unwrap();
        let lane17 = |value: &dyn Fn(&sdlc::netlist::NetId) -> bool| -> u128 {
            p_bus
                .iter()
                .enumerate()
                .map(|(i, net)| u128::from(value(net)) << i)
                .sum()
        };
        assert_eq!(lane17(&|net| compiled.lane_value(*net, 17)), expect);
        assert_eq!(lane17(&|net| glitch.lane_value(*net, 17)), expect);
    }
    // Each word-wide engine counts 64 copies of its scalar twin's toggles.
    let times64 = |toggles: &[u64]| toggles.iter().map(|t| 64 * t).collect::<Vec<_>>();
    assert_eq!(compiled.toggles_per_net(), times64(scalar.toggles()));
    assert_eq!(glitch.toggles_per_net(), times64(timing.toggles()));
}

#[test]
fn wallace_and_dadda_give_identical_functions_different_structures() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let wallace = sdlc_multiplier(&model, ReductionScheme::Wallace);
    let dadda = sdlc_multiplier(&model, ReductionScheme::Dadda);
    assert_ne!(wallace.cell_count(), dadda.cell_count());
    for netlist in [&wallace, &dadda] {
        let reference = |a, b| model.multiply(a, b);
        check(netlist, 8, sampled(400, 3), reference, Engine::Scalar).unwrap();
    }
}

#[test]
fn accurate_reference_is_exact_for_every_scheme_at_4_bits() {
    for scheme in [
        ReductionScheme::RippleRows,
        ReductionScheme::Wallace,
        ReductionScheme::Dadda,
    ] {
        let netlist = accurate_multiplier(4, scheme).unwrap();
        check(&netlist, 4, Sweep::Exhaustive, exact, Engine::Scalar)
            .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
    }
}

#[test]
fn heterogeneous_depth_circuits_match_their_models() {
    for depths in [vec![4u32, 2, 2], vec![2, 2, 4], vec![6, 2], vec![2, 3, 3]] {
        let model = SdlcMultiplier::with_group_depths(8, &depths).unwrap();
        let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
        let reference = |a, b| model.multiply(a, b);
        check(&netlist, 8, Sweep::Exhaustive, reference, Engine::Compiled)
            .unwrap_or_else(|e| panic!("{depths:?}: {e}"));
    }
}

#[test]
fn carry_save_scheme_matches_models() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::CarrySaveArray);
    let reference = |a, b| model.multiply(a, b);
    check(&netlist, 8, Sweep::Exhaustive, reference, Engine::Compiled).unwrap();
    let accurate = accurate_multiplier(6, ReductionScheme::CarrySaveArray).unwrap();
    check(&accurate, 6, Sweep::Exhaustive, exact, Engine::Scalar).unwrap();
}

#[test]
fn verilog_export_covers_optimized_designs() {
    // The exporter must emit one primitive per logic cell and declare every
    // internal net, for every design family we generate.
    for netlist in [
        accurate_multiplier(8, ReductionScheme::Wallace).unwrap(),
        sdlc_multiplier(
            &SdlcMultiplier::new(8, 3).unwrap(),
            ReductionScheme::RippleRows,
        ),
        etm_multiplier(8, ReductionScheme::RippleRows).unwrap(),
        kulkarni_multiplier(8, ReductionScheme::RippleRows).unwrap(),
    ] {
        let mut optimized = netlist;
        passes::optimize(&mut optimized);
        let verilog = sdlc::netlist::to_verilog(&optimized);
        assert!(verilog.contains("module "), "{}", optimized.name());
        assert!(verilog.contains("input  [7:0] a;"));
        assert!(verilog.contains("output [15:0] p;"));
        let primitive_lines = verilog
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                ["and", "or ", "nand", "nor", "xor", "xnor", "not", "buf"]
                    .iter()
                    .any(|p| t.starts_with(p))
                    || t.starts_with("assign")
            })
            .count();
        assert!(
            primitive_lines >= optimized.cell_count(),
            "{}: {} lines vs {} cells",
            optimized.name(),
            primitive_lines,
            optimized.cell_count()
        );
    }
}
