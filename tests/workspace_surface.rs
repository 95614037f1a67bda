//! Tests of the workspace surface itself: the `sdlc` facade must
//! re-export every member crate under a stable path, and the core
//! one-sided-error contract must hold through the facade.

use sdlc::core::error::exhaustive;
use sdlc::core::{AccurateMultiplier, Multiplier, SdlcMultiplier};
use sdlc::wideint::SplitMix64;

/// Every facade module resolves and exposes its headline types.
#[test]
fn facade_reexports_resolve() {
    let _: sdlc::core::SdlcMultiplier = SdlcMultiplier::new(8, 2).unwrap();
    let _: sdlc::netlist::Netlist = sdlc::netlist::Netlist::new("surface");
    let _: sdlc::techlib::Library = sdlc::techlib::Library::generic_90nm();
    let model = SdlcMultiplier::new(4, 2).unwrap();
    let netlist = sdlc::core::circuits::sdlc_multiplier(
        &model,
        sdlc::core::circuits::ReductionScheme::RippleRows,
    );
    let _: sdlc::sim::LogicSim = sdlc::sim::LogicSim::new(&netlist);
    let _: sdlc::synth::AnalysisOptions = sdlc::synth::AnalysisOptions::default();
    let _: sdlc::imgproc::GrayImage = sdlc::imgproc::GrayImage::new(4, 4);
    let _: sdlc::wideint::U256 = sdlc::wideint::U256::from_u64(1);
}

/// The signed subsystem's headline types resolve through the facade at
/// every layer: wideint, core (word-level + batch + error + circuits),
/// netlist, sim and imgproc.
#[test]
fn signed_facade_reexports_resolve() {
    use sdlc::core::{SignMagnitude, SignedMultiplier};

    let _: sdlc::wideint::I256 = sdlc::wideint::I256::from_i128(-1);
    let signed = SignMagnitude::new(SdlcMultiplier::new(8, 2).unwrap());
    assert_eq!(signed.name(), "signed_sdlc8_d2");
    let _: sdlc::core::batch::BatchSignMagnitude<_> = signed.batch_model();
    let metrics = sdlc::core::error::evaluate_signed(
        &signed,
        sdlc::core::error::Coverage::Exhaustive,
        sdlc::core::error::Engine::Scalar,
        2,
    )
    .unwrap();
    assert!(metrics.signed);
    let netlist = sdlc::core::circuits::signed_sdlc_multiplier(
        signed.inner(),
        sdlc::core::circuits::ReductionScheme::RippleRows,
    );
    sdlc::sim::equiv::check_signed(
        &netlist,
        8,
        sdlc::sim::equiv::Sweep::Sampled {
            samples: 50,
            seed: 1,
        },
        |a, b| signed.multiply_signed(a, b),
        sdlc::sim::Engine::Scalar,
    )
    .unwrap();
    let image = sdlc::imgproc::scenes::bars(16, 16);
    let _: sdlc::imgproc::GrayImage = sdlc::imgproc::sobel_magnitude(
        &image,
        &SignMagnitude::new(AccurateMultiplier::new(16).unwrap()),
    );
}

/// The deep re-export path named in the crate docs keeps working.
#[test]
fn error_exhaustive_path_resolves() {
    let model = SdlcMultiplier::new(4, 2).unwrap();
    let metrics = exhaustive(&model).unwrap();
    assert!(metrics.mred > 0.0 && metrics.mred < 0.1);
}

/// OR-compression never overestimates: a 10k-pair SplitMix64 sweep at
/// each paper width, checked against the accurate reference.
#[test]
fn sdlc_bounded_by_exact_product_over_sweep() {
    for width in [8u32, 12, 16] {
        let approx = SdlcMultiplier::new(width, 2).unwrap();
        let exact = AccurateMultiplier::new(width).unwrap();
        let mut rng = SplitMix64::new(u64::from(width) | 0x5D1C_0000);
        for _ in 0..10_000 {
            let a = rng.next_bits(width);
            let b = rng.next_bits(width);
            let p_approx = approx.multiply_u64(a, b);
            let p_exact = exact.multiply_u64(a, b);
            assert_eq!(p_exact, u128::from(a) * u128::from(b));
            assert!(
                p_approx <= p_exact,
                "SDLC overestimated at width {width}: {a} * {b} -> {p_approx} > {p_exact}"
            );
        }
    }
}
