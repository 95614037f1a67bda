//! Gate-level generator for the SDLC multiplier (and the truncated
//! baseline, which shares the dot-driven construction).
//!
//! The generator is driven directly by [`crate::matrix::ReducedMatrix`]:
//! every surviving bit of the remapped matrix becomes either a bare AND
//! (exact dot) or an OR tree over its cluster's ANDs (compressed bit), and
//! the matrix rows feed the accumulation stage unchanged. Using the same
//! structure for the functional model and the netlist makes the
//! equivalence between them structural rather than coincidental.

use sdlc_netlist::reduce::RowBits;
use sdlc_netlist::{NetId, Netlist};

use crate::baselines::TruncatedMultiplier;
use crate::circuits::ReductionScheme;
use crate::matrix::ReducedMatrix;
use crate::multiplier::Multiplier;
use crate::sdlc::SdlcMultiplier;

/// Generates the SDLC multiplier netlist for a configured model.
///
/// The circuit mirrors Figure 1(b): AND partial-product formation, OR
/// logic clusters, commutative remapping (free — it is wiring), then
/// accumulation.
///
/// # Examples
///
/// ```
/// use sdlc_core::circuits::{sdlc_multiplier, ReductionScheme};
/// use sdlc_core::SdlcMultiplier;
///
/// let model = SdlcMultiplier::new(8, 2)?;
/// let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
/// assert!(netlist.validate().is_ok());
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[must_use]
pub fn sdlc_multiplier(model: &SdlcMultiplier, scheme: ReductionScheme) -> Netlist {
    let width = model.width();
    let mut n = Netlist::new(format!("{}_{}", model.name(), scheme.tag()));
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    let matrix = ReducedMatrix::from_multiplier(model);
    let rows: Vec<RowBits> = matrix
        .rows()
        .iter()
        .map(|row| {
            let sparse: Vec<(u32, NetId)> = row
                .bits()
                .iter()
                .map(|(w, bit)| {
                    let dots: Vec<NetId> = bit
                        .dots()
                        .iter()
                        .map(|&(j, k)| n.and2(a[j as usize], b[k as usize]))
                        .collect();
                    (*w, n.or_tree(&dots))
                })
                .collect();
            RowBits::from_sparse(&mut n, &sparse)
        })
        .collect();
    let product = scheme.accumulate(&mut n, &rows, 2 * width as usize);
    n.set_output_bus("p", product);
    n
}

/// Generates the truncated-multiplier netlist: the surviving dots feed the
/// standard accumulation, dropped columns cost nothing.
#[must_use]
pub fn truncated_multiplier(model: &TruncatedMultiplier, scheme: ReductionScheme) -> Netlist {
    let width = model.width();
    let cutoff = model.dropped_columns();
    let mut n = Netlist::new(format!("{}_{}", model.name(), scheme.tag()));
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    let mut rows: Vec<RowBits> = Vec::new();
    for k in 0..width {
        let sparse: Vec<(u32, NetId)> = (0..width)
            .filter(|j| j + k >= cutoff)
            .map(|j| (j + k, n.and2(a[j as usize], b[k as usize])))
            .collect();
        if !sparse.is_empty() {
            rows.push(RowBits::from_sparse(&mut n, &sparse));
        }
    }
    let product = if rows.is_empty() {
        let zero = n.const0();
        vec![zero; 2 * width as usize]
    } else {
        scheme.accumulate(&mut n, &rows, 2 * width as usize)
    };
    n.set_output_bus("p", product);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterVariant;
    use sdlc_netlist::GateKind;
    use sdlc_sim::equiv::{check, Sweep};
    use sdlc_sim::Engine;
    use sdlc_wideint::U256;

    #[test]
    fn matches_functional_model_exhaustively_8bit() {
        for depth in [2u32, 3, 4] {
            let model = SdlcMultiplier::new(8, depth).unwrap();
            let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
            n.validate().unwrap();
            let reference = |a, b| model.multiply(a, b);
            check(&n, 8, Sweep::Exhaustive, reference, Engine::Compiled)
                .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
        }
    }

    #[test]
    fn matches_functional_model_exhaustively_10bit() {
        // The compiled word-parallel engine makes the 2^20-pair sweep
        // routine (the scalar cap used to be 8 bits).
        let model = SdlcMultiplier::new(10, 2).unwrap();
        let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
        let reference = |a, b| U256::from_u128(model.multiply_u64(a as u64, b as u64));
        check(&n, 10, Sweep::Exhaustive, reference, Engine::Compiled).unwrap();
    }

    #[test]
    fn matches_functional_model_across_schemes() {
        let model = SdlcMultiplier::new(6, 2).unwrap();
        for scheme in [
            ReductionScheme::RippleRows,
            ReductionScheme::Wallace,
            ReductionScheme::Dadda,
        ] {
            let n = sdlc_multiplier(&model, scheme);
            let reference = |a, b| model.multiply(a, b);
            check(&n, 6, Sweep::Exhaustive, reference, Engine::Scalar)
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        }
    }

    #[test]
    fn matches_functional_model_sampled_16bit() {
        let model = SdlcMultiplier::new(16, 2).unwrap();
        let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
        let reference = |a, b| model.multiply(a, b);
        let sweep = Sweep::Sampled {
            samples: 400,
            seed: 11,
        };
        check(&n, 16, sweep, reference, Engine::Scalar).unwrap();
    }

    #[test]
    fn fullor_variant_matches_too() {
        let model = SdlcMultiplier::with_variant(8, 3, ClusterVariant::FullOr).unwrap();
        let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
        let reference = |a, b| model.multiply(a, b);
        check(&n, 8, Sweep::Exhaustive, reference, Engine::Scalar).unwrap();
    }

    #[test]
    fn uses_same_and_count_as_accurate_but_fewer_adders() {
        // Section II: "the proposed approach begins by generating all
        // partial products using the same number of AND gates".
        let model = SdlcMultiplier::new(8, 2).unwrap();
        let approx = sdlc_multiplier(&model, ReductionScheme::RippleRows);
        let exact = crate::circuits::accurate_multiplier(8, ReductionScheme::RippleRows).unwrap();
        let pp_ands = 64;
        assert!(approx.gate_count(GateKind::And2) >= pp_ands);
        // OR gates: 22 cluster ORs (Figure 2) plus one per full adder.
        assert!(approx.gate_count(GateKind::Or2) >= 22);
        // The accumulation tree shrinks: fewer XORs (adder sum chains).
        assert!(
            approx.gate_count(GateKind::Xor2) < exact.gate_count(GateKind::Xor2),
            "approx {} vs exact {}",
            approx.gate_count(GateKind::Xor2),
            exact.gate_count(GateKind::Xor2)
        );
        assert!(approx.cell_count() < exact.cell_count());
    }

    #[test]
    fn truncated_matches_model() {
        let model = TruncatedMultiplier::new(8, 6).unwrap();
        let n = truncated_multiplier(&model, ReductionScheme::RippleRows);
        n.validate().unwrap();
        let reference = |a, b| model.multiply(a, b);
        check(&n, 8, Sweep::Exhaustive, reference, Engine::Scalar).unwrap();
    }

    #[test]
    fn truncated_with_no_drop_is_exact() {
        let model = TruncatedMultiplier::new(4, 0).unwrap();
        let n = truncated_multiplier(&model, ReductionScheme::Wallace);
        let reference = |a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b));
        check(&n, 4, Sweep::Exhaustive, reference, Engine::Scalar).unwrap();
    }
}
