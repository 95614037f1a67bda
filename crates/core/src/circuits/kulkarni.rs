//! Gate-level generator for the Kulkarni underdesigned multiplier.

use sdlc_netlist::reduce::RowBits;
use sdlc_netlist::{NetId, Netlist};

use crate::circuits::ReductionScheme;
use crate::multiplier::SpecError;

/// Generates the Kulkarni multiplier netlist in its paper's array form:
/// an `(N/2)²` grid of 5-gate inaccurate 2×2 blocks whose 3-bit outputs
/// are accumulated like partial-product rows — the block outputs of digit
/// row `j` form one dense row (`o0`/`o1` bits) plus one sparse carry row
/// (`o2` bits), accumulated with the common `scheme`.
///
/// The functional result equals the recursive shift-add definition because
/// all merging additions are exact:
/// `P = Σᵢⱼ block(aᵢ, bⱼ)·4^{i+j}`.
///
/// # Errors
///
/// Returns [`SpecError`] unless the width is a power of two in `2..=128`.
pub fn kulkarni_multiplier(width: u32, scheme: ReductionScheme) -> Result<Netlist, SpecError> {
    if !(2..=128).contains(&width) || !width.is_power_of_two() {
        return Err(SpecError::Width {
            width,
            requirement: "must be a power of two in 2..=128 (2×2 block tiling)",
        });
    }
    let mut n = Netlist::new(format!("kulkarni{width}_{}", scheme.tag()));
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    let digits = (width / 2) as usize;
    let mut rows: Vec<RowBits> = Vec::with_capacity(2 * digits);
    for j in 0..digits {
        let mut main_bits: Vec<NetId> = Vec::with_capacity(2 * digits);
        let mut carry_bits: Vec<(u32, NetId)> = Vec::with_capacity(digits);
        for i in 0..digits {
            let [o0, o1, o2] = block2(&mut n, &a[2 * i..2 * i + 2], &b[2 * j..2 * j + 2]);
            main_bits.push(o0);
            main_bits.push(o1);
            carry_bits.push((2 * (i + j) as u32 + 2, o2));
        }
        rows.push(RowBits {
            offset: 2 * j,
            bits: main_bits,
        });
        rows.push(RowBits::from_sparse(&mut n, &carry_bits));
    }
    let product = scheme.accumulate(&mut n, &rows, 2 * width as usize);
    n.set_output_bus("p", product);
    Ok(n)
}

/// The 2×2 underdesigned block: `{a1·b1, a1·b0 + a0·b1, a0·b0}` (3 bits).
fn block2(n: &mut Netlist, a: &[NetId], b: &[NetId]) -> [NetId; 3] {
    let o0 = n.and2(a[0], b[0]);
    let x = n.and2(a[1], b[0]);
    let y = n.and2(a[0], b[1]);
    let o1 = n.or2(x, y);
    let o2 = n.and2(a[1], b[1]);
    [o0, o1, o2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::KulkarniMultiplier;
    use crate::Multiplier;
    use sdlc_sim::equiv::{check, Sweep};
    use sdlc_sim::Engine;

    #[test]
    fn matches_functional_model_exhaustively() {
        for width in [2u32, 4, 8] {
            let model = KulkarniMultiplier::new(width).unwrap();
            let n = kulkarni_multiplier(width, ReductionScheme::RippleRows).unwrap();
            n.validate().unwrap();
            let reference = |a, b| model.multiply(a, b);
            check(&n, width, Sweep::Exhaustive, reference, Engine::Scalar)
                .unwrap_or_else(|e| panic!("width {width}: {e}"));
        }
    }

    #[test]
    fn matches_functional_model_sampled_16bit() {
        let model = KulkarniMultiplier::new(16).unwrap();
        let n = kulkarni_multiplier(16, ReductionScheme::RippleRows).unwrap();
        let reference = |a, b| model.multiply(a, b);
        let sweep = Sweep::Sampled {
            samples: 500,
            seed: 17,
        };
        check(&n, 16, sweep, reference, Engine::Scalar).unwrap();
    }

    #[test]
    fn block_is_five_gates() {
        use sdlc_netlist::GateKind;
        let n = kulkarni_multiplier(2, ReductionScheme::RippleRows).unwrap();
        // 4 AND + 1 OR per block; tie cells pad the carry row's gaps and
        // the unused product MSB (swept by the optimizer in the flow).
        assert_eq!(n.gate_count(GateKind::And2), 4);
        assert_eq!(n.gate_count(GateKind::Or2), 1);
        assert_eq!(n.gate_count(GateKind::Xor2), 0, "no adders at 2 bits");
    }

    #[test]
    fn array_form_uses_fewer_cells_than_accurate() {
        use sdlc_netlist::passes;
        for width in [8u32, 16] {
            let mut kulkarni = kulkarni_multiplier(width, ReductionScheme::RippleRows).unwrap();
            let mut accurate =
                crate::circuits::accurate_multiplier(width, ReductionScheme::RippleRows).unwrap();
            passes::optimize(&mut kulkarni);
            passes::optimize(&mut accurate);
            assert!(
                kulkarni.cell_count() < accurate.cell_count(),
                "{width}-bit: {} vs {}",
                kulkarni.cell_count(),
                accurate.cell_count()
            );
        }
    }

    #[test]
    fn rejects_bad_widths() {
        assert!(kulkarni_multiplier(6, ReductionScheme::RippleRows).is_err());
        assert!(kulkarni_multiplier(0, ReductionScheme::RippleRows).is_err());
    }
}
