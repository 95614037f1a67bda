//! The conventional accurate array multiplier (the paper's baseline).

use sdlc_netlist::reduce::RowBits;
use sdlc_netlist::Netlist;

use crate::circuits::ReductionScheme;
use crate::multiplier::{check_width, SpecError};

/// Generates the accurate N×N multiplier: N² AND partial products
/// accumulated with the chosen scheme (Figure 1(a) of the paper).
///
/// # Errors
///
/// Returns [`SpecError`] for invalid widths.
///
/// # Examples
///
/// ```
/// use sdlc_core::circuits::{accurate_multiplier, ReductionScheme};
///
/// let n = accurate_multiplier(8, ReductionScheme::RippleRows)?;
/// assert_eq!(n.bus("p").unwrap().len(), 16);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
pub fn accurate_multiplier(width: u32, scheme: ReductionScheme) -> Result<Netlist, SpecError> {
    let width = check_width(width)?;
    let mut n = Netlist::new(format!("accurate{width}_{}", scheme.tag()));
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
    let product = scheme.accumulate(&mut n, &rows, 2 * width as usize);
    n.set_output_bus("p", product);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::GateKind;
    use sdlc_sim::equiv::{check, Sweep};
    use sdlc_sim::Engine;
    use sdlc_wideint::U256;

    fn exact(a: u128, b: u128) -> U256 {
        U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
    }

    #[test]
    fn exhaustive_equivalence_small_widths() {
        for width in [2u32, 4, 6] {
            for scheme in [
                ReductionScheme::RippleRows,
                ReductionScheme::Wallace,
                ReductionScheme::Dadda,
            ] {
                let n = accurate_multiplier(width, scheme).unwrap();
                n.validate().unwrap();
                check(&n, width, Sweep::Exhaustive, exact, Engine::Scalar)
                    .unwrap_or_else(|e| panic!("{width}-bit {scheme:?}: {e}"));
            }
        }
    }

    #[test]
    fn sampled_equivalence_16bit() {
        for scheme in [
            ReductionScheme::RippleRows,
            ReductionScheme::Wallace,
            ReductionScheme::Dadda,
        ] {
            let n = accurate_multiplier(16, scheme).unwrap();
            let sweep = Sweep::Sampled {
                samples: 400,
                seed: 5,
            };
            check(&n, 16, sweep, exact, Engine::Scalar).unwrap();
        }
    }

    #[test]
    fn gate_budget_and_ports() {
        let n = accurate_multiplier(8, ReductionScheme::RippleRows).unwrap();
        // 64 partial-product ANDs plus 2 per full adder and 1 per half
        // adder in the accumulation stage.
        assert!(n.gate_count(GateKind::And2) >= 64);
        assert!(n.gate_count(GateKind::Xor2) > 0);
        assert!(n.cell_count() > 64);
        assert_eq!(n.bus("a").unwrap().len(), 8);
        assert_eq!(n.bus("p").unwrap().len(), 16);
    }

    #[test]
    fn width_validation() {
        assert!(accurate_multiplier(7, ReductionScheme::RippleRows).is_err());
        assert!(accurate_multiplier(0, ReductionScheme::Wallace).is_err());
    }

    #[test]
    fn names_encode_scheme() {
        let n = accurate_multiplier(8, ReductionScheme::Dadda).unwrap();
        assert_eq!(n.name(), "accurate8_dadda");
    }
}
