//! Table III — error metrics vs cluster depth for the 8×8 SDLC multiplier
//! (exhaustive over all 2¹⁶ operand pairs).

use sdlc_bench::{banner, timed, vs};
use sdlc_core::error::exhaustive;
use sdlc_core::SdlcMultiplier;

/// (depth, MRED %, NMED, ER %, MaxRED %) from the paper's Table III.
const PAPER: &[(u32, f64, f64, f64, f64)] = &[
    (2, 1.9883, 0.0035, 49.11, 33.2),
    (3, 4.6847, 0.0101, 65.73, 42.69),
    (4, 10.5836, 0.0327, 77.57, 46.48),
];

fn main() {
    banner(
        "Table III: error vs cluster depth (8-bit SDLC)",
        "Qiqieh et al., DATE'17, Table III",
    );
    for &(depth, p_mred, p_nmed, p_er, p_maxred) in PAPER {
        let model = SdlcMultiplier::new(8, depth).expect("valid spec");
        let metrics = timed(&format!("depth {depth}"), || {
            exhaustive(&model).expect("8-bit is exhaustive")
        });
        println!(
            "{}-row clusters → {} reduced rows",
            depth,
            model.reduced_rows()
        );
        println!("  MRED%    {}", vs(metrics.mred * 100.0, p_mred));
        println!("  NMED     {}", vs(metrics.nmed, p_nmed));
        println!("  ER%      {}", vs(metrics.error_rate * 100.0, p_er));
        println!("  MaxRED%  {}", vs(metrics.max_red * 100.0, p_maxred));
    }
    println!();
    println!(
        "the depth 3/4 rows validate the recovered greedy staircase-packing \
         generalization of Algorithm 1 (ClusterVariant::Progressive: scan \
         columns from the most significant down and close a cluster wherever \
         a column overflows the reduced matrix's rows)."
    );
}
