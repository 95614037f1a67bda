//! Design-Compiler-style analysis flow.
//!
//! The paper synthesizes each multiplier with Synopsys Design Compiler on
//! Faraday's 90 nm library and reports dynamic power, leakage power, area,
//! delay and energy. This crate reproduces that *reporting flow* on our
//! own stack:
//!
//! 1. optimization passes from `sdlc-netlist` (constant sweep + DCE),
//! 2. [`sta`] — static timing analysis with the library's linear delay
//!    model,
//! 3. [`power`] — leakage from cell census; dynamic energy from
//!    switching-activity simulation (`sdlc-sim`),
//! 4. [`AnalysisReport`] — one record per design, plus [`Savings`]
//!    comparisons used by the Figure 6/7/9 benches.
//!
//! Absolute numbers are synthetic-library estimates. Both sides of every
//! comparison run the identical flow — same library, optimizer, delay
//! model and activity vectors — so a library's bias scales both designs
//! alike and largely cancels in the reported reductions; the reductions,
//! not the absolute fJ or µm², are what the paper's figures compare.

mod flow;
pub mod power;
pub mod sta;

pub use flow::{analyze, AnalysisOptions, AnalysisReport, Savings, REFERENCE_RATE_GHZ};
