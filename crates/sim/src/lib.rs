//! Gate-level logic simulation (the reproduction's stand-in for QuestaSim).
//!
//! Four engines share the netlist IR:
//!
//! * [`LogicSim`] — scalar levelized zero-delay simulation with per-net
//!   toggle counting; the reference engine every faster path is checked
//!   against (64 `LogicSim` streams, one per lane, for the word-parallel
//!   engines).
//! * [`CompiledNetlist`]/[`CompiledSim`] — the netlist flattened once into
//!   a dense struct-of-arrays program (constants folded, buffer chains
//!   chased, ports pre-mapped) whose executor evaluates 64 vectors per
//!   sweep without re-walking the `Netlist`; the fast path for
//!   switching-activity estimation. The same interpreter body, generic
//!   over the words per slot, settles 512 vectors (8 words) per op
//!   dispatch in the equivalence sweeps.
//! * [`TimingSim`] — event-driven simulation with per-gate load-dependent
//!   delays from `sdlc-techlib`; observes *glitches* (spurious transitions
//!   inside a cycle) that zero-delay simulation cannot, and reports settle
//!   times that cross-check static timing analysis.
//! * [`TimedProgram`]/[`GlitchSim`] — the compiled timing twin: 64
//!   independent stimulus streams as one topological waveform pass per
//!   word (each net's transitions a time-sorted list of 64-lane masks,
//!   each op merging its fan-in lists in program order), an exact
//!   per-lane emulation of [`TimingSim`]'s inertial-delay transition
//!   accounting (same delays, same quantization, same event order) at a
//!   fraction of the cost.
//!
//! [`activity`] drives the compiled zero-delay engine over seeded random
//! vector streams and aggregates per-net toggle statistics for the power
//! model in `sdlc-synth` (and the glitch-aware equivalents through the
//! timing engines); [`equiv`] checks netlists against functional models,
//! with an [`Engine`] selector between the scalar reference and the
//! compiled 512-lane, multi-threaded sweep (model side optionally batched
//! 64 pairs per call via [`equiv::Model::block`]).

pub mod activity;
mod compile;
pub mod equiv;
mod glitch;
mod logic;
mod timing;

pub use compile::{CompiledNetlist, CompiledSim};
pub use equiv::Engine;
pub use glitch::{GlitchSim, TimedProgram};
pub use logic::{ab_stimulus, LogicSim};
pub use timing::{ApplyResult, TimingSim};
