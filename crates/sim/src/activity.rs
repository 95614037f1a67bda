//! Switching-activity capture over seeded random stimulus.
//!
//! Dynamic power estimation needs per-net toggle statistics under a
//! representative workload. [`random_activity`] drives a netlist with a
//! deterministic uniform stream (the paper's setting: operands drawn
//! uniformly, as in its exhaustive error analysis) through the compiled
//! zero-delay 64-lane engine, whose toggle totals equal those of 64
//! scalar [`LogicSim`](crate::LogicSim) streams, one per lane;
//! [`timing_activity`] does the same through the event-driven engine to
//! include glitch power, and [`timing_activity_with_engine`] selects
//! between that scalar reference and [`glitch_activity`], the compiled
//! word-parallel glitch backend (64 lane streams per sweep, identical
//! inertial-delay transition accounting) that the synthesis flow uses by
//! default.

use sdlc_netlist::Netlist;
use sdlc_techlib::Library;
use sdlc_wideint::parallel::parallel_shard_chunks;
use sdlc_wideint::SplitMix64;

use crate::compile::{CompiledNetlist, CompiledSim};
use crate::glitch::{GlitchSim, TimedProgram};
use crate::logic::ab_stimulus;
use crate::timing::TimingSim;
use crate::Engine;

/// Per-net switching activity of one stimulus run.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Toggle count per net (indexed by `NetId::index`).
    pub toggles_per_net: Vec<u64>,
    /// Number of input-vector *transitions* the counts cover.
    pub transition_count: u64,
    /// Whether glitches are included (event-driven engine).
    pub includes_glitches: bool,
}

impl Activity {
    /// Total toggles across all nets.
    #[must_use]
    pub fn total_toggles(&self) -> u64 {
        self.toggles_per_net.iter().sum()
    }

    /// Mean toggles per net per applied transition.
    #[must_use]
    pub fn mean_activity(&self) -> f64 {
        if self.transition_count == 0 || self.toggles_per_net.is_empty() {
            return 0.0;
        }
        self.total_toggles() as f64
            / (self.transition_count as f64 * self.toggles_per_net.len() as f64)
    }
}

/// Runs `vectors` uniformly random input vectors (rounded up to a multiple
/// of 64) through the compiled zero-delay engine — the fast path the
/// `sdlc-synth` power flow rides.
///
/// Word `k` of the stimulus holds one SplitMix64 draw from `seed` per
/// primary input, in input order, and lane `l` of every word is vector
/// stream `l`; the first word establishes state. The per-net totals equal
/// those of 64 [`LogicSim`](crate::LogicSim) streams fed lane by lane, so
/// the result is deterministic in `(netlist, seed, vectors)`.
///
/// # Panics
///
/// Panics if `vectors == 0`.
#[must_use]
pub fn random_activity(netlist: &Netlist, seed: u64, vectors: u64) -> Activity {
    assert!(vectors > 0, "need at least one vector");
    let words = vectors.div_ceil(64) + 1; // +1: first word establishes state
    let mut rng = SplitMix64::new(seed);
    let mut stimulus = vec![0u64; netlist.inputs().len()];
    let program = CompiledNetlist::compile(netlist);
    let mut sim = CompiledSim::new(&program);
    for _ in 0..words {
        for word in &mut stimulus {
            *word = rng.next_u64();
        }
        sim.apply(&stimulus);
    }
    Activity {
        toggles_per_net: sim.toggles_per_net(),
        transition_count: sim.transition_vectors(),
        includes_glitches: false,
    }
}

/// Runs `vectors` random operand pairs through the event-driven timing
/// engine (glitches included). Requires the `a`/`b`/`p` port convention.
///
/// The stimulus stream is split into 16 fixed shards simulated on worker
/// threads (each shard settles on its own first pair, uncounted), so
/// results are deterministic in `(netlist, seed, vectors)` and
/// independent of the machine's core count.
///
/// # Panics
///
/// Panics if `vectors == 0` or the netlist lacks `a`/`b` buses.
#[must_use]
pub fn timing_activity(netlist: &Netlist, library: &Library, seed: u64, vectors: u64) -> Activity {
    assert!(vectors > 0, "need at least one vector");
    let bus_a = netlist.bus("a").expect("input bus `a`").len() as u32;
    let bus_b = netlist.bus("b").expect("input bus `b`").len() as u32;
    const SHARDS: u64 = 16;
    let shards = SHARDS.min(vectors);
    let per_shard = vectors.div_ceil(shards);
    let draw = |bits: u32, rng: &mut SplitMix64| -> u128 {
        if bits <= 64 {
            u128::from(rng.next_bits(bits))
        } else {
            (u128::from(rng.next_bits(bits - 64)) << 64) | u128::from(rng.next_u64())
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shard_ids: Vec<u64> = (0..shards).collect();
    let chunk = shard_ids.len().div_ceil(threads).max(1);
    let mut totals = vec![0u64; netlist.net_count()];
    let mut counted = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_ids
            .chunks(chunk)
            .map(|ids| {
                scope.spawn(move || {
                    let mut toggles = vec![0u64; netlist.net_count()];
                    let mut counted = 0u64;
                    for &shard in ids {
                        let begin = shard * per_shard;
                        let end = (begin + per_shard).min(vectors);
                        if begin >= end {
                            continue;
                        }
                        let mut rng =
                            SplitMix64::new(seed ^ shard.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                        let mut sim = TimingSim::new(netlist, library);
                        let a0 = draw(bus_a, &mut rng);
                        let b0 = draw(bus_b, &mut rng);
                        sim.settle(&ab_stimulus(netlist, a0, b0));
                        for _ in begin..end {
                            let a = draw(bus_a, &mut rng);
                            let b = draw(bus_b, &mut rng);
                            let _ = sim.apply(&ab_stimulus(netlist, a, b));
                        }
                        counted += end - begin;
                        for (total, &t) in toggles.iter_mut().zip(sim.toggles()) {
                            *total += t;
                        }
                    }
                    (toggles, counted)
                })
            })
            .collect();
        for handle in handles {
            let (toggles, n) = handle.join().expect("worker panicked");
            for (total, t) in totals.iter_mut().zip(toggles) {
                *total += t;
            }
            counted += n;
        }
    });
    Activity {
        toggles_per_net: totals,
        transition_count: counted,
        includes_glitches: true,
    }
}

/// [`timing_activity`] dispatched on an [`Engine`]: [`Engine::Scalar`] is
/// the event-driven [`TimingSim`] reference above; [`Engine::Compiled`]
/// runs the word-parallel [`GlitchSim`] backend — the default the
/// `sdlc-synth` glitch-power flow rides.
///
/// Both engines count transitions with identical inertial-delay semantics
/// (the differential suite proves per-net totals match exactly for
/// identical streams), but they organize their stimulus differently —
/// 16 sequential scalar shards versus [`GLITCH_GROUPS`] × 64 compiled
/// lane streams — so the two estimates differ by sampling variation, not
/// by model. Each engine is deterministic in `(netlist, seed, vectors)`
/// and independent of the machine's core count.
///
/// # Panics
///
/// Panics if `vectors == 0` or the netlist lacks `a`/`b` buses.
#[must_use]
pub fn timing_activity_with_engine(
    netlist: &Netlist,
    library: &Library,
    seed: u64,
    vectors: u64,
    engine: Engine,
) -> Activity {
    match engine {
        Engine::Scalar => timing_activity(netlist, library, seed, vectors),
        Engine::Compiled => glitch_activity(netlist, library, seed, vectors),
    }
}

/// Fixed stream-group count of the compiled glitch backend: the stimulus
/// is organized as up to 8 groups of 64 lane streams, so results never
/// depend on the machine's core count (groups are what the workers split).
pub const GLITCH_GROUPS: u64 = 8;

/// Runs `vectors` random operand pairs (rounded up to fill whole 64-lane
/// words) through the compiled glitch engine. Requires the `a`/`b`/`p`
/// port convention, like [`timing_activity`].
///
/// # Panics
///
/// Panics if `vectors == 0` or the netlist lacks `a`/`b` buses.
#[must_use]
pub fn glitch_activity(netlist: &Netlist, library: &Library, seed: u64, vectors: u64) -> Activity {
    assert!(vectors > 0, "need at least one vector");
    let bus_a = netlist.bus("a").expect("input bus `a`");
    let bus_b = netlist.bus("b").expect("input bus `b`");
    // Map each primary input to its operand bus and bit position once.
    let input_src: Vec<(bool, u32)> = netlist
        .inputs()
        .iter()
        .map(|&input| {
            if let Some(j) = bus_a.iter().position(|&n| n == input) {
                (false, j as u32)
            } else {
                let j = bus_b
                    .iter()
                    .position(|&n| n == input)
                    .expect("net in a bus");
                (true, j as u32)
            }
        })
        .collect();
    let (wa, wb) = (bus_a.len() as u32, bus_b.len() as u32);
    let program = TimedProgram::compile(netlist, library);
    let groups = GLITCH_GROUPS.min(vectors.div_ceil(64)).max(1);
    // Counted words per group; each carries 64 lane transitions.
    let words = vectors.div_ceil(groups * 64);
    let draw = |bits: u32, rng: &mut SplitMix64| -> u128 {
        if bits <= 64 {
            u128::from(rng.next_bits(bits))
        } else {
            (u128::from(rng.next_bits(bits - 64)) << 64) | u128::from(rng.next_u64())
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let group_ids: Vec<u64> = (0..groups).collect();
    let partials = parallel_shard_chunks(&group_ids, threads, |ids| {
        let mut toggles = vec![0u64; netlist.net_count()];
        for &group in ids {
            let mut rngs: Vec<SplitMix64> = (0..64)
                .map(|lane| {
                    SplitMix64::new(seed ^ (group * 64 + lane).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                })
                .collect();
            let mut stimulus = vec![0u64; netlist.inputs().len()];
            let mut draw_word = |stimulus: &mut [u64]| {
                stimulus.fill(0);
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    let a = draw(wa, rng);
                    let b = draw(wb, rng);
                    for (word, &(is_b, bit)) in stimulus.iter_mut().zip(&input_src) {
                        let operand = if is_b { b } else { a };
                        *word |= (((operand >> bit) & 1) as u64) << lane;
                    }
                }
            };
            let mut sim = GlitchSim::new(&program);
            draw_word(&mut stimulus);
            sim.settle(&stimulus); // establishes state, uncounted
            for _ in 0..words {
                draw_word(&mut stimulus);
                let _ = sim.apply(&stimulus);
            }
            for (total, t) in toggles.iter_mut().zip(sim.toggles_per_net()) {
                *total += t;
            }
        }
        toggles
    });
    let mut totals = vec![0u64; netlist.net_count()];
    for partial in partials {
        for (total, t) in totals.iter_mut().zip(partial) {
            *total += t;
        }
    }
    Activity {
        toggles_per_net: totals,
        transition_count: groups * words * 64,
        includes_glitches: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::adders::ripple_add;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn engines_produce_identical_activity() {
        let n = adder(8);
        let activity = random_activity(&n, 42, 256);
        // The same stream, lane by lane through the scalar reference.
        let mut rng = SplitMix64::new(42);
        let words: Vec<Vec<u64>> = (0..5)
            .map(|_| n.inputs().iter().map(|_| rng.next_u64()).collect())
            .collect();
        let (_, toggles) = crate::logic::lanewise_reference(&n, &words);
        assert_eq!(activity.toggles_per_net, toggles);
        assert_eq!(activity.transition_count, 256);
    }

    #[test]
    fn random_activity_is_deterministic() {
        let n = adder(8);
        let a1 = random_activity(&n, 42, 256);
        let a2 = random_activity(&n, 42, 256);
        assert_eq!(a1, a2);
        let a3 = random_activity(&n, 43, 256);
        assert_ne!(a1.toggles_per_net, a3.toggles_per_net);
    }

    #[test]
    fn uniform_inputs_toggle_about_half_the_time() {
        let n = adder(8);
        let activity = random_activity(&n, 7, 6400);
        let inputs = n.inputs();
        for &input in inputs {
            let rate =
                activity.toggles_per_net[input.index()] as f64 / activity.transition_count as f64;
            assert!((0.42..0.58).contains(&rate), "input toggle rate {rate}");
        }
        assert!(activity.mean_activity() > 0.1);
        assert!(!activity.includes_glitches);
    }

    #[test]
    fn timing_activity_includes_glitches() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let zero_delay = random_activity(&n, 11, 512);
        let timed = timing_activity(&n, &lib, 11, 512);
        assert!(timed.includes_glitches);
        // Same per-transition scale: compare mean activity; glitching can
        // only add transitions.
        assert!(timed.mean_activity() >= zero_delay.mean_activity() * 0.9);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn zero_vectors_rejected() {
        let n = adder(4);
        let _ = random_activity(&n, 1, 0);
    }

    #[test]
    fn glitch_activity_is_deterministic_and_glitchy() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let a1 = timing_activity_with_engine(&n, &lib, 21, 512, Engine::Compiled);
        let a2 = glitch_activity(&n, &lib, 21, 512);
        assert_eq!(a1, a2);
        assert!(a1.includes_glitches);
        assert_eq!(a1.transition_count, 512);
        let other_seed = glitch_activity(&n, &lib, 22, 512);
        assert_ne!(a1.toggles_per_net, other_seed.toggles_per_net);
        // Glitching can only add transitions on top of the zero-delay
        // estimate (same uniform stimulus model, independent streams).
        let zero_delay = random_activity(&n, 21, 512);
        assert!(a1.mean_activity() >= zero_delay.mean_activity() * 0.9);
        // Both timing engines see the same per-transition scale.
        let scalar = timing_activity_with_engine(&n, &lib, 21, 512, Engine::Scalar);
        let rel = (a1.mean_activity() - scalar.mean_activity()).abs() / scalar.mean_activity();
        assert!(rel < 0.15, "engines diverge: {rel}");
        // Tiny runs (fewer vectors than one 64-lane word) still work.
        let tiny = glitch_activity(&n, &lib, 5, 3);
        assert_eq!(tiny.transition_count, 64);
    }

    #[test]
    fn timing_activity_is_deterministic_and_counts_all_vectors() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let a1 = timing_activity(&n, &lib, 3, 100);
        let a2 = timing_activity(&n, &lib, 3, 100);
        assert_eq!(a1, a2);
        assert!(a1.transition_count >= 100);
        let other_seed = timing_activity(&n, &lib, 4, 100);
        assert_ne!(a1.toggles_per_net, other_seed.toggles_per_net);
        // Tiny runs (fewer vectors than shards) still work.
        let tiny = timing_activity(&n, &lib, 5, 3);
        assert_eq!(tiny.transition_count, 3);
    }
}
