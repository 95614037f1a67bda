//! Differential proof that the compiled gate-sim engine is a bit-exact
//! twin of the scalar `LogicSim` reference: identical values on every net
//! in every lane, identical per-net toggle totals, identical equivalence
//! verdicts — including the *same first* counterexample when a bug is
//! planted.

mod common;

use common::lanewise_reference;
use proptest::prelude::*;
use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, sdlc_multiplier, signed_multiplier,
    truncated_multiplier, ReductionScheme,
};
use sdlc::core::{Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier};
use sdlc::netlist::Netlist;
use sdlc::sim::activity::random_activity;
use sdlc::sim::equiv::{check, check_signed, Batched, Sweep};
use sdlc::sim::{CompiledNetlist, CompiledSim, Engine};
use sdlc::wideint::{SplitMix64, I256, U256};

/// Builds a random feed-forward gate DAG: `inputs` primary inputs, then
/// `ops` gates whose kinds and source nets are decoded from the seeds.
/// Deliberately includes buffers, constants and muxes so compile-time
/// folding is exercised, not just the arithmetic cells.
fn random_dag(inputs: u32, ops: &[(u8, u32, u32, u32)]) -> Netlist {
    let mut n = Netlist::new("dag");
    let mut nets = n.add_input_bus("a", inputs);
    for &(kind, s0, s1, s2) in ops {
        let pick = |s: u32| nets[s as usize % nets.len()];
        let (a, b, c) = (pick(s0), pick(s1), pick(s2));
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

proptest! {
    /// On random gate DAGs, the compiled program and 64 lane-wise
    /// `LogicSim` streams agree on every net's value in every lane, and
    /// on every net's toggle count — across a multi-word stimulus stream.
    #[test]
    fn compiled_matches_structural_on_random_dags(
        inputs in 1u32..7,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..48),
        seed in any::<u64>(),
    ) {
        let n = random_dag(inputs, &ops);
        n.validate().unwrap();
        let program = CompiledNetlist::compile(&n);
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

fn sampled(samples: u64, seed: u64) -> Sweep {
    Sweep::Sampled { samples, seed }
}

/// `random_activity` over `vectors` vectors from `seed` equals the
/// toggles of its stimulus stream fed lane by lane through `LogicSim`.
fn assert_activity_matches_reference(netlist: &Netlist, seed: u64, vectors: u64) {
    let activity = random_activity(netlist, seed, vectors);
    let mut rng = SplitMix64::new(seed);
    let words: Vec<Vec<u64>> = (0..=vectors.div_ceil(64))
        .map(|_| netlist.inputs().iter().map(|_| rng.next_u64()).collect())
        .collect();
    let (_, toggles) = lanewise_reference(netlist, &words);
    assert_eq!(activity.toggles_per_net, toggles, "{}", netlist.name());
    assert_eq!(activity.transition_count, vectors.div_ceil(64) * 64);
}

/// Every circuit generator family passes its model check on the compiled
/// engine, and its activity capture matches the lane-wise reference.
#[test]
fn every_generator_agrees_across_engines() {
    let scheme = ReductionScheme::RippleRows;
    let sdlc4 = SdlcMultiplier::new(6, 4).unwrap();
    let trunc = TruncatedMultiplier::new(6, 3).unwrap();
    let etm = EtmMultiplier::new(6).unwrap();
    let sdlc2 = SdlcMultiplier::new(6, 2).unwrap();
    type Model = Box<dyn Fn(u128, u128) -> U256 + Sync>;
    let netlists: Vec<(Netlist, Model)> = vec![
        (
            accurate_multiplier(6, scheme).unwrap(),
            Box::new(|a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b))),
        ),
        (
            sdlc_multiplier(&sdlc2, scheme),
            Box::new(move |a, b| sdlc2.multiply(a, b)),
        ),
        (
            sdlc_multiplier(&sdlc4, scheme),
            Box::new(move |a, b| sdlc4.multiply(a, b)),
        ),
        (
            truncated_multiplier(&trunc, scheme),
            Box::new(move |a, b| trunc.multiply(a, b)),
        ),
        (
            etm_multiplier(6, scheme).unwrap(),
            Box::new(move |a, b| etm.multiply(a, b)),
        ),
    ];
    for (netlist, model) in &netlists {
        check(netlist, 6, Sweep::Exhaustive, model, Engine::Compiled)
            .unwrap_or_else(|e| panic!("{}: {e}", netlist.name()));
        assert_activity_matches_reference(netlist, 0xD1FF, 320);
    }
    // Kulkarni requires power-of-two widths; cover it at 8 bits.
    let kulkarni = KulkarniMultiplier::new(8).unwrap();
    let kulkarni_netlist = kulkarni_multiplier(8, scheme).unwrap();
    let reference = |a, b| kulkarni.multiply(a, b);
    check(
        &kulkarni_netlist,
        8,
        Sweep::Exhaustive,
        reference,
        Engine::Compiled,
    )
    .unwrap();
    assert_activity_matches_reference(&kulkarni_netlist, 0xD1FF, 320);
    // The signed periphery (conditional negation, mux trees) too.
    let signed_model = SignMagnitude::new(SdlcMultiplier::new(6, 2).unwrap());
    let signed_netlist = signed_multiplier(&sdlc_multiplier(signed_model.inner(), scheme), 6);
    let reference = |a, b| signed_model.multiply_signed(a, b);
    check_signed(
        &signed_netlist,
        6,
        Sweep::Exhaustive,
        reference,
        Engine::Compiled,
    )
    .unwrap();
    assert_activity_matches_reference(&signed_netlist, 3, 256);
}

/// A planted model bug must surface as the *same first* counterexample
/// on both engines — the compiled sweep's thread sharding and 64-lane
/// packing may not reorder mismatch discovery.
#[test]
fn planted_bug_yields_identical_first_counterexample() {
    let model = SdlcMultiplier::new(6, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
    // Wrong exactly on a stripe in the middle of the sweep.
    let wrong = |a: u128, b: u128| {
        let p = model.multiply(a, b);
        if a == 37 && b >= 21 {
            p.wrapping_add(&U256::ONE)
        } else {
            p
        }
    };
    let first = same_first_mismatch(
        |engine| check(&netlist, 6, Sweep::Exhaustive, wrong, engine),
        "stripe",
    );
    assert_eq!((first.a, first.b), (37, 21));

    // Sampled sweeps: the corner cases and seeded draw order are shared,
    // so the first failing *sample* matches as well.
    let wrong_everywhere = |a: u128, b: u128| model.multiply(a, b).wrapping_add(&U256::ONE);
    same_first_mismatch(
        |engine| check(&netlist, 6, sampled(100, 7), wrong_everywhere, engine),
        "sampled",
    );
}

/// The compiled engine's verdict is also *positive*-identical: a passing
/// design passes on both engines over the same sampled sequence.
#[test]
fn sampled_verdicts_match_on_wide_designs() {
    let model = SdlcMultiplier::new(16, 3).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Dadda);
    for engine in [Engine::Scalar, Engine::Compiled] {
        check(
            &netlist,
            16,
            sampled(200, 5),
            |a, b| model.multiply(a, b),
            engine,
        )
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
    }
}

const WIDE_SCHEMES: [ReductionScheme; 4] = [
    ReductionScheme::RippleRows,
    ReductionScheme::CarrySaveArray,
    ReductionScheme::Wallace,
    ReductionScheme::Dadda,
];

/// 64-bit designs have 128-bit product buses, which the compiled engine
/// decodes as two 64-plane halves: every scheme, unsigned and signed,
/// passes on both engines over the same sampled sequence.
#[test]
fn wide_product_buses_pass_on_both_engines() {
    let model = SdlcMultiplier::new(64, 4).unwrap();
    let signed_model = SignMagnitude::new(model.clone());
    let reference = |a, b| model.multiply(a, b);
    let signed_reference = |a, b| signed_model.multiply_signed(a, b);
    for scheme in WIDE_SCHEMES {
        let netlist = sdlc_multiplier(&model, scheme);
        assert_eq!(netlist.bus("p").unwrap().len(), 128);
        let signed_netlist = signed_multiplier(&netlist, 64);
        for engine in [Engine::Scalar, Engine::Compiled] {
            check(&netlist, 64, sampled(120, 3), reference, engine)
                .unwrap_or_else(|e| panic!("{scheme:?} {engine}: {e}"));
            check_signed(
                &signed_netlist,
                64,
                sampled(120, 3),
                signed_reference,
                engine,
            )
            .unwrap_or_else(|e| panic!("signed {scheme:?} {engine}: {e}"));
        }
    }
}

/// Plants a netlist bug in the upper half of a 128-bit product bus: bit
/// `bit` of `p` is flipped whenever `a[63] & b[62] & !b[63]`, which no
/// corner pair triggers, so the first failure is a seeded draw.
fn plant_high_product_bug(netlist: &Netlist, bit: usize) -> Netlist {
    let mut n = netlist.clone();
    let (a, b) = (n.bus("a").unwrap().to_vec(), n.bus("b").unwrap().to_vec());
    let mut p = n.bus("p").unwrap().to_vec();
    let not_b63 = n.not(b[63]);
    let gate = n.and2(a[63], b[62]);
    let trigger = n.and2(gate, not_b63);
    p[bit] = n.xor2(p[bit], trigger);
    n.set_output_bus("p", p);
    n
}

/// A planted bug in the high product limb of a 64-bit netlist surfaces
/// as the *same first* counterexample on both engines, unsigned and
/// signed.
#[test]
fn planted_wide_bug_yields_identical_first_counterexample() {
    let model = SdlcMultiplier::new(64, 4).unwrap();
    let netlist = plant_high_product_bug(&sdlc_multiplier(&model, ReductionScheme::Dadda), 100);
    let reference = |a: u128, b: u128| model.multiply(a, b);
    let first = same_first_mismatch(
        |engine| check(&netlist, 64, sampled(200, 11), reference, engine),
        "unsigned",
    );
    assert!(first.a >> 63 == 1 && (first.b >> 62) & 3 == 1, "{first}");
    assert_eq!(
        (first.netlist_product ^ first.model_product),
        U256::ONE << 100
    );

    let signed_model = SignMagnitude::new(model.clone());
    let signed_netlist = plant_high_product_bug(
        &signed_multiplier(&sdlc_multiplier(&model, ReductionScheme::Wallace), 64),
        127,
    );
    let reference = |a: i128, b: i128| signed_model.multiply_signed(a, b);
    let first = same_first_mismatch(
        |engine| check_signed(&signed_netlist, 64, sampled(200, 5), reference, engine),
        "signed",
    );
    assert!(first.a < 0 && first.b >= 1 << 62, "{first}");
}

proptest! {
    /// One 8-word evaluation of the compiled program (the equivalence
    /// sweeps' 512-lane executor) equals eight sequential 64-lane
    /// evaluations, word by word, on every net.
    #[test]
    fn eight_word_evaluation_matches_eight_single_words(
        inputs in 1u32..7,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..48),
        seed in any::<u64>(),
    ) {
        let n = random_dag(inputs, &ops);
        let program = CompiledNetlist::compile(&n);
        let mut rng = SplitMix64::new(seed);
        let words: Vec<Vec<u64>> = (0..8)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect();
        // Input-major: the 8 words of input `i` sit at `8i .. 8i + 8`.
        let stimulus: Vec<u64> = (0..inputs as usize)
            .flat_map(|i| words.iter().map(move |word| word[i]))
            .collect();
        let mut wide = CompiledSim::<8>::wide(&program);
        wide.evaluate(&stimulus);
        let mut single = CompiledSim::new(&program);
        for (w, word) in words.iter().enumerate() {
            single.evaluate(word);
            for gate in n.gates() {
                prop_assert_eq!(
                    wide.planes(gate.output)[w],
                    single.plane(gate.output),
                    "net {} word {}", gate.output, w
                );
            }
        }
    }
}

/// An exact `width`-bit Wallace multiplier; any width from 1 bit up.
fn exact_multiplier(width: u32) -> Netlist {
    use sdlc::netlist::reduce::{rows_to_columns, wallace, RowBits};
    let mut n = Netlist::new("exact");
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    let rows: Vec<RowBits> = b
        .iter()
        .enumerate()
        .map(|(k, &bk)| {
            let bits = a.iter().map(|&aj| n.and2(aj, bk)).collect();
            RowBits { offset: k, bits }
        })
        .collect();
    let columns = rows_to_columns(&rows, 2 * width as usize);
    let p = wallace(&mut n, columns);
    n.set_output_bus("p", p);
    n
}

/// Row-major planted-bug positions for an exhaustive `width`-bit sweep:
/// one pair in every word position of a 512-lane group (64-lane block
/// `8g + w` of the sweep, in the second group where the sweep has one),
/// plus the very last pair, which sits in the last — possibly partial —
/// group of the last chunk.
fn planted_positions(width: u32) -> Vec<u64> {
    let count = 1u64 << width;
    let blocks_per_row = count.div_ceil(64);
    let blocks = count * blocks_per_row;
    let group = u64::from(blocks >= 16);
    let mut positions: Vec<u64> = (0..8)
        .map(|w| 8 * group + w)
        .filter(|&k| k < blocks)
        .map(|k| {
            let (a, b0) = (k / blocks_per_row, (k % blocks_per_row) * 64);
            let valid = (count - b0).min(64);
            a * count + b0 + (k * 7) % valid
        })
        .collect();
    positions.push(count * count - 1);
    positions
}

/// Runs one exhaustive check on both engines, asserts that they fail
/// with the same first counterexample and returns it.
fn same_first_mismatch<R: PartialEq + std::fmt::Debug>(
    run: impl Fn(Engine) -> Result<(), Box<R>>,
    context: &str,
) -> Box<R> {
    let scalar = run(Engine::Scalar).unwrap_err();
    assert_eq!(scalar, run(Engine::Compiled).unwrap_err(), "{context}");
    scalar
}

/// At widths 2–7, where 512-lane groups span rows, the exact model passes
/// on both engines; and a model bug planted at row-major pair index `at`
/// and every pair after it — so later words of the group, later groups
/// and later chunks fail too — must surface as the same first
/// counterexample (the planted pair) on both engines: per-pair and
/// batched, unsigned and signed.
#[test]
fn planted_bug_in_every_group_word_yields_identical_first_counterexample() {
    for width in 2u32..=7 {
        let count = 1u64 << width;
        let netlist = exact_multiplier(width);
        let signed_netlist = signed_multiplier(&netlist, width);
        let signed = |pattern: u64| ((pattern << (64 - width)) as i64) >> (64 - width);
        let exact = |a: u128, b: u128| U256::from_u128(a * b);
        let exact_signed = |a: i128, b: i128| I256::from_i128(a * b);
        let exact_block = |a: u64, b0: u64, out: &mut [u64; 64]| {
            for (i, lane) in out.iter_mut().enumerate() {
                *lane = a * ((b0 + i as u64) % count);
            }
        };
        let exact_signed_block = |a: u64, b0: u64, out: &mut [u64; 64]| {
            for (i, lane) in out.iter_mut().enumerate() {
                *lane = (signed(a) * signed((b0 + i as u64) % count)) as u64;
            }
        };
        let sweep = Sweep::Exhaustive;
        for engine in [Engine::Scalar, Engine::Compiled] {
            check(&netlist, width, sweep, exact, engine).unwrap();
            let batched = Batched {
                pair: exact,
                block: exact_block,
            };
            check(&netlist, width, sweep, batched, engine).unwrap();
            check_signed(&signed_netlist, width, sweep, exact_signed, engine).unwrap();
            let batched = Batched {
                pair: exact_signed,
                block: exact_signed_block,
            };
            check_signed(&signed_netlist, width, sweep, batched, engine).unwrap();
        }
        for at in planted_positions(width) {
            let planted = (at / count, at % count);
            let hit = |a: u64, b: u64| b < count && a * count + b >= at;
            let context = format!("width {width} at {at}");

            let wrong = |a: u128, b: u128| {
                U256::from_u128(a * b) ^ U256::from_u128(u128::from(hit(a as u64, b as u64)))
            };
            let wrong_block = |a: u64, b0: u64, out: &mut [u64; 64]| {
                exact_block(a, b0, out);
                for (i, lane) in out.iter_mut().enumerate() {
                    *lane ^= u64::from(hit(a, b0 + i as u64));
                }
            };
            let unsigned = [
                same_first_mismatch(
                    |engine| check(&netlist, width, sweep, wrong, engine),
                    &context,
                ),
                same_first_mismatch(
                    |engine| {
                        let model = Batched {
                            pair: exact,
                            block: wrong_block,
                        };
                        check(&netlist, width, sweep, model, engine)
                    },
                    &format!("batched {context}"),
                ),
            ];
            for mismatch in unsigned {
                assert_eq!((mismatch.a as u64, mismatch.b as u64), planted);
            }

            let mask = count as i128 - 1;
            let wrong_signed = |a: i128, b: i128| {
                let bug = hit((a & mask) as u64, (b & mask) as u64);
                I256::from_i128(a * b + i128::from(bug))
            };
            let wrong_signed_block = |a: u64, b0: u64, out: &mut [u64; 64]| {
                exact_signed_block(a, b0, out);
                for (i, lane) in out.iter_mut().enumerate() {
                    *lane = lane.wrapping_add(u64::from(hit(a, b0 + i as u64)));
                }
            };
            let signed = [
                same_first_mismatch(
                    |engine| {
                        let model = wrong_signed;
                        check_signed(&signed_netlist, width, sweep, model, engine)
                    },
                    &format!("signed {context}"),
                ),
                same_first_mismatch(
                    |engine| {
                        let model = Batched {
                            pair: exact_signed,
                            block: wrong_signed_block,
                        };
                        check_signed(&signed_netlist, width, sweep, model, engine)
                    },
                    &format!("signed batched {context}"),
                ),
            ];
            for mismatch in signed {
                let pattern = |v: i128| (v & mask) as u64;
                assert_eq!((pattern(mismatch.a), pattern(mismatch.b)), planted);
            }
        }
    }
}

/// A pass-through netlist: `p` is the concatenation `a ‖ b` of two
/// `width`-bit operand buses, so the product bus echoes every pair.
fn echo_netlist(width: u32) -> Netlist {
    let mut n = Netlist::new("echo");
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    n.set_output_bus("p", a.into_iter().chain(b).collect());
    n
}

/// `a ‖ b` as the echo netlist's unsigned product.
fn echo(width: u32, a: u128, b: u128) -> U256 {
    U256::from_u128(a) | (U256::from_u128(b) << width)
}

/// The compiled engine streams sampled pairs group by group from the
/// seed instead of materializing the sequence. At sample counts around
/// the 64-lane word and 512-lane group boundaries, unsigned and signed,
/// with operands up to and past 64 bits, it must see exactly the pairs
/// the scalar engine iterates, and report the same first counterexample
/// wherever the bug is planted.
#[test]
fn streamed_sampled_pairs_match_the_materialized_sequence() {
    use std::collections::HashSet;
    use std::sync::Mutex;
    for width in [5u32, 64, 70] {
        let netlist = echo_netlist(width);
        let mask = if width == 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        for samples in [0u64, 1, 63, 64, 511, 513] {
            for signed in [false, true] {
                // Every pair each engine evaluates, as operand patterns.
                let record = |engine: Engine, fail: &HashSet<(u128, u128)>| {
                    let seen = Mutex::new(Vec::new());
                    let verdict = if signed {
                        check_signed(
                            &netlist,
                            width,
                            sampled(samples, 17),
                            |a, b| {
                                let pattern = (a as u128 & mask, b as u128 & mask);
                                seen.lock().unwrap().push(pattern);
                                let raw = echo(width, pattern.0, pattern.1);
                                let p = I256::from_twos_complement(&raw, 2 * width);
                                if fail.contains(&pattern) {
                                    p.wrapping_add(&I256::from_i128(1))
                                } else {
                                    p
                                }
                            },
                            engine,
                        )
                        .err()
                        .map(|m| (m.a as u128 & mask, m.b as u128 & mask))
                    } else {
                        check(
                            &netlist,
                            width,
                            sampled(samples, 17),
                            |a, b| {
                                seen.lock().unwrap().push((a, b));
                                echo(width, a, b)
                                    ^ U256::from_u128(u128::from(fail.contains(&(a, b))))
                            },
                            engine,
                        )
                        .err()
                        .map(|m| (m.a, m.b))
                    };
                    (seen.into_inner().unwrap(), verdict)
                };
                let (sequence, verdict) = record(Engine::Scalar, &HashSet::new());
                let corners = if signed { 25 } else { 9 };
                assert_eq!(sequence.len() as u64, corners + samples);
                assert_eq!(verdict, None);
                let (mut streamed, verdict) = record(Engine::Compiled, &HashSet::new());
                assert_eq!(verdict, None);
                let mut materialized = sequence.clone();
                materialized.sort_unstable();
                streamed.sort_unstable();
                assert_eq!(streamed, materialized, "width {width} samples {samples}");
                // Fail every pair from position `at` on: both engines stop
                // at the same pair, the scalar sequence's first failing one.
                let last = sequence.len() - 1;
                for at in [0, 1, 8, 24, 63, 64, 511, 512, last] {
                    if at > last {
                        continue;
                    }
                    let fail: HashSet<_> = sequence[at..].iter().copied().collect();
                    let scalar = record(Engine::Scalar, &fail).1;
                    let compiled = record(Engine::Compiled, &fail).1;
                    assert!(scalar.is_some());
                    assert_eq!(
                        scalar, compiled,
                        "width {width} samples {samples} signed {signed} at {at}"
                    );
                }
            }
        }
    }
}
