//! Gate-level engine throughput: scalar vs compiled equivalence checking —
//! not a paper experiment, but the performance budget that turns
//! exhaustive netlist-vs-model verification from an 8-bit ceiling into
//! routine 10-bit (and large sampled) material.
//!
//! For each width in {4, 6, 8, 10} and each design family (accurate,
//! SDLC d2, SDLC d4), the harness times an exhaustive `check` with a
//! per-pair model on both engines and reports vectors/s plus the compiled
//! speedup; then sampled equivalence at 16 bits. The two engines'
//! verdicts are asserted identical along the way, so the bench doubles as
//! a coarse differential test.
//!
//! The last section times the path `sdlc-cli verify --width 12 --scheme
//! all` takes — the batched exhaustive check of 12-bit SDLC d2, 2^24
//! pairs per scheme — on one CPU, reporting ns per 64-lane sweep, pairs/s
//! and the speedup over the 64-lane-per-dispatch sweep it replaced. On a
//! multi-core machine the harness re-runs itself under `taskset -c 0` for
//! that section, so the sweep's thread count is 1.
//!
//! `SDLC_FAST=1` drops the 10-bit scalar sweep (the slow tail).

use std::process::Command;
use std::time::Instant;

use sdlc_bench::{banner, fast_mode};
use sdlc_core::batch::exhaustive_block;
use sdlc_core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc_core::{Batchable, Multiplier, SdlcMultiplier};
use sdlc_netlist::Netlist;
use sdlc_sim::equiv::{check, Batched, Sweep};
use sdlc_sim::Engine;
use sdlc_wideint::U256;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Reference model of one design: operands to the exact expected product.
type Model = Box<dyn Fn(u128, u128) -> U256 + Sync>;

fn designs(width: u32) -> Vec<(String, Netlist, Model)> {
    let scheme = ReductionScheme::RippleRows;
    let mut out: Vec<(String, Netlist, Model)> = vec![(
        "accurate".into(),
        accurate_multiplier(width, scheme).expect("valid width"),
        Box::new(|a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b))),
    )];
    for depth in [2u32, 4] {
        match SdlcMultiplier::new(width, depth) {
            Ok(model) => {
                let netlist = sdlc_multiplier(&model, scheme);
                out.push((
                    format!("sdlc_d{depth}"),
                    netlist,
                    Box::new(move |a, b| U256::from_u128(model.multiply_u64(a as u64, b as u64))),
                ));
            }
            Err(_) => continue, // depth exceeds what this width supports
        }
    }
    out
}

/// Set in the child process that runs the single-CPU verify section.
const PINNED_ENV: &str = "SDLC_EQUIV_PINNED";

/// The CLI's four `--scheme all` reduction trees, with the ns per 64-lane
/// sweep the 64-lane-per-dispatch compiled engine took on each: median of
/// 5 single-CPU runs of this section (each the best of 3) on the 2-core
/// x86-64 reference box.
const VERIFY12_SCHEMES: [(ReductionScheme, f64); 4] = [
    (ReductionScheme::RippleRows, 2388.0),
    (ReductionScheme::CarrySaveArray, 2719.8),
    (ReductionScheme::Wallace, 2352.4),
    (ReductionScheme::Dadda, 2213.9),
];

/// `sdlc-cli verify --width 12 --scheme all`'s checks, timed one scheme at
/// a time (best of 3) on however many CPUs this process may use.
fn verify12_rows() {
    let model = SdlcMultiplier::new(12, 2).expect("12-bit SDLC d2");
    let batch = model.batch_model();
    let pairs = 1u64 << 24;
    let sweeps = pairs / 64;
    for (scheme, replaced_ns) in VERIFY12_SCHEMES {
        let netlist = sdlc_multiplier(&model, scheme);
        let t = (0..3)
            .map(|_| {
                let (verdict, t) = timed(|| {
                    let reference = Batched {
                        pair: |a, b| model.multiply(a, b),
                        block: |a, b0, out: &mut [u64; 64]| exhaustive_block(&batch, a, b0, out),
                    };
                    check(&netlist, 12, Sweep::Exhaustive, reference, Engine::Compiled)
                });
                verdict.expect("generators match their models");
                t
            })
            .fold(f64::INFINITY, f64::min);
        let ns = t * 1e9 / sweeps as f64;
        println!(
            "  {:<9} {:>7.3} s  {ns:>6.1} ns/sweep  {:>6.1} Mpairs/s  \
             speedup {:>4.2}x over {replaced_ns:.1} ns/sweep",
            scheme.tag(),
            t,
            pairs as f64 / t / 1e6,
            replaced_ns / ns,
        );
    }
}

fn main() {
    if std::env::var_os(PINNED_ENV).is_some() {
        verify12_rows();
        return;
    }
    banner(
        "Equivalence throughput: scalar vs compiled gate engine",
        "engineering benchmark (no paper counterpart)",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("machine: {cores} cores\n");

    println!("== exhaustive netlist-vs-model equivalence ==");
    let mut headline: Option<f64> = None;
    for width in [4u32, 6, 8, 10] {
        let pairs = 1u64 << (2 * width);
        for (name, netlist, model) in designs(width) {
            if width == 10 && fast_mode() {
                println!("  {width:2}-bit {name:<9} skipped (SDLC_FAST)");
                continue;
            }
            let run = |engine| {
                timed(|| {
                    let sweep = Sweep::Exhaustive;
                    check(&netlist, width, sweep, &model, engine)
                })
            };
            let (scalar, t_scalar) = run(Engine::Scalar);
            let (compiled, t_compiled) = run(Engine::Compiled);
            assert_eq!(scalar.is_ok(), compiled.is_ok(), "{name}: verdicts diverge");
            scalar.expect("generators match their models");
            let speedup = t_scalar / t_compiled;
            if width == 8 && name == "sdlc_d2" {
                headline = Some(speedup);
            }
            println!(
                "  {width:2}-bit {name:<9} {pairs:>9} pairs  scalar {:>8.1} kpairs/s  \
                 compiled {:>9.1} kpairs/s  speedup {speedup:>6.1}x",
                pairs as f64 / t_scalar / 1e3,
                pairs as f64 / t_compiled / 1e3,
            );
        }
    }
    if let Some(speedup) = headline {
        println!(
            "\n  headline: 8-bit SDLC d2 exhaustive check runs {speedup:.1}x faster compiled \
             (acceptance floor: 20x on multi-core)"
        );
        assert!(
            cores == 1 || speedup >= 20.0,
            "compiled engine regressed below the 20x floor: {speedup:.1}x on {cores} cores"
        );
    }

    println!("\n== sampled equivalence (16-bit, 9 corners + 20000 seeded pairs) ==");
    for (name, netlist, model) in designs(16) {
        let run = |engine| {
            timed(|| {
                let sweep = Sweep::Sampled {
                    samples: 20_000,
                    seed: 7,
                };
                check(&netlist, 16, sweep, &model, engine)
            })
        };
        let (scalar, t_scalar) = run(Engine::Scalar);
        let (compiled, t_compiled) = run(Engine::Compiled);
        assert_eq!(scalar.is_ok(), compiled.is_ok(), "{name}: verdicts diverge");
        scalar.expect("generators match their models");
        println!(
            "  {name:<9} scalar {:>7.1} kpairs/s  compiled {:>9.1} kpairs/s  speedup {:>6.1}x",
            20_009.0 / t_scalar / 1e3,
            20_009.0 / t_compiled / 1e3,
            t_scalar / t_compiled,
        );
    }

    println!("\n== sdlc-cli verify --width 12 --scheme all: batched exhaustive, one CPU ==");
    if cores == 1 {
        verify12_rows();
    } else {
        let pinned = std::env::current_exe().and_then(|exe| {
            Command::new("taskset")
                .args(["-c", "0"])
                .arg(exe)
                .env(PINNED_ENV, "1")
                .status()
        });
        match pinned {
            Ok(status) if status.success() => {}
            Ok(status) => panic!("single-CPU verify section failed: {status}"),
            Err(e) => println!("  skipped: cannot pin one CPU with `taskset` ({e})"),
        }
    }
}
