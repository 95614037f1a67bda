//! Traced replay of `sdlc-cli` commands, for the benchmark's per-layer
//! metrics.
//!
//! ```console
//! $ sdlc-perfbench-trace --job 0 --spans spans.jsonl -- synth --width 32 --depth 4
//! ```
//!
//! The arguments after `--` are one `sdlc-cli` command line (`synth`,
//! `errors`, `verify` or `sobel`). It is replayed in-process through the
//! public functions the CLI calls, in the CLI's order, with a span around
//! every call into a layer. The job's root span is `job`.
//! Work the program also does inside another call — `TimedProgram::compile`
//! inside glitch activity, `CompiledNetlist::compile` inside the compiled
//! equivalence sweeps, the batch products inside the error drivers — is
//! timed again as a standalone call in a sibling span outside the root, so
//! it never inflates the job's own time.
//!
//! Stdout gets one JSON line: `{"job":N,"ok":bool,"error":...}`. The job
//! fails when its replay errors, panics, or fails its check; a synth job
//! also fails when the stage-by-stage replay disagrees with `analyze`.
//! The spans go to the `--spans` file at exit, one JSON object per line.

mod tracer;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sdlc::core::batch::{extract_product_lanes, BatchMultiplier, SignedBatchMultiplier, LANES};
use sdlc::core::circuits::{
    accurate_multiplier, sdlc_multiplier, signed_multiplier, ReductionScheme,
};
use sdlc::core::error::{
    exhaustive_signed_with_engine, exhaustive_with_engine, mean_error_distance, parallel_chunks,
    parallel_shard_chunks, sampled_signed_with_engine, sampled_with_engine, Engine,
    BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
};
use sdlc::core::{
    AccurateMultiplier, Batchable, ClusterVariant, Multiplier, SdlcMultiplier, SignMagnitude,
    SignedBatchable, SignedMultiplier,
};
use sdlc::imgproc::{psnr, scenes, scharr_magnitude, sobel_magnitude};
use sdlc::netlist::{passes, Netlist, NetlistStats};
use sdlc::sim::activity::timing_activity_with_engine;
use sdlc::sim::{equiv, CompiledNetlist, TimedProgram};
use sdlc::synth::power::{
    area_um2, dynamic_energy_fj_per_op, dynamic_power_uw, leakage_nw, power_delay_product_fj,
};
use sdlc::synth::sta::analyze_timing;
use sdlc::synth::{analyze, AnalysisOptions, AnalysisReport, REFERENCE_RATE_GHZ};
use sdlc::techlib::Library;
use sdlc::wideint::{bitplane, SplitMix64};

use tracer::Tracer;

/// Seed the CLI passes to its samplers.
const CLI_SEED: u64 = 0x5D1C;

/// The CLI's default `--samples` for sampled `errors` and `verify`.
const ERRORS_SAMPLES: u64 = 1 << 22;
const VERIFY_SAMPLES: u64 = 2048;

/// The subset of `sdlc-cli` options the benchmark's commands use.
struct Command {
    name: String,
    width: Option<u32>,
    depth: u32,
    variant: ClusterVariant,
    scheme: ReductionScheme,
    scheme_all: bool,
    signed: bool,
    engine: Option<String>,
    size: (u32, u32),
}

impl Command {
    fn parse(line: &str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let name = words.next().ok_or("empty command")?.to_string();
        let mut cmd = Command {
            name,
            width: None,
            depth: 2,
            variant: ClusterVariant::Progressive,
            scheme: ReductionScheme::RippleRows,
            scheme_all: false,
            signed: false,
            engine: None,
            size: (200, 200),
        };
        while let Some(flag) = words.next() {
            let mut value = || words.next().ok_or(format!("{flag} needs a value"));
            match flag {
                "--width" => cmd.width = Some(value()?.parse().map_err(|e| format!("{e}"))?),
                "--depth" => cmd.depth = value()?.parse().map_err(|e| format!("{e}"))?,
                "--engine" => cmd.engine = Some(value()?.to_string()),
                "--signed" => cmd.signed = true,
                // Output format only: the replay checks verdicts directly.
                "--json" => {}
                "--variant" => {
                    cmd.variant = match value()? {
                        "prog" => ClusterVariant::Progressive,
                        "ceiltails" => ClusterVariant::CeilTails,
                        "pairtails" => ClusterVariant::PairTails,
                        "fullor" => ClusterVariant::FullOr,
                        other => return Err(format!("unknown variant {other:?}")),
                    }
                }
                "--scheme" => {
                    cmd.scheme = match value()? {
                        "ripple" => ReductionScheme::RippleRows,
                        "csa" => ReductionScheme::CarrySaveArray,
                        "wallace" => ReductionScheme::Wallace,
                        "dadda" => ReductionScheme::Dadda,
                        "all" => {
                            cmd.scheme_all = true;
                            ReductionScheme::RippleRows
                        }
                        other => return Err(format!("unknown scheme {other:?}")),
                    }
                }
                "--size" => {
                    let list = value()?;
                    let (w, h) = list.split_once(',').ok_or(format!("bad --size {list:?}"))?;
                    cmd.size = (
                        w.parse().map_err(|e| format!("{e}"))?,
                        h.parse().map_err(|e| format!("{e}"))?,
                    );
                }
                other => return Err(format!("unsupported option {other:?}")),
            }
        }
        Ok(cmd)
    }

    /// Operand width with the CLI's defaults (16 for `sobel`, else 8).
    fn width(&self) -> u32 {
        self.width
            .unwrap_or(if self.name == "sobel" { 16 } else { 8 })
    }

    fn model(&self) -> Result<SdlcMultiplier, String> {
        SdlcMultiplier::with_variant(self.width(), self.depth, self.variant)
            .map_err(|e| e.to_string())
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (job, spans_path, words) = match args.as_slice() {
        [job_flag, job, spans_flag, path, sep, words @ ..]
            if job_flag == "--job" && spans_flag == "--spans" && sep == "--" =>
        {
            match job.parse::<usize>() {
                Ok(job) => (job, PathBuf::from(path), words.join(" ")),
                Err(e) => {
                    eprintln!("bad --job {job:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            eprintln!("usage: sdlc-perfbench-trace --job N --spans FILE -- <sdlc-cli args>");
            return ExitCode::FAILURE;
        }
    };
    let mut tracer = Tracer::new(job);
    let outcome = catch_unwind(AssertUnwindSafe(|| replay(&mut tracer, &words)))
        .unwrap_or_else(|_| Err("replay panicked".to_string()));
    match outcome {
        Ok(()) => println!("{{\"job\":{job},\"ok\":true,\"error\":null}}"),
        Err(e) => println!(
            "{{\"job\":{job},\"ok\":false,\"error\":\"{}\"}}",
            e.replace('\\', "\\\\").replace('"', "\\\"")
        ),
    }
    if let Err(e) = tracer.write_jsonl(&spans_path) {
        eprintln!("writing {}: {e}", spans_path.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn replay(t: &mut Tracer, line: &str) -> Result<(), String> {
    let cmd = Command::parse(line)?;
    match cmd.name.as_str() {
        "synth" => synth(t, &cmd),
        "errors" => errors(t, &cmd),
        "verify" => verify(t, &cmd),
        "sobel" => sobel(t, &cmd),
        other => Err(format!("no replay for command {other:?}")),
    }
}

/// The accurate and SDLC netlists `sdlc-cli synth` builds.
fn synth_netlists(cmd: &Command, model: &SdlcMultiplier) -> Result<(Netlist, Netlist), String> {
    let width = cmd.width();
    let accurate = accurate_multiplier(width, cmd.scheme).map_err(|e| e.to_string())?;
    let approx = sdlc_multiplier(model, cmd.scheme);
    Ok(if cmd.signed {
        (
            signed_multiplier(&accurate, width),
            signed_multiplier(&approx, width),
        )
    } else {
        (accurate, approx)
    })
}

fn synth(t: &mut Tracer, cmd: &Command) -> Result<(), String> {
    let lib = Library::generic_90nm();
    let options = AnalysisOptions::default();
    let model = cmd.model()?;
    let (reports, optimized) = t.span("job", |t| {
        let (accurate, approx) = t.span("core.circuits.generate", |t| {
            let pair = synth_netlists(cmd, &model)?;
            t.count("gates", (pair.0.cell_count() + pair.1.cell_count()) as u64);
            Ok::<_, String>(pair)
        })?;
        let mut reports = Vec::new();
        let mut optimized = Vec::new();
        for netlist in [accurate, approx] {
            let (report, netlist) =
                t.span("synth.flow", |t| analyze_stages(t, netlist, &lib, &options))?;
            reports.push(report);
            optimized.push(netlist);
        }
        black_box(reports[1].reduction_vs(&reports[0]));
        Ok::<_, String>((reports, optimized))
    })?;
    for netlist in &optimized {
        t.span("sim.glitch.program", |_| {
            black_box(TimedProgram::compile(netlist, &lib));
        });
    }
    // Fidelity: the stage-by-stage replay must reproduce `analyze` exactly.
    t.span("check.fidelity", |_| {
        let (accurate, approx) = synth_netlists(cmd, &model)?;
        for (netlist, replayed) in [accurate, approx].into_iter().zip(&reports) {
            let reference = analyze(netlist, &lib, &options);
            if reference != *replayed {
                return Err(format!(
                    "traced replay of {} differs from analyze: {replayed:?} vs {reference:?}",
                    reference.design
                ));
            }
        }
        Ok(())
    })
}

/// `sdlc_synth::analyze`, one stage per span. Returns the report and the
/// optimized netlist.
fn analyze_stages(
    t: &mut Tracer,
    mut netlist: Netlist,
    library: &Library,
    options: &AnalysisOptions,
) -> Result<(AnalysisReport, Netlist), String> {
    netlist
        .validate()
        .map_err(|e| format!("invalid netlist: {e:?}"))?;
    if options.optimize {
        t.span("netlist.passes.optimize", |t| {
            let generated = netlist.cell_count();
            let _ = passes::optimize(&mut netlist);
            t.count("generated", generated as u64);
            t.count("removed", (generated - netlist.cell_count()) as u64);
        });
    }
    let stats = NetlistStats::of(&netlist);
    let timing = t.span("synth.sta.timing", |_| analyze_timing(&netlist, library));
    // The CLI runs the default options, which capture glitch activity;
    // the fidelity check fails if that default changes.
    let activity = t.span("sim.glitch.activity", |t| {
        let activity = timing_activity_with_engine(
            &netlist,
            library,
            options.seed,
            options.activity_vectors,
            options.glitch_engine,
        );
        t.count("toggles", activity.total_toggles());
        t.count("vectors", activity.transition_count);
        activity
    });
    let report = t.span("synth.power.power", |_| {
        let energy = dynamic_energy_fj_per_op(&netlist, library, &activity);
        let delay = timing.critical_delay_ps();
        let dynamic = dynamic_power_uw(energy, REFERENCE_RATE_GHZ);
        AnalysisReport {
            design: netlist.name().to_string(),
            area_um2: area_um2(&netlist, library),
            leakage_nw: leakage_nw(&netlist, library),
            delay_ps: delay,
            energy_fj_per_op: energy,
            dynamic_power_uw: dynamic,
            pdp_fj: power_delay_product_fj(dynamic, delay),
            stats,
        }
    });
    Ok((report, netlist))
}

fn errors(t: &mut Tracer, cmd: &Command) -> Result<(), String> {
    let width = cmd.width();
    let engine: Engine = cmd.engine.as_deref().unwrap_or("scalar").parse()?;
    let samples = ERRORS_SAMPLES;
    let cutoff = match engine {
        Engine::Scalar => 12,
        Engine::BitSliced => BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
    };
    let exhaustive = width <= cutoff;
    let model = cmd.model()?;
    let (metrics, analytic) = t.span("job", |t| {
        let metrics = t.span("core.error.metrics", |t| {
            let metrics = match (cmd.signed, exhaustive) {
                (true, true) => {
                    exhaustive_signed_with_engine(&SignMagnitude::new(model.clone()), engine)
                }
                (true, false) => sampled_signed_with_engine(
                    &SignMagnitude::new(model.clone()),
                    samples,
                    CLI_SEED,
                    engine,
                ),
                (false, true) => exhaustive_with_engine(&model, engine),
                (false, false) => sampled_with_engine(&model, samples, CLI_SEED, engine),
            }
            .map_err(|e| e.to_string())?;
            t.count("pairs", metrics.samples);
            Ok::<_, String>(metrics)
        })?;
        let analytic = (!cmd.signed).then(|| mean_error_distance(&model));
        Ok::<_, String>((metrics, analytic))
    })?;
    if engine == Engine::BitSliced {
        t.span("core.batch.products", |t| {
            let checksum = match (cmd.signed, exhaustive) {
                (false, true) => Some(products_exhaustive(&model)),
                (true, true) => Some(products_exhaustive_signed(&SignMagnitude::new(
                    model.clone(),
                ))),
                (false, false) => Some(products_sampled(&model, samples)),
                (true, false) => None,
            };
            if let Some(checksum) = checksum {
                black_box(checksum);
                t.count("pairs", metrics.samples);
            }
        });
    }
    // Oracle: an exhaustive sweep's MED is the analytic MED (as printed);
    // a sampled one lies within 1% of it.
    if let Some(analytic) = analytic {
        let agrees = if exhaustive {
            format!("{analytic:.4}") == format!("{:.4}", metrics.med)
        } else {
            (metrics.med - analytic).abs() <= 0.01 * analytic
        };
        if !agrees {
            return Err(format!(
                "simulated MED {} disagrees with analytic MED {analytic}",
                metrics.med
            ));
        }
    }
    Ok(())
}

/// XOR of all lane products — keeps the products observable.
fn fold_lanes(lanes: &[u64; LANES]) -> u64 {
    lanes.iter().fold(0, |acc, &p| acc ^ p)
}

/// The products of `exhaustive_bitsliced`: same rows, same thread split,
/// same block extraction, without the error accounting.
fn products_exhaustive(model: &SdlcMultiplier) -> u64 {
    let count = 1u64 << model.width();
    let partials = parallel_chunks(count, threads(), |lo, hi| {
        let batch = model.batch_model();
        let mut lanes = [0u64; LANES];
        let mut acc = 0u64;
        for a in lo..hi {
            batch.sweep_operand_row(a, count, &mut |_, product| {
                extract_product_lanes(product, &mut lanes);
                acc ^= fold_lanes(&lanes);
            });
        }
        acc
    });
    partials.into_iter().fold(0, |acc, p| acc ^ p)
}

/// The signed twin of [`products_exhaustive`].
fn products_exhaustive_signed(model: &SignMagnitude<SdlcMultiplier>) -> u64 {
    let count = 1u64 << model.width();
    let partials = parallel_chunks(count, threads(), |lo, hi| {
        let batch = model.signed_batch_model();
        let mut lanes = [0u64; LANES];
        let mut acc = 0u64;
        for a in lo..hi {
            batch.sweep_operand_row_signed(a, count, &mut |_, product| {
                extract_product_lanes(product, &mut lanes);
                acc ^= fold_lanes(&lanes);
            });
        }
        acc
    });
    partials.into_iter().fold(0, |acc, p| acc ^ p)
}

/// The products of `sampled_bitsliced`: the same 256 seeded shards and
/// draws, transposed and multiplied the same way.
fn products_sampled(model: &SdlcMultiplier, samples: u64) -> u64 {
    const SHARDS: u64 = 256;
    let width = model.width();
    let planes = width as usize;
    let per_shard = samples.div_ceil(SHARDS);
    let shard_list: Vec<u64> = (0..SHARDS).collect();
    let partials = parallel_shard_chunks(&shard_list, threads(), |shards| {
        let batch = model.batch_model();
        let (mut a_lanes, mut b_lanes) = ([0u64; LANES], [0u64; LANES]);
        let (mut product, mut lanes) = ([0u64; LANES], [0u64; LANES]);
        let mut acc = 0u64;
        for &shard in shards {
            let mut rng = SplitMix64::new(CLI_SEED ^ shard.wrapping_mul(0x9e37_79b9));
            let begin = shard * per_shard;
            let end = (begin + per_shard).min(samples);
            let mut n = begin;
            while n < end {
                let valid = (end - n).min(LANES as u64) as usize;
                for i in 0..valid {
                    a_lanes[i] = rng.next_bits(width);
                    b_lanes[i] = rng.next_bits(width);
                }
                a_lanes[valid..].fill(0);
                b_lanes[valid..].fill(0);
                let a_planes = operand_planes(&a_lanes, width);
                let b_planes = operand_planes(&b_lanes, width);
                batch.multiply_planes(
                    &a_planes[..planes],
                    &b_planes[..planes],
                    &mut product[..2 * planes],
                );
                extract_product_lanes(&product[..2 * planes], &mut lanes);
                acc ^= fold_lanes(&lanes);
                n += valid as u64;
            }
        }
        acc
    });
    partials.into_iter().fold(0, |acc, p| acc ^ p)
}

/// Lane-form operands to bit-planes through the narrowest block network,
/// as the sampled driver does.
fn operand_planes(lanes: &[u64; LANES], width: u32) -> [u64; 32] {
    let mut out = [0u64; 32];
    if width <= 16 {
        let narrow: [u16; LANES] = core::array::from_fn(|i| lanes[i] as u16);
        out[..16].copy_from_slice(&bitplane::planes_from_lanes16(&narrow));
    } else {
        let narrow: [u32; LANES] = core::array::from_fn(|i| lanes[i] as u32);
        out.copy_from_slice(&bitplane::planes_from_lanes32(&narrow));
    }
    out
}

/// Mirror of `sim::equiv`'s private `compiled_supports`: the compiled
/// sweeps need operand buses of `width..=64` bits and a product bus of at
/// most 64 bits; other netlists run on the scalar `LogicSim` fallback.
fn compiled_supports(netlist: &Netlist, width: u32) -> bool {
    let fits = |name: &str| {
        netlist
            .bus(name)
            .is_some_and(|bus| (width as usize..=64).contains(&bus.len()))
    };
    fits("a") && fits("b") && netlist.bus("p").is_some_and(|bus| bus.len() <= 64)
}

/// Adds the time spent in `f` to `busy` (nanoseconds). The two clock
/// reads cost about 100 ns per call on the reference box, which is what the
/// traced check pays over the CLI for per-pair model callbacks.
fn timed<T>(busy: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

fn verify(t: &mut Tracer, cmd: &Command) -> Result<(), String> {
    let width = cmd.width();
    let engine: sdlc::sim::Engine = cmd.engine.as_deref().unwrap_or("compiled").parse()?;
    let samples = VERIFY_SAMPLES;
    let schemes: &[ReductionScheme] = if cmd.scheme_all {
        &[
            ReductionScheme::RippleRows,
            ReductionScheme::CarrySaveArray,
            ReductionScheme::Wallace,
            ReductionScheme::Dadda,
        ]
    } else {
        core::slice::from_ref(&cmd.scheme)
    };
    let cutoff = match (engine, cmd.signed) {
        (sdlc::sim::Engine::Scalar, _) => 8,
        (sdlc::sim::Engine::Compiled, true) => 10,
        (sdlc::sim::Engine::Compiled, false) => 12,
    };
    let exhaustive = width <= cutoff;
    let model = cmd.model()?;
    let (netlists, verdicts) = t.span("job", |t| {
        let mut netlists = Vec::new();
        let mut verdicts = Vec::new();
        for &scheme in schemes {
            let netlist = t.span("core.circuits.generate", |t| {
                let mut netlist = sdlc_multiplier(&model, scheme);
                if cmd.signed {
                    netlist = signed_multiplier(&netlist, width);
                }
                t.count("gates", netlist.cell_count() as u64);
                netlist
            });
            let busy = AtomicU64::new(0);
            let name = if exhaustive {
                "sim.equiv.exhaustive"
            } else {
                "sim.equiv.sampled"
            };
            let verdict = t.span(name, |t| {
                let verdict =
                    check_equivalence(&netlist, cmd, &model, exhaustive, samples, engine, &busy);
                t.count(
                    "pairs",
                    if exhaustive {
                        1u64 << (2 * width)
                    } else {
                        9 + samples
                    },
                );
                t.count("model_busy_ns", busy.load(Ordering::Relaxed));
                verdict
            });
            verdicts.push(verdict.map_err(|e| format!("{}: {e}", netlist.name())));
            netlists.push(netlist);
        }
        (netlists, verdicts)
    });
    if engine == sdlc::sim::Engine::Compiled {
        for netlist in netlists.iter().filter(|n| compiled_supports(n, width)) {
            t.span("sim.compile.compile", |t| {
                let program = CompiledNetlist::compile(netlist);
                t.count("ops", program.op_count() as u64);
                t.count("gates", netlist.cell_count() as u64);
                black_box(program);
            });
        }
    }
    verdicts.into_iter().collect()
}

/// The check `sdlc-cli verify` runs for one netlist, with every model
/// call timed into `busy`.
fn check_equivalence(
    netlist: &Netlist,
    cmd: &Command,
    model: &SdlcMultiplier,
    exhaustive: bool,
    samples: u64,
    engine: sdlc::sim::Engine,
    busy: &AtomicU64,
) -> Result<(), String> {
    let width = cmd.width();
    if cmd.signed {
        let signed = SignMagnitude::new(model.clone());
        let reference = |a: i128, b: i128| timed(busy, || signed.multiply_signed(a, b));
        return if exhaustive {
            equiv::check_exhaustive_signed_with_engine(netlist, width, reference, engine)
                .map_err(|e| e.to_string())
        } else {
            equiv::check_sampled_signed_with_engine(
                netlist, width, samples, CLI_SEED, reference, engine,
            )
            .map_err(|e| e.to_string())
        };
    }
    if exhaustive && engine == sdlc::sim::Engine::Compiled {
        let batch = model.batch_model();
        return equiv::check_exhaustive_batched(
            netlist,
            width,
            |a, b0, out| {
                timed(busy, || {
                    sdlc::core::batch::exhaustive_block(&batch, a, b0, out)
                })
            },
            engine,
        )
        .map_err(|e| e.to_string());
    }
    let reference = |a: u128, b: u128| timed(busy, || model.multiply(a, b));
    if exhaustive {
        equiv::check_exhaustive_with_engine(netlist, width, reference, engine)
            .map_err(|e| e.to_string())
    } else {
        equiv::check_sampled_with_engine(netlist, width, samples, CLI_SEED, reference, engine)
            .map_err(|e| e.to_string())
    }
}

fn sobel(t: &mut Tracer, cmd: &Command) -> Result<(), String> {
    let width = cmd.width();
    let (w, h) = cmd.size;
    let sobel_psnr = t.span("job", |t| {
        let approx = SignMagnitude::new(cmd.model()?);
        let exact = SignMagnitude::new(AccurateMultiplier::new(width).map_err(|e| e.to_string())?);
        let image = scenes::blobs(w, h, 7);
        let (sobel_ref, sobel_approx, scharr_ref, scharr_approx) =
            t.span("imgproc.gradient", |_| {
                (
                    sobel_magnitude(&image, &exact),
                    sobel_magnitude(&image, &approx),
                    scharr_magnitude(&image, &exact),
                    scharr_magnitude(&image, &approx),
                )
            });
        black_box(psnr(&scharr_ref, &scharr_approx));
        Ok::<_, String>(psnr(&sobel_ref, &sobel_approx))
    })?;
    // Sobel's ±1/±2 taps are powers of two, exact through SDLC.
    if sobel_psnr.is_infinite() {
        Ok(())
    } else {
        Err(format!("Sobel PSNR {sobel_psnr} dB, expected inf"))
    }
}
