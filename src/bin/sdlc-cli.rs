//! `sdlc-cli` — command-line front end to the SDLC reproduction stack.
//!
//! ```console
//! $ sdlc-cli errors --width 8 --depth 2
//! $ sdlc-cli errors --width 8 --depths 4,2,2
//! $ sdlc-cli errors --width 8 --signed --engine bitsliced
//! $ sdlc-cli verify --width 10 --depth 2 --engine compiled
//! $ sdlc-cli sobel --depth 3 --size 128,128 --out edges/
//! $ sdlc-cli synth --width 16 --depth 3 --scheme wallace
//! $ sdlc-cli verilog --width 8 --depth 2 --signed --out signed_sdlc8.v
//! $ sdlc-cli dot --width 8 --depth 3
//! ```
//!
//! Subcommands: `errors` (error metrics, unsigned or `--signed`),
//! `verify` (gate-level netlist vs functional model equivalence),
//! `sobel` (edge detection through approximate signed multipliers),
//! `synth` (area/power/delay report + savings vs accurate), `verilog`
//! (structural export, optionally `--signed`), `dot` (dot-notation
//! diagram), `help`.

use std::process::ExitCode;

use sdlc::core::batch::{exhaustive_block, exhaustive_block_signed, LANES};
use sdlc::core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc::core::error::{
    exhaustive_signed_with_engine, exhaustive_with_engine, mean_error_distance,
    sampled_signed_with_engine, sampled_with_engine, Engine, BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
};
use sdlc::core::matrix::ReducedMatrix;
use sdlc::core::{
    Batchable, ClusterVariant, Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier,
};
use sdlc::imgproc::{psnr, scenes, scharr_magnitude, sobel_magnitude, write_pgm};
use sdlc::netlist::{passes, to_verilog};
use sdlc::sim::equiv::{check, check_signed, Batched, Sweep};
use sdlc::synth::{analyze, AnalysisOptions};
use sdlc::techlib::Library;

const USAGE: &str = "\
sdlc-cli — significance-driven logic compression multipliers

USAGE:
  sdlc-cli <command> [options]

COMMANDS:
  errors    error metrics (exhaustive <=12 bits scalar, <=20 bits
            bitsliced; Monte-Carlo above)
  verify    check the generated netlist against its functional model
            (exhaustive for narrow widths, sampled + corners above)
  sobel     Sobel edge detection through approximate signed multipliers
  synth     synthesis-style report and savings vs the accurate design
  verilog   export the multiplier as structural Verilog
  dot       print the reduced partial-product matrix in dot notation
  help      show this text

OPTIONS:
  --width N        operand width (even, 2..=128; default 8;
                   `sobel` needs >=10 and defaults to 16)
  --depth D        uniform cluster depth (default 2)
  --depths A,B,..  heterogeneous cluster depths (sum = width)
  --variant V      prog | ceiltails | pairtails | fullor (default prog)
  --scheme S       ripple | csa | wallace | dadda (default ripple);
                   `verify` also accepts `all` to sweep every scheme in
                   one invocation
  --json           `verify` only: machine-readable JSON report on stdout
                   (one result record per scheme, for CI dashboards)
  --engine E       errors: scalar | bitsliced (default scalar) —
                   bitsliced packs 64 multiplications into word-wide
                   bit-plane ops, exhaustive up to 20 bits (2^40 pairs);
                   verify: scalar | compiled (default compiled) —
                   compiled flattens the netlist once and sweeps 512
                   vectors per pass across all cores
  --signed         evaluate the signed (two's-complement) sign-magnitude
                   wrapping of the design: `errors` sweeps the signed
                   operand range with signed ED/RED statistics
  --samples K      Monte-Carlo samples for wide widths (`errors`
                   default 2^22; `verify` default 2048 operand pairs
                   after the corner cases)
  --size W,H       scene size for `sobel` (default 200,200)
  --out PATH       output path for `verilog` (default stdout); for
                   `sobel`, a directory receiving the PGM before/after set
  --lib FILE       cell library in sdlc-techlib text format
                   (default: built-in generic 90 nm)
";

#[derive(Debug)]
struct Options {
    width: Option<u32>,
    depth: u32,
    depths: Option<Vec<u32>>,
    variant: ClusterVariant,
    scheme: ReductionScheme,
    /// Raw `--engine` value; each command parses it against its own
    /// engine domain (`errors`: scalar/bitsliced model engines,
    /// `verify`: scalar/compiled netlist engines).
    engine: Option<String>,
    /// `--scheme all`: sweep every reduction scheme (verify only).
    scheme_all: bool,
    /// `--json`: machine-readable verify output.
    json: bool,
    signed: bool,
    samples: Option<u64>,
    size: (u32, u32),
    out: Option<String>,
    lib: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            width: None,
            depth: 2,
            depths: None,
            variant: ClusterVariant::Progressive,
            scheme: ReductionScheme::RippleRows,
            engine: None,
            scheme_all: false,
            json: false,
            signed: false,
            samples: None,
            size: (200, 200),
            out: None,
            lib: None,
        }
    }
}

impl Options {
    /// Operand width: explicit `--width`, else the command default (8
    /// everywhere; 16 for `sobel`, whose pixel×tap products need the
    /// headroom).
    fn width(&self, command: &str) -> u32 {
        self.width
            .unwrap_or(if command == "sobel" { 16 } else { 8 })
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--width" => {
                options.width = Some(value()?.parse().map_err(|e| format!("bad --width: {e}"))?);
            }
            "--depth" => {
                options.depth = value()?.parse().map_err(|e| format!("bad --depth: {e}"))?;
            }
            "--depths" => {
                let list = value()?;
                let parsed: Result<Vec<u32>, _> = list.split(',').map(str::parse).collect();
                options.depths = Some(parsed.map_err(|e| format!("bad --depths {list:?}: {e}"))?);
            }
            "--variant" => {
                options.variant = match value()?.as_str() {
                    "prog" => ClusterVariant::Progressive,
                    "ceiltails" => ClusterVariant::CeilTails,
                    "pairtails" => ClusterVariant::PairTails,
                    "fullor" => ClusterVariant::FullOr,
                    other => return Err(format!("unknown variant {other:?}")),
                };
            }
            "--scheme" => {
                options.scheme = match value()?.as_str() {
                    "ripple" => ReductionScheme::RippleRows,
                    "csa" => ReductionScheme::CarrySaveArray,
                    "wallace" => ReductionScheme::Wallace,
                    "dadda" => ReductionScheme::Dadda,
                    "all" => {
                        options.scheme_all = true;
                        ReductionScheme::RippleRows
                    }
                    other => return Err(format!("unknown scheme {other:?}")),
                };
            }
            "--json" => options.json = true,
            "--engine" => {
                options.engine = Some(value()?);
            }
            "--signed" => options.signed = true,
            "--size" => {
                let list = value()?;
                let parts: Vec<&str> = list.split(',').collect();
                let parse = |s: &str| {
                    s.parse::<u32>()
                        .map_err(|e| format!("bad --size {list:?}: {e}"))
                };
                match parts.as_slice() {
                    [w, h] => options.size = (parse(w)?, parse(h)?),
                    _ => return Err(format!("bad --size {list:?}: expected W,H")),
                }
                if options.size.0 == 0 || options.size.1 == 0 {
                    return Err(format!("bad --size {list:?}: dimensions must be positive"));
                }
            }
            "--samples" => {
                options.samples = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --samples: {e}"))?,
                );
            }
            "--out" => options.out = Some(value()?),
            "--lib" => options.lib = Some(value()?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

/// Commands without an engine dimension must reject `--engine` rather
/// than silently ignore a value that only `errors`/`verify` interpret.
fn reject_engine(options: &Options, command: &str) -> Result<(), String> {
    match &options.engine {
        Some(engine) => Err(format!(
            "--engine {engine} is not supported by `{command}`; it selects \
             evaluation engines for `errors` and `verify`"
        )),
        None => Ok(()),
    }
}

/// Flags only `verify` interprets must not be silently swallowed by a
/// command that would ignore them.
fn reject_verify_flags(options: &Options, command: &str) -> Result<(), String> {
    if options.scheme_all {
        return Err(format!(
            "--scheme all is only supported by `verify`; `{command}` needs one concrete scheme"
        ));
    }
    if options.json {
        return Err(format!(
            "--json is only supported by `verify`, not `{command}`"
        ));
    }
    Ok(())
}

fn build_model(options: &Options, width: u32) -> Result<SdlcMultiplier, String> {
    let model = match &options.depths {
        Some(depths) => SdlcMultiplier::with_group_depths(width, depths),
        None => SdlcMultiplier::with_variant(width, options.depth, options.variant),
    };
    model.map_err(|e| e.to_string())
}

fn cmd_errors(options: &Options) -> Result<(), String> {
    reject_verify_flags(options, "errors")?;
    let width = options.width("errors");
    let model = build_model(options, width)?;
    let engine: Engine = options.engine.as_deref().unwrap_or("scalar").parse()?;
    let samples = options.samples.unwrap_or(1 << 22);
    // The bit-sliced engine makes full sweeps cheap enough to exhaust
    // everything up to its 20-bit driver ceiling (the paper's entire
    // synthesized range is ≤16); the scalar path keeps its 12-bit
    // practicality cutoff. Signed sweeps cover the same 2^{2N} pattern
    // space, so the cutoffs carry over.
    let exhaustive_cutoff = match engine {
        Engine::Scalar => 12,
        Engine::BitSliced => BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
    };
    let metrics = if options.signed {
        let signed = SignMagnitude::new(model.clone());
        println!("design {} (engine {engine})", signed.name());
        if width <= exhaustive_cutoff {
            exhaustive_signed_with_engine(&signed, engine).map_err(|e| e.to_string())?
        } else {
            sampled_signed_with_engine(&signed, samples, 0x5D1C, engine)
                .map_err(|e| e.to_string())?
        }
    } else {
        println!("design {} (engine {engine})", model.name());
        if width <= exhaustive_cutoff {
            exhaustive_with_engine(&model, engine).map_err(|e| e.to_string())?
        } else {
            sampled_with_engine(&model, samples, 0x5D1C, engine).map_err(|e| e.to_string())?
        }
    };
    println!("{metrics}");
    // Sampled runs cover fewer than the 2^{2N} pairs of the domain; at
    // width ≥ 32 that pair count overflows u64, so any sample count is
    // partial by definition.
    if width >= 32 || metrics.samples < 1u64 << (2 * width) {
        println!(
            "(Monte-Carlo; 95% CI: MRED ±{:.5}pp, ER ±{:.4}pp)",
            1.96 * metrics.mred_std_error * 100.0,
            1.96 * metrics.er_std_error * 100.0
        );
    }
    if let Some((a, b)) = metrics.worst_red_operands_signed() {
        println!("worst RED at ({a}, {b})");
    }
    if !options.signed {
        println!(
            "analytic MED = {:.4} (model, no simulation; simulated {:.4})",
            mean_error_distance(&model),
            metrics.med
        );
    }
    Ok(())
}

/// One scheme's verify outcome, for the text and JSON renderers.
struct VerifyRecord {
    design: String,
    scheme: &'static str,
    coverage: String,
    /// `Ok(pair count)` or the first counterexample, pre-formatted.
    outcome: Result<u64, String>,
}

/// Escapes a string for embedding in a JSON literal (the report values
/// are ASCII design names and operand lists; quotes/backslashes only for
/// robustness).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_verify_json(options: &Options, width: u32, engine: &str, records: &[VerifyRecord]) {
    let results: Vec<String> = records
        .iter()
        .map(|r| {
            let (status, extra) = match &r.outcome {
                Ok(pairs) => ("ok".to_string(), format!("\"pairs\":{pairs}")),
                Err(mismatch) => (
                    "mismatch".to_string(),
                    format!("\"counterexample\":\"{}\"", json_escape(mismatch)),
                ),
            };
            format!(
                "{{\"design\":\"{}\",\"scheme\":\"{}\",\"coverage\":\"{}\",\"status\":\"{status}\",{extra}}}",
                json_escape(&r.design),
                r.scheme,
                json_escape(&r.coverage),
            )
        })
        .collect();
    println!(
        "{{\"command\":\"verify\",\"width\":{width},\"signed\":{},\"engine\":\"{engine}\",\"results\":[{}]}}",
        options.signed,
        results.join(",")
    );
}

fn cmd_verify(options: &Options) -> Result<(), String> {
    let width = options.width("verify");
    let engine: sdlc::sim::Engine = options.engine.as_deref().unwrap_or("compiled").parse()?;
    let samples = options.samples.unwrap_or(2048);
    let model = build_model(options, width)?;
    let schemes: &[ReductionScheme] = if options.scheme_all {
        &[
            ReductionScheme::RippleRows,
            ReductionScheme::CarrySaveArray,
            ReductionScheme::Wallace,
            ReductionScheme::Dadda,
        ]
    } else {
        core::slice::from_ref(&options.scheme)
    };
    // The compiled engine packs 512 vectors per netlist sweep and shards
    // rows across cores, and both domains batch the model side through a
    // bit-sliced twin 64 pairs per call, which lifts the practical
    // exhaustive ceiling from 8 (scalar) to 12 bits unsigned. Signed
    // checks keep the 10-bit ceiling that `perfbench/trace` mirrors.
    // Above the ceiling, seeded sampling plus the corner patterns.
    let cutoff = match (engine, options.signed) {
        (sdlc::sim::Engine::Scalar, _) => 8,
        (sdlc::sim::Engine::Compiled, true) => 10,
        (sdlc::sim::Engine::Compiled, false) => 12,
    };
    let sweep = if width <= cutoff {
        Sweep::Exhaustive
    } else {
        Sweep::Sampled {
            samples,
            seed: 0x5D1C,
        }
    };
    let exhaustive = sweep == Sweep::Exhaustive;
    let coverage = sweep.coverage(width, options.signed);
    let mut records = Vec::new();
    for &scheme in schemes {
        let mut netlist = sdlc_multiplier(&model, scheme);
        if options.signed {
            netlist = sdlc::core::circuits::signed_multiplier(&netlist, width);
        }
        if !options.json {
            println!(
                "verifying {} against its functional model (engine {engine})",
                netlist.name()
            );
        }
        // The bit-sliced twins stop at 32 bits; only exhaustive sweeps,
        // all narrower than that, read blocks.
        let outcome: Result<(), String> = if options.signed {
            let signed = SignMagnitude::new(model.clone());
            let batch = exhaustive.then(|| signed.batch_model());
            let reference = Batched {
                pair: |a, b| signed.multiply_signed(a, b),
                block: |a, b0, out: &mut [u64; LANES]| {
                    let batch = batch.as_ref().expect("built for exhaustive sweeps");
                    exhaustive_block_signed(batch, a, b0, out);
                },
            };
            check_signed(&netlist, width, sweep, reference, engine).map_err(|e| e.to_string())
        } else {
            let batch = exhaustive.then(|| model.batch_model());
            let reference = Batched {
                pair: |a, b| model.multiply(a, b),
                block: |a, b0, out: &mut [u64; LANES]| {
                    let batch = batch.as_ref().expect("built for exhaustive sweeps");
                    exhaustive_block(batch, a, b0, out);
                },
            };
            check(&netlist, width, sweep, reference, engine).map_err(|e| e.to_string())
        };
        if !options.json {
            match &outcome {
                Ok(()) => println!("OK: netlist matches model ({coverage})"),
                Err(e) => return Err(format!("equivalence FAILED: {e}")),
            }
        }
        records.push(VerifyRecord {
            design: netlist.name().to_string(),
            scheme: scheme.tag(),
            coverage: coverage.clone(),
            outcome: outcome.map(|()| sweep.pairs(width, options.signed)),
        });
    }
    if options.json {
        render_verify_json(options, width, engine.tag(), &records);
        if let Some(failed) = records.iter().find(|r| r.outcome.is_err()) {
            return Err(format!(
                "equivalence FAILED ({}): {}",
                failed.design,
                failed.outcome.as_ref().unwrap_err()
            ));
        }
    }
    Ok(())
}

fn cmd_sobel(options: &Options) -> Result<(), String> {
    reject_engine(options, "sobel")?;
    reject_verify_flags(options, "sobel")?;
    let width = options.width("sobel");
    if !(10..=32).contains(&width) {
        return Err(format!(
            "sobel needs a signed multiplier of 10..=32 bits \
             (pixel×tap products through the i64 fast path), got --width {width}"
        ));
    }
    let model = build_model(options, width)?;
    let approx = SignMagnitude::new(model);
    let exact =
        SignMagnitude::new(sdlc::core::AccurateMultiplier::new(width).map_err(|e| e.to_string())?);
    let (w, h) = options.size;
    let image = scenes::blobs(w, h, 7);
    println!(
        "gradient magnitude {}×{} through {} (reference {})",
        w,
        h,
        approx.name(),
        exact.name()
    );
    let sobel_ref = sobel_magnitude(&image, &exact);
    let sobel_approx = sobel_magnitude(&image, &approx);
    let scharr_ref = scharr_magnitude(&image, &exact);
    let scharr_approx = scharr_magnitude(&image, &approx);
    // Sobel's ±1/±2 taps are powers of two — exact through SDLC (∞ dB);
    // Scharr's ±3/±10 taps collide in compressed clusters.
    println!("  sobel  PSNR {:>8.2} dB", psnr(&sobel_ref, &sobel_approx));
    println!(
        "  scharr PSNR {:>8.2} dB",
        psnr(&scharr_ref, &scharr_approx)
    );
    if let Some(dir) = &options.out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let save = |img: &sdlc::imgproc::GrayImage, name: &str| -> Result<(), String> {
            let path = dir.join(name);
            let mut file = std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            write_pgm(img, &mut file).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        save(&image, "input.pgm")?;
        save(&sobel_ref, "sobel_exact.pgm")?;
        save(&sobel_approx, &format!("sobel_{}.pgm", approx.name()))?;
        save(&scharr_ref, "scharr_exact.pgm")?;
        save(&scharr_approx, &format!("scharr_{}.pgm", approx.name()))?;
        println!(
            "wrote input + exact/approximate edge maps to {}",
            dir.display()
        );
    }
    Ok(())
}

fn load_library(options: &Options) -> Result<Library, String> {
    match &options.lib {
        None => Ok(Library::generic_90nm()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Library::from_text(&text).map_err(|e| format!("parsing {path}: {e}"))
        }
    }
}

fn cmd_synth(options: &Options) -> Result<(), String> {
    reject_engine(options, "synth")?;
    reject_verify_flags(options, "synth")?;
    let width = options.width("synth");
    let model = build_model(options, width)?;
    let lib = load_library(options)?;
    let analysis = AnalysisOptions::default();
    let accurate = accurate_multiplier(width, options.scheme).map_err(|e| e.to_string())?;
    let approx = sdlc_multiplier(&model, options.scheme);
    let (accurate, approx) = if options.signed {
        (
            sdlc::core::circuits::signed_multiplier(&accurate, width),
            sdlc::core::circuits::signed_multiplier(&approx, width),
        )
    } else {
        (accurate, approx)
    };
    let exact = analyze(accurate, &lib, &analysis);
    let report = analyze(approx, &lib, &analysis);
    print!("{exact}");
    print!("{report}");
    println!("savings vs accurate: {}", report.reduction_vs(&exact));
    Ok(())
}

fn cmd_verilog(options: &Options) -> Result<(), String> {
    reject_engine(options, "verilog")?;
    reject_verify_flags(options, "verilog")?;
    let width = options.width("verilog");
    let model = build_model(options, width)?;
    let mut netlist = sdlc_multiplier(&model, options.scheme);
    if options.signed {
        netlist = sdlc::core::circuits::signed_multiplier(&netlist, width);
    }
    passes::optimize(&mut netlist);
    let text = to_verilog(&netlist);
    match &options.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} cells)", netlist.cell_count());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_dot(options: &Options) -> Result<(), String> {
    reject_engine(options, "dot")?;
    reject_verify_flags(options, "dot")?;
    if options.signed {
        return Err(
            "dot draws the unsigned partial-product matrix; the signed wrapper adds no dots \
             (drop --signed)"
                .into(),
        );
    }
    let model = build_model(options, options.width("dot"))?;
    let matrix = ReducedMatrix::from_multiplier(&model);
    println!(
        "{} — {} rows, critical column {}, {} compressed bits",
        model.name(),
        matrix.rows().len(),
        matrix.critical_column_height(),
        matrix.compressed_bit_count()
    );
    print!("{matrix}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match parse_options(&args[1..]) {
        Err(e) => Err(e),
        Ok(options) => match command.as_str() {
            "errors" => cmd_errors(&options),
            "verify" => cmd_verify(&options),
            "sobel" => cmd_sobel(&options),
            "synth" => cmd_synth(&options),
            "verilog" => cmd_verilog(&options),
            "dot" => cmd_dot(&options),
            "help" | "--help" | "-h" => {
                print!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command {other:?}; try `sdlc-cli help`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
