//! Black-box tests of the `sdlc-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdlc-cli"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let output = cli().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn errors_command_reports_metrics() {
    let (stdout, _, ok) = run(&["errors", "--width", "8", "--depth", "2"]);
    assert!(ok);
    assert!(stdout.contains("sdlc8_d2"));
    assert!(stdout.contains("MRED 1.98"), "{stdout}");
    assert!(stdout.contains("ER 49.11"), "{stdout}");
    assert!(stdout.contains("analytic MED"), "{stdout}");
}

#[test]
fn errors_supports_heterogeneous_depths_and_variants() {
    let (stdout, _, ok) = run(&["errors", "--width", "8", "--depths", "4,2,2"]);
    assert!(ok);
    assert!(stdout.contains("sdlc8_dmix4_2_2"), "{stdout}");
    let (stdout, _, ok) = run(&["errors", "--width", "8", "--variant", "fullor"]);
    assert!(ok);
    assert!(stdout.contains("fullor"), "{stdout}");
}

#[test]
fn errors_supports_the_bitsliced_engine() {
    // Same published Table II numbers through the 64-lane engine.
    let (stdout, _, ok) = run(&[
        "errors",
        "--width",
        "8",
        "--depth",
        "2",
        "--engine",
        "bitsliced",
    ]);
    assert!(ok);
    assert!(stdout.contains("engine bitsliced"), "{stdout}");
    assert!(stdout.contains("MRED 1.98"), "{stdout}");
    assert!(stdout.contains("ER 49.11"), "{stdout}");
    // Explicitly selecting the default engine also works.
    let (stdout, _, ok) = run(&["errors", "--width", "8", "--engine", "scalar"]);
    assert!(ok);
    assert!(stdout.contains("engine scalar"), "{stdout}");
}

#[test]
fn errors_supports_the_signed_domain_on_both_engines() {
    // Same signed sweep through the scalar and bit-sliced engines.
    let (scalar, _, ok) = run(&["errors", "--width", "8", "--depth", "2", "--signed"]);
    assert!(ok);
    assert!(scalar.contains("signed_sdlc8_d2"), "{scalar}");
    assert!(scalar.contains("engine scalar"), "{scalar}");
    assert!(scalar.contains("samples, signed"), "{scalar}");
    assert!(scalar.contains("worst RED at ("), "{scalar}");
    let (bitsliced, _, ok) = run(&[
        "errors",
        "--width",
        "8",
        "--depth",
        "2",
        "--signed",
        "--engine",
        "bitsliced",
    ]);
    assert!(ok);
    assert!(bitsliced.contains("engine bitsliced"), "{bitsliced}");
    // Identical metrics line (bit-identical engines).
    let metrics_of = |s: &str| {
        s.lines()
            .find(|l| l.contains("MRED"))
            .map(str::to_owned)
            .expect("metrics line")
    };
    assert_eq!(metrics_of(&scalar), metrics_of(&bitsliced));
}

#[test]
fn signed_sampling_width_errors_name_the_engine_that_ran() {
    // 64-bit signed sampling is past both engines' 32-bit limit; the
    // message must name the engine the user selected.
    let (_, scalar, ok) = run(&["errors", "--width", "64", "--signed"]);
    assert!(!ok);
    assert!(scalar.contains("scalar engine"), "{scalar}");
    assert!(scalar.contains("up to 32-bit, got 64-bit"), "{scalar}");
    assert!(!scalar.contains("bit-sliced"), "{scalar}");
    let (_, bitsliced, ok) = run(&[
        "errors",
        "--width",
        "64",
        "--signed",
        "--engine",
        "bitsliced",
    ]);
    assert!(!ok);
    assert!(bitsliced.contains("bit-sliced engine"), "{bitsliced}");
}

#[test]
fn verify_checks_netlists_on_both_engines() {
    // Default engine is the compiled word-parallel sweep.
    let (stdout, _, ok) = run(&["verify", "--width", "8", "--depth", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sdlc8_d2_ripple"), "{stdout}");
    assert!(stdout.contains("engine compiled"), "{stdout}");
    assert!(
        stdout.contains("exhaustive, 65536 operand pairs"),
        "{stdout}"
    );
    assert!(stdout.contains("OK: netlist matches model"), "{stdout}");
    // Explicit engines: both values are accepted.
    for engine in ["scalar", "compiled"] {
        let (stdout, _, ok) = run(&["verify", "--width", "6", "--engine", engine]);
        assert!(ok, "{engine}: {stdout}");
        assert!(stdout.contains(&format!("engine {engine}")), "{stdout}");
    }
    // Wide designs fall back to corner + sampled coverage.
    let (stdout, _, ok) = run(&["verify", "--width", "16", "--samples", "300"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("9 corners + 300 seeded pairs"), "{stdout}");
    // Signed designs verify the sign-magnitude wrapper.
    let (stdout, _, ok) = run(&["verify", "--width", "6", "--signed", "--scheme", "dadda"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("signed_sdlc6_d2_dadda"), "{stdout}");
    assert!(stdout.contains("signed operand pairs"), "{stdout}");
}

#[test]
fn verify_sweeps_all_schemes_in_one_invocation() {
    let (stdout, _, ok) = run(&["verify", "--width", "6", "--scheme", "all"]);
    assert!(ok, "{stdout}");
    for scheme in ["ripple", "csa", "wallace", "dadda"] {
        assert!(stdout.contains(&format!("sdlc6_d2_{scheme}")), "{stdout}");
    }
    assert_eq!(stdout.matches("OK: netlist matches model").count(), 4);
    // Commands that need one concrete scheme reject the sweep.
    for command in ["synth", "verilog", "dot"] {
        let (_, stderr, ok) = run(&[command, "--width", "8", "--scheme", "all"]);
        assert!(!ok, "{command} accepted --scheme all");
        assert!(
            stderr.contains("only supported by `verify`"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn verify_emits_machine_readable_json() {
    let (stdout, _, ok) = run(&["verify", "--width", "6", "--scheme", "all", "--json"]);
    assert!(ok, "{stdout}");
    // One well-formed top-level object, one result record per scheme.
    assert!(stdout.starts_with("{\"command\":\"verify\""), "{stdout}");
    assert!(stdout.contains("\"width\":6"), "{stdout}");
    assert!(stdout.contains("\"engine\":\"compiled\""), "{stdout}");
    assert_eq!(stdout.matches("\"status\":\"ok\"").count(), 4);
    assert_eq!(stdout.matches("\"pairs\":4096").count(), 4);
    for scheme in ["ripple", "csa", "wallace", "dadda"] {
        assert!(
            stdout.contains(&format!("\"scheme\":\"{scheme}\"")),
            "{stdout}"
        );
    }
    // The human-readable chatter stays off the JSON stream.
    assert!(!stdout.contains("OK: netlist"), "{stdout}");
    // Sampled coverage reports its pair budget too.
    let (stdout, _, ok) = run(&["verify", "--width", "16", "--samples", "200", "--json"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("\"coverage\":\"sampled, 9 corners + 200 seeded pairs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"pairs\":209"), "{stdout}");
    // Signed sampling opens with 25 corner pairs, and counts them.
    let args: Vec<_> = "verify --width 16 --signed --samples 100 --json"
        .split(' ')
        .collect();
    let (stdout, _, ok) = run(&args);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("\"coverage\":\"sampled, 25 signed corners + 100 seeded pairs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"pairs\":125"), "{stdout}");
    // --json is a verify-only flag.
    let (_, stderr, ok) = run(&["errors", "--width", "8", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("only supported by `verify`"), "{stderr}");
}

#[test]
fn verify_rejects_unknown_engines() {
    let (_, stderr, ok) = run(&["verify", "--width", "8", "--engine", "warp"]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine \"warp\""), "{stderr}");
    assert!(
        stderr.contains("\"scalar\" or \"compiled\""),
        "the verify domain names its engines: {stderr}"
    );
    let (_, stderr, ok) = run(&["verify", "--engine"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
}

#[test]
fn engineless_commands_reject_the_engine_flag() {
    // Commands without an engine dimension must not silently swallow a
    // (possibly mistyped) --engine value.
    for command in ["sobel", "synth", "verilog", "dot"] {
        let (_, stderr, ok) = run(&[command, "--width", "12", "--engine", "compiled"]);
        assert!(!ok, "{command} accepted --engine");
        assert!(
            stderr.contains("not supported by") && stderr.contains(command),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn wide_sampled_runs_report_their_confidence_interval() {
    // Width ≥ 32: the 2^{2N} pair count overflows u64, which used to
    // overflow the partial-coverage shift; the CI line must print and
    // the run must not panic.
    let (stdout, _, ok) = run(&["errors", "--width", "32", "--samples", "1000"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Monte-Carlo; 95% CI"), "{stdout}");
}

#[test]
fn signed_flag_validation() {
    // --signed with a bad engine still reports the engine error.
    let (_, stderr, ok) = run(&["errors", "--signed", "--engine", "warp"]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine"), "{stderr}");
    // --signed is meaningless for dot and is rejected with guidance.
    let (_, stderr, ok) = run(&["dot", "--width", "8", "--signed"]);
    assert!(!ok);
    assert!(stderr.contains("drop --signed"), "{stderr}");
    // Width validation still fires under --signed.
    let (_, stderr, ok) = run(&["errors", "--width", "9", "--signed"]);
    assert!(!ok);
    assert!(stderr.contains("even"), "{stderr}");
}

#[test]
fn sobel_command_runs_and_validates() {
    let (stdout, _, ok) = run(&["sobel", "--depth", "3", "--size", "48,48"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("signed_sdlc16_d3"), "{stdout}");
    assert!(stdout.contains("sobel  PSNR"), "{stdout}");
    assert!(stdout.contains("scharr PSNR"), "{stdout}");
    // Narrow widths cannot hold pixel×tap products; wide ones exceed the
    // i64 fast path. Both fail as CLI errors, not panics.
    for width in ["8", "34"] {
        let (_, stderr, ok) = run(&["sobel", "--width", width]);
        assert!(!ok);
        assert!(stderr.contains("10..=32 bits"), "width {width}: {stderr}");
    }
    // Size validation.
    let (_, stderr, ok) = run(&["sobel", "--size", "64"]);
    assert!(!ok);
    assert!(stderr.contains("expected W,H"), "{stderr}");
    let (_, stderr, ok) = run(&["sobel", "--size", "0,64"]);
    assert!(!ok);
    assert!(stderr.contains("positive"), "{stderr}");
}

#[test]
fn sobel_writes_the_pgm_set() {
    let dir = std::env::temp_dir().join("sdlc_cli_sobel");
    let _ = std::fs::remove_dir_all(&dir);
    let (stdout, _, ok) = run(&["sobel", "--size", "32,32", "--out", dir.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    for name in [
        "input.pgm",
        "sobel_exact.pgm",
        "sobel_signed_sdlc16_d2.pgm",
        "scharr_exact.pgm",
        "scharr_signed_sdlc16_d2.pgm",
    ] {
        assert!(dir.join(name).exists(), "missing {name}");
    }
}

#[test]
fn verilog_exports_the_signed_wrapper() {
    let dir = std::env::temp_dir().join("sdlc_cli_signed_v");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("signed.v");
    let path_str = path.to_str().unwrap();
    let (_, _, ok) = run(&[
        "verilog", "--width", "4", "--depth", "2", "--signed", "--out", path_str,
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("module signed_sdlc4_d2_ripple"), "{text}");
}

#[test]
fn unknown_engine_is_rejected() {
    let (_, stderr, ok) = run(&["errors", "--width", "8", "--engine", "turbo"]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine"), "{stderr}");
    assert!(stderr.contains("turbo"), "{stderr}");
    let (_, stderr, ok) = run(&["errors", "--engine"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
}

#[test]
fn dot_command_draws_the_matrix() {
    let (stdout, _, ok) = run(&["dot", "--width", "8", "--depth", "2"]);
    assert!(ok);
    assert!(stdout.contains("4 rows, critical column 4"), "{stdout}");
    assert!(stdout.contains('o') && stdout.contains('·'));
}

#[test]
fn verilog_command_writes_a_module() {
    let dir = std::env::temp_dir().join("sdlc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.v");
    let path_str = path.to_str().unwrap();
    let (_, _, ok) = run(&["verilog", "--width", "4", "--depth", "2", "--out", path_str]);
    assert!(ok);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("module sdlc4_d2_ripple"));
    assert!(text.contains("endmodule"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = run(&["errors", "--width", "9"]);
    assert!(!ok);
    assert!(stderr.contains("even"), "{stderr}");
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
    let (_, stderr, ok) = run(&["errors", "--width"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"), "{stderr}");
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("COMMANDS"));
    assert!(stdout.contains("--depths"));
}

#[test]
fn synth_accepts_a_custom_library_file() {
    let dir = std::env::temp_dir().join("sdlc_cli_lib");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corner.lib");
    // Export the built-in 65nm corner through the text format.
    std::fs::write(&path, sdlc::techlib::Library::generic_65nm().to_text()).unwrap();
    let (stdout, _, ok) = run(&[
        "synth",
        "--width",
        "8",
        "--depth",
        "2",
        "--lib",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("savings vs accurate"), "{stdout}");
    let (_, stderr, ok) = run(&["synth", "--lib", "/nonexistent.lib"]);
    assert!(!ok);
    assert!(stderr.contains("reading"), "{stderr}");
}
