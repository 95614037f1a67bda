#!/usr/bin/env python3
"""sdlc-cli command benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload synth_array --seed 1 --seconds 40 --trace 0

It builds the release `sdlc-cli` binary and the traced replay harness in
`perfbench/trace` (into `$CARGO_TARGET_DIR`, default `.bench_build`), then:

* `--trace 0` runs the workload's commands as child processes, one at a
  time, in two-pass cycles for about `--seconds`, checks every output, and
  prints the end-to-end metrics;
* `--trace 1` runs one checked pass of the CLI, each command followed by
  its in-process replay through the traced harness, and prints the
  per-layer metrics computed from the replay's spans.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md for the
workloads, the metrics and how they relate.
"""

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
import tomllib
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CLI = os.path.join(TARGET, "release", "sdlc-cli")
TRACE = os.path.join(TARGET, "release", "sdlc-perfbench-trace")
NPROC = len(os.sched_getaffinity(0))
CLK_TCK = os.sysconf("SC_CLK_TCK")
SETUP_REPS = 3

VARIANTS = ["prog", "ceiltails", "pairtails", "fullor"]
TABLE2 = "errors --width 12 --depth 2 --engine bitsliced"

# commands: the pass; fixed: commands whose variant is never changed;
# setup: the cheapest invocation of each distinct subcommand (warm-up).
WORKLOADS = {
    "synth_array": {
        "commands": [
            "synth --width 32 --depth 4",
            "synth --width 64 --depth 4",
            "synth --width 64 --depth 4 --scheme csa",
            "synth --width 32 --depth 4 --signed",
        ],
        "fixed": [],
        "setup": ["synth --width 32 --depth 4"],
    },
    "synth_tree": {
        "commands": [
            "synth --width 64 --depth 4 --scheme wallace",
            "synth --width 64 --depth 4 --scheme dadda --signed",
            "synth --width 128 --depth 4 --scheme wallace",
            "synth --width 128 --depth 4 --scheme dadda",
        ],
        "fixed": [],
        "setup": ["synth --width 64 --depth 4 --scheme wallace"],
    },
    "functional": {
        "commands": [
            TABLE2,
            "errors --width 12 --depth 4 --engine bitsliced",
            "errors --width 14 --engine bitsliced",
            "errors --width 12 --signed --engine bitsliced",
            "errors --width 32 --engine bitsliced",
            "verify --width 12 --scheme all --json",
            "verify --width 10 --signed --json",
            "verify --width 64 --depth 4 --scheme all --json",
            "sobel --depth 3 --size 400,400",
        ],
        "fixed": [TABLE2],
        "setup": [TABLE2, "verify --width 10 --signed --json", "sobel --depth 3 --size 400,400"],
    },
}


def log(*parts):
    print(*parts, flush=True)


def plan(workload, seed):
    """The run's commands in seed-shuffled order, each with the variant the
    seed deals it for the first pass (None for a fixed command). Variants
    come from shuffled decks of all four, so each is dealt equally often."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    free = [c for c in spec["commands"] if c not in spec["fixed"]]
    deck = []
    while len(deck) < len(free):
        block = VARIANTS[:]
        rng.shuffle(block)
        deck += block
    variant = dict(zip(free, deck))
    order = spec["commands"][:]
    rng.shuffle(order)
    return [(c, variant.get(c)) for c in order]


def with_variant(command, variant, step=0):
    """The command line with `variant` moved `step` places along VARIANTS."""
    if variant is None:
        return command
    return f"{command} --variant {VARIANTS[(VARIANTS.index(variant) + step) % len(VARIANTS)]}"


def pass_commands(planned, step):
    """The command lines of a pass whose variants sit `step` places along
    VARIANTS from the seed's deal."""
    return [with_variant(c, v, step) for c, v in planned]


# A cycle is two passes: the seed's deal, then every variant two places on
# (prog <-> pairtails, ceiltails <-> fullor). Variants differ in cost by up
# to 20%; pairing the dearest (pairtails) with the cheapest keeps a cycle's
# work nearly the same for every seed at half the cost of all four.
CYCLE = (0, 2)


def build():
    """Builds the CLI and the traced harness; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "sdlc-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "trace", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def run_cli(command):
    """Runs one sdlc-cli command to completion; returns its wall and CPU
    seconds, peak RSS, exit code and output."""
    start = time.perf_counter()
    proc = subprocess.Popen([CLI] + command.split(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "command": command,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "stdout": stdout.decode(errors="replace"),
        "stderr": stderr.decode(errors="replace"),
    }


# ---------------------------------------------------------------- checks

def option(command, flag, default):
    words = command.split()
    return words[words.index(flag) + 1] if flag in words else default


REPORT_RE = re.compile(r"^==== (\S+) ====\n((?:  .*\n)+)", re.M)
SAVINGS_RE = re.compile(
    r"^savings vs accurate: dyn\s+(-?[\d.]+)%\s+leak\s+(-?[\d.]+)%\s+area\s+(-?[\d.]+)%"
    r"\s+delay\s+(-?[\d.]+)%\s+energy\s+(-?[\d.]+)%$", re.M)


def check_synth(command, out):
    reports = []
    for _, body in REPORT_RE.findall(out):
        fields = dict(re.findall(r"^\s+(\w+)\s*: (-?[\d.]+)", body, re.M))
        reports.append({k: float(v) for k, v in fields.items()})
    if len(reports) != 2 or any({"area", "energy"} - r.keys() for r in reports):
        return "synth reports do not parse"
    exact, approx = reports
    if not (approx["energy"] < exact["energy"] and approx["area"] < exact["area"]):
        return f"SDLC energy/area not below accurate: {approx} vs {exact}"
    if not SAVINGS_RE.search(out):
        return "savings line missing"
    return None


METRICS_RE = re.compile(r"^MRED ([\d.]+)%\s+NMED [\d.]+\s+ER ([\d.]+)%.*\((\d+) samples(, signed)?\)$", re.M)
ANALYTIC_RE = re.compile(r"^analytic MED = ([\d.]+) \(model, no simulation; simulated ([\d.]+)\)$", re.M)


def check_errors(command, out):
    m = METRICS_RE.search(out)
    if not m:
        return "error metrics do not parse"
    width = int(option(command, "--width", "8"))
    exhaustive = int(m.group(3)) == 4 ** width
    if "--signed" in command.split():
        if not m.group(4):
            return "signed sweep not reported as signed"
        return None
    a = ANALYTIC_RE.search(out)
    if not a:
        return "analytic MED line missing"
    analytic, simulated = a.groups()
    if exhaustive and analytic != simulated:
        return f"exhaustive MED {simulated} != analytic MED {analytic}"
    if not exhaustive and abs(float(simulated) - float(analytic)) > 0.01 * float(analytic):
        return f"sampled MED {simulated} more than 1% from analytic MED {analytic}"
    return None


def check_verify(command, out):
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "verify --json output does not parse"
    results = record.get("results", [])
    expected = 4 if option(command, "--scheme", "") == "all" else 1
    if len(results) != expected:
        return f"{len(results)} verify records, expected {expected}"
    bad = [r for r in results if r.get("status") != "ok"]
    return f"verify records not ok: {bad}" if bad else None


def check_sobel(command, out):
    return None if re.search(r"^\s+sobel\s+PSNR\s+inf dB$", out, re.M) else "Sobel PSNR is not inf"


CHECKS = {"synth": check_synth, "errors": check_errors, "verify": check_verify, "sobel": check_sobel}


def check(result):
    """None if the command exited 0 and its output passes its oracle."""
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()}"
    return CHECKS[result["command"].split()[0]](result["command"], result["stdout"])


# ------------------------------------------------------ reference context

def read_repo(path):
    try:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            return f.read()
    except OSError:
        return ""


def reference_context(result):
    """Paper figures beside a command's output; printed, never gated."""
    out, command = result["stdout"], result["command"]
    if command == TABLE2:
        row = re.search(r"\(12, ([\d.]+), [\d.]+, ([\d.]+), [\d.]+\)",
                        read_repo("crates/bench/benches/table2_error_vs_width.rs"))
        m = METRICS_RE.search(out)
        if row and m:
            (p_mred, p_er), (mred, er) = map(float, row.groups()), map(float, m.groups()[:2])
            log(f"  ref Table II 12-bit d2: MRED {mred:.5f}% vs paper {p_mred}% "
                f"({(mred - p_mred) / p_mred:+.2%}), ER {er:.2f}% vs {p_er}% "
                f"({(er - p_er) / p_er:+.2%})")
    elif command.startswith("synth"):
        span = re.search(r"energy ([\d.]+)→([\d.]+)%",
                         read_repo("crates/bench/benches/fig6_savings_vs_width.rs"))
        m = SAVINGS_RE.search(out)
        if span and m:
            log(f"  energy saving {float(m[5]):5.1f}% (paper Fig. 6, d2 ripple 4→128-bit: "
                f"{span[1]}→{span[2]}%): {command}")


# ------------------------------------------------------------ provenance

SOURCE_DIRS = ["src", "crates", "tests", "examples", "vendor"]


def provenance():
    """Report-only block: what was measured, on what."""
    commit = "n/a (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, IndexError):
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    digest = hashlib.sha256()
    lines = defaultdict(int)
    files = []
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)
                      if n.endswith((".rs", ".toml"))]
    for path in ["Cargo.toml", "Cargo.lock"] + sorted(files):
        rel = os.path.relpath(path, ROOT)
        with open(os.path.join(ROOT, rel), "rb") as f:
            data = f.read()
        digest.update(rel.encode() + b"\0" + data)
        parts = rel.split(os.sep)
        if rel.endswith(".rs") and parts[0] != "vendor":
            crate = parts[1] if parts[0] == "crates" else "sdlc (root)"
            lines[crate] += data.count(b"\n")
    log(f"provenance: commit {commit}; source sha256 {digest.hexdigest()[:16]}; nproc {NPROC}; "
        f"{rustc}; release profile {profile}")
    log("  rust lines: " + ", ".join(f"{k} {v}" for k, v in sorted(lines.items()))
        + f"; total {sum(lines.values())}")


# -------------------------------------------------------------- runs

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, error):
        self.attempted += 1
        if error:
            self.failed += 1
            log(f"  FAILED {what}: {error}")


def setup(workload, planned, reps):
    """Untimed warm-up: one invocation of each distinct subcommand, with its
    first-pass variant, `reps` times. Returns the median seconds of one
    round and the results."""
    commands = [with_variant(c, v) for c, v in planned if c in WORKLOADS[workload]["setup"]]
    rounds, results = [], []
    for _ in range(reps):
        start = time.perf_counter()
        results += [run_cli(c) for c in commands]
        rounds.append(time.perf_counter() - start)
    return statistics.median(rounds), results


def run_pass(commands):
    start = time.perf_counter()
    results = [run_cli(c) for c in commands]
    return time.perf_counter() - start, results


def untraced(workload, planned, seconds, tally):
    """Setup, then whole cycles of passes while the next one is expected to
    end within `seconds` (at least one). Metrics are per-pass means over a
    cycle, medians over cycles."""
    setup_s, results = setup(workload, planned, SETUP_REPS)
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start + sum(w for w, _ in cycles[-1]) <= seconds:
        cycles.append([run_pass(pass_commands(planned, step)) for step in CYCLE])
    first = {}
    for r in results + [r for cycle in cycles for _, rs in cycle for r in rs]:
        error = check(r)
        if r["command"] not in first:
            first[r["command"]] = r["stdout"]
            if not error:
                reference_context(r)
        elif not error and r["stdout"] != first[r["command"]]:
            error = "stdout differs from its first run"
        tally.record(r["command"], error)

    def median(value):
        """Median over cycles of the per-pass mean of `value(results)`."""
        return statistics.median(statistics.fmean(value(rs) for _, rs in cycle)
                                 for cycle in cycles)

    log(f"{len(cycles)} cycles of {len(CYCLE)} passes of {len(planned)} commands; "
        "pass wall " + ", ".join(f"{w:.3f}" for cycle in cycles for w, _ in cycle) + " s")
    for family in sorted({c.split()[0] for c, _ in planned}):
        value = median(lambda rs: sum(r["wall"] for r in rs if r["command"].split()[0] == family))
        log(f"  {family}_s {value:.4f} s (command wall per pass)")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(statistics.fmean(w for w, _ in cycle) for cycle in cycles),
        "cpu_s": median(lambda rs: sum(r["cpu"] for r in rs)),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for _, rs in cycle for r in rs)
                                         for cycle in cycles),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def traced(workload, planned, seed, tally):
    """One checked CLI pass (the seed's deal), each command followed by its
    traced replay in a fresh harness process, so `cli.overhead_s` compares
    neighbours."""
    for r in setup(workload, planned, 1)[1]:
        tally.record(r["command"], check(r))
    commands = pass_commands(planned, 0)
    spans, walls = [], []
    out_dir = os.path.join(TARGET, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    for job, command in enumerate(commands):
        result = run_cli(command)
        tally.record(f"cli {command}", check(result))
        walls.append(result["wall"])
        path = os.path.join(out_dir, f"spans-{workload}-{seed}-{job}.jsonl")
        proc = subprocess.run([TRACE, "--job", str(job), "--spans", path, "--"] + command.split(),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: traced replay failed: {proc.stderr.strip()}")
        tally.record(f"traced {command}", json.loads(proc.stdout)["error"])
        offset = len(spans)
        with open(path, encoding="utf-8") as f:
            for line in f:
                s = json.loads(line)
                s["id"] += offset
                s["parent"] = None if s["parent"] is None else s["parent"] + offset
                spans.append(s)
    roots = {s["job"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == "job"}
    for job, command in enumerate(commands):
        log(f"  {command}: cli {walls[job]:.4f} s, traced root {roots.get(job, 0.0):.4f} s")
    return layer_metrics(spans, walls)


def layer_metrics(spans, cli_walls):
    """Per-layer metrics from the traced run's spans."""
    duration = {s["id"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[s["id"]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(duration[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name[name])

    def cpu(*names):
        return sum(s["cpu_ticks"] for n in names for s in by_name[n]) / CLK_TCK

    def ratio(num, den):
        return num / den if den else 0.0

    activity = busy("sim.glitch.activity")
    equiv_s = busy("sim.equiv.exhaustive") + busy("sim.equiv.sampled")
    metrics_s = busy("core.error.metrics")
    products_s = busy("core.batch.products")
    roots = {s["job"]: duration[s["id"]] for s in by_name["job"]}
    return {
        "core.circuits.generate_s": busy("core.circuits.generate"),
        "core.circuits.gates": total("core.circuits.generate", "gates"),
        "netlist.passes.optimize_s": busy("netlist.passes.optimize"),
        "netlist.passes.removed_frac": ratio(total("netlist.passes.optimize", "removed"),
                                             total("netlist.passes.optimize", "generated")),
        "synth.sta.timing_s": busy("synth.sta.timing"),
        "synth.power.power_s": busy("synth.power.power"),
        "synth.flow.self_s": sum(duration[s["id"]] - child_time[s["id"]]
                                 for s in by_name["synth.flow"]),
        "sim.glitch.program_s": busy("sim.glitch.program"),
        "sim.glitch.activity_s": activity,
        "sim.glitch.ns_per_transition": ratio(activity * 1e9,
                                              total("sim.glitch.activity", "toggles")),
        "sim.glitch.parallel_eff": ratio(cpu("sim.glitch.activity"), activity * NPROC),
        "sim.glitch.transitions_per_vector": ratio(total("sim.glitch.activity", "toggles"),
                                                   total("sim.glitch.activity", "vectors")),
        "sim.compile.compile_s": busy("sim.compile.compile"),
        "sim.compile.ops_per_gate": ratio(total("sim.compile.compile", "ops"),
                                          total("sim.compile.compile", "gates")),
        "sim.equiv.exhaustive_s": busy("sim.equiv.exhaustive"),
        "sim.equiv.sampled_s": busy("sim.equiv.sampled"),
        "sim.equiv.model_busy_s": (total("sim.equiv.exhaustive", "model_busy_ns")
                                   + total("sim.equiv.sampled", "model_busy_ns")) / 1e9,
        "sim.equiv.pairs_per_s": ratio(total("sim.equiv.exhaustive", "pairs")
                                       + total("sim.equiv.sampled", "pairs"), equiv_s),
        "sim.equiv.parallel_eff": ratio(cpu("sim.equiv.exhaustive", "sim.equiv.sampled"),
                                        equiv_s * NPROC),
        "core.batch.products_s": products_s,
        "core.error.metrics_s": metrics_s,
        "core.error.accumulate_s": metrics_s - products_s,
        "core.error.pairs_per_s": ratio(total("core.error.metrics", "pairs"), metrics_s),
        "core.error.parallel_eff": ratio(cpu("core.error.metrics"), metrics_s * NPROC),
        "imgproc.gradient_s": busy("imgproc.gradient"),
        "cli.overhead_s": sum(wall - roots.get(job, 0.0) for job, wall in enumerate(cli_walls)),
    }


def run_workload(workload, seed, seconds, trace, spec):
    """One workload, untraced or traced; returns its metrics with units and
    its tally."""
    tally = Tally()
    planned = plan(workload, seed)
    log(f"workload {workload}, seed {seed}, first pass: " + "; ".join(pass_commands(planned, 0)))
    if trace:
        values = traced(workload, planned, seed, tally)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = untraced(workload, planned, seconds, tally)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in units.items():
        log(f"{name:36s} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, tally


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="`all` runs every workload untraced and traced; "
                             "metric keys become `<workload>/<metric>`")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for needed in ["BENCHMARK.json", "Cargo.toml", "src/bin/sdlc-cli.rs", "crates"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from the repository root")
    build()
    provenance()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload == "all":
        metrics, attempted, failed = {}, 0, 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                values, tally = run_workload(workload, args.seed, args.seconds, trace, spec)
                metrics.update({f"{workload}/{name}": v for name, v in values.items()})
                attempted += tally.attempted
                failed += tally.failed
    else:
        metrics, tally = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
        attempted, failed = tally.attempted, tally.failed
    log(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
