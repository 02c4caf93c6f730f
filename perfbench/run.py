#!/usr/bin/env python3
"""Benchmark of the time-protection simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (the repository's libraries plus the perfbench harness) in
Release mode under .bench_build/, runs one workload, checks every recorded
cell against perfbench/reference.json and prints the metrics. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.

Every workload is a closed batch: one process, the quick grid, one host
thread, taint off, fixed rounds, no fault injection. Every cell builds its
own machine, so its caches start empty; fig7 warms 1/8 of its accesses
before it measures.
  probe_channels  fig3_kernel_channel + table3_intra_core, 45 MI cells
  switch_cost     table6_switch_cost, 27 domain-switch cost cells
  splash          fig7_splash_colouring + table8_timeshared, 242 Splash-2 cells

The seed sets the order the cells run in (seed 0 keeps registry order). The
grid seeds are always the registered ones, because the reference exists only
for them. switch_cost is a single cost scenario whose body fixes its cell
order, so the seed does not change it.

--trace 0 measures passes over the workload for --seconds and reports the
end-to-end metrics (END_TO_END). --trace 1 makes one untraced pass, one
traced pass and a traced replay A/B (each cell or cost scenario with the
batch-replay memo on and with TP_NO_REPLAY=1, back to back), then the layer
probes, and reports the per-layer metrics (PER_LAYER). Both check every pass.

`failed` counts cells that failed, timed out or measured nothing (an MI cell
with no samples, a cost cell whose every metric is 0); each is named on
stdout. The model has not been checked against real hardware, and the
paper's numbers exist only as prose (ChannelSpec.paper), so no error figure
is reported.

The benchmark's own tests: python3 -m unittest discover -s perfbench
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench"
REFERENCE = ROOT / "perfbench" / "reference.json"

SETUP_LAUNCHES = 31
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # after the build; a run must end within 180 s

# Untraced passes (--trace 0).
END_TO_END = {
    "wall_s": "s",              # median host time of one pass over the cells
    "sim_maccess_per_s": "M/s",  # simulated memory accesses per host second
    "setup_s": "s",             # median of launches: process start to first cell
    "peak_rss_mib": "MiB",      # peak resident set of the harness
}

# The traced run (--trace 1). Span times come from the traced pass, whose
# wall is the base of every fraction; attacks.shard_s and mi.leakage_s add
# the fixed MI probe cell every traced run makes, so they are measured on
# the cost workloads too.
PER_LAYER = {
    "runner.cells": "count",
    "runner.shards": "count",
    "runner.self_s": "s",                 # pass wall outside shard, leakage and cost cells
    "runner.max_cell_frac": "ratio",      # largest cell's share of the pass
    "attacks.shard_s": "s",               # in spec.cell_shard
    "attacks.samples": "count",           # observations over the MI cells
    "attacks.empty_cells": "count",       # MI cells with no samples
    "scenarios.cell_s": "s",              # sum of the cells' recorded wall_ns
    "scenarios.unmeasured_cells": "count",  # cost cells whose every metric is 0
    "core.setup_s": "s",                  # set-up constructors, once per construction
    "core.setup_frac": "ratio",
    "hw.sim_accesses": "count",
    "hw.sim_branches": "count",
    "hw.ns_per_access": "ns",             # shard and cost-spec time per simulated access
    "hw.replay_saved_frac": "ratio",      # 1 - (memo on) / (TP_NO_REPLAY=1), item by item
    "mi.leakage_s": "s",                  # in mi::TestLeakage
    "mi.frac": "ratio",
    "trace.overhead_frac": "ratio",       # (traced - untraced) / untraced pass wall
}
# Per-call probes on machines the harness builds (layer_probes.hpp).
for _platform in ("haswell", "sabre"):
    for _probe in ("hw.access_ns.l1_hit", "hw.access_ns.llc_hit", "hw.access_ns.dram",
                   "hw.batch_ns.live", "hw.batch_ns.replay", "hw.memop_batch_ns",
                   "hw.back_invalidate_ns"):
        PER_LAYER["%s.%s" % (_probe, _platform)] = "ns"
    for _probe in ("kernel.on_core_flush_host_us", "kernel.full_flush_host_us"):
        PER_LAYER["%s.%s" % (_probe, _platform)] = "us"

# Knobs that change what a workload simulates or where it records.
SCRUBBED_ENV = ("TP_TAINT", "TP_INJECT", "TP_ADAPTIVE", "TP_ADAPTIVE_SIGNIFICANCE",
                "TP_CELL_BUDGET_MS", "TP_NO_REPLAY", "TP_BENCH_LABEL", "TP_BENCH_JSON")


class BenchError(Exception):
    pass


def say(text):
    print("perfbench: " + text, flush=True)


def run_process(cmd, timeout, env=None, log=None):
    """Runs cmd in its own process group; kills the group on timeout.
    Returns stdout (or None when it went to `log`)."""
    with subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env,
                          stdout=log if log else subprocess.PIPE,
                          stderr=log if log else None, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (Path(str(cmd[0])).name, proc.returncode))
    return out


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            if not ((BUILD_DIR / "build.ninja").exists() or (BUILD_DIR / "Makefile").exists()):
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                run_process(["cmake", "-S", ROOT / "perfbench", "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=Release"] + generator,
                            deadline - time.monotonic(), env=env, log=log)
            jobs = str(min(4, os.cpu_count() or 1))
            run_process(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                        deadline - time.monotonic(), env=env, log=log)
        except (BenchError, subprocess.TimeoutExpired, OSError) as e:
            log.flush()
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise BenchError("build failed (%s); end of %s:\n%s" % (e, log_path, tail))


def harness_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TP_QUICK"] = "1"
    env["TP_THREADS"] = "1"
    return env


def harness_lines(args, timeout):
    out = run_process([HARNESS] + args, timeout, env=harness_env())
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def source_digest():
    """sha256 over the sources the build reads, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(info):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=20).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha or None,
        "source_sha256": source_digest(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"],
        "host_cpus": os.cpu_count(),
        "tp_threads": 1,
    }


def measure_setup(workload, seed, deadline):
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic_ns()
        lines = harness_lines(["setup", "--workload", workload, "--seed", seed],
                              deadline - time.monotonic())
        samples.append((lines[-1]["ready_ns"] - t0) / 1e9)
    return statistics.median(samples)


def check_passes(passes, reference, benches):
    """Checks every pass's records against the reference; returns (correct,
    cells attempted, cells failed, records of each pass), counted over all
    passes."""
    correct = True
    attempted = failed = 0
    pass_records = []
    for p in passes:
        records = check.load_records(p["records"])
        pass_records.append(records)
        problems = check.compare(reference, records, benches)
        for problem in problems[:20]:
            say("pass %d: output differs: %s" % (p["pass"], problem))
        if len(problems) > 20:
            say("pass %d: ... %d differences in all" % (p["pass"], len(problems)))
        correct = correct and not problems
        attempted += len(records)
        failed += len(check.failed_cells(records))
    sims = {(p["sim_accesses"], p["sim_branches"]) for p in passes}
    if len(sims) != 1:
        say("passes simulated different work: %s" % sorted(sims))
        correct = False
    return correct, attempted, failed, pass_records


def end_to_end(passes, lines, setup_s):
    walls = [p["wall_ns"] / 1e9 for p in passes]
    rates = [p["sim_accesses"] / (p["wall_ns"] / 1e9) / 1e6 for p in passes]
    rss = next(line for line in lines if line["kind"] == "rss")
    return {
        "wall_s": statistics.median(walls),
        "sim_maccess_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mib": rss["peak_rss_kib"] / 1024.0,
    }


def per_layer(passes, pass_records, lines):
    untraced, traced, replay_on, replay_off = passes
    records = pass_records[1]
    probe = next(line for line in lines if line["kind"] == "probe_cell")
    setup = next(line for line in lines if line["kind"] == "setup_cells")
    probes = next(line for line in lines if line["kind"] == "layer_probes")

    for bench, cells in setup["cells"].items():
        recorded = {r["cell"] for r in records if r["bench"] == bench}
        if set(cells) != recorded or len(cells) != len(recorded):
            raise BenchError("set-up probe cells of %s differ from its recorded cells" % bench)

    def sim_ns(p):
        return p["shard_ns"] + p["cost_spec_ns"]

    wall = traced["wall_ns"]
    cost_cells_ns = sum(r["wall_ns"] for r in records if "mi_bits" not in r)
    mi_cells = [r for r in records if "mi_bits" in r]
    leak_ns = traced["leak_ns"] + probe["leak_ns"]
    metrics = {
        "runner.cells": len(records),
        "runner.shards": sum(r["shards"] for r in records),
        "runner.self_s": (wall - traced["shard_ns"] - traced["leak_ns"] - cost_cells_ns) / 1e9,
        "runner.max_cell_frac": max(r["wall_ns"] for r in records) / wall,
        "attacks.shard_s": (traced["shard_ns"] + probe["shard_ns"]) / 1e9,
        "attacks.samples": sum(r["samples"] for r in mi_cells),
        "attacks.empty_cells": sum(1 for r in mi_cells if r["samples"] == 0),
        "scenarios.cell_s": sum(r["wall_ns"] for r in records) / 1e9,
        "scenarios.unmeasured_cells": sum(
            1 for r in records if r.get("metrics") and not any(r["metrics"].values())),
        "core.setup_s": setup["setup_ns"] / 1e9,
        "core.setup_frac": setup["setup_ns"] / wall,
        "hw.sim_accesses": traced["sim_accesses"],
        "hw.sim_branches": traced["sim_branches"],
        "hw.ns_per_access": sim_ns(traced) / traced["sim_accesses"],
        "hw.replay_saved_frac": 1.0 - sim_ns(replay_on) / sim_ns(replay_off),
        "mi.leakage_s": leak_ns / 1e9,
        "mi.frac": leak_ns / wall,
        "trace.overhead_frac": (wall - untraced["wall_ns"]) / untraced["wall_ns"],
    }
    for name in PER_LAYER:
        if name in probes:
            metrics[name] = probes[name]
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    info = harness_lines(["info"], deadline - time.monotonic())[-1]
    if args.workload not in info["workloads"]:
        raise BenchError("unknown workload %r; workloads: %s"
                         % (args.workload, ", ".join(info["workloads"])))
    if not info["timing_build"]:
        raise BenchError("refusing to report timings from a %s build (flags %r)"
                         % (info["build_type"], info["cxx_flags"]))
    say("provenance " + json.dumps(provenance(info), sort_keys=True))
    benches = set(info["workloads"][args.workload])
    reference = check.load_reference(REFERENCE)

    seed = str(args.seed)
    records_dir = ROOT / ".bench_build" / "runs" / ("%d-%d" % (os.getpid(), time.time_ns()))
    records_dir.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", seed, "--records", records_dir]
        if args.trace:
            lines = harness_lines(["trace"] + common, deadline - time.monotonic())
        else:
            lines = harness_lines(["run"] + common + ["--seconds", str(args.seconds)],
                                  deadline - time.monotonic())
            setup_s = measure_setup(args.workload, seed, deadline)
        passes = [line for line in lines if line["kind"] == "pass"]
        correct, attempted, failed, pass_records = check_passes(passes, reference, benches)
        for p in passes:
            say("pass %d (%s): %.3f s, %d simulated accesses"
                % (p["pass"], p["label"], p["wall_ns"] / 1e9, p["sim_accesses"]))
        cells = len(pass_records[-1])
        degenerate = check.failed_cells(pass_records[-1])
        say("failed_frac %d/%d per pass" % (len(degenerate), cells))
        for bench, cell, reason in degenerate:
            say("  failed cell: %s %r (%s)" % (bench, cell, reason))
        say("output check: %s over %d passes of %d cells"
            % ("all cells match the reference" if correct else "FAILED", len(passes), cells))
        if args.trace:
            values = per_layer(passes, pass_records, lines)
            units = PER_LAYER
        else:
            values = end_to_end(passes, lines, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(records_dir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        sys.exit(1)
