#!/usr/bin/env python3
"""idxsel end-to-end benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) from the
sources of the checkout it sits in, runs one workload, checks the binary's
correctness verdict and prints the metrics. Run it from the repository root:

    python3 perfbench/run.py --workload erp_h6 --seed 42 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones. The
exit code is 0 only when every correctness check passed. See
perfbench/README.md for the workloads and the meaning of every metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("erp_h6", "ex1_advisor", "serve_drift")

# Environment variables that change the library's defaults; the benchmark
# measures the defaults, so they are removed from the binary's environment.
TUNING_VARIABLES = (
    "IDXSEL_SHARDS", "IDXSEL_THREADS", "IDXSEL_KERNEL", "IDXSEL_FORCE_SCALAR",
    "IDXSEL_SIMD_RELAXED", "IDXSEL_AUDIT", "IDXSEL_JOURNAL", "IDXSEL_OBS",
)

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the checkout's build directory when set.
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    cache = out / "CMakeCache.txt"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "idxsel_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return out / "idxsel_perfbench"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise RuntimeError(f"only {n} latency samples; need at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(raw):
    # On a shared host (measured on a 4-vCPU VM), other guests slow every
    # request by 20-40 % for stretches of seconds, so medians and tails of
    # the same code move between runs by as much. Every request type does
    # fixed work, so its quickest repeat is the steadiest measure of it.
    by_type = raw["latency_ms"]
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "latency_min_ms": (geomean([min(v) for v in by_type.values()]), "ms"),
        "requests_per_s": (raw["requests_per_cycle"] / min(raw["cycle_s"]),
                           "1/s"),
        "whatif_calls": (raw["whatif_calls"], "count"),
        "cost_ratio": (geomean(raw["cost_ratios"]), "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = {"latency_samples": {k: len(v) for k, v in by_type.items()},
             "setup_repeats": len(raw["setup_s"])}
    return metrics, notes


def per_layer(raw):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = dict(raw["layers"])
    pooled = [v for values in raw["latency_ms"].values() for v in values]
    layers["e2e.latency_p50_ms"] = statistics.median(pooled)
    layers["e2e.latency_tail_ms"], tail_pct = tail(pooled)
    # A layer the workload does not exercise reports 0.
    return ({name: (layers.get(name, 0.0), unit)
             for name, unit in units.items()},
            {"latency_samples": len(pooled),
             "latency_tail_percentile": round(tail_pct, 2)})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"perfbench: no idxsel sources under {ROOT / 'src'}")
        return 2

    env = dict(os.environ)
    cleared = [name for name in TUNING_VARIABLES if env.pop(name, None)]
    if cleared:
        log("perfbench: cleared " + ", ".join(cleared) +
            " (the benchmark measures the defaults)")

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {err}")
        return 2

    state = out / "state" / args.workload
    shutil.rmtree(state, ignore_errors=True)
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--state-dir", str(state)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: the benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"perfbench: the benchmark binary failed with exit code "
            f"{done.returncode}")
        return 2
    raw = json.loads(lines[-1])

    correct = done.returncode == 0 and raw["failed"] == 0
    try:
        metrics, notes = (per_layer if args.trace else end_to_end)(raw)
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 2
    for violation in raw["violations"]:
        log("perfbench: check failed: " + violation)
    info = dict(raw["info"])
    info.update(notes)
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, git_sha=git_sha(),
                cleared_env=cleared,
                failed_share=raw["failed"] / max(1, raw["attempted"]))
    print("# run: " + json.dumps(info, sort_keys=True))
    if args.trace:
        print("# attribution: " + raw["ledger"])
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
