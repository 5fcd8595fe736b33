#!/usr/bin/env python3
"""fibrecheck benchmark: measure one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Every measurement happens in a fresh
child process (perfbench/child.py), one child at a time, so the program is
built from the checkout's src/ and nothing is shared between samples.

--trace 0 reports the end-to-end metrics: one child per pass over the
workload's problems until --seconds are used (at least MIN_PASSES passes),
with SETUP_PROBES set-up-only children spread over the run.  --trace 1 runs
one untraced pass and TRACED_PASSES traced passes and reports the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it list every metric with its unit, the fingerprints and the host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 24
MIN_PASSES = 2
TRACED_PASSES = 2
RUN_LIMIT_S = 170  # every run must end well inside three minutes

# Layer spans whose calls must be nonzero (fire) or zero (silent) per workload;
# a wrapper that misses a binding shows up here as a silent span.
SPAN_EXPECTATIONS = {
    "witness": {
        "fire": ("verticality.verify", "verticality.witness", "idealops.radical_member", "groebner.buchberger"),
        "silent": ("groebner.module_buchberger", "idealops.module_saturate"),
    },
    "gallery": {
        "fire": (
            "cli.parse_problem",
            "cli.render_report",
            "power.build",
            "groebner.module_buchberger",
            "idealops.module_saturate",
            "verticality.verify",
        ),
        "silent": (),
    },
}

# Units of the counts that must repeat exactly between two traced passes.
DETERMINISTIC_UNITS = ("count", "bits")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "cpu": cpu,
        "reference_ms": reference_ms(),
    }


def reference_ms() -> float:
    """Fastest of five runs of a fixed pure-Python loop: a yardstick of host
    speed at the start of the run, so results taken at different times can be
    told apart from a change in the program."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    launched = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--launched", repr(launched),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} ran past the run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} child for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def check_answers(samples: list) -> tuple:
    """attempted, failed, problems: per-pass failures and fingerprint drift."""
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    problems = [f for s in samples for f in s["failures"]]
    if len({(s["fingerprint"], s["verdict_fingerprint"]) for s in samples}) > 1:
        problems.append("fingerprints differ between passes of the same input")
    return attempted, failed, problems


def timing_run(workload: str, seed: int, seconds: float, limit: float) -> tuple:
    start = time.monotonic()
    measure_until = start + seconds
    probes, passes = [], []

    def probe_until(count):
        while len(probes) < count:
            probes.append(child(workload, seed, "setup", limit))

    # Set-up probes are spread over the run, so a slow phase of the host
    # cannot hold all of them.
    while len(passes) < MIN_PASSES or (
        time.monotonic() + statistics.median(p["wall_s"] + p["setup_s"] for p in passes) <= measure_until
    ):
        probe_until(max(1, math.ceil(SETUP_PROBES * (time.monotonic() - start) / seconds)))
        passes.append(child(workload, seed, "time", limit))
    probe_until(SETUP_PROBES)
    attempted, failed, problems = check_answers(passes)
    # The host only ever slows a sample down, in bursts shorter than a second
    # and phases of tens of seconds, so each problem's fastest time over the
    # passes is its least disturbed cost; their sum is the set's wall time.
    metrics = {
        "wall_s": (sum(min(times) for times in zip(*(p["case_s"] for p in passes))), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes + passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    details = {
        "fail_share": failed / attempted,
        "passes": len(passes),
        "wall_s_samples": [p["wall_s"] for p in passes],
        "case_s_samples": [p["case_s"] for p in passes],
        "setup_s_samples": [p["setup_s"] for p in probes + passes],
        "fingerprint": passes[0]["fingerprint"],
        "verdict_fingerprint": passes[0]["verdict_fingerprint"],
    }
    return metrics, attempted, failed, problems, details


def trace_run(workload: str, seed: int, limit: float) -> tuple:
    plain = child(workload, seed, "time", limit)
    traced = [child(workload, seed, "trace", limit) for _ in range(TRACED_PASSES)]
    attempted, failed, problems = check_answers([plain] + traced)
    layers = [t["layers"] for t in traced]
    first = layers[0]
    for name, (value, unit) in first.items():
        if unit in DETERMINISTIC_UNITS and any(other[name][0] != value for other in layers[1:]):
            problems.append(f"{name} differs between traced passes")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "ms":
            value = statistics.median(other[name][0] for other in layers)
        metrics[name] = (value, unit)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace_overhead"] = (traced_wall / plain["wall_s"] - 1, "share")
    metrics["groebner.reduction_steps_per_s"] = (
        metrics["groebner.reduction_steps"][0] / plain["wall_s"],
        "1/s",
    )
    expect = SPAN_EXPECTATIONS[workload]
    for span in expect["fire"]:
        if not metrics[f"{span}.calls"][0]:
            problems.append(f"span {span} never fired")
    for span in expect["silent"]:
        if metrics[f"{span}.calls"][0]:
            problems.append(f"span {span} fired but should not")
    details = {
        "fail_share": failed / attempted,
        "fingerprint": plain["fingerprint"],
        "verdict_fingerprint": plain["verdict_fingerprint"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": [t["wall_s"] for t in traced],
    }
    return metrics, attempted, failed, problems, details


def measure(workload: str, args, env: dict) -> tuple:
    """Run one workload, print its metric table and details; (correct, attempted, failed, metrics)."""
    limit = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        metrics, attempted, failed, problems, details = trace_run(workload, args.seed, limit)
    else:
        metrics, attempted, failed, problems, details = timing_run(workload, args.seed, args.seconds, limit)
    for name, (value, unit) in metrics.items():
        print(f"{workload:10s} {name:45s} {value:>16.6g} {unit}")
    print(f"{workload:10s} {'fail_share':45s} {details['fail_share']:>16.6g} share ({failed}/{attempted} checks)")
    for problem in problems:
        print(f"MISMATCH {workload}: {problem}")
    print(json.dumps({"workload": workload, "seed": args.seed, "env": env, **details}))
    return not problems and failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn (metrics then carry a workload prefix)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fibrecheck" / "__init__.py").is_file():
        print(f"perfbench: no fibrecheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, tried, bad, values = measure(name, args, env)
            correct, attempted, failed = correct and ok, attempted + tried, failed + bad
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in values.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
