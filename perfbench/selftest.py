#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N]

Makes one traced run per workload (see run.py --trace 1) and fails unless:

- every workload gives its known answers, and the fingerprints of the traced
  passes equal those of the untraced pass;
- the layer counts repeat exactly between the two traced passes;
- the spans listed in run.SPAN_EXPECTATIONS fire, or stay silent, per
  workload, and every span fires on some workload (a wrapper that missed a
  binding of its function stays silent everywhere);
- on `witness` the spans cover at least 95% of each check's wall time.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
from tracer import SPAN_NAMES

MIN_WITNESS_COVERAGE = 0.95


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)

    errors = []
    fired = set()
    for workload in run.WORKLOADS:
        t0 = time.monotonic()
        metrics, attempted, failed, problems, details = run.trace_run(
            workload, args.seed, time.monotonic() + run.RUN_LIMIT_S
        )
        errors += [f"{workload}: {p}" for p in problems]
        if failed:
            errors.append(f"{workload}: {failed}/{attempted} checks gave a wrong answer")
        fired |= {span for span in SPAN_NAMES if metrics[f"{span}.calls"][0]}
        coverage = metrics["trace.coverage"][0]
        if workload == "witness" and coverage < MIN_WITNESS_COVERAGE:
            errors.append(f"witness: spans cover only {coverage:.1%} of a check")
        print(
            f"{workload:10s} checks {attempted - failed}/{attempted} ok, coverage {coverage:.1%},"
            f" overhead {metrics['trace_overhead'][0]:+.1%}, fingerprint {details['fingerprint'][:16]},"
            f" {time.monotonic() - t0:.0f} s"
        )
    errors += [f"span {span} fired on no workload" for span in SPAN_NAMES if span not in fired]
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
