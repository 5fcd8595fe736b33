"""One benchmark child process: set up a workload, optionally run it once.

    python3 perfbench/child.py --workload W --seed N --launched T --mode M

``--launched`` is the ``time.monotonic()`` reading of the parent just before
it started this process.  Modes:

- ``setup``: import fibrecheck, generate and parse the inputs, report the
  set-up time and exit;
- ``time``: set up, then run every problem through ``fibrecheck.cli.run``
  with ``--json`` and report the pass time, peak memory, failures and the
  report fingerprints;
- ``trace``: as ``time``, with the tracer installed around the pass.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _run_case(run, case):
    """Exit code, stdout and stderr of one CLI run on the case's input text."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(case.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--json", *case.flags])
    except Exception as exc:  # a crash counts as a failed check, not a dead run
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _verdicts_only(stdout: str) -> str:
    """The report without its per-power statistics."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    for check in doc.get("checks", ()):
        check.pop("powers", None)
    return json.dumps(doc, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = parser.parse_args(argv)

    import fibrecheck.cli as cli
    import workloads

    cases = workloads.cases(args.workload, args.seed)
    for case in cases:
        if case.exit_code != 1:  # inputs that must fail to parse are left to the pass
            cli.parse_problem(case.text)
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, case_s = [], []
    for case in cases:
        t0 = time.perf_counter()
        outputs.append(_run_case(cli.run, case))
        case_s.append(time.perf_counter() - t0)

    full, verdicts = hashlib.sha256(), hashlib.sha256()
    failed = 0
    failures = []
    for case, (code, stdout, stderr) in zip(cases, outputs):
        for h, text in ((full, stdout), (verdicts, _verdicts_only(stdout))):
            h.update(f"{case.name}\n{code}\n{text}\n{stderr}\n".encode())
        bad = workloads.mismatches(case, code, stdout) if isinstance(code, int) else case.attempts
        if bad:
            failures.append(f"{case.name}: exit {code}, {' '.join((stdout or stderr).split())}"[:400])
        failed += bad
    result.update(
        wall_s=sum(case_s),
        case_s=case_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=sum(case.attempts for case in cases),
        failed=failed,
        failures=failures,
        fingerprint=full.hexdigest(),
        verdict_fingerprint=verdicts.hexdigest(),
    )
    if tracer is not None:
        result["layers"] = {name: list(v) for name, v in tracer.metrics().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
