"""Seeded problem sets for the two benchmark workloads, with known answers.

Every problem is an input text for ``fibrecheck.cli.run`` plus the CLI flags
it runs with and the answer its family must give for every seed: the exit
code and, per check, the outcome and failing power.  The seed only picks
coefficients from ``COEFFS``; it never changes a problem's shape, so verdicts,
pair counts and basis sizes are the same for every seed.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

COEFFS = (1, 2, 3, 5, 7)

# Every problem takes well under a second, so a run holds many samples of
# each: the host's speed drifts in phases of tens of seconds, and only the
# fastest of many short samples is steady from run to run.  A^4 charts
# (10-15 s each) are left out for that reason.


@dataclass(frozen=True)
class Check:
    kind: str                  # "open" | "flat"
    outcome: str               # "pass" | "fail" | "aborted"
    failing_power: int | None = None
    powers: int | None = None  # number of powers the check must report
    abort_reason: str | None = None


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    flags: tuple
    exit_code: int
    checks: tuple  # of Check; empty when the CLI must stop before any verdict

    @property
    def attempts(self) -> int:
        return max(1, len(self.checks))


def _vars(prefix: str, count: int) -> str:
    return " ".join(f"{prefix}{i}" for i in range(1, count + 1))


def _problem(base: str, fibre: str, ideal: str, check: str, *, field: str = "Q", module: str = "") -> str:
    lines = [f"field {field}", f"base {base}"]
    if fibre:
        lines.append(f"vars {fibre}")
    lines.append(f"ideal: {ideal}")
    if module:
        lines.append(module)
    lines.append(f"check {check}")
    return "\n".join(lines) + "\n"


def _both(outcome: str, failing_power: int | None = None, powers: int | None = None):
    return tuple(Check(kind, outcome, failing_power, powers) for kind in ("open", "flat"))


# ---------------------------------------------------------------------------
# families


def blowup_chart(n: int, rng: random.Random, field: str = "Q") -> str:
    """Chart y1*x_i - c_i*y_{i+1} of the blow-up of A^n at the origin: the
    second fibred power acquires the vertical component over y1 = 0."""
    gens = ", ".join(f"y1*x{i} - {rng.choice(COEFFS)}*y{i + 1}" for i in range(1, n))
    return _problem(_vars("y", n), _vars("x", n - 1), gens, "both", field=field)


def rank2_module(rng: random.Random) -> str:
    """A rank-2 module (x; c*y2) over A = Q[y, x]/(x^2 - c*y1): torsion first
    appears in the second tensor power."""
    return _problem(
        "y1 y2",
        "x",
        f"x^2 - {rng.choice(COEFFS)}*y1",
        "flat",
        module=f"module 2: (x; {rng.choice(COEFFS)}*y2)",
    )


# ---------------------------------------------------------------------------
# workloads

# Known answers for the fixture gallery.  oversized.alg is left out: its
# basis does not finish, and under a pair limit its run time swings with the
# host more than any other problem's.
FIXTURE_ANSWERS = {
    "blowup.alg": (0, _both("fail", 2)),
    "charp_open.alg": (0, (Check("open", "fail", 2),)),
    "cusp.alg": (0, _both("fail", 1)),
    "double_cover.alg": (0, _both("pass", powers=1)),
    "free_fibre.alg": (0, _both("pass", powers=2)),
    "identity.alg": (0, _both("pass", powers=2)),
    "malformed.alg": (1, ()),
    "module_structure.alg": (0, (Check("flat", "pass", powers=1),)),
    "module_torsion.alg": (0, (Check("flat", "fail", 1),)),
    "open_immersion.alg": (0, _both("pass", powers=1)),
    "vertical_union.alg": (0, _both("fail", 1)),
}


def _witness(rng):
    return [
        Case(f"blowup-{name}", blowup_chart(n, rng), (), 0, _both("fail", 2))
        for name, n in (("A2", 2), ("A3-1", 3), ("A3-2", 3), ("A3-3", 3))
    ]


def _gallery(rng):
    cases = [
        Case(name, (FIXTURES / name).read_text(encoding="utf-8"), (), code, checks)
        for name, (code, checks) in FIXTURE_ANSWERS.items()
    ]
    for i in (1, 2):
        cases.append(Case(f"rank2-module-{i}", rank2_module(rng), (), 0, (Check("flat", "fail", 2),)))
    fp_blowup = blowup_chart(3, rng, field="F 101")
    cases.append(Case("fp-blowup-A3", fp_blowup, ("--allow-char-p-flatness",), 0, _both("fail", 2)))
    # Without the acknowledgment flag the flatness half is refused: exit 2.
    cases.append(Case("fp-blowup-A3-refused", fp_blowup, (), 2, ()))
    return cases


WORKLOADS = {
    "witness": _witness,
    "gallery": _gallery,
}


def cases(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# answer checking


def mismatches(case: Case, exit_code: int, stdout: str) -> int:
    """Number of the case's checks that do not give the known answer."""
    if exit_code != case.exit_code:
        return case.attempts
    if not case.checks:
        return 0
    try:
        got = json.loads(stdout)["checks"]
    except (ValueError, KeyError):
        return case.attempts
    bad = abs(len(got) - len(case.checks))
    for want, verdict in zip(case.checks, got):
        ok = (
            verdict.get("kind") == want.kind
            and verdict.get("outcome") == want.outcome
            and verdict.get("failing_power") == want.failing_power
            and verdict.get("abort_reason") == want.abort_reason
            and (want.powers is None or len(verdict.get("powers", ())) == want.powers)
        )
        if want.outcome == "fail":
            keys = ("witness_g", "witness_r") if want.kind == "open" else ("certificate_r", "certificate_v")
            ok = ok and all(verdict.get(key) for key in keys)
        bad += not ok
    return min(bad, case.attempts)
