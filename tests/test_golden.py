"""Golden CLI reports: every case must reproduce its committed run byte for byte.

Each file ``tests/golden/<case>.json`` holds the arguments of one CLI run and
the ``--json`` report, standard error and exit code it gave.  A change that
is meant to leave reports alone (a speed-up, a refactor) must pass this test
unchanged.  A change that alters reports on purpose regenerates the files
with ``python tests/test_golden.py`` and says why.

The witnesses and certificates each report prints are also read back and
re-checked with fresh engine calls, so that what is printed is what holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob("*.alg"))

# case name -> CLI arguments, input paths relative to the repository root
CASES = {
    **{
        name[: -len(".alg")]: ["--input", f"fixtures/{name}", "--json"]
        + (["--pair-limit", "30"] if name == "oversized.alg" else [])
        for name in FIXTURES
    },
    "blowup_a3": ["--input", "tests/golden/blowup_a3.alg", "--json"],
    "blowup_a3_lex": ["--input", "tests/golden/blowup_a3.alg", "--json", "--order", "lex"],
    "charp_vertical": ["--input", "tests/golden/charp_vertical.alg", "--json"],
    "huge_exponent": ["--input", "tests/golden/huge_exponent.alg", "--json"],
    "huge_exponent_lex": ["--input", "tests/golden/huge_exponent.alg", "--json", "--order", "lex"],
    "module_scaled": ["--input", "tests/golden/module_scaled.alg", "--json"],
    "module_torsion_lex": ["--input", "fixtures/module_torsion.alg", "--json", "--order", "lex"],
    "nonmonomial_denominator": ["--input", "tests/golden/nonmonomial_denominator.alg", "--json"],
    "rank2_module": ["--input", "tests/golden/rank2_module.alg", "--json"],
    "rational_chart": ["--input", "tests/golden/rational_chart.alg", "--json"],
    "rational_chart_lex": ["--input", "tests/golden/rational_chart.alg", "--json", "--order", "lex"],
    "rank2_module_lex": ["--input", "tests/golden/rank2_module.alg", "--json", "--order", "lex"],
}


def run_case(argv) -> dict:
    """Run the CLI in-process; the golden record of one run."""
    from fibrecheck.cli import run

    argv = [str(ROOT / a) if a.endswith(".alg") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_fixture_has_a_case():
    assert {p[: -len(".alg")] for p in FIXTURES} <= set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    golden = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == CASES[case]
    got = run_case(CASES[case])
    assert got["exit_code"] == golden["exit_code"]
    assert got["stderr"] == golden["stderr"]
    assert got["stdout"] == golden["stdout"]


def _nested_power(name: str, e: int) -> str:
    """``name^e`` in powers the parser accepts: one factor per nonzero digit
    d of e in base MAX_EXPONENT, at position k written (...(name^d)^B...)^B
    with k powers of B = MAX_EXPONENT."""
    from fibrecheck.cli import MAX_EXPONENT

    factors, k = [], 0
    while e:
        e, d = divmod(e, MAX_EXPONENT)
        if d:
            factors.append("(" * k + f"{name}^{d}" + f")^{MAX_EXPONENT}" * k)
        k += 1
    return "*".join(factors)


def _parse_printed(text: str, layout, fld):
    """A printed polynomial of ``layout``.  Names such as x(2) are renamed to
    identifiers v<i>, where i is the variable's index, and parsed in a layout
    of those identifiers in the same order.  An exponent above the parser's
    maximum is rewritten as nested powers."""
    from fibrecheck import Polynomial, RingLayout
    from util import P

    names = layout.var_names()
    alternatives = "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))
    renamed = re.sub(
        rf"(?<![\w)])({alternatives})(?![\w(])", lambda m: f"v{names.index(m[1])}", text
    )
    renamed = re.sub(r"(v\d+)\^(\d+)", lambda m: _nested_power(m[1], int(m[2])), renamed)
    nb = len(layout.base_vars)
    idents = tuple(f"v{i}" for i in range(len(names)))
    f = P(RingLayout(idents[:nb], idents[nb:]), renamed, fld)
    return Polynomial.from_dict(layout, fld, {e: c for c, e in f.terms})


@pytest.mark.parametrize("case", sorted(CASES))
def test_printed_witnesses_pass_a_fresh_recheck(case):
    """Every printed witness and certificate, read back from the report,
    satisfies its defining property under fresh engine calls:
    open: r*g in sqrt(J_k) and g not; flat: r*v in N and v not in N."""
    from fibrecheck import ModulePresentation, radical_member
    from fibrecheck.cli import parse_problem
    from fibrecheck.power import fibred_power_ideal, tensor_power_presentation

    report = run_case(CASES[case])
    if report["exit_code"] != 0:
        return
    problem = parse_problem((ROOT / CASES[case][1]).read_text(encoding="utf-8"))
    fld = problem.field
    for check in json.loads(report["stdout"])["checks"]:
        if check["outcome"] != "fail":
            continue
        k = check["failing_power"]
        if check["kind"] == "open":
            Jk = fibred_power_ideal(problem.ideal, k)
            g = _parse_printed(check["witness_g"], Jk.layout, fld)
            r = _parse_printed(check["witness_r"], Jk.layout, fld)
            assert not r.is_zero and r.support_indices() <= set(Jk.layout.base_indices)
            assert radical_member(r * g, Jk)
            assert not radical_member(g, Jk)
            continue
        if problem.module is None:
            Jk = fibred_power_ideal(problem.ideal, k)
            N = ModulePresentation(Jk.layout, fld, 1, tuple((f,) for f in Jk.gens))
        else:
            N = tensor_power_presentation(problem, k)
        printed = check["certificate_v"]
        parts = [printed] if N.rank == 1 else printed[1:-1].split("; ")
        v = tuple(_parse_printed(c, N.layout, fld) for c in parts)
        r = _parse_printed(check["certificate_r"], N.layout, fld)
        assert not r.is_zero and r.support_indices() <= set(N.layout.base_indices)
        assert N.contains(tuple(r * c for c in v))
        assert not N.contains(v)


def regenerate():
    for case, argv in CASES.items():
        record = {"argv": argv, **run_case(argv)}
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
