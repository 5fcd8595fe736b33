"""Golden CLI reports: every case must reproduce its committed run byte for byte.

Each file ``tests/golden/<case>.json`` holds the arguments of one CLI run and
the ``--json`` report, standard error and exit code it gave.  A change that
is meant to leave reports alone (a speed-up, a refactor) must pass this test
unchanged.  A change that alters reports on purpose regenerates the files
with ``python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
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
    "module_torsion_lex": ["--input", "fixtures/module_torsion.alg", "--json", "--order", "lex"],
    "rank2_module": ["--input", "tests/golden/rank2_module.alg", "--json"],
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


def regenerate():
    for case, argv in CASES.items():
        record = {"argv": argv, **run_case(argv)}
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
