"""Input language parsing, report rendering, exit codes, and determinism."""

import io
import itertools
import json
import pathlib
import re
import sys
import time

import pytest

from fibrecheck import (
    QQ,
    CheckConfig,
    ComputeBudget,
    ModuleSpec,
    PrimeField,
    Problem,
    check_flatness,
    check_openness,
    fibred_power_ideal,
    render_poly,
)
from fibrecheck import cli, groebner, verticality
from fibrecheck.cli import (
    COEFF_CHUNK_BITS,
    MAX_EXPANSION,
    MAX_EXPONENT,
    ParseError,
    parse_problem,
    run,
)
from fibrecheck.fields import PRIME_LIMIT

from corpus import named_fixtures
from util import render_problem

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_problem():
    problem = parse_problem("base y1 y2\nvars x\nideal: y1*x - y2\n")
    assert problem.field == QQ
    assert problem.base_vars == ("y1", "y2")
    assert problem.fibre_vars == ("x",)
    assert [str(g) for g in problem.ideal_gens] == ["y1*x - y2"]
    assert problem.checks == ("open", "flat")


def test_parse_prime_field_and_check():
    problem = parse_problem("field F 5\nbase y\nvars x\nideal: x^2 - y\ncheck open\n")
    assert problem.field == PrimeField(5)
    assert problem.checks == ("open",)


def test_parse_module_vectors():
    # zero entries inside module vectors are allowed; only ideal generators
    # must be nonzero
    problem = parse_problem("base y\nvars x\nmodule 2: (y; 0), (x; y)\n")
    assert problem.module.rank == 2
    assert len(problem.module.relations) == 2
    assert [str(c) for c in problem.module.relations[0]] == ["y", "0"]


def test_parse_comments_and_blank_lines():
    text = "# a comment\nbase y  # trailing comment\n\nvars x\nideal: x*y - 1\n"
    problem = parse_problem(text)
    assert problem.fibre_vars == ("x",)


def test_parse_power_override():
    problem = parse_problem("base y1 y2\nvars x\nideal: y1*x - y2\npower 1\n")
    assert problem.max_power == 1


def test_parse_error_non_prime_modulus():
    with pytest.raises(ParseError, match="non-prime"):
        parse_problem("field F 4\nbase y\n")


def test_large_prime_modulus_parses_fast(capsys, monkeypatch):
    # a 19-digit prime: trial division would take ~10^9 steps
    text = "field F 1000000000000000003\nbase y\nvars x\nideal: x^2 - y\ncheck open\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "--timeout-seconds", "1")
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    assert "field: F1000000000000000003" in out


@pytest.mark.parametrize("modulus", [PRIME_LIMIT, 2**89 - 1])
def test_exit_one_on_modulus_at_or_above_prime_limit(capsys, monkeypatch, modulus):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"field F {modulus}\nbase y\n"))
    code, out, err = _run(capsys)
    assert (code, out) == (1, "")
    assert err == f"fibrecheck: line 1, col 1: modulus must be below {PRIME_LIMIT}\n"


def test_parse_error_undeclared_variable():
    with pytest.raises(ParseError, match="undeclared variable 'x'"):
        parse_problem("base y1 y2\nideal: y1*x - y2\n")


def test_parse_error_zero_generator():
    with pytest.raises(ParseError, match="zero generator"):
        parse_problem("base y\nvars x\nideal: x - x\n")


def test_parse_error_duplicate_variable():
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem("base y\nvars y\n")


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("base y 2x\n", (1, 1), "bad variable name '2x'"),
        ("base y\n  vars x x-1\n", (2, 3), "bad variable name 'x-1'"),
        ("base y y\n", (1, 1), "duplicate variable 'y'"),
        ("vars x\nbase y x\n", (2, 1), "duplicate variable 'x'"),
        ("base y\nvars x\n vars x\n", (3, 2), "duplicate variable 'x'"),
    ],
    ids=["base-name", "vars-name", "base-dup", "base-after-vars", "vars-dup"],
)
def test_parse_error_variable_declarations(text, where, message):
    # base and vars lines share one parser: same messages, same columns
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == where
    assert message in str(exc.value)


def test_parse_error_missing_base():
    with pytest.raises(ParseError, match="no base variables"):
        parse_problem("vars x\nideal: x\n")


def test_parse_error_reports_location():
    try:
        parse_problem("base y1 y2\nvars x\nideal: y1*x - z\n")
    except ParseError as exc:
        assert exc.line == 3
        assert exc.col > 0
    else:
        raise AssertionError("expected a parse error")


def test_parse_error_vector_length_mismatch():
    with pytest.raises(ParseError, match="components"):
        parse_problem("base y\nvars x\nmodule 2: (y; 0; x)\n")


BY = "base y\nvars x\n"

# (input, line, col, message): every message the parser raises, where it
# points, and which error wins when an input holds more than one
PARSE_ERRORS = [
    ("field F x\nbase y\n", 1, 1, "modulus must be an integer"),
    ("field F 4\nbase y\n", 1, 1, "non-prime modulus"),
    (f"base y\n field F {PRIME_LIMIT}\n", 2, 2, f"modulus must be below {PRIME_LIMIT}"),
    ("base y\nfield R\n", 2, 1, "malformed field statement (expected 'Q' or 'F <p>')"),
    ("base y\nfield F\n", 2, 1, "malformed field statement (expected 'Q' or 'F <p>')"),
    ("base y 2x\n", 1, 1, "bad variable name '2x'"),
    ("base y\nvars y\n", 2, 1, "duplicate variable 'y'"),
    ("base y\nideal x\n", 2, 1, "missing ':' after 'ideal' (expected ':')"),
    ("base y\nmodule 2 (y; 0)\n", 2, 1, "missing ':' after module rank (expected ':')"),
    ("base y\nmodule two: (y)\n", 2, 1, "module rank must be an integer"),
    ("base y\nmodule 0: (y)\n", 2, 1, "module rank must be >= 1"),
    ("base y\nmodule 2: (y; 0)\n  module 3: (y; 0; 0)\n", 3, 3, "conflicting module ranks"),
    ("base y\ncheck all\n", 2, 1, "malformed check statement (expected 'open', 'flat' or 'both')"),
    ("base y\ncheck open flat\n", 2, 1, "malformed check statement (expected 'open', 'flat' or 'both')"),
    ("base y\npower\n", 2, 1, "malformed power statement (expected 'power <k>')"),
    ("base y\npower k\n", 2, 1, "power must be an integer"),
    ("base y\npower 0\n", 2, 1, "power must be >= 1"),
    ("base y\n  solve x\n", 2, 3, "unknown statement 'solve'"),
    ("base y\nideals: x\n", 2, 1, "unknown statement 'ideals:'"),
    ("vars x\nideal: x\n", 1, 1, "no base variables declared"),
    (BY + "ideal: x $ y\n", 3, 10, "unexpected character '$'"),
    (BY + "ideal: (x, y)\n", 3, 10, "unexpected character ','"),
    (BY + "ideal: x y\n", 3, 10, "trailing input 'y' (expected end of expression)"),
    (BY + "ideal: x + )\n", 3, 12, "unexpected token ')' (expected number, variable or '(')"),
    (BY + "ideal: x -\n", 3, 11, "unexpected token '' (expected number, variable or '(')"),
    (BY + "ideal: x^y\n", 3, 10, "exponent must be an integer (expected integer)"),
    (BY + "ideal: x^1001\n", 3, 10, "exponent 1001 exceeds the maximum 1000"),
    (BY + "ideal: x - 1/y\n", 3, 14, "denominator must be an integer (expected integer)"),
    (BY + "ideal: x - 1/0\n", 3, 14, "zero denominator"),
    ("field F 3\n" + BY + "ideal: 1/3*x\n", 4, 10, "denominator divisible by the characteristic 3"),
    (BY + "ideal: 7" + "0" * 700 + "*x\n", 3, 8, "coefficient has too many digits (701)"),
    (BY + "ideal: 1/" + "3" * 700 + "\n", 3, 10, "denominator has too many digits (700)"),
    ("base y\nideal: x\nvars x\n", 2, 8, "undeclared variable 'x'"),
    ("base y\nvars x\nideal: y\nbase z\nideal: x, z, w\n", 5, 14, "undeclared variable 'w'"),
    ("base y\nmodule 1: (x)\nvars x\n", 2, 12, "undeclared variable 'x'"),
    (BY + "ideal: (x - y\n", 3, 14, "unbalanced parenthesis (expected ')')"),
    (BY + "ideal: " + "(" * 101 + "x" + ")" * 101 + "\n", 3, 108, "parentheses nested deeper than 100"),
    (BY + "ideal: (x + y)^1000\n", 3, 16, f"expression expands to more than {MAX_EXPANSION} term products"),
    (BY + "ideal: x - y, x - x\n", 3, 15, "zero generator"),
    (BY + "module 2: (x; y) z\n", 3, 11, "module vector must be parenthesized (expected '(' ... ')')"),
    (BY + "module 2: (x; y),\n", 3, 18, "empty module vector"),
    (BY + "module 2:\n", 3, 10, "empty module vector"),
    (BY + "module 2: (x; )\n", 3, 15, "unexpected token '' (expected number, variable or '(')"),
    (BY + "module 2: (y; 0; x)\n", 3, 11, "module vector has 3 components, rank is 2"),
    # statements first, then ideal payloads, then module payloads
    ("base y\nideal: z\ncheck all\n", 3, 1, "malformed check statement (expected 'open', 'flat' or 'both')"),
    ("ideal: z\nfield F 4\n", 2, 1, "non-prime modulus"),
    (BY + "module 1: (z)\nideal: w\n", 4, 8, "undeclared variable 'w'"),
    (BY + "module 1: (x), (x; y)\nideal: x, x - x\n", 4, 11, "zero generator"),
    (BY + "ideal: x, z\nideal: w\n", 3, 11, "undeclared variable 'z'"),
]


@pytest.mark.parametrize("text, line, col, message", PARSE_ERRORS)
def test_parse_error_table(int_digit_limit, text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col, str(exc.value)) == (line, col, f"line {line}, col {col}: {message}")


# ---------------------------------------------------------------------------
# round trip


def test_render_parse_round_trip_on_fixture_corpus():
    for fx in named_fixtures():
        text = render_problem(fx.problem)
        reparsed = parse_problem(text)
        assert render_problem(reparsed) == text
        assert reparsed.base_vars == fx.problem.base_vars
        assert reparsed.fibre_vars == fx.problem.fibre_vars
        assert [str(g) for g in reparsed.ideal_gens] == [
            str(g) for g in fx.problem.ideal_gens
        ]


def test_render_parse_round_trip_of_a_module_without_relations():
    # rendered with one zero vector, which the module's presentation drops,
    # so the reparsed problem reads and checks as the original
    problem = Problem(QQ, ("y",), ("x",), (), module=ModuleSpec(2, ()))
    text = render_problem(problem)
    assert "\nmodule 2: (0; 0)\n" in text
    reparsed = parse_problem(text)
    assert render_problem(reparsed) == text
    for check in (check_openness, check_flatness):
        assert cli._verdict_json(check(reparsed), False) == cli._verdict_json(check(problem), False)


def test_render_parse_round_trip_on_fixture_files():
    for path in sorted(FIXTURES.glob("*.alg")):
        if path.name in ("malformed.alg", "oversized.alg"):
            continue
        problem = parse_problem(path.read_text())
        assert render_problem(parse_problem(render_problem(problem))) == render_problem(problem)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_with_verdicts(capsys):
    code, out, err = _run(capsys, "--input", str(FIXTURES / "blowup.alg"))
    assert code == 0
    assert "NOT OPEN (vertical component at fibred power 2)" in out
    assert "witness r = " in out
    assert "NOT FLAT (torsion at tensor power 2)" in out


def test_exit_zero_positive_fixture(capsys):
    code, out, _ = _run(capsys, "--input", str(FIXTURES / "double_cover.alg"))
    assert code == 0
    assert "OPEN" in out and "NOT OPEN" not in out
    assert "FLAT" in out and "NOT FLAT" not in out


def test_exit_one_on_parse_error(capsys):
    code, out, err = _run(capsys, "--input", str(FIXTURES / "malformed.alg"))
    assert code == 1
    assert not out
    assert "undeclared variable" in err


def test_exit_one_on_exponent_above_maximum(capsys, monkeypatch):
    # MAX_EXPONENT is a policy limit: the power is refused at its location
    # before anything is expanded, whatever the base.
    text = "base y\nvars x\nideal: x^3000000 - y\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "--timeout-seconds", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert not out
    assert err == (
        f"fibrecheck: line 3, col 10: exponent 3000000 exceeds the maximum {MAX_EXPONENT}\n"
    )


def test_exponent_at_maximum_parses():
    problem = parse_problem(f"base y\nvars x\nideal: x^{MAX_EXPONENT} - y, x^0{MAX_EXPONENT}\n")
    assert problem.ideal_gens[1].total_degree() == MAX_EXPONENT


@pytest.mark.parametrize(
    "text, error",
    [
        ("field F 2\nbase y\nvars x\nideal: 3/2*x - y\n", "line 4, col 10: denominator divisible by the characteristic 2"),
        ("base y\nvars x\nideal: 3/2*x - y\nfield F 2\n", "line 3, col 10: denominator divisible by the characteristic 2"),
        ("base y\nvars x\nmodule 2: (x; 1/6*y)\nfield F 3\n", "line 3, col 17: denominator divisible by the characteristic 3"),
        ("field F 2\nbase y\nvars x\nideal: 3/0*x - y\n", "line 4, col 10: zero denominator"),
    ],
    ids=["field-first", "field-last", "module", "zero"],
)
def test_exit_one_on_denominator_without_inverse(capsys, monkeypatch, text, error):
    # every expression is parsed in the run's final field, wherever the field
    # statement stands, and the error points at the denominator
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run(capsys)
    assert (code, out, err) == (1, "", f"fibrecheck: {error}\n")


@pytest.mark.parametrize(
    "text, location",
    [
        ("field F 3\nbase y\nvars x\nideal: x - y, 3*x\n", "line 4, col 15"),
        ("base y\nvars x\nideal: x - y, 3*x\nfield F 3\n", "line 3, col 15"),
    ],
    ids=["field-first", "field-last"],
)
def test_generator_vanishing_mod_p_is_a_zero_generator(text, location):
    with pytest.raises(ParseError, match=f"^{location}: zero generator$"):
        parse_problem(text)


def test_parenthesis_nesting_at_maximum_parses():
    depth = cli.MAX_NESTING
    problem = parse_problem(f"base y\nvars x\nideal: {'(' * depth}x - y{')' * depth}\n")
    assert [str(g) for g in problem.ideal_gens] == ["x - y"]


def test_exit_one_on_parenthesis_nesting_above_maximum(capsys, monkeypatch):
    # refused at the first parenthesis past the limit, long before the
    # parser's recursion could reach the interpreter's limit
    depth = 5000
    text = f"base y\nvars x\nideal: {'(' * depth}x{')' * depth}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    t0 = time.perf_counter()
    code, out, err = _run(capsys)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    col = len("ideal: ") + cli.MAX_NESTING + 1
    assert err == (
        f"fibrecheck: line 3, col {col}: parentheses nested deeper than {cli.MAX_NESTING}\n"
    )


@pytest.mark.parametrize(
    "expr,col",
    [
        ("(x1 + x2 + y1 + y2)^60 - y1", 28),
        ("(x1 + x2 + y1 + y2)^12 * (x1 - x2 + 2*y1 - y2)^12", 31),
    ],
    ids=["power", "product"],
)
def test_exit_one_on_expansion_above_maximum(capsys, monkeypatch, expr, col):
    # an expansion is refused before it is formed, at the exponent or the
    # "*" that would exceed MAX_EXPANSION; parsing runs before any budget
    text = f"base y1 y2\nvars x1 x2\nideal: {expr}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "--timeout-seconds", "1")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (
        f"fibrecheck: line 3, col {col}: expression expands to more than"
        f" {MAX_EXPANSION} term products\n"
    )


def test_expansion_bound_is_per_expression_and_inclusive(monkeypatch):
    # each power charged half the maximum: two fit in one expression exactly,
    # one more product does not, and the next generator starts afresh
    monkeypatch.setattr(cli, "power_products", lambda t, e: MAX_EXPANSION // 2)
    twice = "(x + y)^3 + (x - y)^2"
    problem = parse_problem(f"base y\nvars x\nideal: {twice}, {twice}\n")
    assert len(problem.ideal_gens) == 2
    with pytest.raises(ParseError, match="col 30: expression expands to more than"):
        parse_problem(f"base y\nvars x\nideal: {twice} * x\n")


NINES = "9" * 4000  # 13,288 bits: 13 chunks of COEFF_CHUNK_BITS


@pytest.mark.parametrize(
    "expr,col",
    [
        (f"({NINES}*x + y)^200 - y", 4017),
        # the "*" before the tenth factor, each factor 4,008 characters long
        ("*".join([f"({NINES}*x + y)"] * 12), 8 + 9 * 4009 - 1),
    ],
    ids=["power", "product"],
)
def test_exit_one_on_coefficient_growth_above_maximum(capsys, monkeypatch, expr, col):
    # few term products, but of ever wider integers: the coefficient size is
    # charged as well, so the expansion is refused at once, not left to run
    text = f"base y\nvars x\nideal: {expr}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "--timeout-seconds", "1")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (
        f"fibrecheck: line 3, col {col}: expression expands to more than"
        f" {MAX_EXPANSION} term products\n"
    )


def test_coefficient_size_is_charged_in_chunks(monkeypatch):
    # a = 2^1024 - 1 is one chunk, so a*a charges 1 and (a*a)*x, with a
    # 2048-bit coefficient, charges 2: 3 in all.  b = 2^1024 is two chunks, so
    # b*b alone charges 4 and is refused at its "*".
    monkeypatch.setattr(cli, "MAX_EXPANSION", 3)
    a, b = 2**COEFF_CHUNK_BITS - 1, 2**COEFF_CHUNK_BITS
    parse_problem(f"base y\nvars x\nideal: {a}*{a}*x\n")
    with pytest.raises(ParseError, match=f"col {8 + len(str(b))}: expression expands"):
        parse_problem(f"base y\nvars x\nideal: {b}*{b}*x\n")


@pytest.fixture
def int_digit_limit():
    """Lower the interpreter's int-conversion limit to its minimum, 640 digits,
    so the test does not depend on the default (4300)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "template, location, what",
    [
        ("base y\nvars x\nideal: {n}*x - y\n", "line 3, col 8", "coefficient"),
        ("base y\nvars x\nideal: 1/{n}*x - y\n", "line 3, col 10", "denominator"),
        ("field F {n}\nbase y\n", "line 1, col 1", "modulus"),
        ("base y\nmodule {n}: (y)\n", "line 2, col 1", "module rank"),
        ("base y\nvars x\nideal: x - y\npower {n}\n", "line 4, col 1", "power"),
    ],
    ids=["coefficient", "denominator", "modulus", "module-rank", "power"],
)
def test_exit_one_on_integer_too_long_to_convert(
    capsys, monkeypatch, int_digit_limit, template, location, what
):
    digits = int_digit_limit + 60
    monkeypatch.setattr("sys.stdin", io.StringIO(template.format(n="7" * digits)))
    code, out, err = _run(capsys)
    assert code == 1
    assert not out
    assert err == f"fibrecheck: {location}: {what} has too many digits ({digits})\n"


def test_exit_one_on_missing_file(capsys):
    code, _, err = _run(capsys, "--input", str(FIXTURES / "does_not_exist.alg"))
    assert code == 1
    assert "cannot read" in err


NOT_UTF8 = b"\xff\xfe base y\n"


def test_exit_one_on_input_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin.alg"
    path.write_bytes(NOT_UTF8)
    code, out, err = _run(capsys, "--input", str(path))
    assert code == 1
    assert not out
    assert err.startswith("fibrecheck: cannot read input: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_exit_one_on_stdin_not_utf8_under_strict_decoding(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict"))
    code, out, err = _run(capsys)
    assert code == 1
    assert not out
    assert err.startswith("fibrecheck: cannot read input: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-2"])
def test_exit_one_on_max_power_below_one(capsys, value):
    code, out, err = _run(
        capsys, "--input", str(FIXTURES / "blowup.alg"), "--max-power", value
    )
    assert code == 1
    assert not out
    assert err == f"fibrecheck: --max-power must be >= 1, got {value}\n"


def test_exit_one_on_pair_limit_below_one(capsys):
    code, out, err = _run(
        capsys, "--input", str(FIXTURES / "blowup.alg"), "--pair-limit", "-5"
    )
    assert code == 1
    assert not out
    assert err == "fibrecheck: --pair-limit must be >= 1, got -5\n"


def test_exit_one_on_nonpositive_timeout(capsys):
    code, out, err = _run(
        capsys, "--input", str(FIXTURES / "blowup.alg"), "--timeout-seconds", "-1"
    )
    assert code == 1
    assert not out
    assert err == "fibrecheck: --timeout-seconds must be > 0, got -1\n"


def test_exit_two_on_charp_flatness_without_flag(capsys):
    text = "field F 5\nbase y\nvars x\nideal: x^2 - y\ncheck flat\n"
    path = FIXTURES.parent / "test_output_charp_tmp.alg"
    path.write_text(text)
    try:
        code, _, err = _run(capsys, "--input", str(path))
        assert code == 2
        assert "unsupported" in err
        code_ok, out, _ = _run(
            capsys, "--input", str(path), "--allow-char-p-flatness"
        )
        assert code_ok == 0
    finally:
        path.unlink()


def test_refused_flatness_runs_no_check(monkeypatch, capsys):
    # over F_p without the flag, "check both" is refused before the openness
    # check starts: nothing is computed for a report that is never printed
    calls = []
    monkeypatch.setattr(cli, "check_openness", lambda *args: calls.append(args))
    text = (FIXTURES / "oversized.alg").read_text().replace("field Q", "field F 32003")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run(capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == "fibrecheck: unsupported: flatness over a prime field requires --allow-char-p-flatness\n"


def test_charp_openness_needs_no_flag(capsys):
    code, out, _ = _run(capsys, "--input", str(FIXTURES / "charp_open.alg"))
    assert code == 0
    assert "NOT OPEN" in out


def test_exit_three_on_resource_abort(capsys):
    code, out, _ = _run(
        capsys, "--input", str(FIXTURES / "oversized.alg"), "--pair-limit", "20"
    )
    assert code == 3
    assert "ABORTED" in out


def test_tensor_power_over_step_budget_aborts_cleanly(monkeypatch, capsys):
    # power 2 of a rank-12 module has 24 relations of 144 slots: 3,456 dense
    # slots, charged to the reduction steps before any is built, exceed the
    # 200 of --pair-limit 1, so the check aborts there with exit 3
    text = "base y1 y2\nmodule 12: (" + "; ".join(["1"] + ["0"] * 11) + ")\ncheck flat\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run(capsys, "--json", "--pair-limit", "1")
    (check,) = json.loads(out)["checks"]
    assert (code, err) == (3, "")
    assert check["abort_reason"] == "reduction-step limit 200 exceeded at power 2"
    assert [(p["k"], p["basis_size"], p["pairs"]) for p in check["powers"]] == [(1, 1, 0), (2, 0, 0)]


def test_exit_three_on_timeout(capsys):
    code, out, _ = _run(
        capsys,
        "--input",
        str(FIXTURES / "oversized.alg"),
        "--timeout-seconds",
        "0.2",
    )
    assert code == 3
    assert "ABORTED" in out


def test_one_deadline_bounds_the_whole_run(monkeypatch, capsys):
    """--timeout-seconds starts one clock before the input is read: the
    parse and both checks of a run get the same deadline, fixed before
    parsing.  The clock is a counter, so no wall time is involved."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
    parsed_at, deadlines = [], []
    parse, budget = cli.parse_problem, verticality.CheckConfig.budget

    def spied_parse(text, deadline):
        parsed_at.append(time.monotonic())
        deadlines.append(deadline)
        return parse(text, deadline)

    def spied_budget(config):
        b = budget(config)
        deadlines.append(b.deadline)
        return b

    monkeypatch.setattr(cli, "parse_problem", spied_parse)
    monkeypatch.setattr(verticality.CheckConfig, "budget", spied_budget)
    timeout = 10**9
    code, out, _ = _run(capsys, "--input", str(FIXTURES / "blowup.alg"), "--timeout-seconds", str(timeout))
    assert code == 0 and "ABORTED" not in out
    assert len(deadlines) == 3 and len(set(deadlines)) == 1
    assert deadlines[0] - timeout < parsed_at[0]


def test_exit_three_when_the_deadline_passes_while_parsing(monkeypatch, capsys):
    # --timeout-seconds bounds parsing too: each generator's power is far
    # below MAX_EXPANSION, but together they outlast the deadline, which is
    # checked at each charge and between expressions.  The clock is a
    # counter, so the deadline passes at a fixed point of the parse.
    gens = ", ".join(f"(x1 + {i}*x2 + y1 - y2 + {i + 1}*y3 + 1)^10 - y1" for i in range(1, 33))
    monkeypatch.setattr("sys.stdin", io.StringIO(f"base y1 y2 y3\nvars x1 x2\nideal: {gens}\n"))
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
    code, out, err = _run(capsys, "--timeout-seconds", "5")
    assert (code, out, err) == (3, "", "fibrecheck: timeout exceeded while parsing line 3\n")
    assert next(ticks) < 12  # stopped within a few expressions, not after all 32


# ---------------------------------------------------------------------------
# JSON output


def test_json_report_shape(capsys):
    code, out, _ = _run(capsys, "--input", str(FIXTURES / "blowup.alg"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "Q"
    assert doc["n"] == 2 and doc["m"] == 1
    kinds = {c["kind"]: c for c in doc["checks"]}
    assert kinds["open"]["outcome"] == "fail"
    assert kinds["open"]["failing_power"] == 2
    assert "witness_r" in kinds["open"] and "witness_g" in kinds["open"]
    assert kinds["flat"]["outcome"] == "fail"
    assert "certificate_r" in kinds["flat"] and "certificate_v" in kinds["flat"]
    for check in doc["checks"]:
        for entry in check["powers"]:
            assert "millis" not in entry  # timing only under --trace


def test_json_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(3):
        code, out, _ = _run(capsys, "--input", str(FIXTURES / "blowup.alg"), "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    code, out_cusp, _ = _run(capsys, "--input", str(FIXTURES / "cusp.alg"), "--json")
    code2, out_cusp2, _ = _run(capsys, "--input", str(FIXTURES / "cusp.alg"), "--json")
    assert out_cusp == out_cusp2


def test_blowup_a3_pair_counts_pinned(capsys, monkeypatch):
    # Pins the S-pair selection order: any change to pair handling moves
    # these per-power counts and must update them deliberately.
    text = "base y1 y2 y3\nvars x1 x2\nideal: y1*x1 - y2, y1*x2 - y3\ncheck both\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = _run(capsys, "--json")
    assert code == 0
    stats = {
        c["kind"]: [(p["basis_size"], p["pairs"]) for p in c["powers"]]
        for c in json.loads(out)["checks"]
    }
    assert stats == {"open": [(7, 13), (15, 105)], "flat": [(7, 13), (15, 80)]}


def test_rank2_module_pair_counts_pinned(capsys):
    # Pins the module path's S-pair selection order the same way: the
    # benchmark gallery's rank-2 module with fixed coefficients.
    code, out, _ = _run(capsys, "--input", str(GOLDEN / "rank2_module.alg"), "--json")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert [(p["basis_size"], p["pairs"]) for p in check["powers"]] == [(7, 8), (25, 75)]


A4_CHART = "base y1 y2 y3 y4\nvars x1 x2 x3\nideal: y1*x1 - y2, y1*x2 - y3, y1*x3 - y4\ncheck both\n"
G1 = "base y1 y2 y3\nvars x1 x2 x3\nideal: x1*x2 - y1, x2*x3 - y2, x1*x3 - y3*x2 + y1\ncheck both\n"


@pytest.mark.parametrize(
    "text, order, want",
    [
        (A4_CHART, "grevlex", {"open": [(1, 14, 45), (2, 29, 283)], "flat": [(1, 14, 45), (2, 29, 224)]}),
        (A4_CHART, "lex", {"open": [(1, 14, 45), (2, 29, 283)], "flat": [(1, 14, 45), (2, 29, 224)]}),
        (G1, "grevlex", {"open": [(1, 13, 40), (2, 51, 672)], "flat": [(1, 13, 40), (2, 51, 533)]}),
        (G1, "lex", {"open": [(1, 17, 57), (2, 73, 956)], "flat": [(1, 17, 57), (2, 73, 769)]}),
    ],
    ids=["A4-grevlex", "A4-lex", "g1-grevlex", "g1-lex"],
)
def test_larger_chart_pair_counts_pinned(capsys, monkeypatch, text, order, want):
    # Pins (k, basis_size, pairs) on inputs larger than any golden: both
    # checks fail at power 2, so the second power's bases are the largest
    # the engine builds on a test input.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = _run(capsys, "--json", "--order", order)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [(c["outcome"], c["failing_power"]) for c in checks] == [("fail", 2), ("fail", 2)]
    assert {c["kind"]: [(p["k"], p["basis_size"], p["pairs"]) for p in c["powers"]] for c in checks} == want


G2 = "base y1 y2 y3\nvars x1 x2\nideal: y1*x1^2 + y2*x2 - 1, y3*x1*x2 + x1 - y2\ncheck both\n"
G3 = "base y1 y2 y3 y4\nvars x1 x2\nideal: y1*x1^2 + y2*x2 - 1, y3*x1*x2 + x1 - y4\ncheck both\n"


def test_g2_passes_both_checks_with_pinned_powers(capsys, monkeypatch):
    # J_1's denominator y1*y2*y3^2 saturates every power; J_2's and J_3's own
    # carry the factor y2^2 - y3^2, whose saturation costs seconds at k = 3
    monkeypatch.setattr("sys.stdin", io.StringIO(G2))
    code, out, _ = _run(capsys, "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["outcome"] for c in checks] == ["pass", "pass"]
    rows = [(1, 11, 23), (2, 43, 166), (3, 100, 617)]
    assert {c["kind"]: [(p["k"], p["basis_size"], p["pairs"]) for p in c["powers"]] for c in checks} == {
        "open": rows,
        "flat": rows,
    }


def _evaluate(text, point) -> int:
    """The value of a printed polynomial at a point (a map from variable names
    to integers), by integer arithmetic alone."""
    return eval(re.sub(r"[a-z]\w*(\(\d+\))?", lambda m: str(point[m.group(0)]), text).replace("^", "**"))


def test_g3_fails_both_checks_at_power_3_with_a_rational_point(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(G3))
    code, out, _ = _run(capsys, "--json")
    assert code == 0
    open_check, flat_check = json.loads(out)["checks"]
    assert (open_check["outcome"], open_check["failing_power"]) == ("fail", 3)
    assert (flat_check["outcome"], flat_check["failing_power"]) == ("fail", 3)
    assert open_check["witness_r"] == flat_check["certificate_r"] == "y1*y4^2 - 1"
    g = open_check["witness_g"]
    assert flat_check["certificate_v"] == g
    # the negative half without the engine: a point of V(J_3) where g is
    # nonzero, so g lies outside sqrt(J_3) (and v outside J_3)
    point = {"y1": 1, "y2": 0, "y3": 0, "y4": 1}
    for i, x2 in enumerate((1, 2, 3), start=1):
        point[f"x1({i})"], point[f"x2({i})"] = 1, x2
    problem = parse_problem(G3)
    J3 = fibred_power_ideal(problem.ideal, 3)
    assert len(J3.gens) == 6
    assert all(_evaluate(render_poly(f), point) == 0 for f in J3.gens)
    assert _evaluate(open_check["witness_r"], point) == 0
    assert _evaluate(g, point) == 1944


def test_module_certificate_is_the_least_power_of_h(capsys, monkeypatch):
    # h = y, and v = (1; 0) needs y^100 to fall into N: the search tries
    # powers of h until one does, with no fixed bound
    monkeypatch.setattr("sys.stdin", io.StringIO("field Q\nbase y\nmodule 2: (y^100; 0)\ncheck flat\n"))
    code, out, err = _run(capsys, "--json")
    assert (code, err) == (0, "")
    (check,) = json.loads(out)["checks"]
    assert (check["outcome"], check["failing_power"]) == ("fail", 1)
    assert (check["certificate_r"], check["certificate_v"]) == ("y^100", "(1; 0)")


A3_CHART = "base y1 y2 y3\nvars x1 x2\nideal: y1*x1 - y2, y1*x2 - y3\n"
# F = A/(x2) is the A^2 blow-up chart, while the open check pays a radical
# membership at power 1 for x2, which lies in the dominant part but not in J
CHART_QUOTIENT = "base y1 y2\nvars x1 x2\nideal: y1*x1 - y2, y1*x2, x2^2\nmodule 1: (x2)\n"


@pytest.mark.parametrize(
    "text, limit, aborted_at, unaffordable",
    [
        # the A^3 chart: open charges 13 then 137 pairs, flat 13 then 93
        (A3_CHART, 10, {"open": 1, "flat": 1}, False),
        # open charges 23 then 122 pairs, flat 6 then 45
        (CHART_QUOTIENT, 16, {"open": 1, "flat": 2}, False),
        (A3_CHART, 60, {"open": 2, "flat": 2}, False),
        # a memoized saturation costs more than the open check has left
        (A3_CHART, 115, {"open": 2}, True),
        (A3_CHART, 100_000, {}, False),
    ],
    # named by limit and row, not by input text
    ids=["10-aborted_at0-False", "16-aborted_at1-False", "60-aborted_at2-False",
         "115-aborted_at3-True", "100000-aborted_at4-False"],
)
def test_check_both_equals_open_then_flat(capsys, monkeypatch, text, limit, aborted_at, unaffordable):
    # The checks of one run share a basis memo; it must not show in any
    # report, so each check reads exactly as if it had run alone.
    afforded = []
    can_afford = ComputeBudget.can_afford

    def spy(budget, record):
        afforded.append(can_afford(budget, record))
        return afforded[-1]

    monkeypatch.setattr(ComputeBudget, "can_afford", spy)
    runs = {}
    for check in ("both", "open", "flat"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text + f"check {check}\n"))
        code, out, _ = _run(capsys, "--json", "--pair-limit", str(limit))
        runs[check] = code, json.loads(out)["checks"]
    both_code, both = runs["both"]
    assert both == runs["open"][1] + runs["flat"][1]
    assert both_code == max(runs["open"][0], runs["flat"][0])
    assert {
        c["kind"]: c["powers"][-1]["k"] for c in both if c["outcome"] == "aborted"
    } == aborted_at
    assert (False in afforded) == unaffordable


@pytest.mark.parametrize("check, want", [("both", (2, 4, 7, 2)), ("open", (2, 3, 4, 1))])
def test_second_check_replays(capsys, monkeypatch, check, want):
    # The flat check of `check both` replays each J_k's generic denominator,
    # dominant part and membership answers from the open check's records, and
    # its annihilator too: its one saturate call, J_2 : v^infinity, is the
    # open check's J_2 : g^infinity, and so is its contraction.  It computes
    # afresh only the membership tests that show J_2 : v to be that
    # saturation.  Neither re-check asks for a membership: each divides r*g
    # (r*v) by J_2's generators once, through verticality's own binding of
    # normal_form, and proves its other half by a point.
    calls = {}
    spied = (
        (verticality, "generic_denominator"),
        (verticality, "saturate"),
        (groebner, "normal_form"),
        (verticality, "normal_form"),
    )
    for module, name in spied:

        def spy(*args, real=getattr(module, name), key=(module, name), **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr("sys.stdin", io.StringIO(A3_CHART + f"check {check}\n"))
    code, _, _ = _run(capsys, "--json")
    assert code == 0
    assert tuple(calls.get(key, 0) for key in spied) == want


def test_pair_limit_bounds_each_check(monkeypatch, capsys):
    # --pair-limit bounds each check, while --timeout-seconds bounds the run:
    # the memo charges replayed pairs again so that a check's pairs and aborts
    # do not depend on the checks before it, and a run-wide limit would undo that
    text = (FIXTURES / "oversized.alg").read_text()
    runs = {}
    for check in ("both", "flat"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text.replace("check both", f"check {check}")))
        code, out, _ = _run(capsys, "--json", "--pair-limit", "30")
        runs[check] = code, json.loads(out)["checks"]
    (both_code, both), (flat_code, flat) = runs["both"], runs["flat"]
    assert both_code == flat_code == 3
    assert both[1] == flat[0]
    assert [c["powers"][-1]["pairs"] for c in both] == [31, 31]


def test_trace_adds_millis(capsys):
    code, out, err = _run(
        capsys, "--input", str(FIXTURES / "blowup.alg"), "--json", "--trace"
    )
    assert code == 0
    doc = json.loads(out)
    assert all("millis" in e for c in doc["checks"] for e in c["powers"])
    assert "trace:" in err


def test_max_power_flag_overrides(capsys):
    code, out, _ = _run(
        capsys, "--input", str(FIXTURES / "blowup.alg"), "--max-power", "1"
    )
    assert code == 0
    assert "INCONCLUSIVE-PASS" in out


def test_statement_power_bounds_the_library_and_the_config_overrides_it():
    # `power 1` bounds check_openness and check_flatness as it bounds the CLI
    problem = parse_problem((FIXTURES / "blowup.alg").read_text() + "power 1\n")
    for check in (check_openness, check_flatness):
        v = check(problem)
        assert (v.outcome, v.max_power_tested, len(v.powers), v.conclusive) == ("pass", 1, 1, False)
        v = check(problem, CheckConfig(max_power=2))
        assert (v.outcome, v.failing_power, len(v.powers)) == ("fail", 2, 2)


@pytest.mark.parametrize("source", ["flag", "statement"])
def test_power_bound_above_n_is_clamped_at_n(capsys, monkeypatch, source):
    # powers 1..n decide, so a bound above n = 1 tests power 1 alone and the
    # pass is conclusive; the timeout keeps a regression from hanging

    def bounded(k):
        """(input text, CLI flags, config) that bound the powers at k."""
        text = "base y\nvars x\nideal: x - y\n"
        if source == "flag":
            return text, ("--max-power", str(k)), CheckConfig(max_power=k)
        return text + f"power {k}\n", (), CheckConfig()

    text, flags, _ = bounded(100_000_000)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = _run(capsys, "--json", "--timeout-seconds", "5", *flags)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [(c["outcome"], c.get("conclusive", True), [p["k"] for p in c["powers"]]) for c in checks] == [
        ("pass", True, [1])
    ] * 2
    text, _, config = bounded(7)
    for check in (check_openness, check_flatness):
        v = check(parse_problem(text), config)
        assert (v.outcome, v.max_power_tested, len(v.powers), v.conclusive) == ("pass", 1, 1, True)


def _check_summaries(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = _run(capsys, "--json", "--allow-char-p-flatness")
    assert code == 0
    return [(c["kind"], c["outcome"], c.get("failing_power"), len(c["powers"])) for c in json.loads(out)["checks"]]


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in FIXTURES.glob("*.alg") if p.name not in ("malformed.alg", "oversized.alg")),
)
def test_fixture_verdicts_agree_over_q_and_f32003(monkeypatch, capsys, name):
    text = (FIXTURES / name).read_text()
    assert re.search(r"^field .*$", text, flags=re.M)
    over_q = _check_summaries(monkeypatch, capsys, re.sub(r"^field .*$", "field Q", text, flags=re.M))
    over_p = _check_summaries(monkeypatch, capsys, re.sub(r"^field .*$", "field F 32003", text, flags=re.M))
    assert over_p == over_q


def test_module_fixture_flatness(capsys):
    code, out, _ = _run(capsys, "--input", str(FIXTURES / "module_torsion.alg"))
    assert code == 0
    assert "NOT FLAT" in out
    assert "certificate v = (" in out
