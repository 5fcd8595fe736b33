"""Command-line flags: the table parser reads every argv that the argparse
parser it replaced accepted, to the same values, and refuses the rest with
exit 1 and one line."""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import flags
from fibrecheck.cli import run

from util import reference_flags

IDENTITY = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "identity.alg"

_INTS = st.one_of(st.integers(-10**9, 10**9).map(str), st.sampled_from(("+3", "007", "1_000", " 7 ")))

_VALUES = {
    "--input": st.sampled_from(("-", "problem.alg", "dir/with space.alg", "=lead.alg", "-lead.alg", "")),
    "--max-power": _INTS,
    "--order": st.sampled_from(("lex", "grevlex")),
    "--pair-limit": _INTS,
    "--timeout-seconds": st.one_of(_INTS, st.integers(-10**6, 10**6).map(lambda i: str(i / 1000))),
}

_SWITCHES = ("--json", "--allow-char-p-flatness", "--trace")


@st.composite
def _valid_argv(draw):
    """Flags in any order, repeated or not, each value after '=' or as the
    next argument; a separate value starts with '-' only as a negative
    number or as '-' itself, as argparse requires."""
    argv = []
    for _ in range(draw(st.integers(0, 10))):
        flag = draw(st.sampled_from((*_VALUES, *_SWITCHES)))
        if flag in _SWITCHES:
            argv.append(flag)
            continue
        value = draw(_VALUES[flag])
        if draw(st.booleans()) or value == "-lead.alg":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_valid_argv())
def test_flags_read_like_the_argparse_parser(argv):
    want = reference_flags(argv, 100.0)
    try:
        options, config = flags.parse(argv, 100.0)
    except flags.FlagError as exc:
        got = str(exc)  # a value out of range
    else:
        got = options, (config.within, config.max_power, config.pair_limit, config.deadline, config.allow_char_p_flatness)
    assert got == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--bogus"], "unrecognized flag '--bogus'"),
        (["--max", "2"], "unrecognized flag '--max'"),  # prefixes are not flags
        (["-x"], "unrecognized flag '-x'"),
        (["--"], "unrecognized flag '--'"),
        (["problem.alg"], "unexpected argument 'problem.alg'"),
        (["--json", "problem.alg"], "unexpected argument 'problem.alg'"),
        (["--max-power"], "--max-power needs a value"),
        (["--input"], "--input needs a value"),
        (["--input", "--json"], "--input needs a value"),
        (["--max-power", "--json"], "--max-power needs a value"),
        (["--max-power", "two"], "--max-power needs an integer, got 'two'"),
        (["--max-power=2.5"], "--max-power needs an integer, got '2.5'"),
        (["--pair-limit", "1e3"], "--pair-limit needs an integer, got '1e3'"),
        (["--timeout-seconds", "soon"], "--timeout-seconds needs a number, got 'soon'"),
        (["--timeout-seconds="], "--timeout-seconds needs a number, got ''"),
        (["--order", "deglex"], "--order must be lex or grevlex, got 'deglex'"),
        (["--order=Lex"], "--order must be lex or grevlex, got 'Lex'"),
        (["--json=yes"], "--json takes no value"),
        (["--trace="], "--trace takes no value"),
        (["--allow-char-p-flatness=true"], "--allow-char-p-flatness takes no value"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_refused_argv_exits_one_with_one_line(capsys, argv, message):
    # after a valid --input, so that an argument accepted by mistake runs
    code = run(["--input", str(IDENTITY), *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert captured.err == f"fibrecheck: {message}\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_naming_every_flag(capsys, flag):
    code = run(["--json", flag])
    captured = capsys.readouterr()
    assert code == 0
    assert not captured.err
    assert captured.out.startswith("usage: fibrecheck ") and captured.out.count("\n") == 1
    for name in (
        "--input",
        "--json",
        "--max-power",
        "--order",
        "--allow-char-p-flatness",
        "--pair-limit",
        "--timeout-seconds",
        "--trace",
        "-h",
    ):
        assert f"[{name}" in captured.out
