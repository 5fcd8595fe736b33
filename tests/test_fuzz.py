"""Grammar-shaped input text into the CLI: every run ends in exit code 0-3.

Parse errors, refused options and resource aborts are all clean exits; an
exception escaping ``cli.run`` (a traceback for the user) fails the test.
"""

from __future__ import annotations

import contextlib
import io
import sys

from hypothesis import given, settings, strategies as st

from fibrecheck.cli import run

_ATOM = st.one_of(
    st.sampled_from(("y", "y1", "x", "x1")),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
)

_EXPR = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*")), inner).map(" ".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.integers(1, 400), inner).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
    ),
    max_leaves=5,
)

_IDEAL = st.lists(_EXPR, min_size=1, max_size=2).map(lambda es: "ideal: " + ", ".join(es))

_CHECK = st.sampled_from(("check open", "check flat", "check both", "power 1"))


def _module(rank: int):
    """A module line of the given rank; its vectors may have other lengths."""
    vector = st.lists(_EXPR, min_size=1, max_size=3).map(lambda cs: "(" + "; ".join(cs) + ")")
    return st.lists(vector, min_size=1, max_size=2).map(lambda vs: f"module {rank}: " + ", ".join(vs))


@st.composite
def _input_text(draw):
    """Declarations, then statements, with a field statement anywhere and
    sometimes a line of raw printable noise.  Inputs are meant to get past
    the statement scan often, so that their expressions are parsed."""
    statements = st.one_of(_IDEAL, _module(draw(st.integers(1, 2))), _CHECK)
    lines = [
        draw(st.sampled_from(("base y y1", "base y1 y"))),
        draw(st.sampled_from(("vars x x1", "vars x1 x"))),
        *draw(st.lists(statements, min_size=1, max_size=4)),
    ]
    fields = st.sampled_from(("field Q", "field F 2", "field F 3", "field F 5"))
    lines.insert(draw(st.integers(0, len(lines))), draw(fields))
    if draw(st.integers(0, 3)) == 0:
        noise = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20)
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_input_text())
def test_cli_never_leaks_an_exception(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(["--json", "--pair-limit", "200", "--timeout-seconds", "2"])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)
