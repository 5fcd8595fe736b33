"""The command-line flags: one table, read straight into a run's options and
its :class:`CheckConfig`.

A value follows its flag as the next argument or after ``=``; a later
occurrence of a flag overrides an earlier one.  A separate value may start
with '-' only as a negative number or as '-' alone (stdin for ``--input``).
"""

from __future__ import annotations

import re

from .verticality import CheckConfig

# flag: (default, type, metavar).  A bool flag is a switch and takes no
# value; a tuple type names the values a flag accepts.
FLAGS = {
    "--input": ("-", str, "FILE"),
    "--json": (False, bool, None),
    "--max-power": (None, int, "K"),
    "--order": ("grevlex", ("lex", "grevlex"), "lex|grevlex"),
    "--allow-char-p-flatness": (False, bool, None),
    "--pair-limit": (100_000, int, "N"),
    "--timeout-seconds": (None, float, "S"),
    "--trace": (False, bool, None),
}

_NOUNS = {int: "an integer", float: "a number"}


class FlagError(ValueError):
    """An argument the table does not accept, or a value out of range."""


class Usage(Exception):
    """-h or --help was given; the message is the usage line."""


def usage() -> str:
    parts = (f"[{flag} {metavar}]" if metavar else f"[{flag}]" for flag, (_, _, metavar) in FLAGS.items())
    return "usage: fibrecheck " + " ".join(parts) + " [-h]"


def _read(flag: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise FlagError(f"{flag} must be {' or '.join(kind)}, got {text!r}")
        return text
    try:
        return kind(text)
    except ValueError:
        raise FlagError(f"{flag} needs {_NOUNS[kind]}, got {text!r}") from None


def parse(argv, started: float) -> tuple:
    """(options, config) of a run's arguments: the options ``input``,
    ``json`` and ``trace``, and the config whose deadline is
    ``--timeout-seconds`` after ``started``.  FlagError for an argument the
    table refuses, and Usage for -h or --help."""
    values = {flag: default for flag, (default, _, _) in FLAGS.items()}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            raise Usage(usage())
        flag, eq, text = arg.partition("=")
        if flag not in FLAGS:
            raise FlagError(f"unrecognized flag {arg!r}" if arg.startswith("-") else f"unexpected argument {arg!r}")
        kind = FLAGS[flag][1]
        if kind is bool:
            if eq:
                raise FlagError(f"{flag} takes no value")
            values[flag] = True
            continue
        if not eq:
            text = next(args, None)
            if text is None or (text.startswith("-") and text != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", text)):
                raise FlagError(f"{flag} needs a value")
        values[flag] = _read(flag, kind, text)

    max_power, pair_limit, timeout = values["--max-power"], values["--pair-limit"], values["--timeout-seconds"]
    if max_power is not None and max_power < 1:
        raise FlagError(f"--max-power must be >= 1, got {max_power}")
    if pair_limit < 1:
        raise FlagError(f"--pair-limit must be >= 1, got {pair_limit}")
    if timeout is not None and not timeout > 0:
        raise FlagError(f"--timeout-seconds must be > 0, got {timeout:g}")
    options = {"input": values["--input"], "json": values["--json"], "trace": values["--trace"]}
    config = CheckConfig(
        within=values["--order"],
        max_power=max_power,
        pair_limit=pair_limit,
        deadline=None if timeout is None else started + timeout,
        allow_char_p_flatness=values["--allow-char-p-flatness"],
    )
    return options, config
