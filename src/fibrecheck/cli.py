"""Input language, report rendering, and the command-line driver.

The input is line-oriented ('#' starts a comment):

    field Q | field F <p>          (default Q)
    base y1 y2 ...                 (required)
    vars x1 x2 ...                 (may be empty / omitted)
    ideal: <poly>, <poly>, ...
    module <rank>: (<poly>; ...), ...
    check open | flat | both       (default both)
    power <k>                      (optional max-power override)

A variable may be used only on lines after the one that declares it.  Every
ideal generator must be nonzero; zero entries inside module vectors are
allowed.  All module lines share one rank.

Polynomials are +/- sums of products of rational coefficients ("3", "3/2"),
declared variables, "^" integer powers (at most MAX_EXPONENT) and parentheses
(nested at most MAX_NESTING deep); an expression may form at most
MAX_EXPANSION term products, weighted by coefficient size (COEFF_CHUNK_BITS),
while it expands.  Every expression is read in the input's final field.

Exit codes: 0 verdicts computed (or --help), 1 parse/semantic error or a flag
refused (see :mod:`fibrecheck.flags`), 2 unsupported input, 3 resource limit
or timeout.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction

from . import __version__, flags
from .fields import PRIME_LIMIT, QQ, PrimeField
from .groebner import ResourceLimitError
from .poly import Polynomial, RingLayout, power_products, render_poly
from .power import ModuleSpec, Problem
from .verticality import (
    CharacteristicGuardError,
    Verdict,
    characteristic_guard,
    check_flatness,
    check_openness,
)


# Largest exponent accepted after "^".  A policy limit on the degree one power
# may produce, not a bound on parsing cost: Polynomial.__pow__ squares, so even
# x^3000000 would expand at once.  Parsing cost is bounded by MAX_EXPANSION.
MAX_EXPONENT = 1000

# Deepest parenthesis nesting an expression may use.  The parser recurses once
# per level, so this keeps it far from the interpreter's recursion limit.
MAX_NESTING = 100

# Most term products one expression may form while it is parsed, which runs
# before any budget of the run exists; the run's deadline is checked at every
# charge and before every expression.  A product a*b forms |a|*|b|; a power
# b^e is charged the products of its squaring schedule, each b^k counted at
# its most terms, C(t+k-1, t-1) for a t-term base (poly.power_products).  At
# 10^5 an expression parses in under a second on a 2-core x86 host.
MAX_EXPANSION = 100_000

# Coefficient size is charged too: a term product whose factors' widest
# coefficients span a and b chunks of COEFF_CHUNK_BITS bits counts as a*b term
# products.  Multiplying big integers costs about the product of their sizes,
# and two one-chunk coefficients cost about as much as the term bookkeeping.
COEFF_CHUNK_BITS = 1024


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        loc = f"line {line}, col {col}"
        full = f"{loc}: {message}"
        if expected:
            full += f" (expected {expected})"
        super().__init__(full)
        self.line = line
        self.col = col
        self.expected = expected


def _parse_int(text: str, what: str, line: int, col: int) -> int:
    """The integer ``text`` spells, or a ParseError at (line, col).  int()
    also refuses digit strings longer than the interpreter's conversion limit
    (4300 digits by default); that is reported as a located error too."""
    try:
        return int(text)
    except ValueError:
        pass
    digits = text.strip().lstrip("+-").replace("_", "")
    if digits.isdecimal():
        raise ParseError(f"{what} has too many digits ({len(digits)})", line, col)
    raise ParseError(f"{what} must be an integer", line, col)


# ---------------------------------------------------------------------------
# polynomial expressions


def _chunks(bits: int) -> int:
    return max(1, -(-bits // COEFF_CHUNK_BITS))


def _coeff_bits(f: Polynomial) -> int:
    """Bit length of the widest numerator or denominator of f's coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c, _ in f.terms),
        default=0,
    )


def _power_bits(f: Polynomial, e: int, fld) -> int:
    """Bound on the bit length of the coefficients of f^e.  Over F_p they
    stay below p.  Over Q, f = g/D with g integral and D the lcm of the
    denominators, so f^e has numerators at most (sum of |coefficients of g|)^e
    and denominators dividing D^e."""
    if fld.characteristic:
        return fld.characteristic.bit_length()
    den = math.lcm(*(c.denominator for c, _ in f.terms))
    total = sum(abs(c.numerator) * (den // c.denominator) for c, _ in f.terms)
    return e * max(total, den).bit_length()


class _Expression:
    """The parser of one expression: its tokens, their line and column offset
    in the input, the problem's final layout and field, in which it builds
    the polynomial, the names declared before its line and the run's
    deadline, if any.  The grammar is its methods: sum, product, power and
    atom."""

    def __init__(self, text: str, line: int, offset: int, layout: RingLayout, fld, declared, deadline=None):
        self.line, self.offset, self.deadline = line, offset, deadline
        self.layout, self.fld, self.declared = layout, fld, declared
        self.work = 0  # term products charged so far, at most MAX_EXPANSION
        self.depth = 0  # parentheses open, at most MAX_NESTING
        self.toks, self.i = [], 0
        n, i = len(text), 0
        while i < n:
            ch, start = text[i], i
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                while i < n and text[i].isdigit():
                    i += 1
                self.toks.append(("INT", text[start:i], start))
            elif ch.isalpha() or ch == "_":
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                self.toks.append(("IDENT", text[start:i], start))
            elif ch in "+-*^()/":
                self.toks.append((ch, ch, start))
                i += 1
            else:
                self.error(f"unexpected character {ch!r}", start=start)
        self.toks.append(("EOF", "", n))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def error(self, message, expected=None, start=None):
        """A ParseError at the token starting at ``start``, by default the
        next one."""
        start = self.peek()[2] if start is None else start
        raise ParseError(message, self.line, self.offset + start + 1, expected)

    def charge(self, products: int, start: int):
        """Count ``products`` term products, weighted by coefficient size,
        against MAX_EXPANSION before they are formed; an excess is a
        ParseError at the token at ``start``, and a passed deadline a
        ResourceLimitError naming the line."""
        self.work += products
        if self.work > MAX_EXPANSION:
            self.error(f"expression expands to more than {MAX_EXPANSION} term products", start=start)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError(f"timeout exceeded while parsing line {self.line}")

    def int_at(self, text: str, start: int, what: str) -> int:
        """The integer of the token text starting at ``start``."""
        return _parse_int(text, what, self.line, self.offset + start + 1)

    def parse(self) -> Polynomial:
        self.charge(0, 0)  # the deadline, between expressions
        expr = self.sum()
        if self.peek()[0] != "EOF":
            self.error(f"trailing input {self.peek()[1]!r}", "end of expression")
        return expr

    def sum(self) -> Polynomial:
        negate = self.peek()[0] == "-"
        if self.peek()[0] in ("+", "-"):
            self.next()
        acc = -self.product() if negate else self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            term = self.product()
            acc = acc + term if op == "+" else acc - term
        return acc

    def product(self) -> Polynomial:
        acc = self.power()
        while self.peek()[0] == "*":
            start = self.next()[2]
            factor = self.power()
            width = _chunks(_coeff_bits(acc)) * _chunks(_coeff_bits(factor))
            self.charge(len(acc.terms) * len(factor.terms) * width, start)
            acc = acc * factor
        return acc

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        kind, text, start = self.peek()
        if kind != "INT":
            self.error("exponent must be an integer", "integer")
        digits = text.lstrip("0") or "0"
        # longer than the maximum is larger, however long it is to convert
        if len(digits) > len(str(MAX_EXPONENT)):
            exponent = MAX_EXPONENT + 1
        else:
            exponent = self.int_at(digits, start, "exponent")
        if exponent > MAX_EXPONENT:
            self.error(f"exponent {text} exceeds the maximum {MAX_EXPONENT}")
        self.next()
        # every power b^k of the schedule is at most as wide as b^e
        width = _chunks(_power_bits(base, exponent, self.fld)) ** 2
        self.charge(power_products(len(base.terms), exponent) * width, start)
        return base ** exponent

    def atom(self) -> Polynomial:
        kind, text, start = self.peek()
        if kind == "INT":
            value = self.int_at(text, start, "coefficient")
            self.next()
            if self.peek()[0] == "/":
                self.next()
                k2, t2, start2 = self.peek()
                if k2 != "INT":
                    self.error("denominator must be an integer", "integer")
                den = self.int_at(t2, start2, "denominator")
                if den == 0:
                    self.error("zero denominator")
                if self.fld.characteristic and den % self.fld.characteristic == 0:
                    self.error(f"denominator divisible by the characteristic {self.fld.characteristic}")
                self.next()
                value = Fraction(value, den)
            return Polynomial.constant(self.layout, self.fld, value)
        if kind == "IDENT":
            if text not in self.declared:
                self.error(f"undeclared variable {text!r}")
            self.next()
            return Polynomial.variable(self.layout, self.fld, text)
        if kind != "(":
            self.error(f"unexpected token {text!r}", "number, variable or '('")
        if self.depth == MAX_NESTING:
            self.error(f"parentheses nested deeper than {MAX_NESTING}")
        self.depth += 1
        self.next()
        inner = self.sum()
        if self.peek()[0] != ")":
            self.error("unbalanced parenthesis", "')'")
        self.next()
        self.depth -= 1
        return inner


# ---------------------------------------------------------------------------
# problem parsing


def _split_top_level(text: str, sep: str):
    """Split on sep outside parentheses; yields (chunk, start_offset)."""
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == sep and depth == 0:
            yield text[start:i], start
            start = i + 1
    yield text[start:], start


def parse_problem(text: str, deadline: float | None = None) -> Problem:
    """The problem ``text`` states; a ParseError where it is malformed, and a
    ResourceLimitError once the ``time.monotonic()`` deadline has passed."""
    field = QQ
    base: list = []
    fibre: list = []
    # (is a module line, payload, line_no, col_offset, names declared before it)
    payloads: list = []
    module_rank: int | None = None
    checks: tuple | None = None
    max_power: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        words = stripped.split()
        head = words[0]
        if head == "field":
            if len(words) == 2 and words[1] == "Q":
                field = QQ
            elif len(words) == 3 and words[1] == "F":
                p = _parse_int(words[2], "modulus", lineno, indent + 1)
                if p >= PRIME_LIMIT:
                    raise ParseError(f"modulus must be below {PRIME_LIMIT}", lineno, indent + 1)
                try:
                    field = PrimeField(p)
                except ValueError:
                    raise ParseError("non-prime modulus", lineno, indent + 1)
            else:
                raise ParseError("malformed field statement", lineno, indent + 1, "'Q' or 'F <p>'")
        elif head in ("base", "vars"):
            names = base if head == "base" else fibre
            for name in words[1:]:
                if not (name[0].isalpha() or name[0] == "_") or not all(
                    c.isalnum() or c == "_" for c in name
                ):
                    raise ParseError(f"bad variable name {name!r}", lineno, indent + 1)
                if name in base or name in fibre:
                    raise ParseError(f"duplicate variable {name!r}", lineno, indent + 1)
                names.append(name)
        elif head == "ideal" or head.startswith("ideal:"):
            body = stripped[len("ideal"):].lstrip()
            if not body.startswith(":"):
                raise ParseError("missing ':' after 'ideal'", lineno, indent + 1, "':'")
            payload = body[1:]
            payloads.append((False, payload, lineno, len(raw) - len(payload), {*base, *fibre}))
        elif head == "module":
            rest = stripped[len("module"):].lstrip()
            head_part, colon, payload = rest.partition(":")
            if not colon:
                raise ParseError("missing ':' after module rank", lineno, indent + 1, "':'")
            rank = _parse_int(head_part.strip(), "module rank", lineno, indent + 1)
            if rank < 1:
                raise ParseError("module rank must be >= 1", lineno, indent + 1)
            if module_rank is not None and module_rank != rank:
                raise ParseError("conflicting module ranks", lineno, indent + 1)
            module_rank = rank
            payloads.append((True, payload, lineno, len(raw) - len(payload), {*base, *fibre}))
        elif head == "check":
            if len(words) != 2 or words[1] not in ("open", "flat", "both"):
                raise ParseError("malformed check statement", lineno, indent + 1, "'open', 'flat' or 'both'")
            checks = ("open", "flat") if words[1] == "both" else (words[1],)
        elif head == "power":
            if len(words) != 2:
                raise ParseError("malformed power statement", lineno, indent + 1, "'power <k>'")
            max_power = _parse_int(words[1], "power", lineno, indent + 1)
            if max_power < 1:
                raise ParseError("power must be >= 1", lineno, indent + 1)
        else:
            raise ParseError(f"unknown statement {head!r}", lineno, indent + 1)

    if not base:
        raise ParseError("no base variables declared", 1, 1)

    # every expression is built in the final layout and field; ideal payloads
    # are read before module payloads, each in input order
    layout = RingLayout(tuple(base), tuple(fibre), 1, None)
    gens: list = []
    vectors: list = []
    for is_module, payload, lineno, offset, declared in sorted(payloads, key=lambda entry: entry[0]):
        for chunk, chunk_off in _split_top_level(payload, ","):
            col = offset + chunk_off + 1 + len(chunk) - len(chunk.lstrip())  # the expression's first character
            if not is_module:
                gens.append(_Expression(chunk, lineno, offset + chunk_off, layout, field, declared, deadline).parse())
                if gens[-1].is_zero:
                    raise ParseError("zero generator", lineno, col)
                continue
            s = chunk.strip()
            if not s:
                raise ParseError("empty module vector", lineno, col)
            if not (s.startswith("(") and s.endswith(")")):
                raise ParseError("module vector must be parenthesized", lineno, col, "'(' ... ')'")
            vectors.append(tuple(
                _Expression(comp, lineno, col + comp_off, layout, field, declared, deadline).parse()
                for comp, comp_off in _split_top_level(s[1:-1], ";")
            ))
            if len(vectors[-1]) != module_rank:
                raise ParseError(f"module vector has {len(vectors[-1])} components, rank is {module_rank}", lineno, col)

    return Problem(
        field=field,
        base_vars=tuple(base),
        fibre_vars=tuple(fibre),
        ideal_gens=tuple(gens),
        module=None if module_rank is None else ModuleSpec(module_rank, tuple(vectors)),
        checks=checks or ("open", "flat"),
        max_power=max_power,
    )


# ---------------------------------------------------------------------------
# reports


def _render_witness(p) -> str:
    if isinstance(p, Polynomial):
        return render_poly(p)
    return "(" + "; ".join(render_poly(c) for c in p) + ")"


def _verdict_json(v: Verdict, trace: bool) -> dict:
    """One check's entry of the report: the model that the JSON report, the
    text report and the --trace lines all render.  Witnesses are printed
    exactly as they were verified."""
    d: dict = {"kind": v.kind, "outcome": v.outcome}
    if v.failing_power is not None:
        d["failing_power"] = v.failing_power
    for key in ("witness_g", "witness_r", "certificate_r", "certificate_v"):
        if getattr(v, key) is not None:
            d[key] = _render_witness(getattr(v, key))
    if not v.conclusive and v.outcome == "pass":
        d["conclusive"] = False
    if v.abort_reason is not None:
        d["abort_reason"] = v.abort_reason
    d["powers"] = [
        {"k": ps.k, "basis_size": ps.basis_size, "pairs": ps.pairs, **({"millis": ps.millis} if trace else {})}
        for ps in v.powers
    ]
    return d


# The text report's phrases per check kind: the headline of each state, and
# what the witness of a failure shows.  {tested} is the last power tried.
_PHRASES = {
    "open": {
        "fail": "NOT OPEN (vertical component at fibred power {failing_power})",
        "pass": "OPEN (no vertical components through fibred power {tested})",
        "inconclusive": "INCONCLUSIVE-PASS (no vertical component up to fibred power {tested}, below the base dimension)",
        "meaning": "the image of the component cut out by g at power {failing_power} lies inside the zero set of r",
    },
    "flat": {
        "fail": "NOT FLAT (torsion at tensor power {failing_power})",
        "pass": "FLAT (torsion-free through tensor power {tested})",
        "inconclusive": "INCONCLUSIVE-PASS (torsion-free up to tensor power {tested}, below the base dimension)",
        "meaning": "r annihilates the class of v in the tensor power {failing_power} while v is nonzero there",
    },
}


def _render_verdict_text(d: dict) -> list:
    phrases = _PHRASES[d["kind"]]
    state = "inconclusive" if d.get("conclusive") is False else d["outcome"]
    headline = "ABORTED ({abort_reason})" if state == "aborted" else phrases[state]
    out = [f"check {d['kind']}: " + headline.format(tested=len(d["powers"]), **d)]
    witnesses = [key for key in d if key.startswith(("witness_", "certificate_"))]
    out += [f"  {key.replace('_', ' ')} = {d[key]}" for key in witnesses]
    if state == "fail":
        out.append("  " + phrases["meaning"].format(**d))
    out += [f"  power {p['k']}: basis size {p['basis_size']}, pairs {p['pairs']}" for p in d["powers"]]
    return out + [""]


def render_report(problem: Problem, checks: list, fmt: str = "text") -> str:
    """The report of a run, from the problem and the entries of its checks."""
    if fmt == "json":
        doc = {
            "version": __version__,
            "field": problem.field.name,
            "n": problem.n,
            "m": problem.m,
            "checks": checks,
        }
        return json.dumps(doc, indent=2) + "\n"

    lines = [f"fibrecheck {__version__}"]
    lines.append(f"field: {problem.field.name}")
    lines.append(f"base: {' '.join(problem.base_vars)}  (n = {problem.n})")
    if problem.fibre_vars:
        lines.append(f"fibre: {' '.join(problem.fibre_vars)}  (m = {problem.m})")
    if problem.ideal_gens:
        lines.append("ideal: " + ", ".join(render_poly(g) for g in problem.ideal_gens))
    else:
        lines.append("ideal: (0)")
    lines.append("")
    for d in checks:
        lines.extend(_render_verdict_text(d))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# driver


def run(argv=None) -> int:
    started = time.monotonic()  # --timeout-seconds bounds the whole run from here
    try:
        options, config = flags.parse(sys.argv[1:] if argv is None else argv, started)
    except flags.Usage as usage:
        print(usage)
        return 0
    except flags.FlagError as exc:
        print(f"fibrecheck: {exc}", file=sys.stderr)
        return 1

    try:
        if options["input"] == "-":
            text = sys.stdin.read()
        else:
            with open(options["input"], "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"fibrecheck: cannot read input: {exc}", file=sys.stderr)
        return 1

    try:
        problem = parse_problem(text, config.deadline)
    except ValueError as exc:  # a ParseError, or a problem the model refuses
        print(f"fibrecheck: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:  # the deadline passed while parsing
        print(f"fibrecheck: {exc}", file=sys.stderr)
        return 3

    try:
        if "flat" in problem.checks:
            characteristic_guard(problem, config)
        verdicts = [
            check_openness(problem, config) if kind == "open" else check_flatness(problem, config)
            for kind in problem.checks
        ]
    except CharacteristicGuardError as exc:
        print(f"fibrecheck: unsupported: {exc}", file=sys.stderr)
        return 2

    checks = [_verdict_json(v, options["trace"]) for v in verdicts]
    sys.stdout.write(render_report(problem, checks, "json" if options["json"] else "text"))
    if options["trace"]:
        sys.stderr.writelines(
            f"trace: {d['kind']} power {p['k']}: basis {p['basis_size']}, pairs {p['pairs']}, {p['millis']} ms\n"
            for d in checks
            for p in d["powers"]
        )
    return 3 if any(d["outcome"] == "aborted" for d in checks) else 0


def main() -> None:
    sys.exit(run())
