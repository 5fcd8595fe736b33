"""Input language, report rendering, and the command-line driver.

The input is line-oriented ('#' starts a comment):

    field Q | field F <p>          (default Q)
    base y1 y2 ...                 (required)
    vars x1 x2 ...                 (may be empty / omitted)
    ideal: <poly>, <poly>, ...
    module <rank>: (<poly>; ...), ...
    check open | flat | both       (default both)
    power <k>                      (optional max-power override)

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
from .poly import Polynomial, RingLayout, power_products, render_poly, transport
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
# before any budget of the run exists.  A product a*b forms |a|*|b|; a power
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


class _Tokens:
    def __init__(self, text: str, line: int, col_offset: int):
        self.text = text
        self.line = line
        self.offset = col_offset
        self.work = 0  # term products charged so far, at most MAX_EXPANSION
        self.depth = 0  # parentheses open, at most MAX_NESTING
        self.toks = []
        self._lex()
        self.i = 0

    def _lex(self):
        s, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = s[i]
            if ch.isspace():
                i += 1
                continue
            start = i
            if ch.isdigit():
                while i < n and s[i].isdigit():
                    i += 1
                self.toks.append(("INT", s[start:i], start))
            elif ch.isalpha() or ch == "_":
                while i < n and (s[i].isalnum() or s[i] == "_"):
                    i += 1
                self.toks.append(("IDENT", s[start:i], start))
            elif ch in "+-*^()/":
                self.toks.append((ch, ch, start))
                i += 1
            else:
                raise ParseError(
                    f"unexpected character {ch!r}",
                    self.line,
                    self.offset + start + 1,
                )
        self.toks.append(("EOF", "", n))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, message, expected=None):
        _, _, start = self.peek()
        raise ParseError(message, self.line, self.offset + start + 1, expected)

    def charge(self, products: int, start: int):
        """Count ``products`` term products, weighted by coefficient size,
        against MAX_EXPANSION before they are formed; an excess is a
        ParseError at the token at ``start``."""
        self.work += products
        if self.work > MAX_EXPANSION:
            raise ParseError(
                f"expression expands to more than {MAX_EXPANSION} term products",
                self.line,
                self.offset + start + 1,
            )

    def int_at(self, text: str, start: int, what: str) -> int:
        """The integer of the token text starting at ``start``."""
        return _parse_int(text, what, self.line, self.offset + start + 1)


def _parse_polyexpr(tokens: _Tokens, layout: RingLayout, fld) -> Polynomial:
    expr = _parse_sum(tokens, layout, fld)
    if tokens.peek()[0] != "EOF":
        tokens.error(f"trailing input {tokens.peek()[1]!r}", "end of expression")
    return expr


def _parse_sum(tokens, layout, fld):
    sign = 1
    if tokens.peek()[0] in ("+", "-"):
        sign = -1 if tokens.next()[0] == "-" else 1
    acc = _parse_product(tokens, layout, fld)
    if sign < 0:
        acc = -acc
    while tokens.peek()[0] in ("+", "-"):
        op = tokens.next()[0]
        term = _parse_product(tokens, layout, fld)
        acc = acc + term if op == "+" else acc - term
    return acc


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


def _parse_product(tokens, layout, fld):
    acc = _parse_power(tokens, layout, fld)
    while tokens.peek()[0] == "*":
        start = tokens.next()[2]
        factor = _parse_power(tokens, layout, fld)
        width = _chunks(_coeff_bits(acc)) * _chunks(_coeff_bits(factor))
        tokens.charge(len(acc.terms) * len(factor.terms) * width, start)
        acc = acc * factor
    return acc


def _parse_power(tokens, layout, fld):
    base = _parse_atom(tokens, layout, fld)
    if tokens.peek()[0] == "^":
        tokens.next()
        kind, text, start = tokens.peek()
        if kind != "INT":
            tokens.error("exponent must be an integer", "integer")
        digits = text.lstrip("0") or "0"
        # longer than the maximum is larger, however long it is to convert
        if len(digits) > len(str(MAX_EXPONENT)):
            exponent = MAX_EXPONENT + 1
        else:
            exponent = tokens.int_at(digits, start, "exponent")
        if exponent > MAX_EXPONENT:
            tokens.error(f"exponent {text} exceeds the maximum {MAX_EXPONENT}")
        tokens.next()
        # every power b^k of the schedule is at most as wide as b^e
        width = _chunks(_power_bits(base, exponent, fld)) ** 2
        tokens.charge(power_products(len(base.terms), exponent) * width, start)
        base = base ** exponent
    return base


def _parse_atom(tokens, layout, fld):
    kind, text, start = tokens.peek()
    if kind == "INT":
        num = tokens.int_at(text, start, "coefficient")
        tokens.next()
        if tokens.peek()[0] == "/":
            tokens.next()
            k2, t2, start2 = tokens.peek()
            if k2 != "INT":
                tokens.error("denominator must be an integer", "integer")
            den = tokens.int_at(t2, start2, "denominator")
            if den == 0:
                tokens.error("zero denominator")
            if fld.characteristic and den % fld.characteristic == 0:
                tokens.error(f"denominator divisible by the characteristic {fld.characteristic}")
            tokens.next()
            return Polynomial.constant(layout, fld, Fraction(num, den))
        return Polynomial.constant(layout, fld, num)
    if kind == "IDENT":
        tokens.next()
        try:
            return Polynomial.variable(layout, fld, text)
        except KeyError:
            raise ParseError(
                f"undeclared variable {text!r}",
                tokens.line,
                tokens.offset + tokens.toks[tokens.i - 1][2] + 1,
            ) from None
    if kind == "(":
        if tokens.depth == MAX_NESTING:
            tokens.error(f"parentheses nested deeper than {MAX_NESTING}")
        tokens.depth += 1
        tokens.next()
        inner = _parse_sum(tokens, layout, fld)
        if tokens.peek()[0] != ")":
            tokens.error("unbalanced parenthesis", "')'")
        tokens.next()
        tokens.depth -= 1
        return inner
    tokens.error(f"unexpected token {text!r}", "number, variable or '('")


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


def parse_problem(text: str) -> Problem:
    field = QQ
    base: list = []
    fibre: list = []
    ideal_lines: list = []   # (payload, line_no, col_offset, scope layout)
    module_rank: int | None = None
    module_lines: list = []
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
            declared = base if head == "base" else fibre
            for name in words[1:]:
                if not (name[0].isalpha() or name[0] == "_") or not all(
                    c.isalnum() or c == "_" for c in name
                ):
                    raise ParseError(f"bad variable name {name!r}", lineno, indent + 1)
                if name in base or name in fibre:
                    raise ParseError(f"duplicate variable {name!r}", lineno, indent + 1)
                declared.append(name)
        elif head.startswith("ideal"):
            body = stripped[len("ideal"):].lstrip()
            if not body.startswith(":"):
                raise ParseError("missing ':' after 'ideal'", lineno, indent + 1, "':'")
            payload = body[1:]
            offset = len(raw) - len(payload)
            ideal_lines.append((payload, lineno, offset, RingLayout(tuple(base), tuple(fibre))))
        elif head == "module":
            rest = stripped[len("module"):].lstrip()
            head_part, _, payload = rest.partition(":")
            if not _:
                raise ParseError("missing ':' after module rank", lineno, indent + 1, "':'")
            rank = _parse_int(head_part.strip(), "module rank", lineno, indent + 1)
            if rank < 1:
                raise ParseError("module rank must be >= 1", lineno, indent + 1)
            if module_rank is not None and module_rank != rank:
                raise ParseError("conflicting module ranks", lineno, indent + 1)
            module_rank = rank
            offset = len(raw) - len(payload)
            module_lines.append((payload, lineno, offset, RingLayout(tuple(base), tuple(fibre))))
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

    layout = RingLayout(tuple(base), tuple(fibre), 1, None)

    gens = []
    for payload, lineno, offset, scope in ideal_lines:
        for chunk, chunk_off in _split_top_level(payload, ","):
            tokens = _Tokens(chunk, lineno, offset + chunk_off)
            g = _parse_polyexpr(tokens, scope, field)
            if g.is_zero:
                raise ParseError("zero generator", lineno, offset + chunk_off + 1)
            gens.append(transport(g, layout))

    module = None
    if module_rank is not None:
        vectors = []
        for payload, lineno, offset, scope in module_lines:
            for chunk, chunk_off in _split_top_level(payload, ","):
                s = chunk.strip()
                if not s:
                    raise ParseError("empty module vector", lineno, offset + chunk_off + 1)
                if not (s.startswith("(") and s.endswith(")")):
                    raise ParseError("module vector must be parenthesized", lineno, offset + chunk_off + 1, "'(' ... ')'")
                inner = s[1:-1]
                inner_off = offset + chunk_off + chunk.index("(") + 1
                comps = []
                for comp_text, comp_off in _split_top_level(inner, ";"):
                    tokens = _Tokens(comp_text, lineno, inner_off + comp_off)
                    comps.append(transport(_parse_polyexpr(tokens, scope, field), layout))
                if len(comps) != module_rank:
                    raise ParseError(
                        f"module vector has {len(comps)} components, rank is {module_rank}",
                        lineno,
                        offset + chunk_off + 1,
                    )
                vectors.append(tuple(comps))
        module = ModuleSpec(module_rank, tuple(vectors))

    return Problem(
        field=field,
        base_vars=tuple(base),
        fibre_vars=tuple(fibre),
        ideal_gens=tuple(gens),
        module=module,
        checks=checks or ("open", "flat"),
        max_power=max_power,
    )


def render_problem(problem: Problem) -> str:
    """Inverse of parse_problem up to formatting (round-trip tested)."""
    lines = [f"field {'Q' if problem.field == QQ else 'F ' + str(problem.field.p)}"]
    lines.append("base " + " ".join(problem.base_vars))
    if problem.fibre_vars:
        lines.append("vars " + " ".join(problem.fibre_vars))
    if problem.ideal_gens:
        lines.append("ideal: " + ", ".join(render_poly(g) for g in problem.ideal_gens))
    if problem.module is not None:
        vecs = ", ".join(
            "(" + "; ".join(render_poly(c) for c in v) + ")"
            for v in problem.module.relations
        )
        lines.append(f"module {problem.module.rank}: {vecs}" if vecs else f"module {problem.module.rank}:")
    if problem.checks == ("open", "flat"):
        lines.append("check both")
    else:
        lines.append("check " + problem.checks[0])
    if problem.max_power is not None:
        lines.append(f"power {problem.max_power}")
    return "\n".join(lines) + "\n"


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
        problem = parse_problem(text)
    except ValueError as exc:  # a ParseError, or a problem the model refuses
        print(f"fibrecheck: {exc}", file=sys.stderr)
        return 1

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
