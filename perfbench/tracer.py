"""Outside-in tracing of the fibrecheck modules.

The tracer replaces public functions and methods of the package with wrappers
at run time; nothing under src/ changes.  A function imported by name into
another module is a second binding of the same object, so every binding in
every ``fibrecheck`` module is replaced, and :meth:`Tracer.install` fails if
one is left over.

Spans are aggregated per name (calls, total and self time); a span nested in
a span of the same name is folded into the outer one.  Each check's
``ComputeBudget`` is captured by wrapping ``CheckConfig.budget``, and the
pairs and reduction steps it charges while a span is open are added to that
span (inclusive counts).
"""

from __future__ import annotations

import importlib
import time

MODULES = ("cli", "power", "verticality", "idealops", "groebner", "poly", "fields")

# span name -> (module, function) pairs it covers
FUNCTION_SPANS = {
    "cli.parse_problem": (("cli", "parse_problem"),),
    "cli.render_report": (("cli", "render_report"),),
    "verticality.check": (("verticality", "check_openness"), ("verticality", "check_flatness")),
    "power.build": (("power", "fibred_power_ideal"), ("power", "tensor_power_presentation")),
    "verticality.vertical_component": (("verticality", "has_vertical_component"),),
    "verticality.dominant_part": (("verticality", "dominant_part"),),
    "verticality.witness": (("verticality", "vertical_witness"), ("verticality", "_annihilator_witness")),
    "verticality.torsion": (("verticality", "has_torsion_ideal"), ("verticality", "has_torsion_module")),
    "verticality.verify": (
        ("verticality", "_verify_open_witness"),
        ("verticality", "_verify_flat_ideal_certificate"),
        ("verticality", "_verify_flat_module_certificate"),
    ),
    "idealops.saturate": (("idealops", "saturate"),),
    "idealops.module_saturate": (("idealops", "module_saturate"),),
    "idealops.radical_member": (("idealops", "radical_member"),),
    "idealops.quotient": (("idealops", "quotient"),),
    "idealops.contract_to_base": (("idealops", "contract_to_base"),),
    "groebner.buchberger": (("groebner", "buchberger"),),
    "groebner.module_buchberger": (("groebner", "module_buchberger"),),
    "groebner.normal_form": (("groebner", "normal_form"), ("groebner", "module_normal_form")),
}

# span name -> (module, class, method)
METHOD_SPANS = {
    "poly.mul": ("poly", "Polynomial", "__mul__"),
    "poly.add": ("poly", "Polynomial", "__add__"),
    "poly.mul_term": ("poly", "Polynomial", "mul_term"),
}

SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)

# Spans that also report the budget pairs and reduction steps charged inside them.
BUDGET_SPANS = tuple(n for n in SPAN_NAMES if n.startswith(("verticality.", "idealops.")) and n != "verticality.check")

# The check span; its direct children give trace.coverage.
CHECK_SPAN = "verticality.check"


def _module(name):
    return importlib.import_module(f"fibrecheck.{name}")


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        # per span: [calls, total_s, self_s, pairs, reduction_steps]
        self.stats = {name: [0, 0.0, 0.0, 0, 0] for name in SPAN_NAMES}
        self.stack = []          # open spans: [child_s, budget, pairs0, work0]
        self.open_names = set()
        self.budget = None       # ComputeBudget of the running check
        self.budgets = []
        self.coverage = []       # (check_s, children_s) per check
        self.counts = dict.fromkeys(
            (
                "power.relations",
                "groebner.spolys",
                "groebner.spoly_reductions",
                "groebner.spoly_reductions_zero",
                "groebner.basis_requests",
                "groebner.basis_cache_hits",
                "groebner.basis_peak",
                "poly.from_dict.calls",
                "poly.from_dict.terms",
                "poly.order_key.calls",
                "poly.leading_term.calls",
                "fields.coeff_bits_max",
            ),
            0,
        )
        self._last_spoly = None

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, on_exit=None):
        stats = self.stats[name]
        stack = self.stack
        open_names = self.open_names
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            budget = tracer.budget
            frame = [0.0, budget, budget.pairs if budget else 0, budget.work if budget else 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_names.discard(name)
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                now = tracer.budget
                if now is not None:
                    same = now is budget
                    stats[3] += now.pairs - (frame[2] if same else 0)
                    stats[4] += now.work - (frame[3] if same else 0)
            if on_exit is not None:
                on_exit(args, result, dt, frame[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks -------------------------------------------------------------

    def _after_check(self, args, result, dt, children):
        self.coverage.append((dt, children))

    def _after_build(self, args, result, dt, children):
        gens = getattr(result, "gens", None)
        self.counts["power.relations"] += len(gens if gens is not None else result.relations)

    def _note_bits(self, polys):
        bits = self.counts["fields.coeff_bits_max"]
        for poly in polys:
            for c, _ in poly.terms:
                bits = max(bits, _coeff_bits(c))
        self.counts["fields.coeff_bits_max"] = bits

    def _after_basis(self, args, result, dt, children):
        basis = result[0] if isinstance(result, tuple) else result
        counts = self.counts
        counts["groebner.basis_peak"] = max(counts["groebner.basis_peak"], len(basis))
        self._note_bits(p for element in basis for p in (element if isinstance(element, tuple) else (element,)))

    def _after_normal_form(self, args, result, dt, children):
        # An S-polynomial remainder; when nonzero, Buchberger adds it to the basis.
        if args and args[0] is self._last_spoly:
            self._last_spoly = None
            remainder = result[0] if isinstance(result, tuple) else result
            self.counts["groebner.spoly_reductions"] += 1
            self.counts["groebner.spoly_reductions_zero"] += remainder.is_zero
            self._note_bits((remainder,))

    # -- installation ------------------------------------------------------

    @staticmethod
    def _rebind(original, replacement):
        """Replace every binding of ``original`` in the package's modules."""
        for mod in [importlib.import_module("fibrecheck")] + [_module(m) for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap the package for the rest of the process's life."""
        hooks = {
            CHECK_SPAN: self._after_check,
            "power.build": self._after_build,
            "groebner.buchberger": self._after_basis,
            "groebner.module_buchberger": self._after_basis,
            "groebner.normal_form": self._after_normal_form,
        }
        originals = []
        for name, targets in FUNCTION_SPANS.items():
            for mod, attr in targets:
                fn = getattr(_module(mod), attr)
                originals.append(fn)
                self._rebind(fn, self._span(name, fn, hooks.get(name)))
        for name, (mod, cls_name, attr) in METHOD_SPANS.items():
            cls = getattr(_module(mod), cls_name)
            setattr(cls, attr, self._span(name, cls.__dict__[attr]))
        self._install_counters()
        left = [
            f"{m}.{a}"
            for m in MODULES
            for a, v in vars(_module(m)).items()
            if any(v is fn for fn in originals)
        ]
        if left:
            raise RuntimeError(f"untraced bindings remain: {', '.join(left)}")

    def _install_counters(self):
        poly, groebner, verticality = _module("poly"), _module("groebner"), _module("verticality")
        counts = self.counts
        tracer = self

        from_dict = poly.Polynomial.__dict__["from_dict"].__func__

        def counted_from_dict(layout, field, mapping):
            result = from_dict(layout, field, mapping)
            counts["poly.from_dict.calls"] += 1
            counts["poly.from_dict.terms"] += len(result.terms)
            return result

        poly.Polynomial.from_dict = staticmethod(counted_from_dict)

        key = poly.MonomialOrder.key

        def counted_key(order, exps):
            counts["poly.order_key.calls"] += 1
            return key(order, exps)

        poly.MonomialOrder.key = counted_key

        leading_term = poly.Polynomial.leading_term

        def counted_leading_term(f, order=None):
            counts["poly.leading_term.calls"] += 1
            return leading_term(f, order)

        poly.Polynomial.leading_term = counted_leading_term

        s_polynomial = groebner.s_polynomial

        def counted_s_polynomial(f, g, order):
            result = s_polynomial(f, g, order)
            counts["groebner.spolys"] += 1
            tracer._last_spoly = result
            return result

        self._rebind(s_polynomial, counted_s_polynomial)

        default_order = poly.default_order
        for cls, default in (
            (groebner.Ideal, lambda ideal: default_order(ideal.layout)),
            (groebner.ModulePresentation, lambda pres: pres.morder),
        ):
            cls.groebner_basis = self._counted_basis(cls.groebner_basis, default)

        budget = verticality.CheckConfig.budget

        def captured_budget(config):
            b = budget(config)
            tracer.budget = b
            tracer.budgets.append(b)
            return b

        verticality.CheckConfig.budget = captured_budget

    def _counted_basis(self, method, default):
        counts = self.counts

        def counted(obj, order=None, budget=None):
            counts["groebner.basis_requests"] += 1
            counts["groebner.basis_cache_hits"] += (order or default(obj)) in obj._gb_cache
            return method(obj, order, budget)

        return counted

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        out = {}
        for name in SPAN_NAMES:
            calls, total, self_s, _, _ = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_ms"] = (total * 1000, "ms")
            out[f"{name}.self_ms"] = (self_s * 1000, "ms")
        for name in BUDGET_SPANS:
            _, _, _, pairs, work = self.stats[name]
            out[f"{name}.pairs"] = (pairs, "count")
            out[f"{name}.reduction_steps"] = (work, "count")
        c = self.counts
        pairs = sum(b.pairs for b in self.budgets)
        # Module S-vectors are formed for every pair, with no criterion.
        spolys = c["groebner.spolys"] + self.stats["groebner.module_buchberger"][3]
        out["power.relations"] = (c["power.relations"], "count")
        out["groebner.pairs"] = (pairs, "count")
        out["groebner.reduction_steps"] = (sum(b.work for b in self.budgets), "count")
        out["groebner.spolys"] = (spolys, "count")
        out["groebner.pairs_skipped_share"] = (1 - spolys / pairs if pairs else 0.0, "share")
        reductions = c["groebner.spoly_reductions"]
        out["groebner.nf_zero_share"] = (
            c["groebner.spoly_reductions_zero"] / reductions if reductions else 0.0,
            "share",
        )
        requests = c["groebner.basis_requests"]
        out["groebner.basis_cache_hit_share"] = (
            c["groebner.basis_cache_hits"] / requests if requests else 0.0,
            "share",
        )
        out["groebner.basis_peak"] = (c["groebner.basis_peak"], "count")
        for name in ("poly.from_dict.calls", "poly.from_dict.terms", "poly.order_key.calls", "poly.leading_term.calls"):
            out[name] = (c[name], "count")
        out["fields.coeff_bits_max"] = (c["fields.coeff_bits_max"], "bits")
        out["trace.coverage"] = (
            min((children / total for total, children in self.coverage if total > 0), default=1.0),
            "share",
        )
        return out
