"""Fibred powers of Spec A -> Spec R at the ideal level, and tensor powers of
a finitely presented module at the presentation level.

The k-fold fibred power shares the base variables and carries k disjoint
relabelled fibre blocks; its defining ideal is the sum of the relabelled
copies of I.  Tensor indices of module powers are flattened row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal, ModulePresentation
from .poly import Polynomial, RingLayout, relabel


@dataclass(frozen=True)
class ModuleSpec:
    """A finitely presented module over A: relation vectors in A^rank, given
    by lifts to the single-copy polynomial ring."""

    rank: int
    relations: tuple  # tuple of vectors (tuples of rank polynomials)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("module rank must be >= 1")
        for v in self.relations:
            if len(v) != self.rank:
                raise ValueError("relation vector length differs from rank")


@dataclass
class Problem:
    """One openness/flatness question: the base ring k[y], the algebra
    A = k[y, x]/I, an optional module over A, and the requested checks."""

    field: object
    base_vars: tuple
    fibre_vars: tuple
    ideal_gens: tuple  # nonzero polynomials in the single-copy layout
    module: ModuleSpec | None = None
    checks: tuple = ("open", "flat")
    max_power: int | None = None

    def __post_init__(self):
        if len(self.base_vars) < 1:
            raise ValueError("at least one base variable is required")
        if self.max_power is not None and self.max_power < 1:
            raise ValueError("max power must be >= 1")
        if any(g.is_zero for g in self.ideal_gens):
            raise ValueError("zero generator")
        # made once, so that every check and power shares its derived
        # layouts and default orders; colliding names are rejected here
        self.layout = RingLayout(self.base_vars, self.fibre_vars, 1, None)
        self.ideal = Ideal(self.layout, self.field, self.ideal_gens)

    @property
    def n(self) -> int:
        return len(self.base_vars)

    @property
    def m(self) -> int:
        return len(self.fibre_vars)


def fibred_power_ideal(I: Ideal, k: int) -> Ideal:
    """J_k = sum of the k relabelled copies of I; defines the k-fold tensor
    power A^{(x)_R k} = k[y, x(1)..x(k)] / J_k."""
    if k < 1:
        raise ValueError("power must be >= 1")
    layout = I.layout
    if layout.copies != 1:
        raise ValueError("fibred power expects a single-copy ideal")
    target = layout.powered(k)
    gens = [relabel(g, target, i) for i in range(1, k + 1) for g in I.gens]
    return Ideal(target, I.field, tuple(gens))


def tensor_power_presentation(problem: Problem, k: int, budget=None) -> ModulePresentation:
    """Presentation of F^{(x)_R k} over A^{(x)_R k}: relabelled module
    relations in each tensor slot, plus the ring relations J_k acting on every
    basis tuple.  Tensor tuples (j_1..j_k) are flattened row-major, so slot i
    has stride t^(k-i).  The relation vectors are dense; their slots are
    charged to the budget's reduction steps before any is built."""
    if problem.module is None:
        raise ValueError("no module declared")
    if k < 1:
        raise ValueError("power must be >= 1")
    mod = problem.module
    t = mod.rank
    target = problem.layout.powered(k)
    ambient_rank = t ** k
    Jk = fibred_power_ideal(problem.ideal, k)
    if budget is not None:
        budget.charge_work((k * len(mod.relations) * t ** (k - 1) + len(Jk.gens) * ambient_rank) * ambient_rank)
    zeros = (Polynomial.zero(target, problem.field),) * ambient_rank
    relations = []
    for i in range(1, k + 1):
        stride = t ** (k - i)
        for v in mod.relations:
            v_i = tuple(relabel(c, target, i) for c in v)
            for start in range(ambient_rank):
                if start // stride % t == 0:
                    w = list(zeros)
                    w[start : start + t * stride : stride] = v_i
                    relations.append(tuple(w))
    relations += [zeros[:b] + (g,) + zeros[b + 1 :] for g in Jk.gens for b in range(ambient_rank)]
    if budget is not None:
        budget.check_deadline()
    return ModulePresentation(target, problem.field, ambient_rank, tuple(relations))
