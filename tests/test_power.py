"""Fibred powers of the algebra and tensor powers of a presented module."""

import pytest

from fibrecheck import (
    QQ,
    ComputeBudget,
    Ideal,
    ModuleSpec,
    MonomialOrder,
    Polynomial,
    Problem,
    RingLayout,
    ResourceLimitError,
    buchberger,
    default_order,
    fibred_power_ideal,
    tensor_power_presentation,
)

from corpus import full_corpus, named_fixtures
from util import BLOWUP_LAYOUT, P, PW, ideal_equal, ideal_of, reference_tensor_power_presentation

BLOWUP_IDEAL = ideal_of(BLOWUP_LAYOUT, "y1*x - y2")


# ---------------------------------------------------------------------------
# fibred powers


def test_power_one_is_relabelled_identity():
    J1 = fibred_power_ideal(BLOWUP_IDEAL, 1)
    assert J1.layout == BLOWUP_LAYOUT.powered(1)
    assert [str(g) for g in J1.gens] == ["y1*x - y2"]


def test_power_two_generators():
    J2 = fibred_power_ideal(BLOWUP_IDEAL, 2)
    assert sorted(str(g) for g in J2.gens) == ["y1*x(1) - y2", "y1*x(2) - y2"]


def test_power_generator_count_scales_linearly():
    I = ideal_of(BLOWUP_LAYOUT, "x*y1", "x*y2")
    for k in (1, 2, 3):
        assert len(fibred_power_ideal(I, k).gens) == k * len(I.gens)


def test_power_shares_base_variables():
    J3 = fibred_power_ideal(BLOWUP_IDEAL, 3)
    assert J3.layout.base_vars == ("y1", "y2")
    assert J3.layout.var_names() == ("y1", "y2", "x(1)", "x(2)", "x(3)")


def test_power_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fibred_power_ideal(BLOWUP_IDEAL, 0)
    with pytest.raises(ValueError):
        fibred_power_ideal(fibred_power_ideal(BLOWUP_IDEAL, 2), 2)


def test_problem_makes_its_layout_once():
    # every check and power shares the layouts derived from it
    problem = Problem(QQ, BLOWUP_LAYOUT.base_vars, BLOWUP_LAYOUT.fibre_vars, BLOWUP_IDEAL.gens)
    assert problem.layout is problem.layout
    assert fibred_power_ideal(problem.ideal, 2).layout is fibred_power_ideal(problem.ideal, 2).layout


def test_problem_rejects_colliding_names_at_construction():
    with pytest.raises(ValueError, match="collide"):
        Problem(QQ, ("y",), ("y",), ())


def test_power_symmetric_under_copy_swap():
    """Swapping the two fibre copies maps J_2 onto itself (canonical bases
    agree after the variable swap)."""
    for problem in full_corpus():
        if problem.n < 2 and problem.m == 0:
            continue
        J2 = fibred_power_ideal(problem.ideal, 2)
        layout = J2.layout
        names = layout.var_names()
        m = problem.m
        nb = problem.n

        def swap(e):
            base = e[:nb]
            c1 = e[nb : nb + m]
            c2 = e[nb + m : nb + 2 * m]
            return base + c2 + c1

        swapped = tuple(
            Polynomial.from_dict(layout, J2.field, {swap(e): c for c, e in g.terms})
            for g in J2.gens
        )
        order = default_order(layout)
        assert buchberger(swapped, order) == list(J2.groebner_basis(order))


def test_power_elimination_consistency():
    """Eliminating the last fibre block of J_{k+1} recovers J_k."""
    for I in (BLOWUP_IDEAL, ideal_of(BLOWUP_LAYOUT, "x*y1", "x*y2")):
        for k in (1, 2):
            Jk1 = fibred_power_ideal(I, k + 1)
            drop = (Jk1.layout.index_of(f"x({k + 1})"),)
            keep = tuple(i for i in range(Jk1.layout.nvars) if i not in drop)
            gb = buchberger(Jk1.gens, MonomialOrder((drop, keep)))
            shadow = [g for g in gb if not (g.support_indices() & set(drop))]
            Jk = fibred_power_ideal(I, k)
            target = Jk.layout
            # the first k copy blocks are an exponent-vector prefix, so
            # dropping the final block transports the survivors down
            cut = target.nvars
            down = tuple(
                Polynomial.from_dict(
                    target, I.field, {e[:cut]: c for c, e in g.terms}
                )
                for g in shadow
            )
            assert ideal_equal(Ideal(target, I.field, down), Jk)


# ---------------------------------------------------------------------------
# tensor powers of modules


def _module_problem():
    lay = RingLayout(("y",), ("x",))
    rel = (P(lay, "y"), Polynomial.zero(lay, QQ))
    return Problem(QQ, ("y",), ("x",), (P(lay, "x*y"),), module=ModuleSpec(2, (rel,)))


def test_tensor_power_rank_and_relation_count():
    problem = _module_problem()
    s = len(problem.module.relations)
    t = problem.module.rank
    for k in (1, 2):
        pres = tensor_power_presentation(problem, k)
        assert pres.rank == t ** k
        Jk = fibred_power_ideal(problem.ideal, k)
        assert len(pres.relations) == k * s * t ** (k - 1) + len(Jk.gens) * t ** k


def test_tensor_power_one_matches_direct_presentation():
    problem = _module_problem()
    pres = tensor_power_presentation(problem, 1)
    lay = problem.layout.powered(1)
    y = PW(lay, "y")
    xy = PW(lay, "x*y")
    zero = Polynomial.zero(lay, QQ)
    assert pres.contains((y, zero))
    assert pres.contains((xy, zero))
    assert pres.contains((zero, xy))
    assert not pres.contains((zero, y))


def test_tensor_power_two_row_major_slots():
    problem = _module_problem()
    pres = tensor_power_presentation(problem, 2)
    lay = problem.layout.powered(2)
    y = PW(lay, "y")
    zero = Polynomial.zero(lay, QQ)
    # relation (y; 0) in slot 1 hits tensor indices (0,j): flat 0 and 1
    vec = [zero] * 4
    vec[0] = y
    assert pres.contains(tuple(vec))
    # and in slot 2 it hits indices (j,0): flat 0 and 2
    vec = [zero] * 4
    vec[2] = y
    assert pres.contains(tuple(vec))
    # but y times the last basis tuple (1,1) is not a relation
    vec = [zero] * 4
    vec[3] = y
    assert not pres.contains(tuple(vec))


def test_tensor_power_requires_module():
    problem = named_fixtures()[0].problem
    with pytest.raises(ValueError):
        tensor_power_presentation(problem, 1)


def _rank_problem(t: int) -> Problem:
    """A rank-t module over A = Q[y1, y2][x]/(x^2 - y1): a relation whose
    second component is zero (its only one when t = 1) and a dense one."""
    lay = RingLayout(("y1", "y2"), ("x",))
    sparse = tuple(Polynomial.zero(lay, QQ) if s == 1 % t else P(lay, f"{s + 1}*y1*x - y2^{s}") for s in range(t))
    dense = tuple(P(lay, f"x^{s} + {s}*y2") for s in range(t))
    return Problem(QQ, ("y1", "y2"), ("x",), (P(lay, "x^2 - y1"),), module=ModuleSpec(t, (sparse, dense)))


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stride_relations_match_spliced_tuples(t, k):
    # slot i's relations placed by its row-major stride t^(k-i) are those of
    # splicing the slot's index into the other slots' tuples, in order
    problem = _rank_problem(t)
    pres, ref = tensor_power_presentation(problem, k), reference_tensor_power_presentation(problem, k)
    assert (pres.layout, pres.rank) == (ref.layout, ref.rank)
    assert pres.relations == ref.relations


@pytest.mark.parametrize("t, k", [(1, 3), (2, 2), (3, 3)])
def test_tensor_power_charges_its_dense_slots(t, k):
    problem = _rank_problem(t)
    relations = k * len(problem.module.relations) * t ** (k - 1) + k * len(problem.ideal_gens) * t**k
    budget = ComputeBudget()
    tensor_power_presentation(problem, k, budget)
    assert (budget.work, budget.pairs) == (relations * t**k, 0)


def test_tensor_power_over_step_budget_aborts_before_building(monkeypatch):
    # 3 * 2 * 9 + 3 * 27 = 135 relations of 27 slots: 3,645 slots, past the
    # 200 steps of a one-pair budget, so only the ideal's generators are
    # relabelled (into J_3), and no module relation
    from fibrecheck import power

    problem, relabelled, real = _rank_problem(3), [], power.relabel

    def spy(f, *args):
        relabelled.append(f)
        return real(f, *args)

    monkeypatch.setattr(power, "relabel", spy)
    budget = ComputeBudget(pair_limit=1)
    with pytest.raises(ResourceLimitError, match="reduction-step limit 200 exceeded"):
        tensor_power_presentation(problem, 3, budget)
    assert budget.work == 3645 and relabelled == list(problem.ideal_gens) * 3


def test_tensor_power_checks_the_deadline_once_built(monkeypatch):
    # the clock passes the deadline after the slot charge has read it, while
    # the relations are built: the power aborts before it is returned
    from fibrecheck import groebner

    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 2.0

    monkeypatch.setattr(groebner.time, "monotonic", clock)
    budget = ComputeBudget(deadline=1.0)
    with pytest.raises(ResourceLimitError, match="timeout exceeded"):
        tensor_power_presentation(_rank_problem(2), 2, budget)
    assert len(reads) == 2
