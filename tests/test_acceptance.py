"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line (visible under pytest -s or in
failure output); any assertion failure fails the criterion.
"""

import json
import pathlib
import time

from fibrecheck import (
    QQ,
    CheckConfig,
    Ideal,
    check_flatness,
    check_openness,
    fibre_dim,
    fibred_power_ideal,
    krull_dim,
    radical_member,
    saturate,
)
from fibrecheck.cli import run

from corpus import full_corpus, named_fixtures
from oracles import saturate_by_quotients
from util import PW, ideal_equal, ideal_of

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
BLOWUP = named_fixtures()[0].problem
CUSP = named_fixtures()[1].problem


def _report(criterion: str, ok: bool = True):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")


def _timed(limit_seconds: float):
    start = time.perf_counter()

    def check():
        assert time.perf_counter() - start < limit_seconds

    return check


def test_criterion_1_blowup_openness_sharp_at_power_two():
    done = _timed(1.0)
    v = check_openness(BLOWUP)
    assert v.outcome == "fail" and v.failing_power == 2
    J2 = fibred_power_ideal(BLOWUP.ideal, 2)
    g, r = v.witness_g, v.witness_r
    # witness validity: r*g in sqrt(J2), g not in sqrt(J2), r in (y1,y2)\{0}
    assert radical_member(r * g, J2)
    assert not radical_member(g, J2)
    assert not r.is_zero
    assert ideal_of(J2.layout, "y1", "y2").contains(r)
    # ground truth: J2 = (y1, y2) ∩ (y1*x(1) - y2, x(1) - x(2)),
    # checked by the two defining inclusions
    vert = ideal_of(J2.layout, "y1", "y2")
    dom = Ideal(
        J2.layout, QQ, (PW(J2.layout, "y1*x1 - y2"), PW(J2.layout, "x1 - x2"))
    )
    for a in vert.gens:
        for b in dom.gens:
            assert J2.contains(a * b)
    for gen in J2.gens:
        assert vert.contains(gen) and dom.contains(gen)
    done()
    _report("1 (blow-up openness sharp at power 2)")


def test_criterion_2_blowup_flatness_certificate():
    done = _timed(1.0)
    v = check_flatness(BLOWUP)
    assert v.outcome == "fail" and v.failing_power == 2
    J2 = fibred_power_ideal(BLOWUP.ideal, 2)
    r, w = v.certificate_r, v.certificate_v
    assert J2.contains(r * w)
    assert not J2.contains(w)
    # expected certificate up to basis normalization: y1 * (x(1) - x(2)) is
    # the difference of the two generators
    diff = PW(J2.layout, "y1*x1 - y1*x2")
    assert J2.contains(diff)
    # power 1 was tested (prime ideal, torsion-free) before failing at 2
    assert [s.k for s in v.powers] == [1, 2]
    done()
    _report("2 (blow-up flatness certificate at power 2)")


def test_criterion_3_cusp_fails_at_power_one():
    done = _timed(1.0)
    o = check_openness(CUSP)
    f = check_flatness(CUSP)
    assert o.outcome == "fail" and o.failing_power == 1
    assert f.outcome == "fail" and f.failing_power == 1
    # witness r associated to the contraction (y1^3 - y2^2)
    J1 = fibred_power_ideal(CUSP.ideal, 1)
    contraction = Ideal(J1.layout, QQ, (PW(J1.layout, "y1^3 - y2^2"),))
    for r in (o.witness_r, f.certificate_r):
        assert contraction.contains(r)
    done()
    _report("3 (cusp non-open and non-flat at power 1)")


def test_criterion_4_positive_verdicts():
    done = _timed(3.0)
    for name in ("double_cover", "open_immersion", "free_fibre"):
        fx = next(f for f in named_fixtures() if f.name == name)
        o = check_openness(fx.problem)
        f = check_flatness(fx.problem)
        assert o.outcome == "pass" and o.conclusive, name
        assert f.outcome == "pass" and f.conclusive, name
    done()
    _report("4 (positive verdicts on open/flat fixtures)")


def test_criterion_5_vertical_union_fails_at_power_one():
    fx = next(f for f in named_fixtures() if f.name == "vertical_union")
    v = check_openness(fx.problem)
    assert v.outcome == "fail" and v.failing_power == 1
    J1 = fibred_power_ideal(fx.problem.ideal, 1)
    assert ideal_of(J1.layout, "y1", "y2").contains(v.witness_r)
    assert not v.witness_r.is_zero
    _report("5 (plane union vertical line fails at power 1)")


def test_criterion_6_property_suite():
    corpus = full_corpus()
    assert len(corpus) >= 10

    # (a) full S-pair reduction check on every computed basis
    import itertools

    from fibrecheck import default_order, normal_form, s_polynomial

    for problem in corpus:
        J = problem.ideal
        order = default_order(J.layout)
        basis = list(J.groebner_basis(order))
        for a, b in itertools.combinations(basis, 2):
            assert normal_form(s_polynomial(a, b, order), basis, order).is_zero

    # (b) saturation idempotence and quotient-chain cross-oracle agreement
    for problem in corpus:
        J = problem.ideal
        if not J.gens:
            continue
        f = J.gens[0]
        if f.is_constant:
            continue
        S = saturate(J, f)
        assert ideal_equal(S, saturate(S, f))
        assert ideal_equal(S, saturate_by_quotients(J, f))

    # (c) flat-pass implies open-pass, (d) lex/grevlex invariance,
    # (e) witness validity on every fail
    for problem in corpus:
        results = {}
        for within in ("grevlex", "lex"):
            cfg = CheckConfig(within=within)
            o = check_openness(problem, cfg)
            f = check_flatness(problem, cfg)
            results[within] = (o, f)
            if f.outcome == "pass" and f.conclusive:
                assert o.outcome == "pass"
            if o.outcome == "fail":
                Jk = fibred_power_ideal(problem.ideal, o.failing_power)
                assert radical_member(o.witness_r * o.witness_g, Jk, within)
                assert not radical_member(o.witness_g, Jk, within)
            if f.outcome == "fail" and problem.module is None:
                Jk = fibred_power_ideal(problem.ideal, f.failing_power)
                assert Jk.contains(f.certificate_r * f.certificate_v)
                assert not Jk.contains(f.certificate_v)
        og, fg = results["grevlex"]
        ol, fl = results["lex"]
        assert (og.outcome, og.failing_power) == (ol.outcome, ol.failing_power)
        assert (fg.outcome, fg.failing_power) == (fl.outcome, fl.failing_power)
    _report("6 (property suite: zero violations on >= 10 inputs)")


def test_criterion_7_dimension_diagnostics():
    I = BLOWUP.ideal
    assert krull_dim(I).dim == 2
    d00 = fibre_dim(I, (0, 0)).dim
    d11 = fibre_dim(I, (1, 1)).dim
    assert d00 == 1
    assert d11 == 0
    assert 2 == len(BLOWUP.base_vars) + d11  # source dim = base dim + generic fibre
    assert d00 >= d11  # fibre dimension can only jump up at special points
    _report("7 (dimension diagnostics and Nagata equality)")


def test_criterion_8_cli_conformance(capsys, tmp_path):
    # byte-identical JSON across repeated runs on the fixture corpus
    for name in ("blowup", "cusp", "double_cover", "vertical_union", "module_torsion"):
        outs = []
        for _ in range(2):
            code = run(["--input", str(FIXTURES / f"{name}.alg"), "--json"])
            outs.append(capsys.readouterr().out)
            assert code == 0
        assert outs[0] == outs[1], name
        json.loads(outs[0])

    # exit-code matrix
    assert run(["--input", str(FIXTURES / "blowup.alg")]) == 0
    capsys.readouterr()
    assert run(["--input", str(FIXTURES / "malformed.alg")]) == 1
    capsys.readouterr()
    # unsupported: flatness over F_p without the acknowledgment flag
    charp = tmp_path / "charp_flat.alg"
    charp.write_text("field F 5\nbase y\nvars x\nideal: x^2 - y\ncheck flat\n")
    assert run(["--input", str(charp)]) == 2
    capsys.readouterr()
    assert run(["--input", str(FIXTURES / "oversized.alg"), "--pair-limit", "20"]) == 3
    capsys.readouterr()
    _report("8 (CLI determinism and exit-code matrix)")
