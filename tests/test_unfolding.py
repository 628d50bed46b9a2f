"""Koszul lifting, quasiclassical data, quantization, residual reports."""

import itertools
import json
import random
from fractions import Fraction

import pytest

import ncunfold.groebner as groebner
import ncunfold.polyvector as polyvector
import ncunfold.singularity as singularity
import ncunfold.unfolding as unfolding
from ncunfold.errors import DegreeGuardExceeded, NotACycle, NotIsolated, QCInvalid
from ncunfold.groebner import ideal_membership
from ncunfold.parsing import parse_gelement, parse_polynomial
from ncunfold.poly import HSeries, Polynomial, RingContext
from ncunfold.polyvector import (
    GElement,
    ad_f,
    bivector_square,
    schouten_bracket,
)
from ncunfold.singularity import (
    ADE_CONTEXT,
    Singularity,
    a_k,
    ade_catalog,
    e_8,
    qc_subspace,
)
from ncunfold.unfolding import (
    EXACT,
    MCSolution,
    ObstructionReport,
    QCViolation,
    koszul_lift,
    mc_verify,
    qc_normalize,
    qc_validate,
    quantize_general,
    quantize_n3,
)

from oracles import mc_verify_oracle, rand_bivector, rand_poly, rand_trivector3

CTX3 = ADE_CONTEXT
CTX2 = RingContext(("x", "y"))


def g(text, ctx=CTX3):
    return parse_gelement(text, ctx)


def rand_w_element(rng, f):
    basis = qc_subspace(f)
    acc = Polynomial.zero(f.ctx)
    for exps in basis:
        acc = acc + Polynomial.monomial(f.ctx, exps, Fraction(rng.randint(-3, 3)))
    return acc


# -- koszul_lift ----------------------------------------------------------------


def test_lift_of_top_boundary():
    f = a_k(1)
    z = ad_f(f, g("D(1,2,3)"))
    assert koszul_lift(f, z) == g("D(1,2,3)")


def test_lift_zero():
    assert koszul_lift(a_k(1), GElement.zero(CTX3)).is_zero()


def test_lift_not_a_cycle_reported():
    f = a_k(1)
    with pytest.raises(NotACycle):
        koszul_lift(f, g("x*D(1,2)"))


def test_lift_top_wedge_degree_is_never_a_cycle():
    # [f, g*D(1,2,3)] = g*sum(+-df/dx_i * d_jk) is nonzero for nonconstant f
    for _, f in ade_catalog():
        with pytest.raises(NotACycle, match=r"^\[f, z\] != 0$") as info:
            koszul_lift(f, g("x*D(1,2,3)"))
        assert info.value.image == ad_f(f, g("x*D(1,2,3)"))


def test_not_a_cycle_carries_the_image():
    """NotACycle.image is [f, z], nonzero, for every z the lift refuses."""
    rng = random.Random(29)
    refused = 0
    for _, f in ade_catalog():
        for _ in range(4):
            z = rand_bivector(rng, CTX3)
            try:
                koszul_lift(f, z)
            except NotACycle as e:
                refused += 1
                assert e.image == ad_f(f, z) and not e.image.is_zero()
            else:
                assert ad_f(f, z).is_zero()
    assert refused >= 30


def test_lift_not_isolated_reported():
    f = parse_polynomial("x^2*y", CTX2)
    with pytest.raises(NotIsolated):
        koszul_lift(f, GElement.zero(CTX2))


def test_lift_roundtrip_random_trivectors():
    rng = random.Random(71)
    for _, f in ade_catalog()[:4]:
        for _ in range(10):
            t = rand_trivector3(rng, CTX3)
            z = ad_f(f, t)
            lifted = koszul_lift(f, z)
            assert ad_f(f, lifted) == z


def test_lift_vector_to_bivector():
    # degree 1 -> 2 lifting: z = [f, S] for a bivector S is a 1-cycle
    rng = random.Random(73)
    f = a_k(2)
    s = ad_f(f, g("x*y*D(1,2,3)"))
    p = rand_poly(rng, CTX3, 2)
    z = schouten_bracket(GElement.from_polynomial(p), s)
    assert ad_f(f, z).is_zero()
    s2 = koszul_lift(f, z)
    assert ad_f(f, s2) == z


# -- qc_normalize ----------------------------------------------------------------


def _partials(f):
    return [f.partial(i) for i in range(1, f.ctx.n + 1)]


def test_normalize_examples():
    f = a_k(1)
    x = Polynomial.variable(CTX3, 1)
    w = qc_normalize(f, x)
    assert w.is_zero()
    assert ideal_membership(x - w, _partials(f)) == (
        Polynomial.constant(CTX3, Fraction(1, 2)), Polynomial.zero(CTX3), Polynomial.zero(CTX3))
    one = Polynomial.one(CTX3)
    assert qc_normalize(f, one) == one


def test_normalize_idempotent_and_kernel():
    rng = random.Random(79)
    for _, f in ade_catalog()[:5]:
        partials = _partials(f)
        for _ in range(5):
            p = rand_poly(rng, CTX3, 3)
            w = qc_normalize(f, p)
            again = qc_normalize(f, w)
            assert again == w
            assert all(c.is_zero() for c in ideal_membership(w - again, partials))
            # adding a Jacobian-ideal element does not change the W part
            j = sum(
                (rand_poly(rng, CTX3, 2) * q for q in partials),
                Polynomial.zero(CTX3),
            )
            assert qc_normalize(f, p + j) == w


def test_normalize_cofactors_match_the_rank_one_module_route():
    """The cofactors of p - W-part over the partials equal those of p's
    normal form modulo the rank-1 module basis of the partials, rewritten
    over them: W's terms are standard and never reduce.  On the ADE
    catalog and random isolated f in two and three variables."""
    rng = random.Random(313)
    cases = [f for _, f in ade_catalog()]
    while len(cases) < 20:
        f = rand_poly(rng, rng.choice([CTX2, CTX3]), 4, n_terms=4)
        f = f - f.constant_term()
        if not f.is_constant() and Singularity(f).is_isolated():
            cases.append(f)
    nonzero = 0
    for f in cases:
        partials = _partials(f)
        gb = groebner.module_buchberger([groebner.ModuleElement((q,)) for q in partials])
        for _ in range(3):
            p = rand_poly(rng, f.ctx, 4, n_terms=4)
            w = qc_normalize(f, p)
            cofs = ideal_membership(p - w, partials)
            trace = groebner.module_normal_form(groebner.ModuleElement((p,)), gb).over_source(gb)
            assert trace.remainder.components[0] == w
            assert cofs == trace.cofactors
            assert w + sum((c * q for c, q in zip(cofs, partials)), Polynomial.zero(f.ctx)) == p
            nonzero += not w.is_zero() and any(not c.is_zero() for c in cofs)
    assert nonzero >= 20


def test_normalize_requires_isolated():
    with pytest.raises(NotIsolated):
        qc_normalize(parse_polynomial("x^2*y", CTX2), Polynomial.one(CTX2))


# -- qc_validate -----------------------------------------------------------------


def test_validate_boundary_datum():
    f = a_k(1)
    s = ad_f(f, g("D(1,2,3)"))
    datum = qc_validate(f, Polynomial.one(CTX3), s)
    assert not isinstance(datum, list)
    assert datum.p_normal == Polynomial.one(CTX3)
    assert ad_f(f, datum.extension_bivector) == schouten_bracket(
        GElement.from_polynomial(datum.p_raw), s
    )


def test_validate_rejects_non_cycle():
    f = a_k(1)
    viols = qc_validate(f, Polynomial.zero(CTX3), g("x*D(1,2)"))
    assert isinstance(viols, list)
    assert [v.kind for v in viols] == ["not_f_compatible"]


def test_validate_rejects_non_poisson_n4():
    ctx4 = RingContext(("x", "y", "z", "w"))
    f = parse_polynomial("x^2+y^2+z^2+w^2", ctx4)
    # sums of wedges of rotation fields kill f; this combination fails Jacobi
    rot = lambda t: parse_gelement(t, ctx4)
    s = rot("x*D(2) - y*D(1)") * rot("x*D(3) - z*D(1)") + rot(
        "x*D(4) - w*D(1)"
    ) * rot("y*D(4) - w*D(2)")
    assert ad_f(f, s).is_zero()
    assert not bivector_square(s).is_zero()
    viols = qc_validate(f, Polynomial.zero(ctx4), s)
    assert [v.kind for v in viols] == ["not_poisson"]


def _violations_by_definition(f, s):
    """The violation list of an eps-free bivector S, from the definitions:
    [f, S] != 0 first, then [S, S] != 0, each with its nonzero bracket."""
    out = []
    fs, ss = ad_f(f, s), bivector_square(s)
    if not fs.is_zero():
        out.append(QCViolation("not_f_compatible", "[f, S] != 0", fs))
    if not ss.is_zero():
        out.append(QCViolation("not_poisson", "[S, S] != 0", ss))
    return out


def _invalid_data():
    """(f, S) of each invalid class: not f-compatible, not Poisson (n = 4),
    and both at once; then random bivectors over the ADE catalog."""
    ctx4 = RingContext(("x", "y", "z", "w"))
    rot = lambda t: parse_gelement(t, ctx4)
    yield a_k(1), g("x*D(1,2)")
    yield parse_polynomial("x^2+y^2+z^2+w^2", ctx4), (
        rot("x*D(2) - y*D(1)") * rot("x*D(3) - z*D(1)")
        + rot("x*D(4) - w*D(1)") * rot("y*D(4) - w*D(2)"))
    yield parse_polynomial("x^2+y^2+z^2", CTX3), g("y*D(1,2) + x*D(2,3)")
    rng = random.Random(31)
    for _, f in ade_catalog():
        for _ in range(3):
            yield f, rand_bivector(rng, CTX3)


def test_invalid_data_report_both_conditions_and_lift_nothing(monkeypatch):
    """qc_validate, quantize_n3 and quantize_general report the violations
    the definitions give, in their order and with their brackets, for data
    of each invalid class, and run no module preimage: [f, S] is taken
    once, by the lift's cycle check when [S, S] = 0 and directly
    otherwise, and nothing is lifted."""
    preimages = []
    real = unfolding.module_preimage

    def counting(*args, **kwargs):
        preimages.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(unfolding, "module_preimage", counting)
    kinds = set()
    for f, s in _invalid_data():
        expected = _violations_by_definition(f, s)
        if not expected:
            continue
        kinds.add(tuple(v.kind for v in expected))
        p = Polynomial.zero(f.ctx)
        assert qc_validate(f, p, s) == expected
        calls = [lambda: quantize_general(f, p, s, max_order=1)]
        if f.ctx.n == 3:
            calls.append(lambda: quantize_n3(f, p, s))
        for call in calls:
            with pytest.raises(QCInvalid) as info:
                call()
            assert info.value.violations == expected
    assert kinds == {("not_f_compatible",), ("not_poisson",), ("not_f_compatible", "not_poisson")}
    assert preimages == []


def test_validate_zero_bivector_any_p():
    f = a_k(1)
    x = Polynomial.variable(CTX3, 1)
    datum = qc_validate(f, x, GElement.zero(CTX3))
    assert not isinstance(datum, list)


def test_validate_wrong_degree():
    f = a_k(1)
    viols = qc_validate(f, Polynomial.zero(CTX3), g("D(1)"))
    assert [v.kind for v in viols] == ["wrong_degree"]


# -- quantize_n3 -----------------------------------------------------------------


def test_quantize_constant_p_stops_at_h1():
    f = a_k(1)
    s = ad_f(f, g("D(1,2,3)"))
    sol = quantize_n3(f, Polynomial.one(CTX3), s)
    assert sol.order == EXACT
    assert sol.h_degree() == 1
    assert sol.s_series.coeffs[1] == s
    assert sol.s_series.coeffs[2].is_zero()  # [1, T1] = 0
    assert mc_verify(f, sol).ok


def test_quantize_nonconstant_p_has_h2_correction():
    f = a_k(2)
    x = Polynomial.variable(CTX3, 1)
    t1 = GElement(CTX3, {(0, 0b111): x})
    s1 = ad_f(f, t1)
    sol = quantize_n3(f, x, s1)
    assert sol.order == EXACT
    assert sol.h_degree() == 2
    # S_2 = -[p1, T1], nonzero here
    expected = -schouten_bracket(GElement.from_polynomial(x), t1)
    assert sol.s_series.coeffs[2] == expected
    assert not expected.is_zero()
    assert mc_verify(f, sol).ok


def test_quantize_zero_bivector():
    f = a_k(1)
    one = Polynomial.one(CTX3)
    sol = quantize_n3(f, one, GElement.zero(CTX3))
    assert sol.h_degree() == 1
    assert all(c.is_zero() for c in sol.s_series.coeffs)
    assert mc_verify(f, sol).ok


def test_quantize_rejects_invalid_datum():
    f = a_k(1)
    with pytest.raises(QCInvalid):
        quantize_n3(f, Polynomial.zero(CTX3), g("x*D(1,2)"))


def test_quantize_requires_three_variables():
    f = parse_polynomial("x^2+y^2", CTX2)
    with pytest.raises(ValueError):
        quantize_n3(f, Polynomial.zero(CTX2), GElement.zero(CTX2))


# -- quantize_general ------------------------------------------------------------


def test_general_agrees_with_n3():
    rng = random.Random(83)
    for _, f in (("A2", a_k(2)), ("E8", e_8())):
        for _ in range(5):
            t = rand_trivector3(rng, CTX3)
            s1 = ad_f(f, t)
            p1 = rand_w_element(rng, f)
            exact = quantize_n3(f, p1, s1)
            general = quantize_general(f, p1, s1, max_order=6)
            assert isinstance(general, MCSolution)
            for k in range(7):
                expected = (
                    exact.s_series.coeffs[k] if k <= 2 else GElement.zero(CTX3)
                )
                assert general.s_series.coeffs[k] == expected


def test_general_constant_p_truncates():
    f = a_k(1)
    s = ad_f(f, g("D(1,2,3)"))
    sol = quantize_general(f, Polynomial.constant(CTX3, 2), s, max_order=5)
    assert isinstance(sol, MCSolution)
    for k in range(2, 6):
        assert sol.s_series.coeffs[k].is_zero()
    assert mc_verify(f, sol).ok


def test_general_n4_probe_records_outcome():
    # no expected value is asserted for n = 4; the probe must return a
    # well-formed result either way
    ctx4 = RingContext(("x", "y", "z", "w"))
    f = parse_polynomial("x^2+y^2+z^2+w^2", ctx4)
    t = parse_gelement("x*D(1,2,3) + w*D(2,3,4)", ctx4)
    s1 = ad_f(f, t)
    assert ad_f(f, s1).is_zero()
    if not bivector_square(s1).is_zero():
        pytest.skip("sampled datum is not quasiclassical")
    p1 = Polynomial.one(ctx4)
    result = quantize_general(f, p1, s1, max_order=4)
    if isinstance(result, ObstructionReport):
        assert result.kind == "poisson_failure"
        assert not result.obstruction.is_zero()
        assert 2 <= result.failing_order <= 4
    else:
        assert mc_verify(f, result).ok


def test_general_rejects_bad_first_order():
    f = a_k(1)
    with pytest.raises(QCInvalid):
        quantize_general(f, Polynomial.zero(CTX3), g("x*D(1,2)"), max_order=4)


def test_general_p_series_is_p1_times_h():
    f = a_k(2)
    x = Polynomial.variable(CTX3, 1)
    s1 = ad_f(f, GElement(CTX3, {(0, 0b111): x}))
    sol = quantize_general(f, x, s1, max_order=4)
    assert isinstance(sol, MCSolution)
    assert sol.p_series.terms == {1: x}
    assert mc_verify(f, sol).ok


# -- mc_verify --------------------------------------------------------------------


def test_verify_flags_truncated_solution():
    # dropping the h^2 term of a nonconstant-p solution leaves a residual at h^2
    f = a_k(2)
    x = Polynomial.variable(CTX3, 1)
    t1 = GElement(CTX3, {(0, 0b111): x})
    s1 = ad_f(f, t1)
    good = quantize_n3(f, x, s1)
    zero_p, zero_g = Polynomial.zero(CTX3), GElement.zero(CTX3)
    assert good.p_series == HSeries([zero_p, x, zero_p], 2)
    bad = MCSolution(
        order=4,
        p_series=HSeries([zero_p, x, zero_p, zero_p, zero_p], 4),
        s_series=HSeries([zero_g, s1, zero_g, zero_g, zero_g], 4),
        witness=None,
    )
    report = mc_verify(f, bad)
    assert not report.ok
    assert report.orders[1].is_zero()
    assert not report.orders[2].is_zero()


def test_verify_zero_solution():
    f = a_k(1)
    zero_sol = MCSolution(
        order=3,
        p_series=HSeries([Polynomial.zero(CTX3)] * 4, 3),
        s_series=HSeries([GElement.zero(CTX3)] * 4, 3),
        witness=None,
    )
    assert zero_sol.h_degree() == 0
    report = mc_verify(f, zero_sol)
    assert report.ok
    assert all(o.is_zero() for o in report.orders)


def test_verify_witness_consistency():
    f = a_k(2)
    x = Polynomial.variable(CTX3, 1)
    s1 = ad_f(f, GElement(CTX3, {(0, 0b111): x}))
    sol = quantize_n3(f, x, s1)
    assert mc_verify(f, sol).witness_consistent is True
    tampered = MCSolution(sol.order, sol.p_series, sol.s_series,
                          sol.witness.map(lambda c: c + c))
    bad = mc_verify(f, tampered)
    assert bad.witness_consistent is False and not bad.ok


def test_verify_compares_exact_witness_past_the_residual_orders():
    # p = S = 0 through h^1 puts the residual check at h^2, but the witness
    # T = D(1,2,3) h^3 gives [f - p, T] = [f, D(1,2,3)] h^3 != S_3 = 0
    f = parse_polynomial("x^2+y^2+z^2", CTX3)
    t3 = g("D(1,2,3)")
    assert not ad_f(f, t3).is_zero()
    zero_g = GElement.zero(CTX3)
    sol = MCSolution(
        EXACT,
        HSeries([Polynomial.zero(CTX3)] * 2, 1),
        HSeries([zero_g] * 2, 1),
        HSeries([zero_g] * 3 + [t3], 3),
    )
    report = mc_verify(f, sol)
    assert len(report.orders) == 3 and all(o.is_zero() for o in report.orders)
    assert report.witness_consistent is False and not report.ok


def _same_report(f, sol):
    report = mc_verify(f, sol)
    oracle = mc_verify_oracle(f, sol)
    assert report == oracle
    want = json.dumps(oracle.to_json(), sort_keys=True)
    assert json.dumps(report.to_json(), sort_keys=True) == want
    return report


def test_verify_matches_oracle_on_ade_quantizations():
    for _, f in ade_catalog():
        p1, s1 = _ade_datum(f)
        assert _same_report(f, quantize_n3(f, p1, s1)).ok
        assert _same_report(f, quantize_general(f, p1, s1, max_order=4)).ok


def _random_non_solution(rng, f, order, with_witness):
    """p and S nonzero at two or three of h^1..h^3, S not built from p, and
    optionally a random trivector witness reaching up to h^5."""
    ctx = f.ctx
    p = [Polynomial.zero(ctx)] * 4
    s = [GElement.zero(ctx)] * 4
    for k in rng.sample(range(1, 4), rng.randint(2, 3)):
        p[k] = rand_poly(rng, ctx, 2, zero_ok=False)
        s[k] = rand_bivector(rng, ctx)
    witness = None
    if with_witness:
        dt = rng.randint(3, 5)
        witness = HSeries([GElement.zero(ctx)] + [rand_trivector3(rng, ctx) for _ in range(dt)])
    return MCSolution(order, HSeries(p), HSeries(s), witness)


def test_verify_matches_oracle_on_non_solutions():
    rng = random.Random(89)
    f = a_k(2)
    seen_bracket = seen_square = 0
    for order in (EXACT, 2, 5):
        for with_witness in (False, True):
            for _ in range(4):
                sol = _random_non_solution(rng, f, order, with_witness)
                report = _same_report(f, sol)
                assert not report.ok
                seen_bracket += any(not o.bracket_f_minus_p_s.is_zero() for o in report.orders)
                seen_square += any(not o.poisson_square.is_zero() for o in report.orders)
    # both brackets must be nonzero in most reports, or a wrong split
    # would go unseen
    assert min(seen_bracket, seen_square) >= 18


def _sparse_solution(rng, f, order):
    """Series at the given order with two to four nonzero coefficients:
    either the exact quantization of an ADE datum with h replaced by h^m,
    which is again a solution with its witness, or p and S terms at random
    powers with an optional one-term witness."""
    ctx = f.ctx
    zero_p, zero_g = Polynomial.zero(ctx), GElement.zero(ctx)
    if rng.random() < 0.5:
        exact = quantize_n3(f, *_ade_datum(f))
        m = rng.randint(1, order // 2)
        p, s, t = ({m * k: c for k, c in x.terms.items()}
                   for x in (exact.p_series, exact.s_series, exact.witness))
    else:
        p, s, t = {}, {}, {}
        for k in rng.sample(range(1, order + 1), rng.randint(2, 4)):
            if rng.random() < 0.5:
                p[k] = rand_poly(rng, ctx, 2, zero_ok=False)
            else:
                s[k] = rand_bivector(rng, ctx)
        if rng.random() < 0.5:
            t[rng.randint(1, order)] = rand_trivector3(rng, ctx)
    witness = HSeries.sparse(t, order, zero_g) if t else None
    label = EXACT if rng.random() < 0.3 else order
    return MCSolution(label, HSeries.sparse(p, order, zero_p),
                      HSeries.sparse(s, order, zero_g), witness)


def test_verify_matches_oracle_on_sparse_high_order_series():
    rng = random.Random(16)
    catalog = [f for _, f in ade_catalog()]
    seen_ok = seen_bad = 0
    for _ in range(16):
        f = rng.choice(catalog)
        sol = _sparse_solution(rng, f, rng.randint(20, 60))
        assert 2 <= len(sol.p_series.terms) + len(sol.s_series.terms) <= 4
        report = _same_report(f, sol)
        seen_ok += report.ok
        seen_bad += not report.ok
    assert min(seen_ok, seen_bad) >= 4


@pytest.mark.parametrize(
    "t, p", [("z*D(1,2,3) + z*D(1,2,4)", "x*y"), ("y*D(1,2,4) + z*D(1,2,4)", "x")]
)
def test_verify_matches_oracle_on_general_obstructions(t, p):
    # quantize_general stops at h^3 on these n = 4 data; its obstruction is
    # [S, S]_3 of the solution it built through h^2
    ctx4 = RingContext(("x", "y", "z", "w"))
    f = parse_polynomial("x^2+y^2+z^2+w^2", ctx4)
    p1 = parse_polynomial(p, ctx4)
    s1 = ad_f(f, parse_gelement(t, ctx4))
    obstruction = quantize_general(f, p1, s1, max_order=4)
    assert isinstance(obstruction, ObstructionReport)
    assert obstruction.failing_order == 3
    head = quantize_general(f, p1, s1, max_order=2)
    zero_p, zero_g = Polynomial.zero(ctx4), GElement.zero(ctx4)
    sol = MCSolution(
        4,
        HSeries([*head.p_series.coeffs, zero_p, zero_p], 4),
        HSeries([*head.s_series.coeffs, zero_g, zero_g], 4),
        HSeries([*head.witness.coeffs, zero_g, zero_g], 4),
    )
    report = _same_report(f, sol)
    assert report.orders[3].poisson_square == obstruction.obstruction
    assert not report.ok and report.witness_consistent


def _drawn_residual_case(rng, ctx, kind):
    """(f, MCSolution) of one kind: "eps", only p*eps coefficients;
    "pair", bivectors on one index pair each, any pair of indices; "sparse",
    p and S at h^1 and h^50 of order 120; "edge", two powers i <= j with
    i + j exactly the order and a third past it.  f is 0 in a quarter of
    the cases."""
    zero_p, zero_g = Polynomial.zero(ctx), GElement.zero(ctx)
    f = zero_p if rng.random() < 0.25 else rand_poly(rng, ctx, 3, zero_ok=False)
    pairs = list(itertools.combinations(range(1, ctx.n + 1), 2))

    def bivector():
        mask = sum(1 << i - 1 for i in rng.choice(pairs))
        return GElement(ctx, {(0, mask): rand_poly(rng, ctx, 2, zero_ok=False)})

    if kind == "sparse":
        order, powers = 120, [1, 50]
    else:
        order = rng.randint(3, 12)
        i = rng.randint(1, order // 2)
        powers = ([i, order - i, order - i + 1] if kind == "edge"
                  else rng.sample(range(1, order + 1), 3))
    p, s = {}, {}
    for k in powers:
        if kind == "eps" or rng.random() < 0.5:
            p[k] = rand_poly(rng, ctx, 2, zero_ok=False)
        if kind != "eps":
            s[k] = rand_bivector(rng, ctx) if kind == "sparse" else bivector()
    label = EXACT if kind != "sparse" and rng.random() < 0.2 else order
    return f, MCSolution(label, HSeries.sparse(p, order, zero_p), HSeries.sparse(s, order, zero_g))


@pytest.mark.parametrize("ctx", [CTX2, CTX3, RingContext(("x", "y", "z", "w"))],
                         ids=["n2", "n3", "n4"])
def test_residual_matches_oracle_on_drawn_series(ctx):
    """mc_residual takes the residual as one square (1/2)[W, W] of
    W = w - f*eps; the oracle brackets every ordered pair of orders on its
    own and adds -[f*eps, w].  Dropping the -f*eps term, or losing the
    pairs with i + j equal to the order, fails here."""
    rng = random.Random(23 + ctx.n)
    at_the_order = 0
    for kind in ("eps", "pair", "sparse", "edge") * 4:
        f, sol = _drawn_residual_case(rng, ctx, kind)
        report = _same_report(f, sol)
        if kind == "edge":
            at_the_order += any(o.h_power == sol.s_series.order for o in report.nonzero)
    assert at_the_order >= 3  # the pairs with i + j = order leave a residual there


def test_solution_json_roundtrip():
    f = a_k(2)
    x = Polynomial.variable(CTX3, 1)
    s1 = ad_f(f, GElement(CTX3, {(0, 0b111): x}))
    sol = quantize_n3(f, x, s1)
    blob = sol.to_json()
    back = MCSolution.from_json(CTX3, blob)
    assert back.p_series == sol.p_series
    assert back.s_series == sol.s_series
    assert back.witness == sol.witness
    assert mc_verify(f, back).ok


# -- the Singularity as owner of per-f data --------------------------------------


def _ade_datum(f):
    """A valid datum: S1 the Koszul boundary of a trivector, p1 on all of W."""
    s1 = ad_f(f, g("x*y*D(1,2,3) + z^2*D(1,2,3)"))
    p1 = sum((Polynomial.monomial(CTX3, e) for e in qc_subspace(f)), Polynomial.zero(CTX3))
    return p1, s1


def test_quantize_n3_builds_the_jacobian_basis_once(monkeypatch):
    calls = []
    real = singularity.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(singularity, "buchberger", counting)
    for _, f in ade_catalog():
        p1, s1 = _ade_datum(f)
        calls.clear()
        sol = quantize_n3(f, p1, s1)
        assert len(calls) == 1
        sing = Singularity(f)
        assert quantize_n3(sing, p1, s1).to_json() == sol.to_json()
        assert sing.jacobian() is sing.jacobian()


def test_quantize_n3_lifts_s_once(monkeypatch):
    calls = []
    real = groebner.module_buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "module_buchberger", counting)
    sols = [quantize_n3(f, *_ade_datum(f)) for _, f in ade_catalog()]
    assert len(calls) == len(sols) == 10  # one module basis per quantization
    for (_, f), sol in zip(ade_catalog(), sols):
        p1, s1 = _ade_datum(f)
        lift = qc_validate(f, p1, s1).lift
        assert ad_f(f, lift) == s1
        assert sol.witness.coeffs[1] == lift


def test_quantizers_take_only_the_brackets_they_need(monkeypatch):
    """quantize_n3 takes six brackets, all in qc_validate: the lift's cycle
    check, which is the condition [f, S_1] = 0, its one column and its
    check; S_2 = -[p1, T_1] and both sides of [f, S_2] = [p1, S_1].
    quantize_general takes the same less the two Jacobi sides.
    S = S_1*h + S_2*h^2 reuses S_1 and S_2, and the residual is one square,
    so neither takes another."""
    calls, in_witness_form = [], []
    real_bracket, real_witness_form = polyvector.schouten_bracket, unfolding._witness_form

    def bracket(x, y):
        calls.append((x, y))
        return real_bracket(x, y)

    def witness_form(*args):
        before = len(calls)
        out = real_witness_form(*args)
        in_witness_form.append(len(calls) - before)
        return out

    for module in (polyvector, unfolding):  # ad_f reads it from polyvector
        monkeypatch.setattr(module, "schouten_bracket", bracket)
    monkeypatch.setattr(unfolding, "_witness_form", witness_form)
    f = a_k(2)
    p1, s1 = _ade_datum(f)
    calls.clear()
    quantize_n3(f, p1, s1)
    assert len(calls) == 6
    calls.clear()
    quantize_general(f, p1, s1, max_order=4)
    assert len(calls) == 4
    assert in_witness_form == [0, 0]


def _random_isolated_f(rng):
    """x^a + y^b + z^c plus three random terms of degree 2 to 4, drawn
    until f is isolated."""
    while True:
        a, b, c = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 3)
        f = parse_polynomial(f"x^{a}+y^{b}+z^{c}", CTX3)
        for _ in range(3):
            exps = [0, 0, 0]
            for _ in range(rng.randint(2, 4)):
                exps[rng.randrange(3)] += 1
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            f = f + Polynomial.monomial(CTX3, tuple(exps), coeff)
        if Singularity(f).is_isolated():
            return f


def test_witness_form_solutions_rebuild_s_from_their_witness():
    """S = S_1*h + S_2*h^2 is assembled from brackets the quantizers
    already hold; mc_verify rebuilds [f - p, T] by convolution and must
    find it equal to S, for every ADE f and for random isolated f."""
    rng = random.Random(47)
    cases = [(f, *_ade_datum(f)) for _, f in ade_catalog()]
    for _ in range(6):
        f = _random_isolated_f(rng)
        cases.append((f, rand_w_element(rng, f), ad_f(f, rand_trivector3(rng, CTX3))))
    for f, p1, s1 in cases:
        sols = [quantize_n3(f, p1, s1)]
        for order in range(2, 7):
            sol = quantize_general(f, p1, s1, max_order=order)
            assert isinstance(sol, MCSolution)
            sols.append(sol)
        for sol in sols:
            report = mc_verify(f, sol)
            assert report.witness_consistent is True and report.ok


def test_degree_guard_reaches_lift_and_normal_form():
    """The guard of a Singularity reaches the module basis of the lift and
    the normal form of p; f itself runs unguarded."""
    f = a_k(1)  # partials of degree 1: the Jacobian basis itself passes a guard of 1
    assert Singularity(f, max_degree=1).milnor_number() == 1
    z = ad_f(f, g("x^2*D(1,2,3)"))
    p = parse_polynomial("x^2", CTX3)
    assert koszul_lift(f, z) == g("x^2*D(1,2,3)")
    assert qc_normalize(f, p).is_zero()
    assert koszul_lift(Singularity(f, max_degree=64), z) == g("x^2*D(1,2,3)")
    assert qc_normalize(Singularity(f, max_degree=64), p).is_zero()
    with pytest.raises(DegreeGuardExceeded):
        koszul_lift(Singularity(f, max_degree=1), z)
    with pytest.raises(DegreeGuardExceeded):
        qc_normalize(Singularity(f, max_degree=1), p)
