"""Graded algebra and bracket: products, Schouten bracket, differentials,
Maurer-Cartan residuals."""

import random
from fractions import Fraction

import pytest

import ncunfold.poly
from ncunfold.errors import ContextMismatch
from ncunfold.parsing import parse_gelement
from ncunfold.poly import HSeries, Polynomial, RingContext
from ncunfold.polyvector import (
    GElement,
    _square,
    ad_f,
    bivector_square,
    g_differential,
    mc_residual,
    schouten_bracket,
)
from ncunfold.singularity import ADE_CONTEXT, a_k

from oracles import (
    commutator_oracle,
    cross_product_components,
    koszul_contraction_oracle,
    rand_bivector,
    rand_gelement,
    rand_homogeneous,
    rand_poly,
    schouten_oracle,
)

CTX3 = ADE_CONTEXT
CTX2 = RingContext(("x", "y"))
CTX4 = RingContext(("x", "y", "z", "w"))
CTX1 = RingContext(("x",))
CTX5 = RingContext(("x", "y", "z", "u", "v"))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def g(text, ctx=CTX3):
    return parse_gelement(text, ctx)


# -- wedge product ------------------------------------------------------------


def test_wedge_repeated_odd_generator_vanishes():
    assert (g("D(1,2)") * g("D(1)")).is_zero()


def test_wedge_odd_swap_sign():
    assert g("D(2)") * g("D(1)") == -g("D(1,2)")


def test_eps_is_even_and_central():
    e = GElement.eps(CTX3)
    x = GElement.from_polynomial(Polynomial.variable(CTX3, 1))
    assert e * e * x == x * e * e
    assert e * g("D(1)") == g("D(1)") * e


def test_wedge_graded_commutativity_random():
    rng = random.Random(101)
    for _ in range(40):
        a = rand_homogeneous(rng, CTX3, rng.randint(0, 4))
        b = rand_homogeneous(rng, CTX3, rng.randint(0, 4))
        da, db = a.degree(), b.degree()
        lhs = a * b
        rhs = b * a
        if (da * db) & 1:
            rhs = -rhs
        assert lhs == rhs


def test_degree_accessors():
    t = g("x*E*D(1)")
    assert t.degree() == 3
    assert not g("E + D(1)").is_homogeneous()
    assert g("E + D(1,2)").is_homogeneous(2)


# -- bracket ------------------------------------------------------------------


def test_bracket_of_vector_with_itself_vanishes():
    rng = random.Random(5)
    for _ in range(20):
        x = rand_homogeneous(rng, CTX3, 1)
        assert schouten_bracket(x, x).is_zero()


def test_bracket_commutator_example():
    x = g("x*D(2)", CTX2)
    y = g("y*D(1)", CTX2)
    assert schouten_bracket(x, y) == g("x*D(1) - y*D(2)", CTX2)


def test_bracket_function_vs_vector():
    xsq = GElement.from_polynomial(Polynomial.variable(CTX2, 1) ** 2)
    d1 = GElement.gen(CTX2, 1)
    two_x = GElement.from_polynomial(2 * Polynomial.variable(CTX2, 1))
    assert schouten_bracket(xsq, d1) == -two_x
    assert schouten_bracket(d1, xsq) == two_x


def test_bracket_context_mismatch():
    with pytest.raises(ContextMismatch):
        schouten_bracket(g("D(1)"), g("D(1)", CTX2))


def test_bracket_matches_left_recursion_oracle():
    rng = random.Random(313)
    for ctx in (CTX2, CTX3, CTX4, CTX1, CTX5):
        for max_eps in (0, 1, 2):
            for _ in range(20):
                a = rand_gelement(rng, ctx, max_eps=max_eps)
                b = rand_gelement(rng, ctx, max_eps=max_eps)
                assert schouten_bracket(a, b) == schouten_oracle(a, b)
                assert _square(a).scale(2) == schouten_oracle(a, a)


def wide_gelement(rng, ctx, max_eps=2, n_terms=3):
    """Random element whose term coefficients lie over distinct prime
    denominators, with numerators above 64 bits."""
    terms = {}
    for p in rng.sample(PRIMES, n_terms):
        key = (rng.randint(0, max_eps), rng.randrange(1 << ctx.n))

        def coeff(r, p=p):
            return Fraction(r.choice((-1, 1)) * r.randrange(2**64, 2**70) * p + 1, p)

        terms[key] = rand_poly(rng, ctx, 2, 2, zero_ok=False, coeff=coeff)
    return GElement(ctx, terms)


def test_bracket_wide_coefficients_match_oracle():
    # each operand lies over the lcm of its own term denominators, and the
    # two operands over different ones
    rng = random.Random(317)
    mixed = 0
    for ctx in (CTX1, CTX2, CTX3, CTX5):
        for _ in range(8):
            a = wide_gelement(rng, ctx)
            b = wide_gelement(rng, ctx)
            mixed += len({c.den for c in a.terms.values()}) > 1
            assert schouten_bracket(a, b) == schouten_oracle(a, b)
            assert _square(a).scale(2) == schouten_oracle(a, a)
    assert mixed


def test_ad_f_and_g_differential_at_n1_and_n5():
    rng = random.Random(337)
    for ctx in (CTX1, CTX5):
        eps = GElement.eps(ctx)
        for _ in range(8):
            f = rand_poly(rng, ctx, 3, zero_ok=False)
            x = wide_gelement(rng, ctx)
            assert ad_f(f, x) == koszul_contraction_oracle(f, x)
            feps = GElement.from_polynomial(f) * eps
            assert g_differential(f, x) == -schouten_oracle(feps, x)


def test_bracket_terms_that_cancel():
    # the terms at d_1 ^ d_2 cancel outright, and at d_1 the x^2*y parts
    # cancel while -x survives
    x = g("x*y*D(1) + x*D(1,2)", CTX2)
    y = g("x*y*D(1) + D(2)", CTX2)
    assert schouten_bracket(x, y) == g("-x*D(1)", CTX2) == schouten_oracle(x, y)
    # [X, X] = 0 for a vector field: the two halves cancel term by term
    v = g("x*y*D(1) + x^2*D(2)", CTX2)
    assert schouten_bracket(v, v).terms == {}


def test_bracket_of_zero_and_square_of_odd_parts():
    rng = random.Random(347)
    zero = GElement.zero(CTX3)
    for _ in range(5):
        a = wide_gelement(rng, CTX3)
        assert schouten_bracket(zero, a).terms == {}
        assert schouten_bracket(a, zero).terms == {}
    assert _square(zero).terms == {}
    # only odd wedge parts: the square vanishes, the bracket agrees
    odd = g("x*D(1) + y^2*E*D(2) + z*D(1,2,3) + 1/3*x*y*E^2*D(3)")
    assert _square(odd).terms == {}
    assert schouten_bracket(odd, odd) == schouten_oracle(odd, odd)
    assert schouten_bracket(odd, odd).is_zero()


def test_bracket_builds_no_intermediate_polynomials(monkeypatch):
    """Inside schouten_bracket and _square no Polynomial arithmetic runs;
    each nonzero output term is built by exactly one from_ints."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    rng = random.Random(353)
    pairs = [(wide_gelement(rng, CTX3), wide_gelement(rng, CTX3)) for _ in range(6)]
    pairs.append((g("x*y*D(1) + x*D(1,2)", CTX2), g("x*y*D(1) + D(2)", CTX2)))
    for name in ("__mul__", "__rmul__", "partial", "__neg__", "_plus"):
        monkeypatch.setattr(Polynomial, name, counted(name, getattr(Polynomial, name)))
    # the brackets build their output terms with poly.collect
    monkeypatch.setattr(ncunfold.poly, "from_ints", counted("from_ints", ncunfold.poly.from_ints))
    terms = 0
    for a, b in pairs:
        out = schouten_bracket(a, b)
        half = _square(a)
        terms += len(out.terms) + len(half.terms)
    assert terms > 0
    assert counts == {"from_ints": terms}


def test_bracket_on_vectors_matches_derivation_commutator():
    rng = random.Random(17)
    for _ in range(40):
        a = rand_homogeneous(rng, CTX3, 1)
        b = rand_homogeneous(rng, CTX3, 1)
        assert schouten_bracket(a, b) == commutator_oracle(a, b)


def test_graded_antisymmetry_random():
    rng = random.Random(23)
    for _ in range(60):
        a = rand_homogeneous(rng, CTX3, rng.randint(0, 4))
        b = rand_homogeneous(rng, CTX3, rng.randint(0, 4))
        lhs = schouten_bracket(a, b)
        rhs = schouten_bracket(b, a)
        if ((a.degree() - 1) * (b.degree() - 1)) & 1:
            assert lhs == rhs
        else:
            assert lhs == -rhs


def test_graded_jacobi_random():
    rng = random.Random(29)
    for _ in range(40):
        a = rand_homogeneous(rng, CTX3, rng.randint(0, 3), max_degree=1)
        b = rand_homogeneous(rng, CTX3, rng.randint(0, 3), max_degree=1)
        c = rand_homogeneous(rng, CTX3, rng.randint(0, 3), max_degree=1)
        lhs = schouten_bracket(a, schouten_bracket(b, c))
        rhs = schouten_bracket(schouten_bracket(a, b), c)
        tail = schouten_bracket(b, schouten_bracket(a, c))
        if ((a.degree() - 1) * (b.degree() - 1)) & 1:
            tail = -tail
        assert lhs == rhs + tail


def test_graded_leibniz_random():
    rng = random.Random(31)
    for _ in range(40):
        a = rand_homogeneous(rng, CTX3, rng.randint(0, 3), max_degree=1)
        b = rand_homogeneous(rng, CTX3, rng.randint(0, 3), max_degree=1)
        c = rand_homogeneous(rng, CTX3, rng.randint(0, 3), max_degree=1)
        lhs = schouten_bracket(a, b * c)
        rhs = schouten_bracket(a, b) * c
        tail = b * schouten_bracket(a, c)
        if ((a.degree() - 1) * b.degree()) & 1:
            tail = -tail
        assert lhs == rhs + tail


# -- ad_f and the inner differential -------------------------------------------


def test_koszul_contraction_example():
    f = a_k(1)
    image = ad_f(f, g("D(1,2,3)"))
    # components (2x, 2y, 2z) in the basis (d23, d31, d12), up to the global
    # sign -1 fixed by this library's convention
    expected = -(g("2*x*D(2,3)") + g("2*y*D(3,1)") + g("2*z*D(1,2)"))
    assert image == expected


def test_ad_f_on_functions_vanishes():
    f = a_k(1)
    rng = random.Random(37)
    for _ in range(10):
        a = GElement.from_polynomial(rand_poly(rng, CTX3, 3))
        assert ad_f(f, a).is_zero()


def test_ad_f_squares_to_zero():
    rng = random.Random(41)
    for _ in range(30):
        f = rand_poly(rng, CTX3, 3)
        x = rand_gelement(rng, CTX3)
        assert ad_f(f, ad_f(f, x)).is_zero()


def test_ad_f_matches_contraction_oracle():
    rng = random.Random(43)
    for _ in range(40):
        f = rand_poly(rng, CTX3, 3)
        x = rand_gelement(rng, CTX3)
        assert ad_f(f, x) == koszul_contraction_oracle(f, x)


def test_g_differential_generator_values():
    f = a_k(1)
    assert g_differential(f, GElement.eps(CTX3)).is_zero()
    for i in (1, 2, 3):
        expected = GElement.from_polynomial(f.partial(i)) * GElement.eps(CTX3)
        assert g_differential(f, GElement.gen(CTX3, i)) == expected


def test_g_differential_squares_to_zero():
    rng = random.Random(47)
    for _ in range(30):
        f = rand_poly(rng, CTX3, 3)
        x = rand_gelement(rng, CTX3)
        assert g_differential(f, g_differential(f, x)).is_zero()


def test_cross_product_law_n3():
    rng = random.Random(53)
    f = a_k(2)
    for _ in range(40):
        s = rand_bivector(rng, CTX3)
        image = ad_f(f, s)
        cross = cross_product_components(s, f)
        assert image.is_zero() == all(c.is_zero() for c in cross)
        # and the exact componentwise law: ad_f(S) = -(s x grad f) . d
        comp = image.wedge_components(1)
        for i in (1, 2, 3):
            got = comp.get((i,), Polynomial.zero(CTX3))
            assert got == -cross[i - 1]


# -- Maurer-Cartan residual -----------------------------------------------------


def _series(coeff1, order=4):
    zero = GElement.zero(CTX3)
    return HSeries([zero, coeff1] + [zero] * (order - 1), order)


def test_mc_residual_pure_eps_part_vanishes():
    rng = random.Random(59)
    f = a_k(1)
    for _ in range(10):
        p = rand_poly(rng, CTX3, 3)
        w = _series(GElement.from_polynomial(p) * GElement.eps(CTX3))
        assert all(c.is_zero() for c in mc_residual(f, w).coeffs)


def test_mc_residual_of_closed_poisson_bivector_vanishes():
    f = a_k(1)
    s = ad_f(f, g("x*D(1,2,3)"))  # a cycle; exact bivectors are Poisson for n = 3
    assert ad_f(f, s).is_zero()
    assert bivector_square(s).is_zero()
    w = _series(s)
    assert all(c.is_zero() for c in mc_residual(f, w).coeffs)


def test_mc_residual_nonzero_term():
    f = a_k(1)
    s = g("x*D(1,2)")
    w = _series(s)
    res = mc_residual(f, w)
    expected_h1 = -(GElement.eps(CTX3) * ad_f(f, s))
    assert res.coeffs[1] == expected_h1
    assert not res.coeffs[1].is_zero()


def test_mc_residual_decomposition():
    # residual_k = -eps * [f - p, S]_k + (1/2) [S, S]_k, term by term, with
    # p_k and S_k nonzero at h^1 and h^2 so that the pairs (1, 2) and (2, 1)
    # of [w, w] meet as well as the diagonal ones
    rng = random.Random(61)
    f = a_k(2)
    eps = GElement.eps(CTX3)
    order = 4
    zero = GElement.zero(CTX3)
    crossed = 0
    for _ in range(15):
        ps = [rand_poly(rng, CTX3, 2, zero_ok=False) for _ in range(2)]
        ss = [rand_bivector(rng, CTX3) for _ in range(2)]
        while any(s.is_zero() for s in ss):
            ss = [rand_bivector(rng, CTX3) for _ in range(2)]
        w = HSeries(
            [zero] + [GElement.from_polynomial(p) * eps + s for p, s in zip(ps, ss)]
            + [zero, zero],
            order,
        )
        res = mc_residual(f, w)
        fp = HSeries(
            [GElement.from_polynomial(f)] + [GElement.from_polynomial(-p) for p in ps]
            + [zero, zero],
            order,
        )
        sser = HSeries([zero] + ss + [zero, zero], order)
        bracket = fp.convolve(sser, schouten_bracket)
        square = sser.convolve(sser, schouten_bracket)
        crossed += not square.coeffs[3].is_zero()
        for k in range(order + 1):
            expected = -(eps * bracket.coeffs[k]) + square.coeffs[k].scale(
                Fraction(1, 2)
            )
            assert res.coeffs[k] == expected
    assert crossed


def test_mc_residual_rejects_bad_degrees():
    f = a_k(1)
    zero = GElement.zero(CTX3)
    with pytest.raises(ValueError):
        mc_residual(f, HSeries([zero, g("D(1)")], 1))
    with pytest.raises(ValueError):
        mc_residual(f, HSeries([g("E"), zero], 1))


# -- bivector square ------------------------------------------------------------


def test_bivector_square_constant_coefficients():
    assert bivector_square(g("D(1,2)")).is_zero()


def test_bivector_square_of_exact_bivectors_n3():
    rng = random.Random(67)
    f = a_k(3)
    for _ in range(25):
        t = GElement(CTX3, {(0, 0b111): rand_poly(rng, CTX3, 2)})
        s = ad_f(f, t)
        assert bivector_square(s).is_zero()


def test_bivector_square_example_vs_oracle():
    s = g("z*D(1,2) + x*D(2,3)")
    assert bivector_square(s) == schouten_oracle(s, s)
    assert bivector_square(s).is_zero()  # this S happens to be Poisson
    s2 = g("z*D(1,2) + x*y*D(2,3)")
    assert bivector_square(s2) == schouten_oracle(s2, s2)
    assert not bivector_square(s2).is_zero()


def test_self_bracket_matches_bracket_and_oracle_mixed_parity():
    # odd wedge parts and eps powers mixed in one element: the odd pairs
    # cancel in the closed form, the even ones count twice
    rng = random.Random(71)
    seen_odd = seen_eps = 0
    for _ in range(30):
        x = rand_gelement(rng, CTX3, max_eps=2, n_terms=4)
        seen_odd += any(bin(m).count("1") & 1 for _, m in x.terms)
        seen_eps += any(e for e, _ in x.terms)
        square = _square(x).scale(2)  # _square gives (1/2)[X, X]
        assert square == schouten_bracket(x, x) == schouten_oracle(x, x)
    assert seen_odd and seen_eps


def test_bivector_square_rejects_wrong_degree():
    with pytest.raises(ValueError):
        bivector_square(g("D(1)"))
    with pytest.raises(ValueError):
        bivector_square(g("E"))
