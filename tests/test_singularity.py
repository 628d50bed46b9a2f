"""Jacobian data, Milnor numbers, the complement W, and monicization."""

import itertools
import random
import warnings

import pytest

from ncunfold.errors import DegreeGuardExceeded, NotIsolated
from ncunfold.parsing import parse_polynomial
from ncunfold.poly import INFINITE, Polynomial, RingContext
from ncunfold.groebner import (
    GREVLEX,
    LEX,
    buchberger,
    ideal_membership,
    normal_form,
    quotient_dimension,
    standard_monomials,
)
from ncunfold.singularity import (
    ADE_CONTEXT,
    Singularity,
    a_k,
    ade_catalog,
    d_k,
    e_8,
    is_isolated,
    is_monic_in_last,
    jacobian,
    milnor_number,
    monicize,
    qc_subspace,
    _may_be_regular,
    _top_form,
)

from oracles import milnor_oracle, rand_poly

CTX2 = RingContext(("x", "y"))


def test_jacobian_a1():
    data = jacobian(a_k(1))
    assert data.milnor == 1
    assert data.w_basis == ((0, 0, 0),)
    assert [str(p) for p in data.partials] == ["2*x", "2*y", "2*z"]


def test_jacobian_a2():
    data = jacobian(a_k(2))
    assert data.milnor == 2
    assert data.w_basis == ((0, 0, 0), (1, 0, 0))


def test_non_isolated():
    f = parse_polynomial("x^2*y", CTX2)
    assert milnor_number(f) == INFINITE
    assert not is_isolated(f)
    with pytest.raises(NotIsolated):
        qc_subspace(f)


def test_constant_rejected_and_warning():
    with pytest.raises(ValueError):
        milnor_number(Polynomial.constant(CTX2, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        milnor_number(parse_polynomial("x^2 + y^2 + 1", CTX2))
    assert any("constant term" in str(w.message) for w in caught)


WITH_CONSTANT = parse_polynomial("x^3 + y^2 + 1", CTX2)

# each public entry point that checks f, called on an f with a constant term
ENTRY_POINTS = {
    "Singularity": lambda: Singularity(WITH_CONSTANT),
    "Singularity.of": lambda: Singularity.of(WITH_CONSTANT),
    "jacobian": lambda: jacobian(WITH_CONSTANT),
    "milnor_number": lambda: milnor_number(WITH_CONSTANT),
    "is_isolated": lambda: is_isolated(WITH_CONSTANT),
    "qc_subspace": lambda: qc_subspace(WITH_CONSTANT),
    "monicize": lambda: monicize(WITH_CONSTANT),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_constant_term_warns_once_naming_the_caller(entry):
    """One UserWarning per call, attributed to the first frame outside the
    package: here, the lambda in this file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ENTRY_POINTS[entry]()
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "f has a nonzero constant term; the Jacobian ideal is unaffected")
    ]
    assert caught[0].filename == __file__


def test_singularity_warns_on_construction_only():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sing = Singularity(WITH_CONSTANT)
        assert sing.milnor_number() == 2 and qc_subspace(sing) == [(0, 0), (1, 0)]
    assert len(caught) == 1 and caught[0].filename == __file__


def test_milnor_matches_linear_algebra_oracle_small():
    # independent sparse-elimination oracle on the smaller catalog entries
    for f in (a_k(1), a_k(2), a_k(3), d_k(4), e_8()):
        assert milnor_number(f) == milnor_oracle(f)
    f = parse_polynomial("x^2*y", CTX2)
    assert milnor_oracle(f) == INFINITE


@pytest.mark.parametrize("n, d", [(2, 5), (3, 3)])
def test_milnor_matches_linear_algebra_oracle_on_dense_f(n, d):
    """Dense f on every monomial of degree 2..d (as the Milnor workload
    draws it), against the oracle's incremental echelon set: mu is the
    Bezout count (d - 1)^n."""
    rng = random.Random(36)
    ctx = RingContext(("x", "y", "z")[:n])
    monomials = [e for e in itertools.product(range(d + 1), repeat=n) if 2 <= sum(e) <= d]
    f = Polynomial(ctx, {e: rng.randint(-9, 9) for e in monomials})
    assert milnor_number(f) == milnor_oracle(f) == (d - 1) ** n


def test_a_series_values():
    for k in range(1, 7):
        assert milnor_number(a_k(k)) == k


def test_smooth_point():
    f = parse_polynomial("x", CTX2)
    assert milnor_number(f) == 0


def test_cube_sum_isolated():
    f = parse_polynomial("x^3+y^3+z^3", ADE_CONTEXT)
    assert is_isolated(f)
    assert milnor_number(f) == milnor_oracle(f) == 8


def test_qc_subspace_catalog():
    assert qc_subspace(a_k(1)) == [(0, 0, 0)]
    assert qc_subspace(a_k(2)) == [(0, 0, 0), (1, 0, 0)]
    e8_basis = qc_subspace(e_8())
    names = [ADE_CONTEXT.format_monomial(m) for m in e8_basis]
    assert names == ["1", "x", "y", "x*y", "y^2", "x*y^2", "y^3", "x*y^3"]


def test_w_basis_monomials_are_their_own_normal_forms():
    for _, f in ade_catalog():
        data = jacobian(f)
        for exps in data.w_basis:
            m = Polynomial.monomial(ADE_CONTEXT, exps)
            assert normal_form(m, data.gb).remainder == m


def test_singularity_wrapper():
    s = Singularity(a_k(2))
    assert s.milnor_number() == 2
    assert s.is_isolated()
    assert s.jacobian() is s.isolated_jacobian()  # computed once, then kept
    assert s.jacobian() == jacobian(a_k(2))
    assert Singularity.of(s) is s


def test_singularity_owns_the_degree_guard():
    guarded = Singularity(e_8(), max_degree=2)  # partials reach degree 4
    with pytest.raises(DegreeGuardExceeded):
        guarded.milnor_number()
    with pytest.raises(DegreeGuardExceeded):
        qc_subspace(guarded)
    assert Singularity(e_8(), max_degree=4).milnor_number() == 8
    with pytest.raises(NotIsolated):
        Singularity(parse_polynomial("x^2", CTX2)).isolated_jacobian()


def test_monicize_examples():
    f = parse_polynomial("x*y", CTX2)
    sigma, image = monicize(f)
    assert str(sigma.images[0]) == "y^2 + x"
    assert image == parse_polynomial("x*y + y^3", CTX2)
    assert is_monic_in_last(image)

    g = parse_polynomial("x^2*y^2", CTX2)
    sigma2, image2 = monicize(g)
    assert str(sigma2.images[0]) == "y^3 + x"
    assert image2 == parse_polynomial("x^2*y^2 + 2*x*y^5 + y^8", CTX2)

    h = a_k(1)  # already monic in z
    sigma3, image3 = monicize(h)
    assert image3 == h
    assert all(
        sigma3.images[i - 1] == Polynomial.variable(ADE_CONTEXT, i) for i in (1, 2, 3)
    )


def test_monicize_shape_and_fallback():
    # xz - y defeats the arithmetic-progression exponents; the geometric
    # fallback must still produce the x_i -> x_i + x_n^N shape and a monic result
    f = parse_polynomial("x*z - y", ADE_CONTEXT)
    sigma, image = monicize(f)
    assert is_monic_in_last(image)
    xn = Polynomial.variable(ADE_CONTEXT, 3)
    assert sigma.images[2] == xn
    for i in (1, 2):
        diff = sigma.images[i - 1] - Polynomial.variable(ADE_CONTEXT, i)
        assert len(diff.terms) == 1  # a single power of x_n
        (exps,) = diff.terms
        assert exps[0] == exps[1] == 0 and exps[2] >= 1


def test_monicize_preserves_milnor_on_catalog():
    for _, f in ade_catalog():
        sigma, image = monicize(f)
        assert milnor_number(image) == milnor_number(f)


def test_monicize_random_preserves_milnor():
    rng = random.Random(2025)
    produced = 0
    while produced < 12:
        n = rng.choice((2, 3))
        ctx = CTX2 if n == 2 else ADE_CONTEXT
        f = rand_poly(rng, ctx, max_degree=3, n_terms=3)
        f = f - f.constant_term()
        if f.is_zero() or f.is_constant() or is_monic_in_last(f):
            continue
        produced += 1
        sigma, image = monicize(f)
        assert is_monic_in_last(image)
        assert milnor_number(image) == milnor_number(f)


def test_singularity_jacobian_is_the_free_jacobian():
    """Singularity.jacobian, which the Koszul lifts and qc_normalize read,
    builds the same cofactor-free basis as jacobian(f); cofactors over the
    partials come from ideal_membership where they are needed."""
    p = parse_polynomial("x^3*y + z^4", ADE_CONTEXT)
    for _, f in ade_catalog():
        data = Singularity(f).jacobian()
        free = jacobian(f)
        assert data.gb == free.gb
        assert data.partials == free.partials
        w = normal_form(p, data.gb).remainder
        cofs = ideal_membership(p - w, data.partials)
        assert w + sum((c * q for c, q in zip(cofs, data.partials)),
                       Polynomial.zero(ADE_CONTEXT)) == p


def _outcome(build):
    try:
        data = build()
    except DegreeGuardExceeded:
        return "abort"
    return data.gb, data.milnor


def test_jacobian_and_singularity_abort_alike():
    """On small random f in three variables of degree 3-4, at guards from
    deg f to deg f + 3, jacobian(f) and Singularity(f).jacobian() abort on
    the same inputs and agree where they do not.  (When the Singularity
    built its basis with cofactors, seeds 9, 12, 17 and 34 disagreed at a
    guard of 4.)"""
    aborts = results = 0
    for seed in range(40):
        rng = random.Random(seed)
        f = rand_poly(rng, ADE_CONTEXT, rng.randint(3, 4), n_terms=5)
        f = f - f.constant_term()
        if f.is_constant():
            continue
        d = f.total_degree()
        for guard in range(d, d + 4):
            free = _outcome(lambda: jacobian(f, max_degree=guard))
            owned = _outcome(lambda: Singularity(f, guard).jacobian())
            assert free == owned, (seed, guard)
            aborts += free == "abort"
            results += free != "abort"
    assert aborts and results


# -- mu and W from the leading forms of the partials -------------------------


def _dense_f(rng, ctx, lo, d):
    """f on every monomial of degree lo..d, coefficients in [-9, 9]."""
    monomials = [e for e in itertools.product(range(d + 1), repeat=ctx.n) if lo <= sum(e) <= d]
    return Polynomial(ctx, {e: rng.randint(-9, 9) for e in monomials})


def _degenerate_top(rng, ctx, d):
    """L^2 * g + lower terms, L a linear form on every variable and g dense
    of degree d - 2: the top forms of the partials all vanish on L = 0, yet
    for a generic draw each variable has a pure power among them and no two
    are proportional, and the lower terms, linear ones among them, leave mu
    finite."""
    lin = Polynomial(ctx, {e: rng.choice([-3, -2, -1, 1, 2, 3])
                           for e in itertools.product(range(2), repeat=ctx.n) if sum(e) == 1})
    return lin * lin * _dense_f(rng, ctx, d - 2, d - 2) + _dense_f(rng, ctx, 1, d - 1)


def _leading_form_draw():
    """(f, order, check with the oracle) over dense and sparse f for
    n = 2..4, the ADE catalog, and f whose top forms are degenerate: a
    common zero on an axis, two proportional forms (scaled alike or not),
    and forms that pass both prechecks yet are not regular."""
    rng = random.Random(29)
    ctxs = {n: RingContext(("x", "y", "z", "w")[:n]) for n in (2, 3, 4)}
    draw = [(f, GREVLEX, False) for _, f in ade_catalog()]
    for n, d in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)]:
        draw.append((_dense_f(rng, ctxs[n], 2, d), GREVLEX, (n, d) == (2, 4)))
    for _ in range(24):
        n = rng.choice((2, 2, 3, 4))
        f = rand_poly(rng, ctxs[n], rng.randint(2, 5), n_terms=rng.randint(2, 6))
        if not f.is_constant():
            draw.append((f - f.constant_term(), GREVLEX, n == 2))
    for n, d in [(2, 3), (2, 4), (2, 4), (2, 5), (3, 4), (3, 4)]:
        draw.append((_degenerate_top(rng, ctxs[n], d), GREVLEX, n == 2))
    for text in ("(x+y)^3 + x^2 - y^2 + x", "(x+2*y)^3 + x^2 + y"):
        draw.append((parse_polynomial(text, CTX2), GREVLEX, True))
    x, y, z, w = (Polynomial.variable(ctxs[4], i) for i in range(1, 5))
    draw += [((x + y + z + w) ** 4 + x ** 5, GREVLEX, False),
             ((x + y + z + w) ** 3 + y ** 4 + x * z * w, GREVLEX, False)]
    for n, d in [(2, 4), (2, 5), (3, 3)]:
        draw.append((_dense_f(rng, ctxs[n], 2, d), LEX, False))
    return draw


def test_leading_form_path_matches_the_basis_of_the_partials():
    """mu, isolatedness and W from `jacobian` equal those read off
    buchberger(partials) under the same order on every f of the draw, and
    the lazily built gb is that basis; `milnor_oracle` checks mu where it
    is quick.  The prechecks reject only top forms that are not regular,
    and the draw reaches every case of the path."""
    cases = ("homogeneous", "lex", "regular", "rejected", "passed, not regular")
    kinds = dict.fromkeys(cases, 0)
    for f, order, oracle in _leading_form_draw():
        partials = tuple(f.partial(i) for i in range(1, f.ctx.n + 1))
        full = buchberger(partials, order)
        mu = quotient_dimension(full)
        data = jacobian(f, order)
        assert (data.milnor, data.w_basis) == (mu, () if mu == INFINITE else
                                               tuple(standard_monomials(full))), str(f)
        assert is_isolated(f) == (mu != INFINITE)
        assert data.gb == full
        if oracle:
            assert milnor_oracle(f) == mu, str(f)
        tops = tuple(map(_top_form, partials))
        regular = quotient_dimension(buchberger(tops)) != INFINITE
        passed = _may_be_regular(tops)
        assert passed or not regular, str(f)
        if tops == partials:
            kind = "homogeneous"
        elif order == LEX:
            kind = "lex"
        elif not passed:
            kind = "rejected"
        elif regular:
            kind = "regular"
        elif mu != INFINITE:
            kind = "passed, not regular"
        else:
            continue
        kinds[kind] += 1
    assert min(kinds[case] for case in cases) >= 3, kinds
