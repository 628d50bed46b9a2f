"""Polynomial core: arithmetic, derivatives, substitution, division, series."""

import json
import random

import pytest

from ncunfold.errors import ContextMismatch
from ncunfold.poly import (
    HSeries,
    Polynomial,
    RingContext,
    Substitution,
    exact_divide,
)

from ncunfold.polyvector import GElement, schouten_bracket

from oracles import rand_gelement, rand_poly

CTX3 = RingContext(("x", "y", "z"))
CTX2 = RingContext(("x", "y"))


def xyz():
    return tuple(Polynomial.variable(CTX3, i) for i in (1, 2, 3))


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(())
    with pytest.raises(ValueError):
        RingContext(("x", "x"))
    for bad in ("h", "E", "D", "2x", ""):
        with pytest.raises(ValueError):
            RingContext(("x", bad))


def test_additive_inverse():
    x, _, _ = xyz()
    assert (x + (-x)).is_zero()


def test_disjoint_support_sum():
    x, y, _ = xyz()
    assert x * x + 1 + (y - 1) == x * x + y


def test_square_sum_expansion():
    x, y, _ = xyz()
    # (x+y)^2 + (x-y)^2 expanded by hand: 2x^2 + 2y^2
    assert (x + y) ** 2 + (x - y) ** 2 == 2 * x ** 2 + 2 * y ** 2


def test_mul_units():
    x, y, z = xyz()
    f = x * y + z ** 3 - 2
    assert (Polynomial.zero(CTX3) * f).is_zero()
    assert Polynomial.one(CTX3) * f == f
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        Polynomial.variable(CTX3, 1) + Polynomial.variable(CTX2, 1)


def test_partial_derivatives():
    x, y, z = xyz()
    f = x ** 2 + y ** 2 + z ** 2
    assert f.partial(1) == 2 * x
    g = x ** 3 + y ** 5 + z ** 2
    assert g.partial(2) == 5 * y ** 4
    assert Polynomial.constant(CTX3, 7).partial(1).is_zero()
    with pytest.raises(IndexError):
        f.partial(4)


def test_ring_axioms_randomized():
    rng = random.Random(20240601)
    for trial in range(200):
        n = rng.randint(1, 4)
        ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
        a = rand_poly(rng, ctx, max_degree=6)
        b = rand_poly(rng, ctx, max_degree=6)
        c = rand_poly(rng, ctx, max_degree=6)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_leibniz_rule_exact():
    rng = random.Random(7)
    for _ in range(50):
        f = rand_poly(rng, CTX3, max_degree=4)
        g = rand_poly(rng, CTX3, max_degree=4)
        for i in (1, 2, 3):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_substitution_identity_and_example():
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    f = x * y
    ident = Substitution.identity(CTX2)
    assert ident(f) == f
    sigma = Substitution(CTX2, (x + y ** 2, y))
    assert sigma(f) == x * y + y ** 3


def test_substitution_composition_is_homomorphism():
    rng = random.Random(11)
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    sigma = Substitution(CTX2, (x + y ** 2, y))
    tau = Substitution(CTX2, (y, x - 1))
    for _ in range(20):
        f = rand_poly(rng, CTX2, max_degree=4)
        g = rand_poly(rng, CTX2, max_degree=4)
        assert sigma(f * g) == sigma(f) * sigma(g)
        assert sigma(f + g) == sigma(f) + sigma(g)
        assert tau(sigma(f)) == sigma.compose(tau)(f)


def test_exact_divide_examples():
    x, y, _ = xyz()
    assert exact_divide(x ** 2 - y ** 2, x - y) == x + y
    assert exact_divide(x, x + 1) is None
    assert exact_divide(Polynomial.zero(CTX3), x + 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, Polynomial.zero(CTX3))


def test_exact_divide_roundtrip_random():
    rng = random.Random(99)
    for _ in range(60):
        a = rand_poly(rng, CTX2, max_degree=3)
        b = rand_poly(rng, CTX2, max_degree=3, zero_ok=False)
        q = exact_divide(a * b, b)
        assert q == a


def test_json_roundtrip_byte_exact():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, CTX3, max_degree=5)
        blob = json.dumps(p.to_json(), sort_keys=True)
        q = Polynomial.from_json(CTX3, json.loads(blob))
        assert q == p
        assert json.dumps(q.to_json(), sort_keys=True) == blob


def test_hashable_and_equality_semantics():
    x, y, _ = xyz()
    assert hash(x + y) == hash(y + x)
    assert x + y == y + x
    assert x != y


# -- HSeries -----------------------------------------------------------------


def test_hseries_validation():
    z = Polynomial.zero(CTX2)
    with pytest.raises(ValueError):
        HSeries([z], 0)
    with pytest.raises(ValueError):
        HSeries([z, z], 3)


def test_hseries_matches_polynomial_arithmetic_mod_truncation():
    # simulate h as an extra commuting variable and compare
    rng = random.Random(42)
    ext = RingContext(("x", "y", "t"))
    n_order = 4

    def to_ext(series):
        t = Polynomial.variable(ext, 3)
        total = Polynomial.zero(ext)
        for k, c in enumerate(series.coeffs):
            lifted = Polynomial(ext, {e + (0,): q for e, q in c.terms.items()})
            total = total + lifted * t ** k
        return total

    def truncate(p, order):
        return Polynomial(ext, {e: c for e, c in p.terms.items() if e[2] <= order})

    for _ in range(30):
        a = HSeries([rand_poly(rng, CTX2, 2) for _ in range(n_order + 1)], n_order)
        b = HSeries([rand_poly(rng, CTX2, 2) for _ in range(n_order + 1)], n_order)
        assert to_ext(a + b) == truncate(to_ext(a) + to_ext(b), n_order)
        assert to_ext(a * b) == truncate(to_ext(a) * to_ext(b), n_order)


def test_hseries_convolve_matches_naive_double_sum():
    rng = random.Random(5)
    kinds = (
        (lambda: rand_poly(rng, CTX2, 2), Polynomial.zero(CTX2), lambda a, b: a * b),
        (lambda: rand_gelement(rng, CTX3), GElement.zero(CTX3), schouten_bracket),
    )
    for draw, zero, op in kinds:
        for _ in range(40):
            a_order, b_order = rng.randint(1, 6), rng.randint(1, 6)
            a = HSeries([draw() if rng.random() < 0.4 else zero
                         for _ in range(a_order + 1)], a_order)
            b = HSeries([draw() if rng.random() < 0.4 else zero
                         for _ in range(b_order + 1)], b_order)
            for order in (None, rng.randint(1, a_order + b_order)):
                calls = []

                def counted(x, y):
                    calls.append(1)
                    return op(x, y)

                got = a.convolve(b, counted, order)
                n = min(a_order, b_order) if order is None else order
                want = []
                for k in range(n + 1):
                    acc = zero
                    for i in range(max(0, k - b_order), min(k, a_order) + 1):
                        acc = acc + op(a.coeffs[i], b.coeffs[k - i])
                    want.append(acc)
                assert got == HSeries(want, n)
                nnz_a = sum(not c.is_zero() for c in a.coeffs)
                nnz_b = sum(not c.is_zero() for c in b.coeffs)
                assert len(calls) <= nnz_a * nnz_b + n + 1


def test_hseries_convolve_rejects_order_beyond_operands():
    z = Polynomial.zero(CTX2)
    a = HSeries([z, z], 1)
    with pytest.raises(ValueError):
        a.convolve(a, lambda x, y: x * y, 3)


def test_hseries_truncation_discards_high_orders():
    one = Polynomial.one(CTX2)
    zero = Polynomial.zero(CTX2)
    a = HSeries([zero, one, one], 2)  # h + h^2
    sq = a * a  # h^2 + 2h^3 + h^4 -> truncated at 2
    assert sq.coeffs[2] == one
    assert sq.order == 2
