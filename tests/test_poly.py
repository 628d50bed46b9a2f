"""Polynomial core: arithmetic, derivatives, substitution, division, series."""

import json
import math
import random
from fractions import Fraction

import pytest

from ncunfold.errors import ContextMismatch
from ncunfold.poly import (
    HSeries,
    Polynomial,
    RingContext,
    Substitution,
    from_decimal,
    product_kernel,
    to_decimal,
)

from ncunfold.polyvector import GElement, schouten_bracket

from oracles import (
    decimal_value,
    naive_derive,
    naive_poly_add,
    naive_poly_mul,
    naive_poly_scale,
    rand_gelement,
    rand_poly,
)

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


# distinct primes from 30 to 521 bits
LARGE_PRIMES = (
    2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1, 2**89 - 1,
    2**107 - 1, 2**127 - 1, 2**521 - 1,
)


def _monic_500_bit(rng, ctx, n_terms):
    """A monic polynomial whose other coefficients share a ~500-bit
    denominator, like the entries of a reduced Groebner basis."""
    den = rng.getrandbits(500) | (1 << 499) | 1
    p = rand_poly(
        rng, ctx, 3, n_terms, coeff=lambda r: Fraction(r.randint(-(2**500), 2**500), den)
    )
    return p + Polynomial.monomial(ctx, (5,) * ctx.n)


COEFFICIENTS = {
    "integer": lambda r: Fraction(r.randint(-9, 9)),
    "small_den": lambda r: Fraction(r.randint(-9, 9), r.randint(1, 6)),
    "prime_den": lambda r: Fraction(r.randint(-(2**40), 2**40), r.choice(LARGE_PRIMES)),
}


def assert_canonical(p):
    """nums over den > 0 with gcd 1 and no zero numerator; the Fraction view
    agrees with it."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.terms == {e: Fraction(c, p.den) for e, c in p.nums.items()}
    for c in p.terms.values():
        assert type(c) is Fraction
        assert c != 0


def assert_product_matches_oracle(a, b):
    prod = a * b
    assert_canonical(prod)
    assert prod.terms == naive_poly_mul(a, b)
    assert (b * a).terms == prod.terms


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_mul_matches_naive_double_sum(kind):
    """Every n the library meets, 1 to 8 (hkr runs at 8): random products,
    and products (a + b)(a - b) whose cross terms cancel."""
    rng = random.Random(f"mul-{kind}")
    for _ in range(80):
        n = rng.randint(1, 8)
        ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
        a = rand_poly(rng, ctx, 4, rng.randint(1, 8), coeff=COEFFICIENTS[kind])
        b = rand_poly(rng, ctx, 4, rng.randint(1, 8), coeff=COEFFICIENTS[kind])
        assert_product_matches_oracle(a, b)
        assert_product_matches_oracle(a + b, a - b)


def _wide_nums(rng, n, n_terms):
    """{exps: int} with numerators of up to 100 bits, of either sign."""
    nums = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        nums[exps] = rng.choice((-1, 1)) * rng.getrandbits(100) or 1
    return nums


def _naive_kernel(a: dict, b: dict, s: int) -> dict:
    """s * a * b as an insertion-ordered double sum over zip-added keys."""
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + s * c1 * c2
    return acc


@pytest.mark.parametrize("n", range(1, 9))
def test_product_kernel_matches_naive_sum_at_every_n(n):
    """The kernel of n variables gives the naive double sum, values and
    insertion order alike, for numerators above 64 bits, for the signs
    the bracket passes and for a product whose cross term cancels to 0."""
    rng = random.Random(f"kernel-{n}")
    kernel = product_kernel(n)
    for _ in range(30):
        a = _wide_nums(rng, n, rng.randint(1, 6))
        b = _wide_nums(rng, n, rng.randint(1, 6))
        for s in (1, -1, 3):
            acc = {}
            kernel(acc, a.items(), list(b.items()), s)
            want = _naive_kernel(a, b, s)
            assert list(acc.items()) == list(want.items())
    # (c x^p + d x^q)(c x^p - d x^q): the x^(p+q) sum is c*(-d) + d*c = 0
    p, q = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,)
    c, d = 2**70 + 1, -(2**65 + 3)
    acc = {}
    kernel(acc, {p: c, q: d}.items(), {p: c, q: -d}.items(), 1)
    pq = tuple(x + y for x, y in zip(p, q))
    assert acc[pq] == 0
    assert {e: v for e, v in acc.items() if v} == {
        tuple(2 * x for x in p): c * c, tuple(2 * x for x in q): -d * d
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_product_kernel_with_sign_minus_one_is_the_negated_product(n):
    rng = random.Random(f"kernel-neg-{n}")
    ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
    for _ in range(20):
        a = rand_poly(rng, ctx, 4, rng.randint(1, 6), coeff=COEFFICIENTS["prime_den"])
        b = rand_poly(rng, ctx, 4, rng.randint(1, 6), coeff=COEFFICIENTS["prime_den"])
        acc = {}
        product_kernel(n)(acc, a.nums.items(), b.nums.items(), -1)
        neg = {e: Fraction(v, a.den * b.den) for e, v in acc.items() if v}
        assert neg == {e: -c for e, c in naive_poly_mul(a, b).items()}


def test_product_kernel_is_built_once_per_n():
    """Products and brackets at n = 1..8, in two rings per n, build one
    kernel per n and reuse it."""
    product_kernel.cache_clear()
    rng = random.Random("kernel-once")
    for _ in range(3):
        for n in range(1, 9):
            ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
            a, b = rand_poly(rng, ctx, 3, 4), rand_poly(rng, ctx, 3, 4)
            assert_product_matches_oracle(a, b)
            x, y = rand_gelement(rng, ctx), rand_gelement(rng, ctx)
            schouten_bracket(x, y)
            other = RingContext(tuple(f"t{i}" for i in range(1, n + 1)))
            Polynomial.variable(other, 1) * Polynomial.variable(other, n)
    info = product_kernel.cache_info()
    assert (info.misses, info.currsize) == (8, 8)
    assert all(product_kernel(n) is product_kernel(n) for n in range(1, 9))


def test_mul_matches_naive_on_monic_large_denominators():
    rng = random.Random("mul-monic")
    for _ in range(20):
        a = _monic_500_bit(rng, CTX3, rng.randint(2, 8))
        b = _monic_500_bit(rng, CTX3, rng.randint(2, 8))
        assert_product_matches_oracle(a, b)
        small = rand_poly(rng, CTX3, 4, 3, coeff=COEFFICIENTS["small_den"])
        assert_product_matches_oracle(a, small)


def test_mul_cancellation():
    x, y, z = xyz()
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    # every cross term cancels, leaving two terms
    assert_product_matches_oracle(third * x - fifth * y, third * x + fifth * y)
    assert (x + y) * (x ** 2 - x * y + y ** 2) == x ** 3 + y ** 3
    assert_product_matches_oracle(1 - x, sum((x ** k for k in range(7)), Polynomial.zero(CTX3)))
    rng = random.Random("mul-cancel")
    for _ in range(40):
        b = rand_poly(rng, CTX3, 4, rng.randint(1, 6), coeff=COEFFICIENTS["small_den"])
        c = rand_poly(rng, CTX3, 4, rng.randint(1, 6), coeff=COEFFICIENTS["small_den"])
        # (b + c)(b - c) = b^2 - c^2 cancels the b*c cross terms
        assert_product_matches_oracle(b + c, b - c)
        assert (b + c) * (b - c) == b * b - c * c


def test_mul_single_term_and_zero_operands():
    rng = random.Random("mul-edge")
    zero = Polynomial.zero(CTX3)
    for _ in range(30):
        kind = rng.choice(sorted(COEFFICIENTS))
        a = rand_poly(rng, CTX3, 4, rng.randint(1, 6), coeff=COEFFICIENTS[kind])
        mono = rand_poly(rng, CTX3, 4, 1, coeff=lambda r: COEFFICIENTS[kind](r) or Fraction(1, 7))
        assert_product_matches_oracle(a, mono)
        assert_product_matches_oracle(mono, mono)
        assert (a * zero).terms == {} and (zero * a).terms == {}
        assert (zero * zero).terms == {}


def test_mul_by_scalars():
    rng = random.Random("mul-scalar")
    for _ in range(30):
        a = rand_poly(rng, CTX3, 4, rng.randint(1, 6), coeff=COEFFICIENTS["prime_den"])
        for q in (3, -1, Fraction(2, 7), Fraction(-(2**89 - 1), 3)):
            expected = naive_poly_mul(a, Polynomial.constant(CTX3, q))
            for prod in (a * q, q * a):
                assert_canonical(prod)
                assert prod.terms == expected
        for q in (0, Fraction(0)):
            assert (a * q).terms == {} and (q * a).terms == {}


# each coefficient of a "mixed" polynomial from a random one of the kinds above
KINDS = {**COEFFICIENTS, "mixed": lambda r: COEFFICIENTS[r.choice(sorted(COEFFICIENTS))](r)}
SCALARS = (0, 1, -1, 3, Fraction(2, 7), Fraction(-(2**89 - 1), 3), Fraction(5, 2**61 - 1))


def assert_matches(p, expected):
    assert_canonical(p)
    assert p.terms == expected


def assert_linear_ops_match_oracle(a, b, rng):
    ctx = a.ctx
    assert_matches(a + b, naive_poly_add(a, b))
    assert_matches(a - b, naive_poly_add(a, b, -1))
    assert_matches(-a, naive_poly_scale(a, -1))
    q = rng.choice(SCALARS)
    assert_matches(a * q, naive_poly_scale(a, q))
    assert_matches(q * a, naive_poly_scale(a, q))
    if q:
        assert_matches(a / q, naive_poly_scale(a, 1 / Fraction(q)))
    i = rng.randint(1, ctx.n)
    unit = tuple(int(j == i) for j in range(1, ctx.n + 1))
    assert_matches(a.partial(i), naive_derive(a, unit))
    alpha = tuple(rng.randint(0, 3) for _ in range(ctx.n))
    assert_matches(a.derive(alpha), naive_derive(a, alpha))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_linear_ops_and_derivatives_match_fraction_oracle(kind):
    rng = random.Random(f"linear-{kind}")
    for _ in range(60):
        n = rng.randint(1, 4)
        ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
        a = rand_poly(rng, ctx, 5, rng.randint(0, 8), coeff=KINDS[kind])
        b = rand_poly(rng, ctx, 5, rng.randint(0, 8), coeff=KINDS[kind])
        assert_canonical(a)
        assert_linear_ops_match_oracle(a, b, rng)


def test_linear_ops_match_oracle_on_monic_large_denominators():
    rng = random.Random("linear-monic")
    for _ in range(20):
        a = _monic_500_bit(rng, CTX3, rng.randint(2, 8))
        b = _monic_500_bit(rng, CTX3, rng.randint(2, 8))
        assert_linear_ops_match_oracle(a, b, rng)
        small = rand_poly(rng, CTX3, 4, 3, coeff=COEFFICIENTS["prime_den"])
        assert_linear_ops_match_oracle(a, small, rng)


def test_exact_cancellation_reaches_canonical_zero_and_lower_denominators():
    rng = random.Random("linear-cancel")
    x, y, _ = xyz()
    for _ in range(40):
        a = rand_poly(rng, CTX3, 4, rng.randint(1, 6), coeff=KINDS["mixed"])
        b = rand_poly(rng, CTX3, 4, rng.randint(1, 6), coeff=KINDS["mixed"])
        for zero in (a - a, a + (-a), (a + b) - a - b, a * 0, a.derive((9, 9, 9))):
            assert_canonical(zero)
            assert zero.nums == {} and zero.den == 1
        assert_canonical((a + b) - b)
    # content shared with the denominator only after the operation
    sixth = Fraction(1, 6) * x
    assert_matches(sixth + sixth, {(1, 0, 0): Fraction(1, 3)})
    assert_matches(sixth + Fraction(1, 3) * x, {(1, 0, 0): Fraction(1, 2)})
    assert_matches((Fraction(1, 2) * x ** 2).partial(1), {(1, 0, 0): Fraction(1)})
    assert_matches((Fraction(1, 6) * x ** 3 * y).derive((2, 1, 0)), {(1, 0, 0): Fraction(1)})
    quarters = Fraction(1, 4) * x + Fraction(3, 4) * y
    assert_matches(quarters * 2, naive_poly_scale(quarters, 2))


def test_equal_polynomials_hash_equal_across_routes():
    rng = random.Random("linear-hash")
    for _ in range(40):
        kind = rng.choice(sorted(KINDS))
        a = rand_poly(rng, CTX3, 4, rng.randint(0, 6), coeff=KINDS[kind])
        b = rand_poly(rng, CTX3, 4, rng.randint(0, 6), coeff=KINDS[kind])
        routes = (
            (a + b) - b,
            -(-a),
            a * Fraction(7, 3) * Fraction(3, 7),
            Polynomial(CTX3, dict(a.terms)),
            Polynomial.from_json(CTX3, a.to_json()),
            b + a - b,
        )
        for q in routes:
            assert q == a
            assert hash(q) == hash(a)
    third = Polynomial.constant(CTX3, Fraction(1, 3))
    assert hash((Fraction(1, 6) + Polynomial.zero(CTX3)) * 2) == hash(third)


def test_terms_view_is_read_only():
    x, y, _ = xyz()
    p = Fraction(1, 2) * x + y
    with pytest.raises(TypeError):
        p.terms[(0, 0, 1)] = Fraction(1)
    assert p.terms == {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1)}


def test_pow_multiplication_count(monkeypatch):
    """Square-and-multiply stops squaring after the top exponent bit."""
    x, y, _ = xyz()
    calls = []
    mul = Polynomial.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for e in (1, 2, 3, 5, 7, 8, 64, 100):
        calls.clear()
        p = (x + y) ** e
        assert len(calls) == bin(e).count("1") + e.bit_length() - 1
        assert p.terms == {(i, e - i, 0): Fraction(math.comb(e, i)) for i in range(e + 1)}
    calls.clear()
    assert (x + y) ** 0 == 1 and calls == []


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


def test_json_roundtrip_byte_exact():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, CTX3, max_degree=5)
        blob = json.dumps(p.to_json(), sort_keys=True)
        q = Polynomial.from_json(CTX3, json.loads(blob))
        assert q == p
        assert json.dumps(q.to_json(), sort_keys=True) == blob


def test_decimal_strings_of_any_length_match_block_arithmetic():
    """to_decimal and from_decimal against the block oracle, at lengths
    around the 512-digit block and its doublings, past the interpreter's
    default limit of 4300 digits."""
    rng = random.Random(11)
    for ndigits in (1, 2, 511, 512, 513, 1023, 1024, 1025, 2049, 4300, 4301, 9000):
        digits = str(rng.randint(1, 9)) + "".join(map(str, rng.choices(range(10), k=ndigits - 1)))
        for text in (digits, "1" + "0" * (ndigits - 1), "9" * ndigits):
            value = decimal_value(text)
            assert to_decimal(value) == text and to_decimal(-value) == "-" + text
            assert from_decimal(text) == value and from_decimal(f" -{text}\n") == -value
    assert (to_decimal(0), from_decimal("0"), from_decimal("+7")) == ("0", 0, 7)
    for bad in ("1" * 600 + "x", "1_" * 400, "--" + "1" * 600, "٣" * 600):
        with pytest.raises(ValueError):
            from_decimal(bad)


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
                # the nonzero pairs and one op(zero, zero) for the result's zero
                assert len(calls) <= len(a.terms) * len(b.terms) + 1


def _gappy_terms(rng, draw, order):
    """A few coefficients scattered over 0..order + 3 with long zero gaps,
    or none at all; powers above order must be dropped by the series."""
    if rng.random() < 0.2:
        return {}
    return {k: draw() for k in rng.sample(range(order + 4), rng.randint(1, 4))}


def test_sparse_hseries_matches_dense_reference():
    """+, map, convolve, coeffs and == of sparse series against the same
    operations on dense coefficient lists."""
    rng = random.Random(16)
    kinds = (
        (lambda: rand_poly(rng, CTX2, 2, zero_ok=False), Polynomial.zero(CTX2),
         lambda a, b: a * b),
        (lambda: rand_gelement(rng, CTX3), GElement.zero(CTX3), schouten_bracket),
    )
    for draw, zero, op in kinds:
        for _ in range(60):
            a_order, b_order = rng.randint(1, 40), rng.randint(1, 40)
            a_terms = _gappy_terms(rng, draw, a_order)
            b_terms = _gappy_terms(rng, draw, b_order)
            a = HSeries.sparse(a_terms, a_order, zero)
            b = HSeries.sparse(b_terms, b_order, zero)
            da = [a_terms.get(k, zero) for k in range(a_order + 1)]
            db = [b_terms.get(k, zero) for k in range(b_order + 1)]
            assert a.coeffs == tuple(da) and b.coeffs == tuple(db)
            assert a == HSeries(da, a_order) and b == HSeries(db, b_order)
            assert all(k <= a_order and not c.is_zero() for k, c in a.terms.items())
            assert list(a.terms) == sorted(a.terms)
            assert (a == b) == (da == db)
            n = min(a_order, b_order)
            assert (a + b).coeffs == tuple(da[k] + db[k] for k in range(n + 1))
            assert a.map(lambda c: c + c).coeffs == tuple(c + c for c in da)
            for order in (None, rng.randint(1, a_order + b_order)):
                m = n if order is None else order
                want = []
                for k in range(m + 1):
                    acc = zero
                    for i in range(max(0, k - b_order), min(k, a_order) + 1):
                        acc = acc + op(da[i], db[k - i])
                    want.append(acc)
                got = a.convolve(b, op, order)
                assert got.order == m and got.coeffs == tuple(want)
    assert HSeries.sparse({}, 5, zero) != HSeries.sparse({}, 4, zero)


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
