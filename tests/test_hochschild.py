"""Cochain operations: apply, cup, braces, bracket, differential, HKR.

The differential is d = [mu, -]; under the brace sign convention of the
library it equals (-1)^(p-1) times the classical alternating-sum formula,
and the homotopy-commutativity identity takes the form

    (-1)^(pq+p+1) (P cup Q - (-1)^(pq) Q cup P)
        = d(P{Q}) - (dP){Q} + (-1)^p P{dQ}.

Both relations are asserted exactly below.
"""

import json
import random
import time
from fractions import Fraction

import itertools
import math

import pytest

from ncunfold import hochschild
from ncunfold.errors import BudgetExceeded, ContextMismatch, budget
from ncunfold.hochschild import (
    HKR_TERM_BUDGET,
    PolyDiffOperator,
    _splits,
    brace,
    cup,
    gerstenhaber_bracket,
    hkr,
    hochschild_differential,
    identity_cochain,
    multiplication_cochain,
)
from ncunfold.parsing import parse_gelement, parse_polynomial
from ncunfold.poly import Polynomial, RingContext
from ncunfold.polyvector import GElement, mask_of, schouten_bracket

from oracles import (
    alternating_sum_d,
    brace_oracle,
    operator_args_pool,
    operators_agree_on_monomials,
    rand_homogeneous,
    rand_poly,
    sigma,
)

CTX1 = RingContext(("x",))
CTX2 = RingContext(("x", "y"))
CTX3 = RingContext(("x", "y", "z"))


def rand_operator(rng, ctx, arity, max_order=2, n_terms=2):
    terms = {}
    for _ in range(n_terms):
        alphas = tuple(
            tuple(rng.randint(0, max_order) for _ in range(ctx.n))
            for _ in range(arity)
        )
        terms[alphas] = rand_poly(rng, ctx, 2, 2)
    return PolyDiffOperator(ctx, arity, terms)


def d_dx(ctx, i=1):
    alpha = [0] * ctx.n
    alpha[i - 1] = 1
    return PolyDiffOperator(ctx, 1, {(tuple(alpha),): Polynomial.one(ctx)})


# -- apply ----------------------------------------------------------------------


def test_apply_identity():
    f = parse_polynomial("x^3 - 2*x", CTX1)
    assert identity_cochain(CTX1).apply([f]) == f


def test_apply_derivative():
    x = Polynomial.variable(CTX1, 1)
    assert d_dx(CTX1).apply([x ** 3]) == 3 * x ** 2


def test_apply_product_of_derivatives():
    x = Polynomial.variable(CTX1, 1)
    p = PolyDiffOperator(CTX1, 2, {((1,), (1,)): Polynomial.one(CTX1)})
    assert p.apply([x ** 2, x ** 3]) == 6 * x ** 3


def test_apply_arity_mismatch():
    with pytest.raises(ValueError):
        identity_cochain(CTX1).apply([])


def test_multiplication_cochain_is_mul():
    rng = random.Random(3)
    mu = multiplication_cochain(CTX2)
    for _ in range(10):
        a = rand_poly(rng, CTX2, 3)
        b = rand_poly(rng, CTX2, 3)
        assert mu.apply([a, b]) == a * b


# -- cup --------------------------------------------------------------------------


def test_cup_of_derivatives():
    x = Polynomial.variable(CTX1, 1)
    dd = cup(d_dx(CTX1), d_dx(CTX1))
    assert dd.apply([x ** 2, x ** 3]) == (2 * x) * (3 * x ** 2)


def test_mu_is_id_cup_id():
    assert cup(identity_cochain(CTX2), identity_cochain(CTX2)) == multiplication_cochain(CTX2)


def test_cup_associative_random():
    rng = random.Random(5)
    for _ in range(15):
        p = rand_operator(rng, CTX2, rng.randint(0, 2))
        q = rand_operator(rng, CTX2, rng.randint(0, 2))
        r = rand_operator(rng, CTX2, rng.randint(0, 2))
        assert cup(cup(p, q), r) == cup(p, cup(q, r))


# -- braces ------------------------------------------------------------------------


def test_brace_into_mu_is_leibniz_expansion():
    rng = random.Random(7)
    mu = multiplication_cochain(CTX2)
    d = d_dx(CTX2)
    md = brace(mu, [d])
    for _ in range(10):
        a = rand_poly(rng, CTX2, 3)
        b = rand_poly(rng, CTX2, 3)
        assert md.apply([a, b]) == d.apply([a]) * b + a * d.apply([b])


def test_empty_brace_is_identity():
    rng = random.Random(9)
    p = rand_operator(rng, CTX2, 2)
    assert brace(p, []) == p


def test_brace_of_one_cochains_is_composition():
    rng = random.Random(11)
    for _ in range(10):
        d = rand_operator(rng, CTX2, 1)
        e = rand_operator(rng, CTX2, 1)
        composed = brace(d, [e])
        for a in operator_args_pool(CTX2, 3)[:12]:
            assert composed.apply([a]) == d.apply([e.apply([a])])


def test_brace_arity_error():
    p = identity_cochain(CTX2)
    with pytest.raises(ValueError):
        brace(p, [p, p])


def test_brace_matches_pointwise_insertion():
    # the composed operator agrees with inserting values by hand:
    #   P{Q}(a,b)   = P(Q(a),b) + P(a,Q(b))        for arity-1 Q
    #   P{Q}(a,b,c) = P(Q(a,b),c) - P(a,Q(b,c))    for arity-2 Q
    rng = random.Random(123)
    pool = operator_args_pool(CTX2, 2)

    def pick(k):
        return [pool[rng.randrange(len(pool))] for _ in range(k)]

    for _ in range(10):
        p = rand_operator(rng, CTX2, 2, max_order=2)
        q1 = rand_operator(rng, CTX2, 1, max_order=2)
        pq1 = brace(p, [q1])
        for _ in range(3):
            a, b = pick(2)
            assert pq1.apply([a, b]) == p.apply([q1.apply([a]), b]) + p.apply(
                [a, q1.apply([b])]
            )
        q2 = rand_operator(rng, CTX2, 2, max_order=1)
        pq2 = brace(p, [q2])
        for _ in range(3):
            a, b, c = pick(3)
            assert pq2.apply([a, b, c]) == p.apply([q2.apply([a, b]), c]) - p.apply(
                [a, q2.apply([b, c])]
            )


def test_double_brace_measures_pre_lie_defect():
    # (P{Q}){R} - P{Q{R}} = P{Q,R} + (-1)^((q-1)(r-1)) P{R,Q}
    rng = random.Random(55)
    for _ in range(15):
        p = rand_operator(rng, CTX2, rng.randint(2, 3), max_order=1)
        q = rand_operator(rng, CTX2, rng.randint(1, 2), max_order=1)
        r = rand_operator(rng, CTX2, rng.randint(1, 2), max_order=1)
        lhs = brace(brace(p, [q]), [r]) - brace(p, [brace(q, [r])])
        rhs = brace(p, [q, r]) + brace(p, [r, q]).scale(
            (-1) ** ((q.arity - 1) * (r.arity - 1))
        )
        assert lhs == rhs


def test_brace_pre_lie_symmetry():
    rng = random.Random(13)
    for _ in range(15):
        p = rand_operator(rng, CTX2, rng.randint(1, 3), max_order=1)
        q = rand_operator(rng, CTX2, rng.randint(1, 2), max_order=1)
        r = rand_operator(rng, CTX2, rng.randint(1, 2), max_order=1)
        lhs = brace(brace(p, [q]), [r]) - brace(p, [brace(q, [r])])
        rhs = brace(brace(p, [r]), [q]) - brace(p, [brace(r, [q])])
        sign = (-1) ** ((q.arity - 1) * (r.arity - 1))
        assert lhs == rhs.scale(sign)


def test_splits_into_zero_parts():
    # only alpha = 0 splits into no pieces, once
    assert _splits((0, 0), 0) == (((), 1),)
    assert _splits((0, 1), 0) == ()
    assert _splits((3,), 0) == ()
    assert _splits((2, 1), 1) == ((((2, 1),), 1),)


def test_splits_enumerate_every_composition_once_in_order():
    """Against the product of per-part ranges, filtered by sum; the
    compositions come in lexicographic order, and many parts recurse
    nowhere (2,000 parts overflowed the stack)."""
    for alpha, parts in [((3,), 3), ((2, 1), 2), ((0, 2), 4), ((4,), 1)]:
        want = []
        box = list(itertools.product(*[range(a + 1) for a in alpha]))
        for pieces in itertools.product(box, repeat=parts):
            if tuple(map(sum, zip(*pieces))) == alpha:
                multi = math.prod(
                    math.factorial(a) // math.prod(math.factorial(p[d]) for p in pieces)
                    for d, a in enumerate(alpha)
                )
                want.append((pieces, multi))
        got = _splits(alpha, parts)
        assert sorted(got) == sorted(want)
        assert [pieces for pieces, _ in got] == sorted(pieces for pieces, _ in got)
    assert _splits((0,), 2000) == ((((0,),) * 2000, 1),)


def test_brace_with_constants():
    # an arity-0 Q takes the whole of alpha on its value
    x = Polynomial.variable(CTX1, 1)
    p = PolyDiffOperator(CTX1, 1, {((2,),): Polynomial.one(CTX1)})
    assert brace(p, [PolyDiffOperator.constant(x ** 3)]) == PolyDiffOperator.constant(6 * x)
    assert brace(p, [PolyDiffOperator.constant(x)]).is_zero()
    two = rand_operator(random.Random(41), CTX2, 2)
    a, b = (PolyDiffOperator.constant(parse_polynomial(s, CTX2)) for s in ("x^2*y", "y^3 - x"))
    both = brace(two, [a, b])
    assert both == PolyDiffOperator.constant(two.apply([a.terms[()], b.terms[()]]))
    assert not both.is_zero()


DENOMINATORS = (1, 1, 2, 3, 7, 1024, 2 ** 61 - 1)


def draw_operator(rng, ctx, arity, max_order):
    """Up to three terms; coefficients of degree 0..2, some constant, with
    denominators up to a 61-bit prime, under orders up to max_order."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        alphas = tuple(
            tuple(rng.randint(0, max_order) for _ in range(ctx.n)) for _ in range(arity)
        )
        terms[alphas] = rand_poly(
            rng, ctx, rng.randint(0, 2), rng.randint(1, 3), zero_ok=False,
            coeff=lambda r: Fraction(r.choice((-9, -2, -1, 1, 3, 8)), r.choice(DENOMINATORS)),
        )
    return PolyDiffOperator(ctx, arity, terms)


def assert_same_operator(got, want):
    assert got == want
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_brace_matches_oracle_random_draw():
    rng = random.Random(2024)
    seen = {"arity0_q": 0, "l3": 0, "past_degree": 0, "nonzero": 0}
    for _ in range(240):
        ctx = (CTX1, CTX2, CTX3)[rng.randint(0, 2)]
        l = rng.randint(0, 3)
        p_arity = rng.randint(l, 3)
        # l insertions multiply the term count; keep every case small
        max_order = 3 if ctx.n * l <= 3 else 1
        p = draw_operator(rng, ctx, p_arity, max_order)
        qs = [draw_operator(rng, ctx, rng.randint(0, 2), max_order) for _ in range(l)]
        got = brace(p, qs)
        assert_same_operator(got, brace_oracle(p, qs))
        seen["arity0_q"] += any(q.arity == 0 for q in qs)
        seen["l3"] += l == 3
        seen["past_degree"] += any(
            a > c.degree_in(d) for q in qs for c in q.terms.values()
            for alphas in p.terms for alpha in alphas for d, a in enumerate(alpha, 1)
        )
        seen["nonzero"] += not got.is_zero()
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("shape", [(2, 2, 1, 2, 2), (2, 3, 3, 1, 1), (3, 3, 2, 2, 1)])
def test_nested_brace_matches_oracle(shape):
    # the hochschild_ops shapes: (n, arity of P, Q, R, derivative order)
    n, pa, qa, ra, order = shape
    rng = random.Random(sum(shape))
    ctx = (CTX1, CTX2, CTX3)[n - 1]
    for _ in range(3):
        p, q, r = (draw_operator(rng, ctx, a, order) for a in (pa, qa, ra))
        assert_same_operator(brace(brace(p, [q]), [r]), brace_oracle(brace_oracle(p, [q]), [r]))
        assert_same_operator(brace(q, [p]), brace_oracle(q, [p]))


def test_brace_cost_follows_output_size():
    # P = d^(k,k), Q = x^2 * (a, b) -> a*b: only gamma0 in {0, 1, 2} x {0}
    # differentiates x^2, so P{Q} has sum_g (k - g + 1)(k + 1) terms.  Every
    # split of alpha into three pieces, about k^4 / 4 of them, took minutes.
    k = 100
    x, y = Polynomial.variable(CTX2, 1), Polynomial.variable(CTX2, 2)
    p = PolyDiffOperator(CTX2, 1, {((k, k),): Polynomial.one(CTX2)})
    q = PolyDiffOperator(CTX2, 2, {((0, 0), (0, 0)): x ** 2})
    start = time.perf_counter()
    pq = brace(p, [q])
    assert time.perf_counter() - start < 10
    assert len(pq.terms) == 30_300
    for a, b in (
        (x ** 50 * y ** 60, x ** 49 * y ** 41),
        (x ** 70 * y ** 30 - Fraction(3, 2) * x ** 40, x ** 30 * y ** 72 + y ** 101),
        (x ** 99 + y ** 99, x * y + x ** 10 * y ** 5),
    ):
        assert pq.apply([a, b]) == (x ** 2 * a * b).derive((k, k))
    assert not pq.apply([x ** 50 * y ** 60, x ** 49 * y ** 41]).is_zero()


def test_brace_of_a_zero_cochain_returns_at_once():
    """A zero P or Q_t has nothing to insert: brace returns the zero of the
    output arity before visiting the C(300, 3) slot combinations (6.6 s)."""
    q = PolyDiffOperator(CTX1, 1, {((1,),): Polynomial.one(CTX1)})
    p = PolyDiffOperator(CTX1, 300, {((1,),) * 300: Polynomial.one(CTX1)})
    start = time.perf_counter()
    zero_p = brace(PolyDiffOperator(CTX1, 300), [q, q, q])
    zero_q = brace(p, [q, PolyDiffOperator(CTX1, 2), q])
    assert time.perf_counter() - start < 0.1
    assert (zero_p, zero_q) == (PolyDiffOperator(CTX1, 300), PolyDiffOperator(CTX1, 301))


def _random_cochain(rng, ctx, arity, monomial):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        alphas = tuple(tuple(rng.randint(0, 3) for _ in range(ctx.n)) for _ in range(arity))
        exps = [tuple(rng.randint(0, 3) for _ in range(ctx.n))
                for _ in range(1 if monomial else rng.randint(1, 3))]
        terms[alphas] = Polynomial(ctx, {e: rng.randint(1, 5) for e in exps})
    return PolyDiffOperator(ctx, arity, terms)


class _WorkCounts:
    """Counts, where brace and cup do it, the work they charge: the terms
    read by derivatives (d^0 reads none), the terms of table entries, split
    entries materialized and monomial products (brace's in the product
    kernel, cup's in Polynomial.__mul__), and brace's Polynomial products."""

    def __init__(self, monkeypatch):
        self.derivatives = self.entries = self.materialized = self.products = 0
        self.polynomial_products = 0
        kernel_of, derive, mul = hochschild.product_kernel, Polynomial.derive, Polynomial.__mul__
        numerators, splits = hochschild.numerators, hochschild._splits

        def counting_kernel(n):
            kernel = kernel_of(n)

            def counted(acc, a, b, s):
                self.products += len(a) * len(b)
                kernel(acc, a, b, s)

            return counted

        def counting_derive(c, alpha):
            self.derivatives += len(c.nums) if any(alpha) else 0
            return derive(c, alpha)

        def counting_mul(a, b):
            if isinstance(b, Polynomial):  # the table's integer scalings are not products
                self.polynomial_products += 1
                self.products += len(a.nums) * len(b.nums)
            return mul(a, b)

        def counting_numerators(items, den=0):
            if den:  # a table's entries, not P's terms
                self.entries += sum(len(c.nums) for _, c in items)
            return numerators(items, den)

        def counting_splits(alpha, parts):
            out = splits(alpha, parts)
            self.materialized += len(out)
            return out

        monkeypatch.setattr(hochschild, "product_kernel", counting_kernel)
        monkeypatch.setattr(Polynomial, "derive", counting_derive)
        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        monkeypatch.setattr(hochschild, "numerators", counting_numerators)
        monkeypatch.setattr(hochschild, "_splits", counting_splits)


def test_brace_charges_exactly_the_work_it_does(monkeypatch):
    """Under an open budget, brace charges C(arity, l) slot combinations
    with 1 + |P| visits each, the terms of each derivative and entry of its
    insertion tables, and the monomial products of each insertion: on every
    draw, monomial or not, zero or inserting an arity-0 Q past its degree,
    the charge less the visits, derivatives and entries equals the kernel's
    sum of len(a) * len(b).  brace multiplies no two Polynomials, and a
    brace with nothing to insert charges nothing."""
    work = _WorkCounts(monkeypatch)
    rng = random.Random(77)
    kinds = {True: 0, False: 0, "zero": 0, "arity 0 past the degree": 0}
    for _ in range(400):
        ctx = RingContext(("x", "y", "z")[: rng.randint(1, 3)])
        monomial = rng.random() < 0.5
        p = _random_cochain(rng, ctx, rng.randint(1, 3), monomial)
        qs = [_random_cochain(rng, ctx, rng.randint(0, 2), monomial)
              for _ in range(rng.randint(1, p.arity))]
        zero = not p.terms or not all(q.terms for q in qs)
        visits = 0 if zero else math.comb(p.arity, len(qs)) * (1 + len(p.terms))
        work.derivatives = work.entries = work.products = 0
        with budget(math.inf, "brace") as spent:
            brace(p, qs)
        assert spent[0] - visits - work.derivatives - work.entries == work.products
        kinds[monomial] += 1
        kinds["zero"] += zero
        kinds["arity 0 past the degree"] += not zero and any(
            not q.arity and any(a > c.degree_in(d) for alphas in p.terms
                                for alpha in alphas for d, a in enumerate(alpha, 1)
                                for c in q.terms.values())
            for q in qs)
    assert work.polynomial_products == 0
    assert min(kinds[True], kinds[False]) >= 100, kinds
    assert min(kinds["zero"], kinds["arity 0 past the degree"]) >= 50, kinds
    p = PolyDiffOperator(CTX1, 1, {((0,),): Polynomial.one(CTX1)})
    with budget(math.inf, "brace") as spent:
        brace(p, [])
    assert spent == [0]


def test_budget_stops_the_work_within_one_charge_of_its_limit(monkeypatch):
    """With a budget open at a limit below what brace, the bracket, the
    differential or cup charge in all, the first charge past the limit
    raises BudgetExceeded, naming the count so far, and the work done before
    it (terms read by derivatives, split entries materialized and monomial
    products, counted where they are done) is at most the limit: each piece
    is charged before it is done, so only the charge that raises goes unpaid."""
    rng = random.Random(12)
    operations = [lambda p, q: brace(p, [q]), gerstenhaber_bracket,
                  lambda p, q: hochschild_differential(p), cup]
    charger = hochschild.charger
    raised = 0
    for _ in range(300):
        ctx = RingContext(("x", "y", "z")[: rng.randint(1, 3)])
        monomial = rng.random() < 0.5
        p = _random_cochain(rng, ctx, rng.randint(1, 3), monomial)
        q = _random_cochain(rng, ctx, rng.randint(0, 2), monomial)
        operation = rng.choice(operations)
        with budget(math.inf, "all") as total:
            expected = operation(p, q)
        if not total[0]:
            continue
        limit = rng.randrange(total[0])
        charges = []

        def recording():
            charge = charger()

            def recorded(steps):
                charges.append(steps)
                charge(steps)

            return recorded

        with monkeypatch.context() as patch:
            work = _WorkCounts(patch)
            patch.setattr(hochschild, "charger", recording)
            with pytest.raises(BudgetExceeded) as info, budget(limit, "op") as spent:
                operation(p, q)
        assert work.derivatives + work.materialized + work.products <= limit
        assert spent[0] == sum(charges) and spent[0] - charges[-1] <= limit < spent[0]
        assert str(info.value) == f"op may take {spent[0]} or more steps, over the budget of {limit}"
        with budget(total[0], "op"):
            assert operation(p, q) == expected
        raised += 1
    assert raised >= 150, raised


# -- Gerstenhaber bracket -----------------------------------------------------------


def test_bracket_of_vector_fields_is_commutator():
    x = Polynomial.variable(CTX1, 1)
    d = d_dx(CTX1)
    e = PolyDiffOperator(CTX1, 1, {((1,),): x})  # x d/dx
    assert gerstenhaber_bracket(d, e) == d


def test_bracket_self_odd_arity():
    rng = random.Random(17)
    for arity in (1, 3):
        p = rand_operator(rng, CTX2, arity)
        assert gerstenhaber_bracket(p, p).is_zero()


def test_bracket_mu_mu_vanishes_by_associativity():
    assert gerstenhaber_bracket(
        multiplication_cochain(CTX2), multiplication_cochain(CTX2)
    ).is_zero()


# -- differential --------------------------------------------------------------------


def test_d_mu_zero():
    assert hochschild_differential(multiplication_cochain(CTX2)).is_zero()


def test_d_kills_derivations():
    rng = random.Random(19)
    for _ in range(10):
        # vector field with polynomial coefficients: a derivation
        terms = {}
        for i in range(CTX2.n):
            alpha = [0] * CTX2.n
            alpha[i] = 1
            terms[(tuple(alpha),)] = rand_poly(rng, CTX2, 2)
        vf = PolyDiffOperator(CTX2, 1, terms)
        assert hochschild_differential(vf).is_zero()


def test_d_nonzero_for_non_derivation():
    # second-derivative cochain: d(P)(a,b) = -2 a' b' up to the convention sign
    p = PolyDiffOperator(CTX1, 1, {((2,),): Polynomial.one(CTX1)})
    dp = hochschild_differential(p)
    assert not dp.is_zero()
    x = Polynomial.variable(CTX1, 1)
    a, b = x ** 2, x ** 3
    # arity 1: [mu, P] equals the classical formula on the nose
    assert dp.apply([a, b]) == a * p.apply([b]) - p.apply([a * b]) + p.apply([a]) * b
    assert dp.apply([a, b]) == -2 * a.partial(1) * b.partial(1)


def test_alternating_sum_formula_on_quadratic_map():
    # the classical formula evaluated on the (non-multilinear) map a -> a^2
    x = Polynomial.variable(CTX1, 1)
    a, b = x, x ** 2

    def square(v):
        return v * v

    value = alternating_sum_d(square, 1, [a, b])
    assert value == a * square(b) - square(a * b) + square(a) * b


def test_d_squared_zero_random():
    rng = random.Random(23)
    for _ in range(20):
        p = rand_operator(rng, CTX3, rng.randint(0, 3), max_order=2)
        assert hochschild_differential(hochschild_differential(p)).is_zero()


def test_d_agrees_with_alternating_sum_up_to_convention_sign():
    rng = random.Random(29)
    for _ in range(15):
        arity = rng.randint(1, 3)
        p = rand_operator(rng, CTX2, arity, max_order=1)
        dp = hochschild_differential(p)
        sign = (-1) ** (arity - 1)
        pool = operator_args_pool(CTX2, 1)
        for _ in range(5):
            args = [pool[rng.randrange(len(pool))] for _ in range(arity + 1)]
            oracle = alternating_sum_d(lambda *a: p.apply(list(a)), arity, args)
            assert dp.apply(args) == oracle * sign


def test_homotopy_commutativity_identity():
    rng = random.Random(31)
    for _ in range(20):
        p_ar = rng.randint(1, 3)
        q_ar = rng.randint(1, 3)
        p = rand_operator(rng, CTX2, p_ar, max_order=1)
        q = rand_operator(rng, CTX2, q_ar, max_order=1)
        d = hochschild_differential
        lhs = (cup(p, q) - cup(q, p).scale((-1) ** (p_ar * q_ar))).scale(
            (-1) ** (p_ar * q_ar + p_ar + 1)
        )
        rhs = (
            d(brace(p, [q]))
            - brace(d(p), [q])
            + brace(p, [d(q)]).scale((-1) ** p_ar)
        )
        assert lhs == rhs


# -- operator equality oracle -----------------------------------------------------


def test_term_maps_add_and_compare_only_within_one_module():
    """Polyvectors and cochains share one linear structure: a sum or an
    equality across the two classes is refused or false, cochains add only
    at one arity, and both add only in one ring."""
    x, y = parse_gelement("x*D(1)", CTX2), parse_gelement("E", CTX2)
    d = d_dx(CTX2)
    for a, b in [(x, d), (d, x)]:
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        assert a != b and not a == b
    assert GElement.zero(CTX2) != PolyDiffOperator.zero(CTX2, 0)
    with pytest.raises(ValueError, match="arity"):
        d + multiplication_cochain(CTX2)
    with pytest.raises(ValueError, match="arity"):
        d - PolyDiffOperator.zero(CTX2, 2)
    assert d + PolyDiffOperator.zero(CTX2, 1) == d != PolyDiffOperator.zero(CTX2, 1)
    assert PolyDiffOperator.zero(CTX2, 1) != PolyDiffOperator.zero(CTX2, 2)
    with pytest.raises(ContextMismatch):
        x + parse_gelement("x*D(1)", CTX3)
    with pytest.raises(ContextMismatch):
        d + d_dx(CTX3)
    assert x != parse_gelement("x*D(1)", CTX3) and d != d_dx(CTX3)
    for a in (x, x + y, d, d + d_dx(CTX2, 2)):
        assert a - a == a.scale(0) and (-a).terms == {k: -c for k, c in a.terms.items()}
        assert (-a).scale(-2) == a + a and a.scale(Fraction(1, 2)).scale(2) == a
        assert not a.is_zero() and (a - a).is_zero()


def test_canonical_equality_matches_apply_equality():
    rng = random.Random(37)
    for _ in range(10):
        p = rand_operator(rng, CTX2, 2, max_order=1)
        q = rand_operator(rng, CTX2, 2, max_order=1)
        assert operators_agree_on_monomials(p, p)
        agree = operators_agree_on_monomials(p, q)
        assert agree == (p == q)


# -- HKR ---------------------------------------------------------------------------


def test_hkr_vector_field_is_identity_embedding():
    d1 = parse_gelement("D(1)", CTX3)
    assert hkr(d1) == d_dx(CTX3, 1)
    xd2 = parse_gelement("x*D(2)", CTX3)
    got = hkr(xd2)
    x = Polynomial.variable(CTX3, 1)
    y = Polynomial.variable(CTX3, 2)
    assert got.apply([y ** 2]) == x * 2 * y


def test_hkr_two_vector_antisymmetrization():
    rng = random.Random(41)
    op = hkr(parse_gelement("D(1,2)", CTX3))
    for _ in range(10):
        a = rand_poly(rng, CTX3, 3)
        b = rand_poly(rng, CTX3, 3)
        expected = (a.partial(1) * b.partial(2) - a.partial(2) * b.partial(1)) / 2
        assert op.apply([a, b]) == expected


def test_hkr_rejects_eps():
    with pytest.raises(ValueError):
        hkr(parse_gelement("E", CTX3))


def test_hkr_output_budget_counts_k_factorial_per_term():
    # on 8 variables, 13 six-vectors make 13 * 6! = 9360 terms, within the
    # budget of 10,000, and 14 make 10,080, past it; so does the top
    # polyvector (8! = 40,320), which is refused before any permutation
    # is expanded
    ctx = RingContext(tuple(f"x{i}" for i in range(1, 9)))
    one = Polynomial.one(ctx)
    masks = [mask_of(c) for c in itertools.combinations(range(1, 9), 6)]

    def six_vectors(count):
        return GElement(ctx, {(0, m): one for m in masks[:count]})

    assert 13 * 720 <= HKR_TERM_BUDGET < 14 * 720
    assert len(hkr(six_vectors(13)).terms) == 13 * 720
    with pytest.raises(BudgetExceeded, match=r"hkr.* 10080 terms"):
        hkr(six_vectors(14))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"hkr.* 40320 terms"):
        hkr(GElement.wedge_monomial(ctx, range(1, 9)))
    assert time.perf_counter() - start < 1.0


def test_hkr_scales_each_coefficient_once_per_term(monkeypatch):
    """coeff / k! and its negation are formed once per term of X, not once
    per permutation: 720 products on D(1,...,6) at the parent."""
    ctx = RingContext(tuple(f"x{i}" for i in range(1, 7)))
    coeff = Polynomial.variable(ctx, 1) + 1
    unit = hkr(GElement.wedge_monomial(ctx, range(1, 7)))
    calls = []
    mul = Polynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    out = hkr(GElement.wedge_monomial(ctx, range(1, 7), coeff))
    assert len(calls) == 1
    monkeypatch.undo()
    assert len(unit.terms) == 720
    assert out.terms == {k: c * coeff for k, c in unit.terms.items()}


def test_hkr_images_are_cocycles():
    rng = random.Random(43)
    for _ in range(50):
        k = rng.randint(0, 3)
        x = rand_homogeneous(rng, CTX3, k)  # eps-free since degree <= n and eps weight 2
        if not x.is_polyvector():
            x = GElement(
                CTX3, {(e, m): c for (e, m), c in x.terms.items() if e == 0}
            )
        if not x.wedge_degrees() <= {k}:
            continue
        assert hochschild_differential(hkr(x)).is_zero()


def _same_cochain(p, q):
    # hkr of the zero polyvector cannot know its intended arity; zero is zero
    if p.is_zero() and q.is_zero():
        return True
    return p == q


def test_hkr_strict_lie_map_degree_le_one():
    rng = random.Random(47)
    for _ in range(25):
        x = rand_homogeneous(rng, CTX3, 1)
        y = rand_homogeneous(rng, CTX3, 1)
        a = GElement.from_polynomial(rand_poly(rng, CTX3, 2))
        # vector fields
        assert _same_cochain(
            gerstenhaber_bracket(hkr(x), hkr(y)), hkr(schouten_bracket(x, y))
        )
        # function against vector field, both orders
        assert _same_cochain(
            gerstenhaber_bracket(hkr(a), hkr(x)), hkr(schouten_bracket(a, x))
        )
        assert _same_cochain(
            gerstenhaber_bracket(hkr(x), hkr(a)), hkr(schouten_bracket(x, a))
        )
        # two functions
        b = GElement.from_polynomial(rand_poly(rng, CTX3, 2))
        assert gerstenhaber_bracket(hkr(a), hkr(b)).is_zero()


# -- the two brackets against each other: sigma, the antisymmetrized first-order part


def _wedge_homogeneous(rng, ctx, k):
    """A polyvector of wedge degree k with one or two drawn terms."""
    masks = [m for m in range(1 << ctx.n) if m.bit_count() == k]
    return GElement(ctx, {(0, rng.choice(masks)): rand_poly(rng, ctx, 2, 2, zero_ok=False)
                          for _ in range(rng.randint(1, 2))})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_inverts_hkr(n):
    ctx = RingContext(("x", "y", "z", "w")[:n])
    rng = random.Random(100 + n)
    for k in range(n + 1):
        for _ in range(4):
            x = _wedge_homogeneous(rng, ctx, k)
            assert sigma(hkr(x)) == hkr(x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_kills_coboundaries(n):
    ctx = RingContext(("x", "y", "z", "w")[:n])
    rng = random.Random(110 + n)
    nonzero = 0
    for _ in range(20):
        d = hochschild_differential(rand_operator(rng, ctx, rng.randint(0, 2), 1, 3))
        nonzero += not d.is_zero()
        assert sigma(d).is_zero()
    assert nonzero >= 10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_of_gerstenhaber_bracket_of_hkr_images_is_schouten_bracket(n):
    """sigma([hkr X, hkr Y]_G) = eps * hkr([X, Y]_S) in every pair of wedge
    degrees whose bracket fits in n: hkr's failure to be a Lie map is a
    coboundary, which sigma kills.  eps = -1 exactly when both degrees are
    even."""
    ctx = RingContext(("x", "y", "z", "w")[:n])
    rng = random.Random(120 + n)
    nonzero = 0
    for a in range(n + 1):
        for b in range(n + 2 - a):
            if a + b == 0 or b > n:
                continue
            eps = -1 if a % 2 == 0 and b % 2 == 0 else 1
            for _ in range(2):
                x, y = _wedge_homogeneous(rng, ctx, a), _wedge_homogeneous(rng, ctx, b)
                got = sigma(gerstenhaber_bracket(hkr(x), hkr(y)))
                want = schouten_bracket(x, y).scale(eps)
                nonzero += not want.is_zero()
                assert got.is_zero() if want.is_zero() else got == hkr(want)
    assert nonzero >= 6 * n
