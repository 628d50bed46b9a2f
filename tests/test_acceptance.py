"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible under
``pytest -s``).  Every tolerance is exact (rational arithmetic); the only
numeric limits are the stated wall-clock budgets.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ncunfold.groebner import ideal_membership
from ncunfold.hochschild import (
    brace,
    cup,
    gerstenhaber_bracket,
    hkr,
    hochschild_differential,
)
from ncunfold.parsing import parse_gelement, parse_polynomial
from ncunfold.poly import HSeries, Polynomial, RingContext
from ncunfold.polyvector import (
    GElement,
    ad_f,
    bivector_square,
    g_differential,
    mc_residual,
    schouten_bracket,
)
from ncunfold.singularity import (
    ADE_CONTEXT,
    ade_catalog,
    is_monic_in_last,
    milnor_number,
    monicize,
    qc_subspace,
)
from ncunfold.unfolding import EXACT, koszul_lift, mc_verify, qc_normalize, quantize_n3

from oracles import (
    alternating_sum_d,
    milnor_oracle,
    operator_args_pool,
    rand_homogeneous,
    rand_poly,
    rand_trivector3,
)
from test_hochschild import rand_operator

CTX3 = ADE_CONTEXT


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {label}")
        raise
    print(f"ACCEPTANCE PASS {label}")


def rand_w_poly(rng, f):
    acc = Polynomial.zero(f.ctx)
    for exps in qc_subspace(f):
        acc = acc + Polynomial.monomial(f.ctx, exps, Fraction(rng.randint(-3, 3)))
    return acc


def test_criterion_1_ade_milnor_numbers():
    with criterion("criterion 1: ADE Milnor numbers match the enumeration oracle"):
        expected = {"A1": 1, "A2": 2, "A3": 3, "A4": 4, "A5": 5, "A6": 6,
                    "D4": 4, "E6": 6, "E7": 7, "E8": 8}
        start = time.monotonic()
        for name, f in ade_catalog():
            oracle_value = milnor_oracle(f)
            assert oracle_value == expected[name], (name, oracle_value)
            assert milnor_number(f) == expected[name], name
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_exact_bivectors_are_poisson_n3():
    with criterion("criterion 2: [ad_f(T), ad_f(T)] = 0 for all random trivectors"):
        rng = random.Random(92)
        for _, f in ade_catalog():
            for _ in range(100):
                t = rand_trivector3(rng, CTX3, max_degree=2)
                s = ad_f(f, t)
                assert bivector_square(s).is_zero()


def test_criterion_3_exact_quantization_n3():
    with criterion("criterion 3: quantize_n3 solves every random valid datum exactly"):
        rng = random.Random(93)
        for _, f in ade_catalog():
            for _ in range(25):
                t = rand_trivector3(rng, CTX3, max_degree=2)
                s1 = ad_f(f, t)
                p1 = rand_w_poly(rng, f)
                start = time.monotonic()
                sol = quantize_n3(f, p1, s1)
                elapsed = time.monotonic() - start
                assert elapsed < 10.0, f"instance took {elapsed:.2f}s"
                assert sol.order == EXACT
                assert sol.h_degree() <= 2
                report = mc_verify(f, sol)
                assert report.ok
                assert all(o.residual.is_zero() for o in report.orders)


def test_criterion_4_constructive_koszul_exactness():
    with criterion("criterion 4: koszul_lift inverts ad_f on random trivectors"):
        rng = random.Random(94)
        for _, f in ade_catalog():
            for _ in range(100):
                t = rand_trivector3(rng, CTX3, max_degree=2)
                z = ad_f(f, t)
                lifted = koszul_lift(f, z)
                assert ad_f(f, lifted) == z


def test_criterion_5_bracket_axiom_suite():
    with criterion("criterion 5: bracket axioms and d^2 = 0 on random elements"):
        rng = random.Random(95)
        contexts = [
            RingContext(tuple(f"x{i}" for i in range(1, n + 1))) for n in (2, 3, 4)
        ]
        for trial in range(200):
            ctx = contexts[trial % len(contexts)]
            max_deg = 2 * ctx.n  # eps-power <= 1 within reachable degrees
            da = rng.randint(0, min(4, max_deg))
            db = rng.randint(0, min(4, max_deg))
            dc = rng.randint(0, min(4, max_deg))
            a = rand_homogeneous(rng, ctx, da, max_degree=2)
            b = rand_homogeneous(rng, ctx, db, max_degree=2)
            c = rand_homogeneous(rng, ctx, dc, max_degree=2)
            # graded antisymmetry
            lhs = schouten_bracket(a, b)
            rhs = schouten_bracket(b, a)
            assert lhs == (rhs if ((da - 1) * (db - 1)) & 1 else -rhs)
            # graded Jacobi
            jac_lhs = schouten_bracket(a, schouten_bracket(b, c))
            jac_rhs = schouten_bracket(schouten_bracket(a, b), c)
            tail = schouten_bracket(b, schouten_bracket(a, c))
            if ((da - 1) * (db - 1)) & 1:
                tail = -tail
            assert jac_lhs == jac_rhs + tail
            # graded Leibniz
            leib_lhs = schouten_bracket(a, b * c)
            leib_tail = b * schouten_bracket(a, c)
            if ((da - 1) * db) & 1:
                leib_tail = -leib_tail
            assert leib_lhs == schouten_bracket(a, b) * c + leib_tail
            # both differentials square to zero
            f = rand_poly(rng, ctx, 2)
            assert ad_f(f, ad_f(f, a)).is_zero()
            assert g_differential(f, g_differential(f, a)).is_zero()


def test_criterion_6_mc_equation_consistency():
    with criterion("criterion 6: residual vanishes iff both bracket conditions hold"):
        rng = random.Random(96)
        order = 8
        ctx4 = RingContext(("x", "y", "z", "w"))

        def residual_iff(f, p, s):
            ctx = f.ctx
            eps = GElement.eps(ctx)
            zero = GElement.zero(ctx)
            coeffs = [zero, GElement.from_polynomial(p) * eps + s] + [zero] * (
                order - 1
            )
            w = HSeries(coeffs, order)
            res = mc_residual(f, w)
            fp = HSeries(
                [GElement.from_polynomial(f), GElement.from_polynomial(-p)]
                + [zero] * (order - 1),
                order,
            )
            ss = HSeries([zero, s] + [zero] * (order - 1), order)
            bracket_zero = all(
                c.is_zero() for c in fp.convolve(ss, schouten_bracket).coeffs
            )
            square_zero = all(
                c.is_zero() for c in ss.convolve(ss, schouten_bracket).coeffs
            )
            res_zero = all(c.is_zero() for c in res.coeffs)
            assert res_zero == (bracket_zero and square_zero)
            return res_zero

        # 50 random instances (generically violating)
        for trial in range(50):
            ctx = CTX3 if trial % 2 else ctx4
            f = rand_poly(rng, ctx, 3, zero_ok=False)
            p = rand_poly(rng, ctx, 2)
            s = GElement.zero(ctx)
            for combo in itertools.combinations(range(1, ctx.n + 1), 2):
                if rng.random() < 0.6:
                    mask = (1 << (combo[0] - 1)) | (1 << (combo[1] - 1))
                    s = s + GElement(ctx, {(0, mask): rand_poly(rng, ctx, 2)})
            residual_iff(f, p, s)
        # constructed satisfying instances: S exact, p constant
        for _, f in ade_catalog()[:5]:
            t = rand_trivector3(rng, CTX3)
            s = ad_f(f, t)
            assert residual_iff(f, Polynomial.constant(CTX3, 3), s)
        # constructed violating instances, each direction separately
        f = ade_catalog()[0][1]
        s_bad = GElement(CTX3, {(0, 0b011): Polynomial.variable(CTX3, 1)})
        assert not residual_iff(f, Polynomial.zero(CTX3), s_bad)  # [f-p,S] != 0
        f4 = parse_polynomial("x^2+y^2+z^2+w^2", ctx4)
        rot = lambda t: parse_gelement(t, ctx4)
        s_nonpoisson = rot("x*D(2) - y*D(1)") * rot("x*D(3) - z*D(1)") + rot(
            "x*D(4) - w*D(1)"
        ) * rot("y*D(4) - w*D(2)")
        assert ad_f(f4, s_nonpoisson).is_zero()
        assert not residual_iff(f4, f4, s_nonpoisson)  # [S,S] != 0, f - p = 0


def test_criterion_7_qc_classification_mechanics():
    with criterion("criterion 7: W-normalization is idempotent and ideal-invariant"):
        rng = random.Random(97)
        for _, f in ade_catalog():
            partials = [f.partial(i) for i in (1, 2, 3)]
            for _ in range(10):
                p = rand_poly(rng, CTX3, 3)
                w = qc_normalize(f, p)
                # idempotence
                again = qc_normalize(f, w)
                assert again == w
                assert all(c.is_zero() for c in ideal_membership(w - again, partials))
                # invariance under adding Jacobian-ideal elements
                j = sum(
                    (rand_poly(rng, CTX3, 2) * q for q in partials),
                    Polynomial.zero(CTX3),
                )
                assert qc_normalize(f, p + j) == w
                # the cofactor identity is rechecked inside ideal_membership
                cofs = ideal_membership(p - w, partials)
                assert w + sum((c * q for c, q in zip(cofs, partials)), Polynomial.zero(CTX3)) == p


def test_criterion_8_hochschild_suite():
    with criterion("criterion 8: Hochschild operations satisfy their identities"):
        start = time.monotonic()
        rng = random.Random(98)
        contexts = [RingContext(("x",)), RingContext(("x", "y")),
                    RingContext(("x", "y", "z"))]
        # d^2 = 0
        for _ in range(20):
            ctx = contexts[rng.randrange(3)]
            p = rand_operator(rng, ctx, rng.randint(0, 3), max_order=2)
            assert hochschild_differential(hochschild_differential(p)).is_zero()
        # d = [mu, -] vs the alternating-sum formula (convention sign (-1)^(p-1))
        for _ in range(10):
            ctx = contexts[1]
            arity = rng.randint(1, 3)
            p = rand_operator(rng, ctx, arity, max_order=1)
            dp = hochschild_differential(p)
            pool = operator_args_pool(ctx, 1)
            for _ in range(4):
                args = [pool[rng.randrange(len(pool))] for _ in range(arity + 1)]
                oracle = alternating_sum_d(lambda *a: p.apply(list(a)), arity, args)
                assert dp.apply(args) == oracle * ((-1) ** (arity - 1))
        # brace pre-Lie identity
        for _ in range(10):
            ctx = contexts[1]
            p = rand_operator(rng, ctx, rng.randint(1, 3), max_order=1)
            q = rand_operator(rng, ctx, rng.randint(1, 2), max_order=1)
            r = rand_operator(rng, ctx, rng.randint(1, 2), max_order=1)
            lhs = brace(brace(p, [q]), [r]) - brace(p, [brace(q, [r])])
            rhs = brace(brace(p, [r]), [q]) - brace(p, [brace(r, [q])])
            assert lhs == rhs.scale((-1) ** ((q.arity - 1) * (r.arity - 1)))
        # cup associativity
        for _ in range(10):
            ctx = contexts[rng.randrange(3)]
            ops = [rand_operator(rng, ctx, rng.randint(0, 2)) for _ in range(3)]
            assert cup(cup(ops[0], ops[1]), ops[2]) == cup(ops[0], cup(ops[1], ops[2]))
        # homotopy-commutativity identity (convention of the library)
        for _ in range(10):
            ctx = contexts[1]
            p = rand_operator(rng, ctx, rng.randint(1, 3), max_order=1)
            q = rand_operator(rng, ctx, rng.randint(1, 3), max_order=1)
            pa, qa = p.arity, q.arity
            d = hochschild_differential
            lhs = (cup(p, q) - cup(q, p).scale((-1) ** (pa * qa))).scale(
                (-1) ** (pa * qa + pa + 1)
            )
            rhs = d(brace(p, [q])) - brace(d(p), [q]) + brace(p, [d(q)]).scale(
                (-1) ** pa
            )
            assert lhs == rhs
        # strict Lie-map property of hkr in degree <= 1
        ctx = contexts[2]
        for _ in range(15):
            x = rand_homogeneous(rng, ctx, 1)
            y = rand_homogeneous(rng, ctx, 1)
            a = GElement.from_polynomial(rand_poly(rng, ctx, 2))
            got = gerstenhaber_bracket(hkr(x), hkr(y))
            want = hkr(schouten_bracket(x, y))
            assert got == want or (got.is_zero() and want.is_zero())
            got = gerstenhaber_bracket(hkr(a), hkr(x))
            want = hkr(schouten_bracket(a, x))
            assert got == want or (got.is_zero() and want.is_zero())
        # d(hkr(X)) = 0 for 50 random polyvectors
        count = 0
        while count < 50:
            k = rng.randint(0, 3)
            x = rand_homogeneous(rng, ctx, k)
            if not (x.is_polyvector() and x.wedge_degrees() <= {k}):
                continue
            count += 1
            assert hochschild_differential(hkr(x)).is_zero()
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"criterion 8 took {elapsed:.2f}s"


def test_criterion_9_monicize():
    with criterion("criterion 9: monicization has the right shape and preserves mu"):
        rng = random.Random(99)
        ctx2 = RingContext(("x", "y"))
        produced = 0
        while produced < 20:
            ctx = ctx2 if produced % 2 else CTX3
            f = rand_poly(rng, ctx, max_degree=3, n_terms=3)
            f = f - f.constant_term()
            if f.is_zero() or f.is_constant() or is_monic_in_last(f):
                continue
            produced += 1
            sigma, image = monicize(f)
            # substitution shape: x_i -> x_i + x_n^(N_i), x_n fixed
            n = ctx.n
            assert sigma.images[n - 1] == Polynomial.variable(ctx, n)
            for i in range(1, n):
                diff = sigma.images[i - 1] - Polynomial.variable(ctx, i)
                (exps,) = diff.terms
                assert sum(exps) == exps[n - 1] >= 1
            assert is_monic_in_last(image)
            assert milnor_number(image) == milnor_number(f)
