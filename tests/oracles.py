"""Independent oracles used by the test-suite.

Each oracle reaches its answer by a route different from the library code
it checks: the bracket oracle recurses on the *left* argument where the
library recurses on the right; the Milnor oracle is straight sparse linear
algebra with no Groebner machinery; the differential oracle evaluates the
classical alternating-sum formula pointwise instead of composing
operators; the Groebner oracle is the textbook Buchberger algorithm on
plain term dicts, every pair and no criteria, with the reduced basis
formed afterwards; the product oracle sums Fraction products term by term
where the library multiplies integer numerators over common denominators,
and the sum, scale and derivative oracles likewise work on Fraction
terms where the library works on integer numerators over one denominator;
the Maurer-Cartan report oracle convolves [f - p, S], [S, S] and the
ordered [w, w] as three series where the library reads both brackets off
one symmetric residual; the brace oracle splits each derivative multi-index
over an inserted term's coefficient and arguments afresh for every term of
P, over every split, where the library reuses one insertion table per
inserted operator and multi-index and enumerates only the coefficient's
degree box; the expression evaluator reads a grammar string into Fraction
dicts with its own tokenizer, powers by repeated products and wedge signs
by bubble sort, where the library parser evaluates into integer-numerator
polynomials with square-and-multiply and bitmask merge signs; the printing
references read the Fraction view ``terms`` where the library prints from
integer numerators; the decimal reader takes 500-digit blocks left to right
where the library splits on powers of ten.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

from ncunfold.hochschild import PolyDiffOperator
from ncunfold.poly import HSeries, Polynomial, accumulate, grevlex_key, lex_key
from ncunfold.polyvector import GElement, bits_of, g_differential, schouten_bracket
from ncunfold.unfolding import EXACT, MCReport, OrderResidual


# ---------------------------------------------------------------------------
# polynomial product

def naive_poly_mul(a: Polynomial, b: Polynomial) -> dict:
    """Terms of a*b as a plain Fraction double sum, zeros dropped at the end."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in acc.items() if c != 0}


def naive_poly_add(a: Polynomial, b: Polynomial, sign=1) -> dict:
    """Terms of a + sign * b, summed as Fractions term by term."""
    acc = dict(a.terms)
    for e, c in b.terms.items():
        acc[e] = acc.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in acc.items() if c != 0}


def naive_poly_scale(a: Polynomial, q) -> dict:
    """Terms of q * a, one Fraction product per term (negation is q = -1)."""
    return {e: c * q for e, c in a.terms.items() if c * q != 0}


def naive_derive(a: Polynomial, alpha) -> dict:
    """Terms of d^alpha a, lowering one exponent by one at a time with
    Fraction coefficients; a partial derivative is a unit alpha."""
    terms = dict(a.terms)
    for j, k in enumerate(alpha):
        for _ in range(k):
            lowered = {}
            for e, c in terms.items():
                if e[j]:
                    f = e[:j] + (e[j] - 1,) + e[j + 1:]
                    lowered[f] = lowered.get(f, Fraction(0)) + c * e[j]
            terms = {e: c for e, c in lowered.items() if c != 0}
    return terms


# ---------------------------------------------------------------------------
# random generators (plain `random.Random` instances are passed in)

def rand_poly(rng, ctx, max_degree=2, n_terms=3, zero_ok=True, coeff=None):
    """Random polynomial; `coeff(rng)` draws each coefficient (default:
    numerator in [-4, 4] over a denominator in [1, 3])."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ctx.n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ctx.n)] += 1
        if coeff is None:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            c = coeff(rng)
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    p = Polynomial(ctx, terms)
    if not zero_ok and p.is_zero():
        return Polynomial.one(ctx)
    return p


def rand_gelement(rng, ctx, max_eps=1, max_degree=2, n_terms=3):
    acc = GElement.zero(ctx)
    for _ in range(n_terms):
        e = rng.randint(0, max_eps)
        mask = rng.randrange(1 << ctx.n)
        coeff = rand_poly(rng, ctx, max_degree, 2)
        acc = acc + GElement(ctx, {(e, mask): coeff})
    return acc


def rand_homogeneous(rng, ctx, degree, max_degree=2):
    """Random homogeneous element of cohomological degree 2e + |I|."""
    options = []
    for e in range(degree // 2 + 1):
        k = degree - 2 * e
        if k > ctx.n:
            continue
        for combo in itertools.combinations(range(1, ctx.n + 1), k):
            options.append((e, combo))
    acc = GElement.zero(ctx)
    for _ in range(2):
        e, combo = options[rng.randrange(len(options))]
        mask = 0
        for i in combo:
            mask |= 1 << (i - 1)
        acc = acc + GElement(ctx, {(e, mask): rand_poly(rng, ctx, max_degree, 2)})
    return acc


def rand_bivector(rng, ctx, max_degree=2):
    acc = GElement.zero(ctx)
    for combo in itertools.combinations(range(1, ctx.n + 1), 2):
        if rng.random() < 0.7:
            mask = (1 << (combo[0] - 1)) | (1 << (combo[1] - 1))
            acc = acc + GElement(ctx, {(0, mask): rand_poly(rng, ctx, max_degree, 2)})
    return acc


def rand_trivector3(rng, ctx, max_degree=2):
    """Random trivector for n = 3: coefficient * d_1^d_2^d_3."""
    assert ctx.n == 3
    return GElement(ctx, {(0, 0b111): rand_poly(rng, ctx, max_degree, 3)})


# ---------------------------------------------------------------------------
# Schouten bracket via left-argument Leibniz decomposition

def _deg(f):
    kind = f[0]
    return 0 if kind == "c" else (2 * f[1] if kind == "eps" else 1)


def _degs(fs):
    return sum(_deg(f) for f in fs)


def _elem(ctx, f):
    kind = f[0]
    if kind == "c":
        return GElement.from_polynomial(f[1])
    if kind == "eps":
        return GElement.eps(ctx, f[1])
    return GElement.gen(ctx, f[1])


def _elems(ctx, fs):
    acc = GElement.from_polynomial(Polynomial.one(ctx))
    for f in fs:
        acc = acc * _elem(ctx, f)
    return acc


def _base(ctx, a, b):
    if a[0] == "eps" or b[0] == "eps":
        return GElement.zero(ctx)
    if a[0] == "odd" and b[0] == "odd":
        return GElement.zero(ctx)
    if a[0] == "odd" and b[0] == "c":
        return GElement.from_polynomial(b[1].partial(a[1]))
    if a[0] == "c" and b[0] == "odd":
        return GElement.from_polynomial(-(a[1].partial(b[1])))
    return GElement.zero(ctx)


def _bracket_left(ctx, fx, fz):
    if not fx or not fz:
        return GElement.zero(ctx)
    if len(fx) > 1:
        # [X ^ y, Z] = X ^ [y, Z] + (-1)^((|Z|-1)|y|) [X, Z] ^ y
        init, last = fx[:-1], fx[-1]
        dz = _degs(fz)
        first = _elems(ctx, init) * _bracket_left(ctx, [last], fz)
        second = _bracket_left(ctx, init, fz) * _elem(ctx, last)
        if ((dz - 1) * _deg(last)) & 1:
            second = -second
        return first + second
    if len(fz) > 1:
        dx, dz = _degs(fx), _degs(fz)
        flipped = _bracket_left(ctx, fz, fx)
        if ((dx - 1) * (dz - 1)) & 1:
            return flipped
        return -flipped
    return _base(ctx, fx[0], fz[0])


def _factors(coeff, e, mask):
    fs = []
    if not (len(coeff.terms) == 1 and coeff.constant_term() == 1):
        fs.append(("c", coeff))
    if e:
        fs.append(("eps", e))
    for i in bits_of(mask):
        fs.append(("odd", i))
    return fs


def schouten_oracle(x: GElement, y: GElement) -> GElement:
    ctx = x.ctx
    acc = GElement.zero(ctx)
    for (e1, m1), c1 in x.terms.items():
        for (e2, m2), c2 in y.terms.items():
            acc = acc + _bracket_left(ctx, _factors(c1, e1, m1), _factors(c2, e2, m2))
    return acc


# ---------------------------------------------------------------------------
# closed-form Koszul contraction for ad_f on a wedge monomial

def koszul_contraction_oracle(f: Polynomial, x: GElement) -> GElement:
    """[f, c * eps^e * d_I] = c * eps^e * sum_t (-1)^t (d_{i_t} f) d_{I - i_t}."""
    ctx = f.ctx
    acc = GElement.zero(ctx)
    for (e, mask), coeff in x.terms.items():
        indices = bits_of(mask)
        for t, i in enumerate(indices, start=1):
            sub = mask & ~(1 << (i - 1))
            piece = coeff * f.partial(i)
            if t & 1:
                piece = -piece
            acc = acc + GElement(ctx, {(e, sub): piece})
    return acc


# ---------------------------------------------------------------------------
# 1-vector bracket as a commutator of derivations

def commutator_oracle(x: GElement, y: GElement) -> GElement:
    """[X, Y]_i = X(Y_i) - Y(X_i) for vector fields X, Y."""
    ctx = x.ctx
    xs = {i: c for (i,), c in x.wedge_components(1).items()}
    ys = {i: c for (i,), c in y.wedge_components(1).items()}

    def deriv(cs, p):
        acc = Polynomial.zero(ctx)
        for i, c in cs.items():
            acc = acc + c * p.partial(i)
        return acc

    acc = GElement.zero(ctx)
    for i in range(1, ctx.n + 1):
        yi = ys.get(i, Polynomial.zero(ctx))
        xi = xs.get(i, Polynomial.zero(ctx))
        comp = deriv(xs, yi) - deriv(ys, xi)
        acc = acc + GElement(ctx, {(0, 1 << (i - 1)): comp})
    return acc


def cross_product_components(s: GElement, f: Polynomial):
    """For n = 3 and a bivector S = s1 d23 + s2 d31 + s3 d12, the components
    of s x grad(f); ad_f(S) = -(s x grad f) . d under the library sign."""
    ctx = s.ctx
    comp = s.wedge_components(2)
    zero = Polynomial.zero(ctx)
    s1 = comp.get((2, 3), zero)
    s2 = -comp.get((1, 3), zero)
    s3 = comp.get((1, 2), zero)
    g = [f.partial(i) for i in (1, 2, 3)]
    return (
        s2 * g[2] - s3 * g[1],
        s3 * g[0] - s1 * g[2],
        s1 * g[1] - s2 * g[0],
    )


# ---------------------------------------------------------------------------
# decimal strings

def decimal_value(text: str) -> int:
    """The value of a string of decimal digits, read left to right in
    500-digit blocks (each within any int-max-str-digits limit), where
    poly.from_decimal splits on powers of ten."""
    value = 0
    for i in range(0, len(text), 500):
        block = text[i:i + 500]
        value = value * 10 ** len(block) + int(block)
    return value


# ---------------------------------------------------------------------------
# Milnor number by sparse linear algebra (no Groebner machinery)

def _monomials_upto(n, bound):
    ranges = [range(bound + 1)] * n
    return [e for e in itertools.product(*ranges) if sum(e) <= bound]


def _add_product_rows(partials, pivots, bound):
    """Echelonize the rows {monomial * partial of degree exactly bound}
    into pivots ({lead monomial: (monic row, bound at which it entered)}),
    which already hold the rows of every lower degree."""
    n = partials[0].ctx.n
    for g in partials:
        gdeg = g.total_degree()
        if gdeg > bound:
            continue
        for mono in itertools.product(range(bound - gdeg + 1), repeat=n):
            if sum(mono) != bound - gdeg:
                continue
            row = {tuple(a + b for a, b in zip(exps, mono)): c for exps, c in g.terms.items()}
            while row:
                lead = max(row, key=grevlex_key)
                if lead not in pivots:
                    lc = row[lead]
                    pivots[lead] = ({k: v / lc for k, v in row.items()}, bound)
                    break
                pivot = pivots[lead][0]
                factor = row[lead]
                for k, v in pivot.items():
                    s = row.get(k, Fraction(0)) - factor * v
                    if s == 0:
                        row.pop(k, None)
                    else:
                        row[k] = s


def milnor_oracle(f: Polynomial):
    """dim k[x]/(partials) by sparse rank computation, or "infinite".

    Counts monomials of degree <= d outside the span of the products
    {monomial * partial of degree <= b}; the product bound b is raised until
    the count at degree d stops moving (ideal elements can need high-degree
    cofactors), and d is raised until the count itself stabilizes.  A count
    that keeps growing with d means the quotient is infinite-dimensional.
    One echelon set serves every (d, b): it is extended bound by bound with
    the rows new at that bound, and the span at bound b has as its leading
    monomials exactly the pivots that entered at b or below (the leading
    monomials of a span do not depend on the rows that echelonized it).
    """
    ctx = f.ctx
    partials = [g for g in (f.partial(i) for i in range(1, ctx.n + 1)) if not g.is_zero()]
    gmax = max((g.total_degree() for g in partials), default=0)
    pivots: dict = {}
    reached = -1  # the product rows of degree <= reached are in pivots

    def free_count(d, b):
        nonlocal reached
        while partials and reached < b:
            reached += 1
            _add_product_rows(partials, pivots, reached)
        return sum(1 for m in _monomials_upto(ctx.n, d) if m not in pivots or pivots[m][1] > b)

    d_cap = 2 * f.total_degree() + 6
    counts = []
    for d in range(1, d_cap + 1):
        value = None
        prev = None
        for b in range(d + gmax, d + gmax + 13, 2):
            c = free_count(d, b)
            if prev is not None and c == prev:
                value = c
                break
            prev = c
        counts.append(prev if value is None else value)
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            return counts[-1]
    return "infinite"


# ---------------------------------------------------------------------------
# reduced Groebner basis by the textbook Buchberger algorithm

def oracle_vector(elem):
    """{(comp, exps): Fraction} of a Polynomial or a tuple of components."""
    comps = (elem,) if isinstance(elem, Polynomial) else tuple(elem)
    return {(i, e): c for i, p in enumerate(comps) for e, c in p.terms.items()}


def _term_key(kind):
    # position over term, the lower component index first
    key = grevlex_key if kind == "grevlex" else lex_key
    return lambda t: (-t[0], key(t[1]))


def _divides(a, b):
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def _normal_form_naive(v, basis, key):
    """Remainder of v after division by basis (each entry monic)."""
    v, rem = dict(v), {}
    while v:
        t = max(v, key=key)
        c = v.pop(t)
        for g in basis:
            lead = max(g, key=key)
            if _divides(lead, t):
                q = tuple(a - b for a, b in zip(t[1], lead[1]))
                for (comp, e), gc in g.items():
                    if (comp, e) == lead:
                        continue
                    k = (comp, tuple(a + b for a, b in zip(e, q)))
                    s = v.get(k, Fraction(0)) - c * gc
                    if s:
                        v[k] = s
                    else:
                        v.pop(k, None)
                break
        else:
            rem[t] = c
    return rem


def _monic(v, key):
    lc = v[max(v, key=key)]
    return {t: c / lc for t, c in v.items()}


def naive_buchberger(gens, kind="grevlex"):
    """Reduced Groebner basis of the ideal or submodule spanned by gens
    (Polynomials or tuples of components), as a list of monic
    {(comp, exps): Fraction} in increasing order of leading terms."""
    key = _term_key(kind)
    basis = [_monic(v, key) for v in map(oracle_vector, gens) if v]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # the pair of least lcm degree next, which keeps the basis small
        lcms = []
        for i, j in pairs:
            la, lb = max(basis[i], key=key), max(basis[j], key=key)
            lcm = tuple(max(x, y) for x, y in zip(la[1], lb[1]))
            lcms.append((sum(lcm) if la[0] == lb[0] else -1, i, j))
        _, i, j = min(lcms)
        pairs.remove((i, j))
        a, b = basis[i], basis[j]
        la, lb = max(a, key=key), max(b, key=key)
        if la[0] != lb[0]:
            continue  # no S-vector between different components
        lcm = tuple(max(x, y) for x, y in zip(la[1], lb[1]))
        s = {}
        for g, lead, sign in ((a, la, 1), (b, lb, -1)):
            q = tuple(x - y for x, y in zip(lcm, lead[1]))
            for (comp, e), c in g.items():
                k = (comp, tuple(x + y for x, y in zip(e, q)))
                s[k] = s.get(k, Fraction(0)) + sign * c
        r = _normal_form_naive({t: c for t, c in s.items() if c}, basis, key)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_monic(r, key))
    minimal = []
    for idx, g in enumerate(basis):
        lead = max(g, key=key)
        rest = minimal + basis[idx + 1:]
        if not any(_divides(max(h, key=key), lead) for h in rest):
            minimal.append(g)
    reduced = [
        _normal_form_naive(g, minimal[:k] + minimal[k + 1:], key)
        for k, g in enumerate(minimal)
    ]
    return sorted(reduced, key=lambda g: key(max(g, key=key)))


# ---------------------------------------------------------------------------
# Maurer-Cartan report from three separate convolutions

def _dense(series, n: int, zero):
    """series cut or zero-padded to order n, from its dense coefficients."""
    coeffs = list(series.coeffs[: n + 1])
    return HSeries(coeffs + [zero] * (n + 1 - len(coeffs)), n)


def mc_verify_oracle(f: Polynomial, sol) -> MCReport:
    """The mc_verify report with [f - p, S], [S, S] and [w, w] convolved
    as three series, every ordered pair (i, j) bracketed on its own, and
    residual == -eps*[f - p, S] + (1/2)[S, S] asserted at each order.
    An exact witness T is compared with S through h^(dp + dt)."""
    ctx = f.ctx
    zero_p, zero_g = Polynomial.zero(ctx), GElement.zero(ctx)
    eps = GElement.eps(ctx)
    exact = sol.order == EXACT
    dp, ds = sol.p_series.order, sol.s_series.order
    check = max(dp + ds, 2 * ds, 1) if exact else sol.order

    def f_minus_p(n):
        p = _dense(sol.p_series, n, zero_p).coeffs
        return HSeries([GElement.from_polynomial(f - p[0])]
                       + [GElement.from_polynomial(-c) for c in p[1:]], n)

    p = _dense(sol.p_series, check, zero_p)
    s = _dense(sol.s_series, check, zero_g)
    bracket = f_minus_p(check).convolve(s, schouten_bracket)
    square = s.convolve(s, schouten_bracket)
    w = HSeries([GElement.from_polynomial(c) * eps for c in p.coeffs], check) + s
    ww = w.convolve(w, schouten_bracket)
    orders = []
    for k in range(check + 1):
        r_k = g_differential(f, w.coeffs[k]) + ww.coeffs[k].scale(Fraction(1, 2))
        b_k, s_k = bracket.coeffs[k], square.coeffs[k]
        assert r_k == -(eps * b_k) + s_k.scale(Fraction(1, 2))
        orders.append(OrderResidual(k, b_k, s_k, r_k))
    witness_consistent = None
    if sol.witness is not None:
        n = max(check, dp + sol.witness.order) if exact else check
        rebuilt = f_minus_p(n).convolve(_dense(sol.witness, n, zero_g), schouten_bracket)
        target = _dense(sol.s_series, n, zero_g)
        witness_consistent = all(rebuilt.coeffs[k] == target.coeffs[k] for k in range(n + 1))
    ok = all(o.residual.is_zero() for o in orders) and witness_consistent is not False
    nonzero = tuple(o for o in orders if not o.is_zero())
    return MCReport(nonzero, check, zero_g, witness_consistent, ok)


# ---------------------------------------------------------------------------
# classical alternating-sum Hochschild differential, evaluated pointwise

def alternating_sum_d(apply_p, arity, args):
    """dP(a_0..a_p) = a_0 P(a_1..) - P(a_0 a_1, ...) + ... -+ P(...) a_p.

    `apply_p` is any callable taking `arity` polynomials.
    """
    p = arity
    assert len(args) == p + 1
    total = args[0] * apply_p(*args[1:])
    for i in range(p):
        merged = list(args)
        merged[i] = merged[i] * merged[i + 1]
        del merged[i + 1]
        piece = apply_p(*merged)
        total = total + (piece if i % 2 == 1 else -piece)
    last = apply_p(*args[:-1]) * args[-1]
    total = total + (last if (p + 1) % 2 == 0 else -last)
    return total


def operator_args_pool(ctx, max_degree):
    """All monomials of degree <= max_degree, a spanning set of arguments."""
    return [
        Polynomial.monomial(ctx, e)
        for e in sorted(_monomials_upto(ctx.n, max_degree), key=grevlex_key)
    ]


def operators_agree_on_monomials(p, q, max_degree=None) -> bool:
    """Apply-based equality on all argument tuples of monomials up to the
    operators' derivative orders."""
    if p.arity != q.arity:
        return False
    ctx = p.ctx
    orders = [0] * p.arity
    for op in (p, q):
        for alphas in op.terms:
            for j, a in enumerate(alphas):
                orders[j] = max(orders[j], sum(a))
    if max_degree is not None:
        orders = [max_degree] * p.arity
    pools = [operator_args_pool(ctx, d) for d in orders]
    for combo in itertools.product(*pools):
        if p.apply(combo) != q.apply(combo):
            return False
    return True


# ---------------------------------------------------------------------------
# brace insertions, one Leibniz split of alpha at a time

def _oracle_splits(alpha: tuple, parts: int) -> tuple:
    """All splits of a multi-index into `parts` >= 1 pieces, with the
    multinomial prod_d alpha_d! / prod_t pieces[t][d]!."""
    n = len(alpha)

    def splits_1d(total: int, k: int):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits_1d(total - first, k - 1):
                yield (first,) + rest

    per_coord = [
        [(split, math.factorial(a) // math.prod(map(math.factorial, split)))
         for split in splits_1d(a, parts)]
        for a in alpha
    ]
    return tuple(
        (
            tuple(tuple(combo[d][0][t] for d in range(n)) for t in range(parts)),
            math.prod(combo[d][1] for d in range(n)),
        )
        for combo in itertools.product(*per_coord)
    )


def _insert_one(splits, alphas, coeff, slot, q_alphas, q_coeff):
    """Insert one operator term into `slot`, expanding the iterated-partials
    Leibniz rule by `splits`, an `_oracle_splits` table.  Yields
    (new_alphas, new_coeff)."""
    alpha = alphas[slot]
    q = len(q_alphas)
    for pieces, multi in splits(alpha, q + 1):
        gamma0, rest = pieces[0], pieces[1:]
        dcoeff = q_coeff.derive(gamma0)
        if dcoeff.is_zero():
            continue
        if multi != 1:
            # scale the small factor, not the product
            dcoeff = dcoeff * multi
        block = tuple(
            tuple(b + g for b, g in zip(beta, gamma))
            for beta, gamma in zip(q_alphas, rest)
        )
        new_alphas = alphas[:slot] + block + alphas[slot + 1 :]
        yield new_alphas, coeff * dcoeff


def brace_oracle(p, qs):
    """P{Q_1, ..., Q_l} inserting one term of Q_t at a time, right to left,
    every split of the slot's alpha into (coefficient, arguments) tried."""
    qs = list(qs)
    l = len(qs)
    if l > p.arity:
        raise ValueError(f"cannot insert {l} operators into arity {p.arity}")
    if l == 0:
        return p
    arities = [q.arity for q in qs]
    out_arity = p.arity - l + sum(arities)
    splits = functools.cache(_oracle_splits)
    res = {}
    for slots in itertools.combinations(range(p.arity), l):
        # offsets: argument positions in front of each inserted block
        sign = 0
        shift = 0
        for t, s in enumerate(slots):
            offset = s + shift
            sign += (arities[t] - 1) * offset
            shift += arities[t] - 1
        negate = sign & 1
        for p_alphas, p_coeff in p.terms.items():
            stack = [(p_alphas, p_coeff)]
            # insert right-to-left so earlier slot indices stay valid
            for t in reversed(range(l)):
                new_stack = []
                for alphas, coeff in stack:
                    for q_alphas, q_coeff in qs[t].terms.items():
                        new_stack.extend(
                            _insert_one(
                                splits, alphas, coeff, slots[t], q_alphas, q_coeff
                            )
                        )
                stack = new_stack
            for alphas, coeff in stack:
                if negate:
                    coeff = -coeff
                accumulate(res, alphas, coeff)
    return PolyDiffOperator(p.ctx, out_arity, res)


# ---------------------------------------------------------------------------
# the antisymmetrized first-order part of a cochain

def sigma(c):
    """sigma(C): the part of C of order exactly one in every argument,
    antisymmetrized with weight 1/k!, (1/k!) sum_pi sgn(pi) C(b_pi(1), ...).

    Argument b_pi(j) takes term alpha_j, so a permuted term carries alpha_j
    at position pi(j).  sigma is the identity on the image of hkr, kills
    Hochschild coboundaries, and so turns the Gerstenhaber bracket of two
    HKR images into their Schouten bracket up to one sign."""
    k = c.arity
    weight = Fraction(1, math.factorial(k))
    res = {}
    for alphas, coeff in c.terms.items():
        if any(sum(a) != 1 for a in alphas):
            continue
        for pi in itertools.permutations(range(k)):
            inversions = sum(pi[a] > pi[b] for a in range(k) for b in range(a + 1, k))
            moved = [None] * k
            for j, alpha in enumerate(alphas):
                moved[pi[j]] = alpha
            accumulate(res, tuple(moved), coeff * (-weight if inversions & 1 else weight))
    return PolyDiffOperator(c.ctx, k, res)


# ---------------------------------------------------------------------------
# printing through the Fraction view (the reference for integer printing)

def fraction_poly_str(p: Polynomial) -> str:
    """str(p) read off the Fraction view `p.terms`, highest grevlex term first."""
    if not p.terms:
        return "0"
    parts = []
    for exps, c in sorted(p.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
        mono = p.ctx.format_monomial(exps)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fraction_poly_json(p: Polynomial) -> dict:
    items = sorted(p.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
    return {
        "terms": [
            {"exp": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
            for exps, c in items
        ]
    }


def _gelement_items(x: GElement):
    return sorted(
        x.terms.items(),
        key=lambda t: (2 * t[0][0] + bin(t[0][1]).count("1"), t[0][0], t[0][1]),
    )


def fraction_gelement_str(x: GElement) -> str:
    """str(x) with one-term coefficients read off the Fraction view."""
    if not x.terms:
        return "0"
    parts = []
    for (e, mask), coeff in _gelement_items(x):
        tail = []
        if e == 1:
            tail.append("E")
        elif e > 1:
            tail.append(f"E^{e}")
        if mask:
            tail.append("D(" + ",".join(str(i) for i in bits_of(mask)) + ")")
        sign = "+"
        if len(coeff.terms) == 1:
            (exps, c), = coeff.terms.items()
            mono = x.ctx.format_monomial(exps)
            mag = abs(c)
            if c < 0:
                sign = "-"
            head = []
            if mag != 1 or (mono == "1" and not tail):
                head.append(str(mag))
            if mono != "1":
                head.append(mono)
            body = "*".join(head + tail) if (head or tail) else "1"
        elif not tail:
            text = fraction_poly_str(coeff)
            body = text if not parts else f"({text})"
        else:
            body = "*".join([f"({fraction_poly_str(coeff)})"] + tail)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def fraction_gelement_json(x: GElement) -> dict:
    return {
        "terms": [
            {"eps": e, "odd": list(bits_of(mask)), "coeff": fraction_poly_json(c)}
            for (e, mask), c in _gelement_items(x)
        ]
    }


def fraction_cochain_str(op: PolyDiffOperator) -> str:
    if not op.terms:
        return f"0 (arity {op.arity})"
    parts = []
    for alphas, coeff in sorted(op.terms.items()):
        ds = ";".join(",".join(str(a) for a in alpha) for alpha in alphas)
        parts.append(f"({fraction_poly_str(coeff)})*d[{ds}]")
    return " + ".join(parts)


def fraction_cochain_json(op: PolyDiffOperator) -> dict:
    return {
        "arity": op.arity,
        "terms": [
            {"coeff": fraction_poly_json(c), "alphas": [list(a) for a in alphas]}
            for alphas, c in sorted(op.terms.items())
        ],
    }


# ---------------------------------------------------------------------------
# expression evaluation without the library parser

_EXPR_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S)")


def _odd_product(a: tuple, b: tuple):
    """(sign, sorted indices) of d_a ^ d_b by bubble sort; (0, None) on a
    repeated index."""
    seq = list(a + b)
    if len(set(seq)) < len(seq):
        return 0, None
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def _flat_mul(a: dict, b: dict) -> dict:
    out = {}
    for (h1, e1, o1, x1), c1 in a.items():
        for (h2, e2, o2, x2), c2 in b.items():
            sign, odd = _odd_product(o1, o2)
            if sign:
                key = (h1 + h2, e1 + e2, odd, tuple(p + q for p, q in zip(x1, x2)))
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _flat_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return {k: c for k, c in out.items() if c != 0}


def eval_expression(text: str, names) -> dict:
    """The value of a well-formed grammar string as a flat map
    {(h power, eps power, odd indices ascending, exps): Fraction}: a
    Fraction-dict evaluator with its own tokenizer, powers by repeated
    products, and wedge signs by bubble-sorting the odd indices."""
    tokens = _EXPR_TOKEN.findall(text)
    tokens.append("")
    pos = [0]
    zero = (0,) * len(names)

    def take():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def unit(h=0, e=0, odd=(), exps=zero, c=Fraction(1)):
        return {(h, e, odd, exps): c}

    def expr():
        sign = 1
        if tokens[pos[0]] in ("+", "-"):
            sign = -1 if take() == "-" else 1
        value = _flat_add({}, term(), sign)
        while tokens[pos[0]] in ("+", "-"):
            sign = -1 if take() == "-" else 1
            value = _flat_add(value, term(), sign)
        return value

    def term():
        value = factor()
        while tokens[pos[0]] == "*":
            take()
            value = _flat_mul(value, factor())
        return value

    def factor():
        value = base()
        if tokens[pos[0]] == "^":
            take()
            k = int(take())
            power = unit()
            for _ in range(k):
                power = _flat_mul(power, value)
            value = power
        return value

    def base():
        tok = take()
        if tok.isdigit():
            q = Fraction(int(tok))
            if tokens[pos[0]] == "/":
                take()
                q /= int(take())
            return unit(c=q) if q else {}
        if tok == "(":
            value = expr()
            assert take() == ")"
            return value
        if tok == "E":
            return unit(e=1)
        if tok == "h":
            return unit(h=1)
        if tok == "D":
            assert take() == "("
            value = unit()
            while True:
                value = _flat_mul(value, unit(odd=(int(take()),)))
                if take() == ")":
                    return value
        i = names.index(tok)
        return unit(exps=zero[:i] + (1,) + zero[i + 1:])

    value = expr()
    assert tokens[pos[0]] == "", text
    return value


def flat_value(value) -> dict:
    """A parsed Polynomial, GElement or HSeries as the flat map of
    `eval_expression`."""
    series = enumerate(value.coeffs) if isinstance(value, HSeries) else [(0, value)]
    out = {}
    for k, c in series:
        items = [((0, 0), c)] if isinstance(c, Polynomial) else c.terms.items()
        for (e, mask), p in items:
            odd = tuple(i + 1 for i in range(p.ctx.n) if mask >> i & 1)
            for exps, q in p.terms.items():
                out[(k, e, odd, exps)] = q
    return out


def rand_expression(rng, names, wedge=False, h=False, depth=2) -> str:
    """A random well-formed grammar string: a signed sum of products of
    integers, rationals, variables, parenthesized sums and powers, with
    `E`, `h` and `D(...)` (indices distinct, in random order) where
    allowed, and random spacing."""
    n = len(names)

    def atom():
        kinds = ["int", "rat", "var", "var"]
        if wedge:
            kinds += ["E", "D", "D"]
        if h:
            kinds += ["h", "h"]
        if depth > 0:
            kinds += ["paren"]
        kind = rng.choice(kinds)
        if kind == "int":
            return str(rng.randint(0, 9))
        if kind == "rat":
            return f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
        if kind == "var":
            return rng.choice(names)
        if kind == "D":
            idx = rng.sample(range(1, n + 1), rng.randint(1, n))
            return "D(" + ",".join(map(str, idx)) + ")"
        if kind == "paren":
            return "(" + rand_expression(rng, names, wedge, h, depth - 1) + ")"
        return kind

    def factor():
        text = atom()
        if rng.random() < 0.3:
            text += f"^{rng.randint(0, 3)}"
        return text

    def term():
        return rng.choice(["*", " * "]).join(factor() for _ in range(rng.randint(1, 3)))

    out = rng.choice(["", "", "-", "+"]) + term()
    for _ in range(rng.randint(0, 3)):
        out += rng.choice([" + ", " - ", "+", "-"]) + term()
    return out
