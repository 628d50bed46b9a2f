"""Independent correctness checks, run outside the timed spans.

The n = 3 Maurer-Cartan checks work on plain dicts {exponents: Fraction}
with their own arithmetic and coordinate formulas for the brackets, so
they share no code with the library's bracket.  The expected Milnor
number of a dense f is certified by linear algebra modulo a prime, with
no Groebner basis.  The Hochschild checks evaluate operators pointwise
with `PolyDiffOperator.apply`, never through the brace expansion they
check.
"""

from __future__ import annotations

import itertools

# -- dict polynomials ---------------------------------------------------------


def padd(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pdiff(a, i):
    """d/dx_i, 0-based i."""
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def as_dict(poly):
    return dict(poly.terms)


# -- Milnor numbers -----------------------------------------------------------

PRIME = 2**31 - 1


def monomials_of_degree(n, degree):
    if n == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in monomials_of_degree(n - 1, degree - first)
    ]


def rank_mod_p(rows, p=PRIME):
    """Rank over F_p of sparse integer rows {column: value}."""
    pivots = {}
    for row in rows:
        row = {k: v % p for k, v in row.items() if v % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in row.items()}
                break
            factor = row[lead]
            for k, v in pivots[lead].items():
                s = (row.get(k, 0) - factor * v) % p
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return len(pivots)


def bezout_certified(f, n, d):
    """True when the degree-d form of f certifies mu(f) = (d-1)^n.

    If the partials of the top form have no common projective zero, the
    partials of f are a regular sequence with no zeros at infinity and
    dim k[x]/(df) = (d-1)^n (Bezout).  No common zero is certified by the
    partials spanning every form of degree n(d-2)+1: checked as a full
    rank modulo a prime, which implies full rank over Q.  `f` is a dict
    {exponents: integer}.
    """
    top = {e: c for e, c in f.items() if sum(e) == d}
    partials = [pdiff(top, i) for i in range(n)]
    target = n * (d - 2) + 1
    columns = {m: i for i, m in enumerate(monomials_of_degree(n, target))}
    rows = []
    for g in partials:
        for m in monomials_of_degree(n, target - (d - 1)):
            rows.append(
                {columns[tuple(a + b for a, b in zip(e, m))]: int(c) for e, c in g.items()}
            )
    return rank_mod_p(rows) == len(columns)


# -- bivectors and trivectors in three variables ------------------------------

PAIRS = ((0, 1), (0, 2), (1, 2))


def bivector(g):
    """Antisymmetric matrix pi[i][j] of an eps-free bivector, or None."""
    pi = [[{} for _ in range(3)] for _ in range(3)]
    for (e, mask), coeff in g.terms.items():
        bits = [i for i in range(3) if mask >> i & 1]
        if e != 0 or len(bits) != 2:
            return None
        i, j = bits
        pi[i][j] = as_dict(coeff)
        pi[j][i] = {k: -v for k, v in pi[i][j].items()}
    return pi


def contract(g, pi):
    """Components v_j = sum_i pi[i][j] * d_i g: zero iff [g, pi] = 0."""
    grad = [pdiff(g, i) for i in range(3)]
    out = []
    for j in range(3):
        acc = {}
        for i in range(3):
            acc = padd(acc, pmul(pi[i][j], grad[i]))
        out.append(acc)
    return out


def poisson_pairing(x, y):
    """Coordinate form of the bracket of two bivectors in three variables:
    sum over cyclic (i, j, k) and l of x_li d_l y_jk + y_li d_l x_jk.
    [x, y] vanishes iff this does."""
    acc = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for l in range(3):
            acc = padd(acc, pmul(x[l][i], pdiff(y[j][k], l)))
            acc = padd(acc, pmul(y[l][i], pdiff(x[j][k], l)))
    return acc


def trivector_lift(g, t):
    """[g, t * d_1 d_2 d_3] = sum_s (-1)^s t d_{i_s} g d_{I - i_s}, s = 1, 2, 3,
    as an antisymmetric matrix."""
    pi = [[{} for _ in range(3)] for _ in range(3)]
    for s, i in enumerate(range(3), start=1):
        rest = [r for r in range(3) if r != i]
        piece = pmul(t, pdiff(g, i))
        if s & 1:
            piece = {k: -v for k, v in piece.items()}
        a, b = rest
        pi[a][b] = padd(pi[a][b], piece)
        pi[b][a] = padd(pi[b][a], piece, -1)
    return pi


def trivector_coeff(g):
    if not g.terms:
        return {}
    ((key, coeff),) = g.terms.items()
    if key != (0, 0b111):
        raise ValueError("not a trivector")
    return as_dict(coeff)


def check_quantization(f, p1, s1, sol, report):
    """Why a quantize_n3 + mc_verify result is wrong, or None when it is right.

    Checks that the library's report is ok with every residual zero, and
    independently that p = p1 h, S_1 = s1, S = [f - p, T] for the witness
    T, and that [f - p, S] and [S, S] vanish at every order of h.
    """
    if not report.ok or not all(o.residual.is_zero() for o in report.orders):
        return "mc_verify reports a nonzero residual"
    fd, p1d = as_dict(f), as_dict(p1)
    p = [as_dict(c) for c in sol.p_series.coeffs]
    if p[0] or p[1] != p1d or any(p[2:]):
        return "p series is not p1*h"
    s = [bivector(c) for c in sol.s_series.coeffs]
    if any(x is None for x in s):
        return "S has a component that is not an eps-free bivector"
    if bivector(s1) != s[1]:
        return "S_1 differs from the input bivector"
    fmp = [fd, {k: -v for k, v in p1d.items()}]
    t = [trivector_coeff(c) for c in sol.witness.coeffs]
    for order, sk in enumerate(s):
        want = [[{} for _ in range(3)] for _ in range(3)]
        for a, g in enumerate(fmp):
            if 0 <= order - a < len(t) and t[order - a]:
                lift = trivector_lift(g, t[order - a])
                want = [[padd(want[i][j], lift[i][j]) for j in range(3)] for i in range(3)]
        if want != sk:
            return f"S_{order} != [f - p, T] at order {order}"
    top = 2 * (len(s) - 1)
    for order in range(top + 1):
        bracket = [{}, {}, {}]
        for a, g in enumerate(fmp):
            if 0 <= order - a < len(s):
                v = contract(g, s[order - a])
                bracket = [padd(x, y) for x, y in zip(bracket, v)]
        if any(bracket):
            return f"[f - p, S] != 0 at order {order}"
        square = {}
        for a in range(len(s)):
            if 0 <= order - a < len(s):
                square = padd(square, poisson_pairing(s[a], s[order - a]))
        if square:
            return f"[S, S] != 0 at order {order}"
    return None


def f_bivector_contraction(f, t):
    """Input generation: [f, t * d_1 d_2 d_3] as {mask: coefficient dict}."""
    pi = trivector_lift(as_dict(f), t)
    return {(1 << i) | (1 << j): pi[i][j] for i, j in PAIRS if pi[i][j]}


# -- Hochschild cochains, pointwise -------------------------------------------


def brace_at(p, qs, args):
    """P{Q_1..Q_l}(args) by inserting each Q into ordered slots of P.

    `p` and the `qs` are (arity, callable) pairs; the sign is the
    Gerstenhaber sign sum_t (|Q_t| - 1) * (argument position of block t).
    """
    arity, apply_p = p
    total = None
    for slots in itertools.combinations(range(arity), len(qs)):
        inner, pos, sign = [], 0, 0
        slot_iter = iter(zip(slots, qs))
        nxt = next(slot_iter, None)
        for s in range(arity):
            if nxt is not None and nxt[0] == s:
                q_arity, apply_q = nxt[1]
                sign += (q_arity - 1) * pos
                inner.append(apply_q(args[pos : pos + q_arity]))
                pos += q_arity
                nxt = next(slot_iter, None)
            else:
                inner.append(args[pos])
                pos += 1
        value = apply_p(inner)
        if sign & 1:
            value = -value
        total = value if total is None else total + value
    return total


def applier(op):
    return (op.arity, op.apply)


def alternating_d(p, args):
    """Classical dP(a_0..a_k) = a_0 P(a_1..) + sum_i (-1)^(i+1) P(.., a_i a_(i+1), ..)
    + (-1)^(k+1) P(a_0..a_(k-1)) a_k."""
    k = p.arity
    total = args[0] * p.apply(args[1:])
    for i in range(k):
        merged = list(args[:i]) + [args[i] * args[i + 1]] + list(args[i + 2 :])
        piece = p.apply(merged)
        total = total + (piece if i % 2 else -piece)
    last = p.apply(args[:-1]) * args[-1]
    return total + (last if (k + 1) % 2 == 0 else -last)


def check_hochschild(p, q, r, bracket, diff, nested, arg_pool):
    """Why the results of one hochschild_ops operation are wrong, or None.

    bracket = [P, Q], diff = d(P) = [mu, P] and nested = P{Q}{R} are
    evaluated at argument tuples drawn from `arg_pool` and compared with
    pointwise formulas built from P.apply, Q.apply and R.apply.  All three
    arities must be at least 1, so both braces of [P, Q] are defined.
    """
    pa, qa, ra = p.arity, q.arity, r.arity

    def take(count, offset):
        return [arg_pool[(offset + i) % len(arg_pool)] for i in range(count)]

    args = take(pa + 1, 0)
    want = alternating_d(p, args)
    if pa % 2 == 0:
        want = -want
    if diff.arity != pa + 1 or diff.apply(args) != want:
        return "d(P) differs from the alternating-sum formula"
    args = take(pa + qa - 1, 1)
    first = brace_at(applier(p), [applier(q)], args)
    second = brace_at(applier(q), [applier(p)], args)
    want = first + second if ((pa - 1) * (qa - 1)) % 2 else first - second
    if bracket.arity != pa + qa - 1 or bracket.apply(args) != want:
        return "[P, Q] differs from its pointwise brace formula"
    inner = (pa + qa - 1, lambda a: brace_at(applier(p), [applier(q)], a))
    args = take(pa + qa + ra - 2, 2)
    want = brace_at(inner, [applier(r)], args)
    if nested.arity != len(args) or nested.apply(args) != want:
        return "P{Q}{R} differs from its pointwise brace formula"
    return None
