"""Hochschild cochains of A modeled as polydifferential operators.

An arity-k operator sends (b_1, ..., b_k) to

    sum over terms of  coeff * prod_j d^(alpha_j) b_j

with plain iterated partials (no factorial normalization).  Cup product,
brace insertions, the Gerstenhaber bracket, the differential d = [mu, -],
and the cochain-level HKR map are implemented on this model.

A brace expands each inserted Q through one insertion table per
derivative multi-index alpha at its slot: the Leibniz terms of d^alpha of
Q's output, built once and reused by every term of P, so the cost is
proportional to the nonzero terms of the expansion.  The arithmetic is
the Schouten bracket's: P's coefficients and each table entry are read once
as integer numerators (`poly.numerators`), every product runs in the ring's
product kernel, and each output term is one `from_ints` (`poly.collect`).
Under an open `errors.budget` it charges, before doing it, each slot combination
and (combination, term of P) visit, the terms each table derivative and entry
read, and the monomial products of each insertion; `cup` charges its products
and key alphas, `hkr` its terms.  With no budget open nothing is bounded.

Sign conventions: a brace insertion P{Q_1..Q_l} carries the sign
(-1)^(sum (q_t - 1) * o_t) where o_t is the number of argument positions
in front of the t-th inserted block; the bracket is
[P, Q] = P{Q} - (-1)^((p-1)(q-1)) Q{P}.  With these choices [mu, P]
equals (-1)^(p-1) times the classical alternating-sum differential; the
relation is pinned by the test-suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, sub

from .errors import ContextMismatch, charger
from .poly import Polynomial, RingContext, TermMap, collect, int_product, numerators, product_kernel
from .polyvector import GElement, bits_of


class PolyDiffOperator(TermMap):
    """Polydifferential operator of fixed arity; terms keyed by derivative
    multi-indices (alpha_1, ..., alpha_k).  Two summands share the arity."""

    __slots__ = ("arity",)

    def __init__(self, ctx: RingContext, arity: int, terms: dict | None = None):
        if type(arity) is not int or arity < 0:
            raise ValueError(f"arity must be an integer >= 0, got {arity!r}")
        self.ctx = ctx
        self.arity = arity
        clean: dict[tuple, Polynomial] = {}
        if terms:
            for alphas, coeff in terms.items():
                alphas = tuple(tuple(a) for a in alphas)
                if len(alphas) != arity:
                    raise ValueError("alpha count != arity")
                if any(len(a) != ctx.n for a in alphas):
                    raise ValueError("multi-index arity mismatch")
                if any(type(e) is not int or e < 0 for a in alphas for e in a):
                    raise ValueError(f"derivative orders must be integers >= 0, got {alphas}")
                if coeff.ctx != ctx:
                    raise ContextMismatch("coefficient from a different ring")
                if not coeff.is_zero():
                    clean[alphas] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: Polynomial) -> "PolyDiffOperator":
        """The arity-0 cochain with the given value."""
        return cls(value.ctx, 0, {(): value})

    # -- semantics ----------------------------------------------------------

    def apply(self, args) -> Polynomial:
        args = list(args)
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.ctx != self.ctx:
                raise ContextMismatch("argument from a different ring")
        total = Polynomial.zero(self.ctx)
        for alphas, coeff in self.terms.items():
            piece = coeff
            for alpha, b in zip(alphas, args):
                piece = piece * b.derive(alpha)
                if piece.is_zero():
                    break
            total = total + piece
        return total

    # -- presentation -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __str__(self):
        if not self.terms:
            return f"0 (arity {self.arity})"
        parts = []
        for alphas, coeff in self.sorted_terms():
            ds = ";".join(",".join(map(str, alpha)) for alpha in alphas)
            parts.append(f"({coeff})*d[{ds}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"PolyDiffOperator(arity={self.arity}, {self})"

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "terms": [
                {"coeff": c.to_json(), "alphas": [list(a) for a in alphas]}
                for alphas, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, ctx: RingContext, data: dict) -> "PolyDiffOperator":
        terms: dict[tuple, Polynomial] = {}
        for t in data["terms"]:
            alphas = tuple(tuple(a) for a in t["alphas"])
            c = Polynomial.from_json(ctx, t["coeff"])
            terms[alphas] = terms.get(alphas, Polynomial.zero(ctx)) + c
        return cls(ctx, data["arity"], terms)


def identity_cochain(ctx: RingContext) -> PolyDiffOperator:
    """The arity-1 identity a -> a."""
    return PolyDiffOperator(ctx, 1, {((0,) * ctx.n,): Polynomial.one(ctx)})


def multiplication_cochain(ctx: RingContext) -> PolyDiffOperator:
    """mu(a, b) = a*b, the arity-2 cochain whose bracket is the differential."""
    z = (0,) * ctx.n
    return PolyDiffOperator(ctx, 2, {(z, z): Polynomial.one(ctx)})


def cup(p: PolyDiffOperator, q: PolyDiffOperator) -> PolyDiffOperator:
    """(P cup Q)(b_1..b_{p+q}) = P(b_1..b_p) * Q(b_{p+1}..b_{p+q})."""
    if p.ctx != q.ctx:
        raise ContextMismatch("mixed contexts")
    # the monomial products, and the p + q alphas of each term pair's key
    charger()(sum(len(c.nums) for c in p.terms.values())
              * sum(len(c.nums) for c in q.terms.values())
              + len(p.terms) * len(q.terms) * (p.arity + q.arity))
    # distinct term pairs give distinct keys, and no product of nonzero terms is 0
    res = {a1 + a2: c1 * c2 for a1, c1 in p.terms.items() for a2, c2 in q.terms.items()}
    return PolyDiffOperator._make(p.ctx, res, p.arity + q.arity)


def _splits(alpha: tuple, parts: int) -> tuple:
    """All splits of a multi-index into `parts` pieces, with multinomials.

    A tuple of (pieces, multinomial) where pieces is a tuple of
    multi-indices summing to alpha and multinomial is the product over
    coordinates of alpha_d! / prod(pieces[t][d]!).  Zero pieces split
    alpha = 0 once, into the empty tuple, and any other alpha never.
    """

    def splits_1d(total: int, k: int) -> list:
        """The compositions of total into k parts in lexicographic order: the
        gaps between k - 1 bars placed among total + k - 1 slots."""
        if k == 0:
            return [()] if total == 0 else []
        ends = (total + k - 1,)
        return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + ends))
                for bars in itertools.combinations(range(total + k - 1), k - 1)]

    per_coord = [
        [(split, math.factorial(a) // math.prod(map(math.factorial, split)))
         for split in splits_1d(a, parts)]
        for a in alpha
    ]
    # combo holds each coordinate's (split, multinomial); zip reads the pieces off
    return tuple((tuple(zip(*(split for split, _ in combo))), math.prod(m for _, m in combo))
                 for combo in itertools.product(*per_coord))


def brace(p: PolyDiffOperator, qs) -> PolyDiffOperator:
    """The brace P{Q_1, ..., Q_l}: order-preserving insertions with the
    Gerstenhaber sign."""
    qs = list(qs)
    l = len(qs)
    if l > p.arity:
        raise ValueError(f"cannot insert {l} operators into arity {p.arity}")
    for q in qs:
        if q.ctx != p.ctx:
            raise ContextMismatch("mixed contexts")
    if l == 0:
        return p
    arities = [q.arity for q in qs]
    out_arity = p.arity - l + sum(arities)
    if not p.terms or not all(q.terms for q in qs):
        return PolyDiffOperator.zero(p.ctx, out_arity)
    # the tables ask again for the same few (alpha, parts)
    splits = functools.cache(_splits)
    charge = charger()
    pn, dp = numerators(p.terms.items())
    dq = [math.lcm(*[c.den for c in q.terms.values()]) for q in qs]
    # each term of each Q_t with its coefficient's degree in each variable
    shapes = [[(a, c, tuple(map(max, zip(*c.nums)))) for a, c in q.terms.items()] for q in qs]

    @functools.cache
    def table(t: int, alpha: tuple) -> tuple:
        """([(block, numerator items over dq[t])], their monomial count): the
        terms of d^alpha of Q_t's output.  gamma0, the part of alpha on Q_t's
        coefficient, runs over the box where its derivative can be nonzero,
        weighted by prod C(alpha, gamma0); the rest is split over Q_t's k
        arguments, C(rest + k - 1, k - 1) ways a coordinate (none: gamma0 = alpha).
        A derivative (but d^0) and an entry are charged their coefficient's terms."""
        k = arities[t]
        entries = []
        for q_alphas, q_coeff, degrees in shapes[t]:
            box = [range(0 if k else a, min(a, m) + 1) for a, m in zip(alpha, degrees)]
            for gamma0 in itertools.product(*box):
                charge(len(q_coeff.nums) if any(gamma0) else 0)
                dcoeff = q_coeff.derive(gamma0)
                if dcoeff.is_zero():
                    continue
                rest = tuple(map(sub, alpha, gamma0))
                charge(len(dcoeff.nums)
                       * (math.prod(math.comb(r + k - 1, k - 1) for r in rest) if k else 1))
                binom = math.prod(map(math.comb, alpha, gamma0))
                for pieces, multi in splits(rest, k):
                    block = tuple(tuple(map(add, b, g)) for b, g in zip(q_alphas, pieces))
                    scale = binom * multi
                    entries.append((block, dcoeff * scale if scale != 1 else dcoeff))
        entries = [(block, nums.items()) for block, nums in numerators(entries, dq[t])[0]]
        return entries, sum(len(b) for _, b in entries)

    kernel = product_kernel(p.ctx.n)
    acc: dict = {}
    # offsets[t]: argument positions of the blocks in front of block t
    offsets = list(itertools.accumulate(arities, initial=0))
    for slots in itertools.combinations(range(p.arity), l):
        charge(1 + len(pn))  # the combination and its visit of each term of P
        sign = -1 if sum((arities[t] - 1) * (s + offsets[t] - t)
                         for t, s in enumerate(slots)) & 1 else 1
        for p_alphas, nums in pn:
            stack = [(p_alphas, nums.items())]
            # insert right-to-left so earlier slot indices stay valid
            for t in reversed(range(1, l)):
                s = slots[t]
                entries, size = table(t, p_alphas[s])
                charge(sum(len(a) for _, a in stack) * size)
                stack = [(alphas[:s] + block + alphas[s + 1 :], int_product(kernel, a, b).items())
                         for alphas, a in stack for block, b in entries]
                if not stack:
                    break
            else:  # the first insertion adds its signed products into acc
                s = slots[0]
                entries, size = table(0, p_alphas[s])
                charge(sum(len(a) for _, a in stack) * size)
                for block, b in entries:
                    for alphas, a in stack:
                        key = alphas[:s] + block + alphas[s + 1 :]
                        kernel(acc.setdefault(key, {}), a, b, sign)
    return PolyDiffOperator._make(p.ctx, collect(p.ctx, acc, dp * math.prod(dq)), out_arity)


def gerstenhaber_bracket(p: PolyDiffOperator, q: PolyDiffOperator) -> PolyDiffOperator:
    """[P, Q] = P{Q} - (-1)^((p-1)(q-1)) Q{P}; a brace into arity 0 is 0."""
    arity = max(0, p.arity + q.arity - 1)
    first = brace(p, [q]) if p.arity else PolyDiffOperator.zero(p.ctx, arity)
    second = brace(q, [p]) if q.arity else PolyDiffOperator.zero(q.ctx, arity)
    if ((p.arity - 1) * (q.arity - 1)) & 1:
        return first + second
    return first - second


def hochschild_differential(p: PolyDiffOperator) -> PolyDiffOperator:
    """d(P) = [mu, P]; equals (-1)^(arity-1) times the classical
    alternating-sum differential (see module docstring)."""
    return gerstenhaber_bracket(multiplication_cochain(p.ctx), p)


def hkr(x: GElement) -> PolyDiffOperator:
    """Antisymmetrized multiderivation of an eps-free polyvector field.

    On a * d_{i_1} ^ ... ^ d_{i_k} the value on (b_1..b_k) is
    (a / k!) * sum over permutations of sgn * prod_j d_{i_sigma(j)} b_j,
    so that k = 1 is the identity embedding of vector fields.

    The output has k! terms per term of X, charged to the open budget
    before any permutation is expanded.
    """
    if not x.is_polyvector():
        raise ValueError("hkr is defined on eps-free elements only")
    ctx = x.ctx
    degrees = x.wedge_degrees()
    if len(degrees) > 1:
        raise ValueError("hkr input must be wedge-homogeneous")
    k = degrees.pop() if degrees else 0
    if k == 0:
        return PolyDiffOperator.constant(x.polynomial_part())
    perms = math.factorial(k)
    charger()(len(x.terms) * perms)
    res: dict[tuple, Polynomial] = {}
    norm = Fraction(1, perms)
    for (e, mask), coeff in x.terms.items():
        units = [tuple(int(d == i) for d in range(1, ctx.n + 1)) for i in bits_of(mask)]
        piece = coeff * norm
        signed = (piece, -piece)  # by the parity of the permutation
        # each term has its own index set and each permutation its own key
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
            res[tuple(units[j] for j in perm)] = signed[inversions & 1]
    return PolyDiffOperator._make(ctx, res, k)
