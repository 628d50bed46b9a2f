"""Hochschild cochains of A modeled as polydifferential operators.

An arity-k operator sends (b_1, ..., b_k) to

    sum over terms of  coeff * prod_j d^(alpha_j) b_j

with plain iterated partials (no factorial normalization).  Cup product,
brace insertions, the Gerstenhaber bracket, the differential d = [mu, -],
and the cochain-level HKR map are implemented on this model.

A brace expands each inserted Q through one insertion table per
derivative multi-index alpha at its slot: the Leibniz terms of d^alpha of
Q's output, built once and reused by every term of P, so the cost is
proportional to the nonzero terms of the expansion.

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

from .errors import ContextMismatch
from .poly import Polynomial, RingContext, accumulate
from .polyvector import GElement, bits_of


def _zero_alpha(n: int) -> tuple:
    return (0,) * n


class PolyDiffOperator:
    """Polydifferential operator of fixed arity; terms keyed by derivative
    multi-indices (alpha_1, ..., alpha_k)."""

    __slots__ = ("ctx", "arity", "terms")

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
    def _make(cls, ctx: RingContext, arity: int, terms: dict) -> "PolyDiffOperator":
        """Trusted constructor: `terms` has valid keys and no zero coefficient."""
        out = cls.__new__(cls)
        out.ctx, out.arity, out.terms = ctx, arity, terms
        return out

    @classmethod
    def zero(cls, ctx: RingContext, arity: int) -> "PolyDiffOperator":
        return cls(ctx, arity)

    @classmethod
    def constant(cls, value: Polynomial) -> "PolyDiffOperator":
        """The arity-0 cochain with the given value."""
        return cls(value.ctx, 0, {(): value})

    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ContextMismatch("mixed contexts")
        if self.arity != other.arity:
            raise ValueError("arity mismatch in sum")
        res = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(res, key, c)
        return self._make(self.ctx, self.arity, res)

    def __neg__(self) -> "PolyDiffOperator":
        return self._make(self.ctx, self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        return self + (-other)

    def scale(self, q) -> "PolyDiffOperator":
        q = Fraction(q)
        terms = {} if q == 0 else {k: c * q for k, c in self.terms.items()}
        return self._make(self.ctx, self.arity, terms)

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.arity == other.arity
            and self.terms == other.terms
        )

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
            ds = ";".join(",".join(str(a) for a in alpha) for alpha in alphas)
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
    return PolyDiffOperator(ctx, 1, {(_zero_alpha(ctx.n),): Polynomial.one(ctx)})


def multiplication_cochain(ctx: RingContext) -> PolyDiffOperator:
    """mu(a, b) = a*b, the arity-2 cochain whose bracket is the differential."""
    z = _zero_alpha(ctx.n)
    return PolyDiffOperator(ctx, 2, {(z, z): Polynomial.one(ctx)})


def cup(p: PolyDiffOperator, q: PolyDiffOperator) -> PolyDiffOperator:
    """(P cup Q)(b_1..b_{p+q}) = P(b_1..b_p) * Q(b_{p+1}..b_{p+q})."""
    if p.ctx != q.ctx:
        raise ContextMismatch("mixed contexts")
    res: dict[tuple, Polynomial] = {}
    for a1, c1 in p.terms.items():
        for a2, c2 in q.terms.items():
            accumulate(res, a1 + a2, c1 * c2)
    return PolyDiffOperator._make(p.ctx, p.arity + q.arity, res)


def _splits(alpha: tuple, parts: int) -> tuple:
    """All splits of a multi-index into `parts` pieces, with multinomials.

    A tuple of (pieces, multinomial) where pieces is a tuple of
    multi-indices summing to alpha and multinomial is the product over
    coordinates of alpha_d! / prod(pieces[t][d]!).  Zero pieces split
    alpha = 0 once, into the empty tuple, and any other alpha never.
    """
    n = len(alpha)

    def splits_1d(total: int, k: int):
        if k == 0:
            if total == 0:
                yield ()
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
    # the tables ask again for the same few (alpha, parts)
    splits = functools.cache(_splits)

    @functools.cache
    def table(t: int, alpha: tuple) -> list:
        """[(block, coeff)]: the terms of d^alpha applied to Q_t's output.
        gamma0, the part of alpha on Q_t's coefficient, runs over the box
        where its derivative can be nonzero, weighted by prod C(alpha, gamma0);
        the rest of alpha is split over Q_t's arguments."""
        entries = []
        for q_alphas, q_coeff in qs[t].terms.items():
            box = [range(min(a, q_coeff.degree_in(d)) + 1) for d, a in enumerate(alpha, 1)]
            for gamma0 in itertools.product(*box):
                dcoeff = q_coeff.derive(gamma0)
                if dcoeff.is_zero():
                    continue
                binom = math.prod(map(math.comb, alpha, gamma0))
                for rest, multi in splits(tuple(map(sub, alpha, gamma0)), arities[t]):
                    block = tuple(tuple(map(add, b, g)) for b, g in zip(q_alphas, rest))
                    scale = binom * multi
                    entries.append((block, dcoeff * scale if scale != 1 else dcoeff))
        return entries

    res: dict[tuple, Polynomial] = {}
    for slots in itertools.combinations(range(p.arity), l):
        # offset of block t: argument positions in front of it
        negate = sum((arities[t] - 1) * (s + sum(arities[:t]) - t)
                     for t, s in enumerate(slots)) & 1
        for p_alphas, p_coeff in p.terms.items():
            stack = [(p_alphas, -p_coeff if negate else p_coeff)]
            # insert right-to-left so earlier slot indices stay valid
            for t in reversed(range(l)):
                s = slots[t]
                entries = table(t, p_alphas[s])
                stack = [
                    (alphas[:s] + block + alphas[s + 1 :], coeff * dcoeff)
                    for alphas, coeff in stack
                    for block, dcoeff in entries
                ]
            for alphas, coeff in stack:
                accumulate(res, alphas, coeff)
    return PolyDiffOperator._make(p.ctx, out_arity, res)


def _brace_or_zero(p: PolyDiffOperator, qs) -> PolyDiffOperator:
    l = len(qs)
    if l > p.arity:
        arities = sum(q.arity for q in qs)
        return PolyDiffOperator.zero(p.ctx, max(0, p.arity - l + arities))
    return brace(p, qs)


def gerstenhaber_bracket(p: PolyDiffOperator, q: PolyDiffOperator) -> PolyDiffOperator:
    """[P, Q] = P{Q} - (-1)^((p-1)(q-1)) Q{P}; over-arity braces contribute 0."""
    first = _brace_or_zero(p, [q])
    second = _brace_or_zero(q, [p])
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
    res: dict[tuple, Polynomial] = {}
    norm = Fraction(1, math.factorial(k))
    for (e, mask), coeff in x.terms.items():
        indices = bits_of(mask)
        for perm in itertools.permutations(range(k)):
            inversions = sum(
                1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
            )
            alphas = []
            for j in range(k):
                a = [0] * ctx.n
                a[indices[perm[j]] - 1] = 1
                alphas.append(tuple(a))
            key = tuple(alphas)
            piece = coeff * norm
            if inversions & 1:
                piece = -piece
            accumulate(res, key, piece)
    return PolyDiffOperator(ctx, k, res)
