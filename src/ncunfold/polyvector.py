"""The graded super-commutative algebra A[eps, d_1, ..., d_n].

Elements are sums of terms  c * eps^e * d_{i_1} ^ ... ^ d_{i_k}  with
polynomial coefficients c, an even generator eps of degree 2, and odd
generators d_i of degree 1 (d_i is the coordinate vector field along x_i).
The degree of a term is 2e + k.

The bracket implemented here is the unique degree -1 biderivation with

    [d_i, a] = da/dx_i      [d_i, d_j] = 0      [eps, -] = 0
    [a, b]   = 0            (a, b polynomials)

extended by graded antisymmetry

    [X, Y] = -(-1)^((|X|-1)(|Y|-1)) [Y, X]

and the graded Leibniz rule

    [X, Y ^ Z] = [X, Y] ^ Z + (-1)^((|X|-1)|Y|) Y ^ [X, Z].

These generator values plus the two rules pin every sign in the library;
all "up to sign" expectations in the test-suite use this convention.

They make the bracket the odd Poisson bracket on T*[1] (Kontsevich,
q-alg/9709040), which is what `schouten_bracket` evaluates directly:

    [X, Y] = sum_i (X d<-/dd_i)(dY/dx_i)
             - (-1)^((|X|-1)(|Y|-1)) (Y d<-/dd_i)(dX/dx_i)

where d<-/dd_i is the right derivative in the odd generator, taking
d_I to (-1)^#{j in I : j > i} d_{I - i} when i is in I.  eps is central
and bracket-inert, so eps powers just add.

With half(a, b) the first sum on terms a, b and sigma(a, b) = +1 when both
wedge parts are even, -1 otherwise, relabelling the second sum gives

    [X, X] = sum_{a, b} (1 + sigma(a, b)) half(a, b):

term pairs with an odd wedge part cancel and the rest count twice.

On an element of degree 2, such as a coefficient p*eps + S of a
deformation series w, every term is even, so (1/2)[X, X] is the sum of
half(a, b) over the ordered pairs of its terms; a term without odd part
contributes only as b.  Reading h as an even, bracket-inert generator like
eps, the same sum runs over a whole series at once.  With W = w - f*eps,
f*eps at h^0, graded antisymmetry in degree 2 gives [f*eps, w] = [w, f*eps]
and [f*eps, f*eps] = 0, so the Maurer-Cartan residual is one square:

    dw + (1/2)[w, w] = -[f*eps, w] + (1/2)[w, w] = (1/2)[W, W],

the sum of half(a, b) over ordered pairs of terms a at h^i, b at h^j with
i + j <= the truncation order.  `mc_residual` and `_square` are that one
pair loop, `_half_square`, with and without h.

Arithmetic of the bracket: `schouten_bracket` and `_half_square` read each
operand once as integer numerators over one denominator, the lcm of its
term denominators (`poly.numerators`), and take each operand term's d/dx_i
at most once.  Every product of numerators is added straight into one
{exps: int} map per output term, (eps power, mask) and for `_half_square`
its h power, by `poly.product_kernel(n)`; at the end `poly.collect` makes
each nonzero output term one polynomial, one `from_ints` over the product
of the two denominators.  No Polynomial arithmetic runs in between.
Hochschild `brace` runs on the same three helpers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextMismatch
from .poly import (
    HSeries,
    Polynomial,
    RingContext,
    TermMap,
    accumulate,
    collect,
    numerators,
    product_kernel,
)


def bits_of(mask: int) -> tuple[int, ...]:
    """1-based odd generator indices present in a bitmask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def _merge_sign(m1: int, m2: int) -> int:
    """Parity (+1/-1) of sorting the concatenation d_{m1} d_{m2}; 0 on overlap."""
    if m1 & m2:
        return 0
    swaps = 0
    m = m2
    j = 0
    while m:
        if m & 1:
            swaps += (m1 >> (j + 1)).bit_count()
        m >>= 1
        j += 1
    return -1 if swaps & 1 else 1


class GElement(TermMap):
    """Element of A[eps, d_1..d_n]; terms keyed by (eps power, odd bitmask)."""

    __slots__ = ()

    def __init__(self, ctx: RingContext, terms: dict | None = None):
        self.ctx = ctx
        clean: dict[tuple[int, int], Polynomial] = {}
        if terms:
            for (e, mask), coeff in terms.items():
                if e < 0:
                    raise ValueError("negative eps power")
                if mask >> ctx.n:
                    raise ValueError("odd index out of range")
                if coeff.ctx != ctx:
                    raise ContextMismatch("coefficient from a different ring")
                if not coeff.is_zero():
                    clean[(e, mask)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "GElement":
        return cls(p.ctx, {(0, 0): p})

    @classmethod
    def eps(cls, ctx: RingContext, power: int = 1) -> "GElement":
        return cls(ctx, {(power, 0): Polynomial.one(ctx)})

    @classmethod
    def gen(cls, ctx: RingContext, i: int) -> "GElement":
        """The odd generator d_i (1-based)."""
        if not 1 <= i <= ctx.n:
            raise IndexError(f"odd index {i} out of range 1..{ctx.n}")
        return cls(ctx, {(0, 1 << (i - 1)): Polynomial.one(ctx)})

    @classmethod
    def wedge_monomial(cls, ctx: RingContext, indices, coeff: Polynomial | None = None) -> "GElement":
        """d_{i_1} ^ ... ^ d_{i_k} for strictly increasing indices."""
        idx = tuple(indices)
        if any(not 1 <= i <= ctx.n for i in idx):
            raise IndexError("odd index out of range")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        c = coeff if coeff is not None else Polynomial.one(ctx)
        return cls(ctx, {(0, mask_of(idx)): c})

    # -- structure ----------------------------------------------------------

    def is_polyvector(self) -> bool:
        """True iff eps-free."""
        return all(e == 0 for e, _ in self.terms)

    def degrees(self) -> set[int]:
        """Cohomological degrees 2e + |I| present."""
        return {2 * e + m.bit_count() for e, m in self.terms}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if degree is not None:
            return degs <= {degree}
        return len(degs) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element (0 for the zero element)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def wedge_degrees(self) -> set[int]:
        return {m.bit_count() for e, m in self.terms}

    def polynomial_part(self) -> Polynomial:
        return self.terms.get((0, 0), Polynomial.zero(self.ctx))

    def wedge_components(self, k: int) -> dict[tuple[int, ...], Polynomial]:
        """Coefficients of the eps-free wedge-degree-k part, keyed by index tuple."""
        out = {}
        for (e, m), c in self.terms.items():
            if e == 0 and m.bit_count() == k:
                out[bits_of(m)] = c
        return out

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        """Graded-commutative (wedge) product; eps is even, d_i odd."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Polynomial):
            other = GElement.from_polynomial(other)
        if not isinstance(other, GElement):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ContextMismatch("mixed contexts")
        res: dict[tuple[int, int], Polynomial] = {}
        for (e1, m1), c1 in self.terms.items():
            for (e2, m2), c2 in other.terms.items():
                sign = _merge_sign(m1, m2)
                if sign == 0:
                    continue
                piece = c1 * c2 if sign > 0 else -(c1 * c2)
                accumulate(res, (e1 + e2, m1 | m2), piece)
        return self._make(self.ctx, res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return self * other
        return NotImplemented

    # -- presentation -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, int], Polynomial]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (2 * t[0][0] + t[0][1].bit_count(), t[0][0], t[0][1]),
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (e, mask), coeff in self.sorted_terms():
            tail = []
            if e == 1:
                tail.append("E")
            elif e > 1:
                tail.append(f"E^{e}")
            if mask:
                tail.append("D(" + ",".join(str(i) for i in bits_of(mask)) + ")")
            text = str(coeff)
            if len(coeff.nums) > 1:
                sign = "+"
                body = "*".join([f"({text})"] + tail) if tail or parts else text
            else:  # one term: its sign joins the sum, and a bare 1 drops before E or D
                sign, text = ("-", text[1:]) if text[0] == "-" else ("+", text)
                body = "*".join(([] if text == "1" and tail else [text]) + tail)
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"GElement({self})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"eps": e, "odd": list(bits_of(mask)), "coeff": c.to_json()}
                for (e, mask), c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, ctx: RingContext, data: dict) -> "GElement":
        acc = cls.zero(ctx)
        for t in data["terms"]:
            coeff = Polynomial.from_json(ctx, t["coeff"])
            part = cls(ctx, {(t["eps"], mask_of(t["odd"])): coeff})
            acc = acc + part
        return acc


# ---------------------------------------------------------------------------
# the bracket

def _add_half(acc: dict, e: int, ma: int, a: dict, mb: int, kb, b: dict, cache: dict,
              sign: int, kernel) -> None:
    """Add sign * sum_i (A right-d/dd_i)(dB/dx_i) for A = a d_ma, B = b d_mb at
    eps^e to acc, the integer numerators summed per output key (eps, mask)
    by the ring's product kernel.  The items of dB/dx_i are kept in cache
    under (kb, i), B's term key."""
    for i in bits_of(ma):
        rest = ma ^ (1 << (i - 1))
        s = sign * _merge_sign(rest, mb)
        if s == 0:
            continue
        db = cache.get((kb, i))
        if db is None:
            j = i - 1
            db = cache[kb, i] = [
                (exps[:j] + (exps[j] - 1,) + exps[i:], c * exps[j])
                for exps, c in b.items() if exps[j]
            ]
        if not db:
            continue
        if (ma >> i).bit_count() & 1:  # move d_i past the d_j with j > i
            s = -s
        kernel(acc.setdefault((e, rest | mb), {}), a.items(), db, s)


def schouten_bracket(x: GElement, y: GElement) -> GElement:
    """The degree -1 bracket fixed by the header convention of this module,
    evaluated term pair by term pair with the closed form given there."""
    if x.ctx != y.ctx:
        raise ContextMismatch("mixed contexts")
    xs, dx = numerators(x.terms.items())
    ys, dy = numerators(y.terms.items())
    kernel = product_kernel(x.ctx.n)
    cx, cy, acc = {}, {}, {}
    for k1, a in xs:
        e1, m1 = k1
        for k2, b in ys:
            e2, m2 = k2
            _add_half(acc, e1 + e2, m1, a, m2, k2, b, cy, 1, kernel)
            # -(-1)^((|X|-1)(|Y|-1)): eps has even degree, only |I| parity counts
            both_even = not (m1.bit_count() & 1 or m2.bit_count() & 1)
            _add_half(acc, e1 + e2, m2, b, m1, k1, a, cx, 1 if both_even else -1, kernel)
    return GElement._make(x.ctx, collect(x.ctx, acc, dx * dy))


def _half_square(ctx: RingContext, terms: dict, order: int) -> dict:
    """(1/2)[X, X] for X = sum c h^k eps^e d_mask, given as terms
    {(k, e, mask): c} in increasing k, through h^order: {k: GElement}.

    By the closed form in the header, one half per ordered pair of even
    terms with k1 + k2 <= order; odd terms cancel and are dropped."""
    nums, den = numerators(terms.items())
    even = [(key, a) for key, a in nums if not key[2].bit_count() & 1]
    kernel = product_kernel(ctx.n)
    cache, accs = {}, {}
    for (k1, e1, m1), a in even:
        if not m1:  # no odd part: half(a, -) is zero
            continue
        for key2, b in even:
            k2, e2, m2 = key2
            if k1 + k2 > order:
                break
            _add_half(accs.setdefault(k1 + k2, {}), e1 + e2, m1, a, m2, key2, b, cache, 1, kernel)
    return {k: GElement._make(ctx, collect(ctx, acc, den * den)) for k, acc in accs.items()}


def _square(x: GElement) -> GElement:
    """(1/2)[X, X]: `_half_square` without h."""
    halves = _half_square(x.ctx, {(0, e, m): c for (e, m), c in x.terms.items()}, 0)
    return halves.get(0, GElement.zero(x.ctx))


def ad_f(f: Polynomial, x: GElement) -> GElement:
    """[f, x]: the Koszul differential on polyvector fields."""
    return schouten_bracket(GElement.from_polynomial(f), x)


def g_differential(f: Polynomial, x: GElement) -> GElement:
    """-[f*eps, x]: the inner differential of the graded algebra."""
    feps = GElement.from_polynomial(f) * GElement.eps(f.ctx)
    return -schouten_bracket(feps, x)


def _check_degree_one(w: HSeries, ctx: RingContext) -> None:
    if 0 in w.terms or not isinstance(w.zero, GElement):
        raise ValueError("deformation series must vanish at h^0")
    for c in w.terms.values():
        for (e, m) in c.terms:
            if not ((e == 1 and m == 0) or (e == 0 and m.bit_count() == 2)):
                raise ValueError(
                    "series coefficients must lie in A*eps + wedge-degree 2"
                )


def mc_residual(f: Polynomial, w: HSeries) -> HSeries:
    """dw + (1/2)[w, w] for a deformation series w with coefficients p*eps + S.

    The coefficients have degree 2, so by the header this is (1/2)[W, W]
    for W = w - f*eps: one `_half_square` over the terms of every order,
    f*eps at h^0, truncated at the order of w."""
    _check_degree_one(w, f.ctx)
    terms = {} if f.is_zero() else {(0, 1, 0): -f}
    for k, x in w.terms.items():
        for (e, m), c in x.terms.items():
            terms[k, e, m] = c
    return HSeries.sparse(_half_square(f.ctx, terms, w.order), w.order, w.zero)


def bivector_square(s: GElement) -> GElement:
    """[S, S] of a wedge-degree-2 polyvector; zero iff S is Poisson."""
    if not s.is_polyvector():
        raise ValueError("bivector must be eps-free")
    if not s.wedge_degrees() <= {2}:
        raise ValueError("bivector must be homogeneous of wedge degree 2")
    return _square(s).scale(2)
