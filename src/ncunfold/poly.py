"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent tuples to nonzero Fractions,
always kept in canonical form (no stored zero coefficients).  Serialized
forms order terms by graded reverse lexicographic order with
x_1 < x_2 < ... < x_n.  Everything here is immutable after construction
and safe to share between threads.

Arithmetic contract: a product of two polynomials is computed on integer
numerators over each operand's common denominator, with one Fraction
built per nonzero output term; every stored value stays an exact,
reduced Fraction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import ContextMismatch

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
RESERVED_NAMES = frozenset({"h", "E", "D"})

INFINITE = "infinite"


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def monomial_divides(a: tuple, b: tuple) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(exps: tuple) -> tuple:
    # graded reverse lex with x_1 < x_2 < ... < x_n: on equal total degree,
    # the monomial with the smaller power of the *earliest* differing
    # variable is the larger one.
    return (sum(exps), tuple(-e for e in exps))


def lex_key(exps: tuple) -> tuple:
    # lex with x_n highest priority, consistent with x_1 < ... < x_n.
    return tuple(reversed(exps))


@dataclass(frozen=True)
class RingContext:
    """The ambient ring k[x_1, ..., x_n], fixed by its ordered variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, list):
            object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in RESERVED_NAMES:
                raise ValueError(f"variable name {name!r} is reserved")

    @property
    def n(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        """1-based index of a variable name; KeyError if undeclared."""
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise KeyError(name) from None

    def format_monomial(self, exps: tuple) -> str:
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _check_ctx(a: "Polynomial", b: "Polynomial") -> None:
    if a.ctx != b.ctx:
        raise ContextMismatch(f"rings differ: {a.ctx.names} vs {b.ctx.names}")


class Polynomial:
    """Sparse exact polynomial; terms map exponent tuples to nonzero Fractions."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: dict | None = None):
        self.ctx = ctx
        clean: dict[tuple, Fraction] = {}
        if terms:
            n = ctx.n
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError(f"exponent arity {len(exps)} != {n}")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                c = Fraction(c)
                if c != 0:
                    clean[exps] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: RingContext) -> "Polynomial":
        return cls(ctx)

    @classmethod
    def constant(cls, ctx: RingContext, value) -> "Polynomial":
        return cls(ctx, {(0,) * ctx.n: Fraction(value)})

    @classmethod
    def one(cls, ctx: RingContext) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: RingContext, i: int) -> "Polynomial":
        """The variable x_i, 1-based."""
        if not 1 <= i <= ctx.n:
            raise IndexError(f"variable index {i} out of range 1..{ctx.n}")
        exps = [0] * ctx.n
        exps[i - 1] = 1
        return cls(ctx, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, ctx: RingContext, exps: tuple, coeff=1) -> "Polynomial":
        return cls(ctx, {tuple(exps): Fraction(coeff)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero = (0,) * self.ctx.n
        return all(e == zero for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ctx.n, Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_ctx(self, other)
        res = dict(self.terms)
        for exps, c in other.terms.items():
            s = res.get(exps, Fraction(0)) + c
            if s == 0:
                res.pop(exps, None)
            else:
                res[exps] = s
        out = Polynomial.__new__(Polynomial)
        out.ctx = self.ctx
        out.terms = res
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.ctx = self.ctx
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            out = Polynomial.__new__(Polynomial)
            out.ctx = self.ctx
            out.terms = {} if q == 0 else {e: c * q for e, c in self.terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_ctx(self, other)
        # each operand as integer numerators over its common denominator
        da = math.lcm(*[c.denominator for c in self.terms.values()])
        db = math.lcm(*[c.denominator for c in other.terms.values()])
        a = [(e, c.numerator * (da // c.denominator)) for e, c in self.terms.items()]
        b = [(e, c.numerator * (db // c.denominator)) for e, c in other.terms.items()]
        acc: dict[tuple, int] = {}
        get = acc.get
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        den = da * db
        out = Polynomial.__new__(Polynomial)
        out.ctx = self.ctx
        out.terms = {e: Fraction(v, den) for e, v in acc.items() if v}
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.ctx.n:
            raise IndexError(f"variable index {i} out of range 1..{self.ctx.n}")
        j = i - 1
        res: dict[tuple, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            new = list(exps)
            new[j] = e - 1
            key = tuple(new)
            s = res.get(key, Fraction(0)) + c * e
            if s == 0:
                res.pop(key, None)
            else:
                res[key] = s
        out = Polynomial.__new__(Polynomial)
        out.ctx = self.ctx
        out.terms = res
        return out

    def derive(self, alpha: tuple) -> "Polynomial":
        """Iterated partial derivative d^alpha, no factorial normalization."""
        if len(alpha) != self.ctx.n:
            raise ValueError("multi-index arity mismatch")
        res: dict[tuple, Fraction] = {}
        for exps, c in self.terms.items():
            factor = 1
            new = []
            ok = True
            for e, a in zip(exps, alpha):
                if e < a:
                    ok = False
                    break
                for t in range(a):
                    factor *= e - t
                new.append(e - a)
            if not ok:
                continue
            key = tuple(new)
            s = res.get(key, Fraction(0)) + c * factor
            if s == 0:
                res.pop(key, None)
            else:
                res[key] = s
        out = Polynomial.__new__(Polynomial)
        out.ctx = self.ctx
        out.terms = res
        return out

    # -- degrees ------------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        """Degree in x_i (1-based); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[i - 1] for e in self.terms)

    def coefficient_of_power(self, i: int, d: int) -> "Polynomial":
        """Coefficient of x_i^d, as a polynomial with the x_i exponent removed."""
        j = i - 1
        res = {}
        for exps, c in self.terms.items():
            if exps[j] == d:
                new = list(exps)
                new[j] = 0
                res[tuple(new)] = c
        return Polynomial(self.ctx, res)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self, reverse: bool = True) -> list[tuple[tuple, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=reverse)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = self.ctx.format_monomial(exps)
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

    def __repr__(self):
        return f"Polynomial({self})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"exp": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
                for exps, c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, ctx: RingContext, data: dict) -> "Polynomial":
        terms = {}
        for t in data["terms"]:
            exps = tuple(t["exp"])
            if any(type(e) is not int for e in exps):
                raise ValueError(f"exponents must be integers, got {list(exps)}")
            c = Fraction(int(t["num"]), int(t["den"]))
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return cls(ctx, terms)


def exact_divide(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """Return q with q*b == a exactly, or None when b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _check_ctx(a, b)
    lt_b = max(b.terms, key=grevlex_key)
    lc_b = b.terms[lt_b]
    quotient: dict[tuple, Fraction] = {}
    rem = a
    while not rem.is_zero():
        lt_r = max(rem.terms, key=grevlex_key)
        if not monomial_divides(lt_b, lt_r):
            return None
        e = monomial_div(lt_r, lt_b)
        c = rem.terms[lt_r] / lc_b
        quotient[e] = quotient.get(e, Fraction(0)) + c
        rem = rem - Polynomial.monomial(a.ctx, e, c) * b
    return Polynomial(a.ctx, quotient)


@dataclass(frozen=True)
class Substitution:
    """A ring homomorphism x_i -> images[i].

    Composition is left-to-right: ``sigma.compose(tau)`` applies sigma
    first, then tau.
    """

    ctx: RingContext
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        if isinstance(self.images, list):
            object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.ctx.n:
            raise ValueError("substitution arity mismatch")
        for im in self.images:
            if im.ctx != self.ctx:
                raise ContextMismatch("substitution image in a different ring")

    @classmethod
    def identity(cls, ctx: RingContext) -> "Substitution":
        return cls(ctx, tuple(Polynomial.variable(ctx, i) for i in range(1, ctx.n + 1)))

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ctx != self.ctx:
            raise ContextMismatch("substitution applied in a different ring")
        # power cache per variable, up to the max exponent appearing in f
        powers: list[list[Polynomial]] = []
        max_e = [0] * self.ctx.n
        for exps in f.terms:
            for j, e in enumerate(exps):
                max_e[j] = max(max_e[j], e)
        for j in range(self.ctx.n):
            ladder = [Polynomial.one(self.ctx)]
            for _ in range(max_e[j]):
                ladder.append(ladder[-1] * self.images[j])
            powers.append(ladder)
        total = Polynomial.zero(self.ctx)
        for exps, c in f.terms.items():
            term = Polynomial.constant(self.ctx, c)
            for j, e in enumerate(exps):
                if e:
                    term = term * powers[j][e]
            total = total + term
        return total

    def compose(self, then: "Substitution") -> "Substitution":
        """sigma.compose(tau): first sigma, then tau (left-to-right)."""
        return Substitution(self.ctx, tuple(then(im) for im in self.images))

    def __str__(self):
        pieces = [f"{name} -> {im}" for name, im in zip(self.ctx.names, self.images)]
        return "; ".join(pieces)


class HSeries:
    """Truncated series in the formal parameter h with values in any ring-like V.

    ``coeffs[k]`` is the coefficient of h^k; everything above ``order`` is
    discarded by arithmetic.  Values must support ``+`` (and ``*`` for
    products).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.coeffs = tuple(coeffs)
        self.order = order

    def padded(self, order: int, zero) -> "HSeries":
        if order <= self.order:
            return HSeries(self.coeffs[: order + 1], order)
        return HSeries(list(self.coeffs) + [zero] * (order - self.order), order)

    def map(self, fn) -> "HSeries":
        return HSeries([fn(c) for c in self.coeffs], self.order)

    def __add__(self, other: "HSeries") -> "HSeries":
        n = min(self.order, other.order)
        return HSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    def __sub__(self, other: "HSeries") -> "HSeries":
        n = min(self.order, other.order)
        return HSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n)

    def __neg__(self) -> "HSeries":
        return self.map(lambda c: -c)

    def scale(self, q) -> "HSeries":
        return self.map(lambda c: c * q)

    def __mul__(self, other: "HSeries") -> "HSeries":
        return self.convolve(other, lambda a, b: a * b)

    def convolve(self, other: "HSeries", op, order: int | None = None) -> "HSeries":
        """Sum over i + j = k of op(self[i], other[j]), truncated.

        ``op`` must be bilinear: pairs with a zero operand are skipped, so
        the cost follows the nonzero coefficients.  An order with no pair
        of nonzero operands gets ``op`` of one pair with a zero operand,
        which keeps the coefficient type that ``op`` returns.
        """
        n = min(self.order, other.order) if order is None else order
        if n > self.order + other.order:
            raise ValueError("convolution order exceeds operand orders")
        a = [(i, c) for i, c in enumerate(self.coeffs) if not c.is_zero()]
        b = [(j, c) for j, c in enumerate(other.coeffs) if not c.is_zero()]
        sums = [None] * (n + 1)
        for i, x in a:
            for j, y in b:
                if i + j > n:
                    break
                v = op(x, y)
                sums[i + j] = v if sums[i + j] is None else sums[i + j] + v
        out = []
        for k, acc in enumerate(sums):
            if acc is None:
                i = min(k, self.order)
                acc = op(self.coeffs[i], other.coeffs[k - i])
            out.append(acc)
        return HSeries(out, n)

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            h = "" if k == 0 else ("*h" if k == 1 else f"*h^{k}")
            parts.append(f"({c}){h}")
        return " + ".join(parts)

    def __repr__(self):
        return f"HSeries(order={self.order}, {self})"
