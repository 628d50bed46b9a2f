"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent tuples to nonzero coefficients.
Serialized forms order terms by graded reverse lexicographic order with
x_1 < x_2 < ... < x_n.  Everything here is immutable after construction
and safe to share between threads.

Arithmetic contract: a polynomial is stored as integer numerators
``nums`` over one denominator ``den > 0``, kept canonical: no zero
numerator, gcd(den, all numerators) = 1, and the zero polynomial is
({}, 1).  So equality and hashing compare (ring, den, nums) exactly.  Sums
rescale once to the lcm of the two denominators; negation, scalar
products, derivatives and products are integer loops with one gcd pass to
restore the canonical form.  Every product of two numerator maps, here,
in the Schouten bracket and in brace, runs through one kernel per number of
variables n, ``product_kernel(n)``: it is built once per n from one source
template and adds each exponent pair unpacked by name, (x0 + y0, ...,
x{n-1} + y{n-1}), so keys stay plain tuples.  ``terms`` is a read-only
Fraction view, built on each read.  Printing and serialization read
``nums``/``den`` in grevlex order and bring each coefficient to lowest
terms with one gcd; they build no Fraction.  ``Value`` is the base of the
library's immutable records.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import ge, neg, sub
from types import MappingProxyType

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
    return (sum(exps), tuple(map(neg, exps)))


def lex_key(exps: tuple) -> tuple:
    # lex with x_n highest priority, consistent with x_1 < ... < x_n.
    return tuple(reversed(exps))


# ---------------------------------------------------------------------------
# decimal strings of any length
#
# The interpreter converts at most sys.get_int_max_str_digits() digits with
# str and int (4300 by default, at least 640 when set).  Both converters
# below split on powers 10^(_CHUNK * 2^j) down to blocks of _CHUNK digits,
# which str and int convert under any setting, and read no process state.

_CHUNK = 512  # digits per block, below the least limit the interpreter accepts
_BLOCK = 10**_CHUNK


def to_decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if -_BLOCK < n < _BLOCK:
        return str(n)
    if n < 0:
        return "-" + to_decimal(-n)
    powers = [_BLOCK]  # powers[j] = 10^(_CHUNK * 2^j)
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def write(m: int, j: int, pad: bool) -> str:
        """m < powers[j + 1], padded to _CHUNK * 2^(j + 1) digits if pad."""
        if j < 0:
            return str(m).zfill(_CHUNK) if pad else str(m)
        hi, lo = divmod(m, powers[j])
        if not (hi or pad):
            return write(lo, j - 1, False)
        return write(hi, j - 1, pad) + write(lo, j - 1, True)

    return write(n, len(powers) - 2, False)


_DECIMAL_RE = re.compile(r"\s*([+-]?)([0-9]+)\s*\Z")


def from_decimal(text: str) -> int:
    """int(text) for a decimal string of any length; past _CHUNK characters
    it must be ASCII digits with an optional sign and surrounding spaces."""
    if len(text) <= _CHUNK:
        return int(text)
    match = _DECIMAL_RE.match(text)
    if match is None:
        raise ValueError(f"invalid decimal integer of {len(text)} characters")
    sign, digits = match.groups()
    powers: dict[int, int] = {}

    def read(s: str) -> int:
        if len(s) <= _CHUNK:
            return int(s)
        k = _CHUNK << ((len(s) - 1) // _CHUNK).bit_length() - 1  # largest _CHUNK * 2^j < len(s)
        p = powers.get(k)
        if p is None:
            p = powers[k] = 10 ** k
        return read(s[:-k]) * p + read(s[-k:])

    value = read(digits)
    return -value if sign == "-" else value


# ---------------------------------------------------------------------------
# the product kernel

_KERNEL_TEMPLATE = """\
def kernel(acc, a, b, s):
    get = acc.get
    for ({xs},), ca in a:
        ca *= s
        for ({ys},), cb in b:
            e = ({sums},)
            acc[e] = get(e, 0) + ca * cb
"""


@functools.cache
def product_kernel(n: int):
    """The product kernel of n-variable exponent tuples, built once per n.

    ``kernel(acc, a, b, s)`` adds s * ca * cb into acc[ea + eb] for every
    (ea, ca) of ``a`` and (eb, cb) of ``b``, in that loop order; both hold
    (exponent tuple, int) pairs, and ``b`` is read once per item of ``a``,
    so it must be a collection.  A sum that cancels stays in ``acc`` as 0.
    The source is filled in from the integer n only.
    """
    xs, ys = (", ".join(f"{v}{i}" for i in range(n)) for v in "xy")
    sums = ", ".join(f"x{i} + y{i}" for i in range(n))
    namespace: dict = {}
    exec(_KERNEL_TEMPLATE.format(xs=xs, ys=ys, sums=sums), namespace)
    return namespace["kernel"]


def int_product(kernel, a, b) -> dict:
    """The product of two numerator collections by `kernel`, the product
    kernel of their ring, as {exps: int} with the cancelled sums removed."""
    acc: dict = {}
    kernel(acc, a, b, 1)
    return {e: v for e, v in acc.items() if v}


def _rebuild(cls, values: tuple):
    """The instance of a Value class whose slots hold values, built without
    its __init__ (copy and pickle)."""
    out = object.__new__(cls)
    out._set(*values)
    return out


class Value:
    """Base of the immutable record classes.

    A subclass declares its attributes in ``__slots__``, sets them in its
    own ``__init__`` (with ``_set``), and lists in ``_fields`` the ones that
    ``==``, ``hash`` and ``repr`` read (a cache stays out).  Two values are
    equal when they are of one class and their fields are equal.
    Assignment and deletion raise AttributeError; copy and pickle rebuild
    an instance from its slots, without running ``__init__``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, *values) -> None:
        """Set the slots, in order, to values."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), tuple(map(self.__getattribute__, self.__slots__)))


class RingContext(Value):
    """The ambient ring k[x_1, ..., x_n], fixed by its ordered variable names;
    n is their number."""

    __slots__ = ("names", "n")
    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if isinstance(names, list):
            names = tuple(names)
        if len(names) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in RESERVED_NAMES:
                raise ValueError(f"variable name {name!r} is reserved")
        self._set(names, len(names))

    # written out: `!=` on rings runs in every arithmetic operation's check
    def __eq__(self, other):
        if other.__class__ is not RingContext:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

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
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch(f"rings differ: {a.ctx.names} vs {b.ctx.names}")


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value in a map to ring elements that stores no zero."""
    s = acc.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def from_ints(ctx: RingContext, nums: dict, den: int) -> "Polynomial":
    """The polynomial nums / den, brought to canonical form; nums must hold
    no zero value and den must be positive."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    out = Polynomial.__new__(Polynomial)
    out.ctx, out.nums, out.den = ctx, nums, den
    return out


def numerators(items, den: int = 0) -> tuple[list, int]:
    """A collection of (key, Polynomial) pairs as (key, {exps: int}) pairs
    over one denominator: den, which each polynomial's divides, by default the
    lcm of theirs.  Returns (pairs, den); a map equal to a polynomial's is its nums."""
    den = den or math.lcm(*[c.den for _, c in items])
    return [(k, c.nums if c.den == den else {m: v * (den // c.den) for m, v in c.nums.items()})
            for k, c in items], den


def collect(ctx: RingContext, acc: dict, den: int) -> dict:
    """{key: Polynomial} from acc, {key: {exps: int}} numerator sums over den
    that may hold cancelled zeros: one `from_ints` per key with a nonzero sum."""
    nonzero = ((key, {m: v for m, v in sums.items() if v}) for key, sums in acc.items())
    return {key: from_ints(ctx, nums, den) for key, nums in nonzero if nums}


class Polynomial:
    """Sparse exact polynomial: integer numerators over one denominator.

    ``nums`` maps exponent tuples to nonzero ints and ``den`` is the common
    denominator; both are read-only.  ``terms`` is the same polynomial as
    a read-only map from exponent tuples to Fractions.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: RingContext, terms: dict | None = None):
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
        # the lcm of reduced denominators leaves no content shared with it
        den = math.lcm(*[c.denominator for c in clean.values()])
        self.ctx, self.den = ctx, den
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {exps: Fraction} view, built on each read."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.nums.items()})

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: RingContext) -> "Polynomial":
        return from_ints(ctx, {}, 1)

    @classmethod
    def constant(cls, ctx: RingContext, value) -> "Polynomial":
        q = Fraction(value)  # in lowest terms: no gcd to take, as from_ints would
        out = cls.__new__(cls)
        out.ctx, out.nums, out.den = ctx, {(0,) * ctx.n: q.numerator} if q else {}, q.denominator
        return out

    @classmethod
    def one(cls, ctx: RingContext) -> "Polynomial":
        return from_ints(ctx, {(0,) * ctx.n: 1}, 1)

    @classmethod
    def variable(cls, ctx: RingContext, i: int) -> "Polynomial":
        """The variable x_i, 1-based."""
        if not 1 <= i <= ctx.n:
            raise IndexError(f"variable index {i} out of range 1..{ctx.n}")
        exps = [0] * ctx.n
        exps[i - 1] = 1
        return from_ints(ctx, {tuple(exps): 1}, 1)

    @classmethod
    def monomial(cls, ctx: RingContext, exps: tuple, coeff=1) -> "Polynomial":
        return cls(ctx, {tuple(exps): Fraction(coeff)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        zero = (0,) * self.ctx.n
        return all(e == zero for e in self.nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.ctx.n, 0), self.den)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign: int) -> "Polynomial":
        """self + sign * other for sign = 1 or -1, on the lcm of the denominators."""
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.ctx, other)
        _check_ctx(self, other)
        if not other.nums:
            return self
        da, db = self.den, other.den
        if da == db:
            res = dict(self.nums)
        else:
            g = math.gcd(da, db)
            ma = db // g
            sign *= da // g
            da *= ma
            res = {e: c * ma for e, c in self.nums.items()}
        get = res.get
        for e, c in other.nums.items():
            s = get(e, 0) + sign * c
            if s:
                res[e] = s
            else:
                del res[e]
        return from_ints(self.ctx, res, da)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return from_ints(self.ctx, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return Polynomial.zero(self.ctx)
            p = other.numerator
            return from_ints(
                self.ctx, {e: c * p for e, c in self.nums.items()}, self.den * other.denominator
            )
        _check_ctx(self, other)
        nums = int_product(product_kernel(self.ctx.n), self.nums.items(), other.nums.items())
        return from_ints(self.ctx, nums, self.den * other.den)

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
        return self.den == other.den and self.nums == other.nums and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # -- calculus -----------------------------------------------------------
    # The exponent maps of partial and derive are injective, so no two
    # terms meet and only vanishing ones drop.

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.ctx.n:
            raise IndexError(f"variable index {i} out of range 1..{self.ctx.n}")
        j = i - 1
        res = {}
        for exps, c in self.nums.items():
            e = exps[j]
            if e:
                res[exps[:j] + (e - 1,) + exps[i:]] = c * e
        return from_ints(self.ctx, res, self.den)

    def derive(self, alpha: tuple) -> "Polynomial":
        """Iterated partial derivative d^alpha, no factorial normalization."""
        if len(alpha) != self.ctx.n:
            raise ValueError("multi-index arity mismatch")
        if not any(alpha):
            return self
        res = {}
        for exps, c in self.nums.items():
            if all(map(ge, exps, alpha)):
                for e, a in zip(exps, alpha):
                    if a:
                        c *= math.perm(e, a)
                res[tuple(map(sub, exps, alpha))] = c
        return from_ints(self.ctx, res, self.den)

    # -- degrees ------------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(map(sum, self.nums))

    def degree_in(self, i: int) -> int:
        """Degree in x_i (1-based); -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(e[i - 1] for e in self.nums)

    def coefficient_of_power(self, i: int, d: int) -> "Polynomial":
        """Coefficient of x_i^d, as a polynomial with the x_i exponent removed."""
        j = i - 1
        res = {exps[:j] + (0,) + exps[i:]: c for exps, c in self.nums.items() if exps[j] == d}
        return from_ints(self.ctx, res, self.den)

    # -- presentation -------------------------------------------------------

    def _grevlex_terms(self):
        """Yield (exps, numerator, denominator) per term, highest in grevlex
        first, each coefficient in lowest terms: one gcd, no Fraction."""
        den = self.den
        for e, c in sorted(self.nums.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
            g = math.gcd(c, den)
            yield e, c // g, den // g

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for exps, num, den in self._grevlex_terms():
            mono = self.ctx.format_monomial(exps)
            mag = to_decimal(abs(num))
            if den != 1:
                mag = f"{mag}/{to_decimal(den)}"
            if mono == "1":
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"exp": list(exps), "num": to_decimal(num), "den": to_decimal(den)}
                for exps, num, den in self._grevlex_terms()
            ]
        }

    @classmethod
    def from_json(cls, ctx: RingContext, data: dict) -> "Polynomial":
        terms = {}
        for t in data["terms"]:
            exps = tuple(t["exp"])
            if any(type(e) is not int for e in exps):
                raise ValueError(f"exponents must be integers, got {list(exps)}")
            num, den = t["num"], t["den"]
            if any(type(v) not in (str, int) for v in (num, den)):
                raise ValueError(f"num and den must be strings or integers, got {num!r}/{den!r}")
            c = Fraction(*(v if type(v) is int else from_decimal(v) for v in (num, den)))
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return cls(ctx, terms)


class TermMap:
    """An element of a free module over the ring: ``terms`` maps basis keys
    to nonzero Polynomials.

    Subclasses name the basis and check its keys in their constructors;
    the linear structure is implemented here once, and `_make` is the one
    constructor that trusts its terms.  A subclass's own ``__slots__`` is
    its shape, what two summands must share besides the ring (a cochain's
    arity), so each subclass declares ``__slots__``, empty when it has no
    shape.  Elements of different classes neither add nor compare equal.
    """

    __slots__ = ("ctx", "terms")

    @classmethod
    def _make(cls, ctx: RingContext, terms: dict, *shape):
        """The element with these terms, unchecked: their keys must be valid
        and no coefficient zero; ``shape`` fills the subclass's slots."""
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        for name, value in zip(cls.__slots__, shape):
            setattr(out, name, value)
        return out

    @classmethod
    def zero(cls, ctx: RingContext, *shape):
        return cls(ctx, *shape)

    def _shape(self) -> tuple:
        slots = self.__slots__  # a class with no shape skips the map: this runs on every sum
        return tuple(map(self.__getattribute__, slots)) if slots else ()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_ctx(self, other)
        shape = self._shape()
        if other._shape() != shape:
            raise ValueError(f"{', '.join(self.__slots__)} mismatch in sum")
        res = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(res, key, c)
        return self._make(self.ctx, res, *shape)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make(self.ctx, {k: -c for k, c in self.terms.items()}, *self._shape())

    def scale(self, q):
        q = Fraction(q)
        terms = {} if q == 0 else {k: c * q for k, c in self.terms.items()}
        return self._make(self.ctx, terms, *self._shape())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.ctx == other.ctx and self._shape() == other._shape()
                and self.terms == other.terms)


class Substitution(Value):
    """A ring homomorphism x_i -> images[i].

    Composition is left-to-right: ``sigma.compose(tau)`` applies sigma
    first, then tau.
    """

    __slots__ = _fields = ("ctx", "images")

    def __init__(self, ctx: RingContext, images: tuple[Polynomial, ...]):
        if isinstance(images, list):
            images = tuple(images)
        if len(images) != ctx.n:
            raise ValueError("substitution arity mismatch")
        for im in images:
            if im.ctx != ctx:
                raise ContextMismatch("substitution image in a different ring")
        self._set(ctx, images)

    @classmethod
    def identity(cls, ctx: RingContext) -> "Substitution":
        return cls(ctx, tuple(Polynomial.variable(ctx, i) for i in range(1, ctx.n + 1)))

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ctx != self.ctx:
            raise ContextMismatch("substitution applied in a different ring")
        # power cache per variable, up to the max exponent appearing in f
        powers: list[list[Polynomial]] = []
        for j in range(self.ctx.n):
            ladder = [Polynomial.one(self.ctx)]
            for _ in range(f.degree_in(j + 1)):
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

    A series is its nonzero coefficients: ``terms`` maps each power k <=
    ``order`` whose coefficient is nonzero to that coefficient, in
    increasing k, and ``zero`` is the zero of the coefficient type.
    Everything above ``order`` is discarded, at construction and by
    arithmetic, and every operation visits only ``terms``, so its cost
    follows the nonzero coefficients, not the order.  ``coeffs`` is the
    dense view, built on each read.  Values must support ``+`` and
    ``is_zero`` (and ``*`` for products).
    """

    __slots__ = ("terms", "order", "zero")

    def __init__(self, coeffs, order: int | None = None):
        """The series sum coeffs[k] h^k; it needs order + 1 coefficients."""
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self._store(enumerate(coeffs), order, coeffs[0] - coeffs[0])

    @classmethod
    def sparse(cls, terms: dict, order: int, zero) -> "HSeries":
        """The series sum terms[k] h^k truncated at order, with the
        coefficient type's zero; zero values and powers above order are
        dropped."""
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        series = cls.__new__(cls)
        series._store(terms.items(), order, zero)
        return series

    def _store(self, items, order: int, zero) -> None:
        self.terms = MappingProxyType(
            dict(sorted((k, c) for k, c in items if k <= order and not c.is_zero()))
        )
        self.order = order
        self.zero = zero

    @property
    def coeffs(self) -> tuple:
        return tuple(self.terms.get(k, self.zero) for k in range(self.order + 1))

    def map(self, fn) -> "HSeries":
        """fn applied to each coefficient; fn must map zero to zero."""
        return HSeries.sparse(
            {k: fn(c) for k, c in self.terms.items()}, self.order, fn(self.zero)
        )

    def __add__(self, other: "HSeries") -> "HSeries":
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return HSeries.sparse(out, min(self.order, other.order), self.zero + other.zero)

    def __mul__(self, other: "HSeries") -> "HSeries":
        return self.convolve(other, lambda a, b: a * b)

    def convolve(self, other: "HSeries", op, order: int | None = None) -> "HSeries":
        """Sum over i + j = k of op(self[i], other[j]), truncated.

        ``op`` must be bilinear, so only pairs of nonzero coefficients are
        combined; the result's zero is ``op`` of the two zeros.
        """
        n = min(self.order, other.order) if order is None else order
        if n > self.order + other.order:
            raise ValueError("convolution order exceeds operand orders")
        b = list(other.terms.items())
        sums = {}
        for i, x in self.terms.items():
            for j, y in b:
                if i + j > n:
                    break
                accumulate(sums, i + j, op(x, y))
        return HSeries.sparse(sums, n, op(self.zero, other.zero))

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return (self.order, self.terms, self.zero) == (other.order, other.terms, other.zero)

    def __reduce__(self):
        # copy and pickle: the read-only view of terms takes neither
        return HSeries.sparse, (dict(self.terms), self.order, self.zero)

    def __str__(self):
        """The series as `parsing.parse_series` input: a coefficient of several
        terms is parenthesized, and a later one-term coefficient with a minus
        sign is joined with ``-`` (the grammar has no ``+ -``)."""
        parts = []
        for k, c in self.terms.items():
            text = str(c)
            h = "" if k == 0 else ("h" if k == 1 else f"h^{k}")
            body = f"({text})" if (" " in text and h) else text
            term = f"{body}*{h}" if h else body
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f"- {term[1:]}")
            else:
                parts.append(f"+ {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"HSeries(order={self.order}, {self})"
