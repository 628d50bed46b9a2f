"""Singularity-theoretic analysis of a polynomial f.

Jacobian ideal, Milnor number, isolatedness, the monomial complement W of
the Jacobian ideal, and the monicizing coordinate change x_i -> x_i + x_n^N_i.
The Milnor number is the dimension of the global quotient
k[x_1..x_n] / (df/dx_1, ..., df/dx_n).
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from fractions import Fraction

from .errors import NotIsolated
from .groebner import (
    GREVLEX,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    quotient_dimension,
    standard_monomials,
)
from .poly import INFINITE, Polynomial, RingContext, Substitution, Value, from_ints


class JacobianData(Value):
    """Partials, the reduced Groebner basis gb of the ideal J they span, the
    Milnor number (an int or "infinite"), and the standard-monomial basis of
    the complement W.  gb may be given as a function of no arguments, called
    on the first read: `jacobian` gives one when it read the Milnor number
    and W off the leading forms of the partials."""

    __slots__ = ("partials", "_gb", "milnor", "w_basis")
    _fields = ("partials", "gb", "milnor", "w_basis")

    def __init__(self, partials: tuple[Polynomial, ...], gb: GroebnerBasis, milnor,
                 w_basis: tuple[tuple, ...]):
        self._set(partials, gb, milnor, w_basis)

    @property
    def gb(self) -> GroebnerBasis:
        if not isinstance(self._gb, GroebnerBasis):
            object.__setattr__(self, "_gb", self._gb())
        return self._gb

    def report(self) -> dict:
        return {
            "milnor": self.milnor,
            "w_basis": [list(e) for e in self.w_basis],
            "isolated": self.milnor != INFINITE,
        }


_PACKAGE = os.path.dirname(__file__) + os.sep


def _require_nonconstant(f: Polynomial) -> None:
    """ValueError for a constant f; a UserWarning for a nonzero constant
    term, attributed to the innermost caller outside this package.  Each
    public entry point calls this once, so a call warns at most once."""
    if f.is_constant():
        raise ValueError("f must be nonconstant")
    if f.constant_term() != 0:
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
            frame, level = frame.f_back, level + 1
        warnings.warn("f has a nonzero constant term; the Jacobian ideal is unaffected",
                      stacklevel=level)


def _top_form(p: Polynomial) -> Polynomial:
    """The homogeneous part of p of top degree; p itself when p is homogeneous."""
    d = p.total_degree()
    top = {e: c for e, c in p.nums.items() if sum(e) == d}
    return p if len(top) == len(p.nums) else from_ints(p.ctx, top, p.den)


def _may_be_regular(forms: tuple[Polynomial, ...]) -> bool:
    """False when the n forms have a common zero besides 0 by one of two key
    lookups: no form holds a pure power of some x_i (then the x_i axis is
    one), or two forms are proportional (then n - 1 forms span the ideal)."""
    n = len(forms)
    degrees = [t.total_degree() for t in forms]
    if not all(any((0,) * i + (d,) + (0,) * (n - 1 - i) in t.nums for t, d in zip(forms, degrees))
               for i in range(n)):
        return False
    return not any(a.nums.keys() == b.nums.keys()
                   and len({Fraction(a.nums[m], b.nums[m]) for m in a.nums}) < 2
                   for j, a in enumerate(forms) for b in forms[j + 1:])


def jacobian(
    f: Polynomial,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> JacobianData:
    """Partials, reduced GB of the Jacobian ideal J, Milnor number, W basis.

    Under grevlex, when the top forms t of the partials are not the partials
    and k[x]/(t) is finite, t is a regular sequence, the partials are an
    H-basis of J and LT(J) = LT((t)): mu and W are read off the basis of (t),
    and that of J is built on the first read of `gb`.  Otherwise, and under
    lex, both come from the basis of J.  Every basis obeys max_degree.
    """
    _require_nonconstant(f)
    partials = tuple(f.partial(i) for i in range(1, f.ctx.n + 1))
    gb = functools.partial(buchberger, partials, order, max_degree)
    tops = tuple(map(_top_form, partials)) if order == GREVLEX else partials
    basis = None
    if tops != partials and _may_be_regular(tops):
        basis = buchberger(tops, order, max_degree)
    if basis is None or quotient_dimension(basis) == INFINITE:
        basis = gb = gb()
    mu = quotient_dimension(basis)
    w_basis = () if mu == INFINITE else tuple(standard_monomials(basis))
    return JacobianData(partials=partials, gb=gb, milnor=mu, w_basis=w_basis)


def milnor_number(f: Polynomial, max_degree: int | None = None):
    """dim k[x]/(df/dx_1..df/dx_n), or "infinite"."""
    return jacobian(f, max_degree=max_degree).milnor


def is_isolated(f: Polynomial, max_degree: int | None = None) -> bool:
    """True iff the Milnor number is finite (partials form a regular sequence)."""
    return milnor_number(f, max_degree=max_degree) != INFINITE


def qc_subspace(f: Polynomial | Singularity) -> list[tuple]:
    """Monomial basis of the canonical complement W of the Jacobian ideal;
    f is a Polynomial or a Singularity."""
    return list(Singularity.of(f).isolated_jacobian().w_basis)


class Singularity(Value):
    """A polynomial f viewed as a map-germ; the base ring k[y] acts via y = f.

    Owner of the data derived from the Jacobian ideal of f: its
    JacobianData is computed on first use, once, under the degree guard
    max_degree given here, and kept out of equality.  The unfolding
    functions accept a Singularity in place of f and hand it on, so one
    top-level call computes it once; this is the only place they take a
    degree guard from.
    """

    __slots__ = ("f", "max_degree", "_jacobian")
    _fields = ("f", "max_degree")

    def __init__(self, f: Polynomial, max_degree: int | None = None):
        _require_nonconstant(f)
        self._set(f, max_degree, None)

    @classmethod
    def of(cls, f) -> "Singularity":
        """f itself when it is a Singularity, else Singularity(f), unguarded."""
        return f if isinstance(f, Singularity) else cls(f)

    @property
    def ctx(self) -> RingContext:
        return self.f.ctx

    def jacobian(self) -> JacobianData:
        if self._jacobian is None:
            # f's constant term was warned of on construction and changes no
            # partial, so the data is computed without it, warning no more
            f = self.f
            c = f.constant_term()
            data = jacobian(f - c if c else f, max_degree=self.max_degree)
            object.__setattr__(self, "_jacobian", data)
        return self._jacobian

    def isolated_jacobian(self) -> JacobianData:
        """The JacobianData; NotIsolated when the Milnor number is infinite."""
        data = self.jacobian()
        if data.milnor == INFINITE:
            raise NotIsolated("f is not an isolated singularity")
        return data

    def milnor_number(self):
        return self.jacobian().milnor

    def is_isolated(self) -> bool:
        return self.milnor_number() != INFINITE


def _xn_lead(f: Polynomial) -> Polynomial:
    d = f.degree_in(f.ctx.n)
    return f.coefficient_of_power(f.ctx.n, d)


def is_monic_in_last(f: Polynomial) -> bool:
    """True iff the leading x_n coefficient of f is a nonzero constant."""
    return _xn_lead(f).is_constant()


def monicize(f: Polynomial) -> tuple[Substitution, Polynomial]:
    """A substitution x_i -> x_i + x_n^N_i (i < n) making f monic in x_n.

    Already-monic inputs get the identity.  The first candidate takes
    N_i = deg_{x_n}(f) + i; if a coefficient cancellation defeats it, the
    fallback N_i = (1 + deg f + k)^i separates the weighted degrees of all
    monomials of f and is guaranteed to work.
    """
    _require_nonconstant(f)
    ctx = f.ctx
    if is_monic_in_last(f):
        return Substitution.identity(ctx), f
    n = ctx.n

    def candidate(exponents: list[int]) -> Substitution:
        images = []
        xn = Polynomial.variable(ctx, n)
        for i in range(1, n):
            images.append(Polynomial.variable(ctx, i) + xn ** exponents[i - 1])
        images.append(xn)
        return Substitution(ctx, tuple(images))

    d_n = max(f.degree_in(n), 0)
    attempts = [[d_n + i for i in range(1, n)]]
    base = f.total_degree() + 1
    attempts.append([base ** i for i in range(1, n)])
    for exponents in attempts:
        sigma = candidate(exponents)
        image = sigma(f)
        if is_monic_in_last(image):
            return sigma, image
    raise AssertionError("geometric exponents must monicize")  # unreachable


# -- catalog of classical test singularities (n = 3) -------------------------

ADE_CONTEXT = RingContext(("x", "y", "z"))


def _xyz():
    return (
        Polynomial.variable(ADE_CONTEXT, 1),
        Polynomial.variable(ADE_CONTEXT, 2),
        Polynomial.variable(ADE_CONTEXT, 3),
    )


def a_k(k: int) -> Polynomial:
    x, y, z = _xyz()
    return x ** (k + 1) + y ** 2 + z ** 2


def d_k(k: int) -> Polynomial:
    x, y, z = _xyz()
    return x ** (k - 1) + x * y ** 2 + z ** 2


def e_6() -> Polynomial:
    x, y, z = _xyz()
    return x ** 3 + y ** 4 + z ** 2


def e_7() -> Polynomial:
    x, y, z = _xyz()
    return x ** 3 + x * y ** 3 + z ** 2


def e_8() -> Polynomial:
    x, y, z = _xyz()
    return x ** 3 + y ** 5 + z ** 2


def ade_catalog() -> list[tuple[str, Polynomial]]:
    entries = [(f"A{k}", a_k(k)) for k in range(1, 7)]
    entries.append(("D4", d_k(4)))
    entries.append(("E6", e_6()))
    entries.append(("E7", e_7()))
    entries.append(("E8", e_8()))
    return entries
