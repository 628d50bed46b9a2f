"""Deformation-theory payload: quasiclassical data, constructive Koszul
lifting, the exact n = 3 quantizer, and an order-by-order prober for
general n with obstruction reporting.

A solution of the deformation equation is a pair of h-series (p, S) with

    [f - p, S] = 0      and      [S, S] = 0

order by order; the residual dw + (1/2)[w, w] of w = p*eps + S decomposes
as -eps*[f - p, S] + (1/2)[S, S] under the bracket convention of
``polyvector``.  Constructive lifting against the Koszul differential
turns the first equation into a module-preimage problem.  The lift's cycle
check is the first-order condition [f, S] = 0, and its NotACycle carries
the nonzero [f, S] as ``image``, so validation takes [f, S] once.

The functions that need the Jacobian ideal take f as a Polynomial or as a
``Singularity``, which owns the degree guard max_degree and the Jacobian
data, and hand that one Singularity on, so a call computes the data once.
A guarded computation passes ``Singularity(f, max_degree)``; a Polynomial f
runs unguarded.
"""

from __future__ import annotations

import itertools

from .errors import NotACycle, QCInvalid
from .groebner import GREVLEX, ModuleElement, module_preimage, normal_form
from .poly import HSeries, Polynomial, RingContext, Value, accumulate
from .polyvector import (
    GElement,
    ad_f,
    bits_of,
    bivector_square,
    mask_of,
    mc_residual,
    schouten_bracket,
)
from .singularity import Singularity


def _wedge_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), k))


def _components(z: GElement, k: int) -> list[Polynomial]:
    ctx = z.ctx
    comp = z.wedge_components(k)
    return [comp.get(sub, Polynomial.zero(ctx)) for sub in _wedge_subsets(ctx.n, k)]


def _from_components(ctx: RingContext, k: int, values) -> GElement:
    subsets = _wedge_subsets(ctx.n, k)
    return GElement(ctx, {(0, mask_of(sub)): c for sub, c in zip(subsets, values)})


def _wedge_degree_of(z: GElement) -> int:
    degs = z.wedge_degrees()
    if len(degs) != 1:
        raise ValueError("element must be wedge-homogeneous")
    return degs.pop()


def koszul_lift(f: Polynomial | Singularity, z: GElement) -> GElement:
    """T with [f, T] == z, for a cycle z of wedge degree >= 1; f is a
    Polynomial or a Singularity.

    Distinct errors: NotIsolated when f has infinite Milnor number,
    NotACycle when [f, z] != 0, with that [f, z] as its ``image``.  For
    isolated f and a cycle z the lift always exists; the result is
    verified before returning.
    """
    sing = Singularity.of(f)
    f, ctx = sing.f, sing.ctx
    if not z.is_polyvector():
        raise ValueError("lift input must be eps-free")
    sing.isolated_jacobian()
    image = ad_f(f, z)
    if not image.is_zero():
        raise NotACycle("[f, z] != 0", image)
    if z.is_zero():
        return GElement.zero(ctx)
    k = _wedge_degree_of(z)
    if k < 1:
        raise ValueError("lift input must have wedge degree >= 1")
    # [f, -] from wedge degree k+1 to k, one column [f, d_J] per index subset J
    columns = [
        ModuleElement(_components(ad_f(f, GElement.wedge_monomial(ctx, sub)), k))
        for sub in _wedge_subsets(ctx.n, k + 1)
    ]
    b = ModuleElement(_components(z, k))
    sol = module_preimage(columns, b, GREVLEX, sing.max_degree)
    if sol is None:
        raise RuntimeError("internal: Koszul lift failed for an isolated f")
    lift = _from_components(ctx, k + 1, sol.components)
    if ad_f(f, lift) != z:
        raise RuntimeError("internal: Koszul lift verification failed")
    return lift


def qc_normalize(f: Polynomial | Singularity, p: Polynomial) -> Polynomial:
    """The W-part of p: its normal form modulo the Jacobian ideal, supported
    on W, with p - W-part in the ideal; f is a Polynomial or a Singularity.
    Idempotent on W-supported inputs.  `ideal_membership(p - W-part,
    partials)` expresses the rest over the partials."""
    sing = Singularity.of(f)
    return normal_form(p, sing.isolated_jacobian().gb, sing.max_degree).remainder


class QCViolation(Value):
    """A failed first-order condition: kind is "not_f_compatible",
    "not_poisson" or "wrong_degree"."""

    __slots__ = _fields = ("kind", "message", "element")

    def __init__(self, kind: str, message: str, element: GElement | None = None):
        self._set(kind, message, element)


class QuasiClassicalDatum(Value):
    """First-order data (p, S) with [f, S] = 0 and [S, S] = 0; p is kept both
    raw and in W-normal form, and S with its Koszul lift T (``lift``, with
    [f, T] = S) and the extension bivector S_2 = -[p, T], so [f, S_2] =
    [p, S]."""

    __slots__ = _fields = ("f", "p_raw", "p_normal", "s", "extension_bivector", "lift")

    def __init__(self, f: Polynomial, p_raw: Polynomial, p_normal: Polynomial, s: GElement,
                 extension_bivector: GElement, lift: GElement):
        self._set(f, p_raw, p_normal, s, extension_bivector, lift)


def _qc_lift(sing: Singularity, s: GElement) -> tuple[list[QCViolation], GElement | None]:
    """(violations, T) for the first-order conditions on S: an eps-free
    bivector (checked first, alone), [f, S] = 0 and [S, S] = 0; T, the
    Koszul lift of a valid S, is None otherwise.  [f, S] is taken once: for
    a Poisson S by `koszul_lift`'s cycle check, else here, lifting nothing."""
    if not s.is_polyvector() or not (s.wedge_degrees() <= {2}):
        return [QCViolation("wrong_degree", "S must be an eps-free bivector", s)], None
    ss = bivector_square(s)
    if ss.is_zero():
        try:
            return [], koszul_lift(sing, s)
        except NotACycle as e:
            return [QCViolation("not_f_compatible", "[f, S] != 0", e.image)], None
    fs = ad_f(sing.f, s)
    violations = [] if fs.is_zero() else [QCViolation("not_f_compatible", "[f, S] != 0", fs)]
    return violations + [QCViolation("not_poisson", "[S, S] != 0", ss)], None


def qc_validate(f: Polynomial | Singularity, p: Polynomial, s: GElement):
    """QuasiClassicalDatum on success, else the list of violations; f is a
    Polynomial or a Singularity.

    The second-order extendability is rechecked constructively: S is lifted
    once to T with [f, T] = S (this always succeeds for a valid datum), and
    S_2 = -[p, T] satisfies [f, S_2] = [p, S] by the Jacobi identity; both
    identities are verified.  The lift's cycle check is the condition
    [f, S] = 0, so [f, S] is taken once."""
    sing = Singularity.of(f)
    f = sing.f
    sing.isolated_jacobian()
    violations, t = _qc_lift(sing, s)
    if violations:
        return violations
    p_normal = qc_normalize(sing, p)
    pg = GElement.from_polynomial(p)
    s2 = -schouten_bracket(pg, t)
    if ad_f(f, s2) != schouten_bracket(pg, s):
        raise RuntimeError("internal: [f, -[p, T]] != [p, S]")
    return QuasiClassicalDatum(
        f=f,
        p_raw=p,
        p_normal=p_normal,
        s=s,
        extension_bivector=s2,
        lift=t,
    )


EXACT = "exact"


class MCSolution(Value):
    """Truncated (or exact polynomial-in-h) solution series.

    `order` is either a truncation order or "exact"; p_series has Polynomial
    and s_series GElement (bivector) coefficients; `witness` is a trivector
    series T with S = [f - p, T] when available.
    """

    __slots__ = _fields = ("order", "p_series", "s_series", "witness")

    def __init__(self, order, p_series: HSeries, s_series: HSeries,
                 witness: HSeries | None = None):
        self._set(order, p_series, s_series, witness)

    def h_degree(self) -> int:
        return max([*self.p_series.terms, *self.s_series.terms], default=0)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "p": [c.to_json() for c in self.p_series.coeffs],
            "S": [c.to_json() for c in self.s_series.coeffs],
            "T": None
            if self.witness is None
            else [c.to_json() for c in self.witness.coeffs],
            "residual_checked": True,
        }

    @classmethod
    def from_json(cls, ctx: RingContext, data: dict) -> "MCSolution":
        p = [Polynomial.from_json(ctx, c) for c in data["p"]]
        s = [GElement.from_json(ctx, c) for c in data["S"]]
        witness = None
        if data.get("T") is not None:
            witness = HSeries([GElement.from_json(ctx, c) for c in data["T"]])
        return cls(data["order"], HSeries(p), HSeries(s), witness)


class ObstructionReport(Value):
    """First failure of the order-by-order extension.  kind is
    "poisson_failure", the one kind: S = [f - p, T] leaves only the Poisson
    condition."""

    __slots__ = _fields = ("failing_order", "obstruction", "kind")

    def __init__(self, failing_order: int, obstruction: GElement, kind: str):
        if obstruction.is_zero():
            raise ValueError("obstruction must be nonzero")
        self._set(failing_order, obstruction, kind)


class OrderResidual(Value):
    """The three parts of the residual at one power of h."""

    __slots__ = _fields = ("h_power", "bracket_f_minus_p_s", "poisson_square", "residual")

    def __init__(self, h_power: int, bracket_f_minus_p_s: GElement, poisson_square: GElement,
                 residual: GElement):
        self._set(h_power, bracket_f_minus_p_s, poisson_square, residual)

    def is_zero(self) -> bool:
        return (
            self.bracket_f_minus_p_s.is_zero()
            and self.poisson_square.is_zero()
            and self.residual.is_zero()
        )


class MCReport(Value):
    """The residual report of `mc_verify`.

    ``nonzero`` holds the `OrderResidual` of each order with a nonzero part,
    in increasing h power; every other order through ``top``, the last one
    checked, has ``zero`` in all three parts.  ``orders`` lists every order
    0..top and is built on each read, so a reader of ``nonzero`` pays for
    the nonzero orders only.
    """

    __slots__ = _fields = ("nonzero", "top", "zero", "witness_consistent", "ok")

    def __init__(self, nonzero: tuple[OrderResidual, ...], top: int, zero: GElement,
                 witness_consistent: bool | None, ok: bool):
        self._set(nonzero, top, zero, witness_consistent, ok)

    @property
    def orders(self) -> tuple[OrderResidual, ...]:
        z = self.zero
        given = {o.h_power: o for o in self.nonzero}
        return tuple(given.get(k) or OrderResidual(k, z, z, z) for k in range(self.top + 1))

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "witness_consistent": self.witness_consistent,
            "orders": [
                {
                    "h_power": o.h_power,
                    "bracket_f_minus_p_S": o.bracket_f_minus_p_s.to_json(),
                    "SS": o.poisson_square.to_json(),
                    "residual": o.residual.to_json(),
                }
                for o in self.orders
            ],
        }


def _w_series(p_series: HSeries, s_series: HSeries, ctx: RingContext, order: int) -> HSeries:
    """w = p*eps + S truncated at order; a power neither series stores is zero."""
    eps = GElement.eps(ctx)
    w = {k: GElement.from_polynomial(c) * eps for k, c in p_series.terms.items()}
    for k, c in s_series.terms.items():
        accumulate(w, k, c)
    return HSeries.sparse(w, order, GElement.zero(ctx))


def _f_minus_p(f: Polynomial, p_series: HSeries, order: int) -> HSeries:
    """f - p as a series of 0-vectors truncated at order."""
    terms = {0: GElement.from_polynomial(f)}
    for k, c in p_series.terms.items():
        accumulate(terms, k, GElement.from_polynomial(-c))
    return HSeries.sparse(terms, order, GElement.zero(f.ctx))


def mc_verify(f: Polynomial, sol: MCSolution) -> MCReport:
    """Per-order values of [f - p, S], [S, S], and the residual, all
    recomputed from sol.

    One residual series dw + (1/2)[w, w] of w = p*eps + S is computed.
    Its eps*wedge-1 terms are -eps*[f - p, S] and its eps-free wedge-3
    terms are (1/2)[S, S], so the two brackets are read off it by eps
    power; a term of any other kind raises AssertionError.  A witness T
    is checked against S = [f - p, T] through the truncation order, or
    for an exact solution through every order [f - p, T] reaches.
    """
    return _mc_report(f, sol, check_witness=True)


def _mc_report(f: Polynomial, sol: MCSolution, check_witness: bool) -> MCReport:
    """mc_verify; without check_witness for a caller that built S as [f - p, T]."""
    ctx = f.ctx
    zero_g = GElement.zero(ctx)
    dp, ds = sol.p_series.order, sol.s_series.order
    check_order = max(dp + ds, 2 * ds, 1) if sol.order == EXACT else sol.order
    residual = mc_residual(f, _w_series(sol.p_series, sol.s_series, ctx, check_order))
    nonzero = []
    for k, r_k in residual.terms.items():
        split = {(1, 1): {}, (0, 3): {}}
        for (e, m), c in r_k.terms.items():
            part = split.get((e, len(bits_of(m))))
            if part is None:
                raise AssertionError("residual decomposition violated")
            part[(0, m)] = c
        b_k = -GElement(ctx, split[1, 1])
        nonzero.append(OrderResidual(k, b_k, GElement(ctx, split[0, 3]).scale(2), r_k))
    witness_consistent = None
    if check_witness and sol.witness is not None:
        # [f - p, T] reaches h^(dp + dt), past check_order for an exact T
        n = max(check_order, dp + sol.witness.order) if sol.order == EXACT else check_order
        rebuilt = _f_minus_p(f, sol.p_series, n).convolve(sol.witness, schouten_bracket, n)
        witness_consistent = rebuilt == HSeries.sparse(sol.s_series.terms, n, zero_g)
    ok = not residual.terms and witness_consistent is not False
    return MCReport(tuple(nonzero), check_order, zero_g, witness_consistent, ok)


def _witness_form(f: Polynomial, p1: Polynomial, t1: GElement, s1: GElement, s2: GElement,
                  order):
    """The solution p = p1*h, T = T_1*h, S = [f - p, T] with the label
    `order`, through h^order or h^2 for an exact one, and its residual
    report.

    S = S_1*h + S_2*h^2 is assembled from the brackets the caller holds,
    S_1 = [f, T_1] (checked by `koszul_lift`) and S_2 = -[p1, T_1], so no
    bracket is taken here; S is [f - p, T] by construction, so the witness
    is not rechecked."""
    top = 2 if order == EXACT else order
    zero = GElement.zero(f.ctx)
    p_series = HSeries.sparse({1: p1}, top, Polynomial.zero(f.ctx))
    s_series = HSeries.sparse({1: s1, 2: s2}, top, zero)
    witness = HSeries.sparse({1: t1}, top, zero)
    sol = MCSolution(order, p_series, s_series, witness)
    return sol, _mc_report(f, sol, check_witness=False)


def quantize_n3(f: Polynomial | Singularity, p1: Polynomial, s1: GElement) -> MCSolution:
    """Exact quantization of a valid quasiclassical datum for n = 3; f is a
    Polynomial or a Singularity.

    With T_1 the Koszul lift of S_1 made by qc_validate, the pair p = p1*h,
    T = T_1*h solves the deformation equation exactly: S = [f - p, T] =
    S_1*h - [p1, T_1]*h^2, and [S, S] vanishes identically because
    [T, [f - p, T]] is a four-vector.  Both coefficients of S come from the
    datum, S_1 and its extension bivector -[p1, T_1], so S costs no
    bracket.  The residual is verified to be identically zero.
    """
    sing = Singularity.of(f)
    if sing.ctx.n != 3:
        raise ValueError("quantize_n3 requires exactly three variables")
    datum = qc_validate(sing, p1, s1)
    if isinstance(datum, list):
        raise QCInvalid(datum)
    sol, report = _witness_form(sing.f, p1, datum.lift, s1, datum.extension_bivector, EXACT)
    if not report.ok:
        raise RuntimeError("internal: quantize_n3 produced a nonzero residual")
    return sol


def quantize_general(
    f: Polynomial | Singularity,
    p1: Polynomial,
    s1: GElement,
    max_order: int = 8,
):
    """Order-by-order extension probe for arbitrary n; f is a Polynomial or
    a Singularity.

    The solution is sought in witness form S = [f - p, T] with
    T = (lift of S_1) * h, which settles [f - p, S] = 0 identically; the
    remaining Poisson condition sum_{i+j=k} [S_i, S_j] = 0 is checked at
    each order and the first nonzero component is reported as an
    obstruction.  p is p1 * h, and S = S_1*h - [p1, T_1]*h^2 costs one
    bracket.  Returns MCSolution or ObstructionReport.
    """
    sing = Singularity.of(f)
    f = sing.f
    sing.isolated_jacobian()
    violations, t1 = _qc_lift(sing, s1)
    if violations:
        raise QCInvalid(violations)
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    s2 = -schouten_bracket(GElement.from_polynomial(p1), t1)
    sol, report = _witness_form(f, p1, t1, s1, s2, max_order)
    for o in report.nonzero:
        if o.h_power >= 2 and not o.poisson_square.is_zero():
            return ObstructionReport(o.h_power, o.poisson_square, "poisson_failure")
    if not report.ok:
        raise RuntimeError("internal: quantize_general produced a nonzero residual")
    return sol
