"""Buchberger engine for ideals and submodules of free modules over the
rationals, with cofactor tracking.

One engine serves both ranks: an ideal is the rank-1 case.  Module terms
are keyed by (component, exponent tuple) and compared position-over-term
with the lower component index winning, so every result is reproducible.
Every reduction carries cofactors and the identities they assert are
rechecked on construction, not sampled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import ContextMismatch, DegreeGuardExceeded
from .poly import (
    INFINITE,
    Polynomial,
    RingContext,
    grevlex_key,
    lex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)


@dataclass(frozen=True)
class MonomialOrder:
    """grevlex (default) or lex, both with x_1 < x_2 < ... < x_n."""

    kind: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key(self, exps: tuple) -> tuple:
        return grevlex_key(exps) if self.kind == "grevlex" else lex_key(exps)

    def module_key(self, comp: int, exps: tuple) -> tuple:
        # position-over-term; lower component index first
        return (-comp, self.key(exps))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


@dataclass(frozen=True)
class ModuleElement:
    """Element of a free module A^r, stored as r polynomial components."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if isinstance(self.components, list):
            object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("module rank must be >= 1")
        ctx = self.components[0].ctx
        if any(c.ctx != ctx for c in self.components):
            raise ContextMismatch("mixed contexts in module element")

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def ctx(self) -> RingContext:
        return self.components[0].ctx

    @classmethod
    def zero(cls, ctx: RingContext, rank: int) -> "ModuleElement":
        return cls(tuple(Polynomial.zero(ctx) for _ in range(rank)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(tuple(-a for a in self.components))

    def scale_poly(self, p: Polynomial) -> "ModuleElement":
        return ModuleElement(tuple(p * a for a in self.components))

    def scale(self, q) -> "ModuleElement":
        return ModuleElement(tuple(a * q for a in self.components))

    def max_degree(self) -> int:
        return max(c.total_degree() for c in self.components)

    def leading(self, order: MonomialOrder):
        """((component, exps), coeff) of the leading term, or None if zero."""
        best = None
        for comp, poly in enumerate(self.components):
            for exps, c in poly.terms.items():
                key = order.module_key(comp, exps)
                if best is None or key > best[0]:
                    best = (key, (comp, exps), c)
        if best is None:
            return None
        return best[1], best[2]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _wrap(p: Polynomial) -> ModuleElement:
    return ModuleElement((p,))


@dataclass
class _Entry:
    elem: ModuleElement
    cofs: tuple[Polynomial, ...]  # over the original input generators
    lead: tuple  # ((comp, exps), coeff), coeff == 1 after normalization


def _make_entry(elem: ModuleElement, cofs, order: MonomialOrder) -> _Entry:
    lead = elem.leading(order)
    lc = lead[1]
    if lc != 1:
        inv = 1 / lc
        elem = elem.scale(inv)
        cofs = tuple(c * inv for c in cofs)
        lead = (lead[0], lc * inv)
    return _Entry(elem, tuple(cofs), lead)


def _reduce(
    v: ModuleElement,
    cofs: tuple[Polynomial, ...],
    entries: list[_Entry],
    order: MonomialOrder,
    max_degree: int | None,
):
    """Full normal form of v against the entries.

    Maintains the invariant: if v == sum(cofs_in * gens) and every entry
    satisfies entry.elem == sum(entry.cofs * gens), then the returned
    remainder equals sum(cofs_out * gens).
    """
    ctx = v.ctx
    rank = v.rank
    rem = ModuleElement.zero(ctx, rank)
    cur = v
    cofs = list(cofs)
    while not cur.is_zero():
        if max_degree is not None and cur.max_degree() > max_degree:
            raise DegreeGuardExceeded(
                f"intermediate degree exceeded the limit {max_degree}"
            )
        (comp, exps), lc = cur.leading(order)
        divisor = None
        for entry in entries:
            (ec, ee), _ = entry.lead
            if ec == comp and monomial_divides(ee, exps):
                divisor = entry
                break
        if divisor is None:
            t = Polynomial.monomial(ctx, exps, lc)
            parts = list(rem.components)
            parts[comp] = parts[comp] + t
            rem = ModuleElement(tuple(parts))
            parts = list(cur.components)
            parts[comp] = parts[comp] - t
            cur = ModuleElement(tuple(parts))
        else:
            (ec, ee), _ = divisor.lead
            u = Polynomial.monomial(ctx, monomial_div(exps, ee), lc)
            cur = cur - divisor.elem.scale_poly(u)
            for j in range(len(cofs)):
                if not divisor.cofs[j].is_zero():
                    cofs[j] = cofs[j] - u * divisor.cofs[j]
    return rem, tuple(cofs)


def _buchberger_entries(
    gens: list[ModuleElement],
    order: MonomialOrder,
    max_degree: int | None,
) -> list[_Entry]:
    ctx = gens[0].ctx
    m = len(gens)
    zero_cof = tuple(Polynomial.zero(ctx) for _ in range(m))

    entries: list[_Entry] = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        cofs = list(zero_cof)
        cofs[idx] = Polynomial.one(ctx)
        entries.append(_make_entry(g, tuple(cofs), order))

    rank_one = gens[0].rank == 1

    pairs: list[tuple[int, int, int]] = []

    def push_pairs(j: int):
        (cj, ej), _ = entries[j].lead
        for i in range(j):
            (ci, ei), _ = entries[i].lead
            if ci != cj:
                continue
            deg = sum(monomial_lcm(ei, ej))
            heapq.heappush(pairs, (deg, i, j))

    for j in range(len(entries)):
        push_pairs(j)

    done: set[tuple[int, int]] = set()
    while pairs:
        _, i, j = heapq.heappop(pairs)
        (ci, ei), _ = entries[i].lead
        (cj, ej), _ = entries[j].lead
        lcm = monomial_lcm(ei, ej)
        # Buchberger's product criterion: only valid for ideals (rank 1)
        if rank_one and all(min(a, b) == 0 for a, b in zip(ei, ej)):
            done.add((i, j))
            continue
        # chain criterion against already-processed pairs
        skip = False
        for k, entry in enumerate(entries):
            if k == i or k == j:
                continue
            (ck, ek), _ = entry.lead
            if ck != ci or not monomial_divides(ek, lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            done.add((i, j))
            continue
        ui = Polynomial.monomial(ctx, monomial_div(lcm, ei), 1)
        uj = Polynomial.monomial(ctx, monomial_div(lcm, ej), 1)
        spair = entries[i].elem.scale_poly(ui) - entries[j].elem.scale_poly(uj)
        scofs = tuple(
            ui * a - uj * b for a, b in zip(entries[i].cofs, entries[j].cofs)
        )
        rem, rcofs = _reduce(spair, scofs, entries, order, max_degree)
        done.add((i, j))
        if not rem.is_zero():
            entries.append(_make_entry(rem, rcofs, order))
            push_pairs(len(entries) - 1)

    # interreduce to the reduced basis, keeping cofactors exact
    changed = True
    while changed:
        changed = False
        for idx in range(len(entries)):
            entry = entries[idx]
            if entry is None:
                continue
            others = [e for k, e in enumerate(entries) if k != idx and e is not None]
            rem, rcofs = _reduce(entry.elem, entry.cofs, others, order, max_degree)
            if rem.is_zero():
                entries[idx] = None
                changed = True
            elif rem != entry.elem:
                entries[idx] = _make_entry(rem, rcofs, order)
                changed = True
    final = [e for e in entries if e is not None]
    final.sort(key=lambda e: order.module_key(*e.lead[0]))
    return final


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis of an ideal, with cofactors over the input."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool
    source: tuple[Polynomial, ...] = field(repr=False, default=())
    source_cofactors: tuple[tuple[Polynomial, ...], ...] = field(repr=False, default=())

    @property
    def ctx(self) -> RingContext:
        return self.generators[0].ctx

    def leading_exponents(self) -> list[tuple]:
        return [max(g.terms, key=self.order.key) for g in self.generators]

    def to_json(self) -> dict:
        return {
            "order": self.order.kind,
            "generators": [g.to_json() for g in self.generators],
        }

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.generators) + "}"


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    """Reduced Groebner basis of a submodule of A^r."""

    generators: tuple[ModuleElement, ...]
    order: MonomialOrder
    rank: int
    reduced: bool
    source: tuple[ModuleElement, ...] = field(repr=False, default=())
    source_cofactors: tuple[tuple[Polynomial, ...], ...] = field(repr=False, default=())

    def to_json(self) -> dict:
        return {
            "order": self.order.kind,
            "module_rank": self.rank,
            "generators": [
                [c.to_json() for c in g.components] for g in self.generators
            ],
        }


@dataclass(frozen=True)
class ReductionTrace:
    """remainder + cofactors over a basis; the identity is rechecked."""

    input: object
    basis: tuple
    remainder: object
    cofactors: tuple[Polynomial, ...]

    def __post_init__(self):
        acc = self.remainder
        for c, g in zip(self.cofactors, self.basis):
            if isinstance(g, ModuleElement):
                acc = acc + g.scale_poly(c)
            else:
                acc = acc + c * g
        if acc != self.input:
            raise AssertionError("reduction identity violated")

    def over_source(self, gb) -> "ReductionTrace":
        """This trace over gb.generators rewritten over the input generators
        gb.source; the identity is rechecked on construction."""
        cofs = [Polynomial.zero(self.remainder.ctx) for _ in gb.source]
        for c, row in zip(self.cofactors, gb.source_cofactors):
            for j, s in enumerate(row):
                if not s.is_zero():
                    cofs[j] = cofs[j] + c * s
        return ReductionTrace(self.input, gb.source, self.remainder, tuple(cofs))


def buchberger(
    gens,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic: pairs are selected by lcm degree with input-index
    tie-break, and the final basis is sorted by leading term.
    """
    gens = list(gens)
    if not gens or all(g.is_zero() for g in gens):
        raise ValueError("generator list is empty or all zero")
    ctx = gens[0].ctx
    if any(g.ctx != ctx for g in gens):
        raise ContextMismatch("mixed contexts in generator list")
    entries = _buchberger_entries([_wrap(g) for g in gens], order, max_degree)
    return GroebnerBasis(
        generators=tuple(e.elem.components[0] for e in entries),
        order=order,
        reduced=True,
        source=tuple(gens),
        source_cofactors=tuple(e.cofs for e in entries),
    )


def module_buchberger(
    gens,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> ModuleGroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens.

    Zero generators are dropped; an all-zero input yields the empty basis.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("generator list is empty")
    rank = gens[0].rank
    ctx = gens[0].ctx
    if any(g.rank != rank for g in gens):
        raise ValueError("mixed ranks in generator list")
    if any(g.ctx != ctx for g in gens):
        raise ContextMismatch("mixed contexts in generator list")
    if all(g.is_zero() for g in gens):
        return ModuleGroebnerBasis((), order, rank, True, tuple(gens), ())
    entries = _buchberger_entries(gens, order, max_degree)
    return ModuleGroebnerBasis(
        generators=tuple(e.elem for e in entries),
        order=order,
        rank=rank,
        reduced=True,
        source=tuple(gens),
        source_cofactors=tuple(e.cofs for e in entries),
    )


def _normal_form(v: ModuleElement, basis, order: MonomialOrder, max_degree: int | None):
    """(remainder, cofactors c) with v == remainder + sum(c_k * basis_k)."""
    ctx = v.ctx
    if any(g.ctx != ctx for g in basis):
        raise ContextMismatch("element from a different ring")
    zero, one = Polynomial.zero(ctx), Polynomial.one(ctx)
    entries = [
        _Entry(g, tuple(one if j == k else zero for j in range(len(basis))), g.leading(order))
        for k, g in enumerate(basis)
    ]
    rem, cofs = _reduce(v, (zero,) * len(basis), entries, order, max_degree)
    # _reduce tracks the remainder's expression; the trace wants the
    # reduction cofactors of v = sum(c_k g_k) + r, which are the negatives
    return rem, tuple(-c for c in cofs)


def normal_form(p: Polynomial, gb: GroebnerBasis, max_degree: int | None = None) -> ReductionTrace:
    """Fully reduce p modulo gb; cofactors are over gb.generators."""
    basis = [_wrap(g) for g in gb.generators]
    rem, cofs = _normal_form(_wrap(p), basis, gb.order, max_degree)
    return ReductionTrace(p, gb.generators, rem.components[0], cofs)


def module_normal_form(
    v: ModuleElement, gb: ModuleGroebnerBasis, max_degree: int | None = None
) -> ReductionTrace:
    rem, cofs = _normal_form(v, gb.generators, gb.order, max_degree)
    return ReductionTrace(v, gb.generators, rem, cofs)


def ideal_membership(
    p: Polynomial,
    gens,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> tuple[Polynomial, ...] | None:
    """Cofactors c with p == sum(c_i * gens_i), or None when p is not in the
    ideal: the module preimage problem of the one-row matrix of gens."""
    x = module_preimage([list(gens)], _wrap(p), order, max_degree)
    return None if x is None else x.components


def standard_monomials(gb: GroebnerBasis):
    """Monomials outside the leading-term ideal, in increasing order.

    Returns the string "infinite" when some variable has no pure power
    among the leading terms (the quotient is then infinite-dimensional).
    """
    if not gb.reduced:
        raise ValueError("basis must be reduced")
    n = gb.ctx.n
    leads = gb.leading_exponents()
    bounds = []
    for i in range(n):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    out = []

    def walk(prefix):
        if len(prefix) == n:
            exps = tuple(prefix)
            if not any(monomial_divides(lt, exps) for lt in leads):
                out.append(exps)
            return
        for e in range(bounds[len(prefix)]):
            walk(prefix + [e])

    walk([])
    out.sort(key=gb.order.key)
    return out


def quotient_dimension(gb: GroebnerBasis):
    sm = standard_monomials(gb)
    if sm == INFINITE:
        return INFINITE
    return len(sm)


def module_preimage(
    matrix: list[list[Polynomial]],
    b: ModuleElement,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> ModuleElement | None:
    """Solve M x = b over the polynomial ring; None iff b is outside the
    column module.  The returned x is verified by back-multiplication."""
    rows = len(matrix)
    if rows == 0 or rows != b.rank:
        raise ValueError("matrix/vector dimension mismatch")
    cols = len(matrix[0])
    if cols == 0:
        raise ValueError("matrix has no columns")
    if any(len(row) != cols for row in matrix):
        raise ValueError("matrix is ragged")
    columns = [
        ModuleElement(tuple(matrix[r][c] for r in range(rows))) for c in range(cols)
    ]
    if b.is_zero():
        return ModuleElement.zero(b.ctx, cols)
    if all(col.is_zero() for col in columns):
        return None
    gb = module_buchberger(columns, order, max_degree)
    trace = module_normal_form(b, gb, max_degree)
    if not trace.remainder.is_zero():
        return None
    return ModuleElement(trace.over_source(gb).cofactors)
