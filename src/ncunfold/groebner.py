"""Buchberger engine for ideals and submodules of free modules over the
rationals.

One engine serves both ranks: an ideal is the rank-1 case.  Module terms
are compared position-over-term with the lower component index winning,
so every result is reproducible.  Inside the engine a term (component,
exponents) is one int, its packed key (the layout is described at the
kernel below): the key order is the term order, a divisibility test is a
subtraction and a mask, and multiplying by a monomial is an addition.
Each computation (a basis or a normal form) packs its input once, at a
field width taken from the input degree or from a smaller max_degree,
and turns keys back into exponent tuples only where it builds
polynomials (`_element`).  A term that does not fit restarts that computation at
twice the width, so no key wraps and no result depends on the width.

Every normal form is computed by one routine, `_reduce`: fraction-free on
a flat map from keys to the polynomials' integer numerators over one
denominator, taking each leading term from a heap.  Cofactors over the
input are components past the rank: module bases (`module_buchberger`,
and through it `module_preimage` and `ideal_membership`) and normal forms
append the unit vector e_i to input i as component rank + i, which every
S-pair and reduction step carries in the same integer arithmetic.  The
identities they assert are rechecked on construction of a ReductionTrace,
not sampled.

One loop feeds the kernel: an incremental signature-based loop
(`_signature_entries`), which does no reduction to zero on a regular
sequence and ends in one interreduction pass.  An ideal basis
(`buchberger`) runs it on the rank-1 columns without cofactors; a module
basis (`module_buchberger`) runs it with the cofactors of every entry
over the input.  On rank-1 input the two give the same reduced basis.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul

from .errors import ContextMismatch, DegreeGuardExceeded
from .poly import (
    INFINITE,
    Polynomial,
    RingContext,
    Value,
    from_ints,
    grevlex_key,
    lex_key,
    monomial_div,
    monomial_lcm,
)


class MonomialOrder(Value):
    """grevlex (default) or lex, both with x_1 < x_2 < ... < x_n."""

    __slots__ = _fields = ("kind",)

    def __init__(self, kind: str = "grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self._set(kind)

    def key(self, exps: tuple) -> tuple:
        return grevlex_key(exps) if self.kind == "grevlex" else lex_key(exps)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class ModuleElement(Value):
    """Element of a free module A^r, stored as r polynomial components."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple[Polynomial, ...]):
        if isinstance(components, list):
            components = tuple(components)
        if not components:
            raise ValueError("module rank must be >= 1")
        ctx = components[0].ctx
        for c in components:
            if c.ctx is not ctx and c.ctx != ctx:
                raise ContextMismatch("mixed contexts in module element")
        object.__setattr__(self, "components", components)

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

    def max_degree(self) -> int:
        return max(c.total_degree() for c in self.components)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _wrap(p: Polynomial) -> ModuleElement:
    return ModuleElement((p,))


# -- the reduction kernel ------------------------------------------------------
#
# A term (comp, exps) is keyed by one int: n + 2 fields, each of W value bits
# under one guard bit, with comp unbounded on top.  Grevlex packs (comp,
# M - deg, e_1, ..., e_n) and lex packs (comp, M - e_n, ..., M - e_1, M - deg),
# M = 2^W - 1, so int order is the order of the tuples (comp, -deg, e_1, ...,
# e_n) and (comp, -e_n, ..., -e_1) and the smallest key is the leading term.
# The key is affine in the exponents: multiplying a term by x^q adds the
# shift key(t * x^q) - key(t), the same for every t, and the quotient of two
# terms is the difference of their keys.  The exponent part of a key (the
# key itself for grevlex, its negative for lex) grows with every exponent,
# so x^a divides x^b iff subtracting the parts borrows into no guard bit.
# A key holds terms of degree at most M; the degree bounds every field, so a
# term whose degree exceeds M raises _Overflow where it would be packed, and
# the whole computation restarts at twice the width (`_packed`): a key is
# widened, never wrapped.


class _Overflow(Exception):
    """A term does not fit the field width of the running computation."""


_MARGIN = 2  # bits above the input degree's when no max_degree bounds the terms


class _Packing:
    """The packed-int encoding of the terms of one computation: n variables
    under the order kind, fields of width W."""

    def __init__(self, kind: str, n: int, width: int):
        stride = width + 1
        fields = [j * stride for j in range(n + 1)]
        self.top = m = (1 << width) - 1  # the largest degree a key holds
        self.cshift = (n + 1) * stride
        self.guard = sum(1 << (s + width) for s in fields)
        self.graded = kind == "grevlex"
        if self.graded:
            self.dshift = n * stride
            self.shifts = tuple((n - 1 - i) * stride for i in range(n))
            self.one = m << self.dshift
            self.weights = tuple((1 << s) - (1 << self.dshift) for s in self.shifts)
            self.esign, self.eguard = 1, self.guard - (1 << (self.dshift + width))
        else:
            self.dshift = 0
            self.shifts = tuple((i + 1) * stride for i in range(n))
            self.one = m * sum(1 << s for s in fields)
            self.weights = tuple(-(1 << s) - 1 for s in self.shifts)
            self.esign, self.eguard = -1, self.guard
        self._keys: dict[tuple, int] = {}  # exps -> key at component 0
        self.terms: dict[int, tuple] = {}  # key -> (comp, exps), filled on use

    def key(self, comp: int, exps: tuple) -> int:
        k = self._keys.get(exps)
        if k is None:
            if sum(exps) > self.top:
                raise _Overflow
            k = self._keys[exps] = self.one + sum(map(mul, exps, self.weights))
        k += comp << self.cshift
        self.terms[k] = (comp, exps)
        return k

    def term(self, k: int) -> tuple:
        """(comp, exps) of a key."""
        t = self.terms.get(k)
        if t is None:
            comp, m = k >> self.cshift, self.top
            if self.graded:
                exps = tuple((k >> s) & m for s in self.shifts)
            else:
                exps = tuple(m - ((k >> s) & m) for s in self.shifts)
            t = self.terms[k] = (comp, exps)
        return t

    def degree(self, k: int) -> int:
        return self.top - ((k >> self.dshift) & self.top)

    def divides(self, a: int, b: int) -> bool:
        """True iff the term keyed a divides the term keyed b."""
        return a >> self.cshift == b >> self.cshift and not self.esign * (b - a) & self.eguard

    def checked(self, k: int) -> int:
        """k, a key plus a shift, unless a field of it left [0, M]."""
        if k & self.guard:
            raise _Overflow
        return k


def _packed(run, elems: list[ModuleElement], order: MonomialOrder, max_degree: int | None):
    """run(packing), starting with the narrowest packing whose keys hold the
    degree of elems with _MARGIN bits to spare, or max_degree when that is
    less, and widened until no term overflows.  (The default max_degree of
    the CLI, 64, would take three variables past 30-bit keys, which CPython
    adds and compares fastest.)"""
    degree = max(0, *(v.max_degree() for v in elems))
    bound = degree << _MARGIN
    if max_degree is not None:
        bound = min(bound, max(degree, max_degree))
    width = max(bound.bit_length(), 1)
    while True:
        try:
            return run(_Packing(order.kind, elems[0].ctx.n, width))
        except _Overflow:
            width *= 2


def _integer_map(v: ModuleElement, pk: _Packing, unit: int | None = None):
    """({key: int}, den) with v == sum(int * term) / den: the numerators of
    the components on the lcm of their denominators, and den at the constant
    term of component unit if given (v extended by that unit vector)."""
    den = lcm(*(p.den for p in v.components))
    key = pk.key
    ints = {
        key(comp, exps): c * (den // p.den)
        for comp, p in enumerate(v.components)
        for exps, c in p.nums.items()
    }
    if unit is not None:
        ints[key(unit, (0,) * v.ctx.n)] = den
    return ints, den


def _element(ctx: RingContext, rank: int, pk: _Packing, items, den: int) -> ModuleElement:
    """The module element sum(c * term for (key, c) in items) / den."""
    comps = [{} for _ in range(rank)]
    known, term = pk.terms.get, pk.term
    for k, c in items:
        comp, exps = known(k) or term(k)
        comps[comp][exps] = c
    return ModuleElement(tuple(from_ints(ctx, nums, den) for nums in comps))


def _guard(max_degree: int | None, degree: int) -> None:
    if max_degree is not None and degree > max_degree:
        raise DegreeGuardExceeded(f"intermediate degree exceeded the limit {max_degree}")


class _Entry:
    """A basis element in primitive integer form, cofactor components
    included: leading coefficient lc > 0 at key and the other (key, int)
    terms, lead being (comp, exps) of key.  reach is how far the degree of
    the module part rises above the lead's, or 0 (always 0 for an ideal
    under grevlex), and rise how far any term's does.  sig is (input index,
    key of the monomial) in the signature loop.  elem, the monic element on
    space (ctx, number of components, packing), is built on its first read
    into the slot built."""

    __slots__ = ("lead", "key", "lc", "tail", "reach", "rise", "space", "sig", "built")

    def __init__(self, lead: tuple, key: int, lc: int, tail: tuple, reach: int, rise: int,
                 space: tuple):
        self.lead, self.key, self.lc, self.tail = lead, key, lc, tail
        self.reach, self.rise, self.space = reach, rise, space
        self.sig = self.built = None

    @property
    def elem(self) -> ModuleElement:
        if self.built is None:
            self.built = _element(*self.space, ((self.key, self.lc), *self.tail), self.lc)
        return self.built


def _make_entry(ints: dict, rank: int, space: tuple) -> _Entry:
    """The entry of an integer map whose module part (keys below rank << cshift) is nonzero."""
    pk = space[2]
    key = min(ints)
    content = gcd(*ints.values())
    if ints[key] < 0:
        content = -content
    if content != 1:
        ints = {k: c // content for k, c in ints.items()}
    tail = tuple(item for item in ints.items() if item[0] != key)
    degree, top, module = pk.degree, pk.degree(key), rank << pk.cshift
    # under grevlex no term of an ideal element has a higher degree than its lead
    reach = 0 if rank == 1 and pk.graded else max(map(degree, filter(module.__gt__, ints))) - top
    rise = reach if space[1] == rank else max(map(degree, ints)) - top  # over the cofactors too
    return _Entry(pk.term(key), key, ints[key], tail, reach, rise, space)


def _reduce(rank: int, cur: dict, den: int, entries: list[_Entry], pk: _Packing,
            max_degree: int | None, below=None):
    """Full normal form of v = sum(cur[k] * term k) / den against the
    entries, consuming cur: (ints, rden), the remainder being sum(ints[k] *
    term k) / rden.

    The keys past rank << cshift are cofactor components: no leading term
    divides them, so they ride along with each step, and max_degree holds
    only the module part below.  The divisor of a leading term t is the
    first entry whose leading term divides it and, when a predicate below
    is given, for which below(entry, t) holds.  Fraction-free: v is cur /
    den, and a step with cur's leading coefficient a and the divisor's b,
    g = gcd(a, b), takes cur to (b/g) * cur - (a/g) * x^q * divisor and den
    to den * b/g.  An irreducible term a leaves cur as the numerator a over
    den.  den only grows by such factors, so each recorded denominator
    divides the last, and the remainder goes on that one at the end.
    """
    degree = pk.degree
    cshift, esign, eguard = pk.cshift, pk.esign, pk.eguard
    if max_degree is not None:  # on the module part
        _guard(max_degree, max(map(degree, filter((rank << cshift).__gt__, cur)), default=0))
    heap = list(cur)
    heapify(heap)
    leads: dict[int, list] = {}  # (exponent part, entry) by component
    for e in entries:
        leads.setdefault(e.lead[0], []).append((esign * e.key, e))
    rem = []
    while heap:
        t = heappop(heap)
        a = cur.pop(t, None)
        if a is None:
            continue  # a lazily deleted key
        te = esign * t
        for ee, divisor in leads.get(t >> cshift, ()):
            if not (te - ee) & eguard and (below is None or below(divisor, t)):
                break
        else:
            rem.append((t, a, den))
            continue
        if divisor.rise > 0:  # the step may create terms above t's degree
            top = degree(t)
            _guard(max_degree, top + divisor.reach)
            if top + divisor.rise > pk.top:
                raise _Overflow
        b = divisor.lc
        g = gcd(a, b)
        ma, mb = a // g, b // g
        if mb != 1:
            cur = {k: c * mb for k, c in cur.items()}
            den *= mb
        shift = t - divisor.key
        for k, c in divisor.tail:
            k += shift
            old = cur.get(k)
            if old is None:
                cur[k] = -ma * c
                heappush(heap, k)
            else:
                c = old - ma * c
                if c:
                    cur[k] = c
                else:
                    del cur[k]
    rden = rem[-1][2] if rem else den
    ints = {t: n * (rden // d) for t, n, d in rem}
    return ints, rden


def _spair(ctx: RingContext, a: _Entry, b: _Entry) -> ModuleElement:
    """ua * a - ub * b, cofactor components included, for the monomials ua,
    ub that take the leading terms of a and b to their lcm."""
    lcm_ab = monomial_lcm(a.lead[1], b.lead[1])
    ua, ub = (from_ints(ctx, {monomial_div(lcm_ab, e.lead[1]): 1}, 1) for e in (a, b))
    return a.elem.scale_poly(ua) - b.elem.scale_poly(ub)


def _signature_entries(
    gens: list[ModuleElement], pk: _Packing, max_degree: int | None, track: bool
) -> list[_Entry]:
    """Entries of the basis of gens by an incremental signature-based loop
    (F5-style, in the form of Eder and Faugere's survey, JSC 2017, and of
    Gao, Volny and Wang's module framework, Math. Comp. 2016), generator
    idx extended by the unit vector e_idx at component rank + idx when
    track is set, so that every entry carries its cofactors over gens.

    Zero generators are skipped, and keep a zero column in every cofactor
    row.  Generator idx is fully reduced by the entries of the generators
    before it and enters with signature 1 (at index idx).  Its S-pairs
    (of two entries whose leading terms share a component) are then taken
    in increasing signature: the signature of ua * a - ub * b is the larger
    of ua * sig(a) and ub * sig(b), a signature of an earlier index being
    the smaller.  A pair is skipped when its signature is a multiple of a
    signature that reduced to zero or, for an ideal (rank 1), of an
    earlier-index leading monomial (both are signatures of syzygies; the
    principal syzygies g_i e_j - g_j e_i behind the second exist only among
    scalars), when both sides have the same signature, when its signature
    was already processed, or when an entry added after its top side has a
    signature dividing it (the rewrite criterion).  A reducer is admitted
    only when its shifted signature is below the pair's, so the result
    keeps the pair's signature, and every result with a nonzero module part
    is added, also one whose leading term only a reducer of equal signature
    divides.  On a regular sequence nothing reduces to zero.

    Signatures are packed like terms, so a larger signature has the
    smaller key, and the pair heap is ordered by negated keys.
    """
    ctx, rank = gens[0].ctx, gens[0].rank
    space = (ctx, rank + len(gens) if track else rank, pk)
    module = rank << pk.cshift
    key, one, divides, checked, guard = pk.key, pk.one, pk.divides, pk.checked, pk.guard
    entries: list[_Entry] = []

    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        ints, den = _integer_map(g, pk, rank + idx if track else None)
        if entries:
            ints, den = _reduce(rank, ints, den, entries, pk, max_degree)
            if min(ints, default=module) >= module:
                continue  # every signature of index idx is a syzygy's
        else:
            _guard(max_degree, g.max_degree())
        earlier = [e.key for e in entries] if rank == 1 else []
        pairs: list = []
        zeros: list[int] = []
        done: set[int] = set()

        def append(ints: dict, sig: int):
            a = _make_entry(ints, rank, space)
            a.sig = (idx, sig)
            k = len(entries)
            entries.append(a)
            for j, b in enumerate(entries[:k]):
                if b.lead[0] != a.lead[0]:
                    continue
                # the lcm itself may not fit where its multipliers do
                lcm_ab = monomial_lcm(a.lead[1], b.lead[1])
                sa = checked(sig + key(0, monomial_div(lcm_ab, a.lead[1])) - one)
                if b.sig[0] < idx:
                    heappush(pairs, (-sa, -k, j))
                    continue
                sb = checked(b.sig[1] + key(0, monomial_div(lcm_ab, b.lead[1])) - one)
                if sa != sb:
                    top, other, s = (k, j, sa) if sa < sb else (j, k, sb)
                    heappush(pairs, (-s, -top, other))

        append(ints, one)
        while pairs:
            sig, top, other = heappop(pairs)
            sig, top = -sig, -top
            if (
                sig in done
                or any(divides(m, sig) for m in earlier)
                or any(divides(m, sig) for m in zeros)
                or any(divides(e.sig[1], sig) for e in entries[top + 1:])
            ):
                continue
            done.add(sig)

            def below(e: _Entry, t: int) -> bool:
                i, s = e.sig
                if i < idx:
                    return True
                s += t - e.key
                if s & guard:
                    raise _Overflow
                return s > sig

            spair = _spair(ctx, entries[top], entries[other])
            ints, _ = _reduce(rank, *_integer_map(spair, pk), entries, pk, max_degree, below)
            if min(ints, default=module) < module:
                append(ints, sig)
            else:
                zeros.append(sig)
    return _interreduce(ctx, rank, entries, pk, max_degree)


def _interreduce(ctx: RingContext, rank: int, entries: list, pk: _Packing,
                 max_degree: int | None) -> list[_Entry]:
    """The reduced basis of a Groebner basis given as entries, sorted by
    leading term.

    One interreduction pass in entry order.  An entry whose leading term
    another entry's divides would reduce to zero and is dropped unreduced;
    every other entry is reduced once against the current others, so its
    leading term stays and its tail becomes standard.  The reduced basis is
    unique but its cofactors are not: these are the ones that repeating
    such passes until nothing changes gives, since a second pass changes
    nothing.
    """
    for idx, entry in enumerate(entries):
        others = [e for e in entries if e is not None and e is not entry]
        if any(pk.divides(e.key, entry.key) for e in others):
            entries[idx] = None
            continue
        cur = dict(entry.tail)
        cur[entry.key] = entry.lc
        ints, _ = _reduce(rank, cur, entry.lc, others, pk, max_degree)
        entries[idx] = _make_entry(ints, rank, entry.space)
    # increasing leading term, the higher component first: decreasing key
    return sorted((e for e in entries if e is not None), key=lambda e: -e.key)


class GroebnerBasis(Value):
    """Reduced Groebner basis of an ideal; leads, the leading exponents of
    the generators as the engine found them, is not compared, and neither
    is the standard-monomial walk that `standard_monomials` keeps."""

    __slots__ = ("generators", "order", "leads", "_standard")
    _fields = ("generators", "order")

    def __init__(self, generators: tuple[Polynomial, ...], order: MonomialOrder,
                 leads: tuple[tuple, ...]):
        self._set(generators, order, leads, None)

    @property
    def ctx(self) -> RingContext:
        return self.generators[0].ctx

    def leading_exponents(self) -> list[tuple]:
        return list(self.leads)

    def to_json(self) -> dict:
        return {
            "order": self.order.kind,
            "generators": [g.to_json() for g in self.generators],
        }

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.generators) + "}"


class ModuleGroebnerBasis(Value):
    """Reduced Groebner basis of a submodule of A^r, with the cofactors of
    each generator over the input generators source.  The cofactors are a
    certificate, not part of the basis (they are not unique): they are not
    compared."""

    __slots__ = ("generators", "order", "rank", "source", "source_cofactors")
    _fields = ("generators", "order", "rank", "source")

    def __init__(self, generators: tuple[ModuleElement, ...], order: MonomialOrder, rank: int,
                 source: tuple[ModuleElement, ...] = (),
                 source_cofactors: tuple[tuple[Polynomial, ...], ...] = ()):
        self._set(generators, order, rank, source, source_cofactors)

    def to_json(self) -> dict:
        return {
            "order": self.order.kind,
            "module_rank": self.rank,
            "generators": [
                [c.to_json() for c in g.components] for g in self.generators
            ],
        }


class ReductionTrace(Value):
    """remainder + cofactors over a basis; the identity is rechecked."""

    __slots__ = _fields = ("input", "basis", "remainder", "cofactors")

    def __init__(self, input, basis: tuple, remainder, cofactors: tuple[Polynomial, ...]):
        acc = remainder
        for c, g in zip(cofactors, basis):
            if isinstance(g, ModuleElement):
                acc = acc + g.scale_poly(c)
            else:
                acc = acc + c * g
        if acc != input:
            raise AssertionError("reduction identity violated")
        self._set(input, basis, remainder, cofactors)

    def over_source(self, gb: "ModuleGroebnerBasis") -> "ReductionTrace":
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
    """Reduced Groebner basis of the ideal generated by gens, by the
    signature loop (`_signature_entries`) without cofactors.

    Deterministic: pairs are selected by signature, and the final basis is
    sorted by leading term.  The expressions of the basis over gens are not
    computed; `module_buchberger` on the rank-1 columns runs the same loop
    with them and gives the same basis.
    """
    gens = list(gens)
    if not gens or all(g.is_zero() for g in gens):
        raise ValueError("generator list is empty or all zero")
    ctx = gens[0].ctx
    if any(g.ctx != ctx for g in gens):
        raise ContextMismatch("mixed contexts in generator list")
    gens_1 = [_wrap(g) for g in gens]
    entries = _packed(lambda pk: _signature_entries(gens_1, pk, max_degree, False), gens_1, order,
                      max_degree)
    return GroebnerBasis(
        generators=tuple(e.elem.components[0] for e in entries),
        order=order,
        leads=tuple(e.lead[1] for e in entries),
    )


def module_buchberger(
    gens,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> ModuleGroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens, by the
    signature loop (`_signature_entries`), with the cofactors of each basis
    element over gens in source_cofactors.

    Deterministic, as `buchberger`.  Zero generators are dropped and keep
    a zero cofactor column; an all-zero input yields the empty basis.
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
    entries = _packed(lambda pk: _signature_entries(gens, pk, max_degree, True), gens, order,
                      max_degree)
    return ModuleGroebnerBasis(
        generators=tuple(ModuleElement(e.elem.components[:rank]) for e in entries),
        order=order,
        rank=rank,
        source=tuple(gens),
        source_cofactors=tuple(e.elem.components[rank:] for e in entries),
    )


def _normal_form(v: ModuleElement, basis, order: MonomialOrder, max_degree: int | None):
    """(remainder, cofactors c) with v == remainder + sum(c_k * basis_k):
    basis_k enters extended by e_k, so v's remainder ends with -c."""
    ctx, rank = v.ctx, v.rank
    if any(g.ctx != ctx for g in basis):
        raise ContextMismatch("element from a different ring")

    def run(pk: _Packing):
        space = (ctx, rank + len(basis), pk)
        entries = [_make_entry(_integer_map(g, pk, rank + k)[0], rank, space)
                   for k, g in enumerate(basis)]
        ints, den = _reduce(rank, *_integer_map(v, pk), entries, pk, max_degree)
        out = _element(ctx, space[1], pk, ints.items(), den).components
        return ModuleElement(out[:rank]), tuple(-c for c in out[rank:])

    return _packed(run, [v, *basis], order, max_degree)


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
    ideal: the module preimage problem of the rank-1 columns gens."""
    x = module_preimage([_wrap(g) for g in gens], _wrap(p), order, max_degree)
    return None if x is None else x.components


def standard_monomials(gb: GroebnerBasis):
    """Monomials outside the leading-term ideal, in increasing order, as a
    new list on each call; the basis walks its leads once.

    Returns the string "infinite" when some variable has no pure power
    among the leading terms (the quotient is then infinite-dimensional).
    """
    if gb._standard is None:
        object.__setattr__(gb, "_standard", _standard_walk(gb))
    return INFINITE if gb._standard == INFINITE else list(gb._standard)


def _standard_walk(gb: GroebnerBasis):
    n = gb.ctx.n
    leads = gb.leading_exponents()
    if any(all(lt[i] != sum(lt) for lt in leads) for i in range(n)):
        return INFINITE  # no lead is a power of x_i
    out = []
    # a lead closes at level k when x^lead divides every monomial whose
    # first k + 1 exponents are at least its own; a power of x_k closes at
    # level k and is live at every prefix, so each level is bounded
    closes = [max((i for i in range(n) if lt[i]), default=0) for lt in leads]

    def walk(prefix: tuple, live: list):
        """Append the standard monomials that extend prefix, live being the
        leads that divide some extension of it: prefix + (e,) is divisible
        from the least e at which a live lead closes on."""
        k = len(prefix)
        bound = min(lt[k] for lt, c in live if c <= k)
        if k + 1 == n:
            out.extend(prefix + (e,) for e in range(bound))
        else:
            for e in range(bound):
                walk(prefix + (e,), [(lt, c) for lt, c in live if lt[k] <= e])

    walk((), list(zip(leads, closes)))
    out.sort(key=gb.order.key)
    return tuple(out)


def quotient_dimension(gb: GroebnerBasis):
    sm = standard_monomials(gb)
    if sm == INFINITE:
        return INFINITE
    return len(sm)


def module_preimage(
    columns: list[ModuleElement],
    b: ModuleElement,
    order: MonomialOrder = GREVLEX,
    max_degree: int | None = None,
) -> ModuleElement | None:
    """Solve sum(x_j * columns_j) == b over the polynomial ring; None iff b
    is outside the column module.  The returned x is verified by
    back-multiplication."""
    if not columns:
        raise ValueError("matrix has no columns")
    if any(col.rank != b.rank for col in columns):
        raise ValueError("matrix/vector dimension mismatch")
    if b.is_zero():
        return ModuleElement.zero(b.ctx, len(columns))
    if all(col.is_zero() for col in columns):
        return None
    gb = module_buchberger(columns, order, max_degree)
    trace = module_normal_form(b, gb, max_degree)
    if not trace.remainder.is_zero():
        return None
    return ModuleElement(trace.over_source(gb).cofactors)
