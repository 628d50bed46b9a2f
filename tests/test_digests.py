"""Differential digests of the Groebner, polyvector, Hochschild,
unfolding and parsing layers.

Each function below is run over a fixed seeded draw set, and its outputs
are hashed into one SHA-256 that `digests.json` stores.  An output is
serialized with its `to_json` and ``sort_keys``; an exception counts as its
class name, so a guard that aborts is part of the digest.  A change that
means to keep every output keeps every digest; one that means to change
the outputs of a function rewrites only that function's digest, with

    PYTHONPATH=src python3 tests/test_digests.py --write NAME ...

and records the change and its reason.  Without arguments the script
prints the digests of the working tree next to the stored ones.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from ncunfold.groebner import (
    GREVLEX,
    LEX,
    ModuleElement,
    buchberger,
    ideal_membership,
    module_buchberger,
    module_normal_form,
    module_preimage,
    normal_form,
    quotient_dimension,
    standard_monomials,
)
from ncunfold.hochschild import (
    PolyDiffOperator,
    brace,
    cup,
    gerstenhaber_bracket,
    hkr,
    hochschild_differential,
)
from ncunfold.parsing import parse_gelement, parse_poly_series, parse_polynomial, parse_series
from ncunfold.poly import HSeries, Polynomial, RingContext
from ncunfold.polyvector import GElement, ad_f, mc_residual, schouten_bracket
from ncunfold.singularity import Singularity, ade_catalog, qc_subspace
from ncunfold.unfolding import (
    MCSolution,
    QuasiClassicalDatum,
    koszul_lift,
    qc_validate,
    quantize_general,
    quantize_n3,
)

from oracles import rand_gelement, rand_poly

STORE = pathlib.Path(__file__).with_name("digests.json")
CONTEXTS = [RingContext(("x", "y", "z")[:n]) for n in (1, 2, 3)]
CTX3, CTX4 = CONTEXTS[2], RingContext(("x", "y", "z", "w"))
ADE = [f for _, f in ade_catalog()]


def _cochain(rng, ctx, arity):
    """Up to three terms with derivative orders up to 2 and coefficients of
    up to three fractional terms; no terms one draw in sixteen."""
    terms = {}
    for _ in range(rng.choice((0,) + (1, 2, 3) * 5)):
        alphas = tuple(tuple(rng.randint(0, 2) for _ in range(ctx.n)) for _ in range(arity))
        terms[alphas] = rand_poly(rng, ctx, 3, rng.randint(1, 3))
    return PolyDiffOperator(ctx, arity, terms)


def _polyvector(rng, ctx, k):
    """A wedge-degree-k polyvector with one to three terms; an eps term
    when k > n, so that hkr refuses it."""
    if k > ctx.n:
        return GElement(ctx, {(1, 0): rand_poly(rng, ctx, 2, 2, zero_ok=False)})
    masks = [m for m in range(1 << ctx.n) if m.bit_count() == k]
    return GElement(ctx, {(0, rng.choice(masks)): rand_poly(rng, ctx, 2, 3) for _ in range(3)})


def _series(rng, ctx):
    """A deformation series p*eps + S per order; one draw in six puts a
    vector field in, which mc_residual refuses."""
    order = rng.randint(1, 3)
    terms = {}
    for k in range(1, order + 1):
        x = GElement(ctx, {(1, 0): rand_poly(rng, ctx, 2, 2)})
        for m in range(1 << ctx.n):
            if m.bit_count() == 2 and rng.random() < 0.6:
                x = x + GElement(ctx, {(0, m): rand_poly(rng, ctx, 2, 2)})
        if rng.random() < 1 / 6:
            x = x + GElement(ctx, {(0, 1): rand_poly(rng, ctx, 1, 1, zero_ok=False)})
        terms[k] = x
    return HSeries.sparse(terms, order, GElement.zero(ctx))


def _series_json(w: HSeries) -> dict:
    return {"order": w.order, "terms": {str(k): c.to_json() for k, c in w.terms.items()}}


def _jsons(xs) -> list:
    return [x.to_json() for x in xs]


def _squares(ctx):
    return sum((Polynomial.variable(ctx, i) ** 2 for i in range(1, ctx.n + 1)), Polynomial.zero(ctx))


def _isolated_f(rng, ctx):
    """Half the time an ADE f for n = 3 and the sum of squares otherwise;
    else a sum of squares and cubes plus up to two random terms of degree
    1 to 4, drawn until f is isolated."""
    if rng.random() < 0.5:
        if ctx.n == 3:
            return rng.choice(ADE)
        return _squares(ctx)
    while True:
        f = sum((Polynomial.variable(ctx, i) ** rng.randint(2, 3) for i in range(1, ctx.n + 1)),
                Polynomial.zero(ctx))
        extra = rand_poly(rng, ctx, 4, rng.randint(0, 2), coeff=lambda r: r.randint(-2, 2))
        f = f + extra - extra.constant_term()
        if Singularity(f).is_isolated():
            return f


def _trivector(rng, ctx):
    masks = [m for m in range(1 << ctx.n) if m.bit_count() == 3]
    return GElement(ctx, {(0, rng.choice(masks)): rand_poly(rng, ctx, 2, 2) for _ in range(2)})


def _bivector(rng, ctx, kind, f):
    """S of one kind: a Koszul boundary [f, T] (f-compatible, and Poisson
    for n = 3), the boundary of a T with coefficients of degree 1, constant
    coefficients (Poisson), random coefficients (usually neither), a
    vector field or an eps term (wrong degree), or zero."""
    masks = [m for m in range(1 << ctx.n) if m.bit_count() == 2]
    if kind == "boundary":
        return ad_f(f, _trivector(rng, ctx))
    if kind == "linear":
        masks3 = [m for m in range(1 << ctx.n) if m.bit_count() == 3]
        return ad_f(f, sum((GElement(ctx, {(0, rng.choice(masks3)):
                                           Polynomial.variable(ctx, rng.randint(1, ctx.n))})
                            for _ in range(2)), GElement.zero(ctx)))
    if kind == "constant":
        return GElement(ctx, {(0, m): Polynomial.constant(ctx, rng.randint(-2, 2)) for m in masks})
    if kind == "random":
        return GElement(ctx, {(0, rng.choice(masks)): rand_poly(rng, ctx, 2, 2) for _ in range(2)})
    if kind == "wrong":
        return GElement(ctx, {(rng.randint(0, 1), 1): rand_poly(rng, ctx, 1, 2, zero_ok=False)})
    return GElement.zero(ctx)


KINDS = ("boundary", "boundary", "linear", "constant", "random", "wrong", "zero")


def _datum(rng, n4=1 / 6):
    """(f, p, S) over n = 3 or, with probability n4, n = 4; p is on W or
    random."""
    ctx = CTX4 if rng.random() < n4 else CTX3
    f = _isolated_f(rng, ctx)
    if rng.random() < 0.5:
        w = qc_subspace(f)
        p = sum((Polynomial.monomial(ctx, e, rng.randint(-2, 2)) for e in rng.sample(w, min(2, len(w)))),
                Polynomial.zero(ctx))
    else:
        p = rand_poly(rng, ctx, 2, 2)
    return f, p, _bivector(rng, ctx, rng.choice(KINDS), f)


def _outcome_json(out):
    """A validation, quantization or probe result as JSON."""
    if isinstance(out, list):
        return [[v.kind, v.message, None if v.element is None else v.element.to_json()]
                for v in out]
    if isinstance(out, MCSolution):
        return out.to_json()
    if isinstance(out, QuasiClassicalDatum):
        return _jsons((out.p_normal, out.s, out.extension_bivector, out.lift))
    return [out.failing_order, out.obstruction.to_json(), out.kind]  # an ObstructionReport


def _gens(rng, ctx, count, max_degree=3):
    return [rand_poly(rng, ctx, max_degree, rng.randint(1, 3), zero_ok=False) for _ in range(count)]


def _columns(rng, ctx, rank, count):
    return [ModuleElement(_gens(rng, ctx, rank, 2)) for _ in range(count)]


def _combination(rng, ctx, gens, inside):
    """sum(c_i * g_i) with random c_i when inside, else a random element of
    the same kind."""
    module = isinstance(gens[0], ModuleElement)
    if not inside:
        return ModuleElement(_gens(rng, ctx, gens[0].rank)) if module else rand_poly(rng, ctx, 3, 3)
    cs = [rand_poly(rng, ctx, 1, 2) for _ in gens]
    terms = [g.scale_poly(c) if module else c * g for g, c in zip(gens, cs)]
    return sum(terms[1:], terms[0])


ORDERS = (GREVLEX, LEX)
GUARDS = (None, 6, 8)


def draws_buchberger(rng):
    for _ in range(100):
        ctx = rng.choice(CONTEXTS)
        gens = _gens(rng, ctx, rng.randint(2, 3), 5)
        order, guard = rng.choice(ORDERS), rng.choice(GUARDS)

        def run():
            gb = buchberger(gens, order, guard)
            return [gb.to_json(), [list(e) for e in gb.leads]]

        yield run


def draws_module_buchberger(rng):
    for _ in range(40):
        ctx = rng.choice(CONTEXTS)
        gens = _columns(rng, ctx, rng.randint(1, 2), rng.randint(1, 3))
        guard = rng.choice(GUARDS)

        def run():
            gb = module_buchberger(gens, GREVLEX, guard)
            return [gb.to_json(), [_jsons(row) for row in gb.source_cofactors]]

        yield run


def draws_normal_form(rng):
    for i in range(60):
        ctx = rng.choice(CONTEXTS)
        if i % 2:
            gb = module_buchberger(_columns(rng, ctx, 2, 2))
            v = ModuleElement(_gens(rng, ctx, 2))
            reduce = lambda: module_normal_form(v, gb)
        else:
            gb = buchberger(_gens(rng, ctx, rng.randint(1, 3)), rng.choice(ORDERS))
            p = rand_poly(rng, ctx, 4, 4)
            reduce = lambda: normal_form(p, gb)

        def run():
            trace = reduce()
            return [trace.remainder.to_json() if isinstance(trace.remainder, Polynomial)
                    else _jsons(trace.remainder.components), _jsons(trace.cofactors)]

        yield run


def draws_module_preimage(rng):
    for _ in range(40):
        ctx = rng.choice(CONTEXTS)
        cols = _columns(rng, ctx, rng.randint(1, 2), rng.randint(1, 3))
        b = _combination(rng, ctx, cols, rng.random() < 0.6)

        def run():
            x = module_preimage(cols, b)
            return None if x is None else _jsons(x.components)

        yield run


def draws_ideal_membership(rng):
    for _ in range(40):
        ctx = rng.choice(CONTEXTS)
        gens = _gens(rng, ctx, rng.randint(1, 3))
        p = _combination(rng, ctx, gens, rng.random() < 0.6)
        order = rng.choice(ORDERS)

        def run():
            x = ideal_membership(p, gens, order)
            return None if x is None else _jsons(x)

        yield run


def draws_standard_monomials(rng):
    for _ in range(60):
        ctx = rng.choice(CONTEXTS)
        gb = buchberger(_gens(rng, ctx, max(1, rng.randint(ctx.n - 1, ctx.n + 1))),
                        rng.choice(ORDERS))

        def run():
            sm = standard_monomials(gb)
            return [sm if isinstance(sm, str) else [list(e) for e in sm], quotient_dimension(gb)]

        yield run


def draws_koszul_lift(rng):
    """Boundaries of wedge degree 1 to 3 (cycles), random polyvectors (not
    cycles), zero, and an eps term."""
    for _ in range(60):
        ctx = CTX4 if rng.random() < 1 / 6 else CTX3
        f = _isolated_f(rng, ctx)
        kind = rng.choice(("boundary", "boundary", "random", "zero", "eps"))
        k = rng.randint(1, ctx.n - 1)
        masks = [m for m in range(1 << ctx.n) if m.bit_count() == k + (kind == "boundary")]
        z = GElement(ctx, {(0, rng.choice(masks)): rand_poly(rng, ctx, 2, 2) for _ in range(2)})
        if kind == "boundary":
            z = ad_f(f, z)
        elif kind == "zero":
            z = GElement.zero(ctx)
        elif kind == "eps":
            z = z + GElement(ctx, {(1, 0): Polynomial.one(ctx)})
        yield lambda: koszul_lift(f, z).to_json()


def draws_qc_validate(rng):
    for _ in range(80):
        f, p, s = _datum(rng)
        yield lambda: _outcome_json(qc_validate(f, p, s))


def draws_quantize_n3(rng):
    for _ in range(50):
        f, p, s = _datum(rng)
        yield lambda: _outcome_json(quantize_n3(f, p, s))


def _probe_datum(rng):
    """(f, p, S) for n = 4 that quantize_general finds obstructed at h^3
    now and then: f the sum of squares, S the boundary of (x_a + x_b) times
    one odd monomial of degree 3, p a monomial of degree 1 or 2."""
    f = _squares(CTX4)
    a, b = (Polynomial.variable(CTX4, i) for i in rng.sample(range(1, 5), 2))
    mask = rng.choice([m for m in range(16) if m.bit_count() == 3])
    exps = [0] * 4
    for _ in range(rng.randint(1, 2)):
        exps[rng.randrange(4)] += 1
    return f, Polynomial.monomial(CTX4, tuple(exps)), ad_f(f, GElement(CTX4, {(0, mask): a + b}))


def draws_quantize_general(rng):
    for i in range(100):
        probe = i % 2 > 0
        f, p, s = _probe_datum(rng) if probe else _datum(rng, 1 / 3)
        order = rng.randint(2 if probe else 1, 4)
        yield lambda: _outcome_json(quantize_general(f, p, s, order))


def _long(rng):
    """A numerator or denominator of up to 300 bits, small half the time."""
    return rng.randint(1, 9) if rng.random() < 0.5 else rng.getrandbits(rng.randint(60, 300)) + 1


def draws_parse_roundtrip(rng):
    """str of a drawn polynomial, polyvector, series or polynomial series,
    with long integers, parsed back."""
    for i in range(80):
        ctx = rng.choice(CONTEXTS)
        coeff = lambda r: Fraction(r.choice((-1, 1)) * _long(r), _long(r))
        if i % 4 == 0:
            x, parse = rand_poly(rng, ctx, 3, 3, coeff=coeff), parse_polynomial
        elif i % 4 == 1:
            x = GElement(ctx, {(rng.randint(0, 2), rng.randrange(1 << ctx.n)):
                               rand_poly(rng, ctx, 2, 2, coeff=coeff) for _ in range(3)})
            parse = parse_gelement
        elif i % 4 == 2:
            zero = GElement.zero(ctx)
            x = HSeries.sparse({k: GElement(ctx, {(0, rng.randrange(1 << ctx.n)):
                                                  rand_poly(rng, ctx, 2, 2, coeff=coeff)})
                                for k in range(4) if rng.random() < 0.6}, 4, zero)
            parse = lambda text, ctx: parse_series(text, ctx, 4)
        else:
            x = HSeries.sparse({k: rand_poly(rng, ctx, 2, 2, coeff=coeff)
                                for k in range(4) if rng.random() < 0.6}, 4, Polynomial.zero(ctx))
            parse = lambda text, ctx: parse_poly_series(text, ctx, 4)

        def run():
            back = parse(str(x), ctx)
            json_of = _series_json if isinstance(back, HSeries) else lambda y: y.to_json()
            return [str(x), json_of(back), back == x]

        yield run


def draws_brace(rng):
    for _ in range(300):
        ctx = rng.choice(CONTEXTS)
        p = _cochain(rng, ctx, rng.randint(1, 3))
        l = rng.randint(1, p.arity) if rng.random() < 0.9 else p.arity + 1  # refused
        qs = [_cochain(rng, ctx, rng.randint(0, max(1, 3 - l))) for _ in range(l)]
        yield lambda: brace(p, qs).to_json()


def draws_gerstenhaber_bracket(rng):
    for _ in range(100):
        ctx = rng.choice(CONTEXTS)
        p, q = (_cochain(rng, ctx, rng.randint(0, 3)) for _ in range(2))
        yield lambda: gerstenhaber_bracket(p, q).to_json()


def draws_hochschild_differential(rng):
    for _ in range(100):
        p = _cochain(rng, rng.choice(CONTEXTS), rng.randint(0, 3))
        yield lambda: hochschild_differential(p).to_json()


def draws_cup(rng):
    for _ in range(100):
        ctx = rng.choice(CONTEXTS)
        p, q = (_cochain(rng, ctx, rng.randint(0, 3)) for _ in range(2))
        yield lambda: cup(p, q).to_json()


def draws_hkr(rng):
    for _ in range(100):
        ctx = rng.choice(CONTEXTS)
        x = _polyvector(rng, ctx, rng.randint(0, ctx.n + 1))
        yield lambda: hkr(x).to_json()


def draws_schouten_bracket(rng):
    for _ in range(150):
        ctx = rng.choice(CONTEXTS)
        x, y = (rand_gelement(rng, ctx, 1, 3, rng.randint(1, 4)) for _ in range(2))
        yield lambda: schouten_bracket(x, y).to_json()


def draws_ad_f(rng):
    for _ in range(100):
        ctx = rng.choice(CONTEXTS)
        f = rand_poly(rng, ctx, 3, 3)
        x = rand_gelement(rng, ctx, 1, 2, rng.randint(1, 4))
        yield lambda: ad_f(f, x).to_json()


def draws_mc_residual(rng):
    for _ in range(60):
        ctx = rng.choice(CONTEXTS)
        f = rand_poly(rng, ctx, 3, 3)
        w = _series(rng, ctx)
        yield lambda: _series_json(mc_residual(f, w))


DRAWS = {
    name[len("draws_"):]: fn for name, fn in globals().items() if name.startswith("draws_")
}


def digest(name: str) -> str:
    """The SHA-256 of one function's outputs over its draws, seeded by name."""
    h = hashlib.sha256()
    for run in DRAWS[name](random.Random(name)):
        try:
            out = run()
        except Exception as exc:  # noqa: BLE001 - an abort is an output here
            out = type(exc).__name__
        h.update(json.dumps(out, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _stored() -> dict:
    return json.loads(STORE.read_text())


def test_every_function_has_a_stored_digest():
    assert sorted(_stored()) == sorted(DRAWS)


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_digest(name):
    assert digest(name) == _stored()[name]


if __name__ == "__main__":
    args = sys.argv[1:]
    stored = _stored() if STORE.exists() else {}
    if args[:1] == ["--write"]:
        for name in args[1:] or sorted(DRAWS):
            stored[name] = digest(name)
        STORE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    for name in sorted(DRAWS):
        got = digest(name)
        print(f"{name:24} {got}  {'ok' if stored.get(name) == got else 'CHANGED'}")
