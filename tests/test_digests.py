"""Differential digests of the Hochschild and polyvector layers.

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

import pytest

from ncunfold.hochschild import (
    PolyDiffOperator,
    brace,
    cup,
    gerstenhaber_bracket,
    hkr,
    hochschild_differential,
)
from ncunfold.poly import HSeries, RingContext
from ncunfold.polyvector import GElement, ad_f, mc_residual, schouten_bracket

from oracles import rand_gelement, rand_poly

STORE = pathlib.Path(__file__).with_name("digests.json")
CONTEXTS = [RingContext(("x", "y", "z")[:n]) for n in (1, 2, 3)]


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
