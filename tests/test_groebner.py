"""Groebner engine: bases, normal forms, membership, modules, preimages."""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from ncunfold import groebner
from ncunfold.errors import DegreeGuardExceeded
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
from ncunfold.parsing import parse_polynomial
from ncunfold.poly import INFINITE, Polynomial, RingContext, grevlex_key, monomial_divides
from ncunfold.singularity import Singularity, jacobian, milnor_number

from oracles import _normal_form_naive, _term_key, naive_buchberger, oracle_vector, rand_poly

CTX3 = RingContext(("x", "y", "z"))
CTX2 = RingContext(("x", "y"))
CTX1 = RingContext(("x",))


def xyz():
    return tuple(Polynomial.variable(CTX3, i) for i in (1, 2, 3))


def test_buchberger_monic_scaling():
    x, y, z = xyz()
    gb = buchberger([2 * x, 2 * y, 2 * z])
    assert list(gb.generators) == [x, y, z]


def test_buchberger_single_variable():
    u = Polynomial.variable(CTX1, 1)
    gb = buchberger([u])
    assert list(gb.generators) == [u]


def test_buchberger_redundant_generator():
    u = Polynomial.variable(CTX1, 1)
    gb = buchberger([u ** 2 - 1, u ** 3 - u])
    assert list(gb.generators) == [u ** 2 - 1]


def test_buchberger_rejects_trivial_input():
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero(CTX1)])


def test_normal_form_examples():
    x, y, z = xyz()
    gb = buchberger([x, y, z])
    inside = x ** 2 + y
    tr = normal_form(inside, gb)
    assert tr.remainder.is_zero()
    assert list(tr.cofactors) == [x, Polynomial.one(CTX3), Polynomial.zero(CTX3)]
    tr1 = normal_form(Polynomial.one(CTX3), gb)
    assert tr1.remainder == Polynomial.one(CTX3)


def test_normal_form_identity_enforced():
    rng = random.Random(4)
    gens = [rand_poly(rng, CTX2, 3, zero_ok=False) for _ in range(3)]
    gb = buchberger(gens)
    for _ in range(20):
        p = rand_poly(rng, CTX2, 5)
        tr = normal_form(p, gb)  # ReductionTrace rechecks the identity itself
        lead_exps = gb.leading_exponents()
        for exps in tr.remainder.terms:
            assert not any(monomial_divides(lt, exps) for lt in lead_exps)


def test_ideal_membership_examples():
    x, y, z = xyz()
    gens = [2 * x, 2 * y, 2 * z]
    cofs = ideal_membership(x ** 2 + y ** 2 + z ** 2, gens)
    assert cofs == (x / 2, y / 2, z / 2)
    assert ideal_membership(Polynomial.one(CTX3), gens) is None
    zeros = ideal_membership(Polynomial.zero(CTX3), gens)
    assert all(c.is_zero() for c in zeros)


def test_ideal_membership_degenerate_generators():
    # membership is the preimage problem of the one-row matrix of generators
    x, _, _ = xyz()
    zero = Polynomial.zero(CTX3)
    assert ideal_membership(x, [zero, zero]) is None  # x is not in the zero ideal
    assert ideal_membership(zero, [zero, zero]) == (zero, zero)
    for p in (x, zero):
        with pytest.raises(ValueError, match="no columns"):
            ideal_membership(p, [])


def test_ideal_membership_random_combinations():
    rng = random.Random(2718)
    for _ in range(25):
        gens = [rand_poly(rng, CTX2, 2, zero_ok=False) for _ in range(2)]
        combo = sum(
            (rand_poly(rng, CTX2, 2) * g for g in gens), Polynomial.zero(CTX2)
        )
        cofs = ideal_membership(combo, gens)
        assert cofs is not None
        rebuilt = sum((c * g for c, g in zip(cofs, gens)), Polynomial.zero(CTX2))
        assert rebuilt == combo


def test_standard_monomials():
    x, y, z = xyz()
    gb = buchberger([x, y, z])
    assert standard_monomials(gb) == [(0, 0, 0)]
    assert quotient_dimension(gb) == 1
    gb2 = buchberger([3 * x ** 2, 2 * y, 2 * z])
    assert standard_monomials(gb2) == [(0, 0, 0), (1, 0, 0)]
    assert quotient_dimension(gb2) == 2
    gb3 = buchberger([Polynomial.variable(CTX2, 1)])
    assert standard_monomials(gb3) == INFINITE
    assert quotient_dimension(gb3) == INFINITE


def test_standard_monomials_are_walked_once_and_returned_as_new_lists(monkeypatch):
    """A basis walks its leads once; each call returns an equal list of its
    own, so changing one leaves the next unchanged.  jacobian asks for the
    Milnor number and W and walks once."""
    walks = []
    real = groebner._standard_walk

    def counting(gb):
        walks.append(gb)
        return real(gb)

    monkeypatch.setattr(groebner, "_standard_walk", counting)
    x, y, z = xyz()
    gb = buchberger([x ** 3 + y * z, y ** 2 - x, z ** 2])
    first = standard_monomials(gb)
    second = standard_monomials(gb)
    assert first == second and first is not second
    first.append((9, 9, 9))
    first[0] = (8, 8, 8)
    assert standard_monomials(gb) == second and quotient_dimension(gb) == len(second)
    assert len(walks) == 1
    infinite = buchberger([x, y])
    assert standard_monomials(infinite) == quotient_dimension(infinite) == INFINITE
    assert standard_monomials(infinite) == INFINITE and len(walks) == 2
    for f in (x ** 3 + y ** 4 + z ** 2, x ** 2 * y):  # isolated, and not
        walks.clear()
        data = jacobian(f)
        assert len(walks) == 1
        assert data.w_basis == (() if data.milnor == INFINITE else tuple(standard_monomials(data.gb)))
        assert len(walks) == 1


def test_spolynomials_reduce_to_zero_post_hoc():
    rng = random.Random(31)
    for _ in range(10):
        gens = [rand_poly(rng, CTX2, 3, zero_ok=False) for _ in range(3)]
        gb = buchberger(gens)
        gens_gb = list(gb.generators)
        for i in range(len(gens_gb)):
            for j in range(i):
                gi, gj = gens_gb[i], gens_gb[j]
                lt_i = max(gi.terms, key=gb.order.key)
                lt_j = max(gj.terms, key=gb.order.key)
                lcm = tuple(max(a, b) for a, b in zip(lt_i, lt_j))
                ui = Polynomial.monomial(CTX2, tuple(a - b for a, b in zip(lcm, lt_i)),
                                         1 / gi.terms[lt_i])
                uj = Polynomial.monomial(CTX2, tuple(a - b for a, b in zip(lcm, lt_j)),
                                         1 / gj.terms[lt_j])
                spair = ui * gi - uj * gj
                assert normal_form(spair, gb).remainder.is_zero()


def test_reduced_basis_interreduction_property():
    rng = random.Random(77)
    for _ in range(10):
        gens = [rand_poly(rng, CTX2, 3, zero_ok=False) for _ in range(3)]
        gb = buchberger(gens)
        lead_exps = gb.leading_exponents()
        for k, g in enumerate(gb.generators):
            assert g.terms[max(g.terms, key=gb.order.key)] == 1  # monic
            for exps in g.terms:
                for j, lt in enumerate(lead_exps):
                    if j != k:
                        assert not monomial_divides(lt, exps)


def _rank_one(gens, order=GREVLEX, max_degree=None):
    """module_buchberger on the rank-1 columns gens: the ideal basis with
    its cofactors over gens, by the signature loop carrying cofactors."""
    return module_buchberger([ModuleElement((g,)) for g in gens], order, max_degree)


def test_source_cofactors_express_basis_over_input():
    rng = random.Random(13)
    gens = [rand_poly(rng, CTX2, 3, zero_ok=False) for _ in range(3)]
    gb = _rank_one(gens)
    assert [g.components[0] for g in gb.generators] == list(buchberger(gens).generators)
    for g, cofs in zip(gb.generators, gb.source_cofactors):
        rebuilt = sum((c * s for c, s in zip(cofs, gens)), Polynomial.zero(CTX2))
        assert rebuilt == g.components[0]


def test_determinism_byte_identical():
    x, y, z = xyz()
    gens = [x * y - z, y ** 2 - x, z ** 2 - x * y]
    blob1 = json.dumps(buchberger(gens).to_json(), sort_keys=True)
    blob2 = json.dumps(buchberger(gens).to_json(), sort_keys=True)
    assert blob1 == blob2
    lex_blob = json.dumps(buchberger(gens, LEX).to_json(), sort_keys=True)
    assert json.dumps(buchberger(gens, LEX).to_json(), sort_keys=True) == lex_blob


def test_lex_order_also_works():
    x, y, z = xyz()
    gb = buchberger([x - z ** 2, y - z ** 3], LEX)
    for spair_zero in gb.generators:
        assert normal_form(spair_zero, gb).remainder.is_zero()


def test_textbook_grevlex_basis():
    # published value: over QQ[x, y] with graded order and x > y,
    # (x^3 - 2xy, x^2 y + x - 2y^2) has basis {x^2, xy, y^2 - x/2};
    # here the bigger variable is the later one, so x -> b, y -> a
    ctx = RingContext(("a", "b"))
    a = Polynomial.variable(ctx, 1)
    b = Polynomial.variable(ctx, 2)
    gb = buchberger([b ** 3 - 2 * b * a, b * b * a + b - 2 * a * a])
    expected = {str(a * a - b * Fraction(1, 2)), str(a * b), str(b * b)}
    assert {str(g) for g in gb.generators} == expected


def test_textbook_lex_basis():
    # published value: over QQ[x, y, z] lex with x > y > z,
    # (-x^2 + y, -x^3 + z) has basis {x^2 - y, xy - z, xz - y^2, y^3 - z^2}
    ctx = RingContext(("c", "b", "a"))  # biggest variable last
    a = Polynomial.variable(ctx, 3)
    b = Polynomial.variable(ctx, 2)
    c = Polynomial.variable(ctx, 1)
    gb = buchberger([-a * a + b, -a * a * a + c], LEX)
    expected = {str(a * a - b), str(a * b - c), str(a * c - b * b),
                str(b ** 3 - c * c)}
    assert {str(g) for g in gb.generators} == expected


# -- modules ------------------------------------------------------------------


def test_module_single_generator():
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    elem = ModuleElement((y, -x))
    gb = module_buchberger([elem])
    assert list(gb.generators) == [elem]


def test_module_zero_matrix_columns():
    cols = [ModuleElement.zero(CTX3, 3) for _ in range(3)]
    gb = module_buchberger(cols)
    assert gb.generators == ()


def test_module_koszul_syzygy():
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    syz = ModuleElement((y, -x))
    gb = module_buchberger([syz])
    tr = module_normal_form(syz.scale_poly(x + y), gb)
    assert tr.remainder.is_zero()


def test_module_preimage_examples():
    x, y, z = xyz()
    columns = [ModuleElement((2 * x,)), ModuleElement((2 * y,)), ModuleElement((2 * z,))]
    b = ModuleElement((x ** 2 + y ** 2 + z ** 2,))
    sol = module_preimage(columns, b)
    assert sol == ModuleElement((x / 2, y / 2, z / 2))
    assert module_preimage(columns, ModuleElement((Polynomial.one(CTX3),))) is None
    zero = module_preimage(columns, ModuleElement((Polynomial.zero(CTX3),)))
    assert zero.is_zero()


def test_module_preimage_random_exactness():
    rng = random.Random(404)
    for _ in range(15):
        matrix = [
            [rand_poly(rng, CTX2, 2) for _ in range(3)],
            [rand_poly(rng, CTX2, 2) for _ in range(3)],
        ]
        xs = [rand_poly(rng, CTX2, 2) for _ in range(3)]
        b_parts = []
        for r in range(2):
            acc = Polynomial.zero(CTX2)
            for c in range(3):
                acc = acc + matrix[r][c] * xs[c]
            b_parts.append(acc)
        b = ModuleElement(tuple(b_parts))
        columns = [ModuleElement((matrix[0][c], matrix[1][c])) for c in range(3)]
        sol = module_preimage(columns, b)
        assert sol is not None
        for r in range(2):
            acc = Polynomial.zero(CTX2)
            for c in range(3):
                acc = acc + matrix[r][c] * sol.components[c]
            assert acc == b.components[r]


def test_module_dimension_mismatch():
    with pytest.raises(ValueError):
        module_preimage([ModuleElement((Polynomial.one(CTX2),))], ModuleElement.zero(CTX2, 2))


def test_module_spolynomials_reduce_to_zero_post_hoc():
    rng = random.Random(606)
    for _ in range(8):
        gens = [
            ModuleElement((rand_poly(rng, CTX2, 2), rand_poly(rng, CTX2, 2)))
            for _ in range(3)
        ]
        if all(g.is_zero() for g in gens):
            continue
        gb = module_buchberger(gens)
        basis = list(gb.generators)

        def leading(v):
            """((component, exps), coeff) of v's leading term, position over
            term with the lower component first."""
            terms = [((c, e), q) for c, p in enumerate(v.components) for e, q in p.terms.items()]
            return max(terms, key=lambda t: (-t[0][0], gb.order.key(t[0][1])))

        for i in range(len(basis)):
            for j in range(i):
                (ci, ei), lci = leading(basis[i])
                (cj, ej), lcj = leading(basis[j])
                if ci != cj:
                    continue
                lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                ui = Polynomial.monomial(
                    CTX2, tuple(a - b for a, b in zip(lcm, ei)), 1 / lci
                )
                uj = Polynomial.monomial(
                    CTX2, tuple(a - b for a, b in zip(lcm, ej)), 1 / lcj
                )
                spair = basis[i].scale_poly(ui) - basis[j].scale_poly(uj)
                assert module_normal_form(spair, gb).remainder.is_zero()


def test_module_basis_json_schema():
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    gb = module_buchberger([ModuleElement((y, -x))])
    blob = gb.to_json()
    assert blob["module_rank"] == 2
    assert blob["order"] == "grevlex"
    rebuilt = [
        ModuleElement(tuple(Polynomial.from_json(CTX2, c) for c in comps))
        for comps in blob["generators"]
    ]
    assert rebuilt == list(gb.generators)


# -- differential gate: the engine against the textbook algorithm -------------


def _proper_poly(rng, ctx, max_degree, n_terms):
    """Random polynomial without constant term, so ideals are mostly proper."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ctx.n
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(ctx.n)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(ctx, terms)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_reduced_basis_matches_naive_buchberger(order):
    """buchberger and module_buchberger on the rank-1 module give the
    textbook reduced basis exactly, on random ideals in two and three
    variables, and the leads buchberger stores are the leading exponents of
    its generators; module_buchberger on random rank-2 modules gives the
    textbook basis too."""
    _random_bases_match_naive(order)


def _random_bases_match_naive(order):
    rng = random.Random(4242)
    sizes = []
    for _ in range(30):
        ctx = rng.choice([CTX2, CTX3])
        gens = [_proper_poly(rng, ctx, 3, 3) for _ in range(rng.randint(2, 3))]
        if all(g.is_zero() for g in gens):
            continue
        want = naive_buchberger(gens, order.kind)
        sizes.append(len(want))
        gb = buchberger(gens, order)
        assert [oracle_vector(g) for g in gb.generators] == want
        assert gb.leading_exponents() == [max(g.nums, key=order.key) for g in gb.generators]
        rank_one = _rank_one(gens, order)
        assert [oracle_vector(g.components) for g in rank_one.generators] == want
    assert max(sizes) >= 3  # the draw reaches nontrivial bases
    for _ in range(20):
        ctx = rng.choice([CTX2, CTX3])
        gens = [
            (_proper_poly(rng, ctx, 2, 2), _proper_poly(rng, ctx, 2, 2))
            for _ in range(rng.randint(2, 3))
        ]
        gb = module_buchberger([ModuleElement(g) for g in gens], order)
        assert [oracle_vector(g.components) for g in gb.generators] == naive_buchberger(
            gens, order.kind
        )


# -- packed term keys: order, divisibility, widening ---------------------------


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_packed_keys_follow_the_term_order(kind):
    """At width 3 (degrees up to 7): a smaller key is a larger term, the
    component first; the guard-bit test is monomial divisibility; keys
    unpack to their exponents; degree 8 does not pack."""
    pk = groebner._Packing(kind, 3, 3)
    order = groebner.MonomialOrder(kind)
    monomials = [e for e in itertools.product(range(8), repeat=3) if sum(e) <= 7]
    terms = [(c, e) for c in (0, 1) for e in monomials]
    by_key = sorted(terms, key=lambda t: pk.key(*t))
    # position over term, the lower component first
    assert by_key == sorted(terms, key=lambda t: (-t[0], order.key(t[1])), reverse=True)
    fresh = groebner._Packing(kind, 3, 3)  # knows no key yet: unpacks the fields
    for c, e in terms:
        k = pk.key(c, e)
        assert fresh.term(k) == (c, e) and pk.degree(k) == sum(e)
    rng = random.Random(3)
    for _ in range(3000):
        a, b = rng.choice(terms), rng.choice(terms)
        want = a[0] == b[0] and monomial_divides(a[1], b[1])
        assert pk.divides(pk.key(*a), pk.key(*b)) == want
    with pytest.raises(groebner._Overflow):
        pk.key(0, (0, 8, 0))
    with pytest.raises(groebner._Overflow):
        pk.checked(pk.key(0, (0, 7, 0)) + pk.key(0, (1, 0, 0)) - pk.one)


@pytest.fixture
def widths(monkeypatch):
    """The field width of every packing built, in order, with None before
    each computation: one that widens builds a second packing."""
    built = []
    packed = groebner._packed

    def recording(*args):
        built.append(None)
        return packed(*args)

    class Recording(groebner._Packing):
        def __init__(self, kind, n, width):
            built.append(width)
            super().__init__(kind, n, width)

    monkeypatch.setattr(groebner, "_packed", recording)
    monkeypatch.setattr(groebner, "_Packing", Recording)
    return built


def _widened(widths):
    return any(a is not None and b is not None for a, b in zip(widths, widths[1:]))


HUGE = [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("big", HUGE)
def test_huge_exponents_are_never_wrapped(order, big, widths):
    """Exponents around 2^16 and 2^32 give the textbook bases and normal
    forms, as ideals and as modules.  The initial width holds degrees up
    to 4N at least and 8N at most; under lex y - x^N turns y^9 into
    x^(9N), so those computations widen."""
    x, y, z = xyz()
    xn = x ** big
    ideals = [
        [xn - y, y ** 9 - x],
        [xn * y - z, y ** 2 - x * z, z ** 3 - y],
        [xn - z * y ** big, y ** (big + 1) - x],
    ]
    for gens in ideals:
        want = naive_buchberger(gens, order.kind)
        gb = buchberger(gens, order)
        assert [oracle_vector(g) for g in gb.generators] == want
        assert gb.leading_exponents() == [max(g.nums, key=order.key) for g in gb.generators]
        rank_one = _rank_one(gens, order)
        assert [oracle_vector(g.components) for g in rank_one.generators] == want
    columns = [(xn, y), (y ** 2, xn * z - 1), (z, x)]
    gb = module_buchberger([ModuleElement(c) for c in columns], order)
    assert [oracle_vector(g.components) for g in gb.generators] == naive_buchberger(
        columns, order.kind
    )
    gb = buchberger([xn - y])
    assert normal_form(x ** (3 * big) * y ** 2, gb).remainder == y ** 5
    gb = buchberger([xn - y], LEX)
    assert normal_form(x ** (3 * big) * y ** 2, gb).remainder == x ** (5 * big)
    # y = x^N in the first component: y^9 becomes x^(9N), and each step
    # takes z * y^(8-i) * x^(iN) off the second
    trace = module_normal_form(ModuleElement((y ** 9, xn)),
                               module_buchberger([ModuleElement((y - xn, z))], LEX))
    geometric = sum((y ** (8 - i) * x ** (i * big) for i in range(9)), Polynomial.zero(CTX3))
    assert trace.remainder == ModuleElement((x ** (9 * big), xn - z * geometric))
    assert _widened(widths)


def test_minimum_width_widens_and_matches_naive(monkeypatch, widths):
    """With no bits to spare above the input degree, the random-ideal and
    module differential draw still gives the textbook bases, and at least
    one computation restarts at a wider field; normal forms come out the
    same as at the default width."""
    rng = random.Random(99)
    gens = [rand_poly(rng, CTX3, 3, zero_ok=False) for _ in range(3)]
    probes = [rand_poly(rng, CTX3, 6) for _ in range(10)]
    default = [normal_form(p, buchberger(gens)) for p in probes]
    monkeypatch.setattr(groebner, "_MARGIN", 0)
    widths.clear()
    for order in (GREVLEX, LEX):
        _random_bases_match_naive(order)
    assert _widened(widths)
    gb = buchberger(gens)
    for p, want in zip(probes, default):
        trace = normal_form(p, gb)
        assert (trace.remainder, trace.cofactors) == (want.remainder, want.cofactors)


# -- the degree guard ----------------------------------------------------------


GUARD_MESSAGE = "intermediate degree exceeded the limit 5"


def _guarded_basis(gens, order, max_degree, cofactors):
    """The ideal basis of gens under max_degree: from the cofactor-carrying
    run (module_buchberger on the rank-1 columns) when cofactors is set,
    else from the cofactor-free run (buchberger)."""
    if cofactors:
        return [g.components[0] for g in _rank_one(gens, order, max_degree).generators]
    return list(buchberger(gens, order, max_degree).generators)


@pytest.mark.parametrize("cofactors", [True, False])
def test_degree_guard_below_input_degree(cofactors):
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    gens = [x ** 6 + y, y ** 2]  # x^6 + y is already a basis element's lead
    with pytest.raises(DegreeGuardExceeded, match=GUARD_MESSAGE):
        _guarded_basis(gens, GREVLEX, 5, cofactors)
    # x^6 is redundant and dropped unreduced, yet its degree is guarded too
    with pytest.raises(DegreeGuardExceeded, match=GUARD_MESSAGE):
        _guarded_basis([x ** 6, x], GREVLEX, 5, cofactors)
    with pytest.raises(DegreeGuardExceeded, match=GUARD_MESSAGE):
        normal_form(x ** 6, buchberger([y]), max_degree=5)
    assert len(_guarded_basis(gens, GREVLEX, 6, cofactors)) == 2


@pytest.mark.parametrize("cofactors", [True, False])
def test_degree_guard_crossed_by_an_intermediate_term(cofactors):
    """Under lex (y > x) every input and the S-pair -x^3*y - x stay within
    degree 5, but reducing it by y - x^3 creates x^6."""
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    gens = [y - x ** 3, y ** 2 + x]
    with pytest.raises(DegreeGuardExceeded, match=GUARD_MESSAGE):
        _guarded_basis(gens, LEX, 5, cofactors)
    assert _guarded_basis(gens, LEX, 6, cofactors) == list(buchberger(gens, LEX).generators)
    gb = buchberger([y - x ** 3], LEX, 5)
    with pytest.raises(DegreeGuardExceeded, match=GUARD_MESSAGE):
        normal_form(y ** 2, gb, max_degree=5)
    assert normal_form(y ** 2, gb, max_degree=6).remainder == x ** 6
    if cofactors:
        module = _rank_one([y - x ** 3], LEX, 5)
        with pytest.raises(DegreeGuardExceeded, match=GUARD_MESSAGE):
            module_normal_form(ModuleElement((y ** 2,)), module, max_degree=5)
        trace = module_normal_form(ModuleElement((y ** 2,)), module, max_degree=6)
        assert trace.remainder == ModuleElement((x ** 6,))


def _abort_or_basis(compute):
    try:
        return compute()
    except DegreeGuardExceeded:
        return "abort"


def test_degree_guard_reads_no_cofactor_component():
    """The cofactors ride along as components past the rank, yet the guard
    holds only the module's: on 400 small ideals at guards 3 to 5, the
    rank-1 module basis aborts exactly when the ideal basis does, and is
    the same basis otherwise.  On the columns below, a cofactor passes
    degree 3 on the way to the basis (1)."""
    rng = random.Random(2020)
    aborts = 0
    for _ in range(400):
        ctx = rng.choice([CTX2, CTX3])
        gens = [rand_poly(rng, ctx, 3, rng.randint(1, 3), zero_ok=False)
                for _ in range(rng.randint(2, 3))]
        guard = rng.choice([3, 4, 5])
        ideal = _abort_or_basis(lambda: list(buchberger(gens, max_degree=guard).generators))
        module = _abort_or_basis(lambda: [g.components[0] for g in
                                          _rank_one(gens, max_degree=guard).generators])
        assert module == ideal, (gens, guard)
        aborts += ideal == "abort"
    assert aborts >= 5

    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    gb = _rank_one([2 - 2 * x ** 2 * y, y, 2 * x ** 2], max_degree=3)
    assert gb.generators == (ModuleElement((Polynomial.one(CTX2),)),)
    assert gb.source_cofactors == ((Polynomial.constant(CTX2, Fraction(1, 2)), x ** 2,
                                    Polynomial.zero(CTX2)),)


# -- cofactors are computed only where they are read ---------------------------


def test_basis_without_cofactors():
    """An ideal basis carries no cofactors; normal forms over it do, and
    the rank-1 module basis, which carries them, is the same basis and
    rewrites a normal form over the input."""
    x, y, z = xyz()
    gens = [x * y - z, y ** 2 - x, z ** 2 - y]
    bare = buchberger(gens)
    full = _rank_one(gens)
    assert [g.components[0] for g in full.generators] == list(bare.generators)
    assert full.source == tuple(ModuleElement((g,)) for g in gens)
    assert len(full.source_cofactors) == len(full.generators)
    for g, row in zip(full.generators, full.source_cofactors):
        assert sum((c * s for c, s in zip(row, gens)), Polynomial.zero(CTX3)) == g.components[0]
    trace = normal_form(x ** 3 * z, bare)
    assert trace.cofactors  # over the basis itself the trace is complete
    module = module_normal_form(ModuleElement((x ** 3 * z,)), full).over_source(full)
    assert module.remainder.components[0] == trace.remainder
    # Singularity.jacobian, which qc_normalize reads, is the same basis
    f = x ** 3 + x * y ** 3 + z ** 2
    assert Singularity(f).jacobian().gb == jacobian(f).gb


def test_dense_jacobian_basis_matches_naive_buchberger():
    """The Milnor workload's shape: dense f of degree 4 in three variables,
    whose Jacobian basis has coefficients of hundreds of bits.  The basis
    equals the textbook one and mu is the Bezout count (d-1)^n = 27.  (The
    linear-algebra milnor_oracle takes minutes at this size.)"""
    rng = random.Random(34)
    monomials = [e for e in itertools.product(range(5), repeat=3) if 2 <= sum(e) <= 4]
    for _ in range(2):
        f = Polynomial(CTX3, {e: rng.randint(-9, 9) for e in monomials})
        partials = [f.partial(i) for i in (1, 2, 3)]
        want = naive_buchberger(partials)
        gb = buchberger(partials)
        assert [oracle_vector(g) for g in gb.generators] == want
        leads = [max(g, key=lambda t: grevlex_key(t[1]))[1] for g in want]
        standard = [
            e for e in itertools.product(range(13), repeat=3)
            if not any(monomial_divides(lead, e) for lead in leads)
        ]
        assert milnor_number(f) == len(standard) == 27



def test_long_reductions_match_the_naive_remainder():
    """Dense p of degree 12-14 modulo a dense (3, 4) Jacobian basis, whose
    coefficients have hundreds of bits: each normal form takes hundreds of
    fraction-free steps, and its remainder is the textbook one over the
    monic basis.  (ReductionTrace rechecks the cofactor identity.)"""
    rng = random.Random(35)
    monomials = [e for e in itertools.product(range(5), repeat=3) if 2 <= sum(e) <= 4]
    f = Polynomial(CTX3, {e: rng.randint(-9, 9) for e in monomials})
    gb = buchberger([f.partial(i) for i in (1, 2, 3)])
    basis = [oracle_vector(g) for g in gb.generators]
    key = _term_key("grevlex")
    for degree in (12, 13, 14):
        cube = itertools.product(range(degree + 1), repeat=3)
        p = Polynomial(CTX3, {e: rng.randint(-9, 9) for e in cube if sum(e) <= degree})
        trace = normal_form(p, gb)
        assert oracle_vector(trace.remainder) == _normal_form_naive(oracle_vector(p), basis, key)


# -- the signature loop of cofactor-free ideal bases ---------------------------


class LoopCounter:
    """Counts, once installed over groebner._reduce and _interreduce, the
    reductions to zero and the singular-top-reducible entries of the
    signature loop: those whose leading term an earlier entry of their
    input index reaches, shifted, with the same signature."""

    def __init__(self):
        self.to_zero = self.singular = 0
        self.inner = groebner._reduce, groebner._interreduce

    def install(self, patch):
        patch.setattr(groebner, "_reduce", self.reduce)
        patch.setattr(groebner, "_interreduce", self.interreduce)

    def reduce(self, *args):
        out = self.inner[0](*args)
        self.to_zero += not out[0]
        return out

    def interreduce(self, ctx, rank, entries, pk, max_degree):
        # signatures are packed like terms: shifting e.sig by the quotient of
        # the leading terms adds the difference of their keys
        for k, h in enumerate(entries):
            if h.sig is not None:
                idx, sig = h.sig
                self.singular += any(
                    e.sig[0] == idx and monomial_divides(e.lead[1], h.lead[1])
                    and e.sig[1] + h.key - e.key == sig
                    for e in entries[:k]
                )
        return self.inner[1](ctx, rank, entries, pk, max_degree)


def _signature_draw(rng):
    """Three or four generators of degree at most 3 with two or three
    terms, in two or three variables, now and then with a zero generator
    or a copy or multiple of another one added.  (Small, so that the
    naive oracle, which every draw is checked against, stays quick.)"""
    ctx = rng.choice([CTX2, CTX3])
    gens = [_proper_poly(rng, ctx, 3, rng.randint(2, 3)) for _ in range(rng.randint(3, 4))]
    roll = rng.random()
    if roll < 0.15:
        gens.insert(rng.randrange(len(gens) + 1), Polynomial.zero(ctx))
    elif roll < 0.3:
        gens.append(Fraction(rng.choice([-2, 1, 2, 3]), 2) * rng.choice(gens))
    return gens


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_signature_basis_matches_classic_and_naive(order, monkeypatch):
    """The cofactor-free signature loop (buchberger), the cofactor-carrying
    run (module_buchberger on the rank-1 columns) and the textbook
    algorithm give the same reduced basis on 150 random ideals per order.  The draw reaches reductions to
    zero in the signature loop and singular-top-reducible results, which
    it keeps."""
    rng = random.Random(8080 if order is GREVLEX else 8081)
    counter = LoopCounter()
    checked = 0
    while checked < 150:
        gens = _signature_draw(rng)
        if all(g.is_zero() for g in gens):
            continue
        checked += 1
        want = naive_buchberger(gens, order.kind)
        carried = _rank_one(gens, order)
        with monkeypatch.context() as m:
            counter.install(m)
            signature = buchberger(gens, order)
        assert [oracle_vector(g) for g in signature.generators] == want
        assert list(signature.generators) == [g.components[0] for g in carried.generators]
    assert counter.to_zero >= 1
    assert counter.singular >= 1


@pytest.mark.parametrize(
    "texts,leads",
    [
        (
            ("1/2*x^3*y^2*z^3 + 1/3",
             "3*x^2*y^2*z^2 - 1/2*x^3*z^3 + 5/3*x^2*z^3 + 3/2*x*y^2*z"),
            [(1, 2, 1), (0, 6, 0), (4, 0, 3), (3, 0, 4)],
        ),
        (
            ("-1/3*x*y + 3*z - 1/2*y - 2*x", "4/3*x*y*z - x^2*y - 3*y*z", "-4*x^2*z - 2*y"),
            [(1, 1, 0), (0, 0, 2), (3, 0, 0), (2, 0, 1), (0, 3, 0), (0, 2, 1)],
        ),
    ],
    ids=["singular_results_kept", "reducers_below_signature"],
)
def test_signature_loop_fixed_cases(texts, leads):
    """Discarding the results whose leading term only a reducer of equal
    signature divides loses two leading terms of the first basis;
    admitting reducers whose shifted signature is not below the pair's
    loses y^3 from the second."""
    gens = [parse_polynomial(t, CTX3) for t in texts]
    gb = buchberger(gens)
    assert gb.leading_exponents() == leads
    assert list(gb.generators) == [g.components[0] for g in _rank_one(gens).generators]
    assert [oracle_vector(g) for g in gb.generators] == naive_buchberger(gens)


def _dense(rng, n, d):
    """f on every monomial of degree 2..d, coefficients in [-9, 9]."""
    ctx = RingContext(tuple("xyzw"[:n]))
    monomials = [e for e in itertools.product(range(d + 1), repeat=n) if 2 <= sum(e) <= d]
    return Polynomial(ctx, {e: rng.randint(-9, 9) for e in monomials})


@pytest.mark.parametrize("n,d", [(3, 4), (3, 5), (4, 4)])
def test_dense_jacobian_has_no_reduction_to_zero(n, d, monkeypatch):
    """The partials of a dense f form a regular sequence, and so do their
    leading forms: the signature loop reduces nothing to zero on either,
    the basis of the partials being built on the first read of gb; mu is
    the Bezout count."""
    f = _dense(random.Random(45), n, d)
    counter = LoopCounter()
    counter.install(monkeypatch)
    data = jacobian(f)
    assert data.milnor == milnor_number(f) == (d - 1) ** n
    assert data.gb.leading_exponents()
    assert counter.to_zero == 0


def test_dense_jacobian_under_lex():
    """Under lex a Buchberger loop with the product and chain criteria took
    tens of seconds on this f; the signature loop takes a fraction of one."""
    f = _dense(random.Random(1), 2, 6)
    start = time.perf_counter()
    assert jacobian(f, LEX).milnor == jacobian(f).milnor == 25
    assert time.perf_counter() - start < 5


FOUR_SMALL = ("1/2*x*z^2 - x*y*z + 4*x*y^2", "y^2*z - 3*x*y - 2*y",
              "-x*z^2 + 3*x*z + z + 2/3*y", "y^2*z + 1/3*x^2*z - 3*x^2")


def test_lex_basis_of_four_small_generators():
    """A Buchberger loop with the product and chain criteria did not finish
    on these four generators under lex in 250 s; the signature loop, which
    every basis runs, takes a fraction of a second."""
    gens = [parse_polynomial(t, CTX3) for t in FOUR_SMALL]
    start = time.perf_counter()
    gb = buchberger(gens, LEX)
    assert time.perf_counter() - start < 10
    x, y, z = xyz()
    assert set(gb.generators) == {x ** 2, y, z}


def test_lex_module_basis_and_membership_of_four_small_generators():
    """The same four generators as rank-1 columns, whose basis carries
    cofactors: the module basis and a membership certificate under lex
    each take well under the bound, where the loop with the product and
    chain criteria gave no result within 20 s."""
    gens = [parse_polynomial(t, CTX3) for t in FOUR_SMALL]
    x, y, z = xyz()
    start = time.perf_counter()
    gb = _rank_one(gens, LEX)
    assert time.perf_counter() - start < 10
    assert {g.components[0] for g in gb.generators} == {x ** 2, y, z}
    for g, row in zip(gb.generators, gb.source_cofactors):
        assert sum((c * s for c, s in zip(row, gens)), Polynomial.zero(CTX3)) == g.components[0]
    p = gens[0] * gens[3]
    start = time.perf_counter()
    cofactors = ideal_membership(p, gens, LEX)
    assert time.perf_counter() - start < 10
    assert sum((c * s for c, s in zip(cofactors, gens)), Polynomial.zero(CTX3)) == p
