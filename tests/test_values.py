"""Value semantics of the library's record classes: constructor signatures,
defaults, coercions and checks, equality and hashing over their fields,
immutability, and copy and pickle round trips."""

import copy
import inspect
import pickle

import pytest

from ncunfold import errors
from ncunfold.errors import ContextMismatch
from ncunfold.groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    ModuleElement,
    ModuleGroebnerBasis,
    MonomialOrder,
    ReductionTrace,
    buchberger,
    module_buchberger,
    normal_form,
    quotient_dimension,
    standard_monomials,
)
from ncunfold.parsing import parse_gelement, parse_polynomial
from ncunfold.poly import HSeries, Polynomial, RingContext, Substitution
from ncunfold.polyvector import GElement
from ncunfold.singularity import JacobianData, Singularity, jacobian
from ncunfold.unfolding import (
    EXACT,
    MCReport,
    MCSolution,
    ObstructionReport,
    OrderResidual,
    QCViolation,
    QuasiClassicalDatum,
    mc_verify,
    qc_validate,
    quantize_n3,
)

CTX2 = RingContext(("x", "y"))
CTX3 = RingContext(("x", "y", "z"))
OTHER = RingContext(("u", "v"))
P = Polynomial
EMPTY = inspect.Parameter.empty


def poly(text, ctx=CTX2):
    return parse_polynomial(text, ctx)


def gel(text, ctx=CTX3):
    return parse_gelement(text, ctx)


# -- one instance of each class, built as the library builds it --------------

F3 = poly("x^2 + y^2 + z^2", CTX3)
S1 = gel("2*z*D(1,2) - 2*y*D(1,3) + 2*x*D(2,3)")
GB = buchberger([poly("x^2 - y"), poly("x*y - 1")])
MGB = module_buchberger([ModuleElement((poly("x"), poly("y"))), ModuleElement((poly("y"), P.zero(CTX2)))])
TRACE = normal_form(poly("x^3 + y"), GB)
DATUM = qc_validate(F3, poly("x", CTX3), S1)
SOLUTION = quantize_n3(F3, poly("x", CTX3), S1)
BAD = MCSolution(2, HSeries([P.zero(CTX3), P.zero(CTX3), P.zero(CTX3)]),
                 HSeries([GElement.zero(CTX3), gel("x*D(1,2)"), GElement.zero(CTX3)]))
REPORT = mc_verify(F3, BAD)
RESIDUAL = REPORT.nonzero[0]


def instances():
    """(class, instance, an equal instance built separately, an unequal one)."""
    sing = Singularity(poly("x^3 + y^2"))
    sing.jacobian()  # a computed cache on one side of the comparison
    return [
        (RingContext, RingContext(("x", "y")), RingContext(["x", "y"]), RingContext(("y", "x"))),
        (Substitution, Substitution.identity(CTX2), Substitution(CTX2, [poly("x"), poly("y")]),
         Substitution(CTX2, (poly("y"), poly("x")))),
        (MonomialOrder, MonomialOrder(), MonomialOrder("grevlex"), LEX),
        (ModuleElement, ModuleElement((poly("x"), poly("y"))),
         ModuleElement([poly("x"), poly("y")]), ModuleElement((poly("y"), poly("x")))),
        (GroebnerBasis, GB, GroebnerBasis(GB.generators, GREVLEX, ()),
         GroebnerBasis(GB.generators, LEX, GB.leads)),
        (ModuleGroebnerBasis, MGB,
         ModuleGroebnerBasis(MGB.generators, GREVLEX, 2, MGB.source, ()),
         ModuleGroebnerBasis(MGB.generators, GREVLEX, 2, (), MGB.source_cofactors)),
        (ReductionTrace, TRACE,
         ReductionTrace(TRACE.input, TRACE.basis, TRACE.remainder, TRACE.cofactors),
         normal_form(poly("x^3"), GB)),
        (JacobianData, jacobian(poly("x^3 + y^2")), jacobian(poly("x^3 + y^2")),
         jacobian(poly("x^4 + y^2"))),
        (Singularity, sing, Singularity(poly("x^3 + y^2")), Singularity(poly("x^3 + y^2"), 8)),
        (QCViolation, QCViolation("not_poisson", "[S, S] != 0"),
         QCViolation("not_poisson", "[S, S] != 0", None), QCViolation("wrong_degree", "m")),
        (QuasiClassicalDatum, DATUM, QuasiClassicalDatum(
            DATUM.f, DATUM.p_raw, DATUM.p_normal, DATUM.s, DATUM.extension_bivector, DATUM.lift),
         QuasiClassicalDatum(DATUM.f, DATUM.p_normal, DATUM.p_normal, DATUM.s,
                             DATUM.extension_bivector, DATUM.lift)),
        (MCSolution, SOLUTION, MCSolution(EXACT, SOLUTION.p_series, SOLUTION.s_series,
                                          SOLUTION.witness),
         MCSolution(EXACT, SOLUTION.p_series, SOLUTION.s_series)),
        (ObstructionReport, ObstructionReport(2, S1, "poisson_failure"),
         ObstructionReport(failing_order=2, obstruction=S1, kind="poisson_failure"),
         ObstructionReport(3, S1, "poisson_failure")),
        (OrderResidual, RESIDUAL, OrderResidual(RESIDUAL.h_power, RESIDUAL.bracket_f_minus_p_s,
                                                RESIDUAL.poisson_square, RESIDUAL.residual),
         OrderResidual(RESIDUAL.h_power + 1, RESIDUAL.bracket_f_minus_p_s,
                       RESIDUAL.poisson_square, RESIDUAL.residual)),
        (MCReport, REPORT, MCReport(REPORT.nonzero, REPORT.top, REPORT.zero,
                                    REPORT.witness_consistent, REPORT.ok),
         MCReport((), REPORT.top, REPORT.zero, None, True)),
    ]


CASES = instances()
IDS = [cls.__name__ for cls, *_ in CASES]

# the constructor of each class: (name, default) per parameter, all positional-or-keyword
SIGNATURES = {
    RingContext: [("names", EMPTY)],
    Substitution: [("ctx", EMPTY), ("images", EMPTY)],
    MonomialOrder: [("kind", "grevlex")],
    ModuleElement: [("components", EMPTY)],
    GroebnerBasis: [("generators", EMPTY), ("order", EMPTY), ("leads", EMPTY)],
    ModuleGroebnerBasis: [("generators", EMPTY), ("order", EMPTY), ("rank", EMPTY),
                          ("source", ()), ("source_cofactors", ())],
    ReductionTrace: [("input", EMPTY), ("basis", EMPTY), ("remainder", EMPTY),
                     ("cofactors", EMPTY)],
    JacobianData: [("partials", EMPTY), ("gb", EMPTY), ("milnor", EMPTY), ("w_basis", EMPTY)],
    Singularity: [("f", EMPTY), ("max_degree", None)],
    QCViolation: [("kind", EMPTY), ("message", EMPTY), ("element", None)],
    QuasiClassicalDatum: [("f", EMPTY), ("p_raw", EMPTY), ("p_normal", EMPTY), ("s", EMPTY),
                          ("extension_bivector", EMPTY), ("lift", EMPTY)],
    MCSolution: [("order", EMPTY), ("p_series", EMPTY), ("s_series", EMPTY), ("witness", None)],
    ObstructionReport: [("failing_order", EMPTY), ("obstruction", EMPTY), ("kind", EMPTY)],
    OrderResidual: [("h_power", EMPTY), ("bracket_f_minus_p_s", EMPTY),
                    ("poisson_square", EMPTY), ("residual", EMPTY)],
    MCReport: [("nonzero", EMPTY), ("top", EMPTY), ("zero", EMPTY),
               ("witness_consistent", EMPTY), ("ok", EMPTY)],
}

# the fields that == compares and hash hashes, in order; None where a field
# value is unhashable (a GElement or an HSeries), so hash raises TypeError
COMPARED = {
    RingContext: ("names",),
    Substitution: ("ctx", "images"),
    MonomialOrder: ("kind",),
    ModuleElement: ("components",),
    GroebnerBasis: ("generators", "order"),
    ModuleGroebnerBasis: ("generators", "order", "rank", "source"),
    ReductionTrace: ("input", "basis", "remainder", "cofactors"),
    JacobianData: ("partials", "gb", "milnor", "w_basis"),
    Singularity: ("f", "max_degree"),
    QCViolation: ("kind", "message", "element"),
    QuasiClassicalDatum: None,
    MCSolution: None,
    ObstructionReport: None,
    OrderResidual: None,
    MCReport: None,
}


def test_every_public_class_is_covered():
    assert set(SIGNATURES) == set(COMPARED) == {cls for cls, *_ in CASES}
    assert len(CASES) == 15


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=IDS)
def test_constructor_signature(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_keyword_construction_equals_positional(case):
    cls, value, _, _ = case
    names = [name for name, _ in SIGNATURES[cls]]
    args = [getattr(value, name) for name in names]
    assert cls(**dict(zip(names, args))) == cls(*args) == value


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash_over_the_compared_fields(case):
    cls, value, same, different = case
    assert value is not same
    assert value == same and not (value != same)
    assert value != different and not (value == different)
    assert value != 5 and value != object()
    fields = COMPARED[cls]
    if fields is None:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert tuple(getattr(value, f) for f in fields) == tuple(getattr(same, f) for f in fields)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(case):
    cls, value, _, _ = case
    name = SIGNATURES[cls][0][0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


def _round_trips(cls):
    trips = [copy.copy]
    # an HSeries took neither deepcopy nor pickle before it had a __reduce__:
    # test_series_and_solutions_copy_and_pickle checks them apart
    if cls is not MCSolution:
        trips += [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
    return trips


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_value(case):
    cls, value, _, _ = case
    for trip in _round_trips(cls):
        twin = trip(value)
        assert type(twin) is cls and twin == value


def test_series_and_solutions_copy_and_pickle():
    """An HSeries, and so an MCSolution, survives deepcopy and pickle (its
    read-only view of terms failed both)."""
    for value in (SOLUTION, SOLUTION.s_series, BAD):
        for trip in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            twin = trip(value)
            assert type(twin) is type(value) and twin == value


def test_every_error_pickles_with_its_payload():
    """Each exception class of the errors module round-trips through pickle
    with its message and payload (ParseError lost its position and
    QCInvalid its violations, and neither could be unpickled)."""
    violations = [QCViolation("not_poisson", "[S, S] != 0", gel("D(1,2)")),
                  QCViolation("wrong_degree", "S is not a bivector")]
    cases = [errors.UnfoldError("base"), errors.ContextMismatch("mixed"),
             errors.ParseError("bad", 3), errors.DegreeGuardExceeded("degree 9"),
             errors.BudgetExceeded("stage: 10001 steps"), errors.NotIsolated("mu infinite"),
             errors.NotACycle("not closed", gel("x*D(1)")), errors.QCInvalid(violations)]
    assert {type(e) for e in cases} == {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.UnfoldError)}
    for error in cases:
        twin = pickle.loads(pickle.dumps(error))
        assert type(twin) is type(error) and str(twin) == str(error)
        assert twin.args == error.args
    parse, cycle, invalid = (pickle.loads(pickle.dumps(cases[i])) for i in (2, 6, 7))
    assert (parse.position, parse.reason) == (3, "bad")
    assert cycle.image == gel("x*D(1)")
    assert invalid.violations == violations
    assert str(invalid) == "[S, S] != 0; S is not a bivector"


def test_copies_keep_working():
    sing = Singularity(poly("x^3 + y^2"))
    for twin in (copy.copy(sing), copy.deepcopy(sing), pickle.loads(pickle.dumps(sing))):
        assert twin.milnor_number() == 2
    ctx = pickle.loads(pickle.dumps(CTX3))
    assert ctx.n == 3 and ctx.index_of("z") == 3
    assert pickle.loads(pickle.dumps(poly("x*y"))).ctx == CTX2


# -- coercions and checks in the constructors ---------------------------------

def test_ring_context_checks_its_names():
    assert RingContext(["x", "y"]).names == ("x", "y")
    assert RingContext(names=("a",)).n == 1
    for names in [(), ("x", "x"), ("1x",), ("x y",), ("h",), ("E",), ("D",)]:
        with pytest.raises(ValueError):
            RingContext(names)
    with pytest.raises(TypeError):
        RingContext()


def test_substitution_checks_arity_and_ring():
    sigma = Substitution(CTX2, [poly("y"), poly("x")])
    assert type(sigma.images) is tuple and sigma(poly("x^2")) == poly("y^2")
    with pytest.raises(ValueError):
        Substitution(CTX2, (poly("x"),))
    with pytest.raises(ContextMismatch):
        Substitution(CTX2, (poly("x"), P.variable(OTHER, 1)))


def test_monomial_order_kinds():
    assert MonomialOrder().kind == "grevlex" and MonomialOrder("lex") == LEX
    assert MonomialOrder(kind="lex").key((1, 2)) == (2, 1)
    with pytest.raises(ValueError):
        MonomialOrder("deglex")


def test_module_element_checks_rank_and_ring():
    v = ModuleElement([poly("x")])
    assert type(v.components) is tuple and v.rank == 1 and v.ctx == CTX2
    with pytest.raises(ValueError):
        ModuleElement(())
    with pytest.raises(ValueError):
        ModuleElement([])
    with pytest.raises(ContextMismatch):
        ModuleElement((poly("x"), P.variable(OTHER, 1)))


def test_basis_records_keep_their_fields():
    gb = GroebnerBasis(GB.generators, GREVLEX, GB.leads)
    assert gb.leading_exponents() == list(GB.leads) and gb.ctx == CTX2
    mgb = ModuleGroebnerBasis(MGB.generators, GREVLEX, 2)
    assert mgb.source == () and mgb.source_cofactors == ()
    assert mgb.to_json() == MGB.to_json()


def test_standard_monomials_kept_by_a_basis_change_no_value_semantics():
    """The walk a basis keeps for `standard_monomials` is out of ==, hash and
    repr, and copies and pickles, walked or not, give the same monomials."""
    walked, fresh = (buchberger([poly("x^2 - y"), poly("x*y - 1")]) for _ in range(2))
    monomials = standard_monomials(walked)
    assert walked == fresh == GB and hash(walked) == hash(fresh) == hash(GB)
    assert repr(walked) == repr(fresh)
    for value in (walked, fresh):
        for trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            twin = trip(value)
            assert type(twin) is GroebnerBasis and twin == walked and hash(twin) == hash(walked)
            assert standard_monomials(twin) == monomials
            assert quotient_dimension(twin) == len(monomials)


def test_reduction_trace_rechecks_its_identity():
    with pytest.raises(AssertionError):
        ReductionTrace(TRACE.input, TRACE.basis, TRACE.remainder + 1, TRACE.cofactors)


def test_singularity_checks_f_and_keeps_its_cache_out_of_equality():
    with pytest.raises(ValueError):
        Singularity(P.constant(CTX2, 3))
    with pytest.raises(TypeError):
        Singularity(poly("x^2 + y^2"), None, None)
    sing = Singularity(poly("x^2 + y^2"), max_degree=8)
    fresh = Singularity(poly("x^2 + y^2"), 8)
    data = sing.jacobian()
    assert sing.jacobian() is data and sing == fresh and hash(sing) == hash(fresh)
    assert Singularity.of(sing) is sing and Singularity.of(poly("x^2 + y^2")).max_degree is None


def test_obstruction_must_be_nonzero():
    with pytest.raises(ValueError):
        ObstructionReport(2, GElement.zero(CTX3), "poisson_failure")


def test_report_records_read_as_before():
    assert QCViolation("k", "m").element is None
    assert MCSolution(1, SOLUTION.p_series, SOLUTION.s_series).witness is None
    assert BAD.h_degree() == 1 and not REPORT.ok
    orders = REPORT.orders
    assert len(orders) == REPORT.top + 1 and orders[RESIDUAL.h_power] == RESIDUAL
    assert OrderResidual(0, REPORT.zero, REPORT.zero, REPORT.zero).is_zero()
    assert isinstance(DATUM, QuasiClassicalDatum)
