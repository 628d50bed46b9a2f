"""Exact computer algebra for noncommutative unfoldings of isolated
hypersurface singularities: Milnor numbers, Schouten brackets, Koszul
lifting, Maurer-Cartan quantization, and Hochschild cochain operations,
all over exact rationals."""

from .errors import (
    BudgetExceeded,
    ContextMismatch,
    DegreeGuardExceeded,
    NotACycle,
    NotIsolated,
    ParseError,
    QCInvalid,
    UnfoldError,
)
from .groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    ModuleElement,
    ModuleGroebnerBasis,
    MonomialOrder,
    ReductionTrace,
    buchberger,
    ideal_membership,
    module_buchberger,
    module_normal_form,
    module_preimage,
    normal_form,
    quotient_dimension,
    standard_monomials,
)
from .hochschild import (
    PolyDiffOperator,
    brace,
    cup,
    gerstenhaber_bracket,
    hkr,
    hochschild_differential,
    identity_cochain,
    multiplication_cochain,
)
from .parsing import (
    format_gelement,
    format_series,
    parse_gelement,
    parse_polynomial,
    parse_poly_series,
    parse_series,
)
from .poly import (
    INFINITE,
    HSeries,
    Polynomial,
    RingContext,
    Substitution,
)
from .polyvector import (
    GElement,
    ad_f,
    bivector_square,
    g_differential,
    mc_residual,
    schouten_bracket,
)
from .singularity import (
    JacobianData,
    Singularity,
    ade_catalog,
    is_isolated,
    jacobian,
    milnor_number,
    monicize,
    qc_subspace,
)
from .unfolding import (
    EXACT,
    MCReport,
    MCSolution,
    ObstructionReport,
    QCViolation,
    QuasiClassicalDatum,
    koszul_lift,
    mc_verify,
    qc_normalize,
    qc_validate,
    quantize_general,
    quantize_n3,
)
