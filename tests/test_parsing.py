"""Expression grammar: parsing, formatting, error positions, round-trips."""

import random
import time
from fractions import Fraction

import pytest

from ncunfold.errors import BudgetExceeded, DegreeGuardExceeded, ParseError
from ncunfold.parsing import (
    MAX_NESTING,
    POWER_BITS_BUDGET,
    _Parser,
    format_series,
    parse_gelement,
    parse_polynomial,
    parse_poly_series,
    parse_series,
)
from ncunfold.hochschild import PolyDiffOperator
from ncunfold.poly import HSeries, Polynomial, RingContext
from ncunfold.polyvector import GElement

from oracles import (
    decimal_value,
    eval_expression,
    flat_value,
    fraction_cochain_json,
    fraction_cochain_str,
    fraction_gelement_json,
    fraction_gelement_str,
    fraction_poly_json,
    fraction_poly_str,
    rand_expression,
    rand_gelement,
    rand_poly,
)

CTX3 = RingContext(("x", "y", "z"))
CTX2 = RingContext(("x", "y"))


def test_basic_polynomials():
    x, y, z = (Polynomial.variable(CTX3, i) for i in (1, 2, 3))
    assert parse_polynomial("x^2+y^2+z^2", CTX3) == x ** 2 + y ** 2 + z ** 2
    got = parse_polynomial("3/2*x*y - 1", CTX3)
    assert got == x * y * Fraction(3, 2) - 1


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^^2", CTX3)
    assert err.value.position == 2
    assert "offset 2" in str(err.value)


def test_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + w", CTX3)
    assert err.value.position == 4


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0", CTX3)


def test_no_juxtaposition():
    with pytest.raises(ParseError):
        parse_polynomial("2x", CTX3)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("x + y )", CTX3)


def test_leading_sign_accepted():
    x = Polynomial.variable(CTX2, 1)
    assert parse_polynomial("-x", CTX2) == -x
    assert parse_polynomial("+x", CTX2) == x


def test_wedge_and_eps():
    d12 = GElement.wedge_monomial(CTX3, (1, 2))
    assert parse_gelement("D(1,2)", CTX3) == d12
    assert parse_gelement("E", CTX3) == GElement.eps(CTX3)
    assert parse_gelement("E^2", CTX3) == GElement.eps(CTX3, 2)
    # non-increasing index listing normalizes with the permutation sign
    assert parse_gelement("D(2,1)", CTX3) == -d12
    assert parse_gelement("D(3,1)", CTX3) == -GElement.wedge_monomial(CTX3, (1, 3))


def test_wedge_index_errors():
    with pytest.raises(ParseError):
        parse_gelement("D(1,1)", CTX3)
    with pytest.raises(ParseError):
        parse_gelement("D(4)", CTX3)
    with pytest.raises(ParseError):
        parse_gelement("D()", CTX3)


def test_polynomial_mode_rejects_graded_syntax():
    for text in ("E", "D(1)", "h"):
        with pytest.raises(ParseError):
            parse_polynomial(text, CTX3)
    with pytest.raises(ParseError):
        parse_gelement("h*D(1)", CTX3)


def test_series_parsing():
    s = parse_series("x*h + D(1,2)*h^2", CTX3, order=3)
    assert s.order == 3
    assert s.coeffs[0].is_zero()
    assert s.coeffs[1] == GElement.from_polynomial(Polynomial.variable(CTX3, 1))
    assert s.coeffs[2] == GElement.wedge_monomial(CTX3, (1, 2))
    # above-order terms are discarded
    t = parse_series("x*h^9", CTX3, order=4)
    assert all(c.is_zero() for c in t.coeffs)
    u = parse_poly_series("1 + x*h", CTX3, order=2)
    assert u.coeffs[0] == Polynomial.one(CTX3)


def test_parse_format_roundtrip_polynomials():
    rng = random.Random(314)
    for _ in range(80):
        p = rand_poly(rng, CTX3, max_degree=5)
        assert parse_polynomial(str(p), CTX3) == p


def test_parse_format_roundtrip_gelements():
    rng = random.Random(159)
    for _ in range(80):
        g = rand_gelement(rng, CTX3, max_eps=2)
        assert parse_gelement(str(g), CTX3) == g


def test_format_series_roundtrip():
    """str(series) is the parse_series form, and format_series prints it;
    a series of polynomials re-parses through parse_poly_series."""
    rng = random.Random(265)
    for _ in range(20):
        coeffs = [GElement.zero(CTX3)] + [rand_gelement(rng, CTX3) for _ in range(3)]
        s = HSeries(coeffs, 3)
        assert str(s) == format_series(s) and repr(s) == f"HSeries(order=3, {s})"
        assert parse_series(str(s), CTX3, order=3) == s
        p = HSeries([rand_poly(rng, CTX3, max_degree=3) for _ in range(4)], 3)
        assert parse_poly_series(str(p), CTX3, order=3) == p
    assert str(HSeries.sparse({}, 2, Polynomial.zero(CTX3))) == "0"


def test_power_matches_polynomial_power():
    q = parse_polynomial("x+y+z", CTX3)
    for k in range(7):
        assert parse_polynomial(f"(x+y+z)^{k}", CTX3) == q ** k
    assert parse_polynomial("(1/2*x - 3*y)^5", CTX2) == parse_polynomial("1/2*x - 3*y", CTX2) ** 5


def test_power_multiplication_count(monkeypatch):
    """Square-and-multiply stops squaring after the top exponent bit."""
    calls = []
    mul = _Parser._mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(_Parser, "_mul", counted)
    for e in (1, 2, 3, 5, 7, 8, 64, 100):
        calls.clear()
        parse_polynomial(f"(x+y)^{e}", CTX2)
        assert len(calls) == bin(e).count("1") + e.bit_length() - 1


# ---------------------------------------------------------------------------
# the parser against a Fraction-dict evaluator, and error messages

NAMES3 = ("x", "y", "z")


@pytest.mark.parametrize(
    "parse, wedge, h",
    [
        (parse_polynomial, False, False),
        (parse_gelement, True, False),
        (parse_series, True, True),
        (parse_poly_series, False, True),
    ],
    ids=["polynomial", "gelement", "series", "poly_series"],
)
def test_parser_matches_reference_evaluator(parse, wedge, h):
    rng = random.Random(2718)
    seen_sign = seen_cancel = 0
    for _ in range(250):
        text = rand_expression(rng, NAMES3, wedge=wedge, h=h)
        want = eval_expression(text, NAMES3)
        if h:
            order = rng.randint(1, 5)
            got = parse(text, CTX3, order)
            want = {k: c for k, c in want.items() if k[0] <= order}
        else:
            got = parse(text, CTX3)
        assert flat_value(got) == want, text
        seen_sign += any(c < 0 for c in want.values())
        seen_cancel += not want
    # negative coefficients and values that cancel to zero must both occur
    assert seen_sign >= 50 and seen_cancel >= 3


def test_permuted_wedge_indices_against_reference_evaluator():
    ctx4 = RingContext(("w", "x", "y", "z"))
    rng = random.Random(1618)
    for _ in range(100):
        idx = rng.sample(range(1, 5), rng.randint(1, 4))
        text = f"{rng.randint(1, 5)}/{rng.randint(1, 5)}*D({','.join(map(str, idx))})*E"
        got = parse_gelement(text, ctx4)
        assert flat_value(got) == eval_expression(text, ctx4.names), text


# (text, parser, offset, message); the first three are the parse errors of
# the golden CLI corpus
PARSE_ERRORS = [
    ("x^", parse_polynomial, 2, "expected exponent"),
    ("x^2 + q^3", parse_polynomial, 6, "unknown variable 'q'"),
    ("D(1,1)", parse_gelement, 4, "repeated index 1"),
    ("x^^2", parse_polynomial, 2, "expected exponent"),
    ("1/0", parse_polynomial, 2, "zero denominator"),
    ("2x", parse_polynomial, 1, "unexpected trailing input"),
    ("(x + y", parse_polynomial, 6, "expected ')'"),
    ("E", parse_polynomial, 0, "'E' is not allowed in this context"),
    ("D(1)", parse_polynomial, 0, "'D(...)' is not allowed in this context"),
    ("h", parse_gelement, 0, "'h' is not allowed in this context"),
    ("x $ y", parse_polynomial, 2, "unexpected character '$'"),
    # digits and names are ASCII: a superscript or Arabic-Indic digit is
    # neither a number nor part of a name
    ("²", parse_polynomial, 0, "unexpected character '²'"),
    ("x²", parse_polynomial, 1, "unexpected character '²'"),
    ("x^٣", parse_polynomial, 2, "unexpected character '٣'"),
    ("D(١)", parse_gelement, 2, "unexpected character '١'"),
    ("x*h^²", parse_series, 4, "unexpected character '²'"),
    ("   ", parse_polynomial, 3, "expected a term"),
    ("3/x", parse_polynomial, 2, "expected denominator"),
    ("x*", parse_polynomial, 2, "expected a term"),
    ("--x", parse_polynomial, 1, "expected a term"),
    ("x^2^3", parse_polynomial, 3, "unexpected trailing input"),
    ("D(4)", parse_gelement, 2, "index 4 out of range 1..3"),
    ("D()", parse_gelement, 2, "expected odd generator index"),
    ("D 1", parse_gelement, 2, "expected '(' after D"),
    ("D(1 2)", parse_gelement, 4, "expected ')' or ','"),
    ("D(1,3,1)*h", parse_series, 6, "repeated index 1"),
    ("x*h^2 + ) ", parse_series, 8, "expected a term"),
    # parentheses nest at most MAX_NESTING = 100 deep; the 101st ( is refused
    ("(" * 101 + "x" + ")" * 101, parse_polynomial, 100, "parentheses nest deeper than 100"),
    ("x+" + "(" * 300 + "x" + ")" * 300, parse_series, 102, "parentheses nest deeper than 100"),
]


def test_parentheses_nest_up_to_the_bound():
    """MAX_NESTING levels parse, also side by side and around D(...), whose
    parenthesis is not nesting; one more is a ParseError (300 levels
    overflowed the interpreter's stack)."""
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    x = parse_polynomial("x", CTX3)
    assert parse_polynomial(f"{deep}*{deep}^2", CTX3) == x ** 3
    wedge = "(" * MAX_NESTING + "D(1,2)" + ")" * MAX_NESTING
    assert parse_gelement(wedge, CTX3) == parse_gelement("D(1,2)", CTX3)
    with pytest.raises(ParseError) as err:
        parse_gelement("(" + wedge + ")", CTX3)
    assert err.value.position == MAX_NESTING


@pytest.mark.parametrize("text, parse, offset, message", PARSE_ERRORS)
def test_parse_error_message_and_offset(text, parse, offset, message):
    with pytest.raises(ParseError) as err:
        parse(text, CTX3)
    assert err.value.position == offset
    assert str(err.value) == f"syntax error at offset {offset}: {message}"


# ---------------------------------------------------------------------------
# printing and parsing round-trip

def _single_term_series(rng, order):
    """Coefficients of one or several terms with either sign, often zero."""
    coeffs = []
    for _ in range(order + 1):
        kind = rng.randrange(4)
        if kind == 0:
            coeffs.append(GElement.zero(CTX3))
        elif kind == 1:
            coeffs.append(rand_gelement(rng, CTX3))
        else:
            c = rand_poly(rng, CTX3, max_degree=3, n_terms=1, zero_ok=False)
            coeffs.append(GElement(CTX3, {(rng.randint(0, 1), rng.randrange(8)): c}))
    return HSeries(coeffs, order)


def test_print_parse_roundtrip_on_random_values():
    rng = random.Random(4669)
    for _ in range(300):
        p = rand_poly(rng, CTX3, max_degree=4, n_terms=rng.randint(0, 5))
        assert parse_polynomial(str(p), CTX3) == p
    for _ in range(300):
        x = rand_gelement(rng, CTX3, max_eps=2, n_terms=rng.randint(1, 4))
        assert parse_gelement(str(x), CTX3) == x
    minus_joins = 0
    for _ in range(300):
        order = rng.randint(1, 5)
        s = _single_term_series(rng, order)
        text = str(s)
        assert "+ -" not in text and format_series(s) == text
        later = [str(c) for c in s.coeffs if not c.is_zero()][1:]
        minus_joins += any(t.startswith("-") and " " not in t for t in later)
        assert parse_series(text, CTX3, order) == s, text
    assert minus_joins >= 30


# ---------------------------------------------------------------------------
# integer-numerator printing against the Fraction-view printing

def _printing_cases(rng):
    yield Polynomial.zero(CTX3)
    for q in (Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-5, 6)):
        yield Polynomial.constant(CTX3, q)
    for _ in range(300):
        p = rand_poly(rng, CTX3, max_degree=4, n_terms=rng.randint(1, 5),
                      coeff=lambda r: Fraction(r.randint(-12, 12), r.choice([1, 1, 2, 3, 4, 6, 9])))
        yield p
        yield -p


def test_polynomial_printing_matches_fraction_view():
    rng = random.Random(577)
    seen_den = seen_negative_lead = 0
    for p in _printing_cases(rng):
        assert str(p) == fraction_poly_str(p)
        assert p.to_json() == fraction_poly_json(p)
        seen_den += p.den > 1
        seen_negative_lead += str(p).startswith("-")
    assert seen_den >= 100 and seen_negative_lead >= 100


def test_gelement_and_cochain_printing_matches_fraction_view():
    rng = random.Random(1729)
    polys = list(_printing_cases(rng))
    for _ in range(300):
        x = GElement.zero(CTX3)
        for _ in range(rng.randint(0, 4)):
            x = x + GElement(CTX3, {(rng.randint(0, 2), rng.randrange(8)): rng.choice(polys)})
        assert str(x) == fraction_gelement_str(x)
        assert x.to_json() == fraction_gelement_json(x)
        op = PolyDiffOperator(
            CTX3, 2,
            {tuple(tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(2)): rng.choice(polys)
             for _ in range(rng.randint(0, 3))},
        )
        assert str(op) == fraction_cochain_str(op)
        assert op.to_json() == fraction_cochain_json(op)


def test_series_parse_drops_powers_above_the_order(monkeypatch):
    """Products above h^order are dropped as they form, so no intermediate
    value holds more h powers than the series keeps."""
    widest = []
    mul = _Parser._mul

    def recorded(self, a, b):
        out = mul(self, a, b)
        widest.append(len(out))
        return out

    monkeypatch.setattr(_Parser, "_mul", recorded)
    s = parse_poly_series("x*h*(1 + h)^300 - h^100000", CTX3, order=2)
    assert s.coeffs == (Polynomial.zero(CTX3), Polynomial.variable(CTX3, 1),
                        300 * Polynomial.variable(CTX3, 1))
    assert max(widest) == 3
    t = parse_series("(D(1) + h*E)^3*(1 + h)^50", CTX3, order=1)
    assert t == parse_series("(D(1) + h*E)^3 + 50*h*(D(1) + h*E)^3", CTX3, order=1)


def test_series_at_a_high_order_holds_only_its_nonzero_terms():
    s = parse_series("(2*x*D(2,3) + 2*y*D(3,1) + 2*z*D(1,2))*h", CTX3, order=100_000)
    assert s.order == 100_000 and list(s.terms) == [1]
    p = parse_poly_series("h - h^99999", CTX3, order=100_000)
    assert list(p.terms) == [1, 99_999]


def test_power_past_the_degree_guard_is_refused_before_expansion(monkeypatch):
    """With max_degree, a power base^k with deg(base)*k above it raises
    DegreeGuardExceeded before any product is formed; h, E and D do not
    count towards the degree, and without a guard nothing changes.  E
    powers are bounded apart, by the largest E power of the base times k:
    (1+E)^2000 took 9.4 s to expand."""
    x, y = (Polynomial.variable(CTX2, i) for i in (1, 2))
    assert parse_polynomial("(x+y)^3", CTX2, max_degree=3) == (x + y) ** 3
    assert parse_polynomial("((x+y)^2)^4", CTX2, max_degree=8) == (x + y) ** 8
    assert parse_polynomial("(x^2*y)^30", CTX2) == (x * x * y) ** 30
    assert parse_polynomial("(3/2)^5 + 0^9", CTX2, max_degree=0) == Polynomial.constant(
        CTX2, Fraction(243, 32)
    )
    series = parse_series("(x*h)^4", CTX2, order=8, max_degree=4)
    assert series.terms[4] == GElement.from_polynomial(x ** 4)
    wedge = parse_gelement("(x*E)^3 + (y*D(1,2))^1", CTX2, max_degree=3)
    assert wedge == parse_gelement("x^3*E^3 + y*D(1,2)", CTX2)
    assert parse_gelement("(1+E)^70", CTX2) == parse_gelement("(1+E)^35*(1+E)^35", CTX2)
    series = parse_series("(x*h + E)^2", CTX2, order=4, max_degree=2)
    assert series.terms[2] == GElement.from_polynomial(x ** 2)

    # the exponents _pow is called with: only the powers inside the refused one
    pows = []
    pow_ = _Parser._pow
    monkeypatch.setattr(_Parser, "_pow", lambda self, a, e: pows.append(e) or pow_(self, a, e))
    cases = [
        (parse_polynomial, "x + (x+y)^100000", 64, "degree 100000", "offset 10", []),
        (parse_polynomial, "((x+y)^8)^9", 64, "degree 72", "offset 10", [8]),
        (parse_polynomial, "x^3", 2, "degree 3", "offset 2", []),
        (parse_gelement, "(x*y*E*D(1))^2", 3, "degree 4", "offset 13", []),
        (parse_poly_series, "(x*h)^5", 4, "degree 5", "offset 6", []),
        (parse_series, "(y^2*h)^2 * D(2)", 3, "degree 4", "offset 8", [2]),
        (parse_gelement, "(1+E)^1000*D(1)", 64, "E degree 1000", "offset 6", []),
        (parse_gelement, "x*(E^2 + x)^33", 64, "E degree 66", "offset 12", [2]),
        (parse_series, "h*((1+E)^2)^2", 3, "E degree 4", "offset 12", [2]),
    ]
    for parse, text, guard, degree, offset, inner in cases:
        pows.clear()
        with pytest.raises(DegreeGuardExceeded) as info:
            parse(text, CTX2, max_degree=guard)
        message = str(info.value)
        assert message.startswith("parsing: ") and degree in message and offset in message
        assert f"limit {guard}" in message
        assert pows == inner, text


def test_power_of_a_constant_past_the_bit_budget_is_refused_before_expansion(monkeypatch):
    """A constant has degree 0, so its power c^k is bounded by size
    instead: k * bit_length(max(|num|, den)) above POWER_BITS_BUDGET
    raises BudgetExceeded before _pow runs, with or without max_degree.
    At the budget the power is exact, and 0 and +-1 pass at any exponent."""
    k = POWER_BITS_BUDGET // 2  # 2 and 3 have two bits
    assert parse_polynomial(f"3^{k}", CTX2) == Polynomial.constant(CTX2, 3 ** k)
    assert parse_polynomial(f"x + (1/3)^{k}", CTX2, max_degree=1) == (
        Polynomial.variable(CTX2, 1) + Polynomial.constant(CTX2, Fraction(1, 3 ** k))
    )
    assert parse_polynomial("(-2/3)^1001", CTX2) == Polynomial.constant(
        CTX2, Fraction(-2, 3) ** 1001
    )
    huge = 10 ** 12 + 1
    assert parse_polynomial(f"(-1)^{huge} + 0^{huge} + (x-x)^{huge}", CTX2) == (
        Polynomial.constant(CTX2, -1)
    )

    pows = []
    pow_ = _Parser._pow
    monkeypatch.setattr(_Parser, "_pow", lambda self, a, e: pows.append(e) or pow_(self, a, e))
    cases = [
        (parse_polynomial, f"3^{k + 1}", f"{2 * k + 2} bits", "offset 2", []),
        (parse_polynomial, "x + (1/3)^16000000", "32000000 bits", "offset 10", []),
        (parse_polynomial, f"(2^{k})^2", f"{2 * k + 2} bits", f"offset {len(str(k)) + 5}", [k]),
        (parse_series, "h + (7)^16000000", "48000000 bits", "offset 8", []),
        (parse_gelement, "D(1) * 5^16000000", "48000000 bits", "offset 9", []),
    ]
    for parse, text, bits, offset, inner in cases:
        for guard in (None, 64):
            pows.clear()
            with pytest.raises(BudgetExceeded) as info:
                parse(text, CTX2, max_degree=guard)
            message = str(info.value)
            assert message.startswith("parsing: ") and bits in message and offset in message
            assert f"budget of {POWER_BITS_BUDGET}" in message
            assert pows == inner, text


def test_fractional_constant_power_is_one_fraction_power():
    """A power of a constant is one Fraction power, whose numerator and
    denominator are coprime with no gcd taken: at the budget it takes
    about what an integer power takes (squaring the polynomial took 1.8
    s).  0, +-1, 0^0 and negative bases stay exact."""
    for text, want in [("(2/3)^524288", Fraction(2, 3) ** 524288),
                       ("(-2/3)^524287", Fraction(-2, 3) ** 524287)]:
        start = time.perf_counter()
        value = parse_polynomial(text, CTX2)
        elapsed = time.perf_counter() - start
        assert value == Polynomial.constant(CTX2, want)
        assert elapsed < 0.5, (text, elapsed)
    assert parse_polynomial("0^0 + (-3/2)^3 - 1^7 + (-1)^2", CTX2) == Polynomial.constant(
        CTX2, Fraction(-19, 8)
    )
    assert parse_polynomial("0^5 * x + (1/2)^0", CTX2) == Polynomial.one(CTX2)
    assert _Parser("(3/3)^9 - 1", CTX2, False, None, None).parse() == {}


def test_literal_past_4300_digits_parses_exactly():
    """A 5,000-digit literal is past the interpreter's default limit of
    4300 digits for int (it raised "Exceeds the limit"); it parses exactly,
    here checked against its value built from 500-digit blocks."""
    rng = random.Random(7)
    digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4999))
    value = decimal_value(digits)
    got = parse_polynomial(f"x^2 - {digits}*y + {digits}/7", CTX2)
    want = Polynomial(CTX2, {(2, 0): 1, (0, 1): -value, (0, 0): Fraction(value, 7)})
    assert got == want
