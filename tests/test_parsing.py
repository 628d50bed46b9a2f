"""Expression grammar: parsing, formatting, error positions, round-trips."""

import random
from fractions import Fraction

import pytest

from ncunfold.errors import ParseError
from ncunfold.parsing import (
    _Parser,
    format_series,
    parse_gelement,
    parse_polynomial,
    parse_poly_series,
    parse_series,
)
from ncunfold.poly import Polynomial, RingContext
from ncunfold.polyvector import GElement

from oracles import rand_gelement, rand_poly

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
    rng = random.Random(265)
    for _ in range(20):
        coeffs = [GElement.zero(CTX3)] + [rand_gelement(rng, CTX3) for _ in range(3)]
        from ncunfold.poly import HSeries

        s = HSeries(coeffs, 3)
        assert parse_series(format_series(s), CTX3, order=3) == s


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
