"""Shared expression grammar for polynomials, polyvectors, and h-series.

Grammar (ASCII):

    expr    := ["+"|"-"] term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := base ("^" NAT)?
    base    := RAT | VAR | "(" expr ")" | wedge | "E" | "h"
    wedge   := "D(" NAT ("," NAT)* ")"
    RAT     := INT ("/" INT)?

Multiplication is always explicit (`*`), exponents are natural numbers.
`E` denotes the even generator eps, `D(i,...)` a wedge of odd generators,
and `h` the series parameter; the latter three are only accepted where the
calling context allows them.  Wedge indices must be distinct; a
non-increasing listing is normalized to increasing order with the sign of
the permutation folded into the coefficient.  A leading sign on the first
term is accepted so that formatted output always re-parses.

Each entry point takes an optional ``max_degree``: a power base^k whose
degree in the ring variables (h, E and D do not count), deg(base)*k, or
whose E degree (max E power of base)*k exceeds it raises
`DegreeGuardExceeded` before the power is expanded; so (x*E)^3 passes 3.
Without it, powers are expanded whatever their degree.  A power of a
constant other than 0 and +-1 has degree 0, so it is bounded by size
instead: c^k with k * bit_length(max(|num|, den)) above
POWER_BITS_BUDGET raises `BudgetExceeded`, with or without max_degree.

Parentheses nest at most MAX_NESTING deep: a `(` past that depth is a
`ParseError` at its offset, before the recursion can reach the
interpreter's limit.
"""

from __future__ import annotations

import re

from .errors import BudgetExceeded, DegreeGuardExceeded, ParseError
from .poly import HSeries, Polynomial, RingContext, accumulate, from_decimal, from_ints
from .polyvector import GElement, _merge_sign

_SYMBOLS = set("+-*^(),/")
# ASCII only: str.isdigit and str.isalnum also take digits such as "²"
_WORD_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)")
_SCALAR = (0, 0, 0)  # the value key of h^0 eps^0 with no odd generator
# the most bits (exponent times bit length of the base) a constant power may have
POWER_BITS_BUDGET = 1 << 20
# the deepest parentheses nest; each level takes four frames of the descent
MAX_NESTING = 100


def _scalar(value):
    """The constant Polynomial that a value is, else None."""
    c = value.get(_SCALAR)
    return c if len(value) == 1 and c is not None and c.is_constant() else None


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        match = _WORD_RE.match(text, i)
        if match is None:
            raise ParseError(f"unexpected character {ch!r}", i)
        digits, name = match.groups()
        tokens.append(_Token("NUM", from_decimal(digits), i) if digits else _Token("NAME", name, i))
        i = match.end()
    tokens.append(_Token("EOF", None, n))
    return tokens


class _Parser:
    """Recursive descent that evaluates straight into polynomial terms.

    A value is a dict {(h power, eps power, odd mask): Polynomial} with no
    zero coefficient; a literal, a variable, ``E``, ``h`` and ``D(...)``
    each give one entry.  Products multiply the coefficients and add the
    keys, taking the wedge sign (`_merge_sign`) only when both masks are
    nonzero, so a plain polynomial never meets the graded algebra.  `h` is
    accepted only with an ``h_order``, and products above h^h_order are
    dropped as they form: the series is truncated there.  The entry points
    assemble the Polynomial, GElement or HSeries they return from the
    finished value.
    """

    def __init__(self, text: str, ctx: RingContext, allow_wedge: bool, h_order: int | None,
                 max_degree: int | None):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_wedge = allow_wedge
        self.allow_h = h_order is not None
        self.h_order = h_order or 0
        self.max_degree = max_degree
        self.depth = 0  # parentheses open around the current token

    # value helpers ----------------------------------------------------------

    def _const(self, num: int, den: int = 1):
        return {_SCALAR: from_ints(self.ctx, {(0,) * self.ctx.n: num}, den)} if num else {}

    def _add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            accumulate(out, k, v)
        return out

    def _neg(self, a):
        return {k: -v for k, v in a.items()}

    def _mul(self, a, b):
        out = {}
        for (h1, e1, m1), c1 in a.items():
            for (h2, e2, m2), c2 in b.items():
                h = h1 + h2
                if h > self.h_order:
                    continue
                if m1 and m2:
                    sign = _merge_sign(m1, m2)
                    if sign == 0:
                        continue
                    prod = c1 * c2 if sign > 0 else -(c1 * c2)
                else:
                    prod = c1 * c2
                accumulate(out, (h, e1 + e2, m1 | m2), prod)
        return out

    def _pow(self, a, e: int):
        c = _scalar(a)
        if c is not None:  # one Fraction power: each squaring of a Polynomial takes a gcd
            return {_SCALAR: Polynomial.constant(self.ctx, c.constant_term() ** e)}
        result = self._const(1)
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            e >>= 1
            if e:
                base = self._mul(base, base)
        return result

    # token plumbing ---------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.advance()

    # grammar ----------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError("unexpected trailing input", tok.pos)
        return value

    def expr(self):
        sign = 1
        if self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -1
        value = self.term()
        if sign < 0:
            value = self._neg(value)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = self._add(value, rhs if op == "+" else self._neg(rhs))
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = self._mul(value, self.factor())
        return value

    def factor(self):
        value = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("NUM", "exponent")
            self._check_power(value, tok)
            value = self._pow(value, tok.value)
        return value

    def _check_power(self, value, tok: _Token):
        """Refuse value^k before it is expanded: a degree in the ring
        variables or in E past max_degree, or a constant base whose power
        would pass POWER_BITS_BUDGET bits."""
        c = _scalar(value)
        size = 0 if c is None else max(*map(abs, c.nums.values()), c.den)
        bits = size.bit_length() * tok.value
        if size > 1 and bits > POWER_BITS_BUDGET:
            raise BudgetExceeded(
                f"parsing: a power of a constant of {bits} bits (exponent at offset "
                f"{tok.pos}) is over the budget of {POWER_BITS_BUDGET}"
            )
        if self.max_degree is not None and value:
            ring = max(c.total_degree() for c in value.values())
            for what, degree in (("degree", ring), ("E degree", max(e for _, e, _ in value))):
                if degree * tok.value > self.max_degree:
                    raise DegreeGuardExceeded(
                        f"parsing: a power of {what} {degree * tok.value} (exponent at "
                        f"offset {tok.pos}) is past the limit {self.max_degree}"
                    )

    def base(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            num = tok.value
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("NUM", "denominator")
                if den_tok.value == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return self._const(num, den_tok.value)
            return self._const(num)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect(")", "')'")
            return value
        if tok.kind == "NAME":
            return self.name(self.advance())
        raise ParseError("expected a term", tok.pos)

    def name(self, tok: _Token):
        text = tok.value
        if text == "E":
            if not self.allow_wedge:
                raise ParseError("'E' is not allowed in this context", tok.pos)
            return {(0, 1, 0): Polynomial.one(self.ctx)}
        if text == "h":
            if not self.allow_h:
                raise ParseError("'h' is not allowed in this context", tok.pos)
            return {(1, 0, 0): Polynomial.one(self.ctx)}
        if text == "D":
            if not self.allow_wedge:
                raise ParseError("'D(...)' is not allowed in this context", tok.pos)
            return self.wedge()
        try:
            i = self.ctx.index_of(text)
        except KeyError:
            raise ParseError(f"unknown variable {text!r}", tok.pos) from None
        return {_SCALAR: Polynomial.variable(self.ctx, i)}

    def wedge(self):
        """D(i_1, ..., i_k): the sorted wedge, signed by the permutation."""
        self.expect("(", "'(' after D")
        indices = []
        while True:
            tok = self.expect("NUM", "odd generator index")
            if not 1 <= tok.value <= self.ctx.n:
                raise ParseError(
                    f"index {tok.value} out of range 1..{self.ctx.n}", tok.pos
                )
            if tok.value in indices:
                raise ParseError(f"repeated index {tok.value}", tok.pos)
            indices.append(tok.value)
            nxt = self.peek()
            if nxt.kind == ",":
                self.advance()
                continue
            self.expect(")", "')' or ','")
            break
        sign, mask = 1, 0
        for i in indices:
            bit = 1 << (i - 1)
            sign *= _merge_sign(mask, bit)
            mask |= bit
        one = Polynomial.one(self.ctx)
        return {(0, 0, mask): one if sign > 0 else -one}


def _run(text: str, ctx: RingContext, allow_wedge: bool, h_order: int | None = None,
         max_degree: int | None = None):
    return _Parser(text, ctx, allow_wedge, h_order, max_degree).parse()


def parse_polynomial(text: str, ctx: RingContext, max_degree: int | None = None) -> Polynomial:
    """Parse a plain polynomial; E, D(...) and h are rejected."""
    value = _run(text, ctx, allow_wedge=False, max_degree=max_degree)
    return value.get(_SCALAR) or Polynomial.zero(ctx)


def parse_gelement(text: str, ctx: RingContext, max_degree: int | None = None) -> GElement:
    """Parse a polyvector/graded element; h is rejected."""
    value = _run(text, ctx, allow_wedge=True, max_degree=max_degree)
    return GElement(ctx, {(e, m): c for (_, e, m), c in value.items()})


def parse_series(text: str, ctx: RingContext, order: int = 8,
                 max_degree: int | None = None) -> HSeries:
    """Parse an h-series of graded elements, truncated at the given order."""
    value = _run(text, ctx, allow_wedge=True, h_order=order, max_degree=max_degree)
    terms = {}
    for (k, e, m), c in value.items():
        terms.setdefault(k, {})[(e, m)] = c
    return HSeries.sparse(
        {k: GElement(ctx, t) for k, t in terms.items()}, order, GElement.zero(ctx)
    )


def parse_poly_series(text: str, ctx: RingContext, order: int = 8,
                      max_degree: int | None = None) -> HSeries:
    """Parse an h-series of plain polynomials, truncated at the given order."""
    value = _run(text, ctx, allow_wedge=False, h_order=order, max_degree=max_degree)
    terms = {k: c for (k, _, _), c in value.items()}
    return HSeries.sparse(terms, order, Polynomial.zero(ctx))


def format_gelement(x: GElement) -> str:
    return str(x)


def format_series(s: HSeries) -> str:
    """The series as parse_series input."""
    return str(s)
