"""The four benchmark workloads.

A workload turns (seed, cycle number) into a list of operations.  A run
repeats whole cycles, so every run sees the same mix of operation shapes
whatever its seed.  `run` is the timed call into the library; `check`
verifies its result by an independent route and `digest` gives a
canonical text of it, both outside the timed span.

Each workload also lists the traced boundaries it must hit (`EXERCISES`)
and the layer counts predicted to be zero on it (`ZERO`); the traced run
checks both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

HOCHSCHILD_ZERO = ("hochschild.brace.calls", "hochschild.differential.calls")
FRONT_END_ZERO = ("parsing.calls", "cli.main.calls")
NONZERO = (-3, -2, -1, 1, 2, 3)
GROEBNER_CALLS = (
    "groebner.buchberger.calls",
    "groebner.module_buchberger.calls",
    "groebner.normal_form.calls",
    "groebner.module_preimage.calls",
)


def rand_poly(rng, ctx, poly_cls, max_degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ctx.n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ctx.n)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return poly_cls(ctx, terms)


def composition(rng, total, parts):
    """A random multi-index of `parts` entries summing to `total`."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


class Workload:
    name = ""
    EXERCISES = ()
    ZERO = ()

    def __init__(self, nc, seed):
        self.nc = nc
        self.seed = seed

    def rng(self, cycle):
        return random.Random(f"{self.name}/{self.seed}/{cycle}")

    def known_defect(self, op):
        return False

    def warm_up(self):
        """Run and check one small operation drawn apart from the cycles."""
        op = self.warm_up_op(random.Random(f"{self.name}/warm-up"))
        return self.check(op, self.run(op))


class AdeQuantize(Workload):
    """quantize_n3 + mc_verify on random valid data over the ADE catalog."""

    name = "ade_quantize"
    DATA_PER_F = 2
    EXERCISES = (
        "quantize_n3",
        "mc_verify",
        "mc_residual",
        "qc_validate",
        "qc_normalize",
        "koszul_lift",
        "ad_f",
        "schouten_bracket",
        "GElement.__mul__",
        "jacobian",
        "buchberger",
        "normal_form",
        "module_buchberger",
        "module_normal_form",
        "module_preimage",
        "Polynomial.__mul__",
        "HSeries.convolve",
    )
    ZERO = HOCHSCHILD_ZERO + FRONT_END_ZERO

    def __init__(self, nc, seed):
        super().__init__(nc, seed)
        self.catalog = nc.ade_catalog()
        self.w_basis = {name: nc.qc_subspace(f) for name, f in self.catalog}

    def make(self, rng, name, f):
        """S1 = [f, T] for a trivector T = t d1 d2 d3 with t three terms of
        degree 2, and p1 on every monomial of the W basis; all coefficients
        are nonzero, so the cost of an operation depends on f and little
        on the draw."""
        nc = self.nc
        ctx = f.ctx
        t = {}
        while len(t) < 3:
            t[composition(rng, 2, 3)] = Fraction(rng.choice(NONZERO), rng.randint(1, 3))
        s1 = nc.GElement(
            ctx,
            {
                (0, mask): nc.Polynomial(ctx, coeff)
                for mask, coeff in checks.f_bivector_contraction(f, t).items()
            },
        )
        p1 = nc.Polynomial(ctx, {e: Fraction(rng.choice(NONZERO)) for e in self.w_basis[name]})
        return (name, f, p1, s1)

    def cycle(self, c):
        rng = self.rng(c)
        entries = self.catalog * self.DATA_PER_F
        rng.shuffle(entries)
        return [self.make(rng, name, f) for name, f in entries]

    def warm_up_op(self, rng):
        return self.make(rng, *self.catalog[0])

    def run(self, op):
        _, f, p1, s1 = op
        sol = self.nc.quantize_n3(f, p1, s1)
        return sol, self.nc.mc_verify(f, sol)

    def check(self, op, out):
        _, f, p1, s1 = op
        return checks.check_quantization(f, p1, s1, *out)

    def digest(self, out):
        sol, report = out
        return json.dumps([sol.to_json(), report.to_json()], sort_keys=True)


class MilnorDense(Workload):
    """milnor_number of fresh dense random f; mu must be the Bezout count."""

    name = "milnor_dense"
    # Six (3, 4) operations for each (3, 5) one, which takes about seven
    # times as long: (3, 5), the class with the largest Groebner
    # coefficients, gets over half of the run, so a slowdown of that class
    # alone moves ops_per_s by about half as much.  op_ms.p50 stays inside
    # the (3, 4) class.  A run holds six or seven cycles, 42 or 49
    # operations: op_ms.tail (ten or more beyond it) is p75, the upper part
    # of the (3, 4) class, from 40 up to 99 operations, so it keeps its rung
    # unless the run gets a third slower or more than twice as fast.
    SHAPES = ((3, 4),) * 6 + ((3, 5),)
    EXERCISES = (
        "milnor_number",
        "jacobian",
        "buchberger",
        "quotient_dimension",
        "standard_monomials",
        "Polynomial.__mul__",
    )
    ZERO = (
        ("polyvector.bracket.calls", "polyvector.wedge.calls", "unfolding.koszul_lift.calls")
        + HOCHSCHILD_ZERO
        + FRONT_END_ZERO
    )

    def make(self, rng, n, d):
        """A random f on every monomial of degree 2..d, coefficients in [-9, 9].

        An f whose top form is degenerate (about one in a thousand) has
        a Milnor number below the Bezout count; it is redrawn, since no
        expected value is known for it without the library.
        """
        ctx = self.nc.RingContext(tuple("xyzw"[:n]))
        monomials = [
            e for e in itertools.product(range(d + 1), repeat=n) if 2 <= sum(e) <= d
        ]
        while True:
            terms = {e: rng.randint(-9, 9) for e in monomials}
            if checks.bezout_certified(terms, n, d):
                return (n, d, self.nc.Polynomial(ctx, terms))

    def cycle(self, c):
        rng = self.rng(c)
        shapes = list(self.SHAPES)
        rng.shuffle(shapes)
        return [self.make(rng, n, d) for n, d in shapes]

    def warm_up_op(self, rng):
        return self.make(rng, 3, 3)

    def run(self, op):
        return self.nc.milnor_number(op[2])

    def check(self, op, mu):
        n, d, _ = op
        if mu != (d - 1) ** n:
            return f"milnor number {mu} != (d-1)^n = {(d - 1) ** n}"
        return None

    def digest(self, mu):
        return str(mu)


class HochschildOps(Workload):
    """Gerstenhaber bracket, differential and a nested brace of random cochains."""

    name = "hochschild_ops"
    # (n, arity of P, Q, R, derivative order per argument), 20-70 ms each
    # on a 2-core Xeon host.  Every argument of every term is differentiated to exactly the
    # given order and every coefficient has two terms of degree 2, so one
    # shape's cost varies about 3x with the random terms instead of 10x.
    # Shapes whose mean cost falls outside that range are left out, so the
    # tail of the cost distribution is made by several shapes, not by the
    # outliers of one.
    SHAPES = (
        (2, 2, 1, 2, 2),
        (2, 2, 2, 2, 1),
        (2, 3, 3, 1, 1),
        (2, 3, 2, 2, 1),
        (3, 3, 2, 1, 1),
        (3, 2, 2, 1, 2),
        (3, 2, 2, 2, 1),
        (3, 3, 2, 2, 1),
    )
    EXERCISES = (
        "gerstenhaber_bracket",
        "hochschild_differential",
        "brace",
        "multiplication_cochain",
        "Polynomial.__mul__",
    )
    ZERO = (
        ("polyvector.bracket.calls",) + GROEBNER_CALLS + FRONT_END_ZERO
    )

    def operator(self, rng, ctx, arity, order):
        terms = {}
        for _ in range(2):
            alphas = tuple(composition(rng, order, ctx.n) for _ in range(arity))
            coeff = {}
            while len(coeff) < 2:
                coeff[composition(rng, 2, ctx.n)] = Fraction(
                    rng.choice(NONZERO), rng.randint(1, 3)
                )
            terms[alphas] = self.nc.Polynomial(ctx, coeff)
        return self.nc.PolyDiffOperator(ctx, arity, terms)

    def make(self, rng, n, pa, qa, ra, order):
        ctx = self.nc.RingContext(tuple("xyz"[:n]))
        p = self.operator(rng, ctx, pa, order)
        q = self.operator(rng, ctx, qa, order)
        r = self.operator(rng, ctx, ra, order)
        pool = [rand_poly(rng, ctx, self.nc.Polynomial, 3, 2) for _ in range(6)]
        return (p, q, r, pool)

    def cycle(self, c):
        rng = self.rng(c)
        shapes = list(self.SHAPES)
        rng.shuffle(shapes)
        return [self.make(rng, *shape) for shape in shapes]

    def warm_up_op(self, rng):
        return self.make(rng, 2, 2, 1, 1, 1)

    def run(self, op):
        nc = self.nc
        p, q, r, _ = op
        return (
            nc.gerstenhaber_bracket(p, q),
            nc.hochschild_differential(p),
            nc.brace(nc.brace(p, [q]), [r]),
        )

    def check(self, op, out):
        p, q, r, pool = op
        return checks.check_hochschild(p, q, r, *out, pool)

    def digest(self, out):
        return json.dumps([x.to_json() for x in out], sort_keys=True)


CORPUS = os.path.join(HERE, "cli_corpus.json")


class CliSession(Workload):
    """Golden argv corpus passed to ncunfold.cli.main in-process."""

    name = "cli_session"
    EXERCISES = (
        "main",
        "parse_polynomial",
        "parse_gelement",
        "parse_series",
        "parse_poly_series",
        "format_gelement",
        "format_series",
        "jacobian",
        "qc_subspace",
        "monicize",
        "schouten_bracket",
        "koszul_lift",
        "qc_validate",
        "qc_normalize",
        "quantize_n3",
        "quantize_general",
        "mc_verify",
        "cup",
        "brace",
        "gerstenhaber_bracket",
        "hochschild_differential",
        "hkr",
        "HSeries.convolve",
    )

    def __init__(self, nc, seed):
        super().__init__(nc, seed)
        with open(CORPUS) as fh:
            self.cases = json.load(fh)["cases"]

    def cycle(self, c):
        """Every case of the corpus once, in a seeded order: each run holds
        the same multiset of cases, so its percentiles fall on the same
        cases whatever the seed."""
        ops = list(self.cases)
        self.rng(c).shuffle(ops)
        return ops

    def warm_up_op(self, rng):
        return {"argv": ["milnor", "--vars", "x,y", "--f", "x^3+y^2"], "exit": 0,
                "stdout_sha256": sha256("milnor: 2\n")}

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.nc.cli.main(list(op["argv"]))
        return code, out.getvalue()

    def check(self, op, out):
        code, stdout = out
        if code != op["exit"]:
            return f"exit code {code}, expected {op['exit']}"
        if sha256(stdout) != op["stdout_sha256"]:
            return "stdout differs from the stored digest"
        return None

    def known_defect(self, op):
        return "known_defect" in op

    def digest(self, out):
        code, stdout = out
        return f"{code}:{sha256(stdout)}"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (AdeQuantize, MilnorDense, HochschildOps, CliSession)}
