"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 validation failure
(quasiclassical conditions violated, non-isolated f where isolation is
required, nonzero residual in mc-verify), 3 degree-guard abort or
budget exceeded.  Each command accepts only the flags it reads.
Identical argv always produces byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    BudgetExceeded,
    DegreeGuardExceeded,
    NotACycle,
    NotIsolated,
    ParseError,
    QCInvalid,
    budget,
    charger,
)
from .groebner import ModuleElement, MonomialOrder, module_normal_form
from .hochschild import (
    PolyDiffOperator,
    brace,
    cup,
    gerstenhaber_bracket,
    hkr,
    hochschild_differential,
)
from .parsing import (
    format_gelement,
    format_series,
    parse_gelement,
    parse_polynomial,
    parse_poly_series,
    parse_series,
)
from .poly import INFINITE, RingContext, from_decimal
from .polyvector import schouten_bracket
from .singularity import Singularity, jacobian, monicize, qc_subspace
from .unfolding import (
    MCSolution,
    ObstructionReport,
    koszul_lift,
    mc_verify,
    qc_validate,
    quantize_general,
    quantize_n3,
)

USAGE_ERROR, VALIDATION_ERROR, DEGREE_ABORT = 1, 2, 3

# Every command runs under one budget of WORK_BUDGET steps, each charged
# before its work, and the first charge past it exits 3: brace, cup and hkr
# charge theirs, and the JSON output of mc-verify and quantize --general,
# which lists every order, --order steps before any series is parsed.  A
# cochain's derivative order or exponent past COCHAIN_ORDER_LIMIT (it bounds
# the coefficients derivatives make) is an input size, refused on reading.
WORK_BUDGET = 10_000
COCHAIN_ORDER_LIMIT = 1_000


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _order(text: str) -> int:
    """--order: an integer >= 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


# Each flag's argparse spec, written once.
_FLAGS = {
    "--vars": dict(required=True, help="comma-separated variable names"),
    "--f": dict(required=True, help="polynomial expression"),
    "--p": dict(required=True, help="polynomial, or for mc-verify an h-series of them"),
    "--S": dict(required=True, help="polyvector, or for mc-verify an h-series of them"),
    "--T": dict(default=None, help="optional h-series witness"),
    "--X": dict(required=True, help="graded element"),
    "--Y": dict(required=True, help="graded element"),
    "--P": dict(required=True, help="cochain (JSON)"),
    "--Q": dict(required=True, help="cochain (JSON)"),
    "--Qs": dict(required=True, help="JSON array of cochains"),
    "--general": dict(action="store_true", help="order-by-order prober"),
    "--order": dict(type=_order, default=8, help="h-truncation order"),
    "--monomial-order": dict(choices=["grevlex", "lex"], default="grevlex"),
    "--max-degree": dict(type=int, default=64, help="degree guard (exit code 3)"),
    "--format": dict(choices=["json", "text"], default="text"),
}

# Each command, its help and the flags it reads besides --vars and --format.
_COMMANDS = {
    "milnor": ("Milnor number of f", "--f --monomial-order --max-degree"),
    "jacobian": ("Jacobian report of f", "--f --monomial-order --max-degree"),
    "qc-subspace": ("monomial basis of the complement W", "--f --max-degree"),
    "monicize": ("substitution making f monic in the last variable", "--f --max-degree"),
    "schouten": ("bracket of two graded elements", "--X --Y --max-degree"),
    "koszul-lift": ("T with [f, T] = S", "--f --S --max-degree"),
    "qc-check": ("validate a quasiclassical datum (p, S)", "--f --p --S --max-degree"),
    "qc-normalize": ("W-normal form of p modulo the Jacobian ideal", "--f --p --max-degree"),
    "quantize": ("quantize a quasiclassical datum",
                 "--f --p --S --general --order --max-degree"),
    "mc-verify": ("residual report for a solution series",
                  "--f --p --S --T --order --max-degree"),
    "hh-cup": ("cup product of two cochains (JSON)", "--P --Q"),
    "hh-brace": ("brace P{Q_1,...} of cochains (JSON)", "--P --Qs"),
    "hh-bracket": ("Gerstenhaber bracket of two cochains (JSON)", "--P --Q"),
    "hh-d": ("Hochschild differential [mu, P] (JSON)", "--P"),
    "hkr": ("HKR cochain of a polyvector field", "--X --max-degree"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call and shared by
    every later one; do not mutate it.  Parsing leaves no state in it: each
    parse_args fills a fresh namespace."""
    top = _CliParser(prog="unfold", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in ["--vars", *flags.split(), "--format"]:
            p.add_argument(flag, **_FLAGS[flag])
    return top


def _ctx(args) -> RingContext:
    names = tuple(s.strip() for s in args.vars.split(",") if s.strip())
    return RingContext(names)


def _json(text: str):
    """Decode a JSON flag: integers of any length, and nesting too deep for
    the decoder a ValueError (exit 1), like any other malformed JSON."""
    try:
        return json.loads(text, parse_int=from_decimal)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _cochain(ctx: RingContext, data) -> PolyDiffOperator:
    """Decode a cochain; malformed JSON becomes a ValueError (exit 1), and
    a derivative order or exponent past COCHAIN_ORDER_LIMIT BudgetExceeded."""
    try:
        p = PolyDiffOperator.from_json(ctx, data)
    except (KeyError, TypeError, ZeroDivisionError) as e:
        raise ValueError(f"malformed cochain JSON: {type(e).__name__}: {e}") from e
    top = max((e for alphas, c in p.terms.items()
               for exps in (*alphas, *c.nums) for e in exps), default=0)
    if top > COCHAIN_ORDER_LIMIT:
        raise BudgetExceeded(f"a cochain holds the derivative order or exponent {top}, "
                             f"past the limit of {COCHAIN_ORDER_LIMIT}")
    return p


def _emit(args, payload, text) -> None:
    """Print the JSON payload or the text, each given as a zero-argument
    callable: only the form that --format asks for is built."""
    if args.format == "json":
        print(json.dumps(payload(), sort_keys=True))
    else:
        print(text())


def _mono_strs(ctx, exps_list):
    return [ctx.format_monomial(tuple(e)) for e in exps_list]


def _solution_text(sol: MCSolution) -> str:
    lines = [f"order: {sol.order}"]
    lines.append(f"p: {format_series(sol.p_series)}")
    lines.append(f"S: {format_series(sol.s_series)}")
    if sol.witness is not None:
        lines.append(f"T: {format_series(sol.witness)}")
    lines.append("residual checked: zero")
    return "\n".join(lines)


def _report_text(report) -> str:
    lines = [f"ok: {report.ok}"]
    for o in report.nonzero:
        lines.append(
            f"h^{o.h_power}: [f-p,S] = {format_gelement(o.bracket_f_minus_p_s)}; "
            f"[S,S] = {format_gelement(o.poisson_square)}; "
            f"residual = {format_gelement(o.residual)}"
        )
    if len(lines) == 1:
        lines.append("all residuals zero through the requested order")
    return "\n".join(lines)


def _run(args) -> int:
    ctx = _ctx(args)

    if args.command.startswith("hh-"):
        p = _cochain(ctx, _json(args.P))
        if args.command == "hh-d":
            out = hochschild_differential(p)
        elif args.command == "hh-brace":
            qs = _json(args.Qs)
            if not isinstance(qs, list):
                raise ValueError("--Qs must be a JSON list of cochains")
            out = brace(p, [_cochain(ctx, item) for item in qs])
        elif args.command == "hh-cup":
            out = cup(p, _cochain(ctx, _json(args.Q)))
        else:
            out = gerstenhaber_bracket(p, _cochain(ctx, _json(args.Q)))
        _emit(args, out.to_json, lambda: str(out))
        return 0

    # every other command parses expressions, under the --max-degree guard
    guard = args.max_degree

    if args.command == "milnor":
        f = parse_polynomial(args.f, ctx, guard)
        data = jacobian(f, MonomialOrder(args.monomial_order), guard)
        _emit(args, lambda: {"milnor": data.milnor}, lambda: f"milnor: {data.milnor}")
        return 0

    if args.command == "jacobian":
        f = parse_polynomial(args.f, ctx, guard)
        data = jacobian(f, MonomialOrder(args.monomial_order), guard)
        _emit(args, data.report, lambda: (
            f"milnor: {data.milnor}\nisolated: {data.milnor != INFINITE}\n"
            "w_basis: " + ", ".join(_mono_strs(ctx, data.w_basis))
        ))
        return 0

    if args.command == "qc-subspace":
        f = parse_polynomial(args.f, ctx, guard)
        basis = qc_subspace(Singularity(f, guard))
        _emit(args, lambda: {"w_basis": [list(e) for e in basis]},
              lambda: "w_basis: " + ", ".join(_mono_strs(ctx, basis)))
        return 0

    if args.command == "monicize":
        f = parse_polynomial(args.f, ctx, guard)
        sigma, image = monicize(f)
        _emit(args, lambda: {
            "images": [im.to_json() for im in sigma.images],
            "result": image.to_json(),
            "xn_degree": image.degree_in(ctx.n),
        }, lambda: f"substitution: {sigma}\nresult: {image}")
        return 0

    if args.command == "schouten":
        x = parse_gelement(args.X, ctx, guard)
        y = parse_gelement(args.Y, ctx, guard)
        out = schouten_bracket(x, y)
        _emit(args, lambda: {"bracket": out.to_json()},
              lambda: f"[X, Y] = {format_gelement(out)}")
        return 0

    if args.command == "koszul-lift":
        f = parse_polynomial(args.f, ctx, guard)
        z = parse_gelement(args.S, ctx, guard)
        lift = koszul_lift(Singularity(f, guard), z)
        _emit(args, lambda: {"lift": lift.to_json()}, lambda: f"T = {format_gelement(lift)}")
        return 0

    if args.command == "qc-check":
        f = parse_polynomial(args.f, ctx, guard)
        p = parse_polynomial(args.p, ctx, guard)
        s = parse_gelement(args.S, ctx, guard)
        result = qc_validate(Singularity(f, guard), p, s)
        if isinstance(result, list):
            _emit(args, lambda: {
                "valid": False,
                "violations": [{"kind": v.kind, "message": v.message} for v in result],
            }, lambda: "invalid:\n" + "\n".join(f"  {v.kind}: {v.message}" for v in result))
            return VALIDATION_ERROR
        _emit(args, lambda: {
            "valid": True,
            "p_normal": result.p_normal.to_json(),
            "S": result.s.to_json(),
        }, lambda: f"valid\np_normal: {result.p_normal}")
        return 0

    if args.command == "qc-normalize":
        f = parse_polynomial(args.f, ctx, guard)
        p = parse_polynomial(args.p, ctx, guard)
        basis = Singularity(f, guard).cofactor_basis()
        if p.total_degree() > guard:  # where the normal form's first guard would fire
            raise DegreeGuardExceeded(f"--p has degree {p.total_degree()}, past the limit {guard}")
        trace = module_normal_form(ModuleElement((p,)), basis, guard).over_source(basis)
        (w_part,), cofactors = trace.remainder.components, trace.cofactors
        _emit(args, lambda: {
            "w_part": w_part.to_json(),
            "cofactors": [c.to_json() for c in cofactors],
        }, lambda: f"w_part: {w_part}\ncofactors: " + ", ".join(map(str, cofactors)))
        return 0

    if args.command == "quantize":
        if args.general and args.format == "json":
            charger()(args.order)
        f = parse_polynomial(args.f, ctx, guard)
        p = parse_polynomial(args.p, ctx, guard)
        s = parse_gelement(args.S, ctx, guard)
        sing = Singularity(f, guard)
        if args.general:
            result = quantize_general(sing, p, s, args.order)
            if isinstance(result, ObstructionReport):
                _emit(args, lambda: {
                    "obstruction": {
                        "failing_order": result.failing_order,
                        "kind": result.kind,
                        "element": result.obstruction.to_json(),
                    }
                }, lambda: (
                    f"obstructed at h^{result.failing_order} ({result.kind}): "
                    f"{format_gelement(result.obstruction)}"
                ))
                return VALIDATION_ERROR
            sol = result
        else:
            sol = quantize_n3(sing, p, s)
        _emit(args, sol.to_json, lambda: _solution_text(sol))
        return 0

    if args.command == "mc-verify":
        if args.format == "json":
            charger()(args.order)
        f = parse_polynomial(args.f, ctx, guard)
        p_series = parse_poly_series(args.p, ctx, args.order, guard)
        s_series = parse_series(args.S, ctx, args.order, guard)
        witness = parse_series(args.T, ctx, args.order, guard) if args.T else None
        sol = MCSolution(args.order, p_series, s_series, witness)
        report = mc_verify(f, sol)
        _emit(args, report.to_json, lambda: _report_text(report))
        return 0 if report.ok else VALIDATION_ERROR

    if args.command == "hkr":
        x = parse_gelement(args.X, ctx, guard)
        out = hkr(x)
        _emit(args, out.to_json, lambda: str(out))
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with budget(WORK_BUDGET, args.command):
            return _run(args)
    except (_UsageError, ParseError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (NotIsolated, NotACycle, QCInvalid) as e:
        print(f"error: {e}", file=sys.stderr)
        return VALIDATION_ERROR
    except (DegreeGuardExceeded, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return DEGREE_ABORT


if __name__ == "__main__":
    sys.exit(main())
