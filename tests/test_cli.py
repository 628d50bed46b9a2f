"""Command-line interface: subcommands, exit codes, JSON determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from ncunfold import cli
from ncunfold.cli import main
from ncunfold.hochschild import PolyDiffOperator, gerstenhaber_bracket
from ncunfold.parsing import parse_gelement, parse_polynomial
from ncunfold.poly import Polynomial, RingContext, to_decimal
from ncunfold.polyvector import GElement, ad_f
from ncunfold.unfolding import MCSolution, mc_verify

from oracles import decimal_value

CTX3 = RingContext(("x", "y", "z"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_milnor_json(capsys):
    code, out, _ = run(
        capsys, ["milnor", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {"milnor": 1}


def test_milnor_text(capsys):
    code, out, _ = run(capsys, ["milnor", "--vars", "x,y,z", "--f", "x^3+y^5+z^2"])
    assert code == 0
    assert "8" in out


def test_syntax_error_exit_1_with_offset(capsys):
    code, _, err = run(capsys, ["milnor", "--vars", "x", "--f", "x^^2"])
    assert code == 1
    assert "syntax error at offset 2" in err


@pytest.mark.parametrize("f", ["²", "x²", "x^٣"])
def test_non_ascii_digit_is_a_syntax_error_exit_1(capsys, f):
    code, out, err = run(capsys, ["milnor", "--vars", "x,y", "--f", f])
    assert (code, out) == (1, "")
    assert err.startswith("error: syntax error at offset ") and "unexpected character" in err
    assert "Traceback" not in err


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, ["milnor", "--vars", "x,y"])
    assert code == 1


QUANTIZE_ARGV = ["quantize", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "0", "--S", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        QUANTIZE_ARGV + ["--order", "-3"],
        QUANTIZE_ARGV + ["--order", "0"],
        ["mc-verify", "--vars", "x", "--f", "x^2", "--p", "0", "--S", "0", "--order", "0"],
        ["mc-verify", "--vars", "x", "--f", "x^2", "--p", "0", "--S", "0", "--order", "two"],
    ],
)
def test_order_flag_out_of_range_is_usage_error(capsys, argv):
    """A bad --order is rejected while parsing, before any work."""
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert "argument --order" in err


def test_order_flag_at_its_lower_bound(capsys):
    code, out, _ = run(capsys, QUANTIZE_ARGV + ["--order", "1"])
    assert code == 0 and out


SQUARES = "x^2+y^2+z^2"
S_SQUARES = "2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2)"
COCHAIN = ('{"arity": 1, "terms": [{"coeff": {"terms": [{"exp": [1, 0, 0], "num": "1", '
           '"den": "1"}]}, "alphas": [[0, 1, 0]]}]}')

# one argv per command that passes every flag the command takes
EVERY_FLAG_ARGVS = [
    ["milnor", "--f", "x^3+y^2+z^2", "--monomial-order", "lex", "--max-degree", "9"],
    ["jacobian", "--f", "x^3+y^2+z^2", "--monomial-order", "lex", "--max-degree", "9"],
    ["qc-subspace", "--f", "x^3+y^2+z^2", "--max-degree", "9"],
    ["monicize", "--f", "x*y+x^3", "--max-degree", "9"],
    ["schouten", "--X", "x*D(1)", "--Y", "y*D(2)", "--max-degree", "9"],
    ["koszul-lift", "--f", SQUARES, "--S", S_SQUARES, "--max-degree", "9"],
    ["qc-check", "--f", SQUARES, "--p", "1", "--S", S_SQUARES, "--max-degree", "9"],
    ["qc-normalize", "--f", SQUARES, "--p", "x^2+1", "--max-degree", "9"],
    ["quantize", "--f", SQUARES, "--p", "1", "--S", S_SQUARES, "--general", "--order", "3",
     "--max-degree", "9"],
    ["mc-verify", "--f", SQUARES, "--p", "h", "--S", f"({S_SQUARES})*h", "--T", "0",
     "--order", "3", "--max-degree", "9"],
    ["hh-cup", "--P", COCHAIN, "--Q", COCHAIN],
    ["hh-brace", "--P", COCHAIN, "--Qs", f"[{COCHAIN}]"],
    ["hh-bracket", "--P", COCHAIN, "--Q", COCHAIN],
    ["hh-d", "--P", COCHAIN],
    ["hkr", "--X", "x*D(1,2)", "--max-degree", "9"],
]


def _subparsers():
    top = cli.build_parser()
    (commands,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return top, commands.choices


def test_every_command_has_an_every_flag_argv():
    assert sorted(argv[0] for argv in EVERY_FLAG_ARGVS) == sorted(_subparsers()[1])


@pytest.mark.parametrize("argv", EVERY_FLAG_ARGVS, ids=[argv[0] for argv in EVERY_FLAG_ARGVS])
def test_each_command_reads_every_flag_it_accepts(argv):
    """An argv that passes every flag of the command's subparser: running
    it reads every attribute the parse filled in."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    top, subparsers = _subparsers()
    argv = [argv[0], "--vars", "x,y,z", *argv[1:], "--format", "json"]
    flags = {s for a in subparsers[argv[0]]._actions for s in a.option_strings}
    assert flags - {"-h", "--help"} <= set(argv)
    args = top.parse_args(argv, namespace=Recording())
    reads.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli._run(args)
    assert code in (0, 2) and out.getvalue()
    assert set(vars(args)) <= reads, set(vars(args)) - reads


@pytest.mark.parametrize(
    "argv",
    [
        ["qc-subspace", "--vars", "x,y,z", "--f", "x^5+x^2*y^2+y^5+z^2", "--monomial-order", "lex"],
        ["milnor", "--vars", "x,y", "--f", "x^2+y^3", "--order", "3"],
        ["hh-d", "--vars", "x,y,z", "--P", COCHAIN, "--max-degree", "3"],
    ],
)
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    """A command accepts only the flags it reads: any other is refused by
    the parser, before any work."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err and argv[-2] in err
    assert "Traceback" not in err


def test_non_isolated_exit_2(capsys):
    code, _, err = run(capsys, ["qc-subspace", "--vars", "x,y", "--f", "x^2*y"])
    assert code == 2
    assert "isolated" in err


def test_quantize_documented_invocation(capsys):
    argv = [
        "quantize",
        "--vars", "x,y,z",
        "--f", "x^2+y^2+z^2",
        "--p", "1",
        "--S", "2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2)",
        "--format", "json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == "exact"
    assert payload["residual_checked"] is True
    # re-hydrate and verify the residual independently
    f = parse_polynomial("x^2+y^2+z^2", CTX3)
    sol = MCSolution.from_json(CTX3, payload)
    assert mc_verify(f, sol).ok
    assert sol.s_series.coeffs[1] == parse_gelement(
        "2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2)", CTX3
    )


def test_quantize_invalid_datum_exit_2(capsys):
    code, _, err = run(
        capsys,
        ["quantize", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "0",
         "--S", "x*D(1,2)"],
    )
    assert code == 2


def test_qc_check_valid_and_invalid(capsys):
    ok_code, out, _ = run(
        capsys,
        ["qc-check", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "1",
         "--S", "2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2)", "--format", "json"],
    )
    assert ok_code == 0
    assert json.loads(out)["valid"] is True
    bad_code, out, _ = run(
        capsys,
        ["qc-check", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "0",
         "--S", "x*D(1,2)", "--format", "json"],
    )
    assert bad_code == 2
    assert json.loads(out)["valid"] is False


def test_qc_check_lists_both_violations_in_order(capsys):
    """A datum neither f-compatible nor Poisson exits 2 and lists
    not_f_compatible, then not_poisson."""
    code, out, err = run(
        capsys,
        ["qc-check", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "0",
         "--S", "y*D(1,2) + x*D(2,3)", "--format", "json"],
    )
    assert code == 2 and "Traceback" not in err
    report = json.loads(out)
    assert report["valid"] is False
    assert [v["kind"] for v in report["violations"]] == ["not_f_compatible", "not_poisson"]


def test_general_quantize_wrong_wedge_degree_exit_2(capsys):
    """A vector field where a bivector belongs is a validation failure in
    every command that validates (p, S), --general included."""
    datum = ["--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "0",
             "--S", "y*D(1)-x*D(2)"]
    codes = []
    for argv in (["qc-check"] + datum, ["quantize"] + datum,
                 ["quantize"] + datum + ["--general"]):
        code, out, err = run(capsys, argv)
        codes.append(code)
        if "--general" in argv:
            assert out == ""
            assert "bivector" in err
    assert codes == [2, 2, 2]


def test_jacobian_report_schema(capsys):
    code, out, _ = run(
        capsys, ["jacobian", "--vars", "x,y,z", "--f", "x^3+y^2+z^2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"milnor", "w_basis", "isolated"}
    assert payload == {"milnor": 2, "w_basis": [[0, 0, 0], [1, 0, 0]], "isolated": True}


def test_qc_normalize_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        ["qc-normalize", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "x + 1",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    w = Polynomial.from_json(CTX3, payload["w_part"])
    assert w == Polynomial.one(CTX3)


def test_integer_past_4300_digits_prints_exactly(capsys):
    """3^100000 has 47,713 digits, past the interpreter's default limit of
    4300 for str and int; it prints in text and JSON (it exited 1 with the
    interpreter's message), and the JSON reads back to the same polynomial."""
    ctx = RingContext(("x", "y"))
    argv = ["qc-normalize", "--vars", "x,y", "--f", "x^2+y^3", "--p", "3^100000"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("w_part: ") and lines[1:] == ["cofactors: 0, 0"]
    digits = lines[0][len("w_part: "):]
    assert len(digits) == 47713 and decimal_value(digits) == 3**100000
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    w_part = json.loads(out)["w_part"]
    [term] = w_part["terms"]
    assert (term["num"], term["den"], term["exp"]) == (digits, "1", [0, 0])
    assert Polynomial.from_json(ctx, w_part) == Polynomial.constant(ctx, 3**100000)


def test_koszul_lift_command(capsys):
    # a value starting with "-" must use the --S=... form (argparse rule)
    code, out, _ = run(
        capsys,
        ["koszul-lift", "--vars", "x,y,z", "--f", "x^2+y^2+z^2",
         "--S=-2*x*D(2,3)-2*y*D(3,1)-2*z*D(1,2)", "--format", "json"],
    )
    assert code == 0
    lift = GElement.from_json(CTX3, json.loads(out)["lift"])
    f = parse_polynomial("x^2+y^2+z^2", CTX3)
    target = parse_gelement("-2*x*D(2,3)-2*y*D(3,1)-2*z*D(1,2)", CTX3)
    assert ad_f(f, lift) == target


def test_mc_verify_command_ok_and_fail(capsys):
    base = ["mc-verify", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--order", "4"]
    ok_code, _, _ = run(
        capsys,
        base + ["--p", "h", "--S", "(2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2))*h"],
    )
    assert ok_code == 0
    bad_code, out, _ = run(capsys, base + ["--p", "0", "--S", "x*D(1,2)*h"])
    assert bad_code == 2


def test_mc_verify_text_at_a_high_order_costs_its_nonzero_orders(capsys):
    """A series is stored by its nonzero coefficients, so --order 100000
    with coefficients at h^1 only is checked in well under a second (the
    dense representation took 3.4 s on a shared 2-core Xeon host)."""
    argv = ["mc-verify", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "h",
            "--S", "(2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2))*h", "--order", "100000"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out == "ok: True\nall residuals zero through the requested order\n"
    assert elapsed < 2.5, elapsed


def test_mc_verify_text_at_a_million_orders_walks_only_nonzero_orders(capsys):
    """The text report reads the nonzero orders only and builds no
    per-order list, so --order 1000000 costs what --order 2 costs (the
    per-order report took 2.6 s and 163 MB on a shared 2-core Xeon host)."""
    argv = ["mc-verify", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", "h",
            "--S", "(2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2))*h", "--order", "1000000"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out == "ok: True\nall residuals zero through the requested order\n"
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("names, f", [("x,y", "(x+y)^100000"), ("x,y,z", "(x+y+z)^100")])
def test_power_past_max_degree_exits_3_at_parse_time(capsys, names, f):
    """A power of degree above --max-degree (64 by default) is refused
    before the parser expands it: (x+y)^100000 ran past 10 s, and
    (x+y+z)^100 reached the Groebner guard only after 1.5 s."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["milnor", "--vars", names, "--f", f])
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.startswith("error: parsing: ") and "past the limit 64" in err
    assert "Traceback" not in err
    assert elapsed < 1.0, elapsed


def test_power_of_E_past_max_degree_exits_3_at_parse_time(capsys):
    """E is not a ring variable, but its power is held to --max-degree
    too: expanding (1+E)^1000 took 2.8 s."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["schouten", "--vars", "x,y", "--X", "(1+E)^1000*D(1)",
                                  "--Y", "x"])
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.startswith("error: parsing: a power of E degree 1000 (exponent at offset 6)")
    assert "Traceback" not in err
    assert elapsed < 1.0, elapsed


def test_constant_power_over_its_bit_budget_exits_3_at_once(capsys):
    """3^16000000 has degree 0, so the degree guard passes it; it is
    refused by size before the parser expands it (expanding it took 11 s)."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["milnor", "--vars", "x,y", "--f", "x^2+y^2+3^16000000"])
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.startswith("error: parsing: ") and "offset 10" in err
    assert "Traceback" not in err
    assert elapsed < 1.0, elapsed


def test_hkr_over_its_output_budget_exits_3_at_once(capsys):
    """The top polyvector on 8 variables has 8! = 40,320 HKR terms, past
    the budget of 10,000; it is refused before any expansion (expanding
    it took 5.2 s and printed 12.4 MB)."""
    names = ",".join(f"x{i}" for i in range(1, 9))
    start = time.perf_counter()
    code, out, err = run(capsys, ["hkr", "--vars", names, "--X", "D(1,2,3,4,5,6,7,8)"])
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.startswith("error: hkr")
    assert "40320" in err
    assert "Traceback" not in err
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("command, p, h", [(["mc-verify"], "h", "*h"),
                                            (["quantize", "--general"], "x", "")])
def test_json_past_its_order_budget_exits_3_before_parsing(capsys, command, p, h):
    """JSON output lists every order through --order: at --order 1000000
    mc-verify took 15.6 s and 1.29 GB and printed 107 MB.  Past
    JSON_ORDER_BUDGET it is refused before any series is parsed, so even
    an unparsable --S exits 3; text output has no such budget."""
    head = [*command, "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--p", p, "--S"]
    s = f"(2*x*D(2,3)+2*y*D(3,1)+2*z*D(1,2)){h}"
    over = str(cli.JSON_ORDER_BUDGET + 1)
    for text in (s, "D("):
        start = time.perf_counter()
        code, out, err = run(capsys, [*head, text, "--order", over, "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {command[0]}: JSON output lists every order")
        assert over in err and "Traceback" not in err
    code, out, err = run(capsys, [*head, s, "--order", over])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, [*head, s, "--order", str(cli.JSON_ORDER_BUDGET),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert len(data["orders"] if "orders" in data else data["S"]) == cli.JSON_ORDER_BUDGET + 1


def _within_a_second(capsys, argv):
    """run(), asserting that it took under 1 s and printed no traceback."""
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0, argv[:2]
    assert "Traceback" not in err
    return code, out, err


def test_cochain_integer_literal_past_4300_digits_reads_exactly(capsys):
    """A 5,000-digit integer literal, not a string, in cochain JSON reads as
    the same digits in a string do (it exited 1 with the interpreter's
    message on its limit of 4300 digits)."""
    digits = "7" * 5000
    cochain = ('{"arity": 1, "terms": [{"coeff": {"terms": [{"exp": [0], "num": %s, '
               '"den": 1}]}, "alphas": [[0]]}]}')
    argv = ["hh-d", "--vars", "x", "--format", "json", "--P"]
    code, out, err = _within_a_second(capsys, argv + [cochain % digits])
    assert (code, err) == (0, "")
    [term] = json.loads(out)["terms"]
    assert term["coeff"]["terms"][0]["num"] == digits and term["alphas"] == [[0], [0]]
    assert _within_a_second(capsys, argv + [cochain % f'"{digits}"']) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["hh-brace", "--vars", "x", "--P", '{"arity": 1, "terms": []}', "--Qs", "[" * 3000],
        ["hh-d", "--vars", "x", "--P", "[" * 1000],
        ["hh-cup", "--vars", "x", "--P", "[" * 20000 + "]" * 20000, "--Q", "[]"],
        ["hh-bracket", "--vars", "x", "--P", '{"arity": 1, "terms": []}',
         "--Q", '{"terms": ' * 5000 + "[]" + "}" * 5000],
    ],
    ids=["qs-3000-deep", "p-1000-deep", "p-20000-deep-closed", "q-5000-deep-objects"],
)
def test_json_nested_past_the_decoder_depth_exits_1(capsys, argv):
    """Nesting deeper than the decoder follows is malformed JSON (it raised
    RecursionError out of main)."""
    code, out, err = _within_a_second(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_parentheses_past_the_nesting_bound_exit_1(capsys):
    """300 nested parentheses are refused at the 101st (they raised
    RecursionError in the parser); 100 parse."""
    deep = "(" * 300 + "x" + ")" * 300 + "+y^2"
    code, out, err = _within_a_second(capsys, ["milnor", "--vars", "x,y", "--f", deep])
    assert (code, out) == (1, "")
    assert err == "error: syntax error at offset 100: parentheses nest deeper than 100\n"
    deep = "(" * 100 + "x^3" + ")" * 100 + "+y^2"
    assert _within_a_second(capsys, ["milnor", "--vars", "x,y", "--f", deep]) == (
        0, "milnor: 2\n", "")


def test_hh_d_of_a_cochain_of_arity_2000_exits_0(capsys):
    """The product of 2,000 arguments is a cocycle; splitting a derivative
    order over 2,000 parts recursed once per part and overflowed the stack."""
    one = {"terms": [{"exp": [0], "num": "1", "den": "1"}]}
    cochain = json.dumps({"arity": 2000, "terms": [{"coeff": one, "alphas": [[0]] * 2000}]})
    code, out, err = _within_a_second(capsys, ["hh-d", "--vars", "x", "--P", cochain])
    assert (code, out, err) == (0, "0 (arity 2001)\n", "")


def _power_cochain(arity: int, exponent: int, order: int, n: int = 1) -> str:
    """The cochain x^exponent * d^order in each of its arguments, every
    variable raised and derived alike."""
    term = {"coeff": {"terms": [{"exp": [exponent] * n, "num": "1", "den": "1"}]},
            "alphas": [[order] * n] * arity}
    return json.dumps({"arity": arity, "terms": [term]})


def test_cochains_past_their_term_budget_exit_3_before_expanding(capsys):
    """[P, Q] for P = x^250 (arity 2, zero orders) and Q = the 250th
    derivative in both arguments forms 63,254 term products: expanding it
    took 1.8 s and printed 19 MB.  hh-bracket, hh-brace and hh-d are
    refused at the first step charged past COCHAIN_TERM_BUDGET; k = 20 runs."""
    p, q = _power_cochain(2, 250, 0), _power_cochain(2, 0, 250)
    argvs = [["hh-bracket", "--vars", "x", "--P", p, "--Q", q],
             ["hh-brace", "--vars", "x", "--P", q, "--Qs", f"[{p}]"],
             ["hh-d", "--vars", "x,y", "--P", _power_cochain(2, 0, 250, n=2)]]
    for argv in argvs:
        code, out, err = _within_a_second(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {argv[0]}: expanding these cochains may take ")
        assert err.endswith(f" or more steps, over the budget of "
                            f"{cli.COCHAIN_TERM_BUDGET}\n")
    # P{Q}: 2 slot combinations of 1 visit and 1 product each, and a table
    # of 1 entry, d^0 being free (7 steps); Q{P}: its first combination and
    # visit (2), then for gamma0 = 0..43 the derivative d^gamma0 of x^250
    # (but d^0) and its 251 - gamma0 entries, 43 + 10,098 steps, the last
    # past the budget
    assert " 10150 or more " in _within_a_second(capsys, argvs[0])[2]
    p, q = _power_cochain(2, 20, 0), _power_cochain(2, 0, 20)
    code, out, err = _within_a_second(
        capsys, ["hh-bracket", "--vars", "x", "--P", p, "--Q", q, "--format", "json"])
    ctx = RingContext(("x",))
    bracket = gerstenhaber_bracket(*(PolyDiffOperator.from_json(ctx, json.loads(c)) for c in (p, q)))
    assert (code, err) == (0, "") and json.loads(out) == bracket.to_json()


def test_brace_into_an_arity_0_cochain_takes_one_derivative(capsys):
    """An arity-0 Q_t has no argument to take a derivative: its table at
    order alpha takes d^alpha of its coefficient only (it differentiated
    over the whole degree box, about 10^6 derivatives here, and did not
    finish in 60 s)."""
    p = _power_cochain(1, 0, 1000, n=2)
    q = _power_cochain(0, 1000, 0, n=2)
    code, out, err = _within_a_second(
        capsys, ["hh-brace", "--vars", "x,y", "--P", p, "--Qs", f"[{q}]"])
    assert (code, out, err) == (0, f"({to_decimal(math.factorial(1000) ** 2)})*d[]\n", "")


def test_brace_splitting_an_order_10_9_ways_exits_3_at_once(capsys):
    """An arity-2 constant inserted at the derivative order (1000, 1000,
    1000) has an insertion table of 1001^3 splits of that order; their count
    is charged before any is built (the 61^3 splits of (60, 60, 60) take
    1.5 s to build)."""
    p = _power_cochain(1, 0, 1000, n=3)
    q = _power_cochain(2, 0, 0, n=3)
    code, out, err = _within_a_second(
        capsys, ["hh-brace", "--vars", "x,y,z", "--P", p, "--Qs", f"[{q}]"])
    assert (code, out) == (3, "")
    # 1 combination, 1 visit, d^0 (free), then the 1001^3 entries
    assert err == (f"error: hh-brace: expanding these cochains may take {2 + 1001 ** 3} "
                   f"or more steps, over the budget of {cli.COCHAIN_TERM_BUDGET}\n")


def test_brace_of_a_thousand_constants_signs_each_combination_in_linear_time(capsys):
    """P of arity 1,001, order 1 in each argument, braced with 1,000 arity-0
    constants: 1,001 slot combinations, each of which kills every term.
    The sign of a combination read the offset of each block as a fresh sum
    over the blocks in front of it, O(l^2) per combination (3.5 s here)."""
    p = _power_cochain(1001, 0, 1)
    const = _power_cochain(0, 0, 0)
    code, _, err = _within_a_second(
        capsys, ["hh-brace", "--vars", "x", "--P", p, "--Qs", "[" + ", ".join([const] * 1000) + "]"])
    assert code == 0, err


def _many_term_cochain(arity: int, count: int, seed: int) -> str:
    """A one-term cochain in x, y with zero orders whose coefficient has
    count terms, exponents drawn up to COCHAIN_ORDER_LIMIT."""
    pairs = random.Random(seed).sample(range((cli.COCHAIN_ORDER_LIMIT + 1) ** 2), count)
    exps = [divmod(e, cli.COCHAIN_ORDER_LIMIT + 1) for e in pairs]
    coeff = {"terms": [{"exp": list(e), "num": "1", "den": "1"} for e in exps]}
    return json.dumps({"arity": arity, "terms": [{"coeff": coeff, "alphas": [[0, 0]] * arity}]})


def test_budget_counts_visits_and_monomial_products(capsys):
    """The count weighs each coefficient by its terms and each slot
    combination by P's terms, so each of these exits 3 at once: two
    1,000-term coefficients under hh-cup (4.4 s, 12.5 MB printed) and under
    hh-bracket (2.6 s), and 150 terms of arity 140 with two constants
    inserted, 9,730 combinations of no product (3.3 s, to print 0)."""
    p, q = _many_term_cochain(0, 1000, 1), _many_term_cochain(0, 1000, 2)
    p1, q1 = _many_term_cochain(1, 1000, 1), _many_term_cochain(1, 1000, 2)
    wide = json.dumps({"arity": 140, "terms": [
        {"coeff": {"terms": [{"exp": [0], "num": "1", "den": "1"}]},
         "alphas": [[2 + i // 140] if j == i % 140 else [1] for j in range(140)]}
        for i in range(150)]})
    const = _power_cochain(0, 0, 0)
    for argv in (["hh-cup", "--vars", "x,y", "--P", p, "--Q", q],
                 ["hh-bracket", "--vars", "x,y", "--P", p1, "--Q", q1],
                 ["hh-brace", "--vars", "x", "--P", wide, "--Qs", f"[{const}, {const}]"]):
        code, out, err = _within_a_second(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {argv[0]}: expanding these cochains may take ")


def test_cochain_order_or_exponent_past_the_limit_exits_3(capsys):
    """A derivative order or an exponent past COCHAIN_ORDER_LIMIT is refused
    on reading, by every hh-* command; at the limit it is read."""
    over, at = cli.COCHAIN_ORDER_LIMIT + 1, cli.COCHAIN_ORDER_LIMIT
    one = _power_cochain(1, 0, 0)
    for p in (_power_cochain(1, over, 0), _power_cochain(1, 0, over)):
        for argv in (["hh-cup", "--P", p, "--Q", one], ["hh-d", "--P", p],
                     ["hh-brace", "--P", one, "--Qs", f"[{p}]"],
                     ["hh-bracket", "--P", one, "--Q", p]):
            code, out, err = _within_a_second(capsys, [argv[0], "--vars", "x", *argv[1:]])
            assert (code, out) == (3, "")
            assert err == (f"error: a cochain holds the derivative order or exponent {over}, "
                           f"past the limit of {at}\n")
    code, out, err = _within_a_second(capsys, ["hh-d", "--vars", "x", "--P",
                                               _power_cochain(1, at, at)])
    assert (code, err) == (0, "")


def test_constant_term_warning_names_the_caller_once(capsys):
    """Each command that reads f warns once of a constant term, naming the
    first frame outside the package (here, this file; in a process, the
    interpreter's entry point), never a generated <string> frame."""
    f = ["--vars", "x,y", "--f", "x^3+y^2+1"]
    argvs = [["milnor", *f], ["jacobian", *f], ["qc-subspace", *f], ["monicize", *f],
             ["qc-normalize", *f, "--p", "x"], ["koszul-lift", *f, "--S", "y*D(1)"]]
    for argv in argvs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(capsys, argv)[0] in (0, 2), argv
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)], argv
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent.parent / "src"))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "ncunfold.cli", "qc-subspace", *f],
                          capture_output=True, env=env, timeout=120, text=True)
    assert (proc.returncode, proc.stdout) == (0, "w_basis: 1, x\n")
    lines = proc.stderr.splitlines()
    assert [line for line in lines if "Warning" in line] == [
        line for line in lines if "UserWarning: f has a nonzero constant term" in line]
    assert len([line for line in lines if "UserWarning" in line]) == 1, proc.stderr
    assert "<string>" not in proc.stderr and "ncunfold" not in lines[0], proc.stderr


def test_monicize_command(capsys):
    code, out, _ = run(
        capsys, ["monicize", "--vars", "x,y", "--f", "x*y", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    ctx2 = RingContext(("x", "y"))
    result = Polynomial.from_json(ctx2, payload["result"])
    assert result == parse_polynomial("x*y + y^3", ctx2)
    assert payload["xn_degree"] == 3


def test_schouten_command(capsys):
    code, out, _ = run(
        capsys,
        ["schouten", "--vars", "x,y", "--X", "x*D(2)", "--Y", "y*D(1)",
         "--format", "json"],
    )
    assert code == 0
    ctx2 = RingContext(("x", "y"))
    got = GElement.from_json(ctx2, json.loads(out)["bracket"])
    assert got == parse_gelement("x*D(1) - y*D(2)", ctx2)


def test_hh_commands(capsys):
    ctx1 = RingContext(("x",))
    from ncunfold.hochschild import PolyDiffOperator, multiplication_cochain

    d = PolyDiffOperator(ctx1, 1, {((1,),): Polynomial.one(ctx1)})
    blob = json.dumps(d.to_json())
    code, out, _ = run(
        capsys, ["hh-cup", "--vars", "x", "--P", blob, "--Q", blob, "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["arity"] == 2

    code, out, _ = run(
        capsys,
        ["hh-bracket", "--vars", "x", "--P", blob, "--Q", blob, "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["terms"] == []  # [D, D] = 0

    mu_blob = json.dumps(multiplication_cochain(ctx1).to_json())
    code, out, _ = run(
        capsys,
        ["hh-brace", "--vars", "x", "--P", mu_blob, "--Qs", f"[{blob}]",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["arity"] == 2

    code, out, _ = run(capsys, ["hh-d", "--vars", "x", "--P", blob, "--format", "json"])
    assert code == 0
    assert json.loads(out)["terms"] == []  # derivations are cocycles


_EMPTY_COCHAIN = '{"arity": 1, "terms": []}'
_ZERO_DENOMINATOR = (
    '{"arity": 1, "terms": [{"alphas": [[1, 0]], '
    '"coeff": {"terms": [{"exp": [0, 0], "num": "1", "den": "0"}]}}]}'
)


def _one_term_cochain(alpha, exp, num="1", den="1"):
    term = {"alphas": [alpha], "coeff": {"terms": [{"exp": exp, "num": num, "den": den}]}}
    return json.dumps({"arity": 1, "terms": [term]})


@pytest.mark.parametrize(
    "argv",
    [
        ["hh-d", "--vars", "x,y", "--P", '{"arity": 1}'],
        ["hh-cup", "--vars", "x,y", "--P", _ZERO_DENOMINATOR, "--Q", '{"arity": 0, "terms": []}'],
        ["hh-bracket", "--vars", "x,y", "--P", '{"arity": 1, "terms": 5}', "--Q", _EMPTY_COCHAIN],
        ["hh-brace", "--vars", "x,y", "--P", _EMPTY_COCHAIN, "--Qs", "5"],
        ["hh-d", "--vars", "x", "--P", '{"arity":1.5,"terms":[]}'],
        ["hh-d", "--vars", "x", "--P", _one_term_cochain([1.5], [0])],
        ["hh-d", "--vars", "x", "--P", _one_term_cochain([-1], [0])],
        ["hh-d", "--vars", "x", "--P", _one_term_cochain([1], [1.5])],
        ["hh-d", "--vars", "x", "--P", _one_term_cochain([1], [1], num=1.5)],
        ["hh-d", "--vars", "x", "--P", _one_term_cochain([1], [1], den=2.9)],
        ["hh-d", "--vars", "x", "--P", _one_term_cochain([1], [1], num=True)],
    ],
    ids=[
        "missing-terms",
        "zero-denominator",
        "terms-not-a-list",
        "qs-not-a-list",
        "fractional-arity",
        "fractional-derivative-order",
        "negative-derivative-order",
        "fractional-exponent",
        "fractional-numerator",
        "fractional-denominator",
        "boolean-numerator",
    ],
)
def test_malformed_cochain_json_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_hkr_command(capsys):
    code, out, _ = run(
        capsys, ["hkr", "--vars", "x,y", "--X", "D(1,2)", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["arity"] == 2


def test_json_determinism(capsys):
    argv = [
        "quantize", "--vars", "x,y,z", "--f", "x^3+y^2+z^2", "--p", "x",
        "--S=-3*x^2*D(2,3)-2*y*D(3,1)-2*z*D(1,2)", "--format", "json",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_text_and_json_agree(capsys):
    base = ["milnor", "--vars", "x,y,z", "--f", "x^3+x*y^3+z^2"]
    _, text_out, _ = run(capsys, base)
    _, json_out, _ = run(capsys, base + ["--format", "json"])
    assert str(json.loads(json_out)["milnor"]) in text_out


def test_degree_guard_exit_3(capsys):
    code, _, err = run(
        capsys,
        ["milnor", "--vars", "x,y,z", "--f", "x^9+y^9+z^9+x*y*z", "--max-degree", "3"],
    )
    assert code == 3


def test_degree_guard_agrees_across_jacobian_commands(capsys):
    """Every command builds the Jacobian basis by one loop, so under one
    guard they abort, or succeed, together."""
    f = "--f=-2*y*z^2 + 3*x*y^2 + z^2 - 2*y*z - 3*x^2"
    payloads = {}
    for command in ("milnor", "jacobian", "qc-subspace"):
        code, out, _ = run(
            capsys, [command, "--vars", "x,y,z", f, "--max-degree", "3", "--format", "json"]
        )
        assert code == 0, command
        payloads[command] = json.loads(out)
    assert payloads["milnor"]["milnor"] == payloads["jacobian"]["milnor"] == 5
    assert payloads["qc-subspace"]["w_basis"] == payloads["jacobian"]["w_basis"]
    assert len(payloads["jacobian"]["w_basis"]) == 5


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, expected stdout or None) for each `unfold` line of the sh
    block after "Examples:" in README, continuation lines joined; the
    expected stdout is a following `# {...}` comment."""
    text = README.read_text()
    block = text[text.index("Examples:"):]
    block = block[block.index("```sh\n") + 6:]
    block = block[:block.index("```")].replace("\\\n", " ")
    examples = []
    for line in block.splitlines():
        if line.startswith("unfold "):
            examples.append([shlex.split(line)[1:], None])
        elif line.startswith("# {") and examples:
            examples[-1][1] = line[2:]
    return examples


def test_readme_cli_examples(capsys):
    examples = _readme_examples()
    assert len(examples) >= 3 and any(want for _, want in examples)
    for argv, want in examples:
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)
        if want is not None:
            assert out.strip() == want, argv


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "cli_corpus.json"


def test_golden_cli_corpus_byte_identical():
    """Every stored argv of the benchmark corpus gives its stored exit code
    and byte-identical stdout (checked by sha256)."""
    cases = json.loads(CORPUS.read_text())["cases"]
    assert len(cases) == 80
    mismatches = []
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(case["argv"]))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (case["exit"], case["stdout_sha256"]):
            mismatches.append((case["argv"], code, case["exit"]))
    assert mismatches == []


def _corpus_outcome(argv):
    """(exit code, sha256 of stdout) of main(argv), stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


FAILED_PARSES = (
    ["milnor", "--vars", "x,y"],  # --f is required
    QUANTIZE_ARGV + ["--order", "0"],  # rejected by the type of --order
    ["no-such-command", "--vars", "x"],
)


def test_golden_corpus_in_any_order_between_failed_parses():
    """The parser is shared by every main call of a process, and a parse
    that fails or prints help leaves nothing behind in it: the corpus argv
    in a seeded shuffled order, each after a usage error and two of them
    after a help request, give their stored exit codes and stdout."""
    cases = json.loads(CORPUS.read_text())["cases"]
    rng = random.Random(13)
    rng.shuffle(cases)
    helps = dict(zip(rng.sample(range(len(cases)), 2), (["--help"], ["quantize", "--help"])))
    mismatches = []
    for i, case in enumerate(cases):
        if i in helps:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
                main(helps[i])
            assert stop.value.code == 0 and out.getvalue().startswith("usage: unfold")
        assert _corpus_outcome(FAILED_PARSES[i % len(FAILED_PARSES)]) == (
            1, hashlib.sha256(b"").hexdigest()
        )
        if _corpus_outcome(case["argv"]) != (case["exit"], case["stdout_sha256"]):
            mismatches.append(case["argv"])
    assert mismatches == []


def test_main_builds_the_parser_once_per_process():
    """In a fresh interpreter, importing the CLI builds no parser, the first
    main call builds the top parser and its 15 subparsers, and two more
    calls build none."""
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from ncunfold import cli
counts = [len(built)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["milnor", "--vars", "x,y", "--f", "x^3+y^2"]) == 0
    counts.append(len(built))
print(counts)
"""
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 16, 16, 16]"


DETERMINISM_COMMANDS = ("quantize", "jacobian", "hh-brace", "hh-d", "schouten", "mc-verify")


def test_cli_stdout_independent_of_hash_seed():
    """Golden argv run in fresh interpreters under PYTHONHASHSEED 0, 1 and 2
    print byte-identical stdout."""
    cases = json.loads(CORPUS.read_text())["cases"]
    src = str(CORPUS.parent.parent / "src")
    argvs = []
    for command in DETERMINISM_COMMANDS:
        argv = next(c["argv"] for c in cases if c["argv"][0] == command and c["exit"] == 0)
        if "--format" not in argv:
            argv = argv + ["--format", "json"]
        argvs.append(argv)
    for argv in argvs:
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "ncunfold.cli", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


def test_quantize_text_reparses_as_mc_verify_input(capsys):
    """The p and S lines that `quantize` prints are `mc-verify` input: a
    later one-term coefficient with a minus sign is joined with `-`, which
    the grammar accepts, and not with `+ -`."""
    datum = ["--vars", "x,y,z", "--f", "x^6 + z^2 + y^2"]
    code, out, _ = run(capsys, ["quantize", *datum, "--p=-x^3",
                                "--S=-2*z^2*D(1,2) + 2*y*z*D(1,3) - 6*x^5*z*D(2,3)"])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["S"].endswith(")*h - 3*x^2*z*D(2,3)*h^2")
    code, out, err = run(capsys, ["mc-verify", *datum, f"--p={lines['p']}", f"--S={lines['S']}"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "ok: True"


def _printing_argvs():
    """One corpus argv for each command that exits 0, plus the branches
    that print on exit 2 (an invalid datum, a nonzero residual and an
    obstructed --general quantization), each without its --format flag."""
    argvs = {}
    for case in json.loads(CORPUS.read_text())["cases"]:
        argv = case["argv"]
        key = (argv[0], case["exit"])
        if case["exit"] == 0 or key in (("qc-check", 2), ("mc-verify", 2)):
            if "--format" in argv:
                i = argv.index("--format")
                argv = argv[:i] + argv[i + 2:]
            argvs.setdefault(key, argv)
    ctx4 = RingContext(("x", "y", "z", "w"))
    f = "x^2+y^2+z^2+w^2"
    s1 = ad_f(parse_polynomial(f, ctx4), parse_gelement("z*D(1,2,3) + z*D(1,2,4)", ctx4))
    argvs[("quantize --general", 2)] = ["quantize", "--vars", "x,y,z,w", "--f", f, "--p", "x*y",
                                        f"--S={s1}", "--general", "--order", "4"]
    return argvs


def test_each_command_builds_only_the_requested_output(capsys, monkeypatch):
    """In text mode no JSON payload is built, and in JSON mode no text:
    counted over the to_json methods and the report, and over the __str__
    methods and the format_* functions."""
    from ncunfold import cli
    from ncunfold.hochschild import PolyDiffOperator
    from ncunfold.poly import Substitution
    from ncunfold.singularity import JacobianData
    from ncunfold.unfolding import MCReport

    calls = {"json": 0, "text": 0}

    def count(owner, name, form):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[form] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for cls in (Polynomial, GElement, PolyDiffOperator, MCSolution, MCReport):
        count(cls, "to_json", "json")
    count(JacobianData, "report", "json")
    for cls in (Polynomial, GElement, PolyDiffOperator, Substitution):
        count(cls, "__str__", "text")
    for name in ("format_gelement", "format_series"):
        count(cli, name, "text")

    argvs = _printing_argvs()
    assert len({command for command, _ in argvs}) == 16  # 15 commands and --general
    built = {"json": 0, "text": 0}
    for (command, exit_code), argv in argvs.items():
        for form, other in (("text", "json"), ("json", "text")):
            calls.update(json=0, text=0)
            code, out, _ = run(capsys, argv + ["--format", form])
            assert (code, out != "") == (exit_code, True), argv
            assert calls[other] == 0, (form, argv)
            built[form] += calls[form]
    assert min(built.values()) > 50
