"""Build bench/cli_corpus.json, the golden argv corpus of cli_session.

    python3 bench/cli_corpus.py

Each case has a stratum (one argv family), an argv, the documented exit
code it must produce and the sha256 of its stdout.  The cli_session
workload runs every case once per cycle.  Digests are taken
from the library at the time the corpus is built; a case whose exit code
differs from the documented one is only accepted when it is listed as a
known defect, and its expected stdout is then empty, as for every usage
error.  Rebuild the corpus only when the CLI output contract changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ncunfold as nc  # noqa: E402
from ncunfold import cli  # noqa: E402
from ncunfold.singularity import ADE_CONTEXT  # noqa: E402

from workloads import CORPUS, rand_poly, sha256  # noqa: E402

CTX3 = ADE_CONTEXT
CTX4 = nc.RingContext(("x", "y", "z", "w"))
ADE = dict(nc.ade_catalog())

# Malformed cochain JSON escapes cli.main as a raw exception; its documented
# outcome is a usage error (exit 1) with nothing on stdout.
KNOWN_DEFECTS = {
    "hh-d missing terms": "KeyError escapes cli.main",
    "hh-cup zero denominator": "ZeroDivisionError escapes cli.main",
    "hh-bracket terms not a list": "TypeError escapes cli.main",
}


def dense_text(rng, names, degree):
    terms = []
    for exps in monomials(len(names), 2, degree):
        c = rng.randint(-9, 9)
        if c:
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e
            )
            terms.append(f"{c}*{mono}")
    return " + ".join(terms).replace("+ -", "- ")


def monomials(n, lo, hi):
    out = []

    def walk(prefix, left):
        if len(prefix) == n - 1:
            out.append(tuple(prefix) + (left,))
            return
        for e in range(left, -1, -1):
            walk(prefix + [e], left - e)

    for total in range(lo, hi + 1):
        walk([], total)
    return out


def trivector(rng):
    return nc.GElement(CTX3, {(0, 0b111): rand_poly(rng, CTX3, nc.Polynomial, 2, 3)})


def w_poly(rng, f):
    return nc.Polynomial(
        CTX3, {e: Fraction(rng.randint(-3, 3)) for e in nc.qc_subspace(f)}
    )


def cochain(rng, ctx, arity, order):
    terms = {}
    for _ in range(2):
        alphas = tuple(
            tuple(rng.randint(0, order) for _ in range(ctx.n)) for _ in range(arity)
        )
        terms[alphas] = rand_poly(rng, ctx, nc.Polynomial, 2, 2)
    return json.dumps(nc.PolyDiffOperator(ctx, arity, terms).to_json())


def joined(argv):
    """Write an option value that starts with '-' as --opt=value, which is
    the only form in which argparse accepts it."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def cases():
    rng = random.Random("cli-corpus")
    out = []

    def add(stratum, argv, exit_code=0, label=None):
        out.append({"stratum": stratum, "argv": joined(argv), "exit": exit_code, "label": label})

    xyz, xyzw = ["--vars", "x,y,z"], ["--vars", "x,y,z,w"]
    for _ in range(4):
        add("milnor", ["milnor", *xyz, "--f", dense_text(rng, "xyz", 3), "--format", "json"])
    for power in ("(x+y+z+w)^10", "(x+y+z+w)^9 + x^10", "(x-y+z+2*w)^9", "(x+y+z+w)^8 + y^9"):
        add("jacobian", ["jacobian", *xyzw, "--f", power])
    for name in ("D4", "E6", "E7", "E8"):
        add("qc-subspace", ["qc-subspace", *xyz, "--f", str(ADE[name]), "--format", "json"])
    for f in ("x*y*z + x^3 + y^4", "x^2*y + y^3*z + x*z^2", "x*y + x*z^3 + y^2*z^2", "x^3*y + y^2*z + x*z"):
        add("monicize", ["monicize", *xyz, "--f", f, "--format", "json"])
    for _ in range(4):
        x = nc.GElement(CTX4, {(0, m): rand_poly(rng, CTX4, nc.Polynomial, 3, 3) for m in (3, 12)})
        y = nc.GElement(CTX4, {(0, m): rand_poly(rng, CTX4, nc.Polynomial, 3, 3) for m in (1, 6)})
        add("schouten", ["schouten", *xyzw, "--X", str(x), "--Y", str(y)])
    for name in ("A3", "D4", "E7", "E8"):
        f = ADE[name]
        s = nc.ad_f(f, trivector(rng))
        add("koszul-lift", ["koszul-lift", *xyz, "--f", str(f), "--S", str(s), "--format", "json"])
    for name in ("A2", "A5", "E6", "E8"):
        f = ADE[name]
        s = nc.ad_f(f, trivector(rng))
        add("qc-check", ["qc-check", *xyz, "--f", str(f), "--p", str(w_poly(rng, f)), "--S", str(s), "--format", "json"])
    for name in ("A4", "D4", "E6", "E7"):
        f = ADE[name]
        add("qc-normalize", ["qc-normalize", *xyz, "--f", str(f), "--p", str(rand_poly(rng, CTX3, nc.Polynomial, 4, 4))])
    solutions = []
    for name in ("A1", "A6", "D4", "E7"):
        f = ADE[name]
        p, s = w_poly(rng, f), nc.ad_f(f, trivector(rng))
        solutions.append((f, nc.quantize_n3(f, p, s)))
        add("quantize", ["quantize", *xyz, "--f", str(f), "--p", str(p), "--S", str(s), "--format", "json"])
    for name, order in (("A2", 96), ("A3", 160), ("A1", 224), ("A4", 256)):
        f = ADE[name]
        p, s = w_poly(rng, f), nc.ad_f(f, trivector(rng))
        add("quantize-general", ["quantize", *xyz, "--f", str(f), "--p", str(p), "--S", str(s), "--general", "--order", str(order)])
    for f, sol in solutions:
        add("mc-verify", ["mc-verify", *xyz, "--f", str(f), "--order", "4",
                          "--p", nc.format_series(sol.p_series), "--S", nc.format_series(sol.s_series),
                          "--T", nc.format_series(sol.witness)])
    ctx2 = nc.RingContext(("x", "y"))
    for ctx, names in ((ctx2, "x,y"), (CTX3, "x,y,z"), (ctx2, "x,y"), (CTX3, "x,y,z")):
        v = ["--vars", names]
        add("hh-cup", ["hh-cup", *v, "--P", cochain(rng, ctx, 2, 2), "--Q", cochain(rng, ctx, 1, 2), "--format", "json"])
        add("hh-brace", ["hh-brace", *v, "--P", cochain(rng, ctx, 3, 1),
                         "--Qs", "[" + cochain(rng, ctx, 2, 1) + ", " + cochain(rng, ctx, 1, 1) + "]", "--format", "json"])
        add("hh-bracket", ["hh-bracket", *v, "--P", cochain(rng, ctx, 2, 2), "--Q", cochain(rng, ctx, 2, 1)])
        add("hh-d", ["hh-d", *v, "--P", cochain(rng, ctx, 2, 2), "--format", "json"])
    for mask in (3, 5, 6, 7):
        x = nc.GElement(CTX3, {(0, mask): rand_poly(rng, CTX3, nc.Polynomial, 3, 3)})
        add("hkr", ["hkr", *xyz, "--X", str(x), "--format", "json"])
    add("usage-error", ["milnor", *xyz, "--f", "x^"], 1)
    add("usage-error", ["jacobian", *xyz, "--f", "x^2 + q^3"], 1)
    add("usage-error", ["hh-cup", "--vars", "x,y", "--P", "{not json", "--Q", "{}"], 1)
    add("usage-error", ["schouten", *xyz, "--X", "D(1,1)", "--Y", "x"], 1)
    add("validation-error", ["qc-subspace", *xyz, "--f", "x^2 + y^2"], 2)
    add("validation-error", ["koszul-lift", *xyz, "--f", str(ADE["E6"]), "--S", "x*D(1,2)"], 2)
    add("validation-error", ["qc-check", *xyz, "--f", str(ADE["D4"]), "--p", "x", "--S", "x*D(1,2) + y*D(2,3)"], 2)
    add("validation-error", ["mc-verify", *xyz, "--f", str(ADE["A2"]), "--p", "x*h", "--S", "y*D(1,2)*h"], 2)
    add("degree-abort", ["milnor", *xyz, "--f", dense_text(rng, "xyz", 4), "--max-degree", "5"], 3)
    add("degree-abort", ["jacobian", *xyz, "--f", str(ADE["E8"]), "--max-degree", "3"], 3)
    add("degree-abort", ["qc-subspace", *xyz, "--f", dense_text(rng, "xyz", 4), "--max-degree", "4"], 3)
    add("degree-abort", ["koszul-lift", *xyz, "--f", str(ADE["E7"]), "--S", str(nc.ad_f(ADE["E7"], trivector(rng))), "--max-degree", "2"], 3)
    add("degree-abort", ["milnor", *xyz, "--f", str(ADE["A3"]), "--max-degree", "-1"], 3)
    add("known-defect", ["hh-d", "--vars", "x,y", "--P", '{"arity": 1}'], 1, "hh-d missing terms")
    add("known-defect", ["hh-cup", "--vars", "x,y", "--P",
                         '{"arity": 1, "terms": [{"alphas": [[1, 0]], "coeff": {"terms": [{"exp": [0, 0], "num": "1", "den": "0"}]}}]}',
                         "--Q", '{"arity": 0, "terms": []}'], 1, "hh-cup zero denominator")
    add("known-defect", ["hh-bracket", "--vars", "x,y", "--P", '{"arity": 1, "terms": 5}', "--Q", '{"arity": 1, "terms": []}'],
        1, "hh-bracket terms not a list")
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a known defect: the exception escapes main
            return f"raised {type(exc).__name__}", ""
    return code, out.getvalue()


def main():
    entries = []
    for case in cases():
        code, stdout = run(case["argv"])
        label = case.pop("label")
        if label is not None:
            if code == case["exit"]:
                raise SystemExit(f"known defect {label!r} no longer reproduces")
            case["known_defect"] = KNOWN_DEFECTS[label]
            stdout = ""
        elif code != case["exit"]:
            raise SystemExit(f"{case['argv'][:1]} exited {code}, expected {case['exit']}")
        case["stdout_sha256"] = sha256(stdout)
        entries.append(case)
    with open(CORPUS, "w") as fh:
        json.dump({"cases": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} cases to {CORPUS}")


if __name__ == "__main__":
    main()
