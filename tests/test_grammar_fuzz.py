"""Grammar fuzz of the `unfold` command line: seeded argv, valid and
broken, for every command, run in process through `cli.main`."""

import contextlib
import io
import json
import random
import re
import time
import warnings

from ncunfold import cli

NAMES = ("x", "y", "z")
# a derivative order or an exponent of 100 or more in cochain JSON
LARGE_ORDER = re.compile(r"(?:\[|, )\d{3,}[,\]]")
STRAY = ["^^", "*", ")", "(", ",", "+ -", "$", "#", "/", "1/0", "²", "٣", "x²", "D(", "^", "é"]


def _exponent(rng, top):
    """Mostly small; else log-uniform up to top."""
    return rng.randint(0, 4) if rng.random() < 0.6 else int(10 ** rng.uniform(0, top))


def _factor(rng, names, graded, series, valid):
    """One factor, now and then raised to a power or inside up to 400
    parentheses.  A fractional constant is raised to at most 10^4: near
    the power budget, arithmetic on its numerator and denominator takes
    seconds (ROADMAP item 2)."""
    x, sign = rng.choice(names), rng.choice("+-")
    other = rng.choice(["1", "2*" + rng.choice(names)])
    pool = [rng.choice(names), rng.choice(names), f"({x} {sign} {other})",
            rng.choice(["2", "0", str(rng.randint(0, 10 ** 6))]), rng.choice(["3/2", "7/3", "1/3"])]
    if graded:
        pool += ["E", "D(" + ",".join(map(str, rng.sample(range(1, len(names) + 1),
                                                          rng.randint(1, len(names))))) + ")"]
    if series:
        pool.append("h")
    if not valid:
        bad_indices = [rng.randint(-1, len(names) + 2) for _ in range(rng.randint(0, 3))]
        pool += [rng.choice(["w", "q1", "X", "_a"]), "E", "h",
                 "D(" + ",".join(map(str, bad_indices)) + ")"]
    if (graded or not valid) and rng.random() < 0.08:
        return f"(1+E)^{rng.randint(0, 2000)}"
    base = rng.choice(pool)
    if rng.random() < 0.03:
        depth = int(10 ** rng.uniform(0, 2.6))  # on both sides of parsing.MAX_NESTING
        return "(" * depth + base + ")" * depth
    if rng.random() < 0.35:
        return f"{base}^{_exponent(rng, 4 if '/' in base else 6)}"
    return base


def _expr(rng, names, graded=False, series=False):
    """A sum of products; a broken one may hold an undeclared name, a bad
    D(...) or a stray symbol."""
    valid = rng.random() < 0.6
    terms = ["*".join(_factor(rng, names, graded, series, valid) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    text = terms[0] + "".join(rng.choice([" + ", " - "]) + t for t in terms[1:])
    if not valid and rng.random() < 0.5:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(STRAY) + text[i:]
    return text


def _cochain(rng, n, wide=False, large=0, long=False):
    """Cochain JSON of arity 0-2, now and then with a key dropped, a value
    of the wrong type or the text cut, or nested up to 10^4 deep.  A wide
    one (for hh-d) now and then has arity up to 2,000, with derivative
    orders 0 so that its output stays small.  A long one (for hh-cup) has
    arity up to 1,000 and up to 100 terms, with derivative orders up to 2,
    so that its keys are long.  Given large, it has arity 1 or 2, and each
    derivative order and exponent is 0 or, twice as often, large."""
    if rng.random() < 0.05:
        depth = int(10 ** rng.uniform(0, 4))
        opener, closer = rng.choice([("[", "]"), ('{"terms": ', "}")])
        return opener * depth + ("0" + closer * depth if rng.random() < 0.5 else "")
    arity = int(10 ** rng.uniform(0, 3.3)) if wide and rng.random() < 0.2 else rng.randint(0, 2)
    top = 2 if arity <= 2 else 0
    count = rng.randint(0, 2)
    if long:
        arity, count, top = rng.randint(1, 1000), rng.randint(1, 100), 2
    order, exponent = (lambda: rng.randint(0, top)), (lambda: rng.randint(0, 3))
    if large:
        arity = rng.randint(1, 2)
        order = exponent = lambda: rng.choice([0, large, large])
    terms = [{"coeff": {"terms": [{"exp": [exponent() for _ in range(n)],
                                   "num": str(rng.randint(-5, 5)), "den": str(rng.randint(1, 3))}]},
              "alphas": [[order() for _ in range(n)] for _ in range(arity)]}
             for _ in range(count)]
    data = {"arity": arity, "terms": terms}
    roll = rng.random()
    if roll < 0.1:
        del data[rng.choice(["arity", "terms"])]
    elif roll < 0.2 and terms:
        term = terms[0]["coeff"]["terms"][0]
        term[rng.choice(["exp", "num", "den"])] = rng.choice([1.5, -1, "a", None, [1], True, "0"])
    elif roll < 0.25:
        data["arity"] = rng.choice([1.5, -1, "2", 3])
    elif roll < 0.3 and terms:
        terms[0]["alphas"] = rng.choice([[[1.5] * n], [[-1] * n], [[0] * (n + 1)], 5, [[]]])
    text = json.dumps(data)
    if rng.random() < 0.1:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(["}", "{", ",", "]", "x", '"']) + text[i:]
    return text


def _argv(rng):
    command = rng.choice(sorted(cli._COMMANDS))
    n = rng.randint(1, 3)
    names = NAMES[:n]
    argv = [command, "--vars", ",".join(names) + (rng.choice([",w", ",x", ",,"])
                                                   if rng.random() < 0.05 else "")]
    series = command == "mc-verify"
    # a quarter of the hh-* commands take cochains of one large order, from
    # 100 to 2,000: on both sides of cli.COCHAIN_ORDER_LIMIT and, in
    # products, of cli.WORK_BUDGET
    large = int(10 ** rng.uniform(2, 3.3)) if rng.random() < 0.25 else 0
    # a quarter of the other hh-cup draws take two long cochains, whose cup
    # builds up to 10^4 keys of up to 2,000 alphas
    long = command == "hh-cup" and not large and rng.random() < 0.25
    big_order = False
    for flag in cli._COMMANDS[command][1].split():
        if flag == "--f":
            argv += [flag, _expr(rng, names)]
        elif flag == "--p":
            argv += [flag, _expr(rng, names, series=series)]
        elif flag in ("--S", "--X", "--Y") or (flag == "--T" and rng.random() < 0.5):
            argv += [flag, _expr(rng, names, graded=True, series=series)]
        elif flag in ("--P", "--Q"):
            argv += [flag, _cochain(rng, n, wide=command == "hh-d", large=large, long=long)]
        elif flag == "--Qs":
            cochains = [_cochain(rng, n, large=large) for _ in range(rng.randint(0, 2))]
            argv += [flag, "[" + ", ".join(cochains) + "]"]
        elif flag == "--general" and rng.random() < 0.5:
            argv.append(flag)
        elif flag == "--order" and rng.random() < 0.5:
            # a large order comes with JSON output, which lists every order
            big_order = rng.random() < 0.5
            argv += [flag, str(int(10 ** rng.uniform(0, 6))) if big_order
                     else rng.choice(["1", "3", "8", "0", "-2", "x"])]
        elif flag == "--monomial-order" and rng.random() < 0.3:
            argv += [flag, rng.choice(["lex", "grevlex", "deglex"])]
        elif flag == "--max-degree" and rng.random() < 0.2:
            argv += [flag, rng.choice(["3", "8", "64", "x"])]
    if big_order:
        argv += ["--format", "json"]
    elif rng.random() < 0.3:
        argv += ["--format", rng.choice(["json", "text"])]
    return argv


def test_every_drawn_argv_exits_with_a_documented_code_at_once():
    """800 seeded argv over all 15 commands: fractions, undeclared names,
    E, h and D(...) with bad indices, powers from 0 to 10^6 and (1+E)^k up
    to k = 2000, parentheses up to 400 deep, stray symbols, non-ASCII
    digits, valid and malformed cochain JSON, nested up to 10^4 deep, of
    arity up to 2,000, of arity up to 1,000 with up to 100 terms, or with
    derivative orders and exponents up to 2,000, and --order up to 10^6
    with JSON output.  Each exits 0, 1, 2 or 3, with no traceback, in under
    2 s; E powers past --max-degree are refused before they are expanded,
    cochains past cli.COCHAIN_ORDER_LIMIT on reading, and JSON orders
    (charged before any series is parsed) and cochain work at the first
    step charged past cli.WORK_BUDGET."""
    rng = random.Random(2026)
    codes, commands = set(), set()
    large_orders = {"refused": 0, "passed": 0}
    large_cochains = {"refused": 0, "passed": 0}
    for _ in range(800):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the CLI prints it; not checked here
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
        assert elapsed < 2.0, (elapsed, argv)
        codes.add(code)
        commands.add(argv[0])
        order = argv[argv.index("--order") + 1] if "--order" in argv else ""
        if order.isdigit() and int(order) > 100 and argv[-2:] == ["--format", "json"]:
            if f" may take {int(order)} or more steps" in err.getvalue():
                assert code == 3 and int(order) > cli.WORK_BUDGET, argv
                large_orders["refused"] += 1
            else:
                large_orders["passed"] += 1
        refused = "or more steps" in err.getvalue() or "derivative order or exponent" in err.getvalue()
        assert code == 3 or not refused, argv
        if argv[0].startswith("hh-") and LARGE_ORDER.search(" ".join(argv[3:])):
            if refused:
                large_cochains["refused"] += 1
            elif code == 0:
                large_cochains["passed"] += 1
    assert codes == {0, 1, 2, 3} and commands == set(cli._COMMANDS)
    assert min(large_orders.values()) >= 3, large_orders
    assert min(large_cochains.values()) >= 3, large_cochains
