"""The package at import: the modules it loads, the code it generates, and
the names it exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name `import ncunfold` gives
PUBLIC = [
    "BudgetExceeded", "ContextMismatch", "DegreeGuardExceeded", "EXACT", "GElement", "GREVLEX",
    "GroebnerBasis", "HSeries", "INFINITE", "JacobianData", "LEX", "MCReport", "MCSolution",
    "ModuleElement", "ModuleGroebnerBasis", "MonomialOrder", "NotACycle", "NotIsolated",
    "ObstructionReport", "ParseError", "PolyDiffOperator", "Polynomial", "QCInvalid",
    "QCViolation", "QuasiClassicalDatum", "ReductionTrace", "RingContext", "Singularity",
    "Substitution", "UnfoldError", "ad_f", "ade_catalog", "bivector_square", "brace",
    "buchberger", "cup", "format_gelement", "format_series", "g_differential",
    "gerstenhaber_bracket", "hkr", "hochschild_differential", "ideal_membership",
    "identity_cochain", "is_isolated", "jacobian", "koszul_lift", "mc_residual", "mc_verify",
    "milnor_number", "module_buchberger", "module_normal_form", "module_preimage", "monicize",
    "multiplication_cochain", "normal_form", "parse_gelement", "parse_poly_series",
    "parse_polynomial", "parse_series", "qc_normalize", "qc_subspace", "qc_validate",
    "quantize_general", "quantize_n3", "quotient_dimension", "schouten_bracket",
    "standard_monomials",
]

# The standard modules the package imports are loaded first, so the audit
# hook sees only what importing the package itself compiles.
SCRIPT = """
import argparse, fractions, functools, heapq, itertools, json, math, operator, os, re, sys
import types, warnings
generated = []

def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        generated.append(args[0] if isinstance(args[0], str) else repr(args[0]))

sys.addaudithook(hook)
import ncunfold, ncunfold.cli
from ncunfold.poly import product_kernel
print(json.dumps({
    "dataclasses": "dataclasses" in sys.modules,
    "generated": generated,
    "kernels": product_kernel.cache_info().currsize,
    "names": sorted(n for n, v in vars(ncunfold).items()
                    if not n.startswith("_") and not isinstance(v, types.ModuleType)),
}))
"""


def test_import_generates_no_code_and_exports_every_public_name():
    """A fresh `import ncunfold, ncunfold.cli` loads no dataclasses, compiles
    no generated source (a dataclass decoration compiles several
    functions each), builds no product kernel (each is built on its first
    use), and exports every public name."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, env=env,
                          timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"dataclasses": False, "generated": [], "kernels": 0, "names": sorted(PUBLIC)}
