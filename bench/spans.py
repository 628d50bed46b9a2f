"""Instrumentation for the traced run, installed from outside the library.

`Tracer.install` rebinds every public function of the eight layer modules,
plus a few hot class methods, at every `ncunfold` module that holds a
reference to it, so calls between modules and inside one module both pass
through a wrapper.  Each wrapped call records a span (name, start, end,
parent span, operation id) in memory; counting hooks record the
machine-independent work counts named in BENCHMARK.json.  Hook time is
recorded as a span of the pseudo-layer "trace", so it is subtracted from
the enclosing span's self time and charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import measure

LAYERS = (
    "poly",
    "groebner",
    "polyvector",
    "singularity",
    "unfolding",
    "hochschild",
    "parsing",
    "cli",
)

# Per-term helpers run millions of times per operation; a span around each
# would measure the tracer, so their time stays with the calling layer.
LEAF_HELPERS = frozenset(
    {
        "monomial_mul",
        "monomial_divides",
        "monomial_div",
        "monomial_lcm",
        "monomial_degree",
        "grevlex_key",
        "lex_key",
        "bits_of",
        "mask_of",
    }
)

# Class methods wrapped besides the module-level functions.  An alias
# such as `__rmul__ = __mul__` is the same function and shares one wrapper.
METHODS = {
    "poly": (("Polynomial", ("__mul__", "__rmul__")), ("HSeries", ("convolve",))),
    "polyvector": (("GElement", ("__mul__", "__rmul__")),),
}

HOOK_SPAN = ("trace", "hook")


def poly_key(p):
    return tuple(sorted(p.terms.items()))


def gelement_key(x):
    return tuple(sorted((k, poly_key(c)) for k, c in x.terms.items()))


def coeff_bits(polys):
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for p in polys
            for c in p.terms.values()
        ),
        default=0,
    )


def series_terms(value):
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return sum(len(c.terms) for c in coeffs)
    return len(value.terms)


class Tracer:
    def __init__(self):
        self.names = [HOOK_SPAN]
        # spans as parallel arrays: name id, start, end, parent index, op id
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("I")
        self.hits = Counter()
        self.raised = Counter()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.maxima = Counter()
        self.signatures = {}
        self.op = 0
        self.active = False
        self._stack = []
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self, package):
        prefix = package.__name__
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in LEAF_HELPERS
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
            for cls_name, methods in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    if id(fn) not in wrappers:
                        label = f"{cls_name}.{meth}"
                        wrappers[id(fn)] = (fn, self._wrap(layer, label, fn))
                    self._rebind(cls, meth, wrappers[id(fn)][1])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(mod, attr, entry[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def bind(self, name, args, kwargs):
        """All arguments of a call to the wrapped function `name`, by name."""
        bound = self.signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _wrap(self, layer, name, fn):
        name_id = len(self.names)
        self.names.append((layer, name))
        self.signatures[name] = inspect.signature(fn)
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(starts)
            names.append(name_id)
            parents.append(parent)
            ops.append(tracer.op)
            stack.append(index)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                tracer.hits[name] += 1
            if post is not None:
                post(tracer, args, kwargs, result)
                names.append(0)
                parents.append(parent)
                ops.append(tracer.op)
                starts.append(end)
                ends.append(clock())
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        layer_self = Counter()
        own = measure.self_times(self.span_start, self.span_end, self.span_parent)
        for name_id, seconds in zip(self.span_name, own):
            layer_self[self.names[name_id][0]] += seconds
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update(
            {
                "poly.mul.calls": c["poly.mul.calls"],
                "poly.mul.term_products": c["poly.mul.term_products"],
                "poly.convolve.op_calls": c["poly.convolve.op_calls"],
                "poly.convolve.useful_ratio": ratio(
                    c["poly.convolve.useful"], c["poly.convolve.op_calls"]
                ),
                "groebner.buchberger.calls": self.hits["buchberger"],
                "groebner.module_buchberger.calls": self.hits["module_buchberger"],
                "groebner.normal_form.calls": self.hits["normal_form"]
                + self.hits["module_normal_form"],
                "groebner.module_preimage.calls": self.hits["module_preimage"],
                "groebner.basis_size.max": self.maxima["groebner.basis_size"],
                "groebner.coeff_bits.max": self.maxima["groebner.coeff_bits"],
                "groebner.module_buchberger.repeat_ratio": ratio(
                    self.hits["module_buchberger"],
                    len(self.distinct["module_buchberger"]),
                ),
                "polyvector.bracket.calls": self.hits["schouten_bracket"],
                "polyvector.bracket.term_pairs": c["polyvector.bracket.term_pairs"],
                "polyvector.bracket.repeat_ratio": ratio(
                    self.hits["schouten_bracket"],
                    len(self.distinct["schouten_bracket"]),
                ),
                "polyvector.wedge.calls": c["polyvector.wedge.calls"],
                "singularity.jacobian.calls": self.hits["jacobian"],
                "singularity.jacobian.repeat_ratio": ratio(
                    self.hits["jacobian"], len(self.distinct["jacobian"])
                ),
                "unfolding.koszul_lift.calls": self.hits["koszul_lift"],
                "unfolding.qc_validate.calls": self.hits["qc_validate"],
                "unfolding.mc_verify.calls": self.hits["mc_verify"],
                "hochschild.brace.calls": self.hits["brace"],
                "hochschild.brace.out_terms": c["hochschild.brace.out_terms"],
                "hochschild.differential.calls": self.hits["hochschild_differential"],
                "parsing.calls": c["parsing.calls"],
                "parsing.input_chars": c["parsing.input_chars"],
                "parsing.out_terms": c["parsing.out_terms"],
                "cli.main.calls": self.hits["main"],
                "cli.stdout_bytes": c["cli.stdout_bytes"],
                "cli.uncaught": self.raised["main"],
            }
        )
        return out

    def write_spans(self, path):
        """Write the spans as gzipped TSV: layer, name, start, end, parent, op."""
        with gzip.open(path, "wt") as out:
            out.write("layer\tname\tstart\tend\tparent\top\n")
            for name_id, start, end, parent, op in zip(
                self.span_name,
                self.span_start,
                self.span_end,
                self.span_parent,
                self.span_op,
            ):
                layer, name = self.names[name_id]
                out.write(f"{layer}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


# -- counting hooks -----------------------------------------------------------


def _argument(fn_args, kwargs, index, name):
    return fn_args[index] if len(fn_args) > index else kwargs[name]


def _convolve_pre(tracer, args, kwargs):
    counts = tracer.counts

    def counted(op):
        def op_call(a, b):
            counts["poly.convolve.op_calls"] += 1
            if not a.is_zero() and not b.is_zero():
                counts["poly.convolve.useful"] += 1
            return op(a, b)

        return op_call

    if len(args) > 2:
        args = args[:2] + (counted(args[2]),) + args[3:]
    else:
        kwargs = dict(kwargs, op=counted(kwargs["op"]))
    return args, kwargs


def _mul_post(tracer, args, kwargs, result):
    if result is NotImplemented:
        return
    other = args[1]
    tracer.counts["poly.mul.calls"] += 1
    tracer.counts["poly.mul.term_products"] += len(args[0].terms) * len(
        getattr(other, "terms", (None,))
    )


def _wedge_post(tracer, args, kwargs, result):
    if result is not NotImplemented:
        tracer.counts["polyvector.wedge.calls"] += 1


def _basis_post(tracer, polys):
    tracer.maxima["groebner.basis_size"] = max(
        tracer.maxima["groebner.basis_size"], len(polys)
    )
    tracer.maxima["groebner.coeff_bits"] = max(
        tracer.maxima["groebner.coeff_bits"], coeff_bits(polys)
    )


def _buchberger_post(tracer, args, kwargs, result):
    _basis_post(tracer, list(result.generators))


def _module_buchberger_post(tracer, args, kwargs, result):
    call = tracer.bind("module_buchberger", args, kwargs)
    key = (
        tuple(tuple(poly_key(c) for c in g.components) for g in call["gens"]),
        call["order"].kind,
        call["max_degree"],
    )
    tracer.distinct["module_buchberger"].add(key)
    _basis_post(tracer, [c for g in result.generators for c in g.components])


def _bracket_post(tracer, args, kwargs, result):
    x = _argument(args, kwargs, 0, "x")
    y = _argument(args, kwargs, 1, "y")
    tracer.counts["polyvector.bracket.term_pairs"] += len(x.terms) * len(y.terms)
    tracer.distinct["schouten_bracket"].add(
        (x.ctx.names, gelement_key(x), gelement_key(y))
    )


def _jacobian_post(tracer, args, kwargs, result):
    call = tracer.bind("jacobian", args, kwargs)
    f = call["f"]
    key = (f.ctx.names, poly_key(f), call["order"].kind, call["max_degree"])
    tracer.distinct["jacobian"].add(key)


def _brace_post(tracer, args, kwargs, result):
    tracer.counts["hochschild.brace.out_terms"] += len(result.terms)


def _parse_post(tracer, args, kwargs, result):
    tracer.counts["parsing.calls"] += 1
    tracer.counts["parsing.input_chars"] += len(_argument(args, kwargs, 0, "text"))
    tracer.counts["parsing.out_terms"] += series_terms(result)


PRE_HOOKS = {"HSeries.convolve": _convolve_pre}
POST_HOOKS = {
    "Polynomial.__mul__": _mul_post,
    "GElement.__mul__": _wedge_post,
    "buchberger": _buchberger_post,
    "module_buchberger": _module_buchberger_post,
    "schouten_bracket": _bracket_post,
    "jacobian": _jacobian_post,
    "brace": _brace_post,
    "parse_polynomial": _parse_post,
    "parse_gelement": _parse_post,
    "parse_series": _parse_post,
    "parse_poly_series": _parse_post,
}
