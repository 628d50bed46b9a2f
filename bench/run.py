"""Run one benchmark workload against the library in ./src.

    python3 bench/run.py --workload ade_quantize --seed 1 --seconds 22 --trace 0

One process, one closed-loop caller, no threads: each operation starts
when the previous one has been checked.  Set-up (a fresh import of
ncunfold, input generation and a warm-up operation) is repeated
SETUP_REPEATS times and its median reported as setup_s.  The timed loop
then runs whole cycles of the workload until --seconds have passed, so
every run sees the same mix of operation shapes.

Times are normalized to host speed (see measure.reference_seconds): a
shared host's speed drifts by tens of percent over seconds.
Each operation's wall time is scaled by NOMINAL_REFERENCE_S over the time
a fixed reference task took next to it, and --seconds is counted in the
same normalized time, so a run holds about as many operations on a slow
stretch as on a fast one (a run of 22 s took 22-31 s of wall time on a
shared 2-core Xeon host).
The raw figures are printed on the `detail` line.

With --trace 0 the end-to-end metrics are reported; with --trace 1 the
first cycle runs once under the span tracer and once untraced, and the
per-layer metrics of the traced pass are reported.  Spans are written to
bench/out/.  Human-readable lines come first; the last line of stdout is
one JSON object {correct, attempted, failed, metrics}.

`failed` counts operations whose result failed its check, that exited
with another code than the documented one, or that raised.  `correct` is
false when an operation returned a wrong result or exit code or raised,
other than the known defects listed in cli_corpus.json, or when the
traced pass gave other outputs than the untraced one.  A known defect
counts as failed without making `correct` false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    for name in [n for n in sys.modules if n == "ncunfold" or n.startswith("ncunfold.")]:
        del sys.modules[name]
    nc = importlib.import_module("ncunfold")
    importlib.import_module("ncunfold.cli")
    if not os.path.abspath(nc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: ncunfold imported from {nc.__file__}, not from {SRC}")
    return nc


class Tally:
    """Outcome counts of the operations run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = []

    def record(self, op_index, error, verdict, known_defect=False):
        self.attempted += 1
        if error is None and verdict is None:
            return True
        self.failed += 1
        self.wrong += not known_defect
        if error is None:
            reason = verdict
        else:
            reason = f"raised {type(error).__name__}: {error}"
        if len(self.reasons) < MAX_REPORTED_FAILURES:
            self.reasons.append(f"op {op_index}: {reason}")
        return False


class Timer:
    """Times operations, raw and normalized to host speed.

    The reference task is timed at start and then after any operation
    that ends REFERENCE_EVERY_S or more after the last timing, so every
    operation has a reference timing just before and just after it.
    """

    def __init__(self):
        self.reference = measure.reference_seconds()
        self.reference_at = time.perf_counter()
        self.references = [self.reference]

    def call(self, workload, op):
        """Run one operation: (output, exception, raw seconds, normalized seconds)."""
        before = self.reference
        start = time.perf_counter()
        try:
            out, error = workload.run(op), None
        except Exception as exc:  # an exception escaping the library is a failed op
            out, error = None, exc
        end = time.perf_counter()
        if end - self.reference_at >= measure.REFERENCE_EVERY_S:
            self.reference = measure.reference_seconds()
            self.reference_at = time.perf_counter()
            self.references.append(self.reference)
        raw = end - start
        return out, error, raw, measure.normalized(raw, before, self.reference)


def verdict_of(workload, op, out, error):
    if error is not None:
        return None
    try:
        return workload.check(op, out)
    except Exception as exc:  # a result the check cannot even read is wrong
        return f"check raised {type(exc).__name__}: {exc}"


def set_up(name, seed):
    """Set up SETUP_REPEATS times; returns the last set-up, why its warm-up
    operation failed (or None), and the raw and normalized seconds of each."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = measure.reference_seconds()
        start = time.perf_counter()
        nc = fresh_import()
        workload = workloads.WORKLOADS[name](nc, seed)
        first = workload.cycle(0)
        try:
            warm = workload.warm_up()
        except Exception as exc:  # counted like a failed operation
            warm = f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        raw.append(took)
        scaled.append(measure.normalized(took, before, measure.reference_seconds()))
    return nc, workload, first, warm, raw, scaled


def timed_run(workload, first, seconds, tally, timer):
    """Run whole cycles until `seconds` of normalized time have passed;
    returns the raw and normalized time of every operation, the verified
    count and the number of cycles."""
    raw, scaled = [], []
    passed = cycles = 0
    elapsed = 0.0
    ops = first
    last = time.perf_counter()
    while True:
        for op in ops:
            out, error, took, took_scaled = timer.call(workload, op)
            raw.append(took)
            scaled.append(took_scaled)
            verdict = verdict_of(workload, op, out, error)
            passed += tally.record(len(raw), error, verdict, workload.known_defect(op))
            now = time.perf_counter()
            elapsed += measure.normalized(now - last, timer.reference, timer.reference)
            last = now
        cycles += 1
        if elapsed >= seconds:
            return raw, scaled, passed, cycles
        ops = workload.cycle(cycles)


def traced_run(nc, workload, ops, tally, timer, path):
    tracer = spans.Tracer()
    tracer.install(nc)
    traced = []
    traced_s = 0.0
    try:
        for i, op in enumerate(ops, start=1):
            tracer.op = i
            tracer.active = True
            out, error, _, took = timer.call(workload, op)
            tracer.active = False
            traced_s += took
            if isinstance(workload, workloads.CliSession) and error is None:
                tracer.counts["cli.stdout_bytes"] += len(out[1].encode())
            verdict = verdict_of(workload, op, out, error)
            tally.record(i, error, verdict, workload.known_defect(op))
            traced.append(None if error is not None else workload.digest(out))
    finally:
        tracer.active = False
        tracer.uninstall()
    plain = []
    plain_s = 0.0
    for op in ops:
        out, error, _, took = timer.call(workload, op)
        plain_s += took
        plain.append(None if error is not None else workload.digest(out))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.write_spans(path)
    return metrics, tracer.hits, traced == plain


def selfcheck(workload, metrics, hits):
    """(item, passed) pairs: every boundary the workload should exercise was
    hit, every layer predicted to stay idle on it got zero calls, and the
    jacobian repeat ratio has the sign the workload was built for."""
    items = [(f"hit {b}", hits[b] > 0) for b in workload.EXERCISES]
    items += [(f"zero {m}", metrics[m] == 0) for m in workload.ZERO]
    ratio = metrics["singularity.jacobian.repeat_ratio"]
    if workload.name == "ade_quantize":
        items.append(("singularity.jacobian.repeat_ratio > 1", ratio > 1))
    if workload.name == "milnor_dense":
        items.append(("singularity.jacobian.repeat_ratio == 1", ratio == 1))
    return items


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    return {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}


def end_to_end(setup, samples, passed):
    tail_value, tail_pct, count = measure.tail(samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": passed / sum(samples),
        "op_ms.p50": 1000 * statistics.median(samples),
        "op_ms.tail": 1000 * tail_value,
    }
    return metrics, tail_pct, count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ncunfold", "__init__.py")):
        print(f"error: no ncunfold package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    units = declared_units()

    nc, workload, first, warm, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    tally = Tally()
    if warm is not None:
        tally.record("warm-up", None, warm)
    timer = Timer()
    print(f"workload {args.workload}, seed {args.seed}, "
          f"python {sys.version.split()[0]}, trace {args.trace}")
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        metrics, hits, same = traced_run(nc, workload, first, tally, timer, path)
        for name, value in metrics.items():
            print(f"  {name:42s} {value:>16.6g} {units[name]}")
        checks = selfcheck(workload, metrics, hits)
        checks.append(("traced outputs identical to untraced", same))
        for item, ok in checks:
            print(f"selfcheck {'PASS' if ok else 'FAIL'} {item}")
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        correct = tally.wrong == 0 and same
    else:
        raw, scaled, passed, cycles = timed_run(workload, first, args.seconds, tally, timer)
        metrics, tail_pct, count = end_to_end(setup_scaled, scaled, passed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw_metrics = end_to_end(setup_raw, raw, passed)[0]
        for name, value in metrics.items():
            print(f"  {name:12s} {value:12.4f} {units[name]}")
        print(f"  op_ms.tail is p{tail_pct:.2f} of {count} samples; "
              f"{cycles} cycles; fail_ratio {tally.failed}/{tally.attempted} "
              f"= {tally.failed / tally.attempted:.4f}")
        detail = {
            "op_ms.tail.percentile": tail_pct,
            "op_ms.tail.samples": count,
            "cycles": cycles,
            "fail_ratio": tally.failed / tally.attempted,
            "raw": raw_metrics,
            "reference_ms.median": 1000 * statistics.median(timer.references),
        }
        print("detail " + json.dumps(detail, sort_keys=True))
        correct = tally.wrong == 0
    for reason in tally.reasons:
        print(f"failed {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
