"""Run every workload and print its metrics; optionally record a baseline.

    python3 bench/sweep.py [--workloads a,b] [--seeds 1,2,3] [--seconds N]
                           [--traced] [--record bench/baselines/BENCH_<label>.json]

Each (workload, seed) pair is one untraced run of bench/run.py, made one
at a time.  For every end-to-end metric the table shows the value of each
run, their median, and their spread (inter-quartile distance over the
median, with three or more seeds).  Failures are printed as
failed/attempted.  --traced adds one traced run per workload, at the first
seed, and prints its per-layer metrics.  --record writes all of it, with
the Python version, nproc and CPU model, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402
import workloads  # noqa: E402

TIMEOUT_S = 180


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def invoke(workload, seed, seconds, trace, env=None):
    """Run bench/run.py once; returns its stdout lines."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.splitlines()


def run(workload, seed, seconds, trace):
    """(final JSON result, detail line) of one run."""
    lines = invoke(workload, seed, seconds, trace)
    detail = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {})
    return json.loads(lines[-1]), detail


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(name, results, units):
    print(f"\n{name}")
    rows = {}
    for metric, unit in units.items():
        values = [r["metrics"][metric]["value"] for r, _ in results]
        med = statistics.median(values)
        spread = measure.spread(values) if len(values) >= 3 else None
        rows[metric] = {"unit": unit, "values": values, "median": med, "spread": spread}
        shown = " ".join(f"{v:.4g}" for v in values)
        tail = "" if spread is None else f"  spread {spread:.4f}"
        print(f"  {metric:12s} {unit:4s} median {med:12.4f}{tail}   [{shown}]")
    failed = sum(r["failed"] for r, _ in results)
    attempted = sum(r["attempted"] for r, _ in results)
    print(f"  fail_ratio        {failed}/{attempted} = {failed / attempted:.4f}   "
          f"correct: {all(r['correct'] for r, _ in results)}")
    tails = [(d.get("op_ms.tail.percentile"), d.get("op_ms.tail.samples")) for _, d in results]
    print("  op_ms.tail percentile/samples: "
          + ", ".join(f"p{p:.1f}/{n}" for p, n in tails))
    return {
        "end_to_end": rows,
        "failed": failed,
        "attempted": attempted,
        "correct": all(r["correct"] for r, _ in results),
        "runs": [{"result": r, "detail": d} for r, d in results],
    }


def main(argv=None):
    config = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--record")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seeds": seeds,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        results = [run(name, seed, args.seconds, 0) for seed in seeds]
        entry = summarize(name, results, units)
        if args.traced:
            traced, _ = run(name, seeds[0], args.seconds, 1)
            layers = {m: v["value"] for m, v in traced["metrics"].items()}
            entry["per_layer"] = layers
            entry["traced_correct"] = traced["correct"]
            print("  traced, seed", seeds[0])
            for metric, value in layers.items():
                print(f"    {metric:42s} {value:.6g}")
        record["workloads"][name] = entry
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nrecorded {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
