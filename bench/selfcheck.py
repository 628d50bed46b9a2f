"""Self-check of the traced run, under two PYTHONHASHSEED values.

    python3 bench/selfcheck.py [--seed 1]

For every workload the traced run is made twice, once with each hash
seed.  The check passes when every `selfcheck` line of both runs passes
(boundaries hit, predicted-zero layers idle, traced outputs identical to
untraced ones), both runs are correct, and every machine-independent
per-layer count is exactly the same in the two runs.  Exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sweep  # noqa: E402
import workloads  # noqa: E402

HASH_SEEDS = ("1", "2")


def traced(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    lines = sweep.invoke(workload, seed, 1, 1, env)
    return json.loads(lines[-1]), [line for line in lines if line.startswith("selfcheck ")]


def machine_independent(name):
    return not name.endswith(".self_s") and name != "trace.overhead_ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for name in workloads.WORKLOADS:
        runs = [traced(name, args.seed, h) for h in HASH_SEEDS]
        for (result, lines), hash_seed in zip(runs, HASH_SEEDS):
            failing = [line for line in lines if not line.startswith("selfcheck PASS")]
            for line in failing:
                print(f"{name} PYTHONHASHSEED={hash_seed}: {line}")
            if failing or not result["correct"]:
                ok = False
        first, second = (result["metrics"] for result, _ in runs)
        differ = [m for m in first if machine_independent(m)
                  and first[m]["value"] != second[m]["value"]]
        for m in differ:
            print(f"{name}: {m} differs between hash seeds: "
                  f"{first[m]['value']} vs {second[m]['value']}")
        ok = ok and not differ
        counted = sum(1 for m in first if machine_independent(m))
        print(f"{name}: {len(runs[0][1])} selfcheck items, "
              f"{counted} counts compared across PYTHONHASHSEED {' and '.join(HASH_SEEDS)}: "
              f"{'PASS' if not differ else 'FAIL'}")
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
