"""Determinism self-check of the benchmark.

    python3 bench/selfcheck.py --seed 1

Runs the traced benchmark twice at one seed and requires every counter
(units count and ratio) to repeat exactly, then requires a second seed to
give different inputs on every workload.  Exits 0 when both hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTER_UNITS = ("count", "ratio")


def traced_counters(seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scan",
           "--seed", str(seed), "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in COUNTER_UNITS}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    first, second = traced_counters(args.seed), traced_counters(args.seed)
    differing = sorted(k for k in first if first[k] != second.get(k))

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    same_inputs = [w for w in workloads.WORKLOADS
                   if workloads.inputs_digest(workloads.make_ops(w, args.seed))
                   == workloads.inputs_digest(workloads.make_ops(w, args.seed + 1))]
    report = {"seed": args.seed, "counters": len(first),
              "counters_differing": differing,
              "workloads_with_same_inputs_at_next_seed": same_inputs,
              "ok": not differing and not same_inputs}
    print(json.dumps(report, indent=1))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
