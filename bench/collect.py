"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads scan,crossval,kernel --seeds 1-10 \
        --out bench/baseline.json

Runs one `bench/run.py` process at a time from the current directory (the
root of a checkout).  For every workload and end-to-end metric it reports
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median, next to the bound from BENCHMARK.json.  With
--out it also records the per-layer metrics of one traced run at the first
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    info = next((json.loads(ln[5:]) for ln in lines if ln.startswith("info ")), {})
    return json.loads(lines[-1]), info


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="scan,crossval,kernel")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--out")
    p.add_argument("--label", help="what was measured, e.g. a commit id")
    args = p.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs, infos = [], []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            result, info = run_once(workload, seed, seconds)
            wall = time.perf_counter() - t0
            runs.append(result)
            infos.append(info)
            print(f"{workload} seed={seed} wall={wall:.1f}s "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failures={info.get('failures')}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds.get(name)
            metrics[name] = s
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  WIDE"
            print(f"  {name:16s} median={s['median']:.6g} {s['unit']:6s} "
                  f"spread={s['spread']:.3f} bound={s['bound']}{flag} "
                  f"values={' '.join(f'{v:.4g}' for v in s['values'])}",
                  flush=True)
        summary[workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "sweeps": [i.get("sweeps") for i in infos],
            "reference_ms": [i.get("reference_ms") for i in infos],
            "unscaled": [i.get("unscaled") for i in infos],
            "metrics": metrics,
        }
    if args.out:
        import platform
        import numpy
        seed = parse_seeds(args.seeds)[0]
        traced, _ = run_once(args.workloads.split(",")[0], seed, seconds, trace=1)
        record = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
                  "per_layer_at_first_seed": traced["metrics"],
                  "env": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": numpy.__version__, "threads": 1},
                  "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
