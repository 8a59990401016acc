"""fockberezin benchmark: one workload, one process, threads=1.

    python3 bench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from `src/`.

Each workload is a sweep: a fixed number of ops drawn from the seed, run
one at a time in a closed loop (the next op starts when the previous one
returns).  --trace 0 repeats the sweep of the named workload within
--seconds, timing a fixed host-speed reference between ops, and reports
end-to-end metrics from each op's median time rescaled to the reference's
nominal speed (REF_MS), after checking every output against its gate.  The
times as measured are printed beside them.  --trace 1 runs one sweep of
every workload unpatched and one traced, and reports the per-layer metrics
of each workload under its name (`scan.commutativity.u.hit_ratio`); a fixed
sweep makes its counters repeat exactly at one seed.  Spans go to
`.bench_out/`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails when the library raises
(NonConvergenceError or anything else) or when its output fails a gate;
failed ops keep their time and never abort the run.  `correct` is false
when an op fails in a way the seed commit does not (see
workloads.KNOWN_RED).
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import subprocess
import time

import numpy

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
# Host speed.  The shared host's speed drifts by tens of percent over
# seconds to minutes, which moves every wall time of a run together.  A
# fixed reference computation that never touches the library is timed
# between ops all through a run, and every reported time is rescaled to
# the speed at which that reference takes REF_MS.
REF_LOOP = 12_500          # pure-Python loop iterations
REF_NP = 20                # numpy exp-and-sum passes over REF_X
REF_X = numpy.linspace(0.0, 4.0, 1 << 14)
REF_MS = 1.5               # nominal reference time
REF_EVERY_S = 0.05         # op time between two reference timings
REF_WINDOW = 8             # reference timings each side of an op
# Ops that take more than this share of --seconds in the first sweep are
# not repeated, so the cheaper ops of a heavy-tailed sweep (crossval) still
# get several repeats.
REPEAT_MAX_SHARE = 1 / 16


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scan", "crossval", "kernel"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(args):
    """Median over fresh processes that start, import fockberezin and
    generate the workload's inputs, of their wall time rescaled by the
    reference timings made just before and after each (see REF_MS); also
    returns the median wall time as measured."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        refs = [reference_ms() for _ in range(REF_WINDOW // 2)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        refs += [reference_ms() for _ in range(REF_WINDOW // 2)]
        raw.append(dt)
        scaled.append(dt * REF_MS / statistics.median(refs))
    return statistics.median(scaled), statistics.median(raw)


def env_record(args, tables_warm):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": args.seed, "threads": 1,
            "workload": args.workload, "trace": args.trace,
            "moment_tables_warm_at_first_op": tables_warm}


def _op_span(tracer, index, name):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.op = index
    return tracer.span(name)


class Outcome:
    """Attempted / failed accounting over the ops of one sweep."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}     # kind -> count

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        import workloads
        return all(kind == "nonconvergence" or kind in workloads.KNOWN_RED
                   for kind in self.failures)

    def add(self, kind, count=1):
        self.failures[kind] = self.failures.get(kind, 0) + count

    def check(self, workload, ops, records, tracer=None, unstable=()):
        """Gate every op that returned; ops in `unstable` returned different
        results in a repeated sweep.  A tracer records each gate as a span
        of its op."""
        import workloads
        for i, (op, (result, failure, *_)) in enumerate(zip(ops, records)):
            self.attempted += 1
            if failure is None and i in unstable:
                failure = "result differs between sweeps"
            elif failure is None:
                with _op_span(tracer, i, "gate"):
                    failure = workloads.gate(workload, op, result)
            if failure is not None:
                self.add(failure)


def sweep(workload, ops, tracer=None, refs=None, skip=()):
    """Run every op not in `skip` once, in order, from empty moment tables
    (as a fresh process has them); returns {op index: (result, failure,
    seconds, ref index)}.  With a list `refs`, the reference is timed into
    it at the start, after every REF_EVERY_S of op time and at the end; an
    op's ref index is the number of reference timings made before it."""
    import workloads
    from fockberezin import special
    special._TABLES.clear()
    gc.collect()
    records = {}
    clock = time.perf_counter
    since = REF_EVERY_S
    for i, op in enumerate(ops):
        if i in skip:
            continue
        if refs is not None and since >= REF_EVERY_S:
            refs.append(reference_ms())
            since = 0.0
        with _op_span(tracer, i, "op"):
            t0 = clock()
            result, failure = workloads.run_op(workload, op)
            dt = clock() - t0
        since += dt
        records[i] = (result, failure, dt, len(refs or ()))
    if refs is not None:
        refs.append(reference_ms())
    return records


def reference_ms():
    """Wall time of the host-speed reference: a pure-Python loop and a few
    numpy passes, the two kinds of work the library's ops mix."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i
    for k in range(REF_NP):
        numpy.exp(-(1.0 + k) * REF_X).sum()
    return 1e3 * (time.perf_counter() - t0)


def time_metrics(op_s, certified):
    """Throughput and percentiles from per-op times in seconds."""
    op_ms = sorted(1e3 * t for t in op_s)
    return {"ops_per_s": (certified / sum(op_s), "1/s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(op_ms, n=10,
                                               method="inclusive")[8], "ms")}


def run_untraced(args):
    """Repeat the seed's sweep while another one fits in --seconds, timing
    the host-speed reference between ops.  Each run of an op is rescaled by
    the median of the REF_WINDOW reference timings on either side of it,
    and an op's time is the median of its rescaled runs."""
    import workloads
    from fockberezin import special
    ops = workloads.make_ops(args.workload, args.seed)
    setup_s, setup_raw_s = measure_setup(args)
    tables_warm = len(special._TABLES) > 0
    sweeps, refs = [], []
    skip = set()
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sweeps.append(sweep(args.workload, ops, refs=refs, skip=skip))
        last = time.perf_counter() - t0    # the next sweep's length
        if len(sweeps) == 1:
            skip = {i for i, rec in sweeps[0].items()
                    if rec[2] > REPEAT_MAX_SHARE * args.seconds}
            last -= sum(sweeps[0][i][2] for i in skip)
        elapsed = time.perf_counter() - t_start
        if elapsed + last > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = [[rec[i] for rec in sweeps if i in rec] for i in range(len(ops))]
    unstable = {i for i, rs in enumerate(runs)
                if any(r[:2] != rs[0][:2] for r in rs[1:])}
    outcome = Outcome()
    outcome.check(args.workload, ops, [rs[0] for rs in runs],
                  unstable=unstable)
    certified = outcome.attempted - outcome.failed

    def local_ref(k):
        return statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW])

    op_s = [statistics.median(r[2] * REF_MS / local_ref(r[3]) for r in rs)
            for rs in runs]
    raw_s = [statistics.median(r[2] for r in rs) for rs in runs]
    metrics = time_metrics(op_s, certified)
    metrics.update({
        "certified_share": (certified / outcome.attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    })
    raw = {name: value for name, (value, _) in
           time_metrics(raw_s, certified).items()}
    raw["setup_s"] = setup_raw_s
    info = {"sweeps": len(sweeps), "ops_not_repeated": len(skip),
            "loop_s": elapsed, "reference_ms": statistics.median(refs),
            "unscaled": raw, "failures": outcome.failures,
            "failed_share": outcome.failed / outcome.attempted,
            "inputs": workloads.inputs_digest(ops)}
    return outcome, metrics, env_record(args, tables_warm), info


def run_traced(args):
    """One untraced and one traced sweep of every workload."""
    import workloads
    from tracing import Tracer, layer_metrics
    from fockberezin import special
    metrics = {}
    spans = {}
    total = Outcome()
    tables_warm = len(special._TABLES) > 0
    for workload in workloads.WORKLOADS:
        ops = workloads.make_ops(workload, args.seed)
        t0 = time.perf_counter()
        sweep(workload, ops)
        plain_s = time.perf_counter() - t0

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            records = list(sweep(workload, ops, tracer).values())
            traced_s = time.perf_counter() - t0
            outcome = Outcome()
            # the gates are traced too: the crossval reference route
            # (berezin_exp_radial) only runs there
            outcome.check(workload, ops, records, tracer)
        finally:
            tracer.uninstall()
        total.attempted += outcome.attempted
        for kind, count in outcome.failures.items():
            total.add(kind, count)
        layer = layer_metrics(tracer, workload)
        layer["trace.overhead_share"] = (1.0 - plain_s / traced_s, "share")
        for name, value in layer.items():
            metrics[f"{workload}.{name}"] = value
        spans[workload] = tracer.spans
    env = env_record(args, tables_warm)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": spans}, fh, separators=(",", ":"))
    return total, metrics, env, {"spans": os.path.relpath(path, ROOT)}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "fockberezin", "__init__.py")):
        print("error: src/fockberezin not found; run from the root of a "
              "fockberezin checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.setup_probe:
        workloads.make_ops(args.workload, args.seed)
        return 0
    run = run_traced if args.trace else run_untraced
    outcome, metrics, env, info = run(args)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
