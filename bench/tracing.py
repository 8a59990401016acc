"""Spans and work counters for the traced run.

The tracer wraps module-level names of the library at the sites that call
them (for example `fockberezin.commutativity.log_series_grid`, which is how
the 1/S node cache reaches the grid summation) and `UCache.u`.  Nothing is
wrapped unless `Tracer.install` runs, so untraced runs execute the library
unchanged.

A span is (name, start, end, parent, op).  Counts are taken from return
values (`truncation_terms`, `evaluations`, `n_terms`, and the `evals` and
`converged` values of `integrate_radial_log`) or from argument sizes where
the layer returns no count.  Self time is a span's duration minus the part
covered by its direct children; calls are sequential (threads=1), so the
children never overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from fockberezin import berezin, commutativity, scan, special
from fockberezin.errors import NonConvergenceError


def _size(x):
    return int(getattr(x, "size", 1))


def _count_kernel_series(c, args, res):
    c["terms"] += res.truncation_terms


def _count_grid(c, args, res):
    c["nodes"] += _size(args[1])


def _count_inv_kernel_grid(c, args, res):
    _count_grid(c, args, res)
    c["inv_kernel_nodes_computed"] += _size(args[1])


def _count_berezin_general(c, args, res):
    c["nodes"] += res.evaluations


def _count_integrate(c, args, res):
    _, _, _, evals, converged = res
    c["nodes"] += evals
    c["unconverged"] += 0 if converged else 1


def _count_nested(c, args, res):
    c["terms"] += res.n_terms


# (span name, module, attribute, counter hook)
SITES = (
    ("special.kernel_series", special, "kernel_series", _count_kernel_series),
    ("special.kernel_series", berezin, "kernel_series", _count_kernel_series),
    ("special.log_series_grid", commutativity, "log_series_grid",
     _count_inv_kernel_grid),
    ("special.log_series_grid", berezin, "log_series_grid", _count_grid),
    ("special.series_abs2_grid", berezin, "series_abs2_grid", _count_grid),
    ("berezin.berezin_general", berezin, "berezin_general",
     _count_berezin_general),
    ("berezin.berezin_exp_radial", berezin, "berezin_exp_radial", None),
    ("quadrature.integrate_radial_log", commutativity, "integrate_radial_log",
     _count_integrate),
    ("commutativity.u", commutativity.UCache, "u", None),
    ("commutativity.u_compute", commutativity, "_u_compute", None),
    ("commutativity.nested_at_zero", commutativity, "nested_at_zero",
     _count_nested),
    ("commutativity.defect", scan, "defect", None),
    ("scan.compute_scan", scan, "compute_scan", None),
    ("scan.rows_to_csv", scan, "rows_to_csv", None),
)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, hook):
        counts = self.counts[name]

        def traced(*args, **kwargs):
            counts["calls"] += 1
            with self.span(name):
                try:
                    res = fn(*args, **kwargs)
                except NonConvergenceError:
                    counts["nonconvergence"] += 1
                    raise
            if hook is not None:
                hook(counts, args, res)
            return res

        return traced

    def _wrap_inv_kernel(self, fn):
        """Count the radii the 1/S node cache is asked for; the misses it
        passes on are counted at `commutativity.log_series_grid`."""
        counts = self.counts

        def make(*args, **kwargs):
            sym = fn(*args, **kwargs)
            evaluate = sym.eval_array

            def eval_array(r):
                counts["commutativity.inv_kernel"]["nodes_requested"] += _size(r)
                return evaluate(r)

            sym.eval_array = eval_array
            return sym

        return make

    def install(self):
        for name, owner, attr, hook in SITES:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hook))
        fn = commutativity._make_inv_kernel_symbol
        self._saved.append((commutativity, "_make_inv_kernel_symbol", fn))
        commutativity._make_inv_kernel_symbol = self._wrap_inv_kernel(fn)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def times_ms(self):
        """Per span name: (total ms, self ms)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += 1e3 * (end - start)
            own[name] += 1e3 * (end - start - child[i])
        return total, own


# What each workload reports.  Each layer metric is listed on the workload
# whose end-to-end metrics it should move:
#  scan: the U-series route (ops_per_s, certified_share) and the moment
#    tables (peak_rss_mib); series_abs2_grid and berezin_general calls are
#    predicted to stay 0;
#  crossval: the 2-D polar route (ops_per_s, op_p90_ms), the reference side
#    of its gate, and kernel_series, predicted flat;
#  kernel: kernel_series (ops_per_s, op_p50_ms, op_p90_ms) and the moment
#    tables (peak_rss_mib).
_KERNEL_SERIES = ("special.kernel_series.calls", "special.kernel_series.ms",
                  "special.kernel_series.terms")
_MOMENT_TABLES = ("special.moment_tables.live",
                  "special.moment_tables.entries")
_FLAT = ("special.series_abs2_grid.calls", "berezin.berezin_general.calls")
REPORTED = {
    "scan": (
        "special.log_series_grid.calls", "special.log_series_grid.ms",
        "special.log_series_grid.nodes",
        "commutativity.inv_kernel.nodes_requested",
        "commutativity.inv_kernel.nodes_computed",
        "commutativity.inv_kernel.hit_ratio",
        "quadrature.integrate_radial_log.calls",
        "quadrature.integrate_radial_log.ms",
        "quadrature.integrate_radial_log.nodes",
        "quadrature.integrate_radial_log.unconverged",
        "commutativity.u.calls", "commutativity.u.misses",
        "commutativity.u.hit_ratio",
        "commutativity.nested_at_zero.calls", "commutativity.nested_at_zero.ms",
        "commutativity.nested_at_zero.terms",
        "commutativity.defect.calls", "commutativity.defect.ms",
        "commutativity.nonconvergence",
        "scan.compute_scan.calls", "scan.compute_scan.ms",
        "scan.compute_scan.self_ms", "scan.rows_to_csv.ms",
    ) + _MOMENT_TABLES + _FLAT,
    "crossval": _KERNEL_SERIES + (
        "special.series_abs2_grid.calls", "special.series_abs2_grid.ms",
        "special.series_abs2_grid.nodes",
        "berezin.berezin_general.calls", "berezin.berezin_general.ms",
        "berezin.berezin_general.self_ms", "berezin.berezin_general.nodes",
        "berezin.berezin_exp_radial.calls", "berezin.berezin_exp_radial.ms",
    ),
    "kernel": _KERNEL_SERIES + _MOMENT_TABLES + _FLAT,
}


def layer_metrics(tracer, workload):
    """The reported per-layer metrics of one traced pass of a workload,
    without the workload prefix: {name: (value, unit)}."""
    c = tracer.counts
    total, own = tracer.times_ms()

    def ratio(num, den):
        return num / den if den else 0.0

    requested = c["commutativity.inv_kernel"]["nodes_requested"]
    computed = c["special.log_series_grid"]["inv_kernel_nodes_computed"]
    u_calls = c["commutativity.u"]["calls"]
    u_misses = c["commutativity.u_compute"]["calls"]
    tables = list(special._TABLES.values())
    out = {
        "special.kernel_series.calls": (c["special.kernel_series"]["calls"], "count"),
        "special.kernel_series.ms": (total["special.kernel_series"], "ms"),
        "special.kernel_series.terms": (c["special.kernel_series"]["terms"], "count"),
        "special.log_series_grid.calls": (c["special.log_series_grid"]["calls"], "count"),
        "special.log_series_grid.ms": (total["special.log_series_grid"], "ms"),
        "special.log_series_grid.nodes": (c["special.log_series_grid"]["nodes"], "count"),
        "commutativity.inv_kernel.nodes_requested": (requested, "count"),
        "commutativity.inv_kernel.nodes_computed": (computed, "count"),
        "commutativity.inv_kernel.hit_ratio": (ratio(requested - computed, requested), "ratio"),
        "special.series_abs2_grid.calls": (c["special.series_abs2_grid"]["calls"], "count"),
        "special.series_abs2_grid.ms": (total["special.series_abs2_grid"], "ms"),
        "special.series_abs2_grid.nodes": (c["special.series_abs2_grid"]["nodes"], "count"),
        "berezin.berezin_general.calls": (c["berezin.berezin_general"]["calls"], "count"),
        "berezin.berezin_general.ms": (total["berezin.berezin_general"], "ms"),
        "berezin.berezin_general.self_ms": (own["berezin.berezin_general"], "ms"),
        "berezin.berezin_general.nodes": (c["berezin.berezin_general"]["nodes"], "count"),
        "berezin.berezin_exp_radial.calls": (c["berezin.berezin_exp_radial"]["calls"], "count"),
        "berezin.berezin_exp_radial.ms": (total["berezin.berezin_exp_radial"], "ms"),
        "quadrature.integrate_radial_log.calls": (c["quadrature.integrate_radial_log"]["calls"], "count"),
        "quadrature.integrate_radial_log.ms": (total["quadrature.integrate_radial_log"], "ms"),
        "quadrature.integrate_radial_log.nodes": (c["quadrature.integrate_radial_log"]["nodes"], "count"),
        "quadrature.integrate_radial_log.unconverged": (c["quadrature.integrate_radial_log"]["unconverged"], "count"),
        "commutativity.u.calls": (u_calls, "count"),
        "commutativity.u.misses": (u_misses, "count"),
        "commutativity.u.hit_ratio": (ratio(u_calls - u_misses, u_calls), "ratio"),
        "commutativity.nested_at_zero.calls": (c["commutativity.nested_at_zero"]["calls"], "count"),
        "commutativity.nested_at_zero.ms": (total["commutativity.nested_at_zero"], "ms"),
        "commutativity.nested_at_zero.terms": (c["commutativity.nested_at_zero"]["terms"], "count"),
        "commutativity.defect.calls": (c["commutativity.defect"]["calls"], "count"),
        "commutativity.defect.ms": (total["commutativity.defect"], "ms"),
        "commutativity.nonconvergence": (c["commutativity.defect"]["nonconvergence"], "count"),
        "scan.compute_scan.calls": (c["scan.compute_scan"]["calls"], "count"),
        "scan.compute_scan.ms": (total["scan.compute_scan"], "ms"),
        "scan.compute_scan.self_ms": (own["scan.compute_scan"], "ms"),
        "scan.rows_to_csv.ms": (total["scan.rows_to_csv"], "ms"),
        "special.moment_tables.live": (len(tables), "count"),
        "special.moment_tables.entries": (sum(len(t) for t in tables), "count"),
    }
    return {name: out[name] for name in REPORTED[workload]}
