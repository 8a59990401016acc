"""The benchmark's tracer (bench/tracing.py) against the library: the names
it wraps must exist and still be called, so that a refactor that drops or
renames one fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from fockberezin import berezin, commutativity, scan
from fockberezin.berezin import ExpSymbol
from fockberezin.config import RunConfig
from fockberezin.special import WeightParams

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_scan_and_crossval_layers():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        scan.compute_scan([4.0], 1.0, 2.0, [0.5, 1.0], RunConfig())
        berezin.berezin_general(WeightParams(1.3, 2.0), ExpSymbol(0.8),
                                0.6 + 0.3j, tol_rel=1e-10)
    finally:
        tracer.uninstall()
    for name in ("commutativity.u_compute", "commutativity.nested_at_zero",
                 "special.log_series_grid", "berezin.berezin_general"):
        assert tracer.counts[name]["calls"] > 0, name


def test_tracer_counts_integrate_radial_log():
    # no workload reaches this site; its hook unpacks the 5-tuple that
    # integrate_radial_log returns, so a change of that shape fails here
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        commutativity.asymptotic_slopes(4.0, 1.0, np.geomspace(1e3, 1e5, 3))
    finally:
        tracer.uninstall()
    counts = tracer.counts["quadrature.integrate_radial_log"]
    assert counts["calls"] > 0
    assert counts["nodes"] > 0
