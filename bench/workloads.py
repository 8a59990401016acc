"""Seeded inputs, the op each workload times, and the correctness gates.

A run repeats one sweep: a fixed-size set of ops drawn from the seed.  The
per-op cost of this library spans three orders of magnitude and is set by
a few parameters (m, |z| and alpha, the beta/alpha ratio), so independent
random draws would make a sweep's cost depend on how many costly points a
seed happened to draw.  Each continuous parameter is therefore Latin-
hypercube sampled with a fixed assignment of strata to ops: the strata (the
cells of the box) are the same for every seed and the seed draws the point
inside each cell.  Every point is uniform over the advertised box and every
seed draws different points, but every sweep has the same mix of cheap and
costly cells.  Discrete parameters (m for scan and crossval, the argument
kind for kernel) are cycled.

The program only ever sees the generated inputs; it is called through its
module attributes at call time, so a traced run can wrap those names.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

from fockberezin import berezin as fb_berezin
from fockberezin import scan as fb_scan
from fockberezin import special as fb_special
from fockberezin.config import RunConfig
from fockberezin.errors import NonConvergenceError

WORKLOADS = ("scan", "crossval", "kernel")
SWEEP = {"scan": 32, "crossval": 48, "kernel": 1200}   # ops per sweep

ALPHA_BOX = (1e-3, 1e6)
SCAN_M = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)
CROSSVAL_M = (1.0, 2.0, 3.0, 4.0)
CROSSVAL_TOL_REL = 1e-10   # the tolerance of the `dual-path` verify check
CROSSVAL_GATE = 1e-8       # and its gate
SCAN_M2_GATE = 1e-9
KERNEL_POOL = 16           # reused weights of the kernel workload


class _Sampler:
    """Latin-hypercube columns: the strata order comes from a generator
    fixed per workload, the position inside each stratum from the seed."""

    def __init__(self, workload, seed):
        self.design = random.Random(f"fockberezin-bench/design/{workload}")
        self.rng = random.Random(f"fockberezin-bench/{workload}/{seed}")

    def column(self, n, k=None, jitter=True):
        """n uniforms over k <= n equal strata (default n), each stratum
        holding n // k or n // k + 1 of them; without jitter, the stratum
        midpoints."""
        k = k or n
        order = list(range(k))
        self.design.shuffle(order)
        return [(order[t % k] + (self.rng.random() if jitter else 0.5)) / k
                for t in range(n)]


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


@dataclass(frozen=True)
class ScanOp:
    m: float
    alpha: float
    beta: float
    deltas: tuple


@dataclass(frozen=True)
class CrossvalOp:
    m: float
    alpha: float
    delta: float
    z: complex
    planar: bool


@dataclass(frozen=True)
class KernelOp:
    m: float
    alpha: float
    zeta: object   # float or complex
    fresh: bool


def _scan_ops(s, count):
    """m cycles; alpha, beta/alpha, the grid size and the grid centre are
    stratified over the sweep (failures cluster at extreme ratios)."""
    ua, ur, un, uc = (s.column(count) for _ in range(4))
    ops = []
    for t in range(count):
        alpha = _log_uniform(ua[t], *ALPHA_BOX)
        beta = alpha * _log_uniform(ur[t], 1e-2, 1e2)
        beta = min(max(beta, ALPHA_BOX[0]), ALPHA_BOX[1])
        nd = 1 + int(16 * un[t])
        # delta has the units of alpha and beta; grids are geometric,
        # spanning a factor 4 around a centre near their geometric mean
        centre = math.sqrt(alpha * beta) * _log_uniform(uc[t], 0.25, 4.0)
        if nd == 1:
            deltas = (centre,)
        else:
            deltas = tuple(centre * 2.0 ** (2.0 * j / (nd - 1) - 1.0)
                           for j in range(nd))
        ops.append(ScanOp(SCAN_M[t % len(SCAN_M)], alpha, beta, deltas))
    return ops


def _crossval_ops(s, count):
    """m cycles; |z| takes the midpoints of equal strata of [0, 1.5] for each
    m, and alpha and delta the midpoints of equal strata of [0.5, 2]; the
    seed draws arg z.  The cost of a point rises in steps with |z|, alpha
    and delta (moving delta by 0.5 % doubled the nodes berezin_general
    needed at one point), so jittered values would make the costliest
    points, and the p90, differ from seed to seed.  Half the points pass the test function
    as an ExpSymbol, half as a PlanarSymbol."""
    n_m = len(CROSSVAL_M)
    ur = {m: s.column(count // n_m, jitter=False) for m in CROSSVAL_M}
    ua, ud = (s.column(count, jitter=False) for _ in range(2))
    uphi, ukind = (s.column(count) for _ in range(2))
    ops = []
    for t in range(count):
        m = CROSSVAL_M[t % n_m]
        z = 1.5 * ur[m][t // n_m] * cmath.exp(2j * math.pi * uphi[t])
        ops.append(CrossvalOp(m, 0.5 + 1.5 * ua[t], 0.5 + 1.5 * ud[t], z,
                              planar=ukind[t] >= 0.5))
    return ops


def _kernel_zeta(m, alpha, n, kind, u_phi):
    mag = (2.0 * n / (m * alpha)) ** (2.0 / m)   # peak term index near n
    if kind == 0:
        return mag
    if kind == 1:
        return -mag
    return complex(mag * cmath.exp(2j * math.pi * u_phi))


def _kernel_ops(s, count):
    """The argument kind cycles positive / negative / complex.  Of every 12
    ops, 4 use a fresh weight with m uniform in [0.5, 10], 1 a fresh weight
    at m = 2 (the bound-honesty gate) and 7 a weight from a reused pool."""
    pm, pa = s.column(KERNEL_POOL), s.column(KERNEL_POOL)
    pool = [(0.5 + 9.5 * pm[i], _log_uniform(pa[i], *ALPHA_BOX))
            for i in range(KERNEL_POOL)]
    # coarse strata: with this many ops the mix is balanced anyway
    un, um, ua, uphi = (s.column(count, 32) for _ in range(4))
    ops = []
    for t in range(count):
        slot = t % 12
        kind = t % 3 if slot != 4 else (t // 12) % 3
        alpha = _log_uniform(ua[t], *ALPHA_BOX)
        if slot < 4:
            m, fresh = 0.5 + 9.5 * um[t], True
        elif slot == 4:
            m, fresh = 2.0, True
        else:
            m, alpha = pool[(t // 12 * 7 + slot) % KERNEL_POOL]
            fresh = False
        n = _log_uniform(un[t], 1.0, 4000.0)
        ops.append(KernelOp(m, alpha, _kernel_zeta(m, alpha, n, kind, uphi[t]),
                            fresh))
    return ops


_MAKE = {"scan": _scan_ops, "crossval": _crossval_ops, "kernel": _kernel_ops}


def make_ops(workload, seed):
    """The seed's sweep for a workload: a list of SWEEP[workload] ops."""
    return _MAKE[workload](_Sampler(workload, seed), SWEEP[workload])


def inputs_digest(ops):
    return hashlib.sha256(repr(ops).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# ops: exactly what one timed op does
# ---------------------------------------------------------------------------

_CFG = RunConfig()   # threads=1


def _run_scan(op):
    cache = fb_scan.cache_from_config(_CFG)   # fresh, as one CLI invocation
    rows = fb_scan.compute_scan([op.m], op.alpha, op.beta, list(op.deltas),
                                _CFG, cache=cache)
    return rows, fb_scan.rows_to_csv(rows)


def _exp_planar(delta, m):
    return fb_berezin.PlanarSymbol(
        lambda w: math.exp(-delta * abs(w) ** m), 1.0,
        eval_array=lambda w: np.exp(-delta * np.abs(w) ** m))


def _run_crossval(op):
    params = fb_special.WeightParams(op.alpha, op.m)
    f = (_exp_planar(op.delta, op.m) if op.planar
         else fb_berezin.ExpSymbol(op.delta))
    return fb_berezin.berezin_general(params, f, op.z,
                                      tol_rel=CROSSVAL_TOL_REL)


def _run_kernel(op):
    return fb_special.kernel_series(fb_special.WeightParams(op.alpha, op.m),
                                    op.zeta)


RUN = {"scan": _run_scan, "crossval": _run_crossval, "kernel": _run_kernel}


def run_op(workload, op):
    """(result, None), or (None, failure) when the library raised."""
    try:
        return RUN[workload](op), None
    except NonConvergenceError:
        return None, "nonconvergence"
    except Exception as exc:   # op boundary: count it, keep the run going
        return None, f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# gates: run after the sweeps, never inside a timed region
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0.0 else abs(a - b)


def _gate_scan(op, result):
    rows, csv = result
    if fb_scan.parse_csv(csv) != rows:
        return "csv round trip"
    if op.m == 2.0:
        a, b = op.alpha, op.beta
        for r in rows:
            if r.significant or not abs(r.defect) <= _CFG.defect_kappa * r.err_bound:
                return "m=2 defect significant"
            want = a * b / (a * b + a * r.delta + b * r.delta)
            if not _rel(r.forward, want) <= SCAN_M2_GATE:
                return "m=2 closed form"
    return None


def _gate_crossval(op, result):
    ref = fb_berezin.berezin_exp_radial(
        fb_special.WeightParams(op.alpha, op.m), op.delta, abs(op.z))
    if not _rel(result.value, ref.value) <= CROSSVAL_GATE:
        return "dual-path gap"
    return None


def _gate_kernel(op, result):
    """At m = 2, S(zeta) = exp(alpha zeta): the true error must not exceed
    the reported relative bound (an inf bound is honest).  Other m fail
    only by raising."""
    if op.m != 2.0:
        return None
    import mpmath
    bound = result.truncation_error_bound
    if math.isinf(bound):
        return None
    with mpmath.workdps(40):
        zeta = (mpmath.mpc(op.zeta.real, op.zeta.imag)
                if isinstance(op.zeta, complex) else mpmath.mpf(op.zeta))
        exact = mpmath.exp(mpmath.mpf(op.alpha) * zeta)
        phase = result.phase_or_sign
        got = (mpmath.mpc(phase.real, phase.imag) if isinstance(phase, complex)
               else mpmath.mpf(phase)) * mpmath.exp(mpmath.mpf(result.log_magnitude))
        err = abs(got - exact) / abs(exact)
    if not err <= bound:
        return "m=2 bound below true error"
    return None


GATE = {"scan": _gate_scan, "crossval": _gate_crossval, "kernel": _gate_kernel}


def gate(workload, op, result):
    """None when the output is verified, else the name of the failed gate."""
    return GATE[workload](op, result)


# Failures other than NonConvergenceError that the seed commit already
# shows.  They count as failed ops (and lower certified_share) but do not make
# the run incorrect; any other gate failure or exception does.
KNOWN_RED = {
    # kernel_series derives its condition number from a sum that is itself
    # rounding noise under cancellation (negative or complex zeta)
    "m=2 bound below true error",
    # _u_compute overflows math.exp while building the NonConvergenceError
    # for an unconverged U(n) whose integral exceeds double range
    "raised OverflowError: math range error",
}
