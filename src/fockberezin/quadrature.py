"""Adaptive integration of r^power * g(r) * exp(-c r^m) over [0, inf).

Strategy: substitute u = c r^m, which turns the weight into e^-u and exposes
the Gamma-type factor u^{q-1} with q = (power+1)/m, then run exp-sinh
double-exponential quadrature in u with level doubling.  The substitution
makes one scheme serve every decay exponent m, and the exp-sinh map absorbs
the integrable endpoint behaviour at u -> 0 for q < 1 without special cases.

The transformed integrand is summed on a log scale relative to its running
peak, so the same engine serves integrals whose magnitude is far outside
double range (callers needing those use integrate_radial_log).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .special import log_gamma

DEFAULT_QUAD_TOL_REL = 1e-12
DEFAULT_QUAD_TOL_ABS = 1e-300
DEFAULT_MAX_LEVELS = 12

_A = math.pi / 2.0     # exp-sinh steepness
_H0 = 0.5              # level-0 mesh in the transformed variable
_LOG_WINDOW = 760.0    # keep nodes whose integrand is within e^-760 of the peak
_EPS = np.finfo(float).eps


@dataclass
class QuadResult:
    """Value, absolute error estimate, evaluation count, convergence flag."""

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass
class RadialSymbol:
    """A bounded symbol given as a callable on the radius r >= 0.

    eval_array, when provided, must evaluate a whole numpy array of radii;
    otherwise the scalar callable is mapped elementwise.  The declared sup
    bound is spot-checked on every quadrature node batch.
    """

    eval: Callable[[float], float]
    sup_bound: float
    eval_array: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def values(self, r: np.ndarray) -> np.ndarray:
        if self.eval_array is not None:
            return np.asarray(self.eval_array(r), dtype=float)
        return np.fromiter((self.eval(float(x)) for x in r), dtype=float,
                           count=len(r))


def unit_symbol() -> RadialSymbol:
    return RadialSymbol(lambda r: 1.0, 1.0, eval_array=lambda r: np.ones_like(r))


def _u_window(q):
    """x-range (x = log u) outside which u^q e^-u is below e^-_LOG_WINDOW
    of its peak value q^q e^-q."""
    e_peak = q * (math.log(q) - 1.0)
    x_lo = (e_peak - _LOG_WINDOW) / q - 2.0 / q
    # right edge: solve u - q log u = _LOG_WINDOW + q - q log q
    rhs = _LOG_WINDOW + q - q * math.log(q)
    u = _LOG_WINDOW + 2.0 * q + 10.0
    for _ in range(6):
        u = rhs + q * math.log(u)
    x_hi = min(math.log(u), 708.0)
    return e_peak, x_lo, x_hi


class _DESum:
    """Exp-sinh trapezoid sums with level doubling and a running log rescale.

    g_pair maps an array of radii to (sign, log|g|) so that factors far
    outside double range never appear in linear form.
    """

    def __init__(self, q, log_c, m, g_pair, tol_rel, log_tol_abs_scaled,
                 max_levels):
        self.q = q
        self.log_c = log_c
        self.m = m
        self.g_pair = g_pair
        self.tol_rel = tol_rel
        self.log_tol_abs_scaled = log_tol_abs_scaled
        self.max_levels = max_levels
        _, x_lo, x_hi = _u_window(q)
        self.t_lo = math.asinh(x_lo / _A)
        self.t_hi = math.asinh(x_hi / _A)
        self.evals = 0

    def _scaled_terms(self, t):
        """sign and log of the transformed integrand at the nodes."""
        x = _A * np.sinh(t)
        u = np.exp(x)
        r = np.exp((x - self.log_c) / self.m)
        sgn, log_g = self.g_pair(r)
        self.evals += len(r)
        w = _A * np.cosh(t)
        log_f = self.q * x - u + log_g + np.log(w)
        log_f[sgn == 0.0] = -np.inf
        return sgn, log_f

    def _within_tol(self, err, t_sum, scale):
        """err meets the absolute tolerance (rescaled to scale) or the
        relative tolerance on t_sum."""
        return err <= max(math.exp(min(self.log_tol_abs_scaled - scale, 700.0)),
                          self.tol_rel * abs(t_sum))

    def run(self):
        scale = None
        t_sum = a_sum = b_sum = 0.0
        prev = None
        err = math.inf
        converged = False
        level = 0
        while level <= self.max_levels:
            h = _H0 / 2.0 ** level
            k_lo = math.ceil(self.t_lo / h)
            k_hi = math.floor(self.t_hi / h)
            if k_hi < k_lo:
                k_lo = k_hi = 0
            k = np.arange(k_lo, k_hi + 1)
            if level > 0:
                k = k[k % 2 != 0]
            sgn, log_f = self._scaled_terms(k * h)
            batch_max = float(log_f.max()) if len(log_f) else -math.inf
            if scale is None:
                scale = batch_max if math.isfinite(batch_max) else 0.0
            elif batch_max > scale:
                adj = math.exp(scale - batch_max)
                t_sum *= adj
                a_sum *= adj
                b_sum *= adj
                if prev is not None:
                    prev *= adj
                scale = batch_max
            contrib = sgn * np.exp(log_f - scale)
            absc = np.abs(contrib)
            # rounding model: each term's exp() carries ~|exponent| ulps
            rnd = absc * (3.0 + np.abs(np.where(np.isfinite(log_f),
                                                log_f - scale, 0.0)))
            if level == 0:
                t_sum = h * float(np.sum(contrib))
                a_sum = h * float(np.sum(absc))
                b_sum = h * float(np.sum(rnd))
            else:
                t_sum = 0.5 * t_sum + h * float(np.sum(contrib))
                a_sum = 0.5 * a_sum + h * float(np.sum(absc))
                b_sum = 0.5 * b_sum + h * float(np.sum(rnd))
            if prev is not None:
                err = abs(t_sum - prev)
                converged = level >= 2 and self._within_tol(err, t_sum, scale)
            prev = t_sum
            if converged:
                break
            level += 1
        err = max(err if math.isfinite(err) else 0.0,
                  _EPS * (8.0 * a_sum + 2.0 * b_sum))
        if converged:  # the floor may push the estimate past tolerance
            converged = self._within_tol(err, t_sum, scale)
        return t_sum, a_sum, scale if scale is not None else 0.0, err, converged


def _check_bound(gv, sup_bound):
    if not len(gv):
        return
    if np.any(np.isnan(gv)):
        raise ValueError("symbol returned NaN")
    if np.max(np.abs(gv)) > sup_bound * (1.0 + 1e-9) + 1e-300:
        raise ValueError(
            f"symbol exceeded its declared sup bound {sup_bound} "
            f"(saw {np.max(np.abs(gv))})")


def _run_de_pair(g_pair, c, m, power, tol_rel, tol_abs, max_levels):
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"decay scale c must be positive and finite, got {c!r}")
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"exponent m must be positive and finite, got {m!r}")
    if power < 0.0:
        raise ValueError(f"power must be >= 0, got {power!r}")
    q = (power + 1.0) / m
    log_pref = -math.log(m) - q * math.log(c)
    log_tol_abs = (math.log(tol_abs) - log_pref) if tol_abs > 0.0 else -math.inf
    engine = _DESum(q, math.log(c), m, g_pair, tol_rel, log_tol_abs, max_levels)
    t_sum, a_sum, scale, err, converged = engine.run()
    return t_sum, a_sum, scale + log_pref, err, engine.evals, converged


def _pair_from_symbol(g: RadialSymbol):
    def g_pair(r):
        gv = g.values(r)
        _check_bound(gv, g.sup_bound)
        with np.errstate(divide="ignore"):
            log_g = np.log(np.abs(gv))
        return np.sign(gv), log_g

    return g_pair


def _run_de(g: RadialSymbol, c, m, power, tol_rel, tol_abs, max_levels):
    return _run_de_pair(_pair_from_symbol(g), c, m, power, tol_rel, tol_abs,
                        max_levels)


def _err_floor(err, t_sum, a_sum, log_scale):
    """Error estimates cannot honestly drop below rounding: trapezoid noise
    plus the conditioning of the final exp that applies the log prefactor."""
    return max(err, _EPS * (8.0 * a_sum + abs(log_scale) * abs(t_sum)))


def integrate_radial(g: RadialSymbol, c: float, m: float, power: float = 0.0, *,
                     tol_rel=DEFAULT_QUAD_TOL_REL, tol_abs=DEFAULT_QUAD_TOL_ABS,
                     max_levels=DEFAULT_MAX_LEVELS) -> QuadResult:
    """Approximate integral_0^inf r^power g(r) exp(-c r^m) dr.

    Never raises on slow convergence: the best value is returned with
    converged=False after max_levels doublings.
    """
    t_sum, a_sum, log_scale, err, evals, converged = _run_de(
        g, c, m, power, tol_rel, tol_abs, max_levels)
    err = _err_floor(err, t_sum, a_sum, log_scale)
    with np.errstate(over="ignore"):
        factor = float(np.exp(log_scale))
    return QuadResult(t_sum * factor, err * factor, evals, converged)


def integrate_radial_log(g: RadialSymbol, c: float, m: float, power: float = 0.0, *,
                         tol_rel=DEFAULT_QUAD_TOL_REL, tol_abs=DEFAULT_QUAD_TOL_ABS,
                         max_levels=DEFAULT_MAX_LEVELS):
    """Like integrate_radial but in log form, for results far outside
    double range: returns (log |value|, sign, relative error, evals, converged)."""
    t_sum, a_sum, log_scale, err, evals, converged = _run_de(
        g, c, m, power, tol_rel, tol_abs, max_levels)
    if t_sum == 0.0:
        return -math.inf, 0.0, math.inf, evals, converged
    err = _err_floor(err, t_sum, a_sum, log_scale)
    return (log_scale + math.log(abs(t_sum)), math.copysign(1.0, t_sum),
            err / abs(t_sum), evals, converged)


def radial_moment(c: float, m: float, n: int) -> float:
    """log of integral_C |w|^(2n) exp(-c |w|^m) dA(w)
    = log( (2 pi / m) c^(-(2n+2)/m) Gamma((2n+2)/m) ); closed form, no quadrature."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"decay scale c must be positive and finite, got {c!r}")
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"exponent m must be positive and finite, got {m!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"moment order must be >= 0, got {n}")
    q = (2.0 * n + 2.0) / m
    return math.log(2.0 * math.pi / m) - q * math.log(c) + log_gamma(q)
