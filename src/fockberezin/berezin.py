"""Berezin transform evaluation.

Two independent routes are provided:

* a fast series route for radial symbols (berezin_exp_radial), exact for
  the exponential test family f_delta(z) = exp(-delta |z|^m);
* a 2-D polar quadrature route for arbitrary bounded symbols
  (berezin_general), radial exp-sinh times an angular mean on each circle.
  For a planar symbol the angular mean is a trapezoid rule, doubled on
  each circle until its own rule holds, and the kernel factor |S|^2 is
  evaluated at every angular node: on each circle the nodes form one DFT
  of the folded series, summed by one FFT (special.CircleSeries).  For a
  radial symbol f(|w|) the mean is f(rho) sum_n |a_n|^2 |z rho|^(2n), by
  Parseval, with no angular nodes.

berezin_at_zero is the 2-D polar route at z = 0, where the kernel factor is
constant.  Both routes reject symbol values that are NaN or exceed the
declared sup bound.

For f_delta the radial series telescopes into a ratio of kernel-series
values: reindexing Gamma((2n+2)/m)/s_n^2 = alpha^{2n/m}/s_n turns the sum
into S evaluated at the contracted argument r^2 (alpha/(alpha+delta))^{2/m},
so

    (B f_delta)(|z|=r) = (alpha/(alpha+delta))^{2/m}
                         * S(r^2 (alpha/(alpha+delta))^{2/m}) / S(r^2).

At m = 2 this reproduces the closed form (alpha/(alpha+delta)) *
exp(-alpha delta r^2/(alpha+delta)) term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergenceError
from .special import (DEFAULT_MAX_TERMS, DEFAULT_SERIES_TOL, CircleSeries,
                      WeightParams, _ml_contour, _ml_rel_bound, kernel_series,
                      log_series_grid, moment_table)
# bench/tracing.py wraps this module attribute; the 2-D route no longer calls it
from .special import series_abs2_grid  # noqa: F401
from .quadrature import (_A, _LOG_WINDOW, _LOG_WINDOW_DECAY,
                         DEFAULT_MAX_LEVELS, DEFAULT_QUAD_TOL_REL, QuadResult,
                         RadialSymbol, _check_bound, _DESum)

_EPS = np.finfo(float).eps


@dataclass
class PlanarSymbol:
    """A bounded symbol on the complex plane."""

    eval: Callable[[complex], float]
    sup_bound: float
    eval_array: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def values(self, w: np.ndarray) -> np.ndarray:
        if self.eval_array is not None:
            return np.asarray(self.eval_array(w), dtype=float)
        flat = w.ravel()
        out = np.fromiter((self.eval(complex(x)) for x in flat), dtype=float,
                          count=flat.size)
        return out.reshape(w.shape)


@dataclass(frozen=True)
class ExpSymbol:
    """The test family f_delta(z) = exp(-delta |z|^m); delta = 0 gives f == 1.

    The weight exponent m is ambient: operations that receive an ExpSymbol
    instantiate it with their own m.
    """

    delta: float

    def __post_init__(self):
        if not (isinstance(self.delta, (int, float)) and math.isfinite(self.delta)
                and self.delta >= 0.0):
            raise ValueError(f"delta must be a finite real >= 0, got {self.delta!r}")
        object.__setattr__(self, "delta", float(self.delta))

    def as_radial(self, m: float) -> RadialSymbol:
        d = self.delta
        return RadialSymbol(lambda r: math.exp(-d * r ** m), 1.0,
                            eval_array=lambda r: np.exp(-d * np.power(r, m)))

    def as_planar(self, m: float) -> PlanarSymbol:
        d = self.delta
        return PlanarSymbol(lambda w: math.exp(-d * abs(w) ** m), 1.0,
                            eval_array=lambda w: np.exp(-d * np.abs(w) ** m))


def _normalization_log(params: WeightParams) -> float:
    """log of m alpha^{2/m} / Gamma(2/m): the weight normalization once the
    angular 2 pi has been absorbed."""
    return math.log(params.m) + params.log_dilation - params.log_gamma_2m


def berezin_at_zero(params: WeightParams, f, *, tol_rel=DEFAULT_QUAD_TOL_REL,
                    max_levels=DEFAULT_MAX_LEVELS) -> QuadResult:
    """(B f)(0): the integral of f against the normalized weight measure,
    by berezin_general at z = 0, where the kernel factor is the constant
    |S(0)|^2 and only the angular mean is summed: no series, so no series
    tolerance."""
    return berezin_general(params, f, 0j, tol_rel=tol_rel,
                           max_levels=max_levels)


def berezin_exp_radial(params: WeightParams, delta: float, r: float, *,
                       series_tol=DEFAULT_SERIES_TOL,
                       max_terms=DEFAULT_MAX_TERMS) -> QuadResult:
    """(B f_delta)(|z|=r) via the radial series, in ratio-of-kernels form.

    The summed series is S at the contracted argument, so the kernel-series
    stopping rule and error bound apply verbatim to both factors.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"radius must be finite and >= 0, got {r!r}")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0 (bounded symbol), got {delta!r}")
    a, m = params.alpha, params.m
    log_contract = (2.0 / m) * (math.log(a) - math.log(a + delta))
    t_base = r * r
    t_star = t_base * math.exp(log_contract)
    s_base = kernel_series(params, t_base, tol=series_tol, max_terms=max_terms)
    if t_star == t_base:
        s_star = s_base
    else:
        s_star = kernel_series(params, t_star, tol=series_tol, max_terms=max_terms)
    value = math.exp(log_contract + s_star.log_magnitude - s_base.log_magnitude)
    rel = s_star.truncation_error_bound + s_base.truncation_error_bound + 4.0 * _EPS
    return QuadResult(value, value * rel,
                      s_star.truncation_terms + s_base.truncation_terms, True)


def berezin_exp_radial_grid(params: WeightParams, delta: float, r, *,
                            series_tol=DEFAULT_SERIES_TOL,
                            max_terms=DEFAULT_MAX_TERMS) -> np.ndarray:
    """Vectorized berezin_exp_radial values on an array of radii."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("radii must be finite and >= 0")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    a, m = params.alpha, params.m
    log_contract = (2.0 / m) * (math.log(a) - math.log(a + delta))
    t_base = r * r
    t_star = t_base * math.exp(log_contract)
    # one grid call for both: each value is independent of its batch
    lg_base, lg_star = log_series_grid(params, np.stack([t_base, t_star]),
                                       tol=series_tol, max_terms=max_terms)
    # the transform of 0 <= f_delta <= 1 is itself in [0, 1]; the clip only
    # catches the rounding of the logs when delta is near 0
    return np.minimum(np.exp(log_contract + lg_star - lg_base), 1.0)


class _KernelWeightedAverage:
    """Angular mean of f(w) |S(z conj(w))|^2 over the circle |w| = rho;
    every batch of f values is bound-checked.

    Each log_values call builds the scaled series terms of all its circles
    once (CircleSeries).  For a radial symbol the mean is exact by
    Parseval: f(rho) times the sum of the squared terms, one evaluation of
    f per radius and no angular nodes.  Its only angular error is the
    rounding of that sum, (rows + 2) eps relative, which max_rel_err
    counts.

    A planar symbol takes trapezoid node doubling: every level evaluates f
    and |S|^2, by one FFT per circle, on the circles still refining, as
    _DESum does with its rows.  A circle stops at the first level where its
    own doubling difference meets its rule, max(tol_rel/4 |mean|, 8 eps
    mean|f K|), and keeps that level's mean and difference, so its value
    does not depend on its batch mates.  The trapezoid rule converges
    geometrically on the periodic integrand (Trefethen & Weideman, SIAM
    Rev. 56, 2014), so the difference of the last doubling is the error
    estimate of the finer mean it keeps; max_rel_err is the largest of
    these over |mean|.  A circle whose rule is still unmet at _NMAX nodes
    sets capped, which berezin_general reports as converged=False.

    Values are returned in sign/log form, a planar circle's rescaled by its
    largest |S|^2 on the nodes, so magnitudes far outside double range stay
    exact.
    """

    _N0 = 16
    _NMAX = 1 << 13

    def __init__(self, params, z, f, *, series_tol, tol_rel, max_terms):
        self.params = params
        self.abs_z = abs(z)
        self.phi_z = math.atan2(z.imag, z.real)
        self.f = f                    # a PlanarSymbol or a RadialSymbol
        self.series_tol = series_tol
        self.tol_rel = tol_rel
        self.max_terms = max_terms
        self.max_rel_err = 0.0
        self.point_evals = 0
        self.capped = False           # some radius stopped at _NMAX unmet

    def log_values(self, rho: np.ndarray):
        """Returns (sign, log_abs) arrays of the angular mean at each radius."""
        rho = np.asarray(rho, dtype=float)
        # at z = 0 every radius is 0: each circle's |S|^2 is the constant
        # |S(0)|^2, and no series is summed
        circles = CircleSeries(self.params, self.abs_z * rho,
                               tol=self.series_tol, max_terms=self.max_terms)
        if not isinstance(self.f, PlanarSymbol):
            fv = self.f.values(rho)
            _check_bound(fv, self.f.sup_bound)
            self.point_evals += rho.size
            log_mean, rows = circles.log_mean_abs2()
            self.max_rel_err = max(self.max_rel_err, (rows + 2) * _EPS)
            with np.errstate(divide="ignore"):
                return np.sign(fv), np.log(np.abs(fv)) + log_mean
        # each radius's mean, scale and diff at the level where it stopped
        out = np.empty((3, rho.size))
        live = np.arange(rho.size)   # the radii still refining
        n = self._N0
        mean, scale_log, amean = self._mean(rho, circles, n, offset=False)
        while live.size:
            mean_off, scale_off, amean_off = self._mean(rho[live], circles, n,
                                                        offset=True)
            # the two half-meshes carry their own rescale; merge on the larger
            both = np.maximum(scale_log, scale_off)
            w_a = np.exp(scale_log - both)
            w_b = np.exp(scale_off - both)
            mean_new = 0.5 * (mean * w_a + mean_off * w_b)
            amean = 0.5 * (amean * w_a + amean_off * w_b)
            diff = np.abs(mean_new - mean * w_a)
            scale_log = both
            mean = mean_new
            n *= 2
            done = diff <= np.maximum(0.25 * self.tol_rel * np.abs(mean),
                                      8.0 * _EPS * np.maximum(amean, 1e-300))
            if n >= self._NMAX and not bool(np.all(done)):
                self.capped = True
                done[:] = True
            if bool(np.any(done)):
                out[:, live[done]] = mean[done], scale_log[done], diff[done]
                keep = ~done
                live = live[keep]
                circles = circles.select(keep)
                mean, scale_log = mean[keep], scale_log[keep]
                amean = amean[keep]
        mean, scale_log, diff = out
        denom = np.maximum(np.abs(mean), 1e-300)
        self.max_rel_err = max(self.max_rel_err, float(np.max(diff / denom)))
        sign = np.sign(mean)
        with np.errstate(divide="ignore"):
            log_abs = scale_log + np.log(np.abs(mean))
        return sign, log_abs

    def _mean(self, rho, circles, n, *, offset):
        off = 0.5 if offset else 0.0
        k = (np.arange(n) + off) / n
        theta = 2.0 * math.pi * k
        self.point_evals += len(rho) * n
        # node k sits at arg zeta = phi_z - theta_k
        log_abs2 = circles.log_abs2(self.phi_z - 2.0 * math.pi * off / n, n)
        scale = log_abs2.max(axis=1)
        kernel_w = np.exp(log_abs2 - scale[:, None])
        fv = self.f.values(rho[:, None] * np.exp(1j * theta[None, :]))
        _check_bound(fv, self.f.sup_bound)
        vals = fv * kernel_w
        return vals.mean(axis=1), scale, np.abs(vals).mean(axis=1)


# Below xi = _ENV_REF the envelope sums the first _ENV_TERMS terms of S and
# bounds the rest from their sum at _ENV_REF; from _ENV_REF on it takes the
# Mittag-Leffler leading term.
_ENV_REF = 4.0
_ENV_TERMS = 4


def _log_upper_gamma_bound(s, y):
    """log of a bound on Gamma(s, y) = int_y^inf t^(s-1) e^-t dt, y > 0:
    t^(s-1) <= y^(s-1) e^((s-1)(t-y)/y) on t >= y."""
    if s <= 1.0:
        return (s - 1.0) * math.log(y) - y
    if y > s - 1.0:
        return (s - 1.0) * math.log(y) - y - math.log1p(-(s - 1.0) / y)
    return math.lgamma(s)


class _KernelEnvelope:
    """A proven bound on the radial integrand of berezin_general, and the
    window of the exp-sinh rule that it gives.

    The series S has positive coefficients, so |S(z conj w)| <= S(|z| rho)
    on the circle |w| = rho (cf. Marzo & Ortega-Cerda, J. Geom. Anal. 19,
    2009), and the angular mean of f |S|^2 is at most sup_bound S(|z|
    rho)^2.  In x = log u, u = alpha rho^m, the integrand of the radial rule
    is then at most sup_bound / S(|z|^2) e^phi(x), with

        phi(x) = q x - e^x + 2 log S(|z| rho),   q = a = 2/m.

    log S is a function of the Mittag-Leffler variable xi = alpha (|z|
    rho)^(m/2) = sqrt(X u), X = alpha |z|^m, and is bounded in closed form
    on both sides (_log_s): from xi = _ENV_REF on by the leading term and
    its proven remainder bound (special._ml_rel_bound, which falls with xi);
    below it by the first _ENV_TERMS terms of the series in y = xi^a, plus
    the rest, at most (y/y_1)^_ENV_TERMS times its value at y_1 = _ENV_REF^a.

    window(depth) places the window where the upper bound of phi lies
    within e^-depth of a lower bound of its peak, and returns with it a
    proven bound on the envelope's mass outside the window (_log_outside),
    in the units of the exp-sinh integral.  It uses two facts: log S rises
    with rho, and past _ENV_REF the bound on e^phi is a Gaussian in
    sqrt(u), X^(1-a) a^-2 (1 + b)^2 e^(X - (sqrt(u) - sqrt(X))^2) du.
    """

    def __init__(self, params, abs_z, sup_bound, log_s_z):
        m = params.m
        self.a = a = 2.0 / m
        self.lam0 = -params.log_gamma_2m                # log S(0)
        self.log_x = (params.log_alpha + m * math.log(abs_z) if abs_z > 0.0
                      else -math.inf)
        self.x_big = math.exp(self.log_x)
        _, self.ks, self.coef = _ml_contour(m)
        self.inv_gamma = np.exp(
            -moment_table(m).log_moments(_ENV_TERMS)).tolist()[::-1]
        self.log_ref = math.log(_ENV_REF)
        self.y_ref = _ENV_REF ** a
        self.rest = max(math.exp(self._log_s_ml(_ENV_REF)[1])
                        - self._head(self.y_ref), 0.0)
        # the rest of the bound on g, and with the prefactor of u = alpha
        # rho^m, the factor from int e^phi dx to the exp-sinh integral
        self.log_g = (math.log(sup_bound) if sup_bound > 0.0 else -math.inf
                      ) - log_s_z
        self.log_const = self.log_g - math.log(m) - a * params.log_alpha
        # a lower bound on the peak of phi: at u = a, where log S >= log
        # S(0), and at the peak of the leading term's phi
        root_x = math.sqrt(self.x_big)
        v = 0.5 * (root_x + math.sqrt(self.x_big + 4.0))
        self.peak, self.x_peak = max((self._phi(x)[0], x)
                                     for x in (math.log(a), 2.0 * math.log(v)))

    def _head(self, y):
        out = 0.0
        for c in self.inv_gamma:
            out = out * y + c
        return out

    def _log_s_ml(self, xi):
        """Bounds on log S from the leading term at xi >= _ENV_REF."""
        a = self.a
        lead = xi + (1.0 - a) * math.log(xi) - math.log(a)
        b = _ml_rel_bound(a, self.ks, self.coef, xi)
        low = lead + math.log1p(-b) if b < 1.0 else self.lam0
        return low, lead + math.log1p(b)

    def _log_s(self, x):
        """(lower, upper) bounds on log S(|z| rho) at x = log(alpha rho^m)."""
        if self.log_x == -math.inf:
            return self.lam0, self.lam0
        log_xi = 0.5 * (self.log_x + x)
        if log_xi >= self.log_ref:
            return self._log_s_ml(math.exp(log_xi))
        y = math.exp(self.a * log_xi)
        head = self._head(y)
        return (math.log(head),
                math.log(head + self.rest * (y / self.y_ref) ** _ENV_TERMS))

    def _phi(self, x):
        """(lower, upper) bounds on phi(x)."""
        low, high = self._log_s(x)
        base = self.a * x - math.exp(x)
        return base + 2.0 * low, base + 2.0 * high

    def window(self, depth):
        """(x_lo, x_hi, log_out): the window in x = log u, and the log of a
        bound on the envelope's mass outside it, in the units of the
        exp-sinh integral of the radial rule."""
        level = self.peak - depth
        x_lo = self._edge(level, -1.0)
        x_hi = self._edge(level, 1.0)
        return x_lo, x_hi, self.log_const + self._log_outside(x_lo, x_hi)

    def _edge(self, level, step):
        """The point where the upper bound of phi falls to level, on the
        side of the peak that step points to: bracketed by doubling steps
        from the peak, then narrowed by regula falsi (the Illinois variant)
        to a quarter of a level-12 exp-sinh step, and taken at the outer end
        of the bracket, or at a point within 1e-9 of level."""
        def over(x):
            return self._phi(x)[1] - level

        x_in, f_in = self.x_peak, over(self.x_peak)
        while True:
            x_out = min(self.x_peak + step, 708.0)
            f_out = over(x_out)
            if f_out < 0.0 or x_out == 708.0:
                break
            x_in, f_in = x_out, f_out
            step *= 2.0
        side = 0
        for _ in range(60):
            if not (f_out < 0.0
                    and abs(x_out - x_in) > 3e-5 * math.hypot(_A, x_out)):
                break
            x = (x_out * f_in - x_in * f_out) / (f_in - f_out)
            f = over(x)
            if abs(f) <= 1e-9:
                return x
            if f > 0.0:
                x_in, f_in = x, f
                if side > 0:
                    f_out *= 0.5
                side = 1
            else:
                x_out, f_out = x, f
                if side < 0:
                    f_in *= 0.5
                side = -1
        return x_out

    def _log_outside(self, x_lo, x_hi):
        """log of a bound on int e^phi dx over x < x_lo and x > x_hi."""
        a, big = self.a, self.x_big
        root_x = math.sqrt(big)
        # where xi = _ENV_REF; inf at z = 0, where log S = log S(0)
        x_ref = 2.0 * self.log_ref - self.log_x
        parts = []
        # left: log S rises with rho, so up to x_0 it is at most its bound
        # at x_0, and int_{-inf}^{x_0} e^(a x - e^x) dx <= e^(a x_0) / a
        x_0 = min(x_lo, x_ref)
        parts.append(2.0 * self._log_s(x_0)[1] + a * x_0 - math.log(a))
        if x_lo > x_ref:
            # the Gaussian from x_ref to x_lo, left of its centre sqrt(X)
            w = root_x - math.exp(0.5 * x_lo)
            parts.append(self._log_gauss(_ENV_REF) + (
                math.log(root_x) - w * w - math.log(w) if w > 0.0
                else math.log(2.0 + 2.0 * math.sqrt(math.pi * big))))
        x_1 = x_hi
        if x_hi < x_ref:
            # right, up to x_ref: log S is at most its bound at x_ref
            top = self._log_s(x_ref)[1] if x_ref < math.inf else self.lam0
            parts.append(2.0 * top + _log_upper_gamma_bound(a, math.exp(x_hi)))
            x_1 = x_ref
        if x_1 < 1400.0:   # past it e^(-(v - sqrt X)^2) is 0 in doubles
            # the Gaussian right of x_1
            w = math.exp(0.5 * x_1) - root_x
            parts.append(self._log_gauss(math.exp(0.5 * (self.log_x + x_1))) + (
                -w * w + math.log1p(root_x / w) if w > 0.0
                else math.log(2.0 + 2.0 * math.sqrt(math.pi * big))))
        return float(np.logaddexp.reduce(parts))

    def _log_gauss(self, xi):
        """log of X^(1-a) a^-2 (1 + b)^2 e^X, the factor of the Gaussian
        bound on e^phi dx = (...) e^(-(v - sqrt X)^2) 2 v dv, v = sqrt(u),
        on xi >= the given xi (b falls with xi)."""
        a = self.a
        b = _ml_rel_bound(a, self.ks, self.coef, xi)
        return (2.0 * math.log1p(b) + (1.0 - a) * self.log_x
                - 2.0 * math.log(a) + self.x_big)


def berezin_general(params: WeightParams, f, z: complex, *,
                    tol_rel=DEFAULT_QUAD_TOL_REL,
                    max_levels=DEFAULT_MAX_LEVELS, series_tol=DEFAULT_SERIES_TOL,
                    max_terms=DEFAULT_MAX_TERMS) -> QuadResult:
    """(B f)(z) by 2-D polar quadrature against |S(z conj(w))|^2.

    Independent of the radial series route: the kernel factor is summed
    numerically on every circle and integrated radially by the exp-sinh
    rule.  For a planar symbol |S|^2 is evaluated on the angular nodes, by
    one FFT of the folded series per circle, and integrated by trapezoid
    doubling, each circle to its own rule.  For a radial symbol (an
    ExpSymbol becomes one) the angular mean is f(rho) sum_n |a_n|^2
    |z rho|^(2n), by Parseval.  The radial rule keeps only the radii where
    a proven envelope of its integrand lies within e^-_LOG_WINDOW_DECAY of
    its peak (_KernelEnvelope), and adds the envelope's mass outside them
    to the estimate; where that mass exceeds tol_rel |value| the run is
    repeated e^-_LOG_WINDOW deep.  converged is False, and
    abs_error_estimate inf, when either rule is unmet, the angular one at
    8192 nodes, when the mass outside the deeper window is still too large,
    or, with a NaN value, when a series raises NonConvergenceError.  The
    node series, summed only where z != 0, add 2 series_tol.  evaluations
    counts the angular nodes evaluated, one per radius for a radial symbol.
    Raises ValueError when f returns NaN or exceeds its sup_bound.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("z must be finite")
    if isinstance(f, ExpSymbol):
        f = f.as_radial(params.m)
    if not isinstance(f, (RadialSymbol, PlanarSymbol)):
        raise TypeError(f"unsupported symbol type {type(f).__name__}")
    avg = _KernelWeightedAverage(params, z, f, series_tol=series_tol,
                                 tol_rel=tol_rel, max_terms=max_terms)
    try:
        s_z = kernel_series(params, z.real * z.real + z.imag * z.imag,
                            tol=series_tol, max_terms=max_terms)
        envelope = _KernelEnvelope(params, abs(z), f.sup_bound,
                                   s_z.log_magnitude)
        for depth in (_LOG_WINDOW_DECAY, _LOG_WINDOW):
            # the angular error and cap are per run, the node count is not
            avg.max_rel_err, avg.capped = 0.0, False

            def g_pair(r):
                sign, log_abs = avg.log_values(r)
                # fold the 1/S(|z|^2) normalization in here: the pair form
                # keeps kernel magnitudes far outside double range exact
                return sign, log_abs - s_z.log_magnitude

            x_lo, x_hi, log_out = envelope.window(depth)
            (t_sum,), (err_s,), (log_scale,), (converged,) = _DESum(
                g_pair, params.alpha, params.m, [1.0], tol_rel, max_levels,
                window=[(x_lo, x_hi)]).run()
            # the envelope's mass outside the window must be negligible
            held = (math.exp(min(log_out - log_scale, 700.0))
                    <= tol_rel * abs(t_sum))
            if held:
                break
    except NonConvergenceError:   # a series past max_terms: no value
        return QuadResult(math.nan, math.inf, avg.point_evals, False)
    log_norm = _normalization_log(params) + params.log_gamma_2m
    factor = math.exp(log_norm + log_scale)
    value = t_sum * factor
    # angular + normalization + node series, of which z = 0 sums none
    rel_extra = (avg.max_rel_err + s_z.truncation_error_bound
                 + (2.0 * series_tol if z else 0.0))
    converged = bool(converged) and held and not avg.capped
    err = (err_s * factor + abs(value) * rel_extra + math.exp(log_norm + log_out)
           if converged else math.inf)
    return QuadResult(value, err, avg.point_evals, converged)
