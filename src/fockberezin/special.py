"""Gamma machinery, Stieltjes moments, and the weighted-Fock kernel series.

The central object is the entire function

    S(zeta) = sum_{n>=0} zeta^n / s_n,      s_n = alpha^(-2n/m) * Gamma(2(n+1)/m),

whose diagonal values give the reproducing kernel of the weighted Fock space
with weight exp(-alpha |z|^m).  For m = 2 the series collapses to exp(alpha*zeta),
which the tests use as a closed-form anchor.

Alpha is a dilation, S_alpha(zeta) = S_1(alpha^(2/m) zeta).  So the moment
tables hold log Gamma(2(n+1)/m), one per m (moment_table), every series is
summed at log|zeta| + (2/m) log alpha (WeightParams.log_dilation), and only
stieltjes_moment puts alpha's power back into a moment.

Terms can span thousands of orders of magnitude, so all summation is done on a
log scale with a single rescale by the maximal term, and exponents are built by
cumulating the term-to-term log ratios outward from the peak (raw exponents of
size ~1e5 would lose the low bits that the scaled sum actually needs).

Every summation, scalar or grid, follows one stop rule: it ends at the first
n past the peak term where the geometric tail bound |a_n| rho_n / (1 - rho_n),
with rho_n = |a_{n+1} / a_n|, is at most tol * e^-8 relative to the peak term.
One walk (_walk) finds the peak and that stop for every summation.  One
chunk engine, CircleSeries, holds the scaled terms of every grid and every
circle: it sorts its radii by size and cuts them into chunks laid out
(radii, rows), with the rows of the chunk's largest radius, and tests the
rule only on the rows from the chunk's smallest peak on.  The grids sum
those terms, each radius at its own phase; the circles of the 2-D route
fold and transform them.

On the positive axis S is the Mittag-Leffler function E_{2/m,2/m}, whose
leading asymptotic term is exact up to terms exponentially small in the
continuous peak index x = alpha t^(m/2).  The real grid takes log S from
that term wherever a proven remainder bound meets the stop rule's own
threshold (_ml_switch), so every real grid value is a value of log S, not
a bound.  kernel_series, the complex grid and the circles always sum the
series, or raise NonConvergenceError where it needs more than max_terms
terms.  The same leading term gives the moments of 1/S against
r^p e^(-c r^m) as Gamma functions, under a proven bound
(_ml_inverse_moments).
"""

from __future__ import annotations

import cmath
import copy
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonConvergenceError

# Series controls (overridable per call).
DEFAULT_SERIES_TOL = 1e-13
DEFAULT_MAX_TERMS = 20000

# Box in which accuracy has been validated; see WeightParams.in_guaranteed_domain.
GUARANTEED_M = (0.5, 10.0)
GUARANTEED_ALPHA = (1e-3, 1e6)

_LN_2PI = math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

# Bernoulli coefficients B_{2k} / (2k (2k-1)) for the Stirling correction.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_STIRLING_CUT = 10.0  # below this, the C library's lgamma


def log_gamma(x):
    """log Gamma(x) for finite x > 0, scalar or ndarray, within
    _log_gamma_error; raises ValueError elsewhere.  Each entry's bits depend
    on its own x alone, so a scalar and every batch give the same bits."""
    if isinstance(x, np.ndarray):
        return _log_gamma_array(x)
    return float(_log_gamma_array(np.array([float(x)]))[0])


def _log_gamma_array(x):
    x = np.asarray(x, dtype=float)
    if x.size and not np.all((x > 0.0) & (x < math.inf)):
        raise ValueError("log_gamma requires finite x > 0")
    out = np.empty_like(x)
    small = x < _STIRLING_CUT
    out[small] = [math.lgamma(v) for v in x[small].tolist()]
    y = x[~small]
    z = 1.0 / (y * y)
    corr = np.full_like(y, _STIRLING_COEFFS[-1])
    for c in _STIRLING_COEFFS[-2::-1]:
        corr = corr * z + c
    out[~small] = (y - 0.5) * np.log(y) - y + 0.5 * _LN_2PI + corr / y
    return out


def _log_gamma_error(x, lg):
    """Bound on |lg - log Gamma(x)| for lg = _log_gamma_array(x).  Against
    mpmath (TestLogGamma) it holds with a margin of 2x below the cut, where
    lgamma errs by at most 20 eps, and of 1.16x from the cut on."""
    return _EPS * (2.0 * (np.abs(lg) + x) + 8.0)


@dataclass(frozen=True)
class WeightParams:
    """The pair (alpha, m) defining the weight exp(-alpha |z|^m)."""

    alpha: float
    m: float

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)
                and self.alpha > 0):
            raise ValueError(f"alpha must be a finite positive real, got {self.alpha!r}")
        if not (isinstance(self.m, (int, float)) and math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"m must be a finite positive real, got {self.m!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "m", float(self.m))

    @property
    def in_guaranteed_domain(self):
        """True inside the box where accuracy has been validated.

        Outside it every operation still runs, but results carry no accuracy
        guarantee and callers should treat them as exploratory.
        """
        return (GUARANTEED_M[0] <= self.m <= GUARANTEED_M[1]
                and GUARANTEED_ALPHA[0] <= self.alpha <= GUARANTEED_ALPHA[1])

    @cached_property
    def log_alpha(self):
        return math.log(self.alpha)

    @cached_property
    def log_dilation(self):
        """(2/m) log alpha: S_alpha(zeta) = S_1(alpha^(2/m) zeta)."""
        return (2.0 / self.m) * self.log_alpha

    @cached_property
    def log_gamma_2m(self):
        """log Gamma(2/m), the kernel normalization constant: log s_0."""
        return moment_table(self.m).log_moment(0)


class MomentTable:
    """Append-only table of log Gamma(2(n+1)/m), the log s_n of alpha = 1,
    shared by every alpha of one m; entries never change once set.

    Thread-safe: growth happens under a lock and readers only ever see fully
    materialized prefixes (stale array references stay valid because a grow
    allocates a fresh buffer).
    """

    _GROW = 256

    def __init__(self, m: float):
        self.m = float(m)
        self._log_s = np.empty(0)
        self._count = 0
        self._lock = threading.Lock()

    def __len__(self):
        return self._count

    def log_moments(self, count):
        """log Gamma(2(n+1)/m) for n = 0 .. count-1, a read-only view."""
        if count > self._count:
            self._materialize(count)
        view = self._log_s[:count]
        view.flags.writeable = False
        return view

    def log_moment(self, n):
        if n < 0:
            raise ValueError(f"moment index must be >= 0, got {n}")
        return float(self.log_moments(n + 1)[n])

    def _materialize(self, count):
        with self._lock:
            if count <= self._count:
                return
            new_len = max(count, self._count + self._GROW, 2 * self._count)
            n = np.arange(self._count, new_len, dtype=float)
            fresh = _log_gamma_array(2.0 * (n + 1.0) / self.m)
            buf = np.empty(new_len)
            buf[: self._count] = self._log_s[: self._count]
            buf[self._count:] = fresh
            self._log_s = buf
            self._count = new_len


# Live tables, one per m: the least recently used is dropped past this many.
# Entries are pure functions of (m, n), so a rebuilt table gives the same bits.
_TABLES_MAX = 64
_TABLES: OrderedDict[float, MomentTable] = OrderedDict()
_TABLES_LOCK = threading.Lock()


def moment_table(m: float) -> MomentTable:
    """Shared per-m table of log Gamma(2(n+1)/m), kept for the _TABLES_MAX
    most recently used m; every alpha of one m reads the same table."""
    m = float(m)
    with _TABLES_LOCK:
        tab = _TABLES.get(m)
        if tab is None:
            tab = _TABLES[m] = MomentTable(m)
            if len(_TABLES) > _TABLES_MAX:
                _TABLES.popitem(last=False)
        else:
            _TABLES.move_to_end(m)
    return tab


def stieltjes_moment(params: WeightParams, n: int) -> float:
    """log s_n(alpha, m) = -(2n/m) log alpha + log Gamma(2(n+1)/m), memoized."""
    if not float(n).is_integer():
        raise ValueError(f"moment index must be an integer, got {n!r}")
    log_gamma_q = moment_table(params.m).log_moment(int(n))
    return -(2.0 * n / params.m) * params.log_alpha + log_gamma_q


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation in split log-magnitude / phase form.

    phase_or_sign is a unit complex number, or +-1.0 for real input.  The
    linear value is phase_or_sign * exp(log_magnitude) and may overflow to inf
    when the magnitude genuinely exceeds float range.
    """

    log_magnitude: float
    phase_or_sign: complex | float
    truncation_terms: int
    truncation_error_bound: float

    @property
    def value(self):
        try:
            mag = math.exp(self.log_magnitude)
        except OverflowError:
            mag = math.inf
        return self.phase_or_sign * mag


# The stop rule of every summation here.  The dropped tail is at most
# tol * e^-8 of the peak term, 3.4e-17 at the default tol, under a third of
# the unit roundoff, so it seldom moves the rounded sum.  A looser margin
# does: the m=2 series at alpha = zeta = 1 (pinned by the CLI test of
# `fockberezin kernel`) gives exp(1) correctly rounded with e^-7 or e^-8,
# and one ulp low with e^-4 or e^-6.
_STOP_MARGIN = 8.0


def _tail_small(e, d, ln_tol):
    """True where the terms after a_n are negligible: their geometric bound
    |a_n| rho_n / (1 - rho_n), relative to the peak term, is at most
    tol * e^-_STOP_MARGIN.  e = log|a_n / a_peak| and d = log rho_n =
    log|a_{n+1} / a_n|, which falls with n (log Gamma is convex), so the
    bound holds; before the peak rho_n >= 1 and the result is False."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return e - np.log(np.expm1(-d)) <= ln_tol - _STOP_MARGIN


def _walk(log_abs_z, table, ln_tol, max_terms):
    """The peak, the stop and the moment-log differences of the series at
    alpha = 1 with log|zeta| = log_abs_z: returns (peak, stop, dlog_s),
    dlog_s[n] = log s_(n+1) - log s_n for n = 0 .. at least stop.

    The term ratio |a_(n+1) / a_n| is log_abs_z - dlog_s[n] in log form,
    falling in n because log Gamma is convex; the peak is the first n where
    it is <= 0, and the stop the first n from the peak on that meets
    _tail_small (max_terms if none before it does).  The window of rows
    doubles from 64 until it holds the peak, asking the moment table for
    twice the window when it outgrows its view; then the stop is sought in
    a window that reaches first to 2 peak + 64, at most as far as the
    table already holds, and then doubles.  max_terms caps every window,
    and a peak past it raises NonConvergenceError."""
    log_s = table.log_moments(66)
    end = 64
    while True:
        end = min(end, max_terms)
        if end + 2 > len(log_s):
            log_s = table.log_moments(min(2 * (end + 2), max_terms + 2))
        past = np.diff(log_s[: end + 2]) >= log_abs_z
        peak = int(np.argmax(past))
        if past[peak]:
            break
        if end >= max_terms:
            raise NonConvergenceError(
                f"kernel series: term magnitudes still growing after {max_terms} terms")
        end *= 2
    end = min(2 * peak + 64, len(table) - 2)
    while True:
        end = min(end, max_terms)
        if end + 2 > len(log_s):
            log_s = table.log_moments(end + 2)
        dlog_s = np.diff(log_s[: end + 2])
        d = log_abs_z - dlog_s[peak:]  # n = peak .. end
        e = np.concatenate(([0.0], np.cumsum(d[:-1])))
        ok = _tail_small(e, d, ln_tol)
        i = int(np.argmax(ok))
        if ok[i]:
            return peak, peak + i, dlog_s
        if end >= max_terms:
            return peak, max_terms, dlog_s
        end *= 2


def _scaled_sum_error(params, log_abs_z, theta, log_s, peak, exps, scaled):
    """Absolute rounding error bound of the scaled sum sum_n t_n e^(i n theta).

    A running error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4): sum_n |t_n| r_n, where r_n bounds the relative
    error of the computed term t_n.  It is a first-order model that counts
    each rounding at half an ulp of the operand it acts on; r_n collects
      * n log|alpha^(2/m) zeta|: log|zeta| is rounded once and enters n
        times, its product with the peak index is rounded once, and the
        dilation (2/m) log alpha adds half an ulp of itself per index;
      * the moment table's error in log Gamma(2(n+1)/m): half an ulp, and
        16 eps below the Stirling cut, where the table takes lgamma
        (against mpmath, at most 0.91 of this figure there).  The roundings
        inside the Stirling sum are independent from one n to the next and
        average out over the terms that dominate the sum, so they are not
        counted term by term;
      * the exponent cumulated from the peak over d = |n - peak| steps,
        each of size at most |e_n| (the exponents are unimodal);
      * the phase n theta (theta = 0 for real input, whose signs are
        exact), exp, the products and the compensated sum: eps (n |theta| + 4).
    Since every term carries its own error, cancellation in the sum
    cannot hide it: the bound stays at the scale of sum_n |t_n|.  The model
    is checked against mpmath references in the test suite.
    """
    idx = np.arange(len(exps), dtype=float)
    steps = np.abs(idx - peak)
    abs_e = np.abs(exps)
    rel = (idx * (abs(log_abs_z) + abs(theta) + 0.5 * abs(params.log_dilation))
           + 0.5 * np.abs(log_s[: len(exps)])
           + 0.5 * steps * (abs(log_abs_z) + abs_e) + abs_e
           + 20.0)
    return _EPS * float(np.dot(scaled, rel))


def kernel_series(params: WeightParams, zeta, *, tol=DEFAULT_SERIES_TOL,
                  max_terms=DEFAULT_MAX_TERMS) -> SeriesValue:
    """Evaluate S(zeta) = sum zeta^n / s_n with a relative error bound.

    Sums up to the first n past the peak term where the geometric tail
    bound |a_n| rho_n / (1 - rho_n), relative to the peak term, is at most
    tol * e^-8 (see _tail_small); raises NonConvergenceError (carrying the
    partial value) if max_terms is hit first.

    truncation_error_bound covers the truncated tail and the rounding of
    the terms (see _scaled_sum_error) and of the log-magnitude.  Where the
    terms cancel, their rounding error is amplified by the condition number
    sum|terms| / |sum|; once it reaches the size of the computed sum, the
    sum cannot be told from zero and the bound is inf.
    """
    zeta = zeta if isinstance(zeta, complex) else float(zeta)
    if not cmath.isfinite(zeta):
        raise ValueError("zeta must be finite")
    abs_z = abs(zeta)
    theta = cmath.phase(zeta) if zeta.imag != 0.0 or zeta.real < 0.0 else 0.0

    table = moment_table(params.m)

    if abs_z == 0.0:
        return SeriesValue(-table.log_moment(0), 1.0, 1, 4.0 * _EPS)

    log_abs_z = math.log(abs_z)
    log_w = log_abs_z + params.log_dilation   # log|alpha^(2/m) zeta|
    peak, n_stop, dlog_s = _walk(log_w, table, math.log(tol), max_terms)
    log_s = table.log_moments(n_stop + 1)

    # exponents log|a_n / a_peak|, cumulated outward from the peak
    dl = log_w - dlog_s[:n_stop]
    exps = np.zeros(n_stop + 1)
    exps[peak + 1:] = np.cumsum(dl[peak:])
    exps[:peak][::-1] = -np.cumsum(dl[:peak][::-1])
    scaled = np.exp(exps)
    real_input = theta == 0.0 or theta == math.pi

    if theta == 0.0:
        terms = scaled
    elif theta == math.pi:
        terms = scaled.copy()
        terms[1::2] = -terms[1::2]
    else:
        terms = scaled * np.exp(1j * (theta * np.arange(n_stop + 1)))

    total = (math.fsum(terms) if real_input
             else complex(math.fsum(terms.real), math.fsum(terms.imag)))
    abs_total = abs(total)

    ratio = math.exp(log_w - dlog_s[n_stop])
    if abs_total == 0.0:
        # fully cancelled at working precision
        bound = math.inf
        log_mag = -math.inf
        phase = 1.0
    else:
        log_anchor = peak * log_w - float(log_s[peak])
        log_mag = log_anchor + math.log(abs_total)
        phase = total / abs_total if not real_input else math.copysign(1.0, total)
        tail = (float(scaled[n_stop]) * ratio / (1.0 - ratio) if ratio < 1.0
                else math.inf)
        err_abs = _scaled_sum_error(params, log_abs_z, 0.0 if real_input else theta,
                                    log_s, peak, exps, scaled) + tail
        if err_abs >= abs_total:
            # the computed sum cannot be told from zero: no relative accuracy
            bound = math.inf
        else:
            # plus the two roundings that form log_mag from the scaled sum
            bound = err_abs / (abs_total - err_abs) + 0.5 * _EPS * (
                abs(log_anchor) + abs(log_mag))

    result = SeriesValue(log_mag, phase, n_stop + 1, bound)
    if n_stop >= max_terms:
        raise NonConvergenceError(
            f"kernel series did not meet tol={tol} within {max_terms} terms",
            partial=result, error_bound=bound)
    return result


def reproducing_kernel(params: WeightParams, z: complex, w: complex, *,
                       tol=DEFAULT_SERIES_TOL, max_terms=DEFAULT_MAX_TERMS) -> SeriesValue:
    """K(z, w) = Gamma(2/m) * S(z * conj(w)), in log-scaled form.

    Hermitian symmetry K(z, w) = conj(K(w, z)) holds exactly: swapping the
    arguments conjugates zeta and the series phases are odd in arg(zeta).
    """
    zeta = complex(z) * complex(w).conjugate()
    if zeta.imag == 0.0:
        zeta = zeta.real
    s = kernel_series(params, zeta, tol=tol, max_terms=max_terms)
    return SeriesValue(s.log_magnitude + params.log_gamma_2m, s.phase_or_sign,
                       s.truncation_terms, s.truncation_error_bound)


# ---------------------------------------------------------------------------
# The Mittag-Leffler branch of log S on the positive axis.
# ---------------------------------------------------------------------------

# S(t) = E_{a,a}(y) with a = 2/m and y = alpha^a t, a Mittag-Leffler function.
# From its Hankel form E_{a,a}(y) = (1/2 pi i) int e^u / (u^a - y) du, with
# the contour deformed onto the rays arg u = +-theta, theta in (pi/2, pi),
#
#     S = (1/a) sum_{|2 pi k / a| < theta} u_k^(1-a) e^(u_k) + R,
#     u_k = x e^(2 pi i k / a),   x = y^(1/a) = alpha t^(m/2),
#     |R| <= 1 / (pi |cos theta| y c),   c = |sin a theta| if cos a theta > 0,
#                                        else 1
#
# (Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions, Springer
# 2014, ch. 4; Podlubny, Fractional Differential Equations, 1999, Thms
# 1.3-1.4).  Relative to the leading term k = 0, (1/a) x^(1-a) e^x, the
# terms k != 0 are at most e^(-x (1 - cos(2 pi k / a))) each and R at most
# coef e^-x / x with coef = a / (pi |cos theta| c).


@lru_cache(maxsize=64)
def _ml_contour(m):
    """(theta, ks, coef) of the remainder bound above for a = 2/m: the ray
    angle, the k >= 1 whose poles u_(+-k) lie inside the rays, and coef.
    theta minimizes the bound at x = _STOP_MARGIN - log(DEFAULT_SERIES_TOL),
    about where it meets the stop rule at the default tolerance; the bound
    holds for any theta, so the choice moves only the switch point."""
    a = 2.0 / m
    x_ref = _STOP_MARGIN - math.log(DEFAULT_SERIES_TOL)
    best = (math.inf,)
    for i in range(1, 257):
        theta = 0.5 * math.pi * (1.0 + i / 257.0)
        c = abs(math.sin(a * theta)) if math.cos(a * theta) > 0.0 else 1.0
        coef = a / (math.pi * abs(math.cos(theta)) * c)
        ks = tuple(range(1, math.ceil(a * theta / (2.0 * math.pi))))
        bound = _ml_rel_bound(a, ks, coef, x_ref)
        if bound < best[0]:
            best = (bound, theta, ks, coef)
    return best[1:]


def _ml_rel_bound(a, ks, coef, x):
    """Bound on |S - leading| / leading at x: the poles k != 0 inside the
    rays, in pairs, and the ray integral R."""
    osc = sum(2.0 * math.exp(-x * (1.0 - math.cos(2.0 * math.pi * k / a)))
              for k in ks)
    return osc + coef * math.exp(-x) / x


@lru_cache(maxsize=256)
def _ml_switch(m, tol):
    """The smallest x = alpha t^(m/2), to within bisection, from which the
    leading term gives S within tol * e^-_STOP_MARGIN relative, the stop
    rule's threshold; the bound falls with x, so it holds on all x past it."""
    _, ks, coef = _ml_contour(m)
    a = 2.0 / m
    target = tol * math.exp(-_STOP_MARGIN)
    lo, hi = 0.0, 1.0
    while _ml_rel_bound(a, ks, coef, hi) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _ml_rel_bound(a, ks, coef, mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _ml_log(m, x):
    """log of the leading term (1/a) x^(1-a) e^x, a = 2/m, for an array of
    x = alpha t^(m/2) (inf where x overflows)."""
    a = 2.0 / m
    with np.errstate(invalid="ignore"):
        small = (1.0 - a) * np.log(x) - math.log(a)
    return np.where(np.isfinite(x), x + small, np.inf)


def _log_lower_gamma_bound(s, y):
    """log of a bound on the lower incomplete gamma function gamma(s, y) =
    int_0^y t^(s-1) e^-t dt, for arrays s > 0 and y > 0: its series
    y^s e^-y sum_k y^k / (s (s+1) ... (s+k)) under the geometric one,
    y^s e^-y / (s (1 - y/(s+1))) where y < s + 1, and inf elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = s * np.log(y) - y - np.log(s) - np.log1p(-y / (s + 1.0))
    return np.where(y < s + 1.0, out, np.inf)


# The moments I(q) = int_0^inf r^(m q - 1) e^(-c r^m) / S(r^2) dr in closed
# form.  With 1/S replaced by the reciprocal of the leading term,
# a x^(a-1) e^-x at x = alpha r^m, the integral is a Gamma function:
#
#     J = (a/m) alpha^(a-1) (alpha + c)^(-s) Gamma(s),   s = q + a - 1 > 0.
#
# Past x_sw = _ml_switch(m, tol), |S - leading| <= b leading with b the
# remainder bound there, so |1/S - 1/leading| <= b/(1-b) / leading.  Below
# x_sw, 1/S <= 1/S(0) = Gamma(a) and the two integrands are positive, so
# the rest of |I - J| is at most the two lower pieces
#
#     L_true  <= Gamma(a) c^(-q) gamma(q, c x_sw / alpha) / m,
#     L_model  = (a/m) alpha^(a-1) (alpha + c)^(-s) gamma(s, y),
#
# y = (alpha + c) x_sw / alpha, with gamma(s, y) the lower incomplete gamma
# function (bounded by _log_lower_gamma_bound).
#
# Hence |I - J| / J <= b/(1-b) + (L_true + L_model) / J.

def _ml_inverse_moments(params: WeightParams, c, q, tol):
    """log J and the bounds on the moments I(q) of 1/S above, for an
    array q of positive exponents: returns (log J, rel, rounding), where
    |I - J| <= rel J is the proven bound (inf where s <= 0) and rounding
    bounds the absolute error of log J in doubles.  The bound holds for
    the same tol at which log_series_grid switches to _ml_log."""
    m, alpha = params.m, params.alpha
    a = 2.0 / m
    s = q + (a - 1.0)
    ok = s > 0.0
    s = np.where(ok, s, 1.0)
    x_sw = _ml_switch(m, tol)
    _, ks, coef = _ml_contour(m)
    b = _ml_rel_bound(a, ks, coef, x_sw)
    log_ac = math.log(alpha + c)
    lg_s = _log_gamma_array(s)
    log_pref = math.log(a / m) + (a - 1.0) * params.log_alpha
    log_j = log_pref - s * log_ac + lg_s
    log_true = (params.log_gamma_2m - math.log(m) - q * math.log(c)
                + _log_lower_gamma_bound(q, c * x_sw / alpha))
    log_model = _log_lower_gamma_bound(s, (alpha + c) * x_sw / alpha) - lg_s
    with np.errstate(over="ignore"):
        rel = b / (1.0 - b) + np.exp(log_true - log_j) + np.exp(log_model)
    # in ulps: one of each operand of the sum; 3 s |log(alpha + c)| + 2 s
    # for log(alpha + c), its product with s and the rounding of alpha + c;
    # s (|log s| + |log(alpha + c)|) + s + 1 for one ulp of s itself, whose
    # slope in log J is psi(s) - log(alpha + c); and _log_gamma_error
    rounding = _log_gamma_error(s, lg_s) + _EPS * (
        abs(log_pref) + s * (4.0 * abs(log_ac) + np.abs(np.log(s)) + 3.0)
        + np.abs(lg_s) + 1.0 + np.abs(log_j))
    return log_j, np.where(ok, rel, np.inf), rounding


# ---------------------------------------------------------------------------
# Batched evaluation on grids: t >= 0 (the quadrature fast path), complex
# zeta, and the circles of the 2-D Berezin path, all by one chunk engine
# (CircleSeries).
# ---------------------------------------------------------------------------

def log_series_grid(params: WeightParams, t, *, tol=DEFAULT_SERIES_TOL,
                    max_terms=DEFAULT_MAX_TERMS):
    """log S(t) for an array of t >= 0.

    An entry whose continuous peak index x = alpha t^(m/2) reaches
    _ml_switch(m, tol) gets the log of the Mittag-Leffler leading term
    (_ml_log), within tol * e^-_STOP_MARGIN relative of S by a proven
    bound.  Every other entry is summed on the positive axis by the chunk
    engine (CircleSeries.log_abs), so each value is independent of the
    batch.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all() or (t < 0.0).any():
        raise ValueError("grid arguments must be finite and >= 0")
    with np.errstate(over="ignore"):
        x = params.alpha * np.power(t, params.m / 2.0)
    closed = x >= _ml_switch(params.m, tol)
    out = CircleSeries(params, np.where(closed, 0.0, t).ravel(), tol=tol,
                       max_terms=max_terms).log_abs()
    out[closed.ravel()] = _ml_log(params.m, x[closed])
    return out.reshape(t.shape)


def series_abs2_grid(params: WeightParams, zeta, *, tol=DEFAULT_SERIES_TOL,
                     max_terms=DEFAULT_MAX_TERMS):
    """log |S(zeta)|^2 for an array of complex zeta.

    Each entry's terms are twisted by its own phase and summed directly
    (CircleSeries.log_abs), with no fold or FFT, so this is an independent
    reference for CircleSeries.log_abs2.  Accuracy is relative to the
    largest term, which is the natural scale when the values multiply an
    exponentially small weight.
    """
    zeta = np.asarray(zeta, dtype=complex)
    flat = zeta.ravel()
    circles = CircleSeries(params, np.abs(flat), tol=tol, max_terms=max_terms)
    return 2.0 * circles.log_abs(np.angle(flat)).reshape(zeta.shape)


_GRID_CHUNK = 256
_ABS2_FLOOR = (8.0 * _EPS) ** 2  # rounding noise of a scaled complex sum


def _chunk_terms(table, log_t, ln_tol, max_terms):
    """The scaled exponents of a chunk of entries, log|z| = log_t at alpha = 1.

    The rows n = 0..n_last run to the stop of the chunk's largest entry.
    Returns (n, e, peak_log, stop): the row indices, shape (rows,);
    e[j, n] = log|a_n| - peak_log[j], shape (entries, rows), with
    peak_log[j] the log of entry j's peak term; and stop[j], the first row
    where entry j meets _tail_small.  The rule is tested only from the
    smallest entry's peak on, the first row n with s_(n+1) / s_n >= min |z|
    (the comparison of _walk): earlier rows precede every entry's peak,
    where the rule is False.
    """
    _, n_last, dlog_s = _walk(float(log_t.max()), table, ln_tol, max_terms)
    if n_last >= max_terms:
        raise NonConvergenceError(
            f"grid series needs more than {max_terms} terms")
    n = np.arange(n_last + 1)
    e = np.multiply.outer(log_t, n)
    e -= table.log_moments(n_last + 1)
    peak_log = e.max(axis=1)
    e -= peak_log[:, None]
    dlog_s = dlog_s[: n_last + 1]
    first = int(np.argmax(dlog_s >= log_t.min()))
    ok = _tail_small(e[:, first:], np.subtract.outer(log_t, dlog_s[first:]),
                     ln_tol)
    if not ok.any(axis=1).all():
        # the stop is monotone in |z|, so only rounding at the edge of
        # the rule can get here; summing short would be silently wrong
        raise RuntimeError("grid series: an entry stops past the rows "
                           "set by the largest entry of its chunk")
    return n, e, peak_log, first + ok.argmax(axis=1)


class CircleSeries:
    """The scaled series terms of an array of radii s >= 0: the engine of
    every grid and every circle.

    The nonzero radii are sorted by size and cut into chunks of at most
    _GRID_CHUNK, so that radii of about the same size share a chunk's rows,
    which run to the stop of the chunk's largest radius (_chunk_terms).  A
    chunk is laid out (radii, rows): each radius's terms a_n s^n, rescaled
    by its own peak term, are contiguous and zeroed past its own stop under
    _tail_small, so each radius's values do not depend on its batch mates.
    A chunk whose largest radius does not stop within max_terms raises
    NonConvergenceError.  s = 0, where a node radius underflows and on
    every circle at z = 0, gets the constant log|S(0)| with no series.

    log_abs sums each radius's terms at its own phase, or on the positive
    axis.  log_abs2 gives log|S|^2 on equispaced nodes of each circle
    |zeta| = s by one FFT: on zeta_k = s e^(i (phase - 2 pi k / N)),
    k = 0..N-1,

        S(zeta_k) = sum_j c_j e^(-2 pi i j k / N),
        c_j = sum_{n = j mod N} a_n s^n e^(i n phase),

    a length-N DFT of the terms twisted by e^(i n phase) and folded mod N.
    select keeps a subset of the circles, and log_abs2 then twists, folds
    and transforms only theirs.  Every complex |S|^2 is floored at
    _ABS2_FLOOR times the squared peak term.  log_mean_abs2 gives the mean
    of |S|^2 over each whole circle, sum_n (a_n s^n)^2 by Parseval.
    """

    def __init__(self, params: WeightParams, s, *, tol=DEFAULT_SERIES_TOL,
                 max_terms=DEFAULT_MAX_TERMS):
        s = np.asarray(s, dtype=float)
        if s.ndim != 1:
            raise ValueError("circle radii must be a 1-D array")
        todo = np.flatnonzero(s)
        todo = todo[np.argsort(s[todo], kind="stable")]
        # sorted, the ends bound every radius: negatives sort first, NaN last
        if todo.size and not 0.0 < s[todo[0]] <= s[todo[-1]] < math.inf:
            raise ValueError("circle radii must be finite and >= 0")
        table = moment_table(params.m)
        self.size = s.size
        self.zero_log_abs = -table.log_moment(0)   # log S(0), for s = 0
        ln_tol = math.log(tol)
        self.chunks = []   # (radius indices, terms (radii, rows), peak_log)
        for start in range(0, todo.size, _GRID_CHUNK):
            idx = todo[start: start + _GRID_CHUNK]
            n, e, peak_log, stop = _chunk_terms(
                table, np.log(s[idx]) + params.log_dilation, ln_tol, max_terms)
            # each radius's terms to its own stop, zeros past it
            terms = np.zeros(e.shape)
            np.exp(e, out=terms, where=n <= stop[:, None])
            self.chunks.append((idx, terms, peak_log))

    def select(self, keep):
        """The circles where the boolean mask keep is True, in their order."""
        new = copy.copy(self)
        at = np.cumsum(keep) - 1   # each kept circle's index in new
        new.size = int(np.count_nonzero(keep))
        new.chunks = []
        for idx, terms, peak_log in self.chunks:
            k = keep[idx]
            if k.all():
                new.chunks.append((at[idx], terms, peak_log))
            elif k.any():
                new.chunks.append((at[idx[k]], terms[k], peak_log[k]))
        return new

    def log_abs(self, phase=None):
        """log|S(s e^(i phase))| for each radius s, phase an array of one
        angle per radius; log S(s) on the positive axis when phase is None.
        The terms are summed in index order (np.cumsum; a pairwise sum would
        change its bits with the chunk's row count)."""
        out = np.full(self.size, self.zero_log_abs)
        for idx, terms, peak_log in self.chunks:
            if phase is None:
                log_sum = np.log(np.cumsum(terms, axis=1)[:, -1])
            else:
                n = np.arange(terms.shape[1])
                tot = np.cumsum(terms * np.exp(1j * np.multiply.outer(
                    phase[idx], n)), axis=1)[:, -1]
                log_sum = 0.5 * np.log(np.maximum(
                    tot.real * tot.real + tot.imag * tot.imag, _ABS2_FLOOR))
            out[idx] = peak_log + log_sum
        return out

    def log_mean_abs2(self):
        """log of the mean of |S|^2 over each circle |zeta| = s, and the
        most rows of any chunk.  By Parseval the mean is sum_n (a_n s^n)^2,
        summed in index order as in log_abs, so it rounds within
        (rows + 2) eps relative."""
        out = np.full(self.size, 2.0 * self.zero_log_abs)
        rows = 0
        for idx, terms, peak_log in self.chunks:
            rows = max(rows, terms.shape[1])
            out[idx] = 2.0 * peak_log + np.log(
                np.cumsum(terms * terms, axis=1)[:, -1])
        return out, rows

    def log_abs2(self, phase, n_nodes):
        """log|S(s e^(i (phase - 2 pi k / n_nodes)))|^2, shape (radii, n_nodes)."""
        out = np.full((self.size, n_nodes), 2.0 * self.zero_log_abs)
        for idx, terms, peak_log in self.chunks:
            rows = terms.shape[1]
            twisted = terms * np.exp(1j * (phase * np.arange(rows)))
            folded = twisted[:, :n_nodes]
            for b in range(n_nodes, rows, n_nodes):
                folded[:, : rows - b] += twisted[:, b: b + n_nodes]
            tot = np.fft.fft(folded, n=n_nodes, axis=1)
            out[idx] = 2.0 * peak_log[:, None] + np.log(np.maximum(
                tot.real * tot.real + tot.imag * tot.imag, _ABS2_FLOOR))
        return out
