"""Adaptive integration of r^power * g(r) * exp(-c r^m) over [0, inf).

Strategy: substitute u = c r^m, which turns the weight into e^-u and exposes
the Gamma-type factor u^{q-1} with q = (power+1)/m, then run exp-sinh
double-exponential quadrature in u with level doubling.  The substitution
makes one scheme serve every decay exponent m, and the exp-sinh map absorbs
the integrable endpoint behaviour at u -> 0 for q < 1 without special cases.

The transformed integrand is summed on a log scale relative to its running
peak, so the same engine serves integrals whose magnitude is far outside
double range (callers needing those use integrate_radial_log).

One engine (_DESum) runs every exp-sinh integral and returns every error
estimate, rounding floors included, and inf for a power that does not
converge.  It integrates a ladder of powers at once: the nodes do not
depend on the power, so g is evaluated once per level for all of them (the
U(n) of one weight pair are such a ladder), and once for the first two
levels of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .special import log_gamma

DEFAULT_QUAD_TOL_REL = 1e-12
DEFAULT_MAX_LEVELS = 12

_A = math.pi / 2.0     # exp-sinh steepness
_H0 = 0.5              # level 0's mesh in the transformed variable: level
                       # L has h = _H0 / 2^L, and max_levels counts from it
_FIRST_LEVEL = 2       # a run's first sum is on h = 1/8, all its nodes in the
                       # first call of g, with level 3's odd nodes
_LOG_WINDOW = 760.0    # keep nodes whose integrand is within e^-760 of the peak
_LOG_WINDOW_DECAY = 100.0   # the same, for a window from a known decay
_EPS = float(np.finfo(float).eps)
_TINY = np.finfo(float).tiny   # below this a value has lost precision
_FLOOR_ULPS = 16.0     # a row's rounding floor, in eps of sum_k h |t_k| E_k


@dataclass
class QuadResult:
    """Value, absolute error estimate, evaluation count, convergence flag."""

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self):
        self.value = float(self.value)
        self.abs_error_estimate = float(self.abs_error_estimate)
        self.evaluations = int(self.evaluations)
        self.converged = bool(self.converged)


@dataclass
class RadialSymbol:
    """A bounded symbol given as a callable on the radius r >= 0.

    eval_array, when provided, must evaluate a whole numpy array of radii;
    otherwise the scalar callable is mapped elementwise.  The declared sup
    bound is spot-checked on every quadrature node batch.

    eval_log, when provided, gives a positive symbol in log form: log g
    for an array of radii.  The quadrature uses it at the nodes where the
    values have left the normal double range, so that a symbol far below
    it still weighs a large power of r exactly.
    """

    eval: Callable[[float], float]
    sup_bound: float
    eval_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eval_log: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def values(self, r: np.ndarray) -> np.ndarray:
        if self.eval_array is not None:
            return np.asarray(self.eval_array(r), dtype=float)
        return np.fromiter((self.eval(float(x)) for x in r), dtype=float,
                           count=len(r))


def unit_symbol() -> RadialSymbol:
    return RadialSymbol(lambda r: 1.0, 1.0, eval_array=lambda r: np.ones_like(r))


# Cached: U ladders ask for the same q again and again (10 scan sweeps: 1,842
# distinct q in 84,640 calls).  Bounded: callers may pass any power.
@lru_cache(maxsize=4096)
def _u_window(q, width):
    """x-range (x = log u) outside which u^q e^-u is below e^-width of its
    peak value q^q e^-q."""
    x_lo = (q * (math.log(q) - 1.0) - width) / q - 2.0 / q
    # right edge: solve u - q log u = width + q - q log q
    rhs = width + q - q * math.log(q)
    u = width + 2.0 * q + 10.0
    for _ in range(6):
        u = rhs + q * math.log(u)
    x_hi = min(math.log(u), 708.0)
    return x_lo, x_hi


# The scale of a row that has seen no term yet: below every term's log, and
# finite, so that rescaling it needs no special case.
_NO_TERM = -1e300


class _DESum:
    """Exp-sinh trapezoid sums of one integrand against a ladder of powers,
    with level doubling and a running log rescale per power.

    Row j sums the transformed integrand of u^(q_j - 1) e^-u g(r(u)).  The
    nodes x_k = A sinh(k h) of a level do not depend on q (Takahasi & Mori,
    1974), so g_pair, which maps an array of radii to (sign, log|g|) so
    that factors far outside double range never appear in linear form, runs
    once per level on the nodes spanning the windows of the rows still
    refining; the windows of the U(n) of one block overlap, so
    that span is their union.  Each row counts the nodes outside its own
    window as exact zeros (one broadcast compare masks them for all rows).
    The rows' rescales, sums, errors and stop tests (_tolerance) are array
    operations over the rows still refining, the same for one row as for a
    block; a row stops refining once it converges.

    A run starts at level _FIRST_LEVEL (h = _H0/4 = 1/8), on every node k/8
    inside the windows, the nodes of levels 0, 1 and 2 together: no stop
    rule can read before level 3, the first level with a predecessor, so
    passes at those levels would only cost calls of g.  The same call of g
    takes level 3's odd nodes k/16 too, since every run reaches level 3
    (max_levels > _FIRST_LEVEL); each of the two levels then sums its own
    slice of the call, as if it had made its own.  Each later level
    evaluates g on its odd nodes only.

    A caller that knows how its integrand decays passes each row's window,
    (x_lo, x_hi) in x = log u.  Otherwise each window reaches e^-_LOG_WINDOW
    below the peak of u^q e^-u (_u_window), so that g may be down to about
    e^-720 at the mass.  The engine keeps no model of g.

    Each term's exp() carries about E_k ulps, E_k = |q x_k| + u_k + |log
    g_k| + |log w_k| the absolute size of node k's exponent, so eps sum_k h
    |t_k| E_k is a row's rounding floor.  One rule stops every row: from
    level 3 on, a row converges once its level-to-level difference is at
    most max(tol_rel |t|, _FLOOR_ULPS eps sum_k h |t_k| E_k), its relative
    tolerance or its own rounding floor, below which no further level can
    take it.  The rule reads only the row's own sums, so it does not depend
    on the units of the integral.  A row that meets neither by max_levels
    stops unconverged, and its error is inf.

    A row's integral is t_sum exp(log_scale): its running scale plus the
    prefactor log_pref = -log m - q log c of u = c r^m.  Its error is at
    least eps (14 a + s), a and s the sums of h |t_k| and h |t_k| E_k, for
    the rounding of the sums and of each exp(), and eps (8 a + |log_scale|
    |t_sum|) for that of the final exp().  evals counts the evaluations of g.
    """

    def __init__(self, g_pair, c, m, powers, tol_rel, max_levels,
                 window=None):
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError(f"decay scale c must be positive and finite, got {c!r}")
        if not (m > 0.0 and math.isfinite(m)):
            raise ValueError(f"exponent m must be positive and finite, got {m!r}")
        powers = np.asarray(powers, dtype=float)
        bad = powers[~((powers >= 0.0) & (powers < math.inf))]
        if bad.size:
            raise ValueError(f"power must be finite and >= 0, got {float(bad[0])!r}")
        if not 0.0 < tol_rel < math.inf:
            raise ValueError(f"tol_rel must be finite and > 0, got {tol_rel!r}")
        if max_levels <= _FIRST_LEVEL:
            raise ValueError(
                f"max_levels must be >= {_FIRST_LEVEL + 1}, got {max_levels!r}")
        self.q = q = (powers + 1.0) / m
        self.log_c = math.log(c)
        self.log_pref = -math.log(m) - q * self.log_c
        self.m = m
        self.g_pair = g_pair
        self.tol_rel = tol_rel
        self.max_levels = max_levels
        if window is None:
            window = [_u_window(qj, _LOG_WINDOW) for qj in q.tolist()]
        # each row's window in t, as (t_lo, -t_hi)
        self.window = np.array([(math.asinh(x_lo / _A), -math.asinh(x_hi / _A))
                                for x_lo, x_hi in window]).T
        self.evals = 0

    def _scaled_terms(self, t, q):
        """At the nodes t: the sign of the transformed integrand, shape
        (nodes,); its log for the exponents q, shape (len(q), nodes); and |x|
        and u + |log g| + |log w|, which make up the absolute size E of each
        exponent, shape (nodes,)."""
        x = _A * np.sinh(t)
        u = np.exp(x)
        r = np.exp((x - self.log_c) / self.m)
        sgn, log_g = self.g_pair(r)
        self.evals += len(r)
        log_w = np.log(_A * np.cosh(t))   # > 0
        live = sgn != 0.0
        if np.count_nonzero(live) == live.size:
            rest = u + np.abs(log_g) + log_w
        else:
            rest = u + np.abs(np.where(live, log_g, 0.0)) + log_w
            log_g = np.where(live, log_g, -np.inf)
        return sgn, q[:, None] * x - u + log_g + log_w, np.abs(x), rest

    def _tolerance(self, t_sum, e_sum):
        """The error that meets each row's tolerance: the relative one on
        t_sum, or the rounding floor of the row's terms, _FLOOR_ULPS eps
        e_sum (e_sum = sum_k h |t_k| E_k)."""
        return np.maximum(self.tol_rel * np.abs(t_sum),
                          _FLOOR_ULPS * _EPS * e_sum)

    @staticmethod
    def _level_nodes(bounds, level, every):
        """The k of level's nodes k h inside the rows' windows: every one,
        or the odd k only."""
        lo, hi = np.minimum.reduce(bounds[level], axis=1).tolist()
        lo, hi = int(lo), -int(hi)
        if every:
            return np.arange(lo, hi + 1)
        return np.arange(lo + 1 - lo % 2, hi + 1, 2)

    def run(self):
        """Arrays over the rows: t_sum, err, log_scale and converged.

        The rows still refining are the columns of the arrays that follow
        them through the levels: their index, q, node range per level and
        state.  A level rescales, sums and tests all of them with array
        operations, and drops those that converge or run out of levels."""
        n_rows = self.q.size
        row, q = np.arange(n_rows), self.q
        # per level and row, the nodes k h inside the window, as (k_lo,
        # -k_hi); a window with none takes the node at 0
        bounds = np.multiply.outer(
            np.ldexp(1.0 / _H0, np.arange(self.max_levels + 1)), self.window)
        np.ceil(bounds, out=bounds)
        bounds *= bounds[:, :1] + bounds[:, 1:] <= 0.0
        # the sums t, a (moduli) and e (sum_k h |t_k| E_k), then scale, err
        # (NaN until a level has a predecessor) and converged
        state = np.zeros((6, n_rows))
        state[3], state[4] = _NO_TERM, math.nan
        out = state.copy()   # each row's state when it stopped
        new = np.empty((3, n_rows))
        level = _FIRST_LEVEL
        ahead = None   # the next level's terms, from the first call of g
        while level <= self.max_levels and row.size:
            sums, scale, err = state[:3], state[3], state[4]
            h = _H0 / 2.0 ** level
            k = self._level_nodes(bounds, level, level == _FIRST_LEVEL)
            if level == _FIRST_LEVEL:
                # no row stops at the first level, so the next level's odd
                # nodes join its call of g; each node's terms depend on its
                # own t alone, so the split gives both levels their bits
                k_next = self._level_nodes(bounds, level + 1, False)
                both = self._scaled_terms(
                    np.concatenate((k * h, k_next * (0.5 * h))), q)
                parts = [a[..., :k.size] for a in both]
                ahead = [a[..., k.size:] for a in both]
            elif ahead is not None:
                parts, ahead = ahead, None
            else:
                parts = self._scaled_terms(k * h, q)
            sgn, log_f, abs_x, rest = parts
            if row.size > 1:   # a lone row's window is the whole range
                outside = ((k < bounds[level, 0, :, None])
                           | (-k < bounds[level, 1, :, None]))
                log_f[outside] = -np.inf
            # the scale follows the largest term seen so far
            top = np.maximum.reduce(log_f, axis=1, initial=_NO_TERM)
            np.maximum(scale, top, out=top)
            # the factors by math.exp, the C library's exp: numpy's exp
            # differs from it in the last bit for about 5 % of arguments,
            # and the sums keep the bits of a rescale row by row
            adj = np.array([math.exp(d) for d in (scale - top).tolist()])
            scale[:] = top
            # per node: the term and its modulus; the modulus against the
            # absolute size E of the exponent gives the rounding floor
            terms = sgn * np.exp(log_f - top[:, None])
            mod = np.abs(terms)
            new = new[:, :row.size]
            np.add.reduce(terms, axis=1, out=new[0])
            np.add.reduce(mod, axis=1, out=new[1])
            np.add(q * (mod @ abs_x), mod @ rest, out=new[2])
            new *= h
            if level == _FIRST_LEVEL:
                sums[...] = new
            else:
                sums *= adj
                prev = sums[0].copy()
                sums *= 0.5
                sums += new
                np.abs(np.subtract(sums[0], prev, out=err), out=err)
                state[5] = err <= self._tolerance(sums[0], sums[2])
            done = (state[5] > 0.0) | (level == self.max_levels)
            if np.count_nonzero(done):
                out[:, row[done]] = state[:, done]
                keep = ~done
                row, q = row[keep], q[keep]
                bounds, state = bounds[:, :, keep], state[:, keep]
            level += 1
        t, a, s, sc, e, converged = out
        # the error floor: the rounding of the sums and of each exp()
        # (14 ulps of the moduli) plus one ulp of each exponent's size; a
        # row without a level difference has only the floor
        e = np.fmax(e, _EPS * (14.0 * a + s))
        # the floor may push the estimate past tolerance
        converged = (converged > 0.0) & (e <= self._tolerance(t, s))
        # a row that saw no term has t = 0 on any scale
        log_scale = np.where(sc > _NO_TERM, sc, 0.0) + self.log_pref
        # the conditioning of the final exp that applies log_scale
        np.maximum(e, _EPS * (8.0 * a + np.abs(log_scale * t)), out=e)
        return t, np.where(converged, e, math.inf), log_scale, converged


def _check_bound(gv, sup_bound):
    if not gv.size:
        return
    top = np.maximum.reduce(np.abs(gv), axis=None)   # NaN if any is
    if top != top:
        raise ValueError("symbol returned NaN")
    if top > sup_bound * (1.0 + 1e-9) + 1e-300:
        raise ValueError(
            f"symbol exceeded its declared sup bound {sup_bound} (saw {top})")


def _pair_from_symbol(g: RadialSymbol):
    def g_pair(r):
        gv = g.values(r)
        _check_bound(gv, g.sup_bound)
        with np.errstate(divide="ignore"):
            log_g = np.log(np.abs(gv))
        sgn = np.sign(gv)
        if g.eval_log is not None:
            low = np.abs(gv) < _TINY   # zero or subnormal: take the log form
            if low.any():
                log_g[low] = g.eval_log(r[low])
                sgn[low] = 1.0
        return sgn, log_g

    return g_pair


def integrate_radial(g: RadialSymbol, c: float, m: float, power: float = 0.0, *,
                     tol_rel=DEFAULT_QUAD_TOL_REL,
                     max_levels=DEFAULT_MAX_LEVELS) -> QuadResult:
    """Approximate integral_0^inf r^power g(r) exp(-c r^m) dr.

    Never raises on slow convergence: the best value is returned with
    converged=False and an abs_error_estimate of inf after max_levels
    doublings.
    """
    engine = _DESum(_pair_from_symbol(g), c, m, [power], tol_rel, max_levels)
    (t_sum,), (err,), (log_scale,), (converged,) = engine.run()
    with np.errstate(over="ignore"):
        factor = np.exp(log_scale)
    # an inf error stays inf where the factor underflows to 0
    return QuadResult(t_sum * factor, err * factor if converged else math.inf,
                      engine.evals, converged)


def integrate_radial_log_powers(g: RadialSymbol, c: float, m: float, powers, *,
                                tol_rel=DEFAULT_QUAD_TOL_REL,
                                max_levels=DEFAULT_MAX_LEVELS):
    """integrate_radial_log for every power in powers, from one exp-sinh
    run whose nodes all the powers share.  Returns arrays over the powers
    (log |value|, sign, relative error, converged), and the number of
    evaluations of g.  An unconverged power's relative error is inf."""
    return _log_rows(_DESum(_pair_from_symbol(g), c, m, powers, tol_rel,
                            max_levels))


def _log_rows(engine):
    """Run engine and give its rows as integrate_radial_log_powers does."""
    t_sum, err, log_scale, converged = engine.run()
    mod = np.abs(t_sum)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_value = log_scale + np.log(mod)
        # a zero sum has no relative accuracy
        rel = np.where(mod > 0.0, err / mod, math.inf)
    return (log_value, np.sign(t_sum) + 0.0, rel, converged), engine.evals


def integrate_radial_log(g: RadialSymbol, c: float, m: float, power: float = 0.0, *,
                         tol_rel=DEFAULT_QUAD_TOL_REL,
                         max_levels=DEFAULT_MAX_LEVELS):
    """Like integrate_radial but in log form, for results far outside
    double range: returns (log |value|, sign, relative error, evals, converged)."""
    rows, evals = integrate_radial_log_powers(
        g, c, m, [power], tol_rel=tol_rel, max_levels=max_levels)
    (log_value,), (sign,), (rel,), (converged,) = (v.tolist() for v in rows)
    return log_value, sign, rel, evals, converged


def radial_moment(c: float, m: float, n: int) -> float:
    """log of integral_C |w|^(2n) exp(-c |w|^m) dA(w)
    = log( (2 pi / m) c^(-(2n+2)/m) Gamma((2n+2)/m) ); closed form, no quadrature."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"decay scale c must be positive and finite, got {c!r}")
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"exponent m must be positive and finite, got {m!r}")
    if not (n >= 0 and float(n).is_integer()):
        raise ValueError(f"moment order must be an integer >= 0, got {n!r}")
    q = (2.0 * n + 2.0) / m
    return math.log(2.0 * math.pi / m) - q * math.log(c) + log_gamma(q)
