"""Nested Berezin transforms at the origin and the commutator defect.

The composition (B_outer B_inner f_delta)(0) expands into a series over the
radial functionals

    U(n) = (inner^{4n/m} / Gamma((2n+2)/m))
           * integral_C |z|^{2n} e^{-outer |z|^m} / S_inner(|z|^2) dA(z),

weighted by (delta + inner)^{-(2n+2)/m}.  Swapping the two weight scales
swaps the roles of inner and outer; the difference of the two orders is the
commutator defect, which vanishes identically exactly when m = 2.  Because
zero-vs-nonzero is the whole question, every defect carries
a propagated error bound and a significance verdict instead of a bare float.

U(n) comes in blocks of _U_BLOCK rows.  A block whose mass lies past the
Mittag-Leffler switch of 1/S_inner is a Gamma ratio,

    U(n) ~ (4 pi/m^2) inner^{4n/m + 2/m - 1} (inner + outer)^{-s}
           Gamma(s) / Gamma((2n+2)/m),      s = (2n+4)/m - 1,

taken wherever its proven bound (special._ml_inverse_moments) meets the
quadrature tolerance in every row; every other block is one exp-sinh run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .berezin import _normalization_log, berezin_exp_radial_grid
from .errors import NonConvergenceError
from .quadrature import (_LOG_WINDOW_DECAY, DEFAULT_MAX_LEVELS,
                         DEFAULT_QUAD_TOL_REL, QuadResult, RadialSymbol,
                         _DESum, _log_rows, _pair_from_symbol, _u_window,
                         integrate_radial_log, integrate_radial_log_powers)
from .special import (DEFAULT_MAX_TERMS, DEFAULT_SERIES_TOL, WeightParams,
                      _log_gamma_error, _ml_inverse_moments, log_series_grid,
                      moment_table)

_EPS = float(np.finfo(float).eps)
_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_KAPPA = 10.0


@dataclass(frozen=True)
class UValue:
    """One radial functional value with its propagated error.

    log_value duplicates value on a log scale so that series assembly stays
    exact when the linear value leaves double range.
    """

    n: int
    value: float
    error: float
    log_value: float
    rel_error: float


@dataclass(frozen=True)
class NestedValue:
    """A nested transform value at 0; error combines series truncation and
    quadrature estimates by summation."""

    value: float
    error_bound: float
    n_terms: int


@dataclass(frozen=True)
class DefectReport:
    """Forward/backward nested transforms and the significance verdict.

    significant is true only when |defect| exceeds kappa times the combined
    error bound: the claim being certified is a zero/nonzero dichotomy,
    which demands an explicit error-bar policy rather than a bare comparison.
    """

    params_pair: tuple[float, float, float]  # (alpha, beta, m)
    delta: float
    forward: NestedValue
    backward: NestedValue
    defect: float
    combined_error: float
    significant: bool
    kappa: float


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: float
    rhs: float
    rel_gap: float
    tol: float
    passed: bool


# U(n) is computed in fixed blocks [B (n // B), B (n // B) + B) of this size,
# all from one exp-sinh run (quadrature._DESum), so a value never depends on
# which n was asked for first.
_U_BLOCK = 64


@dataclass(frozen=True, eq=False)
class UBlock:
    """U(n) for n = n0 .. n0 + _U_BLOCK - 1 as read-only arrays, the fields
    of UValue per row.  A row whose quadrature did not converge holds NaN
    there, and its NonConvergenceError in failed, keyed by n."""

    n0: int
    value: np.ndarray
    error: np.ndarray
    log_value: np.ndarray
    rel_error: np.ndarray
    failed: dict[int, NonConvergenceError]

    def __post_init__(self):
        for a in (self.value, self.error, self.log_value, self.rel_error):
            a.flags.writeable = False


class UCache:
    """Shared memo for U values and the 1/S node caches.

    A miss computes the whole fixed block of _U_BLOCK values around n
    (_u_compute), in closed form past the Mittag-Leffler switch or else by
    one exp-sinh run, and stores it as one UBlock of arrays, which block()
    hands out whole and u() one row at a time; a row whose quadrature did
    not converge raises its NonConvergenceError only when that n is asked
    for.
    Blocks are computed under the cache's lock, so concurrent callers never
    repeat one.  Values are pure functions of (alpha, beta, m, n) and the
    cache's four settings (series_tol, max_terms, quad_tol_rel,
    quad_max_levels), and every cached entry is computed by a
    batching-independent summation, so all callers observe identical floats
    whatever the order of their requests.
    """

    def __init__(self, *, series_tol=DEFAULT_SERIES_TOL,
                 max_terms=DEFAULT_MAX_TERMS, quad_tol_rel=DEFAULT_QUAD_TOL_REL,
                 quad_max_levels=DEFAULT_MAX_LEVELS):
        self.series_tol = series_tol
        self.max_terms = max_terms
        self.quad_tol_rel = quad_tol_rel
        self.quad_max_levels = quad_max_levels
        self._blocks: dict[tuple[float, float, float, int], UBlock] = {}
        self._symbols: dict[tuple[float, float], RadialSymbol] = {}
        # reentrant: a block computation asks inv_kernel_symbol for 1/S
        self._lock = threading.RLock()

    def inv_kernel_symbol(self, alpha: float, m: float) -> RadialSymbol:
        key = (alpha, m)
        sym = self._symbols.get(key)
        if sym is None:
            with self._lock:
                sym = self._symbols.setdefault(
                    key, _make_inv_kernel_symbol(WeightParams(alpha, m),
                                                 self.series_tol, self.max_terms))
        return sym

    def block(self, alpha: float, beta: float, m: float, n0: int) -> UBlock:
        """The block of U values that starts at n0, a multiple of _U_BLOCK."""
        key = (alpha, beta, m, n0)
        blk = self._blocks.get(key)
        if blk is None:
            with self._lock:
                blk = self._blocks.get(key)
                if blk is None:
                    blk = self._blocks[key] = _u_compute(alpha, beta, m, n0,
                                                         self)
        return blk

    def u(self, alpha: float, beta: float, m: float, n: int) -> UValue:
        if not (float(n).is_integer() and n >= 0):
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        n = int(n)
        blk = self.block(alpha, beta, m, _U_BLOCK * (n // _U_BLOCK))
        fail = blk.failed.get(n)
        if fail is not None:
            raise NonConvergenceError(str(fail), partial=fail.partial,
                                      error_bound=fail.error_bound)
        i = n - blk.n0
        return UValue(n, float(blk.value[i]), float(blk.error[i]),
                      float(blk.log_value[i]), float(blk.rel_error[i]))


def _make_inv_kernel_symbol(params: WeightParams, series_tol, max_terms):
    """1/S(r^2) as an array-aware radial symbol with a per-node value cache.

    Quadrature node sets for different integrals overlap heavily (they all
    live on the same dyadic meshes), so log(1/S) is cached per radius in a
    sorted-key array with vectorized lookup.  Each node's value depends only
    on its own radius, never on batch composition, so cache hits across
    integrals and threads reproduce identical floats.  eval_log hands the
    cached logs to the quadrature where 1/S leaves double range; they are
    values at every radius, since log_series_grid takes log S from the
    Mittag-Leffler leading term where the series would run long.
    """
    lock = threading.Lock()
    state = (np.empty(0), np.empty(0))  # sorted radii, log(1/S)
    sup = math.exp(params.log_gamma_2m)  # 1/S <= 1/S(0) = Gamma(2/m)

    def log_inv(r):
        nonlocal state
        r = np.asarray(r, dtype=float)
        keys, vals = state
        idx = np.searchsorted(keys, r)
        idx_c = np.minimum(idx, max(len(keys) - 1, 0))
        hit = np.zeros(r.shape, dtype=bool) if not len(keys) else keys[idx_c] == r
        out = np.empty(r.shape)
        if hit.any():
            out[hit] = vals[idx_c[hit]]
        miss = ~hit
        if miss.any():
            rm = r[miss]
            fresh = -log_series_grid(params, rm * rm, tol=series_tol,
                                     max_terms=max_terms)
            out[miss] = fresh
            with lock:
                keys, vals = state
                new_keys = np.concatenate([keys, rm])
                new_vals = np.concatenate([vals, fresh])
                order = np.argsort(new_keys, kind="stable")
                new_keys = new_keys[order]
                new_vals = new_vals[order]
                dup = np.concatenate([[False], new_keys[1:] == new_keys[:-1]])
                state = (new_keys[~dup], new_vals[~dup])
        return out

    def eval_array(r):
        return np.exp(log_inv(r))

    return RadialSymbol(lambda x: float(eval_array(np.array([x]))[0]), sup,
                        eval_array=eval_array, eval_log=log_inv)


def _u_quadrature(g, alpha, beta, m, powers, *, tol_rel=DEFAULT_QUAD_TOL_REL,
                  max_levels=DEFAULT_MAX_LEVELS):
    """integrate_radial_log_powers(g, beta, m, powers) for a g that falls
    like e^(-alpha r^m) up to powers of r, as 1/S_alpha(r^2) does: it is
    (2/m) alpha^((2-m)/m) r^(2-m) e^(-alpha r^m) up to exponentially small
    terms (the Mittag-Leffler branch of log_series_grid).  In u = beta r^m
    the integrand of power p then follows u^(q-1) e^(-(1 + alpha/beta) u),
    q = (p+1)/m, so each window is that of u^q e^-u, e^-_LOG_WINDOW_DECAY
    deep, shifted down by log(1 + alpha/beta) to where the mass moves."""
    shift = math.log1p(alpha / beta)
    q = (np.asarray(powers, dtype=float) + 1.0) / m
    window = [(x_lo - shift, x_hi - shift) for x_lo, x_hi
              in (_u_window(qj, _LOG_WINDOW_DECAY) for qj in q.tolist())]
    return _log_rows(_DESum(_pair_from_symbol(g), beta, m, powers, tol_rel,
                            max_levels, window=window))


def _u_compute(alpha, beta, m, n0, cache: UCache) -> UBlock:
    """The UBlock of U(n) for n = n0 .. n0 + _U_BLOCK - 1, moments of one
    radial measure.  Their integrals come from the Mittag-Leffler closed
    form where its proven bound meets quad_tol_rel in every row, with the
    rounding of its log form added to the bound; else from one exp-sinh
    run over their shared nodes.  Either way the same log-form assembly
    turns each integral into U(n)."""
    params = WeightParams(alpha, m)
    n = np.arange(n0, n0 + _U_BLOCK, dtype=float)
    q = (2.0 * n + 2.0) / m
    log_int, rel, rounding = _ml_inverse_moments(params, beta, q,
                                                 cache.series_tol)
    if np.all(rel <= cache.quad_tol_rel):
        rel = rel + rounding
        sign, converged = 1.0, np.ones(_U_BLOCK, dtype=bool)
    else:
        (log_int, sign, rel, converged), _ = _u_quadrature(
            cache.inv_kernel_symbol(alpha, m), alpha, beta, m, 2.0 * n + 1.0,
            tol_rel=cache.quad_tol_rel, max_levels=cache.quad_max_levels)
    lg_gamma = moment_table(m).log_moments(n0 + _U_BLOCK)[n0:]  # log Gamma(q)
    log_pow = (4.0 * n / m) * params.log_alpha
    log_u = _LOG_2PI + log_pow - lg_gamma + log_int
    # the integral's rel, one eps of each operand of this log sum and one
    # more of log Gamma(q), and the table's error in log Gamma(q)
    rel_u = rel + _log_gamma_error(q, lg_gamma) + _EPS * (
        _LOG_2PI + np.abs(log_pow) + 2.0 * np.abs(lg_gamma) + np.abs(log_int)
        + np.abs(log_u))
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(log_u)
        partial = np.exp(log_int) * sign
    failed = {}
    for i in np.flatnonzero(~converged).tolist():
        failed[n0 + i] = NonConvergenceError(
            f"U({alpha},{beta},m={m},n={n0 + i}) quadrature did not converge",
            partial=partial[i], error_bound=rel[i])
        value[i] = log_u[i] = rel_u[i] = math.nan
    return UBlock(n0, value, value * rel_u, log_u, rel_u, failed)


def u_function(alpha: float, beta: float, m: float, n: int, *,
               cache: UCache | None = None) -> UValue:
    """U(n) for weight scales (inner=alpha, outer=beta); positive by construction."""
    if cache is None:
        cache = UCache()
    _validate_scales(alpha, beta, m)
    return cache.u(float(alpha), float(beta), float(m), n)


def _validate_scales(alpha, beta, m):
    for name, v in (("alpha", alpha), ("beta", beta), ("m", m)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be a finite positive real, got {v!r}")


def nested_at_zero(alpha: float, beta: float, m: float, delta: float, *,
                   cache: UCache | None = None, max_terms=5000) -> NestedValue:
    """(B_beta B_alpha f_delta)(0): series over U with geometric tail control.

    alpha is the inner transform's weight scale, beta the outer one.  The
    term ratio settles to (alpha/(delta+alpha))^{2/m} times the drift of the
    U sequence, observed live; the tail is bounded by the last term times
    rho/(1-rho) for the clipped observed ratio rho.  The series stops only
    while its last three terms fall, and raises NonConvergenceError once it
    reaches max_terms.  It reads U one block at a time (UCache.block) and
    weighs each block with array operations: term logs, partial sums on a
    scale carried from block to block (the largest term so far), weighted
    errors, ratios and the stop test.  An unconverged U(n) raises only if
    the series reaches n.
    """
    _validate_scales(alpha, beta, m)
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be a finite real >= 0, got {delta!r}")
    if cache is None:
        cache = UCache()

    log_da = math.log(delta + alpha)
    scale = -math.inf
    partial = 0.0
    weighted_rel = 0.0
    before = np.empty(0)   # the logs of the (up to) three terms before n0
    small = False          # whether the term before n0 met the stop test
    n0 = 0
    while True:
        blk = cache.block(alpha, beta, m, n0)
        # the terms the series may reach in this block: up to max_terms,
        # and short of the first unconverged U
        end = min(n0 + _U_BLOCK, max_terms, min(blk.failed, default=math.inf))
        n = np.arange(n0, end, dtype=float)
        log_terms = blk.log_value[: n.size] - ((2.0 * n + 2.0) / m) * log_da
        top = max(scale, log_terms.max(initial=-math.inf))
        carry = math.exp(scale - top)   # the earlier sums, rescaled to top
        scale = top
        t = np.exp(log_terms - top)
        partials = partial * carry + np.cumsum(t)
        logs = np.concatenate((before, log_terms))
        ratios = np.exp(logs[1:] - logs[:-1])
        # the largest of the last three ratios, for each n >= 3
        top3 = np.maximum(np.maximum(ratios[:-2], ratios[1:-1]), ratios[2:])
        rho = np.minimum(top3, 0.98)
        k = n.size - top3.size   # the terms n < 3 have no test
        # growing terms say nothing about the tail: never stop on them
        ok = (top3 < 1.0) & (t[k:] <= cache.series_tol * partials[k:]
                             * (1.0 - rho))
        stop = ok & np.concatenate(([small], ok[:-1]))   # two in a row
        if np.count_nonzero(stop):
            i = int(stop.argmax())
            j = k + i
            weighted_rel = (weighted_rel * carry
                            + t[: j + 1] @ blk.rel_error[: j + 1])
            partial, last, rho, n_last = partials[j], t[j], rho[i], n0 + j
            break
        if end < min(n0 + _U_BLOCK, max_terms):
            fail = blk.failed[end]
            raise NonConvergenceError(str(fail), partial=fail.partial,
                                      error_bound=fail.error_bound)
        if end >= max_terms:
            raise NonConvergenceError(
                f"nested series for (alpha={alpha}, beta={beta}, m={m}, "
                f"delta={delta}) exceeded {max_terms} terms")
        weighted_rel = weighted_rel * carry + t @ blk.rel_error
        partial = partials[-1]
        before, small = logs[-3:], bool(ok[-1])
        n0 += _U_BLOCK

    tail_rel = (last * rho / (1.0 - rho)) / partial
    log_pref = (math.log(m) + (2.0 / m) * (math.log(alpha) + math.log(beta))
                - _LOG_2PI - WeightParams(alpha, m).log_gamma_2m)
    value = math.exp(log_pref + scale + math.log(partial))
    rel_total = weighted_rel / partial + tail_rel + 8.0 * _EPS * (n_last + 1)
    return NestedValue(value, float(value * rel_total), n_last + 1)


def defect(alpha: float, beta: float, m: float, delta: float, *,
           kappa: float = DEFAULT_KAPPA,
           cache: UCache | None = None) -> DefectReport:
    """Commutator defect (B_beta B_alpha - B_alpha B_beta) f_delta at 0.

    Exactly antisymmetric under swapping alpha and beta: both orders reuse
    the same two nested computations.  kappa must be finite and positive.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be finite and > 0, got {kappa!r}")
    if cache is None:
        cache = UCache()
    forward = nested_at_zero(alpha, beta, m, delta, cache=cache)
    backward = nested_at_zero(beta, alpha, m, delta, cache=cache)
    d = forward.value - backward.value
    combined = forward.error_bound + backward.error_bound
    return DefectReport((alpha, beta, m), delta, forward, backward, d,
                        combined, bool(abs(d) > kappa * combined), kappa)


def lemma1_witness(alpha: float, beta: float, m: float, *,
                   cache: UCache | None = None):
    """Symmetry gaps U_{a,b}(n) - U_{b,a}(n) for all integers 0 <= n < m/2.

    A significant nonzero gap certifies failure of commutativity for the
    pair without scanning delta (contrapositive of the low-order symmetry
    forced by commutativity).
    """
    _validate_scales(alpha, beta, m)
    if cache is None:
        cache = UCache()
    out = []
    for n in range(math.ceil(m / 2.0)):
        ua = cache.u(alpha, beta, m, n)
        ub = cache.u(beta, alpha, m, n)
        out.append((n, ua.value - ub.value, ua.error + ub.error))
    return out


def tt_identities_m2(alpha: float, beta: float, *, rel_tol: float = 1e-9,
                     cache: UCache | None = None):
    """The two unconditional m=2 identities, checked numerically.

    With p = 1: U_{a,b}(0) = U_{b,a}(0), and the first-order gap
    U_{a,b}(1) - U_{b,a}(1) = (alpha - beta) U_{a,b}(0).
    """
    _validate_scales(alpha, beta, 2.0)
    if cache is None:
        cache = UCache()
    m = 2.0
    u0 = cache.u(alpha, beta, m, 0)
    u0r = cache.u(beta, alpha, m, 0)
    u1 = cache.u(alpha, beta, m, 1)
    u1r = cache.u(beta, alpha, m, 1)

    def gap(lhs, rhs, ref):
        return abs(lhs - rhs) / max(abs(ref), 1e-300)

    rows = []
    g = gap(u0.value, u0r.value, u0.value)
    rows.append(IdentityCheck("U(0) symmetric", u0.value, u0r.value, g,
                              rel_tol, g <= rel_tol))
    lhs = u1.value - u1r.value
    rhs = (alpha - beta) * u0.value
    ref = max(abs(rhs), abs(alpha - beta) * u0.value, u0.value * 1e-6)
    g = gap(lhs, rhs, ref)
    rows.append(IdentityCheck("U(1) gap = (alpha-beta) U(0)", lhs, rhs, g,
                              rel_tol, g <= rel_tol))
    return rows


def _require_even_m(m):
    if int(round(m)) != m or int(round(m)) % 2 != 0 or m < 2:
        raise ValueError(f"identity requires an even integer m >= 2, got {m!r}")
    return int(round(m)) // 2


def derivative_identity_check(alpha: float, beta: float, m: float, n: int, *,
                              h_rel: float = 1e-4,
                              cache: UCache | None = None):
    """Central finite difference of beta -> U(n) against -(n+1)/(alpha^2 p) U(n+p).

    Holds unconditionally for every even m = 2p, independent of
    commutativity.  Returns (lhs, rhs, rel_gap).

    The difference quotient amplifies any systematic quadrature error by
    1/h, so the two offset evaluations run at a tightened tolerance: only
    then is the O(h^2) truncation the dominant term and the step-halving
    order check meaningful.
    """
    p = _require_even_m(m)
    _validate_scales(alpha, beta, m)
    if cache is None:
        cache = UCache()
    tight = UCache(series_tol=cache.series_tol, max_terms=cache.max_terms,
                   quad_tol_rel=min(cache.quad_tol_rel, 1e-14),
                   quad_max_levels=cache.quad_max_levels)
    tight._symbols = cache._symbols  # node values do not depend on quad tol
    h = h_rel * beta
    bp = beta + h
    bm = beta - h
    h_eff = 0.5 * (bp - bm)  # the floats actually used, not the nominal h
    up = tight.u(alpha, bp, m, n)
    um = tight.u(alpha, bm, m, n)
    lhs = (up.value - um.value) / (2.0 * h_eff)
    rhs = -(n + 1.0) / (alpha * alpha * p) * cache.u(alpha, beta, m, n + p).value
    rel_gap = abs(lhs - rhs) / abs(rhs)
    return lhs, rhs, rel_gap


def asymptotic_slopes(m: float, alpha: float, beta_grid, *,
                      cache: UCache | None = None):
    """Least-squares log-log slopes of the two large-beta integrals.

    I_0(beta) = integral of e^{-beta |z|^m}/S over the plane scales like
    beta^{-1/p} and the |z|^{2p}-weighted variant like beta^{-(p+1)/p}
    (Laplace leading order at the origin, where S is continuous and
    positive).  Returns (slope_0, slope_p).
    """
    p = _require_even_m(m)
    beta_grid = [float(b) for b in beta_grid]
    if len(beta_grid) < 3:
        raise ValueError("beta grid needs at least 3 nodes")
    if max(beta_grid) / min(beta_grid) < 99.0:
        raise ValueError("beta grid must span at least two decades")
    if cache is None:
        cache = UCache()
    g = cache.inv_kernel_symbol(alpha, m)
    logs0 = []
    logsp = []
    for b in beta_grid:
        for power, dest in ((1.0, logs0), (2.0 * p + 1.0, logsp)):
            log_int, _, rel, _, converged = integrate_radial_log(
                g, b, m, power, tol_rel=cache.quad_tol_rel,
                max_levels=cache.quad_max_levels)
            if not converged:
                raise NonConvergenceError(
                    f"slope integral failed at beta={b}, power={power}")
            dest.append(_LOG_2PI + log_int)
    x = np.log(np.asarray(beta_grid))
    slope0 = float(np.polyfit(x, np.asarray(logs0), 1)[0])
    slopep = float(np.polyfit(x, np.asarray(logsp), 1)[0])
    return slope0, slopep


def nested_by_composition(alpha: float, beta: float, m: float, delta: float, *,
                          tol_rel=DEFAULT_QUAD_TOL_REL,
                          max_levels=DEFAULT_MAX_LEVELS,
                          series_tol=DEFAULT_SERIES_TOL) -> QuadResult:
    """(B_beta B_alpha f_delta)(0) by direct numerical composition.

    The inner transform is evaluated on the outer quadrature nodes through
    the radial series route, so this shares no code path with the U-series
    assembly in nested_at_zero and serves as its independent cross-check.

    The error adds to the quadrature's that of the inner transform, the
    ratio of two values of S.  Each carries series_tol, and the log of the
    ratio up to about 4 ulps of the sum of their peak indices x = alpha
    t^(m/2): alpha r^m at the base radius plus alpha^2/(alpha+delta) r^m
    at the contracted one.  The mean of r^m under the integrand is a moment
    ratio, taken from the same exp-sinh run as the value.
    """
    _validate_scales(alpha, beta, m)
    inner = WeightParams(alpha, m)
    outer = WeightParams(beta, m)

    def g_array(r):
        return berezin_exp_radial_grid(inner, delta, r, series_tol=series_tol)

    g = RadialSymbol(lambda r: float(g_array(np.array([r]))[0]), 1.0,
                     eval_array=g_array)
    (log_int, _, rel, converged), evals = integrate_radial_log_powers(
        g, beta, m, [1.0, 1.0 + m], tol_rel=tol_rel, max_levels=max_levels)
    value = math.exp(_normalization_log(outer) + log_int[0])
    x_mean = (alpha * (2.0 * alpha + delta) / (alpha + delta)
              * math.exp(log_int[1] - log_int[0]))
    rel_total = rel[0] + 2.0 * series_tol + 4.0 * _EPS * (1.0 + x_mean)
    return QuadResult(value, value * rel_total, evals, converged.all())
