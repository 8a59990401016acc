"""Named verification checks, run by the CLI and by the acceptance tests.

Each check pins its own tolerances (they are part of the claim being
verified, not tuning knobs) and returns a pass/fail verdict with a one-line
measurement summary.  run_checks executes all of them, or a named subset,
against a shared cache.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _reference as ref
from .berezin import (ExpSymbol, PlanarSymbol, berezin_at_zero,
                      berezin_exp_radial, berezin_general)
from .commutativity import (asymptotic_slopes, defect,
                            derivative_identity_check, lemma1_witness,
                            nested_at_zero, nested_by_composition,
                            significant, tt_identities_m2)
from .config import RunConfig
from .quadrature import integrate_radial, radial_moment, unit_symbol
from .scan import compute_scan, rows_to_csv, parse_csv, cache_from_config
from .special import (_EPS, _STOP_MARGIN, WeightParams, _ml_switch,
                      kernel_series, log_series_grid, moment_table,
                      reproducing_kernel, stieltjes_moment)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def check_kernel_m2(cfg, cache):
    """m=2 collapse to the exponential, at the accuracy double precision admits.

    Strict relative error is only meaningful where the summation is well
    conditioned (nonnegative real arguments: all terms positive).  On the
    full complex disk the natural scale is the largest term, e^(alpha |zeta|);
    errors are measured against it there, on two independent sets of 1000
    draws.
    """
    rng = np.random.default_rng(20250811)
    alphas = rng.uniform(0.1, 10.0, 1000)
    ts = rng.uniform(0.0, 50.0, 1000)
    t0 = time.perf_counter()
    worst_strict = 0.0
    for a, t in zip(alphas, ts):
        sv = kernel_series(WeightParams(float(a), 2.0), float(t),
                           tol=cfg.tol_series, max_terms=cfg.series_max_terms)
        worst_strict = max(worst_strict, _rel(sv.value, math.exp(a * t)))
    elapsed = time.perf_counter() - t0

    disk = [rng.uniform(0.1, 10.0, 1000), rng.uniform(0.0, 1.0, 1000),
            rng.uniform(0.0, 2.0 * math.pi, 1000)]
    # the second set draws each point's (alpha, u, angle) in turn
    second = np.random.default_rng(7151).uniform(
        (0.1, 0.0, 0.0), (10.0, 1.0, 2.0 * math.pi), (1000, 3))
    alphas, us, angles = map(np.concatenate, zip(disk, second.T))
    worst_scaled = 0.0
    for a, r, th in zip(alphas, 50.0 * np.sqrt(us), angles):
        z = complex(r * math.cos(th), r * math.sin(th))
        sv = kernel_series(WeightParams(float(a), 2.0), z,
                           tol=cfg.tol_series, max_terms=cfg.series_max_terms)
        err = abs(sv.value - cmath.exp(a * z)) * math.exp(-a * abs(z))
        worst_scaled = max(worst_scaled, err)
    ok = worst_strict <= 1e-12 and worst_scaled <= 1e-12 and elapsed < 1.0
    return ok, (f"strict rel {worst_strict:.2e} (real axis, {elapsed:.2f}s/1000), "
                f"scale-rel {worst_scaled:.2e} (complex disk, {len(alphas)} draws)")


def check_kernel_reference(cfg, cache):
    """Frozen high-precision corpus: value agreement and error-bound honesty."""
    worst = 0.0
    honest = True
    for (a, m, z), want in [((1.0, 4.0, 1.0), ref.S_A1_M4_Z1),
                            *ref.S_REAL.items(), *ref.S_COMPLEX.items()]:
        sv = kernel_series(WeightParams(a, m), z, tol=cfg.tol_series)
        e = _rel(sv.value, want)
        worst = max(worst, e)
        honest &= e <= sv.truncation_error_bound
    ok = worst <= 1e-12 and honest
    return ok, f"max rel {worst:.2e} vs reference, bounds honest: {honest}"


def check_moments(cfg, cache):
    """Log-convexity of the moment sequence and the factorial closed form."""
    worst_cf = 0.0
    for a in (0.5, 1.0, 2.0, 7.0):
        p = WeightParams(a, 2.0)
        for n in range(0, 30, 3):
            worst_cf = max(worst_cf, abs(stieltjes_moment(p, n)
                                         - (math.lgamma(n + 1) - n * math.log(a))))
    convex = True
    for m in (0.5, 2.0, 1.0, 10.0, 6.0, 3.0, 0.75):
        ls = moment_table(m).log_moments(201)
        second = ls[:-2] + ls[2:] - 2.0 * ls[1:-1]
        convex &= bool(np.all(second >= -1e-9 * np.maximum(np.abs(ls[1:-1]), 1.0)))
    ok = worst_cf <= 1e-12 and convex
    return ok, f"factorial form max abs {worst_cf:.2e}, log-convex: {convex}"


def check_kernel_properties(cfg, cache):
    """Positivity, conjugation symmetry, Hermitian symmetry, value at 0.

    Argument ranges shrink with m: the series needs ~(m/2) alpha t^(m/2)
    terms, so large arguments at large m are out of evaluation scope.
    """
    rng = np.random.default_rng(7)
    pos = True
    conj_exact = True
    herm_exact = True
    for _ in range(60):
        a = float(rng.uniform(0.2, 5.0))
        m = float(rng.uniform(0.6, 8.0))
        p = WeightParams(a, m)
        t = float(rng.uniform(0.0, min(20.0, 40.0 ** (2.0 / m))))
        pos &= kernel_series(p, t).value > 0.0
        box = min(3.0, 25.0 ** (1.0 / m))
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        sa = kernel_series(p, z)
        sb = kernel_series(p, z.conjugate())
        conj_exact &= sa.value.conjugate() == sb.value
        w = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        herm_exact &= (reproducing_kernel(p, z, w).value
                       == reproducing_kernel(p, w, z).value.conjugate())
        at0 = kernel_series(p, 0.0)
        pos &= abs(at0.value - math.exp(-stieltjes_moment(p, 0))) <= 1e-15
    ok = pos and conj_exact and herm_exact
    return ok, (f"positive: {pos}, conjugation exact: {conj_exact}, "
                f"Hermitian exact: {herm_exact}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def check_ml_branch(cfg, cache):
    """The Mittag-Leffler branch of log_series_grid against the summed
    kernel_series, at the first t where the branch fires.  They must agree
    within the sum of their bounds: kernel_series's own, and for the branch
    its remainder threshold tol e^-_STOP_MARGIN plus the rounding of
    x = alpha t^(m/2) (pow and product, under 2 ulps) and of the sum."""
    worst_gap = worst_share = 0.0
    for m in (0.5, 1.0, 2.0, 3.0, 10.0):
        x_switch = _ml_switch(m, cfg.tol_series)
        for alpha in (1e-3, 1.0, 1e6):
            p = WeightParams(alpha, m)
            t = (x_switch / alpha) ** (2.0 / m)
            while alpha * np.power(t, m / 2.0) < x_switch:
                t = float(np.nextafter(t, math.inf))
            x = alpha * np.power(t, m / 2.0)
            log_s = float(log_series_grid(p, np.array([t]),
                                          tol=cfg.tol_series,
                                          max_terms=cfg.series_max_terms)[0])
            sv = kernel_series(p, t, tol=cfg.tol_series,
                               max_terms=cfg.series_max_terms)
            bound = (sv.truncation_error_bound
                     + cfg.tol_series * math.exp(-_STOP_MARGIN)
                     + 2.0 * _EPS * (x + abs(log_s)))
            gap = abs(log_s - sv.log_magnitude)
            worst_gap = max(worst_gap, gap)
            worst_share = max(worst_share, gap / bound)
    return worst_share <= 1.0, (f"max |log S gap| {worst_gap:.2e} at the "
                                f"switch, {worst_share:.2f} of the bounds "
                                f"(15 weights)")


def check_quad_oracle(cfg, cache):
    """Unit symbol against the closed-form radial moment on a 5x5x5 grid,
    plus error-estimate honesty (true error <= 3x estimate)."""
    worst = 0.0
    honesty_ok = True
    for c in (0.5, 1.0, 2.0, 5.0, 10.0):
        for m in (1.0, 2.0, 3.0, 4.0, 6.0):
            for n in range(5):
                res = integrate_radial(unit_symbol(), c, m, 2.0 * n + 1.0,
                                       tol_rel=cfg.tol_quad_rel,
                                       max_levels=cfg.quad_max_levels)
                want = math.exp(radial_moment(c, m, n)) / (2.0 * math.pi)
                err = abs(res.value - want)
                worst = max(worst, err / want)
                honesty_ok &= err <= 3.0 * res.abs_error_estimate
                honesty_ok &= res.converged
    ok = worst <= 1e-11 and honesty_ok
    return ok, f"max rel {worst:.2e}, estimates honest: {honesty_ok}"


# ---------------------------------------------------------------------------
# Berezin transform
# ---------------------------------------------------------------------------

def check_unit_symbol(cfg, cache):
    """B1 = 1: series route on the full grid within 30 s, quadrature route on
    spot points."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1.0, 2.0, 3.0, 4.0):
        for a in (0.5, 1.0, 2.0):
            p = WeightParams(a, m)
            for r in (0.0, 0.5, 1.0, 2.0, 4.0):
                res = berezin_exp_radial(p, 0.0, r, series_tol=cfg.tol_series)
                worst = max(worst, abs(res.value - 1.0))
    elapsed = time.perf_counter() - t0
    worst_q = 0.0
    for m, a, r in ((2.0, 1.0, 1.0), (1.0, 0.5, 2.0), (4.0, 2.0, 1.0)):
        res = berezin_general(WeightParams(a, m), ExpSymbol(0.0), complex(r, 0.0),
                              tol_rel=1e-10, series_tol=cfg.tol_series)
        worst_q = max(worst_q, abs(res.value - 1.0))
    ok = worst <= 1e-9 and elapsed < 30.0 and worst_q <= 1e-9
    return ok, (f"series route max |B1-1| {worst:.2e} ({elapsed:.2f}s), "
                f"quadrature route {worst_q:.2e}")


def check_berezin_zero(cfg, cache):
    """Closed form (alpha/(alpha+delta))^(2/m) at the origin, plus the
    angular-symmetry null case."""
    worst = 0.0
    for m in (1.0, 2.0, 3.0, 4.0, 6.0):
        for a in (0.5, 1.0, 2.0):
            for d in (0.0, 0.5, 1.0, 4.0):
                res = berezin_at_zero(WeightParams(a, m), ExpSymbol(d),
                                      tol_rel=cfg.tol_quad_rel,
                                      max_levels=cfg.quad_max_levels)
                want = (a / (a + d)) ** (2.0 / m)
                worst = max(worst, _rel(res.value, want))
    odd = PlanarSymbol(lambda w: math.cos(math.atan2(w.imag, w.real)) if w else 0.0,
                       1.0,
                       eval_array=lambda w: np.where(np.abs(w) > 0,
                                                     np.cos(np.angle(w)), 0.0))
    res = berezin_at_zero(WeightParams(1.0, 3.0), odd)
    ok = worst <= 1e-10 and abs(res.value) <= 1e-12
    return ok, f"closed-form max rel {worst:.2e}, odd symbol {res.value:.1e}"


def check_m2_closed_form(cfg, cache):
    """Radial route against the m=2 Gaussian closed form."""
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for d in (0.5, 1.0, 2.0):
            for r in (0.0, 0.5, 1.0, 2.0, 4.0):
                res = berezin_exp_radial(WeightParams(a, 2.0), d, r,
                                         series_tol=cfg.tol_series)
                want = (a / (a + d)) * math.exp(-(a * d / (a + d)) * r * r)
                worst = max(worst, _rel(res.value, want))
    return worst <= 1e-10, f"max rel {worst:.2e}"


def check_dual_path(cfg, cache):
    """Series route vs 2-D polar quadrature on the 3^4 grid, with the test
    function radial (Parseval circles) and planar (FFT circles)."""
    t0 = time.perf_counter()
    worst = 0.0
    evals = 0
    for m in (1.0, 2.0, 4.0):
        for a in (0.5, 1.0, 2.0):
            for d in (0.5, 1.0, 2.0):
                for r in (0.0, 0.7, 1.5):
                    p = WeightParams(a, m)
                    s = berezin_exp_radial(p, d, r, series_tol=cfg.tol_series)
                    for f in (ExpSymbol(d), ExpSymbol(d).as_planar(m)):
                        g = berezin_general(p, f, complex(r, 0.0), tol_rel=1e-10,
                                            series_tol=cfg.tol_series)
                        worst = max(worst, _rel(g.value, s.value))
                        evals += g.evaluations
    return worst <= 1e-8, (f"max rel {worst:.2e} over 81 points x 2 routes, "
                           f"{evals:,} evaluations in "
                           f"{time.perf_counter() - t0:.2f}s")


def check_berezin_properties(cfg, cache):
    """Contraction, positivity, and rotation invariance for radial symbols."""
    contraction = True
    positivity = True
    for m, a, d, r in ((2.0, 1.0, 0.5, 1.0), (3.0, 0.5, 2.0, 0.8), (1.0, 2.0, 1.0, 2.0)):
        res = berezin_exp_radial(WeightParams(a, m), d, r)
        contraction &= abs(res.value) <= 1.0 + res.abs_error_estimate
        positivity &= res.value >= -res.abs_error_estimate
    # radiality is nontrivial only through the planar route, where the
    # rotation changes every angular node
    p = WeightParams(1.0, 3.0)
    frad = PlanarSymbol(lambda w: math.exp(-abs(w) ** 3), 1.0,
                        eval_array=lambda w: np.exp(-np.abs(w) ** 3))
    base = berezin_general(p, frad, complex(1.2, 0.0), tol_rel=1e-10)
    worst_rot = 0.0
    for th in (math.pi / 7.0, math.pi / 3.0):
        rot = berezin_general(p, frad, 1.2 * cmath.exp(1j * th), tol_rel=1e-10)
        worst_rot = max(worst_rot, _rel(rot.value, base.value))
        contraction &= abs(rot.value) <= 1.0 + rot.abs_error_estimate
    ok = contraction and positivity and worst_rot <= 1e-9
    return ok, (f"contraction: {contraction}, positivity: {positivity}, "
                f"rotation max rel {worst_rot:.2e}")


# ---------------------------------------------------------------------------
# commutativity layer
# ---------------------------------------------------------------------------

def check_tt_identities(cfg, cache):
    """Unconditional m=2 identities on random pairs including a 100x ratio."""
    pairs = [(10.0, 0.1)]
    for seed in (42, 909):
        rng = np.random.default_rng(seed)
        pairs += [(float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.3, 5.0)))
                  for _ in range(4)]
    worst = 0.0
    for a, b in pairs:
        for row in tt_identities_m2(a, b, cache=cache):
            worst = max(worst, row.rel_gap)
            if not row.passed:
                return False, f"{row.name} failed at ({a},{b}): gap {row.rel_gap:.2e}"
    return worst <= 1e-9, f"max rel gap {worst:.2e} over {len(pairs)} pairs"


def check_derivative_identities(cfg, cache):
    """Finite differences against the ladder identity, plus the h^2 order:
    the step is 1e-4 of beta, then half that."""
    worst = 0.0
    for m in (2.0, 4.0):
        for n in (0, 1):
            for a, b in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
                _, _, gap = derivative_identity_check(a, b, m, n, h_rel=1e-4,
                                                      cache=cache)
                worst = max(worst, gap)
    g1, g2 = (derivative_identity_check(1.0, 2.0, 2.0, 0, h_rel=h,
                                        cache=cache)[2] for h in (1e-4, 5e-5))
    factor = g1 / g2
    ok = worst <= 1e-5 and 3.0 <= factor <= 5.0
    return ok, f"max rel gap {worst:.2e}, halving factor {factor:.2f}"


def check_lemma1(cfg, cache):
    """Low-order U-symmetry: certified broken at m=4, intact at m=2."""
    gaps = lemma1_witness(1.0, 2.0, 4.0, cache=cache)
    sig = [g for g in gaps if significant(g[1], g[2], cfg.defect_kappa)]
    match = all(_rel(g, ref.U_GAP_M4_12[n]) <= 1e-5 for n, g, _ in gaps)
    m2 = lemma1_witness(1.0, 3.0, 2.0, cache=cache)
    m2_ok = abs(m2[0][1]) <= 1e-10 * math.pi / 4.0
    eq = lemma1_witness(1.3, 1.3, 4.0, cache=cache)
    eq_ok = all(g == 0.0 for _, g, _ in eq)
    ok = bool(sig) and match and m2_ok and eq_ok
    return ok, (f"m=4 significant gaps at n={[g[0] for g in sig]} (match ref: "
                f"{match}), m=2 gap {m2[0][1]:.1e}, equal-scale gaps zero: {eq_ok}")


def check_u_growth_bound(cfg, cache):
    """Boundedness of U(n)/alpha^{2n/m} for (m, alpha, beta) = (4, 1, 2)."""
    vals = [cache.u(1.0, 2.0, 4.0, n).value for n in range(101)]
    n_star = int(np.argmax(vals))
    tail_ok = max(vals[50:]) <= 1.01 * max(vals)
    ok = n_star <= 50 and tail_ok
    return ok, f"max at n={n_star}, tail within 1%: {tail_ok}"


def check_defect_m2(cfg, cache):
    """Commutativity at m=2 over the 4x4x4 grid, with the closed form."""
    grid = (0.5, 1.0, 2.0, 4.0)
    worst_d, worst_cf, any_sig = 0.0, 0.0, False
    bound_ok = True
    for a, b, d in itertools.product(grid, grid, grid):
        rep = defect(a, b, 2.0, d, kappa=cfg.defect_kappa, cache=cache)
        worst_d = max(worst_d, abs(rep.defect))
        bound_ok &= abs(rep.defect) <= cfg.defect_kappa * rep.combined_error
        any_sig |= rep.significant
        want = a * b / (a * b + a * d + b * d)
        worst_cf = max(worst_cf, _rel(rep.forward.value, want))
    ok = worst_d <= 1e-9 and worst_cf <= 1e-9 and bound_ok and not any_sig
    return ok, (f"max |defect| {worst_d:.2e}, closed-form max rel {worst_cf:.2e}, "
                f"none significant: {not any_sig}")


def check_defect_non_m2(cfg, cache):
    """Non-commutativity witnesses for m in {1, 3, 4, 6}, each validated
    against the independent composition oracle."""
    pairs = ((1.0, 2.0), (1.0, 5.0), (0.5, 4.0))
    deltas = (0.5, 1.0, 2.0)
    details = []
    for m in (1.0, 3.0, 4.0, 6.0):
        best = None
        for (a, b), d in itertools.product(pairs, deltas):
            rep = defect(a, b, m, d, kappa=cfg.defect_kappa, cache=cache)
            if rep.significant and (best is None or abs(rep.defect) > abs(best.defect)):
                best = rep
        if best is None:
            return False, f"no significant defect found at m={m}"
        a, b, _ = best.params_pair
        fw = nested_by_composition(a, b, m, best.delta, series_tol=cfg.tol_series)
        bw = nested_by_composition(b, a, m, best.delta, series_tol=cfg.tol_series)
        oracle = fw.value - bw.value
        rel = _rel(best.defect, oracle)
        if rel > 1e-4:
            return False, f"witness at m={m} disagrees with oracle: rel {rel:.2e}"
        details.append(f"m={m:g}: {best.defect:+.3e} (oracle rel {rel:.0e})")
    return True, "; ".join(details)


def check_nested_consistency(cfg, cache):
    """U-series route vs direct composition; range and delta-monotonicity."""
    worst = 0.0
    for a, b, d in ((1.0, 2.0, 1.0), (0.5, 1.0, 0.5), (2.0, 1.0, 2.0)):
        nv = nested_at_zero(a, b, 2.0, d, cache=cache)
        comp = nested_by_composition(a, b, 2.0, d, series_tol=cfg.tol_series)
        worst = max(worst, _rel(nv.value, comp.value))
    nf = nested_at_zero(1.0, 2.0, 4.0, 1.0, cache=cache)
    worst_ref = _rel(nf.value, ref.NESTED_M4_FWD_1_2_D1)
    vals = [nested_at_zero(1.0, 2.0, 3.0, d, cache=cache).value
            for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
    mono = all(x > y for x, y in zip(vals, vals[1:]))
    in_range = all(0.0 < v <= 1.0 + 1e-12 for v in vals)
    ok = worst <= 1e-7 and worst_ref <= 1e-7 and mono and in_range
    return ok, (f"m=2 composition max rel {worst:.2e}, m=4 vs reference "
                f"{worst_ref:.2e}, delta-monotone: {mono}, in (0,1]: {in_range}")


def check_dilation(cfg, cache):
    """Alpha is a dilation: (B_beta B_alpha f_delta)(0) depends only on
    beta/alpha and delta/alpha, and S_alpha(zeta) = S_1(alpha^(2/m) zeta).
    nested_at_zero at t (1, beta, delta), and kernel_series at fixed
    w = alpha^(2/m) zeta, must agree with their alpha = 1 values within the
    sum of the two bounds (plus 2 eps per term for rounding w alpha^(-2/m))."""
    worst_nv = worst_sv = 0.0
    for m in (0.5, 1.0, 2.0, 3.0, 10.0):
        for r_beta, r_delta in ((2.0, 1.0), (0.5, 3.0), (10.0, 0.1)):
            base = nested_at_zero(1.0, r_beta, m, r_delta, cache=cache)
            for t in (1e-3, 0.1, 10.0, 1e3, 1e5):
                nv = nested_at_zero(t, t * r_beta, m, t * r_delta, cache=cache)
                worst_nv = max(worst_nv, abs(nv.value - base.value)
                               / (nv.error_bound + base.error_bound))
        for w in (0.37 * 30.0 ** (2.0 / m), -0.41 * 8.0 ** (2.0 / m),
                  0.43 * 30.0 ** (2.0 / m) * cmath.exp(2.1j)):
            base = kernel_series(WeightParams(1.0, m), w, tol=cfg.tol_series)
            for a in (1e-3, 0.1, 10.0, 1e3, 1e6):
                sv = kernel_series(WeightParams(a, m), w * a ** (-2.0 / m),
                                   tol=cfg.tol_series)
                worst_sv = max(worst_sv, _rel(sv.value, base.value) / (
                    sv.truncation_error_bound + base.truncation_error_bound
                    + 2.0 * _EPS * sv.truncation_terms))
    return worst_nv <= 1.0 and worst_sv <= 1.0, (
        f"nested_at_zero {worst_nv:.2f} and kernel_series {worst_sv:.2f} of "
        f"the bound sums (75 pairs each)")


def check_asymptotics(cfg, cache):
    """Large-beta scaling exponents of the two slope integrals."""
    grid = np.geomspace(1e3, 1e5, 7)
    s0, sp = asymptotic_slopes(4.0, 1.0, grid, cache=cache)
    ok4 = abs(s0 + 0.5) <= 0.05 and abs(sp + 1.5) <= 0.05
    s0_2, _ = asymptotic_slopes(2.0, 1.0, grid, cache=cache)
    ok2 = abs(s0_2 + 1.0) <= 0.05
    s0_6, _ = asymptotic_slopes(6.0, 1.0, grid, cache=cache)
    ok6 = abs(s0_6 + 1.0 / 3.0) <= 0.05
    ok = ok4 and ok2 and ok6
    return ok, (f"m=4: ({s0:.3f}, {sp:.3f}) want (-0.5, -1.5); "
                f"m=2: {s0_2:.3f} want -1; m=6: {s0_6:.3f} want -1/3")


def check_scan_determinism(cfg, cache):
    """Scan bytes independent of the cache state and of the delta order
    (a fresh cache, one warmed by an overlapping scan, one whose U blocks
    were first entered above their first row, reversed deltas), and an
    exact CSV round trip."""
    m_list, deltas = (2.0, 4.0), (0.5, 1.0, 2.0)
    rows = compute_scan(m_list, 1.0, 2.0, deltas, cfg)
    text = rows_to_csv(rows)
    warm = cache_from_config(cfg)
    compute_scan((4.0,), 1.0, 2.0, (1.0, 3.0), cfg, cache=warm)
    warm_same = rows_to_csv(compute_scan(m_list, 1.0, 2.0, deltas, cfg,
                                         cache=warm)) == text
    # the scan uses U(n) up to n = 90; ask for high n first, top block first
    high = cache_from_config(cfg)
    for n in (90, 60, 30):
        for m in m_list:
            high.u(1.0, 2.0, m, n)
            high.u(2.0, 1.0, m, n)
    high_same = rows_to_csv(compute_scan(m_list, 1.0, 2.0, deltas, cfg,
                                         cache=high)) == text
    order_same = rows_to_csv(compute_scan(m_list, 1.0, 2.0, deltas[::-1],
                                          cfg)) == text
    roundtrip = parse_csv(text) == rows
    ok = warm_same and high_same and order_same and roundtrip
    return ok, (f"identical with warm cache: {warm_same}, with U warmed from "
                f"high n: {high_same}, with reversed deltas: {order_same}, "
                f"round-trip exact: {roundtrip}")


CHECKS = (
    ("kernel-m2", check_kernel_m2),
    ("kernel-reference", check_kernel_reference),
    ("moments", check_moments),
    ("kernel-properties", check_kernel_properties),
    ("ml-branch", check_ml_branch),
    ("quad-oracle", check_quad_oracle),
    ("unit-symbol", check_unit_symbol),
    ("berezin-zero", check_berezin_zero),
    ("m2-closed-form", check_m2_closed_form),
    ("dual-path", check_dual_path),
    ("berezin-properties", check_berezin_properties),
    ("tt-identities", check_tt_identities),
    ("derivative-identities", check_derivative_identities),
    ("lemma1", check_lemma1),
    ("u-growth-bound", check_u_growth_bound),
    ("defect-m2", check_defect_m2),
    ("defect-non-m2", check_defect_non_m2),
    ("nested-consistency", check_nested_consistency),
    ("dilation", check_dilation),
    ("asymptotics", check_asymptotics),
    ("scan-determinism", check_scan_determinism),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_checks(names=None, cfg: RunConfig | None = None, report=None):
    """Run all (or the named subset of) verification checks.

    report, when given, is called with each CheckResult as it completes.
    """
    cfg = cfg or RunConfig()
    if names:
        unknown = set(names) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}; "
                             f"known: {', '.join(CHECK_NAMES)}")
        selected = [(n, f) for n, f in CHECKS if n in set(names)]
    else:
        selected = list(CHECKS)
    cache = cache_from_config(cfg)
    results = []
    for name, fn in selected:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(cfg, cache)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CheckResult(name, bool(passed), detail, time.perf_counter() - t0)
        results.append(res)
        if report is not None:
            report(res)
    return results
