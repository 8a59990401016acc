"""Nested transforms, commutator defects, and the certification probes."""

import decimal
import math
import threading
import time

import mpmath
import numpy as np
import pytest

from fockberezin import commutativity, quadrature, special
from fockberezin import (NonConvergenceError, UCache, asymptotic_slopes,
                         defect, derivative_identity_check, lemma1_witness,
                         nested_at_zero, nested_by_composition,
                         tt_identities_m2, u_function)
from fockberezin._reference import (DEFECT_M4_1_2_D1, NESTED_M4_BWD_2_1_D1,
                                    NESTED_M4_FWD_1_2_D1, U_GAP_M4_12, U_M4)
from fockberezin.berezin import ExpSymbol, berezin_general
from fockberezin.commutativity import _U_BLOCK, UBlock, UValue
from fockberezin.special import WeightParams, kernel_series, reproducing_kernel


@pytest.fixture(scope="module")
def cache():
    return UCache()


class StubU:
    """A U cache for nested_at_zero whose U(n) has the log log_u(n) and
    relative error 1e-14; the rows in failed did not converge."""

    series_tol = UCache().series_tol

    def __init__(self, log_u, failed=()):
        self.log_u = log_u
        self.failed = set(failed)

    def block(self, alpha, beta, m, n0):
        n = np.arange(n0, n0 + _U_BLOCK)
        log_v = self.log_u(n).astype(float)
        failed = {k: NonConvergenceError(f"stub U(n={k})")
                  for k in self.failed if n0 <= k < n0 + _U_BLOCK}
        for k in failed:
            log_v[k - n0] = math.nan
        value = np.exp(log_v)
        return UBlock(n0, value, 1e-14 * value, log_v,
                      np.full(_U_BLOCK, 1e-14), failed)

    def u(self, alpha, beta, m, n):
        if n in self.failed:
            raise NonConvergenceError(f"stub U(n={n})")
        log_v = float(self.log_u(np.array(n)))
        return UValue(n, math.exp(log_v), 1e-14 * math.exp(log_v), log_v,
                      1e-14)


def nested_term_by_term(alpha, beta, m, delta, cache):
    """nested_at_zero's series walked one cache.u call per term: the same
    stop rule, tail and error, as (value, error_bound, n_terms)."""
    log_da = math.log(delta + alpha)
    logs, scale, partial, weighted, streak, n = [], None, 0.0, 0.0, 0, 0
    while True:
        u = cache.u(alpha, beta, m, n)
        logs.append(u.log_value - ((2.0 * n + 2.0) / m) * log_da)
        if scale is None or logs[-1] > scale:
            adj = 0.0 if scale is None else math.exp(scale - logs[-1])
            partial, weighted, scale = partial * adj, weighted * adj, logs[-1]
        t = math.exp(logs[-1] - scale)
        partial += t
        weighted += t * u.rel_error
        if n >= 3:
            top = math.exp(max(np.diff(logs[-4:])))
            rho = min(top, 0.98)
            small = top < 1.0 and t <= cache.series_tol * partial * (1.0 - rho)
            streak = streak + 1 if small else 0
            if streak >= 2:
                break
        n += 1
    log_pref = (math.log(m) + (2.0 / m) * (math.log(alpha) + math.log(beta))
                - math.log(2.0 * math.pi) - WeightParams(alpha, m).log_gamma_2m)
    value = math.exp(log_pref + scale + math.log(partial))
    rel = (weighted / partial + t * rho / (1.0 - rho) / partial
           + 8.0 * commutativity._EPS * (n + 1))
    return value, value * rel, n + 1


class TestUFunction:
    def test_m2_closed_form(self, cache):
        # U(n) = pi alpha^{2n} / (alpha+beta)^{n+1} at m=2
        u = u_function(1.0, 1.0, 2.0, 0, cache=cache)
        assert u.value == pytest.approx(math.pi / 2.0, rel=1e-12)
        u = u_function(2.0, 1.0, 2.0, 1, cache=cache)
        assert u.value == pytest.approx(4.0 * math.pi / 9.0, rel=1e-12)

    def test_m4_reference_values(self, cache):
        for (a, b, n), want in U_M4.items():
            u = u_function(a, b, 4.0, n, cache=cache)
            assert u.value == pytest.approx(want, rel=1e-11)
            assert abs(u.value - want) <= 3.0 * max(u.error, 1e-15 * want)

    def test_positive(self, cache):
        for n in (0, 3, 10):
            assert u_function(1.5, 0.7, 3.0, n, cache=cache).value > 0.0

    def test_validation(self, cache):
        for bad in (-1, math.inf, math.nan):
            with pytest.raises(ValueError):
                u_function(1.0, 1.0, 2.0, bad, cache=cache)
        # the cache checks its index itself
        for bad in (-1, 2.5):
            with pytest.raises(ValueError, match="nonnegative integer"):
                UCache().u(1.0, 2.0, 4.0, bad)
        with pytest.raises(ValueError):
            u_function(0.0, 1.0, 2.0, 0, cache=cache)
        with pytest.raises(ValueError):
            u_function(1.0, 1.0, -2.0, 0, cache=cache)

    def test_nonconvergence_partial_overflows_to_inf(self):
        # the unconverged integral's partial value exceeds float range; it
        # is reported as inf, not raised as an OverflowError (5 levels
        # leave the rows 53-63 of this block unconverged; its low rows keep
        # it on the quadrature, short of the closed form)
        with pytest.raises(NonConvergenceError) as ei:
            u_function(1.0, 0.01, 0.5, 53, cache=UCache(quad_max_levels=5))
        assert ei.value.partial == math.inf


class TestULadder:
    """UCache computes U(n) in fixed blocks of _U_BLOCK, one exp-sinh run
    per block."""

    def test_m2_closed_form_across_blocks(self):
        # U(n) = pi alpha^(2n) / (alpha+beta)^(n+1) at m = 2
        cache = UCache()
        for alpha, beta in ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (0.4, 0.9)):
            for n in range(3 * _U_BLOCK):
                u = cache.u(alpha, beta, 2.0, n)
                want = math.exp(math.log(math.pi) + 2.0 * n * math.log(alpha)
                                - (n + 1.0) * math.log(alpha + beta))
                assert abs(u.value - want) <= u.error, (alpha, beta, n)

    def test_m2_closed_form_inner_scale_dominant(self):
        # alpha >> beta: the mass sits near (alpha+beta) r^2 = n+1, far left
        # of beta r^2 = n+1, so the exp-sinh window must follow the decay of
        # 1/S_alpha; compared in log form, since U overflows there.  Where
        # alpha r^2 passes 2000 (n = 2000 at (1e5, 1), and the window of
        # (1e6, 1e-3, n = 490) at r^2 = 1e-3) log S comes from the
        # Mittag-Leffler branch, a value, not a bound, and the rows certify.
        # The last four rows converge on their rounding floor, above
        # tol_rel, whatever the size of their integral.  The blocks of
        # n = 184 and of every case from (1e3, 1, 400) on lie past the
        # switch, so their rows come from the library's closed form
        # (TestUClosedForm), not from the exp-sinh rule.  The closed form is
        # taken in mpmath: in doubles it rounds at about eps 2n |log alpha|.
        cases = [(alpha, beta, n) for alpha, beta in ((100.0, 1.0), (1.0, 0.01))
                 for n in (0, 31, 63, 100, 184)]
        cases += [(1e5, 1.0, 100), (1e3, 1.0, 400), (1e3, 1.0, 600),
                  (1e3, 1e-3, 400), (1e5, 0.1, 400), (1e3, 10.0, 1000),
                  (1e5, 1.0, 2000), (1e6, 1e-3, 490)]
        cases += [(100.0, 1.0, 1270), (1e-3, 1e-3, 2000), (10.0, 10.0, 2240),
                  (1e3, 1e-3, 2240)]
        for alpha, beta, n in cases:
            u = UCache().u(alpha, beta, 2.0, n)
            with mpmath.workdps(40):
                a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
                want = (mpmath.log(mpmath.pi) + 2 * n * mpmath.log(a)
                        - (n + 1) * mpmath.log(a + b))
                err = abs(mpmath.expm1(mpmath.mpf(u.log_value) - want))
            assert err <= u.rel_error, (alpha, beta, n)

    def test_first_request_does_not_matter(self):
        """U(n) has the same bits whichever n of its block is asked for
        first: alone, in ascending order, or in descending order."""
        args = (1.3, 0.7, 3.0)
        filled = UCache()
        for n in range(48):
            filled.u(*args, n)
        assert UCache().u(*args, 37) == filled.u(*args, 37)
        backward = UCache()
        for n in reversed(range(48)):
            assert backward.u(*args, n) == filled.u(*args, n), n

    def test_unconverged_row_raises_only_when_asked(self):
        # at 5 levels, the rows 53-63 of the block of 0 stay unconverged
        # and the other 53, 52 among them, converge
        args = (1.0, 0.01, 0.5)
        assert 54 // _U_BLOCK == 52 // _U_BLOCK
        cache = UCache(quad_max_levels=5)
        for _ in range(2):
            with pytest.raises(NonConvergenceError) as ei:
                cache.u(*args, 54)
            assert ei.value.partial == math.inf
            assert ei.value.error_bound == math.inf
            assert f"m={args[2]},n=54)" in str(ei.value)
        u = cache.u(*args, 52)
        assert u.n == 52 and u.value > 0.0 and u.rel_error < 1e-11

    def test_threads_compute_a_block_once(self, monkeypatch):
        computed = []
        compute = commutativity._u_compute

        def slow_compute(alpha, beta, m, n0, cache):
            computed.append(n0)
            time.sleep(0.05)   # keep the block open while the other asks
            return compute(alpha, beta, m, n0, cache)

        monkeypatch.setattr(commutativity, "_u_compute", slow_compute)
        cache = UCache()
        barrier = threading.Barrier(2)
        got = []

        def ask():
            barrier.wait()
            got.append(cache.u(1.1, 0.9, 3.0, 5))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert computed == [0]
        assert len(got) == 2 and got[0] == got[1]


def _first_closed_block(alpha, beta, m, cache):
    """n0 of the first U block whose every row meets quad_tol_rel under the
    proven bound of the Mittag-Leffler closed form."""
    params = WeightParams(alpha, m)
    for n0 in range(0, 100 * _U_BLOCK, _U_BLOCK):
        n = np.arange(n0, n0 + _U_BLOCK, dtype=float)
        _, rel, _ = special._ml_inverse_moments(params, beta, (2.0 * n + 2.0) / m,
                                                cache.series_tol)
        if rel.max() <= cache.quad_tol_rel:
            return n0
    raise AssertionError(f"no closed block below n = {n0}")


def _count_de_runs(monkeypatch):
    """A list that grows by one on every exp-sinh run (_DESum.run)."""
    runs = []
    run = quadrature._DESum.run

    def counted(self):
        runs.append(self.q.size)
        return run(self)

    monkeypatch.setattr(quadrature._DESum, "run", counted)
    return runs


def _log_u_mpmath(alpha, beta, m, ns):
    """log U(n) for each n in ns at 40 digits, independent of the library:
    S(t) = sum_k alpha^(2k/m) t^k / Gamma((2k+2)/m) summed term by term (in
    decimal, to 1e-44 of the sum past its peak), and the radial integral
    in u = (alpha+beta) r^m by composite 24-point Gauss-Legendre, panels
    6 sqrt(s) wide, over the range where u^(s-1) e^-u is within e^-50 of
    its peak.  (Halving the panels moves the logs by below 1e-22.)"""
    ctx = decimal.Context(prec=45)
    with mpmath.workdps(40):
        a, b, mm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(m)
        coef = []

        def inv_s(t):
            td = ctx.create_decimal(mpmath.nstr(t, 45))
            tot = prev = decimal.Decimal(0)
            tk, k = decimal.Decimal(1), 0
            while True:
                if k == len(coef):
                    c = mpmath.exp(2 * k / mm * mpmath.log(a)
                                   - mpmath.loggamma((2 * k + 2) / mm))
                    coef.append(ctx.create_decimal(mpmath.nstr(c, 45)))
                term = ctx.multiply(coef[k], tk)
                tot = ctx.add(tot, term)
                if k > 10 and term < prev and term < tot * decimal.Decimal("1e-44"):
                    return 1 / mpmath.mpf(str(tot))
                prev = term
                tk = ctx.multiply(tk, td)
                k += 1

        s_lo, s_hi = ((2 * n + 4) / mm - 1 for n in (min(ns), max(ns)))

        def depth(u, s):   # log of u^(s-1) e^-u below its peak, plus 50
            return (s - 1) * mpmath.log(u / (s - 1)) - (u - s + 1) + 50

        lo = max(mpmath.findroot(lambda u: depth(u, s_lo), s_lo * 0.3), 0)
        hi = mpmath.findroot(lambda u: depth(u, s_hi), s_hi * 3)
        panels = int(mpmath.ceil((hi - lo) / (6 * mpmath.sqrt(s_lo))))
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(
            4, mpmath.mp.prec)
        nodes = []
        for p in range(panels):
            left = lo + p * (hi - lo) / panels
            half = (hi - lo) / panels / 2
            nodes += [(left + half * (1 + x), half * w) for x, w in rule]
        vals = [w * inv_s((u / (a + b)) ** (2 / mm)) * mpmath.exp(-b * u / (a + b))
                for u, w in nodes]
        out = []
        for n in ns:
            q = (2 * n + 2) / mm
            integral = mpmath.fsum(v * u ** (q - 1) for (u, _), v in zip(nodes, vals))
            out.append(mpmath.log(2 * mpmath.pi) + 4 * n / mm * mpmath.log(a)
                       - mpmath.loggamma(q) + mpmath.log(integral / (mm * (a + b) ** q)))
        return out


def _exact_closed_bound(alpha, beta, m, ns, tol):
    """The closed form's bound b/(1-b) + (L_true + L_model)/J for each n,
    with the incomplete gamma functions from mpmath, not their bound."""
    a = 2.0 / m
    x_sw = special._ml_switch(m, tol)
    _, ks, coef = special._ml_contour(m)
    b = special._ml_rel_bound(a, ks, coef, x_sw)
    with mpmath.workdps(30):
        al, be = mpmath.mpf(alpha), mpmath.mpf(beta)
        out = []
        for n in ns:
            q = mpmath.mpf(2 * n + 2) / m
            s = q + a - 1
            pref = a / m * al ** (a - 1) * (al + be) ** -s
            j = pref * mpmath.gamma(s)
            l_true = (mpmath.gamma(a) * be ** -q
                      * mpmath.gammainc(q, 0, be * x_sw / al) / m)
            l_model = pref * mpmath.gammainc(s, 0, (al + be) * x_sw / al)
            out.append(float(b / (1 - b) + (l_true + l_model) / j))
        return out


class TestUClosedForm:
    """Past the Mittag-Leffler switch a whole U block is a Gamma ratio,
    taken with no exp-sinh run wherever its proven bound meets
    quad_tol_rel in every row."""

    def test_closed_rows_against_mpmath(self, monkeypatch):
        """The true error of the first and last row of the first closed
        block is within the row's rel_error, at m = 0.5, 1, 3, 4, 10."""
        runs = _count_de_runs(monkeypatch)
        for m, alpha, beta in ((0.5, 3.0, 1.0), (1.0, 2.0, 1.0), (3.0, 1.0, 0.5),
                               (4.0, 1.0, 1.0), (10.0, 1.0, 0.2)):
            cache = UCache()
            n0 = _first_closed_block(alpha, beta, m, cache)
            ns = (n0, n0 + _U_BLOCK - 1)
            got = [cache.u(alpha, beta, m, n) for n in ns]
            want = _log_u_mpmath(alpha, beta, m, ns)
            for u, w in zip(got, want):
                with mpmath.workdps(40):
                    err = float(abs(mpmath.expm1(mpmath.mpf(u.log_value) - w)))
                assert err <= u.rel_error < 1e-11, (m, alpha, beta, u.n)
        assert runs == []

    def test_closed_form_against_quadrature(self, monkeypatch):
        """On 20 seeded points, the closed block and a forced exp-sinh run
        agree within the sum of their bounds.  The closed block makes no
        exp-sinh run and the block below it exactly one; at the closed
        block the exact bound (the incomplete gammas from mpmath) meets
        quad_tol_rel too, so the switch cannot widen past what the bound
        proves."""
        rng = np.random.default_rng(18)
        ms = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)
        runs = _count_de_runs(monkeypatch)
        for i in range(20):
            m = ms[i % len(ms)]
            alpha = 10.0 ** rng.uniform(-3.0, 6.0)
            beta = alpha * 10.0 ** rng.uniform(-2.0, 0.5)
            cache = UCache()
            n0 = _first_closed_block(alpha, beta, m, cache)
            assert n0 > 0
            for start, want_runs in ((n0 - _U_BLOCK, [_U_BLOCK]), (n0, [])):
                runs.clear()
                cache.block(alpha, beta, m, start)
                assert runs == want_runs, (m, alpha, beta, start)
            n = np.arange(n0, n0 + _U_BLOCK, dtype=float)
            assert max(_exact_closed_bound(alpha, beta, m, n.tolist(),
                                           cache.series_tol)) <= cache.quad_tol_rel
            log_j, rel, rounding = special._ml_inverse_moments(
                WeightParams(alpha, m), beta, (2.0 * n + 2.0) / m, cache.series_tol)
            (log_q, _, rel_q, converged), _ = commutativity._u_quadrature(
                cache.inv_kernel_symbol(alpha, m), alpha, beta, m,
                2.0 * n + 1.0)
            assert converged.all()
            gap = np.abs(np.expm1(log_q - log_j))
            assert np.all(gap <= rel + rounding + rel_q), (m, alpha, beta, n0)

    def test_closed_block_does_not_depend_on_quad_levels(self):
        """A closed block reads no quadrature setting: the row at n = 2240
        of (1.075990301847395, 0.020672902749768567, m=4), which 7 levels
        left unconverged on the exp-sinh route, certifies at 3 levels and
        at 12 with the same bits."""
        args = (1.075990301847395, 0.020672902749768567, 4.0)
        u3 = UCache(quad_max_levels=3).u(*args, 2240)
        assert u3 == UCache().u(*args, 2240)
        assert u3.value > 0.0 and u3.rel_error < 1e-10


class TestRoundingFloor:
    """A U row whose level-to-level difference falls inside the rounding
    floor of its own terms converges there, before max_levels, even where
    that floor lies above tol_rel; rows that meet tol_rel first are left
    alone."""

    @staticmethod
    def _rows(alpha, beta, m, ns):
        g = UCache().inv_kernel_symbol(alpha, m)
        return commutativity._u_quadrature(
            g, alpha, beta, m, [2.0 * n + 1.0 for n in ns])

    def test_stops_before_max_levels(self, monkeypatch):
        # at m = 0.5, q = 4n + 4 is near 4,600 and so is the size of each
        # exponent, whose rounding alone exceeds the tolerance
        args = (0.01, 1.0, 0.5)
        block = range(1152, 1152 + _U_BLOCK)
        (_, _, rel, converged), evals = self._rows(*args, block)
        assert converged.all()
        assert rel.max() <= 1.1e-11
        monkeypatch.setattr(quadrature, "_FLOOR_ULPS", 0.0)   # no floor
        (*_, converged_full), evals_full = self._rows(*args, block)
        assert not converged_full.any()
        assert 1.5 * evals < evals_full

    def test_spares_a_row_still_converging(self, monkeypatch):
        # relative level differences 2.0e-6 and 2.8e-14 at n = 16 (levels 3
        # and 4): the first is far above the row's rounding
        args = (92.67044675006838, 2707.9234317226887, 6.0, range(_U_BLOCK))
        rows, evals = self._rows(*args)
        monkeypatch.setattr(quadrature, "_FLOOR_ULPS", 0.0)
        rows_full, evals_full = self._rows(*args)
        assert evals_full == evals
        for got, want in zip(rows_full, rows):
            assert np.array_equal(got, want)
        assert rows[3][16]   # converged

    def test_single_row_runs_unchanged(self, monkeypatch):
        def points():
            return [berezin_general(WeightParams(a, m), ExpSymbol(d), z,
                                    tol_rel=1e-10)
                    for a, m, d, z in ((1.3, 1.0, 0.8, 0.9 + 0.4j),
                                       (0.7, 3.0, 1.6, -0.5 + 1.1j))]
        got = points()
        monkeypatch.setattr(quadrature, "_FLOOR_ULPS", 0.0)
        assert points() == got


class TestULogGammaRounding:
    """A U row's rel_error counts the error of log Gamma((2n+2)/m), which
    the moment table takes from _log_gamma_array: against the exact
    (2n+2)/m it errs by up to 17 eps below x = 10 (lgamma, at x = 23/3)
    and 141 eps above (Stirling, at x = 104/3), far more than one eps of
    its size."""

    @pytest.mark.parametrize("m", [3.0, 4.0, 6.0, 10.0])
    def test_counts_the_log_gamma_error(self, monkeypatch, m):
        quad = []

        u_quadrature = commutativity._u_quadrature

        def recorded(*args, **kwargs):
            quad.append(u_quadrature(*args, **kwargs))
            return quad[-1]

        monkeypatch.setattr(commutativity, "_u_quadrature", recorded)
        blk = UCache().block(1.0, 1.0, m, 0)
        assert len(quad) == 1   # the block takes the exp-sinh run
        (_, _, rel, _), _ = quad[0]
        lg_gamma = special.moment_table(m).log_moments(_U_BLOCK)
        with mpmath.workdps(30):
            err = [float(abs(mpmath.loggamma(mpmath.mpf(2 * n + 2) / m)
                             - mpmath.mpf(v)))
                   for n, v in enumerate(lg_gamma.tolist())]
        assert max(err) > 4.0 * special._EPS   # several eps, not one
        assert np.all(blk.rel_error - rel >= err), m


class TestNested:
    def test_m2_closed_form(self, cache):
        nv = nested_at_zero(1.0, 2.0, 2.0, 1.0, cache=cache)
        assert nv.value == pytest.approx(0.4, rel=1e-9)
        assert abs(nv.value - 0.4) <= 10.0 * nv.error_bound

    def test_delta_zero_is_unit(self, cache):
        for a, b, m in [(1.0, 2.0, 2.0), (0.5, 1.5, 4.0), (2.0, 1.0, 3.0)]:
            nv = nested_at_zero(a, b, m, 0.0, cache=cache)
            assert nv.value == pytest.approx(1.0, rel=1e-11)

    def test_m4_reference(self, cache):
        nf = nested_at_zero(1.0, 2.0, 4.0, 1.0, cache=cache)
        nb = nested_at_zero(2.0, 1.0, 4.0, 1.0, cache=cache)
        assert nf.value == pytest.approx(NESTED_M4_FWD_1_2_D1, rel=1e-11)
        assert nb.value == pytest.approx(NESTED_M4_BWD_2_1_D1, rel=1e-11)

    def test_range_and_monotonicity(self, cache):
        vals = [nested_at_zero(1.0, 2.0, 3.0, d, cache=cache).value
                for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(0.0 < v <= 1.0 + 1e-12 for v in vals)
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_matches_composition(self, cache):
        for a, b, m, d in [(1.0, 2.0, 2.0, 1.0), (0.5, 1.0, 2.0, 0.5),
                           (1.0, 2.0, 4.0, 1.0), (1.0, 2.0, 3.0, 0.5)]:
            nv = nested_at_zero(a, b, m, d, cache=cache)
            comp = nested_by_composition(a, b, m, d)
            assert nv.value == pytest.approx(comp.value, rel=1e-7)

    @pytest.mark.parametrize("series_tol", [1e-13, 1e-16])
    def test_composition_estimate_covers_its_error(self, series_tol):
        """At m = 2 with inner >> outer, the rounding of the two log S
        factors, about eps alpha r^m each, dominates the composition's
        error; its estimate counts it, whatever the series tolerance."""
        for alpha, beta, delta in ((1e3, 1.0, 1.0), (100.0, 1.0, 1.0)):
            res = nested_by_composition(alpha, beta, 2.0, delta,
                                        series_tol=series_tol)
            with mpmath.workdps(40):
                a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
                want = a * b / (a * b + a * delta + b * delta)
                err = float(abs(res.value - want))
            assert res.converged
            assert err <= res.abs_error_estimate, (alpha, beta)

    def test_growing_terms_never_stop(self):
        """Terms that grow again far below the first one do not end the
        series, however small they are next to it."""
        def log_u(n):
            return np.where(n == 0, 0.0, -400.0 + 0.5 * n)

        # alpha + delta = 1, so each term is U(n) itself
        with pytest.raises(NonConvergenceError, match="exceeded 200 terms"):
            nested_at_zero(0.5, 1.0, 2.0, 0.5, cache=StubU(log_u),
                           max_terms=200)

    def test_delta_validation(self, cache):
        with pytest.raises(ValueError):
            nested_at_zero(1.0, 2.0, 2.0, -1.0, cache=cache)


class TestNestedBlocks:
    """nested_at_zero weighs U a block at a time; the series it sums is the
    one walked term by term."""

    # (m, alpha, beta, delta, the block in which the series stops)
    CASES = [(0.5, 1.0, 2.0, 1.0, 0), (0.5, 8.0, 1.0, 0.3, 1),
             (0.5, 30.0, 1.0, 1.0, 2), (2.0, 1.0, 2.0, 1.0, 0),
             (2.0, 2.0, 1.0, 0.1, 1), (2.0, 6.0, 1.0, 0.3, 2),
             (4.0, 1.0, 2.0, 1.0, 0), (4.0, 2.0, 1.0, 1.0, 1),
             (4.0, 2.0, 1.0, 0.03, 2), (10.0, 1.0, 4.0, 1.0, 0),
             (10.0, 1.0, 2.0, 1.0, 1), (10.0, 2.0, 1.0, 1.0, 2)]

    @pytest.mark.parametrize("m,alpha,beta,delta,block", CASES)
    def test_matches_term_by_term(self, cache, m, alpha, beta, delta, block):
        nv = nested_at_zero(alpha, beta, m, delta, cache=cache)
        value, error, n_terms = nested_term_by_term(alpha, beta, m, delta,
                                                    cache)
        assert (nv.n_terms - 1) // _U_BLOCK == block
        assert nv.n_terms == n_terms
        assert abs(nv.value - value) <= 0.01 * nv.error_bound
        assert nv.error_bound == pytest.approx(error, rel=1e-9, abs=0.0)

    def test_peak_past_the_first_block(self):
        # the terms rise to n = 100 and the scale moves in the second block
        stub = StubU(lambda n: -((n - 100.0) / 20.0) ** 2)
        nv = nested_at_zero(0.5, 1.0, 2.0, 0.5, cache=stub)
        value, error, n_terms = nested_term_by_term(0.5, 1.0, 2.0, 0.5, stub)
        assert nv.n_terms == n_terms > 2 * _U_BLOCK
        assert abs(nv.value - value) <= 0.01 * nv.error_bound
        assert nv.error_bound == pytest.approx(error, rel=1e-9, abs=0.0)

    @staticmethod
    def _falling(n):
        return -0.5 * n   # alpha + delta = 1: each term is U(n)

    def test_unconverged_row_past_the_stop_is_not_read(self):
        n_terms = nested_at_zero(0.5, 1.0, 2.0, 0.5,
                                 cache=StubU(self._falling)).n_terms
        assert n_terms % _U_BLOCK > 0   # the next row is in the same block
        nv = nested_at_zero(0.5, 1.0, 2.0, 0.5,
                            cache=StubU(self._falling, failed=[n_terms]))
        assert nv.n_terms == n_terms

    def test_unconverged_row_reached_raises(self):
        n_terms = nested_at_zero(0.5, 1.0, 2.0, 0.5,
                                 cache=StubU(self._falling)).n_terms
        stub = StubU(self._falling, failed=[n_terms - 1, n_terms])
        with pytest.raises(NonConvergenceError, match=f"n={n_terms - 1}\\)"):
            nested_at_zero(0.5, 1.0, 2.0, 0.5, cache=stub)


class TestResultTypes:
    def test_public_results_are_python_scalars(self, cache):
        u = UCache().u(1.0, 2.0, 4.0, 3)
        assert [type(v) for v in (u.n, u.value, u.error, u.log_value,
                                  u.rel_error)] == [int] + [float] * 4
        rep = defect(1.0, 2.0, 4.0, 1.0, cache=cache)
        for nv in (rep.forward, rep.backward):
            assert [type(v) for v in (nv.value, nv.error_bound,
                                      nv.n_terms)] == [float, float, int]
        assert type(rep.defect) is float
        assert type(rep.combined_error) is float
        assert type(rep.significant) is bool
        for res in (quadrature.integrate_radial(quadrature.unit_symbol(),
                                                1.0, 2.0, 3.0),
                    berezin_general(WeightParams(1.0, 2.0), ExpSymbol(1.0),
                                    0.5 + 0.2j)):
            assert [type(v) for v in (res.value, res.abs_error_estimate,
                                      res.evaluations, res.converged)] == [
                float, float, int, bool]
        for zeta in (2.5, -2.5, 1.0 + 2.0j, 0.0):
            for sv in (kernel_series(WeightParams(1.0, 3.0), zeta),
                       reproducing_kernel(WeightParams(1.0, 3.0), zeta, 1.0)):
                assert [type(v) for v in (sv.log_magnitude,
                                          sv.truncation_error_bound,
                                          sv.truncation_terms)] == [
                    float, float, int]
        with pytest.raises(NonConvergenceError) as ei:
            u_function(1.0, 0.01, 0.5, 53, cache=UCache(quad_max_levels=5))
        assert type(ei.value.partial) is float
        assert type(ei.value.error_bound) is float


class TestDefect:
    def test_m2_not_significant(self, cache):
        rep = defect(1.0, 2.0, 2.0, 1.0, cache=cache)
        assert abs(rep.defect) <= 1e-9
        assert not rep.significant
        assert rep.forward.value == pytest.approx(0.4, rel=1e-9)

    def test_equal_scales_exactly_zero(self, cache):
        rep = defect(1.5, 1.5, 4.0, 1.0, cache=cache)
        assert rep.defect == 0.0
        assert not rep.significant

    def test_m4_significant_and_matches_reference(self, cache):
        rep = defect(1.0, 2.0, 4.0, 1.0, cache=cache)
        assert rep.significant
        assert rep.defect == pytest.approx(DEFECT_M4_1_2_D1, rel=1e-9)

    def test_antisymmetry_exact(self, cache):
        a = defect(1.0, 2.0, 4.0, 1.0, cache=cache)
        b = defect(2.0, 1.0, 4.0, 1.0, cache=cache)
        assert a.defect == -b.defect

    def test_kappa_policy(self, cache):
        rep = defect(1.0, 2.0, 4.0, 1.0, kappa=1e308, cache=cache)
        assert not rep.significant
        assert rep.kappa == 1e308
        # a kappa of 0 or below would call the m = 2 rounding significant,
        # and a NaN one would never call anything significant
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                defect(1.0, 2.0, 2.0, 1.0, kappa=kappa, cache=cache)


class TestLemma1:
    def test_m4_gaps_match_reference(self, cache):
        gaps = lemma1_witness(1.0, 2.0, 4.0, cache=cache)
        assert [n for n, _, _ in gaps] == [0, 1]
        for n, g, err in gaps:
            assert g == pytest.approx(U_GAP_M4_12[n], rel=1e-5)
            assert abs(g) > 10.0 * err  # certifies non-commutativity

    def test_m2_symmetric(self, cache):
        gaps = lemma1_witness(1.0, 3.0, 2.0, cache=cache)
        assert len(gaps) == 1
        assert abs(gaps[0][1]) <= 1e-10 * math.pi / 4.0

    def test_index_range_follows_half_m(self, cache):
        assert [n for n, _, _ in lemma1_witness(1.0, 1.2, 1.0, cache=cache)] == [0]
        assert [n for n, _, _ in lemma1_witness(1.0, 1.2, 3.0, cache=cache)] == [0, 1]
        assert [n for n, _, _ in lemma1_witness(1.0, 1.2, 6.0, cache=cache)] == [0, 1, 2]

    def test_equal_scales_zero(self, cache):
        assert all(g == 0.0 for _, g, _ in lemma1_witness(2.0, 2.0, 4.0, cache=cache))


class TestIdentitiesM2:
    def test_example_pair(self, cache):
        rows = tt_identities_m2(1.0, 2.0, cache=cache)
        assert all(r.passed for r in rows)
        # the first-order gap equals (alpha-beta) pi/(alpha+beta) = -pi/3
        assert rows[1].lhs == pytest.approx(-math.pi / 3.0, rel=1e-10)

    def test_equal_pair_degenerate(self, cache):
        rows = tt_identities_m2(1.0, 1.0, cache=cache)
        assert all(r.passed for r in rows)

    def test_extreme_ratio(self, cache):
        rows = tt_identities_m2(5.0, 0.5, cache=cache)
        assert all(r.rel_gap <= 1e-9 for r in rows)


class TestDerivativeIdentity:
    def test_m2_closed_form_rhs(self, cache):
        lhs, rhs, gap = derivative_identity_check(1.0, 2.0, 2.0, 0, cache=cache)
        assert rhs == pytest.approx(-math.pi / 9.0, rel=1e-11)
        assert gap <= 1e-5

    def test_m2_second_example(self, cache):
        lhs, rhs, gap = derivative_identity_check(2.0, 1.0, 2.0, 1, cache=cache)
        assert rhs == pytest.approx(-(math.pi * 16.0 / 27.0) / 2.0, rel=1e-11)
        assert gap <= 1e-5

    def test_m4(self, cache):
        _, _, gap = derivative_identity_check(1.0, 1.0, 4.0, 0, cache=cache)
        assert gap <= 1e-5

    def test_second_order_convergence(self, cache):
        _, _, g1 = derivative_identity_check(1.0, 2.0, 2.0, 0, h_rel=1e-4, cache=cache)
        _, _, g2 = derivative_identity_check(1.0, 2.0, 2.0, 0, h_rel=5e-5, cache=cache)
        assert 3.0 <= g1 / g2 <= 5.0

    def test_requires_even_m(self, cache):
        with pytest.raises(ValueError):
            derivative_identity_check(1.0, 1.0, 3.0, 0, cache=cache)


class TestAsymptotics:
    def test_m4_slopes(self, cache):
        s0, sp = asymptotic_slopes(4.0, 1.0, np.geomspace(1e3, 1e5, 7), cache=cache)
        assert s0 == pytest.approx(-0.5, abs=0.05)
        assert sp == pytest.approx(-1.5, abs=0.05)

    def test_m6_slope(self, cache):
        s0, _ = asymptotic_slopes(6.0, 1.0, np.geomspace(1e3, 1e5, 7), cache=cache)
        assert s0 == pytest.approx(-1.0 / 3.0, abs=0.05)

    def test_m2_sanity(self, cache):
        s0, _ = asymptotic_slopes(2.0, 1.0, np.geomspace(1e3, 1e5, 7), cache=cache)
        assert s0 == pytest.approx(-1.0, abs=0.05)

    def test_grid_validation(self, cache):
        with pytest.raises(ValueError):
            asymptotic_slopes(4.0, 1.0, [1e3, 2e3, 4e3], cache=cache)  # < 2 decades
        with pytest.raises(ValueError):
            asymptotic_slopes(3.0, 1.0, np.geomspace(1e3, 1e5, 7), cache=cache)


class TestUGrowthBound:
    def test_bounded_ratio(self, cache):
        vals = [u_function(1.0, 2.0, 4.0, n, cache=cache).value for n in range(101)]
        n_star = int(np.argmax(vals))
        assert n_star <= 50
        assert max(vals[50:]) <= 1.01 * max(vals)
