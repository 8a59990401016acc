"""Gamma machinery, moments, and kernel series."""

import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from fockberezin import (MomentTable, NonConvergenceError, WeightParams,
                         kernel_series, log_gamma, log_series_grid,
                         moment_table, reproducing_kernel, stieltjes_moment)
from fockberezin import special
from fockberezin._reference import S_A1_M4_Z1, S_COMPLEX, S_REAL
from fockberezin.special import _EPS, series_abs2_grid
from fockberezin.verify import ML_BRANCH_WEIGHTS, first_t_past_switch


class TestLogGamma:
    def test_exact_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert log_gamma(7.0) == pytest.approx(math.log(720.0), rel=1e-13)

    def test_against_lgamma_wide_range(self):
        xs = np.geomspace(1e-3, 1e4, 5000)
        got = log_gamma(xs)
        want = np.array([math.lgamma(x) for x in xs])
        # relative where the value is away from the zeros of log Gamma,
        # absolute near them
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 1e-13

    def test_array_matches_scalar(self):
        xs = np.geomspace(1e-3, 1e4, 500)
        scalar = np.array([log_gamma(float(x)) for x in xs])
        assert np.allclose(log_gamma(xs), scalar, rtol=1e-14, atol=1e-14)

    def test_array_path_self_consistent(self):
        # cached node values rely on identical floats for identical inputs
        xs = np.geomspace(1e-3, 1e4, 500)
        assert np.array_equal(log_gamma(xs), log_gamma(xs.copy()))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)
        with pytest.raises(ValueError):
            log_gamma(np.array([2.0, bad]))

    def test_error_bound_against_mpmath(self):
        """_log_gamma_error bounds the error at every point of a sweep of
        (0.05, 1e5] and at every moment-table entry x = 2(n+1)/m, n < 2000,
        of the scan's m values, there against the exact rational x.  Below
        the Stirling cut the table also meets the per-entry figure of the
        kernel's rounding bound, (|log Gamma| / 2 + 16) eps."""
        from mpmath import loggamma, mp, mpf
        sweep = np.geomspace(0.05, 1e5, 6000)
        ms = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)
        x = np.concatenate([sweep] + [2.0 * (np.arange(2000.0) + 1.0) / m
                                      for m in ms])
        lg = special._log_gamma_array(x)
        with mp.workdps(40):
            exact = [mpf(v) for v in sweep.tolist()] + [
                mpf(2 * k + 2) / m for m in ms for k in range(2000)]
            err = np.array([float(abs(loggamma(e) - mpf(v)))
                            for e, v in zip(exact, lg.tolist())])
        assert len(x) >= 10000
        assert np.all(err <= special._log_gamma_error(x, lg))
        below = x < special._STIRLING_CUT
        assert np.all(err[below] <= _EPS * (0.5 * np.abs(lg[below]) + 16.0))

    def test_bits_independent_of_batch(self):
        # table entries are materialized in batches of any size and any mix
        xs = np.concatenate([np.geomspace(0.05, 40.0, 301), [10.0]])
        whole = special._log_gamma_array(xs)
        singles = np.array([log_gamma(float(v)) for v in xs])
        assert np.array_equal(whole, singles)
        assert np.array_equal(special._log_gamma_array(xs[::-1])[::-1], whole)
        for lo, hi in ((0, 7), (150, 290), (280, 302)):
            assert np.array_equal(special._log_gamma_array(xs[lo:hi]),
                                  whole[lo:hi])


class TestWeightParams:
    def test_validation(self):
        WeightParams(1.0, 2.0)
        for alpha, m in [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -3.0),
                         (math.inf, 2.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                WeightParams(alpha, m)

    def test_guaranteed_domain_flag(self):
        assert WeightParams(1.0, 2.0).in_guaranteed_domain
        assert WeightParams(1e-3, 0.5).in_guaranteed_domain
        assert not WeightParams(1.0, 0.1).in_guaranteed_domain
        assert not WeightParams(1e7, 2.0).in_guaranteed_domain


class TestMoments:
    def test_m2_factorial_form(self):
        # s_n(alpha, 2) = n!/alpha^n
        assert stieltjes_moment(WeightParams(1.0, 2.0), 3) == pytest.approx(
            math.log(6.0), rel=1e-13)
        assert stieltjes_moment(WeightParams(2.0, 2.0), 3) == pytest.approx(
            math.log(0.75), rel=1e-13)

    def test_m4_value_at_zero(self):
        assert stieltjes_moment(WeightParams(1.0, 4.0), 0) == pytest.approx(
            0.5723649429247001, rel=1e-13)

    def test_formula_accuracy(self):
        for alpha, m in [(0.3, 1.5), (7.0, 4.0), (1e-3, 0.5), (1e5, 9.0)]:
            p = WeightParams(alpha, m)
            for n in (0, 1, 5, 40, 200):
                direct = -(2.0 * n / m) * math.log(alpha) + math.lgamma(2 * (n + 1) / m)
                got = stieltjes_moment(p, n)
                assert got == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_append_only_and_stable(self):
        table = MomentTable(3.0)
        late = table.log_moments(150).copy()
        early = table.log_moments(10)
        assert np.array_equal(late[:10], early)
        again = table.log_moments(150)
        assert np.array_equal(late, again)

    def test_log_convexity(self):
        for m in (0.5, 2.0, 1.0, 10.0, 6.0):
            ls = moment_table(m).log_moments(202)
            second = ls[:-2] + ls[2:] - 2.0 * ls[1:-1]
            assert np.all(second >= -1e-9 * np.maximum(np.abs(ls[1:-1]), 1.0))

    def test_negative_index(self):
        p = WeightParams(1.0, 2.0)
        with pytest.raises(ValueError):
            moment_table(p.m).log_moment(-1)
        for bad in (-1, 2.7, math.nan, math.inf):
            with pytest.raises(ValueError):
                stieltjes_moment(p, bad)
        assert stieltjes_moment(p, 2.0) == stieltjes_moment(p, 2)

    def test_shared_tables_bounded(self):
        rng = np.random.default_rng(5)
        alive = [weakref.ref(moment_table(float(m)))
                 for m in rng.uniform(0.5, 10.0, 1000)]
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= special._TABLES_MAX
        assert len(special._TABLES) <= special._TABLES_MAX

    def test_alphas_of_one_m_share_one_table(self):
        special._TABLES.clear()
        for alpha in (1e-3, 0.7317, 1.0, 20.0):
            kernel_series(WeightParams(alpha, 3.0), 2.5)
            stieltjes_moment(WeightParams(alpha, 3.0), 7)
        assert list(special._TABLES) == [3.0]

    def test_evicted_table_rebuilds_same_bits(self):
        p = WeightParams(0.7317, 3.0)
        kernel_series(p, 400.0)   # grow the table well past what 3.0 needs
        before = kernel_series(p, 3.0)
        table = weakref.ref(moment_table(p.m))
        for m in np.linspace(4.0, 5.0, special._TABLES_MAX):
            moment_table(float(m))
        gc.collect()
        assert table() is None
        assert kernel_series(p, 3.0) == before


class TestKernelSeries:
    def test_m2_exponential_real(self):
        sv = kernel_series(WeightParams(1.0, 2.0), 1.0)
        assert sv.value == pytest.approx(math.e, rel=1e-13)
        assert sv.phase_or_sign == 1.0

    def test_value_at_zero_any_params(self):
        for alpha, m in [(0.5, 1.0), (2.0, 4.0), (1.0, 7.3)]:
            sv = kernel_series(WeightParams(alpha, m), 0.0)
            want = 1.0 / math.gamma(2.0 / m)
            assert sv.value == pytest.approx(want, rel=1e-13)

    def test_m4_reference_value(self):
        sv = kernel_series(WeightParams(1.0, 4.0), 1.0)
        assert sv.value == pytest.approx(S_A1_M4_Z1, rel=1e-13)
        assert abs(sv.value - S_A1_M4_Z1) / S_A1_M4_Z1 <= sv.truncation_error_bound

    def test_reference_corpus_and_error_honesty(self):
        for (a, m, t), want in S_REAL.items():
            sv = kernel_series(WeightParams(a, m), t)
            assert sv.value == pytest.approx(want, rel=1e-12)
            assert abs(sv.value - want) / abs(want) <= sv.truncation_error_bound
        for (a, m, z), want in S_COMPLEX.items():
            sv = kernel_series(WeightParams(a, m), z)
            assert abs(sv.value - want) / abs(want) <= max(
                sv.truncation_error_bound, 1e-12)

    def test_truncation_bound_small_on_success(self):
        # moderate arguments: the reported bound sits at the tolerance scale
        for a, m, t in [(1.0, 2.0, 5.0), (0.7, 1.0, 3.5), (2.0, 4.0, 2.0)]:
            sv = kernel_series(WeightParams(a, m), t)
            assert sv.truncation_error_bound <= 1e-12

    def test_positivity_on_nonneg_axis(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = float(rng.uniform(0.5, 8.0))
            p = WeightParams(float(rng.uniform(0.1, 8.0)), m)
            t = float(rng.uniform(0.0, min(30.0, 50.0 ** (2.0 / m))))
            sv = kernel_series(p, t)
            assert sv.phase_or_sign == 1.0
            assert sv.value > 0.0

    def test_conjugation_exact(self):
        p = WeightParams(1.3, 3.0)
        z = complex(1.1, -0.7)
        assert kernel_series(p, z).value == kernel_series(p, z.conjugate()).value.conjugate()

    # (alpha, zeta): cancelling negative-real and complex arguments, whose
    # condition number sum|a_n| / |S| is at least e^20, then well-conditioned
    # ones.  At m=1, S(zeta) = sinh(alpha sqrt(zeta)) / (alpha sqrt(zeta)).
    CANCELLING = {
        1.0: [(0.5, -2500.0), (0.5, -14400.0), (0.5, -90000.0), (3.0, -400.0),
              (3.0, -2500.0), (0.5, complex(-5127.319139500376, 3830.221722265322)),
              (3.0, complex(-32.44391366809869, 1110.6373367127837)),
              (1.0, complex(-2039.1194990809977, 4455.55739144584))],
        4.0: [(0.5, -7.0710678118654755), (0.5, -11.313708498984761),
              (0.5, -15.556349186104045), (4.0, -4.0), (4.0, -5.5),
              (0.5, complex(1.5132018854392308, 5.4507082158104145)),
              (4.0, complex(-1.4712527931383645, 2.0212410095489752)),
              (1.0, complex(-2.2630269680445236, 6.624100613811901))],
    }
    WELL_CONDITIONED = {
        1.0: [(1.0, 30.0), (2.5, complex(80.0, 3.0))],
        4.0: [(1.0, 3.0), (0.5, complex(4.0, 0.05))],
    }

    @pytest.mark.parametrize("m", [1.0, 4.0])
    def test_bound_honest_under_cancellation(self, m):
        """The true error never exceeds the reported bound (inf allowed),
        and well-conditioned sums keep a bound of at most 1e-12.  Reference:
        the defining series summed in mpmath, with the working precision
        sized from the peak term."""
        from mpmath import exp, fabs, log, mp, mpc, mpf
        from tests.oracle_gen import s_series

        def peak_log(a, az):
            best, n = -math.inf, 0
            while True:
                t = (n * math.log(az) + (2.0 * n / m) * math.log(a)
                     - math.lgamma(2.0 * (n + 1) / m))
                if t < best - 50.0:
                    return best
                best, n = max(best, t), n + 1

        points = ([(a, z, True) for a, z in self.CANCELLING[m]]
                  + [(a, z, False) for a, z in self.WELL_CONDITIONED[m]])
        for a, z, cancelling in points:
            sv = kernel_series(WeightParams(a, m), z)
            bound = sv.truncation_error_bound
            # |S| >= 1 / (peak term) on these points, so twice the peak's
            # digits covers the cancellation; checked below
            dps = 30 + int(2.0 * max(peak_log(a, abs(z)), 0.0) / math.log(10.0))
            with mp.workdps(dps):
                want = s_series(a, m, z)
                log_cond = float(log(s_series(a, m, abs(z)) / fabs(want)))
                phase = complex(sv.phase_or_sign)
                got = mpc(phase.real, phase.imag) * exp(mpf(sv.log_magnitude))
                err = float(fabs(got - want) / fabs(want))
            assert log_cond / math.log(10.0) <= dps - 15, (a, z)
            assert err <= bound, (a, z, err, bound)
            if cancelling:
                assert log_cond >= 20.0, (a, z)
            else:
                assert log_cond <= math.log(2.0) and bound <= 1e-12, (a, z, bound)

    def test_m2_collapse_grid(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            a = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, 50.0))
            sv = kernel_series(WeightParams(a, 2.0), t)
            worst = max(worst, abs(sv.value - math.exp(a * t)) / math.exp(a * t))
        assert worst <= 1e-12

    def test_alternating_negative_axis(self):
        sv = kernel_series(WeightParams(1.0, 2.0), -3.0)
        assert sv.value == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_large_magnitude_goes_through_log(self):
        sv = kernel_series(WeightParams(10.0, 2.0), 200.0)
        assert sv.log_magnitude == pytest.approx(2000.0, rel=1e-12)
        assert math.isinf(sv.value)  # linear value overflows by design

    # on the negative axis, where the series is summed at every |zeta|
    def test_nonconvergence_reports_partial(self):
        # cap hit after the peak: the partial sum and its bound are reported
        with pytest.raises(NonConvergenceError) as ei:
            kernel_series(WeightParams(1.0, 2.0), -100.0, max_terms=110)
        assert ei.value.partial is not None
        assert ei.value.error_bound > 0

    def test_nonconvergence_while_growing(self):
        # cap hit while terms are still growing: nothing useful to report
        with pytest.raises(NonConvergenceError):
            kernel_series(WeightParams(1.0, 2.0), -100.0, max_terms=30)

    def test_walk_matches_full_table(self):
        """The walk's peak and stop against their definitions on a full
        per-m moment table: the peak is the first n with log s_(n+1) -
        log s_n >= log|alpha^(2/m) zeta| at alpha = 1, the stop the first n
        from the peak on whose tail bound meets tol e^-8.  Random (alpha,
        m, |zeta|) over the box, peak indices up to 4000, tol 1e-13 and
        1e-8, walked on a fresh table and on the full one.  With the caps 30 and 110 of the two tests above,
        kernel_series returns where the stop lies below the cap and raises
        with the message of the cap it hits otherwise."""
        rng = np.random.default_rng(43)
        raised = {"growing": 0, "tol": 0}
        for _ in range(40):
            m = float(rng.uniform(0.5, 10.0))
            p = WeightParams(float(10.0 ** rng.uniform(-3.0, 6.0)), m)
            n_hat = 10.0 ** rng.uniform(-2.0, math.log10(4000.0))
            abs_z = (2.0 * n_hat / (m * p.alpha)) ** (2.0 / m)
            zeta = abs_z * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            full = MomentTable(m)
            dlog = np.diff(full.log_moments(special.DEFAULT_MAX_TERMS + 2))
            log_z = math.log(abs_z) + p.log_dilation
            peak = int(np.flatnonzero(dlog >= log_z)[0])
            d = log_z - dlog[peak:]
            e = np.concatenate(([0.0], np.cumsum(d[:-1])))
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = e - np.log(np.expm1(-d))
            for tol in (1e-13, 1e-8):
                ln_tol = math.log(tol)
                stop = peak + int(np.flatnonzero(
                    tail <= ln_tol - special._STOP_MARGIN)[0])
                for table in (MomentTable(m), full):
                    got = special._walk(log_z, table, ln_tol,
                                        special.DEFAULT_MAX_TERMS)
                    assert got[:2] == (peak, stop), (p, abs_z, tol)
                    assert np.array_equal(got[2][: stop + 1], dlog[: stop + 1])
                for cap in (30, 110):
                    if peak > cap:
                        with pytest.raises(NonConvergenceError,
                                           match="still growing"):
                            kernel_series(p, zeta, tol=tol, max_terms=cap)
                        raised["growing"] += 1
                    elif stop >= cap:
                        with pytest.raises(NonConvergenceError,
                                           match="did not meet tol"):
                            kernel_series(p, zeta, tol=tol, max_terms=cap)
                        raised["tol"] += 1
                    else:
                        sv = kernel_series(p, zeta, tol=tol, max_terms=cap)
                        assert sv.truncation_terms == stop + 1
        assert min(raised.values()) >= 3, raised

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            kernel_series(WeightParams(1.0, 2.0), math.inf)
        with pytest.raises(ValueError):
            kernel_series(WeightParams(1.0, 2.0), complex(math.nan, 0.0))


class TestReproducingKernel:
    def test_m2_closed_form(self):
        k = reproducing_kernel(WeightParams(1.0, 2.0), 1.0, 1.0)
        assert k.value == pytest.approx(math.e, rel=1e-13)

    def test_zero_argument_is_one(self):
        k = reproducing_kernel(WeightParams(1.0, 4.0), 0.0, complex(5.0, 5.0))
        assert k.value == pytest.approx(1.0, rel=1e-13)

    def test_m2_oscillatory_closed_form(self):
        k = reproducing_kernel(WeightParams(2.0, 2.0), complex(1, 1), complex(1, -1))
        want = cmath.exp(4.0j)
        assert abs(k.value - want) <= 1e-12

    def test_hermitian_symmetry_exact(self):
        p = WeightParams(0.8, 5.0)
        z, w = complex(0.9, 0.4), complex(-0.3, 1.1)
        assert (reproducing_kernel(p, z, w).value
                == reproducing_kernel(p, w, z).value.conjugate())


def _fires(p, t):
    """Where log_series_grid takes the Mittag-Leffler branch."""
    return p.alpha * np.power(t, p.m / 2.0) >= special._ml_switch(
        p.m, special.DEFAULT_SERIES_TOL)


def _switch_bracket(p):
    """The first t at which the branch fires and its neighbours within
    three ulps on either side."""
    t = first_t_past_switch(p, special.DEFAULT_SERIES_TOL)
    return t * (1.0 + _EPS * np.arange(-3.0, 4.0))


class TestGridEvaluators:
    def test_matches_scalar_path(self):
        p = WeightParams(1.3, 4.0)
        ts = np.geomspace(1e-6, 20.0, 50)
        grid = log_series_grid(p, ts)
        scalar = np.array([kernel_series(p, float(t)).log_magnitude for t in ts])
        assert np.max(np.abs(grid - scalar)) <= 5e-13

    def test_batch_independence(self):
        """Each entry's value must not depend on its batch mates: whole,
        split and single-entry batches agree bit for bit.  The real entries
        lie on both sides of the Mittag-Leffler switch, seven of them
        within three ulps of it; the complex ones with the last two |z|
        have log|S| near 900 and 2000, and are summed."""
        alpha = 1.7
        rng = np.random.default_rng(4)
        for m in (0.5, 1.0, 4.0, 10.0):
            p = WeightParams(alpha, m)
            ts = np.concatenate([
                np.geomspace(1e-3, (700.0 / alpha) ** (2.0 / m), 257),
                _switch_bracket(p),
                (np.array([900.0, 2000.0]) / alpha) ** (2.0 / m)])
            closed = _fires(p, ts)
            assert closed.any() and not closed.all()
            assert closed[257:264].any() and not closed[257:264].all()
            zs = ts * np.exp(1j * rng.uniform(-np.pi, np.pi, ts.size))
            for grid, xs in ((log_series_grid, ts), (series_abs2_grid, zs)):
                whole = grid(p, xs)
                assert np.all(np.isfinite(whole))
                split = np.concatenate([grid(p, xs[:7]), grid(p, xs[7:100]),
                                        grid(p, xs[100:])])
                assert np.array_equal(whole, split), (m, grid.__name__)
                single = np.array([grid(p, xs[i:i + 1])[0]
                                   for i in range(xs.size)])
                assert np.array_equal(whole, single), (m, grid.__name__)

    def test_banding_maps_entries_back(self):
        """The summed entries are sorted by |z| and cut into chunks of at
        most _GRID_CHUNK entries; every value must land on its own entry.
        On a grid spanning 7 decades, a random permutation of it,
        un-permuted, gives the same bits, and so does each entry alone."""
        rng = np.random.default_rng(11)
        for m in (0.5, 2.0, 10.0):
            p = WeightParams(1.7, m)
            ts = ((700.0 / p.alpha) ** (2.0 / m)
                  * 10.0 ** rng.uniform(-7.0, 0.0, 1500))
            zs = ts * np.exp(1j * rng.uniform(-np.pi, np.pi, ts.size))
            perm = rng.permutation(ts.size)
            for grid, xs in ((log_series_grid, ts), (series_abs2_grid, zs)):
                whole = grid(p, xs)
                back = np.empty_like(whole)
                back[perm] = grid(p, xs[perm])
                assert np.array_equal(whole, back), (m, grid.__name__)
                for i in perm[:40]:
                    assert grid(p, xs[i:i + 1])[0] == whole[i], (m, i)

    def test_rows_cover_every_entry(self):
        """The rows of a chunk come from its largest entry; every entry must
        meet the stop rule within them (the grids raise otherwise).  Random
        grids over the accuracy box, with entries a few ulps below the
        largest, where rounding could break the stop's monotonicity."""
        rng = np.random.default_rng(17)
        for _ in range(24):
            m = float(rng.uniform(0.5, 10.0))
            p = WeightParams(float(10.0 ** rng.uniform(-3.0, 6.0)), m)
            t_top = (float(rng.uniform(1.0, 800.0)) / p.alpha) ** (2.0 / m)
            ts = t_top * rng.uniform(0.0, 1.0, 200)
            ts = np.concatenate([ts, t_top * (1.0 - _EPS * np.arange(56))])
            log_series_grid(p, ts)
            series_abs2_grid(p, ts * np.exp(1j * rng.uniform(-np.pi, np.pi,
                                                              ts.size)))

    def test_chunk_stops_match_scalar_path(self):
        """_chunk_terms tests the stop rule only from the chunk's smallest
        peak on; every entry must still stop where the summed scalar path
        (_summed_series) stops.
        Chunks of one octave of peak index over 7 decades, and the chunks
        that CircleSeries cuts from the whole sorted grid, plus entries
        whose series stops at its peak term 0 and runs of entries a few
        ulps apart."""
        rng = np.random.default_rng(29)
        ln_tol = math.log(special.DEFAULT_SERIES_TOL)
        for m in (0.5, 2.0, 10.0):
            p = WeightParams(1.7, m)
            table = special.moment_table(m)
            ts = ((700.0 / p.alpha) ** (2.0 / m)
                  * 10.0 ** rng.uniform(-7.0, 0.0, 400))
            ulps = _EPS * np.arange(-3.0, 4.0)
            ts = np.concatenate([ts, [1e-40, 3e-35], ts[0] * (1.0 + ulps),
                                 ts[1] * (1.0 + ulps)])
            ts = np.sort(ts)
            octave = np.floor(np.log2(p.alpha * ts ** (m / 2.0) + 8.0))
            chunks = [ts[octave == band] for band in np.unique(octave)]
            chunks += [ts[i: i + special._GRID_CHUNK]
                       for i in range(0, ts.size, special._GRID_CHUNK)]
            want = {x: special._summed_series(p, x).truncation_terms - 1
                    for x in ts.tolist()}
            for t in chunks:
                stop = special._chunk_terms(
                    table, np.log(t) + p.log_dilation, ln_tol,
                    special.DEFAULT_MAX_TERMS)[3]
                assert stop.tolist() == [want[x] for x in t.tolist()], m
            assert kernel_series(p, 1e-40).truncation_terms == 1

    def test_abs2_grid_against_scalar(self):
        p = WeightParams(1.0, 3.0)
        rng = np.random.default_rng(5)
        zs = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
        grid = series_abs2_grid(p, zs)
        for z, la in zip(zs, grid):
            sv = kernel_series(p, complex(z))
            assert la == pytest.approx(2.0 * sv.log_magnitude, abs=1e-11)

    def test_rejects_negative(self):
        p = WeightParams(1.0, 2.0)
        with pytest.raises(ValueError):
            log_series_grid(p, np.array([-1.0]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                log_series_grid(p, np.array([1.0, bad]))
            with pytest.raises(ValueError):
                series_abs2_grid(p, np.array([1.0, complex(1.0, bad)]))
        # empty input keeps its shape
        assert log_series_grid(p, np.empty((0, 3))).shape == (0, 3)
        assert series_abs2_grid(p, np.empty((2, 0), complex)).shape == (2, 0)


class TestMittagLefflerBranch:
    """log S on the positive axis from the leading term of E_{a,a}(y),
    a = 2/m, y = alpha^a t, where the remainder bound meets the stop rule."""

    M = (0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)

    @staticmethod
    def _log_sum(alpha, m, t):
        """log sum_n y^n / Gamma(a n + a) at the working precision, term by
        term in log form, outward from the peak term to e^-80 of it on
        both sides."""
        from mpmath import exp, fsum, log, loggamma, mpf
        a = 2 / mpf(m)
        log_y = a * log(mpf(alpha)) + log(mpf(t))

        def log_term(n):
            return n * log_y - loggamma(a * n + a)

        peak = int(exp(log_y / a) / a)
        while log_term(peak + 1) > log_term(peak):
            peak += 1
        while peak > 0 and log_term(peak - 1) > log_term(peak):
            peak -= 1
        top, terms = log_term(peak), [mpf(1)]
        for step in (1, -1):
            n = peak + step
            while n >= 0:
                terms.append(exp(log_term(n) - top))
                if log_term(n) - top < -80:
                    break
                n += step
        return top + log(fsum(terms))

    def test_against_mpmath_at_and_past_the_switch(self):
        """At the first t where the branch fires and at three times its x,
        against the defining series at 30 digits: within one eps of
        |log S|, the rounding that the exp-sinh engine's E_k counts for
        |log g|, plus the remainder threshold."""
        from mpmath import mp
        target = special.DEFAULT_SERIES_TOL * math.exp(-special._STOP_MARGIN)
        for m in self.M:
            for alpha in (1e-3, 1.0, 1e3, 1e6):
                p = WeightParams(alpha, m)
                t0 = _switch_bracket(p)[3]
                ts = np.array([t0, t0 * 3.0 ** (2.0 / m)])
                assert _fires(p, ts).all()
                got = log_series_grid(p, ts)
                with mp.workdps(30):
                    want = [float(self._log_sum(alpha, m, t)) for t in ts]
                for g, w in zip(got, want):
                    assert abs(g - w) <= _EPS * abs(w) + target, (m, alpha, g, w)

    def test_remainder_bound_holds_below_the_switch(self):
        """|S - leading - oscillating| is within the ray integral's bound
        1 / (pi |cos theta| y c), and |S / leading - 1| within the relative
        bound the switch is solved from, at x = 2, 10, 20 and at the switch."""
        from mpmath import exp, mp, mpc, mpf, pi as mp_pi
        for m in self.M:
            a = 2.0 / m
            theta, ks, coef = special._ml_contour(m)
            assert math.pi / 2 < theta < math.pi
            assert ks == tuple(k for k in range(1, 8)
                               if 2.0 * math.pi * k / a < theta)
            c = (abs(math.sin(a * theta)) if math.cos(a * theta) > 0.0
                 else 1.0)
            assert coef == pytest.approx(
                a / (math.pi * abs(math.cos(theta)) * c), rel=1e-15)
            x_switch = special._ml_switch(m, special.DEFAULT_SERIES_TOL)
            for x in (2.0, 10.0, 20.0, x_switch):
                with mp.workdps(40):
                    am = 2 / mpf(m)
                    s = exp(self._log_sum(1.0, m, mpf(x) ** am))
                    poles = [mpc(0, 2) * mp_pi * k / am
                             for k in (0,) + ks + tuple(-k for k in ks)]
                    res = sum(((mpf(x) * exp(w)) ** (1 - am)
                               * exp(mpf(x) * exp(w))) for w in poles) / am
                    rem = float(abs(s - res))
                    lead = mpf(x) ** (1 - am) * exp(mpf(x)) / am
                    rel = float(abs(s / lead - 1))
                y = x ** a
                assert rem <= 1.0 / (math.pi * abs(math.cos(theta)) * y * c), (
                    m, x)
                assert rel <= special._ml_rel_bound(a, ks, coef, x), (m, x)

    def test_lower_gamma_bound_against_mpmath(self):
        """_log_lower_gamma_bound is at least log gamma(s, y) from mpmath,
        within log 2 of it for y <= (s+1)/2, finite up to y = s + 1 and
        inf from there on."""
        import mpmath
        for s in (0.3, 1.0, 2.5, 40.0, 700.0, 4500.0):
            fracs = np.array([1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6])
            y = fracs * (s + 1.0)
            got = special._log_lower_gamma_bound(np.full(y.size, s), y)
            with mpmath.workdps(30):
                want = np.array([float(mpmath.log(mpmath.gammainc(s, 0, v)))
                                 for v in y])
            assert np.all(got >= want - 4.0 * _EPS * np.abs(want)), s
            near = fracs <= 0.5
            assert np.all(got[near] - want[near] <= math.log(2.0)), s
            past = special._log_lower_gamma_bound(
                np.full(3, s), np.array([s + 1.0, s + 1.5, 10.0 * s + 20.0]))
            assert np.all(past == math.inf), s

    def test_m2_is_alpha_t(self):
        """At m = 2, S(t) = e^(alpha t): past the switch the branch gives
        alpha t, bit for bit."""
        for alpha in (1e-3, 1.0, 1e3, 1e6):
            p = WeightParams(alpha, 2.0)
            ts = np.append(_switch_bracket(p), np.geomspace(40.0, 1e4, 50)
                           / alpha)
            closed = _fires(p, ts)
            assert closed.sum() >= 53
            got = log_series_grid(p, ts)
            assert np.array_equal(got[closed], alpha * ts[closed]), alpha

    def test_kernel_series_bound_against_mpmath(self):
        """kernel_series past the switch takes the branch and sums nothing;
        its bound covers the true error of log S against 40-digit sums,
        over m in {0.5, 1, 1.5, 3, 4, 10}, alpha in {1e-3, 1, 1e6} and x
        just past the switch, 100, 500 and 2000 (72 points).  At m = 2,
        S(t) = e^(alpha t): the bound covers the true error of the value
        against exp(alpha t) in mpmath."""
        from mpmath import exp, fabs, mp, mpf
        for m in (0.5, 1.0, 1.5, 3.0, 4.0, 10.0):
            x_switch = special._ml_switch(m, special.DEFAULT_SERIES_TOL)
            for alpha in (1e-3, 1.0, 1e6):
                p = WeightParams(alpha, m)
                for x in (x_switch * (1.0 + 1e-9), 100.0, 500.0, 2000.0):
                    t = (x / alpha) ** (2.0 / m)
                    sv = kernel_series(p, t)
                    assert sv.truncation_terms == 0 and sv.phase_or_sign == 1.0
                    with mp.workdps(40):
                        want = self._log_sum(alpha, m, t)
                        err = float(fabs(mpf(sv.log_magnitude) - want))
                    assert err <= sv.truncation_error_bound, (m, alpha, x)
        for alpha in (1e-3, 1.0, 1e6):
            p = WeightParams(alpha, 2.0)
            for x in (40.0, 300.0, 3000.0):
                sv = kernel_series(p, x / alpha)
                with mp.workdps(40):
                    want = exp(mpf(alpha) * mpf(x / alpha))
                    err = float(fabs(exp(mpf(sv.log_magnitude)) - want) / want)
                assert sv.truncation_terms == 0
                assert err <= sv.truncation_error_bound, (alpha, x)

    def test_kernel_series_where_the_sum_cannot_go(self):
        """At WeightParams(1, 3) and t = 5000 the series needs more than
        max_terms terms: the summed path raises, and kernel_series returns
        the bits of log_series_grid under a finite bound."""
        p = WeightParams(1.0, 3.0)
        with pytest.raises(NonConvergenceError):
            special._summed_series(p, 5000.0)
        sv = kernel_series(p, 5000.0)
        assert sv.log_magnitude == log_series_grid(p, np.array([5000.0]))[0]
        assert sv.truncation_terms == 0
        assert 0.0 < sv.truncation_error_bound < 1e-9

    def test_kernel_series_matches_grid_bits(self):
        """The scalar and the grid share one branch: the same bits at the
        first t past the switch of the 15 weights of the ml-branch check,
        alone and in a batch with larger t, and the summed bits one ulp
        below it.  Negative, complex and below-switch arguments keep the
        summed path bit for bit."""
        tol = special.DEFAULT_SERIES_TOL
        for p in ML_BRANCH_WEIGHTS:
            t = first_t_past_switch(p, tol)
            ts = np.concatenate([[t], t * np.geomspace(1.5, 1e3, 40)])
            grid = log_series_grid(p, ts)
            assert grid[0] == log_series_grid(p, ts[:1])[0], p
            for x, g in zip(ts, grid):
                sv = kernel_series(p, float(x))
                assert sv.log_magnitude == g and sv.truncation_terms == 0, p
            below = float(np.nextafter(t, 0.0))
            for zeta in (below, -t, complex(t, 1e-3 * t), complex(-below, 0.0)):
                got = kernel_series(p, zeta)
                want = special._summed_series(p, zeta)
                assert got == want and got.truncation_terms > 0, (p, zeta)

    def test_overflowing_peak_index_is_inf(self):
        # alpha t^(m/2) overflows double range: log S is inf, not NaN
        for m in (3.0, 10.0):
            p = WeightParams(1.0, m)
            got = log_series_grid(p, np.array([1e300, 1.7e308]))
            assert np.all(got == math.inf), m


class TestCircleSeries:
    """log|S|^2 on equispaced circle nodes by one FFT per circle."""

    @staticmethod
    def _nodes(circles, phi, off, n_nodes):
        return circles.log_abs2(phi - 2.0 * math.pi * off / n_nodes, n_nodes)

    def test_batch_independence(self):
        """Each circle's values must not depend on its batch mates: whole,
        split, single-radius and reversed batches agree bit for bit on both
        half-meshes, and so do the live subsets that select keeps.  The
        radii are s = 0, 257 summed ones (one alone in the last chunk of
        the whole batch) and two with log|S| near 900 and 2000.  The
        circles are summed on both sides of the switch of
        the real grid's Mittag-Leffler branch, seven of them within three
        ulps of it.  A batch of s = 0 only, as every circle is at z = 0,
        gives the value of s = 0 in the whole batch."""
        alpha = 1.7
        rng = np.random.default_rng(5)
        for m in (0.5, 1.0, 4.0, 10.0):
            p = WeightParams(alpha, m)
            s = np.concatenate([
                [0.0], np.geomspace(1e-3, (700.0 / alpha) ** (2.0 / m), 257),
                _switch_bracket(p),
                (np.array([900.0, 2000.0]) / alpha) ** (2.0 / m)])
            batches = {
                "whole": [special.CircleSeries(p, s)],
                "split": [special.CircleSeries(p, x)
                          for x in (s[:7], s[7:100], s[100:])],
                "single": [special.CircleSeries(p, s[i:i + 1])
                           for i in range(s.size)]}
            reverse = special.CircleSeries(p, s[::-1])
            zeros = special.CircleSeries(p, np.zeros(3))
            live = [rng.uniform(size=s.size) < 0.3, s > s[200], s == s[-1],
                    np.zeros(s.size, dtype=bool)]
            for off in (0.0, 0.5):
                for n_nodes in (16, 64):
                    got = {name: np.concatenate([
                        self._nodes(c, 0.4, off, n_nodes) for c in circles])
                        for name, circles in batches.items()}
                    whole = got["whole"]
                    assert np.all(np.isfinite(whole))
                    assert np.array_equal(whole, got["split"]), (m, off, n_nodes)
                    assert np.array_equal(whole, got["single"]), (m, off, n_nodes)
                    assert np.array_equal(whole, self._nodes(
                        reverse, 0.4, off, n_nodes)[::-1]), (m, off, n_nodes)
                    for c in (zeros, zeros.select(np.array([True, False, True]))):
                        at_zero = self._nodes(c, 0.4, off, n_nodes)
                        assert np.array_equal(at_zero, np.repeat(
                            whole[:1], c.size, axis=0)), (m, off, n_nodes)
                    # live subsets, picked from the whole batch and, in two
                    # steps, from a split one, as the angular loop drops
                    # the circles that have converged
                    for keep in live:
                        sub = self._nodes(batches["whole"][0].select(keep),
                                          0.4, off, n_nodes)
                        assert np.array_equal(sub, whole[keep]), (m, n_nodes)
                        first = s[100:] > 0.1
                        part = batches["split"][2].select(first)
                        sub = self._nodes(part.select(keep[100:][first]),
                                          0.4, off, n_nodes)
                        assert np.array_equal(
                            sub, whole[100:][keep[100:] & first]), (m, n_nodes)
            # s = 0 takes the dense grid's constant value on every node
            assert np.array_equal(whole[0], np.repeat(
                series_abs2_grid(p, np.zeros(1)), 64))
            # the two largest radii are summed: they match the dense grid
            # on the nodes, at the gate of test_matches_dense_grid
            big = s[-2:]
            fft = self._nodes(batches["whole"][0], 0.4, 0.0, 64)[-2:]
            psi = 0.4 - 2.0 * math.pi * np.arange(64) / 64
            dense = series_abs2_grid(p, big[:, None] * np.exp(1j * psi))
            top = 2.0 * log_series_grid(p, big)[:, None]
            n_stop = np.array([special._summed_series(p, float(x))
                               .truncation_terms for x in big]) - 1
            gap = np.abs(np.exp(fft - top) - np.exp(dense - top))
            assert np.all(gap.max(axis=1)
                          <= 8.0 * _EPS * math.pi * (n_stop + 1)), m

    def test_matches_dense_grid(self):
        """The FFT against series_abs2_grid on the same nodes, with the gap
        scaled by |S(|zeta|)|^2, the largest value on the circle (an offset
        half-mesh at m = 10 can sit e^-31 below it, at both routes' rounding
        floor).  Both routes err like the phase rounding n theta of the
        dense path, so the gate grows with the stop index.  At N = 8192
        the dense route is run on every 64th node and on the 128 nodes
        around the circle's maximum, where the gap is largest."""
        phi = 0.3
        worst = 0.0
        for m in (0.5, 1.0, 2.0, 4.0, 10.0):
            for alpha in (1e-3, 1.0, 1e3):
                p = WeightParams(alpha, m)
                # peak indices up to 2000, where log S reaches 8000 at m = 0.5
                n_peak = np.array([1, 10, 100, 600, 2000])
                s = (2.0 * n_peak / (m * alpha)) ** (2.0 / m)
                circles = special.CircleSeries(p, s)
                top = 2.0 * log_series_grid(p, s)[:, None]
                n_stop = np.array([special._summed_series(p, float(x))
                                   .truncation_terms for x in s]) - 1
                gate = 8.0 * _EPS * math.pi * (n_stop + 1)
                for n_nodes in (16, 256, 8192):
                    k = np.arange(n_nodes)
                    if n_nodes == 8192:
                        k_top = round(phi * n_nodes / (2.0 * math.pi))
                        k = np.union1d(k[::64], (k_top + np.arange(-64, 64))
                                       % n_nodes)
                    for off in (0.0, 0.5):
                        fft = self._nodes(circles, phi, off, n_nodes)[:, k]
                        psi = phi - 2.0 * math.pi * (k + off) / n_nodes
                        dense = series_abs2_grid(
                            p, s[:, None] * np.exp(1j * psi)[None, :])
                        gap = np.abs(np.exp(fft - top)
                                     - np.exp(dense - top)).max(axis=1)
                        worst = max(worst, float(np.max(gap / gate)))
        assert worst <= 1.0

    def test_complex_paths_fail_loudly(self):
        """At alpha = 1e6, m = 2 and |zeta| = 1 the peak index is 1e6, far
        past max_terms: both complex paths raise rather than return a
        value that is not |S|^2."""
        p = WeightParams(1e6, 2.0)
        with pytest.raises(NonConvergenceError):
            series_abs2_grid(p, np.exp(1j * np.array([0.0, 0.3, 2.0])))
        with pytest.raises(NonConvergenceError):
            special.CircleSeries(p, np.array([0.5, 1.0]))

    def test_rejects_bad_radii(self):
        p = WeightParams(1.0, 2.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                special.CircleSeries(p, np.array([1.0, bad]))
        with pytest.raises(ValueError):
            special.CircleSeries(p, np.ones((2, 2)))
