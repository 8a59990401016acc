"""Exp-sinh radial quadrature against closed forms."""

import math

import numpy as np
import pytest

from fockberezin import (ExpSymbol, PlanarSymbol, RadialSymbol, UCache,
                         WeightParams, berezin_general, integrate_radial,
                         integrate_radial_log, radial_moment, unit_symbol)
from fockberezin.commutativity import _u_quadrature
from fockberezin.quadrature import (_A, _EPS, DEFAULT_MAX_LEVELS,
                                    DEFAULT_QUAD_TOL_REL, _DESum, _log_rows,
                                    _pair_from_symbol)


def _ladder(g, c, m, powers, max_levels=DEFAULT_MAX_LEVELS):
    """One exp-sinh run of g against every power, in log form."""
    return _log_rows(_DESum(_pair_from_symbol(g), c, m, powers,
                            DEFAULT_QUAD_TOL_REL, max_levels))


class TestClosedForms:
    def test_gaussian_first_moment(self):
        res = integrate_radial(unit_symbol(), 1.0, 2.0, 1.0)
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert res.converged

    def test_quartic_third_moment(self):
        res = integrate_radial(unit_symbol(), 1.0, 4.0, 3.0)
        assert res.value == pytest.approx(0.25, rel=1e-12)

    def test_gamma_factor_instance(self):
        res = integrate_radial(unit_symbol(), 3.0, 4.0, 3.0)
        assert res.value == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_oracle_grid_and_honesty(self):
        for c in (0.5, 1.0, 2.0, 5.0, 10.0):
            for m in (1.0, 2.0, 3.0, 4.0, 6.0):
                for n in range(5):
                    res = integrate_radial(unit_symbol(), c, m, 2.0 * n + 1.0)
                    want = math.exp(radial_moment(c, m, n)) / (2.0 * math.pi)
                    assert res.converged
                    assert abs(res.value - want) / want <= 1e-11
                    assert abs(res.value - want) <= 3.0 * res.abs_error_estimate

    def test_converged_implies_tolerance(self):
        res = integrate_radial(unit_symbol(), 2.0, 3.0, 2.0, tol_rel=1e-12)
        assert res.converged
        assert res.abs_error_estimate <= 1e-12 * abs(res.value)

    def test_fractional_power_endpoint(self):
        # integrable singularity u^(q-1) with q < 1 after substitution
        res = integrate_radial(unit_symbol(), 1.0, 4.0, 0.0)
        assert res.value == pytest.approx(math.gamma(0.25) / 4.0, rel=1e-11)


class TestSignedAndDecaying:
    def test_signed_integrand(self):
        g = RadialSymbol(lambda r: math.cos(r), 1.0,
                         eval_array=lambda r: np.cos(r))
        res = integrate_radial(g, 1.0, 2.0, 1.0)
        # int_0^inf r cos(r) e^{-r^2} dr, reference from 40-digit quadrature
        want = 0.2877818082489888520329788
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-11)

    def test_monotone_nonneg(self):
        g = RadialSymbol(lambda r: 1.0 / (1.0 + r), 1.0,
                         eval_array=lambda r: 1.0 / (1.0 + r))
        res = integrate_radial(g, 1.0, 1.0, 0.0)
        assert res.value >= 0.0
        assert res.converged

    def test_sup_bound_violation_raises(self):
        g = RadialSymbol(lambda r: 2.0, 1.0, eval_array=lambda r: np.full_like(r, 2.0))
        with pytest.raises(ValueError):
            integrate_radial(g, 1.0, 2.0, 1.0)

    def test_nan_symbol_raises(self):
        g = RadialSymbol(lambda r: math.nan,
                         1.0, eval_array=lambda r: np.full_like(r, np.nan))
        with pytest.raises(ValueError):
            integrate_radial(g, 1.0, 2.0, 1.0)


class TestLogVariant:
    def test_huge_gamma_scale(self):
        # power 401 at m=2 gives Gamma(201)/2, far outside double range
        log_val, sign, rel, _, converged = integrate_radial_log(
            unit_symbol(), 1.0, 2.0, 401.0)
        assert converged
        assert sign == 1.0
        want = math.lgamma(201.0) - math.log(2.0)
        assert log_val == pytest.approx(want, rel=1e-13)
        assert rel <= 1e-10

    def test_matches_linear(self):
        log_val, sign, rel, _, _ = integrate_radial_log(unit_symbol(), 2.0, 3.0, 4.0)
        lin = integrate_radial(unit_symbol(), 2.0, 3.0, 4.0)
        assert sign * math.exp(log_val) == pytest.approx(lin.value, rel=1e-13)


class TestDecayingSymbol:
    """A symbol exp(-D r^2) with D = 1000 against r^2001 exp(-r^2): the
    mass sits near r = 1, where the symbol is exp(-1000) and underflows
    double range."""

    D = 1000.0

    def _symbol(self):
        d = self.D
        return RadialSymbol(lambda r: math.exp(-d * r * r), 1.0,
                            eval_array=lambda r: np.exp(-d * r * r),
                            eval_log=lambda r: -d * r * r)

    def test_log_form_far_below_double_range(self):
        # the U route's windows follow a decay e^(-D r^m) of the symbol
        (log_val, sign, rel, converged), _ = _u_quadrature(
            self._symbol(), self.D, 1.0, 2.0, [2001.0])
        want = math.lgamma(1001.0) - math.log(2.0) - 1001.0 * math.log(1001.0)
        assert converged[0] and sign[0] == 1.0
        assert abs(math.expm1(log_val[0] - want)) <= max(rel[0], 1e-12)

    def test_mass_outside_the_generic_window_fails_loudly(self):
        """The public entries take the window of u^q e^-u, which knows
        nothing of the symbol's decay.  Where the mass lies outside it the
        run must say so: the symbol above has its mass at r = 1, far left
        of the window around r^2 = 1001, and reports inf.  1/S_alpha(r^2)
        falls like e^(-alpha r^m): on points across m, alpha/beta and n,
        each value is inf or lies within the sum of the two bounds of the
        U route's value (3 of the 5 are inf)."""
        _, _, rel, _, converged = integrate_radial_log(
            self._symbol(), 1.0, 2.0, 2001.0)
        assert not converged and rel == math.inf
        unconverged = 0
        for m, alpha, n in ((2.0, 1e3, 300), (0.5, 10.0, 300), (4.0, 10.0, 3),
                            (1.0, 1e5, 30), (10.0, 1e7, 300)):
            g = UCache().inv_kernel_symbol(alpha, m)
            power = 2.0 * n + 1.0
            log_val, _, rel, _, converged = integrate_radial_log(g, 1.0, m,
                                                                 power)
            (log_u, _, rel_u, converged_u), _ = _u_quadrature(g, alpha, 1.0,
                                                              m, [power])
            assert converged_u[0], (m, alpha, n)
            if converged:
                assert abs(math.expm1(log_val - log_u[0])) <= rel + rel_u[0]
            else:
                assert rel == math.inf
                unconverged += 1
        assert unconverged == 3


class TestUnitInvariance:
    """A row's verdict does not depend on the size of its integral: the same
    row, with log g shifted down by K so that the integral falls from far
    above 1e-300 to far below it, converges or fails alike."""

    @pytest.mark.parametrize("alpha,beta,m,n", [
        (100.0, 1.0, 2.0, 1270),
        (1.075990301847395, 0.020672902749768567, 4.0, 2240)])
    def test_shifted_log_symbol(self, alpha, beta, m, n):
        g = UCache().inv_kernel_symbol(alpha, m)
        power = 2.0 * n + 1.0
        ((log_val,), _, (rel,), (converged,)), _ = _u_quadrature(
            g, alpha, beta, m, [power])
        shift = log_val + 800.0   # e^(log_val - shift) = e^-800 < 1e-300
        assert log_val > 0.0
        # eval_array gives zeros, so every node takes the log form
        low = RadialSymbol(lambda r: 0.0, 1.0, eval_array=np.zeros_like,
                           eval_log=lambda r: g.eval_log(r) - shift)
        ((log_low,), _, (rel_low,), (converged_low,)), _ = _u_quadrature(
            low, alpha, beta, m, [power])
        assert converged and converged_low
        # the rounding model counts the shift itself: one ulp of K per node
        assert abs(rel_low - rel) <= _EPS * shift
        assert abs(log_val - shift - log_low) <= rel + rel_low


class TestPowerLadder:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0, 10.0])
    def test_ladder_matches_one_power_runs(self, m):
        """The integrals of U(n), n = 0..47 (1/S_alpha(r^2) against
        r^(2n+1) e^(-beta r^m)), from one run over shared nodes against one
        run per power: each row counts the nodes outside its own window as
        zeros, so the sums may differ only by rounding."""
        g = UCache().inv_kernel_symbol(1.3, m)
        powers = [2.0 * n + 1.0 for n in range(48)]
        rows, _ = _ladder(g, 0.7, m, powers)
        for power, log_val, sign, rel, converged in zip(powers, *rows):
            one_log, one_sign, _, _, one_converged = integrate_radial_log(
                g, 0.7, m, power)
            assert converged and one_converged, power
            assert sign == one_sign == 1.0
            assert abs(log_val - one_log) <= max(4.0 * _EPS, rel), power


def _counting_symbol():
    """unit_symbol() that keeps, per call, the exp-sinh node t of each
    radius it gets: at c = 1 and m = 2, r = exp(A sinh(t) / 2)."""
    calls = []

    def ones(r):
        calls.append(np.arcsinh(2.0 * np.log(r) / _A))
        return np.ones_like(r)

    return RadialSymbol(lambda r: 1.0, 1.0, eval_array=ones), calls


def _level_k(t, level):
    """The k of nodes t = k h at a level, h = 1/2^(level + 1)."""
    scaled = np.ldexp(t, level + 1)
    k = np.rint(scaled)
    assert np.allclose(scaled, k, rtol=0.0, atol=1e-9), level
    return k.tolist()


class TestFirstLevel:
    """A run makes its first sum on h = 1/8, every node of the window in
    its first call of g, which also takes the odd nodes of level 3 (h =
    1/16); it reads the stop rule from level 3 on."""

    @staticmethod
    def _window_nodes(level, every):
        """The k of level's nodes k h inside the window of power 1 at c = 1
        and m = 2: every one, or the odd k only."""
        t_lo, neg_t_hi = _DESum(None, 1.0, 2.0, [1.0], 1e-12,
                                12).window[:, 0]
        lo = math.ceil(math.ldexp(t_lo, level + 1))
        hi = math.floor(math.ldexp(-neg_t_hi, level + 1))
        k = np.arange(lo, hi + 1)
        return (k if every else k[k % 2 == 1]).tolist()

    def _assert_first_call(self, t):
        every, odd = self._window_nodes(2, True), self._window_nodes(3, False)
        assert t.size == len(every) + len(odd)
        assert _level_k(t[:len(every)], 2) == every
        assert _level_k(t[len(every):], 3) == odd

    def test_first_call_takes_levels_2_and_3_then_odd_nodes(self):
        g, calls = _counting_symbol()
        res = integrate_radial(g, 1.0, 2.0, 1.0)
        assert res.converged and len(calls) >= 2
        self._assert_first_call(calls[0])
        for level, t in enumerate(calls[1:], start=4):
            assert _level_k(t, level) == self._window_nodes(level, False)
        assert res.evaluations == sum(t.size for t in calls)

    def test_loose_tolerance_stops_after_one_call(self):
        # levels 2 and 3 from one call: the first sum alone can never
        # converge, the second can
        g, calls = _counting_symbol()
        res = integrate_radial(g, 1.0, 2.0, 1.0, tol_rel=1e-2)
        assert res.converged and len(calls) == 1
        assert res.value == pytest.approx(0.5, rel=1e-2)

    def test_max_levels_3_makes_one_call(self):
        g, calls = _counting_symbol()
        res = integrate_radial(g, 1.0, 2.0, 1.0, max_levels=3)
        assert len(calls) == 1
        self._assert_first_call(calls[0])
        assert res.evaluations == calls[0].size
        assert not res.converged and res.abs_error_estimate == math.inf

    @pytest.mark.parametrize("max_levels", [1, 2])
    def test_below_level_3_is_unconverged(self, max_levels):
        # below level 3 no sum has a predecessor for the stop rule to read,
        # so such a run could only end unconverged: it is refused before
        # any call of g
        g, calls = _counting_symbol()
        with pytest.raises(ValueError, match="max_levels must be >= 3"):
            integrate_radial(g, 1.0, 2.0, 1.0, tol_rel=1e-2,
                             max_levels=max_levels)
        assert calls == []


class TestFirstCallBits:
    """Outputs recorded when levels 2 and 3 each made their own call of g.
    One call for both keeps every bit: each node's terms depend on its own
    radius alone, never on the other nodes of its call.  The U block and the
    Berezin values read moment-table entries below the Stirling cut, and
    were recorded again when those entries came from lgamma."""

    def test_integrate_radial(self):
        res = integrate_radial(unit_symbol(), 1.0, 2.0, 1.0)
        assert (res.value.hex(), res.abs_error_estimate.hex(),
                res.evaluations) == ("0x1.0000000000001p-1",
                                     "0x1.0ab1556b4ff98p-49", 289)

    def test_u_block(self):
        # this block takes the exp-sinh run: its low rows lie short of the
        # Mittag-Leffler closed form
        n = np.arange(64.0)
        (log_int, _, rel, _), evals = _u_quadrature(
            UCache().inv_kernel_symbol(1.0, 4.0), 1.0, 0.5, 4.0, 2.0 * n + 1.0)
        blk = UCache().block(1.0, 0.5, 4.0, 0)
        assert evals == 334
        # rel_error: the recorded bits, then the rounding of log Gamma
        # ((2n+2)/m) added to the assembly (TestULogGammaRounding)
        for i, want in ((0, ("-0x1.0424ebfa46b84p+0", "0x1.d9ec5eaabee33p-48",
                             "0x1.487d007b921f0p+0", "0x1.601abd5471e9ap-47")),
                        (31, ("0x1.22c3a0c6b22a0p+4", "0x1.cf45eaf7fecedp-47",
                              "0x1.89325c2c2858bp-12", "0x1.dacf9d3c7df48p-45")),
                        (63, ("0x1.ec2826e2fb230p+5", "0x1.ede6405e18633p-46",
                              "0x1.ac3c67d2f8cd8p-22", "0x1.24f7cdf3f292ep-43"))):
            got = (log_int[i], rel[i], blk.value[i], blk.rel_error[i])
            assert tuple(float(v).hex() for v in got) == want, i

    # the radial row's circles take their mean of |S|^2 from Parseval, one
    # node per radius, so its bits are those of that route.  The counts and
    # the radial estimate are those of the radial window of the kernel's
    # envelope: the estimate's Parseval rounding, (rows + 2) eps, counts the
    # rows of the largest circle the window holds
    @pytest.mark.parametrize("planar,want", [
        (False, ("0x1.1f180d0c4b584p-1", "0x1.04c2bbae5b288p-35", 113)),
        (True, ("0x1.1f180d0c4b586p-1", "0x1.522ebf16f7d36p-35", 4928))],
        ids=["radial", "planar"])
    def test_berezin_general(self, planar, want):
        f = ExpSymbol(0.7)
        if planar:
            f = PlanarSymbol(lambda w: math.exp(-0.7 * abs(w) ** 3), 1.0,
                             eval_array=lambda w: np.exp(-0.7 * np.abs(w) ** 3))
        res = berezin_general(WeightParams(1.0, 3.0), f, 0.6 + 0.3j,
                              tol_rel=1e-10)
        assert res.converged
        assert (res.value.hex(), res.abs_error_estimate.hex(),
                res.evaluations) == want


class TestUnconverged:
    """A power that does not converge reports an error of inf, never a
    plausible small number."""

    def test_integrate_radial_estimate_is_inf(self):
        # levels 2 and 3 leave one level difference, on h = 1/16, above
        # tol_rel = 1e-12
        res = integrate_radial(unit_symbol(), 1.0, 2.0, 1.0, max_levels=3)
        assert not res.converged
        assert res.abs_error_estimate == math.inf
        assert res.value == pytest.approx(0.5, rel=1e-4)
        assert res.evaluations == 145

    def test_log_forms_rel_is_inf(self):
        _, _, rel, _, converged = integrate_radial_log(
            unit_symbol(), 1.0, 2.0, 1.0, max_levels=3)
        assert not converged and rel == math.inf
        (_, _, rel, converged), _ = _ladder(unit_symbol(), 1.0, 2.0,
                                            [1.0, 3.0], max_levels=3)
        assert not converged.any()
        assert (rel == math.inf).all()


class TestValidation:
    @pytest.mark.parametrize("c,m,power", [(-1.0, 2.0, 1.0), (0.0, 2.0, 1.0),
                                           (1.0, 0.0, 1.0), (1.0, 2.0, -1.0),
                                           (math.inf, 2.0, 1.0),
                                           (1.0, 2.0, math.nan),
                                           (1.0, 2.0, math.inf)])
    def test_bad_arguments(self, c, m, power):
        # each message says what the argument must be
        with pytest.raises(ValueError, match="must be"):
            integrate_radial(unit_symbol(), c, m, power)
        with pytest.raises(ValueError, match="must be"):
            _ladder(unit_symbol(), c, m, [1.0, power])

    @pytest.mark.parametrize("tol_rel", [math.nan, math.inf, 0.0, -1e-12])
    def test_bad_tolerance(self, tol_rel):
        # a NaN tolerance meets no stop test and so would run every level
        # before it reports inf; an infinite one would meet every test
        with pytest.raises(ValueError):
            integrate_radial(unit_symbol(), 1.0, 2.0, 1.0, tol_rel=tol_rel)
        with pytest.raises(ValueError):
            berezin_general(WeightParams(1.0, 2.0), ExpSymbol(1.0), 0.5,
                            tol_rel=tol_rel)

    def test_negative_max_levels(self):
        # levels 1 and 2 are TestFirstLevel::test_below_level_3_is_unconverged
        for max_levels in (-1, 0):
            with pytest.raises(ValueError):
                integrate_radial(unit_symbol(), 1.0, 2.0, 1.0,
                                 max_levels=max_levels)

    def test_radial_moment_examples(self):
        assert radial_moment(1.0, 2.0, 0) == pytest.approx(math.log(math.pi), rel=1e-14)
        assert radial_moment(2.0, 2.0, 1) == pytest.approx(math.log(math.pi / 4.0), rel=1e-13)
        assert radial_moment(1.0, 4.0, 0) == pytest.approx(
            math.log(math.pi ** 1.5 / 2.0), rel=1e-13)

    def test_radial_moment_validation(self):
        with pytest.raises(ValueError):
            radial_moment(0.0, 2.0, 0)
        with pytest.raises(ValueError):
            radial_moment(1.0, 2.0, -1)
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                radial_moment(1.0, 2.0, bad)
        assert radial_moment(2.0, 2.0, 1.0) == radial_moment(2.0, 2.0, 1)
