"""Berezin transform: radial series route and 2-D quadrature route."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from fockberezin import (ExpSymbol, PlanarSymbol, RadialSymbol, WeightParams,
                         berezin_at_zero, berezin_exp_radial,
                         berezin_exp_radial_grid, berezin_general)
from fockberezin import berezin
from fockberezin._reference import BEREZIN_EXP_M4_A1_D1_R1
from fockberezin.berezin import _KernelWeightedAverage
from fockberezin.commutativity import _make_inv_kernel_symbol
from fockberezin.quadrature import unit_symbol
from fockberezin.special import (DEFAULT_MAX_TERMS, DEFAULT_SERIES_TOL,
                                 CircleSeries, kernel_series, log_series_grid)


class TestSymbols:
    def test_exp_symbol_validation(self):
        ExpSymbol(0.0)
        ExpSymbol(2.5)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                ExpSymbol(bad)

    def test_exp_symbol_instantiation(self):
        f = ExpSymbol(1.5)
        rad = f.as_radial(4.0)
        assert rad.eval(1.2) == pytest.approx(math.exp(-1.5 * 1.2 ** 4), rel=1e-15)
        pl = f.as_planar(4.0)
        assert pl.eval(complex(0, 1.2)) == pytest.approx(rad.eval(1.2), rel=1e-15)

    def test_planar_scalar_fallback(self):
        f = PlanarSymbol(lambda w: 1.0 / (1.0 + abs(w)), 1.0)
        vals = f.values(np.array([[0.0 + 0j, 1.0 + 0j]]))
        assert vals.shape == (1, 2)
        assert np.allclose(vals, [[1.0, 0.5]])

    def test_benchmark_harness_symbol_api(self):
        # bench/workloads.py builds planar symbols from a scalar callable plus
        # eval_array; bench/tracing.py counts 1/S node requests by replacing
        # eval_array on the symbol that _make_inv_kernel_symbol returns
        f = PlanarSymbol(lambda w: math.exp(-abs(w) ** 3), 1.0,
                         eval_array=lambda w: np.exp(-np.abs(w) ** 3))
        w = np.array([[0.5 + 0.5j, -1.0 + 0j]])
        want = np.array([[f.eval(complex(x)) for x in w.ravel()]])
        assert np.allclose(f.values(w), want, rtol=1e-15, atol=0.0)

        sym = _make_inv_kernel_symbol(WeightParams(1.0, 4.0),
                                      DEFAULT_SERIES_TOL, DEFAULT_MAX_TERMS)
        evaluate = sym.eval_array
        seen = []

        def eval_array(r):
            seen.append(r.size)
            return evaluate(r)

        sym.eval_array = eval_array
        r = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(sym.values(r), evaluate(r))
        assert seen == [3]


class TestAtZero:
    def test_unit_symbol_any_params(self):
        for a, m in [(1.0, 2.0), (0.5, 1.0), (2.0, 6.0)]:
            res = berezin_at_zero(WeightParams(a, m), ExpSymbol(0.0))
            assert res.value == pytest.approx(1.0, rel=1e-11)

    def test_exp_symbol_closed_form(self):
        res = berezin_at_zero(WeightParams(1.0, 4.0), ExpSymbol(3.0))
        assert res.value == pytest.approx(0.5, rel=1e-11)

    def test_closed_form_grid(self):
        """Every value within 1e-10 of (alpha/(alpha+delta))^(2/m), and
        within its estimate, which at z = 0 carries no node-series term."""
        for m in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0):
            for a in (1e-3, 0.5, 1.0, 2.0, 1e3):
                for d in (0.0, 0.5, 1.0, 4.0, 1e3):
                    with mpmath.workdps(30):
                        want = float((mpmath.mpf(a) / (mpmath.mpf(a) + d))
                                     ** (mpmath.mpf(2) / m))
                    # the radial mean by Parseval, then the planar one by
                    # the angular rule, both on the 2-D polar route
                    for f in (ExpSymbol(d), ExpSymbol(d).as_planar(m)):
                        res = berezin_at_zero(WeightParams(a, m), f)
                        assert res.converged, (m, a, d)
                        err = abs(res.value - want)
                        assert err / want <= 1e-10, (m, a, d)
                        assert err <= res.abs_error_estimate, (m, a, d)

    def test_odd_angular_symbol_vanishes(self):
        f = PlanarSymbol(lambda w: math.cos(math.atan2(w.imag, w.real)) if w else 0.0,
                         1.0,
                         eval_array=lambda w: np.where(np.abs(w) > 0,
                                                       np.cos(np.angle(w)), 0.0))
        res = berezin_at_zero(WeightParams(1.0, 3.0), f)
        assert abs(res.value) <= 1e-12

    def test_angular_cap_reported(self):
        # at alpha = 1e-3, m = 1/2 the mass sits at radii ~1e7, where the
        # step of tanh(Re w) needs more than the 8192 angular nodes the
        # loop allows; the unmet angular rule must show in converged
        f = PlanarSymbol(lambda w: 0.5 + 0.5 * math.tanh(w.real), 1.0,
                         eval_array=lambda w: 0.5 + 0.5 * np.tanh(np.real(w)))
        res = berezin_at_zero(WeightParams(1e-3, 0.5), f)
        assert not res.converged
        assert res.abs_error_estimate == math.inf
        assert res.value == pytest.approx(0.5, rel=1e-6)

    def test_radial_symbol_direct(self):
        g = RadialSymbol(lambda r: 1.0 / (1.0 + r * r), 1.0,
                         eval_array=lambda r: 1.0 / (1.0 + r * r))
        res = berezin_at_zero(WeightParams(1.0, 2.0), g)
        # int_0^inf 1/(1+r^2) e^{-r^2} 2r dr = e * E_1(1); 40-digit reference
        assert res.value == pytest.approx(0.5963473623231940743, rel=1e-11)


class TestExpRadial:
    def test_m2_closed_form_point(self):
        res = berezin_exp_radial(WeightParams(1.0, 2.0), 1.0, 1.0)
        assert res.value == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)

    def test_unit_for_delta_zero(self):
        for m, a, r in [(1.0, 0.5, 2.0), (3.7, 2.0, 1.1), (6.0, 1.0, 0.0)]:
            res = berezin_exp_radial(WeightParams(a, m), 0.0, r)
            assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_origin_reduces_to_at_zero_form(self):
        res = berezin_exp_radial(WeightParams(1.0, 4.0), 1.0, 0.0)
        assert res.value == pytest.approx(0.5 ** 0.5, rel=1e-12)

    def test_m2_closed_form_grid(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.0):
            for d in (0.5, 1.0, 2.0):
                for r in (0.0, 0.5, 1.0, 2.0, 4.0):
                    got = berezin_exp_radial(WeightParams(a, 2.0), d, r).value
                    want = (a / (a + d)) * math.exp(-(a * d / (a + d)) * r * r)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-10

    def test_m4_reference_value(self):
        res = berezin_exp_radial(WeightParams(1.0, 4.0), 1.0, 1.0)
        assert res.value == pytest.approx(BEREZIN_EXP_M4_A1_D1_R1, rel=1e-12)

    def test_grid_variant_matches_scalar(self):
        p = WeightParams(1.3, 3.0)
        rs = np.linspace(0.0, 3.0, 17)
        grid = berezin_exp_radial_grid(p, 0.8, rs)
        scalar = [berezin_exp_radial(p, 0.8, float(r)).value for r in rs]
        assert grid == pytest.approx(scalar, rel=1e-13)

    def test_validation(self):
        p = WeightParams(1.0, 2.0)
        with pytest.raises(ValueError):
            berezin_exp_radial(p, -0.5, 1.0)
        with pytest.raises(ValueError):
            berezin_exp_radial(p, 1.0, -1.0)


class TestGeneral:
    _UNIT_POINTS = [(2.0, 1.0, 1.0), (1.0, 0.5, 2.0), (4.0, 2.0, 1.0)]

    def test_unit_symbol_is_one(self):
        # (B1)(z) = 1: the radial route takes each circle's mean of |S|^2
        # from Parseval, and the exp-sinh rule integrates it over the radius
        for m, a, r in self._UNIT_POINTS:
            res = berezin_general(WeightParams(a, m), ExpSymbol(0.0),
                                  complex(r, 0.0), tol_rel=1e-10)
            assert abs(res.value - 1.0) <= 1e-9

    def test_planar_unit_symbol_is_one(self):
        # the same points through the planar form of f = 1, whose |S|^2 is
        # evaluated on the angular nodes by one FFT per circle
        for m, a, r in self._UNIT_POINTS:
            res = berezin_general(WeightParams(a, m),
                                  ExpSymbol(0.0).as_planar(m),
                                  complex(r, 0.0), tol_rel=1e-10)
            assert abs(res.value - 1.0) <= 1e-9

    def test_m2_closed_form(self):
        res = berezin_general(WeightParams(1.0, 2.0), ExpSymbol(1.0),
                              complex(1.0, 0.0), tol_rel=1e-10)
        assert res.value == pytest.approx(0.5 * math.exp(-0.5), rel=1e-8)

    def test_m4_reference_value(self):
        res = berezin_general(WeightParams(1.0, 4.0), ExpSymbol(1.0),
                              complex(1.0, 0.0), tol_rel=1e-10)
        assert res.value == pytest.approx(BEREZIN_EXP_M4_A1_D1_R1, rel=1e-8)

    def test_dual_path_sample(self):
        for m, a, d, r in [(1.0, 0.5, 2.0, 1.5), (2.0, 2.0, 0.5, 0.7),
                           (4.0, 1.0, 1.0, 1.5)]:
            p = WeightParams(a, m)
            s = berezin_exp_radial(p, d, r)
            g = berezin_general(p, ExpSymbol(d), complex(r, 0.0), tol_rel=1e-10)
            assert g.value == pytest.approx(s.value, rel=1e-8)

    def test_rotation_invariance_planar_route(self):
        p = WeightParams(1.0, 3.0)
        f = PlanarSymbol(lambda w: math.exp(-abs(w) ** 3), 1.0,
                         eval_array=lambda w: np.exp(-np.abs(w) ** 3))
        base = berezin_general(p, f, complex(1.2, 0.0), tol_rel=1e-10)
        for th in (math.pi / 7.0, math.pi / 3.0):
            rot = berezin_general(p, f, 1.2 * cmath.exp(1j * th), tol_rel=1e-10)
            assert rot.value == pytest.approx(base.value, rel=1e-9)

    def test_contraction_and_positivity(self):
        p = WeightParams(1.0, 2.0)
        f = PlanarSymbol(lambda w: 0.5 + 0.5 * math.tanh(w.real), 1.0,
                         eval_array=lambda w: 0.5 + 0.5 * np.tanh(np.real(w)))
        res = berezin_general(p, f, complex(0.8, -0.3), tol_rel=1e-9)
        assert abs(res.value) <= 1.0 + res.abs_error_estimate
        assert res.value >= -res.abs_error_estimate

    # (converged, evaluations) of the radial and the planar symbol
    _LARGE_X = {1e3: ((True, 97), (True, 99328)),
                3e3: ((True, 94), (True, 190720)),
                1e4: ((True, 89), (False, 559360))}

    @pytest.mark.parametrize("alpha", [1e3, 3e3, 1e4])
    def test_large_kernel_mass_fails_loudly(self, alpha):
        # X = alpha |z|^2 >= 1e3, where the integrand's mass sits at u ~ X:
        # each point must certify within its estimate of the closed form or
        # fail loudly.  The window of the kernel's envelope holds the mass,
        # so the radial symbol certifies on about a hundred radii; the
        # planar one's angular rule needs more nodes as X grows, and at
        # 1e4 it fails loudly
        want = alpha / (alpha + 1.0) * math.exp(-alpha / (alpha + 1.0))
        got = []
        for f in (ExpSymbol(1.0), ExpSymbol(1.0).as_planar(2.0)):
            res = berezin_general(WeightParams(alpha, 2.0), f, 1)
            if res.converged:
                assert abs(res.value - want) <= res.abs_error_estimate
            else:
                assert res.abs_error_estimate == math.inf
            got.append((res.converged, res.evaluations))
        assert tuple(got) == self._LARGE_X[alpha]

    def test_unsummable_circle_reports_inf(self):
        # X = alpha |z|^m = 8100: a circle's series is still growing at
        # max_terms, so the point has no value, and says so
        res = berezin_general(WeightParams(100.0, 4.0), ExpSymbol(1.0), 3.0)
        assert not res.converged
        assert math.isnan(res.value)
        assert res.abs_error_estimate == math.inf
        assert res.evaluations == 101

    def test_unmet_radial_rule_reports_inf(self):
        # levels 2 and 3 only: one level difference, above tol_rel = 1e-12,
        # so the rule is unmet and the estimate says so
        res = berezin_general(WeightParams(1.0, 3.0), ExpSymbol(0.5), 1.2,
                              max_levels=3)
        assert not res.converged
        assert res.abs_error_estimate == math.inf
        assert res.evaluations == 113

    def test_level_3_point_builds_one_circle_series(self, monkeypatch):
        # the exp-sinh run's first call of g takes levels 2 and 3, and each
        # call of g builds one CircleSeries; this point converges at level 3
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return CircleSeries(*args, **kwargs)

        monkeypatch.setattr(berezin, "CircleSeries", counted)
        res = berezin_general(WeightParams(1.0, 2.0), ExpSymbol(1.0), 0.5,
                              tol_rel=1e-10)
        assert res.converged and len(built) == 1
        # B f_delta at m = 2: alpha/(alpha + delta) e^(-alpha delta |z|^2
        # / (alpha + delta))
        assert res.value == pytest.approx(0.5 * math.exp(-0.125), rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, 5.0])
    @pytest.mark.parametrize("kind", [RadialSymbol, PlanarSymbol])
    def test_rejects_bad_symbol_values(self, kind, bad):
        # NaN, or a value above the declared sup bound 1
        f = kind(lambda x: bad, 1.0, eval_array=lambda x: np.full(x.shape, bad))
        with pytest.raises(ValueError):
            berezin_general(WeightParams(1.0, 2.0), f, complex(0.7, -0.4),
                            max_levels=3)

    def test_rejects_bad_symbol_type(self):
        with pytest.raises(TypeError):
            berezin_general(WeightParams(1.0, 2.0), "not a symbol", 0j)
        with pytest.raises(TypeError):
            berezin_at_zero(WeightParams(1.0, 2.0), 42)


class TestAngularLoop:
    """Each circle leaves the angular doubling at its own level."""

    @staticmethod
    def _average(p, z, f):
        return _KernelWeightedAverage(p, z, f, series_tol=DEFAULT_SERIES_TOL,
                                      tol_rel=1e-10,
                                      max_terms=DEFAULT_MAX_TERMS)

    def test_circle_independent_of_batch(self):
        """A circle's mean has the same bits alone as beside a harder
        circle, for a radial and a planar symbol (refined as long as the
        hard circle, the easy planar one would move in the last bit); the
        pair costs the nodes of the two circles alone, and its error is the
        larger of theirs.  A radial circle costs one node by Parseval, so
        only the planar circles differ in cost."""
        p, z = WeightParams(1.3, 3.0), complex(1.1, 0.4)
        for f in (unit_symbol(), ExpSymbol(1.0).as_planar(3.0)):
            pair = self._average(p, z, f)
            sign, log_abs = pair.log_values(np.array([0.3, 2.5]))
            alone = [self._average(p, z, f) for _ in range(2)]
            for i, (avg, rho) in enumerate(zip(alone, (0.3, 2.5))):
                s_i, l_i = avg.log_values(np.array([rho]))
                assert s_i[0] == sign[i] and l_i[0] == log_abs[i], (f, rho)
            assert pair.point_evals == sum(a.point_evals for a in alone)
            if isinstance(f, PlanarSymbol):
                assert alone[0].point_evals < alone[1].point_evals
            else:
                assert [a.point_evals for a in alone] == [1, 1]
            assert pair.max_rel_err == max(a.max_rel_err for a in alone)

    # recorded with the radial window of the kernel's envelope
    _EVALS = {1.0: 3072, 2.0: 214, 4.0: 18272}

    @pytest.mark.parametrize("m, alpha, delta, z, planar", [
        (1.0, 1.109375, 1.734375,
         complex(0.37785666452109884, 0.22052344790744988), True),
        (2.0, 1.359375, 1.515625,
         complex(0.6252841639137965, -0.6985169749967601), False),
        (4.0, 1.734375, 0.609375,
         complex(1.3091006773166005, -0.0944016241873946), True),
    ])
    def test_evaluation_counts(self, m, alpha, delta, z, planar):
        """The angular nodes of three fixed points of the crossval
        benchmark, a machine-independent work counter: a planar circle
        costs the nodes of the levels it refines, not those of its hardest
        batch mate, and a radial circle one node, so the radial point
        counts the exp-sinh radii."""
        f = ExpSymbol(delta).as_planar(m) if planar else ExpSymbol(delta)
        res = berezin_general(WeightParams(alpha, m), f, z, tol_rel=1e-10)
        assert res.converged
        assert res.evaluations == self._EVALS[m]
        ref = berezin_exp_radial(WeightParams(alpha, m), delta, abs(z))
        assert res.value == pytest.approx(ref.value, rel=1e-8)


class TestKernelEnvelope:
    """The radial window of berezin_general comes from a bound on its
    integrand, g <= sup_bound S(|z| rho)^2 / S(|z|^2); the bound must hold
    at every node the rule evaluates."""

    @staticmethod
    def _nodes(monkeypatch, calls):
        """Run calls, each a (params, f, z); return the nodes of every
        log_values call as (envelope, params, |z|, rho, log g)."""
        envelopes, nodes = [], []

        class Recorded(berezin._KernelEnvelope):
            def __init__(self, *args):
                super().__init__(*args)
                envelopes.append(self)

        log_values = _KernelWeightedAverage.log_values

        def recorded(avg, rho):
            sign, log_abs = log_values(avg, rho)
            log_s_z = kernel_series(avg.params, avg.abs_z ** 2).log_magnitude
            nodes.append((envelopes[-1], avg.params, avg.abs_z,
                          np.array(rho), log_abs - log_s_z))
            return sign, log_abs

        monkeypatch.setattr(berezin, "_KernelEnvelope", Recorded)
        monkeypatch.setattr(_KernelWeightedAverage, "log_values", recorded)
        results = [berezin_general(p, f, z, tol_rel=1e-10)
                   for p, f, z in calls]
        return results, nodes

    @staticmethod
    def _check(nodes):
        for env, p, abs_z, rho, log_g in nodes:
            with np.errstate(divide="ignore"):
                x = np.log(p.alpha * rho ** p.m)
            low, high = np.array([env._log_s(v) for v in x.tolist()]).T
            # log g <= log sup_bound - log S(|z|^2) + 2 log S(|z| rho)
            bound = env.log_g + 2.0 * high
            assert np.all(log_g <= bound + 1e-9 * (1.0 + np.abs(bound)))
            # and the bounds of log S bracket its summed value
            exact = log_series_grid(p, abs_z * rho)
            slack = 1e-9 * (1.0 + np.abs(exact))
            assert np.all(low <= exact + slack)
            assert np.all(exact <= high + slack)

    # the crossval strata: m, and alpha and |z| at the ends and inside of
    # [0.5, 2] and [0, 1.5]
    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("planar", [False, True], ids=["radial", "planar"])
    def test_bound_holds_at_every_node(self, monkeypatch, m, planar):
        f = ExpSymbol(0.75).as_planar(m) if planar else ExpSymbol(0.75)
        calls = [(WeightParams(alpha, m), f, r * cmath.exp(0.7j))
                 for alpha in (0.53125, 1.25, 1.96875)
                 for r in (0.0, 0.0625, 0.8125, 1.4375)]
        results, nodes = self._nodes(monkeypatch, calls)
        assert all(res.converged for res in results)
        self._check(nodes)

    @pytest.mark.parametrize("z", [10.0, 20.0, 26.0, 27.0])
    def test_mass_far_below_the_envelope(self, monkeypatch, z):
        """f_delta with delta = 1e3 at |z| up to 27: B f ~ e^-(|z|^2), so
        the integrand's mass sits up to e^-729 below the envelope's peak.
        The window widens to the e^-760 depth when the envelope's mass
        outside it is not negligible against the value; each point
        certifies within its estimate of the radial series or reports inf.
        Past that depth (|z| = 27) it reports inf."""
        p = WeightParams(1.0, 2.0)
        (res,), nodes = self._nodes(monkeypatch, [(p, ExpSymbol(1e3), z)])
        self._check(nodes)
        ref = berezin_exp_radial(p, 1e3, z)
        if res.converged:
            assert abs(res.value - ref.value) <= (res.abs_error_estimate
                                                  + ref.abs_error_estimate)
        else:
            assert res.abs_error_estimate == math.inf
        assert res.converged == (z < 27.0)
