import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import zero_mean_tabulated
from lieseek.errors import ConfigurationError, EvaluationError
from lieseek.model import (TAU, ChannelSpec, DitherSignal, EscSystemSpec,
                           EstimationErrorModel, ObjectiveMap, QUAD_INTERVALS,
                           _nu_quadrature, b0_of, nu_coefficient,
                           verify_assumption_a2)

COS = DitherSignal(kind="cosine")
SIN = DitherSignal(kind="sine")


class TestEvalDither:
    def test_cosine_at_zero(self):
        assert float(COS.value(0.0)) == pytest.approx(1.0)

    def test_sine_at_quarter_period(self):
        assert float(SIN.value(math.pi / 2)) == pytest.approx(1.0)

    def test_periodic_wrap(self):
        assert float(COS.value(TAU + 0.3)) == pytest.approx(math.cos(0.3))

    def test_tabulated_needs_samples(self):
        with pytest.raises(ConfigurationError):
            DitherSignal(kind="tabulated")

    def test_tabulated_interpolates_and_wraps(self):
        d = zero_mean_tabulated(np.random.default_rng(3))
        theta = np.linspace(0, TAU, 257)
        np.testing.assert_allclose(d.value(theta + TAU), d.value(theta),
                                   atol=1e-12)

    @given(st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_declared_sup(self, theta):
        assert abs(float(COS.value(theta))) <= COS.bound + 1e-12
        assert abs(float(SIN.value(theta))) <= SIN.bound + 1e-12


class TestAssumptionA2:
    def test_cosine_all_true(self):
        rep = verify_assumption_a2(COS)
        assert rep.periodic and rep.zero_mean and rep.bounded

    def test_constant_signal_fails_zero_mean(self):
        theta = np.arange(64) * (TAU / 64)
        d = DitherSignal(kind="tabulated", bound=1.5,
                         samples=tuple((float(t), 1.0) for t in theta))
        rep = verify_assumption_a2(d)
        assert rep.periodic and not rep.zero_mean

    def test_overdeclared_bound_fails(self):
        d = DitherSignal(kind="sine", bound=0.5)
        assert not verify_assumption_a2(d).bounded


class TestNuCoefficient:
    def test_sin_cos_is_half(self):
        # independent nested-quadrature oracle
        inner = lambda th: quad(lambda s: math.cos(s), 0.0, th)[0]
        oracle = quad(lambda th: math.sin(th) * inner(th), 0.0, TAU,
                      limit=200)[0] / TAU
        assert oracle == pytest.approx(0.5, abs=1e-9)
        assert nu_coefficient(SIN, COS) == pytest.approx(0.5, abs=1e-8)

    def test_cos_sin_is_minus_half(self):
        assert nu_coefficient(COS, SIN) == pytest.approx(-0.5, abs=1e-8)

    def test_same_signal_vanishes(self):
        assert nu_coefficient(COS, COS) == pytest.approx(0.0, abs=1e-12)

    def test_period_mismatch_rejected(self):
        other = DitherSignal(kind="cosine", period=1.0)
        with pytest.raises(ConfigurationError):
            nu_coefficient(COS, other)

    def test_antisymmetry_for_random_zero_mean_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            da, db = zero_mean_tabulated(rng), zero_mean_tabulated(rng)
            total = nu_coefficient(da, db) + nu_coefficient(db, da)
            assert abs(total) <= 1e-8

    def test_quadrature_converged(self):
        coarse = _nu_quadrature(SIN, COS, QUAD_INTERVALS)
        fine = _nu_quadrature(SIN, COS, 2 * QUAD_INTERVALS)
        assert abs(coarse - fine) < 1e-9


def _linear_channel():
    return ChannelSpec(index=0, b1=lambda m: m, b2=lambda m: 1.0,
                       db1=lambda m: 1.0, db2=lambda m: 0.0)


class TestB0:
    def test_objective_coefficient_with_unit_companion(self):
        ch = _linear_channel()
        for f in (-3.0, 0.0, 2.0, 17.5):
            assert b0_of(ch, f) == pytest.approx(1.0)

    def test_rotating_pair_gives_scale(self):
        k = 2.0
        ch = ChannelSpec(index=0,
                         b1=lambda m: math.cos(k * m),
                         b2=lambda m: -math.sin(k * m),
                         db1=lambda m: -k * math.sin(k * m),
                         db2=lambda m: -k * math.cos(k * m))
        for f in (0.0, 0.7, -1.3):
            assert b0_of(ch, f) == pytest.approx(k)

    def test_constant_pair_is_zero(self):
        ch = ChannelSpec(index=0, b1=lambda m: 3.0, b2=lambda m: -2.0)
        assert b0_of(ch, 1.234) == pytest.approx(0.0, abs=1e-9)

    def test_finite_difference_matches_analytic(self):
        k = 1.7
        analytic = ChannelSpec(index=0,
                               b1=lambda m: math.cos(k * m),
                               b2=lambda m: -math.sin(k * m),
                               db1=lambda m: -k * math.sin(k * m),
                               db2=lambda m: -k * math.cos(k * m))
        fd = ChannelSpec(index=0, b1=analytic.b1, b2=analytic.b2)
        rng = np.random.default_rng(5)
        for f in rng.uniform(-4, 4, size=100):
            va, vf = b0_of(analytic, float(f)), b0_of(fd, float(f))
            assert vf == pytest.approx(va, rel=1e-5)

    def test_non_finite_raises(self):
        ch = ChannelSpec(index=0, b1=lambda m: float("nan"),
                         b2=lambda m: 1.0)
        with pytest.raises(EvaluationError):
            b0_of(ch, 0.0)


class TestObjectiveMap:
    def test_declared_extremum_must_be_critical(self):
        bad = ObjectiveMap(dimension=1, fn=lambda x: float(x[0] ** 2),
                           gradient=lambda x: 2 * x, x_star=(0.5,))
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_max_kind_needs_value(self):
        with pytest.raises(ConfigurationError):
            ObjectiveMap(dimension=1, fn=lambda x: -float(x[0] ** 2),
                         kind="max")

    def test_max_kind_measured_descends(self):
        obj = ObjectiveMap(dimension=1, fn=lambda x: 10.0 - float(x[0] ** 2),
                           gradient=lambda x: -2 * x, x_star=(0.0,),
                           f_star=10.0, kind="max")
        assert obj.measured([0.0]) == pytest.approx(0.0)
        assert obj.measured([2.0]) == pytest.approx(4.0)
        assert obj.measured_gradient([2.0])[0] == pytest.approx(4.0)


class TestEscSystemSpec:
    def _spec(self, **kw):
        obj = ObjectiveMap(dimension=1, fn=lambda x: float(2 * (x[0] - 1) ** 2),
                           gradient=lambda x: 4 * (x - 1), x_star=(1.0,),
                           f_star=0.0, domain_box=((-2.0, 4.0),))
        defaults = dict(objective=obj, channels=(_linear_channel(),),
                        dithers={"u1": COS, "u2": SIN}, omega=8.0,
                        a0=[1.0], lam=[0.1], x0=[2.0], horizon=10.0)
        defaults.update(kw)
        return EscSystemSpec(**defaults)

    def test_default_dt_resolves_dither(self):
        spec = self._spec()
        assert spec.resolved_dt == pytest.approx((TAU / 8.0) / 64.0)
        assert spec.steps_per_period == 64

    def test_too_coarse_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(dt=(TAU / 8.0) / 16.0)

    def test_unknown_dither_ref_rejected(self):
        ch = ChannelSpec(index=0, b1=lambda m: m, b2=lambda m: 1.0,
                         u1_ref="nope")
        with pytest.raises(ConfigurationError):
            self._spec(channels=(ch,))

    def test_nu_hats_cached_per_channel(self):
        spec = self._spec()
        np.testing.assert_allclose(spec.nu_hats, [0.5], atol=1e-8)

    def test_validate_passes(self):
        self._spec().validate()


class TestEstimationErrorModel:
    def test_default_form_validates(self):
        err = EstimationErrorModel(eps0=0.1, theta0=0.2)
        err.validate()
        assert err.value(0.0) == pytest.approx(0.1)
        assert err.value(100.0) < 0.01 * err.eps0

    def test_bound_violation_detected(self):
        # Lipschitz constant of the default form is 2*eps0; declare less.
        err = EstimationErrorModel(eps0=0.1, theta0=0.05)
        with pytest.raises(ConfigurationError):
            err.validate()

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimationErrorModel(eps0=0.1, theta0=0.2, form="sawtooth")
