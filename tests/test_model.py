import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, quad, simpson

from conftest import zero_mean_tabulated
from lieseek.errors import ConfigurationError, EvaluationError
from lieseek.model import (TAU, ChannelSpec, CoefficientForm, DitherSignal,
                           EscSystemSpec, EstimationErrorModel, ObjectiveMap,
                           QUAD_INTERVALS, _MAX_WEIGHT, _cumulative_simpson,
                           _nu_quadrature, _period_grid, _simpson,
                           nu_coefficient, verify_assumption_a2)
from lieseek.scenarios import Scenario, preset, preset_names

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


class TestSimpsonRules:
    """The package's Simpson rules give SciPy's bits on the period grid."""

    @pytest.mark.parametrize("intervals", [QUAD_INTERVALS, 2 * QUAD_INTERVALS])
    @pytest.mark.parametrize("period", [TAU, 1.0, 0.37, 17.3])
    def test_rules_equal_scipy_bit_for_bit(self, intervals, period):
        rng = np.random.default_rng(intervals + round(100 * period))
        grid = _period_grid(period, intervals)
        for _ in range(10):
            y = rng.standard_normal(grid.size) * rng.uniform(0.1, 100.0)
            assert (np.float64(_simpson(y, grid)).tobytes()
                    == simpson(y, x=grid).tobytes())
            assert (_cumulative_simpson(y, grid).tobytes()
                    == cumulative_simpson(y, x=grid, initial=0.0).tobytes())

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_nu_hats_equal_scipy(self, name):
        for spec in preset(name).systems.values():
            expected = []
            for ch in spec.channels:
                u_j, u_i = spec.dithers[ch.u2_ref], spec.dithers[ch.u1_ref]
                grid = _period_grid(u_j.period)
                inner = cumulative_simpson(u_i.value(grid), x=grid, initial=0.0)
                expected.append(float(simpson(u_j.value(grid) * inner, x=grid)
                                      / u_j.period))
            assert spec.nu_hats.tobytes() == np.array(expected).tobytes()


def _read_objective(name: str, section: dict) -> ObjectiveMap:
    """The objective that the scenario reader builds from ``section`` as
    that of preset ``name``'s primary system."""
    cfg = preset(name).config
    cfg["systems"][cfg["primary"]]["objective"] = section
    return Scenario(cfg).primary_system.objective


def _read_form(section: dict) -> CoefficientForm:
    """The form that the scenario reader builds from ``section`` as
    case1's ``b1``."""
    cfg = preset("case1").config
    cfg["systems"]["main"]["channels"][0]["b1"] = section
    return Scenario(cfg).primary_system.channels[0].b1


def _linear_channel():
    return ChannelSpec(index=0, b1=CoefficientForm("linear", 1.0, 0.0),
                       b2=CoefficientForm("linear", 0.0, 1.0))


def b0_of(ch, f):
    """The bracket factor of the one channel ``ch`` at objective value f."""
    spec = EscSystemSpec(
        objective=ObjectiveMap(weights=(1.0,), center=(0.0,)),
        channels=(ch,), dithers={"u1": COS, "u2": SIN}, omega=8.0,
        a0=[1.0], lam=[0.1], x0=[0.0], horizon=10.0)
    return float(spec.coefficients(f)[2][0])


class TestB0:
    def test_objective_coefficient_with_unit_companion(self):
        ch = _linear_channel()
        for f in (-3.0, 0.0, 2.0, 17.5):
            assert b0_of(ch, f) == pytest.approx(1.0)

    def test_rotating_pair_gives_scale(self):
        k = 2.0
        ch = ChannelSpec(index=0,
                         b1=CoefficientForm("cosine", 1.0, k),
                         b2=CoefficientForm("sine", -1.0, k))
        for f in (0.0, 0.7, -1.3):
            assert b0_of(ch, f) == pytest.approx(k)

    def test_constant_pair_is_zero(self):
        ch = ChannelSpec(index=0, b1=CoefficientForm("linear", 0.0, 3.0),
                         b2=CoefficientForm("linear", 0.0, -2.0))
        assert b0_of(ch, 1.234) == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_raises(self):
        # a named form cannot hold a NaN, so the NaN enters as the objective
        with pytest.raises(EvaluationError):
            b0_of(_linear_channel(), float("nan"))


class TestCoefficientForm:
    def test_built_from_config_with_defaults(self):
        assert _read_form({"form": "linear", "gain": 2.0}) \
            == CoefficientForm("linear", 2.0, 0.0)
        assert _read_form({"form": "sine"}) \
            == CoefficientForm("sine", 1.0, 1.0)

    @pytest.mark.parametrize("cfg", [
        {"form": "cubic"}, {}, {"form": "cosine", "amp": float("nan")},
        {"form": "linear", "offset": float("inf")}])
    def test_bad_config_rejected(self, cfg):
        with pytest.raises(ConfigurationError):
            _read_form(cfg)

    @pytest.mark.parametrize("form", ["linear", "cosine", "sine"])
    def test_value_and_slope_take_any_shape(self, form):
        b = CoefficientForm(form, -1.5, 0.7)
        m = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        value, slope = b.terms(m)
        assert value.shape == slope.shape == (3, 4)
        assert np.array_equal(b.value(m), value)
        h = 1e-6
        fd = (b.value(m + h) - b.value(m - h)) / (2 * h)
        np.testing.assert_allclose(slope, fd, rtol=1e-6, atol=1e-8)
        assert np.ndim(b.terms(0.3)[0]) == np.ndim(b.terms(0.3)[1]) == 0


class TestObjectiveMap:
    def test_max_kind_measured_descends(self):
        obj = ObjectiveMap(weights=(-1.0,), center=(0.0,), offset=10.0,
                           kind="max")
        assert obj.measured([0.0]) == pytest.approx(0.0)
        assert obj.measured([2.0]) == pytest.approx(4.0)
        assert obj.measured_gradient([2.0])[0] == pytest.approx(4.0)

    def test_closed_form_at_one_and_many_points(self):
        obj = ObjectiveMap(weights=(2.0, 0.5), center=(1.0, -1.0), offset=3.0)
        x = np.array([[1.0, -1.0], [2.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(obj.value(x), [3.0, 7.0, 5.5])
        np.testing.assert_array_equal(obj.measured_gradient(x),
                                      [[0.0, 0.0], [4.0, 2.0], [-4.0, 1.0]])
        assert type(obj.value([2.0, 1.0])) is float

    def test_two_loads_are_equal_and_hash_alike(self):
        first, second = (preset("case3").systems["vehicle3"].objective
                         for _ in range(2))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        cfg = preset("case3").config["systems"]["vehicle3"]["objective"]
        assert _read_objective("case3", cfg) == first
        assert _read_objective("case3", dict(cfg, center=[-1.0, 1.5])) != first

    def test_negative_zero_builds_the_zero_objective(self):
        cfg = {"form": "quadratic", "weights": [1.0], "center": [0.0]}
        zero = _read_objective("case1", cfg)
        negative = _read_objective("case1", dict(cfg, center=[-0.0]))
        assert negative == zero and hash(negative) == hash(zero)
        assert math.copysign(1.0, negative.center[0]) == 1.0

    @pytest.mark.parametrize("kw", [
        {"weights": [[2.0]]},
        {"weights": [[2.0]], "center": [[0.0]]},
        {"center": (0.0, 0.0)},
        {"weights": (), "center": ()},
        {"weights": (float("nan"),)},
        {"weights": (1e308,)},
        {"weights": (-float("inf"),)},
        {"center": (float("inf"),)},
        {"offset": float("nan")},
        {"kind": "saddle"},
        {"weights": (1.0, -1.0), "center": (0.0, 0.0)},
        {"weights": (-1.0, 1.0), "center": (0.0, 0.0), "kind": "max"},
        {"domain_box": ((0.0, 1.0, 2.0),)},
        {"domain_box": ((0.0, 1.0), (0.0, 1.0))},
        {"domain_box": ((0.0, 1.0), (2.0,))},
        {"domain_box": ((0.0, float("inf")),)},
    ], ids=["2-d-weights", "2-d-both", "longer-center", "empty", "nan-weight",
            "overflowing-weight", "infinite-weight", "infinite-center",
            "nan-offset", "unknown-kind", "mixed-sign-min", "mixed-sign-max",
            "box-triple", "box-too-long", "ragged-box", "infinite-box"])
    def test_bad_parameters_rejected(self, kw):
        # pytest turns a NumPy warning into an error here
        with pytest.raises(ConfigurationError):
            ObjectiveMap(**{"weights": (1.0,), "center": (0.0,), **kw})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3),
           kind=st.sampled_from(["min", "max"]))
    def test_box_check_is_exact(self, data, n, kind):
        """``validate`` raises exactly when the objective is non-finite
        somewhere on a grid of the box that holds every corner."""
        coord = st.floats(-1e160, 1e160)
        size = st.floats(1e-300, float(_MAX_WEIGHT))
        sign = 1.0 if kind == "min" else -1.0
        obj = ObjectiveMap(
            weights=[sign * data.draw(size) for _ in range(n)],
            center=[data.draw(coord) for _ in range(n)],
            offset=data.draw(coord), kind=kind,
            domain_box=[sorted(data.draw(st.tuples(coord, coord)))
                        for _ in range(n)])
        axes = [np.linspace(lo, hi, 5) for lo, hi in obj.domain_box]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(obj.value(grid)).all()
        if finite:
            obj.validate()
        else:
            with pytest.raises(EvaluationError, match="domain box"):
                obj.validate()

    def test_box_check_finds_an_overflow_at_one_corner(self):
        """The objective overflows only where x**2 + y**2 > 179.77, a sliver
        of 1e-5 of the box at its corner (9.5, 9.5)."""
        obj = ObjectiveMap(weights=(1e306, 1e306), center=(0.0, 0.0),
                           domain_box=((0.0, 9.5), (0.0, 9.5)))
        assert np.isfinite(obj.value([9.45, 9.5]))
        with pytest.raises(EvaluationError, match="domain box"):
            obj.validate()
        ObjectiveMap(weights=(1e306, 1e306), center=(0.0, 0.0),
                     domain_box=((0.0, 9.45), (0.0, 9.45))).validate()

    def test_largest_weight_gives_a_finite_gradient(self):
        big = np.finfo(float).max / 2.0
        obj = ObjectiveMap(weights=(big,), center=(0.0,))
        assert obj.measured_gradient([1.0])[0] == np.finfo(float).max


class TestEscSystemSpec:
    def _spec(self, **kw):
        obj = ObjectiveMap(weights=(2.0,), center=(1.0,),
                           domain_box=((-2.0, 4.0),))
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
        ch = ChannelSpec(index=0, b1=CoefficientForm("linear", 1.0, 0.0),
                         b2=CoefficientForm("linear", 0.0, 1.0), u1_ref="nope")
        with pytest.raises(ConfigurationError):
            self._spec(channels=(ch,))

    def test_nu_hats_cached_per_channel(self):
        spec = self._spec()
        np.testing.assert_allclose(spec.nu_hats, [0.5], atol=1e-8)

    def test_validate_passes(self):
        self._spec().validate()

    @pytest.mark.parametrize("setting,message", [
        ({"a0": [1e200]}, "a0's bracket weight -nu\\*a0\\^2 must be finite"),
        ({"lam": [1e80]}, "lambda's amplitude factor must be finite"),
    ], ids=["a0", "lambda"])
    def test_validate_names_a_loop_factor_that_overflows(self, setting,
                                                         message):
        """The bracket weight -nu*a0^2 and the amplitude's RK4 factor at
        lambda*dt overflow without a NumPy warning (an error here), and
        the error names the setting."""
        spec = self._spec(**setting)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            spec.validate()

    def test_arrays_are_read_only_copies(self):
        a0 = np.array([1.0])
        spec = self._spec(a0=a0)
        with pytest.raises(ValueError):
            spec.a0[0] = 2.0
        a0[0] = 3.0   # the caller's array stays writable and apart
        assert spec.a0[0] == 1.0

    @pytest.mark.parametrize("name", ["omega", "horizon", "dt", "a0", "lam",
                                      "x0"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, name, bad):
        value = [bad] if name in ("a0", "lam", "x0") else bad
        with pytest.raises(ConfigurationError, match="finite"):
            self._spec(**{name: value})

    def test_coefficients_of_all_channels_at_once(self):
        mixed = (ChannelSpec(index=0, b1=CoefficientForm("cosine", 1.0, 2.0),
                             b2=CoefficientForm("linear", 0.5, -1.0)),
                 ChannelSpec(index=1, b1=CoefficientForm("linear", 2.0, 0.0),
                             b2=CoefficientForm("sine", -1.0, 3.0)))
        spec = EscSystemSpec(
            objective=ObjectiveMap(weights=(1.0, 1.0), center=(0.0, 0.0)),
            channels=mixed, dithers={"u1": COS, "u2": SIN}, omega=8.0,
            a0=[1.0, 1.0], lam=[0.1, 0.1], x0=[0.0, 0.0], horizon=10.0)
        f = np.linspace(-3.0, 3.0, 24).reshape(4, 6)
        b1, b2, b0 = spec.coefficients(f)
        assert b1.shape == b2.shape == b0.shape == (4, 6, 2)
        for i, ch in enumerate(mixed):
            assert np.array_equal(b1[..., i], ch.b1.value(f))
            assert np.array_equal(b2[..., i], ch.b2.value(f))
            expected = (ch.b2.value(f) * ch.b1.terms(f)[1]
                        - ch.b1.value(f) * ch.b2.terms(f)[1])
            assert np.array_equal(b0[..., i], expected)
        point = spec.coefficients(float(f[1, 2]))
        assert all(np.array_equal(p, c[1, 2]) for p, c in
                   zip(point, (b1, b2, b0)))
        values = spec.coefficient_values(f)
        assert np.array_equal(values[0], b1) and np.array_equal(values[1], b2)


class TestEstimationErrorModel:
    def test_default_form_validates(self):
        err = EstimationErrorModel(eps0=0.1, theta0=0.2)
        assert err.value(0.0) == pytest.approx(0.1)
        assert err.value(100.0) < 0.01 * err.eps0

    def test_bound_violation_detected(self):
        # Lipschitz constant of the default form is 2*eps0; declare less.
        with pytest.raises(ConfigurationError,
                           match="violates declared Lipschitz bound"):
            EstimationErrorModel(eps0=0.1, theta0=0.05)

    def test_slow_decay_rejected(self):
        # exp(-100 * theta0 / eps0) stays above 1/100 when theta0/eps0 < 0.046
        with pytest.raises(ConfigurationError,
                           match="does not decay sufficiently"):
            EstimationErrorModel(eps0=1.0, theta0=0.04, form="exponential")

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimationErrorModel(eps0=0.1, theta0=0.2, form="sawtooth")

    @pytest.mark.parametrize("eps0,theta0", [
        (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf),
        (-math.inf, 1.0)])
    def test_non_finite_bounds_rejected(self, eps0, theta0):
        with pytest.raises(ConfigurationError,
                           match="^eps0 and theta0 must be finite$"):
            EstimationErrorModel(eps0=eps0, theta0=theta0)

    @pytest.mark.parametrize("eps0,theta0", [(0.0, 1.0), (0.1, -1.0)])
    def test_non_positive_bounds_rejected(self, eps0, theta0):
        with pytest.raises(ConfigurationError,
                           match="^eps0 and theta0 must be positive$"):
            EstimationErrorModel(eps0=eps0, theta0=theta0)
