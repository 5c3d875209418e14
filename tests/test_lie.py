import math

import numpy as np
import pytest

from lieseek.errors import ConfigurationError
from lieseek.lie import (VectorFieldFn, chen_fliess_predict, diagonal_fields,
                         lbs_rhs_exact, lie_bracket)
from lieseek.scenarios import preset
from lieseek.sim import run_baseline


def _field(fn, n=1, jac=None):
    return VectorFieldFn(dimension=n, fn=fn, jacobian=jac)


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        b = _field(lambda t, x: np.array([x[0] ** 2 + 1.0]))
        out = lie_bracket(b, b, 0.0, [1.3])
        np.testing.assert_allclose(out, [0.0], atol=1e-8)

    def test_scalar_quadratic_against_constant(self):
        # [b_i, b_j] = (db_j/dx) b_i - (db_i/dx) b_j = -d/dx(2(x-1)^2) at x=2
        bi = _field(lambda t, x: np.array([2.0 * (x[0] - 1.0) ** 2]))
        bj = _field(lambda t, x: np.array([1.0]))
        out = lie_bracket(bi, bj, 0.0, [2.0])
        assert out[0] == pytest.approx(-4.0, rel=1e-6)

    def test_constant_fields_commute(self):
        bi = _field(lambda t, x: np.array([2.0, -1.0]), n=2)
        bj = _field(lambda t, x: np.array([0.5, 3.0]), n=2)
        np.testing.assert_allclose(lie_bracket(bi, bj, 0.0, [0.3, -0.7]),
                                   [0.0, 0.0], atol=1e-9)

    def test_dimension_mismatch(self):
        bi = _field(lambda t, x: np.array([1.0]))
        bj = _field(lambda t, x: np.array([1.0, 2.0]), n=2)
        with pytest.raises(ConfigurationError):
            lie_bracket(bi, bj, 0.0, [0.0])

    def test_antisymmetry_on_random_points(self):
        rng = np.random.default_rng(7)
        n = 3
        A, B = rng.normal(size=(n, n)), rng.normal(size=(n, n))

        def fa(t, x):
            return A @ x + np.sin(x)

        def fb(t, x):
            return B @ x + x * x

        bi, bj = _field(fa, n=n), _field(fb, n=n)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=n)
            fwd = lie_bracket(bi, bj, 0.0, x)
            bwd = lie_bracket(bj, bi, 0.0, x)
            np.testing.assert_allclose(fwd, -bwd, atol=1e-8 * (1 + np.abs(fwd).max()))

    def test_analytic_jacobian_fast_path(self):
        bi = _field(lambda t, x: np.array([x[0] ** 3]),
                    jac=lambda t, x: np.array([[3.0 * x[0] ** 2]]))
        bj = _field(lambda t, x: np.array([2.0]))
        assert lie_bracket(bi, bj, 0.0, [1.5])[0] == pytest.approx(
            -2.0 * 3.0 * 1.5 ** 2, rel=1e-9)


class TestDiagonalFormConsistency:
    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_bracket_reproduces_channel_factor(self, name):
        spec = preset(name).primary_system
        rng = np.random.default_rng(2)
        box = np.asarray(spec.objective.domain_box)
        for _ in range(20):
            x = rng.uniform(box[:, 0], box[:, 1])
            fv = spec.objective.measured(x)
            grad = spec.objective.measured_gradient(x)
            for i in range(spec.n):
                f1, f2 = diagonal_fields(spec, i)
                bracket = lie_bracket(f1, f2, 0.0, x)
                expected = -spec.coefficients(fv)[2][i] * grad[i]
                assert bracket[i] == pytest.approx(
                    expected, rel=1e-5, abs=1e-7)


class TestLbsRhsExact:
    def test_case1_point_value(self, case1):
        out = lbs_rhs_exact(case1.primary_system, [2.0])
        assert out[0] == pytest.approx(-2.0, rel=1e-7)

    def test_zero_at_extremum(self, case1):
        out = lbs_rhs_exact(case1.primary_system, [1.0])
        np.testing.assert_allclose(out, [0.0], atol=1e-10)

    def test_case2_point_value(self, case2):
        out = lbs_rhs_exact(case2.primary_system, [1.0, 0.0])
        np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-7)

    def test_amplitude_scaling(self, case1):
        spec = case1.primary_system
        half = lbs_rhs_exact(spec, [2.0], amplitude=[0.5])
        full = lbs_rhs_exact(spec, [2.0])
        assert half[0] == pytest.approx(0.25 * full[0], rel=1e-9)


class TestChenFliess:
    def test_no_input_no_change(self, case1):
        spec = case1.primary_system
        assert chen_fliess_predict(spec, 2.0, [4.0], [0.0], [0.0]) == 2.0

    def test_zero_gradient_no_change(self, case1):
        spec = case1.primary_system
        assert chen_fliess_predict(spec, 2.0, [0.0], [0.01], [0.02]) == 2.0

    def test_case1_direct_substitution(self, case1):
        spec = case1.primary_system
        out = chen_fliess_predict(spec, 2.0, [4.0], [0.01], [0.02])
        assert out == pytest.approx(2.16, abs=1e-12)

    def test_first_order_truncation_error_order(self, case1):
        """Halving the window shrinks the worst prediction error ~4x."""
        cfg = case1.config
        cfg["systems"]["main"]["horizon"] = 2.0
        from lieseek.scenarios import Scenario
        spec = Scenario(cfg).primary_system
        log = run_baseline(spec)
        omega, dt = spec.omega, spec.resolved_dt
        sw = math.sqrt(omega)
        steps_per_period = spec.steps_per_period

        def window_errors(substeps: int) -> float:
            errs = []
            start = steps_per_period  # skip the initial transient window
            for k0 in range(start, start + steps_per_period, substeps):
                k1 = k0 + substeps
                t_grid = log.t[k0:k1 + 1]
                u1 = np.trapezoid(sw * np.cos(omega * t_grid), t_grid)
                u2 = np.trapezoid(sw * np.sin(omega * t_grid), t_grid)
                f1 = log.f[k0]
                grad = 4.0 * (log.x[k0] - 1.0)
                pred = chen_fliess_predict(spec, f1, grad, [u1], [u2])
                errs.append(abs(pred - log.f[k1]))
            return max(errs)

        coarse = window_errors(16)
        fine = window_errors(8)
        ratio = coarse / fine
        assert 3.0 <= ratio <= 5.0
