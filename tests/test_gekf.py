import math

import numpy as np
import pytest

import lieseek.gekf as gekf
from lieseek.errors import ConfigurationError, FilterDivergenceError
from lieseek.gekf import GekfConfig, GekfFilter, measurement_coefficients
from conftest import shortened
from lieseek.model import (ChannelSpec, CoefficientForm, DitherSignal,
                           EscSystemSpec, ObjectiveMap)
from lieseek.scenarios import Scenario


def _linear(gain, offset):
    return CoefficientForm("linear", gain, offset)


def _channel(index=0):
    return ChannelSpec(index=index, b1=_linear(1.0, 0.0), b2=_linear(0.0, 1.0))


def _system(*channels):
    """A system that only serves its channels' coefficients."""
    n = len(channels)
    return EscSystemSpec(
        objective=ObjectiveMap(weights=(1.0,) * n, center=(0.0,) * n),
        channels=channels, dithers={"u1": DitherSignal(kind="cosine"),
                                    "u2": DitherSignal(kind="sine")},
        omega=8.0, a0=np.ones(n), lam=np.full(n, 0.1), x0=np.zeros(n),
        horizon=10.0)


def _min_eig(P):
    return float(np.linalg.eigvalsh(0.5 * (P + P.T)).min())


def _filter(cfg, x1, x2=0.0, x3=0.0, P=None, nu_hat=(0.5,)):
    """A one-channel filter with the mean ``[x1, x2, x3]`` and covariance
    ``P`` (identity by default)."""
    filt = GekfFilter(cfg, 1, f0=x3, nu_hat=nu_hat)
    filt.mean = np.array([x1, x2, x3], dtype=float)
    filt.P = np.eye(3) if P is None else np.array(P, dtype=float)
    return filt


def _export(cfg, x1, history):
    filt = _filter(cfg, x1)
    for row in history:
        filt._push_row(row)
    return filt.step_export()


class TestPropagate:
    def test_zero_derivative_keeps_mean(self):
        cfg = GekfConfig()
        filt = GekfFilter(cfg, 1, f0=3.0, nu_hat=[0.5])
        filt.propagate(0.25)
        assert filt.mean[0] == 0.0 and filt.mean[2] == 3.0
        assert filt.t == pytest.approx(0.25)

    def test_linear_mean_advance(self):
        filt = _filter(GekfConfig(), 2.0, 1.0)
        filt.propagate(0.5)
        assert filt.mean[0] == pytest.approx(2.5)

    def test_psd_preserved_without_process_noise(self):
        # congruence transform keeps PSD; checked by eigenvalue oracle
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        P0 = A @ A.T  # symmetric PSD by construction
        cfg = GekfConfig(q1=1e-30, q2=1e-30, q3=1e-30)
        filt = _filter(cfg, 0.0, P=P0)
        for _ in range(200):
            filt.propagate(0.01)
            assert _min_eig(filt.P) >= -1e-12

    def test_bad_dt_rejected(self):
        cfg = GekfConfig()
        with pytest.raises(ConfigurationError):
            GekfFilter(cfg, 1, 0.0, nu_hat=[0.5]).propagate(0.0)


class TestMeasurementUpdate:
    @staticmethod
    def _updated(f2, a=1.0, channel=None, r=1e-2):
        """The filter at mean [-1, 0, 2] and identity covariance after one
        update against ``f2``, with f1 = 2 and u = (0.02, 0.01)."""
        filt = _filter(GekfConfig(r=r), -1.0, 0.0, 2.0)
        filt.update(f2, 2.0, np.array([0.02]), np.array([0.01]),
                    np.array([a]), _system(channel or _channel()))
        return filt

    def test_zero_innovation_keeps_mean_and_shrinks_p(self):
        c = -(2.0 * 0.02 + 1.0 * 0.01) / (0.5 * 1.0 * 1.0)
        f2 = 2.0 + c * -1.0  # exactly the predicted sample
        filt = self._updated(f2)
        assert filt.mean[0] == pytest.approx(-1.0)
        assert filt.mean[1] == pytest.approx(0.0)
        assert filt.mean[2] == f2
        assert np.trace(filt.P) <= 3.0 + 1e-12

    def test_uninformative_measurement_keeps_mean(self):
        filt = self._updated(5.0, r=1e12)
        assert abs(filt.mean[0] - -1.0) < 1e-6
        assert abs(filt.mean[1] - 0.0) < 1e-6

    def test_low_amplitude_channel_skipped(self):
        filt = self._updated(2.5, a=1e-6)
        # x1 gets no correction; only the held value moves
        assert filt.mean[0] == pytest.approx(-1.0)
        assert filt.mean[2] == 2.5

    def test_singular_bracket_factor_skipped(self):
        flat = ChannelSpec(index=0, b1=_linear(0.0, 1.0), b2=_linear(0.0, 2.0))
        filt = self._updated(2.5, channel=flat)
        assert filt.mean[0] == pytest.approx(-1.0)

    def test_psd_after_update(self):
        filt = self._updated(2.7)
        assert _min_eig(filt.P) >= -1e-9
        np.testing.assert_allclose(filt.P, filt.P.T, atol=1e-10)

    def test_divergent_measurement_raises(self):
        filt = self._updated(float("nan"))
        with pytest.raises(FilterDivergenceError, match="after update"):
            filt.check()


class TestExtractJ:
    def test_smoothing_off_returns_raw(self):
        cfg = GekfConfig(smoothing=False)
        out = _export(cfg, 1.5, history=[np.array([9.9])])
        assert out[0] == 1.5

    def test_constant_history_average(self):
        cfg = GekfConfig(smooth_window=16)
        hist = [np.array([3.0])] * 40
        assert _export(cfg, 3.0, hist)[0] == pytest.approx(3.0)

    def test_sinusoid_over_one_period_averages_out(self):
        n = 64
        cfg = GekfConfig(smooth_window=n)
        hist = [np.array([math.sin(2 * math.pi * k / n)]) for k in range(n)]
        assert abs(_export(cfg, 0.0, hist)[0]) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smoothing_matches_history_mean_bit_for_bit(self, n):
        """The export is the mean of a copy of the last window rows, warm-up
        included, to the last bit."""
        from collections import deque
        window = 64
        cfg = GekfConfig(smooth_window=window)
        filt = GekfFilter(cfg, n, f0=0.0, nu_hat=np.full(n, 0.5))
        history = deque([filt.mean[:n].copy()], maxlen=window)
        rng = np.random.default_rng(n)
        for _ in range(1000):
            x1 = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
            filt.mean = np.concatenate([x1, np.zeros(n + 1)])
            history.append(x1.copy())
            expected = np.asarray(history, dtype=float).mean(axis=0)
            assert filt.step_export().tobytes() == expected.tobytes()


class TestPauseBehaviour:
    def test_estimate_decays_at_extremum_with_zero_inputs(self):
        """Pinned state, zero amplitude: export decays toward zero."""
        cfg = GekfConfig(a_floor=1e-3, smooth_window=8)
        filt = _filter(cfg, 1.0, 0.0, 5.0)
        filt._j = np.array([1.0])
        zeros = np.zeros(1)
        js = []
        for _ in range(500):
            filt.propagate(0.01)
            filt.update(5.0, 5.0, zeros, zeros, np.array([0.0]),
                        _system(_channel()))
            js.append(abs(filt.step_export()[0]))
            assert filt.min_eigenvalue() >= -1e-9
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
        assert js[-1] < js[0]


    @staticmethod
    def _paused_export(dt_divisor: int) -> tuple[float, float]:
        """Export of a paused channel after one step and one dither period."""
        sc = shortened("case1", 2.0)
        cfg = sc.config
        spec = sc.primary_system
        cfg["systems"]["main"]["dt"] = spec.dither_period_seconds / dt_divisor
        sc = Scenario(cfg)
        spec = sc.primary_system
        filt = GekfFilter(sc.gekf_config(), 1, f0=1.0, nu_hat=spec.nu_hats)
        filt.paused[:] = True
        filt._j = np.array([1.0])
        exports = []
        for _ in range(spec.steps_per_period):
            filt.propagate(spec.resolved_dt)
            exports.append(filt.step_export()[0])
        return exports[0], exports[-1]

    def test_decay_per_dither_period_is_step_size_free(self):
        first, per_period = self._paused_export(64)
        assert first == gekf.PAUSED_J_DECAY
        _, fine = self._paused_export(128)
        assert fine == pytest.approx(per_period, rel=0, abs=1e-12)
        assert per_period == pytest.approx(0.999 ** 64, rel=1e-12)


class TestFilterUpdate:
    ARGS = (2.0, np.array([0.02]), np.array([0.01]), np.array([1.0]))

    def _filter(self):
        return _filter(GekfConfig(), -1.0, 0.3, 2.0)

    def test_innovation_is_against_pre_update_state(self):
        filt = self._filter()
        x1, _, x3 = filt.mean
        f1, u1, u2, a = self.ARGS
        c = measurement_coefficients(_system(_channel()), f1, u1, u2, a,
                                     filt.nu_hat, filt.cfg.a_floor)
        filt.update(2.7, f1, u1, u2, a, _system(_channel()))
        assert filt.last_innovation == pytest.approx(
            2.7 - (x3 + c[0] * x1), abs=1e-12)

    def test_coefficients_computed_once_per_update(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return measurement_coefficients(*args, **kwargs)

        monkeypatch.setattr(gekf, "measurement_coefficients", counting)
        filt = self._filter()
        for k in range(3):
            filt.update(2.0 + 0.1 * k, *self.ARGS, _system(_channel()))
        assert len(calls) == 3

    def test_matches_a_per_channel_loop(self):
        """The row equals the scalar formula of each channel, bit for bit."""
        rng = np.random.default_rng(8)
        for name in ("case2", "case3"):
            spec = shortened(name, 1.0).primary_system
            cfg = GekfConfig(a_floor=0.05)
            for _ in range(200):
                f1 = float(rng.uniform(-3.0, 3.0))
                u1, u2 = rng.normal(size=(2, spec.n)) * 0.01
                a = rng.uniform(0.0, 1.5, size=spec.n)
                c = measurement_coefficients(spec, f1, u1, u2, a,
                                             spec.nu_hats, cfg.a_floor)
                b1, b2, b0 = spec.coefficients(f1)
                for i in range(spec.n):
                    expected = 0.0
                    if abs(a[i]) >= cfg.a_floor:
                        num = b1[i] * u1[i] + b2[i] * u2[i]
                        expected = -num / (spec.nu_hats[i] * a[i] ** 2 * b0[i])
                    assert c[i].tobytes() == np.float64(expected).tobytes()

    def test_ineligible_channel_gets_zero_weight(self):
        spec = _system(_channel(), _channel(1))
        a = np.array([1.0, 0.0])   # channel 1 sits below the amplitude floor
        c = measurement_coefficients(spec, 2.0, np.ones(2), np.ones(2), a,
                                     np.array([0.5, 0.5]), GekfConfig().a_floor)
        assert c[1] == 0.0 and c[0] != 0.0
