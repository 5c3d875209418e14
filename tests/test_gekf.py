import math

import numpy as np
import pytest

import lieseek.gekf as gekf
from lieseek.errors import ConfigurationError, FilterDivergenceError
from lieseek.gekf import (GekfConfig, GekfFilter, GekfState,
                          measurement_coefficients)
from conftest import shortened
from lieseek.model import ChannelSpec, b0_of
from lieseek.scenarios import Scenario


def _channel():
    return ChannelSpec(index=0, b1=lambda m: m, b2=lambda m: 1.0,
                       db1=lambda m: 1.0, db2=lambda m: 0.0)


def _min_eig(P):
    return float(np.linalg.eigvalsh(0.5 * (P + P.T)).min())


def _filter(cfg, s, nu_hat=(0.5,)):
    """A one-channel filter started from the state ``s``."""
    filt = GekfFilter(cfg, 1, f0=s.x3, nu_hat=nu_hat)
    filt.state = s
    return filt


def _propagate(s, cfg, dt):
    filt = _filter(cfg, s)
    filt.propagate(dt)
    return filt.state


def _update(s, cfg, f2, f1, u1, u2, a, channels, nu_hat):
    filt = _filter(cfg, s, nu_hat)
    filt.update(f2, f1, u1, u2, a, channels)
    return filt.state


def _export(s, cfg, history):
    filt = _filter(cfg, s)
    filt.history.extend(history)
    return filt.step_export()


class TestPropagate:
    def test_zero_derivative_keeps_mean(self):
        cfg = GekfConfig()
        filt = GekfFilter(cfg, 1, f0=3.0, nu_hat=[0.5])
        filt.propagate(0.25)
        out = filt.state
        assert out.x1[0] == 0.0 and out.x3 == 3.0
        assert out.t == pytest.approx(0.25)

    def test_linear_mean_advance(self):
        cfg = GekfConfig()
        s = GekfState(x1=np.array([2.0]), x2=np.array([1.0]), x3=0.0,
                      P=np.eye(3), t=0.0)
        out = _propagate(s, cfg, 0.5)
        assert out.x1[0] == pytest.approx(2.5)

    def test_psd_preserved_without_process_noise(self):
        # congruence transform keeps PSD; checked by eigenvalue oracle
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        P0 = A @ A.T  # symmetric PSD by construction
        cfg = GekfConfig(q1=1e-30, q2=1e-30, q3=1e-30)
        s = GekfState(x1=np.zeros(1), x2=np.zeros(1), x3=0.0, P=P0, t=0.0)
        for _ in range(200):
            s = _propagate(s, cfg, 0.01)
            assert _min_eig(s.P) >= -1e-12

    def test_bad_dt_rejected(self):
        cfg = GekfConfig()
        with pytest.raises(ConfigurationError):
            GekfFilter(cfg, 1, 0.0, nu_hat=[0.5]).propagate(0.0)


class TestMeasurementUpdate:
    def _setup(self, r=1e-2):
        cfg = GekfConfig(r=r)
        s = GekfState(x1=np.array([-1.0]), x2=np.array([0.0]), x3=2.0,
                      P=np.eye(3), t=0.0)
        return cfg, s

    def test_zero_innovation_keeps_mean_and_shrinks_p(self):
        cfg, s = self._setup()
        u1, u2 = np.array([0.02]), np.array([0.01])
        c = -(2.0 * u1[0] + 1.0 * u2[0]) / (0.5 * 1.0 * 1.0)
        f2 = s.x3 + c * s.x1[0]  # exactly the predicted sample
        out = _update(s, cfg, f2, 2.0, u1, u2, np.array([1.0]),
                      (_channel(),), np.array([0.5]))
        assert out.x1[0] == pytest.approx(-1.0)
        assert out.x2[0] == pytest.approx(0.0)
        assert out.x3 == f2
        assert np.trace(out.P) <= np.trace(s.P) + 1e-12

    def test_uninformative_measurement_keeps_mean(self):
        cfg, s = self._setup(r=1e12)
        out = _update(s, cfg, 5.0, 2.0, np.array([0.02]),
                      np.array([0.01]), np.array([1.0]),
                      (_channel(),), np.array([0.5]))
        assert abs(out.x1[0] - s.x1[0]) < 1e-6
        assert abs(out.x2[0] - s.x2[0]) < 1e-6

    def test_low_amplitude_channel_skipped(self):
        cfg, s = self._setup()
        out = _update(s, cfg, 2.5, 2.0, np.array([0.02]),
                      np.array([0.01]), np.array([1e-6]),
                      (_channel(),), np.array([0.5]))
        # x1 gets no correction; only the held value moves
        assert out.x1[0] == pytest.approx(s.x1[0])
        assert out.x3 == 2.5

    def test_singular_bracket_factor_skipped(self):
        cfg, s = self._setup()
        flat = ChannelSpec(index=0, b1=lambda m: 1.0, b2=lambda m: 2.0)
        out = _update(s, cfg, 2.5, 2.0, np.array([0.02]),
                      np.array([0.01]), np.array([1.0]),
                      (flat,), np.array([0.5]))
        assert out.x1[0] == pytest.approx(s.x1[0])

    def test_psd_after_update(self):
        cfg, s = self._setup()
        out = _update(s, cfg, 2.7, 2.0, np.array([0.02]),
                      np.array([0.01]), np.array([1.0]),
                      (_channel(),), np.array([0.5]))
        assert _min_eig(out.P) >= -1e-9
        np.testing.assert_allclose(out.P, out.P.T, atol=1e-10)

    def test_divergent_measurement_raises(self):
        cfg, s = self._setup()
        with pytest.raises(FilterDivergenceError):
            _update(s, cfg, float("nan"), 2.0, np.array([0.02]),
                    np.array([0.01]), np.array([1.0]),
                    (_channel(),), np.array([0.5]))


class TestExtractJ:
    def test_smoothing_off_returns_raw(self):
        cfg = GekfConfig(smoothing=False)
        s = GekfState(x1=np.array([1.5]), x2=np.zeros(1), x3=0.0,
                      P=np.eye(3), t=0.0)
        out = _export(s, cfg, history=[np.array([9.9])])
        assert out[0] == 1.5

    def test_constant_history_average(self):
        cfg = GekfConfig(smooth_window=16)
        s = GekfState(x1=np.array([3.0]), x2=np.zeros(1), x3=0.0,
                      P=np.eye(3), t=0.0)
        hist = [np.array([3.0])] * 40
        assert _export(s, cfg, hist)[0] == pytest.approx(3.0)

    def test_sinusoid_over_one_period_averages_out(self):
        n = 64
        cfg = GekfConfig(smooth_window=n)
        s = GekfState(x1=np.zeros(1), x2=np.zeros(1), x3=0.0, P=np.eye(3),
                      t=0.0)
        hist = [np.array([math.sin(2 * math.pi * k / n)]) for k in range(n)]
        assert abs(_export(s, cfg, hist)[0]) < 1e-6


class TestPauseBehaviour:
    def test_estimate_decays_at_extremum_with_zero_inputs(self):
        """Pinned state, zero amplitude: export decays toward zero."""
        cfg = GekfConfig(a_floor=1e-3, smooth_window=8)
        filt = GekfFilter(cfg, 1, f0=5.0, nu_hat=[0.5])
        filt.state = GekfState(x1=np.array([1.0]), x2=np.zeros(1), x3=5.0,
                               P=np.eye(3), t=0.0)
        filt._j = np.array([1.0])
        zeros = np.zeros(1)
        js = []
        for _ in range(500):
            filt.propagate(0.01)
            filt.update(5.0, 5.0, zeros, zeros, np.array([0.0]),
                        (_channel(),))
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
        filt = GekfFilter(GekfConfig(), 1, f0=2.0, nu_hat=[0.5])
        filt.state = GekfState(x1=np.array([-1.0]), x2=np.array([0.3]),
                               x3=2.0, P=np.eye(3), t=0.0)
        return filt

    def test_innovation_is_against_pre_update_state(self):
        filt = self._filter()
        prev = filt.state
        f1, u1, u2, a = self.ARGS
        c = measurement_coefficients((_channel(),), f1, u1, u2, a,
                                     filt.nu_hat, filt.cfg)
        filt.update(2.7, f1, u1, u2, a, (_channel(),))
        assert filt.last_innovation == pytest.approx(
            2.7 - (prev.x3 + c[0] * prev.x1[0]), abs=1e-12)

    def test_coefficients_computed_once_per_update(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return measurement_coefficients(*args, **kwargs)

        monkeypatch.setattr(gekf, "measurement_coefficients", counting)
        filt = self._filter()
        for k in range(3):
            filt.update(2.0 + 0.1 * k, *self.ARGS, (_channel(),))
        assert len(calls) == 3

    def test_bracket_factor_once_per_eligible_channel(self, monkeypatch):
        calls = []

        def counting(ch, f):
            calls.append(ch.index)
            return b0_of(ch, f)

        monkeypatch.setattr(gekf, "b0_of", counting)
        channels = (_channel(), ChannelSpec(index=1, b1=lambda m: m,
                                            b2=lambda m: 1.0))
        a = np.array([1.0, 0.0])   # channel 1 sits below the amplitude floor
        c = measurement_coefficients(channels, 2.0, np.ones(2), np.ones(2), a,
                                     np.array([0.5, 0.5]), GekfConfig())
        assert calls == [0]
        assert c[1] == 0.0 and c[0] != 0.0
