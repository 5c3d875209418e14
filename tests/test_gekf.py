import math

import numpy as np
import pytest

import lieseek.gekf as gekf
from lieseek.errors import (ConfigurationError, EvaluationError,
                            FilterDivergenceError)
from lieseek.gekf import GekfConfig, GekfFilter, measurement_coefficients
from conftest import shortened
from lieseek.model import (TAU, ChannelSpec, CoefficientForm, DitherSignal,
                           EscSystemSpec, ObjectiveMap)
from lieseek.scenarios import Scenario


def _linear(gain, offset):
    return CoefficientForm("linear", gain, offset)


def _channel(index=0):
    return ChannelSpec(index=index, b1=_linear(1.0, 0.0), b2=_linear(0.0, 1.0))


def _system(*channels, window=None):
    """A system that only serves its channels' coefficients, its initial
    amplitudes (1) and its number of steps per dither period, ``window``
    (64 by default)."""
    n = len(channels)
    return EscSystemSpec(
        objective=ObjectiveMap(weights=(1.0,) * n, center=(0.0,) * n),
        channels=channels, dithers={"u1": DitherSignal(kind="cosine"),
                                    "u2": DitherSignal(kind="sine")},
        omega=8.0, a0=np.ones(n), lam=np.full(n, 0.1), x0=np.zeros(n),
        horizon=10.0,
        dt=None if window is None else (TAU / 8.0) / window)


def _min_eig(P):
    return float(np.linalg.eigvalsh(0.5 * (P + P.T)).min())


def _one_member(cfg, spec, f0):
    """A filter of one member of ``spec`` at its initial amplitudes, first
    measurement ``f0``."""
    return GekfFilter(cfg, spec, [f0], spec.a0[None])


def _filter(cfg, x1, x2=0.0, x3=0.0, P=None, p33=1.0, channel=None,
            window=None):
    """A one-channel filter of one member of ``_system(channel, window)``
    (nu_hat 0.5, a0 1, so its floor is ``cfg.a_floor_rel``) with the mean
    ``[x1, x2]``, covariance ``P`` (identity by default), held sample
    ``x3`` and its variance ``p33``."""
    filt = _one_member(cfg, _system(channel or _channel(), window=window),
                       x3)
    filt.mean = np.array([[x1, x2]], dtype=float)
    filt.P = (np.eye(2) if P is None else np.array(P, dtype=float))[None]
    filt.p33 = np.array([p33], dtype=float)
    return filt


def _export(cfg, x1, history, window=None):
    """The member's export after pushing the rows of ``history``."""
    filt = _filter(cfg, x1, window=window)
    for row in history:
        filt._push_row(row)
    return filt.step_export()[0]


class TestPropagate:
    def test_zero_derivative_keeps_mean(self):
        cfg = GekfConfig()
        filt = _one_member(cfg, _system(_channel()), 3.0)
        filt.propagate(0.25)
        assert filt.mean[0, 0] == 0.0 and filt.x3[0] == 3.0

    def test_linear_mean_advance(self):
        filt = _filter(GekfConfig(), 2.0, 1.0)
        filt.propagate(0.5)
        assert filt.mean[0, 0] == pytest.approx(2.5)

    def test_psd_preserved_without_process_noise(self):
        # congruence transform keeps PSD; checked by eigenvalue oracle
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        P0 = A @ A.T  # symmetric PSD by construction
        cfg = GekfConfig(q1=1e-30, q2=1e-30, q3=1e-30)
        filt = _filter(cfg, 0.0, P=P0[:2, :2], p33=P0[2, 2])
        for _ in range(200):
            filt.propagate(0.01)
            assert _min_eig(filt.P[0]) >= -1e-12
            assert filt.min_eigenvalue()[0] >= -1e-12

    def test_bad_dt_rejected(self):
        cfg = GekfConfig()
        with pytest.raises(ConfigurationError):
            _one_member(cfg, _system(_channel()), 0.0).propagate(0.0)


class TestMeasurementUpdate:
    @staticmethod
    def _updated(f2, a=1.0, channel=None, r=1e-2):
        """The filter at mean [-1, 0], held sample 2 and identity
        covariance (``P`` and ``p33``) after one update against ``f2``,
        with f1 = x3 = 2 and u = (0.02, 0.01)."""
        filt = _filter(GekfConfig(r=r), -1.0, 0.0, 2.0, channel=channel)
        filt.update(f2, np.array([[[0.02], [0.01]]]), np.array([[a]]))
        return filt

    def test_zero_innovation_keeps_mean_and_shrinks_p(self):
        c = -(2.0 * 0.02 + 1.0 * 0.01) / (0.5 * 1.0 * 1.0)
        f2 = 2.0 + c * -1.0  # exactly the predicted sample
        filt = self._updated(f2)
        assert filt.mean[0, 0] == pytest.approx(-1.0)
        assert filt.mean[0, 1] == pytest.approx(0.0)
        assert filt.x3[0] == f2
        assert np.trace(filt.P[0]) + filt.p33[0] <= 3.0 + 1e-12

    def test_uninformative_measurement_keeps_mean(self):
        filt = self._updated(5.0, r=1e12)
        assert abs(filt.mean[0, 0] - -1.0) < 1e-6
        assert abs(filt.mean[0, 1] - 0.0) < 1e-6

    def test_low_amplitude_channel_skipped(self):
        filt = self._updated(2.5, a=1e-6)
        # x1 gets no correction; only the held value moves
        assert filt.mean[0, 0] == pytest.approx(-1.0)
        assert filt.x3[0] == 2.5

    def test_singular_bracket_factor_skipped(self):
        flat = ChannelSpec(index=0, b1=_linear(0.0, 1.0), b2=_linear(0.0, 2.0))
        filt = self._updated(2.5, channel=flat)
        assert filt.mean[0, 0] == pytest.approx(-1.0)

    def test_psd_after_update(self):
        filt = self._updated(2.7)
        assert min(_min_eig(filt.P[0]), filt.p33[0]) >= -1e-9
        np.testing.assert_allclose(filt.P[0], filt.P[0].T, atol=1e-10)

    @staticmethod
    def _read(f2, t):
        """The failure read at ``t`` after the update of :meth:`_updated`
        against ``f2``, given the arrays that the update started from."""
        filt = _filter(GekfConfig(), -1.0, 0.0, 2.0)
        prior = filt.mean, filt.P, filt.x3, filt.p33
        filt.update(f2, np.array([[[0.02], [0.01]]]), np.array([[1.0]]))
        return filt.check(t, prior)

    def test_divergent_measurement_raises(self):
        failed = self._read(float("nan"), 0.0)
        assert list(failed) == [0]
        with pytest.raises(FilterDivergenceError, match="after update"):
            raise failed[0]

    def test_check_raises_with_the_given_time(self):
        """The filter keeps no clock: the error carries the time that the
        caller names."""
        failed = self._read(float("nan"), 0.75)
        assert type(failed[0]) is FilterDivergenceError
        assert failed[0].t == 0.75
        assert self._read(2.7, 0.75) == {}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_b0_names_its_member_alone(self):
        """Linear forms of gain 1e200 give a NaN b0 at the held sample 1
        and a finite one at 1e-300.  The update of both members raises
        nothing; the read names the first alone, with the error that the
        coefficients raise, and the second has the bits of a filter of it
        alone."""
        steep = ChannelSpec(index=0, b1=_linear(1e200, 0.0),
                            b2=_linear(1e200, 1.0))
        spec, cfg = _system(steep), GekfConfig()
        u_int, a = np.full((2, 2, 1), 0.01), np.ones((2, 1))
        pair = GekfFilter(cfg, spec, [1.0, 1e-300], a)
        alone = GekfFilter(cfg, spec, [1e-300], a[1:])
        with pytest.raises(EvaluationError, match="b0 evaluation non-finite"):
            spec.coefficients(pair.x3)
        prior = pair.mean, pair.P, pair.x3, pair.p33
        pair.update(np.array([0.5, 0.25]), u_int, a)
        alone.update(np.array([0.25]), u_int[1:], a[1:])
        failed = pair.check(0.5, prior)
        assert list(failed) == [0]
        assert type(failed[0]) is EvaluationError
        assert str(failed[0]) == "b0 evaluation non-finite"
        for name in ("mean", "P", "x3", "p33"):
            assert getattr(pair, name)[1:].tobytes() == getattr(alone, name).tobytes()
        assert np.isfinite(alone.P).all()


class TestExtractJ:
    def test_smoothing_off_returns_raw(self):
        cfg = GekfConfig(smoothing=False)
        out = _export(cfg, 1.5, history=[np.array([9.9])])
        assert out[0] == 1.5

    def test_constant_history_average(self):
        hist = [np.array([3.0])] * 40
        assert _export(GekfConfig(), 3.0, hist, window=32)[0] == pytest.approx(3.0)

    def test_sinusoid_over_one_period_averages_out(self):
        n = 64
        cfg = GekfConfig()
        hist = [np.array([math.sin(2 * math.pi * k / n)]) for k in range(n)]
        assert abs(_export(cfg, 0.0, hist)[0]) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smoothing_matches_history_mean_bit_for_bit(self, n):
        """The export is the mean of a copy of the last window rows, warm-up
        included, to the last bit."""
        from collections import deque
        window = 64
        filt = _one_member(GekfConfig(), _system(*map(_channel, range(n))), 0.0)
        assert filt.window == window
        history = deque([filt.mean[0, :n].copy()], maxlen=window)
        rng = np.random.default_rng(n)
        for _ in range(1000):
            x1 = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
            filt.mean = np.concatenate([x1, np.zeros(n)])[None]
            history.append(x1.copy())
            expected = np.asarray(history, dtype=float).mean(axis=0)
            assert filt.step_export()[0].tobytes() == expected.tobytes()


class TestPauseBehaviour:
    def test_estimate_decays_at_extremum_with_zero_inputs(self):
        """Pinned state, zero amplitude: export decays toward zero."""
        cfg = GekfConfig(a_floor_rel=1e-3)
        filt = _filter(cfg, 1.0, 0.0, 5.0, window=32)
        filt._j = np.array([[1.0]])
        js = []
        for _ in range(500):
            filt.propagate(0.01)
            filt.update(5.0, np.zeros((1, 2, 1)), np.zeros((1, 1)))
            js.append(abs(filt.step_export()[0, 0]))
            assert filt.min_eigenvalue()[0] >= -1e-9
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
        filt = _one_member(sc.gekf_config(), spec, 1.0)
        filt.paused[:] = True
        filt._j = np.array([[1.0]])
        exports = []
        for _ in range(spec.steps_per_period):
            filt.propagate(spec.resolved_dt)
            exports.append(filt.step_export()[0, 0])
        return exports[0], exports[-1]

    def test_decay_per_dither_period_is_step_size_free(self):
        first, per_period = self._paused_export(64)
        assert first == gekf.PAUSED_J_DECAY
        _, fine = self._paused_export(128)
        assert fine == pytest.approx(per_period, rel=0, abs=1e-12)
        assert per_period == pytest.approx(0.999 ** 64, rel=1e-12)


class TestFilterUpdate:
    # the window's input integrals (u1, u2) and the amplitude
    ARGS = (np.array([[[0.02], [0.01]]]), np.array([[1.0]]))

    def _filter(self):
        return _filter(GekfConfig(), -1.0, 0.3, 2.0)

    def test_innovation_is_against_pre_update_state(self):
        filt = self._filter()
        (x1, _), x3 = filt.mean[0], filt.x3[0]
        u_int, a = self.ARGS
        c = measurement_coefficients(_system(_channel()), np.array([x3]),
                                     u_int, a, filt.cfg.a_floor_rel)
        filt.update(2.7, u_int, a)
        assert filt.last_innovation[0] == pytest.approx(
            2.7 - (x3 + c[0, 0] * x1), abs=1e-12)

    def test_coefficients_computed_once_per_update(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return measurement_coefficients(*args, **kwargs)

        monkeypatch.setattr(gekf, "measurement_coefficients", counting)
        filt = self._filter()
        for k in range(3):
            filt.update(2.0 + 0.1 * k, *self.ARGS)
        assert len(calls) == 3

    def test_matches_a_per_channel_loop(self):
        """The row equals the scalar formula of each channel, bit for bit."""
        rng = np.random.default_rng(8)
        for name in ("case2", "case3"):
            spec = shortened(name, 1.0).primary_system
            a_floor = 0.05
            for _ in range(200):
                f1 = float(rng.uniform(-3.0, 3.0))
                u1, u2 = rng.normal(size=(2, spec.n)) * 0.01
                a = rng.uniform(0.0, 1.5, size=spec.n)
                c = measurement_coefficients(spec, f1, np.stack([u1, u2]), a,
                                             a_floor)
                b1, b2, b0 = spec.coefficients(f1)
                for i in range(spec.n):
                    expected = 0.0
                    if abs(a[i]) >= a_floor:
                        num = b1[i] * u1[i] + b2[i] * u2[i]
                        expected = -num / (spec.nu_hats[i] * a[i] ** 2 * b0[i])
                    assert c[i].tobytes() == np.float64(expected).tobytes()

    def test_ineligible_channel_gets_zero_weight(self):
        spec = _system(_channel(), _channel(1))
        a = np.array([1.0, 0.0])   # channel 1 sits below the amplitude floor
        c = measurement_coefficients(spec, 2.0, np.ones((2, 2)), a, 1e-3)
        assert c[1] == 0.0 and c[0] != 0.0


class TestDerivedSettings:
    """What follows from the system: each member's floor and the window."""

    def test_each_member_floor_is_rel_times_its_smallest_a0(self):
        spec = _system(_channel(), _channel(1))
        a0 = np.array([[1.0, 0.5], [2.0, 4.0]])
        cfg = GekfConfig(a_floor_rel=1e-3)
        filt = GekfFilter(cfg, spec, [0.0, 0.0], a0)
        # floors 5e-4 and 2e-3: 6e-4 sits above the first, below the second
        filt.update(np.zeros(2), np.zeros((2, 2, 2)),
                    np.array([[6e-4, 1.0], [6e-4, 1.0]]))
        assert filt.paused.tolist() == [[False, False], [True, False]]
        assert filt._a_floor.tobytes() == np.array(
            [[1e-3 * 0.5], [1e-3 * 2.0]]).tobytes()

    @pytest.mark.parametrize("window", [32, 64, 100])
    def test_window_is_the_systems_steps_per_period(self, window):
        spec = _system(_channel(), window=window)
        filt = _one_member(GekfConfig(), spec, 0.0)
        assert filt.window == spec.steps_per_period == window
        filt.paused[:] = True
        filt._j = np.array([[1.0]])
        assert filt.step_export()[0, 0] == gekf.PAUSED_J_DECAY ** (
            gekf.PAUSE_DECAY_STEPS / window)


def _joseph_with_held_state(cfg, spec, floor, mean, P, x3, p33, dt, f2,
                            u_int, a):
    """One propagate and one update of a single member by the filter that
    carries the held sample as a third block of its state: ``z = [x1 | x2
    | x3]``, its covariance ``(2n+1)``-square with ``x3`` uncorrelated,
    ``h = [c | 0 | 1]``, the Joseph form at measurement variance ``r``,
    and afterwards ``x3`` pinned to ``f2`` with its row and column reset."""
    n, r = spec.n, cfg.r
    d = 2 * n + 1
    z = np.concatenate([mean, [x3]])
    Pz = np.zeros((d, d))
    Pz[:-1, :-1], Pz[-1, -1] = P, p33
    phi = np.eye(d)
    phi[:n, n:2 * n] = dt * np.eye(n)
    q = np.diag(np.concatenate([np.full(n, cfg.q1), np.full(n, cfg.q2),
                                [cfg.q3]]))
    z[:n] = z[:n] + dt * z[n:2 * n]
    Pz = phi @ Pz @ phi.T + q * dt
    Pz = 0.5 * (Pz + Pz.T)
    c = measurement_coefficients(spec, z[-1], u_int, a, floor)
    h = np.concatenate([c, np.zeros(n), [1.0]])
    innovation = f2 - h @ z
    gain = Pz @ h / (h @ Pz @ h + r)
    z = z + gain * innovation
    ikh = np.eye(d) - np.outer(gain, h)
    Pz = ikh @ Pz @ ikh.T + r * np.outer(gain, gain)
    Pz[-1, :], Pz[:, -1] = 0.0, 0.0
    Pz[-1, -1], z[-1] = r, f2
    Pz = 0.5 * (Pz + Pz.T)
    return z[:-1], Pz[:-1, :-1], z[-1], Pz[-1, -1], innovation


def _close(new, old, rel=1e-12):
    """``new`` equals ``old`` to ``rel`` of the largest entry of ``old``."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= rel * np.max(np.abs(old))


class TestHeldSample:
    """``x3`` and ``p33`` sit beside the 2n-state filter: it is the filter
    that carries them as a third, uncorrelated block of its state."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_the_filter_with_the_held_sample_as_a_state(self, n):
        rng = np.random.default_rng(10 + n)
        cfg = GekfConfig(q1=0.3, q2=0.05, q3=0.2, r=0.04)
        spec = _system(*map(_channel, range(n)))
        a0 = rng.uniform(0.5, 1.5, size=(2, n))
        filt = GekfFilter(cfg, spec, rng.normal(size=2), a0)
        A = rng.normal(size=(2, 2 * n, 2 * n))
        filt.mean = rng.normal(size=(2, 2 * n))
        filt.P = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(2 * n)
        filt.p33 = rng.uniform(0.5, 2.0, size=2)
        before = filt.mean, filt.P, filt.x3, filt.p33
        dt = np.array([[0.01], [0.03]])
        f2 = rng.normal(size=2)
        u_int = rng.normal(size=(2, 2, n)) * 0.1
        a = rng.uniform(0.5, 1.5, size=(2, n))
        filt.propagate(dt)
        filt.update(f2, u_int, a)
        for b in range(2):
            mean, P, x3, p33, innovation = _joseph_with_held_state(
                cfg, spec, filt._a_floor[b], *(part[b] for part in before),
                float(dt[b, 0]), f2[b], u_int[b], a[b])
            _close(filt.mean[b], mean)
            _close(filt.P[b], P)
            _close(filt.last_innovation[b], innovation)
            assert filt.x3[b] == x3 and filt.p33[b] == p33

    def test_variance_grows_between_updates_and_weighs_each(self):
        """``p33`` is ``p0 + k q3 dt`` after k steps, ``r`` after an update
        and ``r + q3 dt n_meas`` before the next, one entry per member, and
        the update's innovation variance is ``c'P11c + p33 + r``."""
        cfg = GekfConfig(q3=0.5, r=0.02, p0=3.0)
        spec = _system(_channel())
        filt = GekfFilter(cfg, spec, [2.0, -1.0], np.ones((2, 1)))
        dt, n_meas = np.array([[0.01], [0.04]]), 3
        u_int, a = np.full((2, 2, 1), 0.05), np.ones((2, 1))
        expected = np.full(2, cfg.p0)
        for steps in (5, n_meas, n_meas):
            for _ in range(steps):
                filt.propagate(dt)
                expected = expected + cfg.q3 * dt[:, 0]
            assert filt.p33.shape == (2,)
            np.testing.assert_allclose(filt.p33, expected, rtol=1e-14)
            mean, P, x3, p33 = filt.mean, filt.P, filt.x3, filt.p33
            c = measurement_coefficients(spec, x3, u_int, a, filt._a_floor)
            f2 = x3 + 0.3
            filt.update(f2, u_int, a)
            p_col = P[:, :, 0] * c   # P's first column times c, per member
            gain = p_col / (c[:, 0] * p_col[:, 0] + p33 + cfg.r)[:, None]
            np.testing.assert_allclose(
                filt.mean, mean + gain * filt.last_innovation[:, None],
                rtol=1e-13)
            assert filt.p33.shape == (2,) and np.all(filt.p33 == cfg.r)
            expected = np.full(2, cfg.r)
