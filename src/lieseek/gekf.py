"""Continuous-discrete extended Kalman filter that reconstructs the
averaged right-hand side of a seeking system from objective measurements.

State layout (2n+1 entries for an n-channel system):

* ``x1`` -- the averaged right-hand side per channel (the quantity the
  adaptation law consumes),
* ``x2`` -- its assumed-constant derivative,
* ``x3`` -- the held objective value from the previous measurement.

Between measurements the mean follows the constant-velocity model
``x1 += x2*dt`` with ``x2`` and ``x3`` frozen; covariance follows the
matching exact discrete transition.  The measurement model is the
first-order iterated-integral increment of the objective: knowing the
channel coefficients and the input integrals over the window, a new
objective sample is linear in ``x1`` once the gradient factor is
rewritten through ``x1 = -nu * a^2 * grad_i * b0_i``.  That inversion
makes the update exactly linear, so no measurement Jacobian
approximation is involved.

:class:`GekfFilter` is the filter: it owns the state, the smoothing
history and the pause bookkeeping.  An instance is a single-owner mutable
state machine; run separate instances for separate systems.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, FilterDivergenceError
from .model import ChannelSpec, b0_of

B0_SINGULAR_TOL = 1e-12
# A paused channel's export decays by PAUSED_J_DECAY per 1/PAUSE_DECAY_STEPS
# of the smoothing window: per step at the default 64 steps per period, and
# by the same amount per period at any step size that divides the period.
PAUSED_J_DECAY = 0.999
PAUSE_DECAY_STEPS = 64


@dataclass(frozen=True)
class GekfState:
    """Filter mean and covariance at time ``t``."""

    x1: np.ndarray
    x2: np.ndarray
    x3: float
    P: np.ndarray
    t: float

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    def mean(self) -> np.ndarray:
        return np.concatenate([self.x1, self.x2, [self.x3]])

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.mean())) and np.all(np.isfinite(self.P)))


@dataclass(frozen=True)
class GekfConfig:
    """Noise levels and update policy for one filter instance.

    ``q1``/``q2``/``q3`` are per-block process-noise densities, ``r`` the
    measurement variance, ``p0`` the initial covariance scale.  Channels
    whose amplitude magnitude falls below ``a_floor`` stop receiving
    measurement corrections (the measurement coefficient scales like
    1/a^2 and turns ill-conditioned); their exported estimate decays
    geometrically instead.  ``smooth_window`` is the moving-average
    length in samples, normally one dither period; the pause decay is
    paced by it (``PAUSED_J_DECAY ** PAUSE_DECAY_STEPS`` per window).
    """

    q1: float = 1e-2
    q2: float = 1e-3
    q3: float = 1e-2
    r: float = 1e-2
    p0: float = 10.0
    a_floor: float = 1e-3
    smoothing: bool = True
    smooth_window: int = 64
    n_meas: int = 1

    def __post_init__(self):
        for name in ("q1", "q2", "q3", "r", "p0", "a_floor"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.smooth_window < 1 or self.n_meas < 1:
            raise ConfigurationError("smooth_window and n_meas must be >= 1")


def measurement_coefficients(channels: Sequence[ChannelSpec], f1: float,
                             u1_int: np.ndarray, u2_int: np.ndarray,
                             a: np.ndarray, nu_hat: np.ndarray,
                             cfg: GekfConfig) -> np.ndarray:
    """Per-channel weight of ``x1`` in the predicted objective sample.

    ``c_i = -(b1_i(f1) U1_i + b2_i(f1) U2_i) / (nu_i * a_i^2 * b0_i(f1))``
    with ineligible channels weighted zero.  Coefficients are anchored at
    the measured value ``f1`` from the start of the window.  A channel is
    ineligible when its amplitude magnitude sits below the floor or its
    bracket factor at ``f1`` is singular.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    c = np.zeros(len(channels))
    for i, ch in enumerate(channels):
        if not abs(a[i]) >= cfg.a_floor:
            continue
        b0 = b0_of(ch, f1)
        if abs(b0) < B0_SINGULAR_TOL:
            continue
        num = ch.b1(f1) * u1_int[i] + ch.b2(f1) * u2_int[i]
        c[i] = -num / (nu_hat[i] * a[i] ** 2 * b0)
    return c


class GekfFilter:
    """The filter: state, smoothing history and per-channel pause.

    Starts unbiased (zero RHS estimate, the first measurement as held
    value).  :meth:`propagate` and :meth:`update` advance ``state``;
    :meth:`step_export` returns the per-step estimate.  Once a channel's
    amplitude falls under the floor its exported estimate decays
    geometrically, at a fixed rate per smoothing window, instead of
    following ``x1``.
    """

    def __init__(self, cfg: GekfConfig, n: int, f0: float, nu_hat,
                 t0: float = 0.0):
        self.cfg = cfg
        self.nu_hat = np.atleast_1d(np.asarray(nu_hat, dtype=float))
        self.state = GekfState(x1=np.zeros(n), x2=np.zeros(n), x3=float(f0),
                               P=cfg.p0 * np.eye(2 * n + 1), t=t0)
        self._q = np.diag(np.concatenate([np.full(n, cfg.q1),
                                          np.full(n, cfg.q2), [cfg.q3]]))
        self.history: deque[np.ndarray] = deque(maxlen=cfg.smooth_window)
        self.history.append(self.state.x1.copy())
        self.paused = np.zeros(n, dtype=bool)
        self._decay = PAUSED_J_DECAY ** (PAUSE_DECAY_STEPS / cfg.smooth_window)
        self._j = np.zeros(n)
        self.last_innovation = 0.0
        self._dt = None

    def propagate(self, dt: float) -> None:
        """Advance mean and covariance by the constant-velocity model."""
        if dt <= 0:
            raise ConfigurationError("propagation step must be positive")
        s = self.state
        if dt != self._dt:
            n = s.n
            phi = np.eye(2 * n + 1)
            phi[:n, n:2 * n] = dt * np.eye(n)
            self._dt, self._phi, self._q_dt = dt, phi, self._q * dt
        x1 = s.x1 + dt * s.x2
        phi = self._phi
        P = phi @ s.P @ phi.T + self._q_dt
        P = 0.5 * (P + P.T)
        out = GekfState(x1=x1, x2=s.x2.copy(), x3=s.x3, P=P, t=s.t + dt)
        if not out.is_finite():
            raise FilterDivergenceError(
                "filter state non-finite after propagation", t=out.t)
        self.state = out

    def update(self, f2: float, f1: float, u1_int, u2_int, a,
               channels: Sequence[ChannelSpec]) -> None:
        """Scalar Kalman update against the objective sample ``f2``.

        Predicted sample: ``x3 + sum_i c_i x1_i`` with ``c`` from
        :func:`measurement_coefficients` anchored at ``f1``.  Joseph-form
        covariance update, re-symmetrized; afterwards the held value
        ``x3`` is pinned to the new measurement so the next window
        anchors at measured data.  ``last_innovation`` is taken against
        the pre-update state.
        """
        a = np.atleast_1d(np.asarray(a, dtype=float))
        c = measurement_coefficients(channels, f1, np.atleast_1d(u1_int),
                                     np.atleast_1d(u2_int), a, self.nu_hat,
                                     self.cfg)
        s, r = self.state, self.cfg.r
        n = s.n
        dim = 2 * n + 1
        h = np.zeros(dim)
        h[:n] = c
        h[-1] = 1.0

        mean = s.mean()
        innovation = f2 - float(h @ mean)
        sv = float(h @ s.P @ h) + r
        gain = (s.P @ h) / sv
        mean = mean + gain * innovation
        ikh = np.eye(dim) - np.outer(gain, h)
        P = ikh @ s.P @ ikh.T + r * np.outer(gain, gain)
        # Pinning x3 to the fresh measurement makes its error the measurement
        # error: reset its covariance row accordingly, or the stale cross
        # terms feed the pinned state back into x1 through later gains.
        P[-1, :] = 0.0
        P[:, -1] = 0.0
        P[-1, -1] = r
        P = 0.5 * (P + P.T)

        out = GekfState(x1=mean[:n], x2=mean[n:2 * n], x3=float(f2), P=P, t=s.t)
        if not out.is_finite():
            raise FilterDivergenceError("filter state non-finite after update",
                                        t=s.t)
        self.state, self.last_innovation = out, innovation
        self.paused = np.abs(a) < self.cfg.a_floor

    def step_export(self) -> np.ndarray:
        """Per-step estimate export with pause decay applied.

        With smoothing on, the estimate is the mean of ``x1`` over the
        last ``smooth_window`` steps (nominally one dither period);
        otherwise raw ``x1``.
        """
        self.history.append(self.state.x1.copy())
        if self.cfg.smoothing:
            smoothed = np.asarray(self.history, dtype=float).mean(axis=0)
        else:
            smoothed = self.state.x1.copy()
        active = ~self.paused
        self._j[active] = smoothed[active]
        self._j[self.paused] *= self._decay
        return self._j.copy()

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.state.P).min())
