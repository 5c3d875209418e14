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
history and the pause bookkeeping of B members that step in lockstep.
The state is stacked in plain arrays, one leading row per member:

* ``mean`` -- ``(B, 2n+1)``, each row ``[x1 | x2 | x3]``;
* ``P`` -- ``(B, 2n+1, 2n+1)``, one covariance per member;
* the smoothing history -- ``(B, 2w, n)`` for a window of w steps.

A filter of one member, started from one float, drops the leading axis:
``(2n+1,)``, ``(2n+1, 2n+1)`` and ``(2w, n)``.  Members share the
configuration but may differ in their amplitude floor and step size.
The stacked ``matmul`` products (not ``einsum``, which rounds
differently) and the means over the window axis give each member the
same bits as a filter of that member alone.  The step size is one float,
or a ``(B, 1)`` column when the members step with different sizes; the
transition is then stacked too, ``(B, 2n+1, 2n+1)``.  An instance is a
single-owner mutable state machine.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FilterDivergenceError
from .model import EscSystemSpec

B0_SINGULAR_TOL = 1e-12
# A paused channel's export decays by PAUSED_J_DECAY per 1/PAUSE_DECAY_STEPS
# of the smoothing window: per step at the default 64 steps per period, and
# by the same amount per period at any step size that divides the period.
PAUSED_J_DECAY = 0.999
PAUSE_DECAY_STEPS = 64


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


def measurement_coefficients(spec: EscSystemSpec, f1, u1_int: np.ndarray,
                             u2_int: np.ndarray, a: np.ndarray,
                             nu_hat: np.ndarray, a_floor) -> np.ndarray:
    """Per-channel weight of ``x1`` in the predicted objective sample.

    ``c_i = -(b1_i(f1) U1_i + b2_i(f1) U2_i) / (nu_i * a_i^2 * b0_i(f1))``
    with ineligible channels weighted zero, all from one coefficient call
    anchored at the measured value ``f1`` from the start of the window.
    A channel is ineligible when its amplitude magnitude sits below the
    floor ``a_floor`` or its bracket factor at ``f1`` is singular.  With
    ``f1`` of shape ``(B,)``, the amplitudes and input integrals are
    ``(B, n)``, ``a_floor`` broadcasts against them, and so does the result.
    """
    b1, b2, b0 = spec.coefficients(f1)
    ok = (np.abs(a) >= a_floor) & (np.abs(b0) >= B0_SINGULAR_TOL)
    # float_power calls C pow like a scalar a_i ** 2; an array a ** 2
    # squares, which rounds differently in rare cases
    return np.divide(-(b1 * u1_int + b2 * u2_int),
                     nu_hat * np.float_power(a, 2) * b0,
                     out=np.zeros(b0.shape), where=ok)


class GekfFilter:
    """The filter of B members: stacked state, smoothing history and
    per-channel pause.

    ``mean`` is ``(B, 2n+1)`` and ``P`` is ``(B, 2n+1, 2n+1)``; a filter
    started from one float ``f0`` has no member axis: ``(2n+1,)`` and
    ``(2n+1, 2n+1)``.  Each member starts unbiased (zero RHS estimate,
    its first measurement as held value).  :meth:`propagate` and
    :meth:`update` replace ``mean`` and ``P`` with new arrays and check
    nothing; :meth:`check` is the finiteness check, once per step.
    :meth:`step_export` returns the per-step estimates, ``(B, n)`` or
    ``(n,)``.  Once a channel's amplitude falls under its member's floor,
    its exported estimate decays geometrically, at a fixed rate per
    smoothing window, instead of following ``x1``.
    """

    def __init__(self, cfg: GekfConfig, n: int, f0, nu_hat, t0: float = 0.0,
                 a_floor=None):
        """``f0`` is the first measurement: one float, or one per member;
        ``a_floor`` is ``cfg.a_floor`` by default, or a ``(B, 1)`` column
        of per-member amplitude floors."""
        self.cfg = cfg
        self.n = n
        self.nu_hat = np.atleast_1d(np.asarray(nu_hat, dtype=float))
        f0 = np.asarray(f0, dtype=float)
        lead, dim = f0.shape, 2 * n + 1
        self._a_floor = cfg.a_floor if a_floor is None else np.asarray(a_floor)
        self.mean = np.zeros(lead + (dim,))
        self.mean[..., -1] = f0
        self.P = np.broadcast_to(cfg.p0 * np.eye(dim), lead + (dim, dim)).copy()
        self.t = t0
        self._q = np.diag(np.concatenate([np.full(n, cfg.q1),
                                          np.full(n, cfg.q2), [cfg.q3]]))
        # Each member's last smooth_window x1 rows, each written twice (at i
        # and i + window) so that they are always one contiguous slice,
        # oldest first.  Averaged over the window axis, a member sums its
        # rows in the order that the mean of its own window-long history
        # does: pairwise for n = 1, row by row for n >= 2.
        self._rows = np.empty(lead + (2 * cfg.smooth_window, n))
        self._count = 0
        self._push_row(self.mean[..., :n])
        self.paused = np.zeros(lead + (n,), dtype=bool)
        self._decay = PAUSED_J_DECAY ** (PAUSE_DECAY_STEPS / cfg.smooth_window)
        self._j = np.zeros(lead + (n,))
        self.last_innovation = np.zeros(lead)
        self._dt = None
        self._prior = None

    def take(self, members) -> "GekfFilter":
        """A copy that holds only the members ``members`` (a list or a
        slice of indices) of a filter with a member axis; one index as an
        int gives a filter without the member axis."""
        out = copy.copy(self)
        for name in ("mean", "P", "_rows", "paused", "_j", "last_innovation"):
            setattr(out, name, np.array(getattr(self, name)[members]))
        # the per-member floor and time are (B, 1) columns
        single = isinstance(members, int)
        for name in ("_a_floor", "t"):
            value = getattr(self, name)
            if np.ndim(value):
                setattr(out, name, value[members, 0] if single else value[members])
        out._dt = out._prior = None
        return out

    def snapshot(self) -> tuple:
        """What :meth:`propagate` and :meth:`update` replace, for
        :meth:`restore`."""
        return (self.mean, self.P, self.t, self.paused, self.last_innovation,
                self._prior)

    def restore(self, snapshot: tuple) -> None:
        (self.mean, self.P, self.t, self.paused, self.last_innovation,
         self._prior) = snapshot

    def propagate(self, dt) -> None:
        """Advance mean and covariance by the constant-velocity model.

        ``dt`` is one float, or a ``(B, 1)`` column of per-member steps;
        the transition is built again only when ``dt`` is another object
        than at the last call.
        """
        n = self.n
        if dt is not self._dt:
            if not np.all(dt > 0):
                raise ConfigurationError("propagation step must be positive")
            # a float, or a (B, 1, 1) stack of steps for (B, d, d) matrices
            step = np.asarray(dt, dtype=float)[..., None]
            dim = 2 * n + 1
            phi = np.broadcast_to(np.eye(dim), step.shape[:-2] + (dim, dim)).copy()
            phi[..., :n, n:2 * n] = step * np.eye(n)
            self._dt, self._phi, self._q_dt = dt, phi, self._q * step
        mean = self.mean.copy()
        mean[..., :n] = mean[..., :n] + dt * mean[..., n:2 * n]
        phi = self._phi
        P = phi @ self.P @ phi.swapaxes(-1, -2) + self._q_dt
        self.mean, self.P = mean, 0.5 * (P + P.swapaxes(-1, -2))
        self.t += dt
        self._prior = None

    def update(self, f2, f1, u1_int, u2_int, a, spec: EscSystemSpec) -> None:
        """Scalar Kalman update of each member against its sample ``f2``.

        Predicted sample: ``x3 + sum_i c_i x1_i`` with ``c`` from
        :func:`measurement_coefficients` anchored at ``f1``.  Joseph-form
        covariance update, re-symmetrized; afterwards the held value
        ``x3`` is pinned to the new measurement so the next window
        anchors at measured data.  ``last_innovation`` is taken against
        the pre-update state.  The products are stacked ``matmul`` calls,
        which give each member the bits of its own matrix products.
        """
        a = np.asarray(a, dtype=float)
        c = measurement_coefficients(spec, f1, u1_int, u2_int, a,
                                     self.nu_hat, self._a_floor)
        mean, P, r = self.mean, self.P, self.cfg.r
        h = np.zeros(mean.shape)
        h[..., :self.n] = c
        h[..., -1] = 1.0
        row, col = h[..., None, :], h[..., :, None]

        innovation = f2 - (row @ mean[..., :, None])[..., 0, 0]
        sv = (row @ P @ col)[..., 0, 0] + r
        gain = (P @ col)[..., 0] / sv[..., None]
        new_mean = mean + gain * innovation[..., None]
        ikh = np.eye(mean.shape[-1]) - gain[..., :, None] * row
        new_P = (ikh @ P @ ikh.swapaxes(-1, -2)
                 + r * (gain[..., :, None] * gain[..., None, :]))
        # Pinning x3 to the fresh measurement makes its error the measurement
        # error: reset its covariance row accordingly, or the stale cross
        # terms feed the pinned state back into x1 through later gains.
        new_P[..., -1, :] = 0.0
        new_P[..., :, -1] = 0.0
        new_P[..., -1, -1] = r
        new_mean[..., -1] = f2

        self._prior = (mean, P)
        self.mean = new_mean
        self.P = 0.5 * (new_P + new_P.swapaxes(-1, -2))
        self.last_innovation = innovation
        self.paused = np.abs(a) < self._a_floor

    def check(self) -> None:
        """Raise :class:`FilterDivergenceError` if a member's mean or
        covariance is non-finite, naming the step that made it so."""
        # a non-finite entry poisons the sum; only then are members searched
        if math.isfinite(self.mean.sum() + self.P.sum()):
            return
        if _finite(self.mean, self.P):
            return
        after = ("propagation" if self._prior is None or not _finite(*self._prior)
                 else "update")
        raise FilterDivergenceError(f"filter state non-finite after {after}",
                                    t=self.t)

    def _push_row(self, x1: np.ndarray) -> None:
        i = self._count % self.cfg.smooth_window
        self._rows[..., i, :] = self._rows[..., i + self.cfg.smooth_window, :] = x1
        self._count += 1

    def step_export(self) -> np.ndarray:
        """Per-step estimate export with pause decay applied.

        With smoothing on, the estimate is the mean of ``x1`` over the
        last ``smooth_window`` steps (nominally one dither period);
        otherwise raw ``x1``.
        """
        x1 = self.mean[..., :self.n]
        self._push_row(x1)
        if self.cfg.smoothing:
            w = self.cfg.smooth_window
            end = (self._count - 1) % w + 1 + w
            smoothed = self._rows[..., end - min(self._count, w):end, :].mean(
                axis=-2)
        else:
            smoothed = x1.copy()
        self._j = np.where(self.paused, self._j * self._decay, smoothed)
        return self._j

    def min_eigenvalue(self) -> np.ndarray:
        """The smallest covariance eigenvalue of each member."""
        return np.linalg.eigvalsh(self.P).min(axis=-1)


def _finite(mean: np.ndarray, P: np.ndarray) -> bool:
    return bool(np.isfinite(mean).all() and np.isfinite(P).all())
