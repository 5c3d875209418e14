"""Continuous-discrete extended Kalman filter that reconstructs the
averaged right-hand side of a seeking system from objective measurements.

State layout (2n entries for an n-channel system):

* ``x1`` -- the averaged right-hand side per channel (the quantity the
  adaptation law consumes),
* ``x2`` -- its assumed-constant derivative.

Beside the state the filter holds ``x3``, the objective sample of the
previous measurement, and ``p33``, its variance.

Between measurements the mean follows the constant-velocity model
``x1 += x2*dt`` with ``x2`` frozen; covariance follows the matching exact
discrete transition, and ``p33`` grows by ``q3*dt``.  The measurement
model is the first-order iterated-integral increment of the objective:
knowing the channel coefficients and the input integrals over the
window, a new objective sample is the held sample ``x3`` plus a term
linear in ``x1`` once the gradient factor is rewritten through ``x1 =
-nu * a^2 * grad_i * b0_i``.  That inversion makes the update exactly
linear, so no measurement Jacobian approximation is involved.  The held
sample never correlates with ``x1`` or ``x2``, so the update is that of
the state against ``f2 - x3`` with measurement variance ``p33 + r``;
afterwards ``x3`` is the new sample and ``p33`` its variance ``r``.  The
coefficients are anchored at ``x3`` itself, the measured value at the
start of the window, so the caller keeps no copy of it.

:class:`GekfFilter` is the filter: it owns the state, the smoothing
history and the pause bookkeeping of B members that step in lockstep.
The state and the held sample are stacked in plain arrays, one leading
row per member:

* ``mean`` -- ``(B, 2n)``, each row ``[x1 | x2]``;
* ``P`` -- ``(B, 2n, 2n)``, one covariance per member;
* ``x3`` and ``p33`` -- ``(B,)``, each member's held sample and its
  variance;
* the smoothing history -- ``(B, 2w, n)`` for a window of w steps.

A single run is a filter of one member.  Members share the system, the
configuration (:class:`GekfConfig`, the scenario's ``gekf`` section) and
the number of steps per dither period, which is the smoothing window;
each member's amplitude floor follows from its own initial amplitudes,
and the members may differ in step size.  The input integrals of an
update are one stacked array ``(B, 2, n)``: row 0 the integrals of each
channel's first dither, row 1 of its second.  Stepping raises nothing
for a member: a member that fails, by a non-finite state or a non-finite
bracket factor at its held sample, is named by position by the read
that follows the step (:meth:`GekfFilter.check`), and the caller stops
it.  The filter keeps no clock: the caller names each member's time
for that read.  The stacked ``matmul`` products (not
``einsum``, which rounds differently) and the means over the window axis
give each member the same bits as a filter of that member alone.  The
step size is one float, or a ``(B, 1)`` column when the members step
with different sizes; the transition is then stacked too, ``(B, 2n,
2n)``.  An instance is a single-owner mutable state machine.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError, FilterDivergenceError
from .model import EscSystemSpec

B0_SINGULAR_TOL = 1e-12
# A paused channel's export decays by PAUSED_J_DECAY per 1/PAUSE_DECAY_STEPS
# of the smoothing window: per step at the default 64 steps per period, and
# by the same amount per period at any step size that divides the period.
PAUSED_J_DECAY = 0.999
PAUSE_DECAY_STEPS = 64


@dataclass(frozen=True)
class GekfConfig:
    """The filter settings that a scenario's ``gekf`` section chooses.

    ``q1``/``q2`` are the process-noise densities of ``x1`` and ``x2``,
    ``q3`` the rate at which the held sample's variance grows between
    measurements, ``r`` the measurement variance, ``p0`` the initial
    covariance scale, each finite and positive.  Channels whose amplitude
    magnitude falls below their member's floor, ``a_floor_rel`` times its smallest initial amplitude,
    stop receiving measurement corrections (the measurement coefficient
    scales like 1/a^2 and turns ill-conditioned); their exported estimate
    decays geometrically instead.  ``smoothing`` averages the export over
    one dither period of steps; ``n_meas`` is the number of steps per
    measurement.  What follows from the system, the floors and the
    window, :class:`GekfFilter` works out from its spec and amplitudes.
    """

    q1: float = 1e-2
    q2: float = 1e-3
    q3: float = 1e-2
    r: float = 1e-2
    p0: float = 10.0
    a_floor_rel: float = 1e-3
    smoothing: bool = True
    n_meas: int = 1

    def __post_init__(self):
        for name in ("q1", "q2", "q3", "r", "p0", "a_floor_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, "
                                         f"got {value!r}")
        # a bool is an int, but not a count
        if (not isinstance(self.n_meas, int) or isinstance(self.n_meas, bool)
                or self.n_meas < 1):
            raise ConfigurationError(f"n_meas must be an integer >= 1, "
                                     f"got {self.n_meas!r}")
        if not isinstance(self.smoothing, bool):
            raise ConfigurationError(
                f"smoothing must be true or false, got {self.smoothing!r}")


def measurement_coefficients(spec: EscSystemSpec, f1, u_int: np.ndarray,
                             a: np.ndarray, a_floor) -> np.ndarray:
    """Per-channel weight of ``x1`` in the predicted objective sample.

    ``c_i = -(b1_i(f1) U1_i + b2_i(f1) U2_i) / (nu_i * a_i^2 * b0_i(f1))``
    with ineligible channels weighted zero, all from one coefficient call
    anchored at the measured value ``f1`` from the start of the window;
    ``nu_i`` is the spec's ``nu_hats`` and ``(U1, U2)`` the two rows of
    the stacked input integrals ``u_int``, shape ``(..., 2, n)``.  A
    channel is ineligible when its amplitude magnitude sits below the
    floor ``a_floor`` or its bracket factor at ``f1`` is singular.  A
    channel whose bracket factor is non-finite weighs NaN, eligible or
    not, and raises nothing.  With ``f1`` of shape ``(B,)``, the
    amplitudes are ``(B, n)``, ``u_int`` is ``(B, 2, n)``, ``a_floor``
    broadcasts against the amplitudes, and so does the result.
    """
    b1, b2, b0 = spec.bracket_terms(f1)
    ok = (np.abs(a) >= a_floor) & (np.abs(b0) >= B0_SINGULAR_TOL)
    # float_power calls C pow like a scalar a_i ** 2; an array a ** 2
    # squares, which rounds differently in rare cases
    return np.where(np.isfinite(b0), np.divide(
        -(b1 * u_int[..., 0, :] + b2 * u_int[..., 1, :]),
        spec.nu_hats * np.float_power(a, 2) * b0,
        out=np.zeros(b0.shape), where=ok), np.nan)


class GekfFilter:
    """The filter of B members: stacked state, smoothing history and
    per-channel pause.

    ``mean`` is ``(B, 2n)`` and ``P`` is ``(B, 2n, 2n)``; ``x3`` and
    ``p33``, ``(B,)``, are the held sample and its variance.  Each member
    starts unbiased (zero RHS estimate, its first measurement as held
    sample, variance ``p0`` throughout).  :meth:`propagate` and
    :meth:`update` replace these arrays with new ones, raise nothing for
    a member and keep no copy of the old ones; :meth:`check`, once per
    step, names the members that failed, given the arrays that the step's
    update started from.  :meth:`take` keeps the others.
    :meth:`step_export` returns the per-step estimates, ``(B, n)``.  Once
    a channel's amplitude falls under its member's floor, its exported
    estimate decays geometrically, at a fixed rate per smoothing window,
    instead of following ``x1``.
    """

    def __init__(self, cfg: GekfConfig, spec: EscSystemSpec, f0, a0):
        """The filter of the members of one system ``spec``: ``f0`` holds
        the first measurement of each member, shape ``(B,)``, and ``a0``
        their initial amplitudes, ``(B, n)``.  Each member's amplitude
        floor is ``cfg.a_floor_rel`` times its smallest initial amplitude,
        and the smoothing window is one dither period of ``spec``'s steps.
        """
        self.cfg = cfg
        self.spec = spec
        self.n = n = spec.n
        self.window = w = spec.steps_per_period
        self.x3 = np.array(f0, dtype=float)
        lead, dim = self.x3.shape, 2 * n
        a0 = np.asarray(a0, dtype=float)
        self._a_floor = cfg.a_floor_rel * a0.min(axis=-1, keepdims=True)
        self.mean = np.zeros(lead + (dim,))
        self._eye = np.eye(dim)
        self.P = np.broadcast_to(cfg.p0 * self._eye, lead + (dim, dim)).copy()
        self.p33 = np.full(lead, cfg.p0)
        self._r = np.full(lead, cfg.r)   # p33 after an update; never written
        self._q = np.diag(np.repeat([cfg.q1, cfg.q2], n))
        # Each member's last w x1 rows, each written twice (at i and i + w)
        # so that they are always one contiguous slice, oldest first.
        # Averaged over the window axis, a member sums its rows in the
        # order that the mean of its own window-long history does: pairwise
        # for n = 1, row by row for n >= 2.
        self._rows = np.empty(lead + (2 * w, n))
        self._count = 0
        self._push_row(self.mean[..., :n])
        self.paused = np.zeros(lead + (n,), dtype=bool)
        self._decay = PAUSED_J_DECAY ** (PAUSE_DECAY_STEPS / w)
        self._j = np.zeros(lead + (n,))
        self.last_innovation = np.zeros(lead)
        self._dt = None

    def take(self, members) -> "GekfFilter":
        """A copy that holds only the members ``members`` (a list or a
        slice of indices)."""
        out = copy.copy(self)
        for name in ("mean", "P", "x3", "p33", "_rows", "paused", "_j",
                     "last_innovation", "_a_floor", "_r"):
            setattr(out, name, np.array(getattr(self, name)[members]))
        out._dt = None
        return out

    def propagate(self, dt) -> None:
        """Advance mean and covariance by the constant-velocity model, and
        the held sample's variance by ``q3*dt``.

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
            phi = np.broadcast_to(self._eye, step.shape[:-2]
                                  + self._eye.shape).copy()
            phi[..., :n, n:] = step * np.eye(n)
            self._dt, self._phi, self._q_dt = dt, phi, self._q * step
            # one entry per member, (B,) like p33, not a (B, 1) column
            self._q3_dt = self.cfg.q3 * step.ravel()
        mean = self.mean.copy()
        mean[..., :n] = mean[..., :n] + dt * mean[..., n:]
        phi = self._phi
        P = phi @ self.P @ phi.swapaxes(-1, -2) + self._q_dt
        self.mean, self.P = mean, 0.5 * (P + P.swapaxes(-1, -2))
        self.p33 = self.p33 + self._q3_dt

    def update(self, f2, u_int, a) -> None:
        """Scalar Kalman update of each member against its sample ``f2``,
        with the window's input integrals ``u_int`` (``(B, 2, n)``) and
        the amplitudes ``a`` (``(B, n)``).

        Predicted sample: ``x3 + sum_i c_i x1_i`` with ``c`` from
        :func:`measurement_coefficients` anchored at the held sample
        ``x3``, the measurement at the window's start.  The innovation
        variance is ``S = c'P11c + p33 + r``, where ``P11`` is the ``x1``
        block of ``P``.  Joseph-form covariance update with measurement
        variance ``p33 + r``, re-symmetrized; afterwards ``x3`` is the new
        sample and ``p33`` its variance ``r``, so the next window anchors
        at measured data.  ``last_innovation`` is taken against the
        pre-update state.  The products are stacked ``matmul`` calls,
        which give each member the bits of its own matrix products.  A
        member whose bracket factor at ``x3`` is non-finite gets a NaN
        weight, so its new state is non-finite and :meth:`check` names
        it; the update raises nothing.
        """
        mean, P, x3, r = self.mean, self.P, self.x3, self.cfg.r
        c = measurement_coefficients(self.spec, x3, u_int, a, self._a_floor)
        h = np.concatenate([c, np.zeros(c.shape)], axis=-1)   # [c | 0]
        row, col = h[..., None, :], h[..., :, None]

        innovation = f2 - (x3 + (row @ mean[..., :, None])[..., 0, 0])
        p_col = P @ col
        spread = (row @ p_col)[..., 0, 0]   # c'P11c
        # p33 + r: the held sample's variance and the new sample's
        noise = (self.p33 + r)[..., None]
        gain = p_col[..., 0] / (spread[..., None] + noise)
        new_mean = mean + gain * innovation[..., None]
        ikh = self._eye - gain[..., :, None] * row
        new_P = (ikh @ P @ ikh.swapaxes(-1, -2)
                 + noise[..., None] * (gain[..., :, None] * gain[..., None, :]))

        self.mean, self.P = new_mean, 0.5 * (new_P + new_P.swapaxes(-1, -2))
        self.x3, self.p33 = np.full(x3.shape, f2), self._r
        self.last_innovation = innovation
        self.paused = np.abs(a) < self._a_floor

    def check(self, t, prior=None) -> dict:
        """The members whose mean, covariance, held sample or its variance
        is non-finite, by position, each with the error that stops it.

        ``prior`` holds the arrays ``(mean, P, x3, p33)`` that the step's
        update started from, or is None for a step without an update.  A
        member whose bracket factor at that ``x3`` was non-finite gets
        :class:`EvaluationError`.  Any other gets
        :class:`FilterDivergenceError`, which names the part of the step
        that made it so: the update if the member was finite in
        ``prior``, else the propagation.  Its ``t`` is the member's step
        end: ``t`` is one float, or a ``(B, 1)`` column of them.
        """
        # a non-finite entry poisons the sum; only then are members searched.
        # np.add.reduce is ndarray.sum without its Python wrapper
        total = np.add.reduce(self.mean, None) + np.add.reduce(self.P, None)
        if math.isfinite(total + np.add.reduce(self.x3 + self.p33)):
            return {}
        times = np.broadcast_to(np.ravel(t), self.x3.shape)
        unevaluated = updated = np.zeros(self.x3.shape, dtype=bool)
        if prior is not None:
            b0 = self.spec.bracket_terms(prior[2])[2]
            unevaluated, updated = ~_finite(b0), _finite(*prior)
        after = np.where(updated, "update", "propagation")
        return {int(i): EvaluationError("b0 evaluation non-finite", value=prior[2][i])
                if unevaluated[i] else FilterDivergenceError(
                    f"filter state non-finite after {after[i]}", t=float(times[i]))
                for i in np.flatnonzero(~_finite(self.mean, self.P, self.x3, self.p33))}

    def _push_row(self, x1: np.ndarray) -> None:
        w = self.window
        i = self._count % w
        self._rows[..., i, :] = self._rows[..., i + w, :] = x1
        self._count += 1

    def step_export(self) -> np.ndarray:
        """Per-step estimate export with pause decay applied.

        With smoothing on, the estimate is the mean of ``x1`` over the
        last ``window`` steps, one dither period; otherwise raw ``x1``.
        """
        x1 = self.mean[..., :self.n]
        self._push_row(x1)
        if self.cfg.smoothing:
            w = self.window
            end, k = (self._count - 1) % w + 1 + w, min(self._count, w)
            # ndarray.mean bit for bit, without its Python wrapper
            smoothed = np.add.reduce(self._rows[..., end - k:end, :],
                                     axis=-2) / k
        else:
            smoothed = x1.copy()
        self._j = np.where(self.paused, self._j * self._decay, smoothed)
        return self._j

    def min_eigenvalue(self) -> np.ndarray:
        """The smallest covariance eigenvalue of each member, ``p33``
        among them."""
        return np.minimum(np.linalg.eigvalsh(self.P).min(axis=-1), self.p33)


def _finite(*arrays: np.ndarray) -> np.ndarray:
    """Per member, whether all its entries in ``arrays`` are finite; the
    leading axis of each array is the members'."""
    return np.isfinite(np.column_stack([a.reshape(len(a), -1) for a in arrays])).all(1)
