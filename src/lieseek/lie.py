"""Bracket computation, exact averaged right-hand sides, and the
first-order iterated-integral predictor.

The exact averaged right-hand side produced here is the test oracle for
the estimation filter; the seeking loop itself never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .model import ChannelSpec, EscSystemSpec, b0_of

JAC_FD_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class VectorFieldFn:
    """A time-varying vector field on R^n with an optional analytic Jacobian."""

    dimension: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def value(self, t: float, x) -> np.ndarray:
        return np.asarray(self.fn(t, np.asarray(x, dtype=float)), dtype=float)

    def jac(self, t: float, x) -> np.ndarray:
        """Jacobian at (t, x); central finite differences unless analytic."""
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, x), dtype=float)
        n = self.dimension
        out = np.empty((n, n))
        for k in range(n):
            h = JAC_FD_STEP * (1.0 + abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            out[:, k] = (self.value(t, xp) - self.value(t, xm)) / (2.0 * h)
        return out


def lie_bracket(b_i: VectorFieldFn, b_j: VectorFieldFn, t: float, x) -> np.ndarray:
    """Bracket [b_i, b_j](t, x) = (d b_j/dx) b_i - (d b_i/dx) b_j."""
    if b_i.dimension != b_j.dimension:
        raise ConfigurationError(
            f"field dimensions differ: {b_i.dimension} vs {b_j.dimension}")
    x = np.asarray(x, dtype=float)
    return b_j.jac(t, x) @ b_i.value(t, x) - b_i.jac(t, x) @ b_j.value(t, x)


class LbsRhs(NamedTuple):
    """Exact averaged right-hand side with its per-channel ingredients."""

    j: np.ndarray          # per-channel value, amplitude-scaled
    nu_hat: np.ndarray     # unit-amplitude averaging weights
    grad: np.ndarray       # oracle gradient of the measured objective
    b0: np.ndarray         # scalar bracket factors at the measured value

    def recompute(self, amplitude: np.ndarray) -> np.ndarray:
        a = np.asarray(amplitude, dtype=float)
        return -self.nu_hat * a * a * self.grad * self.b0


def lbs_rhs_exact(spec: EscSystemSpec, z, amplitude=None) -> LbsRhs:
    """Oracle: exact averaged right-hand side at a point.

    Per channel: ``-nu_hat * a_i^2 * (df/dz_i) * b0_i(f)``, with the
    gradient taken from the objective's oracle.  ``amplitude`` defaults
    to the spec's initial amplitudes.
    """
    if not spec.objective.has_oracle:
        raise CapabilityError("exact averaged dynamics need an oracle gradient")
    z = np.asarray(z, dtype=float)
    a = spec.a0 if amplitude is None else np.asarray(amplitude, dtype=float)
    fv = spec.objective.measured(z)
    grad = spec.objective.measured_gradient(z)
    b0 = np.array([b0_of(ch, fv) for ch in spec.channels])
    nu_hat = spec.nu_hats
    return LbsRhs(j=-nu_hat * a * a * grad * b0, nu_hat=nu_hat, grad=grad, b0=b0)


def chen_fliess_predict(f_t1: float, grad_t1, channels: tuple[ChannelSpec, ...],
                        u1_int, u2_int) -> float:
    """First-order iterated-integral prediction of the objective value.

    ``u1_int``/``u2_int`` are the per-channel integrals of the actual
    inputs over the prediction window, supplied by the caller.  The
    remainder of the truncated series is second order in the window
    length.
    """
    grad = np.asarray(grad_t1, dtype=float)
    u1 = np.atleast_1d(np.asarray(u1_int, dtype=float))
    u2 = np.atleast_1d(np.asarray(u2_int, dtype=float))
    out = float(f_t1)
    for i, ch in enumerate(channels):
        out += grad[i] * (ch.b1(f_t1) * u1[i] + ch.b2(f_t1) * u2[i])
    if not np.isfinite(out):
        raise CapabilityError(f"non-finite prediction from f={f_t1}")
    return out


def diagonal_fields(spec: EscSystemSpec, channel: int
                    ) -> tuple[VectorFieldFn, VectorFieldFn]:
    """Assemble the two full vector fields of one channel.

    The fields are ``b1(f(x)) e_i`` and ``b2(f(x)) e_i``; bracketing them
    reproduces the channel's averaged factor, which bridges the general
    bracket formula to the per-channel scalar form.
    """
    ch = spec.channels[channel]
    n = spec.n
    e_i = np.zeros(n)
    e_i[channel] = 1.0

    def field(coeff):
        def fn(t, x):
            return coeff(spec.objective.measured(x)) * e_i
        return VectorFieldFn(dimension=n, fn=fn)

    return field(ch.b1), field(ch.b2)
