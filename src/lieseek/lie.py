"""Bracket computation, exact averaged right-hand sides, and the
first-order iterated-integral predictor.

The exact averaged right-hand side produced here is the oracle for the
estimation filter; the seeking loop itself never calls it.  It takes
states of shape ``(..., n)``, so one call covers a whole trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .model import EscSystemSpec

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


def bracket_weight(spec: EscSystemSpec, amplitude=None) -> np.ndarray:
    """The channel weights ``-nu_hat * a_i^2`` of the averaged right-hand
    side; ``amplitude`` defaults to the spec's initial amplitudes."""
    a = spec.a0 if amplitude is None else np.asarray(amplitude, dtype=float)
    return -spec.nu_hats * a * a


def lbs_rhs_exact(spec: EscSystemSpec, z, amplitude=None,
                  weight=None) -> np.ndarray:
    """Oracle: exact averaged right-hand side at the states ``z``.

    Per channel: ``-nu_hat * a_i^2 * (df/dz_i) * b0_i(f)``, with the
    objective's closed-form gradient.  ``z`` has shape
    ``(..., n)`` and so has the result; ``amplitude`` broadcasts against
    it and defaults to the spec's initial amplitudes.  A caller that
    evaluates many states at fixed amplitudes passes their
    :func:`bracket_weight` as ``weight`` instead.
    """
    if weight is None:
        weight = bracket_weight(spec, amplitude)
    grad = spec.objective.measured_gradient(z)
    _, _, b0 = spec.coefficients(spec.objective.measured(z))
    return weight * grad * b0


def chen_fliess_predict(spec: EscSystemSpec, f_t1: float, grad_t1, u1_int,
                        u2_int) -> float:
    """First-order iterated-integral prediction of the objective value.

    ``u1_int``/``u2_int`` are the per-channel integrals of the actual
    inputs over the prediction window, supplied by the caller.  The
    remainder of the truncated series is second order in the window
    length.
    """
    b1, b2 = spec.coefficient_values(f_t1)
    out = float(f_t1 + np.sum(grad_t1 * (b1 * u1_int + b2 * u2_int)))
    if not math.isfinite(out):
        raise CapabilityError(f"non-finite prediction from f={f_t1}")
    return out


def diagonal_fields(spec: EscSystemSpec, channel: int
                    ) -> tuple[VectorFieldFn, VectorFieldFn]:
    """Assemble the two full vector fields of one channel.

    The fields are ``b1(f(x)) e_i`` and ``b2(f(x)) e_i``; bracketing them
    reproduces the channel's averaged factor, which bridges the general
    bracket formula to the per-channel scalar form.
    """
    n = spec.n
    e_i = np.eye(n)[channel]

    def field(which: int) -> VectorFieldFn:
        def fn(t, x):
            b = spec.coefficient_values(spec.objective.measured(x))[which]
            return b[channel] * e_i
        return VectorFieldFn(dimension=n, fn=fn)

    return field(0), field(1)
