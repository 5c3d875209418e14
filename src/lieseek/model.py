"""Domain types for dither-driven seeking systems.

This module holds the building blocks every other part of the package
consumes: periodic probing signals (dithers), objective maps, per-channel
vector-field coefficient functions, full system descriptions, and the two
scalar quantities that the averaged dynamics are built from:

* ``nu_coefficient`` -- the averaging weight of a dither pair,
  ``(1/T) * integral(u_j(s) * integral(u_i, 0, s), 0, T)`` at unit
  amplitude; callers scale by the amplitude product.
* ``b0_of`` -- the scalar bracket factor ``b2*b1' - b1*b2'`` of a
  two-coefficient channel, evaluated at an objective value.

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .errors import CapabilityError, ConfigurationError, EvaluationError

TAU = 2.0 * math.pi

# Composite-Simpson intervals per period; smooth integrands converge far
# below the 1e-9 target at this resolution.
QUAD_INTERVALS = 4096

# Central-difference relative step for coefficient derivatives.
FD_REL_STEP = 1e-6


@dataclass(frozen=True)
class DitherSignal:
    """A T-periodic, zero-mean, bounded scalar probing waveform.

    ``kind`` is one of ``cosine``, ``sine`` or ``tabulated``.  Tabulated
    signals carry ``samples`` as (angle, value) pairs over ``[0, period)``
    and are evaluated by periodic linear interpolation.  ``bound`` is the
    declared sup bound; it is checked, not inferred.
    """

    kind: str
    phase: float = 0.0
    period: float = TAU
    bound: float = 1.0
    samples: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in ("cosine", "sine", "tabulated"):
            raise ConfigurationError(f"unknown dither kind: {self.kind!r}")
        if self.period <= 0:
            raise ConfigurationError("dither period must be positive")
        if self.bound <= 0:
            raise ConfigurationError("dither bound must be positive")
        if self.kind == "tabulated":
            if not self.samples:
                raise ConfigurationError("tabulated dither needs samples")
            thetas = [s[0] for s in self.samples]
            if any(b <= a for a, b in zip(thetas, thetas[1:])):
                raise ConfigurationError("tabulated samples must be strictly increasing")
            if thetas[0] < 0 or thetas[-1] >= self.period:
                raise ConfigurationError("tabulated samples must lie in [0, period)")
        elif self.samples is not None:
            raise ConfigurationError("samples are only valid for tabulated dithers")

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(self.samples, dtype=float)
        return pts[:, 0], pts[:, 1]

    def value(self, theta):
        """Evaluate the waveform at scaled time ``theta`` (scalar or array)."""
        if self.kind == "cosine":
            return np.cos(TAU * np.asarray(theta) / self.period + self.phase)
        if self.kind == "sine":
            return np.sin(TAU * np.asarray(theta) / self.period + self.phase)
        th, val = self._table
        return np.interp(np.asarray(theta, dtype=float), th, val, period=self.period)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "phase": self.phase, "period": self.period,
               "bound": self.bound}
        if self.samples is not None:
            cfg["samples"] = [list(s) for s in self.samples]
        return cfg

    @staticmethod
    def from_config(cfg: Mapping) -> "DitherSignal":
        samples = cfg.get("samples")
        if samples is not None:
            samples = tuple((float(a), float(b)) for a, b in samples)
        return DitherSignal(kind=cfg["kind"], phase=float(cfg.get("phase", 0.0)),
                            period=float(cfg.get("period", TAU)),
                            bound=float(cfg.get("bound", 1.0)), samples=samples)


@dataclass(frozen=True)
class A2Report:
    """Outcome of the probing-signal admissibility check."""

    periodic: bool
    zero_mean: bool
    bounded: bool

    @property
    def all_ok(self) -> bool:
        return self.periodic and self.zero_mean and self.bounded


def _period_grid(period: float, intervals: int = QUAD_INTERVALS) -> np.ndarray:
    return np.linspace(0.0, period, intervals + 1)


def verify_assumption_a2(d: DitherSignal, points: int = 1024) -> A2Report:
    """Check periodicity, zero mean and boundedness of a dither.

    Sampling uses at least ``points`` locations per period; the mean is
    computed with the module's composite-Simpson quadrature.  Report-only:
    never raises for a failing signal.
    """
    points = max(points, 1024)
    theta = np.linspace(0.0, d.period, points, endpoint=False)
    vals = np.asarray(d.value(theta))
    wrapped = np.asarray(d.value(theta + d.period))
    tol = 0.0 if d.kind in ("cosine", "sine") else 1e-12
    periodic = bool(np.max(np.abs(vals - wrapped)) <= tol + 1e-12)

    grid = _period_grid(d.period)
    mean_integral = float(simpson(np.asarray(d.value(grid)), x=grid))
    zero_mean = abs(mean_integral) <= 1e-9 * d.period

    bounded = bool(np.max(np.abs(vals)) <= d.bound + 1e-12)
    return A2Report(periodic=periodic, zero_mean=zero_mean, bounded=bounded)


def _nu_quadrature(u_j: DitherSignal, u_i: DitherSignal,
                   intervals: int) -> float:
    grid = _period_grid(u_j.period, intervals)
    vj = np.asarray(u_j.value(grid), dtype=float)
    vi = np.asarray(u_i.value(grid), dtype=float)
    inner = cumulative_simpson(vi, x=grid, initial=0.0)
    return float(simpson(vj * inner, x=grid) / u_j.period)


@lru_cache(maxsize=256)
def nu_coefficient(u_j: DitherSignal, u_i: DitherSignal) -> float:
    """Unit-amplitude averaging weight of the ordered dither pair (j, i).

    Computes ``(1/T) * S(u_j(s) * V_i(s), 0, T)`` where ``V_i`` is the
    running integral of ``u_i`` from 0, by nested composite-Simpson
    quadrature on a shared grid.  Callers multiply by the amplitude
    product ``a_j * a_i`` to obtain the physical weight.
    """
    if abs(u_j.period - u_i.period) > 1e-12:
        raise ConfigurationError(
            f"dither periods differ: {u_j.period} vs {u_i.period}")
    return _nu_quadrature(u_j, u_i, QUAD_INTERVALS)


@dataclass(frozen=True, eq=False)
class ObjectiveMap:
    """A scalar objective over R^n with optional oracle metadata.

    ``gradient`` is an analytic gradient used only by oracles and tests;
    the seeking loop itself never reads it.  ``kind`` declares whether
    the isolated extremum is a minimum or a maximum; for maxima the
    controller-facing signal is negated (see :meth:`measured`).
    ``domain_box`` is the compact region the system is expected to live
    in, as (low, high) per coordinate.
    """

    dimension: int
    fn: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    x_star: Optional[tuple[float, ...]] = None
    f_star: Optional[float] = None
    kind: str = "min"
    domain_box: Optional[tuple[tuple[float, float], ...]] = None
    config: Optional[dict] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError("objective dimension must be >= 1")
        if self.kind not in ("min", "max"):
            raise ConfigurationError(f"extremum kind must be min or max: {self.kind!r}")
        if self.kind == "max" and self.f_star is None:
            raise ConfigurationError("max-kind objective needs a declared extremum value")

    def value(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def oracle_gradient(self, x) -> np.ndarray:
        if self.gradient is None:
            raise CapabilityError("objective has no oracle gradient")
        return np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float)

    def measured(self, x) -> float:
        """Controller-facing objective signal.

        Equal to ``f(x)`` for minimum seeking.  For maximum seeking the
        signal is ``f* - f(x)``, so the averaged dynamics always descend.
        """
        if self.kind == "max":
            return self.f_star - self.value(x)
        return self.value(x)

    def measured_gradient(self, x) -> np.ndarray:
        g = self.oracle_gradient(x)
        return -g if self.kind == "max" else g

    @property
    def has_oracle(self) -> bool:
        return self.gradient is not None

    def box_center(self) -> np.ndarray:
        box = np.asarray(self.domain_box, dtype=float)
        return box.mean(axis=1)

    def box_diagonal(self) -> float:
        box = np.asarray(self.domain_box, dtype=float)
        return float(np.linalg.norm(box[:, 1] - box[:, 0]))

    def validate(self, samples: int = 256, seed: int = 0) -> None:
        """Check declared-extremum consistency and finiteness on the box."""
        if self.x_star is not None:
            if len(self.x_star) != self.dimension:
                raise ConfigurationError("x_star dimension mismatch")
            if self.gradient is not None:
                g = self.oracle_gradient(self.x_star)
                if np.linalg.norm(g) > 1e-8:
                    raise ConfigurationError(
                        f"oracle gradient does not vanish at declared extremum: {g}")
            if self.f_star is not None:
                fv = self.value(self.x_star)
                if abs(fv - self.f_star) > 1e-8 * max(1.0, abs(self.f_star)):
                    raise ConfigurationError(
                        f"f(x*)={fv} disagrees with declared f*={self.f_star}")
        if self.domain_box is not None:
            box = np.asarray(self.domain_box, dtype=float)
            if box.shape != (self.dimension, 2):
                raise ConfigurationError("domain box must be (low, high) per coordinate")
            rng = np.random.default_rng(seed)
            pts = rng.uniform(box[:, 0], box[:, 1], size=(samples, self.dimension))
            vals = np.array([self.value(p) for p in pts])
            if not np.all(np.isfinite(vals)):
                raise EvaluationError("objective is non-finite on the domain box")


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """One seeking channel: two coefficient functions and a dither pair.

    ``b1`` and ``b2`` map the measured objective value to the two
    vector-field coefficients.  ``db1``/``db2`` are optional analytic
    derivatives; when absent a central difference is used.  ``u1_ref``
    and ``u2_ref`` name entries of the owning system's dither table, so
    channels may share waveforms.
    """

    index: int
    b1: Callable[[float], float]
    b2: Callable[[float], float]
    db1: Optional[Callable[[float], float]] = None
    db2: Optional[Callable[[float], float]] = None
    u1_ref: str = "u1"
    u2_ref: str = "u2"
    b1_config: Optional[dict] = None
    b2_config: Optional[dict] = None


def _fd_derivative(fn: Callable[[float], float], f_value: float) -> float:
    h = max(FD_REL_STEP, FD_REL_STEP * abs(f_value))
    return (fn(f_value + h) - fn(f_value - h)) / (2.0 * h)


def b0_of(channel: ChannelSpec, f_value: float) -> float:
    """Scalar bracket factor ``b2*db1 - b1*db2`` at an objective value.

    Uses analytic derivatives when the channel declares them, otherwise
    a central finite difference with relative step 1e-6.
    """
    db1 = channel.db1(f_value) if channel.db1 else _fd_derivative(channel.b1, f_value)
    db2 = channel.db2(f_value) if channel.db2 else _fd_derivative(channel.b2, f_value)
    out = channel.b2(f_value) * db1 - channel.b1(f_value) * db2
    if not math.isfinite(out):
        raise EvaluationError(f"b0 evaluation non-finite at f={f_value}", value=f_value)
    return out


def validate_channel(channel: ChannelSpec, f_lo: float, f_hi: float,
                     samples: int = 64) -> None:
    """Sampled smoothness check of the coefficient functions.

    Verifies that b1, b2 and their first two finite-difference
    derivatives stay finite over the objective range [f_lo, f_hi].
    """
    for fv in np.linspace(f_lo, f_hi, samples):
        for fn in (channel.b1, channel.b2):
            v = fn(float(fv))
            d1 = _fd_derivative(fn, float(fv))
            d2 = _fd_derivative(lambda g: _fd_derivative(fn, g), float(fv))
            if not all(math.isfinite(u) for u in (v, d1, d2)):
                raise EvaluationError(
                    f"channel {channel.index} coefficient non-finite near f={fv}",
                    value=float(fv))


@dataclass(frozen=True, eq=False)
class EscSystemSpec:
    """Complete description of an n-channel control-affine seeking system.

    ``a0`` and ``lam`` are per-channel initial amplitudes and adaptation
    gains.  ``dt`` defaults to 1/64 of the physical dither period
    ``T / omega`` and must resolve the dither at 32 steps per period or
    finer.
    """

    objective: ObjectiveMap
    channels: tuple[ChannelSpec, ...]
    dithers: Mapping[str, DitherSignal]
    omega: float
    a0: np.ndarray
    lam: np.ndarray
    x0: np.ndarray
    horizon: float
    dt: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "a0", np.atleast_1d(np.asarray(self.a0, dtype=float)))
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        n = len(self.channels)
        if n == 0:
            raise ConfigurationError("system needs at least one channel")
        if self.objective.dimension != n:
            raise ConfigurationError("objective dimension must equal channel count")
        for name, arr in (("a0", self.a0), ("lam", self.lam), ("x0", self.x0)):
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have one entry per channel")
        if self.omega <= 0:
            raise ConfigurationError("omega must be positive")
        if np.any(self.lam <= 0):
            raise ConfigurationError("adaptation gains must be positive")
        if np.any(self.a0 <= 0):
            raise ConfigurationError("initial amplitudes must be positive")
        for ch in self.channels:
            for ref in (ch.u1_ref, ch.u2_ref):
                if ref not in self.dithers:
                    raise ConfigurationError(f"channel {ch.index} references "
                                             f"unknown dither {ref!r}")
        periods = {d.period for d in self.dithers.values()}
        if len(periods) != 1:
            raise ConfigurationError("all dithers must share one period")
        dt = self.resolved_dt
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.horizon <= dt:
            raise ConfigurationError("horizon must exceed dt")
        if dt > self.dither_period_seconds / 32.0 + 1e-15:
            raise ConfigurationError(
                f"dt={dt} too coarse; needs <= (T/omega)/32 = "
                f"{self.dither_period_seconds / 32.0}")

    @property
    def n(self) -> int:
        return len(self.channels)

    @property
    def scaled_period(self) -> float:
        return next(iter(self.dithers.values())).period

    @property
    def dither_period_seconds(self) -> float:
        return self.scaled_period / self.omega

    @property
    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return self.dither_period_seconds / 64.0

    @property
    def steps_per_period(self) -> int:
        return max(1, round(self.dither_period_seconds / self.resolved_dt))

    def dither(self, ref: str) -> DitherSignal:
        return self.dithers[ref]

    @cached_property
    def nu_hats(self) -> np.ndarray:
        """Unit-amplitude averaging weight per channel (pair order 2,1)."""
        return np.array([
            nu_coefficient(self.dither(ch.u2_ref), self.dither(ch.u1_ref))
            for ch in self.channels])

    def validate(self) -> None:
        """Run the sampled invariant checks on all components."""
        self.objective.validate()
        for name, d in self.dithers.items():
            rep = verify_assumption_a2(d)
            if not rep.all_ok:
                raise ConfigurationError(f"dither {name!r} fails admissibility: {rep}")
        if self.objective.domain_box is not None:
            box = np.asarray(self.objective.domain_box, dtype=float)
            rng = np.random.default_rng(1)
            pts = rng.uniform(box[:, 0], box[:, 1], size=(128, self.n))
            fvals = np.array([self.objective.measured(p) for p in pts])
            lo, hi = float(fvals.min()), float(fvals.max())
            pad = 0.1 * max(1.0, hi - lo)
            for ch in self.channels:
                validate_channel(ch, lo - pad, hi + pad)


_ERROR_FORMS: dict[str, Callable[[float, float, float], float]] = {
    "inverse_square": lambda t, eps0, theta0: eps0 / (1.0 + t) ** 2,
    "exponential": lambda t, eps0, theta0: eps0 * math.exp(-t * theta0 / eps0),
}


@dataclass(frozen=True)
class EstimationErrorModel:
    """A named decaying waveform standing in for estimation error.

    ``eps0`` bounds the magnitude, ``theta0`` the slope; the default
    ``inverse_square`` form is ``eps0 / (1 + t)^2``.
    """

    eps0: float
    theta0: float
    form: str = "inverse_square"

    def __post_init__(self):
        if self.eps0 <= 0 or self.theta0 <= 0:
            raise ConfigurationError("eps0 and theta0 must be positive")
        if self.form not in _ERROR_FORMS:
            raise ConfigurationError(f"unknown error form {self.form!r}; "
                                     f"have {sorted(_ERROR_FORMS)}")

    def value(self, t: float) -> float:
        return _ERROR_FORMS[self.form](max(t, 0.0), self.eps0, self.theta0)

    def validate(self, t_end: float = 100.0, samples: int = 2048) -> None:
        ts = np.linspace(0.0, t_end, samples)
        vals = np.array([self.value(t) for t in ts])
        if np.max(np.abs(vals)) > self.eps0 + 1e-12:
            raise ConfigurationError("error form exceeds declared bound eps0")
        steps = np.abs(np.diff(vals)) / np.diff(ts)
        if np.max(steps) > self.theta0 + 1e-9:
            raise ConfigurationError("error form violates declared Lipschitz bound")
        if t_end >= 100.0 and abs(self.value(t_end)) >= 0.01 * self.eps0:
            raise ConfigurationError("error form does not decay sufficiently")
