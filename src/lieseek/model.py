"""Domain types for dither-driven seeking systems.

This module holds the building blocks every other part of the package
consumes: periodic probing signals (dithers), the quadratic objective,
the named vector-field coefficient forms, full system descriptions, and
the two quantities that the averaged dynamics are built from:

* ``nu_coefficient`` -- the averaging weight of a dither pair,
  ``(1/T) * integral(u_j(s) * integral(u_i, 0, s), 0, T)`` at unit
  amplitude; callers scale by the amplitude product.
* ``EscSystemSpec.coefficients`` -- both coefficients of every channel
  and the bracket factor ``b0 = b2*b1' - b1*b2'``, in closed form, at
  objective values of any shape.

The quadrature is composite Simpson on an odd number of points, by the
irregular-spacing rules of Cartwright (2017, J. Math. Sci. & Math. Educ.
12(2)).  ``_simpson`` and ``_cumulative_simpson`` repeat the operations
of ``scipy.integrate.simpson`` and ``cumulative_simpson`` (SciPy 1.17) in
the same order, so they give SciPy's bits while the package imports
NumPy alone.

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError

TAU = 2.0 * math.pi

# Composite-Simpson intervals per period; smooth integrands converge far
# below the 1e-9 target at this resolution.
QUAD_INTERVALS = 4096


def require_finite(what: str, *values) -> None:
    """Raise :class:`ConfigurationError` unless all ``values`` are finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ConfigurationError(f"{what} must be finite")


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
        require_finite("dither parameters", self.phase, self.period, self.bound)
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
            require_finite("tabulated dither samples", self.samples)
        elif self.samples is not None:
            raise ConfigurationError("samples are only valid for tabulated dithers")

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(self.samples, dtype=float)
        return pts[:, 0], pts[:, 1]

    def value(self, theta) -> np.ndarray:
        """Evaluate the waveform at scaled times ``theta``, an array of any
        shape (0-d for a scalar).

        Cosine and sine are evaluated point by point with :mod:`math` on
        ``(TAU/period)*theta + phase``; NumPy's vectorised ``cos``/``sin``
        may round the last bit differently.
        """
        theta = np.asarray(theta, dtype=float)
        if self.kind == "tabulated":
            th, val = self._table
            return np.interp(theta, th, val, period=self.period)
        fn = math.cos if self.kind == "cosine" else math.sin
        arg = (TAU / self.period) * theta + self.phase
        return np.fromiter(map(fn, arg.ravel().tolist()), float,
                           count=arg.size).reshape(arg.shape)

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


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` at an odd number of
    increasing points ``x``; same bits as ``scipy.integrate.simpson(y, x=x)``
    (whose divisions are masked only against zero intervals)."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:-1:2] * (hsum * (hsum / hprod))
                        + y[2::2] * (2.0 - h0divh1))
    return np.sum(tmp)


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of each consecutive
    sample triple, for unequal intervals ``dx`` (Cartwright 2017, eq. 8)."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running Simpson integral of samples ``y`` at an odd number of
    increasing points ``x``, from 0 at ``x[0]``; same bits as
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``.

    Interval k's piece comes from the triple it opens for even k, and from
    the flipped triple it closes for odd k.
    """
    dx = np.diff(x)
    pieces = np.empty(len(dx))
    pieces[0::2] = _simpson_pieces(y, dx)[0::2]
    pieces[1::2] = _simpson_pieces(y[::-1], dx[::-1])[::-1][0::2]
    # ``+ 0.0`` adds the initial value as SciPy does (it turns -0.0 into 0.0)
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


@lru_cache(maxsize=256)
def verify_assumption_a2(d: DitherSignal, points: int = 1024) -> A2Report:
    """Check periodicity, zero mean and boundedness of a dither.

    Sampling uses at least ``points`` locations per period; the mean is
    computed with the module's composite-Simpson quadrature.  Report-only:
    never raises for a failing signal.  Cached, like
    :func:`nu_coefficient`: the scenarios of a sweep repeat their dithers.
    """
    points = max(points, 1024)
    theta = np.linspace(0.0, d.period, points, endpoint=False)
    vals = np.asarray(d.value(theta))
    wrapped = np.asarray(d.value(theta + d.period))
    tol = 0.0 if d.kind in ("cosine", "sine") else 1e-12
    periodic = bool(np.max(np.abs(vals - wrapped)) <= tol + 1e-12)

    grid = _period_grid(d.period)
    mean_integral = float(_simpson(np.asarray(d.value(grid)), grid))
    zero_mean = abs(mean_integral) <= 1e-9 * d.period

    bounded = bool(np.max(np.abs(vals)) <= d.bound + 1e-12)
    return A2Report(periodic=periodic, zero_mean=zero_mean, bounded=bounded)


def _nu_quadrature(u_j: DitherSignal, u_i: DitherSignal,
                   intervals: int) -> float:
    grid = _period_grid(u_j.period, intervals)
    vj = np.asarray(u_j.value(grid), dtype=float)
    vi = np.asarray(u_i.value(grid), dtype=float)
    inner = _cumulative_simpson(vi, grid)
    return float(_simpson(vj * inner, grid) / u_j.period)


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


# The largest weight whose doubled value, the gradient's factor, is finite.
_MAX_WEIGHT = np.finfo(float).max / 2.0


@dataclass(frozen=True)
class ObjectiveMap:
    """The quadratic objective ``f(x) = sum_i w_i * (x_i - c_i)**2 + offset``
    over R^n, with ``weights`` w and ``center`` c of length n.

    Its extremum is the center, with value ``offset``: a minimum for
    positive weights, a maximum for negative ones.  ``kind`` declares which
    is sought, and must agree with the sign of every weight; for maxima
    the controller-facing signal is negated (see :meth:`measured`).  The
    seeking loop reads only that signal, and the closed-form gradient
    serves the oracle and the checks.  ``domain_box`` is the compact region
    the system is expected to live in, as (low, high) per coordinate.

    The parameters are stored as floats, a negative zero as ``+0.0``, so
    objectives of equal parameters are equal and hash alike.
    """

    weights: tuple[float, ...]
    center: tuple[float, ...]
    offset: float = 0.0
    kind: str = "min"
    domain_box: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        c = np.array(self.center, dtype=float)
        if w.ndim != 1 or not w.size or c.shape != w.shape:
            raise ConfigurationError("objective weights and center must be "
                                     "1-D and of one length")
        require_finite("objective center and offset", c, self.offset)
        # compared, not doubled, so an overflow raises no NumPy warning
        if not np.all(np.abs(w) <= _MAX_WEIGHT):
            raise ConfigurationError("objective weights must be finite and "
                                     f"at most {_MAX_WEIGHT:g} in magnitude")
        if self.kind not in ("min", "max"):
            raise ConfigurationError(f"extremum kind must be min or max: {self.kind!r}")
        if not np.all(w > 0 if self.kind == "min" else w < 0):
            sign = "positive" if self.kind == "min" else "negative"
            raise ConfigurationError(f"a {self.kind} objective needs every "
                                     f"weight {sign}, got {self.weights}")
        box = self.domain_box
        if box is not None:
            try:
                box = np.array(box, dtype=float)
            except ValueError:   # pairs of differing lengths
                box = np.empty(0)
            if box.shape != (w.size, 2):
                raise ConfigurationError("domain box must be (low, high) per coordinate")
            require_finite("domain box", box)
            # ``+ 0.0`` turns -0.0 into 0.0
            box = tuple(map(tuple, (box + 0.0).tolist()))
        object.__setattr__(self, "weights", tuple((w + 0.0).tolist()))
        object.__setattr__(self, "center", tuple((c + 0.0).tolist()))
        object.__setattr__(self, "offset", float(self.offset) + 0.0)
        object.__setattr__(self, "domain_box", box)

    @staticmethod
    def from_config(cfg: Mapping) -> "ObjectiveMap":
        if cfg.get("form") != "quadratic":
            raise ConfigurationError(f"unknown objective form {cfg.get('form')!r}")
        return ObjectiveMap(weights=cfg["weights"], center=cfg["center"],
                            offset=float(cfg.get("offset", 0.0)),
                            kind=cfg.get("kind", "min"),
                            domain_box=cfg.get("domain_box") or None)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``w``, ``c`` and the factor of :meth:`measured_gradient`: ``2w``,
        negated for a maximum."""
        w = np.array(self.weights)
        return w, np.array(self.center), (-2.0 if self.kind == "max" else 2.0) * w

    def value(self, x):
        """Objective at the points ``x``: a float for one point, an array
        of shape ``x.shape[:-1]`` for several."""
        out = self.value_at(np.asarray(x, dtype=float) - self._arrays[1])
        return float(out) if out.ndim == 0 else out

    def value_at(self, d):
        """Objective at the deviations ``d = x - center``."""
        return np.vecdot(d * d, self._arrays[0]) + self.offset

    def measured(self, x):
        """Controller-facing objective signal.

        Equal to ``f(x)`` for minimum seeking.  For maximum seeking the
        signal is ``f* - f(x)`` with ``f* = offset``, so the averaged
        dynamics always descend.
        """
        out = self.measured_at(np.asarray(x, dtype=float) - self._arrays[1])
        return float(out) if out.ndim == 0 else out

    def measured_at(self, d):
        """:meth:`measured` at the deviations ``d = x - center``."""
        f = self.value_at(d)
        return self.offset - f if self.kind == "max" else f

    def measured_gradient(self, x) -> np.ndarray:
        """Gradient of :meth:`measured`, in closed form, shape ``x.shape``."""
        return self._arrays[2] * (np.asarray(x, dtype=float) - self._arrays[1])

    def validate(self) -> None:
        """Check that the objective is finite on the whole domain box; a
        non-finite value fails, without a NumPy warning.

        The check is exact.  Every weight has one sign, so ``|f - offset|``
        grows with each ``|x_i - c_i|``, and rounding keeps that order: the
        value farthest from the offset is taken at the corner farthest
        from the center, coordinate by coordinate, and the objective is
        finite on the box exactly when it is finite there.
        """
        if self.domain_box is None:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.asarray(self.domain_box) - self._arrays[1][:, None]
            if not np.isfinite(self.value_at(np.abs(d).max(axis=1))):
                raise EvaluationError("objective is non-finite on the domain box")


# Parameter names and defaults of each named form: ``p`` then ``q``.
COEFFICIENT_FORMS = {
    "linear": (("gain", 0.0), ("offset", 0.0)),
    "cosine": (("amp", 1.0), ("scale", 1.0)),
    "sine": (("amp", 1.0), ("scale", 1.0)),
}


def _stack(forms) -> tuple:
    """:func:`_form_terms` parameters of ``forms``, stacked over a trailing
    axis; ``d`` is each form's slope factor."""
    linear = np.array([b.form == "linear" for b in forms])
    is_cos = np.array([b.form == "cosine" for b in forms])
    p, q = np.array([b.p for b in forms]), np.array([b.q for b in forms])
    d = [b.p if b.form == "linear" else
         (-b.p if b.form == "cosine" else b.p) * b.q for b in forms]
    kind = "linear" if linear.all() else "mixed" if linear.any() else "trig"
    return kind, linear, p, q, np.array([p, d]), np.array([is_cos, ~is_cos])


def _form_terms(kind: str, linear, p, q, pd, sel, m):
    """Values and slopes of stacked forms at ``m`` (0-d, or ``(..., 1)``).

    Linear: ``p*m + q``, slope ``d = p`` (not broadcast to ``m``).
    Trigonometric: ``p*cos(q*m)`` where ``is_cos``, else ``p*sin(q*m)``,
    slope ``d*sin(q*m)`` or ``d*cos(q*m)`` with ``d = -p*q`` or ``p*q``.
    ``kind`` tells whether the forms are all linear, all trig or mixed.
    The mixed path gives the same bits for every kind, but each NumPy
    call on these short arrays costs about a microsecond, several times
    per step: used for every kind, it made the benchmark's per-step time
    30% longer on case1-both, 40% on omega-sweep and 9% on lambda-sweep
    (medians of 10 alternating runs on a 2-core host).
    """
    if kind == "linear":
        return p * m + q, pd[1]
    arg = (q * m)[..., None, :]
    terms = pd * np.where(sel, np.cos(arg), np.sin(arg))
    value, slope = terms[..., 0, :], terms[..., 1, :]
    if kind == "mixed":
        value = np.where(linear, p * m + q, value)
        slope = np.where(linear, pd[1], slope)
    return value, slope


@dataclass(frozen=True)
class CoefficientForm:
    """A named vector-field coefficient ``b(m)`` of the measured objective:
    ``linear`` is ``gain*m + offset``, ``cosine`` is ``amp*cos(scale*m)``
    and ``sine`` is ``amp*sin(scale*m)``, with ``p``, ``q`` the two
    parameters in that order.  It evaluates at values of any shape."""

    form: str
    p: float
    q: float

    def __post_init__(self):
        if self.form not in COEFFICIENT_FORMS:
            raise ConfigurationError(f"unknown coefficient form {self.form!r}; "
                                     f"have {sorted(COEFFICIENT_FORMS)}")
        require_finite(f"{self.form} coefficient parameters", self.p, self.q)

    @staticmethod
    def from_config(cfg: Mapping) -> "CoefficientForm":
        form = cfg.get("form")
        p, q = ([float(cfg.get(k, v)) for k, v in COEFFICIENT_FORMS[form]]
                if form in COEFFICIENT_FORMS else (0.0, 0.0))
        return CoefficientForm(form, p, q)   # rejects an unknown form

    def terms(self, m) -> tuple[np.ndarray, np.ndarray]:
        """Value and closed-form slope at objective values ``m``."""
        m = np.asarray(m, dtype=float)
        value, slope = _form_terms(*_stack((self,)), m[..., None])
        return value[..., 0], np.broadcast_to(slope, value.shape)[..., 0]

    def value(self, m):
        return self.terms(m)[0]


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """One seeking channel: two coefficient forms and a dither pair.

    ``b1`` and ``b2`` map the measured objective value to the two
    vector-field coefficients.  ``u1_ref`` and ``u2_ref`` name entries of
    the owning system's dither table, so channels may share waveforms.
    """

    index: int
    b1: CoefficientForm
    b2: CoefficientForm
    u1_ref: str = "u1"
    u2_ref: str = "u2"


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
        for name in ("a0", "lam", "x0"):
            # read-only copies, so the runs cached per spec stay valid
            arr = np.array(getattr(self, name), dtype=float, ndmin=1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.channels)
        if n == 0:
            raise ConfigurationError("system needs at least one channel")
        if len(self.objective.weights) != n:
            raise ConfigurationError("objective dimension must equal channel count")
        for name, arr in (("a0", self.a0), ("lam", self.lam), ("x0", self.x0)):
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have one entry per channel")
            require_finite(name, arr)
        require_finite("omega, horizon and dt", self.omega, self.horizon,
                        0.0 if self.dt is None else self.dt)
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
        # the step table, steps + 1 float64 entries, must have a byte size
        # that NumPy can index
        if not (self.horizon / dt + 1.0) * 8.0 <= np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"horizon {self.horizon:g} over dt={dt:g} is too many steps")
        if dt > self.dither_period_seconds / 32.0 + 1e-15:
            raise ConfigurationError(
                f"dt={dt} too coarse; needs <= (T/omega)/32 = "
                f"{self.dither_period_seconds / 32.0}")

    @property
    def n(self) -> int:
        return len(self.channels)

    @property
    def dither_period_seconds(self) -> float:
        return next(iter(self.dithers.values())).period / self.omega

    @property
    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return self.dither_period_seconds / 64.0

    @property
    def steps_per_period(self) -> int:
        return max(1, round(self.dither_period_seconds / self.resolved_dt))

    @cached_property
    def nu_hats(self) -> np.ndarray:
        """Unit-amplitude averaging weight per channel (pair order 2,1)."""
        return np.array([
            nu_coefficient(self.dithers[ch.u2_ref], self.dithers[ch.u1_ref])
            for ch in self.channels])

    @cached_property
    def _stacked_forms(self) -> tuple:
        """:func:`_stack` of the b1 then b2 forms of all channels."""
        return _stack([ch.b1 for ch in self.channels]
                      + [ch.b2 for ch in self.channels])

    def form_terms(self, f):
        """Values and slopes of the b1 then b2 forms at the objective
        values ``f``, shape ``f.shape + (2n,)`` or, for slopes of linear
        forms alone, ``(2n,)``."""
        m = np.asarray(f, dtype=float)
        return _form_terms(*self._stacked_forms, m[..., None] if m.ndim else m)

    def coefficient_values(self, f) -> tuple[np.ndarray, np.ndarray]:
        """``b1`` and ``b2`` of every channel at the measured objective
        values ``f``, each of shape ``f.shape + (n,)``."""
        value, _ = self.form_terms(f)
        return value[..., :self.n], value[..., self.n:]

    def bracket_terms(self, f) -> tuple:
        """``b1``, ``b2`` and the bracket factor ``b0 = b2*b1' - b1*b2'``
        of every channel at the measured objective values ``f``, each of
        shape ``f.shape + (n,)``, with the slopes in closed form; a
        non-finite b0 is returned as it is, for the caller to name the
        entries that failed."""
        n = self.n
        value, slope = self.form_terms(f)
        b1, b2 = value[..., :n], value[..., n:]
        return b1, b2, b2 * slope[..., :n] - b1 * slope[..., n:]

    def coefficients(self, f) -> tuple:
        """:meth:`bracket_terms`, where a non-finite b0 raises
        :class:`EvaluationError`."""
        b1, b2, b0 = self.bracket_terms(f)
        if not np.isfinite(b0).all():
            raise EvaluationError("b0 evaluation non-finite", value=f)
        return b1, b2, b0

    @cached_property
    def amplitude_decay(self) -> np.ndarray:
        """The factor by which one RK4 step of ``a' = -lam * (a - j)``
        scales ``a - j``: the step in closed form, at ``h = -lam * dt``."""
        h = -self.lam * self.resolved_dt
        return 1.0 + h + h ** 2 / 2.0 + h ** 3 / 6.0 + h ** 4 / 24.0

    def bracket_weight(self, amplitude=None) -> np.ndarray:
        """The channel weights ``-nu_hat * a_i^2`` of the averaged right-hand
        side; ``amplitude`` defaults to the initial amplitudes."""
        a = self.a0 if amplitude is None else np.asarray(amplitude, dtype=float)
        return -self.nu_hats * a * a

    def validate(self) -> None:
        """Check the objective on its domain box, every dither, and that
        the factors by which ``a0`` and ``lambda`` enter a run are finite:
        the bracket weight and the amplitude's RK4 factor."""
        self.objective.validate()
        for name, d in self.dithers.items():
            rep = verify_assumption_a2(d)
            if not rep.all_ok:
                raise ConfigurationError(f"dither {name!r} fails admissibility: {rep}")
        with np.errstate(over="ignore", invalid="ignore"):
            require_finite("a0's bracket weight -nu*a0^2", self.bracket_weight())
            require_finite("lambda's amplitude factor", self.amplitude_decay)


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
