"""Verification tooling: the time-decay bound check on the estimated
averaged RHS, the vanishing-oscillation condition checker from the
generalized-approach literature, and convergence/oscillation metrics for
baseline-vs-proposed comparisons.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .model import CoefficientForm, ObjectiveMap
from .sim import TrajectoryLog

CONTRADICTION_TOL = 1e-12
SETTLING_BAND = 0.05


def period_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with a shorter ramp-in prefix."""
    values = np.asarray(values, dtype=float)
    window = max(1, int(window))
    flat = values.reshape(values.shape[0], -1)
    csum = np.vstack([np.zeros((1, flat.shape[1])), np.cumsum(flat, axis=0)])
    idx = np.arange(flat.shape[0])
    lo = np.maximum(idx + 1 - window, 0)
    out = (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)[:, None]
    return out.reshape(values.shape)


@dataclass(frozen=True)
class ChannelBoundCheck:
    """Per-channel outcome of the 1/t^p decay check."""

    channel: int
    holds: bool
    t_star: Optional[float]
    violations_after: int

    def to_dict(self) -> dict:
        return {"channel": self.channel, "holds": self.holds,
                "t_star": self.t_star, "violations_after": self.violations_after}


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of checking |J_i(t)| <= 1/t^p past some onset time."""

    p: float
    t_min: float
    channels: tuple[ChannelBoundCheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.channels)

    def to_dict(self) -> dict:
        return {"p": self.p, "t_min": self.t_min, "holds": self.holds,
                "channels": [c.to_dict() for c in self.channels]}


def check_bound(t: np.ndarray, j: np.ndarray, p: float,
                t_min: float = 1.0) -> BoundCheckResult:
    """Find the earliest onset after which the decay bound always holds.

    For each channel, ``t_star`` is the smallest sample time at or after
    ``t_min`` such that every sample from it onward satisfies
    ``|J| <= 1/t^p``; absent when even the final samples violate the
    bound.  ``t_min`` exists because the bound is vacuous near zero.
    """
    t = np.asarray(t, dtype=float)
    j = np.asarray(j, dtype=float)
    if t.size == 0 or j.size == 0:
        raise InputError("empty series")
    if j.ndim == 1:
        j = j[:, None]
    if j.shape[0] != t.shape[0]:
        raise InputError("time and signal lengths differ")
    if np.any(np.diff(t) <= 0):
        raise InputError("samples must be sorted by time")
    if not p > 1:
        raise InputError("the decay exponent must exceed 1")
    if not t_min > 0:
        raise InputError("t_min must be positive")

    mask = t >= t_min
    if not np.any(mask):
        raise InputError("no samples at or after t_min")
    tm = t[mask]
    results = []
    for ch in range(j.shape[1]):
        series = np.abs(j[mask, ch])
        if np.any(np.isnan(series)):
            raise InputError(f"channel {ch + 1} series contains missing values")
        ok = series <= tm ** (-p)
        if ok.all():
            results.append(ChannelBoundCheck(ch + 1, True, float(tm[0]), 0))
            continue
        last_violation = int(np.nonzero(~ok)[0][-1])
        if last_violation == len(tm) - 1:
            results.append(ChannelBoundCheck(ch + 1, False, None,
                                             int((~ok).sum())))
        else:
            results.append(ChannelBoundCheck(ch + 1, True,
                                             float(tm[last_violation + 1]), 0))
    return BoundCheckResult(p=p, t_min=t_min, channels=tuple(results))


@dataclass(frozen=True)
class B2Element:
    """One vector-field element, a coefficient form of the shifted objective."""

    s: int
    i: int
    form: CoefficientForm
    label: str = ""


@dataclass(frozen=True)
class B2ElementReport:
    s: int
    i: int
    label: str
    satisfiable: bool
    contradiction: bool
    value_at_extremum: float
    m3_fit: Optional[float]
    m_fit: Optional[float]

    def to_dict(self) -> dict:
        return {"s": self.s, "i": self.i, "label": self.label,
                "satisfiable": self.satisfiable,
                "contradiction": self.contradiction,
                "value_at_extremum": self.value_at_extremum,
                "m3_fit": self.m3_fit, "m_fit": self.m_fit}


@dataclass(frozen=True)
class B2Report:
    """Outcome of the vanishing-oscillation condition check.

    ``contradiction`` is set when some element keeps a nonzero magnitude
    at the extremum, where every admissible envelope bound collapses to
    zero.  ``b1_constants`` records (without verifying) the companion
    practical-stability constants when a scenario documents them.
    """

    elements: tuple[B2ElementReport, ...]
    x_star: tuple[float, ...]
    f_star: float
    b1_constants: Optional[dict] = None

    @property
    def contradiction(self) -> bool:
        return any(e.contradiction for e in self.elements)

    def to_dict(self) -> dict:
        return {"contradiction": self.contradiction,
                "x_star": list(self.x_star), "f_star": self.f_star,
                "elements": [e.to_dict() for e in self.elements],
                "b1_constants": self.b1_constants}


def check_b2(elements: Sequence[B2Element], objective: ObjectiveMap,
             sample_count: int = 512, seed: int = 0,
             b1_constants: Optional[dict] = None) -> B2Report:
    """Check each element against the envelope bound near the extremum.

    At the extremum the shifted objective vanishes, so the bound
    ``|b| <= M * ftilde^m3`` forces ``|b| <= 0`` there: any element with
    nonzero magnitude at that point is a contradiction.  Away from the
    extremum a least-squares exponent fit over domain samples is
    reported as advisory only.
    """
    reports = []
    rng = np.random.default_rng(seed)
    box = None
    if objective.domain_box is not None:
        box = np.asarray(objective.domain_box, dtype=float)
    for el in elements:
        ft = np.empty(0)
        if box is not None and sample_count > 0:
            pts = rng.uniform(box[:, 0], box[:, 1],
                              size=(sample_count, len(objective.center)))
            ft = objective.value(pts) - objective.offset
        # one call: the element at the extremum (ftilde = 0), then at ft
        b = el.form.value(np.concatenate(([0.0], ft)))
        v0 = float(b[0])
        contradiction = abs(v0) > CONTRADICTION_TOL
        m3_fit = m_fit = None
        if ft.size:
            mags, bv = np.abs(ft), np.abs(b[1:])
            keep = (mags > 1e-10) & (bv > 1e-300)
            if keep.sum() >= 8:
                slope, intercept = np.polyfit(np.log(mags[keep]),
                                              np.log(bv[keep]), 1)
                m3_fit = float(slope)
                m_fit = float(np.max(bv[keep] / mags[keep] ** slope))
        reports.append(B2ElementReport(
            s=el.s, i=el.i, label=el.label, satisfiable=not contradiction,
            contradiction=contradiction, value_at_extremum=v0,
            m3_fit=m3_fit, m_fit=m_fit))
    return B2Report(elements=tuple(reports),
                    x_star=objective.center, f_star=objective.offset,
                    b1_constants=b1_constants)


@dataclass(frozen=True)
class RunMetrics:
    """Convergence and oscillation figures for one trajectory."""

    final_error: float
    settling_time: Optional[float]
    envelope: tuple[float, ...]
    amplitude_final: tuple[float, ...]
    window: float

    @property
    def envelope_max(self) -> float:
        return max(self.envelope)

    def to_dict(self) -> dict:
        return {"final_error": self.final_error,
                "settling_time": self.settling_time,
                "envelope": list(self.envelope),
                "amplitude_final": list(self.amplitude_final),
                "window": self.window}


def metrics(log: TrajectoryLog, x_star, window: float,
            period: Optional[float] = None) -> RunMetrics:
    """Final error, settling time and last-window oscillation envelope.

    Settling is first entry with permanence into the 5 percent band of
    the initial error, measured on the period-averaged trajectory when
    ``period`` is given.  The envelope is (max - min)/2 per coordinate of
    the raw trajectory over the trailing ``window`` seconds.
    """
    if log.t.size == 0:
        raise InputError("empty log")
    if not 0 < window < log.t[-1] - log.t[0]:
        raise InputError("window must be positive and shorter than the horizon")
    if period is not None and not period > 0:
        raise InputError("period must be positive")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    avg = log.x
    if period is not None:
        avg = period_average(log.x, round(period / log.stride))
    err = np.linalg.norm(avg - x_star, axis=1)
    final_error = float(err[-1])

    e0 = float(np.linalg.norm(log.x[0] - x_star))
    settling = None
    if e0 > 0:
        inside = err <= SETTLING_BAND * e0
        if inside[-1]:
            k = len(inside) - 1
            while k > 0 and inside[k - 1]:
                k -= 1
            settling = float(log.t[k])
    elif bool(np.all(err <= 1e-12)):
        settling = float(log.t[0])

    tail = log.t >= log.t[-1] - window
    seg = log.x[tail]
    envelope = tuple(float(v) for v in (seg.max(axis=0) - seg.min(axis=0)) / 2.0)
    amplitude_final = tuple(float(abs(v)) for v in log.a[-1])
    return RunMetrics(final_error=final_error, settling_time=settling,
                      envelope=envelope, amplitude_final=amplitude_final,
                      window=window)


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side metrics of a constant-amplitude and an adaptive run."""

    baseline: RunMetrics
    proposed: RunMetrics
    envelope_ratio: Optional[float]

    def to_dict(self) -> dict:
        return {"baseline": self.baseline.to_dict(),
                "proposed": self.proposed.to_dict(),
                "envelope_ratio": self.envelope_ratio}


def compare(baseline: TrajectoryLog, proposed: TrajectoryLog, x_star,
            window: float, period: Optional[float] = None) -> ComparisonReport:
    """Assemble the comparison report; requires matching horizon and stride."""
    if abs(baseline.stride - proposed.stride) > 1e-12 * max(baseline.stride, 1.0):
        raise InputError("logs have different strides")
    if abs(baseline.t[-1] - proposed.t[-1]) > baseline.stride:
        raise InputError("logs have different horizons")
    mb = metrics(baseline, x_star, window, period)
    mp = metrics(proposed, x_star, window, period)
    ratio = None
    if mb.envelope_max > 1e-12:
        ratio = mp.envelope_max / mb.envelope_max
    return ComparisonReport(baseline=mb, proposed=mp, envelope_ratio=ratio)
