"""Deterministic fixed-step simulation of seeking systems.

Three runners share one integration core:

* :func:`run_baseline` -- constant-amplitude seeking (the classical
  persistent-oscillation behaviour),
* :func:`run_proposed` -- amplitude adaptation driven by the estimation
  filter's averaged-RHS signal,
* :func:`run_lbs` -- the averaged (bracket) system itself, exactly or
  with a synthetic decaying estimation error.

Runs are single-threaded and bit-deterministic for a given spec and
seed; optional measurement noise draws from a per-run seeded generator.

The seeking loop does only state-dependent work.  What depends on time
alone is tabulated once per run by :func:`_dither_tables`: every
channel's dither values at each step start and midpoint of the loop's
own time grid (the RK4 stage times), and their per-step Simpson sums,
which give the filter its input integrals.  The averaged reference
trajectory is integrated once per system and shared by the runs of that
system (:func:`_reference` caches it for the last spec), and the ``f``
column and the oracle ``Jexact`` column are each filled by one array call
over the logged rows after the loop.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, InputError, IntegrationError
from .gekf import GekfConfig, GekfFilter
from .lie import lbs_rhs_exact
from .model import TAU, DitherSignal, EscSystemSpec, EstimationErrorModel

CSV_NAN = ""


def _dither_values(d: DitherSignal, theta: np.ndarray) -> np.ndarray:
    """Dither values at the scaled times ``theta``.

    Cosine and sine are evaluated point by point with :mod:`math` on
    ``(TAU/period)*theta + phase``; NumPy's vectorised ``cos``/``sin``
    may round the last bit differently.
    """
    if d.kind in ("cosine", "sine"):
        fn = math.cos if d.kind == "cosine" else math.sin
        arg = (TAU / d.period) * theta + d.phase
        return np.fromiter(map(fn, arg), float, count=arg.shape[0])
    return np.asarray(d.value(theta), dtype=float)


def _dither_tables(spec: EscSystemSpec, steps: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loop's times and both dithers of every channel on its half steps.

    Returns ``(t, u1, u2)``: ``t`` holds the step starts, accumulated by
    ``+ dt`` as the loop accumulates them, and row ``2k`` of ``u1``/``u2``
    (one column per channel) is taken at ``t[k]``, row ``2k + 1`` at
    ``t[k] + dt/2``.
    """
    dt = spec.resolved_dt
    t = np.zeros(steps + 1)
    np.cumsum(np.full(steps, dt), out=t[1:])
    half = np.empty(2 * steps + 1)
    half[0::2] = t
    half[1::2] = t[:-1] + 0.5 * dt
    theta = spec.omega * half
    values = {ref: _dither_values(d, theta) for ref, d in spec.dithers.items()}
    u1 = np.column_stack([values[ch.u1_ref] for ch in spec.channels])
    u2 = np.column_stack([values[ch.u2_ref] for ch in spec.channels])
    return t, u1, u2


def _simpson_sums(u: np.ndarray) -> np.ndarray:
    """Per-step ``u(t0) + 2 u(t0 + dt/2) + u(t0 + dt)`` of a half-step table."""
    return u[0:-1:2] + 2.0 * u[1::2] + u[2::2]


def rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray], t: float,
             x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step."""
    if dt <= 0:
        raise IntegrationError("step size must be positive", t=t)
    x = np.asarray(x, dtype=float)
    half = 0.5 * dt
    k1 = np.asarray(rhs(t, x), dtype=float)
    k2 = np.asarray(rhs(t + half, x + half * k1), dtype=float)
    k3 = np.asarray(rhs(t + half, x + half * k2), dtype=float)
    k4 = np.asarray(rhs(t + dt, x + dt * k3), dtype=float)
    ksum = k1 + 2.0 * k2 + 2.0 * k3 + k4
    # a non-finite stage entry poisons the weighted sum, so one scalar
    # check suffices; the stages are searched only to name the culprit
    if not math.isfinite(float(ksum.sum())):
        for stage, k in enumerate((k1, k2, k3, k4), start=1):
            if not math.isfinite(float(k.sum())):
                raise IntegrationError(f"non-finite RK4 stage {stage} at t={t}",
                                       t=t)
    return x + (dt / 6.0) * ksum


class TrajectoryLog:
    """Uniform-stride record of a run with optional filter diagnostics.

    Columns with no defined value (e.g. oracle columns without an
    oracle) hold NaN in memory and serialize to empty CSV cells.
    """

    COLUMNS = ("t", "x", "f", "a", "Jest", "Jexact", "zref")

    def __init__(self, t: np.ndarray, x: np.ndarray, f: np.ndarray,
                 a: np.ndarray, j_est: np.ndarray, j_exact: np.ndarray,
                 z_ref: np.ndarray, diag: Optional[dict] = None,
                 meta: Optional[dict] = None):
        self.t = t
        self.x = x
        self.f = f
        self.a = a
        self.j_est = j_est
        self.j_exact = j_exact
        self.z_ref = z_ref
        self.diag = diag
        self.meta = meta or {}
        if not np.all(np.diff(t) > 0):
            raise InputError("log times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def stride(self) -> float:
        return float(self.t[1] - self.t[0])

    def header(self) -> str:
        n = self.n
        cols = (["t"] + [f"x_{i}" for i in range(1, n + 1)] + ["f"]
                + [f"a_{i}" for i in range(1, n + 1)]
                + [f"Jest_{i}" for i in range(1, n + 1)]
                + [f"Jexact_{i}" for i in range(1, n + 1)]
                + [f"zref_{i}" for i in range(1, n + 1)])
        return ",".join(cols)

    def to_csv(self, path: str) -> None:
        """Write the stable-schema trajectory CSV atomically."""
        data = np.column_stack((self.t, self.x, self.f, self.a, self.j_est,
                                self.j_exact, self.z_ref))
        _atomic_write(path, _csv_text(self.header(), data, nan=CSV_NAN))

    def diagnostics_to_csv(self, path: str) -> None:
        if not self.diag:
            raise InputError("log carries no filter diagnostics")
        cols = ["t"]
        for name, arr in self.diag.items():
            if arr.ndim == 1:
                cols.append(name)
            else:
                cols += [f"{name}_{i}" for i in range(1, arr.shape[1] + 1)]
        data = np.column_stack((self.t, *self.diag.values()))
        _atomic_write(path, _csv_text(",".join(cols), data))

    @staticmethod
    def from_csv(path: str) -> "TrajectoryLog":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        if not lines:
            raise InputError(f"empty CSV: {path}")
        header = lines[0].split(",")
        n = sum(1 for c in header if c.startswith("x_"))
        expect = 2 + 5 * n
        if n == 0 or len(header) != expect or header[0] != "t":
            raise InputError(f"unrecognized trajectory CSV header in {path}")

        def parse(cell: str) -> float:
            return float("nan") if cell == CSV_NAN else float(cell)

        data = np.array([[parse(c) for c in ln.split(",")] for ln in lines[1:]])
        if data.shape[0] < 2:
            raise InputError(f"trajectory CSV needs at least two rows: {path}")
        t = data[:, 0]
        x = data[:, 1:1 + n]
        f = data[:, 1 + n]
        a = data[:, 2 + n:2 + 2 * n]
        j_est = data[:, 2 + 2 * n:2 + 3 * n]
        j_exact = data[:, 2 + 3 * n:2 + 4 * n]
        z_ref = data[:, 2 + 4 * n:2 + 5 * n]
        return TrajectoryLog(t, x, f, a, j_est, j_exact, z_ref)


def _csv_text(header: str, data: np.ndarray, nan: str = "nan") -> str:
    """CSV text of a 2-D array: each value as its shortest round-trip repr,
    NaN as ``nan``, one line per row after ``header``."""
    lines = [header]
    for row in data:
        line = ",".join(map(repr, row.tolist()))
        # repr writes "nan" only as a whole value, never inside a number
        lines.append(line if nan == "nan" else line.replace("nan", nan))
    lines.append("")
    return "\n".join(lines)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _guard(spec: EscSystemSpec) -> Callable[[np.ndarray, float], None]:
    """Per-step divergence check ``guard(x, t)`` for states of ``spec``."""
    centre = limit = None
    if spec.objective.domain_box is not None:
        box = np.asarray(spec.objective.domain_box, dtype=float)
        centre = box.mean(axis=1)
        limit = 10.0 * float(np.linalg.norm(box[:, 1] - box[:, 0]))

    def guard(x: np.ndarray, t: float) -> None:
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"state non-finite at t={t}", t_exit=t)
        if centre is not None and np.linalg.norm(x - centre) > limit:
            raise DivergenceError(
                f"state left 10x domain-box region at t={t}", t_exit=t)
    return guard


def _averaged(spec: EscSystemSpec,
              err: Optional[EstimationErrorModel] = None) -> np.ndarray:
    """Averaged-system states at the initial amplitudes, one row per step.

    ``err`` adds the synthetic estimation error to the right-hand side.
    """
    dt = spec.resolved_dt
    steps = int(round(spec.horizon / dt))

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        j = lbs_rhs_exact(spec, z)
        return j if err is None else j + err.value(t)

    guard = _guard(spec)
    z = np.empty((steps + 1, spec.n))
    z[0] = spec.x0
    for k in range(steps):
        t = k * dt
        z[k + 1] = rk4_step(rhs, t, z[k], dt)
        guard(z[k + 1], t + dt)
    return z


@functools.lru_cache(maxsize=1)
def _reference(spec: EscSystemSpec) -> np.ndarray:
    """The unperturbed averaged trajectory of ``spec``, read-only.

    Cached for the last spec, so the runs of one system share one
    integration.
    """
    z = _averaged(spec)
    z.flags.writeable = False
    return z


def _run_esc(spec: EscSystemSpec, adapt: bool, gcfg: Optional[GekfConfig],
             seed: int, noise_std: float,
             j_override) -> TrajectoryLog:
    dt = spec.resolved_dt
    steps = int(round(spec.horizon / dt))
    n = spec.n
    obj = spec.objective
    omega = spec.omega
    sqrt_w = math.sqrt(omega)
    lam = spec.lam
    has_oracle = obj.has_oracle
    guard = _guard(spec)
    rng = np.random.default_rng(seed)
    _, u1, u2 = _dither_tables(spec, steps)

    def make_xdot(k: int, t0: float, scale: np.ndarray):
        # the RK4 stage times of step k and their rows in the tables
        rows = {t0: 2 * k, t0 + 0.5 * dt: 2 * k + 1, t0 + dt: 2 * k + 2}

        def xdot(t: float, x: np.ndarray) -> np.ndarray:
            i = rows[t]
            b1, b2 = spec.coefficient_values(obj.measured(x))
            return scale * (b1 * u1[i] + b2 * u2[i])
        return xdot

    use_filter = adapt and j_override is None
    filt: Optional[GekfFilter] = None
    if use_filter:
        if gcfg is None:
            raise InputError("proposed run needs a filter configuration")
        f0 = obj.measured(spec.x0)
        if noise_std > 0:
            f0 += rng.normal(0.0, noise_std)
        filt = GekfFilter(gcfg, n, f0, spec.nu_hats)
        f_prev_meas = f0
        u1_sums, u2_sums = _simpson_sums(u1), _simpson_sums(u2)

    def override_at(t: float) -> np.ndarray:
        if callable(j_override):
            return np.atleast_1d(np.asarray(j_override(t), dtype=float))
        return np.broadcast_to(np.asarray(j_override, dtype=float), (n,)).copy()

    t, x, a = 0.0, spec.x0.copy(), spec.a0.copy()
    u1_acc, u2_acc = np.zeros(n), np.zeros(n)
    j_sig = override_at(0.0) if (adapt and j_override is not None) else np.zeros(n)

    total = steps + 1
    t_log = np.empty(total)
    x_log = np.empty((total, n))
    a_log = np.empty((total, n))
    jest_log = np.full((total, n), np.nan)
    zref_log = _reference(spec) if has_oracle else np.full((total, n), np.nan)
    diag = None
    if use_filter:
        diag = {"x1": np.empty((total, n)), "x2": np.empty((total, n)),
                "x3": np.empty(total), "innovation": np.empty(total),
                "P": np.empty((total, 2 * n + 1, 2 * n + 1))}

    def log_row(k: int) -> None:
        t_log[k] = t
        x_log[k] = x
        a_log[k] = a
        if adapt:
            jest_log[k] = j_sig
        if use_filter:
            diag["x1"][k] = filt.state.x1
            diag["x2"][k] = filt.state.x2
            diag["x3"][k] = filt.state.x3
            diag["innovation"][k] = filt.last_innovation
            diag["P"][k] = filt.state.P

    log_row(0)

    for step in range(steps):
        t0 = t
        scale = a * sqrt_w
        j_held = j_sig

        x_new = rk4_step(make_xdot(step, t0, scale), t0, x, dt)
        if adapt:
            a = rk4_step(lambda t, a: -lam * (a - j_held), t0, a, dt)

        guard(x_new, t0 + dt)
        x = x_new
        t = t0 + dt

        if use_filter:
            weight = scale * (dt / 4.0)
            u1_acc += weight * u1_sums[step]
            u2_acc += weight * u2_sums[step]
            filt.propagate(dt)
            if (step + 1) % gcfg.n_meas == 0:
                f2 = obj.measured(x)
                if noise_std > 0:
                    f2 += rng.normal(0.0, noise_std)
                filt.update(f2, f_prev_meas, u1_acc, u2_acc, a, spec)
                f_prev_meas = f2
                u1_acc = np.zeros(n)
                u2_acc = np.zeros(n)
            j_sig = filt.step_export()
        elif adapt and j_override is not None:
            j_sig = override_at(t)

        log_row(step + 1)

    if use_filter:
        # covariance summaries of all rows at once, then drop the matrices
        P = diag.pop("P")
        diag["trace_p"] = np.trace(P, axis1=1, axis2=2)
        diag["min_eig_p"] = np.linalg.eigvalsh(P).min(axis=1)
    f_log = obj.value(x_log)
    jex_log = (lbs_rhs_exact(spec, x_log, amplitude=a_log) if has_oracle
               else np.full((total, n), np.nan))
    meta = {"omega": omega, "dt": dt, "mode": "proposed" if adapt else "baseline",
            "seed": seed}
    return TrajectoryLog(t_log, x_log, f_log, a_log, jest_log, jex_log,
                         zref_log, diag=diag, meta=meta)


def run_baseline(spec: EscSystemSpec) -> TrajectoryLog:
    """Constant-amplitude seeking run (persistently oscillating)."""
    return _run_esc(spec, adapt=False, gcfg=None, seed=0, noise_std=0.0,
                    j_override=None)


def run_proposed(spec: EscSystemSpec, gcfg: GekfConfig, seed: int = 0,
                 noise_std: float = 0.0, j_override=None) -> TrajectoryLog:
    """Adaptive-amplitude seeking run driven by the estimation filter.

    ``j_override`` replaces the filter with a fixed signal (scalar,
    vector, or callable of time); used to exercise the adaptation law in
    isolation.
    """
    return _run_esc(spec, adapt=True, gcfg=gcfg, seed=seed,
                    noise_std=noise_std, j_override=j_override)


def run_lbs(spec: EscSystemSpec,
            err: Optional[EstimationErrorModel] = None) -> TrajectoryLog:
    """Integrate the averaged system at the initial amplitudes.

    With ``err`` given the right-hand side gains the synthetic decaying
    error and the unperturbed averaged trajectory is co-logged as the
    reference.
    """
    if not spec.objective.has_oracle:
        raise InputError("averaged-system run needs an oracle gradient")
    dt = spec.resolved_dt
    a0 = spec.a0
    zref_log = _reference(spec)
    x_log = zref_log.copy() if err is None else _averaged(spec, err)
    total, n = x_log.shape
    t_log = np.arange(total) * dt
    f_log = spec.objective.value(x_log)
    a_log = np.tile(a0, (total, 1))
    jex_log = lbs_rhs_exact(spec, x_log)
    jest_log = np.full((total, n), np.nan)
    if err is not None:
        jest_log = jex_log + np.array([[err.value(t)] for t in t_log.tolist()])

    meta = {"omega": spec.omega, "dt": dt, "mode": "lbs", "seed": 0}
    return TrajectoryLog(t_log, x_log, f_log, a_log, jest_log, jex_log,
                         zref_log, meta=meta)
