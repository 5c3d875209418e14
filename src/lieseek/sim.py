"""Deterministic fixed-step simulation of seeking systems.

The runners:

* :func:`run_baseline` -- constant-amplitude seeking (the classical
  persistent-oscillation behaviour),
* :func:`run_proposed` -- amplitude adaptation driven by the estimation
  filter's averaged-RHS signal,
* :func:`run_batch` -- either kind for B members of any systems,
* :func:`run_lbs` -- the averaged (bracket) system itself, exactly or
  with a synthetic decaying estimation error; :func:`lbs_batch` makes it
  for B members.

The first three are one seeking loop, :class:`_Lockstep`: a single run is
a batch of one member.  :func:`run_batch` alone decides which members
share a loop: those of one system (:func:`_system`: objective,
coefficient forms and dithers) and one filter configuration but for the
amplitude floor, which may differ in lambda, a0, x0, omega, dt, horizon
and seed.  Member k of a batch equals its own run bit for bit, on its own
time grid; a member that reaches its last step leaves the batch, and a
member that fails stops alone while the others finish.

Runs are single-threaded and bit-deterministic for a given spec and
seed; optional measurement noise draws from a per-member seeded
generator.

The seeking loop does only state-dependent work.  What depends on time
alone is tabulated once per batch and time grid by :func:`_dither_tables`:
every channel's dither values at each step start and midpoint of the
grid (the RK4 stage times), and their per-step Simpson sums, which give
the filter its input integrals.  The averaged reference trajectories of
one system's members, one per distinct (a0, x0, dt, horizon), are
integrated together as the rows of one RK4 step (:func:`_averaged`), and
shared by the runs of one system (:func:`_reference` caches them for the
last system); the ``f`` column and the oracle ``Jexact`` column are each
filled by one array call over a member's logged rows after the loop.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import tempfile
from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, DivergenceError, InputError,
                     IntegrationError, LieseekError)
from .gekf import GekfConfig, GekfFilter
from .lie import bracket_weight, lbs_rhs_exact
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


def _steps(spec: EscSystemSpec) -> int:
    """The number of integration steps of a run of ``spec``."""
    return int(round(spec.horizon / spec.resolved_dt))


def step_times(spec: EscSystemSpec) -> np.ndarray:
    """The times of a run's logged rows: step starts accumulated by ``+ dt``."""
    dt = spec.resolved_dt
    steps = _steps(spec)
    t = np.zeros(steps + 1)
    np.cumsum(np.full(steps, dt), out=t[1:])
    return t


def _dither_tables(spec: EscSystemSpec, steps: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loop's times and both dithers of every channel on its half steps.

    Returns ``(t, u1, u2)``: ``t`` holds the step starts, accumulated by
    ``+ dt`` as the loop accumulates them, and row ``2k`` of ``u1``/``u2``
    (one column per channel) is taken at ``t[k]``, row ``2k + 1`` at
    ``t[k] + dt/2``.
    """
    dt = spec.resolved_dt
    t = step_times(spec)
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
    """One classical fourth-order Runge-Kutta step.

    ``dt`` is one float, or a ``(rows, 1)`` column that gives each row of
    ``x`` its own step (and ``t`` is then a column of times too); each row
    gets the bits of its own step.
    """
    positive = dt > 0
    if positive is not True and not np.all(positive):
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln]
        except OSError as exc:
            raise ConfigurationError(f"cannot read CSV {path}: {exc}") from exc
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
    """Per-step divergence check ``guard(x, t)`` for states of ``spec``,
    one per row of ``x``; it raises for the first kind of failure found."""
    centre = limit = None
    if spec.objective.domain_box is not None:
        box = np.asarray(spec.objective.domain_box, dtype=float)
        centre = box.mean(axis=1)
        limit = 10.0 * float(np.linalg.norm(box[:, 1] - box[:, 0]))

    def guard(x: np.ndarray, t: float) -> None:
        if centre is not None:
            d = x - centre
            # vecdot is each row's np.linalg.norm(d) ** 2, bit for bit; a
            # NaN or infinite row fails the comparison too
            if (np.sqrt(np.vecdot(d, d)) <= limit).all():
                return
        elif np.isfinite(x).all():
            return
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"state non-finite at t={t}", t_exit=t)
        raise DivergenceError(
            f"state left 10x domain-box region at t={t}", t_exit=t)
    return guard




def _index(rows: Sequence[int]):
    """An index of ``rows`` along a member axis: an int for one row (it
    drops the axis), a slice for consecutive rows, else the list."""
    if len(rows) == 1:
        return int(rows[0])
    if all(b == a + 1 for a, b in zip(rows, rows[1:])):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return list(rows)


def _per_row(values: list):
    """The float that all rows share, or a ``(rows, 1)`` column of them."""
    if all(v == values[0] for v in values):
        return values[0]
    return np.array(values)[:, None]


def _per_row_tables(tables: list) -> np.ndarray:
    """The table that all rows share, or the tables stacked along a member
    axis (axis 1), each padded at its end with zeros that are never read."""
    if all(tab is tables[0] for tab in tables):
        return tables[0]
    out = np.zeros((max(len(tab) for tab in tables), len(tables))
                   + tables[0].shape[1:])
    for i, tab in enumerate(tables):
        out[:len(tab), i] = tab
    return out


def _averaged(specs: Sequence[EscSystemSpec],
              err: Optional[EstimationErrorModel] = None) -> list:
    """Averaged-system states of ``specs`` at their initial amplitudes: per
    spec, one row per step, or the error that its own integration raises.

    The specs share their objective, coefficient forms and dithers, and
    may differ in a0, x0, dt and horizon.  Their states are the rows of
    one RK4 step, each row with its own step size, so each gets the bits
    of its own integration.  A row leaves when it reaches its last step;
    a failing row leaves with its error and the others go on.  ``err``
    (with one spec) adds the synthetic estimation error to the
    right-hand side.
    """
    spec = specs[0]
    guard = _guard(spec)
    dts = [s.resolved_dt for s in specs]
    ends = [_steps(s) for s in specs]
    weights = np.array([bracket_weight(s) for s in specs])

    def rhs_of(weight: np.ndarray) -> Callable:
        def rhs(t, z: np.ndarray) -> np.ndarray:
            j = lbs_rhs_exact(spec, z, weight=weight)
            return j if err is None else j + err.value(t)
        return rhs

    z = np.empty((max(ends) + 1, len(specs), spec.n))
    z[0] = [s.x0 for s in specs]
    out: list = [None] * len(specs)
    active = list(range(len(specs)))
    k = 0
    while active:
        rows = _index(active)
        dt = _per_row([dts[i] for i in active])
        rhs = rhs_of(weights[rows])
        state = z[k, rows]
        try:
            for k in range(k, min(ends[i] for i in active)):
                t = k * dt
                state = rk4_step(rhs, t, state, dt)
                guard(state, t + dt)
                z[k + 1, rows] = state
        except LieseekError as exc:
            failed = {}
            for i in active:   # which rows fail their step alone
                try:
                    t = k * dts[i]
                    guard(rk4_step(rhs_of(weights[i]), t, z[k, i], dts[i]),
                          t + dts[i])
                except LieseekError as row_exc:
                    failed[i] = row_exc
            if not failed:   # a failure of the rows together, not of one
                raise exc
            for i, row_exc in failed.items():
                out[i] = row_exc
            active = [i for i in active if i not in failed]
            continue
        k += 1
        for i in active:
            if ends[i] == k:
                out[i] = z[:k + 1, i].copy()
        active = [i for i in active if ends[i] > k]
    return out


def _by_group(keys: Sequence, items: Sequence, run: Callable) -> list:
    """``run`` of the items of each group of equal keys, the groups in
    order of first appearance; its results, one per item, in item order."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    out: list = [None] * len(items)
    for group in groups.values():
        for k, result in zip(group, run([items[k] for k in group])):
            out[k] = result
    return out


def _system(spec: EscSystemSpec) -> tuple:
    """What a batch takes from its first spec: the objective, the
    coefficient forms and the dithers."""
    return (spec.objective,
            tuple((ch.b1, ch.b2, ch.u1_ref, ch.u2_ref) for ch in spec.channels),
            frozenset(spec.dithers.items()))


@functools.lru_cache(maxsize=1)
def _reference(specs: tuple) -> tuple:
    """The unperturbed averaged trajectory of each of ``specs``, members of
    one system, read-only, or the error that its integration raises; rows
    of NaN without an oracle.  One reference is integrated per distinct
    (a0, x0, dt, horizon): it does not depend on lambda or omega.

    Cached for the last tuple of specs, so the runs of one system (in
    both modes) share one integration.
    """
    if not specs[0].objective.has_oracle:
        refs = [np.full((_steps(s) + 1, s.n), np.nan) for s in specs]
    else:
        keys = [(s.a0.tobytes(), s.x0.tobytes(), s.resolved_dt, s.horizon)
                for s in specs]
        firsts: dict = {}
        for key, s in zip(keys, specs):
            firsts.setdefault(key, s)
        by_key = dict(zip(firsts, _averaged(list(firsts.values()))))
        refs = [by_key[key] for key in keys]
    for z in refs:
        if isinstance(z, np.ndarray):
            z.flags.writeable = False
    return tuple(refs)


def _references(specs: Sequence[EscSystemSpec]) -> list:
    """Per member, its reference (:func:`_reference`): one integration per
    system."""
    return _by_group([_system(s) for s in specs], specs,
                     lambda members: _reference(tuple(members)))


def _stack(arrays: list) -> np.ndarray:
    """One row per member; a single member's own array, copied."""
    return np.array(arrays[0]) if len(arrays) == 1 else np.stack(arrays)


class _Grid:
    """The time grid of the members that share omega, dt and step count:
    step size, step times and the dither tables on them."""

    def __init__(self, spec: EscSystemSpec, sums: bool):
        self.dt = spec.resolved_dt
        self.steps = _steps(spec)
        self.sqrt_w = math.sqrt(spec.omega)
        self.t, self.u1, self.u2 = _dither_tables(spec, self.steps)
        self.times = self.t.tolist()
        self.u1_sums = _simpson_sums(self.u1) if sums else None
        self.u2_sums = _simpson_sums(self.u2) if sums else None


class _Lockstep:
    """Seeking runs of B members advanced in lockstep, one row per member.

    The members share the objective, the coefficient forms and the
    dithers: those of the first spec (:func:`run_batch` groups them), and
    ``zref`` holds their references (:func:`_references`).  They differ in
    lambda, a0, x0, omega, dt, horizon, seed and the filter's amplitude
    floor.  Every array operation of a step acts on each row alone, so
    member k gets the bits of its own run.  Step k of the loop is step k
    of every member, each on its own time grid (:class:`_Grid`): when the
    members' step sizes differ, ``dt`` and the step start are ``(B, 1)``
    columns and the dither tables are stacked per member; a shared step
    size stays a float.  A member leaves the batch after its last step.
    A batch of one member keeps its arrays without the member axis,
    ``(n,)`` rather than ``(1, n)``: NumPy broadcasts a ``(1, n)`` row
    against ``(n,)`` operands on a slower path, about a microsecond more
    per operation; a batch that shrinks to one member drops the axis too.
    One step is a fallible part, :meth:`_attempt`, that commits nothing,
    and :meth:`_commit`.  When the attempt fails, each member attempts
    the step alone; those that fail record their error and stop, and the
    others take the step together.
    """

    def __init__(self, specs: Sequence[EscSystemSpec],
                 gcfgs: Sequence[Optional[GekfConfig]], seeds: Sequence[int],
                 zref: Sequence, adapt: bool, noise_std: float,
                 j_override=None):
        spec = specs[0]
        self.use_filter = adapt and j_override is None
        self.specs, self.spec, self.obj = list(specs), spec, spec.objective
        size, n = len(specs), spec.n
        self.adapt, self.j_override = adapt, j_override
        self.guard = _guard(spec)
        self.seeds = list(seeds)
        self.rngs = ([np.random.default_rng(seed) for seed in seeds]
                     if noise_std > 0 else None)
        self.noise_std = noise_std
        self.errors: dict[int, LieseekError] = {}
        self.zref = zref

        # one grid per distinct (omega, dt, steps); grid_of[k] is member k's
        self.grid_of = _by_group(
            [(s.omega, s.resolved_dt, _steps(s)) for s in specs], specs,
            lambda same: [_Grid(same[0], self.use_filter)] * len(same))
        self.steps = max(g.steps for g in self.grid_of)
        self.ends = {g.steps for g in self.grid_of} - {self.steps}

        # per-member state; row i belongs to member members[i]
        self.members = np.arange(size)
        self.lam = _stack([s.lam for s in specs])
        self.x = _stack([s.x0 for s in specs])
        self.a = _stack([s.a0 for s in specs])
        self.j_sig = np.zeros(self.x.shape)
        self._regrid()
        self.filt = self.f_prev = self.u1_acc = self.u2_acc = None
        if self.use_filter:
            f0 = self.obj.measured(self.x)
            if self.rngs:
                f0 = f0 + self._noise()
            self.filt = GekfFilter(
                gcfgs[0], n, f0, spec.nu_hats,
                a_floor=None if size == 1 else [[g.a_floor] for g in gcfgs])
            self.f_prev = f0
            self.u1_acc = np.zeros(self.x.shape)
            self.u2_acc = np.zeros(self.x.shape)
        elif adapt:
            self.j_sig = self._override(0.0)

        total = self.steps + 1
        self.x_log = np.empty((total, size, n))
        self.a_log = np.empty((total, size, n))
        self.jest_log = np.full((total, size, n), np.nan)
        if self.use_filter:
            dim = 2 * n + 1
            self.mean_log = np.empty((total, size, dim))
            self.innovation_log = np.empty((total, size))
            self.P_log = np.empty((total, size, dim, dim))
        failed = [k for k, z in enumerate(self.zref)
                  if isinstance(z, LieseekError)]
        self.errors.update((k, self.zref[k]) for k in failed)
        if failed:
            self._keep([k for k in range(size) if k not in failed])
        if self.members.size:
            self._log(0)

    def _regrid(self) -> None:
        """Set the step sizes, step times, tables and log columns of the
        current rows."""
        grids = [self.grid_of[k] for k in self.members]
        self.dt = _per_row([g.dt for g in grids])
        self.sqrt_w = _per_row([g.sqrt_w for g in grids])
        if np.ndim(self.dt):
            self.times = _per_row_tables([g.t for g in grids])[..., None]
        else:
            self.times = max(grids, key=lambda g: g.steps).times
        for name in ("u1", "u2", "u1_sums", "u2_sums"):
            if getattr(grids[0], name) is not None:
                setattr(self, name,
                        _per_row_tables([getattr(g, name) for g in grids]))
        self.columns = _index(self.members)   # the log columns of the rows

    def _noise(self):
        draws = [rng.normal(0.0, self.noise_std) for rng in self.rngs]
        return draws[0] if self.x.ndim == 1 else np.array(draws)

    def _override(self, t: float) -> np.ndarray:
        j = self.j_override(t) if callable(self.j_override) else self.j_override
        return np.broadcast_to(np.asarray(j, dtype=float), self.a.shape).copy()

    def _take(self, rows: list) -> "_Lockstep":
        """A copy that holds only the rows ``rows`` of a batch with a
        member axis; one row drops the axis."""
        out = copy.copy(self)
        index = _index(rows)
        for name in ("lam", "x", "a", "j_sig", "f_prev", "u1_acc", "u2_acc"):
            value = getattr(self, name)
            if value is not None:
                setattr(out, name, value[index])
        out.members = self.members[rows]
        if self.rngs:
            out.rngs = [self.rngs[i] for i in rows]
        if self.filt is not None:
            out.filt = self.filt.take(index)
        out._regrid()
        return out

    def _keep(self, rows: list) -> None:
        if not rows:
            self.members = self.members[:0]
            return
        vars(self).update(vars(self._take(rows)))

    def _finish(self, step: int) -> None:
        """Let the members whose last step is ``step`` leave the batch."""
        kept = [i for i, k in enumerate(self.members)
                if self.grid_of[k].steps > step]
        if len(kept) < self.members.size:
            self._keep(kept)

    def _log(self, k: int) -> None:
        columns = self.columns
        self.x_log[k, columns] = self.x
        self.a_log[k, columns] = self.a
        if self.adapt:
            self.jest_log[k, columns] = self.j_sig
        if self.use_filter:
            self.mean_log[k, columns] = self.filt.mean
            self.innovation_log[k, columns] = self.filt.last_innovation
            self.P_log[k, columns] = self.filt.P

    def _plant(self, step: int, scale: np.ndarray):
        spec, obj, u1, u2 = self.spec, self.obj, self.u1, self.u2
        # the table rows of the four RK4 stages, in the order rk4_step
        # calls them: step start, midpoint twice, step end
        rows = iter((2 * step, 2 * step + 1, 2 * step + 1, 2 * step + 2))

        def xdot(t, x: np.ndarray) -> np.ndarray:
            i = next(rows)
            b1, b2 = spec.coefficient_values(obj.measured(x))
            return scale * (b1 * u1[i] + b2 * u2[i])
        return xdot

    def _attempt(self, step: int, measure: bool, noise) -> tuple:
        """The new plant state, amplitudes and filter inputs of ``step``;
        raises for a failing member, with the filter left as it was."""
        dt, t0 = self.dt, self.times[step]
        scale = self.a * self.sqrt_w
        x = rk4_step(self._plant(step, scale), t0, self.x, dt)
        a = self.a
        if self.adapt:
            lam, j_held = self.lam, self.j_sig
            a = rk4_step(lambda t, a: -lam * (a - j_held), t0, a, dt)
        self.guard(x, self.times[step + 1])
        if not self.use_filter:
            return x, a, None
        weight = scale * (dt / 4.0)
        u1_acc = self.u1_acc + weight * self.u1_sums[step]
        u2_acc = self.u2_acc + weight * self.u2_sums[step]
        filt, f2 = self.filt, None
        saved = filt.snapshot()
        try:
            filt.propagate(dt)
            if measure:
                f2 = self.obj.measured(x)
                if noise is not None:
                    f2 = f2 + noise
                filt.update(f2, self.f_prev, u1_acc, u2_acc, a, self.spec)
            filt.check()
        except LieseekError:
            filt.restore(saved)
            raise
        return x, a, (u1_acc, u2_acc, f2)

    def _commit(self, step: int, measure: bool, new: tuple) -> None:
        self.x, self.a, inputs = new
        if self.use_filter:
            self.u1_acc, self.u2_acc, f2 = inputs
            if measure:
                self.f_prev = f2
                self.u1_acc = np.zeros_like(self.u1_acc)
                self.u2_acc = np.zeros_like(self.u2_acc)
            self.j_sig = self.filt.step_export()
        elif self.adapt:
            self.j_sig = self._override(self.times[step + 1])
        self._log(step + 1)

    def _drop_failing(self, step: int, measure: bool, noise,
                      exc: LieseekError) -> list:
        """Record the error of each row whose step fails when it is taken
        alone, and keep the other rows; returns their former indices."""
        if self.members.size == 1:
            failed = {0: exc}
        else:
            failed = {}
            for i in range(self.members.size):
                try:
                    self._take([i])._attempt(
                        step, measure, None if noise is None else noise[i])
                except LieseekError as err:
                    failed[i] = err
            if not failed:   # a failure of the batch, not of a member
                raise exc
        for i, err in failed.items():
            self.errors[int(self.members[i])] = err
        kept = [i for i in range(self.members.size) if i not in failed]
        self._keep(kept)
        return kept

    def run(self) -> list:
        """Each member's log, or the error that stopped it."""
        n_meas = self.filt.cfg.n_meas if self.use_filter else 1
        for step in range(self.steps):
            if step in self.ends:
                self._finish(step)
            if not self.members.size:
                break
            measure = self.use_filter and (step + 1) % n_meas == 0
            noise = self._noise() if measure and self.rngs else None
            try:
                new = self._attempt(step, measure, noise)
            except LieseekError as exc:
                kept = self._drop_failing(step, measure, noise, exc)
                if not kept:
                    break
                noise = None if noise is None else noise[_index(kept)]
                new = self._attempt(step, measure, noise)
            self._commit(step, measure, new)
        return [self._result(k) for k in range(len(self.seeds))]

    def _result(self, k: int):
        if k in self.errors:
            return self.errors[k]
        spec, grid, n = self.specs[k], self.grid_of[k], self.spec.n
        logged = slice(0, grid.steps + 1)
        x, a = self.x_log[logged, k], self.a_log[logged, k]
        try:
            f = self.obj.value(x)
            j_exact = (lbs_rhs_exact(spec, x, amplitude=a) if self.obj.has_oracle
                       else np.full(x.shape, np.nan))
        except LieseekError as exc:
            return exc
        diag = None
        if self.use_filter:
            # covariance summaries of all rows at once
            mean, P = self.mean_log[logged, k], self.P_log[logged, k]
            diag = {"x1": mean[:, :n], "x2": mean[:, n:2 * n], "x3": mean[:, -1],
                    "innovation": self.innovation_log[logged, k],
                    "trace_p": np.trace(P, axis1=1, axis2=2),
                    "min_eig_p": np.linalg.eigvalsh(P).min(axis=1)}
        meta = {"omega": spec.omega, "dt": grid.dt,
                "mode": "proposed" if self.adapt else "baseline",
                "seed": self.seeds[k]}
        return TrajectoryLog(grid.t, x, f, a, self.jest_log[logged, k], j_exact,
                             self.zref[k], diag=diag, meta=meta)


def _raised(result):
    """A run's log, or the error that stopped it, raised."""
    if isinstance(result, LieseekError):
        raise result
    return result


def run_batch(specs: Sequence[EscSystemSpec],
              gcfgs: Optional[Sequence[GekfConfig]] = None,
              seeds: Optional[Sequence[int]] = None,
              noise_std: float = 0.0) -> list:
    """Seeking runs of several members, in lockstep where they may share
    a loop.

    Without ``gcfgs`` these are constant-amplitude runs, with one filter
    configuration per member adaptive ones.  The members may come from
    any systems.  They are grouped, in order of first appearance, by
    system (:func:`_system`: objective, coefficient forms and dithers),
    and each system's references are integrated once; each system group
    is split by filter configuration but for its amplitude floor (which
    scales with a0), and each such group runs as one :class:`_Lockstep`.
    Returns, per member, the log or the :class:`LieseekError` that its
    own run raises; member k equals its own run bit for bit.
    """
    if gcfgs is not None and None in gcfgs:
        raise InputError("proposed run needs a filter configuration")
    adapt = gcfgs is not None
    members = list(zip(specs, gcfgs or [None] * len(specs),
                       seeds or [0] * len(specs), _references(specs)))
    # one loop per system and filter configuration but for its amplitude
    # floor, in which members may differ
    keys = [(_system(spec),
             None if gcfg is None else replace(gcfg, a_floor=1.0))
            for spec, gcfg, _, _ in members]
    return _by_group(keys, members, lambda group: _Lockstep(
        *zip(*group), adapt, noise_std).run())


def run_baseline(spec: EscSystemSpec) -> TrajectoryLog:
    """Constant-amplitude seeking run (persistently oscillating)."""
    return _raised(run_batch([spec])[0])


def run_proposed(spec: EscSystemSpec, gcfg: GekfConfig, seed: int = 0,
                 noise_std: float = 0.0, j_override=None) -> TrajectoryLog:
    """Adaptive-amplitude seeking run driven by the estimation filter.

    ``j_override`` replaces the filter with a fixed signal (scalar,
    vector, or callable of time); used to exercise the adaptation law in
    isolation.
    """
    if j_override is None:
        return _raised(run_batch([spec], [gcfg], [seed], noise_std)[0])
    return _raised(_Lockstep([spec], [gcfg], [seed], _references([spec]), True,
                             noise_std, j_override).run()[0])


def run_lbs(spec: EscSystemSpec,
            err: Optional[EstimationErrorModel] = None) -> TrajectoryLog:
    """Integrate the averaged system at the initial amplitudes.

    With ``err`` given the right-hand side gains the synthetic decaying
    error and the unperturbed averaged trajectory is co-logged as the
    reference.
    """
    return _raised(lbs_batch([spec], err)[0])


def lbs_batch(specs: Sequence[EscSystemSpec],
              err: Optional[EstimationErrorModel] = None) -> list:
    """Averaged-system runs (:func:`run_lbs`) of several members of any
    systems, from one integration of each system's references
    (:func:`_references`).

    Returns, per member, the log or the :class:`LieseekError` that its
    own run raises.  With ``err``, each member's perturbed system is
    integrated on its own, uncached.
    """
    out: list = []
    for spec, zref in zip(specs, _references(specs)):
        try:
            if not spec.objective.has_oracle:
                raise InputError("averaged-system run needs an oracle gradient")
            out.append(_lbs_log(spec, _raised(zref), err))
        except LieseekError as exc:
            out.append(exc)
    return out


def _lbs_log(spec: EscSystemSpec, zref_log: np.ndarray,
             err: Optional[EstimationErrorModel]) -> TrajectoryLog:
    dt = spec.resolved_dt
    a0 = spec.a0
    x_log = (zref_log.copy() if err is None
             else _raised(_averaged([spec], err)[0]))
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
