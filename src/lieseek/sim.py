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

All of them are one lockstep loop, :class:`_Lockstep`, whose rows are
runs of one system: adaptive seeking runs, constant-amplitude seeking
runs and averaged reference trajectories, each kind a slice of the rows.
A single run is a loop of its seeking row and its reference row.
:func:`run_batch` alone decides which members share a loop: those of one
system (:func:`_system`: coefficient forms, dithers, and the objective's
kind and whether it has a domain box), one filter configuration and, for
the filtered members, one number of steps per dither period (the
filter's smoothing window); they may differ in the objective's
parameters (stacked per row by :class:`_Objectives`), lambda, a0, x0,
omega, dt, horizon and seed.  The first loop of a system also steps its
constant-amplitude members and, as rows, its members' references, one
per distinct (objective, a0, x0, dt, horizon); ``run --mode both`` and
every sweep of the CLI are one loop.  Member k of a batch equals its own
run bit for bit, on its own time grid; a row that reaches its last step
leaves the loop, and a row that fails stops alone while the others
finish, but for the seeking runs of a failing reference, which stop with
it and return its error.  A failing plant step is pinned on its rows by
stepping each row again alone, because ``rk4_step`` raises for the whole
array; the filter steps after the plant step that it measures has passed,
and names each member that fails by position, so only the plant is ever
stepped again.  Each row's time is state of the loop, stepped by ``+ dt``
as :func:`step_times` accumulates it, so it keeps its bits.

Runs are single-threaded and bit-deterministic for a given spec and
seed; optional measurement noise draws from a per-member seeded
generator, once per measurement of that member.

The loop does only state-dependent work.  What depends on time alone is
tabulated once per time grid by :func:`_dither_tables`: every channel's
dither values at each step start and midpoint of the grid (the RK4 stage
times).  The dither sums that the filter takes each step are trapezoid
sums, on the step's two half steps, of the same table rows that the
stages read.  The seeking plant ``a*sqrt(omega)*(b1*u1 + b2*u2)`` and
the averaged right-hand side ``-nu*a0^2*grad f*(b1*(-b2') + b2*b1')``
are one bilinear form in ``(b1, b2)``, so each RK4 stage is one product
over all rows, ``(W*G)*(b1*U1 + b2*U2)`` (:meth:`_Lockstep._stage`), from one
evaluation of the measured objective and the coefficient forms; it calls
no oracle.  ``U1`` and ``U2`` are the two halves of one stacked table
``U = [U1 | U2]``, so the form is one product of the values ``[b1 | b2]``
with a row of ``U`` and one add of its halves.  The stage is a method of
the loop that reads its table row from the loop's stage count; each step
sets the seeking rows' weight and that count, and builds no closure
(:meth:`_Lockstep._plant`).  The ``f`` column and the oracle ``Jexact``
column (:func:`lbs_rhs_exact`) are each filled by one array call over a
member's logged rows after the loop, by :func:`_log`, which builds the
log of every mode.
"""

from __future__ import annotations

import copy
import math
import numbers
import os
import tempfile
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, DivergenceError, EvaluationError,
                     InputError, IntegrationError, LieseekError)
from .gekf import LOGGED, GekfConfig, GekfFilter, diagnostics
from .lie import lbs_rhs_exact
from .model import EscSystemSpec, EstimationErrorModel, ObjectiveMap, _form_terms

CSV_NAN = ""

# The loop's checks turn every non-finite value into an error of its row,
# so NumPy's floating-point warnings stay off while it steps.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


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


def _dither_tables(spec: EscSystemSpec, steps: int) -> np.ndarray:
    """Both dithers of every channel on the half steps of a run of ``spec``.

    The table ``u = [u1 | u2]`` has one column per channel and dither,
    the first dither of each of the n channels, then their second.  With
    ``t = step_times(spec)``, row ``2k`` is taken at ``t[k]``, row ``2k +
    1`` at ``t[k] + dt/2``.
    """
    dt = spec.resolved_dt
    t = step_times(spec)
    half = np.empty(2 * steps + 1)
    half[0::2] = t
    half[1::2] = t[:-1] + 0.5 * dt
    theta = spec.omega * half
    values = {ref: d.value(theta) for ref, d in spec.dithers.items()}
    return np.column_stack([values[ch.u1_ref] for ch in spec.channels]
                           + [values[ch.u2_ref] for ch in spec.channels])


def rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray], t: float,
             x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step:
    ``x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4)``, bit for bit.

    ``dt`` is one float, or a ``(rows, 1)`` column that gives each row of
    ``x`` its own step (and ``t`` is then a column of times too); each row
    gets the bits of its own step.  A ``dt`` that is not positive
    everywhere (zero, negative or NaN) raises :class:`IntegrationError`.

    The lockstep loop calls this once per step, by this module's global
    name and with four positional arguments, ``rk4_step(rhs, t, x, dt)``:
    the benchmark replaces the global to mark the first step of a command,
    and tests replace it to tell the stage's calls from the rest.
    """
    positive = dt > 0   # a bool for a float dt, an array for a column
    if positive is not True and (positive is False or not positive.all()):
        raise IntegrationError("step size must be positive", t=t)
    x = np.asarray(x, dtype=float)
    half = 0.5 * dt
    k1 = np.asarray(rhs(t, x), dtype=float)
    k2 = np.asarray(rhs(t + half, x + half * k1), dtype=float)
    k3 = np.asarray(rhs(t + half, x + half * k2), dtype=float)
    k4 = np.asarray(rhs(t + dt, x + dt * k3), dtype=float)
    # k + k is 2*k exactly, overflow included
    ksum = k1 + (k2 + k2) + (k3 + k3) + k4
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

    Columns with no defined value (the estimate columns of a baseline
    run) hold NaN in memory and serialize to empty CSV cells; the oracle
    columns are always filled.
    """

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
        return _header(_trajectory(self.n))

    def to_csv(self, path: str) -> None:
        """Write the stable-schema trajectory CSV atomically."""
        columns = (self.t, self.x, self.f, self.a, self.j_est, self.j_exact,
                   self.z_ref)
        _write_csv(path, dict(zip(_TRAJECTORY, columns)))

    def diagnostics_to_csv(self, path: str) -> None:
        if not self.diag:
            raise InputError("log carries no filter diagnostics")
        _write_csv(path, {"t": self.t, **self.diag})

    @staticmethod
    def from_csv(path: str) -> "TrajectoryLog":
        """The log of a trajectory CSV; a file that cannot be read as one
        raises :class:`ConfigurationError`."""

        def parse(cell: str) -> float:
            return float("nan") if cell == CSV_NAN else float(cell)

        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln]
            if not lines:
                raise ValueError("it is empty")
            n = (lines[0].count(",") - 1) // 5
            blocks = _trajectory(n)
            if n < 1 or lines[0] != _header(blocks):
                raise ValueError("its header is not a trajectory's")
            # a cell that is no number, or a short row, raises ValueError
            data = np.array([[parse(c) for c in ln.split(",")]
                             for ln in lines[1:]])
            widths = [math.prod(shape) for _, shape in blocks]
            if data.shape[0] < 2:
                raise ValueError(f"it has {data.shape[0]} rows, a trajectory "
                                 "needs at least two")
            if data.shape[1] != sum(widths):
                raise ValueError(f"its rows have {data.shape[1]} cells, its "
                                 f"header {sum(widths)}")
            columns = np.split(data, np.cumsum(widths[:-1]), axis=1)
            return TrajectoryLog(*(c.reshape(-1, *shape)
                                   for c, (_, shape) in zip(columns, blocks)))
        except (OSError, ValueError, InputError) as exc:
            # InputError: times that do not increase
            raise ConfigurationError(f"cannot read CSV {path}: {exc}") from exc


# The column blocks of a trajectory CSV in file order, which is the order
# of TrajectoryLog's arguments
_TRAJECTORY = ("t", "x", "f", "a", "Jest", "Jexact", "zref")


def _trajectory(n: int) -> list:
    """The column blocks of an ``n``-coordinate trajectory CSV as (name,
    row shape) pairs: ``t`` and ``f`` hold one value per row, the others
    n."""
    return [(name, () if name in ("t", "f") else (n,)) for name in _TRAJECTORY]


def _header(blocks) -> str:
    """The header line of column blocks given as (name, row shape) pairs:
    a block of shape ``()`` is the one column ``name``, a block of shape
    ``(k,)`` the columns ``name_1`` to ``name_k``."""
    return ",".join(",".join(f"{name}_{i}" for i in range(1, shape[0] + 1))
                    if shape else name for name, shape in blocks)


def _write_csv(path: str, blocks: dict) -> None:
    """Write the 1-D and 2-D arrays ``blocks``, by name, as the columns of
    a CSV file, atomically (:func:`_header`, :func:`_csv_text`)."""
    header = _header((name, b.shape[1:]) for name, b in blocks.items())
    data = np.column_stack(list(blocks.values()))
    _atomic_write(path, _csv_text(header, data))


def _csv_text(header: str, data: np.ndarray) -> str:
    """CSV text of a 2-D array: each value as its shortest round-trip repr,
    NaN as an empty cell, one line per row after ``header``."""
    lines = [header]
    for row in data:
        # repr writes "nan" only as a whole value, never inside a number
        lines.append(",".join(map(repr, row.tolist())).replace("nan", CSV_NAN))
    lines.append("")
    return "\n".join(lines)


def _unwritable(path: str, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write {path}: {exc.strerror or exc}")


def _make_dirs(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)``; a path that cannot be made a
    directory raises :class:`ConfigurationError`."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it; a
    path that cannot be written raises :class:`ConfigurationError`."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from exc
        raise


class _Objectives:
    """The objectives of a loop's rows, stacked: :class:`ObjectiveMap`'s own
    ``measured``, ``measured_at`` and ``value_at`` over each row's weights,
    centre and gradient factor (``(B, n)``) and offset (``(B,)``).  The
    rows share the kind, and all or none have a domain box
    (:func:`_system`).
    """

    value_at = ObjectiveMap.value_at
    measured = ObjectiveMap.measured
    measured_at = ObjectiveMap.measured_at

    def __init__(self, objectives: list):
        self.kind = objectives[0].kind
        self._arrays = tuple(map(np.stack, zip(*(o._arrays for o in objectives))))
        self.offset = np.array([o.offset for o in objectives])
        self.centre = self.limit = None
        if objectives[0].domain_box is not None:
            boxes = [np.asarray(o.domain_box, dtype=float) for o in objectives]
            self.centre = np.stack([box.mean(axis=1) for box in boxes])
            self.limit = np.array([10.0 * float(np.linalg.norm(b[:, 1] - b[:, 0]))
                                   for b in boxes])

    def guard(self, x: np.ndarray, t) -> None:
        """Per-step divergence check of the states ``x``, one per row, each
        against its own box; it raises for the first kind of failure found."""
        if self.centre is not None:
            d = x - self.centre
            # vecdot is each row's np.linalg.norm(d) ** 2, bit for bit; a
            # NaN or infinite row fails the comparison too
            if (np.sqrt(np.vecdot(d, d)) <= self.limit).all():
                return
        elif np.isfinite(x).all():
            return
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"state non-finite at t={t}", t_exit=t)
        raise DivergenceError(
            f"state left 10x domain-box region at t={t}", t_exit=t)


def _index(rows: Sequence[int]):
    """An index of ``rows`` along the row axis that keeps the axis: a slice
    for consecutive rows, else the list."""
    if all(b == a + 1 for a, b in zip(rows, rows[1:])):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return list(rows)


def _per_row(values: list):
    """The float that all rows share, or a ``(rows, 1)`` column of them."""
    if all(v == values[0] for v in values):
        return values[0]
    return np.array(values)[:, None]


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
    """What a loop takes from its first spec: the coefficient forms, the
    dithers, and the objective's kind and whether it has a domain box.  The
    objective's parameters are per-row data (:class:`_Objectives`)."""
    return (spec.objective.kind, spec.objective.domain_box is None,
            tuple((ch.b1, ch.b2, ch.u1_ref, ch.u2_ref) for ch in spec.channels),
            frozenset(spec.dithers.items()))


def _reference_key(spec: EscSystemSpec) -> tuple:
    """What the averaged reference of a spec of a given system depends on:
    the objective, a0, x0, dt and horizon, not lambda or omega."""
    return (spec.objective, spec.a0.tobytes(), spec.x0.tobytes(),
            spec.resolved_dt, spec.horizon)


class _Grid:
    """The time grid of the rows that share omega, dt and step count:
    step size and step count, and the dither table ``u = [u1 | u2]`` on
    it for seeking rows."""

    def __init__(self, spec: EscSystemSpec, tables: bool):
        self.dt, self.steps = spec.resolved_dt, _steps(spec)
        self.sqrt_w = math.sqrt(spec.omega)
        self.u = _dither_tables(spec, self.steps) if tables else None


class _Lockstep:
    """The runs of one system advanced in lockstep, one row per run.

    The rows are of three kinds, each a slice of the row axis, in order:

    * adaptive rows, seeking runs whose amplitudes follow the filter's
      estimate (or ``j_override``); the filter and the amplitude law act
      on this leading slice, a view;
    * constant-amplitude rows, seeking runs at a0;
    * averaged rows, the averaged (bracket) system at a0, one per distinct
      reference (:func:`_reference_key`) that the loop integrates.

    The rows share the coefficient forms, the dithers and the objective's
    kind and box or none: those of the first spec (:func:`run_batch`
    groups them).  They differ in the objective's parameters, which ``obj``
    (:class:`_Objectives`) stacks per row, and in lambda, a0, x0, omega,
    dt, horizon and seed; the filter takes its smoothing window from the
    first adaptive row, so the adaptive rows share their steps per dither
    period.  Every array operation of a step acts on each row alone, so
    each row gets the bits of a loop of that row alone.  Step k of the
    loop is step k of every row, each on its own time grid
    (:class:`_Grid`).  Each row's time ``t`` is state: it starts at 0,
    and each step adds ``dt`` (:meth:`_attempt`), the additions that
    :func:`step_times` makes.  When the rows' step sizes differ, ``dt``
    and ``t`` are ``(B, 1)`` columns; a shared step size, and a time that
    every row shares, stay floats.  The plant's tables are stacked over
    all rows.  A row leaves the loop after its last step.

    The plant's stage (:meth:`_stage`) is one product over all rows, from
    one evaluation of the measured objective and the coefficient forms.
    Its per-row factors are set by :meth:`_regrid` and, where they change,
    per step and per stage.  Its table ``U = [U1 | U2]``, of shape
    ``(2*steps + 1, rows, 2n)``, holds the seeking rows' dithers and the
    averaged rows' form slopes; ``U1`` and ``U2`` are views of its halves.
    It is the one copy of the dithers: the dither sums that the filter's
    step takes are the trapezoid sums, on the step's two half steps, of
    its rows ``2k``, ``2k + 1`` and ``2k + 2``; the filter sums them over
    its measurement window.
    :meth:`_plant` sets the stage up for each step and returns it bound;
    the loop does not keep the bound method, which would make a reference
    cycle and keep the loop's logs alive after :meth:`run` until the
    cyclic collector runs.  The amplitude law steps
    every row; on the rows that do not adapt the estimate stays 0 and the
    decay factor 1, so their amplitudes keep their bits.

    One step is the plant's fallible part, :meth:`_attempt`, that commits
    nothing, and :meth:`_commit`.  When the attempt fails, each row
    attempts the plant step alone, on a one-row copy (:meth:`_take`)
    whose ``check`` turns on the plant's check of b0; those that fail
    record their error and stop (:meth:`_stop`), and so do the seeking
    rows whose averaged row fails; the others take the step together.
    Only the plant is replayed: its checks raise for all rows at once,
    and the filter has nothing to do until the plant step that it
    measures has passed.  So the filter takes one step
    (:meth:`GekfFilter.step`) in :meth:`_commit`, where each member draws
    its noise only when the filter measures it (:meth:`_measured`), its
    arrays are replaced once per step and never undone, and the step
    names each member whose state turned non-finite, or whose b0 at its
    held sample did; those members stop alone, and no row steps again.
    A seeking run whose reference fails returns that error, whenever its
    own row stopped.
    """

    check = False   # the plant's check of b0, on in a replay's copies

    def __init__(self, specs: Sequence[EscSystemSpec],
                 gcfgs: Sequence[Optional[GekfConfig]], seeds: Sequence[int],
                 noise_std: float = 0.0, averaged: Sequence = (),
                 refs: Optional[dict] = None, j_override=None,
                 err: Optional[EstimationErrorModel] = None):
        """Member k of ``specs`` is a seeking run, adaptive with the filter
        configuration ``gcfgs[k]``, or at constant amplitude where that is
        None.  The loop integrates the reference of each member and of each
        spec of ``averaged``, but for those that ``refs`` holds already, by
        :func:`_reference_key`: the trajectories or errors of an earlier
        loop.  ``err`` adds the synthetic estimation error to the averaged
        rows' right-hand side.
        """
        self.spec = spec = [*specs, *averaged][0]
        self.n = n = spec.n
        order = sorted(range(len(specs)), key=lambda k: gcfgs[k] is None)
        self.m0, self.s0 = sum(g is not None for g in gcfgs), len(specs)
        self.member_rows = [order.index(k) for k in range(self.s0)]
        self.refs = {} if refs is None else refs
        integrated: dict = {}
        for s in (*specs, *averaged):
            if _reference_key(s) not in self.refs:
                integrated.setdefault(_reference_key(s), s)
        self.specs = [specs[k] for k in order] + list(integrated.values())
        self.keys = [_reference_key(s) for s in self.specs]   # per row
        # members whose reference failed stop before their first step
        self.errors: dict[int, LieseekError] = {
            r: self.refs[key] for r, key in enumerate(self.keys[:self.s0])
            if isinstance(self.refs.get(key), LieseekError)}
        self.seeds = [seeds[k] for k in order]
        adaptive = [gcfgs[k] for k in order[:self.m0]]
        self.rngs = ([np.random.default_rng(seed) for seed in self.seeds[:self.m0]]
                     if noise_std > 0 else None)
        self.noise_std, self.j_override, self.err = noise_std, j_override, err
        self.use_filter = bool(adaptive) and j_override is None
        size = len(self.specs)

        # one grid per distinct (omega, dt, steps), where the averaged rows
        # have no omega; grid_of[r] is row r's, and the lowest row of a
        # group tells which kinds read it
        self.grid_of = _by_group(
            [(s.omega if r < self.s0 else None, s.resolved_dt, _steps(s))
             for r, s in enumerate(self.specs)], range(size),
            lambda rows: [_Grid(self.specs[rows[0]], rows[0] < self.s0)]
            * len(rows))
        self.steps = max(g.steps for g in self.grid_of)
        self.ends = {g.steps for g in self.grid_of} - {self.steps}

        # the set-up's overflows, like the steps', are errors of their rows
        with np.errstate(**_QUIET):
            # per-row state; row i of the arrays is row members[i] of the loop
            self.members = np.arange(size)
            self.decay = np.stack([s.amplitude_decay for s in self.specs])
            self.decay[self.m0:] = 1.0   # constant-amplitude and averaged rows
            self.x = np.stack([s.x0 for s in self.specs])
            self.a = np.stack([s.a0 for s in self.specs])
            self.j_sig = np.zeros(self.x.shape)
            self.filt = None
            self.t = 0.0
            self._regrid()
            total = self.steps + 1
            self.x_log, self.a_log, self.jest_log = (
                np.empty((total, rows, n)) for rows in (size, self.m0, self.m0))
            if self.use_filter:
                self.filt = GekfFilter(adaptive[0], self.specs[0],
                                       self._measured(), self.a[:self.m0])
                # per step, what *_gekf.csv is made from
                self.filter_logs = {
                    name: np.empty((total,) + getattr(self.filt, name).shape)
                    for name in LOGGED}
            elif adaptive:
                self.j_sig[:self.m0] = self._override(0.0)
            if self.errors:
                self._keep([r for r in range(size) if r not in self.errors])
            if self.members.size:
                self._log(0)

    def _regrid(self) -> None:
        """Set the row counts of the kinds and, for the current rows, the
        step sizes, the time (a float where the rows' times agree),
        objectives, the factors and tables of the stage (:meth:`_plant`)
        and the log columns."""
        rows = self.members
        self.m, self.s = (int(np.searchsorted(rows, end))
                          for end in (self.m0, self.s0))
        s, n = self.s, self.n
        grids = [self.grid_of[r] for r in rows]
        self.obj = _Objectives([self.specs[r].objective for r in rows])
        self.dt = _per_row([g.dt for g in grids])
        self.t = _per_row(np.ravel(self.t).tolist())
        seeking, adaptive = grids[:s], grids[:self.m]
        # any float without seeking rows, so that W[:0] is set alike
        self.sqrt_w = _per_row([g.sqrt_w for g in seeking] or [1.0])
        if adaptive:
            self.dt_a = _per_row([g.dt for g in adaptive])
            self.acols = _index(rows[:self.m])   # their adaptive log columns
        # W: a * sqrt(omega) on the seeking rows, set per step, and the
        # bracket weight on the averaged rows; G: 1 on the seeking rows,
        # and the averaged rows' gradient, set per stage
        self.W, self.G = np.empty(self.x.shape), np.ones(self.x.shape)
        self.W[s:] = self.spec.bracket_weight(self.a[s:])
        # U = [U1 | U2], one row per half step: the seeking rows' dither
        # tables, padded with zeros that are never read, and (-b2', b1') on
        # the averaged rows: constant for linear forms, else set per stage
        self.U = np.zeros((2 * self.steps + 1, rows.size, 2 * n))
        self.U1, self.U2 = self.U[..., :n], self.U[..., n:]
        for r, g in enumerate(seeking):
            self.U[:len(g.u), r] = g.u
        _, slope = self.spec.form_terms(np.zeros(1))
        if slope.ndim == 1:   # linear forms' slopes, one (2n,) row
            self.U1[:, s:], self.U2[:, s:] = -slope[n:], slope[:n]
        # what the stage reads of the objectives: every row's centre, and
        # the averaged rows' gradient factor and gradient (G's view)
        self.centre = self.obj._arrays[1]
        self.factor, self.gradient = self.obj._arrays[2][s:], self.G[s:]
        self.columns = _index(rows)

    def _measured(self) -> np.ndarray:
        """Each adaptive row's measured objective, plus a noise draw of
        its generator when there is noise."""
        f = self.obj.measured(self.x)[:self.m]
        if self.rngs:
            f = f + np.array([rng.normal(0.0, self.noise_std)
                              for rng in self.rngs])
        return f

    def _override(self, t: float):
        return self.j_override(t) if callable(self.j_override) else self.j_override

    def _take(self, rows: list) -> "_Lockstep":
        """A copy that holds only the plant and the time of the rows
        ``rows`` (positions among the current rows), and no filter."""
        out = copy.copy(self)
        index = _index(rows)
        for name in ("decay", "x", "a", "j_sig"):
            setattr(out, name, getattr(self, name)[index])
        if np.ndim(self.t):
            out.t = self.t[index]
        out.members = self.members[rows]
        out.filt = out.rngs = None
        out._regrid()
        return out

    def _keep(self, rows: list) -> None:
        """Keep only the rows ``rows``, with their filter members."""
        if not rows:
            self.members = self.members[:0]
            return
        self.U = self.U1 = self.U2 = None   # free the old tables before the new
        out, adaptive = self._take(rows), [i for i in rows if i < self.m]
        if adaptive and self.filt is not None:
            out.filt = self.filt.take(_index(adaptive))
            out.rngs = self.rngs and [self.rngs[i] for i in adaptive]
        vars(self).update(vars(out))

    def _finish(self, step: int) -> None:
        """Let the rows whose last step is ``step`` leave the loop."""
        self._keep([i for i, r in enumerate(self.members)
                    if self.grid_of[r].steps > step])

    def _log(self, k: int) -> None:
        self.x_log[k, self.columns] = self.x
        if self.m:
            self.a_log[k, self.acols] = self.a[:self.m]
            self.jest_log[k, self.acols] = self.j_sig[:self.m]
        if self.filt is not None:
            for name, log in self.filter_logs.items():
                log[k, self.acols] = getattr(self.filt, name)

    def _plant(self, step: int):
        """The right-hand side of every row at the stages of ``step``: the
        loop's stage method (:meth:`_stage`), bound and set up for the step.

        It sets ``W[:s] = a[:s] * sqrt(omega)``, the seeking rows' weight,
        and the stage count from which the stage reads its table rows.
        Where the loop's ``check`` is on, a non-finite b0 of an averaged
        row raises :class:`EvaluationError`, as its evaluation by the
        oracle does.
        """
        self.W[:self.s] = self.a[:self.s] * self.sqrt_w
        self.stage_count = 4 * step
        return self._stage

    def _stage(self, t, x: np.ndarray) -> np.ndarray:
        """One RK4 stage of every row, one product for all rows:
        ``(W * G) * (b1 * U1 + b2 * U2)``.

        Stage ``j`` of step ``k`` (``stage_count = 4k + j``, in the order
        rk4_step calls them) reads table row ``2k + (j + 1) // 2``: the
        step start, the midpoint twice, the step end.  The values ``[b1 |
        b2]`` of the coefficient forms times that row of ``U = [U1 | U2]``
        is one product, and the sum of its halves is the bilinear form.

        On a seeking row, ``W`` is ``a * sqrt(omega)``, ``G`` is 1 and
        ``U1``, ``U2`` are its dither tables: the plant ``a * sqrt(omega)
        * (b1 * u1 + b2 * u2)``.  On an averaged row, ``W`` is the bracket
        weight ``-nu * a0^2``, ``G`` the gradient of the measured
        objective, from the ``d = x - c`` of its value, and ``(U1, U2) =
        (-b2', b1')``, set here where the slopes vary: its product is
        :func:`lbs_rhs_exact`, ``weight * grad * b0`` with ``b0 = b2 * b1'
        - b1 * b2'``, bit for bit, and ``err`` adds the synthetic error.
        The stage raises nothing unless ``check`` is on: a non-finite b0
        poisons its row, so ``rk4_step``'s check finds it.
        """
        count, s, n = self.stage_count, self.s, self.n
        self.stage_count = count + 1
        i = (count + 1) // 2
        d = x - self.centre
        f = self.obj.measured_at(d)
        value, slope = _form_terms(*self.spec._stacked_forms, f[:, None])
        np.multiply(self.factor, d[s:], out=self.gradient)
        if slope.ndim > 1:   # slopes that vary with f
            np.negative(slope[s:, n:], out=self.U1[i, s:])
            self.U2[i, s:] = slope[s:, :n]
        terms = value * self.U[i]
        terms = terms[:, :n] + terms[:, n:]
        if self.check and not np.isfinite(terms[s:]).all():
            raise EvaluationError("b0 evaluation non-finite", value=f[s:])
        out = (self.W * self.G) * terms
        if self.err is not None:
            out[s:] += self.err.value(t)
        return out

    def _attempt(self, step: int) -> tuple:
        """The new states, amplitudes and time of ``step``; raises for a
        failing row."""
        start, end = self.t, self.t + self.dt
        x = rk4_step(self._plant(step), start, self.x, self.dt)
        a, j = self.a, self.j_sig
        if self.m:
            a = j + (a - j) * self.decay
            if not np.isfinite(a).all():
                raise IntegrationError(f"non-finite amplitude at t={start}",
                                       t=start)
        self.obj.guard(x, end)
        return x, a, end

    def _commit(self, step: int, new: tuple) -> None:
        """Take the step that every row has passed, and then the filter's
        step; a member whose filter state turns non-finite stops alone."""
        self.x, self.a, self.t = new
        m, end = self.m, self.t
        if self.filt is not None:
            # a * sqrt(omega) * dt/4 times each dither's trapezoid sum on the
            # two half steps, from the table rows of the step's stages viewed
            # as (rows, 2, n)
            weight = (self.W[:m] * (self.dt_a / 4.0))[:, None]
            u = self.U[2 * step:2 * step + 3, :m].reshape(3, m, 2, self.n)
            # the export of a member that stops here is never read
            self.j_sig[:m], failed = self.filt.step(
                self.dt_a, end if isinstance(end, float) else end[:m],
                weight * (u[0] + 2.0 * u[1] + u[2]), self.a[:m], self._measured)
            if failed:
                self._stop(failed)
        elif m:
            self.j_sig[:m] = self._override(end)
        self._log(step + 1)

    def _drop_failing(self, step: int, exc: LieseekError) -> bool:
        """Stop each row whose plant step fails when it is taken alone
        (:meth:`_stop`); returns whether any row is left.  A row attempts
        the step on a copy with the plant's check of b0 on, so it raises
        what the oracle's evaluation raises: :class:`EvaluationError` for a
        non-finite b0 of an averaged row at any stage, else the error of
        the first non-finite stage."""
        failed = {}
        for i in range(self.members.size):
            row = self._take([i])
            row.check = True
            try:
                row._attempt(step)
            except LieseekError as err:
                failed[i] = err
        if not failed:   # a failure of the loop, not of a row
            raise exc
        self._stop(failed)
        return self.members.size > 0

    def _stop(self, failed: dict) -> None:
        """Record the error of each row in ``failed`` (positions among the
        current rows) and of each seeking row whose averaged row is among
        them, and keep the other rows."""
        rows = self.members.tolist()
        stopped = {self.keys[rows[i]]: err for i, err in failed.items()
                   if rows[i] >= self.s0}
        for i, r in enumerate(rows):
            if self.keys[r] in stopped:
                failed.setdefault(i, stopped[self.keys[r]])
        self.errors.update({rows[i]: err for i, err in failed.items()})
        self._keep([i for i in range(len(rows)) if i not in failed])

    def run(self) -> list:
        """Each member's log, or the error that stopped it; ``refs`` then
        holds every reference, by :func:`_reference_key`."""
        with np.errstate(**_QUIET):
            for step in range(self.steps):
                if step in self.ends:
                    self._finish(step)
                if not self.members.size:
                    break
                try:
                    new = self._attempt(step)
                except LieseekError as exc:
                    if not self._drop_failing(step, exc):
                        break
                    new = self._attempt(step)
                self._commit(step, new)
            for r in range(self.s0, len(self.specs)):
                z = self.x_log[:self.grid_of[r].steps + 1, r]
                z.flags.writeable = False
                self.refs[self.keys[r]] = self.errors.get(r, z)
            # the summaries read logs that may hold overflowing values
            return [self._result(r) for r in self.member_rows]

    def _result(self, r: int):
        """The log of the seeking run of row r, or the error that stopped
        it: its reference's, if that failed."""
        zref = self.refs[self.keys[r]]
        if isinstance(zref, LieseekError):
            return zref
        if r in self.errors:
            return self.errors[r]
        logged = slice(0, self.grid_of[r].steps + 1)
        a = j_est = diag = None
        if r < self.m0:
            a, j_est = self.a_log[logged, r], self.jest_log[logged, r]
        if r < self.m0 and self.use_filter:
            diag = diagnostics(*(log[logged, r]
                                 for log in self.filter_logs.values()))
        try:
            return _log(self.specs[r], self.x_log[logged, r], zref,
                        "proposed" if r < self.m0 else "baseline",
                        self.seeds[r], a, j_est, diag)
        except LieseekError as exc:
            return exc


def _raised(result):
    """A run's log, or the error that stopped it, raised."""
    if isinstance(result, LieseekError):
        raise result
    return result


def _check_noise(noise_std: float, seeds: Sequence) -> None:
    """Raise :class:`InputError` for a noise level that is not a finite
    non-negative number or, with noise on, a seed that is not a
    non-negative integer (a noise-free run never reads its seed); a bool
    is neither."""
    if isinstance(noise_std, bool) or not (
            isinstance(noise_std, numbers.Real) and math.isfinite(noise_std)
            and noise_std >= 0):
        raise InputError(f"noise_std must be finite and non-negative, "
                         f"not {noise_std!r}")
    for seed in seeds if noise_std > 0 else ():
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral)
                                          and seed >= 0):
            raise InputError(f"seed must be a non-negative integer when "
                             f"noise_std > 0, not {seed!r}")


def run_batch(specs: Sequence[EscSystemSpec],
              gcfgs: Optional[Sequence[Optional[GekfConfig]]] = None,
              seeds: Optional[Sequence[int]] = None,
              noise_std: float = 0.0) -> list:
    """Seeking runs of several members, in lockstep where they may share
    a loop.

    Member k is an adaptive run with the filter configuration
    ``gcfgs[k]``, or a constant-amplitude run where that entry is None (or
    ``gcfgs`` is); ``gcfgs`` and ``seeds``, when given, hold one entry per
    spec, else :class:`InputError` is raised, as it is for a bad
    ``noise_std`` or seed (:func:`_check_noise`).  The members may come from
    any systems, and this is the one place that decides which of them
    share a loop.  They are grouped, in order of first appearance, by
    system (:func:`_system`: coefficient forms, dithers, and the
    objective's kind and whether it has a domain box), so members that
    differ only in the objective's parameters share a loop.  A system's
    filtered members run as one :class:`_Lockstep` per filter
    configuration and number of steps per dither period (the filter's
    smoothing window): the first also steps the constant-amplitude
    members and, as rows, the references of all the system's members,
    which the others read.  Returns, per member, the log
    or the :class:`LieseekError` that its own run raises; member k equals
    its own run bit for bit.
    """
    if any(v is not None and len(v) != len(specs) for v in (gcfgs, seeds)):
        raise InputError("run_batch needs one filter configuration and one "
                         "seed per spec, or none")
    seeds = seeds or [0] * len(specs)
    _check_noise(noise_std, seeds)
    members = list(zip(specs, gcfgs or [None] * len(specs), seeds))
    return _by_group([_system(spec) for spec in specs], members,
                     lambda group: _system_runs(group, noise_std))


def _system_runs(members: list, noise_std: float) -> list:
    """The runs of ``members`` (spec, filter configuration or None, seed)
    of one system, by :func:`run_batch`'s loops."""
    keys = [None if g is None else (g, spec.steps_per_period)
            for spec, g, _ in members]
    first = next((key for key in keys if key is not None), None)
    specs, refs = [spec for spec, _, _ in members], {}
    return _by_group([first if key is None else key for key in keys], members,
                     lambda group: _Lockstep(
                         *zip(*group), noise_std, refs=refs,
                         averaged=() if refs else specs).run())


def _references(specs: Sequence[EscSystemSpec],
                err: Optional[EstimationErrorModel] = None) -> list:
    """The averaged trajectory of each of ``specs``, members of one system,
    read-only, or the error that its integration raises: each distinct
    reference is a row of one loop.  ``err`` adds the synthetic estimation
    error to the right-hand side."""
    refs: dict = {}
    _Lockstep([], [], [], averaged=specs, refs=refs, err=err).run()
    return [refs[_reference_key(spec)] for spec in specs]


def run_baseline(spec: EscSystemSpec) -> TrajectoryLog:
    """Constant-amplitude seeking run (persistently oscillating)."""
    return _raised(run_batch([spec])[0])


def run_proposed(spec: EscSystemSpec, gcfg: GekfConfig, seed: int = 0,
                 noise_std: float = 0.0, j_override=None) -> TrajectoryLog:
    """Adaptive-amplitude seeking run driven by the estimation filter.

    ``j_override`` replaces the filter with a fixed signal (scalar,
    vector, or callable of time); used to exercise the adaptation law in
    isolation.  A bad ``noise_std`` or seed raises :class:`InputError`
    (:func:`_check_noise`).
    """
    _check_noise(noise_std, [seed])
    return _raised(_Lockstep([spec], [gcfg], [seed], noise_std,
                             j_override=j_override).run()[0])


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
    systems, from one loop per system that integrates each distinct
    reference once (:func:`_references`).

    Returns, per member, the log or the :class:`LieseekError` that its
    own run raises.  With ``err``, each member's perturbed system is
    integrated in a loop of its own.
    """
    out: list = []
    refs = _by_group([_system(spec) for spec in specs], specs, _references)
    for spec, zref in zip(specs, refs):
        try:
            zref = _raised(zref)
            x = zref if err is None else _raised(_references([spec], err)[0])
            out.append(_log(spec, x.copy(), zref, "lbs", err=err))
        except LieseekError as exc:
            out.append(exc)
    return out


def _log(spec: EscSystemSpec, x: np.ndarray, zref: np.ndarray, mode: str,
         seed: int = 0, a: Optional[np.ndarray] = None,
         j_est: Optional[np.ndarray] = None, diag: Optional[dict] = None,
         err: Optional[EstimationErrorModel] = None) -> TrajectoryLog:
    """The log of a run of ``spec`` with the states ``x`` on its step times,
    its ``f`` and oracle ``Jexact`` columns filled by one array call each.

    ``a`` defaults to a0 on every row; ``j_est`` to no estimate, or, with
    ``err``, to the oracle plus the synthetic estimation error.
    """
    t = step_times(spec)
    if a is None:   # the amplitudes stay at a0
        a = np.tile(spec.a0, (x.shape[0], 1))
    f = spec.objective.value(x)
    j_exact = lbs_rhs_exact(spec, x, amplitude=a)
    if j_est is None:
        j_est = (np.full(a.shape, np.nan) if err is None else
                 j_exact + np.array([[err.value(s)] for s in t.tolist()]))
    meta = {"omega": spec.omega, "dt": spec.resolved_dt, "mode": mode,
            "seed": seed}
    return TrajectoryLog(t, x, f, a, j_est, j_exact, zref, diag=diag,
                         meta=meta)
