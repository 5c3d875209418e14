"""Span tracing of one lieseek CLI run, installed from outside the package.

The tracer replaces the names that lieseek's own callers look up (module
globals and class attributes) with wrappers that time each call, so no
file of the package changes.  Spans are kept in memory, one stack per
thread (``sweep --jobs 2`` runs points on threads), and written once
when the run ends.  A span's self time is its duration minus the
durations of the spans it directly encloses on the same thread.

:func:`layer_metrics` turns a written trace into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

# (module, class or None, attribute, span name).  Each attribute is the
# one the calling code resolves at call time, e.g. ``lieseek.sim.rk4_step``
# rather than the definition it was imported from.
TARGETS = (
    ("lieseek.cli", None, "preset", "scenarios.preset"),
    ("lieseek.cli", None, "Scenario", "scenarios.preset"),
    ("lieseek.model", None, "nu_coefficient", "model.nu_coefficient"),
    ("lieseek.cli", None, "execute_run", "cli.execute_run"),
    ("lieseek.cli", None, "run_baseline", "sim.run"),
    ("lieseek.cli", None, "run_proposed", "sim.run"),
    ("lieseek.cli", None, "run_lbs", "sim.run"),
    ("lieseek.sim", None, "rk4_step", "sim.rk4_step"),
    ("lieseek.sim", None, "lbs_rhs_exact", "lie.lbs_rhs_exact"),
    ("lieseek.gekf", None, "measurement_coefficients",
     "gekf.measurement_coefficients"),
    ("lieseek.gekf", "GekfFilter", "propagate", "gekf.propagate"),
    ("lieseek.gekf", "GekfFilter", "update", "gekf.update"),
    ("lieseek.gekf", "GekfFilter", "step_export", "gekf.step_export"),
    ("lieseek.gekf", "GekfFilter", "min_eigenvalue", "gekf.min_eigenvalue"),
    ("lieseek.sim", "TrajectoryLog", "to_csv", "sim.to_csv"),
    ("lieseek.sim", "TrajectoryLog", "diagnostics_to_csv",
     "sim.diagnostics_to_csv"),
    ("lieseek.sim", "TrajectoryLog", "from_csv", "sim.from_csv"),
    ("lieseek.analysis", None, "compare", "analysis.compare"),
    ("lieseek.analysis", None, "metrics", "analysis.metrics"),
    ("lieseek.analysis", None, "check_bound", "analysis.check_bound"),
    ("lieseek.analysis", None, "check_b2", "analysis.check_b2"),
)

# Spans whose second positional argument (after ``self``) is the path of
# a file the call writes; its size is added to ``<span>.bytes``.
WRITES_PATH = ("sim.to_csv", "sim.diagnostics_to_csv")

SPAN_FIELDS = ("name", "thread", "depth", "start", "end", "self")


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.bytes: dict[str, int] = {}
        self.points: list[tuple[int, float, float]] = []
        self.sweeps: list[tuple[float, float]] = []
        self.missing: list[str] = []
        self._bytes_lock = threading.Lock()
        self._local = threading.local()
        self._open_point: dict[int, float] = {}
        self._last_end: dict[int, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records one span."""
        nid = self._name_id(name)
        local, spans, last_end = self._local, self.spans, self._last_end
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tid = ident()
                last_end[tid] = t1
                spans.append((nid, tid, len(stack), t0, t1, dur - child[0]))

        if name in WRITES_PATH:
            def traced_write(*args, **kwargs):
                out = traced(*args, **kwargs)
                size = os.path.getsize(args[1])
                with self._bytes_lock:
                    self.bytes[name] = self.bytes.get(name, 0) + size
                return out
            return functools.wraps(fn)(traced_write)
        return functools.wraps(fn)(traced)

    # Sweep points are closures inside ``cmd_sweep``, so they cannot be
    # wrapped.  A point opens when ``one_point`` calls ``_apply_overrides``
    # and closes at the end of the last span its thread recorded before
    # the thread's next point or the end of the sweep.
    def _close_point(self, tid: int) -> None:
        start = self._open_point.pop(tid, None)
        if start is not None:
            self.points.append((tid, start, self._last_end.get(tid, start)))

    def wrap_apply_overrides(self, fn):
        def traced(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "one_point":
                tid = threading.get_ident()
                self._close_point(tid)
                self._open_point[tid] = time.perf_counter()
            return fn(*args, **kwargs)
        return functools.wraps(fn)(traced)

    def wrap_sweep(self, fn):
        def traced(*args, **kwargs):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sweeps.append((time.perf_counter() - w0,
                                    time.process_time() - c0))
                for tid in list(self._open_point):
                    self._close_point(tid)
        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        for module_name, cls_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{cls_name or ''}.{attr}")
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))
        cli = importlib.import_module("lieseek.cli")
        for attr, wrapper in (("_apply_overrides", self.wrap_apply_overrides),
                              ("cmd_sweep", self.wrap_sweep)):
            if hasattr(cli, attr):
                setattr(cli, attr, wrapper(getattr(cli, attr)))
            else:
                self.missing.append(f"lieseek.cli.{attr}")

    def dump(self) -> tuple[dict, list[tuple]]:
        """JSON-ready metadata and the span rows, threads numbered from 0."""
        threads: dict[int, int] = {}
        rows = [(nid, threads.setdefault(tid, len(threads)), depth, t0, t1, s)
                for nid, tid, depth, t0, t1, s in self.spans]
        points = [(threads.setdefault(tid, len(threads)), t0, t1)
                  for tid, t0, t1 in self.points]
        meta = {"names": self.names, "fields": SPAN_FIELDS,
                "bytes": self.bytes, "points": points, "sweeps": self.sweeps,
                "missing": self.missing}
        return meta, rows


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(meta: dict, rows, t_spawn: float, marks: dict,
                  steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``t_spawn`` is the monotonic clock reading taken just before the
    process was started; ``marks`` holds the process's own readings
    (``imported``, ``main_end``); ``steps`` is the number of simulated
    steps read from its output files.
    """
    names = meta["names"]
    calls = {n: 0 for n in names}
    total = {n: 0.0 for n in names}
    self_s = {n: 0.0 for n in names}
    top = []
    for nid, _thread, depth, t0, t1, s in rows:
        name = names[int(nid)]
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += s
        if depth == 0:
            top.append((t0, t1))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def get(table, name):
        return table.get(name, 0)

    wall = marks["main_end"] - t_spawn
    import_s = marks["imported"] - t_spawn
    run_s = get(total, "sim.run")
    points = meta["points"]
    sweep_wall = sum(w for w, _ in meta["sweeps"])
    sweep_cpu = sum(c for _, c in meta["sweeps"])
    updates = get(calls, "gekf.update")
    accounted = _union_length(top + [(t_spawn, marks["imported"])])
    return {
        "setup.import_s": import_s,
        "scenarios.preset_s": get(total, "scenarios.preset"),
        "scenarios.preset.calls": get(calls, "scenarios.preset"),
        "model.nu_coefficient_s": get(total, "model.nu_coefficient"),
        "model.nu_coefficient.calls": get(calls, "model.nu_coefficient"),
        "sim.run_s": run_s,
        "sim.run.calls": get(calls, "sim.run"),
        "sim.steps": steps,
        "sim.us_per_step": ratio(run_s * 1e6, steps),
        "sim.loop_self_s": get(self_s, "sim.run"),
        "sim.rk4_step.self_s": get(self_s, "sim.rk4_step"),
        "sim.rk4_step.calls": get(calls, "sim.rk4_step"),
        "sim.rk4_step.calls_per_step": ratio(get(calls, "sim.rk4_step"), steps),
        "lie.lbs_rhs_exact_s": get(total, "lie.lbs_rhs_exact"),
        "lie.lbs_rhs_exact.calls": get(calls, "lie.lbs_rhs_exact"),
        "lie.lbs_rhs_exact.calls_per_step":
            ratio(get(calls, "lie.lbs_rhs_exact"), steps),
        "gekf.propagate_s": get(total, "gekf.propagate"),
        "gekf.propagate.calls": get(calls, "gekf.propagate"),
        "gekf.update_s": get(total, "gekf.update"),
        "gekf.update.calls": updates,
        "gekf.measurement_coefficients.calls":
            get(calls, "gekf.measurement_coefficients"),
        "gekf.measurement_coefficients.calls_per_update":
            ratio(get(calls, "gekf.measurement_coefficients"), updates),
        "gekf.step_export_s": get(total, "gekf.step_export"),
        "gekf.min_eigenvalue_s": get(total, "gekf.min_eigenvalue"),
        "sim.to_csv_s": get(total, "sim.to_csv"),
        "sim.to_csv.bytes": meta["bytes"].get("sim.to_csv", 0),
        "sim.diagnostics_to_csv_s": get(total, "sim.diagnostics_to_csv"),
        "sim.from_csv_s": get(total, "sim.from_csv"),
        "sim.from_csv.calls": get(calls, "sim.from_csv"),
        "analysis.compare_s": get(total, "analysis.compare"),
        "analysis.check_bound_s": get(total, "analysis.check_bound"),
        "analysis.check_b2_s": get(total, "analysis.check_b2"),
        "cli.execute_run.self_s": get(self_s, "cli.execute_run"),
        "cli.sweep.point_s": ratio(sum(t1 - t0 for _, t0, t1 in points),
                                   len(points)),
        "cli.sweep.cpu_per_wall": ratio(sweep_cpu, sweep_wall),
        "trace.wall_s": wall,
        "trace.accounted_share": ratio(accounted, wall),
    }
