"""Golden regression of short seeking runs.

Each case runs one preset system at a short horizon in one mode and
compares x, a, Jest, Jexact and zref at the 1/4, 1/2, 3/4 and last rows
against values committed in ``golden_runs.json`` (relative 1e-10; NaN
cells must stay NaN).

Re-record only when a change is meant to move the numbers::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from conftest import shortened
from lieseek.sim import TrajectoryLog, run_baseline, run_lbs, run_proposed

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_runs.json")
# case -> (horizon, system label, omega); the case1 omega cases run on
# their own step sizes and step counts
SYSTEMS = {"case1": (10.0, None, None), "case2": (4.0, None, None),
           "case3-vehicle3": (4.0, "vehicle3", None),
           "case1-omega50": (2.0, None, 50.0),
           "case1-omega200": (2.0, None, 200.0)}
MODES = ("baseline", "proposed", "lbs")
COLUMNS = {"x": "x", "a": "a", "Jest": "j_est", "Jexact": "j_exact",
           "zref": "z_ref"}
RTOL = 1e-10


def _run(system: str, mode: str) -> TrajectoryLog:
    horizon, label, omega = SYSTEMS[system]
    sc = shortened(system.split("-")[0], horizon, label, omega)
    spec = sc.primary_system
    if mode == "baseline":
        return run_baseline(spec)
    if mode == "proposed":
        return run_proposed(spec, sc.gekf_config(), seed=0)
    return run_lbs(spec)


def _checkpoints(log: TrajectoryLog) -> dict:
    total = log.t.shape[0]
    rows = [total // 4, total // 2, 3 * total // 4, total - 1]
    out = {"rows": rows}
    for name, attr in COLUMNS.items():
        vals = getattr(log, attr)[rows]
        out[name] = [[None if np.isnan(v) else v for v in row]
                     for row in vals.tolist()]
    return out


def _as_array(cells) -> np.ndarray:
    return np.array([[np.nan if v is None else v for v in row]
                     for row in cells], dtype=float)


def record() -> None:
    golden = {f"{system}/{mode}": _checkpoints(_run(system, mode))
              for system in SYSTEMS for mode in MODES}
    cases = [f" {json.dumps(key)}: {json.dumps(val)}"
             for key, val in golden.items()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(cases) + "\n}\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("mode", MODES)
def test_run_matches_golden(golden, system, mode):
    want = golden[f"{system}/{mode}"]
    got = _checkpoints(_run(system, mode))
    assert got["rows"] == want["rows"]
    for name in COLUMNS:
        expected, actual = _as_array(want[name]), _as_array(got[name])
        np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected),
                                      err_msg=name)
        scale = np.nanmax(np.abs(expected), initial=0.0)
        np.testing.assert_allclose(actual, expected, rtol=RTOL,
                                   atol=RTOL * scale, equal_nan=True,
                                   err_msg=name)


if __name__ == "__main__":
    record()
