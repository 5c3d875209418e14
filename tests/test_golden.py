"""Golden regression of short seeking runs.

Each case runs one preset system at a short horizon in one mode and
compares x, a, Jest, Jexact and zref at the 1/4, 1/2, 3/4 and last rows
against values committed in ``golden_runs.json`` (relative 1e-10; NaN
cells must stay NaN).  The baseline and proposed runs of each system are
checked once more as two rows of one ``run_batch`` loop.  Case1 and
case2 also have a seeded noisy proposed run (mode ``proposed-noisy``),
its measurement noise at ``sqrt(r)`` of the presets' filter.

Re-record a record only when a change is meant to move its numbers, by
its key (``system/mode``, such as ``case1/proposed``); a key that the
file lacks is added at its end, and every other record keeps its line
byte for byte::

    PYTHONPATH=src python tests/test_golden.py KEY...
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from conftest import shortened
from lieseek.sim import (TrajectoryLog, run_baseline, run_batch, run_lbs,
                         run_proposed)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_runs.json")
# case -> (horizon, system label, omega); the case1 omega cases run on
# their own step sizes and step counts
SYSTEMS = {"case1": (10.0, None, None), "case2": (4.0, None, None),
           "case3-vehicle3": (4.0, "vehicle3", None),
           "case1-omega50": (2.0, None, 50.0),
           "case1-omega200": (2.0, None, 200.0)}
MODES = ("baseline", "proposed", "lbs")
NOISY = ("case1", "case2")
NOISE_SEED, NOISE_STD = 3, 0.0173
COLUMNS = {"x": "x", "a": "a", "Jest": "j_est", "Jexact": "j_exact",
           "zref": "z_ref"}
RTOL = 1e-10
# every record's key, system/mode
KEYS = ([f"{system}/{mode}" for system in SYSTEMS for mode in MODES]
        + [f"{system}/proposed-noisy" for system in NOISY])


def _run(system: str, mode: str) -> TrajectoryLog:
    horizon, label, omega = SYSTEMS[system]
    sc = shortened(system.split("-")[0], horizon, label, omega)
    spec = sc.primary_system
    if mode == "baseline":
        return run_baseline(spec)
    if mode == "proposed":
        return run_proposed(spec, sc.gekf_config(), seed=0)
    if mode == "proposed-noisy":
        return run_proposed(spec, sc.gekf_config(), seed=NOISE_SEED,
                            noise_std=NOISE_STD)
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


def _lines(path: str) -> dict:
    """The golden file's record lines by key: one record per line between
    ``{`` and ``}``, without the separating comma."""
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n")[1:-2]
    lines = {}
    for line in body:
        line = line.removesuffix(",")
        lines[next(iter(json.loads("{" + line + "}")))] = line
    return lines


def _write(path: str, lines: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines.values()) + "\n}\n")


def record(keys, path: str = GOLDEN) -> None:
    """Re-record the records ``keys`` of the golden file at ``path``, or
    add those it lacks at its end; every other line is written as it was."""
    lines = _lines(path)
    for key in keys:
        record = _checkpoints(_run(*key.split("/")))
        lines[key] = f" {json.dumps(key)}: {json.dumps(record)}"
    _write(path, lines)


def main(argv) -> int:
    """Re-record the records named in ``argv``; without a name, or with
    an unknown one, print the usage and write nothing."""
    unknown = [key for key in argv if key not in KEYS]
    if not argv or unknown:
        print("usage: PYTHONPATH=src python tests/test_golden.py KEY...\n"
              + (f"unknown keys {unknown}; " if unknown else "")
              + f"keys: {' '.join(KEYS)}", file=sys.stderr)
        return 2
    record(argv)
    return 0


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _assert_matches(want: dict, log: TrajectoryLog) -> None:
    got = _checkpoints(log)
    assert got["rows"] == want["rows"]
    for name in COLUMNS:
        expected, actual = _as_array(want[name]), _as_array(got[name])
        np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected),
                                      err_msg=name)
        scale = np.nanmax(np.abs(expected), initial=0.0)
        np.testing.assert_allclose(actual, expected, rtol=RTOL,
                                   atol=RTOL * scale, equal_nan=True,
                                   err_msg=name)


@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("mode", MODES)
def test_run_matches_golden(golden, system, mode):
    _assert_matches(golden[f"{system}/{mode}"], _run(system, mode))


@pytest.mark.parametrize("system", NOISY)
def test_noisy_run_matches_golden(golden, system):
    _assert_matches(golden[f"{system}/proposed-noisy"],
                    _run(system, "proposed-noisy"))


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_mixed_loop_matches_golden(golden, system):
    """The baseline and proposed runs of a system, with their reference,
    as the rows of one loop."""
    horizon, label, omega = SYSTEMS[system]
    sc = shortened(system.split("-")[0], horizon, label, omega)
    spec = sc.primary_system
    logs = run_batch([spec, spec], [None, sc.gekf_config()], [0, 0])
    for mode, log in zip(("baseline", "proposed"), logs):
        _assert_matches(golden[f"{system}/{mode}"], log)


def test_record_rewrites_only_the_named_records(tmp_path):
    """Read and written back, the golden file keeps its bytes; a named
    record is recorded again in its place, or added at the end when the
    file lacks it, and every other line stays as it was."""
    path = str(tmp_path / "golden.json")
    lines = _lines(GOLDEN)
    _write(path, lines)
    with open(path, "rb") as new, open(GOLDEN, "rb") as old:
        assert new.read() == old.read()
    again, dropped = "case1-omega50/lbs", "case1-omega200/lbs"
    del lines[dropped]
    _write(path, lines)
    record([again, dropped], path)
    after = _lines(path)
    assert list(after) == list(lines) + [dropped]
    assert all(after[key] == line for key, line in lines.items()
               if key != again)
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for key in (again, dropped):
        _assert_matches(recorded[key], _run(*key.split("/")))


@pytest.mark.parametrize("argv", [[], ["case9/lbs"]], ids=["none", "unknown"])
def test_record_without_known_keys_writes_nothing(capsys, argv):
    before = os.stat(GOLDEN).st_mtime_ns
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: ")
    assert os.stat(GOLDEN).st_mtime_ns == before


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
