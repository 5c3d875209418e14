import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import shortened
from lieseek.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
                         execute_run, main)
from lieseek.scenarios import save_scenario
from lieseek.sim import TrajectoryLog


@pytest.fixture()
def short_case1_path(tmp_path):
    path = tmp_path / "case1_short.json"
    save_scenario(shortened("case1", 5.0), str(path))
    return str(path)


def test_list_prints_presets(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert out == ["case1", "case2", "case3"]


def test_run_both_emits_artifacts(tmp_path, short_case1_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", short_case1_path, "--mode", "both",
                 "--out", out]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    for key in ("main_baseline", "main_proposed"):
        assert os.path.exists(payload["csv"][key])
    assert os.path.exists(payload["report"])
    assert os.path.exists(payload["config"])
    report = json.loads(Path(payload["report"]).read_text())
    assert set(report) == {"scenario", "params", "metrics", "bound_check",
                           "b2"}
    assert report["metrics"]["main"]["envelope_ratio"] is not None


def test_run_override_applies(tmp_path, short_case1_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", short_case1_path, "--mode", "baseline",
                 "--omega", "800", "--out", out]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    report = json.loads(Path(payload["report"]).read_text())
    assert report["params"]["systems"]["main"]["omega"] == 800.0
    snapshot = json.loads(Path(payload["config"]).read_text())
    assert snapshot["systems"]["main"]["omega"] == 800.0


def test_run_seeded_twice_is_byte_identical(tmp_path, short_case1_path,
                                            capsys):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", "--config", short_case1_path, "--mode", "proposed",
                     "--seed", "7", "--out", out]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        outs.append(payload["csv"]["main_proposed"])
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "case9", "--out", "/tmp/nowhere"]) == EXIT_USAGE
    assert "case1" in capsys.readouterr().err


def test_missing_scenario_argument_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == EXIT_USAGE


def test_check_bound_pass_and_fail(tmp_path, capsys):
    t = np.linspace(0.1, 60.0, 1200)
    decaying = np.where(t < 1.0, 0.5, 1.0 / t ** 1.4)[:, None]
    flat = np.full_like(t, 0.5)[:, None]
    nan = np.full_like(decaying, np.nan)

    ok_csv = str(tmp_path / "ok.csv")
    TrajectoryLog(t, decaying, np.zeros_like(t), np.ones_like(decaying),
                  decaying, nan, nan).to_csv(ok_csv)
    bad_csv = str(tmp_path / "bad.csv")
    TrajectoryLog(t, flat, np.zeros_like(t), np.ones_like(flat), flat,
                  nan.copy(), nan.copy()).to_csv(bad_csv)

    assert main(["check-bound", ok_csv, "--p", "1.05"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] and out["channels"][0]["t_star"] is not None
    assert main(["check-bound", bad_csv, "--p", "1.05"]) == EXIT_CHECK_FAILED
    # oracle columns are empty in this CSV
    assert main(["check-bound", ok_csv, "--p", "1.05",
                 "--oracle"]) == EXIT_RUNTIME


def test_check_b2_case3_contradiction(tmp_path, capsys):
    out = str(tmp_path / "b2.json")
    assert main(["check-b2", "case3", "--out", out]) == EXIT_CHECK_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["contradiction"]
    labels = {e["label"]: e for e in payload["elements"]}
    assert labels["b_21"]["contradiction"]
    assert json.loads(Path(out).read_text()) == payload


def test_compare_command(tmp_path, short_case1_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--config", short_case1_path, "--mode", "both",
          "--out", out])
    payload = json.loads(capsys.readouterr().out)
    rc = main(["compare", payload["csv"]["main_baseline"],
               payload["csv"]["main_proposed"], "--x-star", "1.0",
               "--window", "2.0"])
    assert rc == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert "envelope_ratio" in rep


def test_sweep_single_point_matches_run(tmp_path, short_case1_path, capsys):
    """A one-point sweep writes the files of ``run``, byte for byte, in
    every mode."""
    for mode, count in (("baseline", 3), ("proposed", 4), ("both", 5)):
        sweep_out = tmp_path / mode / "sweep"
        assert main(["sweep", "--config", short_case1_path, "--omega", "50",
                     "--mode", mode, "--out", str(sweep_out)]) == EXIT_OK
        run_out = tmp_path / mode / "run"
        assert main(["run", "--config", short_case1_path, "--mode", mode,
                     "--omega", "50", "--out", str(run_out)]) == EXIT_OK
        capsys.readouterr()
        files = _tree_bytes(run_out)
        assert len(files) == count
        assert _tree_bytes(sweep_out / "omega_50") == files


def test_sweep_empty_list_is_usage_error(tmp_path, short_case1_path, capsys):
    assert main(["sweep", "--config", short_case1_path, "--omega", "",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_omega_reports_decreasing_deviation(tmp_path, short_case1_path,
                                                  capsys):
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", short_case1_path, "--omega",
                 "50,200,800", "--mode", "baseline", "--jobs", "3",
                 "--out", out]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    devs = [pt["deviation"]["main_baseline"] for pt in summary["points"]]
    assert devs[0] > devs[1] > devs[2]
    assert summary["deviation_strictly_decreasing"]


def test_run_lbs_mode(tmp_path, short_case1_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", short_case1_path, "--mode", "lbs",
                 "--out", out]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    log = TrajectoryLog.from_csv(payload["csv"]["main_lbs"])
    assert abs(log.x[-1, 0] - (1.0 + np.exp(-2.0 * log.t[-1]))) < 1e-6


def test_sweep_lambda_points_improve(tmp_path, capsys):
    path = str(tmp_path / "cfg.json")
    save_scenario(shortened("case1", 60.0), path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", path, "--lambda", "0.05,0.1,0.2",
                 "--mode", "proposed", "--jobs", "2", "--out", out]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["parameter"] == "lambda"
    assert [pt["value"] for pt in summary["points"]] == [0.05, 0.1, 0.2]
    finals = [pt["final_error"]["main_proposed"] for pt in summary["points"]]
    # every gain shrinks the initial error; how far it gets by the horizon
    # depends on how quickly the amplitude dies (larger gains stall earlier)
    assert all(err < 1.0 for err in finals)
    assert all(err < 0.1 for err in finals[:2])


def _short_case1_with(path: tuple, value) -> str:
    """Short case1 config as JSON with the setting at ``path`` replaced."""
    cfg = shortened("case1", 5.0).config
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(cfg)


@pytest.mark.parametrize("config,extra", [
    ("{not json", []),
    ('{"name": "x", "systems": {"main": {}}}', []),
    (None, ["--config", "/nonexistent/scenario.json"]),
    (None, ["case1", "--horizon", "-5"]),
    ('{"name": "x", "systems": []}', []),
    (_short_case1_with(("systems", "main", "objective", "weights"), "ab"), []),
    (_short_case1_with(("systems", "main", "omega"), "fast"), []),
    (_short_case1_with(("systems", "main", "channels"), 5), []),
    (_short_case1_with(("gekf", "q4"), 1.0), []),
    (_short_case1_with(("analysis", "span"), 1.0), []),
    (_short_case1_with(("analysis", "p"), "x"), []),
    (_short_case1_with(("gekf", "r"), -1), []),
    (_short_case1_with(("b2", "elements", 0, "s"), float("inf")), []),
    (_short_case1_with(("analysis", "p"), 0.5), []),
    (_short_case1_with(("analysis", "t_min"), -1), []),
    (_short_case1_with(("analysis", "window"), -3), []),
    (None, ["case1", "--horizon", "nan"]),
    (None, ["case1", "--horizon", "inf"]),
    (None, ["case1", "--lambda", "nan", "--mode", "proposed"]),
    (None, ["case1", "--lambda", "inf", "--mode", "proposed"]),
    (_short_case1_with(("systems", "main", "x0"), [float("nan")]), []),
    (_short_case1_with(("systems", "main", "omega"), float("inf")), []),
    (_short_case1_with(("systems", "main", "channels", 0, "b1", "gain"),
                       float("nan")), []),
    (_short_case1_with(("systems", "main", "dithers", "u1"), {
        "kind": "tabulated", "period": 2 * math.pi, "bound": 1.5,
        "samples": [[k * 2 * math.pi / 64, 1.0] for k in range(64)]}), []),
    (None, ["case1", "--mode", "proposed", "--horizon", "0.5"]),
    (None, ["case1", "--horizon", "1"]),
    (None, ["case1", "--mode", "lbs", "--horizon", "2", "--omega", "1e308"]),
], ids=["not-json", "missing-key", "missing-file", "negative-horizon",
        "list-systems", "string-weights", "string-omega", "int-channels",
        "unknown-gekf-key", "unknown-analysis-key", "string-analysis-p",
        "negative-r", "infinite-b2-index", "analysis-p-below-1",
        "negative-analysis-t-min", "negative-analysis-window",
        "nan-horizon", "inf-horizon", "nan-lambda", "inf-lambda", "nan-x0",
        "inf-omega", "nan-coefficient-gain", "non-zero-mean-dither",
        "horizon-below-t-min", "horizon-at-t-min", "overflowing-step-count"])
def test_bad_config_is_one_line_usage_error(tmp_path, capsys, config, extra):
    argv = ["run", *extra, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # a bad setting fails at load, before any run writes its CSV
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("argv", [
    ["check-bound", "missing.csv", "--p", "1.1"],
    ["compare", "missing.csv", "also-missing.csv", "--x-star", "1"],
], ids=["check-bound", "compare"])
def test_missing_csv_is_one_line_usage_error(tmp_path, monkeypatch, capsys,
                                             argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read CSV missing.csv")
    assert err.count("\n") == 1


@pytest.fixture()
def one_coordinate_csv(tmp_path):
    """A readable one-coordinate trajectory CSV with an estimate column."""
    t = np.linspace(0.0, 10.0, 201)
    x = (1.0 + 0.1 * np.cos(t))[:, None]
    j = np.minimum(1.0, (1.0 + t) ** -2.0)[:, None]
    path = str(tmp_path / "log.csv")
    TrajectoryLog(t, x, np.zeros(len(t)), np.ones_like(x), j, j,
                  np.full_like(x, np.nan)).to_csv(path)
    return path


@pytest.mark.parametrize("flags", [
    ["compare", "{csv}", "{csv}", "--x-star", "0", "--window", "nan"],
    ["compare", "{csv}", "{csv}", "--x-star", "0", "--window", "-3"],
    ["compare", "{csv}", "{csv}", "--x-star", "0", "--window", "inf"],
    ["compare", "{csv}", "{csv}", "--x-star", "0", "--window", "10"],
    ["compare", "{csv}", "{csv}", "--x-star", "1,2"],
    ["compare", "{csv}", "{csv}", "--x-star", "nan"],
    ["compare", "{csv}", "{csv}", "--x-star", "one"],
    ["compare", "{csv}", "{csv}", "--x-star", "1", "--period", "0"],
    ["compare", "{csv}", "{csv}", "--x-star", "1", "--period", "-1"],
    ["compare", "{csv}", "{csv}", "--x-star", "1", "--period", "inf"],
    ["check-bound", "{csv}", "--p", "nan"],
    ["check-bound", "{csv}", "--p", "0.5"],
    ["check-bound", "{csv}", "--p", "inf"],
    ["check-bound", "{csv}", "--p", "1.5", "--t-min", "-1"],
    ["check-bound", "{csv}", "--p", "1.5", "--t-min", "nan"],
    ["sweep", "case1", "--omega", "abc"],
    ["sweep", "case1", "--omega", "50", "--lambda", "0.1"],
    ["sweep", "case1"],
    ["sweep", "case1", "--lambda", "0.1,0.1000001", "--mode", "baseline",
     "--horizon", "1.5"],
], ids=["compare-nan-window", "compare-negative-window", "compare-inf-window",
        "compare-window-beyond-span",
        "compare-x-star-length", "compare-nan-x-star", "compare-string-x-star",
        "compare-zero-period", "compare-negative-period", "compare-inf-period",
        "check-bound-nan-p", "check-bound-p-below-1", "check-bound-inf-p",
        "check-bound-negative-t-min", "check-bound-nan-t-min",
        "sweep-bad-number-list", "sweep-omega-and-lambda", "sweep-no-list",
        "sweep-colliding-values"])
def test_bad_flag_is_one_line_usage_error(tmp_path, one_coordinate_csv,
                                          capsys, flags):
    argv = [arg.format(csv=one_coordinate_csv) for arg in flags]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_good_flags_pass_on_the_same_csv(tmp_path, one_coordinate_csv,
                                          capsys):
    csv = one_coordinate_csv
    assert main(["compare", csv, csv, "--x-star", "1", "--window", "2",
                 "--period", "6.28"]) == EXIT_OK
    assert main(["check-bound", csv, "--p", "1.5"]) == EXIT_OK


def test_analysis_flags_are_checked_before_any_csv_is_read(monkeypatch,
                                                           capsys):
    def unexpected(path):
        raise AssertionError(f"read {path} before checking the flags")

    monkeypatch.setattr(TrajectoryLog, "from_csv", staticmethod(unexpected))
    for argv in (["compare", "a.csv", "b.csv", "--x-star", "0", "--window",
                  "nan"],
                 ["compare", "a.csv", "b.csv", "--x-star", "0", "--period",
                  "0"],
                 ["check-bound", "a.csv", "--p", "nan"],
                 ["check-bound", "a.csv", "--p", "2", "--t-min", "0"]):
        assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.count("error: ") == 4


def test_sweep_uses_in_memory_logs(tmp_path, short_case1_path, monkeypatch,
                                   capsys):
    def unexpected(path):
        raise AssertionError(f"sweep re-read {path}")

    monkeypatch.setattr(TrajectoryLog, "from_csv", staticmethod(unexpected))
    assert main(["sweep", "--config", short_case1_path, "--omega", "50",
                 "--mode", "both", "--out", str(tmp_path / "sweep")]) == EXIT_OK
    point = json.loads(capsys.readouterr().out)["points"][0]
    assert set(point["final_error"]) == {"main_baseline", "main_proposed"}


def _sweep_in(directory, argv: list[str], monkeypatch) -> int:
    """``main(argv + ["--out", "out"])`` run from ``directory``."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    return main(argv + ["--out", "out"])


def _tree_bytes(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("flag,values,jobs", [
    ("--lambda", "0.05,0.1,0.2,0.4", 2),
    ("--lambda", "0.05,0.1,0.2,0.4", 3),
    ("--omega", "50,100,200", 2),
], ids=["lambda-jobs2", "lambda-jobs3", "omega-jobs2"])
def test_sweep_jobs_give_identical_output(tmp_path, short_case1_path,
                                          monkeypatch, capsys, flag, values,
                                          jobs):
    argv = ["sweep", "--config", short_case1_path, flag, values,
            "--mode", "proposed", "--horizon", "2"]
    outputs = []
    for j in (1, jobs):
        assert _sweep_in(tmp_path / f"jobs{j}", argv + ["--jobs", str(j)],
                         monkeypatch) == EXIT_OK
        outputs.append((capsys.readouterr().out,
                        _tree_bytes(tmp_path / f"jobs{j}")))
    (serial_out, serial_files), (pool_out, pool_files) = outputs
    assert len(serial_files) == 1 + 4 * len(values.split(","))
    assert pool_files == serial_files
    assert json.loads(pool_out) == json.loads(serial_out)


def test_sweep_caller_runs_a_share(tmp_path, short_case1_path, monkeypatch,
                                   capsys):
    """The calling process integrates its own points, not only the workers."""
    import lieseek.sim as sim
    calls = []
    rk4_step = sim.rk4_step

    def counting(rhs, t, x, dt):
        # one entry per member stepped: a batch steps a row per member
        calls.extend([None] * (len(x) if np.ndim(x) == 2 else 1))
        return rk4_step(rhs, t, x, dt)

    monkeypatch.setattr(sim, "rk4_step", counting)
    argv = ["sweep", "--config", short_case1_path, "--lambda", "0.1,0.2",
            "--mode", "proposed", "--horizon", "2"]
    assert _sweep_in(tmp_path / "serial", argv, monkeypatch) == EXIT_OK
    serial = len(calls)
    calls.clear()
    assert _sweep_in(tmp_path / "pool", argv + ["--jobs", "2"],
                     monkeypatch) == EXIT_OK
    assert 0 < len(calls) < serial


def test_sweep_worker_error_keeps_exit_code(tmp_path, short_case1_path,
                                            capsys):
    # the second point, a worker's, is an invalid gain
    assert main(["sweep", "--config", short_case1_path, "--lambda", "0.1,-1",
                 "--mode", "proposed", "--horizon", "1.5", "--jobs", "2",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "gains must be positive" in err


def test_sweep_dead_worker_is_runtime_error(tmp_path, short_case1_path,
                                            monkeypatch, capsys):
    import lieseek.cli as cli
    parent = os.getpid()
    execute_run = cli.execute_run

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return execute_run(*args, **kwargs)

    monkeypatch.setattr(cli, "execute_run", dying)
    assert main(["sweep", "--config", short_case1_path, "--omega", "50,100",
                 "--mode", "baseline", "--horizon", "1.5", "--jobs", "2",
                 "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_zero_jobs_is_usage_error(tmp_path, short_case1_path, capsys):
    assert main(["sweep", "--config", short_case1_path, "--omega", "50",
                 "--jobs", "0", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_reports_the_first_failing_point_at_any_jobs(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    argv = ["sweep", "case2", "--mode", "proposed", "--horizon", "1.5",
            "--lambda", "0.1,nan,-1"]
    results = []
    for jobs in (1, 2):
        rc = _sweep_in(tmp_path / f"jobs{jobs}", argv + ["--jobs", str(jobs)],
                       monkeypatch)
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1]
    rc, err = results[0]
    assert rc == EXIT_USAGE and err.count("\n") == 1
    assert "lam must be finite" in err


@pytest.mark.parametrize("scenario,flag,values,first", [
    ("case2", "--lambda", "0.1,1e4,0.2,1e5", "lambda_0.1"),
    ("case1", "--omega", "50,2,100,1.5", "omega_50"),
], ids=["lambda", "omega"])
def test_sweep_reports_the_first_failing_run_at_any_jobs(tmp_path,
                                                         monkeypatch, capsys,
                                                         scenario, flag,
                                                         values, first):
    """Points 1 and 3 leave the box (lambda: in their first steps; omega:
    at t = 0.39 and 0.46); the batch of either share finishes its other
    points, and the lowest failing index is reported whatever ``--jobs``
    is."""
    argv = ["sweep", scenario, "--mode", "proposed", "--horizon", "1.5",
            flag, values]
    results = []
    for jobs in (1, 2):
        rc = _sweep_in(tmp_path / f"jobs{jobs}", argv + ["--jobs", str(jobs)],
                       monkeypatch)
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1]
    rc, err = results[0]
    assert rc == EXIT_RUNTIME and err.count("\n") == 1
    assert "left 10x domain-box region" in err
    # the points before the failing one are written, at any --jobs
    for jobs in (1, 2):
        assert (tmp_path / f"jobs{jobs}" / "out" / first
                / f"{scenario}_main_proposed.csv").exists()


def _counting_loops(monkeypatch) -> tuple[list, list]:
    """Record each lockstep loop as (members, adaptive) and each reference
    integration by its row count."""
    import lieseek.sim as sim
    loops, rows = [], []
    lockstep, averaged = sim._Lockstep, sim._averaged

    def counting_loop(specs, gcfgs, seeds, zref, adapt, *args):
        loops.append((len(specs), adapt))
        return lockstep(specs, gcfgs, seeds, zref, adapt, *args)

    def counting_rows(specs, err=None):
        rows.append(len(specs))
        return averaged(specs, err)

    monkeypatch.setattr(sim, "_Lockstep", counting_loop)
    monkeypatch.setattr(sim, "_averaged", counting_rows)
    sim._reference.cache_clear()
    return loops, rows


def test_omega_sweep_runs_one_batch_per_mode(tmp_path, short_case1_path,
                                             monkeypatch, capsys):
    """The omega points of a process go through one loop per mode, and
    their three references through one integration."""
    loops, rows = _counting_loops(monkeypatch)
    assert main(["sweep", "--config", short_case1_path, "--omega",
                 "50,100,200", "--mode", "both", "--horizon", "2",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert loops == [(3, False), (3, True)]
    assert rows == [3]


def test_lbs_sweep_integrates_its_references_once(tmp_path, monkeypatch,
                                                  capsys):
    """The lbs runs of a sweep share one reference integration of one row
    per point, and each point's files equal its own run's."""
    import lieseek.sim as sim
    rows = []
    averaged = sim._averaged

    def counting_rows(specs, err=None):
        rows.append(len(specs))
        return averaged(specs, err)

    monkeypatch.setattr(sim, "_averaged", counting_rows)
    sim._reference.cache_clear()
    assert main(["sweep", "case1", "--omega", "50,100,200", "--mode", "lbs",
                 "--horizon", "3", "--out", str(tmp_path / "sweep")]) == EXIT_OK
    assert rows == [3]
    for omega in ("50", "100", "200"):
        run_out = tmp_path / f"run{omega}"
        assert main(["run", "case1", "--mode", "lbs", "--horizon", "3",
                     "--omega", omega, "--out", str(run_out)]) == EXIT_OK
        point = tmp_path / "sweep" / f"omega_{omega}"
        for name in ("case1_main_lbs.csv", "case1_report.json"):
            assert (point / name).read_bytes() == (run_out / name).read_bytes()


def test_omega_points_with_their_own_windows_run_apart(tmp_path, monkeypatch,
                                                       capsys):
    """With an explicit dt the omega points differ in smoothing window, so
    their filtered runs split into one loop per point; their baseline runs
    stay one loop, in ``--mode both`` too.  With one dt the two points
    have one reference, integrated once."""
    cfg = shortened("case1", 2.0).config
    cfg["systems"]["main"]["dt"] = 0.001
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    import lieseek.sim as sim
    loops, rows = _counting_loops(monkeypatch)
    for mode, expected in (("proposed", [(1, True), (1, True)]),
                           ("baseline", [(2, False)]),
                           ("both", [(2, False), (1, True), (1, True)])):
        loops.clear()
        rows.clear()
        sim._reference.cache_clear()
        assert main(["sweep", "--config", str(path), "--omega", "50,100",
                     "--mode", mode, "--out", str(tmp_path / mode)]) == EXIT_OK
        assert loops == expected
        assert rows == [1]


def test_sweep_horizon_below_t_min_fails_at_load(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "case2", "--mode", "proposed", "--horizon", "0.5",
                 "--lambda", "0.1,0.2", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "t_min" in err
    assert not list(out.rglob("*.csv"))


def _source_env() -> dict:
    """The environment of a fresh interpreter that imports this source."""
    import lieseek
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieseek.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_python_m_lieseek_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "lieseek", "list"],
                          env=_source_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.split() == ["case1", "case2", "case3"]


@pytest.mark.parametrize("argv", [["-c", "import lieseek.cli"],
                                  ["-m", "lieseek", "list"]],
                         ids=["import-cli", "list"])
def test_cli_starts_without_scipy(argv):
    """The CLI needs NumPy alone; ``-X importtime`` names every module
    that a fresh interpreter imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          env=_source_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == EXIT_OK
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "lieseek.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
