import json
import os

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
    report = json.load(open(payload["report"]))
    assert set(report) == {"scenario", "params", "metrics", "bound_check",
                           "b2"}
    assert report["metrics"]["main"]["envelope_ratio"] is not None


def test_run_override_applies(tmp_path, short_case1_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", short_case1_path, "--mode", "baseline",
                 "--omega", "800", "--out", out]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    report = json.load(open(payload["report"]))
    assert report["params"]["systems"]["main"]["omega"] == 800.0
    snapshot = json.load(open(payload["config"]))
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
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


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
    assert json.load(open(out)) == payload


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
    sweep_out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", short_case1_path, "--omega", "50",
                 "--mode", "baseline", "--out", sweep_out]) == EXIT_OK
    capsys.readouterr()
    run_out = str(tmp_path / "run")
    assert main(["run", "--config", short_case1_path, "--mode", "baseline",
                 "--omega", "50", "--out", run_out]) == EXIT_OK
    capsys.readouterr()
    sweep_csv = os.path.join(sweep_out, "omega_50", "case1_main_baseline.csv")
    run_csv = os.path.join(run_out, "case1_main_baseline.csv")
    assert open(sweep_csv, "rb").read() == open(run_csv, "rb").read()


def test_sweep_empty_list_is_runtime_error(short_case1_path):
    assert main(["sweep", "--config", short_case1_path, "--omega", "",
                 "--out", "/tmp/nowhere"]) == EXIT_RUNTIME


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
], ids=["not-json", "missing-key", "missing-file", "negative-horizon",
        "list-systems", "string-weights", "string-omega", "int-channels",
        "unknown-gekf-key", "unknown-analysis-key", "string-analysis-p",
        "negative-r", "infinite-b2-index"])
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


def test_sweep_uses_in_memory_logs(tmp_path, short_case1_path, monkeypatch,
                                   capsys):
    def unexpected(path):
        raise AssertionError(f"sweep re-read {path}")

    monkeypatch.setattr(TrajectoryLog, "from_csv", staticmethod(unexpected))
    assert main(["sweep", "--config", short_case1_path, "--omega", "50",
                 "--mode", "both", "--out", str(tmp_path / "sweep")]) == EXIT_OK
    point = json.loads(capsys.readouterr().out)["points"][0]
    assert set(point["final_error"]) == {"main_baseline", "main_proposed"}
