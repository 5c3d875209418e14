"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import check
import run
import tracer
from workloads import TINY_HORIZON, WORKLOADS


def one_run(tmp_path, name: str, traced: bool = False, horizon=TINY_HORIZON,
            tag: str = "it") -> run.Iteration:
    argv = WORKLOADS[name].argv(1, horizon=horizon)
    it = run.Iteration(argv, str(tmp_path / tag),
                       "trace" if traced else "plain", 120.0)
    assert not it.problems, it.problems
    return it


def test_argv_is_the_documented_command():
    lam = WORKLOADS["lambda-sweep"]
    assert lam.argv(4) == [
        "sweep", "case2", "--mode", "proposed", "--lambda", "0.05,0.1,0.2,0.4",
        "--horizon", "6", "--jobs", "2", "--seed", "4"]
    assert lam.argv(0, jobs=1)[-3] == "1"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_at_tiny_horizon(name):
    result = run.run_workload(name, seed=2, seconds=0, trace=False,
                              horizon=TINY_HORIZON, log=lambda _: None)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_ITERATIONS
    assert all(v > 0 for v in result["metrics"].values()), result["metrics"]


def test_golden_gate_rejects_a_perturbed_value(tmp_path):
    it = one_run(tmp_path, "omega-sweep", horizon=None)
    summary, steps = check.summarize(it.out_dir)
    golden = run.load_golden()["omega-sweep"]
    assert steps == golden["steps"]
    assert check.golden_problems(summary, golden["summary"]) == []
    assert check.physical_problems("omega-sweep", it.out_dir) == []

    key = "omega_100/case1_main_baseline.csv:x_1@2546"
    value, scale = golden["summary"][key]
    perturbed = dict(golden["summary"])
    perturbed[key] = [value * (1 + 1e-7), scale]
    assert check.golden_problems(summary, perturbed) == [
        f"{key}: {value!r} != golden {value * (1 + 1e-7)!r}"]
    perturbed[key] = [value * (1 + 1e-12), scale]
    assert check.golden_problems(summary, perturbed) == []
    del perturbed[key]
    assert check.golden_problems(summary, perturbed) == [f"unexpected {key}"]


def test_hash_check_flags_changed_bytes(tmp_path):
    it = one_run(tmp_path, "omega-sweep")
    hashes = check.csv_hashes(it.out_dir)
    assert check.hash_problems(hashes, dict(hashes), "x") == []
    path = os.path.join(it.out_dir, "omega_50", "case1_main_baseline.csv")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert check.hash_problems(check.csv_hashes(it.out_dir), hashes, "x")


def test_physical_check_fails_a_non_decreasing_sweep(tmp_path):
    it = one_run(tmp_path, "omega-sweep")
    path = os.path.join(it.out_dir, "case1_sweep_omega.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"deviation_strictly_decreasing": true',
                              '"deviation_strictly_decreasing": false'))
    assert check.physical_problems("omega-sweep", it.out_dir)


@pytest.mark.parametrize("name", ["omega-sweep", "lambda-sweep"])
def test_counts_repeat_across_two_traced_runs(tmp_path, name):
    layers = []
    for tag in ("a", "b"):
        it = one_run(tmp_path, name, traced=True, tag=tag)
        _, steps = check.summarize(it.out_dir)
        layers.append(tracer.layer_metrics(it.marks["trace"], it.spans.tolist(),
                                           it.t_spawn, it.marks, steps))
        assert it.marks["trace"]["missing"] == []
    counts = [{k: v for k, v in m.items() if k.endswith(run.COUNT_SUFFIXES)}
              for m in layers]
    assert counts[0] == counts[1]
    m = layers[0]
    assert m["trace.accounted_share"] >= 0.9
    assert 5.0 <= m["lie.lbs_rhs_exact.calls_per_step"] < 5.01
    if name == "omega-sweep":
        assert m["gekf.update.calls"] == m["gekf.propagate.calls"] == 0
        assert m["sim.rk4_step.calls_per_step"] == 2.0
    else:
        assert m["gekf.measurement_coefficients.calls_per_update"] == 2.0
        assert m["sim.rk4_step.calls_per_step"] == 3.0


def test_verdicts():
    base = [10.0 + 0.1 * (i % 3) for i in range(10)]
    assert run.verdict(base, list(base), 0.1, True) == "unchanged"
    assert run.verdict(base, [0.8 * v for v in base], 0.1, True) == "improved"
    assert run.verdict(base, [1.2 * v for v in base], 0.1, True) == "worse"
    assert run.verdict(base, [0.8 * v for v in base], 0.1, False) == "worse"
    noisy = [10.0, 14.0, 8.0, 13.0, 9.0, 12.0, 7.0, 15.0, 10.0, 11.0]
    assert run.verdict(base, noisy, 0.1, True) == "unresolved"
    assert run.verdict(base[:5], [0.8 * v for v in base[:5]], 0.1,
                       True) == "unresolved"
    # a wide spread hides neither a loss nor the 10-pair minimum of a gain
    assert run.verdict(noisy, [1.5 * v for v in noisy], 0.1, True) == "worse"
    assert run.verdict(noisy, [v + 10 for v in noisy], 0.1, False) == "improved"
    assert run.verdict(noisy[:5], [0.5 * v for v in noisy[:5]], 0.1,
                       True) == "unresolved"


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case1-both",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_exactly_the_contract_keys():
    spec = run.load_spec()
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
              "host": {"reference_loop_s": 0.3}}
    shaped = run.print_result("x", result, spec, trace=False)
    assert list(shaped) == ["correct", "attempted", "failed", "metrics"]
    assert set(shaped["metrics"]) == {m["name"] for m in spec["end_to_end"]}
