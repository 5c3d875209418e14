"""lieseek benchmark: closed-loop CLI batch jobs, timed end to end and per layer.

One run (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload case1-both --seed 3 --seconds 42 --trace 0

repeats the workload's CLI command, each time in a fresh interpreter and
only after the previous one ended, for about ``--seconds`` seconds, checks
every output, and prints the metrics; the last line is one JSON object.
``--trace 0`` reports the end-to-end metrics, with times scaled to the
host's reference speed (see :func:`reference_loop`), ``--trace 1`` the
per-layer metrics of traced runs.  Other forms::

    python3 perfbench/run.py --workload all              # every workload once
    python3 perfbench/run.py --series 10 --out A.json    # 10 seeds per workload
    python3 perfbench/run.py --compare A.json B.json     # verdict per metric
    python3 perfbench/run.py --record-golden             # rewrite golden.json

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from statistics import median

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
from child import spans_file  # noqa: E402
from workloads import TINY_HORIZON, WORKLOADS  # noqa: E402

GOLDEN_PATH = os.path.join(BENCH, "golden.json")
WORK = os.path.join(BENCH, ".work")
MIN_ITERATIONS = 3
MAX_ITERATIONS = 50
RUN_DEADLINE_S = 170.0
# Time of reference_loop() on the machine of results/base-879c118.json, in
# its usual state.  Timings are scaled to this speed of the host.
REFERENCE_LOOP_S = 0.27
# Per-layer metrics that count work; they must repeat exactly between runs.
COUNT_SUFFIXES = (".calls", ".bytes", ".calls_per_step", ".calls_per_update",
                  "sim.steps")


class BenchError(Exception):
    """The benchmark cannot run here (not a failure of the program)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def require_source() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "lieseek", "cli.py")):
        raise BenchError(f"no lieseek source under {os.path.join(ROOT, 'src')}")


# -- host speed --------------------------------------------------------------

def reference_loop() -> float:
    """Seconds taken by a fixed loop of interpreter arithmetic and small
    NumPy operations, the two kinds of work a lieseek command does.

    The host's speed drifts by tens of percent over minutes (CPU time
    drifts with wall time, so the command is not waiting: the machine runs
    it slower).  Timing this loop next to each command measures that drift,
    and dividing it out keeps two runs of the same code comparable.
    """
    import numpy as np
    start = time.perf_counter()
    x = total = 0.1
    for _ in range(1_200_000):
        x += 0.001 * (1.0 - x * x)
        total += x
    a, y = 0.5 * np.eye(3), np.ones(3)
    for _ in range(40_000):
        y = a @ y + 0.01 * np.sin(y)
    return time.perf_counter() - start


# -- one process -----------------------------------------------------------

class Iteration:
    """One CLI command run in its own interpreter, and what it left behind."""

    def __init__(self, argv: list[str], work_dir: str, mode: str,
                 timeout: float):
        os.makedirs(work_dir)
        self.out_dir = os.path.join(work_dir, "out")
        self.traced = mode == "trace"
        marks_path = os.path.join(work_dir, "marks.json")
        spans_path = spans_file(marks_path)
        cmd = ([sys.executable, os.path.join(BENCH, "child.py"), ROOT,
                marks_path, mode, "--"] + argv + ["--out", self.out_dir])
        with open(os.path.join(work_dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(work_dir, "stderr.txt"), "wb") as err:
            self.t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.t_end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(os.path.join(work_dir, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            self.stderr = fh.read()[-2000:]
        self.marks = {}
        if os.path.exists(marks_path):
            with open(marks_path, encoding="utf-8") as fh:
                self.marks = json.load(fh)
        self.spans = None
        if self.traced and os.path.exists(spans_path):
            import numpy as np
            self.spans = np.load(spans_path)
        # REFERENCE_LOOP_S / the reference loop's time around this command
        self.speed = 1.0
        self.problems: list[str] = []
        if self.returncode != 0:
            self.problems.append(f"exit code {self.returncode}: "
                                 f"{self.stderr.strip()[-500:]}")
        elif "first_step" not in self.marks:
            self.problems.append("no integration step was taken")

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_spawn

    @property
    def setup_s(self) -> float:
        return self.marks.get("first_step", self.t_end) - self.t_spawn

    @property
    def after_setup_s(self) -> float:
        return self.t_end - self.marks.get("first_step", self.t_spawn)

    @property
    def main_wall_s(self) -> float:
        return self.marks.get("main_end", self.t_end) - self.t_spawn


def run_command(argv: list[str], work_dir: str, mode: str, deadline: float,
                golden: dict | None, workload: str) -> tuple[Iteration, dict, int]:
    """Run once, check the outputs, return the iteration, CSV hashes and steps.

    Without ``golden`` (a shortened horizon) only the exit code and the
    byte identity of repeated runs are checked.
    """
    timeout = max(10.0, deadline - time.perf_counter())
    it = Iteration(argv, work_dir, mode, timeout)
    hashes, steps = {}, 0
    if not it.problems:
        summary, steps = check.summarize(it.out_dir)
        if golden is not None:
            it.problems += check.golden_problems(summary, golden)
            it.problems += check.physical_problems(workload, it.out_dir)
        hashes = check.csv_hashes(it.out_dir)
    shutil.rmtree(it.out_dir, ignore_errors=True)
    return it, hashes, steps


# -- one benchmark run -------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 horizon: float | None = None, log=print) -> dict:
    """Repeat one workload for ``seconds`` and return the contract's result."""
    import tracer as tracer_mod

    workload = WORKLOADS[name]
    golden = None if horizon is not None else load_golden()[name]["summary"]
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    work = os.path.join(WORK, f"{name}-{os.getpid()}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    iterations: list[Iteration] = []
    layer_runs: list[dict] = []
    # CSV hashes, step count and layer counts of the first good command;
    # every later command must repeat them, or it fails.
    first: dict = {}
    problems: list[str] = []
    attempted = failed = 0

    def record(it: Iteration, hashes: dict, steps: int, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not it.problems:
            first.setdefault("hashes", hashes)
            first.setdefault("steps", steps)
            it.problems += check.hash_problems(hashes, first["hashes"],
                                               "the first run")
        if it.traced and not it.problems:
            for target in it.marks["trace"]["missing"]:
                log(f"WARNING {name}: tracer found no {target}")
            layers = tracer_mod.layer_metrics(
                it.marks["trace"], it.spans.tolist(), it.t_spawn, it.marks,
                steps)
            counts = {k: v for k, v in layers.items()
                      if k.endswith(COUNT_SUFFIXES)}
            differ = [k for k, v in first.setdefault("counts", counts).items()
                      if counts.get(k) != v]
            if differ:
                it.problems.append("counts differ from the first traced "
                                   f"run: {', '.join(differ)}")
            else:
                layer_runs.append(layers)
        if it.problems:
            failed += 1
            problems.extend(f"{what}: {p}" for p in it.problems)

    check_jobs = workload.jobs is not None and workload.jobs > 1
    loops = [reference_loop()]
    try:
        while True:
            k = len(iterations)
            traced = trace and k % 2 == 0
            same_kind = [i.wall_s for i in iterations if i.traced == traced]
            estimate = (median(same_kind) if same_kind else 0.0) + loops[-1]
            if check_jobs and iterations:
                # leave time for the --jobs 1 command below
                estimate += median([i.wall_s for i in iterations])
            elapsed = time.perf_counter() - start
            if k >= MAX_ITERATIONS or (
                    k >= MIN_ITERATIONS
                    and elapsed + estimate > seconds):
                break
            argv = workload.argv(seed, horizon=horizon)
            it, hashes, steps = run_command(
                argv, os.path.join(work, f"it{k}"),
                "trace" if traced else "plain", deadline, golden, name)
            loops.append(reference_loop())
            it.speed = REFERENCE_LOOP_S / ((loops[-2] + loops[-1]) / 2)
            iterations.append(it)
            record(it, hashes, steps, f"run {k}")
        if check_jobs:
            # Results must not depend on --jobs: one serial run, same seed.
            argv = workload.argv(seed, horizon=horizon, jobs=1)
            it, hashes, steps = run_command(
                argv, os.path.join(work, "jobs1"), "plain", deadline, golden,
                name)
            record(it, hashes, steps, "--jobs 1 run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    good = [i for i in iterations if not i.problems] or iterations
    # identical CSV bytes imply identical step counts
    steps = first.get("steps", 0)
    untraced = [i for i in good if not i.traced]
    if trace:
        metrics = {key: median([r[key] for r in layer_runs])
                   for key in (layer_runs[0] if layer_runs else ())}
        if not layer_runs:
            problems.append("no traced run succeeded")
        traced_walls = [i.main_wall_s for i in good if i.traced]
        untraced_walls = [i.main_wall_s for i in untraced]
        if traced_walls and untraced_walls:
            metrics["trace.overhead_s"] = (median(traced_walls)
                                           - median(untraced_walls))
    else:
        wall = median([i.after_setup_s * i.speed for i in untraced])
        metrics = {
            "wall_s": wall,
            "us_per_step": wall * 1e6 / steps if steps else 0.0,
            "cpu_s": median([i.cpu_s * i.speed for i in untraced]),
            "setup_s": median([i.setup_s * i.speed for i in untraced]),
            "peak_rss_mb": median([i.peak_rss_mb for i in untraced]),
        }
    host = {"reference_loop_s": median(loops)}
    if not trace:
        # the same medians as measured, before scaling to the reference speed
        host.update(wall_s=median([i.after_setup_s for i in untraced]),
                    cpu_s=median([i.cpu_s for i in untraced]),
                    setup_s=median([i.setup_s for i in untraced]))
    for p in problems:
        log(f"FAILED {name}: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "host": host}


def with_units(result: dict, spec: dict, trace: bool) -> dict:
    """The declared metrics with their units; a failed run may lack some."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    missing = set(units) - set(metrics)
    if missing and result["correct"]:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
            for name in units}


def print_result(name: str, result: dict, spec: dict, trace: bool) -> dict:
    shaped = {key: result[key] for key in ("correct", "attempted", "failed")}
    shaped["metrics"] = with_units(result, spec, trace)
    error_rate = result["failed"] / result["attempted"]
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} error_rate={error_rate:g} ratio")
    print("  as measured, before scaling to the reference speed: " + ", ".join(
        f"{key} {value:.6g} s" for key, value in result["host"].items()))
    for key, m in shaped["metrics"].items():
        print(f"  {key:48s} {m['value']:>16.6g} {m['unit']}")
    return shaped


# -- goldens, series, comparison -------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def record_golden() -> None:
    """Record every workload's summary from the current source (seed 0, --jobs 1)."""
    golden = {}
    for name, workload in WORKLOADS.items():
        argv = workload.argv(0, jobs=1 if workload.jobs else None)
        work = os.path.join(WORK, f"golden-{name}")
        shutil.rmtree(work, ignore_errors=True)
        it = Iteration(argv, work, "plain", RUN_DEADLINE_S)
        if it.problems:
            raise BenchError(f"{name}: {it.problems}")
        problems = check.physical_problems(name, it.out_dir)
        if problems:
            raise BenchError(f"{name}: {problems}")
        summary, steps = check.summarize(it.out_dir)
        golden[name] = {"argv": argv, "steps": steps, "summary": summary}
        shutil.rmtree(work)
        print(f"{name}: {len(summary)} values, {steps} steps")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_series(n: int, first_seed: int, seconds: float, names: list[str],
               out_path: str, spec: dict) -> None:
    """Run each workload ``n`` times with consecutive seeds; append to a file."""
    data = {"machine": machine(), "seconds": seconds, "runs": {}}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            data = json.load(fh)
    for name in names:
        for seed in range(first_seed, first_seed + n):
            result = run_workload(name, seed, seconds, trace=False)
            result["seed"] = seed
            data["runs"].setdefault(name, []).append(result)
            vals = " ".join(f"{k}={v:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed={seed} correct={result['correct']} {vals}",
                  flush=True)
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1)
    print_series(data, spec)


def print_series(data: dict, spec: dict) -> None:
    for name, runs in data["runs"].items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{name}: {len(runs)} runs, error_rate={failed / attempted:g} ratio")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            q1, q2, q3 = quartiles(values)
            print(f"  {m['name']:12s} median {q2:12.6g} {m['unit']:5s} "
                  f"IQR/median {(q3 - q1) / q2:7.2%}  bound {m['bound']:.0%}")


def verdict(base: list[float], change: list[float], bound: float,
            lower_better: bool) -> str:
    """Improved, unchanged, worse or unresolved, by the paired-run rule.

    A loss is a median worse by more than ``bound``, whatever the spread.
    A gain needs at least 10 pairs, the change winning 9 in 10 of them
    (ties count for neither) and the medians apart by more than the
    parent's inter-quartile distance.  When either side's spread exceeds
    ``bound`` the verdict is unresolved, unless there are at least 10
    pairs and every change run beats every parent run.
    """
    sign = 1.0 if lower_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (bmed - cmed)
    if -gain > bound * abs(bmed):
        return "worse"
    pairs = list(zip(base, change))
    enough = len(pairs) >= 10
    if (bq3 - bq1) > bound * abs(bmed) or (cq3 - cq1) > bound * abs(cmed):
        all_better = (max(change) < min(base) if lower_better
                      else min(change) > max(base))
        return "improved" if enough and all_better else "unresolved"
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    if gain > (bq3 - bq1) and wins >= 0.9 * len(pairs):
        return "improved" if enough else "unresolved"
    return "unchanged"


def compare_series(base_path: str, change_path: str, spec: dict) -> None:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(change_path, encoding="utf-8") as fh:
        change = json.load(fh)
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for name in base["runs"]:
        if name not in change["runs"]:
            print(f"{name:14s} missing from {change_path}")
            continue
        b_runs = {r["seed"]: r for r in base["runs"][name]}
        c_runs = {r["seed"]: r for r in change["runs"][name]}
        seeds = sorted(set(b_runs) & set(c_runs))
        rates = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                 for runs in (b_runs.values(), c_runs.values())]
        print(f"{name:14s} {'error_rate':12s} {rates[0]:>34g} {rates[1]:>34g}  "
              f"{'worse' if rates[1] > rates[0] else 'unchanged'}")
        for m in spec["end_to_end"]:
            b = [b_runs[s]["metrics"][m["name"]] for s in seeds]
            c = [c_runs[s]["metrics"][m["name"]] for s in seeds]
            cells = []
            for values in (b, c):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            v = verdict(b, c, m["bound"], m["better"] == "lower")
            print(f"{name:14s} {m['name']:12s} {cells[0]:>34s} "
                  f"{cells[1]:>34s}  {v}")


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=float, default=None,
                        help=f"shorter simulated horizon, e.g. {TINY_HORIZON} "
                             "(skips the golden check)")
    parser.add_argument("--series", type=int, metavar="N",
                        help="run every workload N times with seeds from "
                             "--first-seed, appending to --out")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="result file of --series")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        require_source()
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.compare:
            compare_series(*args.compare, spec)
            return 0
        compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
        if args.record_golden:
            record_golden()
            return 0
        if args.series:
            if not args.out:
                parser.error("--series needs --out")
            names = (list(WORKLOADS) if args.workload in (None, "all")
                     else args.workload.split(","))
            run_series(args.series, args.first_seed, seconds, names,
                       args.out, spec)
            return 0
        if args.workload == "all":
            results = {}
            for name in WORKLOADS:
                result = run_workload(name, args.seed, seconds, bool(args.trace),
                                      args.horizon)
                results[name] = print_result(name, result, spec, bool(args.trace))
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)} "
                         "or all")
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.horizon)
        shaped = print_result(args.workload, result, spec, bool(args.trace))
        print(json.dumps(shaped))
        return 0 if result["correct"] else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
