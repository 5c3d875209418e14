"""Output checks for one workload run: golden summaries, physical checks, hashes.

A run's summary holds, for every trajectory CSV it wrote, the checkpoint
rows (1/4, 1/2, 3/4 and final) of x, a, Jest, Jexact and zref, and from
the report and sweep JSON the envelope ratio, final errors, deviations
and bound-check onset times.  :func:`golden_problems` compares it with
the summary recorded in ``golden.json``: a value fails when it is more
than ``RTOL`` away relative to ``max(|golden|, scale)``, where ``scale``
is the magnitude of the CSV column it came from (so a state that has
converged to ~1e-14 is judged on the state's scale, not on its own).
Final errors and deviations use the presets' unit state scale; the
envelope ratio and onset times are judged purely relatively.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

RTOL = 1e-9
CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)
COLUMN_GROUPS = ("x", "a", "Jest", "Jexact", "zref")
C1_ENVELOPE_RATIO_MAX = 0.2


def _rel(path: str, root: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def trajectory_csvs(out_dir: str) -> list[str]:
    paths = glob.glob(os.path.join(out_dir, "**", "*.csv"), recursive=True)
    return sorted(p for p in paths if not p.endswith("_gekf.csv"))


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) if c else math.nan for c in ln.split(",")]
            for ln in lines[1:] if ln]
    return header, rows


def _finite_or_none(v: float):
    return None if v is None or math.isnan(v) else float(v)


def summarize(out_dir: str) -> tuple[dict, int]:
    """Golden-comparable summary of a run's outputs, and its step count."""
    summary: dict[str, list] = {}
    steps = 0
    for path in trajectory_csvs(out_dir):
        rel = _rel(path, out_dir)
        header, rows = read_csv(path)
        steps += len(rows) - 1
        summary[f"{rel}:rows"] = [len(rows), 0.0]
        picks = sorted({round(f * (len(rows) - 1)) for f in CHECKPOINTS})
        for j, col in enumerate(header):
            if col.split("_")[0] not in COLUMN_GROUPS:
                continue
            column = [r[j] for r in rows]
            finite = [abs(v) for v in column if not math.isnan(v)]
            scale = max(finite) if finite else 0.0
            for k in picks:
                summary[f"{rel}:{col}@{k}"] = [_finite_or_none(column[k]), scale]
    for path in sorted(glob.glob(os.path.join(out_dir, "**", "*_report.json"),
                                 recursive=True)):
        rel = _rel(path, out_dir)
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for label, entry in report["metrics"].items():
            if "envelope_ratio" in entry:
                summary[f"{rel}:envelope_ratio.{label}"] = [
                    _finite_or_none(entry["envelope_ratio"]), 0.0]
            for mode, m in entry.items():
                if isinstance(m, dict):
                    summary[f"{rel}:final_error.{label}.{mode}"] = [
                        m["final_error"], 1.0]
        for label, bc in report["bound_check"].items():
            for ch in bc["channels"]:
                summary[f"{rel}:t_star.{label}.{ch['channel']}"] = [
                    ch["t_star"], 0.0]
    for path in sorted(glob.glob(os.path.join(out_dir, "*_sweep_*.json"))):
        rel = _rel(path, out_dir)
        with open(path, encoding="utf-8") as fh:
            sweep = json.load(fh)
        for point in sweep["points"]:
            for field in ("deviation", "final_error"):
                for key, v in point[field].items():
                    summary[f"{rel}:{field}.{point['value']:g}.{key}"] = [v, 1.0]
    return summary, steps


def golden_problems(summary: dict, golden: dict) -> list[str]:
    """Every way ``summary`` differs from ``golden`` beyond the tolerance."""
    problems = [f"missing {k}" for k in sorted(set(golden) - set(summary))]
    problems += [f"unexpected {k}" for k in sorted(set(summary) - set(golden))]
    for key in sorted(set(golden) & set(summary)):
        (value, _), (want, scale) = summary[key], golden[key]
        if value is None or want is None:
            if value is not want:
                problems.append(f"{key}: {value} != golden {want}")
            continue
        if abs(value - want) > RTOL * max(abs(want), scale):
            problems.append(f"{key}: {value!r} != golden {want!r}")
    return problems


def physical_problems(workload: str, out_dir: str) -> list[str]:
    """Checks from the paper that hold whatever the golden file says."""
    problems = []
    if workload == "case1-both":
        with open(os.path.join(out_dir, "case1_report.json"),
                  encoding="utf-8") as fh:
            ratio = json.load(fh)["metrics"]["main"]["envelope_ratio"]
        if ratio is None or not ratio <= C1_ENVELOPE_RATIO_MAX:
            problems.append(f"C1 envelope_ratio {ratio} > {C1_ENVELOPE_RATIO_MAX}")
    if workload == "omega-sweep":
        with open(os.path.join(out_dir, "case1_sweep_omega.json"),
                  encoding="utf-8") as fh:
            if json.load(fh)["deviation_strictly_decreasing"] is not True:
                problems.append("omega sweep deviation not strictly decreasing")
    return problems


def csv_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of every CSV (trajectory and filter diagnostics) by path."""
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "**", "*.csv"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            out[_rel(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def hash_problems(hashes: dict, reference: dict, what: str) -> list[str]:
    if hashes == reference:
        return []
    differ = sorted(k for k in set(hashes) | set(reference)
                    if hashes.get(k) != reference.get(k))
    return [f"CSV bytes differ from {what}: {', '.join(differ)}"]
