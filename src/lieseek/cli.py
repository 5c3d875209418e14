"""Command-line interface: scenario runs, parameter sweeps, and checks.

Exit codes: 0 success (and check passed), 1 check failed, 2 usage error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis as an
from .errors import ConfigurationError, InputError, LieseekError, UnknownPresetError
from .scenarios import Scenario, load_scenario, preset, preset_names
from .sim import TrajectoryLog, _atomic_write, run_baseline, run_lbs, run_proposed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class RunArtifacts:
    """Paths produced by one scenario run, and its logs by (label, mode)."""

    csv_paths: dict
    report_path: str
    config_path: str
    logs: dict


def _json_dump(payload: dict, path: str) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(args) -> Scenario:
    if getattr(args, "config", None):
        return load_scenario(args.config)
    return preset(args.scenario)


def _apply_overrides(sc: Scenario, args) -> Scenario:
    cfg = sc.config
    overrides = {"omega": getattr(args, "omega", None),
                 "lambda": getattr(args, "lam", None),
                 "dt": getattr(args, "dt", None),
                 "horizon": getattr(args, "horizon", None)}
    if all(v is None for v in overrides.values()):
        return sc
    for sys_cfg in cfg["systems"].values():
        n = len(sys_cfg["channels"])
        if overrides["omega"] is not None:
            sys_cfg["omega"] = overrides["omega"]
        if overrides["lambda"] is not None:
            sys_cfg["lambda"] = [overrides["lambda"]] * n
        if overrides["dt"] is not None:
            sys_cfg["dt"] = overrides["dt"]
        if overrides["horizon"] is not None:
            sys_cfg["horizon"] = overrides["horizon"]
    return Scenario(cfg)


def _run_modes(mode: str) -> tuple[str, ...]:
    if mode == "both":
        return ("baseline", "proposed")
    return (mode,)


def _run_one(sc: Scenario, label: str, mode: str, seed: int) -> TrajectoryLog:
    spec = sc.systems[label]
    if mode == "baseline":
        return run_baseline(spec)
    if mode == "proposed":
        return run_proposed(spec, sc.gekf_config(label), seed=seed)
    if mode == "lbs":
        return run_lbs(spec)
    raise InputError(f"unknown mode {mode!r}")


def execute_run(sc: Scenario, mode: str, out_dir: str,
                seed: int = 0) -> RunArtifacts:
    """Run a scenario in the requested mode(s) and emit all artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    logs: dict[tuple[str, str], TrajectoryLog] = {}
    csv_paths: dict[str, str] = {}
    for label in sc.systems:
        for m in _run_modes(mode):
            log = _run_one(sc, label, m, seed)
            logs[(label, m)] = log
            path = os.path.join(out_dir, f"{sc.name}_{label}_{m}.csv")
            log.to_csv(path)
            csv_paths[f"{label}_{m}"] = path
            if log.diag:
                dpath = os.path.join(out_dir, f"{sc.name}_{label}_{m}_gekf.csv")
                log.diagnostics_to_csv(dpath)

    report = {"scenario": sc.name,
              "params": {"mode": mode, "seed": seed,
                         "systems": {label: {"omega": spec.omega,
                                             "lambda": list(spec.lam),
                                             "dt": spec.resolved_dt,
                                             "horizon": spec.horizon}
                                     for label, spec in sc.systems.items()}},
              "metrics": {}, "bound_check": {}, "b2": None}

    for label, spec in sc.systems.items():
        period = spec.dither_period_seconds
        window = min(sc.analysis.window, 0.5 * spec.horizon)
        x_star = sc.x_star(label)
        entry: dict = {}
        b = logs.get((label, "baseline"))
        p = logs.get((label, "proposed"))
        lb = logs.get((label, "lbs"))
        if b is not None and p is not None:
            entry = an.compare(b, p, x_star, window, period).to_dict()
        else:
            for name, log in (("baseline", b), ("proposed", p), ("lbs", lb)):
                if log is not None:
                    entry[name] = an.metrics(log, x_star, window,
                                             period).to_dict()
        report["metrics"][label] = entry
        if p is not None:
            bc = an.check_bound(p.t, p.j_est, p=sc.analysis.p,
                                t_min=sc.analysis.t_min)
            report["bound_check"][label] = bc.to_dict()

    setup = sc.b2_setup()
    if setup is not None:
        objective, elements, constants = setup
        report["b2"] = an.check_b2(elements, objective,
                                   b1_constants=constants).to_dict()

    report_path = os.path.join(out_dir, f"{sc.name}_report.json")
    _json_dump(report, report_path)
    config_path = os.path.join(out_dir, f"{sc.name}_config.json")
    _json_dump(sc.config, config_path)
    return RunArtifacts(csv_paths=csv_paths, report_path=report_path,
                        config_path=config_path, logs=logs)


def cmd_list(args) -> int:
    for name in preset_names():
        print(name)
    return EXIT_OK


def cmd_run(args) -> int:
    sc = _apply_overrides(_load(args), args)
    artifacts = execute_run(sc, args.mode, args.out, seed=args.seed)
    print(json.dumps({"csv": artifacts.csv_paths,
                      "report": artifacts.report_path,
                      "config": artifacts.config_path}, indent=2))
    return EXIT_OK


def _parse_sweep_values(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad sweep list {text!r}") from exc
    if not values:
        raise InputError("empty sweep list")
    return values


def cmd_sweep(args) -> int:
    sc = _load(args)
    if (args.omega is None) == (args.lam is None):
        raise InputError("sweep needs exactly one of --omega or --lambda")
    param = "omega" if args.omega is not None else "lambda"
    values = _parse_sweep_values(args.omega if param == "omega" else args.lam)
    os.makedirs(args.out, exist_ok=True)

    def one_point(value: float) -> dict:
        ns = argparse.Namespace(omega=value if param == "omega" else None,
                                lam=value if param == "lambda" else None,
                                dt=None,
                                horizon=args.horizon)
        sweep_sc = _apply_overrides(sc, ns)
        sub = os.path.join(args.out, f"{param}_{value:g}")
        artifacts = execute_run(sweep_sc, args.mode, sub, seed=args.seed)
        deviations = {}
        finals = {}
        for (label, m), log in artifacts.logs.items():
            key = f"{label}_{m}"
            finals[key] = float(
                np.linalg.norm(log.x[-1] - sweep_sc.x_star(label)))
            if not np.any(np.isnan(log.z_ref)):
                deviations[key] = float(np.max(np.abs(log.x - log.z_ref)))
        return {"value": value, "out": sub, "deviation": deviations,
                "final_error": finals}

    workers = max(1, args.jobs)
    if workers == 1:
        points = [one_point(v) for v in values]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(one_point, values))

    primary_key = f"{sc.primary}_{_run_modes(args.mode)[0]}"
    devs = [pt["deviation"].get(primary_key) for pt in points]
    summary = {"scenario": sc.name, "parameter": param, "values": values,
               "mode": args.mode, "points": points,
               "deviation_strictly_decreasing":
                   (None not in devs
                    and all(b < a for a, b in zip(devs, devs[1:])))}
    path = os.path.join(args.out, f"{sc.name}_sweep_{param}.json")
    _json_dump(summary, path)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_check_bound(args) -> int:
    log = TrajectoryLog.from_csv(args.csv)
    series = log.j_exact if args.oracle else log.j_est
    if np.any(np.isnan(series)):
        raise InputError("requested signal columns are empty in this CSV")
    result = an.check_bound(log.t, series, p=args.p, t_min=args.t_min)
    payload = result.to_dict()
    print(json.dumps(payload, indent=2))
    if args.out:
        _json_dump(payload, args.out)
    return EXIT_OK if result.holds else EXIT_CHECK_FAILED


def cmd_check_b2(args) -> int:
    sc = _load(args)
    setup = sc.b2_setup()
    if setup is None:
        raise InputError(f"scenario {sc.name!r} defines no elements to check")
    objective, elements, constants = setup
    report = an.check_b2(elements, objective, b1_constants=constants)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if args.out:
        _json_dump(payload, args.out)
    return EXIT_CHECK_FAILED if report.contradiction else EXIT_OK


def cmd_compare(args) -> int:
    base = TrajectoryLog.from_csv(args.baseline)
    prop = TrajectoryLog.from_csv(args.proposed)
    x_star = np.asarray(_parse_sweep_values(args.x_star))
    report = an.compare(base, prop, x_star, args.window, args.period)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if args.out:
        _json_dump(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieseek",
        description="Control-affine extremum seeking with attenuating "
                    "oscillations: runs, sweeps, and verification checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list preset scenarios").set_defaults(
        fn=cmd_list)

    def add_scenario_arg(p):
        p.add_argument("scenario", nargs="?", default=None,
                       help="preset name (see `list`)")
        p.add_argument("--config", default=None,
                       help="scenario config file instead of a preset")

    run_p = sub.add_parser("run", help="simulate a scenario")
    add_scenario_arg(run_p)
    run_p.add_argument("--mode", default="both",
                       choices=("baseline", "proposed", "lbs", "both"))
    run_p.add_argument("--omega", type=float, default=None)
    run_p.add_argument("--lambda", dest="lam", type=float, default=None)
    run_p.add_argument("--dt", type=float, default=None)
    run_p.add_argument("--horizon", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="./out")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario over a value list")
    add_scenario_arg(sweep_p)
    sweep_p.add_argument("--omega", default=None,
                         help="comma-separated frequency list")
    sweep_p.add_argument("--lambda", dest="lam", default=None,
                         help="comma-separated gain list")
    sweep_p.add_argument("--mode", default="baseline",
                         choices=("baseline", "proposed", "lbs", "both"))
    sweep_p.add_argument("--horizon", type=float, default=None)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--out", default="./out")
    sweep_p.set_defaults(fn=cmd_sweep)

    cb = sub.add_parser("check-bound",
                        help="check |J(t)| <= 1/t^p on a trajectory CSV")
    cb.add_argument("csv")
    cb.add_argument("--p", type=float, required=True)
    cb.add_argument("--t-min", type=float, default=1.0)
    cb.add_argument("--oracle", action="store_true",
                    help="check the oracle columns instead of the estimate")
    cb.add_argument("--out", default=None)
    cb.set_defaults(fn=cmd_check_bound)

    b2 = sub.add_parser("check-b2",
                        help="vanishing-oscillation condition check")
    add_scenario_arg(b2)
    b2.add_argument("--out", default=None)
    b2.set_defaults(fn=cmd_check_b2)

    cp = sub.add_parser("compare", help="compare two trajectory CSVs")
    cp.add_argument("baseline")
    cp.add_argument("proposed")
    cp.add_argument("--x-star", required=True,
                    help="comma-separated extremum coordinates")
    cp.add_argument("--window", type=float, default=10.0)
    cp.add_argument("--period", type=float, default=None)
    cp.add_argument("--out", default=None)
    cp.set_defaults(fn=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs_scenario = args.command in ("run", "sweep", "check-b2")
    if needs_scenario and not args.scenario and not args.config:
        parser.error(f"{args.command} needs a scenario name or --config")
    try:
        return args.fn(args)
    except (UnknownPresetError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LieseekError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
