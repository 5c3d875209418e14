"""Command-line interface: scenario runs, parameter sweeps, and checks.

``run`` and ``sweep`` make their runs the same way, through
:func:`_batch_runs`: one :func:`lieseek.sim.run_batch` (or ``lbs_batch``)
call per system and mode over all of a process's points, which decides
on its own which runs share a lockstep loop and one integration of their
references.  ``sweep --jobs N`` runs the points on N processes: the
calling process runs every N-th point from the first, and each of N-1
forked workers (POSIX only) runs every N-th point from its own offset.
The output does not depend on N.

Exit codes: 0 success (and check passed), 1 check failed, 2 usage error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis as an
from .errors import ConfigurationError, InputError, LieseekError, UnknownPresetError
from .model import require_finite
from .scenarios import Scenario, load_scenario, preset, preset_names
from .sim import (TrajectoryLog, _atomic_write, _raised, lbs_batch, run_batch,
                  step_times)

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
    if mode not in ("baseline", "proposed", "lbs"):
        raise InputError(f"unknown mode {mode!r}")
    return (mode,)


def _require_bound_samples(sc: Scenario, mode: str) -> None:
    """The bound check of a proposed run needs samples at or after the
    scenario's ``t_min``: fail at load, before a run writes a file."""
    if "proposed" not in _run_modes(mode):
        return
    t_min = sc.analysis.t_min
    for label, spec in sc.systems.items():
        if spec.horizon <= t_min or step_times(spec)[-1] < t_min:
            raise ConfigurationError(
                f"horizon {spec.horizon:g} of system {label!r} must exceed "
                f"the bound check's t_min = {t_min:g} in mode {mode!r}")


def execute_run(sc: Scenario, mode: str, out_dir: str, seed: int = 0,
                runs: Optional[dict] = None) -> RunArtifacts:
    """Run a scenario in the requested mode(s) and emit all artifacts.

    ``runs`` holds the runs made beforehand, by (label, mode): the log,
    or the error that the run raised.  Without it the runs are made here,
    by :func:`_batch_runs`.
    """
    _require_bound_samples(sc, mode)
    os.makedirs(out_dir, exist_ok=True)
    if runs is None:
        runs = _batch_runs([sc], mode, seed)[0]
    logs: dict[tuple[str, str], TrajectoryLog] = {}
    csv_paths: dict[str, str] = {}
    for label in sc.systems:
        for m in _run_modes(mode):
            log = _raised(runs[(label, m)])
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


def _parse_floats(flag: str, text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: bad number list {text!r}") from exc
    if not values:
        raise ConfigurationError(f"{flag}: empty number list")
    return values


def _batch_runs(scenarios: list[Scenario], mode: str, seed: int) -> list[dict]:
    """The runs of the scenarios, one :func:`run_batch` (or
    :func:`lbs_batch`) call per system label and mode, which decides what
    shares a lockstep loop: per scenario, the log or error by (label,
    mode)."""
    runs: list[dict] = [{} for _ in scenarios]
    for label in scenarios[0].systems:
        specs = [point_sc.systems[label] for point_sc in scenarios]
        for m in _run_modes(mode):
            if m == "lbs":
                results = lbs_batch(specs)
            else:
                gcfgs = ([point_sc.gekf_config(label) for point_sc in scenarios]
                         if m == "proposed" else None)
                results = run_batch(specs, gcfgs, [seed] * len(specs))
            for point_runs, result in zip(runs, results):
                point_runs[(label, m)] = result
    return runs


def _point_summary(sc: Scenario, value: float, sub: str,
                   artifacts: RunArtifacts) -> dict:
    deviations = {}
    finals = {}
    for (label, m), log in artifacts.logs.items():
        key = f"{label}_{m}"
        finals[key] = float(np.linalg.norm(log.x[-1] - sc.x_star(label)))
        deviations[key] = float(np.max(np.abs(log.x - log.z_ref)))
    return {"value": value, "out": sub, "deviation": deviations,
            "final_error": finals}


def _point_dir(param: str, value: float) -> str:
    """The name of a sweep point's output directory."""
    return f"{param}_{value:g}"


def _sweep_points(sc: Scenario, param: str, values: list[float],
                  horizon: Optional[float], mode: str, out: str,
                  seed: int) -> tuple[list[dict], Optional[LieseekError]]:
    """Run the sweep points ``values`` in order up to the first failure;
    returns one dict per finished point, and the failure or ``None``.

    The points are loaded first, up to the first that fails to load, and
    the runs of all loaded points made by one :func:`_batch_runs` call.
    The points then write their files in order, up to the first that
    fails.
    """
    loaded: list[tuple[float, Scenario]] = []
    failure: Optional[LieseekError] = None
    for value in values:
        ns = argparse.Namespace(omega=value if param == "omega" else None,
                                lam=value if param == "lambda" else None,
                                dt=None, horizon=horizon)
        try:
            point_sc = _apply_overrides(sc, ns)
            _require_bound_samples(point_sc, mode)
        except LieseekError as exc:
            failure = exc
            break
        loaded.append((value, point_sc))

    runs = (_batch_runs([point_sc for _, point_sc in loaded], mode, seed)
            if loaded else [])
    points: list[dict] = []
    for (value, point_sc), point_runs in zip(loaded, runs):
        sub = os.path.join(out, _point_dir(param, value))
        try:
            artifacts = execute_run(point_sc, mode, sub, seed=seed,
                                    runs=point_runs)
        except LieseekError as exc:
            return points, exc
        points.append(_point_summary(point_sc, value, sub, artifacts))
    return points, failure


def _sweep_share(config: dict, *share) -> tuple:
    """:func:`_sweep_points` in a worker process, on a scenario rebuilt from
    its config: a pickled scenario would lose the read-only flag of its
    specs' arrays, which the runs cached per spec rely on."""
    return _sweep_points(Scenario(config), *share)


def _run_shares(sc: Scenario, param: str, values: list[float], jobs: int,
                *rest) -> list[dict]:
    """Run the sweep points on ``jobs`` processes, in fixed strided shares.

    Share k holds points k, k+jobs, k+2*jobs, ...  The calling process
    runs share 0 itself and each other share goes to one forked worker.
    Shares are fixed, not drawn from a queue, so each process runs the
    same points on every call.  Returns the points in value order, or
    raises the failure of the first failing point, as ``jobs=1`` does.
    """
    if jobs == 1:
        done = [_sweep_points(sc, param, values, *rest)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # fork, not spawn: a spawned worker would import numpy and the
        # package anew (about 0.25 s on a 2-core host).  Forking is safe
        # here: the executor forks all its workers before it starts its
        # own thread, OpenBLAS (numpy's BLAS) stops its thread pool around
        # a fork, and the workers share no state with the caller.
        with ProcessPoolExecutor(max_workers=jobs - 1,
                                 mp_context=multiprocessing.get_context("fork")
                                 ) as pool:
            shares = [values[k::jobs] for k in range(jobs)]
            futures = [pool.submit(_sweep_share, sc.config, param, share, *rest)
                       for share in shares[1:]]
            done = [_sweep_points(sc, param, shares[0], *rest)]
            try:
                done += [future.result() for future in futures]
            except BrokenProcessPool as exc:
                raise LieseekError(f"a sweep worker process died: {exc}") from exc
    # share k stopped at its point k + jobs * (points it finished)
    failures = [(k + jobs * len(share), exc)
                for k, (share, exc) in enumerate(done) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    points: list = [None] * len(values)
    for k, (share_points, _) in enumerate(done):
        points[k::jobs] = share_points
    return points


def cmd_sweep(args) -> int:
    sc = _load(args)
    if (args.omega is None) == (args.lam is None):
        raise ConfigurationError("sweep needs exactly one of --omega or --lambda")
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    param = "omega" if args.omega is not None else "lambda"
    values = _parse_floats(f"--{param}",
                           args.omega if param == "omega" else args.lam)
    dirs = [_point_dir(param, value) for value in values]
    for k, name in enumerate(dirs):
        if name in dirs[:k]:
            raise ConfigurationError(
                f"--{param} values {values[dirs.index(name)]!r} and "
                f"{values[k]!r} both write to {name}")
    os.makedirs(args.out, exist_ok=True)
    points = _run_shares(sc, param, values, min(args.jobs, len(values)),
                         args.horizon, args.mode, args.out, args.seed)

    primary_key = f"{sc.primary}_{_run_modes(args.mode)[0]}"
    devs = [pt["deviation"][primary_key] for pt in points]
    summary = {"scenario": sc.name, "parameter": param, "values": values,
               "mode": args.mode, "points": points,
               "deviation_strictly_decreasing":
                   all(b < a for a, b in zip(devs, devs[1:]))}
    path = os.path.join(args.out, f"{sc.name}_sweep_{param}.json")
    _json_dump(summary, path)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _require_above(flag: str, value: float, bound: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is finite and
    above ``bound``."""
    if not (math.isfinite(value) and value > bound):
        raise ConfigurationError(
            f"{flag} must be finite and above {bound:g}, got {value:g}")


def cmd_check_bound(args) -> int:
    _require_above("--p", args.p, 1.0)
    _require_above("--t-min", args.t_min, 0.0)
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
    _require_above("--window", args.window, 0.0)
    if args.period is not None:
        _require_above("--period", args.period, 0.0)
    x_star = np.asarray(_parse_floats("--x-star", args.x_star))
    require_finite("--x-star", x_star)
    base = TrajectoryLog.from_csv(args.baseline)
    prop = TrajectoryLog.from_csv(args.proposed)
    if len(x_star) != base.n or len(x_star) != prop.n:
        raise ConfigurationError(
            f"--x-star has {len(x_star)} coordinates, the logs have "
            f"{base.n} and {prop.n}")
    span = min(log.t[-1] - log.t[0] for log in (base, prop))
    if not args.window < span:
        raise ConfigurationError(
            f"--window must be shorter than the logs' span {span:g}, "
            f"got {args.window:g}")
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
