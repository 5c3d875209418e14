"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared runs are
module-scoped, so the whole gate costs a handful of full simulations.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import shortened, zero_mean_tabulated
from lieseek.analysis import check_bound, compare, period_average
from lieseek.cli import EXIT_CHECK_FAILED, main
from lieseek.model import DitherSignal, nu_coefficient
from lieseek.scenarios import preset
from lieseek.sim import rk4_step, run_baseline, run_lbs, run_proposed


def _announce(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS: {detail}")


@pytest.fixture(scope="module")
def case1_runs():
    sc = preset("case1")
    spec = sc.primary_system
    t0 = time.perf_counter()
    baseline = run_baseline(spec)
    proposed = run_proposed(spec, sc.gekf_config())
    elapsed = time.perf_counter() - t0
    return {"sc": sc, "spec": spec, "baseline": baseline,
            "proposed": proposed, "elapsed": elapsed}


@pytest.fixture(scope="module")
def case2_runs():
    sc = preset("case2")
    spec = sc.primary_system
    return {"sc": sc, "spec": spec, "baseline": run_baseline(spec),
            "proposed": run_proposed(spec, sc.gekf_config())}


@pytest.fixture(scope="module")
def case3_run():
    sc = preset("case3")
    spec = sc.systems["vehicle3"]
    return {"sc": sc, "spec": spec,
            "proposed": run_proposed(spec, sc.gekf_config("vehicle3"))}


def test_c01_case1_reproduction(case1_runs):
    """Adaptive run converges with vanishing oscillation inside 10 s."""
    sc, spec = case1_runs["sc"], case1_runs["spec"]
    baseline, proposed = case1_runs["baseline"], case1_runs["proposed"]
    assert case1_runs["elapsed"] < 10.0
    assert abs(proposed.x[-1, 0] - 1.0) <= 0.1
    assert abs(proposed.a[-1, 0]) <= 0.1 * spec.a0[0]
    rep = compare(baseline, proposed, [1.0], window=10.0,
                  period=spec.dither_period_seconds)
    assert rep.envelope_ratio is not None and rep.envelope_ratio <= 0.2
    _announce("C1", f"|x(end)-1|={abs(proposed.x[-1, 0] - 1):.2e}, "
                    f"a(end)={abs(proposed.a[-1, 0]):.2e}, "
                    f"envelope ratio={rep.envelope_ratio:.2e}, "
                    f"runtime={case1_runs['elapsed']:.1f}s")


def test_c02_time_decay_bound(case1_runs, case2_runs, case3_run):
    """|J| <= 1/t^1.05 holds with early onset on all three presets."""
    p = 1.05
    est1 = check_bound(case1_runs["proposed"].t, case1_runs["proposed"].j_est,
                       p=p, t_min=1.0)
    ora1 = check_bound(case1_runs["proposed"].t,
                       case1_runs["proposed"].j_exact, p=p, t_min=1.0)
    assert est1.holds and est1.channels[0].t_star <= 50.0
    assert ora1.holds and ora1.channels[0].t_star <= 50.0

    est2 = check_bound(case2_runs["proposed"].t, case2_runs["proposed"].j_est,
                       p=p, t_min=1.0)
    ora2 = check_bound(case2_runs["proposed"].t,
                       case2_runs["proposed"].j_exact, p=p, t_min=1.0)
    assert est2.holds and all(c.t_star <= 50.0 for c in est2.channels)
    assert ora2.holds and all(c.t_star <= 50.0 for c in ora2.channels)

    est3 = check_bound(case3_run["proposed"].t, case3_run["proposed"].j_est,
                       p=p, t_min=1.0)
    assert est3.holds and all(c.t_star <= 50.0 for c in est3.channels)
    stars = [est1.channels[0].t_star, max(c.t_star for c in est2.channels),
             max(c.t_star for c in est3.channels)]
    _announce("C2", "onsets (case1, case2, case3 vehicle3) = "
                    + ", ".join(f"{s:.2f}s" for s in stars))


def test_c03_case2_reproduction(case2_runs):
    spec = case2_runs["spec"]
    baseline, proposed = case2_runs["baseline"], case2_runs["proposed"]
    assert np.all(np.abs(proposed.x[-1]) <= 0.1)
    assert np.all(np.abs(proposed.a[-1]) <= 0.1 * spec.a0)
    rep = compare(baseline, proposed, [0.0, 0.0], window=10.0,
                  period=spec.dither_period_seconds)
    assert rep.envelope_ratio is not None and rep.envelope_ratio <= 1 / 5
    _announce("C3", f"|x(end)|={np.abs(proposed.x[-1]).max():.2e}, "
                    f"envelope ratio={rep.envelope_ratio:.2e}")


def test_c04_case3_reproduction(case3_run, tmp_path, capsys):
    proposed = case3_run["proposed"]
    err = float(np.linalg.norm(proposed.x[-1] - np.array([-1.0, 1.0])))
    assert err <= 0.15
    rc = main(["check-b2", "case3", "--out", str(tmp_path / "b2.json")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == EXIT_CHECK_FAILED
    assert payload["contradiction"]
    with capsys.disabled():
        _announce("C4", f"vehicle3 final error={err:.3f}, "
                        f"condition check exit={rc} (contradiction)")


def test_c05_nu_coefficient_exactness():
    cos, sin = DitherSignal(kind="cosine"), DitherSignal(kind="sine")
    assert abs(nu_coefficient(sin, cos) - 0.5) <= 1e-8
    assert abs(nu_coefficient(cos, sin) + 0.5) <= 1e-8
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        da, db = zero_mean_tabulated(rng), zero_mean_tabulated(rng)
        worst = max(worst, abs(nu_coefficient(da, db)
                               + nu_coefficient(db, da)))
    assert worst <= 1e-8
    _announce("C5", f"pair weight=0.5 exact, worst antisymmetry "
                    f"residual={worst:.2e}")


def test_c06_practical_stability_order():
    """Deviation from the averaged trajectory shrinks as omega grows."""
    t0 = time.perf_counter()
    deviations = []
    for omega in (50.0, 200.0, 800.0):
        cfg = shortened("case1", 10.0).config
        cfg["systems"]["main"]["omega"] = omega
        from lieseek.scenarios import Scenario
        spec = Scenario(cfg).primary_system
        log = run_baseline(spec)
        deviations.append(float(np.max(np.abs(log.x - log.z_ref))))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert deviations[0] > deviations[1] > deviations[2]
    _announce("C6", "sup deviations @ omega 50/200/800 = "
                    + "/".join(f"{d:.3f}" for d in deviations)
                    + f", runtime={elapsed:.1f}s")


def test_c07_integrator_and_truncation_orders(case1_runs):
    def rk4_error(dt):
        z, t = np.array([2.0]), 0.0
        for _ in range(round(1.0 / dt)):
            z = rk4_step(lambda tt, zz: -2.0 * (zz - 1.0), t, z, dt)
            t += dt
        return abs(z[0] - (1.0 + math.exp(-2.0 * t)))

    rk_ratio = rk4_error(0.02) / rk4_error(0.01)
    assert 12.0 <= rk_ratio <= 20.0

    from lieseek.lie import chen_fliess_predict
    spec = case1_runs["spec"]
    log = case1_runs["baseline"]
    omega, sw, spp = spec.omega, math.sqrt(spec.omega), spec.steps_per_period

    def cf_error(substeps):
        errs = []
        for k0 in range(spp, 2 * spp, substeps):
            k1 = k0 + substeps
            t_grid = log.t[k0:k1 + 1]
            u1 = np.trapezoid(sw * np.cos(omega * t_grid), t_grid)
            u2 = np.trapezoid(sw * np.sin(omega * t_grid), t_grid)
            pred = chen_fliess_predict(spec, log.f[k0],
                                       4.0 * (log.x[k0] - 1.0), [u1], [u2])
            errs.append(abs(pred - log.f[k1]))
        return max(errs)

    cf_ratio = cf_error(16) / cf_error(8)
    assert 3.0 <= cf_ratio <= 5.0
    _announce("C7", f"integrator halving ratio={rk_ratio:.1f} (target ~16), "
                    f"truncation halving ratio={cf_ratio:.2f} (target ~4)")


def test_c08_adaptation_law_analytics():
    sc = shortened("case1", 10.5)
    spec = sc.primary_system
    log = run_proposed(spec, sc.gekf_config(), j_override=0.0)
    ratio = float(np.interp(10.0, log.t, log.a[:, 0])) / spec.a0[0]
    assert ratio == pytest.approx(math.exp(-1.0), abs=1e-4)

    c = 0.37
    sc2 = shortened("case1", 10.0 / 0.1 + 0.5)
    log2 = run_proposed(sc2.primary_system, sc2.gekf_config(), j_override=c)
    a_settled = float(np.interp(10.0 / 0.1, log2.t, log2.a[:, 0]))
    assert abs(a_settled - c) <= 0.01 * c
    _announce("C8", f"a(10)/a0={ratio:.6f} vs e^-1={math.exp(-1):.6f}; "
                    f"a(10/lambda)={a_settled:.4f} -> {c}")


def test_c09_estimation_quality(case1_runs):
    spec, proposed = case1_runs["spec"], case1_runs["proposed"]
    spp = spec.steps_per_period
    period = spec.dither_period_seconds
    jest = period_average(proposed.j_est[:, 0], spp)
    jex = period_average(proposed.j_exact[:, 0], spp)
    mask = proposed.t > 20.0 * period
    denom = np.abs(jex[mask])
    keep = denom > 0
    rel = np.abs(jest[mask][keep] - jex[mask][keep]) / denom[keep]
    median = float(np.median(rel))
    assert median <= 0.30

    eta = np.abs(period_average(proposed.j_est[:, 0] - proposed.j_exact[:, 0],
                                spp))
    assert np.all(np.isfinite(eta))
    quarter = len(eta) // 4
    first, last = eta[:quarter].mean(), eta[-quarter:].mean()
    assert last < first
    _announce("C9", f"median relative error={median:.3f} (<=0.30), "
                    f"error first/last quarter={first:.2e}/{last:.2e}")


def test_c10_determinism_and_covariance_health(case1_runs, case2_runs,
                                               case3_run, tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        rc = main(["run", "case1", "--mode", "proposed", "--horizon", "20",
                   "--seed", "7", "--out", out])
        capsys.readouterr()
        assert rc == 0
        outs.append(os.path.join(out, "case1_main_proposed.csv"))
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()

    worst = min(float(run["proposed"].diag["min_eig_p"].min())
                for run in (case1_runs, case2_runs, case3_run))
    assert worst >= -1e-9
    with capsys.disabled():
        _announce("C10", f"seeded CSVs byte-identical; min covariance "
                         f"eigenvalue across runs={worst:.2e}")
