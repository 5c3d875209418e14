import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shortened
import lieseek.sim as sim
from lieseek.cli import execute_run
from lieseek.errors import (DivergenceError, EvaluationError, InputError,
                            IntegrationError, LieseekError)
from lieseek.model import DitherSignal, EstimationErrorModel, ObjectiveMap
from lieseek.scenarios import Scenario, preset
from lieseek.sim import (TrajectoryLog, rk4_step, run_baseline, run_lbs,
                         run_proposed)


class TestRk4Step:
    def test_zero_rhs(self):
        out = rk4_step(lambda t, x: np.zeros_like(x), 0.0, np.array([3.0]), 0.1)
        assert out[0] == 3.0

    def test_polynomial_exactness(self):
        out = rk4_step(lambda t, x: np.array([1.0]), 0.0, np.array([0.0]), 0.1)
        assert out[0] == pytest.approx(0.1, abs=1e-15)

    def test_exponential_decay_accuracy(self):
        alpha, x = 0.5, np.array([1.0])
        t, dt = 0.0, 1e-3
        for _ in range(1000):
            x = rk4_step(lambda tt, xx: -2.0 * alpha * xx, t, x, dt)
            t += dt
        assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_fourth_order_convergence(self):
        """Halving dt shrinks the averaged-system error ~16x."""
        def err(dt):
            z, t = np.array([2.0]), 0.0
            steps = round(1.0 / dt)
            for _ in range(steps):
                z = rk4_step(lambda tt, zz: -2.0 * (zz - 1.0), t, z, dt)
                t += dt
            return abs(z[0] - (1.0 + math.exp(-2.0 * t)))

        ratio = err(0.02) / err(0.01)
        assert 12.0 <= ratio <= 20.0

    def test_non_finite_stage_raises(self):
        def rhs(t, x):
            return np.array([float("inf")])
        with pytest.raises(IntegrationError):
            rk4_step(rhs, 0.0, np.array([0.0]), 0.1)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_names_the_first_non_finite_stage(self, stage):
        calls = []

        def rhs(t, x):
            calls.append(t)
            bad = len(calls) >= stage
            return np.array([float("nan") if bad else 1.0, 2.0])
        with pytest.raises(IntegrationError,
                           match=f"non-finite RK4 stage {stage} at t=0.5"):
            rk4_step(rhs, 0.5, np.zeros(2), 0.1)


class TestRunLbs:
    def test_case1_matches_analytic_solution(self):
        sc = shortened("case1", 5.0)
        log = run_lbs(sc.primary_system)
        analytic = 1.0 + np.exp(-2.0 * log.t)
        np.testing.assert_allclose(log.x[:, 0], analytic, atol=1e-5)
        k = int(round(1.0 / log.stride))
        assert log.x[k, 0] == pytest.approx(1.0 + math.exp(-2.0 * log.t[k]),
                                            abs=1e-9)

    def test_equilibrium_start_stays(self):
        sc = shortened("case1", 5.0)
        cfg = sc.config
        cfg["systems"]["main"]["x0"] = [1.0]
        log = run_lbs(Scenario(cfg).primary_system)
        np.testing.assert_allclose(log.x[:, 0], 1.0, atol=1e-12)

    def test_decaying_error_still_converges(self):
        sc = shortened("case1", 100.0)
        err = EstimationErrorModel(eps0=0.1, theta0=0.2)
        log = run_lbs(sc.primary_system, err=err)
        assert abs(log.x[-1, 0] - 1.0) < 0.05
        # unperturbed reference is co-logged
        assert not np.any(np.isnan(log.z_ref))
        assert abs(log.z_ref[-1, 0] - 1.0) < 1e-6


class TestRunBaseline:
    def test_case1_practical_convergence_with_oscillation(self):
        sc = shortened("case1", 40.0)
        log = run_baseline(sc.primary_system)
        tail = log.t >= log.t[-1] - 10.0
        assert abs(log.x[tail, 0].mean() - 1.0) <= 0.1
        envelope = (log.x[tail, 0].max() - log.x[tail, 0].min()) / 2.0
        assert envelope > 0.01

    def test_start_at_extremum_no_drift(self):
        from lieseek.analysis import period_average
        sc = shortened("case1", 20.0)
        cfg = sc.config
        cfg["systems"]["main"]["x0"] = [1.0]
        spec = Scenario(cfg).primary_system
        log = run_baseline(spec)
        # drift of the oscillation centre, not the dither excursion itself
        centre = period_average(log.x[:, 0], spec.steps_per_period)
        assert np.max(np.abs(centre - 1.0)) < 0.5

    def test_divergence_guard_fires(self):
        cfg = shortened("case1", 20.0).config
        # shifted domain box makes the run start far outside the allowed region
        cfg["systems"]["main"]["objective"]["domain_box"] = [[100.0, 100.2]]
        cfg["systems"]["main"]["objective"]["center"] = [100.1]
        cfg["systems"]["main"]["x0"] = [0.0]
        with pytest.raises(DivergenceError):
            run_baseline(Scenario(cfg).primary_system)


class TestRunProposed:
    def test_amplitude_follows_forced_zero_signal(self):
        sc = shortened("case1", 10.0)
        log = run_proposed(sc.primary_system, sc.gekf_config(), j_override=0.0)
        assert log.a[-1, 0] / 1.0 == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_amplitude_tracks_constant_signal(self):
        sc = shortened("case1", 100.0)
        c = 0.4
        log = run_proposed(sc.primary_system, sc.gekf_config(), j_override=c)
        assert log.a[-1, 0] == pytest.approx(c, rel=0.01)

    def test_amplitude_step_is_the_rk4_step(self):
        lam, dt = np.array([0.1, 2.0]), 0.01
        a, j = np.array([1.0, 0.5]), np.array([0.3, -0.2])
        step = rk4_step(lambda t, a: -lam * (a - j), 0.0, a, dt)
        closed = j + (a - j) * sim._rk4_decay(-lam * dt)
        np.testing.assert_allclose(closed, step, rtol=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_signal_fails_the_step_that_reads_it(self):
        sc = shortened("case1", 1.0)
        spec = sc.primary_system
        t_bad = float(sim.step_times(spec)[10])
        with pytest.raises(IntegrationError) as exc:
            run_proposed(spec, sc.gekf_config(),
                         j_override=lambda t: math.inf if t >= t_bad else 0.0)
        assert exc.value.t == t_bad

    def test_start_at_extremum_amplitude_decays(self):
        from lieseek.analysis import period_average
        sc = shortened("case1", 10.0)
        cfg = sc.config
        cfg["systems"]["main"]["x0"] = [1.0]
        sc2 = Scenario(cfg)
        spec = sc2.primary_system
        log = run_proposed(spec, sc2.gekf_config())
        after = log.t > spec.dither_period_seconds
        a = log.a[after, 0]
        assert a[-1] < 0.5 * a[0]
        centre = period_average(log.x[:, 0], spec.steps_per_period)
        assert np.max(np.abs(centre - 1.0)) < 0.5

    def test_amplitude_comparison_bound(self):
        """a(t) stays between the running extremes of a0 and the signal."""
        sc = shortened("case1", 30.0)
        log = run_proposed(sc.primary_system, sc.gekf_config())
        j = log.j_est[:, 0]
        lo = np.minimum.accumulate(np.minimum(j, 1.0))
        hi = np.maximum.accumulate(np.maximum(j, 1.0))
        assert np.all(log.a[:, 0] >= lo - 1e-6)
        assert np.all(log.a[:, 0] <= hi + 1e-6)

    def test_tracks_averaged_trajectory_after_transient(self):
        """Period-averaged adaptive run hugs the averaged reference.

        The first dither arc takes a genuine large excursion (the
        objective-proportional coefficient amplifies the opening cosine
        upswing), so the trailing average only becomes meaningful once
        that arc has left the window: checked from three periods onward.
        """
        sc = shortened("case1", 40.0)
        spec = sc.primary_system
        log = run_proposed(spec, sc.gekf_config())
        from lieseek.analysis import period_average
        centre = period_average(log.x[:, 0], spec.steps_per_period)
        settled = log.t >= 3.0 * spec.dither_period_seconds
        gap = np.abs(centre[settled] - log.z_ref[settled, 0])
        assert gap.max() <= 0.3

    def test_filter_and_oracle_columns_logged(self):
        sc = shortened("case1", 5.0)
        log = run_proposed(sc.primary_system, sc.gekf_config())
        assert not np.any(np.isnan(log.j_est))
        assert not np.any(np.isnan(log.j_exact))
        assert not np.any(np.isnan(log.z_ref))
        assert log.diag is not None
        assert {"x1", "x2", "x3", "innovation", "trace_p",
                "min_eig_p"} <= set(log.diag)

    def test_covariance_summaries_match_each_row(self, monkeypatch):
        """``trace_p`` and ``min_eig_p``, computed for all rows after the
        loop, equal a per-matrix trace and ``eigvalsh`` bit for bit."""
        from lieseek.gekf import GekfFilter
        sc = shortened("case2", 2.0)
        gcfg = sc.gekf_config()
        covariances = [gcfg.p0 * np.eye(2 * sc.primary_system.n + 1)]
        step_export = GekfFilter.step_export

        def recording(self):
            covariances.append(self.P.copy())
            return step_export(self)

        monkeypatch.setattr(GekfFilter, "step_export", recording)
        log = run_proposed(sc.primary_system, gcfg)
        assert len(covariances) == log.t.size
        assert set(log.diag) == {"x1", "x2", "x3", "innovation", "trace_p",
                                 "min_eig_p"}
        for k, P in enumerate(covariances):
            assert log.diag["trace_p"][k] == np.trace(P)
            assert log.diag["min_eig_p"][k] == np.linalg.eigvalsh(P).min()


class TestTrajectoryLog:
    def test_csv_round_trip(self, tmp_path):
        sc = shortened("case1", 2.0)
        log = run_proposed(sc.primary_system, sc.gekf_config())
        path = tmp_path / "run.csv"
        log.to_csv(str(path))
        back = TrajectoryLog.from_csv(str(path))
        np.testing.assert_array_equal(back.t, log.t)
        np.testing.assert_array_equal(back.x, log.x)
        np.testing.assert_array_equal(back.j_est, log.j_est)

    def test_header_schema(self):
        sc = shortened("case2", 1.0)
        log = run_baseline(sc.primary_system)
        assert log.header() == ("t,x_1,x_2,f,a_1,a_2,Jest_1,Jest_2,"
                                "Jexact_1,Jexact_2,zref_1,zref_2")

    def test_empty_oracle_columns_serialize_empty(self, tmp_path):
        sc = shortened("case1", 1.0)
        log = run_baseline(sc.primary_system)
        # baseline logs no estimate; cells must be empty, not nan text
        path = tmp_path / "b.csv"
        log.to_csv(str(path))
        first_data_row = path.read_text().splitlines()[1]
        assert ",," in first_data_row
        back = TrajectoryLog.from_csv(str(path))
        assert np.all(np.isnan(back.j_est))

    def test_determinism_byte_identical(self, tmp_path):
        sc = shortened("case1", 3.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_proposed(sc.primary_system, sc.gekf_config(), seed=7).to_csv(str(p1))
        run_proposed(sc.primary_system, sc.gekf_config(), seed=7).to_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_strictly_increasing_time_required(self):
        t = np.array([0.0, 0.0, 1.0])
        z = np.zeros((3, 1))
        with pytest.raises(InputError):
            TrajectoryLog(t, z, np.zeros(3), z, z, z, z)

    def test_seeded_noise_is_reproducible(self):
        sc = shortened("case1", 2.0)
        a = run_proposed(sc.primary_system, sc.gekf_config(), seed=3,
                         noise_std=0.01)
        b = run_proposed(sc.primary_system, sc.gekf_config(), seed=3,
                         noise_std=0.01)
        c = run_proposed(sc.primary_system, sc.gekf_config(), seed=4,
                         noise_std=0.01)
        np.testing.assert_array_equal(a.j_est, b.j_est)
        assert np.any(a.j_est != c.j_est)


class TestAveragedReference:
    """Every runner's ``zref`` column is the ``--mode lbs`` trajectory."""

    @pytest.mark.parametrize("name,horizon", [("case1", 5.0), ("case2", 2.0)])
    def test_zref_is_the_lbs_trajectory(self, name, horizon):
        sc = shortened(name, horizon)
        spec = sc.primary_system
        lbs = run_lbs(spec).x
        err = EstimationErrorModel(eps0=0.1, theta0=0.2)
        for log in (run_baseline(spec), run_proposed(spec, sc.gekf_config()),
                    run_lbs(spec, err=err)):
            assert np.array_equal(log.z_ref, lbs)

    def test_both_mode_integrates_the_reference_once_per_system(
            self, tmp_path, monkeypatch):
        calls = []
        inner = sim.lbs_rhs_exact

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(sim, "lbs_rhs_exact", counting)
        sc = shortened("case3", 1.2)
        art = execute_run(sc, "both", str(tmp_path))
        steps = [int(round(spec.horizon / spec.resolved_dt))
                 for spec in sc.systems.values()]
        # four RK4 stages per reference step, plus one Jexact call for
        # all logged rows of each of the two runs
        assert len(calls) == sum(4 * k + 2 for k in steps)
        assert sim._reference.cache_info().currsize == 1
        for label in sc.systems:
            base, prop = (TrajectoryLog.from_csv(art.csv_paths[f"{label}_{m}"])
                          for m in ("baseline", "proposed"))
            assert np.array_equal(base.z_ref, prop.z_ref)
            assert art.logs[(label, "baseline")].z_ref is \
                art.logs[(label, "proposed")].z_ref


    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_jexact_is_the_oracle_at_each_logged_row(self, name):
        sc = shortened(name, 1.0)
        spec = sc.primary_system
        for log in (run_baseline(spec), run_proposed(spec, sc.gekf_config()),
                    run_lbs(spec)):
            for k in range(log.t.shape[0]):
                j = sim.lbs_rhs_exact(spec, log.x[k], amplitude=log.a[k])
                assert j.tobytes() == log.j_exact[k].tobytes()

    def test_perturbed_run_leaves_the_reference_cache_alone(self):
        spec = shortened("case1", 0.5).primary_system
        ref = run_lbs(spec).z_ref
        err = EstimationErrorModel(eps0=0.1, theta0=0.2)
        run_lbs(spec, err=err)
        assert sim._reference.cache_info().currsize == 1
        assert run_baseline(spec).z_ref is ref
        assert not ref.flags.writeable


class TestDitherTables:
    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_log_times_are_the_table_times(self, name):
        sc = shortened(name, 1.0)
        spec = sc.primary_system
        steps = int(round(spec.horizon / spec.resolved_dt))
        t, _, _ = sim._dither_tables(spec, steps)
        for log in (run_baseline(spec), run_proposed(spec, sc.gekf_config())):
            assert log.t.tobytes() == t.tobytes()

    def test_rows_are_the_scalar_dither_values(self):
        rng = np.random.default_rng(5)
        from conftest import zero_mean_tabulated
        spec = shortened("case2", 0.5).primary_system
        dithers = {"u1": zero_mean_tabulated(rng), "u2": DitherSignal(
            kind="cosine", phase=0.3)}
        spec = type(spec)(objective=spec.objective, channels=spec.channels,
                          dithers=dithers, omega=spec.omega, a0=spec.a0,
                          lam=spec.lam, x0=spec.x0, horizon=spec.horizon)
        steps = int(round(spec.horizon / spec.resolved_dt))
        t, u1, u2 = sim._dither_tables(spec, steps)
        dt = spec.resolved_dt
        for k in (0, 1, steps // 2, steps - 1):
            for row, tk in ((2 * k, t[k]), (2 * k + 1, t[k] + 0.5 * dt),
                            (2 * k + 2, t[k + 1])):
                th = spec.omega * float(tk)
                assert u1[row, 1] == float(dithers["u1"].value(th))
                d = dithers["u2"]
                assert u2[row, 0] == math.cos(
                    (sim.TAU / d.period) * th + d.phase)


def _member(name: str, horizon: float, gekf: dict | None = None, **system):
    """Primary system and filter configuration of a shortened preset, with
    settings of the system's and the filter's config replaced."""
    cfg = shortened(name, horizon).config
    cfg["systems"][cfg["primary"]].update(system)
    cfg["gekf"].update(gekf or {})
    sc = Scenario(cfg)
    return sc.primary_system, sc.gekf_config()


def _primary_config(name: str) -> dict:
    """The config of a preset's primary system."""
    cfg = preset(name).config
    return cfg["systems"][cfg["primary"]]


def _csv_bytes(log: TrajectoryLog) -> list[bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "run.csv", Path(tmp) / "run_gekf.csv"]
        log.to_csv(str(paths[0]))
        if log.diag:
            log.diagnostics_to_csv(str(paths[1]))
        return [p.read_bytes() for p in paths if p.exists()]


def _assert_same_run(member: TrajectoryLog, alone: TrajectoryLog) -> None:
    """Every array, the meta and both CSV files are equal, bit for bit."""
    for name in ("t", "x", "f", "a", "j_est", "j_exact", "z_ref"):
        assert getattr(member, name).tobytes() == getattr(alone, name).tobytes()
    assert member.meta == alone.meta
    assert (member.diag is None) == (alone.diag is None)
    if alone.diag:
        assert list(member.diag) == list(alone.diag)
        for key, arr in alone.diag.items():
            assert member.diag[key].tobytes() == arr.tobytes()
    assert _csv_bytes(member) == _csv_bytes(alone)


def _assert_same_result(member, own_run) -> None:
    """``member`` is the log of ``own_run()``, or the error that it raises."""
    try:
        alone = own_run()
    except LieseekError as exc:
        assert type(member) is type(exc) and str(member) == str(exc)
        return
    _assert_same_run(member, alone)


class TestLockstepBatch:
    """Member k of a batch equals the run of that member alone."""

    @given(lams=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
                         min_size=2, max_size=4),
           horizon=st.floats(0.3, 1.2))
    @settings(max_examples=6, deadline=None)
    def test_lambda_members_equal_their_own_runs(self, lams, horizon):
        members = [_member("case2", horizon, **{"lambda": list(lam)})
                   for lam in lams]
        batch = sim.run_batch([spec for spec, _ in members],
                              [gcfg for _, gcfg in members])
        for (spec, gcfg), log in zip(members, batch):
            _assert_same_run(log, run_proposed(spec, gcfg))

    @given(points=st.lists(st.tuples(st.floats(10.0, 60.0),
                                     st.floats(0.3, 1.2)),
                           min_size=2, max_size=4),
           adapt=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_omega_members_equal_their_own_runs(self, points, adapt):
        """Members that differ in omega, and so in dt and step count, and
        in horizon: each runs on its own grid and leaves after its own
        last step."""
        members = [_member("case2", horizon, omega=omega)
                   for omega, horizon in points]
        specs = [spec for spec, _ in members]
        batch = sim.run_batch(specs, [g for _, g in members] if adapt else None)
        for (spec, gcfg), log in zip(members, batch):
            _assert_same_run(log, run_proposed(spec, gcfg) if adapt
                             else run_baseline(spec))

    def test_members_leave_after_their_last_step(self, monkeypatch):
        """Each member is stepped for its own step count, by the reference
        and by the loop, and the last member left steps without the
        member axis."""
        specs = [_member("case1", 0.5, omega=omega)[0]
                 for omega in (8.0, 16.0, 32.0)]
        shapes = []
        inner = sim.rk4_step

        def recording(rhs, t, x, dt):
            shapes.append(np.shape(x))
            return inner(rhs, t, x, dt)

        monkeypatch.setattr(sim, "rk4_step", recording)
        sim._reference.cache_clear()
        sim.run_batch(specs)
        steps = [sim._steps(spec) for spec in specs]
        assert steps == [41, 81, 163]
        assert sum(shape[0] if len(shape) == 2 else 1
                   for shape in shapes) == 2 * sum(steps)
        alone = steps[2] - steps[1]
        assert shapes[-alone - 1:] == [(2, 1)] + [(1,)] * alone

    def test_an_omega_member_that_fails_stops_alone(self):
        """At omega = 2 the plant leaves the box at t = 0.39; the members
        before and after it finish, on their own grids."""
        members = [_member("case1", 1.5, omega=omega) for omega in (50, 2, 6)]
        specs = [spec for spec, _ in members]
        for gcfgs in (None, [gcfg for _, gcfg in members]):
            batch = sim.run_batch(specs, gcfgs)
            alone = ([run_baseline(spec) for spec in specs[::2]] if gcfgs is None
                     else [run_proposed(*m) for m in members[::2]])
            with pytest.raises(DivergenceError) as failing:
                (run_baseline(specs[1]) if gcfgs is None
                 else run_proposed(*members[1]))
            assert type(batch[1]) is DivergenceError
            assert str(batch[1]) == str(failing.value)
            assert batch[1].t_exit == failing.value.t_exit
            for log, own in zip(batch[::2], alone):
                _assert_same_run(log, own)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failing_reference_row_stops_its_members_alone(self):
        """Without a domain box, x0 = 1e160 overflows the objective, so the
        reference of member 1 fails in its first step; the other rows,
        each with its own omega and step size, go on."""
        spec, gcfg = _member("case1", 1.0)
        boxless = ObjectiveMap(weights=spec.objective.weights,
                               center=spec.objective.center)
        specs = [type(spec)(objective=boxless, channels=spec.channels,
                            dithers=spec.dithers, omega=omega, a0=spec.a0,
                            lam=spec.lam, x0=[x0], horizon=spec.horizon)
                 for omega, x0 in ((8.0, 2.0), (16.0, 1e160), (32.0, 0.5))]
        batch = sim.run_batch(specs)
        with pytest.raises(EvaluationError) as alone:
            run_baseline(specs[1])
        assert type(batch[1]) is EvaluationError
        assert str(batch[1]) == str(alone.value)
        for k in (0, 2):
            _assert_same_run(batch[k], run_baseline(specs[k]))

    def test_members_with_their_own_references_and_noise(self, monkeypatch):
        """Differing a0 and x0 give one reference per distinct pair, and
        per-member amplitude floors; seeded noise stays per member.  The
        floors are half of a0, so the member started at a0 = 0.5 pauses
        only under a floor that is not its own."""
        members = [_member("case1", 3.0, {"a_floor_rel": 0.5}, **kw) for kw in (
            {"a0": [1.0], "x0": [2.0]}, {"a0": [0.5], "x0": [2.0]},
            {"a0": [1.0], "x0": [0.5]}, {"x0": [2.0], "lambda": [0.3]})]
        specs = [spec for spec, _ in members]
        gcfgs = [gcfg for _, gcfg in members]
        assert gcfgs[0].a_floor != gcfgs[1].a_floor
        averaged = []
        inner = sim._averaged

        def counting(specs, err=None):
            averaged.extend(specs)   # one reference row per spec
            return inner(specs, err)

        monkeypatch.setattr(sim, "_averaged", counting)
        sim._reference.cache_clear()
        seeds = [1, 2, 3, 4]
        batch = sim.run_batch(specs, gcfgs, seeds, noise_std=0.01)
        assert len(averaged) == 3
        for spec, gcfg, seed, log in zip(specs, gcfgs, seeds, batch):
            _assert_same_run(log, run_proposed(spec, gcfg, seed=seed,
                                               noise_std=0.01))
        for spec, log in zip(specs, sim.run_batch(specs)):
            _assert_same_run(log, run_baseline(spec))

    def test_a_member_leaving_the_box_stops_alone(self):
        # x0 = 60 lies inside the 10x box (|x0 - 1| < 60) and so does its
        # averaged reference, but the plant leaves the box in its first step
        members = [_member("case1", 2.0, x0=[x0]) for x0 in (2.0, 60.0, 0.5)]
        batch = sim.run_batch([spec for spec, _ in members],
                              [gcfg for _, gcfg in members])
        with pytest.raises(DivergenceError) as alone:
            run_proposed(*members[1])
        assert type(batch[1]) is DivergenceError
        assert str(batch[1]) == str(alone.value)
        assert batch[1].t_exit == alone.value.t_exit < 0.1
        for k in (0, 2):
            _assert_same_run(batch[k], run_proposed(*members[k]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_member_with_a_non_finite_stage_stops_alone(self):
        """Without a domain box, a member at x0 = 1e150 has a finite
        objective and reference, but its plant overflows in its first RK4
        step."""
        spec, gcfg = _member("case1", 1.0)
        boxless = ObjectiveMap(weights=spec.objective.weights,
                               center=spec.objective.center)
        specs = [type(spec)(objective=boxless, channels=spec.channels,
                            dithers=spec.dithers, omega=spec.omega, a0=spec.a0,
                            lam=spec.lam, x0=[x0], horizon=spec.horizon)
                 for x0 in (2.0, 1e150, 0.5)]
        batch = sim.run_batch(specs, [gcfg] * 3)
        with pytest.raises(IntegrationError) as alone:
            run_proposed(specs[1], gcfg)
        assert type(batch[1]) is IntegrationError
        assert str(batch[1]) == str(alone.value) == "non-finite RK4 stage 2 at t=0.0"
        for k in (0, 2):
            _assert_same_run(batch[k], run_proposed(specs[k], gcfg))

    def test_members_of_other_systems_equal_their_own_runs(self,
                                                           monkeypatch):
        """Members with swapped dithers, another center or other weights
        each run in a loop of their own system, in order of first
        appearance, and equal their own runs; members of one system share
        a loop whatever their omega.  The swapped dithers flip the
        bracket's sign, so that member leaves the box."""
        objective = _primary_config("case1")["objective"]
        dithers = _primary_config("case1")["dithers"]
        members = [_member("case1", 1.5, **system) for system in (
            {}, {"dithers": {"u1": dithers["u2"], "u2": dithers["u1"]}},
            {"objective": dict(objective, center=[1.5])},
            {"objective": dict(objective, weights=[1.0])},
            {"omega": 16.0})]
        specs = [spec for spec, _ in members]
        gcfgs = [gcfg for _, gcfg in members]
        loops = []
        lockstep = sim._Lockstep

        def counting(specs, *args):
            loops.append(len(specs))
            return lockstep(specs, *args)

        monkeypatch.setattr(sim, "_Lockstep", counting)
        for gcfgs_or_none in (None, gcfgs):
            loops.clear()
            batch = sim.run_batch(specs, gcfgs_or_none)
            assert loops == [2, 1, 1, 1]
            for spec, gcfg, result in zip(specs, gcfgs, batch):
                _assert_same_result(result, lambda: (
                    run_baseline(spec) if gcfgs_or_none is None
                    else run_proposed(spec, gcfg)))
        assert isinstance(batch[1], DivergenceError)
        for spec, result in zip(specs, sim.lbs_batch(specs)):
            _assert_same_result(result, lambda: run_lbs(spec))
