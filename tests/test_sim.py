import gc
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_loops, shortened
import lieseek.sim as sim
from lieseek.cli import execute_run
from lieseek.errors import (ConfigurationError, DivergenceError,
                            EvaluationError, FilterDivergenceError, InputError,
                            IntegrationError, LieseekError)
from lieseek.model import (TAU, DitherSignal, EscSystemSpec, EstimationErrorModel,
                           ObjectiveMap)
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

    @given(data=st.data(), column=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_is_the_weighted_stage_sum_bit_for_bit(self, data, column):
        """``x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4)`` of the stages that ``rhs``
        returns, for a float ``dt`` and a ``(rows, 1)`` column of them, at
        magnitudes up to overflow; a step whose weighted sum overflows may
        raise instead."""
        top = np.finfo(float).max
        values = st.one_of(
            st.floats(-10.0, 10.0),
            st.floats(allow_nan=False, allow_infinity=False),
            st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]),
                      st.floats(top / 8, top)))
        sizes = st.floats(0.0, 1e6, exclude_min=True)
        rows, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))

        def drawn(elements, shape):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(elements, min_size=size,
                                               max_size=size))).reshape(shape)

        x, k1, k2, k3, k4 = (drawn(values, (rows, n)) for _ in range(5))
        dt = drawn(sizes, (rows, 1)) if column else data.draw(sizes)
        t = np.zeros((rows, 1)) if column else 0.0
        stages = iter((k1, k2, k3, k4))
        with np.errstate(all="ignore"):
            ksum = k1 + 2 * k2 + 2 * k3 + k4
            expected = x + (dt / 6.0) * ksum
            try:
                out = rk4_step(lambda t, x: next(stages), t, x, dt)
            except IntegrationError:
                assert not math.isfinite(float(ksum.sum()))
                return
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("column", [False, True])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-3, -math.inf, math.nan])
    def test_rejects_a_step_size_that_is_not_positive(self, bad, column):
        """A float ``dt``, or one entry of a column, that is zero, negative
        or NaN raises before any stage is evaluated."""
        calls = []

        def rhs(t, x):
            calls.append(t)
            return np.zeros_like(x)
        dt = np.array([[0.1], [bad], [0.2]]) if column else bad
        x = np.ones((3, 1)) if column else np.ones(1)
        with pytest.raises(IntegrationError, match="step size must be positive"):
            rk4_step(rhs, 0.0, x, dt)
        assert calls == []


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


    def test_an_error_model_that_breaks_its_slope_bound_is_rejected(self):
        """The inverse-square form's slope at 0 is 2 * eps0, above 0.05."""
        spec = shortened("case1", 2.0).primary_system
        with pytest.raises(ConfigurationError, match="Lipschitz"):
            run_lbs(spec, EstimationErrorModel(eps0=0.1, theta0=0.05))

    def test_time_grid_is_the_seeking_runs(self):
        spec = shortened("case1", 5.0).primary_system
        assert run_lbs(spec).t.tobytes() == run_baseline(spec).t.tobytes()

    def test_a_reference_that_fails_late_reports_its_grid_time(self):
        """At a0 = 10.655 the averaged system leaves the box in step 2408:
        the lbs run and the seeking run that needs it as its reference
        report that step's time on the grid, with one error line."""
        cfg = shortened("case1", 50.0).config
        cfg["systems"]["main"]["a0"] = [10.655]
        spec = Scenario(cfg).primary_system
        errors = []
        for run in (run_lbs, run_baseline):
            with pytest.raises(DivergenceError) as exc:
                run(spec)
            errors.append(exc.value)
        assert errors[0].t_exit == sim.step_times(spec)[2408]
        assert errors[1].t_exit == errors[0].t_exit
        assert str(errors[1]) == str(errors[0])

    def test_builds_no_dither_tables(self, tmp_path, monkeypatch):
        """The averaged system reads no dither; the baseline and proposed
        runs of a ``--mode both`` run share one loop and one grid, so they
        build the tables once."""
        calls = []
        inner = sim._dither_tables

        def counting(spec, steps):
            calls.append(steps)
            return inner(spec, steps)

        monkeypatch.setattr(sim, "_dither_tables", counting)
        sc = shortened("case1", 2.0)
        run_lbs(sc.primary_system)
        assert calls == []
        execute_run(sc, "both", str(tmp_path))
        assert calls == [sim._steps(sc.primary_system)]


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

    def test_measuring_every_second_step_holds_the_innovation(self):
        """With ``n_meas = 2`` the filter measures after every second step,
        so each odd row repeats the innovation of the row before it, and
        every even row from 2 on has a new one."""
        spec, gcfg = _member("case1", 2.0, gekf={"n_meas": 2})
        innovation = run_proposed(spec, gcfg).diag["innovation"]
        odd, even = innovation[1::2], innovation[0::2]
        assert gcfg.n_meas == 2 and odd.size > 50
        assert np.array_equal(odd, even[:odd.size])
        assert np.all(even[1:] != even[:-1])

    def test_amplitude_step_is_the_rk4_step(self):
        spec, _ = _member("case2", 1.0, omega=8.0, dt=0.01,
                          **{"lambda": [0.1, 2.0]})
        lam, dt = spec.lam, spec.resolved_dt
        assert lam.tolist() == [0.1, 2.0] and dt == 0.01
        a, j = np.array([1.0, 0.5]), np.array([0.3, -0.2])
        step = rk4_step(lambda t, a: -lam * (a - j), 0.0, a, dt)
        closed = j + (a - j) * spec.amplitude_decay
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
        loop, equal ``trace(P) + p33`` and the smaller of ``eigvalsh(P)``'s
        least and ``p33``, per matrix, bit for bit."""
        from lieseek.gekf import GekfFilter
        sc = shortened("case2", 2.0)
        gcfg = sc.gekf_config()
        covariances = [(gcfg.p0 * np.eye(2 * sc.primary_system.n), gcfg.p0)]
        step_export = GekfFilter.step_export

        def recording(self):
            # the loop's filter holds its one member on a member axis
            P, (p33,) = self.P, self.p33
            covariances.append((P.reshape(covariances[0][0].shape).copy(), p33))
            return step_export(self)

        monkeypatch.setattr(GekfFilter, "step_export", recording)
        log = run_proposed(sc.primary_system, gcfg)
        assert len(covariances) == log.t.size
        assert set(log.diag) == {"x1", "x2", "x3", "innovation", "trace_p",
                                 "min_eig_p"}
        for k, (P, p33) in enumerate(covariances):
            assert log.diag["trace_p"][k] == np.trace(P) + p33
            assert log.diag["min_eig_p"][k] == min(
                np.linalg.eigvalsh(P).min(), p33)

    @pytest.mark.parametrize("noise_std, seed, named", [
        (float("nan"), 0, "nan"),
        (-0.1, 0, "-0.1"),
        (float("inf"), 0, "inf"),
        (0.01, -1, "-1"),
        (0.01, 1.5, "1.5"),
        (True, 0, "True"),
        (0.01, True, "True"),
    ], ids=["nan-noise", "negative-noise", "infinite-noise", "negative-seed",
            "fractional-seed", "boolean-noise", "boolean-seed"])
    @pytest.mark.parametrize("runner", ["run_batch", "run_proposed"])
    def test_bad_noise_or_seed_is_an_input_error(self, runner, noise_std, seed,
                                                 named):
        """A noise level that is not finite and non-negative used to run
        noise-free, and a bad seed with noise on raised NumPy's own error;
        both entry points now name the value before any step."""
        sc = shortened("case1", 0.5)
        spec, gcfg = sc.primary_system, sc.gekf_config()
        with pytest.raises(InputError, match=named):
            if runner == "run_batch":
                sim.run_batch([spec], [gcfg], [seed], noise_std=noise_std)
            else:
                run_proposed(spec, gcfg, seed=seed, noise_std=noise_std)

    def test_noise_free_run_accepts_any_seed(self):
        """The CLI accepts ``--seed -1``; a noise-free run never reads its
        seed, so it runs and gives the bits of seed 0."""
        sc = shortened("case1", 0.5)
        spec, gcfg = sc.primary_system, sc.gekf_config()
        (log,) = sim.run_batch([spec], [gcfg], [-1])
        _assert_same_run(log, run_proposed(spec, gcfg, seed=-1))
        assert log.meta["seed"] == -1
        assert log.j_est.tobytes() == run_proposed(spec, gcfg).j_est.tobytes()


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
        # a noisy batch gives each seed the same bits on every run
        specs, gcfgs = [sc.primary_system] * 2, [sc.gekf_config()] * 2
        first, again = (sim.run_batch(specs, gcfgs, [3, 4], noise_std=0.01)
                        for _ in range(2))
        for member, repeat, alone in zip(first, again, (a, c)):
            _assert_same_run(member, repeat)
            _assert_same_run(member, alone)


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
        calls, loops = [], []
        inner, lockstep = sim.lbs_rhs_exact, sim._Lockstep

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        def counting_loop(*args, **kwargs):
            loops.append(lockstep(*args, **kwargs))
            return loops[-1]

        monkeypatch.setattr(sim, "lbs_rhs_exact", counting)
        monkeypatch.setattr(sim, "_Lockstep", counting_loop)
        sc = shortened("case3", 1.2)
        art = execute_run(sc, "both", str(tmp_path))
        steps = [int(round(spec.horizon / spec.resolved_dt))
                 for spec in sc.systems.values()]
        # the three references are rows of the runs' one loop, whose stages
        # call no oracle: one Jexact call for all logged rows of each of
        # the two runs of each system
        assert len(calls) == 2 * len(steps)
        assert [len(loop.specs) - loop.s0 for loop in loops] == [3]
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

    def test_perturbed_run_integrates_its_reference_apart(self,
                                                          monkeypatch):
        """The unperturbed reference and the perturbed system are one row
        each of two loops, and the reference is logged read-only."""
        rows = []
        lockstep = sim._Lockstep

        def counting(*args, **kwargs):
            loop = lockstep(*args, **kwargs)
            rows.append((len(loop.specs) - loop.s0, loop.err is not None))
            return loop

        monkeypatch.setattr(sim, "_Lockstep", counting)
        spec = shortened("case1", 0.5).primary_system
        err = EstimationErrorModel(eps0=0.1, theta0=0.2)
        log = run_lbs(spec, err=err)
        assert rows == [(1, False), (1, True)]
        assert log.z_ref.tobytes() == run_lbs(spec).x.tobytes()
        assert not log.z_ref.flags.writeable
        assert np.any(log.x != log.z_ref)


class TestDitherTables:
    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_log_times_are_the_table_times(self, name):
        sc = shortened(name, 1.0)
        spec = sc.primary_system
        steps = int(round(spec.horizon / spec.resolved_dt))
        t = sim.step_times(spec)
        assert len(sim._dither_tables(spec, steps)) == 2 * len(t) - 1
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
        t, u = sim.step_times(spec), sim._dither_tables(spec, steps)
        u1, u2 = u[:, :spec.n], u[:, spec.n:]
        dt = spec.resolved_dt
        for k in (0, 1, steps // 2, steps - 1):
            for row, tk in ((2 * k, t[k]), (2 * k + 1, t[k] + 0.5 * dt),
                            (2 * k + 2, t[k + 1])):
                th = spec.omega * float(tk)
                assert u1[row, 1] == float(dithers["u1"].value(th))
                d = dithers["u2"]
                assert u2[row, 0] == math.cos(
                    (TAU / d.period) * th + d.phase)

    def test_filter_inputs_are_trapezoid_sums_on_two_grids(self, monkeypatch):
        """case1 proposed at omega 50 and 200 in one loop: two adaptive rows
        on two grids, read from one padded stage table.  At every update
        each member's input integrals are the trapezoid sums on the step's
        two half steps, ``(a_k * sqrt(omega)) * (dt/4) * ((u(t_k) + 2 u(t_k
        + dt/2)) + u(t_{k+1}))``, of its own dithers, evaluated by
        :mod:`math` point by point, bit for bit."""
        from lieseek.gekf import measurement_coefficients
        inputs = []

        def recording(spec, f1, u_int, a, a_floor):
            inputs.append(u_int.copy())
            return measurement_coefficients(spec, f1, u_int, a, a_floor)

        monkeypatch.setattr("lieseek.gekf.measurement_coefficients", recording)
        scs = [shortened("case1", 0.5, omega=w) for w in (50.0, 200.0)]
        specs = [sc.primary_system for sc in scs]
        logs = sim.run_batch(specs, [sc.gekf_config() for sc in scs], [0, 0])
        steps = [sim._steps(spec) for spec in specs]
        assert steps[0] < steps[1] and len(inputs) == steps[1]
        for member, (spec, log) in enumerate(zip(specs, logs)):
            ch, dt = spec.channels[0], spec.resolved_dt
            dithers = [(spec.dithers[ref], fn) for ref, fn in
                       ((ch.u1_ref, math.cos), (ch.u2_ref, math.sin))]
            assert [d.kind for d, _ in dithers] == ["cosine", "sine"]

            def u(t):
                return [fn((TAU / d.period) * (spec.omega * t) + d.phase)
                        for d, fn in dithers]

            for k in range(steps[member]):
                rows = inputs[k]
                assert len(rows) == (2 if k < steps[0] else 1)
                tk, tnext = float(log.t[k]), float(log.t[k + 1])
                weight = (float(log.a[k, 0]) * math.sqrt(spec.omega)) * (dt / 4.0)
                expected = [[weight * ((start + 2.0 * mid) + end)]
                            for start, mid, end in zip(u(tk), u(tk + dt / 2),
                                                       u(tnext))]
                assert rows[-1 if member else 0].tolist() == expected


def _plain_case1(spec, steps: int) -> tuple[list, list]:
    """case1's seeking run at constant amplitude and its averaged system,
    stepped by classical RK4 in Python floats with :mod:`math`: an oracle
    that shares no code with the loop."""
    (w,), (c,) = spec.objective.weights, spec.objective.center
    ch = spec.channels[0]
    assert (ch.b1.form, ch.b2.form) == ("linear", "linear")
    assert spec.dithers[ch.u1_ref] == DitherSignal("cosine")
    assert spec.dithers[ch.u2_ref] == DitherSignal("sine")
    a, omega, dt = float(spec.a0[0]), spec.omega, spec.resolved_dt
    nu = float(spec.nu_hats[0])

    def seeking(t, x):
        f = w * (x - c) ** 2
        return a * math.sqrt(omega) * ((ch.b1.p * f + ch.b1.q) * math.cos(omega * t)
                                       + (ch.b2.p * f + ch.b2.q) * math.sin(omega * t))

    def averaged(t, z):
        f = w * (z - c) ** 2
        b0 = (ch.b2.p * f + ch.b2.q) * ch.b1.p - (ch.b1.p * f + ch.b1.q) * ch.b2.p
        return -nu * a * a * (2.0 * w * (z - c)) * b0

    def step(rhs, t, x):
        k1 = rhs(t, x)
        k2 = rhs(t + dt / 2, x + dt / 2 * k1)
        k3 = rhs(t + dt / 2, x + dt / 2 * k2)
        k4 = rhs(t + dt, x + dt * k3)
        return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    xs, zs = [float(spec.x0[0])], [float(spec.x0[0])]
    for k in range(steps):
        xs.append(step(seeking, k * dt, xs[-1]))
        zs.append(step(averaged, k * dt, zs[-1]))
    return xs, zs


def _expected_stage(spec, X: np.ndarray, a: np.ndarray, u1, u2, s: int,
                    err=None, t: float = 0.0) -> np.ndarray:
    """The right-hand sides of rows ``X`` by the formulas of the plant and
    the oracle: ``a * sqrt(omega) * (b1 * u1 + b2 * u2)`` on the first
    ``s`` rows, :func:`lbs_rhs_exact` at a0 (plus ``err``) on the others."""
    b1, b2 = spec.coefficient_values(spec.objective.measured(X))
    out = np.empty(X.shape)
    out[:s] = a[:s] * math.sqrt(spec.omega) * (b1[:s] * u1 + b2[:s] * u2)
    out[s:] = sim.lbs_rhs_exact(spec, X, amplitude=spec.a0)[s:]
    if err is not None:
        out[s:] = out[s:] + err.value(t)
    return out


class TestStage:
    """The loop's one RK4 stage product, ``(W * G) * (b1 * U1 + b2 * U2)``,
    over seeking and averaged rows alike."""

    @pytest.mark.parametrize("name,with_err", [
        ("case1", False), ("case2", False), ("case3", False), ("case1", True)])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_the_plant_and_the_oracle(self, name, with_err, data):
        """case1 (linear, min, n = 1), case2 (trig, n = 2), a case3 vehicle
        (linear, max, n = 2) and an averaged row with the synthetic error;
        each RK4 stage of a random step at random states and amplitudes."""
        err = EstimationErrorModel(eps0=0.1, theta0=0.2) if with_err else None
        spec = shortened(name, 1.0).primary_system
        loop = (sim._Lockstep([], [], [], averaged=[spec], err=err) if err
                else sim._Lockstep([spec], [None], [0]))
        n, s, dt = spec.n, loop.s, spec.resolved_dt
        steps = int(round(spec.horizon / dt))
        k = data.draw(st.integers(0, steps - 1))
        states = st.floats(-3.0, 3.0)
        loop.a = np.array(data.draw(st.lists(st.floats(0.01, 2.0), min_size=n,
                                             max_size=n)) * loop.x.shape[0]
                          ).reshape(loop.x.shape)
        t, u = sim.step_times(spec), sim._dither_tables(spec, steps)
        u1, u2 = u[:, :n], u[:, n:]
        xdot = loop._plant(k)
        for i, tk in ((2 * k, t[k]), (2 * k + 1, t[k] + dt / 2),
                      (2 * k + 1, t[k] + dt / 2), (2 * k + 2, t[k] + dt)):
            X = np.array(data.draw(st.lists(states, min_size=loop.x.size,
                                            max_size=loop.x.size))
                         ).reshape(loop.x.shape)
            expected = _expected_stage(spec, X, loop.a, u1[i], u2[i], s, err,
                                       float(tk))
            assert np.array_equal(xdot(tk, X), expected)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_of_different_step_sizes_equal_their_own_specs(self, data):
        """Three case1 members at omega 50, 100 and 200 and their three
        references: six rows on three grids, so ``dt`` is a column and the
        stacked table pads the shorter rows.  At each stage of a step that
        every row takes, each row equals the plant or the oracle of its own
        spec."""
        specs = [shortened("case1", 0.2, omega=w).primary_system
                 for w in (50.0, 100.0, 200.0)]
        loop = sim._Lockstep(specs, [None] * 3, [0] * 3)
        tables = [sim._dither_tables(spec, sim._steps(spec))
                  for spec in loop.specs]
        times = [sim.step_times(spec) for spec in loop.specs]
        shortest = min(len(t) for t in times) - 1
        assert loop.x.shape == (6, 1) and loop.dt.shape == (6, 1)
        assert loop.U.shape[0] > 2 * shortest + 1
        k = data.draw(st.integers(0, shortest - 1))
        loop.a = np.array(data.draw(st.lists(st.floats(0.01, 2.0), min_size=6,
                                             max_size=6))).reshape(6, 1)
        xdot = loop._plant(k)
        t = np.array([[ts[k]] for ts in times])
        for i, offset in ((2 * k, 0.0), (2 * k + 1, 0.5), (2 * k + 1, 0.5),
                          (2 * k + 2, 1.0)):
            X = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=6,
                                            max_size=6))).reshape(6, 1)
            out = xdot(t + offset * loop.dt, X)
            for r, (spec, u) in enumerate(zip(loop.specs, tables)):
                expected = _expected_stage(spec, X, loop.a, u[i, :1], u[i, 1:],
                                           loop.s)
                assert np.array_equal(out[r], expected[r])

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_calls_no_oracle(self, name, monkeypatch):
        """Inside ``rk4_step`` the loop calls none of the oracle's
        functions, nor ``np.concatenate``; outside it, the oracle's
        functions are called."""
        calls, inside = [], [False]
        step = sim.rk4_step

        def stepping(*args):
            inside[0] = True
            try:
                return step(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(sim, "rk4_step", stepping)
        for owner, attr in ((sim, "lbs_rhs_exact"),
                            (EscSystemSpec, "coefficients"),
                            (ObjectiveMap, "measured"),
                            (sim._Objectives, "measured"),
                            (ObjectiveMap, "measured_gradient"),
                            (np, "concatenate")):
            def counting(*args, inner=getattr(owner, attr), attr=attr, **kw):
                calls.append((attr, inside[0]))
                return inner(*args, **kw)
            monkeypatch.setattr(owner, attr, counting)
        sc = shortened(name, 0.5)
        sim.run_batch([sc.primary_system] * 2, [None, sc.gekf_config()])
        assert [attr for attr, stage in calls if stage] == []
        assert {attr for attr, _ in calls} == {
            "lbs_rhs_exact", "coefficients", "measured", "measured_gradient"}

    def test_runs_equal_a_plain_float_stepper(self):
        """case1's baseline run and its reference equal an independent
        stepper in Python floats to the golden tolerance."""
        spec = shortened("case1", 5.0).primary_system
        log = run_baseline(spec)
        xs, zs = _plain_case1(spec, log.t.shape[0] - 1)
        np.testing.assert_allclose(log.x[:, 0], xs, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(log.z_ref[:, 0], zs, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_a_loop_is_freed_without_the_cycle_collector(self, name):
        """The stage holds no reference cycle to its loop: once a loop has
        run and is dropped, reference counting frees it and its logs."""
        sc = shortened(name, 0.5)
        loop = sim._Lockstep([sc.primary_system] * 2, [None, sc.gekf_config()],
                             [0, 0])
        gc.disable()
        try:
            loop.run()
            alive = weakref.ref(loop)
            del loop
            assert alive() is None
        finally:
            gc.enable()


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

    def test_members_measuring_every_second_step_equal_their_own_runs(self):
        members = [_member("case1", 2.0, gekf={"n_meas": 2}, **{"lambda": [lam]})
                   for lam in (0.1, 0.3)]
        batch = sim.run_batch([spec for spec, _ in members],
                              [gcfg for _, gcfg in members])
        for (spec, gcfg), log in zip(members, batch):
            _assert_same_run(log, run_proposed(spec, gcfg))

    def test_members_leave_after_their_last_step(self, monkeypatch):
        """Each member is stepped for its own step count, as a seeking row
        and as an averaged row of one loop, and the last member and its
        reference step alone, as two rows."""
        specs = [_member("case1", 0.5, omega=omega)[0]
                 for omega in (8.0, 16.0, 32.0)]
        shapes = []
        inner = sim.rk4_step

        def recording(rhs, t, x, dt):
            shapes.append(np.shape(x))
            return inner(rhs, t, x, dt)

        monkeypatch.setattr(sim, "rk4_step", recording)
        sim.run_batch(specs)
        steps = [sim._steps(spec) for spec in specs]
        assert steps == [41, 81, 163]
        assert sum(shape[0] for shape in shapes) == 2 * sum(steps)
        alone = steps[2] - steps[1]
        assert shapes[-alone - 1:] == [(4, 1)] + [(2, 1)] * alone

    def test_each_rows_time_is_its_own_step_time(self, monkeypatch):
        """case1 at omega 50, 100 and 200 with their references, as the
        omega sweep runs them.  At every step, the time that ``rk4_step``
        receives is each live row's ``step_times`` entry, bit for bit: a
        ``(rows, 1)`` column after the first step while the rows' step
        sizes differ, and a float once the rows left share one."""
        specs = [_member("case1", 0.5, omega=omega)[0]
                 for omega in (50.0, 100.0, 200.0)]
        calls = []
        inner = sim.rk4_step

        def recording(rhs, t, x, dt):
            calls.append((t, x.shape[0]))
            return inner(rhs, t, x, dt)

        monkeypatch.setattr(sim, "rk4_step", recording)
        sim.run_batch(specs)
        grids = [sim.step_times(spec) for spec in specs]
        assert len(calls) == max(len(t) for t in grids) - 1
        for k, (t, rows) in enumerate(calls):
            # the members' seeking rows, then their references
            live = 2 * [g for g in grids if len(g) > k + 1]
            expected = np.array([g[k] for g in live])[:, None]
            assert rows == len(live)
            assert np.broadcast_to(t, expected.shape).tobytes() == expected.tobytes()
            if len({g[1] for g in live}) == 1:
                assert type(t) is float
            elif k:
                assert np.shape(t) == expected.shape

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

    def test_a_member_returns_its_failing_references_error(self):
        """At a0 = 10.655 both seeking rows leave the box in their second
        step and their shared reference in step 2408; both members of the
        mixed loop return the reference's error, as ``run_lbs`` raises it."""
        cfg = shortened("case1", 50.0).config
        cfg["systems"]["main"]["a0"] = [10.655]
        sc = Scenario(cfg)
        spec = sc.primary_system
        with pytest.raises(DivergenceError) as reference:
            run_lbs(spec)
        assert reference.value.t_exit > 29.0
        for result in sim.run_batch([spec, spec], [None, sc.gekf_config()]):
            assert type(result) is DivergenceError
            assert str(result) == str(reference.value)
            assert result.t_exit == reference.value.t_exit

    def test_a_member_whose_reference_failed_in_an_earlier_loop_takes_no_step(
            self, monkeypatch):
        """At a fixed dt, omega 8 and 16 give smoothing windows of 64 and
        32 steps, so the two proposed members run in two loops and share
        one reference, which the first loop integrates and which fails.
        The second loop's member stops before its first step, and both
        return the reference's error, as ``run_lbs`` raises it."""
        specs = []
        for omega in (8.0, 16.0):
            cfg = shortened("case1", 50.0, omega=omega).config
            cfg["systems"]["main"].update(dt=0.01227184630308513, a0=[10.655])
            sc = Scenario(cfg)
            specs.append(sc.primary_system)
        assert [spec.steps_per_period for spec in specs] == [64, 32]
        with pytest.raises(DivergenceError) as reference:
            run_lbs(specs[0])
        assert str(reference.value) == ("state left 10x domain-box region "
                                        "at t=29.55060589783022")
        calls, steps = [], []
        inner_rk4, inner_run = sim.rk4_step, sim._Lockstep.run

        def counting_rk4(*args):
            calls.append(args)
            return inner_rk4(*args)

        def counting_run(loop):
            before = len(calls)
            out = inner_run(loop)
            steps.append(len(calls) - before)
            return out

        monkeypatch.setattr(sim, "rk4_step", counting_rk4)
        monkeypatch.setattr(sim._Lockstep, "run", counting_run)
        batch = sim.run_batch(specs, [sc.gekf_config()] * 2)
        assert len(steps) == 2 and steps[0] > 0 and steps[1] == 0
        for result in batch:
            assert type(result) is DivergenceError
            assert str(result) == str(reference.value)
            assert result.t_exit == reference.value.t_exit

    def test_a_failing_baseline_row_does_not_stop_its_siblings(self):
        """The baseline run from x0 = 60 leaves the box in its first step;
        the proposed and baseline rows from x0 = 2 in its loop finish, and
        so does the reference of the failing run."""
        bad, gcfg = _member("case1", 2.0, x0=[60.0])
        good, _ = _member("case1", 2.0)
        batch = sim.run_batch([bad, good, good], [None, gcfg, None])
        with pytest.raises(DivergenceError) as alone:
            run_baseline(bad)
        assert type(batch[0]) is DivergenceError
        assert str(batch[0]) == str(alone.value)
        assert batch[0].t_exit == alone.value.t_exit
        _assert_same_run(batch[1], run_proposed(good, gcfg))
        _assert_same_run(batch[2], run_baseline(good))
        assert run_lbs(bad).x[-1, 0] < 3.0

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
        # one configuration, and floors that differ with a0
        assert gcfgs[0] == gcfgs[1] and specs[0].a0[0] != specs[1].a0[0]
        averaged = []
        lockstep = sim._Lockstep

        def counting(*args, **kwargs):
            loop = lockstep(*args, **kwargs)
            averaged.append(len(loop.specs) - loop.s0)
            return loop

        monkeypatch.setattr(sim, "_Lockstep", counting)
        seeds = [1, 2, 3, 4]
        batch = sim.run_batch(specs, gcfgs, seeds, noise_std=0.01)
        assert averaged == [3]
        for spec, gcfg, seed, log in zip(specs, gcfgs, seeds, batch):
            _assert_same_run(log, run_proposed(spec, gcfg, seed=seed,
                                               noise_std=0.01))
        for spec, log in zip(specs, sim.run_batch(specs)):
            _assert_same_run(log, run_baseline(spec))

    def test_members_differing_only_in_a0_share_one_loop(self, monkeypatch):
        """The members share one filter configuration; each filter row
        derives its floor, half of its own a0, so the members that start
        at a0 = 1, 0.5 and 0.8 are one loop (with three references) and
        each equals its own run.  A floor of another member's a0 would
        pause the member at a0 = 0.5 from its first step."""
        loops = counting_loops(monkeypatch)
        members = [_member("case1", 2.0, {"a_floor_rel": 0.5}, a0=[a0])
                   for a0 in (1.0, 0.5, 0.8)]
        batch = sim.run_batch([spec for spec, _ in members],
                              [gcfg for _, gcfg in members])
        assert loops == [(3, 0, 3)]
        for (spec, gcfg), log in zip(members, batch):
            _assert_same_run(log, run_proposed(spec, gcfg))

    def test_the_filter_window_is_that_of_an_adaptive_row(self, monkeypatch):
        """At dt = 0.001 a dither period is 63 steps at omega 100 and 126
        at omega 50.  The baseline member at omega 100 comes first, so its
        spec is the loop's first; the proposed member's filter smooths
        over its own 126 steps, and the member equals its own run."""
        loops = counting_loops(monkeypatch)
        base, _ = _member("case1", 2.0, omega=100.0, dt=0.001)
        spec, gcfg = _member("case1", 2.0, omega=50.0, dt=0.001)
        assert (base.steps_per_period, spec.steps_per_period) == (63, 126)
        batch = sim.run_batch([base, spec], [None, gcfg])
        assert loops == [(1, 1, 1)]
        _assert_same_run(batch[0], run_baseline(base))
        _assert_same_run(batch[1], run_proposed(spec, gcfg))

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

    def test_a_noisy_member_leaving_the_box_stops_alone(self):
        """With measurement noise on, the member from x0 = 60 leaves the box
        in its first step.  Each member draws its noise when it measures,
        from its own generator, so the others equal their own noisy runs."""
        members = [_member("case1", 2.0, x0=[x0]) for x0 in (2.0, 60.0, 0.5)]
        seeds = [1, 2, 3]
        batch = sim.run_batch([spec for spec, _ in members],
                              [gcfg for _, gcfg in members], seeds,
                              noise_std=0.01)
        with pytest.raises(DivergenceError) as alone:
            run_proposed(*members[1], seed=seeds[1], noise_std=0.01)
        assert type(batch[1]) is DivergenceError
        assert str(batch[1]) == str(alone.value)
        assert batch[1].t_exit == alone.value.t_exit < 0.1
        for k in (0, 2):
            _assert_same_run(batch[k], run_proposed(*members[k], seed=seeds[k],
                                                    noise_std=0.01))

    def test_a_row_failing_after_another_left_keeps_its_own_time(self):
        """case1 proposed at omega 8, 16 and 32: the member at omega 8 and
        horizon 0.3 leaves the loop after its 24 steps.  At omega 16, lambda
        = 456 puts the amplitude's RK4 factor above 1, and that member
        leaves the box in its 40th step, while the rows left still differ
        in step size.  It returns its own run's error at its own time, and
        the others equal their own runs."""
        members = [_member("case1", horizon, omega=omega, **{"lambda": [lam]})
                   for horizon, omega, lam in ((0.3, 8.0, 0.1),
                                               (2.0, 16.0, 456.0),
                                               (2.0, 32.0, 0.1))]
        specs = [spec for spec, _ in members]
        assert specs[1].amplitude_decay[0] > 1.0 and sim._steps(specs[0]) == 24
        batch = sim.run_batch(specs, [gcfg for _, gcfg in members])
        with pytest.raises(DivergenceError) as alone:
            run_proposed(*members[1])
        assert type(batch[1]) is DivergenceError
        assert str(batch[1]) == str(alone.value)
        assert batch[1].t_exit == alone.value.t_exit == sim.step_times(specs[1])[40]
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

    @pytest.mark.parametrize("p0,system,after", [
        (1e307, [{"a0": [a0]} for a0 in (1.0, 1e-3, 0.5)], "update"),
        (8.98e307, [{"omega": w} for w in (8.0, 2.0, 6.0)], "propagation"),
    ], ids=["a0", "omega"])
    def test_a_member_whose_filter_diverges_stops_alone(self, monkeypatch, p0,
                                                        system, after):
        """At p0 = 1e307 the first update of the member at a0 = 1e-3
        overflows its covariance; at p0 = 8.98e307 the first propagation of
        the member at omega = 2, whose step is the longest, does.  That
        member returns the error of its own run, at its own step's end,
        and the others equal their own runs.  No row steps again: the loop
        calls ``rk4_step`` once per step."""
        members = [_member("case1", 2.0, {"p0": p0}, **kw) for kw in system]
        specs = [spec for spec, _ in members]
        calls = []
        inner = sim.rk4_step

        def counting(rhs, t, x, dt):
            calls.append(1)
            return inner(rhs, t, x, dt)

        monkeypatch.setattr(sim, "rk4_step", counting)
        batch = sim.run_batch(specs, [gcfg for _, gcfg in members])
        assert len(calls) == max(sim._steps(spec) for spec in specs) == 163
        with pytest.raises(FilterDivergenceError) as alone:
            run_proposed(*members[1])
        assert type(batch[1]) is FilterDivergenceError
        assert str(batch[1]) == str(alone.value) == (
            f"filter state non-finite after {after}")
        assert batch[1].t == alone.value.t == specs[1].resolved_dt
        for k in (0, 2):
            assert np.isfinite(batch[k].diag["min_eig_p"]).all()
            _assert_same_run(batch[k], run_proposed(*members[k]))

    def test_members_of_other_systems_equal_their_own_runs(self,
                                                           monkeypatch):
        """Members with swapped dithers, or without a domain box, each run
        in a loop of their own system, in order of first appearance, and
        equal their own runs; members of one system share a loop whatever
        their omega and their objective's parameters: center, weights,
        offset and box.  The swapped dithers flip the bracket's sign, so
        that member leaves the box, and so do the seeking runs of the
        offset member; the tight box stops that member's reference, and so
        all its runs, in the first step."""
        objective = _primary_config("case1")["objective"]
        dithers = _primary_config("case1")["dithers"]
        members = [_member("case1", 1.5, **system) for system in (
            {}, {"dithers": {"u1": dithers["u2"], "u2": dithers["u1"]}},
            {"objective": dict(objective, center=[1.5])},
            {"objective": dict(objective, weights=[1.0])},
            {"omega": 16.0},
            {"objective": dict(objective, offset=3.0)},
            {"objective": dict(objective, domain_box=[[0.99, 1.01]])},
            {"objective": dict(objective, domain_box=[[-3.0, 5.0]])},
            {"objective": dict(objective, domain_box=None)})]
        specs = [spec for spec, _ in members]
        gcfgs = [gcfg for _, gcfg in members]
        loops = []
        lockstep = sim._Lockstep

        def counting(specs, *args, **kwargs):
            loops.append(len(specs))
            return lockstep(specs, *args, **kwargs)

        monkeypatch.setattr(sim, "_Lockstep", counting)
        for gcfgs_or_none in (None, gcfgs):
            loops.clear()
            batch = sim.run_batch(specs, gcfgs_or_none)
            assert loops == [7, 1, 1]
            for spec, gcfg, result in zip(specs, gcfgs, batch):
                _assert_same_result(result, lambda: (
                    run_baseline(spec) if gcfgs_or_none is None
                    else run_proposed(spec, gcfg)))
        for k in (1, 5, 6):
            assert isinstance(batch[k], DivergenceError)
        for spec, result in zip(specs, sim.lbs_batch(specs)):
            _assert_same_result(result, lambda: run_lbs(spec))

    def test_fewer_gcfgs_or_seeds_than_specs_is_an_input_error(self):
        """``zip`` would silently drop the members left without one."""
        spec, gcfg = _member("case1", 1.0)
        for specs, gcfgs, seeds in (([spec] * 2, [gcfg], None),
                                    ([spec] * 3, None, [1])):
            with pytest.raises(InputError, match="one seed per spec"):
                sim.run_batch(specs, gcfgs, seeds)


class TestStepSizeRefinement:
    """Runs at dt, dt/2 and dt/4, compared at their common grid rows:
    baseline and lbs converge at RK4 order (differences fall by about 16
    per halving), proposed, measuring every k-th step at dt/k, at first
    order (about 2).  The orders are pinned, not the values."""

    @staticmethod
    def _ratio(name: str, mode: str) -> float:
        sc = shortened(name, 2.0)
        dt = sc.primary_system.resolved_dt
        xs, ts = [], []
        for k in (1, 2, 4):
            cfg = sc.config
            cfg["systems"][sc.primary]["dt"] = dt / k
            cfg["gekf"]["n_meas"] = k
            refined = Scenario(cfg)
            spec = refined.primary_system
            log = (run_baseline(spec) if mode == "baseline"
                   else run_lbs(spec) if mode == "lbs"
                   else run_proposed(spec, refined.gekf_config()))
            xs.append(log.x[::k])
            ts.append(log.t[::k])
        for t in ts[1:]:
            np.testing.assert_allclose(t, ts[0], rtol=0, atol=1e-12)
        return (float(np.abs(xs[0] - xs[1]).max())
                / float(np.abs(xs[1] - xs[2]).max()))

    @pytest.mark.parametrize("name", ["case1", "case2"])
    @pytest.mark.parametrize("mode", ["baseline", "lbs"])
    def test_fourth_order(self, name, mode):
        assert 12.0 < self._ratio(name, mode) < 20.0

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_proposed_first_order(self, name):
        assert 1.6 < self._ratio(name, "proposed") < 2.8
