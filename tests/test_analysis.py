import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieseek.analysis import (B2Element, _sample_design, check_b2,
                              check_bound, compare, metrics, period_average)
from lieseek.errors import InputError
from lieseek.model import CoefficientForm, ObjectiveMap
from lieseek.scenarios import preset
from lieseek.sim import TrajectoryLog


def _linear(gain, offset):
    return CoefficientForm("linear", gain, offset)


def _log(t, x, a=None):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[1]
    if a is None:
        a = np.ones_like(x)
    nancol = np.full_like(x, np.nan)
    return TrajectoryLog(np.asarray(t, dtype=float), x,
                         np.zeros(len(t)), a, nancol.copy(), nancol.copy(),
                         nancol.copy())


class TestCheckBound:
    def test_decaying_signal_holds_from_onset(self):
        t = np.linspace(1.0, 100.0, 2000)
        j = t ** -1.1
        res = check_bound(t, j, p=1.05, t_min=1.0)
        assert res.holds
        assert res.channels[0].t_star == pytest.approx(1.0)
        assert res.channels[0].violations_after == 0

    def test_constant_signal_fails(self):
        t = np.linspace(0.5, 100.0, 2000)
        j = np.full_like(t, 0.5)
        res = check_bound(t, j, p=1.05, t_min=1.0)
        assert not res.holds
        assert res.channels[0].t_star is None

    def test_late_onset_located(self):
        t = np.linspace(1.0, 100.0, 991)  # one sample per 0.1 s
        j = np.where(t < 10.0, 2.0, 1e-6)
        res = check_bound(t, j, p=1.05, t_min=1.0)
        assert res.holds
        assert 9.9 <= res.channels[0].t_star <= 10.2

    def test_monotone_in_exponent(self):
        # if the bound holds at (p, t*) with t* >= 1 it holds for p' < p
        t = np.linspace(1.0, 80.0, 1500)
        j = 0.8 * t ** -1.4
        strong = check_bound(t, j, p=1.3, t_min=1.0)
        weak = check_bound(t, j, p=1.1, t_min=1.0)
        assert strong.holds and weak.holds
        assert weak.channels[0].t_star <= strong.channels[0].t_star

    def test_input_validation(self):
        with pytest.raises(InputError):
            check_bound(np.array([]), np.array([]), p=1.05)
        with pytest.raises(InputError):
            check_bound(np.array([1.0, 2.0]), np.array([1.0, 1.0]), p=0.9)
        with pytest.raises(InputError):
            check_bound(np.array([2.0, 1.0]), np.array([1.0, 1.0]), p=1.05)
        for p, t_min in ((float("nan"), 1.0), (1.5, float("nan")), (1.5, 0.0)):
            with pytest.raises(InputError):
                check_bound(np.array([1.0, 2.0]), np.array([0.1, 0.1]), p=p,
                            t_min=t_min)

    def test_per_channel_results(self):
        t = np.linspace(1.0, 50.0, 500)
        j = np.stack([t ** -1.2, np.full_like(t, 0.4)], axis=1)
        res = check_bound(t, j, p=1.05, t_min=1.0)
        assert res.channels[0].holds and not res.channels[1].holds
        assert not res.holds


class TestCheckB2:
    def _objective(self):
        return ObjectiveMap(weights=(-0.5, -1.5), center=(-1.0, 1.0),
                            offset=10.0, kind="max",
                            domain_box=((-4.0, 4.0), (-4.0, 4.0)))

    def test_constant_element_contradicts(self):
        rep = check_b2([B2Element(s=2, i=1, form=_linear(0.0, 0.3), label="b_21")],
                       self._objective())
        assert rep.contradiction
        assert rep.elements[0].value_at_extremum == pytest.approx(0.3)

    def test_vanishing_element_passes(self):
        rep = check_b2([B2Element(s=1, i=1, form=_linear(1.0, 0.0))],
                       self._objective())
        assert not rep.contradiction
        assert rep.elements[0].satisfiable

    def test_case1_companion_element_contradicts(self, case1):
        objective, elements, _ = case1.b2_setup()
        rep = check_b2(elements, objective)
        by_label = {e.label: e for e in rep.elements}
        assert not by_label["b_11"].contradiction
        assert by_label["b_21"].contradiction
        assert rep.contradiction

    def test_case3_reproduces_documented_contradiction(self, case3):
        objective, elements, _ = case3.b2_setup()
        rep = check_b2(elements, objective)
        by_label = {e.label: e for e in rep.elements}
        assert by_label["b_21"].contradiction
        assert by_label["b_21"].value_at_extremum == pytest.approx(0.3)
        assert rep.contradiction

    @pytest.mark.parametrize("count", [1, 8, 512])
    def test_sample_design_is_fixed_and_inside_the_box(self, count):
        for name in ("case1", "case2", "case3"):
            objective, _, _ = preset(name).b2_setup()
            box = np.asarray(objective.domain_box)
            pts = _sample_design(box, count)
            assert pts.shape == (count, len(box))
            assert np.all((box[:, 0] <= pts) & (pts <= box[:, 1]))
            assert pts.tobytes() == _sample_design(box, count).tobytes()
            # distinct points that fill the box: none repeats, and at 512
            # each tenth of every side holds some
            assert len(np.unique(pts, axis=0)) == count
            if count == 512:
                tenth = np.floor((pts - box[:, 0]) / (box[:, 1] - box[:, 0]) * 10)
                assert all(len(np.unique(c)) == 10 for c in tenth.T)

    def test_case1_fits_are_exact(self, case1):
        """b_11 = ftilde and b_21 = 1: the fits give M * ftilde^m3 exactly."""
        objective, elements, _ = case1.b2_setup()
        by_label = {e.label: e for e in check_b2(elements, objective).elements}
        for label, m3, m in (("b_11", 1.0, 1.0), ("b_21", 0.0, 1.0)):
            assert by_label[label].m3_fit == pytest.approx(m3, rel=0, abs=1e-12)
            assert by_label[label].m_fit == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("name,flags", [
        ("case1", {"b_11": False, "b_21": True}),
        ("case2", {"b_11": True, "b_21": False, "b_12": False, "b_22": True}),
        ("case3", {"b_11": True, "b_21": True, "b_12": True, "b_22": True}),
    ])
    def test_preset_contradiction_flags(self, name, flags):
        objective, elements, _ = preset(name).b2_setup()
        rep = check_b2(elements, objective)
        assert {e.label: e.contradiction for e in rep.elements} == flags
        assert rep.to_dict() == check_b2(elements, objective).to_dict()

    def test_never_flags_vanishing_elements(self, case3):
        objective, _, _ = case3.b2_setup()
        # sin(ftilde) stands in for ftilde**2, which no named form gives
        elements = [B2Element(s=1, i=1, form=_linear(2.0, 0.0)),
                    B2Element(s=2, i=1, form=CoefficientForm("sine", 1.0, 1.0))]
        rep = check_b2(elements, objective)
        assert not rep.contradiction


class TestMetrics:
    def test_constant_log_at_target(self):
        t = np.linspace(0, 20, 201)
        log = _log(t, np.ones_like(t))
        m = metrics(log, [1.0], window=5.0)
        assert m.final_error == 0.0
        assert m.envelope == (0.0,)
        assert m.settling_time == pytest.approx(0.0)

    def test_sinusoid_envelope(self):
        t = np.linspace(0, 20, 4001)
        amp = 0.37
        log = _log(t, 1.0 + amp * np.sin(2 * np.pi * t))
        m = metrics(log, [1.0], window=5.0)
        assert m.envelope[0] == pytest.approx(amp, rel=0.02)

    @given(st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_envelope_offset_invariant(self, offset):
        t = np.linspace(0, 20, 1001)
        base = np.sin(2 * np.pi * t)
        m0 = metrics(_log(t, base), [0.0], window=5.0)
        m1 = metrics(_log(t, base + offset), [offset], window=5.0)
        assert m1.envelope[0] == pytest.approx(m0.envelope[0], abs=1e-12)

    def test_window_must_fit(self):
        t = np.linspace(0, 5, 100)
        with pytest.raises(InputError):
            metrics(_log(t, t), [0.0], window=10.0)

    @pytest.mark.parametrize("window,period", [
        (float("nan"), None), (0.0, None), (-3.0, None), (float("inf"), None),
        (1.0, 0.0), (1.0, -1.0), (1.0, float("nan"))])
    def test_window_and_period_must_be_positive(self, window, period):
        t = np.linspace(0, 5, 100)
        with pytest.raises(InputError):
            metrics(_log(t, t), [0.0], window=window, period=period)


class TestCompare:
    def test_identical_logs_ratio_one(self):
        t = np.linspace(0, 20, 2001)
        x = 1.0 + 0.2 * np.sin(2 * np.pi * t)
        rep = compare(_log(t, x), _log(t, x), [1.0], window=5.0)
        assert rep.envelope_ratio == pytest.approx(1.0)

    def test_flat_proposed_ratio_zero(self):
        t = np.linspace(0, 20, 2001)
        base = 1.0 + 0.2 * np.sin(2 * np.pi * t)
        rep = compare(_log(t, base), _log(t, np.ones_like(t)), [1.0],
                      window=5.0)
        assert rep.envelope_ratio == pytest.approx(0.0)

    def test_stride_mismatch_rejected(self):
        t1 = np.linspace(0, 20, 2001)
        t2 = np.linspace(0, 20, 1001)
        with pytest.raises(InputError):
            compare(_log(t1, t1), _log(t2, t2), [0.0], window=5.0)

    def test_report_serializes(self):
        t = np.linspace(0, 20, 501)
        rep = compare(_log(t, np.sin(t)), _log(t, 0.5 * np.sin(t)), [0.0],
                      window=5.0)
        d = rep.to_dict()
        assert set(d) == {"baseline", "proposed", "envelope_ratio"}


class TestPeriodAverage:
    def test_constant_preserved(self):
        out = period_average(np.full(100, 3.3), 16)
        np.testing.assert_allclose(out, 3.3)

    def test_full_period_sinusoid_zeroed(self):
        n = 64
        vals = np.sin(2 * np.pi * np.arange(10 * n) / n)
        out = period_average(vals, n)
        assert np.max(np.abs(out[n:])) < 1e-12


class TestReportJson:
    def _reports(self):
        t = np.linspace(1.0, 20.0, 501)
        bound = check_bound(t, t ** -1.5, p=1.2)
        objective, elements, _ = preset("case1").b2_setup()
        b2 = check_b2(elements, objective)
        comparison = compare(_log(t, np.sin(t)), _log(t, 0.5 * np.sin(t)),
                             [0.0], window=5.0)
        return (bound, bound.channels[0], b2, b2.elements[0], comparison,
                comparison.baseline)

    def test_keys_are_the_fields_in_order(self):
        reports = self._reports()
        assert len({type(r) for r in reports}) == 6
        for report in reports:
            assert list(report.to_dict()) == [f.name for f in fields(report)]

    def test_key_order_of_the_check_reports(self):
        bound, _, b2, _, _, _ = self._reports()
        assert list(bound.to_dict()) == ["p", "t_min", "holds", "channels"]
        assert list(b2.to_dict()) == ["contradiction", "x_star", "f_star",
                                      "elements", "b1_constants"]

    def test_nested_reports_and_tuples_serialize_to_json(self):
        for report in self._reports():
            d = report.to_dict()
            assert json.loads(json.dumps(d)) == d
