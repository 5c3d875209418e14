import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieseek.errors import LieseekError, UnknownPresetError
from lieseek.gekf import GekfFilter
from lieseek.model import verify_assumption_a2
from lieseek.scenarios import (Scenario, load_scenario, preset, preset_names,
                               save_scenario)


class TestPresetLookup:
    def test_names(self):
        assert preset_names() == ("case1", "case2", "case3")

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownPresetError) as exc:
            preset("case9")
        assert exc.value.available == ("case1", "case2", "case3")


class TestCase1Preset:
    def test_documented_parameters(self, case1):
        spec = case1.primary_system
        assert spec.omega == 8.0
        np.testing.assert_allclose(spec.a0, [1.0])
        np.testing.assert_allclose(spec.lam, [0.1])
        np.testing.assert_allclose(spec.x0, [2.0])
        assert spec.horizon == 100.0
        assert spec.objective.value([3.0]) == pytest.approx(8.0)
        assert spec.objective.center == (1.0,)

    def test_channel_structure(self, case1):
        ch = case1.primary_system.channels[0]
        # objective-proportional coefficient with unit companion
        assert ch.b1.value(2.5) == 2.5 and ch.b2.value(2.5) == 1.0


class TestCase2Preset:
    def test_documented_parameters(self, case2):
        spec = case2.primary_system
        assert spec.omega == 25.0
        np.testing.assert_allclose(spec.a0, math.sqrt(0.5))
        assert spec.objective.value([1.0, 1.0]) == pytest.approx(2.0)
        assert spec.objective.center == (0.0, 0.0)

    def test_rotating_coefficients(self, case2):
        chx, chy = case2.primary_system.channels
        f = 0.3
        assert chx.b1.value(f) == pytest.approx(math.cos(2 * f))
        assert chx.b2.value(f) == pytest.approx(-math.sin(2 * f))
        assert chy.b1.value(f) == pytest.approx(math.sin(2 * f))
        assert chy.b2.value(f) == pytest.approx(math.cos(2 * f))

    def test_channels_share_dither_pair(self, case2):
        chx, chy = case2.primary_system.channels
        assert (chx.u1_ref, chx.u2_ref) == (chy.u1_ref, chy.u2_ref)


class TestCase3Preset:
    def test_three_agents_with_frequency_multipliers(self, case3):
        assert set(case3.systems) == {"vehicle1", "vehicle2", "vehicle3"}
        omegas = [case3.systems[k].omega for k in ("vehicle1", "vehicle2",
                                                   "vehicle3")]
        assert omegas == [25.0, 27.5, 30.0]
        assert case3.primary == "vehicle3"

    def test_vehicle3_objective(self, case3):
        obj = case3.systems["vehicle3"].objective
        assert obj.kind == "max"
        assert obj.value([-1.0, 1.0]) == pytest.approx(10.0)
        assert obj.value([0.0, 0.0]) == pytest.approx(8.0)
        # the controller-facing signal descends to zero at the extremum
        assert obj.measured([-1.0, 1.0]) == pytest.approx(0.0)
        assert obj.measured([0.0, 0.0]) == pytest.approx(2.0)

    def test_vehicle3_vector_field_elements(self, case3):
        chx, chy = case3.systems["vehicle3"].channels
        m = 1.7
        assert chx.b1.value(m) == pytest.approx(1.0 * m)     # c3 * signal
        assert chx.b2.value(m) == pytest.approx(0.3)         # a3
        assert chy.b1.value(m) == pytest.approx(0.3)
        assert chy.b2.value(m) == pytest.approx(-1.0 * m)

    def test_b2_elements_follow_documented_table(self, case3):
        _, elements, _ = case3.b2_setup()
        by_label = {e.label: e for e in elements}
        assert by_label["b_11"].form.value(0.0) == pytest.approx(10.0)
        assert by_label["b_21"].form.value(0.0) == pytest.approx(0.3)
        assert by_label["b_12"].form.value(-3.0) == pytest.approx(0.3)
        assert by_label["b_22"].form.value(0.0) == pytest.approx(-10.0)


class TestScenarioInvariants:
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_round_trip_lossless(self, name, tmp_path):
        sc = preset(name)
        path = tmp_path / f"{name}.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back.config == sc.config
        assert json.loads(path.read_text()) == sc.config

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_all_dithers_admissible(self, name):
        sc = preset(name)
        for spec in sc.systems.values():
            for d in spec.dithers.values():
                assert verify_assumption_a2(d).all_ok

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_full_validation_passes(self, name):
        preset(name).validate()

    def test_config_edits_do_not_leak(self, case1):
        cfg = case1.config
        cfg["systems"]["main"]["omega"] = 999.0
        assert case1.primary_system.omega == 8.0
        assert Scenario(cfg).primary_system.omega == 999.0


class TestGekfResolution:
    def test_config_is_the_gekf_section(self, case1):
        assert dataclasses.asdict(case1.gekf_config()) == case1.config["gekf"]

    def test_window_matches_dither_period(self, case1):
        spec = case1.primary_system
        filt = GekfFilter(case1.gekf_config(), spec, [0.0], spec.a0[None])
        assert filt.window == spec.steps_per_period
        assert filt._a_floor[0, 0] == pytest.approx(1e-3 * float(spec.a0.min()))

    def test_per_system_resolution(self, case3):
        cfg = case3.gekf_config()
        for label in ("vehicle1", "vehicle3"):
            spec = case3.systems[label]
            filt = GekfFilter(cfg, spec, [0.0], spec.a0[None])
            assert filt.window == spec.steps_per_period


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


LEAF_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


class TestConfigFuzz:
    @pytest.mark.parametrize("name", ["case1", "case3"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_leaf_edit_loads_or_raises_package_error(self, name, data):
        """Setting or deleting any one leaf of a preset config either
        yields a usable scenario or raises a package error, never a
        bare Python exception."""
        cfg = preset(name).config
        path = data.draw(st.sampled_from(list(_leaf_paths(cfg))))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if data.draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(LEAF_VALUES)
        try:
            sc = Scenario(cfg)
            sc.gekf_config()
            sc.x_star()
            sc.b2_setup()
        except LieseekError:
            pass
