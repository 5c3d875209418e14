import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieseek.errors import ConfigurationError, LieseekError, UnknownPresetError
from lieseek.gekf import GekfFilter
from lieseek.model import verify_assumption_a2
from lieseek.scenarios import Scenario, load_scenario, preset, preset_names


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
        path.write_text(json.dumps(sc.config))
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
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
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

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_every_renamed_key_raises(self, name):
        """A key renamed anywhere a section's settings are read is an
        unknown setting or leaves a required one missing: it never
        loads."""
        config = preset(name).config
        renames = 0
        for path in _setting_paths(config):
            cfg = preset(name).config
            node = _node(cfg, path[:-1])
            node[f"{path[-1]}_x"] = node.pop(path[-1])
            with pytest.raises(ConfigurationError):
                Scenario(cfg)
            renames += 1
        assert renames > 40

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    @pytest.mark.parametrize("value", [True, "1"], ids=["true", "string"])
    def test_every_number_as_true_or_string_raises(self, name, value):
        config = preset(name).config
        numbers = [path for path in _leaf_paths(config)
                   if type(_node(config, path)) in (int, float)]
        assert len(numbers) > 20
        for path in numbers:
            cfg = preset(name).config
            _node(cfg, path[:-1])[path[-1]] = value
            with pytest.raises(ConfigurationError):
                Scenario(cfg)


def _node(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _setting_paths(node, path=()):
    """The path of every key that a section's reader reads: not the
    system labels or dither names, which name entries, nor the keys of
    the free-form ``metadata`` and ``b1_constants``."""
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _setting_paths(value, path + (i,))
    elif isinstance(node, dict):
        for key, value in node.items():
            named = path[-1:] in (("systems",), ("dithers",))
            if not named:
                yield path + (key,)
            if key not in ("metadata", "b1_constants"):
                yield from _setting_paths(value, path + (key,))


def _edited(path: tuple, value) -> dict:
    cfg = preset("case1").config
    _node(cfg, path[:-1])[path[-1]] = value
    return cfg


@pytest.mark.parametrize("path,value,message", [
    (("systems", "main", "d_t"), 1e-4,
     "systems.main.d_t: unknown setting; have [objective, dithers, channels, "
     "omega, a0, lambda, x0, horizon, dt]"),
    (("systems", "main", "objective", "domainbox"), [[-2.0, 4.0]],
     "systems.main.objective.domainbox: unknown setting; have [form, "
     "weights, center, offset, kind, domain_box]"),
    (("systems", "main", "channels", 0, "u3"), "u1",
     "systems.main.channels[0].u3: unknown setting; have [b1, b2, u1, u2]"),
    (("systems", "main", "dithers", "u1", "phaze"), 0.0,
     "systems.main.dithers.u1.phaze: unknown setting; have [kind, phase, "
     "period, bound, samples]"),
    (("systems", "main", "channels", 0, "b1", "amp"), 1.0,
     "systems.main.channels[0].b1.amp: unknown setting; have [form, gain, "
     "offset]"),
    (("b2", "elements", 0, "lable"), "b",
     "b2.elements[0].lable: unknown setting; have [s, i, coeff, label]"),
    (("nmae",), "x",
     "nmae: unknown setting; have [name, systems, primary, gekf, analysis, "
     "b2, metadata]"),
    (("analysis", "span"), 1.0,
     "analysis.span: unknown setting; have [p, t_min, window]"),
    (("gekf", "q4"), 1.0,
     "gekf.q4: unknown setting; have [q1, q2, q3, r, p0, a_floor_rel, "
     "smoothing, n_meas]"),
    (("systems", "main", "omega"), "50",
     "systems.main.omega: expected a number, got a string"),
    (("systems", "main", "omega"), True,
     "systems.main.omega: expected a number, got a boolean"),
    (("systems", "main", "omega"), 10 ** 400,
     "systems.main.omega: integer too large for a float"),
    (("systems", "main", "horizon"), None,
     "systems.main.horizon: expected a number, got null"),
    (("systems", "main", "a0"), [True],
     "systems.main.a0[0]: expected a number, got a boolean"),
    (("systems", "main", "x0"), ["1"],
     "systems.main.x0[0]: expected a number, got a string"),
    (("systems", "main", "channels", 0, "b1", "gain"), True,
     "systems.main.channels[0].b1.gain: expected a number, got a boolean"),
    (("systems", "main", "objective", "domain_box"), [[-2.0]],
     "systems.main.objective.domain_box[0]: expected 2 entries"),
    (("analysis", "t_min"), "2",
     "analysis.t_min: expected a number, got a string"),
    (("gekf", "n_meas"), 1.0,
     "gekf.n_meas: expected an integer, got a number"),
    (("gekf", "smoothing"), "no",
     "gekf.smoothing: expected true or false, got a string"),
    (("name",), 5, "name: expected a string, got a number"),
    (("name",), "../escaped", "name: '../escaped' is not a file name"),
    (("name",), "", "name: '' is not a file name"),
    (("b2", "elements", 0, "s"), 1.7,
     "b2.elements[0].s: expected an integer, got a number"),
    (("b2", "system"), "nope", "b2.system: unknown 'nope'; have [main]"),
    (("b2", "elements", 0, "s"), 3, "b2.elements[0].s: expected 1 or 2, got 3"),
    (("b2", "elements", 0, "s"), 0, "b2.elements[0].s: expected 1 or 2, got 0"),
    (("b2", "elements", 0, "i"), -7, "b2.elements[0].i: expected 1, got -7"),
    (("b2", "elements", 0, "i"), 2, "b2.elements[0].i: expected 1, got 2"),
    (("primary",), "nope", "primary: unknown 'nope'; have [main]"),
    (("systems", "main", "objective", "form"), "cubic",
     "systems.main.objective.form: unknown 'cubic'; have [quadratic]"),
    (("systems", "main", "channels", 0, "b2", "form"), "cubic",
     "systems.main.channels[0].b2.form: unknown 'cubic'; have [linear, "
     "cosine, sine]"),
    (("systems",), [], "systems: expected an object, got a list"),
    (("systems",), {}, "systems: the scenario declares no systems"),
], ids=["d_t", "domainbox", "channel-key", "dither-key", "form-key",
        "element-key", "top-level-key", "analysis-key", "gekf-key",
        "string-omega", "true-omega", "int-beyond-float", "null-horizon",
        "true-a0", "string-x0", "true-gain", "one-number-box-pair",
        "string-t-min", "float-n-meas", "string-smoothing", "number-name",
        "escaping-name", "empty-name", "fractional-b2-s", "unknown-b2-system",
        "b2-s-above-2", "b2-s-below-1", "negative-b2-i", "b2-i-beyond-n",
        "unknown-primary", "unknown-objective-form", "unknown-coefficient-form",
        "list-systems", "no-systems"])
def test_bad_setting_names_its_path(path, value, message):
    with pytest.raises(ConfigurationError) as exc:
        Scenario(_edited(path, value))
    assert str(exc.value) == message


def test_b2_channel_index_ranges_over_the_named_system():
    """case3's b2 names vehicle3, a system of two channels."""
    cfg = preset("case3").config
    assert cfg["b2"]["system"] == "vehicle3"
    cfg["b2"]["elements"][0]["i"] = 2
    assert Scenario(cfg).b2_setup()[1][0].i == 2
    cfg["b2"]["elements"][0]["i"] = 3
    with pytest.raises(ConfigurationError,
                       match=r"^b2\.elements\[0\]\.i: expected 1 or 2, got 3$"):
        Scenario(cfg)


def test_missing_setting_names_its_path():
    cfg = preset("case1").config
    del cfg["systems"]["main"]["omega"]
    with pytest.raises(ConfigurationError, match=r"^systems\.main\.omega: missing$"):
        Scenario(cfg)


def test_label_with_a_separator_is_rejected():
    cfg = preset("case1").config
    cfg["systems"] = {"a/b": cfg["systems"]["main"]}
    cfg["primary"] = "a/b"
    with pytest.raises(ConfigurationError, match="^systems.a/b: 'a/b' is not a file name$"):
        Scenario(cfg)


def test_config_that_is_no_object_is_rejected():
    with pytest.raises(ConfigurationError,
                       match="^scenario config: expected an object, got a list$"):
        Scenario([1, 2])


def test_free_form_settings_keep_any_value():
    cfg = preset("case1").config
    cfg["metadata"] = [1, {"x": None}]
    cfg["b2"]["b1_constants"] = {"anything": [True, "1"]}
    sc = Scenario(cfg)
    assert sc.b2_setup()[2] == {"anything": [True, "1"]}
    assert sc.config["metadata"] == [1, {"x": None}]


README = Path(__file__).resolve().parents[1] / "README.md"

# Where each section of README's format table sits in a preset config.
_TABLE_SECTIONS = {
    "top level": ("case1", ()),
    "`systems.<label>`": ("case1", ("systems", "main")),
    "`systems.<label>.objective`": ("case1", ("systems", "main", "objective")),
    "`systems.<label>.dithers.<name>`":
        ("case1", ("systems", "main", "dithers", "u1")),
    "`systems.<label>.channels[i]`":
        ("case1", ("systems", "main", "channels", 0)),
    "linear form": ("case1", ("systems", "main", "channels", 0, "b1")),
    "cosine or sine form": ("case2", ("systems", "main", "channels", 0, "b1")),
    "`gekf`": ("case1", ("gekf",)),
    "`analysis`": ("case1", ("analysis",)),
    "`b2`": ("case1", ("b2",)),
    "`b2.elements[k]`": ("case1", ("b2", "elements", 0)),
}


def _format_table() -> list[tuple[str, str, str, str]]:
    """The rows of README's Scenario config table: section, key, default
    and whether null is allowed."""
    text = README.read_text(encoding="utf-8")
    rows = []
    for line in text[text.index("## Scenario config"):
                     text.index("## CLI")].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 5 and cells[1][:1] == "`":
            rows.append((cells[0], cells[1].strip("`"), cells[3], cells[4]))
    return rows


class TestReadmeFormatTable:
    """README's Scenario config table and the reader cannot drift apart."""

    def test_each_section_lists_exactly_the_settings_read(self):
        table: dict[str, list[str]] = {}
        for section, key, _, _ in _format_table():
            table.setdefault(section, []).append(key)
        assert set(table) == set(_TABLE_SECTIONS)
        for section, keys in table.items():
            name, path = _TABLE_SECTIONS[section]
            cfg = preset(name).config
            _node(cfg, path)["zz_unknown"] = 0
            with pytest.raises(ConfigurationError,
                               match="zz_unknown: unknown setting") as exc:
                Scenario(cfg)
            have = re.search(r"have \[(.*)\]$", str(exc.value)).group(1)
            assert sorted(keys) == sorted(have.split(", ")), section

    @pytest.mark.parametrize(
        "section,key,default,null", _format_table(),
        ids=[f"{row[0].strip('`')}:{row[1]}" for row in _format_table()])
    def test_default_and_null_columns_hold(self, section, key, default, null):
        """An absent key loads unless the table says it is required, and
        null loads only where the table allows it."""
        name, path = _TABLE_SECTIONS[section]
        absent, nulled = preset(name).config, preset(name).config
        _node(absent, path).pop(key, None)
        _node(nulled, path)[key] = None
        for cfg, fails in ((absent, default == "required"),
                           (nulled, null == "no")):
            if fails:
                with pytest.raises(ConfigurationError,
                                   match=rf"{re.escape(key)}: "):
                    Scenario(cfg)
            else:
                Scenario(cfg)
