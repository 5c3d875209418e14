"""Preset scenarios, the config format, and its reader.

A scenario is defined entirely by a JSON-compatible config dict: named
objective/coefficient/dither forms keep every preset round-trippable
through a human-readable file.  Multi-agent presets carry one seeking
system per agent under ``systems``; single-agent presets use the label
``main``.  The ``primary`` label marks the system that reports and
checks refer to.

This module is the one reader of that format.  Each section is read key
by key with a reader of the key's JSON kind; a section's known settings
are the ones it reads, and any other key, a missing required key or a
value of another JSON kind raises :class:`ConfigurationError` naming the
setting's dotted path.  The types built from the values check their own
ranges and finiteness.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional

import numpy as np

from .analysis import B2Element
from .errors import ConfigurationError, EvaluationError, UnknownPresetError
from .gekf import GekfConfig
from .model import (COEFFICIENT_FORMS, TAU, ChannelSpec, CoefficientForm,
                    DitherSignal, EscSystemSpec, ObjectiveMap, require_finite)


@dataclass(frozen=True)
class AnalysisSettings:
    p: float = 1.05
    t_min: float = 1.0
    window: float = 10.0

    def __post_init__(self):
        for name in ("p", "t_min", "window"):
            require_finite(f"analysis {name}", getattr(self, name))
        if self.p <= 1:
            raise ConfigurationError("analysis p must exceed 1")
        if self.t_min <= 0 or self.window <= 0:
            raise ConfigurationError("analysis t_min and window must be positive")


# -- the config reader ---------------------------------------------------------
#
# A value reader takes ``(value, path)`` and returns the value as the
# types take it, or raises ConfigurationError naming ``path``.

_REQUIRED = object()
_KINDS = {type(None): "null", bool: "a boolean", int: "a number",
          float: "a number", str: "a string", list: "a list", dict: "an object"}


def _typed(expected: str, *types: type) -> Callable:
    """The reader of values of exactly the Python ``types`` that a JSON
    value of that kind loads as, so that a bool is not a number."""
    def read(value, path: str):
        if type(value) not in types:
            got = _KINDS.get(type(value), type(value).__name__)
            raise ConfigurationError(f"{path}: expected {expected}, got {got}")
        return value
    return read


_integer = _typed("an integer", int)
_string = _typed("a string", str)
_numeric = _typed("a number", int, float)


def _number(value, path: str) -> float:
    try:
        return float(_numeric(value, path))
    except OverflowError:
        raise ConfigurationError(f"{path}: integer too large for a float") from None


def _integer_in(low: int, high: int) -> Callable:
    """The reader of an integer from ``low`` to ``high``."""
    def read(value, path: str) -> int:
        if not low <= _integer(value, path) <= high:
            have = (f"{low} to {high}" if high > low + 1 else
                    " or ".join(map(str, range(low, high + 1))))
            raise ConfigurationError(f"{path}: expected {have}, got {value}")
        return value
    return read


def _file_name(value, path: str) -> str:
    """A string that output files are named by, so that they stay in
    their directory: not empty and without a path separator."""
    if not _string(value, path) or {"/", os.sep, "\0"} & set(value):
        raise ConfigurationError(f"{path}: {value!r} is not a file name")
    return value


def _any(value, path: str):
    return value


def _one_of(have) -> Callable:
    """The reader of a string that names one of ``have``."""
    def read(value, path: str) -> str:
        if _string(value, path) not in have:
            raise ConfigurationError(f"{path}: unknown {value!r}; have "
                                     f"[{', '.join(have)}]")
        return value
    return read


def _list_of(read: Callable, length: Optional[int] = None) -> Callable:
    """The reader of a list of ``read`` values, of ``length`` entries if
    it is given."""
    def read_list(value, path: str) -> tuple:
        out = tuple(read(v, f"{path}[{k}]") for k, v in
                    enumerate(_typed("a list", list)(value, path)))
        if length is not None and len(out) != length:
            raise ConfigurationError(f"{path}: expected {length} entries")
        return out
    return read_list


_numbers = _list_of(_number)
_pairs = _list_of(_list_of(_number, 2))


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _object(build: Callable) -> Callable:
    """The reader of a section that ``build`` reads by a ``get(key, read,
    default)`` function: the setting ``key`` by ``read``, or ``default``
    when it is absent, where a setting whose default is None may be null.
    The keys read are the section's settings; any other key is rejected
    once ``build`` returns."""
    def read(value, path: str):
        node = _typed("an object", dict)(value, path or "scenario config")
        known: list[str] = []

        def get(key: str, read_value: Callable, default=_REQUIRED):
            known.append(key)
            if key not in node:
                if default is _REQUIRED:
                    raise ConfigurationError(f"{_at(path, key)}: missing")
                return default
            if node[key] is None and default is None:
                return None
            return read_value(node[key], _at(path, key))

        out = build(get)
        for key in node:
            if key not in known:
                raise ConfigurationError(f"{_at(path, key)}: unknown setting; "
                                         f"have [{', '.join(known)}]")
        return out
    return read


def _named(read: Callable, name: Callable = _any) -> Callable:
    """The reader of an object of ``read`` values under names that
    ``name`` checks."""
    def read_named(value, path: str) -> dict:
        return {name(k, _at(path, k)): read(v, _at(path, k)) for k, v
                in _typed("an object", dict)(value, path).items()}
    return read_named


def _fields(cls) -> Callable:
    """The reader of a section whose settings are the fields of the
    dataclass ``cls``, each of its default's JSON kind."""
    kinds = {float: _number, bool: _typed("true or false", bool), int: _integer}
    return _object(lambda get: cls(**{
        f.name: get(f.name, kinds[type(f.default)], f.default)
        for f in fields(cls)}))


def _objective(get: Callable) -> ObjectiveMap:
    get("form", _one_of(["quadratic"]))
    return ObjectiveMap(weights=get("weights", _numbers),
                        center=get("center", _numbers),
                        offset=get("offset", _number, 0.0),
                        kind=get("kind", _string, "min"),
                        domain_box=get("domain_box", _pairs, None))


def _dither(get: Callable) -> DitherSignal:
    return DitherSignal(kind=get("kind", _string),
                        phase=get("phase", _number, 0.0),
                        period=get("period", _number, TAU),
                        bound=get("bound", _number, 1.0),
                        samples=get("samples", _pairs, None))


def _form(get: Callable) -> CoefficientForm:
    form = get("form", _one_of(COEFFICIENT_FORMS))
    return CoefficientForm(form, *(get(key, _number, default)
                                   for key, default in COEFFICIENT_FORMS[form]))


def _channel(get: Callable) -> dict:
    return dict(b1=get("b1", _object(_form)), b2=get("b2", _object(_form)),
                u1_ref=get("u1", _string, "u1"),
                u2_ref=get("u2", _string, "u2"))


def _system(get: Callable) -> EscSystemSpec:
    return EscSystemSpec(
        objective=get("objective", _object(_objective)),
        dithers=get("dithers", _named(_object(_dither))),
        channels=tuple(ChannelSpec(index=i, **channel) for i, channel in
                       enumerate(get("channels", _list_of(_object(_channel))))),
        omega=get("omega", _number), a0=get("a0", _numbers),
        lam=get("lambda", _numbers), x0=get("x0", _numbers),
        horizon=get("horizon", _number), dt=get("dt", _number, None))


def _element(n: int) -> Callable:
    """The reader of a ``b2`` element of a system of ``n`` channels: ``s``
    is 1 or 2 (its b1 or b2), ``i`` a channel from 1 to n."""
    return _object(lambda get: B2Element(
        s=get("s", _integer_in(1, 2)), i=get("i", _integer_in(1, n)),
        form=get("coeff", _object(_form)), label=get("label", _string, "")))


def _b2(systems: dict) -> Callable:
    """The reader of the ``b2`` section: the objective of the system it
    names, its elements and its free-form ``b1_constants``."""
    def build(get: Callable) -> tuple:
        system = systems[get("system", _one_of(systems))]
        return (system.objective,
                get("elements", _list_of(_element(system.n))),
                get("b1_constants", _any, None))
    return _object(build)


class Scenario:
    """A named, fully resolved experiment built from a config dict.

    A config that the reader rejects, a setting that fails its type's
    checks and a failed :meth:`validate` raise :class:`ConfigurationError`.
    """

    def __init__(self, config: Mapping):
        self._config = copy.deepcopy(config)
        _object(self._read)(self._config, "")
        try:
            self.validate()
        except EvaluationError as exc:
            raise ConfigurationError(str(exc)) from exc

    def _read(self, get: Callable) -> None:
        """Read the top level of the config by ``get`` (:func:`_object`)."""
        self.name: str = get("name", _file_name)
        self.systems: dict[str, EscSystemSpec] = get(
            "systems", _named(_object(_system), _file_name))
        if not self.systems:
            raise ConfigurationError("systems: the scenario declares no systems")
        self.primary: str = get("primary", _one_of(self.systems),
                                next(iter(self.systems)))
        self._gekf = get("gekf", _fields(GekfConfig), GekfConfig())
        self.analysis = get("analysis", _fields(AnalysisSettings),
                            AnalysisSettings())
        self._b2 = get("b2", _b2(self.systems), None)
        get("metadata", _any, None)

    @property
    def config(self) -> dict:
        return copy.deepcopy(self._config)

    @property
    def primary_system(self) -> EscSystemSpec:
        return self.systems[self.primary]

    def gekf_config(self) -> GekfConfig:
        """The filter settings of every system; each filter derives its
        members' amplitude floors and its smoothing window from its own
        system (:class:`lieseek.gekf.GekfFilter`)."""
        return self._gekf

    def b2_setup(self) -> Optional[
            tuple[ObjectiveMap, tuple[B2Element, ...], Optional[dict]]]:
        """Objective, vector-field elements, and (documented-only)
        companion constants for the condition check."""
        return self._b2

    def x_star(self, label: Optional[str] = None) -> np.ndarray:
        return np.asarray(self.systems[label or self.primary].objective.center)

    def validate(self) -> None:
        """Dither admissibility and the objective's finiteness on its box."""
        for spec in self.systems.values():
            spec.validate()


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return Scenario(config)


# -- presets -------------------------------------------------------------------

def _linear(gain: float, offset: float) -> dict:
    return {"form": "linear", "gain": gain, "offset": offset}


def _dithers() -> dict:
    """The cosine/sine dither pair of every preset system."""
    return {"u1": {"kind": "cosine", "phase": 0.0, "period": TAU, "bound": 1.0},
            "u2": {"kind": "sine", "phase": 0.0, "period": TAU, "bound": 1.0}}


def _shared_settings() -> dict:
    """The filter and analysis sections of every preset."""
    return {"gekf": {"q1": 30.0, "q2": 1e-3, "q3": 1e-2, "r": 3e-4, "p0": 1.0,
                     "a_floor_rel": 1e-3, "smoothing": True, "n_meas": 1},
            "analysis": {"p": 1.05, "t_min": 1.0, "window": 10.0}}


def _case1_config() -> dict:
    return {
        "name": "case1",
        "primary": "main",
        "systems": {"main": {
            "objective": {"form": "quadratic", "weights": [2.0],
                          "center": [1.0], "offset": 0.0, "kind": "min",
                          "domain_box": [[-2.0, 4.0]]},
            "dithers": _dithers(),
            "channels": [{"b1": _linear(1.0, 0.0), "b2": _linear(0.0, 1.0),
                          "u1": "u1", "u2": "u2"}],
            "omega": 8.0, "a0": [1.0], "lambda": [0.1], "x0": [2.0],
            "horizon": 100.0, "dt": None}},
        **_shared_settings(),
        "b2": {"system": "main", "elements": [
            {"s": 1, "i": 1, "coeff": _linear(1.0, 0.0), "label": "b_11"},
            {"s": 2, "i": 1, "coeff": _linear(0.0, 1.0), "label": "b_21"}]},
        "metadata": {"note": "scalar quadratic seeking; objective coefficient "
                             "channel with unit companion input"},
    }


def _case2_config() -> dict:
    k = 2.0
    a0 = math.sqrt(0.5)
    return {
        "name": "case2",
        "primary": "main",
        "systems": {"main": {
            "objective": {"form": "quadratic", "weights": [1.0, 1.0],
                          "center": [0.0, 0.0], "offset": 0.0, "kind": "min",
                          "domain_box": [[-2.0, 2.0], [-2.0, 2.0]]},
            "dithers": _dithers(),
            "channels": [
                {"b1": {"form": "cosine", "amp": 1.0, "scale": k},
                 "b2": {"form": "sine", "amp": -1.0, "scale": k},
                 "u1": "u1", "u2": "u2"},
                {"b1": {"form": "sine", "amp": 1.0, "scale": k},
                 "b2": {"form": "cosine", "amp": 1.0, "scale": k},
                 "u1": "u1", "u2": "u2"}],
            "omega": 25.0, "a0": [a0, a0], "lambda": [0.1, 0.1],
            "x0": [1.0, 1.0], "horizon": 100.0, "dt": None}},
        **_shared_settings(),
        "b2": {"system": "main", "elements": [
            {"s": 1, "i": 1, "coeff": {"form": "cosine", "amp": 1.0, "scale": k},
             "label": "b_11"},
            {"s": 2, "i": 1, "coeff": {"form": "sine", "amp": -1.0, "scale": k},
             "label": "b_21"},
            {"s": 1, "i": 2, "coeff": {"form": "sine", "amp": 1.0, "scale": k},
             "label": "b_12"},
            {"s": 2, "i": 2, "coeff": {"form": "cosine", "amp": 1.0, "scale": k},
             "label": "b_22"}]},
        "metadata": {"note": "planar vehicle with rotating coefficient pair; "
                             "both channels share one dither pair",
                     "x0_non_paper": True},
    }


def _case3_vehicle(center: list, offset: float, omega: float,
                   weights: list) -> dict:
    c3, a3 = 1.0, 0.3
    return {
        "objective": {"form": "quadratic", "weights": weights,
                      "center": center, "offset": offset, "kind": "max",
                      "domain_box": [[-4.0, 4.0], [-4.0, 4.0]]},
        "dithers": _dithers(),
        "channels": [
            {"b1": _linear(c3, 0.0), "b2": _linear(0.0, a3),
             "u1": "u1", "u2": "u2"},
            {"b1": _linear(0.0, a3), "b2": _linear(-c3, 0.0),
             "u1": "u1", "u2": "u2"}],
        "omega": omega, "a0": [1.0, 1.0], "lambda": [0.02, 0.02],
        "x0": [0.0, 0.0], "horizon": 100.0, "dt": None}


def _case3_config() -> dict:
    base = 25.0
    c3, a3 = 1.0, 0.3
    return {
        "name": "case3",
        "primary": "vehicle3",
        "systems": {
            "vehicle1": _case3_vehicle([1.0, -1.0], 0.0, round(base * 1.0, 6),
                                       [-0.5, -0.5]),
            "vehicle2": _case3_vehicle([0.0, 2.0], 0.0, round(base * 1.1, 6),
                                       [-0.5, -0.5]),
            "vehicle3": _case3_vehicle([-1.0, 1.0], 10.0, round(base * 1.2, 6),
                                       [-0.5, -1.5]),
        },
        **_shared_settings(),
        # Elements follow the literature system (washout disabled, raw
        # objective inside the coefficient), expressed in the shifted
        # objective: b(ftilde) with ftilde = f - f*.
        "b2": {"system": "vehicle3", "elements": [
            {"s": 1, "i": 1, "coeff": _linear(c3, 10.0 * c3), "label": "b_11"},
            {"s": 2, "i": 1, "coeff": _linear(0.0, a3), "label": "b_21"},
            {"s": 1, "i": 2, "coeff": _linear(0.0, a3), "label": "b_12"},
            {"s": 2, "i": 2, "coeff": _linear(-c3, -10.0 * c3),
             "label": "b_22"}]},
        "metadata": {"note": "three independent single-integrator agents; "
                             "agent 3 carries the documented objective map",
                     "non_paper_defaults": ["c3", "a3", "lambda", "omega",
                                            "x0", "vehicle1_map",
                                            "vehicle2_map",
                                            "frequency_multipliers"],
                     "maximization": True},
    }


_PRESETS: dict[str, Callable[[], dict]] = {
    "case1": _case1_config,
    "case2": _case2_config,
    "case3": _case3_config,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> Scenario:
    """Fully resolved scenario for a preset name."""
    if name not in _PRESETS:
        raise UnknownPresetError(f"unknown scenario {name!r}; available: "
                                 f"{', '.join(preset_names())}",
                                 available=preset_names())
    return Scenario(_PRESETS[name]())
