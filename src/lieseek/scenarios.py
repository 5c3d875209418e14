"""Preset scenarios, the config format, and scenario (de)serialization.

A scenario is defined entirely by a JSON-compatible config dict: named
objective/coefficient/dither forms keep every preset round-trippable
through a human-readable file.  Multi-agent presets carry one seeking
system per agent under ``systems``; single-agent presets use the label
``main``.  The ``primary`` label marks the system that reports and
checks refer to.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .analysis import B2Element
from .errors import ConfigurationError, EvaluationError, UnknownPresetError
from .gekf import GekfConfig
from .model import (TAU, ChannelSpec, CoefficientForm, DitherSignal,
                    EscSystemSpec, ObjectiveMap)


# -- system / scenario assembly ----------------------------------------------

def build_system(cfg: Mapping) -> EscSystemSpec:
    objective = ObjectiveMap.from_config(cfg["objective"])
    dithers = {name: DitherSignal.from_config(dc)
               for name, dc in cfg["dithers"].items()}
    channels = tuple(
        ChannelSpec(index=i, b1=CoefficientForm.from_config(ch["b1"]),
                    b2=CoefficientForm.from_config(ch["b2"]),
                    u1_ref=ch.get("u1", "u1"), u2_ref=ch.get("u2", "u2"))
        for i, ch in enumerate(cfg["channels"]))
    return EscSystemSpec(
        objective=objective, channels=channels, dithers=dithers,
        omega=float(cfg["omega"]), a0=np.asarray(cfg["a0"], dtype=float),
        lam=np.asarray(cfg["lambda"], dtype=float),
        x0=np.asarray(cfg["x0"], dtype=float), horizon=float(cfg["horizon"]),
        dt=None if cfg.get("dt") is None else float(cfg["dt"]))


@dataclass(frozen=True)
class AnalysisSettings:
    p: float = 1.05
    t_min: float = 1.0
    window: float = 10.0

    def __post_init__(self):
        for name in ("p", "t_min", "window"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigurationError(f"analysis {name} must be finite")
            object.__setattr__(self, name, value)
        if self.p <= 1:
            raise ConfigurationError("analysis p must exceed 1")
        if self.t_min <= 0 or self.window <= 0:
            raise ConfigurationError("analysis t_min and window must be positive")


# Filter settings a config may set; ``a_floor_rel`` scales the smallest
# initial amplitude into the absolute floor, and the smoothing window is
# one dither period of the system.
GEKF_KEYS = ("q1", "q2", "q3", "r", "p0", "a_floor_rel", "smoothing", "n_meas")

# What malformed config values raise while a scenario is built.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError,
              ArithmeticError)


def _gekf_configs(settings: Mapping, systems: Mapping[str, EscSystemSpec]
                  ) -> dict[str, GekfConfig]:
    unknown = sorted(set(settings) - set(GEKF_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown gekf settings {unknown}; "
                                 f"have {list(GEKF_KEYS)}")
    kw = dict(settings)
    a_floor_rel = kw.pop("a_floor_rel", 1e-3)
    return {label: GekfConfig(**kw,
                              a_floor=a_floor_rel * float(np.min(spec.a0)),
                              smooth_window=spec.steps_per_period)
            for label, spec in systems.items()}


class Scenario:
    """A named, fully resolved experiment built from a config dict.

    Any malformed config, including wrongly typed or non-finite values,
    unknown settings and a failed :meth:`validate`, raises
    :class:`ConfigurationError`.
    """

    def __init__(self, config: Mapping):
        try:
            self._config = copy.deepcopy(dict(config))
            cfg = self._config
            self.name: str = cfg["name"]
            self.systems: dict[str, EscSystemSpec] = {
                label: build_system(sys_cfg)
                for label, sys_cfg in cfg["systems"].items()}
            if not self.systems:
                raise ConfigurationError("scenario declares no systems")
            self.primary: str = cfg.get("primary", next(iter(self.systems)))
            if self.primary not in self.systems:
                raise ConfigurationError(
                    f"primary system {self.primary!r} unknown")
            self._gekf = _gekf_configs(cfg.get("gekf", {}), self.systems)
            self.analysis = AnalysisSettings(**cfg.get("analysis", {}))
            self.metadata: dict = cfg.get("metadata", {})
            self._b2 = self._parse_b2(cfg.get("b2"))
            self.validate()
        except KeyError as exc:
            raise ConfigurationError(f"scenario config missing {exc}") from exc
        except EvaluationError as exc:
            raise ConfigurationError(str(exc)) from exc
        except _MALFORMED as exc:
            detail = " ".join(str(exc).split())
            raise ConfigurationError(
                f"malformed scenario config: {type(exc).__name__}: {detail}"
            ) from exc

    def _parse_b2(self, b2):
        if not b2:
            return None
        objective = self.systems[b2["system"]].objective
        elements = tuple(
            B2Element(s=int(el["s"]), i=int(el["i"]),
                      form=CoefficientForm.from_config(el["coeff"]),
                      label=el.get("label", ""))
            for el in b2["elements"])
        return objective, elements, b2.get("b1_constants")

    @property
    def config(self) -> dict:
        return copy.deepcopy(self._config)

    @property
    def primary_system(self) -> EscSystemSpec:
        return self.systems[self.primary]

    def gekf_config(self, label: Optional[str] = None) -> GekfConfig:
        return self._gekf[label or self.primary]

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


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.config, fh, indent=2)
        fh.write("\n")


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


def _case1_config() -> dict:
    return {
        "name": "case1",
        "primary": "main",
        "systems": {"main": {
            "objective": {"form": "quadratic", "weights": [2.0],
                          "center": [1.0], "offset": 0.0, "kind": "min",
                          "domain_box": [[-2.0, 4.0]]},
            "dithers": {"u1": {"kind": "cosine", "phase": 0.0, "period": TAU,
                               "bound": 1.0},
                        "u2": {"kind": "sine", "phase": 0.0, "period": TAU,
                               "bound": 1.0}},
            "channels": [{"b1": _linear(1.0, 0.0), "b2": _linear(0.0, 1.0),
                          "u1": "u1", "u2": "u2"}],
            "omega": 8.0, "a0": [1.0], "lambda": [0.1], "x0": [2.0],
            "horizon": 100.0, "dt": None}},
        "gekf": {"q1": 30.0, "q2": 1e-3, "q3": 1e-2, "r": 3e-4, "p0": 1.0,
                 "a_floor_rel": 1e-3, "smoothing": True, "n_meas": 1},
        "analysis": {"p": 1.05, "t_min": 1.0, "window": 10.0},
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
            "dithers": {"u1": {"kind": "cosine", "phase": 0.0, "period": TAU,
                               "bound": 1.0},
                        "u2": {"kind": "sine", "phase": 0.0, "period": TAU,
                               "bound": 1.0}},
            "channels": [
                {"b1": {"form": "cosine", "amp": 1.0, "scale": k},
                 "b2": {"form": "sine", "amp": -1.0, "scale": k},
                 "u1": "u1", "u2": "u2"},
                {"b1": {"form": "sine", "amp": 1.0, "scale": k},
                 "b2": {"form": "cosine", "amp": 1.0, "scale": k},
                 "u1": "u1", "u2": "u2"}],
            "omega": 25.0, "a0": [a0, a0], "lambda": [0.1, 0.1],
            "x0": [1.0, 1.0], "horizon": 100.0, "dt": None}},
        "gekf": {"q1": 30.0, "q2": 1e-3, "q3": 1e-2, "r": 3e-4, "p0": 1.0,
                 "a_floor_rel": 1e-3, "smoothing": True, "n_meas": 1},
        "analysis": {"p": 1.05, "t_min": 1.0, "window": 10.0},
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
        "dithers": {"u1": {"kind": "cosine", "phase": 0.0, "period": TAU,
                           "bound": 1.0},
                    "u2": {"kind": "sine", "phase": 0.0, "period": TAU,
                           "bound": 1.0}},
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
        "gekf": {"q1": 30.0, "q2": 1e-3, "q3": 1e-2, "r": 3e-4, "p0": 1.0,
                 "a_floor_rel": 1e-3, "smoothing": True, "n_meas": 1},
        "analysis": {"p": 1.05, "t_min": 1.0, "window": 10.0},
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
