"""Shared fixtures: preset scenarios and short-horizon variants."""

from __future__ import annotations

import numpy as np
import pytest

from lieseek.scenarios import Scenario, preset


def shortened(name: str, horizon: float, label: str | None = None,
              omega: float | None = None) -> Scenario:
    """A preset with every system's horizon clipped (for fast tests), and
    its omega replaced when ``omega`` is given."""
    cfg = preset(name).config
    for sys_cfg in cfg["systems"].values():
        sys_cfg["horizon"] = horizon
        if omega is not None:
            sys_cfg["omega"] = omega
    if label is not None:
        cfg["systems"] = {label: cfg["systems"][label]}
        cfg["primary"] = label
    return Scenario(cfg)


@pytest.fixture(scope="session")
def case1() -> Scenario:
    return preset("case1")


@pytest.fixture(scope="session")
def case2() -> Scenario:
    return preset("case2")


@pytest.fixture(scope="session")
def case3() -> Scenario:
    return preset("case3")


def zero_mean_tabulated(rng: np.random.Generator, points: int = 512,
                        modes: int = 4):
    """Random smooth zero-mean tabulated dither on a uniform grid.

    Built from a random low-order Fourier combination, so the tabulated
    samples have an exactly zero trapezoid mean over the period.
    """
    from lieseek.model import TAU, DitherSignal

    theta = np.arange(points) * (TAU / points)
    vals = np.zeros(points)
    for k in range(1, modes + 1):
        vals += rng.normal() * np.cos(k * theta) + rng.normal() * np.sin(k * theta)
    bound = float(np.max(np.abs(vals))) + 1e-9
    samples = tuple((float(a), float(b)) for a, b in zip(theta, vals))
    return DitherSignal(kind="tabulated", period=TAU, bound=bound,
                        samples=samples)
