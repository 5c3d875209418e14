"""Control-affine extremum seeking with attenuating oscillations.

The package simulates dither-driven seeking systems whose averaged
(bracket) dynamics are estimated online by a continuous-discrete Kalman
filter; the estimate drives the dither amplitude to zero, so the
oscillations vanish as the state converges.  Verification tooling checks
the time-decay stability condition and the literature's
vanishing-oscillation condition on the presets.

The namespace exports what the command line and the README use; the
filter itself is :class:`lieseek.gekf.GekfFilter`.  Each public name is
imported from its module on first use (a module ``__getattr__``), so
``import lieseek`` loads no NumPy: :mod:`lieseek.cli` sets NumPy's BLAS
thread count before its own first NumPy import, and the package's import
must not have loaded NumPy by then.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "check_b2": "analysis", "check_bound": "analysis", "compare": "analysis",
    "metrics": "analysis", "Scenario": "scenarios",
    "load_scenario": "scenarios", "preset": "scenarios",
    "preset_names": "scenarios", "TrajectoryLog": "sim",
    "run_baseline": "sim", "run_lbs": "sim", "run_proposed": "sim",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
