"""Control-affine extremum seeking with attenuating oscillations.

The package simulates dither-driven seeking systems whose averaged
(bracket) dynamics are estimated online by a continuous-discrete Kalman
filter; the estimate drives the dither amplitude to zero, so the
oscillations vanish as the state converges.  Verification tooling checks
the time-decay stability condition and the literature's
vanishing-oscillation condition on the presets.

The namespace exports what the command line and the README use; the
filter itself is :class:`lieseek.gekf.GekfFilter`.
"""

from .analysis import check_b2, check_bound, compare, metrics
from .scenarios import Scenario, load_scenario, preset, preset_names
from .sim import TrajectoryLog, run_baseline, run_lbs, run_proposed

__version__ = "0.1.0"

__all__ = [
    "Scenario", "TrajectoryLog", "check_b2", "check_bound", "compare",
    "load_scenario", "metrics", "preset", "preset_names", "run_baseline",
    "run_lbs", "run_proposed",
]
