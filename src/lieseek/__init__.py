"""Control-affine extremum seeking with attenuating oscillations.

The package simulates dither-driven seeking systems whose averaged
(bracket) dynamics are estimated online by a continuous-discrete Kalman
filter; the estimate drives the dither amplitude to zero, so the
oscillations vanish as the state converges.  Verification tooling checks
the time-decay stability condition and the literature's
vanishing-oscillation condition on the presets.
"""

from .analysis import (B2Element, B2Report, BoundCheckResult,
                       ComparisonReport, RunMetrics, check_b2, check_bound,
                       compare, metrics, period_average)
from .gekf import (GekfConfig, GekfFilter, GekfState, JSignal, extract_J,
                   initial_state, measurement_update, propagate)
from .lie import (LbsRhs, VectorFieldFn, chen_fliess_predict, diagonal_fields,
                  lbs_rhs_exact, lie_bracket)
from .model import (ChannelSpec, DitherSignal, EscSystemSpec,
                    EstimationErrorModel, ObjectiveMap, b0_of, eval_dither,
                    nu_coefficient, verify_assumption_a2)
from .scenarios import (GekfSettings, Scenario, load_scenario, preset,
                        preset_names, save_scenario)
from .sim import TrajectoryLog, rk4_step, run_baseline, run_lbs, run_proposed

__version__ = "0.1.0"

__all__ = [
    "B2Element", "B2Report", "BoundCheckResult", "ChannelSpec",
    "ComparisonReport", "DitherSignal", "EscSystemSpec",
    "EstimationErrorModel", "GekfConfig", "GekfFilter", "GekfSettings",
    "GekfState", "JSignal", "LbsRhs", "ObjectiveMap", "RunMetrics",
    "Scenario", "TrajectoryLog", "VectorFieldFn", "b0_of",
    "check_b2", "check_bound", "chen_fliess_predict", "compare",
    "diagonal_fields", "eval_dither", "extract_J", "initial_state",
    "lbs_rhs_exact", "lie_bracket", "load_scenario", "measurement_update",
    "metrics", "nu_coefficient", "period_average", "preset", "preset_names",
    "propagate", "rk4_step", "run_baseline", "run_lbs", "run_proposed",
    "save_scenario", "verify_assumption_a2",
]
