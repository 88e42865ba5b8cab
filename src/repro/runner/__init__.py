"""Experiment harness: the paper's six system configurations (§4), and
the drivers that run (workload × machine × configuration) simulations
and normalise their results against baseline.  A run is a
:class:`~repro.recovery.PausedSimulation`: its checkpoints are written,
restored and resumed by :mod:`repro.recovery`, as a fleet's are.
"""

from .configs import CONFIGS, ExperimentConfig, get_config
from .experiment import autotune_scheme, run_experiment
from .results import NormalizedResult, RunResult, normalize

__all__ = [
    "CONFIGS",
    "ExperimentConfig",
    "NormalizedResult",
    "RunResult",
    "autotune_scheme",
    "get_config",
    "normalize",
    "run_experiment",
]
