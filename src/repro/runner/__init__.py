"""Experiment harness: the paper's six system configurations (§4), the
drivers that run (workload × machine × configuration) simulations and
normalise their results against baseline, and the restore of a paused
run from its checkpoint file (:func:`restore_run`, and
:func:`resume_checkpoint` behind ``daos resume``).
"""

from .configs import CONFIGS, ExperimentConfig, get_config
from .experiment import autotune_scheme, restore_run, resume_checkpoint, run_experiment
from .results import NormalizedResult, RunResult, normalize

__all__ = [
    "CONFIGS",
    "ExperimentConfig",
    "NormalizedResult",
    "RunResult",
    "autotune_scheme",
    "get_config",
    "normalize",
    "restore_run",
    "resume_checkpoint",
    "run_experiment",
]
