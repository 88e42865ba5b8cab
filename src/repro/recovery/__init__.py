"""Crash consistency for the reproduction: checkpoint files and journals.

Two defenses, one package (DESIGN.md §16):

* :mod:`repro.recovery.codec` — a versioned, digest-stamped checkpoint
  file format over the full simulation state, and one writer, stepping
  driver, restore and resume for runs and fleets alike.  A root
  checkpointed at step *k* and resumed is byte-identical to the
  uninterrupted one.
* :mod:`repro.recovery.journal` — a write-ahead journal for sweeps and
  sharded fleet runs; ``--resume`` replays completed points and
  re-executes only in-flight ones.

The package sits below :mod:`repro.runner` and :mod:`repro.fleet`; the
sweep's supervised worker pool is
:class:`~repro.sweep.supervisor.PointSupervisor`.
"""

from .codec import (
    CHECKPOINT_FORMAT,
    PausedSimulation,
    checkpoint_run,
    read_checkpoint_header,
    restore,
    resume_checkpoint,
    run_with_checkpoints,
    state_digest,
)
from .journal import JOURNAL_FORMAT, SweepJournal

__all__ = [
    "CHECKPOINT_FORMAT",
    "JOURNAL_FORMAT",
    "PausedSimulation",
    "SweepJournal",
    "checkpoint_run",
    "read_checkpoint_header",
    "restore",
    "resume_checkpoint",
    "run_with_checkpoints",
    "state_digest",
]
