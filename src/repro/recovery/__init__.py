"""Crash consistency for the reproduction: checkpoint files and journals.

Two defenses, one package (DESIGN.md §16):

* :mod:`repro.recovery.codec` — a versioned, digest-stamped checkpoint
  file format over the full simulation state: header, a pickle with
  columns and live handles by reference, a column block, atomic write,
  the run and fleet writers, the reader and the fleet restore.  A run
  checkpointed at epoch *k* and resumed is byte-identical to the
  uninterrupted run; :func:`~repro.runner.experiment.restore_run` is
  the run's entry point.
* :mod:`repro.recovery.journal` — a write-ahead journal for sweeps and
  sharded fleet runs; ``--resume`` replays completed points and
  re-executes only in-flight ones.

The package sits below :mod:`repro.runner`; the sweep's supervised
worker pool is :class:`~repro.sweep.supervisor.PointSupervisor`.
"""

from .codec import (
    CHECKPOINT_FORMAT,
    checkpoint_fleet,
    checkpoint_run,
    checkpoint_run_stepping,
    read_checkpoint_header,
    restore_fleet,
    state_digest,
)
from .journal import JOURNAL_FORMAT, SweepJournal

__all__ = [
    "CHECKPOINT_FORMAT",
    "JOURNAL_FORMAT",
    "SweepJournal",
    "checkpoint_fleet",
    "checkpoint_run",
    "checkpoint_run_stepping",
    "read_checkpoint_header",
    "restore_fleet",
    "state_digest",
]
