"""Crash consistency for the reproduction: checkpoint files and journals.

Two defenses, one package (DESIGN.md §16):

* :mod:`repro.recovery.codec` — a versioned, digest-stamped checkpoint
  file format over the full simulation state: header, digest, atomic
  write, detach/reattach of live objects, the run and fleet writers and
  the fleet restore.  A run checkpointed at epoch *k* and resumed is
  byte-identical to the uninterrupted run; the run side of restore
  (:func:`~repro.runner.experiment.restore_run`) lives with the run.
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
