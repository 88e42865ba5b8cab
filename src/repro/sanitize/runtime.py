"""The SimSanitizer runtime: one checkpoint per layer, and reporting.

A run's :class:`SimSanitizer` is a constructor argument of its kernel
and monitor, and the layers call back at their natural barriers:

* ``SimKernel.end_epoch`` → :meth:`SimSanitizer.checkpoint_kernel`
  (quota sanity and region state of the engine and monitor handed to
  :meth:`SimSanitizer.attach`, then the kernel checks, in the two
  classes below);
* ``DataAccessMonitor.aggregate_tick`` →
  :meth:`SimSanitizer.checkpoint_monitor` (region tiling);
* ``FleetScheduler`` tick → :meth:`SimSanitizer.checkpoint_fleet`.

A checkpoint that finds a violation raises
:class:`~repro.errors.SanitizerError`.  A disabled sanitizer
(``enabled=False``) costs one attribute read and one ``if`` per
checkpoint — the overhead budget the trace benchmark gates at under 2%.

Two classes of kernel check
---------------------------

*Every epoch:* quota sanity, region state, present/swapped exclusivity,
counter coherence, huge residency, and the count identities of
:func:`~repro.sanitize.checkers.frame_counts_agree`.  A direct store
into ``present``, ``swapped``, a counter, a quota or the region table
is reported in the epoch it happens.

*Keyed:* :func:`~repro.sanitize.checkers.check_frame_conservation` and
:func:`~repro.sanitize.checkers.check_tier_placement` derive the live
frame set and walk the rmap, which is nearly all of a checkpoint's cost,
and everything they read (``frame``, ``tier``, the owner column, the
recycled stacks, the allocator counters) changes only inside
``FrameTable.allocate``/``allocate_slow``/``release`` or a layout
change.  They run when ``(space.generation, frames.rmap_generation)``
differs from its value at their last clean pass over this kernel, at a
process's first checkpoint, when a count identity fails, on every
:data:`FULL_CHECK_EVERY`-th epoch, and once more at run end
(:meth:`SimSanitizer.check_run_end`, from ``ExperimentRun.finish``).

So there are two defences.  A transition through ``FlatPageTable`` /
``FrameTable`` is checked in its own epoch: it moves the key, or, if it
forgot its frame operation, breaks an identity.  A direct store into
``frame``, ``tier``, the owner column or a free stack that keeps every
count intact is found within :data:`FULL_CHECK_EVERY` epochs, or at run
end at the latest; for the owner column and the free stacks it is also
policed statically: a test walks ``src/repro/sim/`` and requires every
such store to sit beside an ``rmap_generation`` bump.  That latency
bound is the one thing given up against running everything every epoch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import SanitizerError
from .checkers import (
    Violation,
    check_counter_coherence,
    check_fleet_state,
    check_frame_conservation,
    check_huge_residency,
    check_present_swapped,
    check_quota_sanity,
    check_region_state,
    check_tier_placement,
    frame_counts_agree,
)

__all__ = [
    "FULL_CHECK_EVERY",
    "SimSanitizer",
    "default_enabled",
    "set_default_enabled",
    "resolve_sanitizer",
]

#: The keyed kernel checkers run on every this-many-th epoch even when
#: their key has not moved: the bound on how long a direct store that
#: keeps every count intact can go unreported.
FULL_CHECK_EVERY = 64

#: Process-wide default for runs that do not pass ``sanitize=`` —
#: flipped only at the CLI/conftest boundary (``--sanitize``,
#: ``DAOS_SANITIZE=1``) and by sweep workers at pool initialisation.
_DEFAULT_ENABLED = False


def default_enabled() -> bool:
    """Whether new runs sanitize by default (see :func:`set_default_enabled`)."""
    return _DEFAULT_ENABLED


def set_default_enabled(value: bool) -> None:
    """Set the process-wide sanitize default.

    Environment reads stay at the CLI boundary (the DT204 rule): the CLI
    and the test conftest translate ``DAOS_SANITIZE`` / ``--sanitize``
    into one call here, and sweep pool workers inherit the parent's
    choice through their initializer.
    """
    global _DEFAULT_ENABLED  # daos-lint: disable=DF320
    _DEFAULT_ENABLED = bool(value)


class SimSanitizer:
    """Runtime invariant harness for one experiment run.

    Parameters
    ----------
    enabled:
        When False every checkpoint returns immediately; the object can
        stay attached (the trace-overhead benchmark measures exactly
        this configuration).

    A checkpoint that finds violations raises :class:`SanitizerError`;
    :meth:`check_all` only records them, so tests drive the checkers
    over deliberately corrupted state through it.
    """

    #: ``(kernel, key)`` of the keyed checkers' last clean pass.  Never
    #: pickled (``rmap_generation`` restarts at 0 in a restored process),
    #: so a restored sanitizer reads ``None`` and opens with a full pass.
    _keyed_clean: Optional[Tuple[Any, Tuple[int, int]]] = None

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        #: Every violation recorded so far, in detection order.
        self.violations: List[Violation] = []
        #: Kernel checkpoints passed (== epochs checked on the run path).
        self.epochs_checked = 0
        #: Monitor checkpoints passed (aggregation ticks).
        self.monitor_checkpoints = 0
        #: Fleet checkpoints passed (fleet scheduler ticks).
        self.fleet_checkpoints = 0
        #: What :meth:`attach` handed over.
        self._monitor: Optional[Any] = None
        self._engine: Optional[Any] = None

    def attach(self, *, monitor: Optional[Any] = None, engine: Optional[Any] = None) -> None:
        """Hand over the run's monitor and schemes engine: the kernel
        checkpoint checks their region state and quotas at every epoch
        boundary, between the monitor's own aggregation checkpoints."""
        self._monitor = monitor
        self._engine = engine

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_keyed_clean", None)
        return state

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint_kernel(self, kernel: Any, now: int) -> None:
        """Run the kernel-layer checks; called from ``end_epoch``."""
        if not self.enabled:
            return
        found: List[Violation] = []
        if self._engine is not None:
            found += check_quota_sanity(self._engine, now)
        if self._monitor is not None:
            found += check_region_state(self._monitor, now)
        key = (kernel.space.generation, kernel.frames.rmap_generation)
        keyed = (
            self._keyed_clean != (kernel, key)
            or self.epochs_checked % FULL_CHECK_EVERY == 0
            or not frame_counts_agree(kernel)
        )
        if keyed:
            found += check_frame_conservation(kernel, now)
        found += check_present_swapped(kernel, now)
        found += check_counter_coherence(kernel, now)
        found += check_huge_residency(kernel, now)
        if keyed:
            found += check_tier_placement(kernel, now)
            self._keyed_clean = None if found else (kernel, key)
        epoch = self.epochs_checked
        self.epochs_checked += 1
        self._report(found, now, epoch=epoch)

    def check_run_end(self, kernel: Any, now: int) -> None:
        """The keyed kernel checks once more, whatever the key says;
        called from ``ExperimentRun.finish``.  Not an epoch boundary, so
        it leaves ``epochs_checked`` alone."""
        if not self.enabled:
            return
        found = check_frame_conservation(kernel, now)
        found += check_tier_placement(kernel, now)
        self._report(found, now)

    def checkpoint_monitor(self, monitor: Any, now: int) -> None:
        """Run the monitor-layer checks; called from ``aggregate_tick``."""
        if not self.enabled:
            return
        found = check_region_state(monitor, now)
        self.monitor_checkpoints += 1
        self._report(found, now)

    def checkpoint_fleet(self, scheduler: Any, now: int) -> None:
        """Run the fleet-layer checks; called once per fleet tick."""
        if not self.enabled:
            return
        found = check_fleet_state(scheduler, now)
        self.fleet_checkpoints += 1
        self._report(found, now)

    def check_all(
        self,
        *,
        kernel: Optional[Any] = None,
        monitor: Optional[Any] = None,
        engine: Optional[Any] = None,
        now: int = 0,
    ) -> List[Violation]:
        """One explicit cross-layer pass (record-only); returns what it
        found.  Tests and post-mortems call this directly."""
        if not self.enabled:
            return []
        found: List[Violation] = []
        if kernel is not None:
            found += check_frame_conservation(kernel, now)
            found += check_present_swapped(kernel, now)
            found += check_counter_coherence(kernel, now)
            found += check_huge_residency(kernel, now)
            found += check_tier_placement(kernel, now)
        if monitor is not None:
            found += check_region_state(monitor, now)
        if engine is not None:
            found += check_quota_sanity(engine, now)
        self.violations.extend(found)
        return found

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, found: List[Violation], now: int, epoch: Optional[int] = None) -> None:
        """Record a checkpoint's findings and raise them."""
        if not found:
            return
        if epoch is not None:
            found = [
                Violation(
                    check=v.check,
                    message=v.message,
                    time_us=v.time_us,
                    digest=v.digest,
                    epoch=epoch,
                )
                for v in found
            ]
        self.violations.extend(found)
        lines = "\n  ".join(str(v) for v in self.violations)
        raise SanitizerError(
            f"sanitizer found {len(self.violations)} invariant violation(s) "
            f"by t={int(now)}us:\n  {lines}",
            violations=self.violations,
        )

    def summary(self) -> str:
        """One-line status for reports and logs."""
        state = "enabled" if self.enabled else "disabled"
        return (
            f"sanitizer {state}: {self.epochs_checked} epoch checkpoint(s), "
            f"{self.monitor_checkpoints} monitor checkpoint(s), "
            f"{len(self.violations)} violation(s)"
        )


def resolve_sanitizer(sanitize: Any) -> Optional[SimSanitizer]:
    """The ``sanitize=`` tri-state of a run or fleet as a sanitizer (or
    ``None`` for off): a ready :class:`SimSanitizer` is used as is,
    ``True``/``False`` switch a fresh one on or off, and ``None`` follows
    :func:`default_enabled`."""
    if isinstance(sanitize, SimSanitizer):
        return sanitize
    enabled = default_enabled() if sanitize is None else bool(sanitize)
    return SimSanitizer(enabled=True) if enabled else None
