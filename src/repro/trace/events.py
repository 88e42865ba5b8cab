"""The typed trace-event vocabulary.

Every observable action in a run — a monitor sampling tick, a scheme
application, a reclaim pass — is one frozen dataclass below, stamped
with the **simulation clock** (``time_us``), never wall time: two runs
of the same seeded configuration must produce byte-identical event
streams, and the DT2xx determinism linter enforces that nothing here
can read ambient state.

Events carry plain scalars only (ints, floats, strs, bools) so that the
canonical JSONL encoding in :mod:`repro.trace.sink` is total and
order-stable.  The registry (:data:`EVENT_TYPES`) maps the wire name
(``kind``) back to the class for decoding and schema validation.

Timestamp semantics: ``time_us`` is the value of the run's virtual
clock at *emission* time, which makes the stream monotone by
construction (the clock never moves backwards).  Where a layer accounts
work at a different instant — the epoch loop charges an epoch's costs
at its end while emitting mid-dispatch — the domain time travels as a
payload field (:attr:`EpochEnd.epoch_end_us`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Type

__all__ = [
    "TraceEvent",
    "AccessSampled",
    "RegionsAggregated",
    "SchemeApplied",
    "QuotaCharged",
    "WatermarkTransition",
    "ReclaimPass",
    "TierMigration",
    "ThpPromotion",
    "PageoutBatch",
    "TuneStep",
    "EpochEnd",
    "FaultInjected",
    "RetryAttempted",
    "DegradedModeEntered",
    "DegradedModeExited",
    "CheckpointWritten",
    "RunResumed",
    "WorkerReaped",
    "EVENT_TYPES",
    "event_payload",
]

#: Wire name → event class, populated by :func:`_register`.
EVENT_TYPES: Dict[str, Type["TraceEvent"]] = {}


def _register(layer: str):
    """Class decorator adding the event type to :data:`EVENT_TYPES`,
    declaring its :attr:`~TraceEvent.layer` on the way."""

    def register(cls: Type["TraceEvent"]) -> Type["TraceEvent"]:
        cls.kind = cls.__name__
        cls.layer = layer
        EVENT_TYPES[cls.kind] = cls
        return cls

    return register


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base of every trace event: one instant on the simulation clock."""

    #: Wire name of the concrete event type (class attribute).
    kind: ClassVar[str] = "TraceEvent"
    #: The layer that emits the event.  Registration requires one, so a
    #: profile never files an event under a catch-all.
    layer: ClassVar[str] = ""

    #: Simulation time of emission, in microseconds.  Never wall time.
    time_us: int


def event_payload(event: TraceEvent) -> Dict[str, Any]:
    """The event's fields (including ``time_us``) as a plain dict."""
    return {f.name: getattr(event, f.name) for f in fields(event)}


# ----------------------------------------------------------------------
# Monitor events
# ----------------------------------------------------------------------
@_register("monitor")
@dataclass(frozen=True, slots=True)
class AccessSampled(TraceEvent):
    """One monitor sampling tick: the pending sample pages were checked.

    Emitted once per tick with aggregate counts (not per region) to keep
    event volume proportional to ticks, not monitored memory.
    """

    #: Regions in the monitor at check time.
    nr_regions: int
    #: Accessed-bit checks performed this tick (0 on a prepare-only tick).
    checked: int
    #: Checks that found the accessed bit set.
    hits: int
    #: Checks that found the dirty bit set (0 unless tracking writes).
    write_hits: int = 0


@_register("monitor")
@dataclass(frozen=True, slots=True)
class RegionsAggregated(TraceEvent):
    """One aggregation interval closed: counters published, regions
    merged and aged.  Emitted before callbacks and scheme application,
    so subscribers observe the same region state callbacks do.
    """

    #: Region count after merging.
    nr_regions: int
    #: Bytes covered by all regions.
    total_bytes: int
    #: Ceiling for per-region access counts this interval.
    max_nr_accesses: int
    #: Merge operations performed in this aggregation pass.
    nr_merges: int


# ----------------------------------------------------------------------
# Schemes-engine events
# ----------------------------------------------------------------------
@_register("schemes")
@dataclass(frozen=True, slots=True)
class SchemeApplied(TraceEvent):
    """One scheme finished an engine pass with at least one matching
    region (whether or not its action ultimately operated on pages)."""

    #: Position of the scheme in the engine's installation order.
    scheme_index: int
    #: Action name (``pageout``, ``hugepage``, ...).
    action: str
    #: Regions that matched the scheme's pattern this pass.
    nr_regions: int
    #: Bytes in matching regions (the *tried* total of this pass).
    bytes_tried: int
    #: Pages/bytes the action reported operating on this pass.
    bytes_applied: int


@_register("schemes")
@dataclass(frozen=True, slots=True)
class QuotaCharged(TraceEvent):
    """A scheme's charge quota absorbed one application's cost."""

    scheme_index: int
    #: Bytes charged against the current window.
    charged_bytes: int
    #: Budget left in the window after the charge.
    remaining_bytes: int


@_register("schemes")
@dataclass(frozen=True, slots=True)
class WatermarkTransition(TraceEvent):
    """A scheme's watermarks flipped between active and inactive."""

    scheme_index: int
    #: New activation state.
    active: bool
    #: Free-memory ratio that triggered the transition.
    free_ratio: float


# ----------------------------------------------------------------------
# Kernel events
# ----------------------------------------------------------------------
@_register("kernel")
@dataclass(frozen=True, slots=True)
class ReclaimPass(TraceEvent):
    """One LRU reclaim pass (pressure- or allocation-triggered)."""

    #: Pages the pass set out to free.
    requested_pages: int
    #: Pages actually evicted to swap.
    evicted_pages: int
    #: Dirty pages that needed writeback on the way out.
    written_back_pages: int
    #: What triggered the pass: ``"pressure"`` (high watermark crossed at
    #: epoch end) or ``"alloc"`` (a fault needed frames immediately).
    trigger: str


@_register("kernel")
@dataclass(frozen=True, slots=True)
class TierMigration(TraceEvent):
    """Pages crossed the DRAM / slow-tier boundary in one batch."""

    #: ``"demote"`` (DRAM → slow) or ``"promote"`` (slow → DRAM).
    direction: str
    #: Pages migrated in the batch.
    pages: int
    #: What drove it: a reclaim pass's trigger (``"pressure"`` /
    #: ``"alloc"`` — demotion-before-swap) or ``"scheme"``
    #: (MIGRATE_HOT / MIGRATE_COLD).
    trigger: str


@_register("kernel")
@dataclass(frozen=True, slots=True)
class ThpPromotion(TraceEvent):
    """Huge-page promotions performed (madvise or khugepaged path)."""

    #: 2 MiB chunks promoted.
    promoted_chunks: int
    #: Never-touched subpages materialised by the promotions (THP bloat).
    bloat_pages: int
    #: Swapped-out subpages pulled back in to complete the chunks.
    swapped_in_pages: int


@_register("kernel")
@dataclass(frozen=True, slots=True)
class PageoutBatch(TraceEvent):
    """An explicit PAGEOUT (scheme action / madvise) reclaimed a range."""

    #: Pages paged out by the batch.
    paged_out_pages: int
    #: Dirty pages that needed writeback.
    written_back_pages: int
    #: True when the range was physical (rmap-resolved) addresses.
    phys: bool


@_register("kernel")
@dataclass(frozen=True, slots=True)
class EpochEnd(TraceEvent):
    """One workload epoch closed and its costs were charged.

    The epoch's costs are charged at its *end* while the event is
    emitted at dispatch time (the epoch's start on the virtual clock),
    so the accounted instant rides along as :attr:`epoch_end_us`.
    """

    #: Virtual time the epoch's accounting refers to (its end).
    epoch_end_us: int
    #: Nominal compute charged for the epoch, in microseconds.
    compute_us: float
    #: Resident set size after the epoch's reclaim pass, in bytes.
    rss_bytes: int
    #: Free physical frames after the epoch.
    free_frames: int
    #: Lifetime major/minor fault counters at epoch end.
    major_faults: int = 0
    minor_faults: int = 0


# ----------------------------------------------------------------------
# Fault-injection and degraded-mode events
# ----------------------------------------------------------------------
@_register("faults")
@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """A fault spec fired at a hook point.

    Window-scoped faults (``swap_full``, ``pressure_spike``,
    ``flaky_bits``, ``drop_sample``) emit once per window *activation*;
    per-opportunity faults (``late_epoch``, ``engine_stall``,
    ``probe_failure``) emit once per firing.
    """

    #: Hook point the fault fired at (``kernel.reclaim``,
    #: ``monitor.sample``, ``tuner.probe``, ...).
    hook: str
    #: Fault kind (see :mod:`repro.faults.spec`); named ``fault`` because
    #: ``kind`` is the event type's own wire name.
    fault: str
    #: Index of the firing spec within its plan.
    spec_index: int
    #: Kind-specific scalar (delay in usec, spike frames, drop
    #: probability, ...); 0.0 when the kind has none.
    magnitude: float = 0.0


@_register("faults")
@dataclass(frozen=True, slots=True)
class RetryAttempted(TraceEvent):
    """A recovery path retried a failed operation after backing off.

    ``backoff_us`` is *simulated* time: the retrying layer advanced its
    virtual clock by the backoff, so the schedule is deterministic and
    replayable."""

    #: The retrying subsystem (``"tuner"``, ``"sweep"``).
    subsystem: str
    #: 1-based retry attempt number (1 = first retry).
    attempt: int
    #: Backoff charged before this retry, in virtual microseconds.
    backoff_us: int
    #: One-line description of the failure being retried.
    reason: str = ""


@_register("faults")
@dataclass(frozen=True, slots=True)
class DegradedModeEntered(TraceEvent):
    """A layer stopped raising and started shedding load instead.

    The kernel enters degraded mode when reclaim cannot make progress
    (swap full) or an allocation could not be fully backed under the
    ``shed`` OOM policy; it keeps running with partial batches until
    the pressure clears."""

    #: The degrading subsystem (``"kernel"``).
    subsystem: str
    #: Why: ``"swap-full"`` or ``"oom"``.
    reason: str


@_register("faults")
@dataclass(frozen=True, slots=True)
class DegradedModeExited(TraceEvent):
    """A degraded layer recovered and resumed normal service."""

    subsystem: str
    #: The reason degraded mode had been entered with.
    reason: str
    #: Virtual time spent degraded, in microseconds.
    degraded_us: int = 0


# ----------------------------------------------------------------------
# Recovery events
# ----------------------------------------------------------------------
@_register("recovery")
@dataclass(frozen=True, slots=True)
class CheckpointWritten(TraceEvent):
    """A crash-consistent checkpoint of the full simulation state was
    committed to disk (atomic rename; the digest covers every byte of
    the pickled payload)."""

    #: Checkpoint kind: ``"run"`` or ``"fleet"``.
    target: str
    #: First 16 hex chars of the payload SHA-256 (the restore identity).
    digest: str
    #: Size of the serialized payload, in bytes.
    payload_bytes: int
    #: Ordinal of this checkpoint within the run (1-based).
    sequence: int = 1


@_register("recovery")
@dataclass(frozen=True, slots=True)
class RunResumed(TraceEvent):
    """A run was reconstructed from a checkpoint and is continuing.

    Emitted at the restored virtual time, before any restored periodic
    fires, so a resumed trace tail starts with provenance."""

    #: Checkpoint kind restored: ``"run"`` or ``"fleet"``.
    target: str
    #: Digest of the checkpoint the run resumed from.
    digest: str
    #: Virtual time the checkpoint was taken at.
    checkpoint_time_us: int


@_register("sweep")
@dataclass(frozen=True, slots=True)
class WorkerReaped(TraceEvent):
    """The sweep supervisor killed or collected a failed worker.

    The supervisor runs on the host, outside any virtual clock, so
    ``time_us`` carries the supervisor's own monotone event ordinal —
    never wall time — keeping supervised traces byte-identical."""

    #: Index of the sweep point the worker was executing.
    point_index: int
    #: Why the worker was reaped: ``"timeout"``, ``"crashed"``.
    reason: str
    #: 0-based attempt number that was reaped.
    attempt: int
    #: Whether the point will be reassigned to a fresh worker.
    will_retry: bool


# ----------------------------------------------------------------------
# Tuner events
# ----------------------------------------------------------------------
@_register("tuner")
@dataclass(frozen=True, slots=True)
class TuneStep(TraceEvent):
    """One auto-tuner sample: a parameter evaluated to a score.

    The tuner has no event queue of its own, so its bus clock advances
    by each sample's measured virtual runtime — timestamps are the
    cumulative simulated time spent tuning, monotone by construction.
    """

    #: Tuning phase: ``"global"``, ``"local"``, or ``"validate"``.
    phase: str
    #: Parameter value evaluated (e.g. ``min_age`` in seconds).
    param: float
    #: Score the sample produced.
    score: float
    #: Virtual runtime of the sample's run, in microseconds.
    runtime_us: float
    #: Average RSS of the sample's run, in bytes.
    rss_bytes: float
