"""Unified deterministic trace bus.

One typed event/telemetry subsystem replacing per-layer ad-hoc
accounting: the simulated kernel, the access monitor, the schemes
engine, the auto-tuner and the experiment driver all emit frozen
dataclass events (:mod:`repro.trace.events`) onto one
:class:`~repro.trace.bus.TraceBus` per run.  Subscribers — counters,
histograms, the canonical JSONL sink — observe exactly the event types
they ask for.

Everything is stamped from the run's virtual clock, never wall time, so
a seeded run's trace is byte-identical across invocations and the
stream is monotone in simulation time by construction.
"""

from .aggregate import FieldHistogram, TraceSummary
from .bus import Subscriber, TraceBus
from .events import (
    EVENT_TYPES,
    AccessSampled,
    DegradedModeEntered,
    DegradedModeExited,
    EpochEnd,
    FaultInjected,
    PageoutBatch,
    QuotaCharged,
    ReclaimPass,
    RegionsAggregated,
    RetryAttempted,
    SchemeApplied,
    ThpPromotion,
    TraceEvent,
    TuneStep,
    WatermarkTransition,
    event_payload,
)
from .sink import (
    JsonlTraceSink,
    decode_event,
    encode_event,
    read_trace,
    validate_trace_file,
)

__all__ = [
    "TraceBus",
    "Subscriber",
    "TraceEvent",
    "AccessSampled",
    "RegionsAggregated",
    "SchemeApplied",
    "QuotaCharged",
    "WatermarkTransition",
    "ReclaimPass",
    "ThpPromotion",
    "PageoutBatch",
    "EpochEnd",
    "TuneStep",
    "FaultInjected",
    "RetryAttempted",
    "DegradedModeEntered",
    "DegradedModeExited",
    "EVENT_TYPES",
    "event_payload",
    "TraceSummary",
    "FieldHistogram",
    "JsonlTraceSink",
    "encode_event",
    "decode_event",
    "read_trace",
    "validate_trace_file",
]
