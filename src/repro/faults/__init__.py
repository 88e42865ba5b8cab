"""Deterministic fault injection.

A :class:`FaultPlan` (loaded from TOML/JSON or built programmatically)
schedules seeded faults — swap exhaustion, flaky PTE bits, stuck
epochs, pressure spikes, tuner probe failures, sweep worker crashes —
against a run's virtual clock, and a :class:`FaultInjector` evaluates
them at named hook points threaded through the kernel, monitor,
schemes engine, tuner and sweep runner.

Injection is paired with recovery: the kernel sheds load instead of
raising when swap fills, the tuner retries probes with exponential
backoff in simulated time, and the sweep pool retries crashed points —
all of it visible as typed trace events, so a seeded fault run replays
byte-identically.
"""

from .injector import FaultInjector, worker_crash_decision
from .plan import FaultPlan, load_fault_plan
from .spec import FAULT_KINDS, HOOK_POINTS, FaultSpec

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FAULT_KINDS",
    "HOOK_POINTS",
    "load_fault_plan",
    "worker_crash_decision",
]
