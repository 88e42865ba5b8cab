"""The fault injector: seeded, replayable injection decisions.

One :class:`FaultInjector` is shared by every layer of a run.  Each
spec in the plan owns an independent RNG substream seeded from
``(plan.seed, spec_index)``, so adding or removing one spec never
shifts another spec's decision sequence, and the same plan replays the
same firings against the same run.

Two decision disciplines, chosen per kind:

* **Window kinds** (``swap_full``, ``pressure_spike``, ``flaky_bits``,
  ``drop_sample``): the spec draws its activation *once* when the
  virtual clock first enters its window and stays latched for the whole
  window.  A :class:`~repro.trace.events.FaultInjected` event is
  emitted once per activation.  Inside an active ``flaky_bits`` /
  ``drop_sample`` window the per-opportunity draws use the spec's
  ``probability`` too — the shared draw makes a plan's headline
  probability control both "does this chaos happen at all" and "how
  hard", which keeps smoke plans one-knob.
* **Per-opportunity kinds** (``late_epoch``, ``engine_stall``,
  ``probe_failure``): every opportunity draws independently and emits
  one event per firing, bounded by ``max_fires``.

``worker_crash`` and ``worker_hang`` are special: sweep workers are
separate processes with no shared RNG, so the decision is a
**stateless** hash of ``(plan.seed, point_index)``,
:func:`worker_crash_decision`.  The sweep runner asks it in the parent
before it dispatches a point, so the serial and pool execution paths
agree by construction; the injector has no sweep hook.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..trace.bus import TraceBus
from ..trace.events import FaultInjected
from .plan import FaultPlan
from .spec import FaultSpec

__all__ = ["FaultInjector", "worker_crash_decision"]


def worker_crash_decision(
    plan_seed: int,
    probability: float,
    point_index: int,
    attempt: int,
    *,
    stream: str = "crash",
) -> bool:
    """Stateless crash decision for one sweep point attempt.

    Only the first attempt (``attempt == 0``) can crash, so one bounded
    retry always recovers an injected crash; the hash keeps the
    decision identical across the serial and spawn-pool paths.
    ``stream`` decorrelates kinds sharing the hook (crash vs. hang).
    """
    if attempt > 0:
        return False
    prefix = "daos-worker-crash" if stream == "crash" else f"daos-worker-{stream}"
    digest = hashlib.sha256(
        f"{prefix}:{plan_seed}:{point_index}".encode("ascii")
    ).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < probability


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named hook points.

    The injector is clock-agnostic: every hook takes ``now`` (virtual
    microseconds) from its caller, so the kernel, monitor and engine
    share the run clock while the tuner keys ``probe_failure`` windows
    off its own cumulative virtual time.
    """

    def __init__(self, plan: FaultPlan, trace: Optional[TraceBus] = None):
        self.plan = plan
        self._trace = trace
        # One decorrelated substream per spec, keyed by plan position.
        self._rngs: List[np.random.Generator] = [
            np.random.default_rng([plan.seed, i]) for i in range(len(plan.specs))
        ]
        # Window kinds: spec index -> (window_entered, activated) latch.
        self._window_state: Dict[int, Tuple[bool, bool]] = {}
        # Firings per spec (events emitted / opportunities taken).
        self.fire_counts: List[int] = [0] * len(plan.specs)

    # ------------------------------------------------------------------
    # decision engines
    # ------------------------------------------------------------------
    def _emit(self, index: int, spec: FaultSpec, now: int) -> None:
        self.fire_counts[index] += 1
        if self._trace is not None:
            # Stamp from the bus clock, not the decision time: hooks may
            # evaluate a *future* domain instant (an epoch's end) while
            # the stream must stay monotone in emission time.
            self._trace.emit(
                FaultInjected(
                    time_us=self._trace.now,
                    hook=spec.hook,
                    fault=spec.kind,
                    spec_index=index,
                    magnitude=float(spec.magnitude),
                )
            )

    def _window_active(self, index: int, spec: FaultSpec, now: int) -> bool:
        """Latched once-per-window activation draw, with the event."""
        inside = spec.in_window(now)
        entered, activated = self._window_state.get(index, (False, False))
        if not inside:
            if entered:
                # Window left: reset so a later re-entry (tuner clocks
                # can revisit a window's range only monotonically, but
                # plans may list disjoint windows of the same kind as
                # separate specs) re-draws.
                self._window_state[index] = (False, False)
            return False
        if not entered:
            activated = bool(self._rngs[index].random() < spec.probability)
            self._window_state[index] = (True, activated)
            if activated:
                self._emit(index, spec, now)
        return self._window_state[index][1]

    def _fires(self, index: int, spec: FaultSpec, now: int) -> bool:
        """Independent per-opportunity draw, bounded by ``max_fires``."""
        if not spec.in_window(now):
            return False
        if 0 <= spec.max_fires <= self.fire_counts[index]:
            return False
        if self._rngs[index].random() >= spec.probability:
            return False
        self._emit(index, spec, now)
        return True

    def _specs(self, kind: str):
        for index, spec in enumerate(self.plan.specs):
            if spec.kind == kind:
                yield index, spec

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------
    def swap_is_full(self, now: int) -> bool:
        """kernel.reclaim: does the swap device report zero free slots?"""
        hit = False
        for index, spec in self._specs("swap_full"):
            if self._window_active(index, spec, now):
                hit = True
        return hit

    def pressure_spike_frames(self, now: int) -> int:
        """kernel.pressure: phantom allocated frames at the watermark
        check (sum over active spike windows)."""
        extra = 0
        for index, spec in self._specs("pressure_spike"):
            if self._window_active(index, spec, now):
                extra += int(spec.magnitude)
        return extra

    def epoch_delay_us(self, now: int) -> int:
        """kernel.epoch: extra stall microseconds charged to this epoch
        (a stuck or late epoch); 0 when no spec fires."""
        delay = 0
        for index, spec in self._specs("late_epoch"):
            if self._fires(index, spec, now):
                delay += int(spec.magnitude)
        return delay

    # ------------------------------------------------------------------
    # monitor hooks
    # ------------------------------------------------------------------
    def drop_sample_tick(self, now: int) -> bool:
        """monitor.sample: drop this whole sampling tick's checks?"""
        dropped = False
        for index, spec in self._specs("drop_sample"):
            if self._window_active(index, spec, now) and (
                self._rngs[index].random() < spec.probability
            ):
                dropped = True
        return dropped

    def flaky_bit_mask(self, now: int, n: int) -> Optional[np.ndarray]:
        """monitor.sample: boolean mask of length ``n`` — True where an
        accessed/dirty-bit read is lost (reads as clear).  None when no
        flaky-bits window is active (the common fast path)."""
        mask: Optional[np.ndarray] = None
        for index, spec in self._specs("flaky_bits"):
            if not self._window_active(index, spec, now):
                continue
            drop = self._rngs[index].random(n) < spec.probability
            mask = drop if mask is None else (mask | drop)
        return mask

    # ------------------------------------------------------------------
    # engine / tuner hooks
    # ------------------------------------------------------------------
    def engine_stalled(self, now: int) -> bool:
        """engine.apply: skip this scheme-application pass entirely?"""
        stalled = False
        for index, spec in self._specs("engine_stall"):
            if self._fires(index, spec, now):
                stalled = True
        return stalled

    def probe_fails(self, now: int) -> bool:
        """tuner.probe: does this probe fail?  ``now`` is the tuner's
        cumulative virtual time, not the run clock."""
        failed = False
        for index, spec in self._specs("probe_failure"):
            if self._fires(index, spec, now):
                failed = True
        return failed

    # ------------------------------------------------------------------
    # fleet hooks
    # ------------------------------------------------------------------
    def fleet_storm_active(self, now: int) -> bool:
        """fleet.demand: is a tenant-storm window active?  While it is,
        every warm region demands its full working set at once."""
        active = False
        for index, spec in self._specs("tenant_storm"):
            if self._window_active(index, spec, now):
                active = True
        return active

    def fleet_pressure_frames(self, now: int) -> int:
        """fleet.pressure: phantom allocated frames at the fleet's
        shared watermark check (sum over active spike windows)."""
        extra = 0
        for index, spec in self._specs("pool_pressure_spike"):
            if self._window_active(index, spec, now):
                extra += int(spec.magnitude)
        return extra
