"""The sweep's worker pool: per-worker processes, heartbeats, a watchdog.

This module is the whole worker protocol: :func:`execute_payload` runs
one point and reports a :data:`RawResult`, in a spawn worker (whose
entry point, :func:`_supervised_worker`, lives here too) or in process
for the serial path, so the two paths cannot drift apart.

:class:`PointSupervisor` replaces the anonymous ``multiprocessing.Pool``
fan-out with one supervised process per in-flight point:

* **heartbeats** — every worker reports liveness over its pipe the
  moment it starts; the parent additionally treats process exit without
  a result (a ``SIGKILL``, an OOM kill, a hard crash) as a failed
  heartbeat and reaps the slot instead of waiting forever;
* **watchdog** — each attempt gets a wall-clock deadline; a past-due
  worker is terminated, killed if termination is ignored, and its point
  synthesized as a ``WatchdogTimeout`` failure (CLI exit code 3);
* **reassignment** — a reaped point is resubmitted to a fresh worker
  after a *seeded* exponential backoff
  (``default_rng([seed, point, attempt])``), so chaos runs replay the
  same retry schedule; in-band failures (the point's own exception)
  retry immediately, exactly like the serial path.

Every reap emits a :class:`~repro.trace.events.WorkerReaped` event on
the optional supervisor bus.  The supervisor runs outside any virtual
clock, so it stamps events with its own monotone ordinal — supervised
sweep results stay byte-identical to serial ones by construction
(the supervisor never touches point *values*, only scheduling).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, FaultError
from ..sanitize import set_default_enabled
from ..trace.bus import TraceBus
from ..trace.events import WorkerReaped
from .points import get_point_function
from .serialize import canonical_json, encode_value

__all__ = ["PointSupervisor", "RawResult", "execute_payload"]

#: Workers import a clean interpreter, so a point's value cannot depend
#: on parent-process state.
_START_METHOD = "spawn"
#: Reassignment backoff: ``base * 2**attempt * jitter``, capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0
#: How long terminate() gets before the supervisor escalates to kill().
_TERMINATE_GRACE_S = 2.0
#: Idle poll interval while every in-flight worker is healthy.
_POLL_S = 0.02


#: ``(index, encoded_json, error, error_type, traceback, wall_s)`` —
#: what one execution attempt reports back to the parent.
RawResult = Tuple[int, Optional[str], Optional[str], Optional[str], Optional[str], float]


def execute_payload(payload: Tuple[int, str, tuple, bool]) -> RawResult:
    """Run one point; returns a :data:`RawResult`.

    Encoding happens *inside* the executing process: the parent only
    ever sees the canonical form, keeping pool and serial paths exactly
    equivalent.  ``crash`` is the parent's pre-computed ``worker_crash``
    fault decision — shipped in the payload so the serial and pool
    paths agree without sharing RNG state across processes.
    """
    index, fn_name, items, crash = payload
    start = time.perf_counter()
    try:
        if crash:
            raise FaultError("injected sweep worker crash")
        fn = get_point_function(fn_name)
        value = fn(dict(items))
        encoded = canonical_json(encode_value(value))
        return index, encoded, None, None, None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 — one bad point must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
        tb = traceback_module.format_exc()
        return index, None, error, type(exc).__name__, tb, time.perf_counter() - start


def _supervised_worker(conn, payload, sanitize: bool, hang: bool) -> None:
    """One worker process: init, heartbeat, execute, report, exit.

    Module-level so ``spawn`` can import it.  A spawn worker imports a
    clean interpreter, so the parent's sanitize default is re-established
    here (checks are read-only and RNG-free: point values, and so cache
    keys, are identical either way).  ``hang`` is the parent's
    pre-computed ``worker_hang`` fault decision: the worker stalls
    silently (after its initial heartbeat) until the watchdog reaps it —
    modelling a wedged, not crashed, worker.
    """
    set_default_enabled(sanitize)
    try:
        conn.send(("hb", payload[0]))
        if hang:
            while True:  # reaped by the parent's watchdog
                time.sleep(0.1)
        conn.send(("done", execute_payload(payload)))
    except (BrokenPipeError, EOFError):  # parent reaped us mid-send
        pass
    finally:
        conn.close()


@dataclass
class _Slot:
    """One supervised in-flight attempt."""

    process: Any
    conn: Any
    index: int
    attempt: int
    started_at: float
    deadline: Optional[float]
    heartbeat_at: Optional[float] = None


class PointSupervisor:
    """Supervised fan-out of sweep points over spawn workers."""

    def __init__(
        self,
        *,
        jobs: int,
        sanitize: bool = False,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_seed: int = 0,
        hang_decision: Optional[Callable[[int, int], bool]] = None,
        trace: Optional[TraceBus] = None,
    ):
        if jobs < 1:
            raise ConfigError(f"supervisor needs at least one worker: {jobs}")
        self.jobs = jobs
        self.context = multiprocessing.get_context(_START_METHOD)
        self.sanitize = bool(sanitize)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_seed = int(backoff_seed)
        self.hang_decision = hang_decision
        self.trace = trace
        #: Monotone ordinal stamped onto WorkerReaped events.
        self._ordinal = 0
        #: ``(point_index, reason, attempt, will_retry)`` log of every
        #: reap, in order — the introspection handle tests read.
        self.reaped: List[Tuple[int, str, int, bool]] = []

    # ------------------------------------------------------------------
    def _backoff_s(self, index: int, attempt: int) -> float:
        """Seeded exponential backoff before reassigning a reaped point."""
        rng = np.random.default_rng([self.backoff_seed, index, attempt])
        jitter = 0.5 + rng.random()  # [0.5, 1.5)
        return min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2**attempt) * jitter)

    def _note_reaped(
        self, index: int, reason: str, attempt: int, will_retry: bool
    ) -> None:
        self.reaped.append((index, reason, attempt, will_retry))
        if self.trace is not None:
            self._ordinal += 1
            if self.trace.owns_clock:
                self.trace.advance_to(self._ordinal)
            self.trace.emit(
                WorkerReaped(
                    time_us=self._ordinal,
                    point_index=index,
                    reason=reason,
                    attempt=attempt,
                    will_retry=will_retry,
                )
            )

    def _reap(self, slot: _Slot) -> None:
        """Terminate (then kill) a stuck worker and release its slot."""
        process = slot.process
        if process.is_alive():
            process.terminate()
            process.join(_TERMINATE_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        else:
            process.join()
        slot.conn.close()

    # ------------------------------------------------------------------
    def execute(
        self,
        pending: List[int],
        make_payload: Callable[[int, int], tuple],
        handle: Callable[[tuple, int], None],
    ) -> None:
        """Run every pending point to a final outcome.

        ``make_payload`` and ``handle`` have the same signatures the
        sweep runner's serial path uses, so the two paths produce
        identical :data:`RawResult` streams.
        """
        backlog: List[Tuple[int, int]] = [(index, 0) for index in pending]
        waiting: List[Tuple[float, int, int]] = []  # (ripe_at, index, attempt)
        inflight: Dict[int, _Slot] = {}

        def submit(index: int, attempt: int) -> None:
            hang = (
                self.hang_decision(index, attempt)
                if self.hang_decision is not None
                else False
            )
            parent_conn, child_conn = self.context.Pipe(duplex=False)
            process = self.context.Process(
                target=_supervised_worker,
                args=(child_conn, make_payload(index, attempt), self.sanitize, hang),
                daemon=True,
            )
            process.start()
            child_conn.close()
            now = time.monotonic()
            inflight[index] = _Slot(
                process=process,
                conn=parent_conn,
                index=index,
                attempt=attempt,
                started_at=now,
                deadline=(now + self.timeout_s) if self.timeout_s is not None else None,
            )

        def conclude(slot: _Slot, raw: tuple) -> None:
            """Final-or-retry for an in-band result, mirroring the pool."""
            if raw[2] is not None and slot.attempt < self.retries:
                backlog.append((slot.index, slot.attempt + 1))
            else:
                handle(raw, slot.attempt + 1)

        def reap(slot: _Slot, reason: str, raw: tuple) -> None:
            del inflight[slot.index]
            will_retry = slot.attempt < self.retries
            self._note_reaped(slot.index, reason, slot.attempt, will_retry)
            self._reap(slot)
            if will_retry:
                ripe = time.monotonic() + self._backoff_s(slot.index, slot.attempt)
                waiting.append((ripe, slot.index, slot.attempt + 1))
                waiting.sort()
            else:
                handle(raw, slot.attempt + 1)

        try:
            while backlog or waiting or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, index, attempt = waiting.pop(0)
                    backlog.append((index, attempt))
                while backlog and len(inflight) < self.jobs:
                    index, attempt = backlog.pop(0)
                    submit(index, attempt)

                acted = False
                for index in list(inflight):
                    slot = inflight[index]
                    message = None
                    while slot.conn.poll(0):
                        try:
                            message = slot.conn.recv()
                        except (EOFError, OSError):
                            message = None
                            break
                        if message[0] == "hb":
                            slot.heartbeat_at = time.monotonic()
                            message = None
                            continue
                        break
                    if message is not None and message[0] == "done":
                        acted = True
                        del inflight[index]
                        slot.process.join()
                        slot.conn.close()
                        conclude(slot, message[1])
                        continue
                    now = time.monotonic()
                    if slot.deadline is not None and now > slot.deadline:
                        acted = True
                        reap(
                            slot,
                            "timeout",
                            (
                                index,
                                None,
                                f"point exceeded the {self.timeout_s:g}s "
                                f"watchdog deadline",
                                "WatchdogTimeout",
                                None,
                                float(self.timeout_s),
                            ),
                        )
                        continue
                    if not slot.process.is_alive():
                        # Dead without a result: SIGKILL, OOM kill or a
                        # crash too hard to report — a failed heartbeat.
                        acted = True
                        reap(
                            slot,
                            "crashed",
                            (
                                index,
                                None,
                                "worker process died before reporting a result",
                                "WorkerDied",
                                None,
                                now - slot.started_at,
                            ),
                        )
                        continue
                if not acted and inflight:
                    time.sleep(_POLL_S)
                elif not inflight and waiting:
                    # Everything alive is backing off; sleep to ripeness.
                    time.sleep(max(0.0, min(waiting[0][0] - time.monotonic(), _POLL_S)))
        finally:
            for slot in list(inflight.values()):
                self._reap(slot)
