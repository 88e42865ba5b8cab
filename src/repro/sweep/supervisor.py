"""The sweep's worker pool: persistent workers, heartbeats, a watchdog.

This module is the whole worker protocol: :func:`execute_payload` runs
one point and reports a :data:`RawResult`, in a spawn worker (whose
loop, :func:`_worker_loop`, lives here too) or in process for the
serial path, so the two paths cannot drift apart.

:class:`PointSupervisor` runs at most ``jobs`` persistent ``spawn``
workers.  Each imports the package once, then loops: receive a point
over its duplex pipe, acknowledge it, run it, send the result back; a
``None`` sentinel ends the loop.  Unlike ``multiprocessing.Pool``, the
supervisor watches every worker on its own:

* **heartbeats** — a worker acknowledges each point over its pipe the
  moment it receives it; the parent treats process exit without a
  result (a ``SIGKILL``, an OOM kill, a hard crash) as a failed
  heartbeat and reaps the worker instead of waiting forever;
* **watchdog** — each attempt gets a wall-clock deadline, starting
  when the point is sent (a fresh worker is sent its first point at
  spawn, so its import time counts against that first deadline); a
  past-due worker is terminated, killed if termination is ignored, and
  its point synthesized as a ``WatchdogTimeout`` failure (CLI exit
  code 3);
* **reassignment** — a reaped worker is never reused; its point goes
  to another worker after a *seeded* exponential backoff
  (``default_rng([seed, point, attempt])``), so chaos runs replay the
  same retry schedule, and a fresh worker is spawned only while work
  is left.  In-band failures (the point's own exception) leave the
  worker alive and retry immediately, exactly like the serial path.

Every reap emits a :class:`~repro.trace.events.WorkerReaped` event on
the optional supervisor bus.  The supervisor runs outside any virtual
clock, so it stamps events with its own monotone ordinal — supervised
sweep results stay byte-identical to serial ones by construction
(the supervisor never touches point *values*, only scheduling).
:meth:`PointSupervisor.execute` joins every worker before it returns
or raises, so ``RUSAGE_CHILDREN`` counts them all and none is left a
zombie.
"""

from __future__ import annotations

import functools
import gc
import heapq
import multiprocessing
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, FaultError
from ..sanitize import set_default_enabled
from ..trace.bus import TraceBus
from ..trace.events import WorkerReaped
from .points import get_point_function
from .serialize import canonical_json, encode_value

__all__ = ["PointSupervisor", "RawResult", "execute_payload", "release_point_memory"]

#: Workers import a clean interpreter, so a point's value cannot depend
#: on parent-process state.
_START_METHOD = "spawn"
#: Reassignment backoff: ``base * 2**attempt * jitter``, capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0
#: How long a worker gets to exit on its own, and then after
#: terminate(), before the supervisor escalates.
_TERMINATE_GRACE_S = 2.0


#: ``(index, encoded_json, error, error_type, traceback, wall_s)`` —
#: what one execution attempt reports back to the parent.
RawResult = Tuple[int, Optional[str], Optional[str], Optional[str], Optional[str], float]


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or None where libc does not provide it."""
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_point_memory() -> None:
    """Free what a finished point left behind before the next one runs.

    A finished experiment is cyclic garbage (the run and its periodic
    events' bound methods hold each other, and with them the frame
    table), alive until a full collection; ``malloc_trim(0)`` then
    hands the freed heap back to the OS, so a worker's RSS after a
    point is close to a fresh process's.
    """
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def execute_payload(payload: Tuple[int, str, tuple, bool]) -> RawResult:
    """Run one point; returns a :data:`RawResult`.

    Encoding happens *inside* the executing process: the parent only
    ever sees the canonical form, keeping pool and serial paths exactly
    equivalent.  ``crash`` is the parent's pre-computed ``worker_crash``
    fault decision — shipped in the payload so the serial and pool
    paths agree without sharing RNG state across processes.  The
    point's memory is released (:func:`release_point_memory`) before
    the result is returned.
    """
    index, fn_name, items, crash = payload
    start = time.perf_counter()
    raw: RawResult
    try:
        if crash:
            raise FaultError("injected sweep worker crash")
        fn = get_point_function(fn_name)
        encoded = canonical_json(encode_value(fn(dict(items))))
        raw = index, encoded, None, None, None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 — one bad point must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
        tb = traceback_module.format_exc()
        raw = index, None, error, type(exc).__name__, tb, time.perf_counter() - start
    release_point_memory()
    return raw


def _worker_loop(conn, sanitize: bool) -> None:
    """One pool worker: import once, then run points until the sentinel.

    Module-level so ``spawn`` can import it.  A spawn worker imports a
    clean interpreter, so the parent's sanitize default is re-established
    here (checks are read-only and RNG-free: point values, and so cache
    keys, are identical either way).  Each message is ``(payload,
    hang)``: ``hang`` is the parent's pre-computed ``worker_hang`` fault
    decision for this attempt — the worker stalls silently (after its
    heartbeat) until the watchdog reaps it, modelling a wedged, not
    crashed, worker.
    """
    set_default_enabled(sanitize)
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            payload, hang = message
            conn.send(("hb", payload[0]))
            if hang:
                # Wedged until the watchdog reaps us; the parent sends
                # nothing to a busy worker, so the pipe only turns
                # readable if the parent itself goes away.
                conn.poll(None)
                return
            conn.send(("done", execute_payload(payload)))
    except (BrokenPipeError, EOFError):  # the parent went away
        pass
    finally:
        conn.close()


@dataclass
class _Worker:
    """One persistent worker process and the attempt it is running."""

    process: Any
    conn: Any
    #: The point in flight, or None while the worker is idle.
    index: Optional[int] = None
    attempt: int = 0
    started_at: float = 0.0
    deadline: Optional[float] = None


class PointSupervisor:
    """Supervised fan-out of sweep points over persistent spawn workers."""

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

    @staticmethod
    def _stop(worker: _Worker, wait_s: float) -> None:
        """Join a worker, giving it ``wait_s`` to exit on its own, then
        terminate (then kill) it."""
        process = worker.process
        process.join(wait_s)
        if process.is_alive():
            process.terminate()
            process.join(_TERMINATE_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        worker.conn.close()

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
        # Imported here, not at module top: it pulls in ``subprocess``,
        # and every ``daos`` command imports this module, pool or not.
        from multiprocessing.connection import wait as wait_ready

        backlog: Deque[Tuple[int, int]] = deque((index, 0) for index in pending)
        waiting: List[Tuple[float, int, int]] = []  # heap of (ripe_at, index, attempt)
        workers: List[_Worker] = []

        def send(worker: _Worker, index: int, attempt: int) -> None:
            """Hand a point to a worker and start its watchdog deadline."""
            hang = (
                self.hang_decision(index, attempt)
                if self.hang_decision is not None
                else False
            )
            now = time.monotonic()
            worker.index, worker.attempt, worker.started_at = index, attempt, now
            worker.deadline = now + self.timeout_s if self.timeout_s is not None else None
            try:
                worker.conn.send((make_payload(index, attempt), hang))
            except OSError:
                pass  # died while idle: reaped as crashed by service()

        def dispatch() -> None:
            """Give backlog points to idle workers, spawning up to ``jobs``."""
            while backlog:
                worker = next((w for w in workers if w.index is None), None)
                if worker is None:
                    if len(workers) >= self.jobs:
                        return
                    parent_conn, child_conn = self.context.Pipe()
                    process = self.context.Process(
                        target=_worker_loop,
                        args=(child_conn, self.sanitize),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    worker = _Worker(process=process, conn=parent_conn)
                    workers.append(worker)
                send(worker, *backlog.popleft())

        def reap(worker: _Worker, reason: str, error: str, error_type: str) -> None:
            """Retire a timed-out or dead worker; back off or fail its point."""
            workers.remove(worker)
            index, attempt = worker.index, worker.attempt
            assert index is not None
            wall_s = time.monotonic() - worker.started_at
            will_retry = attempt < self.retries
            self._note_reaped(index, reason, attempt, will_retry)
            self._stop(worker, 0)
            if will_retry:
                ripe = time.monotonic() + self._backoff_s(index, attempt)
                heapq.heappush(waiting, (ripe, index, attempt + 1))
            else:
                handle((index, None, error, error_type, None, wall_s), attempt + 1)

        def service(worker: _Worker) -> None:
            """Act on whatever one worker has to say, or on its silence."""
            if worker.index is None:
                if not worker.process.is_alive():  # died while idle
                    workers.remove(worker)
                    self._stop(worker, 0)
                return
            raw, closed = None, False
            try:
                while raw is None and worker.conn.poll(0):
                    tag, body = worker.conn.recv()
                    if tag == "done":
                        raw = body
            except (EOFError, OSError):
                closed = True
            if raw is not None:
                index, attempt = worker.index, worker.attempt
                worker.index = None
                if raw[2] is not None and attempt < self.retries:
                    backlog.append((index, attempt + 1))
                else:
                    handle(raw, attempt + 1)
            elif worker.deadline is not None and time.monotonic() > worker.deadline:
                reap(
                    worker,
                    "timeout",
                    f"point exceeded the {self.timeout_s:g}s watchdog deadline",
                    "WatchdogTimeout",
                )
            elif closed or not worker.process.is_alive():
                # Dead without a result: SIGKILL, OOM kill or a crash too
                # hard to report — a failed heartbeat.
                reap(
                    worker,
                    "crashed",
                    "worker process died before reporting a result",
                    "WorkerDied",
                )

        try:
            dispatch()
            while backlog or waiting or any(w.index is not None for w in workers):
                # Sleep until a worker speaks or dies, a deadline passes
                # or a backed-off point ripens.
                wake = [waiting[0][0]] if waiting else []
                wake += [w.deadline for w in workers if w.index is not None and w.deadline]
                timeout = max(0.0, min(wake) - time.monotonic()) if wake else None
                ready = [w.conn for w in workers] + [w.process.sentinel for w in workers]
                if ready:
                    wait_ready(ready, timeout)
                elif timeout:
                    time.sleep(timeout)
                for worker in list(workers):
                    service(worker)
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, index, attempt = heapq.heappop(waiting)
                    backlog.append((index, attempt))
                dispatch()
        finally:
            for worker in workers:
                if worker.index is None:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
            for worker in workers:
                self._stop(worker, _TERMINATE_GRACE_S if worker.index is None else 0)
