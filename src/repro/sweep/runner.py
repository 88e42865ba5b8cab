"""The sweep executor: cache lookup, pool fan-out, resumable results.

Execution contract (the determinism tests pin it down):

* every point is executed by
  :func:`~repro.sweep.supervisor.execute_payload`, whether serially
  (``jobs=1``) or in a pool worker — both paths produce the *encoded*
  canonical form, so a pooled sweep is byte-identical to a serial one,
  and both release the point's memory before the next point runs;
* a point's randomness comes entirely from its parameters (the
  ``seed``), never from worker identity or scheduling order;
* results are reported in grid order regardless of completion order;
* completed points are written to the cache as they finish, so a sweep
  that dies half-way resumes from where it was — only failed or missing
  points re-run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ConfigError, ParseError, SweepError
from ..faults.injector import worker_crash_decision
from ..monitor.attrs import MonitorAttrs
from ..recovery.journal import SweepJournal
from ..runner.configs import CONFIGS
from ..sanitize import default_enabled, set_default_enabled
from .cache import ResultCache, code_version_tag, point_key
from .grid import SweepGrid, SweepPoint
from .serialize import _strip_volatile, canonical_json, decode_value, encode_value
from .supervisor import PointSupervisor, RawResult, execute_payload

__all__ = ["SweepRunner", "SweepReport", "SweepOutcome"]

#: progress(done, total, outcome) — invoked once per finished point.
ProgressFn = Callable[[int, int, "SweepOutcome"], None]

@dataclass
class SweepOutcome:
    """One point's result (or failure) within a sweep."""

    point: SweepPoint
    key: str
    value: Any = None
    cached: bool = False
    #: True when the value came from a ``--resume`` journal replay
    #: rather than execution or the cache.
    replayed: bool = False
    error: Optional[str] = None
    #: Exception class name of the failure (``"SwapFullError"``,
    #: ``"TimeoutError"``, ...); None on success.
    error_type: Optional[str] = None
    #: Full traceback text from the executing process; None on success
    #: (and for synthesized failures like pool timeouts).
    traceback: Optional[str] = None
    #: Execution attempts this sweep made for the point (0 = cache hit).
    attempts: int = 1
    #: Wall-clock seconds the point took where it actually ran (for a
    #: cache hit: the original run's time, from the cache metadata).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """All outcomes of one sweep, in grid order."""

    outcomes: List[SweepOutcome] = field(default_factory=list)
    #: Wall-clock seconds the whole sweep took (including cache hits).
    elapsed_s: float = 0.0

    @property
    def n_total(self) -> int:
        return len(self.outcomes)

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_replayed(self) -> int:
        return sum(1 for o in self.outcomes if o.replayed)

    @property
    def n_executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached and not o.replayed and o.ok)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def values(self) -> List[Any]:
        """Successful results, grid order."""
        return [o.value for o in self.outcomes if o.ok]

    def failures(self) -> List[SweepOutcome]:
        """Failed points' outcomes, grid order."""
        return [o for o in self.outcomes if not o.ok]

    def watchdog_failures(self) -> List[SweepOutcome]:
        """Points whose final failure was a supervisor watchdog reap
        (``WatchdogTimeout``) — the CLI maps these to exit code 3."""
        return [o for o in self.outcomes if o.error_type == "WatchdogTimeout"]

    def canonical_dict(self) -> Dict[str, Any]:
        """The report with every volatile field stripped.

        Two sweeps of the same grid — serial or pooled, fresh or
        resumed from a journal — produce the *same* canonical dict;
        ``canonical_json`` of it is what ``daos sweep --out`` writes and
        what the resume byte-identity tests compare, and
        :func:`~repro.sweep.serialize.fingerprint` hashes it.  Volatile
        result fields (host wall clock, trace roll-ups) are stripped
        exactly as the cache fingerprint strips them, and the points'
        cache keys are left out: they hash the source tree, so the same
        values under two versions of the code are the same report.
        """
        return {
            "n_points": self.n_total,
            "points": [
                {
                    "label": o.point.label(),
                    "ok": o.ok,
                    "error": o.error,
                    "error_type": o.error_type,
                    "value": _strip_volatile(encode_value(o.value)) if o.ok else None,
                }
                for o in self.outcomes
            ],
        }

    def canonical_json(self) -> str:
        """:meth:`canonical_dict` as canonical JSON text."""
        return canonical_json(self.canonical_dict())

    def raise_if_failed(self, limit: int = 5) -> None:
        """Fail fast: raise :class:`~repro.errors.SweepError` naming up
        to ``limit`` failed points (type + message each); no-op when
        every point succeeded."""
        failed = self.failures()
        if not failed:
            return
        lines = [
            f"  {o.point.label()}: {o.error} (attempts: {o.attempts})"
            for o in failed[:limit]
        ]
        more = len(failed) - limit
        if more > 0:
            lines.append(f"  ... and {more} more")
        raise SweepError(
            f"{len(failed)} of {self.n_total} sweep point(s) failed:\n"
            + "\n".join(lines)
        )

    def point_wall_s(self) -> float:
        """Sum of per-point wall clocks (= serial cost of the sweep)."""
        return sum(o.wall_s for o in self.outcomes)

    def trace_event_totals(self) -> Dict[str, int]:
        """Trace-event counts summed over every point carrying a
        ``trace_summary`` (duck-typed, so lists/dicts of results work
        too).  Empty when no point was traced."""
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            if not outcome.ok:
                continue
            summary = getattr(outcome.value, "trace_summary", None)
            if not summary:
                continue
            for kind, count in summary.get("counts", {}).items():
                totals[kind] = totals.get(kind, 0) + int(count)
        return {kind: totals[kind] for kind in sorted(totals)}


class SweepRunner:
    """Execute a :class:`~repro.sweep.grid.SweepGrid`.

    ``jobs=1`` runs in-process; ``jobs>1`` fans out over at most
    ``jobs`` persistent ``spawn`` workers (each imports a clean
    interpreter once and then runs point after point; results cannot
    depend on parent-process state or on which worker ran which point).
    ``cache_dir=None`` disables caching entirely.

    Robustness knobs: a failed attempt is retried up to ``retries``
    times before the point is reported failed; ``point_timeout_s`` is
    the supervisor's watchdog deadline per pooled attempt, counted from
    when the point is sent to a worker (a past-due worker is terminated
    and its point synthesized as a ``WatchdogTimeout`` failure; the
    serial path cannot preempt and ignores the timeout).  Pooled
    execution runs under the
    :class:`~repro.sweep.supervisor.PointSupervisor` — heartbeats and
    a watchdog per worker, so a worker killed outright (``SIGKILL``) is
    reaped, never reused, and its point reassigned instead of stalling
    the sweep.  ``faults`` applies a fault plan's
    ``worker_crash`` / ``worker_hang`` specs: decisions are a stateless
    hash of ``(plan.seed, point_index)``, computed in the parent, so
    they never perturb point *values* — cache keys stay valid under any
    plan.  ``journal_dir`` write-ahead journals every completed point;
    ``resume=True`` replays journaled points and re-executes only the
    ones that were in flight when a previous sweep died.
    """

    def __init__(
        self,
        grid: SweepGrid,
        *,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[ProgressFn] = None,
        retries: int = 1,
        point_timeout_s: Optional[float] = None,
        faults=None,
        sanitize: bool = False,
        journal_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        trace=None,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1: {jobs}")
        if retries < 0:
            raise ConfigError(f"retries cannot be negative: {retries}")
        if point_timeout_s is not None and not 0 < point_timeout_s < math.inf:
            raise ConfigError(f"point timeout must be finite and positive: {point_timeout_s}")
        if resume and journal_dir is None:
            raise ConfigError("--resume needs a journal directory")
        self.grid = grid
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.retries = retries
        self.point_timeout_s = point_timeout_s
        #: Run every point under the SimSanitizer invariant checks.
        self.sanitize = bool(sanitize)
        self.journal_dir = str(journal_dir) if journal_dir is not None else None
        self.resume = bool(resume)
        #: Optional bus receiving the supervisor's WorkerReaped events.
        self.trace = trace
        self._fault_seed = 0
        self._crash_probs: List[float] = []
        self._hang_probs: List[float] = []
        if faults is not None:
            self._fault_seed = faults.seed
            self._crash_probs = [
                spec.probability
                for spec in faults.specs
                if spec.kind == "worker_crash"
            ]
            self._hang_probs = [
                spec.probability
                for spec in faults.specs
                if spec.kind == "worker_hang"
            ]
        if self._hang_probs and point_timeout_s is None:
            raise ConfigError(
                "worker_hang faults need --point-timeout: a hung worker "
                "is only recoverable through the watchdog"
            )

    def _crash_injected(self, point_index: int, attempt: int) -> bool:
        return any(
            worker_crash_decision(self._fault_seed, prob, point_index, attempt)
            for prob in self._crash_probs
        )

    def _hang_injected(self, point_index: int, attempt: int) -> bool:
        return any(
            worker_crash_decision(
                self._fault_seed, prob, point_index, attempt, stream="hang"
            )
            for prob in self._hang_probs
        )

    # ------------------------------------------------------------------
    def _preflight_schemes(self, points: List[SweepPoint]) -> None:
        """Static scheme analysis before any point executes.

        A sweep point referencing a configuration whose scheme set has
        error-severity diagnostics would fail (or worse, silently
        produce garbage) once per grid point; analyzing the handful of
        distinct configurations up front fails the whole sweep in
        milliseconds instead — before a worker pool is ever spawned.
        Unknown configuration names are left for execution to report.
        """
        names = sorted(
            {
                params["config"]
                for params in (point.params for point in points)
                if isinstance(params.get("config"), str)
            }
        )
        attrs = MonitorAttrs()
        for name in names:
            cfg = CONFIGS.get(name)
            if cfg is not None and cfg.schemes_text is not None:
                cfg.build_schemes(attrs, context=f"sweep config {name!r}")

    def run(self) -> SweepReport:
        """Run every point of the grid: scheme preflight, then cache
        hits and journal replays, then the rest in-process or on the
        pool; one outcome per point, in grid order."""
        started = time.perf_counter()
        points = self.grid.points()
        self._preflight_schemes(points)
        version = code_version_tag()
        keys = [point_key(point, version) for point in points]
        outcomes: List[Optional[SweepOutcome]] = [None] * len(points)
        done = 0

        def finish(index: int, outcome: SweepOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if self.progress is not None:
                self.progress(done, len(points), outcome)

        # --- cache pass -------------------------------------------------
        pending: List[int] = []
        for index, (point, key) in enumerate(zip(points, keys)):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                value, meta = hit
                finish(
                    index,
                    SweepOutcome(
                        point=point,
                        key=key,
                        value=value,
                        cached=True,
                        attempts=0,
                        wall_s=float(meta.get("wall_s", 0.0)),
                    ),
                )
            else:
                pending.append(index)

        # --- journal replay + write-ahead setup --------------------------
        journal = None
        if self.journal_dir is not None:
            journal = SweepJournal(self.journal_dir)
            if self.resume:
                entries = journal.load()
                still_pending: List[int] = []
                for index in pending:
                    entry = entries.get(keys[index])
                    if entry is None:
                        # In flight when the sweep died: re-execute.
                        still_pending.append(index)
                        continue
                    finish(
                        index,
                        SweepOutcome(
                            point=points[index],
                            key=keys[index],
                            value=decode_value(json.loads(entry["encoded"])),
                            replayed=True,
                            attempts=int(entry["attempts"]),
                            wall_s=float(entry["wall_s"]),
                        ),
                    )
                pending = still_pending
            grid_digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()[:16]
            journal.open(
                version_tag=version, grid_digest=grid_digest, n_points=len(points)
            )

        # --- execution pass ---------------------------------------------
        def handle(raw: RawResult, attempts: int) -> None:
            index, encoded, error, error_type, tb, wall_s = raw
            point, key = points[index], keys[index]
            if error is not None:
                finish(
                    index,
                    SweepOutcome(
                        point=point,
                        key=key,
                        error=error,
                        error_type=error_type,
                        traceback=tb,
                        attempts=attempts,
                        wall_s=wall_s,
                    ),
                )
                return
            value = decode_value(json.loads(encoded))
            if self.cache is not None:
                try:
                    self.cache.put(key, value, point=point, meta={"wall_s": wall_s})
                except ParseError:
                    # Not storable (a snapshot value outside int64): the
                    # point still reports, it is just never a cache hit.
                    pass
            if journal is not None:
                # Write-ahead of the *report*, behind the execution: the
                # line is durable before the outcome is observable, so a
                # crash can lose in-flight work but never a reported point.
                journal.record(
                    index=index,
                    key=key,
                    encoded=encoded,
                    attempts=attempts,
                    wall_s=wall_s,
                )
            finish(
                index,
                SweepOutcome(
                    point=point, key=key, value=value, attempts=attempts, wall_s=wall_s
                ),
            )

        def make_payload(index: int, attempt: int) -> Tuple[int, str, tuple, bool]:
            point = points[index]
            return (index, point.fn, point.items, self._crash_injected(index, attempt))

        try:
            if pending:
                if self.jobs == 1 or len(pending) == 1:
                    previous = default_enabled()
                    set_default_enabled(previous or self.sanitize)
                    try:
                        for index in pending:
                            attempt = 0
                            while True:
                                raw = execute_payload(make_payload(index, attempt))
                                if raw[2] is None or attempt >= self.retries:
                                    break
                                attempt += 1
                            handle(raw, attempts=attempt + 1)
                    finally:
                        set_default_enabled(previous)
                else:
                    # Supervised fan-out: persistent workers, heartbeats,
                    # a watchdog, seeded-backoff reassignment.
                    PointSupervisor(
                        jobs=self.jobs,
                        sanitize=self.sanitize,
                        timeout_s=self.point_timeout_s,
                        retries=self.retries,
                        backoff_seed=self._fault_seed,
                        hang_decision=(
                            self._hang_injected if self._hang_probs else None
                        ),
                        trace=self.trace,
                    ).execute(pending, make_payload, handle)
        finally:
            if journal is not None:
                journal.close()

        return SweepReport(
            outcomes=[o for o in outcomes if o is not None],
            elapsed_s=time.perf_counter() - started,
        )
