"""The checkpoint codec: crash-consistent snapshots of a live simulation.

A checkpoint is one file with two parts:

* **line 1** — a JSON header: format tag, checkpoint kind, virtual time,
  the repo's :func:`~repro.version.code_version_tag`, and the
  SHA-256 + byte length of the payload;
* **the rest** — a pickle of the full simulation graph: kernel page
  table columns, frame stack, swap device, LRU state and counters; the
  monitor's region array and RNG substreams; scheme quotas and
  watermarks; the fleet's :class:`~repro.monitor.batch.BatchRegionTable`
  and :class:`~repro.fleet.pool.FleetFramePool`; the trace bus's
  counters; and the event queue's pending periodics as
  ``(name, due, period)`` rows.

The file is written atomically (temp + :func:`os.replace`) so a crash
mid-write leaves either the previous checkpoint or none — never a torn
one.  :func:`read_checkpoint` re-verifies the header and the digest
before unpickling and raises :class:`~repro.errors.CheckpointError`
(CLI exit code 4) on any mismatch.  This module owns the file format
and the detach/reattach of live objects; rebuilding a run's event loop
from the payload is :func:`~repro.runner.experiment.restore_run`'s
job, next to the ``start()`` whose periodics it re-registers.

What makes restore *byte-identical* rather than merely plausible:

* the event queue's heap is rebuilt by re-registering every periodic
  under its name at its recorded due time; the name's rank
  (:data:`~repro.clock.SAME_INSTANT_ORDER`) restores same-instant
  tie-breaking;
* live object identity — the trace bus — is rewired onto the restored
  graph through the same attachment points construction uses, while the
  snapshot recorder's stride counter and the injector's substreams ride
  the pickle;
* checkpointing itself only *pauses* the loop at an epoch boundary
  (``run_until`` in steps dispatches the identical event sequence as one
  big ``run_until``), so a checkpointed run equals an uninterrupted one
  even when never restored.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import time
from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..clock import EventQueue, VirtualClock
from ..errors import CheckpointError
from ..monitor.snapshot import Snapshot
from ..sim.pagetable import FlatPageTable
from ..sim.physmem import FrameTable
from ..sim.vma import VMA
from ..trace.bus import TraceBus
from ..trace.events import CheckpointWritten, RunResumed
from ..version import code_version_tag

__all__ = [
    "CHECKPOINT_FORMAT",
    "announce_resumed",
    "checkpoint_run",
    "checkpoint_run_stepping",
    "checkpoint_fleet",
    "checkpoint_fleet_stepping",
    "read_checkpoint",
    "read_checkpoint_header",
    "reattach_run",
    "restore_fleet",
    "state_digest",
]

#: Format tag on line 1 of every checkpoint file; bump on layout breaks.
CHECKPOINT_FORMAT = "daos-ckpt-v1"

#: Header fields every reader relies on, with their JSON type.
_HEADER_FIELDS = (
    ("kind", str),
    ("time_us", int),
    ("code_version", str),
    ("payload_sha256", str),
    ("payload_bytes", int),
)

#: Stable pickle protocol: the digest is part of the restore contract,
#: so the encoding must not drift with the interpreter's default.
_PICKLE_PROTOCOL = 4


# ----------------------------------------------------------------------
# Detach/reattach plumbing
# ----------------------------------------------------------------------
@contextmanager
def _detached(pairs: List[Tuple[Any, str, Any]]):
    """Temporarily replace ``(obj, attr)`` with a placeholder value.

    Live runs hold references the payload must not carry — the trace bus
    (restored separately so counters survive without pickling callback
    lists) and the event queue (closures; rebuilt from the periodic
    table).  The originals are restored even if pickling raises, so a
    failed checkpoint never corrupts the live run.
    """
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in pairs]
    for obj, attr, placeholder in pairs:
        setattr(obj, attr, placeholder)
    try:
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def _dumps(payload: Dict[str, Any]) -> bytes:
    buf = io.BytesIO()
    pickle.dump(payload, buf, protocol=_PICKLE_PROTOCOL)
    return buf.getvalue()


def _canonicalize_dtypes(root: Any) -> None:
    """Rebind every reachable ndarray's dtype to its canonical singleton.

    Unpickled arrays carry private dtype instances while arrays built by
    live code share numpy's interned singletons.  The values are equal,
    but re-pickling a graph that mixes both memoizes them differently —
    so a restored run's :func:`state_digest` would drift from a fresh
    run's even with identical simulation state.  One walk after
    ``pickle.loads`` removes the only identity difference a round trip
    introduces.
    """
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            # Views too: rebinding a view's dtype does not touch its
            # base, and a base rebind does not propagate to views.
            canonical = np.dtype(obj.dtype.str)
            if obj.dtype is not canonical and obj.dtype == canonical:
                obj.dtype = canonical
            continue
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
            if hasattr(obj, "__slots__"):
                stack.extend(
                    getattr(obj, name)
                    for name in obj.__slots__
                    if isinstance(name, str) and hasattr(obj, name)
                )


# ----------------------------------------------------------------------
# The old-layout converter
# ----------------------------------------------------------------------
class _PayloadUnpickler(pickle.Unpickler):
    """Unpickles a payload, taking in older layouts on the way: a
    kernel's page state, snapshots holding ``RegionSnapshot`` rows, and
    a fleet scheduler with per-region tenant parameters.

    The old kernel layout kept one page table per VMA (``VMA.pages``, a
    ``repro.sim.pagetable.PageTable``), an rmap of ``(owner_vma,
    owner_page)`` pairs naming a VMA by a kernel-assigned ordinal, the
    kernel's ordinal map (``_vma_ids`` and its lookup caches) and, in the
    LRU, a bound method of that map.  Those objects load as stand-ins
    holding their raw state; :meth:`convert` then builds the one page
    table and the flat owner column from them.  The old fleet layout
    gathered seven tenant parameters per region; :meth:`convert` drops
    them and rebuilds the row sets from ``kind`` and the tenant specs.
    A payload in the current layout passes through unchanged.
    """

    def __init__(self, file) -> None:
        super().__init__(file)
        old_pages = self.old_pages = {}  # id(VMA) -> its page table's slots

        class OldVMA(VMA):
            __slots__ = ()

            def __setstate__(self, state) -> None:
                slots = dict(state[1])
                if "pages" in slots:
                    old_pages[id(self)] = slots.pop("pages").state[1]
                for name, value in slots.items():
                    setattr(self, name, value)
                self.__class__ = VMA

        self._stand_ins = {
            ("repro.sim.vma", "VMA"): OldVMA,
            ("repro.sim.pagetable", "PageTable"): _RawState,
            ("repro.sim.physmem", "FrameTable"): _OldFrameTable,
            ("repro.monitor.snapshot", "Snapshot"): _OldSnapshot,
            ("builtins", "getattr"): _getattr_unless_gone,
        }

    def find_class(self, module: str, name: str) -> Any:
        stand_in = self._stand_ins.get((module, name))
        return stand_in if stand_in is not None else super().find_class(module, name)

    def convert(self, payload: Dict[str, Any]) -> None:
        """Rebuild a fleet's row sets and a run kernel's page state if
        they are in the old layout."""
        scheduler = payload.get("scheduler")
        if scheduler is not None and "_duty" in vars(scheduler):
            for name in ("_boot", "_init", "_period", "_phase", "_duty", "_hot_p", "_warm_p"):
                delattr(scheduler, name)
            scheduler._index_kinds()
        if not self.old_pages:
            return
        kernel = payload["tenant"].kernel
        state = vars(kernel)
        ordinal = state.pop("_vma_ids")
        segment_of = np.full(state.pop("_next_vma_ordinal"), -1, dtype=np.int64)
        del state["_ordinal_lut"], state["_ordinal_lut_gen"]
        del kernel.lru._ordinal_segments
        space = kernel.space
        del space._flat
        flat = space.flat = FlatPageTable()
        for k, vma in enumerate(space.vmas):
            old = self.old_pages[id(vma)]
            flat.insert_segment(k, old["n_pages"])
            page, chunk = int(flat.page_offset[k]), int(flat.chunk_offset[k])
            for name, column in old.items():
                if isinstance(column, np.ndarray):
                    at = chunk if name.startswith("chunk_") else page
                    getattr(flat, name)[at : at + column.size] = column
            flat.n_present += old["n_present"]
            flat.n_swapped += old["n_swapped"]
            segment_of[ordinal[vma]] = k
        space.rebuild_lookup()

        def owners(vma_ids, pages):
            return np.where(vma_ids >= 0, flat.page_offset[segment_of[vma_ids]] + pages, -1)

        frames = kernel.frames
        old = vars(frames).pop("_old_state")
        old["owner"] = owners(old.pop("owner_vma"), old.pop("owner_page"))
        old["_slow_owner"] = owners(old.pop("_slow_owner_vma"), old.pop("_slow_owner_page"))
        frames.__setstate__(old)


class _RawState:
    """Stand-in for a pickled object the converter reads, not restores."""

    def __setstate__(self, state) -> None:
        self.state = state


class _OldFrameTable(FrameTable):
    """A frame table whose old-layout rmap waits for the converter."""

    def __setstate__(self, state) -> None:
        self.__class__ = FrameTable
        if "owner_vma" in state:
            self._old_state = state
        else:
            self.__setstate__(state)


class _OldSnapshot(Snapshot):
    """A snapshot whose state may hold ``regions`` rows.  It is built
    through ``__init__`` so its attribute names are the interned ones a
    fresh snapshot has, which keeps a re-pickled state digest equal."""

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "__class__", Snapshot)
        if "regions" in state:
            rows = [(r.start, r.end, r.nr_accesses, r.age, r.nr_writes) for r in state["regions"]]
            state = vars(Snapshot.from_rows(state["time_us"], rows, state["max_nr_accesses"]))
        Snapshot.__init__(self, **state)


def _getattr_unless_gone(obj: Any, name: str) -> Any:
    """``getattr`` as pickled bound methods call it, except for the
    old layout's ``SimKernel._ordinal_segments``, which no longer exists
    (the converter drops the reference)."""
    return None if name == "_ordinal_segments" else getattr(obj, name)


def _loads(blob: bytes) -> Dict[str, Any]:
    unpickler = _PayloadUnpickler(io.BytesIO(blob))
    payload = unpickler.load()
    unpickler.convert(payload)
    _canonicalize_dtypes(payload)
    return payload


def _commit(
    path: str, kind: str, time_us: int, blob: bytes, trace: Optional[TraceBus], sequence: int
) -> str:
    """Atomically write header + payload, then announce the checkpoint
    on ``trace``; returns the 16-hex-char restore identity."""
    digest = hashlib.sha256(blob).hexdigest()
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "time_us": int(time_us),
        "code_version": code_version_tag(),
        "payload_sha256": digest,
        "payload_bytes": len(blob),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    if trace is not None:
        trace.emit(
            CheckpointWritten(
                time_us=trace.now,
                target=kind,
                digest=digest[:16],
                payload_bytes=len(blob),
                sequence=sequence,
            )
        )
    return digest[:16]


def read_checkpoint_header(path: str) -> Dict[str, Any]:
    """Parse and validate line 1 of a checkpoint file (no unpickling):
    the format tag, and each field of :data:`_HEADER_FIELDS` present
    with its JSON type."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint header in {path!r}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path!r} is not a {CHECKPOINT_FORMAT} checkpoint "
            f"(format={header.get('format') if isinstance(header, dict) else line[:40]!r})"
        )
    for name, kind in _HEADER_FIELDS:
        value = header.get(name)
        # bool is an int to isinstance, but never a valid time or size.
        if not isinstance(value, kind) or isinstance(value, bool):
            got = "missing" if name not in header else f"a {type(value).__name__}"
            raise CheckpointError(
                f"malformed checkpoint header in {path!r}: field {name!r} "
                f"must be a {kind.__name__}, is {got}"
            )
    return header


def read_checkpoint(
    path: str, *, kind: str, strict_version: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Read, digest-verify and unpickle a ``kind`` checkpoint file;
    returns ``(header, payload)``."""
    header = read_checkpoint_header(path)
    if header["kind"] != kind:
        raise CheckpointError(
            f"{path!r} holds a {header['kind']!r} checkpoint, expected {kind!r}"
        )
    with open(path, "rb") as fh:
        fh.readline()
        blob = fh.read()
    if len(blob) != header["payload_bytes"]:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated: "
            f"{len(blob)} of {header['payload_bytes']} payload bytes"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError(
            f"checkpoint digest mismatch in {path!r}: "
            f"file carries {header['payload_sha256'][:16]}, "
            f"payload hashes to {digest[:16]} — refusing to restore"
        )
    if strict_version:
        current = code_version_tag()
        if header["code_version"] != current:
            raise CheckpointError(
                f"checkpoint {path!r} was written by code version "
                f"{header['code_version']!r}, this tree is {current!r} "
                f"(pass --allow-version-skew to restore anyway)"
            )
    try:
        payload = _loads(blob)
    except Exception as exc:
        # The digest held, so these are the bytes the writer produced;
        # what failed is rebuilding its classes in this tree (a moved
        # module, a dropped slot).  Unpickling runs class code, so the
        # failure can be of any type.
        raise CheckpointError(
            f"checkpoint {path!r} written by code version "
            f"{header['code_version']!r} cannot be loaded by this tree "
            f"({code_version_tag()!r}): {type(exc).__name__}: {exc}"
        ) from exc
    return header, payload


def _restored_loop(
    payload: Dict[str, Any], trace: Optional[TraceBus]
) -> Tuple[EventQueue, Optional[TraceBus]]:
    """An empty event queue at the payload's instant, and the bus the
    restored simulation continues on, bound to that queue's clock:
    ``trace`` if given, else a fresh internal bus whenever the original
    had one (its counters were saved); ``None`` stays ``None`` (the
    ``collect_trace=False`` path)."""
    queue = EventQueue(VirtualClock(start=int(payload["clock_now"])))
    counters = payload["trace_counters"]
    if counters is not None:
        if trace is None:
            trace = TraceBus(ring_capacity=0)
        trace.restore_counters(counters)
    if trace is not None:
        trace.bind_clock(queue.clock)
    return queue, trace


def announce_resumed(trace: Optional[TraceBus], header: Dict[str, Any]) -> None:
    """Emit the ``RunResumed`` event of a restore from ``header``."""
    if trace is not None:
        trace.emit(
            RunResumed(
                time_us=trace.now,
                target=header["kind"],
                digest=header["payload_sha256"][:16],
                checkpoint_time_us=header["time_us"],
            )
        )


def _step_with_checkpoints(
    run_until, step_us: int, duration_us: int, every: int, write
) -> List[str]:
    """Drive ``run_until`` to ``duration_us``, pausing to ``write`` a
    checkpoint after every ``every`` steps of ``step_us`` (0 = once at
    the midpoint); returns the digests written, in order."""
    n_steps = max(1, duration_us // step_us)
    if every > 0:
        boundaries = list(range(every, n_steps, every))
    else:
        boundaries = [n_steps // 2] if n_steps >= 2 else []
    digests: List[str] = []
    for sequence, step in enumerate(boundaries, start=1):
        run_until(step * step_us)
        digests.append(write(sequence=sequence))
    run_until(duration_us)
    return digests


# ----------------------------------------------------------------------
# Single-run checkpoints
# ----------------------------------------------------------------------
def _bus_holders(tenant, injector) -> List[Tuple[Any, str]]:
    """Every ``(object, attribute)`` that holds the run's trace bus.

    The one list both directions use: checkpointing detaches the bus
    from each, restore reattaches it to each — a layer missing here
    would pickle the bus, a layer missing from a second list would
    silently stop tracing after a restore.
    """
    holders: List[Tuple[Any, str]] = [(tenant, "trace"), (tenant.kernel, "trace")]
    if tenant.monitor is not None:
        holders.append((tenant.monitor, "trace"))
    if tenant.engine is not None:
        holders.append((tenant.engine, "trace"))
    if injector is not None:
        holders.append((injector, "_trace"))
    return holders


def _run_detach_pairs(run) -> List[Tuple[Any, str, Any]]:
    pairs: List[Tuple[Any, str, Any]] = [
        (obj, attr, None) for obj, attr in _bus_holders(run.tenant, run.injector)
    ]
    if run.tenant.monitor is not None:
        # Dead PeriodicEvent handles (their queue is not serialized);
        # restore re-registers fresh ones and re-adopts them.
        pairs.append((run.tenant.monitor, "_events", []))
    return pairs


def reattach_run(
    payload: Dict[str, Any], trace: Optional[TraceBus]
) -> Tuple[EventQueue, Optional[TraceBus]]:
    """Rewire a run payload's tenant onto a fresh loop: returns the empty
    event queue at the checkpoint's instant and the bus now held by every
    :func:`_bus_holders` entry.  The caller re-registers the periodics."""
    queue, trace = _restored_loop(payload, trace)
    for holder, attr in _bus_holders(payload["tenant"], payload["injector"]):
        setattr(holder, attr, trace)
    return queue, trace


def _run_payload_bytes(run) -> Tuple[bytes, int]:
    """Serialize a paused run; returns ``(blob, clock_now)``."""
    if run.queue is None:
        raise CheckpointError("cannot checkpoint a run before start()")
    clock_now = run.queue.clock.now
    payload: Dict[str, Any] = {
        "spec": run.spec,
        "host": run.host,
        "guest": run.guest,
        "seed": run.seed,
        "compute_us": run.compute_us,
        "clock_now": clock_now,
        "periodics": run.queue.pending_periodics(),
        "trace_counters": (
            run.trace.counters_state() if run.trace is not None else None
        ),
        "tenant": run.tenant,
        "injector": run.injector,
    }
    with _detached(_run_detach_pairs(run)):
        blob = _dumps(payload)
    return blob, clock_now


def state_digest(run) -> str:
    """Digest of a paused run's full state, without writing a file.

    Two runs of the same experiment paused at the same virtual time have
    equal digests — the identity the recovery tests assert.  It hashes
    the live state's pickle, not a result value, so it is not a
    :func:`~repro.sweep.serialize.fingerprint`.
    """
    blob, _ = _run_payload_bytes(run)
    return hashlib.sha256(blob).hexdigest()[:16]


def checkpoint_run(run, path: str, *, sequence: int = 1) -> str:
    """Write a crash-consistent checkpoint of ``run``; returns the digest.

    The caller must have paused the loop (between ``run_until`` steps);
    epoch boundaries are the natural — and tested — pause points.
    Counters are snapshotted *before* the ``CheckpointWritten`` event is
    emitted, so the event never appears in its own checkpoint.
    """
    blob, clock_now = _run_payload_bytes(run)
    return _commit(path, "run", clock_now, blob, run.trace, sequence)


def checkpoint_run_stepping(
    run, path: str, *, every_epochs: int = 0
) -> List[str]:
    """Drive a started run to completion, checkpointing at epoch
    boundaries; returns the digests written, in order.

    ``every_epochs`` > 0 checkpoints after every that-many epochs;
    0 checkpoints once at the midpoint.  The same ``path`` is rewritten
    atomically each time, so the file always holds the latest complete
    snapshot — exactly what ``daos resume`` wants after a crash.
    """
    return _step_with_checkpoints(
        run.run_until,
        run.spec.epoch_us,
        run.spec.duration_us,
        every_epochs,
        partial(checkpoint_run, run, path),
    )


# ----------------------------------------------------------------------
# Fleet checkpoints
# ----------------------------------------------------------------------
def checkpoint_fleet(scheduler, path: str, *, sequence: int = 1) -> str:
    """Write a checkpoint of a paused fleet scheduler; returns the digest."""
    if scheduler.queue is None:
        raise CheckpointError("cannot checkpoint a fleet before start_loop()")
    clock_now = scheduler.queue.clock.now
    payload: Dict[str, Any] = {
        "clock_now": clock_now,
        "periodics": scheduler.queue.pending_periodics(),
        "trace_counters": (
            scheduler.trace.counters_state()
            if scheduler.trace is not None
            else None
        ),
        "scheduler": scheduler,
    }
    pairs: List[Tuple[Any, str, Any]] = [
        (scheduler, "trace", None),
        (scheduler, "queue", None),
    ]
    if scheduler.faults is not None:
        pairs.append((scheduler.faults, "_trace", None))
    with _detached(pairs):
        blob = _dumps(payload)
    return _commit(path, "fleet", clock_now, blob, scheduler.trace, sequence)


def restore_fleet(
    path: str,
    *,
    trace: Optional[TraceBus] = None,
    strict_version: bool = True,
    announce: bool = True,
):
    """Reconstruct a paused :class:`~repro.fleet.scheduler.FleetScheduler`.

    Ready for ``queue.run_until(cfg.duration_us)`` then ``finish()``."""
    header, payload = read_checkpoint(path, kind="fleet", strict_version=strict_version)
    scheduler = payload["scheduler"]
    queue, trace = _restored_loop(payload, trace)
    scheduler.trace = trace
    if scheduler.faults is not None:
        scheduler.faults.bind_trace(trace)

    for name, due, period in payload["periodics"]:
        if name != "fleet-tick":
            raise CheckpointError(
                f"checkpoint {path!r} names unknown periodic {name!r}"
            )
        queue.schedule_periodic(period, scheduler._tick, name=name, first_at=due)
    scheduler.queue = queue
    scheduler.wall_start = time.perf_counter()

    if announce:
        announce_resumed(trace, header)
    return scheduler


def checkpoint_fleet_stepping(
    scheduler, path: str, *, every_ticks: int = 0
) -> List[str]:
    """Drive an un-started fleet to completion with tick-boundary
    checkpoints; the fleet twin of :func:`checkpoint_run_stepping`."""
    queue = scheduler.start_loop()
    return _step_with_checkpoints(
        queue.run_until,
        scheduler.cfg.tick_us,
        scheduler.cfg.duration_us,
        every_ticks,
        partial(checkpoint_fleet, scheduler, path),
    )
