"""The checkpoint codec: crash-consistent snapshots of a live simulation.

A run and a fleet share one lifecycle (:class:`PausedSimulation`):
:func:`checkpoint_run` writes a started root, :func:`run_with_checkpoints`
drives one to its end writing as it goes, :func:`restore` reads one
back and :func:`resume_checkpoint` restores, runs and finishes it.

A checkpoint (format :data:`CHECKPOINT_FORMAT`) is one file in three
parts, the framing of the sweep cache's entries:

* **line 1** — a JSON header: format tag, the root's checkpoint kind,
  virtual time, the repo's :func:`~repro.version.code_version_tag`, the
  SHA-256 and byte length of the payload, and ``pickle_bytes``, where
  the payload's pickle ends and its column block begins;
* **the pickle** — the root (an
  :class:`~repro.runner.experiment.ExperimentRun` or a
  :class:`~repro.fleet.scheduler.FleetScheduler`) with its bulk state
  taken out: every 1-D, C-contiguous, numeric ndarray the graph reaches
  (page-table and frame columns, region tables, the fleet's per-region
  and per-tenant columns) is pickled as a reference to its offset,
  dtype and length in the block;
* **the column block** — the raw little-endian bytes of those arrays,
  back to back, hashed and written column by column from the arrays
  themselves, never joined into one buffer.

Live handles are pickled as named references too, and the reader binds
them again: the root's :class:`~repro.trace.bus.TraceBus` (its counters
ride the payload; subscribers, ring and clock do not), the
:class:`~repro.clock.EventQueue` and every pending
:class:`~repro.clock.PeriodicEvent`, such as the monitor's tick
handles.  The payload opens with the pending periodics as ``(name,
due, period)`` rows; the reader re-registers them on a fresh queue at
the header's instant before it unpickles the graph, so every reference
lands on a live handle, and then hands each handle its callback, by
name, from the root's ``periodic_handlers()``.  No list of holders
exists to fall out of sync: whichever object holds a handle gets the
new one.

The file is written atomically (temp + ``fsync`` + :func:`os.replace`)
so a crash mid-write leaves either the previous checkpoint or none —
never a torn one.  :func:`restore` re-verifies the header and the
digest before unpickling and raises
:class:`~repro.errors.CheckpointError` (CLI exit code 4) on any
mismatch, and on a payload this tree cannot load.

A layout break bumps :data:`CHECKPOINT_FORMAT` and re-pins the test
fixtures; no converter reads an older format.  A file in another
format fails the header check with an error that names it.

What makes restore *byte-identical* rather than merely plausible:

* the event queue's heap is rebuilt by re-registering every periodic
  under its name at its recorded due time, in dispatch order; the
  name's rank (:data:`~repro.clock.SAME_INSTANT_ORDER`) restores
  same-instant tie-breaking;
* a loaded column is a fresh array of its canonical dtype, so the
  restored graph pickles again exactly as a fresh one does;
* checkpointing itself only *pauses* the loop at a step boundary
  (``run_until`` in steps dispatches the identical event sequence as one
  big ``run_until``), so a checkpointed root equals an uninterrupted one
  even when never restored.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..clock import EventQueue, VirtualClock
from ..errors import CheckpointError
from ..trace.bus import TraceBus
from ..trace.events import CheckpointWritten, RunResumed
from ..version import code_version_tag

__all__ = [
    "CHECKPOINT_FORMAT",
    "PausedSimulation",
    "checkpoint_run",
    "read_checkpoint_header",
    "restore",
    "resume_checkpoint",
    "run_with_checkpoints",
    "state_digest",
]

#: Format tag on line 1 of every checkpoint file; bump on layout breaks.
CHECKPOINT_FORMAT = "daos-ckpt-v2"

#: Header fields every reader relies on, with their JSON type.
_HEADER_FIELDS = (
    ("kind", str),
    ("time_us", int),
    ("code_version", str),
    ("payload_sha256", str),
    ("payload_bytes", int),
    ("pickle_bytes", int),
)

#: Stable pickle protocol: the digest is part of the restore contract,
#: so the encoding must not drift with the interpreter's default.
_PICKLE_PROTOCOL = 4

#: A serialized paused simulation: the pickle, the block's columns in
#: order, and the SHA-256 of both.
_Payload = Tuple[bytes, List[np.ndarray], str]


class PausedSimulation:
    """A simulation root as the codec sees it, run or fleet alike.

    A started root holds its loop in ``queue``, its bus (or ``None``) in
    ``trace`` and its host-time stamp in ``wall_start``; it pauses every
    ``step_us`` (an epoch, a tick) and ends at ``duration_us``.  The
    codec imports neither root, so each names its header ``kind``.
    """

    checkpoint_kind: str
    queue: Optional[EventQueue]
    trace: Optional[TraceBus]
    wall_start: float
    step_us: int
    duration_us: int

    def __getstate__(self) -> Dict[str, Any]:
        """A checkpoint holds simulation state, so the host-time stamp
        stays behind (:func:`restore` stamps the restored root)."""
        state = dict(vars(self))
        del state["wall_start"]
        return state

    def periodic_handlers(self) -> Dict[str, Callable[[int], None]]:
        """Periodic name → callback of every periodic the root's start
        registers; a restore binds the re-registered handles through it."""
        raise NotImplementedError

    def run_until(self, deadline_us: int) -> int:
        """Advance virtual time to ``deadline_us`` (inclusive).  Stepping
        in increments dispatches the identical event sequence as one big
        ``run_until`` — that equivalence is what makes pausing for a
        checkpoint invisible to the simulation."""
        assert self.queue is not None, "start the simulation (or restore it) first"
        return self.queue.run_until(deadline_us)

    def finish(self) -> Any:
        """Freeze the root's result once it has run to ``duration_us``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# The payload: a pickle with columns and live handles by reference
# ----------------------------------------------------------------------
def _column(offset: int, dtype: str, length: int) -> np.ndarray:
    """What the pickle calls to rebuild a column; only a reader binds it."""
    raise CheckpointError("a checkpoint column resolves only inside a checkpoint reader")


def _live(key: Any) -> Any:
    """What the pickle calls to rebind a live handle; only a reader binds it."""
    raise CheckpointError("a live handle resolves only inside a checkpoint reader")


class _Writer(pickle.Pickler):
    """Pickles into memory, moving columns to the block and naming the
    handles in ``live`` (``id(handle) -> key``).  The C pickler consults
    :meth:`reducer_override` only for objects that are not builtins, and
    memoizes what it returns, so an array reached twice is one column."""

    def __init__(self, live: Dict[int, Any]) -> None:
        self.buffer = io.BytesIO()
        super().__init__(self.buffer, protocol=_PICKLE_PROTOCOL)
        self.live = live
        self.columns: List[np.ndarray] = []
        self.block_bytes = 0

    def reducer_override(self, obj: Any) -> Any:
        if (
            type(obj) is np.ndarray
            and obj.ndim == 1
            and obj.dtype.kind in "biufc"
            and obj.dtype.str[0] != ">"
            and obj.flags.c_contiguous
        ):
            offset = self.block_bytes
            self.columns.append(obj)
            self.block_bytes += obj.nbytes
            return _column, (offset, obj.dtype.str, obj.size)
        key = self.live.get(id(obj))
        return NotImplemented if key is None else (_live, (key,))


def _encode(root: PausedSimulation) -> _Payload:
    """Serialize a paused root: first the pending periodics of its loop
    and its bus counters, then the root."""
    queue, bus = root.queue, root.trace
    if queue is None:
        raise CheckpointError(f"cannot checkpoint a {root.checkpoint_kind} before it starts")
    pending = queue.pending_events()
    live: Dict[int, Any] = {id(queue): "queue"}
    if bus is not None:
        live[id(bus)] = "bus"
    live.update((id(event), i) for i, (event, _) in enumerate(pending))
    writer = _Writer(live)
    writer.dump(
        (
            [(event.name, due, event.period) for event, due in pending],
            bus.counters_state() if bus is not None else None,
        )
    )
    writer.dump(root)
    blob = writer.buffer.getvalue()
    digest = hashlib.sha256(blob)
    for column in writer.columns:
        digest.update(column)
    return blob, writer.columns, digest.hexdigest()


class _Reader(pickle.Unpickler):
    """Unpickles a verified payload, rebuilding columns from its block
    and binding live-handle references to ``live``."""

    def __init__(self, payload: bytes, pickle_bytes: int) -> None:
        view = memoryview(payload)
        super().__init__(io.BytesIO(view[:pickle_bytes]))
        self.block = view[pickle_bytes:]
        self.live: Dict[Any, Any] = {}

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_column":
            return self.column
        if module == __name__ and name == "_live":
            return self.live.__getitem__
        return super().find_class(module, name)

    def column(self, offset: int, dtype: str, length: int) -> np.ndarray:
        return np.frombuffer(self.block, dtype, length, offset).copy()


def _load(
    path: str, header: Dict[str, Any], payload: bytes, trace: Optional[TraceBus]
) -> PausedSimulation:
    """Unpickle a verified payload onto a fresh loop at the header's
    instant (see :func:`restore` for which bus the root gets)."""
    reader = _Reader(payload, header["pickle_bytes"])
    periodics, counters = reader.load()
    queue = EventQueue(VirtualClock(start=header["time_us"]))
    if counters is not None:
        if trace is None:
            trace = TraceBus(ring_capacity=0)
        trace.restore_counters(counters)
    if trace is not None:
        trace.bind_clock(queue.clock)
    # Callbacks are bound methods of the graph: each handle gets its own
    # from the root's periodic_handlers() once the graph is loaded.
    events = [
        queue.schedule_periodic(period, None, name=name, first_at=due)
        for name, due, period in periodics
    ]
    reader.live.update(enumerate(events), queue=queue, bus=trace)
    root = reader.load()
    handlers = root.periodic_handlers()
    for event in events:
        event.callback = handlers.get(event.name)
        if event.callback is None:
            raise CheckpointError(f"checkpoint {path!r} names unknown periodic {event.name!r}")
    return root


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
    if not 0 <= header["pickle_bytes"] <= header["payload_bytes"]:
        raise CheckpointError(
            f"malformed checkpoint header in {path!r}: field 'pickle_bytes' "
            f"must lie in [0, payload_bytes]"
        )
    return header


def _read(
    path: str, trace: Optional[TraceBus], strict_version: bool
) -> Tuple[Dict[str, Any], PausedSimulation]:
    """Read, digest-verify and unpickle a checkpoint file; returns
    ``(header, root)`` with the root stamped with the host time."""
    header = read_checkpoint_header(path)
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
        root = _load(path, header, blob, trace)
    except CheckpointError:
        raise
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
    root.wall_start = time.perf_counter()
    return header, root


# ----------------------------------------------------------------------
# The lifecycle
# ----------------------------------------------------------------------
def state_digest(root: PausedSimulation) -> str:
    """Digest of a paused root's full state, without writing a file.

    Two roots of the same experiment paused at the same virtual time
    have equal digests — the identity the recovery tests assert.  It
    hashes the live state's payload, not a result value, so it is not a
    :func:`~repro.sweep.serialize.fingerprint`.
    """
    return _encode(root)[2][:16]


def checkpoint_run(root: PausedSimulation, path: str, *, sequence: int = 1) -> str:
    """Write a crash-consistent checkpoint of a started, paused ``root``
    (between ``run_until`` steps); returns the 16-hex-char restore
    identity.  Counters are snapshotted *before* the
    ``CheckpointWritten`` event is emitted, so the event never appears
    in its own checkpoint.
    """
    blob, columns, digest = _encode(root)
    payload_bytes = len(blob) + sum(column.nbytes for column in columns)
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": root.checkpoint_kind,
        "time_us": int(root.queue.clock.now),
        "code_version": code_version_tag(),
        "payload_sha256": digest,
        "payload_bytes": payload_bytes,
        "pickle_bytes": len(blob),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
            fh.write(b"\n")
            fh.write(blob)
            for column in columns:
                fh.write(column)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        # No temp file outlives a failed write, whatever stopped it.
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CheckpointError(
                f"cannot write checkpoint {path!r}: {exc.strerror or exc}"
            ) from exc
        raise
    if root.trace is not None:
        root.trace.emit(
            CheckpointWritten(
                time_us=root.trace.now,
                target=root.checkpoint_kind,
                digest=digest[:16],
                payload_bytes=payload_bytes,
                sequence=sequence,
            )
        )
    return digest[:16]


def run_with_checkpoints(root: PausedSimulation, path: str, *, every: int = 0) -> List[str]:
    """Drive a started ``root`` to its ``duration_us``, checkpointing to
    ``path`` at step boundaries; returns the digests written, in order.

    ``every`` > 0 checkpoints after every that-many steps (epochs of a
    run, ticks of a fleet); 0 checkpoints once at the midpoint.  The
    same ``path`` is rewritten atomically each time, so the file always
    holds the latest complete snapshot — what ``daos resume`` wants
    after a crash.
    """
    n_steps = max(1, root.duration_us // root.step_us)
    if every > 0:
        boundaries = list(range(every, n_steps, every))
    else:
        boundaries = [n_steps // 2] if n_steps >= 2 else []
    digests: List[str] = []
    for sequence, step in enumerate(boundaries, start=1):
        root.run_until(step * root.step_us)
        digests.append(checkpoint_run(root, path, sequence=sequence))
    root.run_until(root.duration_us)
    return digests


def restore(
    path: str, *, trace: Optional[TraceBus] = None, strict_version: bool = True
) -> PausedSimulation:
    """Reconstruct the paused root a checkpoint holds, ready for
    ``run_until`` and ``finish`` and byte-identical in behaviour to the
    root it was taken from.  Emits no event.

    The root continues on ``trace`` if given, else on a fresh internal
    bus whenever the original had one (its counters are restored).
    ``strict_version`` refuses a file written by another code version.
    """
    return _read(path, trace, strict_version)[1]


def resume_checkpoint(
    path: str, *, trace: Optional[TraceBus] = None, strict_version: bool = True
) -> Any:
    """Restore any checkpoint and drive it to completion: one
    ``RunResumed`` event, then ``run_until`` its ``duration_us``, then
    ``finish()`` — a :class:`~repro.runner.results.RunResult` for a run,
    a :class:`~repro.fleet.result.FleetResult` for a fleet.  The engine
    behind ``daos resume FILE``; the keywords are :func:`restore`'s."""
    header, root = _read(path, trace, strict_version)
    bus = trace if trace is not None else root.trace
    if bus is not None:
        bus.emit(
            RunResumed(
                time_us=bus.now,
                target=header["kind"],
                digest=header["payload_sha256"][:16],
                checkpoint_time_us=header["time_us"],
            )
        )
    root.run_until(root.duration_us)
    return root.finish()
