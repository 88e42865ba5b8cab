"""Write-ahead journal for sweeps and sharded fleet runs.

One directory, one ``journal.jsonl``: line 1 is a header (format tag,
code-version tag, grid digest, point count), every later line is one
*completed* point — its cache key, canonical-JSON value and attempt
count — flushed to disk before the runner moves on.  A crash (even
``SIGKILL``) therefore loses at most the points that were in flight;
``--resume`` replays every journaled point and re-executes only the
rest.

Safety properties:

* **append-only, line-framed** — a torn final line (the crash landed
  mid-``write``) is detected by its failed JSON parse and dropped;
  every earlier line is intact by construction (each record is one
  ``write`` + ``flush`` + ``fsync``);
* **fingerprint-checked** — points are matched by their cache key,
  which embeds the :func:`~repro.sweep.cache.code_version_tag`; a
  journal written by different code simply matches nothing and the
  sweep re-executes, never replaying stale results;
* **failure-free** — only successful outcomes are journaled, so a
  resume retries failures for free.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import CheckpointError

__all__ = ["JOURNAL_FORMAT", "SweepJournal"]

#: Format tag in the journal header; bump on layout breaks.
JOURNAL_FORMAT = "daos-journal-v1"


class SweepJournal:
    """The write-ahead journal behind ``daos sweep --journal/--resume``."""

    def __init__(self, directory: str):
        self.dir = Path(directory).expanduser()
        self.path = self.dir / "journal.jsonl"
        self._fh = None

    # ------------------------------------------------------------------
    # replay (reader) side
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replayable entries keyed by cache key; empty if no journal.

        Duplicate keys keep the last record (a point journaled, crashed
        during a later re-run and journaled again is still one point).
        """
        if not self.path.exists():
            return {}
        entries: Dict[str, Dict[str, Any]] = {}
        with open(self.path, "r", encoding="utf-8") as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except ValueError as exc:
                raise CheckpointError(
                    f"malformed journal header in {self.path}"
                ) from exc
            if header.get("format") != JOURNAL_FORMAT:
                raise CheckpointError(
                    f"{self.path} is not a {JOURNAL_FORMAT} journal "
                    f"(format={header.get('format')!r})"
                )
            for line in fh:
                try:
                    record = json.loads(line)
                except ValueError:
                    # Torn tail: the crash landed mid-write.  Only the
                    # final line can be torn; everything before it was
                    # fsynced whole.
                    break
                entries[record["key"]] = record
        return entries

    # ------------------------------------------------------------------
    # write-ahead (writer) side
    # ------------------------------------------------------------------
    def _repair(self) -> None:
        """Truncate a torn final line before appending.

        Without this, appending after a crash would concatenate the torn
        fragment with the next record, corrupting one journal line.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        good = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                json.loads(line)
            except ValueError:
                break
            good += len(line)
        if good != len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())

    def open(
        self, *, version_tag: str, grid_digest: str, n_points: int
    ) -> None:
        """Open for appending, repairing any torn tail and writing the
        header if the file is new."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self._repair()
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line(
                {
                    "format": JOURNAL_FORMAT,
                    "version_tag": version_tag,
                    "grid_digest": grid_digest,
                    "n_points": int(n_points),
                }
            )

    def record(
        self,
        *,
        index: int,
        key: str,
        encoded: str,
        attempts: int,
        wall_s: float,
    ) -> None:
        """Journal one completed point; durable before this returns."""
        assert self._fh is not None, "open() must run before record()"
        self._write_line(
            {
                "index": int(index),
                "key": key,
                "encoded": encoded,
                "attempts": int(attempts),
                "wall_s": float(wall_s),
            }
        )

    def _write_line(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the journal file; safe to call more than once."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None
