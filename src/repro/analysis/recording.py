"""Persistent monitoring records (the userspace tooling's file format).

The upstream tooling records monitoring results to a file and generates
reports (heatmaps, WSS distributions) from it offline.  This module
provides the equivalent: serialise recorded snapshots to a compact JSON
document, load them back, and export heatmaps as portable graymap (PGM)
images — all dependency-free.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ConfigError, ParseError
from ..monitor.snapshot import Snapshot
from .heatmap import Heatmap

__all__ = ["save_record", "read_record", "load_record", "heatmap_to_pgm"]

#: Format marker so future revisions can evolve the layout.
_FORMAT = "daos-record-v1"


def save_record(
    snapshots: Sequence[Snapshot],
    path: Union[str, Path],
    *,
    workload: str = "",
    machine: str = "",
    extra: Optional[dict] = None,
) -> Path:
    """Write snapshots to ``path`` as a JSON record.

    Regions are stored as flat ``[start, end, nr_accesses, age]`` rows to
    keep multi-thousand-region records compact.
    """
    if not snapshots:
        raise ConfigError("refusing to save an empty record")
    document = {
        "format": _FORMAT,
        "workload": workload,
        "machine": machine,
        "extra": extra or {},
        "max_nr_accesses": snapshots[0].max_nr_accesses,
        "snapshots": [
            {
                "time_us": snap.time_us,
                "regions": list(zip(snap.start, snap.end, snap.nr_accesses, snap.age)),
            }
            for snap in snapshots
        ],
    }
    # Write a sibling temp file and rename it over ``path``: a write
    # that fails part-way leaves the previous record whole.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(document, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_record(path: Union[str, Path]) -> Optional[Tuple[dict, List[Snapshot]]]:
    """One read of a record file: ``(metadata, snapshots)``.

    The metadata holds ``workload``, ``machine``, ``extra`` and
    ``nr_snapshots``.  Returns ``None`` when the file is readable but is
    no ``daos-record-v1`` document (a trace, say); raises
    :class:`~repro.errors.ParseError` naming the file when it cannot be
    read or its record document is malformed.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        return None
    try:
        max_nr = int(document["max_nr_accesses"])
        snapshots = [
            Snapshot.from_rows(
                int(entry["time_us"]),
                [(int(s), int(e), int(n), int(a), 0) for s, e, n, a in entry["regions"]],
                max_nr,
            )
            for entry in document["snapshots"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed {_FORMAT} record: {exc!r}") from None
    if not snapshots:
        raise ParseError(f"{path} contains no snapshots")
    metadata = {
        "workload": document.get("workload", ""),
        "machine": document.get("machine", ""),
        "extra": document.get("extra", {}),
        "nr_snapshots": len(snapshots),
    }
    return metadata, snapshots


def load_record(path: Union[str, Path]) -> List[Snapshot]:
    """Load snapshots from a record written by :func:`save_record`."""
    record = read_record(path)
    if record is None:
        raise ParseError(f"{path} is not a {_FORMAT} record")
    return record[1]


def heatmap_to_pgm(heatmap: Heatmap, path: Union[str, Path], *, scale: int = 4) -> Path:
    """Export a heatmap as a binary PGM image (time → x, address → y,
    intensity → gray level), viewable by any image tool.

    ``scale`` enlarges each cell to ``scale × scale`` pixels.
    """
    if scale < 1:
        raise ConfigError(f"scale must be >= 1: {scale}")
    grid = heatmap.grid
    peak = grid.max()
    norm = grid / peak if peak > 0 else grid
    width = heatmap.time_bins * scale
    height = heatmap.addr_bins * scale
    rows = bytearray()
    for y in range(heatmap.addr_bins - 1, -1, -1):  # high addresses on top
        row = bytearray()
        for t in range(heatmap.time_bins):
            level = int(round(norm[t, y] * 255))
            row.extend([level] * scale)
        for _ in range(scale):
            rows.extend(row)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    path = Path(path)
    path.write_bytes(header + bytes(rows))
    return path
