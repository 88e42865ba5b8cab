"""Access-pattern heatmaps (paper Figure 6).

A heatmap shows *when* (x: time) *which* memory (y: address) was *how
frequently* (value) accessed, built from the monitor's recorded
aggregation snapshots.  As in the paper, the y-range is clipped to the
biggest mapped subspace that shows activity — a process address space
has two huge gaps (heap | mmap | stack) that would otherwise blank the
plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..monitor.snapshot import Snapshot

__all__ = ["Heatmap", "build_heatmap", "render_heatmap"]

#: Intensity ramp used by the ASCII renderer.
_RAMP = " .:-=+*#%@"


@dataclass
class Heatmap:
    """A rasterised access-frequency matrix.

    ``grid[t, y]`` is the mean access frequency (0–1) of address bucket
    ``y`` during time bucket ``t``.
    """

    grid: np.ndarray  # shape (time_bins, addr_bins), float64 in [0, 1]
    t0_us: int
    t1_us: int
    addr_lo: int
    addr_hi: int

    @property
    def time_bins(self) -> int:
        return self.grid.shape[0]

    @property
    def addr_bins(self) -> int:
        return self.grid.shape[1]


def _active_span(snapshots: Sequence[Snapshot]) -> Tuple[int, int]:
    """The largest contiguous address span with any recorded activity.

    Mirrors the paper's "find and visualize the biggest subspace of each
    workload that shows active access patterns": spans are separated by
    the big layout gaps (> 1/4 of the total span).
    """
    # Collect region boundaries from the last snapshot to find the gaps.
    # Monitor regions tile each target range without holes, so any gap
    # bigger than a fraction of the *mapped* bytes is a layout gap
    # (heap | mmap | stack), not pattern structure.
    regions = sorted(zip(snapshots[-1].start, snapshots[-1].end))
    spans: List[Tuple[int, int]] = []
    span_start, prev_end = regions[0][0], regions[0][1]
    mapped = sum(end - start for start, end in regions)
    threshold = max(1, mapped // 4)
    for start, end in regions[1:]:
        if start - prev_end > threshold:
            spans.append((span_start, prev_end))
            span_start = start
        prev_end = max(prev_end, end)
    spans.append((span_start, prev_end))

    def activity(span):
        s_lo, s_hi = span
        total = 0.0
        for snap in snapshots:
            for start, end, nr in zip(snap.start, snap.end, snap.nr_accesses):
                if start < s_hi and end > s_lo:
                    total += (min(end, s_hi) - max(start, s_lo)) * nr
        return total

    return max(spans, key=activity)


def build_heatmap(
    snapshots: Sequence[Snapshot],
    *,
    time_bins: int = 80,
    addr_bins: int = 40,
) -> Heatmap:
    """Rasterise recorded snapshots into a :class:`Heatmap`."""
    snapshots = [s for s in snapshots if s.start]
    if not snapshots:
        raise ConfigError("no snapshots to build a heatmap from")
    if time_bins < 1 or addr_bins < 1:
        raise ConfigError("heatmap needs at least one bin per axis")
    addr_lo, addr_hi = _active_span(snapshots)
    if addr_hi <= addr_lo:
        raise ConfigError(f"empty address range [{addr_lo:#x}, {addr_hi:#x})")
    t0 = snapshots[0].time_us
    t1 = snapshots[-1].time_us
    span_t = max(1, t1 - t0)
    grid = np.zeros((time_bins, addr_bins), dtype=np.float64)
    weight = np.zeros((time_bins, addr_bins), dtype=np.float64)
    bucket_bytes = (addr_hi - addr_lo) / addr_bins

    for snap in snapshots:
        t_bin = min(time_bins - 1, int((snap.time_us - t0) / span_t * time_bins))
        max_nr = max(1, snap.max_nr_accesses)
        for start, end, nr in zip(snap.start, snap.end, snap.nr_accesses):
            if end <= addr_lo or start >= addr_hi:
                continue
            y0 = max(0, int((start - addr_lo) / bucket_bytes))
            y1 = min(addr_bins, int(np.ceil((end - addr_lo) / bucket_bytes)))
            freq = min(1.0, nr / max_nr)
            size = end - start
            grid[t_bin, y0:y1] += freq * size
            weight[t_bin, y0:y1] += size
    nonzero = weight > 0
    grid[nonzero] /= weight[nonzero]
    # Forward-fill empty time columns (snapshot stride coarser than bins).
    for t in range(1, time_bins):
        if not weight[t].any():
            grid[t] = grid[t - 1]
    return Heatmap(grid=grid, t0_us=t0, t1_us=t1, addr_lo=addr_lo, addr_hi=addr_hi)


def render_heatmap(heatmap: Heatmap, *, title: str = "") -> str:
    """ASCII rendering: time left→right, addresses bottom→top, intensity
    via a 10-step character ramp (the terminal stand-in for Figure 6)."""
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"addr [{heatmap.addr_lo:#x}, {heatmap.addr_hi:#x})  "
        f"time [{heatmap.t0_us / 1e6:.1f}s, {heatmap.t1_us / 1e6:.1f}s]"
    )
    peak = heatmap.grid.max()
    scale = 1.0 / peak if peak > 0 else 0.0
    for y in range(heatmap.addr_bins - 1, -1, -1):
        row = heatmap.grid[:, y] * scale
        chars = [_RAMP[min(len(_RAMP) - 1, int(v * (len(_RAMP) - 1) + 0.5))] for v in row]
        lines.append("|" + "".join(chars) + "|")
    lines.append("+" + "-" * heatmap.time_bins + "+")
    return "\n".join(lines)
