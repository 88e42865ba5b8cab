"""Working-set-size estimation from monitoring snapshots.

Table 1 names WSS estimation as the purpose of the STAT action: count
the bytes matching a hot-pattern per aggregation interval and read the
distribution.  This module provides the same estimate straight from
recorded snapshots (the tooling path), complementing the STAT-scheme
path in :mod:`repro.schemes.stats`.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import ConfigError
from ..monitor.snapshot import Snapshot

__all__ = ["wss_from_snapshots"]


def wss_from_snapshots(
    snapshots: Sequence[Snapshot],
    *,
    min_frequency: float = 0.05,
) -> Dict[str, float]:
    """Working-set-size distribution over time.

    A snapshot's WSS is the total size of regions whose access frequency
    is at least ``min_frequency``.  Returns the quartiles ``p0`` ..
    ``p100`` plus the mean, in bytes.
    """
    if not snapshots:
        raise ConfigError("no snapshots to estimate WSS from")
    if not 0.0 <= min_frequency <= 1.0:
        raise ConfigError(f"min_frequency must be in [0, 1]: {min_frequency}")
    series = np.array(
        [snap.hot_bytes(min_frequency) for snap in snapshots], dtype=np.float64
    )
    out = {f"p{int(q)}": float(np.percentile(series, q)) for q in (0, 25, 50, 75, 100)}
    out["mean"] = float(series.mean())
    return out
