"""The schemes engine: applying schemes to monitoring results.

"The engine continuously monitors the system's access pattern online via
the underlying Data Access Monitor ... For each monitoring result that
is returned, the engine checks if the scheme it has received has an
associated memory management action for the current access pattern.  If
so, it executes the management action." (§3)

The engine attaches to a :class:`~repro.monitor.core.DataAccessMonitor`
(``monitor.attach_engine(engine)``) and is invoked once per aggregation
interval, after merging/aging and user callbacks, on the live region
list — the same position ``kdamond_apply_schemes`` occupies upstream.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..sim.kernel import SimKernel
from ..trace.bus import TraceBus
from ..trace.events import QuotaCharged, SchemeApplied, WatermarkTransition
from .actions import Action, apply_action
from .filters import apply_filters
from .quotas import priority
from .scheme import Scheme

__all__ = ["SchemesEngine"]

#: Actions that target cold memory; quota prioritisation inverts the
#: frequency score for these.
_COLD_ACTIONS = frozenset(
    {
        Action.PAGEOUT,
        Action.COLD,
        Action.NOHUGEPAGE,
        Action.LRU_DEPRIO,
        Action.MIGRATE_COLD,
    }
)


class SchemesEngine:
    """Applies an ordered list of schemes against one kernel."""

    def __init__(
        self,
        kernel: SimKernel,
        schemes: Optional[Iterable[Scheme]] = None,
        *,
        trace: Optional[TraceBus] = None,
        faults=None,
    ):
        self.kernel = kernel
        self.schemes: List[Scheme] = list(schemes) if schemes is not None else []
        #: Optional trace bus; apply/quota/watermark decisions emit here.
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector`; an injected
        #: ``engine_stall`` skips whole apply passes (a stuck kdamond).
        self.faults = faults

    def add(self, scheme: Scheme) -> None:
        """Append a scheme; schemes apply in installation order."""
        self.schemes.append(scheme)

    def replace_schemes(self, schemes: Iterable[Scheme]) -> None:
        """Swap the installed schemes (the auto-tuner does this between
        sampling runs); statistics of the outgoing schemes are kept by
        their owners."""
        self.schemes = list(schemes)

    # ------------------------------------------------------------------
    def apply(self, monitor, now: int) -> None:
        """One engine pass: called by the monitor at every aggregation."""
        if self.faults is not None and self.faults.engine_stalled(now):
            # Injected stall: the pass is skipped wholesale; quotas and
            # watermark state are left untouched, exactly as if the
            # kdamond never got scheduled this interval.
            return
        attrs = monitor.attrs
        # Physical-address monitors hand out frame-address regions;
        # actions must go through the rmap-based back-ends.
        phys = monitor.primitive.phys
        tr = self.trace
        for scheme_index, scheme in enumerate(self.schemes):
            if scheme.watermarks is not None:
                # Watermarks judge DRAM pressure: on a tiered machine the
                # ratio is over the fast pool (slow frames neither count
                # as free nor enlarge the denominator).
                frames = self.kernel.frames
                free_ratio = frames.free_frames() / frames.n_fast_frames
                was_active = scheme.watermarks.active
                now_active = scheme.watermarks.update(free_ratio)
                if tr is not None and now_active != was_active:
                    tr.emit(
                        WatermarkTransition(
                            time_us=tr.now,
                            scheme_index=scheme_index,
                            active=now_active,
                            free_ratio=free_ratio,
                        )
                    )
                if not now_active:
                    continue
            scheme.stats.nr_intervals += 1
            # One vectorized pattern pass over the monitor's column
            # table, then views only for the (typically few) matching rows.
            ra = monitor._ra
            mask = scheme.pattern.match_mask(ra, attrs)
            matching = [ra.view(i) for i in np.flatnonzero(mask).tolist()]
            if not matching:
                continue
            pass_tried = pass_applied = 0
            if scheme.quota is not None and scheme.quota.limited:
                quota = scheme.quota
                matching.sort(
                    key=lambda r: priority(
                        r.nr_accesses,
                        r.age,
                        attrs.max_nr_accesses,
                        prefer_cold=scheme.action in _COLD_ACTIONS,
                        weight_nr_accesses=quota.weight_nr_accesses,
                        weight_age=quota.weight_age,
                    ),
                    reverse=True,
                )
            budget = scheme.quota.remaining(now) if scheme.quota is not None else None
            for region in matching:
                scheme.stats.record_tried(region.size)
                pass_tried += region.size
                end = region.end
                if budget is not None:
                    if budget < 4096:
                        continue
                    if region.size > budget:
                        # Upstream splits the region at the budget
                        # boundary and applies to the first part.
                        end = region.start + (budget & ~4095)
                if end <= region.start:
                    continue
                # Filters may shatter the applicable range.
                pieces = (
                    apply_filters(region.start, end, scheme.filters)
                    if scheme.filters
                    else [(region.start, end)]
                )
                applied = 0
                for piece_start, piece_end in pieces:
                    applied += apply_action(
                        self.kernel, scheme.action, piece_start, piece_end, now,
                        phys=phys,
                    )
                if applied:
                    scheme.stats.record_applied(applied)
                    pass_applied += applied
                    if scheme.quota is not None:
                        scheme.quota.charge(applied, now)
                        if budget is not None:
                            budget -= applied
                        if tr is not None and scheme.quota.limited:
                            tr.emit(
                                QuotaCharged(
                                    time_us=tr.now,
                                    scheme_index=scheme_index,
                                    charged_bytes=applied,
                                    remaining_bytes=scheme.quota.remaining(now),
                                )
                            )
                # Aging note: the kernel resets a region's age when a
                # scheme was applied to it, so the same region is not
                # re-targeted every aggregation while its pattern decays.
                if applied and scheme.action is not Action.STAT:
                    region.age = 0
            if tr is not None:
                tr.emit(
                    SchemeApplied(
                        time_us=tr.now,
                        scheme_index=scheme_index,
                        action=scheme.action.value,
                        nr_regions=len(matching),
                        bytes_tried=pass_tried,
                        bytes_applied=pass_applied,
                    )
                )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line-per-scheme summary."""
        if not self.schemes:
            return "(no schemes installed)"
        return "\n".join(s.describe() for s in self.schemes)
