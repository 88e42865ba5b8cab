"""The schemes engine: applying schemes to monitoring results.

"The engine continuously monitors the system's access pattern online via
the underlying Data Access Monitor ... For each monitoring result that
is returned, the engine checks if the scheme it has received has an
associated memory management action for the current access pattern.  If
so, it executes the management action." (§3)

The engine attaches to a :class:`~repro.monitor.core.DataAccessMonitor`
(``monitor.attach_engine(engine)``) and is invoked once per aggregation
interval, after merging/aging and user callbacks, on the live region
table — the same position ``kdamond_apply_schemes`` occupies upstream.

Each scheme's pass works on the table's columns, never on per-region
objects:

* the matching rows are one ``nonzero`` over the pattern's mask;
* under a limited quota they are ranked by one
  :func:`~repro.schemes.quotas.priority` call over the columns and a
  stable descending ``argsort`` (ties keep address order, as
  ``list.sort(reverse=True)`` would);
* tried and applied statistics are sums, and ``age = 0`` is one masked
  store over the rows the action applied to;
* the kernel is entered once per pass, through
  :meth:`~repro.sim.kernel.SimKernel.scheme_pass`, which drops rows with
  nothing for the action to act on and calls the back-end for the rest.

The pass is byte-identical to applying the scheme region by region:
the back-end still runs once per region (once per filter piece), in
order, so swap rounding, ``PageoutBatch`` and ``TierMigration`` stay
per region; the quota budget is consumed region by region in the kernel
and each charge emits its ``QuotaCharged`` before the next region's
kernel events.  :func:`~repro.schemes.actions.apply_action` is the one
scalar adapter: a one-row pass.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..sim.kernel import SimKernel
from ..trace.bus import TraceBus
from ..trace.events import QuotaCharged, SchemeApplied, WatermarkTransition
from .actions import Action, require_paddr_support
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
        ra = monitor._ra
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
            rows = scheme.pattern.match_mask(ra, attrs).nonzero()[0]
            if rows.size == 0:
                continue
            quota = scheme.quota
            limited = quota is not None and quota.limited
            if limited:
                score = priority(
                    ra.nr_accesses[rows],
                    ra.age[rows],
                    attrs.max_nr_accesses,
                    prefer_cold=scheme.action in _COLD_ACTIONS,
                    weight_nr_accesses=quota.weight_nr_accesses,
                    weight_age=quota.weight_age,
                )
                # Stable descending: ties keep address order, as
                # list.sort(reverse=True) does.
                rows = rows[np.argsort(-score, kind="stable")]
            starts = ra.start[rows]
            ends = ra.end[rows]
            pass_tried = int((ends - starts).sum())
            scheme.stats.record_tried(pass_tried, int(rows.size))
            applied = self._pass(scheme, scheme_index, starts, ends, now, phys, limited)
            pass_applied = int(applied.sum())
            if pass_applied:
                hit = applied > 0
                scheme.stats.record_applied(pass_applied, int(np.count_nonzero(hit)))
                # Aging note: the kernel resets a region's age when a
                # scheme was applied to it, so the same region is not
                # re-targeted every aggregation while its pattern decays.
                if scheme.action is not Action.STAT:
                    ra.age[rows[hit]] = 0
            if tr is not None:
                tr.emit(
                    SchemeApplied(
                        time_us=tr.now,
                        scheme_index=scheme_index,
                        action=scheme.action.value,
                        nr_regions=int(rows.size),
                        bytes_tried=pass_tried,
                        bytes_applied=pass_applied,
                    )
                )

    def _pass(self, scheme, scheme_index, starts, ends, now, phys, limited) -> np.ndarray:
        """The kernel call of one scheme pass over the matching regions
        ``[starts, ends)`` (in application order); bytes applied per
        region.  Filters expand regions into pieces, summed back per
        region; a limited quota budgets the pass and is charged region
        by region, each charge traced as it happens."""
        action = scheme.action
        if phys:
            require_paddr_support(action)
        quota = scheme.quota
        budget = quota.remaining(now) if limited else None
        on_charge = None
        if limited:
            tr = self.trace

            def on_charge(region, nbytes):
                quota.charge(nbytes, now)
                if tr is not None:
                    tr.emit(
                        QuotaCharged(
                            time_us=tr.now,
                            scheme_index=scheme_index,
                            charged_bytes=nbytes,
                            remaining_bytes=quota.remaining(now),
                        )
                    )

        regions = None
        if scheme.filters:
            pieces = [
                apply_filters(start, end, scheme.filters)
                for start, end in zip(starts.tolist(), ends.tolist())
            ]
            index = np.repeat(np.arange(len(pieces)), [len(p) for p in pieces])
            bounds = np.array([b for p in pieces for b in p], dtype=np.int64).reshape(-1, 2)
            regions = (index, starts, ends)
            starts, ends = bounds[:, 0], bounds[:, 1]
        applied = self.kernel.scheme_pass(
            action.paddr if phys else action.vaddr,
            starts,
            ends,
            now,
            unit=action.unit,
            budget=budget,
            regions=regions,
            on_charge=on_charge,
        )
        if regions is None:
            return applied
        return np.bincount(regions[0], weights=applied, minlength=regions[1].size).astype(np.int64)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line-per-scheme summary."""
        if not self.schemes:
            return "(no schemes installed)"
        return "\n".join(s.describe() for s in self.schemes)
