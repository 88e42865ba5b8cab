"""The monitoring core: a faithful port of the kdamond control loop.

Per sampling interval the monitor checks one sample page per region
(``check_accesses``) and immediately picks and clears the next sample
page (``prepare_access_checks``).  Per aggregation interval it runs, in
upstream order:

1. **merge** adjacent regions with similar access counts — this pass
   also applies the *aging* rule (stable count → ``age += 1``, changed
   count → ``age = 0``);
2. **callbacks** receive ``(monitor, now)`` (one that keeps the state
   freezes a :class:`~repro.monitor.snapshot.Snapshot` with
   :meth:`~DataAccessMonitor.snapshot`);
3. **schemes** are applied by the attached engine (if any);
4. **reset** of the per-region counters (current → ``last_nr_accesses``);
5. **split** of each region into 2 (or 3) randomly sized subregions,
   skipped when it would exceed ``max_nr_regions``;
6. **prepare** the next sample round over the fresh region list, so the
   full ``aggregation/sampling`` checks land in the next interval (a
   region whose sample page is always hot reads exactly
   ``attrs.max_nr_accesses`` when ticks are driven sample-then-aggregate;
   see :meth:`DataAccessMonitor.start` for what the event queue does).

The merge size limit (total target size / ``min_nr_regions``) guarantees
at least ``min_nr_regions`` regions survive merging; the split guard
keeps the count at or below ``max_nr_regions``.  Together they bound the
overhead from above and the accuracy from below, independent of the size
of the monitored memory — the paper's central mechanism.

Region state is one :class:`~repro.monitor.region.RegionArray` of
parallel columns; ``monitor.regions`` is that table itself, and
assigning a table installs it.

The sampling ticks the event queue has due before any other event fire
as one ``sample_tick`` call: their randomness is one block, the
primitive is asked about all of them at once, and each still does its
own counting, charging and tracing (DESIGN.md §12, "Sampling batches").
Results are bit-identical to sampling tick by tick.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..clock import EventQueue
from ..errors import MonitorStateError
from ..trace.bus import TraceBus
from ..trace.events import AccessSampled, RegionsAggregated
from .attrs import MonitorAttrs
from .primitives import MonitoringPrimitive
from .region import MIN_REGION_SIZE, RegionArray
from .snapshot import Snapshot

__all__ = ["DataAccessMonitor"]


def _probe(ask, checks: np.ndarray, window: int, period: int) -> np.ndarray:
    """``ask(addrs, window)`` for every row of ``checks``: row 0 over
    ``window``, later rows over the sampling ``period``, one call per
    distinct window."""
    if window != period and len(checks) > 1:
        rest = checks[1:]
        return np.concatenate(
            (ask(checks[0], window)[None, :], ask(rest.ravel(), period).reshape(rest.shape))
        )
    return ask(checks.ravel(), window).reshape(checks.shape)


def _count(hits: Optional[np.ndarray]) -> int:
    return int(np.count_nonzero(hits)) if hits is not None else 0


class DataAccessMonitor:
    """One monitoring context over one primitive (≈ upstream damon_ctx)."""

    def __init__(
        self,
        primitive: MonitoringPrimitive,
        attrs: Optional[MonitorAttrs] = None,
        *,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
        faults=None,
        sanitizer=None,
    ):
        self.primitive = primitive
        self.attrs = attrs if attrs is not None else MonitorAttrs()
        #: Optional trace bus; sampling/aggregation ticks emit through it.
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector` shared with the
        #: run; the sampler consults it for dropped ticks and flaky bits.
        self.faults = faults
        #: Optional :class:`repro.sanitize.SimSanitizer`;
        #: ``aggregate_tick`` calls its monitor checkpoint.
        self.sanitizer = sanitizer
        self.rng = np.random.default_rng(seed)
        self.raw_callbacks: List = []
        self.engine = None  # attached SchemesEngine, if any
        self.running = False
        self.regions = RegionArray()
        # Sampling state: addresses whose accessed bits were cleared at
        # _pending_since, to be checked at the next sampling tick.
        self._pending_since = 0
        self._seen_generation: Optional[int] = None
        # Split heuristic state (upstream: split into 3 when the region
        # count has been stuck low for two consecutive aggregations).
        self._last_nr_regions = 0
        # Lifetime statistics.
        self.total_checks = 0
        self.total_aggregations = 0
        self.total_splits = 0
        self.total_merges = 0
        self._events = []

    # ------------------------------------------------------------------
    # Region storage
    # ------------------------------------------------------------------
    @property
    def regions(self) -> RegionArray:
        """The region table.  Its columns are live: a write is seen by
        the next pass, and a structural pass (merge, split, layout
        update) replaces them."""
        return self._ra

    @regions.setter
    def regions(self, table: RegionArray) -> None:
        """Install a region table; resets the sampling state."""
        self._ra = table
        self._reset_sampling_state()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_raw_callback(self, callback) -> None:
        """Register an aggregation callback receiving ``(monitor, now)``
        after merge and before the schemes engine and counter reset.  It
        must not mutate the region list; one that keeps the state calls
        :meth:`snapshot`."""
        self.raw_callbacks.append(callback)

    def attach_engine(self, engine) -> None:
        """Attach a schemes engine, applied at every aggregation."""
        self.engine = engine

    def start(self, queue: EventQueue) -> None:
        """Initialise regions and register periodic ticks on ``queue``.

        Ticks sharing an instant fire in kdamond's order, sample →
        aggregate → regions update, and before the driver's epoch event
        (:data:`~repro.clock.SAME_INSTANT_ORDER`), so every
        aggregation interval carries its full complement of checks.
        """
        if self.running:
            raise MonitorStateError("monitor already running")
        self.init_regions()
        a = self.attrs
        self._events = [
            queue.schedule_periodic(a.sampling_interval_us, self.sample_tick, name="sample"),
            queue.schedule_periodic(
                a.aggregation_interval_us, self.aggregate_tick, name="aggregate"
            ),
            queue.schedule_periodic(
                a.regions_update_interval_us, self.regions_update_tick, name="update"
            ),
        ]
        self.running = True

    def stop(self) -> None:
        """Cancel the periodic ticks; the region state is kept."""
        for event in self._events:
            event.cancel()
        self._events = []
        self.running = False

    def tick_handlers(self) -> dict:
        """Periodic-name → bound-tick map, mirroring :meth:`start`'s
        registration names and order."""
        return {
            "sample": self.sample_tick,
            "aggregate": self.aggregate_tick,
            "update": self.regions_update_tick,
        }

    # ------------------------------------------------------------------
    # Region initialisation and layout updates
    # ------------------------------------------------------------------
    def init_regions(self) -> None:
        """Derive initial regions: each target range evenly split so the
        total lands near ``min_nr_regions`` (upstream damon_va_init)."""
        ranges = self.primitive.target_ranges()
        self._seen_generation = self.primitive.layout_generation()
        total = sum(end - start for start, end in ranges)
        starts: List[int] = []
        ends: List[int] = []
        for start, end in ranges:
            share = max(1, round(self.attrs.min_nr_regions * (end - start) / total))
            cuts = self._evenly_split(start, end, share)
            starts += cuts
            ends += cuts[1:] + [end]
        self.regions = RegionArray.from_bounds(starts, ends)

    @staticmethod
    def _evenly_split(start: int, end: int, pieces: int) -> List[int]:
        """The row starts of ``[start, end)`` cut into at most ``pieces``
        rows of one page-aligned step, the last row taking the rest."""
        size = end - start
        pieces = max(1, min(pieces, size // MIN_REGION_SIZE))
        if pieces <= 1:
            return [start]
        step = max((size // pieces) & ~(MIN_REGION_SIZE - 1), MIN_REGION_SIZE)
        # No step may leave a last row below the minimum size.
        pieces = min(pieces, (size - MIN_REGION_SIZE) // step + 1)
        return list(range(start, start + pieces * step, step))

    def regions_update_tick(self, now: int) -> None:
        """Re-derive target ranges when the layout changed (mmap/munmap,
        hotplug); surviving regions keep their counters."""
        generation = self.primitive.layout_generation()
        if generation == self._seen_generation:
            return
        self._seen_generation = generation
        ranges = self.primitive.target_ranges()
        self.regions = self._ra.clipped_to(ranges)
        if self._ra.n == 0:
            self.init_regions()
        self._reset_sampling_state(now)

    def _reset_sampling_state(self, now: Optional[int] = None) -> None:
        """Clear the accumulators; with ``now`` given, also prepare the
        next sample round immediately (pick and "clear" sample pages),
        so no sampling tick is spent merely preparing."""
        self._addrs: Optional[np.ndarray] = None
        if now is not None:
            self._addrs = self._ra.pick_sampling_addrs(self.rng)
            self._pending_since = now
        self._acc = np.zeros(self._ra.n, dtype=np.int64)
        self._wacc = np.zeros(self._ra.n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Sampling tick: check previous sample pages, prepare the next
    # ------------------------------------------------------------------
    def sample_tick(self, now: int) -> None:
        """Serve the sampling intervals due from ``now``: each checks the
        pending sample pages, then picks (and clears) the next ones.

        Dispatched by the event queue, one call serves every interval
        due before any other pending event
        (:meth:`~repro.clock.EventQueue.run_ahead`), so nothing can change
        what a probe answers between them.  A direct call serves one, and
        so does a run with a fault injector, whose drops and flaky bits
        are decided tick by tick.
        """
        faults = self.faults
        rows, clock = 1, None
        if faults is None and self._events:
            event = self._events[0]
            rows, clock = event.queue.run_ahead(event), event.queue.clock
        # An injected drop_sample fault loses the whole tick's checks
        # (a missed kdamond wakeup): counters stay put, the next sample
        # round is still prepared.
        dropped = faults is not None and faults.drop_sample_tick(now)
        addrs = self._addrs
        if dropped or addrs is None or addrs.size != self._ra.n:
            # Nothing valid is pending: the first interval only picks.
            self._sample_rows(now, 1, None, clock)
            rows -= 1
            now += self.attrs.sampling_interval_us
            addrs = self._addrs
        if rows:
            self._sample_rows(now, rows, addrs, clock)

    def _sample_rows(self, now: int, rows: int, addrs, clock) -> None:
        """``rows`` consecutive sampling intervals from ``now``, one row
        each, over the fixed region layout; ``addrs`` are the addresses
        pending for row 0 (``None``: row 0 only picks).

        ``rng.random((rows, draws, n))`` yields exactly the doubles of
        ``rows * draws`` consecutive ``rng.random(n)`` calls, in the
        per-tick order: hit uniforms, write-hit uniforms (``track_writes``
        only), pick uniforms.  Row ``j`` checks what row ``j - 1``
        picked, and the primitive is asked once per distinct window
        (only row 0's can differ).  Everything a tick *does* (counters,
        charge, pending state, trace) still happens per row, at the
        row's instant.
        """
        attrs = self.attrs
        period = attrs.sampling_interval_us
        draws = 1 if addrs is None else 3 if attrs.track_writes else 2
        block = self.rng.random((rows, draws, self._ra.n))
        picks = self._ra.sampling_addrs(block[:, -1])
        hits = whits = None
        if addrs is not None:
            checks = np.concatenate((addrs[None, :], picks[:-1]))
            window = now - self._pending_since
            primitive = self.primitive
            hits = block[:, 0] < _probe(primitive.access_probabilities, checks, window, period)
            if attrs.track_writes:
                whits = block[:, 1] < _probe(
                    primitive.write_probabilities, checks, window, period
                )
        faults, tr = self.faults, self.trace
        for row in range(rows):
            when = now + row * period
            if clock is not None:
                clock.advance_to(when)
            checked = 0
            row_hits = row_whits = None
            if hits is not None:
                row_hits = hits[row]
                flaky = None if faults is None else faults.flaky_bit_mask(when, row_hits.size)
                if flaky is not None:
                    # A lost PTE read clears both channels of the sample.
                    row_hits &= ~flaky
                self._acc += row_hits
                if whits is not None:
                    row_whits = whits[row]
                    if flaky is not None:
                        row_whits &= ~flaky
                    self._wacc += row_whits
                checked = row_hits.size
                self.total_checks += checked
            # The kdamond wakeup itself costs CPU even on a tick that
            # only prepares the next sample round.
            self.primitive.charge_checks(checked, wakeups=1)
            # prepare_access_checks: pick and clear next sample pages.
            self._addrs = picks[row]
            self._pending_since = when
            if tr is not None:
                if tr.wants(AccessSampled):
                    tr.emit(
                        AccessSampled(
                            time_us=tr.now,
                            nr_regions=self._ra.n,
                            checked=checked,
                            hits=_count(row_hits),
                            write_hits=_count(row_whits),
                        )
                    )
                else:
                    tr.count(AccessSampled)

    # ------------------------------------------------------------------
    # Aggregation tick: merge/age → callbacks → schemes → reset → split
    # ------------------------------------------------------------------
    def aggregate_tick(self, now: int) -> None:
        """One aggregation interval: merge/age, callbacks, schemes,
        counter reset, split, next-round prepare — in upstream kdamond
        order."""
        # Publish accumulated counts (and the last pending sample
        # addresses, for introspection) into the region table.  Raises
        # MonitorStateError if the accumulators have diverged in length
        # from the region list (a callback mutating regions mid-interval
        # used to be silently zip-truncated here).
        addrs = self._addrs
        if addrs is not None and addrs.size != self._ra.n:
            addrs = None
        self._ra.publish(self._acc, self._wacc, addrs)
        max_seen = int(self._acc.max()) if self._acc.size else 0

        threshold = max(1, max_seen // 10)
        merges_before = self.total_merges
        self._merge_regions(threshold)
        tr = self.trace
        if tr is not None:
            if tr.wants(RegionsAggregated):
                # Emitted after merge/age and before callbacks, so bus
                # subscribers see the same region state callbacks do.
                tr.emit(
                    RegionsAggregated(
                        time_us=tr.now,
                        nr_regions=self._ra.n,
                        total_bytes=self._ra.total_bytes(),
                        max_nr_accesses=self.attrs.max_nr_accesses,
                        nr_merges=self.total_merges - merges_before,
                    )
                )
            else:
                tr.count(RegionsAggregated)

        for raw in self.raw_callbacks:
            raw(self, now)
        if self.engine is not None:
            self.engine.apply(self, now)

        self._ra.reset_counters()
        self._split_regions()
        # Prepare the next sample round *now* (over the post-split
        # regions): the next interval gets its full complement of
        # aggregation/sampling checks.
        self._reset_sampling_state(now)
        self.total_aggregations += 1
        if self.sanitizer is not None:
            self.sanitizer.checkpoint_monitor(self, now)

    def snapshot(self, now: int) -> Snapshot:
        """Freeze the current region state for callbacks/analysis."""
        ra = self._ra
        return Snapshot.from_columns(
            now,
            ra.start,
            ra.end,
            ra.nr_accesses,
            ra.age,
            ra.nr_writes,
            self.attrs.max_nr_accesses,
        )

    # -- merge (with aging) ---------------------------------------------
    def _merge_size_limit(self) -> int:
        return max(MIN_REGION_SIZE, self._ra.total_bytes() // self.attrs.min_nr_regions)

    def _merge_regions(self, threshold: int) -> None:
        """Upstream damon_merge_regions_of: age every region, then fold
        adjacent regions whose counts differ by at most ``threshold``,
        capping merged size so at least ``min_nr_regions`` survive."""
        if self._ra.n == 0:
            return
        self.total_merges += self._ra.age_and_merge(threshold, self._merge_size_limit())

    # -- split -----------------------------------------------------------
    def _split_regions(self) -> None:
        """Upstream kdamond_split_regions: probe for intra-region skew by
        splitting every region at a random point, unless the count is
        already above half the maximum."""
        nr = self._ra.n
        if nr > self.attrs.max_nr_regions // 2:
            self._last_nr_regions = nr
            return
        subregions = 2
        if nr < self.attrs.max_nr_regions // 3 and nr == self._last_nr_regions:
            subregions = 3
        self.total_splits += self._ra.split(self.rng, subregions)
        self._last_nr_regions = nr

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nr_regions(self) -> int:
        """Current region count (bounded by the configured maximum)."""
        return self._ra.n

    def check_invariants(self) -> None:
        """Assert the structural invariants the property tests rely on.

        When the monitor tracks a primitive whose layout has not changed
        since the last regions update, this includes the tiling
        invariant: the regions cover the target ranges byte for byte
        (mapped memory is never silently dropped from monitoring).
        """
        ranges = None
        if (
            self.primitive is not None
            and self._seen_generation is not None
            and self.primitive.layout_generation() == self._seen_generation
        ):
            ranges = self.primitive.target_ranges()
        self._ra.check_invariants(ranges)
