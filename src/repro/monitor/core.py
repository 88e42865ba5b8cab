"""The monitoring core: a faithful port of the kdamond control loop.

Per sampling interval the monitor checks one sample page per region
(``check_accesses``) and immediately picks and clears the next sample
page (``prepare_access_checks``).  Per aggregation interval it runs, in
upstream order:

1. **merge** adjacent regions with similar access counts — this pass
   also applies the *aging* rule (stable count → ``age += 1``, changed
   count → ``age = 0``);
2. **callbacks** receive a frozen :class:`~repro.monitor.snapshot.Snapshot`;
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

Region state lives in a struct-of-arrays
:class:`~repro.monitor.region.RegionArray`; ``monitor.regions`` hands
out fresh write-through :class:`~repro.monitor.region.RegionView`
objects on every read.

Between two aggregations the region layout is fixed, so the sample
addresses and hit uniforms of every sampling tick in the interval depend
only on the monitor's RNG and the region columns.  :class:`_SamplePlan`
draws them in one block and asks the primitive about all rounds at once;
each ``sample_tick`` then consumes one row (DESIGN.md §12, "Sampling
lookahead").  Results are bit-identical to drawing tick by tick.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional

import numpy as np

from ..clock import EventQueue
from ..errors import MonitorStateError
from ..trace.bus import TraceBus
from ..trace.events import AccessSampled, RegionsAggregated
from .attrs import MonitorAttrs
from .primitives import MonitoringPrimitive
from .region import MIN_REGION_SIZE, Region, RegionArray, regions_intersecting
from .snapshot import Snapshot

__all__ = ["DataAccessMonitor"]


class _SamplePlan:
    """The randomness of ``rounds`` consecutive sampling ticks over one
    fixed region layout, drawn as one block from the monitor's stream.

    ``rng.random((rounds, draws, n))`` yields exactly the doubles of
    ``rounds * draws`` consecutive ``rng.random(n)`` calls, in the
    per-tick order: hit uniforms, write-hit uniforms (``track_writes``
    only), pick uniforms.  Row ``j`` checks the addresses row ``j - 1``
    picked; row 0 checks the addresses pending when the plan was made.
    With ``addrs`` of ``None`` the single row only picks (nothing valid
    is pending), as the tick-by-tick sampler did.
    """

    __slots__ = (
        "attrs",
        "rng_state",
        "block",
        "rounds",
        "cursor",
        "due",
        "since",
        "window0",
        "picks",
        "check_addrs",
        "probs",
        "hits",
        "generation",
    )

    def __init__(self, rng, ra, rounds, addrs, attrs, now, since):
        self.attrs = attrs
        draws = 1 if addrs is None else 3 if attrs.track_writes else 2
        #: Generator state before the block, for :meth:`rewind` (a
        #: one-round plan is spent by the tick that draws it).
        self.rng_state = rng.bit_generator.state if rounds > 1 else None
        self.block = rng.random((rounds, draws, ra.n))
        self.rounds = rounds
        #: Rows served so far.
        self.cursor = 0
        #: The ``now`` and ``_pending_since`` the next row was planned
        #: for; a tick arriving with anything else ends the plan.
        self.due = now
        self.since = since
        #: Row 0's check window; every later row's is the sampling
        #: interval, which ``due``/``since`` enforce.
        self.window0 = now - since
        self.picks = ra.sampling_addrs(self.block[:, -1])
        if addrs is not None:
            addrs = addrs[None, :]
            if rounds > 1:
                addrs = np.concatenate((addrs, self.picks[:-1]))
        self.check_addrs = addrs
        #: Planned probabilities and the hits they give, ``(rounds, n)``.
        self.probs = self.hits = None
        #: ``primitive.probe_generation()`` when ``probs`` was last
        #: resolved; every row from that tick on holds under it.
        self.generation = None

    def window(self, row: int) -> int:
        """The check window row ``row`` was planned over."""
        return self.window0 if row == 0 else self.attrs.sampling_interval_us

    def resolve(self, row: int, primitive, generation) -> None:
        """Ask the primitive about rows ``row`` onwards and settle their
        hits: one call per distinct window (only row 0's can differ)."""
        ask = primitive.access_probabilities
        addrs = self.check_addrs[row:]
        window, period = self.window(row), self.attrs.sampling_interval_us
        if window != period and len(addrs) > 1:
            rest = addrs[1:]
            probs = np.concatenate(
                (
                    ask(addrs[0], window)[None, :],
                    ask(rest.ravel(), period).reshape(rest.shape),
                )
            )
        else:
            probs = ask(addrs.ravel(), window).reshape(addrs.shape)
        hits = self.block[row:, 0] < probs
        if row == 0:
            self.probs, self.hits = probs, hits
        else:  # the generation moved under a live plan: redo what is left
            self.probs[row:] = probs
            self.hits[row:] = hits
        self.generation = generation

    def rewind(self, rng) -> None:
        """Put ``rng`` where tick-by-tick draws would stand after the
        rows served so far: back to the state before the block, then
        past exactly the doubles those rows consumed."""
        rng.bit_generator.state = self.rng_state
        rng.random(self.cursor * self.block[0].size)


class DataAccessMonitor:
    """One monitoring context over one primitive (≈ upstream damon_ctx)."""

    #: The sampling lookahead in force (see :class:`_SamplePlan`); a
    #: finished one stays until the next sampling tick replaces it, for
    #: the sanitizer's cross-check.  Never pickled: a class-level default,
    #: so a restored monitor (or a checkpoint written before plans
    #: existed) reads ``None`` and simply plans again.
    _plan: Optional[_SamplePlan] = None

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
        self.callbacks: List[Callable[[Snapshot], None]] = []
        self.raw_callbacks: List = []
        self.engine = None  # attached SchemesEngine, if any
        self.running = False
        self.regions = []  # installs an empty RegionArray via the setter
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
    # Region storage: struct-of-arrays with an object-view façade
    # ------------------------------------------------------------------
    @property
    def regions(self) -> List:
        """The region list as write-through views over the backing
        :class:`RegionArray`: a fresh list per read, positional, stale
        after the next structural pass."""
        return self._ra.views()

    @regions.setter
    def regions(self, value) -> None:
        """Install a new region list (tests and layout updates assign
        plain :class:`Region` lists here); resets the sampling state."""
        self._close_plan()
        self._ra = RegionArray.from_regions(list(value))
        self._addrs: Optional[np.ndarray] = None
        self._acc = np.zeros(self._ra.n, dtype=np.int64)
        self._wacc = np.zeros(self._ra.n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_callback(self, callback: Callable[[Snapshot], None]) -> None:
        """Register an aggregation callback (invoked before counter reset)."""
        self.callbacks.append(callback)

    def register_raw_callback(self, callback) -> None:
        """Register a callback receiving ``(monitor, now)`` instead of a
        frozen snapshot.  Raw callbacks avoid the per-aggregation cost of
        materialising a snapshot; they must not mutate the region list."""
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
        registration names.  Checkpoint restore uses it to re-register
        the monitor's pending ticks on a fresh queue."""
        return {
            "sample": self.sample_tick,
            "aggregate": self.aggregate_tick,
            "update": self.regions_update_tick,
        }

    def adopt_events(self, events) -> None:
        """Adopt re-registered periodic handles after a checkpoint
        restore.  Unlike :meth:`start` this must *not* re-derive the
        region layout — the restored RegionArray (ages, access counts,
        sampling addresses) is the monitor's state."""
        if self.running:
            raise MonitorStateError("monitor already running")
        self._events = list(events)
        self.running = True

    # ------------------------------------------------------------------
    # Region initialisation and layout updates
    # ------------------------------------------------------------------
    def init_regions(self) -> None:
        """Derive initial regions: each target range evenly split so the
        total lands near ``min_nr_regions`` (upstream damon_va_init)."""
        ranges = self.primitive.target_ranges()
        self._seen_generation = self.primitive.layout_generation()
        total = sum(end - start for start, end in ranges)
        out: List[Region] = []
        for start, end in ranges:
            share = max(1, round(self.attrs.min_nr_regions * (end - start) / total))
            out.extend(self._evenly_split(start, end, share))
        self.regions = out

    @staticmethod
    def _evenly_split(start: int, end: int, pieces: int) -> List[Region]:
        size = end - start
        pieces = max(1, min(pieces, size // MIN_REGION_SIZE))
        if pieces <= 1:
            return [Region(start, end)]
        step = (size // pieces) & ~(MIN_REGION_SIZE - 1)
        step = max(step, MIN_REGION_SIZE)
        out = []
        cursor = start
        for _ in range(pieces - 1):
            if end - (cursor + step) < MIN_REGION_SIZE:
                break
            out.append(Region(cursor, cursor + step))
            cursor += step
        out.append(Region(cursor, end))
        return out

    def regions_update_tick(self, now: int) -> None:
        """Re-derive target ranges when the layout changed (mmap/munmap,
        hotplug); surviving regions keep their counters."""
        generation = self.primitive.layout_generation()
        if generation == self._seen_generation:
            return
        self._seen_generation = generation
        ranges = self.primitive.target_ranges()
        self.regions = regions_intersecting(self._ra.to_regions(), ranges)
        if self._ra.n == 0:
            self.init_regions()
        self._reset_sampling_state(now)

    def _reset_sampling_state(self, now: Optional[int] = None) -> None:
        """Clear the accumulators; with ``now`` given, also prepare the
        next sample round immediately (pick and "clear" sample pages),
        so no sampling tick is spent merely preparing."""
        self._acc = np.zeros(self._ra.n, dtype=np.int64)
        self._wacc = np.zeros(self._ra.n, dtype=np.int64)
        if now is None:
            self._addrs = None
        else:
            self._addrs = self._ra.pick_sampling_addrs(self.rng)
            self._pending_since = now

    # ------------------------------------------------------------------
    # Sampling tick: check previous sample pages, prepare the next
    # ------------------------------------------------------------------
    def sample_tick(self, now: int) -> None:
        """One sampling interval: check the pending sample pages, then
        pick (and clear) the next round's sample pages.

        The randomness and the probabilities come from the current
        :class:`_SamplePlan` row; everything a tick *does* (counters,
        charge, pending state, trace) still happens here, per tick.
        """
        faults = self.faults
        # An injected drop_sample fault loses the whole tick's checks
        # (a missed kdamond wakeup): counters stay put, the next sample
        # round is still prepared below.
        dropped = faults is not None and faults.drop_sample_tick(now)
        generation = self.primitive.probe_generation()
        plan = self._plan
        if (
            plan is None
            or plan.cursor == plan.rounds
            or now != plan.due
            or self._pending_since != plan.since
            or plan.attrs is not self.attrs
            or faults is not None
        ):
            plan = self._begin_plan(now, dropped, generation)
        row = plan.cursor
        checked = 0
        hits = whits = None
        if plan.check_addrs is not None:
            if plan.hits is None or generation != plan.generation:
                plan.resolve(row, self.primitive, generation)
            hits = plan.hits[row]
            if faults is not None:
                flaky = faults.flaky_bit_mask(now, hits.size)
            else:
                flaky = None
            if flaky is not None:
                # A lost PTE read clears both channels of the sample.
                hits &= ~flaky
            self._acc += hits
            if self.attrs.track_writes:
                wprobs = self.primitive.write_probabilities(
                    plan.check_addrs[row], plan.window(row)
                )
                whits = plan.block[row, 1] < wprobs
                if flaky is not None:
                    whits &= ~flaky
                self._wacc += whits
            checked = hits.size
            self.total_checks += checked
        # The kdamond wakeup itself costs CPU even on a tick that only
        # prepares the next sample round.
        self.primitive.charge_checks(checked, wakeups=1)
        # prepare_access_checks: pick and clear next sample pages.
        self._addrs = plan.picks[row]
        self._pending_since = plan.since = now
        plan.due = now + self.attrs.sampling_interval_us
        plan.cursor = row + 1
        tr = self.trace
        if tr is not None:
            if tr.wants(AccessSampled):
                tr.emit(
                    AccessSampled(
                        time_us=tr.now,
                        nr_regions=self._ra.n,
                        checked=checked,
                        hits=int(np.count_nonzero(hits)) if hits is not None else 0,
                        write_hits=(
                            int(np.count_nonzero(whits)) if whits is not None else 0
                        ),
                    )
                )
            else:
                tr.count(AccessSampled)

    def _begin_plan(self, now: int, dropped: bool, generation) -> _SamplePlan:
        """Draw the next plan.  It looks a whole aggregation interval
        ahead only when the primitive can say whether its answer moved
        (``generation``), no fault injector wants a say per tick
        (``drop_sample_tick`` removes a draw from the stream), and the
        write channel is off (``dirty`` has too many writers to version
        cheaply); otherwise it is one round, drawn and asked per tick."""
        self._close_plan()
        addrs = self._addrs
        if dropped or addrs is None or addrs.size != self._ra.n:
            addrs = None
        attrs = self.attrs
        lookahead = (
            addrs is not None
            and generation is not None
            and self.faults is None
            and not attrs.track_writes
        )
        rounds = attrs.max_nr_accesses if lookahead else 1
        self._plan = _SamplePlan(
            self.rng, self._ra, rounds, addrs, attrs, now, self._pending_since
        )
        return self._plan

    def _close_plan(self) -> None:
        """End the plan before anything else draws from ``self.rng`` or
        changes the layout: rewind the generator past the unserved rows
        and mark them gone."""
        plan = self._plan
        if plan is not None and plan.cursor < plan.rounds:
            plan.rewind(self.rng)
            plan.rounds = plan.cursor

    def __getstate__(self):
        """Pickle without the plan and with the generator where drawing
        tick by tick would have left it, so a checkpoint is the same
        bytes whether or not a plan is live and a restored monitor just
        plans again.  The live generator is not disturbed."""
        state = self.__dict__.copy()
        plan = state.pop("_plan", None)
        if plan is not None and plan.cursor < plan.rounds:
            state["rng"] = copy.deepcopy(self.rng)
            plan.rewind(state["rng"])
        return state

    # ------------------------------------------------------------------
    # Aggregation tick: merge/age → callbacks → schemes → reset → split
    # ------------------------------------------------------------------
    def aggregate_tick(self, now: int) -> None:
        """One aggregation interval: merge/age, callbacks, schemes,
        counter reset, split, next-round prepare — in upstream kdamond
        order."""
        # Merge, split and the next-round prepare all draw from the RNG
        # and reshape the layout the plan was drawn over.
        self._close_plan()
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
                # subscribers see the same region state snapshots do.
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

        if self.callbacks:
            snapshot = self.snapshot(now)
            for callback in self.callbacks:
                callback(snapshot)
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
