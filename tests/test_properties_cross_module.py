"""Cross-module property tests: invariants that span layers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import FleetConfig, run_fleet_sharded
from repro.monitor.attrs import MonitorAttrs
from repro.runner.configs import ExperimentConfig
from repro.schemes.parser import format_scheme, parse_scheme
from repro.schemes.quotas import Quota
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.sweep.serialize import fingerprint
from repro.units import MIB, MSEC, SEC

from tests.helpers import BASE, traced_run

ATTRS = MonitorAttrs()


class TestConservation:
    """Memory accounting conservation laws under random operations."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["touch", "pageout", "willneed", "cold"]),
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_pages_never_created_or_lost(self, ops):
        """present + swapped never exceeds the touched page population,
        and frames allocated always equals pages present."""
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        kernel = SimKernel(guest, swap=ZramDevice(128 * MIB), seed=2)
        kernel.mmap(BASE, 64 * MIB)
        pt = kernel.space.flat
        now = 0
        ever_touched = np.zeros(pt.n_pages, dtype=bool)
        for op, slot, span in ops:
            now += 100 * MSEC
            start = BASE + slot * 4 * MIB
            end = min(BASE + 64 * MIB, start + span * 4 * MIB)
            if op == "touch":
                kernel.apply_access(start, end, now, 100 * MSEC, stall_weight=0.0)
                lo = (start - BASE) // 4096
                hi = (end - BASE) // 4096
                ever_touched[lo:hi] = True
            elif op == "pageout":
                kernel.pageout(start, end, now)
            elif op == "willneed":
                kernel.madvise_willneed(start, end, now)
            elif op == "cold":
                kernel.madvise_cold(start, end, now)
            populated = pt.present | pt.swapped
            assert (populated <= ever_touched).all()
            assert int(np.count_nonzero(pt.present)) == kernel.frames.allocated
            assert int(np.count_nonzero(pt.swapped)) == kernel.swap.used_pages

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_swap_roundtrip_preserves_population(self, seed):
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        kernel = SimKernel(guest, swap=ZramDevice(128 * MIB), seed=seed)
        kernel.mmap(BASE, 32 * MIB)
        kernel.apply_access(BASE, BASE + 32 * MIB, 0, 100 * MSEC, stall_weight=0.0)
        before = kernel.rss_bytes()
        kernel.pageout(BASE, BASE + 32 * MIB, 1)
        kernel.madvise_willneed(BASE, BASE + 32 * MIB, 2)
        assert kernel.rss_bytes() == before
        assert kernel.swap.used_pages == 0


class TestSchemeRoundtripWithAttrs:
    @settings(max_examples=40, deadline=None)
    @given(
        sampling_ms=st.sampled_from([1, 5, 10]),
        aggr_mult=st.sampled_from([10, 20, 50]),
        raw_count=st.integers(min_value=0, max_value=10),
    )
    def test_raw_counts_resolve_against_any_attrs(self, sampling_ms, aggr_mult, raw_count):
        attrs = MonitorAttrs(
            sampling_interval_us=sampling_ms * MSEC,
            aggregation_interval_us=sampling_ms * aggr_mult * MSEC,
            regions_update_interval_us=sampling_ms * aggr_mult * 10 * MSEC,
        )
        scheme = parse_scheme(f"min max {raw_count} max min max pageout", attrs)
        expected = min(1.0, raw_count / attrs.max_nr_accesses)
        assert scheme.pattern.min_freq == pytest.approx(expected)
        # Round-trip through the text form preserves the resolved value.
        again = parse_scheme(format_scheme(scheme, attrs), attrs)
        assert again.pattern.min_freq == pytest.approx(expected, abs=1e-6)


class TestQuotaNeverOvercharges:
    @settings(max_examples=40, deadline=None)
    @given(
        charges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20 * MIB),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=20,
        )
    )
    def test_window_budget_respected(self, charges):
        quota = Quota(size_bytes=8 * MIB, reset_interval_us=1 * SEC)
        window_charged = {}
        # The engine clock only moves forward; feeding the quota
        # out-of-order timestamps would roll its window back and forth
        # and overcharge — a scenario the simulator can never produce.
        charges = sorted(charges, key=lambda c: c[1])
        for nbytes, at_ds in charges:
            now = at_ds * 100 * MSEC
            window = now // SEC
            remaining = quota.remaining(now)
            take = min(nbytes, remaining)
            quota.charge(take, now)
            window_charged[window] = window_charged.get(window, 0) + take
        for window, total in window_charged.items():
            assert total <= 8 * MIB


_STAT_SCHEMES = st.lists(
    st.builds(
        "{} max {} max {} max stat".format,
        st.sampled_from(["min", "4K", "2M"]),
        st.sampled_from(["min", "1", "5"]),
        st.sampled_from(["min", "500ms", "2s"]),
    ),
    min_size=1,
    max_size=3,
)


class TestInertPaths:
    """Machinery that must not change what it does not act on."""

    @settings(max_examples=6, deadline=None)
    @given(
        schemes=_STAT_SCHEMES,
        workload=st.sampled_from(["parsec3/freqmine", "splash2x/ocean_ncp"]),
        seed=st.integers(0, 50),
    )
    def test_stat_only_schemes_change_nothing_but_their_counters(self, schemes, workload, seed):
        """STAT counts matching regions and touches nothing: the result
        and the trace equal the unschemed monitor run's, minus the
        schemes' own counters and SchemeApplied events."""
        run = dict(workload=workload, seed=seed, time_scale=0.02)
        with_stat, stat_trace = traced_run(
            config=ExperimentConfig(name="m", monitor="vaddr", schemes_text="\n".join(schemes)),
            **run,
        )
        without, plain_trace = traced_run(
            config=ExperimentConfig(name="m", monitor="vaddr"), **run
        )
        assert with_stat.scheme_stats and not without.scheme_stats
        with_stat.scheme_stats = {}
        assert fingerprint(with_stat) == fingerprint(without)
        assert [
            line
            for line in stat_trace.splitlines()
            if json.loads(line)["ev"] != "SchemeApplied"
        ] == plain_trace.splitlines()

    @settings(max_examples=6, deadline=None)
    @given(
        config=st.sampled_from(["baseline", "prcl", "thp", "ethp"]),
        tier=st.sampled_from(["cxl-dram", "optane-pmm"]),
        policy=st.sampled_from(["managed", "unmanaged"]),
        seed=st.integers(0, 50),
    )
    def test_unused_slow_tier_equals_the_flat_machine(self, config, tier, policy, seed):
        """A footprint that never leaves DRAM never meets the tier.  Not
        for paddr monitors: their target is the whole physical span,
        which the tier's frames extend, so the region layout differs."""
        run = dict(workload="parsec3/freqmine", config=config, seed=seed, time_scale=0.02)
        flat = traced_run(**run)
        tiered = traced_run(**run, tier=tier, tier_scale=0.01, tier_policy=policy)
        assert flat[0].breakdown["pages_demoted"] == tiered[0].breakdown["pages_demoted"] == 0
        assert fingerprint(tiered[0]) == fingerprint(flat[0])
        assert tiered[1] == flat[1]

    @settings(max_examples=4, deadline=None)
    @given(n_tenants=st.integers(8, 24), seed=st.integers(0, 50))
    def test_fleet_summary_does_not_depend_on_shard_count(self, n_tenants, seed):
        """Pools are coupled only through pressure; with room to spare
        (pool twice the footprint) and no pageout scheme, the merged
        summary of 1, 2 and 4 shards is one fingerprint.  The exception
        is monitor CPU: every shard runs its own daemon, whose fixed
        per-pass cost is charged once per shard."""
        cfg = FleetConfig(
            n_tenants=n_tenants, duration_s=20.0, footprint_mib=16,
            min_age_s=0.0, pool_ratio=2.0, arrival_window_s=5.0, seed=seed,
        )
        digests, cpu = set(), []
        for n_shards in (1, 2, 4):
            merged = run_fleet_sharded(cfg, n_shards=n_shards)
            for key in ("n_shards", "shard_digests"):
                del merged[key]
            cpu.append(merged.pop("monitor_cpu_us"))
            digests.add(fingerprint(merged))
        assert len(digests) == 1
        assert cpu[2] - cpu[0] == pytest.approx(3 * (cpu[1] - cpu[0]))
