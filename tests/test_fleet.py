"""The fleet layer: tenants, the shared pool, the batched scheduler.

Covers the multi-tenant contract end to end:

* tenant specs derive from *global* indices — a tenant looks the same
  whichever shard simulates it;
* the batched scheduler is deterministic (same seed → same digest →
  byte-identical canonical JSON) and sanitizer-clean;
* the shared pool couples tenants: a tight pool evicts, a loose pool
  does not, and the watermark policy is the same object the kernel
  honors;
* sharded runs merge deterministically and agree between the serial
  and spawn-pool sweep paths;
* the corrupted-state checkers actually fire (the sanitizer's fleet
  checkpoint is only as good as :func:`check_fleet_state`);
* NumPy's binomial draws nothing for p == 0, which the batched
  monitor's draw over the p > 0 rows relies on to stay exact.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError
from repro.fleet import (
    FleetConfig,
    FleetFramePool,
    FleetScheduler,
    build_tenant_spec,
    build_tenant_specs,
    run_fleet,
    run_fleet_sharded,
    shard_grid,
)
from repro.runner.experiment import build_machine
from repro.sanitize import SimSanitizer
from repro.sanitize.checkers import check_fleet_state
from repro.sim.kernel import SimKernel, Watermarks
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.pagetable import PAGE_SIZE
from repro.trace import TraceBus
from repro.units import MIB
from repro.workloads.registry import all_workloads
from repro.workloads.serverless import serverless_layout, serverless_spec

SMALL = dict(n_tenants=40, duration_s=90.0, footprint_mib=32, arrival_window_s=15.0)


# ----------------------------------------------------------------------
# Layout: serverless tiling, registry tiling, tenant workload tiling
# ----------------------------------------------------------------------
class TestServerlessLayout:
    @given(
        footprint_mib=st.integers(min_value=3, max_value=4096),
        cold_share=st.floats(
            min_value=0.001, max_value=0.999, allow_nan=False, allow_infinity=False
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_layout_tiles_exactly(self, footprint_mib, cold_share):
        footprint = footprint_mib * MIB
        cold, hot, warm = serverless_layout(footprint, cold_share)
        assert cold + hot + warm == footprint
        assert cold >= MIB and hot >= MIB and warm >= MIB
        assert cold % MIB == 0 and hot % MIB == 0 and warm % MIB == 0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigError):
            serverless_layout(64 * MIB, 0.0)
        with pytest.raises(ConfigError):
            serverless_layout(64 * MIB, 1.0)
        with pytest.raises(ConfigError):
            serverless_layout(2 * MIB, 0.9)

    def test_extreme_shares_stay_inside_footprint(self):
        # The old unclamped max(MIB, ...) layout overflowed here.
        spec = serverless_spec(footprint_mib=3, cold_share=0.01, duration_s=60)
        assert all(
            c.offset + c.size <= spec.footprint for c in spec.components
        )
        spec = serverless_spec(footprint_mib=4, cold_share=0.99, duration_s=60)
        assert all(
            c.offset + c.size <= spec.footprint for c in spec.components
        )


def _assert_tiles(spec) -> None:
    comps = sorted(spec.components, key=lambda c: c.offset)
    end = 0
    for comp in comps:
        assert comp.offset >= end, (
            f"{spec.full_name}: {type(comp).__name__} overlaps the previous "
            f"component ({comp.offset:#x} < {end:#x})"
        )
        end = comp.offset + comp.size
    assert end <= spec.footprint


@pytest.mark.parametrize(
    "spec", all_workloads(), ids=lambda spec: spec.full_name
)
def test_registry_workloads_tile_without_overlap(spec):
    _assert_tiles(spec)


@given(
    index=st.integers(min_value=0, max_value=50_000),
    seed=st.integers(min_value=0, max_value=2**31),
    footprint_mib=st.integers(min_value=4, max_value=512),
    cold_share=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=100, deadline=None)
def test_tenant_workloads_tile_without_overlap(index, seed, footprint_mib, cold_share):
    tenant = build_tenant_spec(
        index,
        base_seed=seed,
        footprint_mib=footprint_mib,
        cold_share=cold_share,
        arrival_window_s=60.0,
    )
    assert tenant.cold + tenant.hot + tenant.warm == tenant.footprint
    _assert_tiles(tenant.to_workload_spec(duration_us=60_000_000))


# ----------------------------------------------------------------------
# Tenants: global-index identity (shard stability)
# ----------------------------------------------------------------------
class TestTenantSpecs:
    def test_traits_keyed_to_global_index(self):
        full = build_tenant_specs(
            base_seed=3, n_tenants=100, footprint_mib=64,
            cold_share=0.9, arrival_window_s=60.0,
        )
        window = build_tenant_specs(
            base_seed=3, n_tenants=100, footprint_mib=64,
            cold_share=0.9, arrival_window_s=60.0, tenant_range=(37, 61),
        )
        assert window == full[37:61]

    def test_distinct_tenants_distinct_traits(self):
        specs = build_tenant_specs(
            base_seed=0, n_tenants=50, footprint_mib=64,
            cold_share=0.9, arrival_window_s=60.0,
        )
        assert len({t.seed for t in specs}) == 50
        assert len({t.footprint for t in specs}) > 1


# ----------------------------------------------------------------------
# Config and pool
# ----------------------------------------------------------------------
class TestFleetConfig:
    def test_params_round_trip(self):
        cfg = FleetConfig(n_tenants=123, duration_s=45.0, pool_gib=2.5, swap="file")
        assert FleetConfig.from_params(cfg.as_params()) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_tenants=0),
            dict(duration_s=0.0),
            dict(cold_share=1.0),
            dict(pool_ratio=0.0, pool_gib=0.0),
            dict(swap="tape"),
            dict(min_age_s=-1.0),
            dict(tick_ms=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FleetConfig(**kwargs)


class TestFleetFramePool:
    def test_charge_release_and_overdraw(self):
        pool = FleetFramePool(10 * PAGE_SIZE)
        pool.charge(6)
        assert pool.free_frames() == 4
        with pytest.raises(ConfigError):
            pool.charge(5)
        pool.release(2)
        assert pool.allocated == 4
        assert pool.peak_allocated == 6

    def test_watermark_coupling_matches_kernel_policy(self):
        marks = Watermarks()
        pool = FleetFramePool(1000 * PAGE_SIZE)
        pool.charge(marks.high_frames(1000) + 1)
        assert pool.over_high(marks)
        target = pool.pressure_target(marks)
        pool.release(target)
        assert not pool.over_high(marks)
        assert pool.allocated <= marks.low_frames(1000)


class TestWatermarks:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Watermarks(high=0.5, low=0.9)
        with pytest.raises(ConfigError):
            Watermarks(high=1.2)

    def test_kernel_defaults(self):
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        assert SimKernel(guest, seed=1).watermarks == Watermarks()


# ----------------------------------------------------------------------
# Scheduler: determinism, coupling, sanitizer
# ----------------------------------------------------------------------
class TestFleetScheduler:
    def test_same_seed_same_bytes(self):
        cfg = FleetConfig(seed=9, **SMALL)
        first = run_fleet(cfg, sanitize=True)
        second = run_fleet(cfg, sanitize=True)
        assert first.digest() == second.digest()
        assert first.canonical_json() == second.canonical_json()
        # The digest ignores wall clock; the result records it.
        assert "wall_clock_us" not in json.loads(first.canonical_json())
        assert first.wall_clock_us > 0

    def test_different_seeds_differ(self):
        a = run_fleet(FleetConfig(seed=1, **SMALL))
        b = run_fleet(FleetConfig(seed=2, **SMALL))
        assert a.digest() != b.digest()

    def test_scheme_reclaims_the_cold_gap(self):
        cfg = FleetConfig(seed=4, **SMALL)
        result = run_fleet(cfg)
        assert result.pageout_pages > 0
        # The paper's production gap: most of the fleet footprint is
        # cold start-up state the scheme pages out.
        assert result.final_resident_bytes < 0.35 * result.total_footprint_bytes
        no_scheme = run_fleet(
            FleetConfig(seed=4, min_age_s=0.0, **SMALL)
        )
        assert no_scheme.pageout_pages == 0
        assert no_scheme.final_resident_bytes > result.final_resident_bytes

    def test_tight_pool_couples_tenants(self):
        tight = run_fleet(
            FleetConfig(seed=6, pool_ratio=0.25, **SMALL), sanitize=True
        )
        loose = run_fleet(
            FleetConfig(seed=6, pool_ratio=1.5, **SMALL), sanitize=True
        )
        assert tight.reclaim_passes > 0 and tight.evicted_pages > 0
        assert loose.evicted_pages == 0
        # Pressure keeps the pool under the high watermark's ceiling.
        assert tight.peak_resident_bytes <= tight.pool_bytes

    def test_monitor_costs_accrue(self):
        result = run_fleet(FleetConfig(seed=2, **SMALL))
        assert result.monitor_checks > 0
        assert result.monitor_cpu_us > 0

    def test_pageout_batches_reach_the_trace_bus(self):
        bus = TraceBus(ring_capacity=0)
        cfg = FleetConfig(seed=4, **SMALL)
        result = run_fleet(cfg, trace=bus)
        counts = bus.summary().counts
        assert result.pageout_batches > 0
        # One per-tenant flush at finish, on the count_groups fast path,
        # is the bus's whole PageoutBatch count.
        assert counts["PageoutBatch"] == result.pageout_batches
        groups = bus.group_counts.get("PageoutBatch", {})
        assert sum(groups.values()) == result.pageout_batches
        assert all(name.startswith("t") for name in groups)

    def test_fleet_sanitizer_checkpoints_every_tick(self):
        cfg = FleetConfig(seed=1, **SMALL)
        sanitizer = SimSanitizer(enabled=True)
        scheduler = FleetScheduler(cfg, sanitize=sanitizer)
        scheduler.run()
        assert sanitizer.fleet_checkpoints == int(
            cfg.duration_us // cfg.tick_us
        )
        assert sanitizer.violations == []

    def test_checkers_catch_corruption(self):
        scheduler = FleetScheduler(FleetConfig(seed=1, **SMALL))
        scheduler.run()
        assert check_fleet_state(scheduler, now=0) == []
        scheduler.resident[0] += 7  # break pool conservation
        found = check_fleet_state(scheduler, now=0)
        assert found and any("conservation" in v.check for v in found)
        scheduler.resident[0] = scheduler.table.size_pages[0] + 1
        assert any(
            "occupancy" in v.check for v in check_fleet_state(scheduler, now=0)
        )


# ----------------------------------------------------------------------
# Factories: both paths consume the same machine builds
# ----------------------------------------------------------------------
class TestFactories:
    def test_build_machine_resolves_swap_kinds(self):
        for swap, cls_name in (("zram", "ZramDevice"), ("file", "FileSwapDevice"),
                               ("none", "NoSwapDevice")):
            mb = build_machine("i3.metal", swap=swap)
            assert type(mb.swap).__name__ == cls_name
            assert mb.guest.host is mb.host

    def test_fleet_uses_machine_factory_calibration(self):
        scheduler = FleetScheduler(FleetConfig(seed=0, **SMALL))
        proto = build_machine("i3.metal", swap="zram").swap
        assert type(scheduler.swap_device).__name__ == "ZramDevice"
        assert scheduler.swap_device.ratio == proto.ratio


# ----------------------------------------------------------------------
# Shards: pools merge deterministically, serial == spawn pool
# ----------------------------------------------------------------------
class TestShards:
    def test_shard_ranges_cover_exactly(self):
        cfg = FleetConfig(seed=0, **SMALL)
        grid = shard_grid(cfg, 7)
        ranges = [(p.params["lo"], p.params["hi"]) for p in grid.points()]
        assert ranges[0][0] == 0 and ranges[-1][1] == cfg.n_tenants
        assert all(hi == nlo for (_, hi), (nlo, _) in zip(ranges, ranges[1:]))

    def test_invalid_shard_counts(self):
        cfg = FleetConfig(seed=0, **SMALL)
        with pytest.raises(ConfigError):
            shard_grid(cfg, 0)
        with pytest.raises(ConfigError):
            shard_grid(cfg, cfg.n_tenants + 1)

    def test_merge_is_deterministic_and_additive(self):
        cfg = FleetConfig(seed=8, **SMALL)
        merged = run_fleet_sharded(cfg, n_shards=4)
        again = run_fleet_sharded(cfg, n_shards=4)
        assert merged == again
        assert merged["n_tenants"] == cfg.n_tenants
        assert len(merged["shard_digests"]) == 4

    def test_pool_matches_serial(self, tmp_path):
        cfg = FleetConfig(seed=8, **SMALL)
        serial = run_fleet_sharded(cfg, n_shards=2)
        pooled = run_fleet_sharded(cfg, n_shards=2, jobs=2)
        assert serial == pooled


# ----------------------------------------------------------------------
# The sampling stream
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    p=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=400),
    seed=st.integers(0, 2**63 - 1),
)
@example(p=[0.0] * 64, seed=0)
@example(p=[1.0, 0.0] * 32, seed=0)
def test_binomial_skips_zero_p_rows_without_drawing(p, seed):
    """A full-table draw equals the draw over the p > 0 rows, in values
    and in final generator state.  If a NumPy upgrade breaks this, the
    fleet digests would move; this fails first and says why."""
    p = np.array(p, dtype=np.float64)
    full, subset = np.random.default_rng(seed), np.random.default_rng(seed)
    everything = full.binomial(200, p)
    rows = np.flatnonzero(p > 0)
    assert np.array_equal(everything[rows], subset.binomial(200, p[rows]))
    assert not everything[p == 0].any()
    assert full.bit_generator.state == subset.bit_generator.state
