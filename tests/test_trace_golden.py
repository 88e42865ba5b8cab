"""Golden determinism: identical runs produce byte-identical traces.

Two layers of goldens live here:

* whole-trace byte identity across same-seed runs (any event type);
* committed **kernel-event fixtures** — the canonical ReclaimPass /
  PageoutBatch / ThpPromotion streams of two fixed pressure scenarios,
  pinned under ``tests/fixtures/``.  These catch silent changes to the
  kernel's reclaim/promotion behaviour or event payloads.  To refresh
  after an intentional change: ``REPRO_REGEN_GOLDEN=1 python -m pytest
  tests/test_trace_golden.py`` and commit the rewritten fixtures.
"""

import io
import json
import os
from dataclasses import fields
from pathlib import Path

import pytest

from repro.runner.experiment import run_experiment
from repro.sim.machine import scaled_instance
from repro.trace import (
    JsonlTraceSink,
    TraceBus,
    encode_event,
    read_trace,
    validate_trace_file,
)
from repro.trace.events import PageoutBatch, ReclaimPass, ThpPromotion
from repro.units import MIB, SEC
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import ColdInit, CyclicSweep, Hotspot

from tests import helpers

FIXTURES = Path(__file__).parent / "fixtures"

WORKLOAD = "parsec3/swaptions"
CONFIG = "prcl"
SEED = 5
TIME_SCALE = 0.02


def traced_run():
    """One fixed run with a full JSONL capture; returns (text, bus)."""
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    sink = JsonlTraceSink(buffer)
    bus.subscribe_all(sink)
    result = run_experiment(
        WORKLOAD, config=CONFIG, seed=SEED, time_scale=TIME_SCALE, trace=bus
    )
    return buffer.getvalue(), bus, result


@pytest.fixture(scope="module")
def golden():
    return traced_run()


class TestGoldenTrace:
    def test_byte_identical_across_runs(self, golden):
        text_a, _, result_a = golden
        text_b, _, result_b = traced_run()
        assert text_a == text_b
        assert result_a.trace_summary == result_b.trace_summary

    def test_trace_is_nonempty_and_monotone(self, golden):
        text, bus, _ = golden
        lines = text.splitlines()
        assert len(lines) == bus.n_events > 0
        times = [e.time_us for e in read_trace(lines)]
        assert times == sorted(times)

    def test_reencode_reproduces_lines(self, golden):
        """decode → encode is the identity on canonical lines."""
        text, _, _ = golden
        lines = text.splitlines()
        assert [encode_event(e) for e in read_trace(lines)] == lines

    def test_validate_summary_matches_bus(self, golden):
        text, bus, result = golden
        summary = validate_trace_file(text.splitlines())
        assert summary == bus.summary()
        assert result.trace_summary == summary.as_dict()

    def test_expected_event_mix(self, golden):
        """The prcl run at this scale monitors but never triggers schemes
        (min_age outruns the shrunk run), so the trace carries the
        monitoring and epoch story only."""
        _, bus, _ = golden
        assert bus.counts.get("AccessSampled", 0) > 0
        assert bus.counts.get("RegionsAggregated", 0) > 0
        assert bus.counts.get("EpochEnd", 0) > 0


#: The kernel's own event types: all-int payloads, stable goldens.
KERNEL_EVENTS = (ReclaimPass, PageoutBatch, ThpPromotion)


def _kernel_event_lines(workload, config, *, dram_scale, seed=9):
    """Run one experiment and return its kernel events, canonically
    encoded, in emission order."""
    _, text = helpers.traced_run(
        workload=workload,
        config=config,
        machine=scaled_instance("i3.metal", dram_scale=dram_scale),
        seed=seed,
        oom_policy="shed",
    )
    return [
        encode_event(e) for e in read_trace(text.splitlines()) if isinstance(e, KERNEL_EVENTS)
    ]


def _thp_pressure_spec():
    """khugepaged bloat against small DRAM: ReclaimPass + ThpPromotion."""
    fp = 192 * MIB
    return WorkloadSpec(
        name="thp-golden",
        suite="golden",
        footprint=fp,
        duration_us=2 * SEC,
        components=(
            CyclicSweep(0, fp - 16 * MIB, period_us=2 * SEC, touches_per_sec=400),
            Hotspot(fp - 4 * MIB, 4 * MIB),
        ),
    )


def _prcl_cold_spec():
    """Cold-init data aging past the prcl scheme's 5s min_age:
    PageoutBatch (scheme PAGEOUT) + ReclaimPass (watermarks)."""
    fp = 96 * MIB
    return WorkloadSpec(
        name="prcl-golden",
        suite="golden",
        footprint=fp,
        duration_us=10 * SEC,
        components=(
            ColdInit(0, 64 * MIB, init_us=2 * SEC),
            Hotspot(fp - 4 * MIB, 4 * MIB),
        ),
    )


class TestKernelEventGoldens:
    CASES = {
        "kernel_trace_thp.jsonl": (
            _thp_pressure_spec, "thp", 1 / 1024, (ReclaimPass, ThpPromotion)),
        "kernel_trace_prcl.jsonl": (
            _prcl_cold_spec, "prcl", 1 / 512, (ReclaimPass, PageoutBatch)),
    }

    @pytest.mark.parametrize("fixture", sorted(CASES))
    def test_kernel_stream_matches_fixture(self, fixture):
        spec_fn, config, dram_scale, expected_types = self.CASES[fixture]
        lines = _kernel_event_lines(spec_fn(), config, dram_scale=dram_scale)
        assert lines, "scenario emitted no kernel events"
        names = {json.loads(line)["ev"] for line in lines}
        for etype in expected_types:
            assert etype.__name__ in names, f"no {etype.__name__} in stream"
        path = FIXTURES / fixture
        if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # daos-lint: disable=DT204
            path.write_text("\n".join(lines) + "\n")
        assert path.exists(), (
            f"missing golden fixture {path} — regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
        assert lines == path.read_text().splitlines()


class TestNoSwapPageout:
    """Figure 9 "No Swap": a PAGEOUT against a full (zero-capacity) swap
    device must still emit a PageoutBatch — with zero pages — so trace
    consumers see the attempt instead of silence."""

    def test_pageout_emits_zero_page_batch(self):
        from repro.sim.kernel import SimKernel
        from repro.sim.machine import GuestSpec, get_instance
        from repro.sim.swap import NoSwapDevice

        base = 0x7F00_0000_0000
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        bus = TraceBus(ring_capacity=0)
        seen = []
        bus.subscribe(PageoutBatch, seen.append)
        kernel = SimKernel(guest, swap=NoSwapDevice(), seed=7, trace=bus)
        kernel.mmap(base, 4 * MIB)
        kernel.apply_access(base, base + 4 * MIB, now=0, epoch_us=100_000)
        paged_out = kernel.pageout(base, base + 4 * MIB, now=200_000)
        assert paged_out == 0
        assert len(seen) == 1, "swap-full PAGEOUT attempt was not traced"
        assert seen[0].paged_out_pages == 0
        assert seen[0].written_back_pages == 0
        # The pages never left DRAM.
        assert kernel.rss_bytes() == 4 * MIB
        assert kernel.swap.used_pages == 0  # nothing was ever stored
        assert kernel.swap.free_pages() == 0

    def test_untouched_range_still_silent(self):
        """No reclaimable candidates at all → no event (unchanged)."""
        from repro.sim.kernel import SimKernel
        from repro.sim.machine import GuestSpec, get_instance
        from repro.sim.swap import NoSwapDevice

        base = 0x7F00_0000_0000
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        bus = TraceBus(ring_capacity=0)
        seen = []
        bus.subscribe(PageoutBatch, seen.append)
        kernel = SimKernel(guest, swap=NoSwapDevice(), seed=7, trace=bus)
        kernel.mmap(base, 4 * MIB)
        assert kernel.pageout(base, base + 4 * MIB, now=0) == 0
        assert seen == []


class TestTracingIsInert:
    def test_results_identical_with_and_without_tracing(self):
        """Tracing consumes no randomness and perturbs no accounting."""
        _, _, traced = traced_run()
        untraced = run_experiment(
            WORKLOAD,
            config=CONFIG,
            seed=SEED,
            time_scale=TIME_SCALE,
            collect_trace=False,
        )
        assert untraced.trace_summary is None
        for f in fields(traced):
            if f.name in ("wall_clock_us", "trace_summary"):
                continue
            assert getattr(traced, f.name) == getattr(untraced, f.name), f.name
