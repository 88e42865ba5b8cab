"""Monitor hot-path throughput gate: RegionArray vs the legacy loops.

The struct-of-arrays :class:`~repro.perf.regionarray.RegionArray`
replaced the object-per-region inner loops (publish, merge/age, reset,
split) with vectorized column passes.  This benchmark drives the live
``DataAccessMonitor`` and the frozen pre-PR implementation
(``_legacy_monitor.LegacyMonitor``) through identical seeded epoch
loops — fig7-style attrs, a striped synthetic access pattern, enough
intervals to reach the steady-state region count — and gates the
speedup at ≥3×.

The committed artifact records the *ratio* (both implementations timed
in the same process on the same host), which is what
``check_bench_regression.py`` compares across commits: absolute times
vary machine to machine, the vectorization factor does not.

Protocol: interleaved rounds timed with CPU time
(``time.process_time``), minima compared — same as the trace-overhead
gate.  Determinism rides along: two same-seed array-engine runs must
produce identical final region tables and lifetime counters.

Writes ``benchmarks/out/BENCH_monitor_hotpath.json``.
"""

import json
import time

import numpy as np
from conftest import OUT_DIR

from _legacy_monitor import LegacyMonitor
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.overhead import hotpath_counters
from repro.monitor.primitives import MonitoringPrimitive
from repro.units import GIB, MIB

BASE = 0x7F00_0000_0000
SEED = 5
#: Fig7-style monitoring attrs: the paper's defaults (5ms sampling,
#: 100ms aggregation, 10..1000 regions).
ATTRS = MonitorAttrs()
#: Aggregation intervals per run — enough to pass the split ramp-up and
#: spend most of the loop at the steady-state region count.
INTERVALS = 40
ROUNDS = 5
GATE = 3.0  # array engine must be >= 3x the legacy epoch loop


class StripedPrimitive(MonitoringPrimitive):
    """Deterministic striped access pattern over one big VMA.

    Probabilities are a pure function of the address (hot 2-of-8 2MiB
    stripes), so both implementations observe the same memory and all
    randomness comes from the monitors' own seeded RNGs.
    """

    name = "vaddr"

    def __init__(self, span_bytes):
        self._ranges = [(BASE, BASE + span_bytes)]

    def target_ranges(self):
        return list(self._ranges)

    def layout_generation(self):
        return 0

    def access_probabilities(self, addrs, window_us):
        stripe = (np.asarray(addrs) // (2 * MIB)) & 7
        return np.where(stripe < 2, 0.9, 0.05)

    def probe_generation(self):
        return 0  # the answer never moves: plan whole intervals ahead

    def write_probabilities(self, addrs, window_us):
        return np.zeros(len(addrs))

    def charge_checks(self, n_checks, wakeups=1):
        return None


def drive(monitor):
    """One epoch loop: INTERVALS aggregation intervals of sampling."""
    ticks = ATTRS.aggregation_interval_us // ATTRS.sampling_interval_us
    now = 0
    for _ in range(INTERVALS):
        for _ in range(ticks):
            now += ATTRS.sampling_interval_us
            monitor.sample_tick(now)
        monitor.aggregate_tick(now)
    return monitor


def run_array(seed=SEED):
    monitor = DataAccessMonitor(StripedPrimitive(1 * GIB), ATTRS, seed=seed)
    monitor.init_regions()
    return drive(monitor)


def run_legacy(seed=SEED):
    monitor = LegacyMonitor(StripedPrimitive(1 * GIB), ATTRS, seed=seed)
    monitor.init_regions()
    return drive(monitor)


def measure(rounds=ROUNDS):
    """Min CPU time per implementation over interleaved rounds, in us."""
    modes = {"array": run_array, "legacy": run_legacy}
    best = {name: float("inf") for name in modes}
    for fn in modes.values():  # warmup, untimed
        fn()
    for _ in range(rounds):
        for name, fn in modes.items():
            t0 = time.process_time()
            fn()
            best[name] = min(best[name], time.process_time() - t0)
    return {name: value * 1e6 for name, value in best.items()}


def final_state(monitor):
    """The deterministic fingerprint of one run: regions + counters."""
    regions = [
        (r.start, r.end, r.nr_accesses, r.last_nr_accesses, r.age)
        for r in monitor.regions
    ]
    return regions, hotpath_counters(monitor)


def test_monitor_hotpath_speedup(benchmark, report):
    times = {}
    benchmark.pedantic(lambda: times.update(measure()), rounds=1, iterations=1)
    speedup = times["legacy"] / times["array"]

    # Determinism gate: same seed, same final region table and counters.
    state_a = final_state(run_array())
    state_b = final_state(run_array())
    assert state_a == state_b, "same-seed array-engine runs diverged"

    regions, counters = state_a
    report.add(
        "Monitor hot path: RegionArray vs legacy object loop "
        f"(min CPU of {ROUNDS} interleaved rounds, {INTERVALS} intervals)"
    )
    report.add(f"  legacy loop : {times['legacy'] / 1e3:9.1f} ms")
    report.add(f"  RegionArray : {times['array'] / 1e3:9.1f} ms")
    report.add(f"  speedup     : {speedup:9.2f}x  (gate: >= {GATE}x)")
    report.add(
        f"  steady state: {counters['nr_regions']} regions, "
        f"{counters['total_checks']} checks, {counters['total_merges']} merges, "
        f"{counters['total_splits']} splits"
    )

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_monitor_hotpath.json").write_text(
        json.dumps(
            {
                "attrs": {
                    "sampling_interval_us": ATTRS.sampling_interval_us,
                    "aggregation_interval_us": ATTRS.aggregation_interval_us,
                    "min_nr_regions": ATTRS.min_nr_regions,
                    "max_nr_regions": ATTRS.max_nr_regions,
                },
                "intervals": INTERVALS,
                "rounds": ROUNDS,
                "seed": SEED,
                "gate": GATE,
                "times_us": {k: round(v, 1) for k, v in times.items()},
                "speedup": round(speedup, 2),
                "deterministic": True,
                "final_nr_regions": counters["nr_regions"],
                "counters": counters,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    assert speedup >= GATE, (
        f"epoch-loop speedup {speedup:.2f}x below the {GATE}x gate"
    )
