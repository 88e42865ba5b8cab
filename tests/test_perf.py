"""The perf subsystem: profiler, ``daos run --profile``, hot-path counters.

The profiling harness rides the trace bus — it must never change what a
run does, and a seeded report must be reproducible except for the
explicitly ``volatile`` wall-clock block.
"""

import json
from dataclasses import fields

from repro.cli import build_parser, main
from repro.perf import PerfProfiler, profile_run
from repro.sim.costs import CostModel
from repro.trace import AccessSampled, EpochEnd, ThpPromotion, TraceBus, TuneStep
from repro.trace.events import EVENT_TYPES

WORKLOAD = "parsec3/swaptions"
ARGS = {"config": "rec", "seed": 5, "time_scale": 0.02}


class TestEventsDescribeThemselves:
    def test_every_registered_event_names_its_layer(self):
        # The profiler files events by the layer their class declares; an
        # event added without one would silently fall outside the profile.
        for kind, cls in EVENT_TYPES.items():
            assert cls.layer, f"{kind} declares no layer"
            if cls.ops_field is not None:
                assert cls.ops_field in {f.name for f in fields(cls)}, kind


class TestPerfProfiler:
    def test_layers_and_ops(self):
        bus = TraceBus(ring_capacity=0)
        profiler = PerfProfiler().attach(bus)
        bus.emit(AccessSampled(time_us=1, nr_regions=10, checked=10, hits=4))
        bus.emit(AccessSampled(time_us=2, nr_regions=10, checked=10, hits=2))
        bus.emit(
            ThpPromotion(time_us=3, promoted_chunks=2, bloat_pages=0, swapped_in_pages=0)
        )
        bus.emit(
            TuneStep(
                time_us=4, phase="global", param=1.0, score=0.5, runtime_us=9,
                rss_bytes=0.0,
            )
        )
        report = profiler.report()
        assert report["layers"]["monitor"]["events"] == 2
        assert report["layers"]["monitor"]["ops"] == 20
        assert report["layers"]["kernel"]["events"] == 1
        assert report["layers"]["tuner"]["est_cost_us"] == 9.0
        assert report["total_events"] == 4

    def test_monitor_cost_uses_the_cost_model(self):
        costs = CostModel()
        bus = TraceBus(ring_capacity=0)
        profiler = PerfProfiler(costs=costs).attach(bus)
        bus.emit(AccessSampled(time_us=1, nr_regions=7, checked=7, hits=0))
        expected = costs.monitor_check_cost_us(7, wakeups=1)
        assert profiler.report()["layers"]["monitor"]["est_cost_us"] == expected

    def test_epoch_end_fault_costs_use_deltas(self):
        """EpochEnd carries lifetime fault counters; the profiler must
        charge only the per-epoch increments."""
        costs = CostModel()
        bus = TraceBus(ring_capacity=0)
        profiler = PerfProfiler(costs=costs).attach(bus)
        common = dict(compute_us=0.0, rss_bytes=0, free_frames=0)
        bus.emit(
            EpochEnd(time_us=1, epoch_end_us=1, major_faults=2, minor_faults=10, **common)
        )
        bus.emit(
            EpochEnd(time_us=2, epoch_end_us=2, major_faults=3, minor_faults=15, **common)
        )
        cost = profiler.report()["layers"]["kernel"]["est_cost_us"]
        expected = costs.major_fault_overhead_us(3) + costs.minor_fault_cost_us(15)
        assert abs(cost - expected) < 1e-6


class TestProfileRun:
    def test_report_is_deterministic_modulo_volatile(self):
        report_a, result_a = profile_run(WORKLOAD, **ARGS)
        report_b, result_b = profile_run(WORKLOAD, **ARGS)
        report_a.pop("volatile")
        report_b.pop("volatile")
        assert report_a == report_b
        assert result_a.runtime_us == result_b.runtime_us

    def test_profiling_does_not_perturb_the_run(self):
        """Attaching the profiler must not change the experiment."""
        from repro.runner.experiment import run_experiment

        _, profiled = profile_run(WORKLOAD, **ARGS)
        bare = run_experiment(WORKLOAD, machine="i3.metal", **ARGS)
        assert profiled.runtime_us == bare.runtime_us
        assert profiled.monitor_checks == bare.monitor_checks


class TestPerfVerb:
    """``daos run --profile FILE``, the spelling of the former perf verb."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", WORKLOAD])
        assert args.command == "run"
        assert args.config == "baseline"
        assert args.profile is None

    def test_emits_json_breakdown(self, capsys):
        rc = main(["--time-scale", "0.02", "--seed", "5", "run", WORKLOAD,
                   "-c", "rec", "--profile", "-"])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["workload"] == WORKLOAD
        assert "monitor" in report["profile"]["layers"]
        assert report["profile"]["total_events"] > 0
        assert "runtime" in captured.err  # the human report moved aside

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "perf.json"
        rc = main(["--time-scale", "0.02", "run", WORKLOAD, "-c", "rec",
                   "--profile", str(out)])
        assert rc == 0
        assert "written to" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["seed"] == 0
