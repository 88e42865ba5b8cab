"""The perf subsystem: ``profile_run`` and ``daos run --profile``.

A profile is the run's own cost ledger filed by layer: it must never
change what a run does, its modelled total must be the run's runtime,
and a seeded report must be reproducible except for the explicitly
``volatile`` wall-clock block.
"""

import json
import math
from dataclasses import fields
from pathlib import Path

from repro.cli import build_parser, main
from repro.faults import load_fault_plan
from repro.perf import profile_run
from repro.runner.experiment import run_experiment
from repro.sim.costs import CostModel
from repro.sim.machine import get_instance
from repro.sim.metrics import RuntimeBreakdown
from repro.sweep.serialize import fingerprint
from repro.trace.events import EVENT_TYPES

WORKLOAD = "parsec3/swaptions"
ARGS = {"config": "rec", "seed": 5, "time_scale": 0.02}
SMOKE_PLAN = Path(__file__).resolve().parents[1] / "examples" / "faults" / "smoke.toml"
#: A prcl run that pages out to file swap and faults pages back in.
SWAPPING = ("parsec3/facesim", {"config": "prcl", "seed": 0, "time_scale": 0.05,
                                "swap": "file"})


class TestEventsDescribeThemselves:
    def test_every_registered_event_names_its_layer(self):
        # The profile files event counts by the layer their class
        # declares; an event added without one would fall outside it.
        for kind, cls in EVENT_TYPES.items():
            assert cls.layer, f"{kind} declares no layer"


class TestProfileLedger:
    def test_modelled_total_is_the_run_runtime(self):
        """On a run with faults and a tier, the profile's modelled total
        is the ledger's runtime to the last digit, and the layers'
        shares add up to it."""
        report, result = profile_run(
            WORKLOAD, config="rec", seed=3, time_scale=0.02,
            faults=load_fault_plan(SMOKE_PLAN), tier="cxl-dram",
        )
        profile = report["profile"]
        assert profile["modelled_total_us"] == result.runtime_us
        assert report["runtime_us"] == result.runtime_us
        layers = profile["layers"]
        assert math.isclose(
            sum(layer["modelled_us"] for layer in layers.values()),
            profile["modelled_total_us"],
            rel_tol=1e-12,
        )
        assert layers["workload"]["modelled_us"] == result.breakdown["compute_us"]
        assert layers["kernel"]["major_faults"] == result.breakdown["major_faults"]
        assert layers["monitor"]["monitor_checks"] == result.monitor_checks > 0
        assert sum(layer["events"] for layer in layers.values()) == sum(
            report["events"].values()
        )
        assert layers["faults"]["events"] > 0


class TestPerfProfiler:
    def test_layers_and_ops(self):
        """Every ledger component sits under exactly one layer, with the
        run's value; each layer counts the events its classes emitted and
        carries its own work counters."""
        workload, kwargs = SWAPPING
        report, result = profile_run(workload, **kwargs)
        layers = report["profile"]["layers"]
        for f in fields(RuntimeBreakdown):
            payers = [name for name, layer in layers.items() if f.name in layer]
            assert len(payers) == 1, f.name
            assert layers[payers[0]][f.name] == result.breakdown[f.name]
        for name, layer in layers.items():
            assert layer["events"] == sum(
                n for kind, n in report["events"].items()
                if EVENT_TYPES[kind].layer == name
            ), name
        kernel = layers["kernel"]
        assert kernel["major_faults"] == result.breakdown["major_faults"] > 0
        assert kernel["pages_swapped_out"] == result.breakdown["pages_swapped_out"] > 0
        assert layers["monitor"]["monitor_checks"] == result.monitor_checks > 0
        assert layers["schemes"]["nr_applied"] == sum(
            st["nr_applied"] for st in result.scheme_stats.values()
        ) > 0

    def test_monitor_cost_uses_the_cost_model(self):
        """The monitor layer pays the interference the run's cost model
        charges for the monitor's CPU time, not a figure of its own."""
        workload, kwargs = SWAPPING
        costs = CostModel(monitor_interference=0.5)
        report, result = profile_run(workload, costs=costs, **kwargs)
        monitor = report["profile"]["layers"]["monitor"]
        expected = costs.interference_us(result.monitor_cpu_us)
        assert result.monitor_cpu_us > 0
        assert monitor["modelled_us"] == monitor["monitor_interference_us"] == expected
        assert monitor["monitor_cpu_us"] == result.monitor_cpu_us

    def test_epoch_end_fault_costs_use_deltas(self):
        """Each fault is charged once: the kernel layer's fault costs are
        the cost model applied to the run's fault counts (plus the file
        swap device's read per major fault), not to per-epoch lifetime
        counters summed over epochs."""
        workload, kwargs = SWAPPING
        costs = CostModel()
        report, result = profile_run(workload, costs=costs, **kwargs)
        kernel = report["profile"]["layers"]["kernel"]
        major, minor = kernel["major_faults"], kernel["minor_faults"]
        assert major > 0 and minor > 0
        assert kernel["minor_fault_us"] == costs.minor_fault_cost_us(minor)
        read_us = get_instance("i3.metal").nvme_read_us
        assert kernel["major_fault_us"] == costs.major_fault_overhead_us(major) + major * read_us


class TestProfileRun:
    def test_report_is_deterministic_modulo_volatile(self):
        report_a, result_a = profile_run(WORKLOAD, **ARGS)
        report_b, result_b = profile_run(WORKLOAD, **ARGS)
        report_a.pop("volatile")
        report_b.pop("volatile")
        assert report_a == report_b
        assert result_a.runtime_us == result_b.runtime_us

    def test_profiling_does_not_perturb_the_run(self):
        """A profiled run is the plain run: same result, same events."""
        _, profiled = profile_run(WORKLOAD, **ARGS)
        bare = run_experiment(WORKLOAD, **ARGS)
        assert fingerprint(profiled) == fingerprint(bare)
        assert profiled.trace_summary["counts"] == bare.trace_summary["counts"]


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
        assert report["profile"]["modelled_total_us"] == report["runtime_us"]
        assert sum(report["events"].values()) > 0
        assert "runtime" in captured.err  # the human report moved aside

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "perf.json"
        rc = main(["--time-scale", "0.02", "run", WORKLOAD, "-c", "rec",
                   "--profile", str(out)])
        assert rc == 0
        assert "written to" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["seed"] == 0
