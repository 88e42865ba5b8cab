"""Ready-made sweep grids for the paper's figures.

Each preset pairs a grid builder with a summariser that turns a
:class:`~repro.sweep.runner.SweepReport` back into the figure's table —
the CLI's ``--grid`` option and the benchmark suite both consume these,
so the fast path and the reproduced figures can never drift apart.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from ..analysis.ascii_plot import ascii_series
from ..analysis.patterns import classify_score_pattern
from ..analysis.report import fig7_table
from ..analysis.score_model import CASES
from ..errors import ConfigError
from ..runner.results import normalize
from .grid import SweepGrid
from .runner import SweepReport

__all__ = ["PRESETS", "fig3_grid", "fig7_grid", "FIG7_CONFIGS", "FIG7_SUBSET"]

#: The non-baseline configurations of Figure 7's table.
FIG7_CONFIGS = ("rec", "prec", "thp", "ethp", "prcl")

#: The representative 12-workload subset the benchmarks default to.
FIG7_SUBSET = (
    "parsec3/blackscholes",
    "parsec3/canneal",
    "parsec3/dedup",
    "parsec3/freqmine",
    "parsec3/raytrace",
    "parsec3/swaptions",
    "splash2x/fft",
    "splash2x/lu_ncb",
    "splash2x/ocean_cp",
    "splash2x/ocean_ncp",
    "splash2x/volrend",
    "splash2x/water_nsquared",
)


# ----------------------------------------------------------------------
# Figure 3 — six analytic score patterns
# ----------------------------------------------------------------------
def fig3_grid(n_points: int = 41) -> SweepGrid:
    """The six score-model cases, one point per case."""
    return SweepGrid.from_points(
        "score_curve",
        [
            dict(case=case_id, n_points=n_points, **params)
            for case_id, params in sorted(CASES.items())
        ],
    )


def summarize_fig3(report: SweepReport) -> str:
    """Classify each computed curve and render it as ASCII."""
    lines = ["Figure 3: six score patterns for varying PAGEOUT aggressiveness"]
    for outcome in report.outcomes:
        if not outcome.ok:
            continue
        value = outcome.value
        a, scores = value["aggressiveness"], value["scores"]
        got_id, name = classify_score_pattern(a, scores)
        lines.append(f"\ncase {value['case']}: classified as pattern {got_id} — {name}")
        lines.append(
            ascii_series(
                list(a), list(scores), width=60, height=8,
                title=f"score vs aggressiveness (case {value['case']})",
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 7 — the central workload × config table
# ----------------------------------------------------------------------
def fig7_grid(
    workloads: Sequence[str] = FIG7_SUBSET,
    *,
    configs: Sequence[str] = FIG7_CONFIGS,
    machine: str = "i3.metal",
    seed: int = 0,
    time_scale: float = 0.15,
    scales: Optional[Mapping[str, float]] = None,
) -> SweepGrid:
    """(workload × [baseline + configs]) points on one machine.

    ``scales`` overrides ``time_scale`` per workload (the benchmark
    suite floors short runs; see ``benchmarks/conftest.py``).
    """
    if "baseline" in configs:
        raise ConfigError("baseline is included implicitly; do not list it")
    points = []
    for workload in workloads:
        scale = scales[workload] if scales is not None else time_scale
        for config in ("baseline", *configs):
            points.append(
                dict(
                    workload=workload,
                    config=config,
                    machine=machine,
                    seed=seed,
                    time_scale=scale,
                )
            )
    return SweepGrid.from_points("experiment", points)


def summarize_fig7(report: SweepReport) -> str:
    """Normalise each run against its workload's baseline and render the
    Figure 7 table."""
    runs = [o.value for o in report.outcomes if o.ok]
    baselines = {r.workload: r for r in runs if r.config == "baseline"}
    per_config: Dict[str, List] = {}
    machine = runs[0].machine if runs else "?"
    for run in runs:
        if run.config == "baseline":
            continue
        base = baselines.get(run.workload)
        if base is None:
            continue
        per_config.setdefault(run.config, []).append(normalize(run, base))
    if not per_config:
        return "(no non-baseline runs to tabulate)"
    return fig7_table(per_config, machine)


# ----------------------------------------------------------------------
class Preset(NamedTuple):
    """A named grid builder plus its report summariser."""

    build: Callable[..., SweepGrid]
    summarize: Callable[[SweepReport], str]


PRESETS: Dict[str, Preset] = {
    "fig3": Preset(build=fig3_grid, summarize=summarize_fig3),
    "fig7": Preset(build=fig7_grid, summarize=summarize_fig7),
}
