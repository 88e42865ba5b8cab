"""API-surface hygiene: exports resolve, public items are documented.

A downstream user navigates this library through ``__all__`` and
docstrings; these tests keep both honest across every package.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.faults",
    "repro.fleet",
    "repro.lint",
    "repro.modules",
    "repro.monitor",
    "repro.perf",
    "repro.recovery",
    "repro.runner",
    "repro.sanitize",
    "repro.schemes",
    "repro.sim",
    "repro.sweep",
    "repro.trace",
    "repro.tuning",
    "repro.workloads",
]

MODULES = sorted(
    name
    for package in PACKAGES
    for _, name, _ in pkgutil.iter_modules(
        importlib.import_module(package).__path__,
        prefix=package + ".",
    )
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_classes_and_functions_documented(package):
    module = importlib.import_module(package)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(f"{package}.{name}")
            if inspect.isclass(obj):
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    if meth.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited implementation
                    # getdoc() walks the MRO, so an override documented
                    # by its base-class contract counts as documented.
                    if not inspect.getdoc(getattr(obj, meth_name)):
                        undocumented.append(f"{package}.{name}.{meth_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_run_constructors_take_no_kernel_class():
    """The driver builds :class:`~repro.sim.kernel.SimKernel` and nothing
    else; production has no seam for swapping the kernel class.  The
    same holds for every keyword in the table: production never set it,
    so the value it chose is fixed where it is used."""
    from repro.analysis.ascii_plot import ascii_series, ascii_table
    from repro.analysis.heatmap import build_heatmap
    from repro.analysis.wss import wss_from_snapshots
    from repro.clock import EventQueue
    from repro.fleet import run_fleet, run_fleet_sharded
    from repro.lint import analyze_scheme_text
    from repro.recovery.codec import restore
    from repro.runner.experiment import ExperimentRun
    from repro.sanitize.runtime import SimSanitizer
    from repro.schemes.scheme import Scheme
    from repro.sim.kernel import SimKernel
    from repro.sim.lru import LruReclaimer
    from repro.sim.swap import ZramDevice
    from repro.trace.sink import validate_trace_file
    from repro.tuning.runtime import AutoTuner

    removed = [
        (ExperimentRun.__init__, "kernel_cls"),
        (ExperimentRun.__init__, "keep_snapshots"),
        (SimKernel.__init__, "rng"),
        (SimKernel.__init__, "watermarks"),
        (SimSanitizer.__init__, "raise_on_violation"),
        (AutoTuner.__init__, "probe_attempts"),
        (AutoTuner.__init__, "probe_backoff_us"),
        (LruReclaimer.__init__, "activation_window_us"),
        (validate_trace_file, "require_monotone"),
        (restore, "announce"),
        (ascii_series, "marker"),
        (ascii_table, "floatfmt"),
        (wss_from_snapshots, "percentiles"),
        (EventQueue.schedule_periodic, "phase"),
        (ZramDevice.__init__, "compression_ratio"),
        (run_fleet, "tenant_range"),
        (run_fleet_sharded, "cache_dir"),
        (analyze_scheme_text, "attrs"),
        (Scheme.describe, "attrs"),
        (build_heatmap, "addr_range"),
    ]
    present = [
        f"{fn.__qualname__}({keyword}=)"
        for fn, keyword in removed
        if keyword in inspect.signature(fn).parameters
    ]
    assert not present, present


def test_test_only_definitions_stay_out_of_the_package():
    """Definitions no production caller reached are gone; what tests
    still need of them lives in ``tests/helpers.py``."""
    import repro.errors
    import repro.monitor
    import repro.monitor.batch
    import repro.schemes.stats
    import repro.trace
    import repro.trace.aggregate
    from repro.clock import EventQueue
    from repro.schemes.scheme import Scheme
    from repro.schemes.watermarks import Watermarks
    from repro.sim.swap import SwapDevice
    from repro.sweep import points
    from repro.sweep.runner import SweepReport
    from repro.trace.bus import TraceBus
    from repro.tuning.runtime import AutoTuner

    removed = [
        (EventQueue, "schedule_at"),
        (EventQueue, "run_for"),
        (Scheme, "with_pattern"),
        (Watermarks, "always_on"),
        (AutoTuner, "tune_with_budget"),
        (SweepReport, "raise_if_failed"),
        (repro.errors, "SweepError"),
        (TraceBus, "unsubscribe"),
        (repro.trace, "EventCounter"),
        (repro.trace.aggregate, "EventCounter"),
        (repro.monitor, "BatchTickStats"),
        (repro.monitor.batch, "BatchTickStats"),
        (repro.schemes.stats, "WssEstimator"),
        (SwapDevice, "write_latency_us"),
        (SwapDevice, "read_latency_us"),
    ]
    present = [f"{owner.__name__}.{name}" for owner, name in removed if hasattr(owner, name)]
    assert not present, present
    # A shard is reached by its dotted path alone, not a registry alias.
    assert "fleet_shard" not in points._REGISTRY


def _stored_targets(node):
    """The targets an assignment statement stores into, tuples unpacked."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, ast.AugAssign) or isinstance(node, ast.AnnAssign) and node.value:
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            yield target


def test_only_the_page_table_takes_pages_out_of_residency():
    """``sim/pagetable.py`` is the one module that stores a page's
    ``present``, ``swapped`` or ``dirty`` bit or un-backs a page
    (``frame = -1``): every way out of residency is
    ``FlatPageTable.unmap``.  ``fleet/`` is skipped by name: its
    ``swapped`` is a per-region page count, not a page-table column."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name == "sim/pagetable.py" or name.startswith("fleet/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=name)):
            for target in _stored_targets(node):
                column = target
                while isinstance(column, ast.Subscript):
                    column = column.value
                if not isinstance(column, ast.Attribute):
                    continue
                unbacks = column.attr == "frame" and ast.unparse(node.value) == "-1"
                if column.attr in ("present", "swapped", "dirty") or unbacks:
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found


def _calls_by_scope(tree):
    """``(scope, callee)`` for every call in ``tree``, where ``scope`` is
    the dotted name of the enclosing classes and functions (``""`` at
    module level) and ``callee`` the called name or attribute."""
    pending = [(tree, "")]
    while pending:
        node, scope = pending.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    yield scope, func.id
                elif isinstance(func, ast.Attribute):
                    yield scope, func.attr
            pending.append((child, inner))


def test_a_run_is_wired_in_one_place():
    """A guest kernel and the workload on it are built in
    ``ExperimentRun.__init__`` and nowhere else in the package: there is
    one declaration of a run, not a constructor plus builders that
    re-declare its keywords."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=name)
        for scope, callee in _calls_by_scope(tree):
            if callee in ("SimKernel", "Workload"):
                found.append(f"{name}:{scope or '<module>'}: {callee}(")
    assert found and all(
        where.startswith("runner/experiment.py:ExperimentRun.__init__:") for where in found
    ), found


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_run_experiment_is_lazy_but_works():
    result = repro.run_experiment(
        "splash2x/volrend", config="baseline", time_scale=0.05
    )
    assert result.runtime_us > 0
