"""API-surface hygiene: exports resolve, public items are documented.

A downstream user navigates this library through ``__all__`` and
docstrings; these tests keep both honest across every package.
"""

import importlib
import inspect
import pkgutil

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
    from repro.analysis.wss import wss_from_snapshots
    from repro.recovery.codec import restore
    from repro.runner.experiment import ExperimentRun, build_tenant
    from repro.sanitize.runtime import SimSanitizer
    from repro.sim.kernel import SimKernel
    from repro.sim.lru import LruReclaimer
    from repro.trace.sink import validate_trace_file
    from repro.tuning.runtime import AutoTuner

    removed = [
        (ExperimentRun.__init__, "kernel_cls"),
        (build_tenant, "kernel_cls"),
        (ExperimentRun.__init__, "keep_snapshots"),
        (build_tenant, "keep_snapshots"),
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
    ]
    present = [
        f"{fn.__qualname__}({keyword}=)"
        for fn, keyword in removed
        if keyword in inspect.signature(fn).parameters
    ]
    assert not present, present


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_run_experiment_is_lazy_but_works():
    result = repro.run_experiment(
        "splash2x/volrend", config="baseline", time_scale=0.05
    )
    assert result.runtime_us > 0
