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
    else; production has no seam for swapping the kernel class."""
    from repro.runner.experiment import ExperimentRun, build_tenant

    for fn in (ExperimentRun.__init__, build_tenant):
        assert "kernel_cls" not in inspect.signature(fn).parameters


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_quick_run_is_lazy_but_works():
    result = repro.quick_run(
        "splash2x/volrend", config="baseline", time_scale=0.05
    )
    assert result.runtime_us > 0
