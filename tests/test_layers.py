"""The package is a layer DAG (DESIGN.md §3).

DL401 checks every import inside ``repro`` against
:data:`repro.lint.astlint.LAYERS`; the meta-test in ``test_lint_ast.py``
pins the shipped tree to zero findings.  Here: the rule on a miniature
package, the table's coverage of the real one, and what a fresh process
actually loads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.lint import lint_paths
from repro.lint.astlint import LAYERS, _layer_of

SRC = Path(repro.__file__).resolve().parent

#: A miniature ``repro`` package: file -> source.  The comments name
#: the one import per file DL401 must report, or say it stays silent.
FIXTURE = {
    "repro/__init__.py": "",
    "repro/errors.py": "",
    "repro/sim/__init__.py": "",
    # Downward, absolute and relative, and within the own entry: silent.
    "repro/sim/kernel.py": (
        "import repro.errors\nfrom ..errors import DaosError\nfrom . import lru\n"
        "from .lru import LruReclaimer\n"
    ),
    # Upward from inside a function.
    "repro/sim/lru.py": "def build():\n    from ..runner import run_experiment\n",
    # Upward at module top.
    "repro/monitor/core.py": "from repro.schemes.engine import SchemesEngine\n",
    # An eager package __init__ reaching up: trace's lowest member is
    # trace, so importing any of its modules would load sim.
    "repro/trace/__init__.py": "from ..sim import kernel\n",
    # Sideways to a peer of the same row.
    "repro/faults/plan.py": "from ..tuning.score import ScoreFunction\n",
    # A module the table does not cover.
    "repro/gadget.py": "from .errors import DaosError\n",
}

#: (file, line) of every finding the fixture must produce.
EXPECTED = {
    ("repro/sim/lru.py", 2),
    ("repro/monitor/core.py", 1),
    ("repro/trace/__init__.py", 1),
    ("repro/faults/plan.py", 1),
    ("repro/gadget.py", 1),
}


def test_dl401_on_a_fixture_package(tmp_path):
    for name, source in FIXTURE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    diags = lint_paths([tmp_path / "repro"], relative_to=tmp_path)
    assert {d.code for d in diags} == {"DL401"}
    assert {(d.file, d.line) for d in diags} == EXPECTED
    messages = {d.file: d.message for d in diags}
    assert "up to layer runner" in messages["repro/sim/lru.py"]
    assert "sideways to its peer tuning" in messages["repro/faults/plan.py"]
    assert "not in the layer table" in messages["repro/gadget.py"]


def test_files_outside_the_package_are_not_checked(tmp_path):
    script = tmp_path / "tool.py"
    script.write_text("from repro.cli import main\n")
    assert lint_paths([script]) == []


def test_every_module_has_exactly_one_layer():
    entries = [entry for row in LAYERS for entry in row]
    assert len(entries) == len(set(entries))
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        assert _layer_of(name) is not None, f"{name} is not in astlint.LAYERS"


def _loaded_by(statement: str):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    code = f"import sys\n{statement}\nprint(__import__('json').dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC.parent)},
    ).stdout
    return [name for name in json.loads(out) if name == "repro" or name.startswith("repro.")]


def test_importing_the_errors_module_loads_nothing_else():
    assert _loaded_by("import repro.errors") == ["repro", "repro.errors"]


def test_sweep_worker_entry_loads_no_cli_fleet_or_source_linters():
    loaded = _loaded_by("import repro.sweep.supervisor")
    banned = ("repro.cli", "repro.fleet", "repro.lint.astlint", "repro.lint.dataflow",
              "repro.lint.baseline", "repro.analysis")
    assert not [name for name in loaded if name.startswith(banned)], loaded
    assert "repro.runner.experiment" in loaded  # the points it runs
