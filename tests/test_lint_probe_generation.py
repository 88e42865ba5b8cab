"""Structural policy: every store into the rmap bumps its generation.

The sanitizer's keyed checks (frame conservation, tier placement) walk
the rmap and derive the live frame set only when
``(space.generation, FrameTable.rmap_generation)`` has moved since their
last clean pass (``sanitize/runtime.py``).  That only works if *every*
store into the owner column, or into the allocator's recycled stacks
the live set is derived from, sits in a function that bumps
``rmap_generation``, so this test walks ``src/repro/sim/`` and fails on
one that does not.  It matches the syntactic shapes of such stores:
subscript stores, augmented stores and ``.fill()``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "bad_dataflow" / "rmap_generation.txt"
SIM = Path(repro.__file__).resolve().parent / "sim"

#: The rmap's owner column and the allocator's recycled stacks; any
#: ``owner_*`` column counts too (the corpus's older rmap had two).
KEYED = {"owner", "_recycled", "_recycled_slow"}
#: The counter a function must bump (or, restoring, reset) itself.
COUNTER = "rmap_generation"


def _keyed(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and (
        node.attr in KEYED or node.attr.startswith("owner_")
    )


def keyed_stores(source: str):
    """``(function, line, bumps)`` for every store into a keyed array."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lines, bumps = [], False
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                lines += [
                    node.lineno
                    for t in targets
                    if isinstance(t, ast.Subscript) and _keyed(t.value)
                ]
                bumps |= any(
                    isinstance(t, ast.Attribute) and t.attr == COUNTER for t in targets
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "fill" and _keyed(node.func.value):
                    lines.append(node.lineno)
        found += [(fn.name, line, bumps) for line in lines]
    return found


def test_every_store_into_a_probed_column_bumps_the_generation():
    unpoliced = [
        f"{path.name}:{line} in {name}()"
        for path in sorted(SIM.glob("*.py"))
        for name, line, bumps in keyed_stores(path.read_text(encoding="utf-8"))
        if not bumps
    ]
    assert unpoliced == []


def test_the_walk_sees_the_known_writers():
    """Not vacuous: the known stores are found (and policed), all in the
    frame table."""
    found = {
        path.name: keyed_stores(path.read_text(encoding="utf-8"))
        for path in sorted(SIM.glob("*.py"))
    }
    assert [name for name, stores in found.items() if stores] == ["physmem.py"]
    rmap = found["physmem.py"]
    assert {name for name, _, _ in rmap} == {
        "allocate",
        "allocate_slow",
        "release",
        "shift_owners",
        "__setstate__",
    }
    assert all(bumps for _, _, bumps in rmap)
    # The owner column and both recycled stacks.
    assert sum(name == "release" for name, _, _ in rmap) == 3


def test_bad_corpus_is_caught():
    stores = keyed_stores(FIXTURE.read_text(encoding="utf-8"))
    assert [(name, bumps) for name, _, bumps in stores] == [
        ("remap", False),
        ("forget", False),
        ("allocate", True),
        ("allocate", True),
        ("push_free", False),
    ]
