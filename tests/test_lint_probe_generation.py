"""Structural policy: every store into a probed column bumps the counter.

``FlatPageTable.probe_generation`` tells the monitor when a planned
accessed-bit answer went stale (DESIGN.md §12, "Sampling lookahead").
It only works if *every* store into a column the probe reads sits in a
function that bumps it, so this test walks ``src/repro/sim/`` and fails
on one that does not (the same for the rmap's owner arrays and
``FrameTable.rmap_generation``).  The sanitizer's ``sample_lookahead``
check is the runtime net for whatever gets past the syntactic shapes
matched here (subscript stores, augmented stores and ``.fill()``).

``rmap_generation`` is also half of the key the sanitizer's
frame-conservation and tier-placement passes wait on
(``sanitize/runtime.py``), so the allocator's recycled stacks, which
those passes derive the live frame set from, are held to the same rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "bad_dataflow" / "probe_generation.txt"
SIM = Path(repro.__file__).resolve().parent / "sim"

#: Columns the accessed-bit probes read: ``FlatPageTable.access_probability``
#: (both primitives) and the rmap lookup in front of it (physical only).
PROBED = {"rate", "chunk_huge", "owner_vma", "owner_page"}
#: What the sanitizer's keyed checkers read of the allocator beyond the
#: owner arrays.
KEYED = {"_recycled", "_recycled_slow"}
#: Calls that bump ``probe_generation`` on the owning flat table, and the
#: counters a function may bump (or, restoring, reset) itself.
BUMPERS = {"_invalidate_chunk_rates", "_bump_probe_generation"}
COUNTERS = {"probe_generation", "rmap_generation"}


def _probed(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in PROBED | KEYED


def probed_stores(source: str):
    """``(function, line, bumps)`` for every store into a probed column."""
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
                    if isinstance(t, ast.Subscript) and _probed(t.value)
                ]
                bumps |= any(
                    isinstance(t, ast.Attribute) and t.attr in COUNTERS
                    for t in targets
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                bumps |= node.func.attr in BUMPERS
                if node.func.attr == "fill" and _probed(node.func.value):
                    lines.append(node.lineno)
        found += [(fn.name, line, bumps) for line in lines]
    return found


def test_every_store_into_a_probed_column_bumps_the_generation():
    unpoliced = [
        f"{path.name}:{line} in {name}()"
        for path in sorted(SIM.glob("*.py"))
        for name, line, bumps in probed_stores(path.read_text(encoding="utf-8"))
        if not bumps
    ]
    assert unpoliced == []


def test_the_walk_sees_the_known_writers():
    """Not vacuous: the known stores are found (and policed)."""
    stores = probed_stores((SIM / "pagetable.py").read_text(encoding="utf-8"))
    assert {name for name, _, _ in stores} == {
        "set_rate",
        "add_rate",
        "clear_rates",
        "promote_chunks",
        "demote_chunks",
    }
    assert len(stores) == 6 and all(bumps for _, _, bumps in stores)
    rmap = probed_stores((SIM / "physmem.py").read_text(encoding="utf-8"))
    assert {name for name, _, _ in rmap} == {
        "allocate",
        "allocate_slow",
        "release",
        "__setstate__",
    }
    # Both owner arrays and both recycled stacks.
    assert sum(name == "release" for name, _, _ in rmap) == 4


def test_bad_corpus_is_caught():
    stores = probed_stores(FIXTURE.read_text(encoding="utf-8"))
    assert [(name, bumps) for name, _, bumps in stores] == [
        ("decay_rates", False),
        ("collapse", False),
        ("zero", False),
        ("set_rate", True),
        ("push_free", False),
    ]
