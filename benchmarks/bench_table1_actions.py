"""Table 1 — the actions supported by the DAOS Scheme Engine.

Regenerates the table by demonstrating each action's semantics against
the simulated kernel and benchmarking the engine's action dispatch.
"""

from repro.schemes.actions import Action, apply_action
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC, format_size

BASE = 0x7F00_0000_0000
EPOCH = 100 * MSEC

DESCRIPTIONS = {
    Action.WILLNEED: "expect the region to be accessed soon (prefetch swapped pages)",
    Action.COLD: "expect the region not to be accessed soon (deactivate)",
    Action.HUGEPAGE: "THP promotions for the region",
    Action.NOHUGEPAGE: "THP demotions for the region",
    Action.PAGEOUT: "immediately page out the region",
    Action.STAT: "count regions fulfilling the conditions (WSS estimation)",
    # The future actions Table 1 announces; upstream's DAMON_LRU_SORT.
    Action.LRU_PRIO: "move the region to the active LRU list's head",
    Action.LRU_DEPRIO: "move the region to the inactive LRU list's tail",
    # The tiering pair; no-ops on this bench's flat (single-tier) guest.
    Action.MIGRATE_HOT: "migrate the region up into the fast memory tier",
    Action.MIGRATE_COLD: "migrate the region down into the slow memory tier",
}

_UNDESCRIBED = [action.name for action in Action if action not in DESCRIPTIONS]
if _UNDESCRIBED:
    raise LookupError(
        f"{__name__}.DESCRIPTIONS has no row for: {', '.join(_UNDESCRIBED)}"
    )


def fresh_kernel():
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=512 * MIB)
    kernel = SimKernel(guest, swap=ZramDevice(128 * MIB), seed=1)
    kernel.mmap(BASE, 64 * MIB)
    kernel.apply_access(BASE, BASE + 32 * MIB, now=0, epoch_us=EPOCH)
    return kernel


def observe(kernel, action):
    """Apply one action and return (bytes_applied, rss_delta)."""
    if action is Action.WILLNEED:
        kernel.pageout(BASE, BASE + 16 * MIB, now=1)
    rss_before = kernel.rss_bytes()
    applied = apply_action(kernel, action, BASE, BASE + 16 * MIB, now=2)
    if action is Action.NOHUGEPAGE:
        # Demotion only matters after a promotion.
        apply_action(kernel, Action.HUGEPAGE, BASE, BASE + 16 * MIB, now=2)
        rss_before = kernel.rss_bytes()
        applied = apply_action(kernel, action, BASE, BASE + 16 * MIB, now=3)
    return applied, kernel.rss_bytes() - rss_before


def test_table1_action_semantics(benchmark, report):
    rows = []
    for action in Action:
        kernel = fresh_kernel()
        applied, rss_delta = observe(kernel, action)
        rows.append((action, applied, rss_delta))

    def dispatch_all():
        kernel = fresh_kernel()
        total = 0
        for action in (Action.STAT, Action.COLD, Action.PAGEOUT):
            total += apply_action(kernel, action, BASE, BASE + 16 * MIB, now=2)
        return total

    benchmark(dispatch_all)

    report.add("Table 1: actions supported by the Scheme Engine")
    report.add(f"{'Action':12s} {'applied':>10s} {'RSS delta':>12s}  description")
    for action, applied, rss_delta in rows:
        sign = "+" if rss_delta >= 0 else "-"
        report.add(
            f"{action.name:12s} {format_size(applied):>10s} "
            f"{sign}{format_size(abs(rss_delta)):>11s}  {DESCRIPTIONS[action]}"
        )
    # Semantic assertions backing the table.
    table = {a: (applied, delta) for a, applied, delta in rows}
    assert table[Action.PAGEOUT][1] < 0  # reclaim shrinks RSS
    assert table[Action.WILLNEED][1] > 0  # prefetch restores RSS
    assert table[Action.HUGEPAGE][1] >= 0  # promotion may bloat
    assert table[Action.NOHUGEPAGE][1] <= 0  # demotion returns bloat
    assert table[Action.STAT][1] == 0  # stat never touches memory
    assert table[Action.COLD][1] == 0  # hint only
    assert table[Action.LRU_PRIO][1] == 0  # reordering only
    assert table[Action.LRU_DEPRIO][1] == 0
    assert table[Action.MIGRATE_HOT] == (0, 0)  # no slow tier to cross
    assert table[Action.MIGRATE_COLD] == (0, 0)
