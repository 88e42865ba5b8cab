"""The Table 1 scheme actions and their kernel back-ends.

=============  ==============================================================
Action         Description (paper Table 1)
=============  ==============================================================
WILLNEED       Ask the kernel to expect the region to be accessed soon.
COLD           Ask the kernel to expect the region not to be accessed soon.
HUGEPAGE       THP promotion for the region.
NOHUGEPAGE     THP demotion for the region.
PAGEOUT        Immediately page out the region.
STAT           Only count regions fulfilling the conditions (for working-set
               estimation and scheme tuning).
LRU_PRIO       Move the region to the head of the active LRU list.
LRU_DEPRIO     Move the region to the tail of the inactive LRU list.
MIGRATE_HOT    Migrate the region up into the fast memory tier (DRAM).
MIGRATE_COLD   Migrate the region down into the slow memory tier.
=============  ==============================================================

LRU_PRIO and LRU_DEPRIO are the "more actions in the future" the paper
announces (Table 1's closing sentence); they shipped upstream as the
DAMON_LRU_SORT module's primitives.  MIGRATE_HOT and MIGRATE_COLD are
the access-aware tiering pair that followed (upstream's
damos_migrate_pages, the Memos/KLOC direction): region heat decides
which tier backs a region's frames.  On a flat machine both are no-ops.
"""

from __future__ import annotations

import enum

from ..errors import SchemeError
from ..sim.kernel import SimKernel
from ..sim.pagetable import HUGE_PAGE_SIZE, PAGE_SIZE

__all__ = ["Action", "apply_action"]


class Action(enum.Enum):
    """A DAMOS memory operation, declared with its kernel back-ends.

    The members are the one ``token, virtual back-end, physical back-end,
    bytes per unit`` table.  A back-end names the
    :class:`~repro.sim.kernel.SimKernel` method that serves a range of
    that address space and returns a unit count (``None``: nothing to
    call).  The token alone is the member's ``value``; the rest are its
    attributes ``vaddr``, ``paddr`` and ``unit``.
    """

    def __new__(cls, token, vaddr, paddr, unit):
        member = object.__new__(cls)
        member._value_ = token
        member.vaddr = vaddr
        member.paddr = paddr
        member.unit = unit
        return member

    # Mirrors upstream: paddr DAMOS handles pageout and LRU sorting (a
    # COLD hint there is a deprioritisation); THP, prefetch and tier
    # migration need a virtual mapping context.
    WILLNEED = ("willneed", "madvise_willneed", None, PAGE_SIZE)
    COLD = ("cold", "madvise_cold", "lru_deprioritize_phys", PAGE_SIZE)
    HUGEPAGE = ("hugepage", "madvise_hugepage", None, HUGE_PAGE_SIZE)
    NOHUGEPAGE = ("nohugepage", "madvise_nohugepage", None, HUGE_PAGE_SIZE)
    PAGEOUT = ("pageout", "pageout", "pageout_phys", PAGE_SIZE)
    #: Touches nothing, in either address space.
    STAT = ("stat", None, None, 0)
    LRU_PRIO = ("lru_prio", "lru_prioritize", "lru_prioritize_phys", PAGE_SIZE)
    LRU_DEPRIO = ("lru_deprio", "lru_deprioritize", "lru_deprioritize_phys", PAGE_SIZE)
    MIGRATE_HOT = ("migrate_hot", "migrate_hot", None, PAGE_SIZE)
    MIGRATE_COLD = ("migrate_cold", "migrate_cold", None, PAGE_SIZE)

    @classmethod
    def parse(cls, token: str) -> "Action":
        """Parse an action token; accepts the paper's spelling variants
        (``page_out``, ``thp``, ``nothp``)."""
        normalized = token.strip().lower().replace("_", "")
        aliases = {action.value.replace("_", ""): action for action in cls}
        aliases.update(thp=cls.HUGEPAGE, nothp=cls.NOHUGEPAGE)
        try:
            return aliases[normalized]
        except KeyError:
            known = ", ".join(sorted(set(aliases)))
            raise SchemeError(f"unknown action {token!r}; known: {known}") from None


#: Actions available on a physical-address target: those with a physical
#: back-end, and STAT, which needs none.
PADDR_ACTIONS = frozenset(a for a in Action if a.paddr is not None or a.vaddr is None)


def require_paddr_support(action: Action) -> None:
    """Raise :class:`SchemeError` unless ``action`` is in
    :data:`PADDR_ACTIONS`; one text for the pre-run check and the apply."""
    if action not in PADDR_ACTIONS:
        raise SchemeError(
            f"action {action.value} is not supported on physical-address "
            f"targets (supported: {sorted(a.value for a in PADDR_ACTIONS)})"
        )


def apply_action(
    kernel: SimKernel, action: Action, start: int, end: int, now: int, *, phys: bool = False
) -> int:
    """Apply ``action`` to ``[start, end)``; returns bytes operated on.

    The scalar adapter over :meth:`~repro.sim.kernel.SimKernel.scheme_pass`:
    a one-row pass, so a single range takes exactly the engine's path.
    ``phys`` selects the physical-address back-ends: the range is frame
    addresses resolved through the reverse map, and only
    :data:`PADDR_ACTIONS` are available.  STAT touches nothing and
    reports the full region size (the engine's statistics layer counts
    it).
    """
    if end <= start:
        raise SchemeError(f"empty action range [{start:#x}, {end:#x})")
    if phys:
        require_paddr_support(action)
    backend = action.paddr if phys else action.vaddr
    return int(kernel.scheme_pass(backend, [start], [end], now, unit=action.unit)[0])
