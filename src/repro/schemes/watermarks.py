"""Free-memory watermarks gating scheme activation.

An upstream extension: a scheme only runs while the system's free-memory
ratio sits between ``low`` and ``high``.  Above ``high`` there is no
pressure, so proactive reclaim would be wasted work; below ``low`` the
situation is critical and the kernel's emergency reclaim should act
instead of a best-effort scheme.  ``mid`` is the re-activation level
after a ``high`` deactivation (hysteresis).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchemeError

__all__ = ["Watermarks"]


@dataclass
class Watermarks:
    """Activation thresholds over the free-memory fraction in [0, 1]."""

    high: float = 1.0
    mid: float = 0.9
    low: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.low <= self.mid <= self.high <= 1.0:
            raise SchemeError(
                f"need 0 <= low <= mid <= high <= 1, got "
                f"({self.low}, {self.mid}, {self.high})"
            )
        self._active = False

    def update(self, free_ratio: float) -> bool:
        """Feed the current free-memory ratio; returns whether the scheme
        is active."""
        if not 0.0 <= free_ratio <= 1.0:
            raise SchemeError(f"free ratio out of [0, 1]: {free_ratio}")
        if free_ratio < self.low:
            self._active = False
        elif self._active:
            if free_ratio > self.high:
                self._active = False
        else:
            if free_ratio <= self.mid and free_ratio >= self.low:
                self._active = True
        return self._active

    @property
    def active(self) -> bool:
        return self._active
