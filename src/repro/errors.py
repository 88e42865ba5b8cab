"""Exception hierarchy for the DAOS reproduction.

Every error raised by the library derives from :class:`DaosError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations

from typing import Iterable


class DaosError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(DaosError, ValueError):
    """A textual input (scheme line, size, time, percentage) was malformed."""


class ConfigError(DaosError, ValueError):
    """A configuration object carries inconsistent or out-of-range values."""


class AddressSpaceError(DaosError):
    """An operation referenced addresses outside any mapped VMA."""


class MonitorStateError(DaosError, RuntimeError):
    """A monitor operation was attempted in an invalid lifecycle state."""


class SchemeError(DaosError):
    """A memory-management scheme could not be validated or applied."""


class TuningError(DaosError):
    """The auto-tuning runtime could not complete (e.g. zero sample budget)."""


class SwapFullError(DaosError):
    """A page-out was requested but the swap device has no free slots."""


class FaultError(DaosError):
    """An injected fault fired, or a fault plan could not be parsed.

    Raised *by* the fault-injection subsystem at hook points (so
    recovery paths have a typed exception to catch) and *about* it when
    a plan file is malformed.
    """


class SanitizerError(DaosError):
    """A SimSanitizer runtime check found simulation state violating a
    cross-layer invariant (frame conservation, counter coherence, region
    tiling, …).  Carries the structured violations on ``.violations``."""

    def __init__(self, message: str, violations: Iterable[object] = ()) -> None:
        super().__init__(message)
        #: The :class:`repro.sanitize.Violation` records behind the message.
        self.violations = list(violations)


class CheckpointError(DaosError):
    """A checkpoint could not be written, read, or trusted.

    Covers a checkpoint file that cannot be written, digest mismatches
    (the payload hash in the header does not match the bytes on disk)
    and format/version skew.  The CLI maps
    this class to exit code 4 so operators can distinguish a corrupt
    checkpoint from an ordinary configuration error (exit 2).
    """


class WatchdogTimeout(DaosError):
    """A supervised worker exceeded its deadline and was reaped.

    Raised when a sweep finishes with points that failed *because the
    watchdog killed them* (as opposed to the point itself raising).  The
    CLI maps this class to exit code 3.
    """
