"""The six system configurations of §4 ("Workloads").

    Baseline runs [the] kernel but disables DAOS features, turns off
    THP, and utilizes a 4 GiB Zram swap device.  Rec and prec run Data
    Access Monitor to monitor and record the access patterns in the
    virtual address space of the workload and the entire physical
    address space of the guest machine, respectively.  Thp turns THP
    on.  Ethp and prcl apply ethp and prcl memory schemes.

The ethp/prcl scheme text is the paper's Listing 3, verbatim.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigError
from ..monitor.attrs import MonitorAttrs
from ..schemes.analyzer import check_schemes
from ..schemes.parser import parse_schemes
from ..schemes.quotas import Quota
from ..schemes.scheme import Scheme

__all__ = ["ExperimentConfig", "CONFIGS", "get_config", "ETHP_SCHEMES", "PRCL_SCHEMES"]

#: Paper Listing 3, lines 2–3.
ETHP_SCHEMES = """\
# size  frequency  age  action
min max 5 max min max hugepage
2M max min min 7s max nohugepage
"""

#: Paper Listing 3, line 5.
PRCL_SCHEMES = """\
# size  frequency  age  action
4K max min min 5s max pageout
"""


@dataclass(frozen=True)
class ExperimentConfig:
    """One system configuration."""

    name: str
    #: Monitoring primitive: None (no monitor), "vaddr", or "paddr".
    monitor: Optional[str] = None
    #: THP mode for the run ("never" | "always" | "madvise").
    thp_mode: str = "never"
    #: Scheme text (Listing 1/3 format) installed into the engine.
    schemes_text: Optional[str] = None
    #: Optional charge quota applied to every installed scheme.
    quota: Optional[Quota] = None
    #: Record aggregation snapshots (for heatmaps) during the run.
    record: bool = False

    def __post_init__(self):
        if self.monitor not in (None, "vaddr", "paddr"):
            raise ConfigError(f"unknown monitor target: {self.monitor!r}")
        if self.thp_mode not in ("never", "always", "madvise"):
            raise ConfigError(f"unknown THP mode: {self.thp_mode!r}")
        if self.schemes_text is not None and self.monitor is None:
            raise ConfigError("schemes require a monitor")
        if self.quota is not None and self.schemes_text is None:
            raise ConfigError("a quota needs schemes to apply to")

    def build_schemes(
        self,
        attrs: MonitorAttrs,
        *,
        context: str,
        logger: Optional[logging.Logger] = None,
    ) -> List[Scheme]:
        """The configuration's scheme set for a monitor with ``attrs``:
        parsed, each scheme charging its own clone of the quota, and
        statically checked.

        Raises :class:`~repro.errors.SchemeError` (naming ``context``)
        before any simulation time is spent: a scheme set with
        error-severity diagnostics produces garbage experiments.
        Warnings go to ``logger`` when one is given.
        """
        schemes = parse_schemes(self.schemes_text, attrs)
        if self.quota is not None:
            for scheme in schemes:
                scheme.quota = self.quota.fresh_clone()
        check_schemes(
            schemes, attrs, context=context, logger=logger, phys=self.monitor == "paddr"
        )
        return schemes


CONFIGS = {
    "baseline": ExperimentConfig(name="baseline"),
    "rec": ExperimentConfig(name="rec", monitor="vaddr", record=True),
    "prec": ExperimentConfig(name="prec", monitor="paddr", record=True),
    "thp": ExperimentConfig(name="thp", thp_mode="always"),
    "ethp": ExperimentConfig(
        name="ethp", monitor="vaddr", thp_mode="madvise", schemes_text=ETHP_SCHEMES
    ),
    "prcl": ExperimentConfig(name="prcl", monitor="vaddr", schemes_text=PRCL_SCHEMES),
}


def get_config(name: str) -> ExperimentConfig:
    """Look up one of the six §4 configurations by name."""
    try:
        return CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(CONFIGS))
        raise ConfigError(f"unknown configuration {name!r}; known: {known}") from None


def prcl_config(min_age_us: int) -> ExperimentConfig:
    """A prcl variant with a custom ``min_age`` — the aggressiveness knob
    the metric-validation sweep (Figure 4) and the auto-tuner turn."""
    seconds = min_age_us / 1_000_000
    # Express the age in ms so the scheme text stays integral.
    text = f"4K max min min {int(round(min_age_us / 1000))}ms max pageout\n"
    return ExperimentConfig(name=f"prcl@{seconds:g}s", monitor="vaddr", schemes_text=text)
