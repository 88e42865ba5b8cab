"""The Data Access Monitor — the paper's core contribution (§3.1).

Region-based sampling with adaptive regions adjustment and aging:

* the monitored target is divided into regions of pages expected to have
  similar access frequency;
* every *sampling interval*, one randomly chosen page per region has its
  accessed bit checked (and a new sample page's bit cleared), so the
  per-interval cost is ``O(nr_regions)`` regardless of target size;
* every *aggregation interval*, per-region access counters are handed to
  callbacks and reset, and regions are merged (similar neighbours) and
  split (randomly, to probe for skew) while keeping the region count
  within ``[min_nr_regions, max_nr_regions]`` — the overhead upper bound
  and accuracy lower bound;
* the *aging* mechanism tracks for how many aggregation intervals a
  region's access frequency has been stable, providing the recency
  information schemes need.

The access-check mechanism is abstracted behind *monitoring primitives*
(§3.1): virtual-address targets walk VMAs and PTE accessed bits,
physical-address targets use the reverse map.
"""

from .attrs import MonitorAttrs
from .batch import BatchMonitorPass, BatchRegionTable
from .core import DataAccessMonitor
from .primitives import MonitoringPrimitive, PhysicalPrimitive, VirtualPrimitive
from .region import MIN_REGION_SIZE, RegionArray
from .snapshot import RegionSnapshot, Snapshot

__all__ = [
    "BatchMonitorPass",
    "BatchRegionTable",
    "DataAccessMonitor",
    "MIN_REGION_SIZE",
    "MonitorAttrs",
    "MonitoringPrimitive",
    "PhysicalPrimitive",
    "RegionArray",
    "RegionSnapshot",
    "Snapshot",
    "VirtualPrimitive",
]
