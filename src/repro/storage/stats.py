"""Page I/O counters.

A single mutable stats object is threaded through the pager and buffer
pool so experiments can ask "how many page fetches did that operation
cost?" -- the disk accesses the paper's Table 2 counts.  Lock traffic is
counted by the lock manager (``acquisition_counts``, ``wait_count``), not
here.
"""

from __future__ import annotations

from typing import Dict


class IOStats:
    """Counters for page traffic.

    ``logical_reads`` counts every page fetch request; ``physical_reads``
    counts only buffer misses (what the paper calls disk accesses).
    """

    __slots__ = ("logical_reads", "physical_reads", "writes", "allocations", "frees")

    def __init__(self) -> None:
        self.reset()

    def record_read(self, hit: bool) -> None:
        self.logical_reads += 1
        if not hit:
            self.physical_reads += 1

    def record_write(self) -> None:
        self.writes += 1

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy suitable for diffing before/after an operation."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"IOStats(logical={self.logical_reads}, physical={self.physical_reads}, "
            f"writes={self.writes})"
        )
