"""Split-transaction snoop bus model (Table 4).

The paper's bus is 16 bytes wide, runs at a 4:1 core-to-bus speed ratio, and
charges one bus cycle of arbitration.  Remote L2 latencies in the paper
(30 cycles for CC/DSR, 40 for SNUG's extra G/T lookup) already *include* the
average transfer cost, so by default the bus only *accounts* traffic
(address + data transactions, bytes moved, occupancy) without adding delay.

Setting ``BusConfig.model_contention=True`` turns on a busy-until occupancy
model: transactions queue behind each other and the queueing delay is
returned to the caller, which adds it to the access latency.  This is used
by the sensitivity/ablation benches to show the paper's conclusions are not
an artefact of the free-bus assumption.
"""

from __future__ import annotations

from ..common.config import BusConfig
from ..common.stats import StatGroup

__all__ = ["SnoopBus"]

#: Size in bytes of an address-only snoop transaction on the bus.
ADDRESS_BYTES = 8


class SnoopBus:
    """Shared snoop bus connecting the private L2 slices."""

    def __init__(self, config: BusConfig | None = None, stats: StatGroup | None = None) -> None:
        self.config = config or BusConfig()
        self.stats = stats if stats is not None else StatGroup("bus")
        self._busy_until = 0
        self._cost_cache: dict[int, int] = {}  # nbytes -> transfer cycles
        # Raw counter dict: StatGroup.add is a function call per bump and the
        # bus is touched several times per miss; incrementing the backing
        # defaultdict directly is observably identical.
        self._counters = self.stats.counters

    def _occupy(self, now: int, nbytes: int) -> int:
        """Reserve bandwidth for *nbytes* at *now*; return queueing delay."""
        cost = self._cost_cache.get(nbytes)
        if cost is None:
            cost = self._cost_cache[nbytes] = self.config.transfer_cycles(nbytes)
        counters = self._counters
        counters["busy_cycles"] += cost
        counters["bytes"] += nbytes
        if not self.config.model_contention:
            return 0
        start = max(now, self._busy_until)
        delay = start - now
        self._busy_until = start + cost
        if delay:
            counters["queue_cycles"] += delay
        return delay

    def snoop(self, now: int) -> int:
        """Broadcast an address-only transaction (retrieval/spill request)."""
        self._counters["snoops"] += 1
        return self._occupy(now, ADDRESS_BYTES)

    def transfer(self, now: int, nbytes: int) -> int:
        """Move a data payload (cache line) across the bus."""
        self._counters["transfers"] += 1
        return self._occupy(now, nbytes)

    def reset(self) -> None:
        self._busy_until = 0
        self.stats.reset()
