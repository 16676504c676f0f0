"""Off-chip DRAM model.

The paper models DRAM as a flat 300-cycle access (Table 4).  That flat model
is the default here; an optional banked mode adds queueing behind per-bank
busy windows so bandwidth-bound workloads see realistic pile-ups.  Both modes
are deterministic.
"""

from __future__ import annotations

from ..common.config import DramConfig
from ..common.stats import StatGroup

__all__ = ["Dram"]


class Dram:
    """DRAM with fixed latency and optional bank-occupancy contention.

    Parameters
    ----------
    config:
        The :class:`~repro.common.config.DramConfig` to honour.
    stats:
        Optional stat group; a private one is created if omitted.
    """

    def __init__(self, config: DramConfig | None = None, stats: StatGroup | None = None) -> None:
        self.config = config or DramConfig()
        self.stats = stats if stats is not None else StatGroup("dram")
        self._bank_free_at = [0] * self.config.num_banks
        # Hot-path caches: every L2 miss lands here, so skip the per-access
        # config attribute chain and StatGroup.add calls (incrementing the
        # backing defaultdict directly is observably identical).
        self._counters = self.stats.counters
        self._latency = self.config.latency
        self._model_banks = self.config.model_banks

    def access(self, block_addr: int, now: int, *, is_write: bool = False) -> int:
        """Issue an access at time *now*; return its latency in cycles.

        In flat mode this is always ``config.latency``.  In banked mode the
        request first waits for its bank to free, then occupies it for
        ``bank_busy_cycles``.
        """
        counters = self._counters
        counters["writes" if is_write else "reads"] += 1
        latency = self._latency
        if self._model_banks:
            bank = block_addr & (self.config.num_banks - 1)
            start = max(now, self._bank_free_at[bank])
            queue_delay = start - now
            self._bank_free_at[bank] = start + self.config.bank_busy_cycles
            if queue_delay:
                self.stats.add("bank_conflict_cycles", queue_delay)
                self.stats.add("bank_conflicts")
            latency += queue_delay
        counters["busy_cycles"] += latency
        return latency

    def reset(self) -> None:
        """Clear bank occupancy and counters."""
        self._bank_free_at = [0] * self.config.num_banks
        self.stats.reset()
