"""Common machinery for the five L2 organizations of Section 4.1.

Every scheme implements a single entry point::

    access(core, block_addr, is_write, now) -> AccessResult

returning the L2-and-below latency of the reference (the trace core adds the
L1 latency and instruction-gap cycles).  Schemes own the full memory
substrate below L1: private (or banked) L2 slices, per-slice write-back
buffers, the snoop bus and DRAM.

The class hierarchy::

    L2Scheme                  (abstract: substrate + helpers)
      PrivateL2Base           (per-core slices; victim disposition; retrieval)
        L2P, CooperativeCaching, DynamicSpillReceive, SnugCache
      SharedL2 (L2S)          (address-interleaved banks)
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cache.block import CacheLine
from ..cache.cache import SetAssocCache
from ..common.config import SystemConfig
from ..common.rng import RngFactory
from ..common.stats import StatGroup
from ..interconnect.bus import SnoopBus
from ..mem.dram import Dram
from ..mem.writebuffer import WriteBackBuffer

__all__ = ["Outcome", "AccessResult", "L2Scheme", "PrivateL2Base"]


class Outcome(enum.Enum):
    """Where an L2 access was ultimately serviced."""

    LOCAL_HIT = "local_hit"
    WBUF_HIT = "wbuf_hit"
    REMOTE_HIT = "remote_hit"
    MEMORY = "memory"


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Latency (core cycles below L1) and service point of one access."""

    latency: int
    outcome: Outcome

    @property
    def hit_on_chip(self) -> bool:
        return self.outcome is not Outcome.MEMORY


class L2Scheme(ABC):
    """Abstract L2 organization owning the sub-L1 memory substrate."""

    #: short identifier used by the factory and in reports (e.g. ``"snug"``)
    name: str = "abstract"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = StatGroup(self.name)
        self.rngf = RngFactory(config.seed)
        self.bus = SnoopBus(config.bus, self.stats.child("bus"))
        self.dram = Dram(config.dram, self.stats.child("dram"))
        # Miss results repeat a handful of latencies (stall cycles are
        # usually 0); AccessResult is frozen, so instances are shareable and
        # a dict probe replaces the dataclass construction on the miss path.
        self._mem_results: Dict[int, AccessResult] = {}
        self._remote_results: Dict[int, AccessResult] = {}
        self._wbuf_results: Dict[int, AccessResult] = {}

    def _mem_result(self, latency: int) -> AccessResult:
        res = self._mem_results.get(latency)
        if res is None:
            res = self._mem_results[latency] = AccessResult(latency, Outcome.MEMORY)
        return res

    def _remote_result(self, latency: int) -> AccessResult:
        res = self._remote_results.get(latency)
        if res is None:
            res = self._remote_results[latency] = AccessResult(latency, Outcome.REMOTE_HIT)
        return res

    def _wbuf_result(self, latency: int) -> AccessResult:
        res = self._wbuf_results.get(latency)
        if res is None:
            res = self._wbuf_results[latency] = AccessResult(latency, Outcome.WBUF_HIT)
        return res

    @abstractmethod
    def access(self, core: int, block_addr: int, is_write: bool, now: int) -> AccessResult:
        """Perform one L2 access for *core* at time *now*."""

    def finalize(self, now: int) -> None:
        """Hook called once when the simulation ends (epoch bookkeeping)."""

    # -- shared helpers ----------------------------------------------------

    def _memory_fetch(self, block_addr: int, now: int) -> int:
        """Latency of a demand fetch from DRAM.

        The flat (un-banked) DRAM path is inlined: it is pure counter
        arithmetic, and every off-chip miss pays it.
        """
        dram = self.dram
        if not dram._model_banks:
            counters = dram._counters
            counters["reads"] += 1
            latency = dram._latency
            counters["busy_cycles"] += latency
            return latency
        return dram.access(block_addr, now)

    def flat_stats(self) -> dict:
        """All counters of the scheme, flattened."""
        return self.stats.flatten()


class PrivateL2Base(L2Scheme):
    """Base for organizations built from per-core private slices.

    Provides: slice/write-buffer construction, the common local-hit /
    write-buffer / DRAM path, dirty-victim disposition, and the
    peer-ordering used to model "first responder on the bus".
    """

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        n = config.num_cores
        self.slices: List[SetAssocCache] = [
            SetAssocCache(config.l2, f"l2_{i}", self.stats.child(f"l2_{i}")) for i in range(n)
        ]
        self.wbufs: List[WriteBackBuffer] = [
            WriteBackBuffer(config.write_buffer, self.stats.child(f"wbuf_{i}")) for i in range(n)
        ]
        self.amap = self.slices[0].amap
        self._peers = [[(core + d) % n for d in range(1, n)] for core in range(n)]
        # Hot-path caches: the per-slice stat groups (child() costs an
        # f-string plus a dict probe per call) and the set-index mask.
        self._slice_stats = [self.stats.child(f"l2_{i}") for i in range(n)]
        self._set_mask = config.l2.num_sets - 1
        # Local hits all share one latency and outcome; AccessResult is
        # frozen, so a single shared instance replaces a per-hit construction.
        self._local_hit_result = AccessResult(config.latency.l2_local, Outcome.LOCAL_HIT)

    def peers_of(self, core: int) -> List[int]:
        """Snoop response order: nearest neighbour first (deterministic).

        Returns a cached list (one allocation per core at construction, not
        one per remote access) — callers iterate, they must not mutate.
        """
        return self._peers[core]

    def _dispose_dirty(self, core: int, victim: CacheLine, now: int) -> int:
        """Deposit a dirty victim in the core's write buffer; return stall."""
        self._slice_stats[core].add("writebacks")
        return self.wbufs[core].deposit(victim.addr, now)

    def _local_paths(
        self, core: int, block_addr: int, is_write: bool, now: int
    ) -> Optional[AccessResult]:
        """Try the local slice, then the write buffer.

        Returns a result if serviced locally, else ``None`` (caller goes
        remote / to memory).  On a write-buffer hit the block is pulled back
        into the cache dirty (the buffered copy was newer than memory); the
        caller-specific victim disposition is *not* applied here, so this
        helper refills via :meth:`_refill` which subclasses override.
        """
        cache = self.slices[core]
        # lookup() inlined (mask + touch + counters): the single hottest
        # call site in the simulator.  touch() stays polymorphic — the
        # reference system swaps in ReferenceLruSet instances.
        line = cache.sets[block_addr & cache._index_mask].touch(block_addr)
        if line is not None:
            cache._counters["hits"] += 1
            if is_write:
                line.dirty = True
            self._on_local_hit(core, block_addr, now)
            return self._local_hit_result
        cache._counters["misses"] += 1
        wbuf = self.wbufs[core]
        # An empty buffer can't hit and try_read mutates nothing on it;
        # checking here keeps a call off the common miss path.
        if wbuf._entries and wbuf.try_read(block_addr, now):
            fill = CacheLine(addr=block_addr, dirty=True, owner=core)
            stall = self._refill(core, fill, now)
            return self._wbuf_result(self._local_hit_result.latency + stall)
        return None

    def _refill(self, core: int, line: CacheLine, now: int) -> int:
        """Fill *line* into the core's slice, disposing of the victim.

        Returns extra stall cycles (write-buffer backpressure).  Subclasses
        extend victim disposition (shadow recording, spilling).
        """
        victim = self.slices[core].fill(line)
        return self._dispose_victim(core, victim, now)

    def _dispose_victim(self, core: int, victim: Optional[CacheLine], now: int) -> int:
        """Default disposition: dirty -> write buffer, clean -> dropped."""
        if victim is None:
            return 0
        if victim.cc:
            self._slice_stats[core].add("cc_evicted")
            return 0
        if victim.dirty:
            return self._dispose_dirty(core, victim, now)
        return 0

    def _on_local_hit(self, core: int, block_addr: int, now: int) -> None:
        """Hook for demand monitors (SNUG) — default: nothing."""

    def total_resident(self, block_addr: int) -> int:
        """How many slices hold *block_addr* (invariant: <= 1)."""
        return sum(1 for s in self.slices if s.probe(block_addr) is not None
                   or s.probe(block_addr, self.amap.flipped_index(self.amap.set_index(block_addr))) is not None)
