"""Set-associative cache slice built from :class:`~repro.cache.lruset.LruSet`.

This class is deliberately policy-free: it implements lookup / fill /
invalidate / victim mechanics plus statistics, while the L2 *schemes*
(:mod:`repro.schemes`) decide what to do on evictions and misses (spill,
receive, forward, ...).  Both the private slices of L2P/CC/DSR/SNUG and the
banks of the shared L2S reuse it unchanged.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..common.config import CacheGeometry
from ..common.stats import StatGroup
from ..mem.address import AddressMap
from .block import CacheLine
from .lruset import LruSet

__all__ = ["SetAssocCache"]


class SetAssocCache:
    """One physically-indexed set-associative cache slice.

    Parameters
    ----------
    geometry:
        Size / associativity / line size.
    name:
        Identifier used for the stat group (e.g. ``"l2_2"``).
    stats:
        Optional externally-owned stat group.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        name: str = "cache",
        stats: StatGroup | None = None,
    ) -> None:
        self.geometry = geometry
        self.amap = AddressMap.for_geometry(geometry)
        self.name = name
        self.stats = stats if stats is not None else StatGroup(name)
        self.sets = [LruSet(geometry.assoc) for _ in range(geometry.num_sets)]
        # Hot-path shortcuts: the set-index mask (amap.set_index is a method
        # call per access) and the stat group's raw counter dict (StatGroup
        # .add is a function call per counter bump; incrementing the backing
        # defaultdict directly is observably identical).
        self._index_mask = geometry.num_sets - 1
        self._counters = self.stats.counters

    # -- geometry helpers --------------------------------------------------

    @property
    def num_sets(self) -> int:
        return self.geometry.num_sets

    @property
    def assoc(self) -> int:
        return self.geometry.assoc

    def set_of(self, block_addr: int) -> LruSet:
        """The home set of *block_addr* (no flipping)."""
        return self.sets[self.amap.set_index(block_addr)]

    def set_at(self, index: int) -> LruSet:
        """The set at an explicit index (used by index-bit flipping)."""
        return self.sets[index]

    # -- access primitives ---------------------------------------------------

    def lookup(self, block_addr: int, set_index: Optional[int] = None) -> Optional[CacheLine]:
        """Look up *block_addr*, updating recency; return line or ``None``.

        ``set_index`` overrides the home index (flipped lookups).
        """
        idx = block_addr & self._index_mask if set_index is None else set_index
        line = self.sets[idx].touch(block_addr)
        if line is not None:
            self._counters["hits"] += 1
        else:
            self._counters["misses"] += 1
        return line

    def probe(self, block_addr: int, set_index: Optional[int] = None) -> Optional[CacheLine]:
        """Non-destructive lookup: no recency update, no stats."""
        idx = block_addr & self._index_mask if set_index is None else set_index
        return self.sets[idx].probe(block_addr)

    def fill(
        self,
        line: CacheLine,
        set_index: Optional[int] = None,
        *,
        at_lru: bool = False,
    ) -> Optional[CacheLine]:
        """Insert *line*; return the victim evicted to make room (or None).

        The caller is responsible for victim disposition (write-back, spill,
        shadow recording, ...).
        """
        idx = line.addr & self._index_mask if set_index is None else set_index
        target = self.sets[idx]
        victim = target.insert_at_lru(line) if at_lru else target.insert(line)
        self._counters["fills"] += 1
        if victim is not None:
            self._counters["evictions"] += 1
        return victim

    def invalidate(self, block_addr: int, set_index: Optional[int] = None) -> Optional[CacheLine]:
        """Remove *block_addr* from the (possibly overridden) set."""
        idx = block_addr & self._index_mask if set_index is None else set_index
        line = self.sets[idx].invalidate(block_addr)
        if line is not None:
            self.stats.add("invalidations")
        return line

    # -- bulk / inspection ---------------------------------------------------

    def resident(self) -> Iterator[CacheLine]:
        """Iterate over every resident line (MRU-first within each set)."""
        for lruset in self.sets:
            yield from lruset

    def occupancy(self) -> int:
        """Total number of resident lines."""
        return sum(len(s) for s in self.sets)

    def cc_occupancy(self) -> int:
        """Number of resident cooperatively-cached (hosted) lines."""
        return sum(1 for line in self.resident() if line.cc)

    def clear(self) -> None:
        for lruset in self.sets:
            lruset.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        g = self.geometry
        return (
            f"SetAssocCache({self.name!r}, {g.size_bytes >> 10}KB, "
            f"{g.assoc}-way, {g.num_sets} sets)"
        )
