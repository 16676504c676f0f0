"""L2 access traces.

A :class:`Trace` is the unit of workload in this package: three parallel
NumPy arrays describing a program's stream of L2 accesses —

* ``gaps``  — instructions executed since the previous L2 access (>= 1;
  subsumes compute and L1 hits),
* ``addrs`` — block addresses (line granularity; the L2 never needs offsets),
* ``writes`` — store flags.

Traces are immutable value objects; :meth:`rebase` produces the core-private
view used when a program is scheduled onto a core (disjoint address spaces —
the paper's multiprogrammed, no-data-sharing setting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..common.bitops import is_pow2
from ..common.errors import TraceError
from ..mem.address import core_address_base

__all__ = ["Trace"]


@dataclass(frozen=True)
class Trace:
    """An immutable stream of L2 accesses."""

    gaps: np.ndarray
    addrs: np.ndarray
    writes: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        gaps = np.ascontiguousarray(self.gaps, dtype=np.int64)
        addrs = np.ascontiguousarray(self.addrs, dtype=np.int64)
        writes = np.ascontiguousarray(self.writes, dtype=bool)
        if not (len(gaps) == len(addrs) == len(writes)):
            raise TraceError(
                f"array length mismatch: gaps={len(gaps)} addrs={len(addrs)} writes={len(writes)}"
            )
        if len(gaps) == 0:
            raise TraceError("empty trace")
        if (gaps < 1).any():
            raise TraceError("every gap must be >= 1 instruction")
        if (addrs < 0).any():
            raise TraceError("block addresses must be non-negative")
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "addrs", addrs)
        object.__setattr__(self, "writes", writes)

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[Tuple[int, int, bool]]:
        for i in range(len(self.gaps)):
            yield int(self.gaps[i]), int(self.addrs[i]), bool(self.writes[i])

    # -- derived quantities ------------------------------------------------

    @property
    def instructions(self) -> int:
        """Total instructions the trace represents."""
        return int(self.gaps.sum())

    @property
    def footprint_blocks(self) -> int:
        """Number of distinct blocks touched."""
        return int(np.unique(self.addrs).size)

    def footprint_bytes(self, line_bytes: int = 64) -> int:
        """Touched capacity in bytes for a given line size."""
        return self.footprint_blocks * line_bytes

    @property
    def write_fraction(self) -> float:
        return float(self.writes.mean())

    @property
    def mean_gap(self) -> float:
        """Mean inter-access gap in instructions, computed once per trace.

        The event-budget guard of :meth:`repro.core.cmp.CmpSystem.run` reads
        this on every run; caching turns a per-run NumPy reduction into a
        dict lookup.  The trace is immutable, so the value can never go
        stale (stored via ``object.__setattr__`` to respect ``frozen``).
        """
        cached = self.__dict__.get("_mean_gap")
        if cached is None:
            cached = float(self.gaps.mean())
            object.__setattr__(self, "_mean_gap", cached)
        return cached

    def accesses_per_kilo_instruction(self) -> float:
        """L2 APKI — the intensity knob of the workload."""
        return 1000.0 * len(self) / self.instructions

    # -- transforms ------------------------------------------------------------

    def rebase(self, core_id: int, name: str | None = None) -> "Trace":
        """Move the trace into core *core_id*'s private address space."""
        base = core_address_base(core_id)
        return Trace(
            gaps=self.gaps,
            addrs=self.addrs + base,
            writes=self.writes,
            name=name or f"{self.name}@core{core_id}",
        )

    def head(self, n: int) -> "Trace":
        """The first *n* accesses (n must be >= 1)."""
        if n < 1:
            raise TraceError("head length must be >= 1")
        n = min(n, len(self))
        return Trace(self.gaps[:n], self.addrs[:n], self.writes[:n], name=f"{self.name}[:{n}]")

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces (phases of one program)."""
        return Trace(
            gaps=np.concatenate([self.gaps, other.gaps]),
            addrs=np.concatenate([self.addrs, other.addrs]),
            writes=np.concatenate([self.writes, other.writes]),
            name=name or f"{self.name}+{other.name}",
        )

    def set_histogram(self, num_sets: int) -> np.ndarray:
        """Access counts per set index (diagnostics for generators).

        ``num_sets`` must be a positive power of two — the mask below is a
        modulo only under that condition.
        """
        if not is_pow2(num_sets):
            raise TraceError(
                f"num_sets must be a positive power of two, got {num_sets}"
            )
        return np.bincount(
            (self.addrs & (num_sets - 1)).astype(np.int64), minlength=num_sets
        )

    # -- fast-path export --------------------------------------------------

    def as_lists(self) -> Tuple[list, list, list]:
        """The three columns as plain Python lists (``gaps, addrs, writes``).

        Only the scalar simulation loop builds these (through
        :meth:`~repro.core.cpu.TraceCore.load_columns`): per-access
        ``ndarray`` indexing boxes a NumPy scalar on every record, which
        dominates such a loop, and one bulk ``tolist()`` per core replaces
        millions of per-access conversions.  The compiled core reads the
        arrays directly.
        """
        return self.gaps.tolist(), self.addrs.tolist(), self.writes.tolist()
