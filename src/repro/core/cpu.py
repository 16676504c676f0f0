"""Trace-driven timing core.

A :class:`TraceCore` replays one program's L2-access trace.  Each trace
record carries the number of instructions executed since the previous L2
access (``gap``, which subsumes all compute and L1-hit activity at the base
CPI) plus the block address and read/write flag.  Memory is blocking: the
core stalls for the full L2-and-below latency of each access, which is the
first-order behaviour the paper's latency deltas (10 / 30 / 40 / 300 cycles)
act upon.

The trace wraps around when exhausted so co-scheduled cores keep exerting
cache pressure until every core reaches the measurement target — mirroring
the paper's fixed-cycle detailed-simulation window.

Scalar-loop columns
-------------------
Indexing the trace's NumPy arrays record-by-record boxes a NumPy scalar per
field per access (three boxed scalars plus ``int()``/``bool()`` conversions
each step), which dominated the seed implementation.  A scalar loop (the
fast loop of :meth:`CmpSystem.run <repro.core.cmp.CmpSystem.run>`, or the
stepping methods below) therefore first calls :meth:`TraceCore.load_columns`,
which extracts the columns to flat Python lists **once per core**
(``Trace.as_lists``) and pre-scales the gap column by ``base_cpi``, so
stepping is pure list-indexing on plain ints.  The compiled core reads the
``Trace`` arrays directly and never builds the lists.  The arithmetic is
unchanged expression-for-expression, so results are bit-identical to the
reference implementation in :mod:`repro.core.reference` (asserted by the
property suite).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..workloads.trace import Trace

__all__ = ["TraceCore"]


class TraceCore:
    """One in-order core replaying an L2 access trace.

    Parameters
    ----------
    core_id:
        Index of this core in the CMP.
    trace:
        The (already core-rebased) access trace to replay.
    base_cpi:
        Cycles per instruction when no L2 access is outstanding.
    l1_latency:
        Cycles charged on every L2 access for the L1 lookup that missed.
    """

    __slots__ = (
        "core_id",
        "trace",
        "base_cpi",
        "l1_latency",
        "time",
        "instructions",
        "pos",
        "wraps",
        "target_instructions",
        "warmup_instructions",
        "warmup_end_time",
        "finish_time",
        "accesses",
        "_gaps",
        "_gap_cycles",
        "_addrs",
        "_writes",
        "_n",
    )

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        *,
        base_cpi: float = 1.0,
        l1_latency: int = 1,
    ) -> None:
        if len(trace) == 0:
            raise ValueError("cannot drive a core with an empty trace")
        self.core_id = core_id
        self.trace = trace
        self.base_cpi = base_cpi
        self.l1_latency = l1_latency
        self.time = 0  # completion time of the previous access
        self.instructions = 0
        self.pos = 0
        self.wraps = 0
        self.target_instructions: Optional[int] = None
        self.warmup_instructions = 0
        self.warmup_end_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.accesses = 0
        self._n = len(trace)
        # Scalar-loop columns, built by load_columns() on first use.
        self._gaps = self._gap_cycles = self._addrs = self._writes = None

    def load_columns(self) -> None:
        """Build the plain-int list columns the scalar loops step (once).

        The pre-scaled gap keeps ``int(gap * base_cpi)`` out of the
        per-access loop; the expression matches the reference
        implementation exactly.
        """
        if self._gaps is None:
            self._gaps, self._addrs, self._writes = self.trace.as_lists()
            self._gap_cycles = [int(gap * self.base_cpi) for gap in self._gaps]

    # -- trace stepping --------------------------------------------------

    def peek_issue_time(self) -> int:
        """Time at which the next L2 access will be issued."""
        self.load_columns()
        return self.time + self._gap_cycles[self.pos]

    def next_access(self) -> Tuple[int, int, bool]:
        """Consume the next record; return ``(issue_time, block_addr, is_write)``.

        The caller must complete the access via :meth:`complete`.
        """
        self.load_columns()
        pos = self.pos
        issue = self.time + self._gap_cycles[pos]
        addr = self._addrs[pos]
        write = self._writes[pos]
        self.instructions += self._gaps[pos]
        self.accesses += 1
        pos += 1
        if pos >= self._n:
            pos = 0
            self.wraps += 1
        self.pos = pos
        return issue, addr, write

    def complete(self, issue_time: int, l2_latency: int) -> None:
        """Finish the in-flight access: advance the core clock."""
        self.time = issue_time + self.l1_latency + l2_latency
        if self.warmup_end_time is None:
            if self.warmup_instructions == 0:
                self.warmup_end_time = 0  # no warmup: window starts at t=0
            elif self.instructions >= self.warmup_instructions:
                self.warmup_end_time = self.time
        if (
            self.finish_time is None
            and self.warmup_end_time is not None
            and self.target_instructions is not None
            and self.instructions >= self.warmup_instructions + self.target_instructions
        ):
            self.finish_time = self.time

    # -- measurement -------------------------------------------------------

    @property
    def warmed_up(self) -> bool:
        """True once the warmup section has been executed."""
        return self.warmup_end_time is not None

    @property
    def done(self) -> bool:
        """True once the measurement target has been crossed."""
        return self.finish_time is not None

    def ipc(self) -> float:
        """Instructions per cycle over the (post-warmup) measurement window.

        The paper fast-forwards 6 B cycles before its 3 B-cycle detailed
        window; warmup instructions and their cycles are likewise excluded
        here.
        """
        if self.finish_time is not None and self.target_instructions:
            window = self.finish_time - (self.warmup_end_time or 0)
            return self.target_instructions / max(window, 1)
        return self.instructions / self.time if self.time else 0.0
