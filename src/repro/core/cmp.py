"""The CMP system: event-ordered co-execution of trace cores over one scheme.

Cores are advanced in global-time order with a binary heap keyed on each
core's next issue time, so every scheme observes a globally nondecreasing
clock — required for SNUG's stage machinery and for bus/DRAM occupancy
modelling.  The run ends when every core has executed its target instruction
count; cores that reach the target early *keep running* (their cache
pressure must not vanish), but their IPC is measured at the crossing point,
exactly like the paper's fixed-window methodology.

Fast path
---------
:meth:`CmpSystem.run` inlines the trace-stepping of
:class:`~repro.core.cpu.TraceCore` into its event loop: the per-access
record fetch reads the core's plain-``int`` list columns directly (built
once per core, by the first run that steps it), bound methods
(``heappush``/``heappop``/``scheme.access``) are cached in locals, and
outcome tallies read the member's ``_value_`` attribute instead of the
``.value`` descriptor.  Every arithmetic expression matches the
reference implementation in :mod:`repro.core.reference` term-for-term, so
the produced :class:`SimResult` is bit-identical (asserted by the property
and determinism suites).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..common.config import SystemConfig
from ..common.errors import SimulationError
from ..schemes.base import L2Scheme, Outcome
from ..workloads.trace import Trace
from .cpu import TraceCore

__all__ = ["CmpSystem", "SimResult", "budget_exhausted_error"]


def budget_exhausted_error(budget: int, cores, finish_at: int) -> SimulationError:
    """The "event budget exhausted" error, with per-core progress attached.

    Shared by the fast and compiled cores so a stalled run is diagnosable
    from the message alone: which cores are short of the target, by how
    much, and how many times each has wrapped its trace.
    """
    progress = "; ".join(
        f"core {core.core_id}: {core.instructions}/{finish_at} instructions, "
        f"{core.wraps} wraps"
        for core in cores
    )
    return SimulationError(
        f"event budget exhausted ({budget}); a core appears unable to reach "
        f"its instruction target [{progress}]"
    )


@dataclass
class SimResult:
    """Outcome of one co-scheduled simulation."""

    scheme: str
    ipc: List[float]
    instructions: List[int]
    cycles: List[int]
    accesses: List[int]
    outcome_counts: Dict[str, int]
    stats: Dict[str, int] = field(default_factory=dict)
    #: Per-core outcome mix *within the measurement window* (until each
    #: core crossed its instruction target) — unlike ``stats``, these are
    #: not diluted by the post-target wrap-around co-run.
    window_outcomes: List[Dict[str, int]] = field(default_factory=list)
    #: Sum of L2-and-below latency cycles within the window, per core.
    window_latency: List[int] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Sum of per-core IPCs (Table 5)."""
        return float(sum(self.ipc))

    def summary(self) -> str:
        cores = " ".join(f"{x:.4f}" for x in self.ipc)
        return f"{self.scheme}: throughput={self.throughput:.4f} ipc=[{cores}]"

    # -- serialization (engine result store) -------------------------------

    def to_dict(self) -> dict:
        """A JSON-native representation that round-trips bit-identically.

        Every field is a plain int, float, str or container thereof; JSON
        float serialization uses ``repr`` (shortest round-trip form), so a
        dump/load cycle reproduces the exact same IEEE-754 doubles.
        """
        return {
            "scheme": self.scheme,
            "ipc": list(self.ipc),
            "instructions": list(self.instructions),
            "cycles": list(self.cycles),
            "accesses": list(self.accesses),
            "outcome_counts": dict(self.outcome_counts),
            "stats": dict(self.stats),
            "window_outcomes": [dict(w) for w in self.window_outcomes],
            "window_latency": list(self.window_latency),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Inverse of :meth:`to_dict`.

        ``window_outcomes``/``window_latency`` arrived with the windowed
        metrics (PR 4); results persisted by older stores lack the keys and
        must still load (e.g. after ``repro store migrate``), so they
        default to empty.
        """
        return cls(
            scheme=data["scheme"],
            ipc=list(data["ipc"]),
            instructions=list(data["instructions"]),
            cycles=list(data["cycles"]),
            accesses=list(data["accesses"]),
            outcome_counts=dict(data["outcome_counts"]),
            stats=dict(data["stats"]),
            window_outcomes=[dict(w) for w in data.get("window_outcomes", [])],
            window_latency=list(data.get("window_latency", [])),
        )


class CmpSystem:
    """Quad-core (or any power-of-two) CMP bound to one L2 scheme."""

    def __init__(
        self,
        config: SystemConfig,
        scheme: L2Scheme,
        traces: Sequence[Trace],
    ) -> None:
        if len(traces) != config.num_cores:
            raise SimulationError(
                f"{config.num_cores} cores but {len(traces)} traces supplied"
            )
        self.config = config
        self.scheme = scheme
        self.cores = [
            TraceCore(
                i,
                trace,
                base_cpi=config.base_cpi,
                l1_latency=config.latency.l1_hit,
            )
            for i, trace in enumerate(traces)
        ]

    def _arm(self, target_instructions: int, warmup_instructions: int) -> None:
        """Validate the run sizing and hand it to every core."""
        if target_instructions < 1:
            raise SimulationError("target_instructions must be positive")
        if warmup_instructions < 0:
            raise SimulationError("warmup_instructions must be non-negative")
        for core in self.cores:
            core.target_instructions = target_instructions
            core.warmup_instructions = warmup_instructions
            if warmup_instructions == 0:
                core.warmup_end_time = 0

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        """Co-execute until every core retires warmup + *target_instructions*.

        Parameters
        ----------
        target_instructions:
            Measurement window per core, in instructions.
        warmup_instructions:
            Instructions executed (and simulated, warming caches, monitors
            and duels) before the measurement window opens — the analogue of
            the paper's 6 B-cycle fast-forward before its 3 B-cycle window.
        max_events:
            Safety valve on total processed accesses (defaults to a generous
            multiple of the expected access count).
        """
        self._arm(target_instructions, warmup_instructions)
        for core in self.cores:
            core.load_columns()

        outcome_counts = {o.value: 0 for o in Outcome}
        window_outcomes = [{o.value: 0 for o in Outcome} for _ in self.cores]
        window_latency = [0 for _ in self.cores]
        cores = self.cores
        heap: List[tuple[int, int]] = [
            (core.peek_issue_time(), core.core_id) for core in cores
        ]
        heapq.heapify(heap)
        remaining = len(cores)
        budget = max_events if max_events is not None else 0
        if budget <= 0:
            # Worst case CPI ~ DRAM latency per access; bound generously.
            # Trace.mean_gap is cached on the trace, so repeated runs over
            # the same traces skip the NumPy reduction.
            mean_gap = max(1.0, float(min(c.trace.mean_gap for c in cores)))
            total = target_instructions + warmup_instructions
            budget = int(len(cores) * total / mean_gap * 50) + 10_000

        heappop = heapq.heappop
        heappush = heapq.heappush
        scheme_access = self.scheme.access
        finish_at = warmup_instructions + target_instructions

        events = 0
        while remaining and heap:
            events += 1
            if events > budget:
                raise budget_exhausted_error(budget, cores, finish_at)
            cid = heappop(heap)[1]
            core = cores[cid]
            was_done = core.finish_time is not None
            warmed = core.warmup_end_time is not None
            # -- TraceCore.next_access, inlined on the plain-int columns --
            pos = core.pos
            issue = core.time + core._gap_cycles[pos]
            result = scheme_access(cid, core._addrs[pos], core._writes[pos], issue)
            latency = result.latency
            core.instructions += core._gaps[pos]
            core.accesses += 1
            pos += 1
            if pos >= core._n:
                pos = 0
                core.wraps += 1
            core.pos = pos
            # ``_value_`` is the member's plain instance attribute; going
            # through ``.value`` would pay a Python-level descriptor call,
            # and keying by the member itself would pay Enum.__hash__.
            outcome_key = result.outcome._value_
            outcome_counts[outcome_key] += 1
            if warmed and not was_done:
                window_outcomes[cid][outcome_key] += 1
                window_latency[cid] += latency
            # -- TraceCore.complete, inlined --
            now = issue + core.l1_latency + latency
            core.time = now
            if not warmed and core.instructions >= core.warmup_instructions:
                core.warmup_end_time = now
            if (
                not was_done
                and core.warmup_end_time is not None
                and core.instructions >= finish_at
            ):
                core.finish_time = now
                remaining -= 1
            if remaining:
                heappush(heap, (now + core._gap_cycles[pos], cid))

        final_now = max(core.time for core in self.cores)
        self.scheme.finalize(final_now)
        return SimResult(
            scheme=self.scheme.name,
            ipc=[core.ipc() for core in self.cores],
            instructions=[core.instructions for core in self.cores],
            cycles=[core.finish_time or core.time for core in self.cores],
            accesses=[core.accesses for core in self.cores],
            outcome_counts=outcome_counts,
            stats=self.scheme.flat_stats(),
            window_outcomes=window_outcomes,
            window_latency=window_latency,
        )
