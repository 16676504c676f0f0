"""Shared sizing and fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables/figures (see DESIGN.md's
per-experiment index) and asserts its qualitative *shape*.  The ``REPRO_SCALE``
environment variable selects the cost/fidelity point:

=========  ==========================  ==========================
scale      system                      sweep sizing
=========  ==========================  ==========================
tiny       16-set slices               1 combo/class, short runs
small      64-set slices (default)     1 combo/class
medium     256-set slices              all 21 combos
paper      1024-set slices (Table 4)   all 21 combos, long runs
=========  ==========================  ==========================

The Figure 9/10/11 benches share one sweep via the session-scoped
``figure_data`` fixture: the expensive simulation runs once, each figure
bench then derives and prints its metric.

Timing artifacts
----------------
Speed benches persist their measurements as machine-readable JSON
(``BENCH_<name>.json``, via the ``bench_json`` fixture) so the performance
trajectory is tracked across PRs instead of living only in transient pytest
output.  Artifacts land in the untracked ``.benchmarks/`` at the repository
root by default, so a plain test run never rewrites the committed reference
files next to this one (``docs/benchmarks.md`` says how those are
refreshed); ``REPRO_BENCH_DIR`` redirects them.  ``REPRO_BENCH_RELAX=1``
relaxes the speedup *assertions* (for CI smoke runs on noisy/tiny machines)
while still exercising the bench code and writing the JSON.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.common.config import SystemConfig, scaled_config
from repro.experiments.performance import FigureData, evaluate_all
from repro.experiments.runner import RunPlan

SCALE = os.environ.get("REPRO_SCALE", "small")

RELAX_TIMING = os.environ.get("REPRO_BENCH_RELAX", "") not in ("", "0")

BENCH_OUT_DIR = Path(
    os.environ.get("REPRO_BENCH_DIR")
    or Path(__file__).resolve().parent.parent / ".benchmarks"
)

_SIZING = {
    # scale: (n_accesses, target_instr, warmup_instr, combos_per_class,
    #         char_sets, char_intervals, char_interval_accesses)
    "tiny": (4_000, 60_000, 40_000, 1, 16, 10, 800),
    "small": (25_000, 300_000, 300_000, 1, 64, 30, 2_000),
    "medium": (60_000, 800_000, 800_000, None, 256, 100, 10_000),
    "paper": (400_000, 5_000_000, 5_000_000, None, 1024, 1000, 100_000),
}


@dataclass(frozen=True)
class BenchScale:
    name: str
    config: SystemConfig
    plan: RunPlan
    combos_per_class: int | None
    char_sets: int
    char_intervals: int
    char_interval_accesses: int


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    n_acc, target, warmup, combos, csets, cints, cacc = _SIZING[SCALE]
    return BenchScale(
        name=SCALE,
        config=scaled_config(SCALE, seed=7),
        plan=RunPlan(
            n_accesses=n_acc,
            target_instructions=target,
            warmup_instructions=warmup,
            cc_probs=(0.0, 0.5, 1.0) if SCALE in ("tiny", "small") else (0.0, 0.25, 0.5, 0.75, 1.0),
        ),
        combos_per_class=combos,
        char_sets=csets,
        char_intervals=cints,
        char_interval_accesses=cacc,
    )


@pytest.fixture(scope="session")
def relax_timing() -> bool:
    """True when speedup assertions are relaxed (``REPRO_BENCH_RELAX=1``)."""
    return RELAX_TIMING


@pytest.fixture(scope="session")
def bench_json():
    """Writer for ``BENCH_<name>.json`` timing artifacts.

    Returns a callable ``write(name, payload) -> Path`` that wraps *payload*
    with the run's scale/host metadata and writes it canonically (sorted
    keys, trailing newline) for diff-friendly tracking across PRs.
    """

    def write(name: str, payload: dict) -> Path:
        doc = {
            "bench": name,
            "scale": SCALE,
            "relaxed_timing": RELAX_TIMING,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "unix_time": round(time.time(), 3),
            **payload,
        }
        BENCH_OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = BENCH_OUT_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path

    return write


@pytest.fixture(scope="session")
def figure_data(scale: BenchScale) -> FigureData:
    """The Figures 9-11 sweep, simulated once per session."""
    return evaluate_all(
        scale.config,
        scale.plan,
        combos_per_class=scale.combos_per_class,
    )
