"""Simulation runner: one workload combination under one or all schemes.

This is the bridge between workloads and the timing system, implementing the
paper's per-combination methodology:

* build the four core-rebased traces of a mix (one instance seed per slot);
* run the L2P baseline, then each candidate scheme on *identical* traces;
* for CC, sweep the spill probabilities {0, 25, 50, 75, 100}% and keep the
  best throughput — the paper's **CC(Best)**;
* return per-scheme :class:`~repro.core.cmp.SimResult` s plus the derived
  Table 5 metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..analysis.metrics import average_weighted_speedup, fair_speedup, normalized_throughput
from ..common.config import SystemConfig
from ..common.errors import ConfigError, EngineError
from ..core.cmp import CmpSystem, SimResult
from ..schemes.factory import make_scheme
from ..workloads.mixes import WorkloadMix
from ..workloads.trace import Trace

__all__ = [
    "RunPlan",
    "SIM_CORES",
    "ComboResult",
    "make_system",
    "run_traces",
    "run_cc_best",
    "run_combo",
    "select_cc_best",
    "merge_task_results",
    "normalize_schemes",
    "CC_PROBS_FULL",
    "CC_PROBS_FAST",
    "DEFAULT_SCHEMES",
]

#: The paper's five-scheme comparison (Figures 9-11) — the single source of
#: truth for every default scheme list (serial sweep, parallel engine, CLI).
DEFAULT_SCHEMES: tuple[str, ...] = ("l2p", "l2s", "cc_best", "dsr", "snug")

#: The paper's CC(Best) sweep.
CC_PROBS_FULL: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Reduced sweep for quick runs (endpoints + middle).
CC_PROBS_FAST: tuple[float, ...] = (0.0, 0.5, 1.0)


#: The selectable simulation cores (see :mod:`repro.core`): ``auto`` is the
#: production core (:mod:`repro.core.compiled` — per-scheme kernels, with the
#: fast loop for schemes that have none), ``fast`` the scalar event loop,
#: ``reference`` the seed loop every other core is held bit-identical to.
SIM_CORES: tuple[str, ...] = ("auto", "fast", "reference")


@dataclass(frozen=True)
class RunPlan:
    """Sizing of one simulation run.

    ``snug_monitor`` selects SNUG's online demand-monitor path: SNUG-family
    tasks attach an :class:`~repro.schemes.snug.OnlineDemandMonitor` so G/T
    classification comes from a streaming stack-distance profile of the
    observed reference stream instead of the hardware counters.  The flag
    lives on the plan (not the CLI or backend) so it ships to every
    execution backend's workers with the rest of the run sizing.

    ``sim_core`` selects the stepping loop (one of :data:`SIM_CORES`; the
    default ``auto`` is the compiled core, see :func:`make_system`).  All
    cores are bit-identical at the :class:`~repro.core.cmp.SimResult` level
    (the conformance contract), so the choice never changes results — it
    lives on the plan only so it ships to every backend's workers, and is
    excluded from the scenario content hash and the store manifest.

    ``max_events`` caps the total processed accesses before the run aborts
    with a budget-exhausted :class:`~repro.common.errors.SimulationError`
    (``None`` keeps the generous built-in default).  Unlike ``sim_core``
    this is part of the experiment contract: a tighter valve can abort runs
    the default would finish.
    """

    n_accesses: int = 40_000
    target_instructions: int = 600_000
    warmup_instructions: int = 400_000
    seed: int = 0
    cc_probs: Sequence[float] = CC_PROBS_FAST
    snug_monitor: bool = False
    sim_core: str = "auto"
    max_events: int | None = None

    def __post_init__(self) -> None:
        if self.n_accesses < 1 or self.target_instructions < 1:
            raise ValueError("run plan sizes must be positive")
        if self.warmup_instructions < 0:
            raise ValueError("warmup must be non-negative")
        if self.sim_core not in SIM_CORES:
            raise ValueError(
                f"sim_core must be one of {', '.join(SIM_CORES)}; "
                f"got {self.sim_core!r}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be positive (or None for the default)")


@dataclass
class ComboResult:
    """All schemes' results for one workload combination."""

    mix_id: str
    mix_class: str
    results: Dict[str, SimResult]
    cc_best_prob: float | None = None
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def compute_metrics(self, baseline: str = "l2p") -> None:
        """Fill ``metrics[scheme] = {throughput, aws, fs}`` vs *baseline*."""
        base = self.results[baseline].ipc
        for name, res in self.results.items():
            self.metrics[name] = {
                "throughput": normalized_throughput(res.ipc, base),
                "aws": average_weighted_speedup(res.ipc, base),
                "fs": fair_speedup(res.ipc, base),
            }


def make_system(sim_core: str, config: SystemConfig, scheme, traces) -> CmpSystem:
    """Instantiate the requested stepping loop over *scheme* and *traces*.

    ``auto`` is :class:`~repro.core.compiled.CompiledCmpSystem`, whose run
    steps the schemes with a compiled kernel and hands every other scheme
    to the fast scalar loop.
    """
    if sim_core == "auto":
        from ..core.compiled import CompiledCmpSystem

        return CompiledCmpSystem(config, scheme, traces)
    if sim_core == "fast":
        return CmpSystem(config, scheme, traces)
    if sim_core == "reference":
        from ..core.reference import ReferenceCmpSystem

        return ReferenceCmpSystem(config, scheme, traces)  # type: ignore[return-value]
    raise ConfigError(
        f"unknown sim_core {sim_core!r}; known: {', '.join(SIM_CORES)}"
    )


def run_traces(
    scheme_name: str,
    config: SystemConfig,
    traces: Sequence[Trace],
    target_instructions: int,
    warmup_instructions: int = 0,
    *,
    snug_monitor: bool = False,
    sim_core: str = "auto",
    max_events: int | None = None,
    **scheme_kwargs,
) -> SimResult:
    """Run one scheme over prepared traces (optionally with cache warmup).

    ``snug_monitor=True`` attaches an
    :class:`~repro.schemes.snug.OnlineDemandMonitor` shaped for *config* —
    only meaningful for schemes exposing ``attach_monitor`` (the SNUG
    family); requesting it for any other scheme is a configuration error.

    ``sim_core`` picks the stepping loop (:func:`make_system`) and
    ``max_events`` overrides the event-budget safety valve — both normally
    arrive via the :class:`RunPlan` fields of the same names.
    """
    scheme = make_scheme(scheme_name, config, **scheme_kwargs)
    if snug_monitor:
        if not hasattr(scheme, "attach_monitor"):
            raise ConfigError(
                f"scheme {scheme_name!r} has no online demand-monitor support"
            )
        from ..schemes.snug import OnlineDemandMonitor

        scheme.attach_monitor(OnlineDemandMonitor.from_config(config))
    system = make_system(sim_core, config, scheme, list(traces))
    return system.run(
        target_instructions,
        warmup_instructions=warmup_instructions,
        max_events=max_events,
    )


def select_cc_best(results_by_prob: Iterable[Tuple[float, SimResult]]) -> tuple[SimResult, float]:
    """Pick CC(Best) from per-probability results: first strict throughput max.

    This is the single selection rule shared by the serial sweep
    (:func:`run_cc_best`) and the parallel engine's merge step
    (:mod:`repro.engine.runner`) — ties resolve to the earliest probability
    in iteration order, so both paths pick the identical winner.  The chosen
    result is relabelled ``"cc_best"`` in place.
    """
    best: SimResult | None = None
    best_prob = 0.0
    for prob, res in results_by_prob:
        if best is None or res.throughput > best.throughput:
            best, best_prob = res, prob
    if best is None:
        raise ValueError("select_cc_best needs at least one result")
    best.scheme = "cc_best"
    return best, best_prob


def normalize_schemes(schemes: Sequence[str]) -> List[str]:
    """The scheme list actually simulated: L2P always present (and first).

    Metrics are normalized to L2P, so every run needs the baseline; keeping
    the insertion rule in one helper keeps the serial path and the engine's
    task expansion in lockstep.
    """
    wanted = list(schemes)
    if "l2p" not in wanted:
        wanted.insert(0, "l2p")
    return wanted


def run_cc_best(
    config: SystemConfig,
    traces: Sequence[Trace],
    target_instructions: int,
    probs: Sequence[float] = CC_PROBS_FULL,
    warmup_instructions: int = 0,
) -> tuple[SimResult, float]:
    """The paper's CC(Best): best-throughput spill probability per workload."""
    return select_cc_best(
        (prob, run_traces("cc", config, traces, target_instructions,
                          warmup_instructions, spill_probability=prob))
        for prob in probs
    )


def merge_task_results(
    mix: WorkloadMix,
    mix_tasks: Sequence,
    results: Dict[str, SimResult],
    schemes: Sequence[str],
) -> ComboResult:
    """Assemble one mix's :class:`ComboResult` from per-task results.

    *mix_tasks* are the mix's expanded :class:`~repro.engine.tasks.SimTask`
    objects and *results* maps ``task_id`` to the finished
    :class:`SimResult`.  The walk follows the *request* order of *schemes*
    and re-applies :func:`select_cc_best` over the per-probability CC
    results, so the assembly is independent of execution order and shared
    verbatim by the serial path and every engine backend.
    """
    plain = {t.scheme: t for t in mix_tasks if t.cc_prob is None}
    merged: Dict[str, SimResult] = {}
    cc_best_prob: float | None = None
    cc_pairs = [
        (t.cc_prob, results[t.task_id])
        for t in mix_tasks
        if t.scheme == "cc" and t.cc_prob is not None
    ]
    for name in normalize_schemes(schemes):
        if name == "cc_best":
            best, cc_best_prob = select_cc_best(cc_pairs)
            merged["cc_best"] = best
        else:
            if name not in plain:  # pragma: no cover - defensive
                raise EngineError(f"missing task for scheme {name!r} during merge")
            merged[name] = results[plain[name].task_id]
    combo = ComboResult(
        mix_id=mix.mix_id,
        mix_class=mix.mix_class,
        results=merged,
        cc_best_prob=cc_best_prob,
    )
    combo.compute_metrics()
    return combo


def run_combo(
    mix: "WorkloadMix",
    config: SystemConfig | None = None,
    plan: RunPlan | None = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
) -> ComboResult:
    """Run a Table 8 combination under the requested schemes.

    ``"cc_best"`` triggers the spill-probability sweep; any other name is
    instantiated directly.  The L2P baseline is always run (metrics need it).

    *mix* may also be a single-mix :class:`~repro.scenario.model.Scenario`
    (the declarative contract), in which case *config*/*plan*/*schemes* are
    taken from the scenario and must not be passed separately::

        run_combo(Scenario.load("my_run.yaml"))

    Since the backend refactor this is the engine's inline path in
    miniature: the mix expands into tasks, executes through
    :class:`~repro.engine.backends.inline.InlineBackend` (one chunk, so the
    mix's traces are provisioned once) and merges via
    :func:`merge_task_results` — one code path whether a combination runs
    serially or fanned out across processes or machines.
    """
    if not isinstance(mix, WorkloadMix):
        # A Scenario (duck-typed: the scenario layer imports this module, so
        # the reverse edge must stay out of import time).
        scenario = mix
        if config is not None or plan is not None:
            raise ConfigError(
                "run_combo(scenario): pass either a Scenario alone or the "
                "classic (mix, config, plan) triple, not both"
            )
        mixes = scenario.build_mixes()
        if len(mixes) != 1:
            raise ConfigError(
                f"run_combo needs a single-mix scenario; {scenario.name!r} "
                f"resolves {len(mixes)} mixes — use repro.scenario."
                "run_scenario (or `repro scenario run`) for multi-mix runs"
            )
        mix = mixes[0]
        config = scenario.build_config()
        plan = scenario.plan
        schemes = scenario.schemes
    if config is None or plan is None:
        raise ConfigError("run_combo needs a config and a plan (or a Scenario)")

    # Imported here, not at module level: the engine imports this module
    # (RunPlan, run_traces, merge_task_results), so the reverse edge must
    # stay out of import time.
    from ..engine.backends.inline import InlineBackend
    from ..engine.tasks import expand_mix_tasks
    from ..workloads.trace_cache import resolve_cache_root

    # $REPRO_TRACE_CACHE applies here too — the serial path consults the
    # same shared trace cache as every engine backend.
    backend = InlineBackend(resolve_cache_root(None))
    tasks = expand_mix_tasks(mix, schemes, plan.cc_probs)
    results: Dict[str, SimResult] = {}
    for task, result in backend.submit_chunks(config, plan, [tasks]):
        results[task.task_id] = result
    return merge_task_results(mix, tasks, results, schemes)
