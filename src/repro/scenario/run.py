"""Running scenarios: serial path, engine path, and the flag adapter.

:class:`ScenarioExecution` is the single bridge from a validated
:class:`~repro.scenario.model.Scenario` to results.  Without engine options
it reproduces the classic serial path (one
:func:`~repro.experiments.runner.run_combo` per resolved mix); with engine
options it builds a :class:`~repro.engine.runner.ParallelRunner` over the
requested backend, handing it the scenario so its content hash is stamped
into the result-store manifest.  Both paths are bit-identical (the engine's
determinism contract), which the scenario conformance suite pins.

:func:`scenario_from_flags` is the adapter the flag-driven CLI commands
(``repro run``/``repro sweep``) use to build the *same* contract from
``--scale``/``--seed``/``--mix``/... flags — so every invocation, however
expressed, is one ``Scenario`` with one hash, and ``--dump-scenario`` can
snapshot it as a reusable file.  The per-scale run sizing table that used to
live in the CLI (:data:`PLAN_SIZING`) moved here with it.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..common.errors import ConfigError
from ..experiments.runner import (
    DEFAULT_SCHEMES,
    ComboResult,
    RunPlan,
    run_combo,
)
from .model import Scenario
from .system import SystemSpec
from .workload import ProgramMixSpec, WorkloadSpec

__all__ = [
    "PLAN_SIZING",
    "plan_for_scale",
    "EngineOptions",
    "ScenarioExecution",
    "run_scenario",
    "scenario_from_flags",
]

#: Per-scale run sizing: (n_accesses, target_instructions, warmup).
PLAN_SIZING: Dict[str, Tuple[int, int, int]] = {
    "tiny": (4_000, 60_000, 40_000),
    "small": (25_000, 300_000, 300_000),
    "medium": (60_000, 800_000, 800_000),
    "paper": (400_000, 5_000_000, 5_000_000),
}


def plan_for_scale(scale: str, seed: int, snug_monitor: bool = False) -> RunPlan:
    """The default :class:`RunPlan` sizing for a named config scale."""
    try:
        n_acc, target, warmup = PLAN_SIZING[scale]
    except KeyError:
        raise ConfigError(
            f"no plan sizing for scale {scale!r}; known: {', '.join(PLAN_SIZING)}"
        ) from None
    return RunPlan(
        n_accesses=n_acc,
        target_instructions=target,
        warmup_instructions=warmup,
        seed=seed,
        snug_monitor=snug_monitor,
    )


@dataclass(frozen=True)
class EngineOptions:
    """Execution knobs that are *not* part of the scenario contract.

    These select how (and where) tasks run — parallelism, backend transport,
    result persistence, trace-cache location.  They never change the merged
    results, which is why they live beside the scenario rather than inside
    it: the content hash must identify the experiment, not the machine.

    ``trace_cache`` is the *explicitly requested* directory; the
    ``$REPRO_TRACE_CACHE`` fallback is applied at runner-build time, so the
    ambient environment alone does not flip ``engine_requested`` (a plain
    serial run stays serial — it still consults the env-var cache through
    the inline backend's own resolution).
    """

    jobs: int | None = None
    store: str | None = None
    resume: bool = False
    backend: str | None = None
    bind: Tuple[str, int] | None = None
    trace_cache: str | None = None
    #: Socket-backend shared auth secret (worker frame MACs).  Deliberately
    #: excluded from :attr:`engine_requested`: a secret alone (e.g. ambient
    #: via ``--secret-file`` in a wrapper script) must not flip a serial run
    #: onto the engine path.
    secret: str | None = None
    #: ``--sim-core``: override the plan's stepping loop (``auto``/``fast``/
    #: ``reference``).  Bit-identical by contract, so it neither
    #: flips :attr:`engine_requested` nor perturbs the scenario's content
    #: hash — a store written under one core resumes under any other.
    sim_core: str | None = None
    #: ``--profile``: cProfile the execution phase and dump the stats file
    #: here (inspect with ``python -m pstats``).  Pure observability.
    profile: str | None = None

    @property
    def engine_requested(self) -> bool:
        """Whether any option asks for the parallel engine (vs serial path)."""
        return (
            self.jobs is not None
            or self.store is not None
            or self.resume
            or self.backend is not None
            or self.trace_cache is not None
        )

    def effective_jobs(self) -> int:
        """The parallelism hint, applying the per-backend defaults."""
        if self.jobs is not None:
            return self.jobs
        if self.backend == "process":
            return os.cpu_count() or 1
        if self.backend == "socket":
            return 4  # chunk-splitting hint: assume a few workers
        return 0


class ScenarioExecution:
    """One scenario bound to its resolved inputs and (optional) engine."""

    def __init__(self, scenario: Scenario, options: EngineOptions | None = None) -> None:
        self.scenario = scenario
        self.options = options or EngineOptions()
        self.config = scenario.build_config()
        self.mixes = scenario.build_mixes()
        # A --sim-core override replaces only the *executed* plan; the
        # scenario itself (and hence its content hash and the store
        # manifest) is untouched, keeping stores interchangeable across
        # stepping loops.
        self.plan = scenario.plan
        if self.options.sim_core is not None:
            self.plan = dataclasses.replace(self.plan, sim_core=self.options.sim_core)
        self.runner = self._build_runner() if self.options.engine_requested else None

    def _build_runner(self):
        # Engine imports stay out of scenario-module import time so pure
        # validation tools (CI preset checks) do not pay for them.
        from ..engine import ParallelRunner, make_backend
        from ..workloads.trace_cache import resolve_cache_root

        opts = self.options
        cache_root = resolve_cache_root(opts.trace_cache)
        jobs = opts.effective_jobs()
        backend = None
        if opts.backend is not None:
            backend = make_backend(
                opts.backend,
                jobs=jobs,
                cache_root=cache_root,
                bind=opts.bind,
                secret=opts.secret,
            )
        return ParallelRunner(
            self.config,
            self.plan,
            schemes=self.scenario.schemes,
            jobs=jobs,
            store=opts.store,
            resume=opts.resume,
            backend=backend,
            trace_cache=cache_root,
            scenario=self.scenario,
        )

    def run(self) -> List[ComboResult]:
        """Simulate every resolved mix; bit-identical on either path.

        With ``options.profile`` set, the execution phase (and only it —
        validation and resolution happened at construction) runs under
        :mod:`cProfile` and the stats land at that path.
        """
        if self.options.profile is not None:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return self._run()
            finally:
                profiler.disable()
                profiler.dump_stats(self.options.profile)
        return self._run()

    def _run(self) -> List[ComboResult]:
        if self.runner is not None:
            return self.runner.run(self.mixes)
        return [
            run_combo(mix, self.config, self.plan, schemes=self.scenario.schemes)
            for mix in self.mixes
        ]


def run_scenario(
    scenario: Scenario, options: EngineOptions | None = None
) -> List[ComboResult]:
    """Run one scenario start to finish; returns per-mix combo results."""
    return ScenarioExecution(scenario, options).run()


def scenario_from_flags(
    *,
    scale: str,
    seed: int,
    mix: str | None = None,
    programs: Sequence[str] | None = None,
    classes: Sequence[str] | None = None,
    combos_per_class: int | None = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    snug_monitor: bool = False,
    name: str | None = None,
) -> Scenario:
    """Build the :class:`Scenario` a flag-driven CLI invocation describes.

    Exactly the config/plan/workload the pre-scenario CLI assembled by hand:
    ``scaled_config(scale, seed)``, the :data:`PLAN_SIZING` plan, and either
    one registered mix (``--mix``), one custom mix (``--programs``), or a
    class sweep (``--classes``/``--combos-per-class``; ``None`` classes =
    all six).  The conformance suite holds this adapter to bit-identical
    results against those legacy paths.
    """
    if mix is not None:
        workload = WorkloadSpec(mixes=(mix,))
        default_name = f"run-{mix}"
    elif programs is not None:
        workload = WorkloadSpec(
            programs=(ProgramMixSpec(mix_id="custom", programs=tuple(programs)),)
        )
        default_name = "run-custom"
    else:
        from ..workloads.mixes import mix_classes

        workload = WorkloadSpec(
            classes=tuple(classes) if classes else tuple(mix_classes()),
            combos_per_class=combos_per_class,
        )
        default_name = "sweep"
    return Scenario(
        name=name or f"{default_name}-{scale}",
        system=SystemSpec(scale=scale, seed=seed),
        workload=workload,
        schemes=tuple(schemes),
        plan=plan_for_scale(scale, seed, snug_monitor=snug_monitor),
    )
