"""Layer boundaries the traced run wraps, and the per-layer metrics.

Layers are named after the ``repro`` modules.  Each boundary below is a
public function or method; :func:`instrument` wraps them all with one
:class:`~spans.SpanRecorder` (wrappers on paths a workload never takes
simply record nothing).  :func:`layer_metrics` turns the recorded spans,
the executed tasks' results and the service generator's own timings into
the named per-layer metrics -- every metric on every workload, zero where a
layer did no work (itself a prediction: ``core.*`` must read 0 on
``survey_stream``).
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import percentile
from spans import SpanRecorder

SCHEMES = ("l2p", "l2s", "cc", "dsr", "snug")
LAYERS = ("workloads", "core", "cache", "analysis", "scenario", "engine", "service")

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("workloads.gen_s", "s", "lower"),
        ("workloads.gen_refs_per_s", "1/s", "higher"),
        ("workloads.gen_calls", "count", "lower"),
        ("core.sim_s", "s", "lower"),
    ]
    + [(f"core.sim_s.{s}", "s", "lower") for s in SCHEMES]
    + [
        ("core.task_p50_ms", "ms", "lower"),
        ("core.task_p90_ms", "ms", "lower"),
        ("core.accesses_per_s", "1/s", "higher"),
        ("core.tasks", "count", "lower"),
        ("cache.profile_s", "s", "lower"),
        ("cache.profile_refs_per_s", "1/s", "higher"),
        ("analysis.characterize_s", "s", "lower"),
        ("scenario.resolve_s", "s", "lower"),
        ("engine.traces_generated", "count", "lower"),
        ("engine.trace_memo_hits", "count", "higher"),
        ("engine.simulate_job_s", "s", "lower"),
        ("engine.store_s", "s", "lower"),
        ("service.submit_p50_ms", "ms", "lower"),
        ("service.submit_p90_ms", "ms", "lower"),
        ("service.result_p50_ms", "ms", "lower"),
        ("service.queue_wait_p50_ms", "ms", "lower"),
        ("service.queue_wait_p90_ms", "ms", "lower"),
        ("service.journal_s", "s", "lower"),
        ("service.cache_seal_s", "s", "lower"),
        ("service.cache_lookup_s", "s", "lower"),
        ("service.dedupe_ratio", "ratio", "higher"),
        ("service.engine_runs", "count", "lower"),
    ]
    + [
        (f"schemes.{s}.{kind}_ratio", "ratio", better)
        for s in SCHEMES
        for kind, better in (("local_hit", "higher"), ("remote_hit", "higher"), ("memory", "lower"))
    ]
    + [
        ("schemes.snug.spills_out", "count", "higher"),
        ("schemes.snug.shadow_hits", "count", "higher"),
        ("mem.dram_reads", "count", "lower"),
        ("mem.dram_busy_cycles", "cycles", "lower"),
        ("interconnect.bus_busy_cycles", "cycles", "lower"),
    ]
    + [(f"share.{layer}", "share", "lower") for layer in LAYERS]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


class Instrumented:
    """A recorder with every layer boundary wrapped, plus side counters."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        #: ``SimResult.to_dict()`` of every ``run_traces`` call, in order.
        self.task_results: List[dict] = []
        #: Summed ``consume_trace_stats()`` returns.
        self.trace_stats: Dict[str, int] = defaultdict(int)

    def install(self) -> "Instrumented":
        import repro.engine.execution as execution
        import repro.experiments.characterization as characterization
        import repro.workloads.trace_cache as trace_cache
        from repro.cache.stackdist_stream import StreamingProfiler
        from repro.engine.store.sharded import ResultStore
        from repro.scenario.model import Scenario
        from repro.service import server
        from repro.service.cache import ResultCache
        from repro.service.jobs import JobDB
        from repro.service.queue import JobQueue

        rec = self.rec

        def mix_refs(args, kwargs, traces):
            return {"refs": sum(len(t) for t in traces)}

        def sim_attrs(args, kwargs, result):
            self.task_results.append(result.to_dict())
            return {"scheme": args[0], "accesses": sum(result.accesses)}

        def stats_tap(original):
            def consume():
                out = original()
                for key, value in out.items():
                    self.trace_stats[key] += value
                return out

            return consume

        rec.patch(trace_cache, "build_mix_traces", "workloads", mix_refs)
        rec.patch(
            trace_cache, "make_benchmark_trace", "workloads",
            lambda a, k, trace: {"refs": len(trace)},
        )
        rec.patch(execution, "run_traces", "core", sim_attrs)
        rec.patch(execution, "execute_task", "engine")
        rec.substitute(
            execution, "consume_trace_stats", stats_tap(execution.consume_trace_stats)
        )
        rec.patch(
            StreamingProfiler, "feed", "cache",
            lambda a, k, r: {"refs": len(a[1])},
        )
        rec.patch(characterization, "characterize_stream", "analysis")
        for attr in ("from_dict", "content_hash", "build_mixes", "build_config"):
            rec.patch(Scenario, attr, "scenario")
        rec.patch(
            server, "simulate_job", "engine",
            lambda a, k, r: {"hash": Path(a[1]).name},
        )
        rec.patch(ResultStore, "save", "engine", name="engine.store")
        for attr in ("seal", "lookup", "payloads"):
            rec.patch(ResultCache, attr, "service", name=f"service.cache_{attr}")
        rec.patch(
            JobQueue, "submit", "service",
            lambda a, k, record: {"hash": record.scenario_hash},
            name="service.queue_submit",
        )
        rec.patch(JobQueue, "claim", "service", name="service.queue_claim")
        for attr in ("create", "transition", "update_progress", "save"):
            rec.patch(JobDB, attr, "service", name="service.journal")
        return self

    def remove(self) -> None:
        self.rec.unpatch()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pcts_ms(durations: List[float]) -> Tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    ms = [d * 1000.0 for d in durations]
    return percentile(ms, 50), percentile(ms, 90)


def simulated_counts(task_results: List[dict]) -> Dict[str, float]:
    """Exact simulated counts over *task_results* (``SimResult.to_dict()``)."""
    out: Dict[str, float] = {}
    for scheme in SCHEMES:
        outcomes: Dict[str, int] = defaultdict(int)
        for result in task_results:
            if result["scheme"] == scheme:
                for key, value in result["outcome_counts"].items():
                    outcomes[key] += value
        total = sum(outcomes.values())
        for kind in ("local_hit", "remote_hit", "memory"):
            out[f"schemes.{scheme}.{kind}_ratio"] = _ratio(outcomes[kind], total)

    def stat_sum(results, suffix: str) -> int:
        return sum(
            value
            for result in results
            for key, value in result["stats"].items()
            if key == suffix or key.endswith("." + suffix)
        )

    snug = [r for r in task_results if r["scheme"] == "snug"]
    out["schemes.snug.spills_out"] = stat_sum(snug, "spills_out")
    out["schemes.snug.shadow_hits"] = stat_sum(snug, "shadow_hits")
    out["mem.dram_reads"] = sum(r["stats"].get("dram.reads", 0) for r in task_results)
    out["mem.dram_busy_cycles"] = sum(
        r["stats"].get("dram.busy_cycles", 0) for r in task_results
    )
    out["interconnect.bus_busy_cycles"] = sum(
        r["stats"].get("bus.busy_cycles", 0) for r in task_results
    )
    return out


def layer_metrics(
    inst: Instrumented,
    overhead_pct: float,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``share.<layer>`` is the layer's self time over the self time of every
    recorded span, so the shares of one run sum to 1.
    """
    rec = inst.rec
    m: Dict[str, float] = {}

    gen = [s for s in rec.spans if s[3] == "workloads"]
    gen_s = sum(s[5] - s[4] for s in gen)
    m["workloads.gen_s"] = gen_s
    m["workloads.gen_refs_per_s"] = _ratio(sum(s[6]["refs"] for s in gen), gen_s)
    m["workloads.gen_calls"] = len(gen)

    sims = rec.by_name("core.run_traces")
    sim_s = sum(s[5] - s[4] for s in sims)
    m["core.sim_s"] = sim_s
    for scheme in SCHEMES:
        m[f"core.sim_s.{scheme}"] = sum(
            s[5] - s[4] for s in sims if s[6]["scheme"] == scheme
        )
    m["core.task_p50_ms"], m["core.task_p90_ms"] = _pcts_ms([s[5] - s[4] for s in sims])
    m["core.accesses_per_s"] = _ratio(sum(s[6]["accesses"] for s in sims), sim_s)
    m["core.tasks"] = len(sims)

    feeds = rec.by_name("cache.feed")
    profile_s = sum(s[5] - s[4] for s in feeds)
    m["cache.profile_s"] = profile_s
    m["cache.profile_refs_per_s"] = _ratio(sum(s[6]["refs"] for s in feeds), profile_s)

    layer_self = rec.layer_self()
    m["analysis.characterize_s"] = layer_self.get("analysis", 0.0)
    m["scenario.resolve_s"] = layer_self.get("scenario", 0.0)

    m["engine.traces_generated"] = inst.trace_stats.get("generated", 0)
    m["engine.trace_memo_hits"] = inst.trace_stats.get("memo_hits", 0)
    m["engine.simulate_job_s"] = rec.total("engine.simulate_job")
    m["engine.store_s"] = rec.total("engine.store")

    service = service or {}
    for name in (
        "service.submit_p50_ms",
        "service.submit_p90_ms",
        "service.result_p50_ms",
        "service.queue_wait_p50_ms",
        "service.queue_wait_p90_ms",
        "service.dedupe_ratio",
        "service.engine_runs",
    ):
        m[name] = service.get(name, 0.0)
    m["service.journal_s"] = rec.total("service.journal")
    m["service.cache_seal_s"] = rec.total("service.cache_seal")
    m["service.cache_lookup_s"] = rec.total("service.cache_lookup")

    m.update(simulated_counts(inst.task_results))
    traced_s = sum(layer_self.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = _ratio(layer_self.get(layer, 0.0), traced_s)
    m["trace.spans"] = len(rec.spans)
    m["trace.overhead_pct"] = overhead_pct
    return m


#: The layers the metric map predicts dominate each workload's self time.
EXPECTED_DOMINANT: Dict[str, Tuple[str, ...]] = {
    "paper_sweep": ("core",),
    "survey_stream": ("workloads",),
    "service_mixed": ("service", "engine"),
}
