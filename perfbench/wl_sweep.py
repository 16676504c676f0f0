"""``paper_sweep``: the Figures 9-11 sweep on the serial ``run_scenario`` path.

The ``fig9-11-small`` preset (21 Table 8 mixes x {l2p, l2s, cc at three
spill probabilities, dsr, snug} = 147 tasks) with its seeds set to the
benchmark seed.  This is the production path every figure and sweep uses,
on the paper's miss-heavy mixes, so it is where a simulation-core or
trace-generation change shows.

An operation is one task.  Every task's ``SimResult.to_dict()`` digest is
checked against the committed reference-core digests for the seed; for a
seed without committed digests, three seeded-sampled tasks are re-run on
the ``reference`` core instead.  Every pass must also reproduce the first.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import defaultdict
from typing import Dict, List

import harness
import layers

SAMPLE_CHECKS = 3


class TaskTap:
    """Wraps ``execute_task`` to time each task and digest its result.

    With a :class:`harness.HostSpeed`, a calibration loop runs before each
    task, outside the task's timing.
    """

    def __init__(self, host=None) -> None:
        self.host = host
        #: ``(task_id, seconds, accesses, digest, loop_s)`` per executed
        #: task; ``loop_s`` is the calibration loop run just before it.
        self.records: List[tuple] = []

    def install(self, execution) -> None:
        self._execution = execution
        self._original = execution.execute_task
        original = self._original

        def tapped(config, plan, task, cache_root=None):
            loop_s = self.host.sample() if self.host is not None else 0.0
            start = time.perf_counter()
            result = original(config, plan, task, cache_root)
            seconds = time.perf_counter() - start
            self.records.append(
                (task.task_id, seconds, sum(result.accesses), harness.result_digest(result), loop_s)
            )
            return result

        execution.execute_task = tapped

    def remove(self) -> None:
        self._execution.execute_task = self._original


def _fig9_lines(combos) -> List[str]:
    """Figure 9 (normalized throughput vs L2P), per class mean, for information."""
    per_class: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for combo in combos:
        for scheme, metrics in combo.metrics.items():
            per_class[combo.mix_class][scheme].append(metrics["throughput"])
    lines = []
    for mix_class in sorted(per_class):
        cells = " ".join(
            f"{scheme}={sum(v) / len(v):.4f}"
            for scheme, v in per_class[mix_class].items()
            if scheme != "l2p"
        )
        lines.append(f"fig9 normalized throughput {mix_class}: {cells}")
    lines.append(
        "model unvalidated: the repository holds no hardware reference "
        "results, so no simulator error figure is given"
    )
    return lines


def _check(seed: int, passes: List[List[tuple]], info: List[str]) -> int:
    """Failed-task count over every pass (see the module docstring)."""
    import repro.engine.execution as execution
    from repro.engine.tasks import expand_mix_tasks

    first = {record[0]: record[3] for record in passes[0]}
    failed = sum(
        1
        for records in passes[1:]
        for task_id, _t, _a, digest, _l in records
        if first.get(task_id) != digest
    )
    expected = harness.load_expected("paper_sweep", seed)
    if expected is not None:
        want = expected["task_digests"]
        if set(want) != set(first):
            raise harness.BenchError("expected digests name a different task set")
        failed += sum(1 for task_id, digest in first.items() if want[task_id] != digest)
        info.append(f"check: {len(first)} task digests vs committed reference digests")
        return failed
    scenario = harness.sweep_scenario(seed)
    config = scenario.build_config()
    plan = dataclasses.replace(scenario.plan, sim_core="reference")
    tasks = {
        task.task_id: task
        for mix in scenario.build_mixes()
        for task in expand_mix_tasks(mix, list(scenario.schemes), plan.cc_probs)
    }
    sample = random.Random(seed).sample(sorted(tasks), SAMPLE_CHECKS)
    for task_id in sample:
        digest = harness.result_digest(execution.execute_task(config, plan, tasks[task_id]))
        failed += digest != first[task_id]
    info.append(
        f"check: no committed digests for seed {seed}; "
        f"{SAMPLE_CHECKS} sampled tasks re-run on the reference core"
    )
    return failed


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    import repro.engine.execution as execution
    from repro.scenario.run import run_scenario

    host = None if trace else harness.HostSpeed()
    tap = TaskTap(host)
    tap.install(execution)
    passes: List[List[tuple]] = []
    combos = []
    inst = layers.Instrumented()

    def one_pass(index: int) -> None:
        tap.records = []
        if trace and index == 1:
            inst.install()
        try:
            scenario = harness.sweep_scenario(seed)
            scenario.content_hash()
            result = run_scenario(scenario)
        finally:
            inst.remove()
        passes.append(tap.records)
        if index == 0:
            combos.extend(result)

    try:
        # Traced: an untraced pass, then a traced one.
        walls = harness.run_passes(one_pass, 0.0 if trace else seconds)
    finally:
        tap.remove()

    # Before the output check, whose re-runs of sampled operations are not
    # part of the workload.
    rss = harness.peak_rss_mb()
    info = _fig9_lines(combos)
    failed = _check(seed, passes, info)
    attempted = sum(len(records) for records in passes)
    if trace:
        overhead = (walls[1] - walls[0]) / walls[0] * 100.0
        metrics = layers.layer_metrics(inst, overhead)
        inst.rec.dump(harness.WORK / f"spans-paper_sweep-{seed}.jsonl")
        return harness.Outcome(attempted, failed, metrics, info)

    # A pass's work is its wall time (trace generation, simulation, result
    # handling) less the calibration loops run inside it.
    accesses = sum(record[2] for record in passes[0]) * len(passes)
    work_s = sum(walls) - host.spent
    slowdown = host.slowdown()
    raw_rate = accesses / work_s
    info.append(host.describe())
    info.append(
        f"work_per_s = {accesses} simulated L2 accesses over {work_s:.3f} s of "
        f"{len(passes)} passes = {raw_rate:.1f}/s raw, x slowdown; pass walls: "
        + ", ".join(f"{w:.3f}" for w in walls)
        + f" s, {host.spent:.3f} s of them calibration"
    )
    metrics = {"work_per_s": raw_rate * slowdown}
    harness.latency_metrics("first", [r[1] * 1000 for r in passes[0]], info)
    repeats = [harness.normalized(r[1], r[4]) * 1000 for records in passes[1:] for r in records]
    metrics.update(harness.latency_metrics("repeat", repeats, info))
    metrics["peak_rss_mb"] = rss
    return harness.Outcome(attempted, failed, metrics, info)
