"""``survey_stream``: the Section 2.3 survey through the streaming profiler.

``survey_26(stream=True)`` over all 26 programs at 64 sets x 100 intervals
x 2000 accesses (5.2M references per pass).  It never touches the
simulation core or the schemes, so a core optimisation must show no change
here; trace generation (``workloads``) and the stack-distance profiler
(``cache``) are what it measures.

An operation is one program.  The rows must equal the committed rows for
the seed (7 of 26 programs non-uniform); for a seed without committed rows,
eight seeded-sampled programs are re-characterized with the whole-trace
batch profiler instead.  Every pass must also reproduce the first.
"""

from __future__ import annotations

import random
import time
from typing import List

import harness
import layers

SAMPLE_CHECKS = 8


def _check(seed: int, passes: List[List[dict]], info: List[str]) -> int:
    from repro.experiments import characterization

    first = passes[0]
    failed = sum(1 for rows in passes[1:] for got, want in zip(rows, first) if got != want)
    non_uniform = sum(row["non_uniform"] for row in first)
    info.append(f"survey: {non_uniform} of {len(first)} programs non-uniform")
    expected = harness.load_expected("survey_stream", seed)
    if expected is not None:
        want_rows = expected["rows"]
        failed += sum(1 for got, want in zip(first, want_rows) if got != want)
        failed += abs(len(first) - len(want_rows))
        failed += non_uniform != harness.SURVEY_NON_UNIFORM
        info.append(f"check: {len(first)} rows vs committed batch-profiler rows")
        return failed
    params = harness.SURVEY_PARAMS
    for index in random.Random(seed).sample(range(len(first)), SAMPLE_CHECKS):
        row = characterization._survey_one(
            first[index]["benchmark"],
            params["num_sets"],
            params["intervals"],
            params["interval_accesses"],
            seed,
            0.08,
        )
        failed += harness.survey_row_dict(row) != first[index]
    info.append(
        f"check: no committed rows for seed {seed}; {SAMPLE_CHECKS} sampled "
        "programs re-characterized with the batch profiler"
    )
    return failed


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.experiments import characterization

    original = characterization._survey_one
    host = None if trace else harness.HostSpeed()
    #: Per pass: ``(program, seconds, seconds of one calibration loop run
    #: just before it)``.
    timings: List[List[tuple]] = []
    passes: List[List[dict]] = []
    inst = layers.Instrumented()

    def timed_one(name, *args):
        # A program takes ~0.3 s; two loops per program keep enough
        # calibration samples in a run.
        loop_s = host.sample(2) if host is not None else 0.0
        start = time.perf_counter()
        row = original(name, *args)
        timings[-1].append((name, time.perf_counter() - start, loop_s))
        return row

    def one_pass(index: int) -> None:
        timings.append([])
        if trace and index == 1:
            inst.install()
        try:
            rows = characterization.survey_26(seed=seed, stream=True, **harness.SURVEY_PARAMS)
        finally:
            inst.remove()
        passes.append([harness.survey_row_dict(row) for row in rows])

    characterization._survey_one = timed_one
    try:
        # Traced: an untraced pass, then a traced one.  Untraced, a survey
        # pass is short, so take at least three.
        if trace:
            walls = harness.run_passes(one_pass, 0.0)
        else:
            walls = harness.run_passes(one_pass, seconds, min_passes=3)
    finally:
        characterization._survey_one = original

    # Before the output check, whose re-runs of sampled operations are not
    # part of the workload.
    rss = harness.peak_rss_mb()
    info: List[str] = []
    failed = _check(seed, passes, info)
    attempted = sum(len(rows) for rows in passes)
    if trace:
        overhead = (walls[1] - walls[0]) / walls[0] * 100.0
        metrics = layers.layer_metrics(inst, overhead)
        inst.rec.dump(harness.WORK / f"spans-survey_stream-{seed}.jsonl")
        return harness.Outcome(attempted, failed, metrics, info)

    refs = (
        harness.SURVEY_PROGRAMS
        * harness.SURVEY_PARAMS["intervals"]
        * harness.SURVEY_PARAMS["interval_accesses"]
        * len(passes)
    )
    work_s = sum(walls) - host.spent
    slowdown = host.slowdown()
    raw_rate = refs / work_s
    info.append(host.describe())
    info.append(
        f"work_per_s = {refs} profiled references over {work_s:.3f} s of "
        f"{len(passes)} passes = {raw_rate:.1f}/s raw, x slowdown; pass walls: "
        + ", ".join(f"{w:.3f}" for w in walls)
        + f" s, {host.spent:.3f} s of them calibration"
    )
    metrics = {"work_per_s": raw_rate * slowdown}
    harness.latency_metrics("first", [t * 1000 for _n, t, _l in timings[0]], info)
    repeats = [
        harness.normalized(t, loop_s) * 1000 for pass_timings in timings[1:] for _n, t, loop_s in pass_timings
    ]
    metrics.update(harness.latency_metrics("repeat", repeats, info))
    metrics["peak_rss_mb"] = rss
    return harness.Outcome(attempted, failed, metrics, info)
