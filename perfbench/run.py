"""End-to-end benchmark of the SNUG reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

* ``paper_sweep``   -- the Figures 9-11 sweep (147 tasks) on the serial path;
* ``survey_stream`` -- the 26-program demand survey, streaming profiler;
* ``service_mixed`` -- rounds of novel, coalescing and cache-hit jobs against
  ``repro serve``.

With ``--trace 0`` every end-to-end metric is measured; with ``--trace 1``
a separate traced run reports every per-layer metric instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

A run on another kernel tier than the committed baseline's is not scored:
it prints its report, leaves the JSON line out and exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness

#: ``(name, unit)`` of every end-to-end metric, in report order.  The
#: ``first`` latencies and every p90 are printed with their sample counts
#: but not gated: on a shared 2-vCPU host they moved by up to a third
#: between runs, more than the largest regression bound the benchmark may
#: set.
END_TO_END = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("repeat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

WORKLOADS = ("paper_sweep", "survey_stream", "service_mixed")


def _workload_module(name: str):
    if name == "paper_sweep":
        import wl_sweep as module
    elif name == "survey_stream":
        import wl_survey as module
    else:
        import wl_service as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        harness.prepare_environment()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.prestep()

    import layers

    trace = bool(args.trace)
    setups = []
    host = harness.HostSpeed()
    if not trace and args.workload != "service_mixed":
        # The service workload times its own setup: server start to the
        # first client handshake.
        for _ in range(harness.SETUP_REPEATS):
            loop_s = host.sample(harness.SETUP_CALIBRATIONS)
            setups.append((harness.measure_setup_probe(args.workload, args.seed), loop_s))
    context = harness.run_context()
    print("context " + json.dumps(context, sort_keys=True))

    outcome = _workload_module(args.workload).run(args.seed, args.seconds, trace)
    if setups:
        outcome.metrics["setup_s"] = statistics.median(
            harness.normalized(seconds, loop_s) for seconds, loop_s in setups
        )
        outcome.info.append(
            "setup_s: median of normalized probes; raw "
            + ", ".join(f"{seconds:.4f}" for seconds, _l in setups)
            + " s; "
            + host.describe()
        )

    for line in outcome.info:
        print(line)
    if trace:
        table = [(name, unit) for name, unit, _better in layers.PER_LAYER]
        dominant = max(layers.LAYERS, key=lambda l: outcome.metrics[f"share.{l}"])
        expected = layers.EXPECTED_DOMINANT[args.workload]
        verdict = "agrees" if dominant in expected else "DISAGREES"
        print(
            f"self-time shares: {dominant} dominates; the metric map predicts "
            f"{'/'.join(expected)} -- {verdict}; spans in "
            f"{harness.WORK.name}/spans-{args.workload}-{args.seed}.jsonl"
        )
    else:
        table = END_TO_END
    metrics = {}
    for name, unit in table:
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(
        f"error_rate = {outcome.failed}/{outcome.attempted} "
        f"= {outcome.failed / outcome.attempted:.6f}"
    )
    if not context["comparable"]:
        print(
            f"perfbench: INCOMPARABLE: kernel tier {context['kernel_mode']} differs "
            f"from the baseline's {context['baseline_kernel_mode']}; no result is "
            "emitted for scoring",
            file=sys.stderr,
        )
        return 3
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
