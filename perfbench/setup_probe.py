"""Setup probe: start a fresh interpreter, get ready, print ``ready``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

"Ready" means the workload's imports are done, the simulation kernel tier
is loaded (sweep only -- the survey never touches the simulation core) and
the workload's inputs are resolved and validated.  The parent times spawn
to ``ready``; see ``harness.measure_setup_probe``.
"""

from __future__ import annotations

import sys

import harness


def main(workload: str, seed: int) -> None:
    harness.prepare_environment()
    if workload == "paper_sweep":
        import repro.scenario.run  # noqa: F401  (the serial run path)
        from repro.core.compiled import kernel_mode

        kernel_mode()
        scenario = harness.sweep_scenario(seed)
        scenario.content_hash()
        scenario.build_mixes()
        scenario.build_config()
    elif workload == "survey_stream":
        from repro.analysis.demand import bucket_bounds
        from repro.experiments.characterization import survey_26  # noqa: F401
        from repro.workloads.spec2000 import benchmark_names

        bucket_bounds(32, 8)
        if len(benchmark_names()) != harness.SURVEY_PROGRAMS:
            raise SystemExit("survey registry is not the 26 SPEC2000 programs")
    else:
        raise SystemExit(f"no setup probe for workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
