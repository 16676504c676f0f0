"""Regenerate the committed expected outputs the benchmark checks against.

    python3 perfbench/make_expected.py

Writes both workloads' files for the default and the held-out seed:

* ``paper_sweep``: the SHA-256 of every task's ``SimResult.to_dict()``,
  simulated on the ``reference`` core (the seed loop every production core
  is held bit-identical to), keyed by task id.
* ``survey_stream``: the survey rows computed by the whole-trace batch
  profiler (not the streaming one the workload measures).

Run it only when a change is *meant* to alter simulated output; the files
are the correctness oracle for every later performance change.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import harness


def expected_sweep(seed: int) -> dict:
    from repro.engine.execution import execute_task
    from repro.engine.tasks import expand_mix_tasks

    scenario = harness.sweep_scenario(seed)
    config = scenario.build_config()
    plan = dataclasses.replace(scenario.plan, sim_core="reference")
    digests = {}
    for mix in scenario.build_mixes():
        for task in expand_mix_tasks(mix, list(scenario.schemes), plan.cc_probs):
            digests[task.task_id] = harness.result_digest(
                execute_task(config, plan, task)
            )
    return {
        "seed": seed,
        "scenario_hash": scenario.content_hash(),
        "sim_core": "reference",
        "task_digests": digests,
    }


def expected_survey(seed: int) -> dict:
    from repro.experiments.characterization import survey_26

    rows = survey_26(seed=seed, stream=False, **harness.SURVEY_PARAMS)
    return {
        "seed": seed,
        "params": harness.SURVEY_PARAMS,
        "kernel": "batch",
        "rows": [harness.survey_row_dict(r) for r in rows],
    }


GENERATORS = {"paper_sweep": expected_sweep, "survey_stream": expected_survey}


def main() -> int:
    harness.prepare_environment()
    harness.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload, generate in GENERATORS.items():
        for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
            start = time.perf_counter()
            data = generate(seed)
            path = harness.expected_path(workload, seed)
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            print(f"{path.name}: {time.perf_counter() - start:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
