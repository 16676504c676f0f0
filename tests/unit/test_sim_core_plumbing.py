"""Plumbing for the selectable stepping loop and the event-budget valve.

``RunPlan.sim_core`` / ``RunPlan.max_events`` ship the stepping-loop knobs
to every execution backend with the rest of the run sizing.  The invariants
this file pins:

* ``sim_core`` never changes results (the conformance contract), so it is
  excluded from the scenario content hash and the result-store manifest —
  stores written under different stepping loops stay interchangeable;
* ``max_events`` *is* part of the experiment contract (a tighter valve can
  abort runs the default would finish) and therefore hashes;
* scenario files written before either knob existed parse and re-serialize
  byte-identically (defaults are omitted from ``plan_to_dict``);
* ``auto`` is the compiled core for every scheme, and the retired core
  names (``batch``, ``compiled``) are refused with pathed errors;
* the CLI flags reach :class:`EngineOptions` without flipping a serial run
  onto the engine path;
* :meth:`SimResult.from_dict` still accepts pre-window-metrics payloads
  (stores migrated from old layouts lack the keys).
"""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.core.cmp import CmpSystem, SimResult
from repro.core.compiled import CompiledCmpSystem
from repro.core.reference import ReferenceCmpSystem
from repro.experiments.runner import SIM_CORES, RunPlan, make_system, run_traces
from repro.scenario.model import Scenario, plan_from_dict, plan_to_dict
from repro.scenario.run import EngineOptions, scenario_from_flags


class TestRunPlanFields:
    def test_defaults(self):
        plan = RunPlan()
        assert plan.sim_core == "auto"
        assert plan.max_events is None

    def test_sim_core_validated(self):
        for core in SIM_CORES:
            assert RunPlan(sim_core=core).sim_core == core
        with pytest.raises(ValueError, match="sim_core"):
            RunPlan(sim_core="warp")

    def test_max_events_validated(self):
        assert RunPlan(max_events=1).max_events == 1
        with pytest.raises(ValueError, match="max_events"):
            RunPlan(max_events=0)


class TestPlanSerde:
    def test_defaults_omitted(self):
        # Pre-knob scenario dumps must stay byte-identical.
        d = plan_to_dict(RunPlan())
        assert "sim_core" not in d and "max_events" not in d

    def test_round_trip(self):
        plan = RunPlan(sim_core="fast", max_events=5_000)
        d = plan_to_dict(plan)
        assert d["sim_core"] == "fast" and d["max_events"] == 5_000
        assert plan_from_dict(d) == plan

    def test_legacy_dict_parses(self):
        plan = plan_from_dict({"n_accesses": 100, "target_instructions": 1_000})
        assert plan.sim_core == "auto" and plan.max_events is None

    def test_bad_values_rejected_with_path(self):
        with pytest.raises(ConfigError, match="sim_core"):
            plan_from_dict({"sim_core": "warp"})
        with pytest.raises(ConfigError, match="max_events"):
            plan_from_dict({"max_events": -1})


class TestExperimentIdentity:
    def test_sim_core_excluded_from_content_hash(self):
        scenario = scenario_from_flags(scale="tiny", seed=7, mix="c4_0")
        rehomed = dataclasses.replace(
            scenario, plan=dataclasses.replace(scenario.plan, sim_core="reference")
        )
        assert scenario.content_hash() == rehomed.content_hash()

    def test_max_events_included_in_content_hash(self):
        scenario = scenario_from_flags(scale="tiny", seed=7, mix="c4_0")
        capped = dataclasses.replace(
            scenario, plan=dataclasses.replace(scenario.plan, max_events=123)
        )
        assert scenario.content_hash() != capped.content_hash()

    def test_sim_core_excluded_from_store_manifest(self):
        from repro.common.config import tiny_config
        from repro.engine.runner import ParallelRunner

        config = tiny_config(seed=7)
        manifests = [
            ParallelRunner(
                config, RunPlan(sim_core=core), jobs=0
            )._manifest()
            for core in ("fast", "reference")
        ]
        assert manifests[0] == manifests[1]
        assert "sim_core" not in manifests[0]["plan"]
        assert "max_events" in manifests[0]["plan"]


def _tiny_inputs(n_accesses=200):
    from repro.common.config import tiny_config
    from repro.workloads.mixes import build_mix_traces, get_mix

    config = tiny_config(seed=7)
    traces = build_mix_traces(get_mix("c4_0"), config.l2.num_sets, n_accesses, 0)
    return config, traces


class TestDispatch:
    def test_make_system_selects_core(self):
        from repro.schemes.l2p import PrivateL2

        config, traces = _tiny_inputs()
        expected = {
            "auto": CompiledCmpSystem,
            "fast": CmpSystem,
            "reference": ReferenceCmpSystem,
        }
        assert set(expected) == set(SIM_CORES)
        for name, cls in expected.items():
            system = make_system(name, config, PrivateL2(config), list(traces))
            assert type(system) is cls
        with pytest.raises(ConfigError, match="sim_core"):
            make_system("warp", config, PrivateL2(config), list(traces))

    def test_auto_is_compiled_for_every_scheme(self):
        # Schemes without a kernel (snug_intra) still get the compiled
        # system; its run() hands them to the fast loop.
        from repro.schemes.factory import SCHEMES, make_scheme

        config, traces = _tiny_inputs()
        for name in SCHEMES:
            system = make_system("auto", config, make_scheme(name, config), list(traces))
            assert type(system) is CompiledCmpSystem, name

    def test_snug_intra_auto_matches_fast(self):
        config, traces = _tiny_inputs(n_accesses=2_000)
        results = [
            run_traces("snug_intra", config, traces, 20_000, 2_000,
                       sim_core=core).to_dict()
            for core in ("auto", "fast")
        ]
        assert results[0] == results[1]


class TestRetiredCores:
    """``batch`` and ``compiled`` were core names once; both are refused."""

    @pytest.mark.parametrize("core", ["batch", "compiled"])
    def test_scenario_plan_rejects_retired_core(self, core):
        data = scenario_from_flags(scale="tiny", seed=7, mix="c4_0").to_dict()
        data["plan"]["sim_core"] = core
        with pytest.raises(
            ConfigError, match=r"plan\.sim_core: must be one of auto, fast, reference"
        ):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("core", ["batch", "compiled"])
    def test_cli_rejects_retired_core(self, core):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "smoke-tiny", "--sim-core", core]
            )


class TestEngineOptions:
    def test_sim_core_and_profile_do_not_request_engine(self):
        assert not EngineOptions(sim_core="fast", profile="x.pstats").engine_requested
        assert EngineOptions(jobs=2).engine_requested

    def test_cli_flags_reach_options(self):
        from repro.cli import build_parser, _engine_options

        args = build_parser().parse_args(
            ["scenario", "run", "smoke-tiny",
             "--sim-core", "fast", "--profile", "out.pstats"]
        )
        options = _engine_options(args)
        assert options.sim_core == "fast"
        assert options.profile == "out.pstats"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "smoke-tiny", "--sim-core", "warp"]
            )


class TestSimResultLegacyPayloads:
    def test_from_dict_tolerates_missing_window_metrics(self):
        payload = {
            "scheme": "l2p",
            "ipc": [0.5, 0.5],
            "instructions": [100, 100],
            "cycles": [200, 200],
            "accesses": [10, 10],
            "outcome_counts": {"local_hit": 20},
            "stats": {"slice_0.hits": 20},
        }
        result = SimResult.from_dict(payload)
        assert result.window_outcomes == []
        assert result.window_latency == []
        # Round-trips forward into the modern shape.
        assert SimResult.from_dict(result.to_dict()) == result
