"""Production-core conformance: bit-identical to the seed on every path.

The compiled core (:mod:`repro.core.compiled`, ``--sim-core auto``) keeps
all cache state in flat SoA containers and steps whole runs through
per-scheme kernels; the fast core (:mod:`repro.core.cmp`) steps the scheme
objects one access at a time.  Both must match the seed loop kept in
:mod:`repro.core.reference` term for term.  This suite holds that contract
at the ``SimResult.to_dict()`` level — full dict equality, floats with
``==`` — across all six schemes, and on the edge paths where the fast
paths interact with other subsystems:

* ``l2s`` under a contention-modelled bus (the compiled kernels model the
  bus occupancy in-kernel);
* ``cc`` under contention + banked DRAM;
* ``snug`` with an attached :class:`OnlineDemandMonitor` (the observed
  reference stream must be the same stream, latch for latch; the
  compiled core hands this case to the fast loop);
* ``cc`` with a fractional spill probability (the C kernel's prefetched
  RNG ring must replay the scalar draw sequence);
* the budget-exhausted :class:`SimulationError` (same enriched per-core
  progress message from every production loop);
* CLI stores written under ``--sim-core auto`` / ``--sim-core fast`` vs
  ``--sim-core reference`` (byte-identical records, same manifest — the
  store-level face of the contract).

On a host without a C compiler the compiled core runs the fast loop;
``TestNoCompilerFallback`` pins that in a subprocess with
``REPRO_NO_CKERNEL=1`` set.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.common.config import scaled_config
from repro.common.errors import SimulationError
from repro.core.cmp import CmpSystem
from repro.core.compiled import KERNEL_SCHEMES, CompiledCmpSystem
from repro.core.reference import ReferenceCmpSystem
from repro.schemes.factory import SCHEMES, make_scheme
from repro.workloads.mixes import build_mix_traces, get_mix

ALL_SCHEMES = sorted(SCHEMES)

#: The production loops held to the conformance contract.
PRODUCTION_CORES = [CmpSystem, CompiledCmpSystem]


def build(config_mut=None, *, scale="tiny", n_accesses=3_000):
    cfg = scaled_config(scale, seed=7)
    if config_mut is not None:
        cfg = config_mut(cfg)
    traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, n_accesses, seed=0)
    return cfg, traces


def run_core(core_cls, cfg, scheme_name, traces, target, warmup, **core_kwargs):
    scheme = make_scheme(scheme_name, cfg)
    system = core_cls(cfg, scheme, list(traces), **core_kwargs)
    return system.run(target, warmup_instructions=warmup).to_dict()


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_matches_reference_tiny(self, scheme_name):
        cfg, traces = build()
        ref = run_core(ReferenceCmpSystem, cfg, scheme_name, traces, 30_000, 5_000)
        fast = run_core(CmpSystem, cfg, scheme_name, traces, 30_000, 5_000)
        compiled = run_core(
            CompiledCmpSystem, cfg, scheme_name, traces, 30_000, 5_000
        )
        assert fast == ref
        assert compiled == ref

    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    @pytest.mark.parametrize("scheme_name", ["l2s", "snug"])
    def test_matches_reference_small(self, core_cls, scheme_name):
        # Small scale exercises deeper runs (more wraps); l2s covers the
        # compiled bank-routed probe, snug the compiled stage/shadow/latch
        # machinery.
        cfg, traces = build(scale="small", n_accesses=4_000)
        ref = run_core(ReferenceCmpSystem, cfg, scheme_name, traces, 30_000, 5_000)
        out = run_core(core_cls, cfg, scheme_name, traces, 30_000, 5_000)
        assert out == ref


class TestEdgePaths:
    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    def test_l2s_contention(self, core_cls):
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c, bus=dataclasses.replace(c.bus, model_contention=True)
            )
        )
        ref = run_core(ReferenceCmpSystem, cfg, "l2s", traces, 20_000, 2_000)
        out = run_core(core_cls, cfg, "l2s", traces, 20_000, 2_000)
        assert out == ref

    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    def test_cc_contention_banked_dram(self, core_cls):
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c,
                bus=dataclasses.replace(c.bus, model_contention=True),
                dram=dataclasses.replace(c.dram, model_banks=True),
            )
        )
        ref = run_core(ReferenceCmpSystem, cfg, "cc", traces, 20_000, 2_000)
        out = run_core(core_cls, cfg, "cc", traces, 20_000, 2_000)
        assert out == ref

    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    def test_snug_online_monitor_sees_identical_stream(self, core_cls):
        from repro.schemes.snug import OnlineDemandMonitor

        cfg, traces = build()
        results, monitors = [], []
        for cls in (ReferenceCmpSystem, core_cls):
            scheme = make_scheme("snug", cfg)
            scheme.attach_monitor(
                OnlineDemandMonitor.from_config(cfg, chunk_accesses=512)
            )
            system = cls(cfg, scheme, list(traces))
            results.append(system.run(20_000, warmup_instructions=2_000).to_dict())
            monitors.append(scheme.monitor)
        assert results[0] == results[1]
        assert monitors[0].latches == monitors[1].latches

    def test_cc_fractional_spill_rng_stream(self):
        # spill_probability=0.35 draws the spill coin per candidate; the
        # compiled C kernel consumes those draws from a prefetched ring
        # buffer that must replay the scalar draw sequence exactly.
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c, cc=dataclasses.replace(c.cc, spill_probability=0.35)
            )
        )
        ref = run_core(ReferenceCmpSystem, cfg, "cc", traces, 30_000, 5_000)
        compiled = run_core(CompiledCmpSystem, cfg, "cc", traces, 30_000, 5_000)
        assert compiled == ref

    def test_budget_exhausted_message_identical(self):
        cfg, traces = build()
        messages = []
        for core_cls in PRODUCTION_CORES:
            scheme = make_scheme("l2p", cfg)
            with pytest.raises(SimulationError) as exc_info:
                core_cls(cfg, scheme, list(traces)).run(200_000, max_events=5_000)
            messages.append(str(exc_info.value))
        assert "event budget exhausted (5000)" in messages[0]
        assert "core 0:" in messages[0]  # enriched per-core progress
        assert len(set(messages)) == 1


class TestCliStoreConformance:
    @pytest.mark.parametrize("core", ["auto", "fast"])
    def test_sim_core_stores_byte_identical(self, tmp_path, core):
        """`--sim-core auto`/`fast` and `--sim-core reference` persist
        byte-identical per-task records under one manifest."""
        from repro.cli import main
        from repro.engine.store import ResultStore
        from repro.scenario import preset_path

        a, b = tmp_path / core, tmp_path / "reference"
        for core, store in ((core, a), ("reference", b)):
            assert main(["scenario", "run", str(preset_path("smoke-tiny")),
                         "--jobs", "0", "--sim-core", core,
                         "--store", str(store)]) == 0
        with ResultStore(a) as store_a, ResultStore(b) as store_b:
            ids = store_a.completed_ids()
            assert ids == store_b.completed_ids() and ids
            for task_id in sorted(ids):
                assert store_a.payload_bytes(task_id) == store_b.payload_bytes(
                    task_id
                )
        assert (a / "manifest.json").read_bytes() == (
            b / "manifest.json"
        ).read_bytes()

    def test_store_resumes_across_sim_cores(self, tmp_path):
        """A store written under one stepping loop resumes under another:
        sim_core is not part of the experiment identity."""
        from repro.cli import main
        from repro.scenario import preset_path

        store = tmp_path / "store"
        assert main(["scenario", "run", str(preset_path("smoke-tiny")),
                     "--jobs", "0", "--sim-core", "auto",
                     "--store", str(store)]) == 0
        assert main(["scenario", "run", str(preset_path("smoke-tiny")),
                     "--jobs", "0", "--sim-core", "fast",
                     "--store", str(store), "--resume"]) == 0


#: Runs the five kernel schemes under the compiled core and dumps
#: ``{"mode": kernel_mode(), "results": {scheme: to_dict()}}`` as JSON —
#: executed in a subprocess so ``REPRO_NO_CKERNEL`` (read once, at the first
#: kernel build) takes effect.
_CHILD_SCRIPT = """\
import json, sys
from repro.common.config import scaled_config
from repro.core.compiled import KERNEL_SCHEMES, CompiledCmpSystem, kernel_mode
from repro.schemes.factory import make_scheme
from repro.workloads.mixes import build_mix_traces, get_mix

cfg = scaled_config("tiny", seed=7)
traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 3000, seed=0)
results = {}
for name in KERNEL_SCHEMES:
    scheme = make_scheme(name, cfg)
    system = CompiledCmpSystem(cfg, scheme, list(traces))
    results[name] = system.run(30000, warmup_instructions=5000).to_dict()
json.dump({"mode": kernel_mode(), "results": results}, sys.stdout)
"""


class TestNoCompilerFallback:
    """Without the C kernel the compiled core is the fast loop.

    With ``REPRO_NO_CKERNEL=1`` (the same outcome as a host with no C
    compiler) ``kernel_mode()`` reports ``"fast"`` and the results match
    the reference loop term for term.
    """

    def test_fast_loop_bit_identical(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "REPRO_NO_CKERNEL": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["mode"] == "fast"
        cfg, traces = build()
        reference = json.loads(json.dumps({
            name: run_core(ReferenceCmpSystem, cfg, name, traces, 30_000, 5_000)
            for name in KERNEL_SCHEMES
        }))
        assert payload["results"] == reference
