"""Unit tests for the compiled (SoA + typed-kernel) core's plumbing.

Whole-system bit-identicality is pinned by
``tests/integration/test_core_conformance.py`` and the golden suites;
this file localizes regressions in the machinery *around* the kernels:

* tier reporting (``kernel_mode`` / ``numba_active``) stays consistent
  with what actually runs;
* dispatch falls back to the generic loop for schemes without a kernel
  (``snug_intra``) and refuses bad run sizing with the same messages as
  :class:`~repro.core.cmp.CmpSystem`;
* the cProfile execution-phase dump attributes kernel time to a frame
  named ``compiled_kernel__<scheme>`` — without the named wrapper the hot
  path shows up as one anonymous driver (or vanishes into an njit
  dispatcher) and ``--profile`` cannot say where the time went.
"""

import cProfile
import pstats

import pytest

from repro.common.config import tiny_config
from repro.core import compiled
from repro.core.cmp import CmpSystem
from repro.core.compiled import CompiledCmpSystem, kernel_mode, numba_active
from repro.schemes.factory import make_scheme
from repro.workloads.mixes import build_mix_traces, get_mix


def build(scheme_name):
    cfg = tiny_config(seed=7)
    traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 1_000, seed=0)
    return cfg, make_scheme(scheme_name, cfg), list(traces)


class TestTierReporting:
    def test_kernel_mode_names_a_real_tier(self):
        assert kernel_mode() in ("jit", "compiled-c", "interpreted")

    def test_mode_consistent_with_numba_flag(self):
        if numba_active():
            assert kernel_mode() == "jit"
        else:
            assert kernel_mode() in ("compiled-c", "interpreted")


class TestDispatchEdges:
    def test_snug_intra_falls_back_to_generic_loop(self):
        # No kernel for snug_intra (exact-type dispatch): the compiled
        # system must run it through the inherited loop, bit-identically.
        cfg, scheme, traces = build("snug_intra")
        res = CompiledCmpSystem(cfg, scheme, traces).run(
            10_000, warmup_instructions=1_000
        )
        ref = CmpSystem(cfg, make_scheme("snug_intra", cfg), list(traces)).run(
            10_000, warmup_instructions=1_000
        )
        assert res.to_dict() == ref.to_dict()

    def test_run_sizing_validated(self):
        from repro.common.errors import SimulationError

        cfg, scheme, traces = build("l2p")
        system = CompiledCmpSystem(cfg, scheme, traces)
        with pytest.raises(SimulationError, match="target_instructions"):
            system.run(0)
        with pytest.raises(SimulationError, match="warmup_instructions"):
            system.run(1_000, warmup_instructions=-1)


class TestProfileLabeling:
    @pytest.mark.parametrize("scheme_name", ["l2p", "cc"])
    def test_kernel_time_appears_under_named_frame(self, scheme_name):
        cfg, scheme, traces = build(scheme_name)
        system = CompiledCmpSystem(cfg, scheme, traces)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            system.run(10_000, warmup_instructions=1_000)
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        names = {func[2] for func in stats.stats}
        assert f"compiled_kernel__{scheme_name}" in names

    def test_profile_dump_file_contains_kernel_row(self, tmp_path):
        # The CLI --profile path: dump_stats + pstats.Stats(path) must
        # surface the same named row the operator greps for.
        cfg, scheme, traces = build("l2s")
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            CompiledCmpSystem(cfg, scheme, traces).run(10_000)
        finally:
            profiler.disable()
        path = tmp_path / "exec.pstats"
        profiler.dump_stats(path)
        names = {func[2] for func in pstats.Stats(str(path)).stats}
        assert "compiled_kernel__l2s" in names

    def test_named_entry_wraps_without_changing_behavior(self):
        entry = compiled._named_entry("compiled_kernel__probe", lambda a, b: a + b)
        assert entry.__name__ == "compiled_kernel__probe"
        assert entry(2, 3) == 5
