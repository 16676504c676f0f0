"""Unit tests for the compiled core's plumbing around the C kernel.

Whole-system bit-identicality is pinned by
``tests/integration/test_core_conformance.py``, the golden suites and the
kernel-vs-reference fuzz suite; this file localizes regressions in the
machinery *around* the kernel:

* tier reporting: ``kernel_mode()`` names what actually runs;
* dispatch falls back to the fast loop for schemes without a kernel
  (``snug_intra``) and refuses bad run sizing with the same messages as
  :class:`~repro.core.cmp.CmpSystem`;
* decode on demand: after a kernel run the cache lines and SNUG per-set
  state stay in arrays until read, and once decoded every structural
  container equals what the fast loop leaves; a second ``run()`` on the
  same system must decode first or it would restart from a cold cache;
* the cProfile execution-phase dump attributes kernel time to a frame
  named ``compiled_kernel__<scheme>``.
"""

import cProfile
import dataclasses
import pstats

import numpy as np
import pytest

from repro.common.config import tiny_config
from repro.common.errors import SimulationError
from repro.core import _ckernel, compiled
from repro.core.cmp import CmpSystem
from repro.core.compiled import KERNEL_SCHEMES, CompiledCmpSystem, kernel_mode
from repro.schemes.dsr import DynamicSpillReceive
from repro.schemes.factory import make_scheme
from repro.schemes.l2s import SharedL2
from repro.schemes.snug import SnugCache
from repro.workloads.mixes import build_mix_traces, get_mix
from repro.workloads.trace import Trace


def build(scheme_name):
    cfg = tiny_config(seed=7)
    traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 1_000, seed=0)
    return cfg, make_scheme(scheme_name, cfg), list(traces)


class TestTierReporting:
    def test_kernel_mode_names_a_real_tier(self):
        assert kernel_mode() in ("compiled-c", "fast")

    def test_mode_consistent_with_library(self):
        expected = "compiled-c" if _ckernel.lib_available() else "fast"
        assert kernel_mode() == expected


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
        cfg, scheme, traces = build("l2p")
        system = CompiledCmpSystem(cfg, scheme, traces)
        with pytest.raises(SimulationError, match="target_instructions"):
            system.run(0)
        with pytest.raises(SimulationError, match="warmup_instructions"):
            system.run(1_000, warmup_instructions=-1)


# -- decode on demand ----------------------------------------------------------


def contended(cfg):
    """Bus contention, banked DRAM, a fractional CC spill coin and short
    SNUG epochs: every structural container the kernel merges back moves."""
    return dataclasses.replace(
        cfg,
        bus=dataclasses.replace(cfg.bus, model_contention=True),
        dram=dataclasses.replace(cfg.dram, model_banks=True),
        cc=dataclasses.replace(cfg.cc, spill_probability=0.35),
        snug=dataclasses.replace(cfg.snug, identify_cycles=3_000, group_cycles=7_000),
    )


def read_only(traces):
    """Without stores no line goes dirty, so the write buffers stay empty and
    a cache whose lines are still undecoded looks pristine."""
    return [Trace(t.gaps, t.addrs, np.zeros(len(t), dtype=bool), name=t.name)
            for t in traces]


#: name -> (config transform, trace transform)
VARIANTS = {
    "default": (lambda cfg: cfg, list),
    "contended": (contended, list),
    "read_only": (lambda cfg: cfg, read_only),
}


def structural_state(system):
    """Every piece of live state a later run or reader could observe."""
    scheme = system.scheme
    caches = scheme.banks if isinstance(scheme, SharedL2) else scheme.slices
    state = {
        "cores": [
            (c.time, c.pos, c.instructions, c.wraps, c.accesses,
             c.warmup_end_time, c.finish_time)
            for c in system.cores
        ],
        "lines": [
            [[(ln.addr, ln.dirty, ln.cc, ln.f, ln.owner) for ln in lruset]
             for lruset in cache.sets]
            for cache in caches
        ],
        "addr_mirrors": [
            [list(lruset._addrs) for lruset in cache.sets] for cache in caches
        ],
        "wbufs": [(list(w._entries.items()), w._next_drain_at) for w in scheme.wbufs],
        "dram_bank_free": list(scheme.dram._bank_free_at),
        "bus_busy_until": scheme.bus._busy_until,
        "stats": scheme.flat_stats(),
    }
    if isinstance(scheme, DynamicSpillReceive):
        state["psel"] = [p.value for p in scheme.psel]
        state["dsr_rr"] = scheme._rr
    if isinstance(scheme, SnugCache):
        state["shadows"] = [[sh.tags() for sh in m.shadows] for m in scheme.meta]
        state["gt_taker"] = [list(m.gt_taker) for m in scheme.meta]
        state["monitors"] = [
            [(mc.value, mc._mod) for mc in m.monitors] for m in scheme.meta
        ]
        state["stage"] = (scheme.stage, scheme._stage_end, scheme.epoch,
                          scheme._spill_rr)
    if hasattr(scheme, "_peer_pick"):
        state["rng"] = (scheme._coin.bit_generator.state,
                        scheme._peer_pick.bit_generator.state)
    return state


def pair(scheme_name, variant):
    """A fast-loop system and a compiled one over identical inputs."""
    cfg_fn, traces_fn = VARIANTS[variant]
    cfg = cfg_fn(tiny_config(seed=7))
    traces = traces_fn(build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 1_000, seed=0))
    return tuple(
        cls(cfg, make_scheme(scheme_name, cfg), traces)
        for cls in (CmpSystem, CompiledCmpSystem)
    )


def outcome(system, target, **kwargs):
    """``to_dict()`` of a run, or the message of the error it raised."""
    try:
        return system.run(target, warmup_instructions=1_000, **kwargs).to_dict()
    except SimulationError as exc:
        return f"SimulationError: {exc}"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("scheme_name", KERNEL_SCHEMES)
class TestDecodeOnDemand:
    def test_decoded_state_equals_fast_loop(self, scheme_name, variant):
        fast, comp = pair(scheme_name, variant)
        assert outcome(comp, 20_000) == outcome(fast, 20_000)
        comp.decode()
        assert structural_state(comp) == structural_state(fast)

    def test_budget_probe_then_resume_equals_fast_loop(self, scheme_name, variant):
        # The first run stops on the event budget with its lines still in
        # arrays; the second must decode before it looks at the caches.
        fast, comp = pair(scheme_name, variant)
        first = outcome(fast, 20_000, max_events=700)
        assert first.startswith("SimulationError: event budget exhausted")
        assert outcome(comp, 20_000, max_events=700) == first
        assert outcome(comp, 20_000) == outcome(fast, 20_000)
        assert structural_state(comp) == structural_state(fast)

    def test_second_run_equals_fast_loop(self, scheme_name, variant):
        # Every core is done after the first run, so the second exhausts its
        # budget; the progress it reports depends on the cache it started
        # from.
        fast, comp = pair(scheme_name, variant)
        assert outcome(comp, 20_000) == outcome(fast, 20_000)
        second = outcome(fast, 5_000, max_events=2_000)
        assert second.startswith("SimulationError: event budget exhausted")
        assert outcome(comp, 5_000, max_events=2_000) == second
        assert structural_state(comp) == structural_state(fast)


class TestSnugFinalizeLatch:
    def test_finalize_latch_reads_decoded_monitors(self):
        # Stage I ends exactly at the final completion time: no access sees
        # the boundary, so the only latch is the one finalize() performs,
        # and it must read the monitors the kernel left, not stale objects.
        cfg = tiny_config(seed=7)
        traces = list(build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 1_000, seed=0))

        def with_identify(cycles):
            return dataclasses.replace(
                cfg, snug=dataclasses.replace(cfg.snug, identify_cycles=cycles))

        def system(cls, cfg):
            return cls(cfg, make_scheme("snug", cfg), traces)

        probe = system(CmpSystem, with_identify(10**12))
        probe.run(20_000, warmup_instructions=1_000)
        cfg = with_identify(max(core.time for core in probe.cores))
        fast, comp = system(CmpSystem, cfg), system(CompiledCmpSystem, cfg)
        result = outcome(fast, 20_000)
        assert outcome(comp, 20_000) == result
        latched = sum(v for k, v in result["stats"].items()
                      if k.endswith("taker_sets_latched"))
        assert latched > 0
        assert structural_state(comp) == structural_state(fast)


@pytest.mark.skipif(kernel_mode() != "compiled-c", reason="no C kernel on this host")
class TestLinesStayInArrays:
    def test_held_scheme_sees_lines_only_after_decode(self):
        cfg, scheme, traces = build("l2p")
        system = CompiledCmpSystem(cfg, scheme, traces)
        system.run(10_000)
        assert not any(len(s) for c in scheme.slices for s in c.sets)
        assert any(len(s) for c in system.scheme.slices for s in c.sets)
        assert system._undecoded is None


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
