"""Differential fuzz: the compiled core against the reference loop.

The conformance suite pins the compiled core to ``core/reference.py`` at
fixed tiny and small configs plus named edges; the C kernel is a long hand
translation, so this suite draws the configs instead.  Every example builds
a random :class:`SystemConfig` (sets, associativity 1-32, 1-64 cores plus
the 128-core hand-off to the fast loop, write-buffer depth and drain,
DRAM banks, bus contention, latencies, SNUG epoch lengths and
``p_threshold``, CC spill probabilities, non-integer ``base_cpi``) and short
random per-core traces, runs one kernel scheme on both loops and requires
equal ``SimResult.to_dict()`` — or the same budget-exhausted message.

A non-integer ``base_cpi`` pins the kernel's vectorized gap scaling
(``(gaps * base_cpi).astype(int64)``) to the scalar ``int(gap * base_cpi)``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import (
    BusConfig,
    CacheGeometry,
    CcConfig,
    DramConfig,
    DsrConfig,
    LatencyConfig,
    SnugConfig,
    SystemConfig,
    WriteBufferConfig,
)
from repro.common.errors import SimulationError
from repro.core._ckernel import _trace_columns
from repro.core.compiled import KERNEL_SCHEMES, CompiledCmpSystem
from repro.core.cpu import TraceCore
from repro.core.reference import ReferenceCmpSystem
from repro.schemes.factory import make_scheme
from repro.workloads.trace import Trace

pow2 = lambda lo, hi: st.sampled_from([1 << k for k in range(lo, hi + 1)])  # noqa: E731

#: Upper bound on simulated accesses per example (keeps tier-1 fast).
MAX_EVENTS_PER_EXAMPLE = 4_000


@st.composite
def configs(draw):
    num_cores = draw(st.sampled_from([1, 2, 4, 8, 16, 64, 128]))
    num_sets = draw(pow2(1, 7))
    assoc = draw(pow2(0, 5))
    l2_local = draw(st.integers(0, 20))
    l2_remote = draw(st.integers(l2_local, 60))
    return SystemConfig(
        num_cores=num_cores,
        l2=CacheGeometry(size_bytes=num_sets * assoc * 64, assoc=assoc, line_bytes=64),
        latency=LatencyConfig(
            l1_hit=draw(st.integers(0, 3)),
            l2_local=l2_local,
            l2_remote=l2_remote,
            l2_remote_snug=draw(st.integers(l2_remote, 80)),
            dram=draw(st.integers(1, 400)),
        ),
        bus=BusConfig(
            width_bytes=draw(pow2(2, 6)),
            speed_ratio=draw(st.integers(1, 8)),
            arbitration_cycles=draw(st.integers(0, 3)),
            model_contention=draw(st.booleans()),
        ),
        dram=DramConfig(
            latency=draw(st.integers(1, 400)),
            num_banks=draw(pow2(0, 4)),
            bank_busy_cycles=draw(st.integers(0, 120)),
            model_banks=draw(st.booleans()),
        ),
        write_buffer=WriteBufferConfig(
            entries=draw(st.integers(1, 16)),
            direct_read=draw(st.booleans()),
            drain_cycles=draw(st.integers(1, 500)),
        ),
        cc=CcConfig(
            spill_probability=draw(
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, allow_nan=False)
            ),
        ),
        dsr=DsrConfig(
            leader_sets_per_policy=draw(st.integers(1, num_sets // 2)),
            psel_bits=draw(st.integers(1, 12)),
        ),
        snug=SnugConfig(
            counter_bits=draw(st.integers(2, 6)),
            p_threshold=draw(pow2(0, 4)),
            identify_cycles=draw(st.integers(50, 20_000)),
            group_cycles=draw(st.integers(50, 50_000)),
            flip_enabled=draw(st.booleans()),
            flush_on_flip_to_taker=draw(st.booleans()),
            monitor_during_group=draw(st.booleans()),
        ),
        base_cpi=draw(
            st.sampled_from([1.0, 0.5, 1.3, 2.7])
            | st.floats(0.05, 6.0, allow_nan=False, allow_infinity=False)
        ),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def random_traces(config, seed, length, footprint, max_gap, write_frac):
    """Core-rebased traces over a small block space (heavy set conflicts)."""
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(config.num_cores):
        trace = Trace(
            gaps=rng.integers(1, max_gap + 1, size=length),
            addrs=rng.integers(0, footprint, size=length),
            writes=rng.random(length) < write_frac,
            name=f"fuzz{core}",
        )
        traces.append(trace.rebase(core))
    return traces


def outcome(system_cls, config, scheme_name, traces, target, warmup):
    system = system_cls(config, make_scheme(scheme_name, config), traces)
    try:
        return system.run(target, warmup_instructions=warmup).to_dict()
    except SimulationError as exc:
        return f"SimulationError: {exc}"


@given(
    config=configs(),
    scheme_name=st.sampled_from(KERNEL_SCHEMES),
    trace_seed=st.integers(0, 2**31 - 1),
    length=st.integers(1, 200),
    footprint_sets=st.integers(1, 6),
    max_gap=st.integers(1, 40),
    write_frac=st.sampled_from([0.0, 0.3, 1.0]),
    target=st.integers(1, 6_000),
    warmup=st.sampled_from([0, 1, 500]),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_compiled_matches_reference(config, scheme_name, trace_seed, length,
                                    footprint_sets, max_gap, write_frac,
                                    target, warmup):
    footprint = footprint_sets * config.l2.num_sets * config.l2.assoc
    traces = random_traces(config, trace_seed, length, footprint, max_gap, write_frac)
    # Bound the run: each core issues about (target + warmup) / mean gap
    # accesses, and every core runs until the slowest one finishes.
    mean_gap = (1 + max_gap) / 2
    per_core = MAX_EVENTS_PER_EXAMPLE / config.num_cores
    target = max(1, min(target, int(per_core * mean_gap) - warmup))
    ref = outcome(ReferenceCmpSystem, config, scheme_name, traces, target, warmup)
    got = outcome(CompiledCmpSystem, config, scheme_name, traces, target, warmup)
    assert got == ref


@given(
    gaps=st.lists(st.integers(1, 2**40), min_size=1, max_size=50),
    base_cpi=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_kernel_gap_cycles_equal_scalar_columns(gaps, base_cpi):
    """The kernel's vectorized gap scaling equals the scalar loops'
    ``int(gap * base_cpi)`` element for element, large gaps included."""
    trace = Trace(gaps=np.array(gaps), addrs=np.zeros(len(gaps), dtype=np.int64),
                  writes=np.zeros(len(gaps), dtype=bool))
    core = TraceCore(0, trace, base_cpi=base_cpi)
    core.load_columns()
    _, _, _, gap_cycles, _ = _trace_columns([core])
    assert gap_cycles.tolist() == core._gap_cycles
