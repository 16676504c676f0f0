"""Property tests for trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import synthetic
from repro.workloads.synthetic import Band, Phase, WorkloadSpec, generate_trace
from tests.helpers import reference_generate_phase

specs = st.builds(
    lambda lo, span, stream, rand, wf, gap: WorkloadSpec(
        name="prop",
        phases=(
            Phase(
                bands=(Band(1.0, lo, lo + span),),
                stream_frac=stream,
                random_frac=min(rand, 1.0 - stream),
            ),
        ),
        write_fraction=wf,
        mean_gap=gap,
    ),
    lo=st.integers(min_value=1, max_value=20),
    span=st.integers(min_value=0, max_value=12),
    stream=st.floats(min_value=0.0, max_value=0.5),
    rand=st.floats(min_value=0.0, max_value=0.5),
    wf=st.floats(min_value=0.0, max_value=1.0),
    gap=st.floats(min_value=1.0, max_value=60.0),
)


phases = st.builds(
    lambda lo, span, heavy, weight, dur, stream, rand: Phase(
        bands=(Band(1.0, lo, lo + span), Band(weight, heavy, heavy + span)),
        duration=dur,
        stream_frac=stream,
        random_frac=min(rand, 1.0 - stream),
    ),
    lo=st.integers(min_value=1, max_value=8),
    span=st.integers(min_value=0, max_value=6),
    heavy=st.integers(min_value=1, max_value=40),
    weight=st.floats(min_value=0.0, max_value=2.0),
    dur=st.floats(min_value=0.1, max_value=3.0),
    stream=st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    rand=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
)

multi_phase_specs = st.builds(
    lambda ps, wf: WorkloadSpec(name="multi", phases=tuple(ps), write_fraction=wf),
    ps=st.lists(phases, min_size=1, max_size=4),
    wf=st.floats(min_value=0.0, max_value=1.0),
)


class TestGeneratedTraces:
    @given(specs, st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, spec, seed):
        t = generate_trace(spec, 16, 400, seed=seed)
        assert len(t) == 400
        assert (t.gaps >= 1).all()
        assert (t.addrs >= 0).all()

    @given(specs)
    @settings(max_examples=30, deadline=None)
    def test_seed_zero_deterministic(self, spec):
        a = generate_trace(spec, 16, 200, seed=0)
        b = generate_trace(spec, 16, 200, seed=0)
        assert (a.addrs == b.addrs).all()
        assert (a.gaps == b.gaps).all()
        assert (a.writes == b.writes).all()

    @given(specs, st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_footprint_bounded_by_demand_plus_streams(self, spec, seed):
        """Non-stream blocks per set never exceed the drawn W_s <= hi."""
        t = generate_trace(spec, 16, 600, seed=seed)
        band = spec.phases[0].bands[0]
        loop_addrs = t.addrs[t.addrs < (1 << 20) * 16]
        for s in range(16):
            in_set = np.unique(loop_addrs[(loop_addrs % 16) == s])
            assert len(in_set) <= band.hi

    @given(
        specs | multi_phase_specs,
        st.sampled_from([1, 4, 16]),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_addresses_unique(self, spec, num_sets, seed):
        """Each phase issues stream tags base, base+1, ... per set afresh.

        Stream tags are unique *within* a phase only: the next phase starts
        over at the same base, so its stream blocks alias earlier phases'.
        """
        n_accesses = 600
        tags = generate_trace(spec, num_sets, n_accesses, seed=seed).addrs
        lo = 0
        for n_phase in synthetic._phase_lengths(spec, n_accesses):
            phase_addrs = tags[lo : lo + n_phase]
            lo += n_phase
            stream = phase_addrs[phase_addrs >= synthetic._STREAM_TAG_BASE * num_sets]
            assert len(np.unique(stream)) == len(stream)
            for s in range(num_sets):
                in_set = stream[stream % num_sets == s] // num_sets
                expected = synthetic._STREAM_TAG_BASE + np.arange(len(in_set))
                assert (in_set == expected).all()
        assert lo == n_accesses


class TestVectorizedGeneratorMatchesOracle:
    """The block kernel reproduces the per-access loop byte for byte."""

    @given(
        multi_phase_specs,
        st.sampled_from([1, 4, 16, 1024, 32768]),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_loop_oracle(self, spec, num_sets, n_accesses, block, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthetic, "_generate_phase", reference_generate_phase)
            want = generate_trace(spec, num_sets, n_accesses, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthetic, "_BLOCK_ACCESSES", block)
            got = generate_trace(spec, num_sets, n_accesses, seed=seed)
        assert got.addrs.tobytes() == want.addrs.tobytes()
        assert got.gaps.tobytes() == want.gaps.tobytes()
        assert got.writes.tobytes() == want.writes.tobytes()
