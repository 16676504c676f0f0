"""Pinned SHA-256 digests of generated trace bytes.

``tests/data/golden_trace_digests.json`` freezes the exact bytes the
synthetic generator produces — ``gaps | addrs | writes`` of every one of
the 26 benchmark profiles at two shapes, and of the four core-rebased
traces of every Table 8 mix at tiny scale.  Everything downstream (scheme
goldens, trace-cache entries, perfbench expected rows, store records)
rests on these bytes, so any change to the generator must reproduce them
exactly.  A diff here means the generator's output changed.

If the change is intentional (a new access pattern, a different RNG call
order), regenerate the goldens in the same commit and say why::

    PYTHONPATH=src python tests/integration/test_golden_trace_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.common.config import tiny_config
from repro.scenario.run import PLAN_SIZING
from repro.workloads.mixes import MIXES, build_mix_traces
from repro.workloads.spec2000 import benchmark_names, make_benchmark_trace

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_trace_digests.json"

#: (num_sets, n_accesses, seed) shapes every profile is pinned at: many
#: accesses per set, and few accesses spread over many sets.
PROFILE_SHAPES = ((64, 200_000, 7), (1024, 3_000, 2027))

#: Tiny-scale mix shape: the tiny config's set count and plan length.
MIX_SHAPE = (tiny_config().l2.num_sets, PLAN_SIZING["tiny"][0], 12345)


def trace_digest(*traces) -> str:
    """SHA-256 over ``gaps | addrs | writes`` of each trace, in order."""
    h = hashlib.sha256()
    for t in traces:
        h.update(t.gaps.tobytes())
        h.update(t.addrs.tobytes())
        h.update(t.writes.tobytes())
    return h.hexdigest()


def shape_key(num_sets: int, n_accesses: int, seed: int) -> str:
    return f"sets={num_sets},n={n_accesses},seed={seed}"


def compute_digests() -> dict:
    out = {"profiles": {}, "mixes": {}}
    for shape in PROFILE_SHAPES:
        out["profiles"][shape_key(*shape)] = {
            name: trace_digest(make_benchmark_trace(name, *shape))
            for name in benchmark_names()
        }
    out["mixes"][shape_key(*MIX_SHAPE)] = {
        mix.mix_id: trace_digest(*build_mix_traces(mix, *MIX_SHAPE)) for mix in MIXES
    }
    return out


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

DRIFT_MESSAGE = (
    "generated trace bytes drifted from tests/data/golden_trace_digests.json; "
    "if the generator change is intentional, regenerate the goldens (see this "
    "module's docstring) in a commit explaining the semantic change"
)


@pytest.mark.parametrize("shape", PROFILE_SHAPES, ids=lambda s: shape_key(*s))
@pytest.mark.parametrize("name", benchmark_names())
def test_profile_trace_bytes_pinned(name, shape):
    golden = GOLDEN["profiles"][shape_key(*shape)][name]
    assert trace_digest(make_benchmark_trace(name, *shape)) == golden, DRIFT_MESSAGE


@pytest.mark.parametrize("mix", MIXES, ids=lambda m: m.mix_id)
def test_mix_trace_bytes_pinned(mix):
    golden = GOLDEN["mixes"][shape_key(*MIX_SHAPE)][mix.mix_id]
    assert trace_digest(*build_mix_traces(mix, *MIX_SHAPE)) == golden, DRIFT_MESSAGE


def test_goldens_cover_every_profile_and_mix():
    for shape in PROFILE_SHAPES:
        assert sorted(GOLDEN["profiles"][shape_key(*shape)]) == benchmark_names()
    assert sorted(GOLDEN["mixes"][shape_key(*MIX_SHAPE)]) == sorted(m.mix_id for m in MIXES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_trace_digests.py --write")
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
