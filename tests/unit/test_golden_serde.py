"""Serde round-trips over every golden snapshot in ``tests/data/``.

The golden files are the repo's frozen ground truth; the engine store,
the socket backend, and the job service all ship :class:`SimResult`
dictionaries produced by ``to_dict()`` and revive them with
``from_dict()``.  These tests pin two contracts against real (not
synthetic) payloads:

* ``from_dict(to_dict(x))`` reproduces the golden dict **bit-identically**
  (floats compare with ``==`` — JSON's repr-based float serialization is
  lossless);
* the *legacy* shape — snapshots persisted before the windowed metrics of
  PR 4, i.e. without ``window_outcomes``/``window_latency`` — still loads,
  with the missing fields defaulting to empty (the ``repro store migrate``
  path).

Every file matching ``tests/data/golden_*.json`` must be classified here:
a ``SimResult`` snapshot (round-tripped) or a known non-``SimResult``
golden (listed in ``NON_SIMRESULT_GOLDENS`` with the suite that owns it).
Adding a golden without classifying it fails the catalog test.
"""

import json
from pathlib import Path

import pytest

from repro.core.cmp import SimResult

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

#: Goldens that are deliberately NOT SimResult payloads, and who pins them.
NON_SIMRESULT_GOLDENS = {
    # ComboResult-level metrics + IPC; pinned by
    # tests/integration/test_golden_runs.py-style combo checks.
    "golden_c4_0_tiny.json",
    # A demand-profile vector, not a simulation outcome.
    "golden_demand_profile_tiny.json",
    # Scenario identity hashes; pinned by
    # tests/integration/test_golden_scenario_hashes.py.
    "golden_scenario_hashes.json",
    # SHA-256 digests of generated trace bytes; pinned by
    # tests/integration/test_golden_trace_digests.py.
    "golden_trace_digests.json",
}

SIMRESULT_GOLDENS = sorted(
    path.name
    for path in DATA_DIR.glob("golden_*.json")
    if path.name not in NON_SIMRESULT_GOLDENS
)


def test_every_golden_is_classified():
    all_goldens = {path.name for path in DATA_DIR.glob("golden_*.json")}
    unknown = all_goldens - NON_SIMRESULT_GOLDENS - set(SIMRESULT_GOLDENS)
    assert not unknown, (
        f"new golden file(s) {sorted(unknown)} must be added to this "
        "module's catalog: either they are SimResult snapshots (and get "
        "round-trip coverage for free) or they belong in "
        "NON_SIMRESULT_GOLDENS with a comment naming their owning suite"
    )
    assert SIMRESULT_GOLDENS, "expected SimResult goldens under tests/data/"


@pytest.mark.parametrize("name", SIMRESULT_GOLDENS)
def test_golden_round_trips_bit_identically(name):
    golden = json.loads((DATA_DIR / name).read_text())
    result = SimResult.from_dict(golden)
    assert result.to_dict() == golden
    # And a second generation is stable too (to_dict -> from_dict fixpoint).
    again = SimResult.from_dict(result.to_dict())
    assert again.to_dict() == result.to_dict()


@pytest.mark.parametrize("name", SIMRESULT_GOLDENS)
def test_golden_loads_from_legacy_shape(name):
    golden = json.loads((DATA_DIR / name).read_text())
    legacy = {
        key: value
        for key, value in golden.items()
        if key not in ("window_outcomes", "window_latency")
    }
    result = SimResult.from_dict(legacy)
    # Pre-window stores carry no window metrics; everything else must
    # survive untouched.
    assert result.window_outcomes == []
    assert result.window_latency == []
    revived = result.to_dict()
    for key, value in legacy.items():
        assert revived[key] == value


@pytest.mark.parametrize("name", SIMRESULT_GOLDENS)
def test_golden_summary_and_throughput_are_derivable(name):
    golden = json.loads((DATA_DIR / name).read_text())
    result = SimResult.from_dict(golden)
    assert result.throughput == sum(golden["ipc"])
    assert result.scheme in result.summary()
