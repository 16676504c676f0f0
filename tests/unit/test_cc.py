"""Unit tests for Cooperative Caching (CC)."""

from tests.helpers import addr, fill_set, tiny_system

from repro.schemes.base import Outcome
from repro.schemes.cc import CooperativeCaching


def make(prob=1.0):
    return CooperativeCaching(tiny_system(), spill_probability=prob)


def total_hosted(scheme):
    return sum(s.cc_occupancy() for s in scheme.slices)


class TestSpilling:
    def test_clean_eviction_spills_at_p1(self):
        s = make(1.0)
        fill_set(s, 0, 0, 5)  # one clean eviction from a 4-way set
        assert total_hosted(s) == 1
        assert s.flat_stats()["l2_0.spills_out"] == 1

    def test_no_spill_at_p0(self):
        s = make(0.0)
        fill_set(s, 0, 0, 6)
        assert total_hosted(s) == 0

    def test_single_core_spill_is_dropped(self):
        s = CooperativeCaching(tiny_system(num_cores=1), spill_probability=1.0)
        fill_set(s, 0, 0, 5)
        assert total_hosted(s) == 0
        assert s.flat_stats()["l2_0.spills_dropped"] == 1

    def test_dirty_victim_not_spilled(self):
        s = make(1.0)
        a = addr(0, 0, 0)
        s.access(0, a, True, 0)  # dirty
        fill_set(s, 0, 0, 4, t0=500, start_tag=1)
        assert total_hosted(s) == 0
        assert s.flat_stats().get("wbuf_0.deposits", 0) == 1

    def test_spilled_block_lands_in_same_index_set(self):
        s = make(1.0)
        fill_set(s, 0, 3, 5)
        hosted = [
            (i, line)
            for i, sl in enumerate(s.slices)
            for line in sl.resident()
            if line.cc
        ]
        assert len(hosted) == 1
        peer, line = hosted[0]
        assert peer != 0
        assert s.amap.set_index(line.addr) == 3
        assert line.owner == 0

    def test_hosted_block_not_respilled(self):
        """1-chance forwarding: a cc victim dies quietly."""
        s = make(1.0)
        spilled = addr(0, 0, 0)
        fill_set(s, 0, 0, 5)  # spills tag 0 somewhere
        host = next(i for i, sl in enumerate(s.slices) if sl.cc_occupancy())
        # Fill the host's same set with its own lines until the cc line dies.
        fill_set(s, host, 0, 8, t0=50_000)
        assert s.flat_stats()[f"l2_{host}.cc_evicted"] >= 1
        # The dead cooperative block exists nowhere on chip any more.
        assert all(sl.probe(spilled) is None for sl in s.slices)

    def test_probabilistic_spill_rate(self):
        s = make(0.5)
        for set_index in range(16):
            fill_set(s, 0, set_index, 12, t0=set_index * 40_000)
        spills = s.flat_stats()["l2_0.spills_out"]
        # 16 sets x 8 clean evictions each = 128 opportunities.
        assert 40 <= spills <= 90


class TestRetrieval:
    def test_remote_hit_forwards_and_invalidates(self):
        s = make(1.0)
        victim_addr = addr(0, 0, 0)
        fill_set(s, 0, 0, 5)  # evicts tag 0 -> spilled
        res = s.access(0, victim_addr, False, 10_000)
        assert res.outcome is Outcome.REMOTE_HIT
        assert res.latency >= s.config.latency.l2_remote
        assert s.slices[0].probe(victim_addr) is not None  # back home
        # The forwarded copy was invalidated: exactly one copy on chip.
        copies = sum(sl.probe(victim_addr) is not None for sl in s.slices)
        assert copies == 1

    def test_remote_miss_goes_to_memory(self):
        s = make(0.0)
        fill_set(s, 0, 0, 5)
        res = s.access(0, addr(0, 0, 0), False, 10_000)
        assert res.outcome is Outcome.MEMORY

    def test_write_after_retrieval_dirties_home_copy(self):
        s = make(1.0)
        victim_addr = addr(0, 0, 0)
        fill_set(s, 0, 0, 5)
        s.access(0, victim_addr, True, 10_000)
        assert s.slices[0].probe(victim_addr).dirty


class TestInvariants:
    def test_at_most_one_copy_onchip(self):
        s = make(1.0)
        for set_index in range(4):
            fill_set(s, 0, set_index, 7, t0=set_index * 40_000)
            fill_set(s, 1, set_index, 6, t0=set_index * 40_000 + 500)
        seen = {}
        for i, sl in enumerate(s.slices):
            for line in sl.resident():
                assert line.addr not in seen, f"duplicate {line.addr} in {i} and {seen[line.addr]}"
                seen[line.addr] = i

    def test_bus_traffic_accounted(self):
        s = make(1.0)
        fill_set(s, 0, 0, 5)
        stats = s.flat_stats()
        assert stats["bus.snoops"] >= 1
        assert stats["bus.transfers"] >= 1
