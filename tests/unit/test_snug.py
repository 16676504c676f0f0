"""Unit tests for the SNUG scheme (Section 3)."""

from dataclasses import replace

from tests.helpers import addr, fill_set, tiny_system

from repro.schemes.base import Outcome
from repro.schemes.snug import STAGE_GROUP, STAGE_IDENTIFY, SnugCache


def make(**snug_overrides):
    cfg = tiny_system()
    if snug_overrides:
        cfg = cfg.with_(snug=replace(cfg.snug, **snug_overrides))
    return SnugCache(cfg)


def force_takers(scheme, core, sets, value=True):
    """Directly set G/T bits (white-box helper for grouping tests)."""
    for s in sets:
        scheme.meta[core].gt_taker[s] = value


def enter_group_stage(scheme):
    """Advance past Stage I without touching monitors."""
    scheme._advance_stage(scheme.snug_cfg.identify_cycles)
    assert scheme.stage == STAGE_GROUP


class TestStageMachinery:
    def test_starts_identifying(self):
        assert make().stage == STAGE_IDENTIFY

    def test_transitions_at_boundaries(self):
        s = make()  # identify 1_000, group 10_000
        s._advance_stage(999)
        assert s.stage == STAGE_IDENTIFY
        s._advance_stage(1_000)
        assert s.stage == STAGE_GROUP
        s._advance_stage(10_999)
        assert s.stage == STAGE_GROUP
        s._advance_stage(11_000)
        assert s.stage == STAGE_IDENTIFY
        assert s.epoch == 1

    def test_multiple_boundaries_in_one_jump(self):
        s = make()
        s._advance_stage(25_000)  # crosses I,G,I,G
        assert s.epoch >= 2

    def test_initial_vector_all_givers(self):
        s = make()
        assert s.taker_fraction(0) == 0.0


class TestShadowAndMonitor:
    def test_clean_eviction_recorded_in_shadow(self):
        s = make()
        fill_set(s, 0, 0, 5)  # evicts tag 0 clean
        assert addr(0, 0, 0) in s.meta[0].shadows[0].tags()

    def test_dirty_eviction_not_shadowed(self):
        s = make()
        s.access(0, addr(0, 0, 0), True, 0)
        fill_set(s, 0, 0, 4, t0=400, start_tag=1)
        assert addr(0, 0, 0) not in s.meta[0].shadows[0].tags()

    def test_shadow_hit_increments_monitor(self):
        s = make()
        fill_set(s, 0, 0, 5)  # tag 0 evicted to shadow
        before = s.meta[0].monitors[0].value
        s.access(0, addr(0, 0, 0), False, 900)  # still Stage I
        assert s.meta[0].monitors[0].value == before + 1
        assert s.flat_stats()["l2_0.shadow_hits"] == 1

    def test_shadow_exclusive_after_refill(self):
        s = make()
        fill_set(s, 0, 0, 5)
        s.access(0, addr(0, 0, 0), False, 900)  # shadow hit -> invalidated
        assert addr(0, 0, 0) not in s.meta[0].shadows[0].tags()
        assert s.slices[0].probe(addr(0, 0, 0)) is not None

    def test_real_hits_decrement_via_mod_p(self):
        s = make()
        a = addr(0, 2, 0)
        s.access(0, a, False, 0)
        before = s.meta[0].monitors[2].value
        for k in range(8):  # p = 8 hits
            s.access(0, a, False, 100 * (k + 1))
        assert s.meta[0].monitors[2].value == before - 1

    def test_gt_latched_from_msb_and_reset(self):
        s = make()
        # Compressed issue times keep everything inside Stage I.
        for k in range(5):
            s.access(0, addr(0, 0, k), False, k)
        s.access(0, addr(0, 0, 0), False, 10)  # shadow hit: counter 7 -> 8
        s._advance_stage(1_000)
        assert s.meta[0].gt_taker[0] is True
        assert s.meta[0].monitors[0].value == 7  # reset for next epoch

    def test_monitor_during_group_flag(self):
        s = make(monitor_during_group=False)
        enter_group_stage(s)
        fill_set(s, 0, 0, 5, t0=2_000)
        before = s.meta[0].monitors[0].value
        s.access(0, addr(0, 0, 0), False, 5_000)
        assert s.meta[0].monitors[0].value == before  # sampling frozen

        s2 = make(monitor_during_group=True)
        enter_group_stage(s2)
        fill_set(s2, 0, 0, 5, t0=2_000)
        before = s2.meta[0].monitors[0].value
        s2.access(0, addr(0, 0, 0), False, 5_000)
        assert s2.meta[0].monitors[0].value == before + 1


class TestGrouping:
    def test_no_spills_during_identify(self):
        s = make()
        force_takers(s, 0, range(16))
        fill_set(s, 0, 0, 6)  # still in Stage I
        assert s.flat_stats().get("l2_0.spills_out", 0) == 0

    def test_giver_set_does_not_spill(self):
        s = make()
        enter_group_stage(s)
        fill_set(s, 0, 0, 6, t0=2_000)  # set 0 is a giver by default
        assert s.flat_stats().get("l2_0.spills_out", 0) == 0

    def test_single_core_spill_is_unplaced(self):
        s = SnugCache(tiny_system(num_cores=1))
        enter_group_stage(s)
        force_takers(s, 0, [4])
        fill_set(s, 0, 4, 5, t0=2_000)
        stats = s.flat_stats()
        assert stats["l2_0.spills_unplaced"] == 1
        assert stats.get("l2_0.spills_out", 0) == 0

    def test_case1_same_index_giver_hosts(self):
        s = make()
        enter_group_stage(s)
        force_takers(s, 0, [4])  # spiller set at core 0
        # Peers' set 4 remain givers -> case 1, f=0.
        fill_set(s, 0, 4, 5, t0=2_000)
        hosted = [
            (i, line)
            for i, sl in enumerate(s.slices)
            for line in sl.resident()
            if line.cc
        ]
        assert len(hosted) == 1
        peer, line = hosted[0]
        assert s.amap.set_index(line.addr) == 4
        assert line.f is False
        assert s.slices[peer].probe(line.addr, set_index=4) is line

    def test_case2_flipped_giver_hosts(self):
        s = make()
        enter_group_stage(s)
        force_takers(s, 0, [4])
        for peer in (1, 2, 3):  # peers' set 4 all takers; set 5 givers
            force_takers(s, peer, [4])
        fill_set(s, 0, 4, 5, t0=2_000)
        hosted = [
            (i, line)
            for i, sl in enumerate(s.slices)
            for line in sl.resident()
            if line.cc
        ]
        assert len(hosted) == 1
        peer, line = hosted[0]
        assert line.f is True
        assert s.amap.set_index(line.addr) == 4  # home index still 4
        assert s.slices[peer].probe(line.addr, set_index=5) is line  # lives in 5

    def test_case3_all_takers_no_response(self):
        s = make()
        enter_group_stage(s)
        for core in range(4):
            force_takers(s, core, [4, 5])
        fill_set(s, 0, 4, 5, t0=2_000)
        assert s.flat_stats().get("l2_0.spills_unplaced", 0) == 1
        assert sum(sl.cc_occupancy() for sl in s.slices) == 0

    def test_flip_disabled_restricts_to_same_index(self):
        s = make(flip_enabled=False)
        enter_group_stage(s)
        force_takers(s, 0, [4])
        for peer in (1, 2, 3):
            force_takers(s, peer, [4])  # same-index all takers; 5 is giver
        fill_set(s, 0, 4, 5, t0=2_000)
        assert s.flat_stats().get("l2_0.spills_unplaced", 0) == 1


class TestRetrieval:
    def prepped(self, **kw):
        s = make(**kw)
        enter_group_stage(s)
        force_takers(s, 0, [4])
        return s

    def test_retrieve_from_same_index_giver(self):
        s = self.prepped()
        victim = addr(0, 4, 0)
        fill_set(s, 0, 4, 5, t0=2_000)
        res = s.access(0, victim, False, 5_000)
        assert res.outcome is Outcome.REMOTE_HIT
        assert res.latency >= s.config.latency.l2_remote_snug
        assert s.slices[0].probe(victim) is not None
        # Forwarded copy invalidated: exactly one on-chip copy remains.
        copies = sum(
            (sl.probe(victim) is not None)
            + (sl.probe(victim, set_index=5) is not None)
            for sl in s.slices
        )
        assert copies == 1

    def test_retrieve_from_flipped_set(self):
        s = self.prepped()
        for peer in (1, 2, 3):
            force_takers(s, peer, [4])
        victim = addr(0, 4, 0)
        fill_set(s, 0, 4, 5, t0=2_000)
        res = s.access(0, victim, False, 5_000)
        assert res.outcome is Outcome.REMOTE_HIT

    def test_gt_gated_lookup_skips_taker_sets(self):
        """A block hosted in a set that later flips to taker is flushed, so
        the gated lookup stays consistent (never a stale unreachable copy)."""
        s = self.prepped(flush_on_flip_to_taker=True)
        victim = addr(0, 4, 0)
        fill_set(s, 0, 4, 5, t0=2_000)
        host = next(i for i in range(4) if s.slices[i].cc_occupancy())
        # Simulate the host's set 4 flipping to taker at an epoch boundary.
        s.meta[host].monitors[4].on_shadow_hit()  # force MSB
        s._advance_stage(11_000)  # Stage I
        s._advance_stage(12_000)  # latch + Stage II
        assert s.meta[host].gt_taker[4]
        assert s.slices[host].cc_occupancy() == 0  # flushed
        res = s.access(0, victim, False, 13_000)
        assert res.outcome is Outcome.MEMORY  # honest miss, no stale copy

    def test_snug_remote_latency_is_40(self):
        s = self.prepped()
        victim = addr(0, 4, 0)
        fill_set(s, 0, 4, 5, t0=2_000)
        res = s.access(0, victim, False, 5_000)
        assert res.latency == s.config.latency.l2_remote_snug


class TestCoherenceRules:
    def test_dirty_victims_never_spilled(self):
        s = make()
        enter_group_stage(s)
        force_takers(s, 0, [2])
        s.access(0, addr(0, 2, 0), True, 2_000)
        fill_set(s, 0, 2, 4, t0=2_500, start_tag=1)
        assert s.flat_stats().get("l2_0.spills_out", 0) == 0

    def test_at_most_one_copy_invariant(self):
        s = make()
        enter_group_stage(s)
        force_takers(s, 0, list(range(16)))
        force_takers(s, 1, list(range(16)))
        for set_index in range(8):
            fill_set(s, 0, set_index, 7, t0=2_000 + set_index * 3_000)
            fill_set(s, 1, set_index, 6, t0=2_500 + set_index * 3_000)
        seen = set()
        for sl in s.slices:
            for line in sl.resident():
                assert line.addr not in seen
                seen.add(line.addr)

    def test_host_victim_never_cascades_spill(self):
        s = make()
        enter_group_stage(s)
        force_takers(s, 0, [4])
        # Make peer 1's set 4 a giver holding its own clean data.
        fill_set(s, 1, 4, 4, t0=2_000)
        fill_set(s, 0, 4, 9, t0=20_000)  # many spills into peers
        stats = s.flat_stats()
        # Only core 0 (the taker) ever spilled.
        for c in (1, 2, 3):
            assert stats.get(f"l2_{c}.spills_out", 0) == 0
