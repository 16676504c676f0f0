"""Shared helpers for driving L2 schemes directly in tests.

The tiny geometry (16 sets, 4-way, 64 B lines) keeps hand-computed addresses
readable: block address ``tag * 16 + set`` lives in set ``set``.  Also holds
the per-access trace-generator oracle (:func:`reference_generate_phase`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.common.config import CacheGeometry, DsrConfig, SnugConfig, SystemConfig
from repro.mem.address import core_address_base
from repro.workloads import synthetic

NUM_SETS = 16
ASSOC = 4


def tiny_system(**overrides) -> SystemConfig:
    """A 16-set, 4-way quad-core system with short SNUG epochs."""
    cfg = SystemConfig(
        l2=CacheGeometry(size_bytes=4 << 10, assoc=ASSOC, line_bytes=64),
        snug=SnugConfig(identify_cycles=1_000, group_cycles=10_000),
        dsr=DsrConfig(leader_sets_per_policy=2),
        seed=99,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def addr(core: int, set_index: int, tag: int) -> int:
    """Block address of (core, set, tag) in the tiny geometry."""
    return core_address_base(core) + tag * NUM_SETS + set_index


def fill_set(scheme, core: int, set_index: int, n: int, t0: int = 0, start_tag: int = 0):
    """Issue *n* distinct read accesses mapping to one set; returns end time."""
    now = t0
    for k in range(n):
        res = scheme.access(core, addr(core, set_index, start_tag + k), False, now)
        now += res.latency + 1
    return now


def reference_generate_phase(phase, num_sets, n_accesses, demand_rng, rng):
    """Per-access oracle for :func:`repro.workloads.synthetic._generate_phase`.

    The generator's original interpreted loop: same RNG draws in the same
    order, then one pattern dispatch per access with explicit per-set
    cyclic and streaming pointers.  The vectorized kernel must reproduce
    its output byte for byte.
    """
    wmap = synthetic.draw_demand_map(phase.bands, num_sets, demand_rng)
    sets = rng.integers(0, num_sets, size=n_accesses)
    kind = rng.random(n_accesses)
    rand_pick = rng.random(n_accesses)
    stream_cut = phase.stream_frac
    random_cut = phase.stream_frac + phase.random_frac

    cyc_ptr = np.zeros(num_sets, dtype=np.int64)
    stream_ptr = np.full(num_sets, synthetic._STREAM_TAG_BASE, dtype=np.int64)
    addrs = np.empty(n_accesses, dtype=np.int64)
    for i in range(n_accesses):
        s = int(sets[i])
        k = kind[i]
        if k < stream_cut:
            tag = int(stream_ptr[s])
            stream_ptr[s] += 1
        elif k < random_cut:
            tag = int(rand_pick[i] * wmap[s])
        else:
            tag = int(cyc_ptr[s])
            nxt = tag + 1
            cyc_ptr[s] = 0 if nxt >= wmap[s] else nxt
        addrs[i] = tag * num_sets + s
    return addrs
