"""Synthetic workload generation with *controlled set-level capacity demand*.

This module is the substitution for SPEC CPU2000 reference traces (see
DESIGN.md).  A workload is described by a :class:`WorkloadSpec`: one or more
:class:`Phase` s, each assigning every cache set a **working-set size**
``W_s`` drawn from weighted :class:`Band` s.  Within a set, accesses follow a
mixture of three per-set reference patterns whose LRU stack distances are
analytically known:

* **cyclic** over the ``W_s`` resident blocks — every reference has stack
  distance exactly ``W_s`` (the all-or-nothing LRU worst case, so a set with
  ``A < W_s <= 2A`` misses locally but hits in a doubled-capacity set: the
  sharp "taker" signature);
* **uniform-random** over the ``W_s`` blocks — stack distances spread over
  ``[1, W_s]``, giving smooth partial hit rates (capacity-hungry but not
  binary);
* **streaming** — a tag sequence unique within a phase (compulsory misses
  only, within the phase; every phase restarts it at the same base, so a
  later phase re-touches the stream blocks of an earlier one).

Because ``block_required(S, I)`` under LRU equals the deepest hit distance
(Section 2.1), the per-set demand measured by the paper's methodology is
``W_s`` for any mixture of the first two patterns — the generator dials in
set-level demand *by construction*, which is exactly the knob the paper's
observation is about.

The per-set demand map is drawn from a *profile-intrinsic* RNG (seeded by
the workload name), while the temporal interleaving uses the instance seed.
Co-scheduling four copies of one benchmark (the paper's C1/C2 stress tests)
therefore gives four caches with **identical set-level demand structure**
but independent access interleavings — the scenario in which only SNUG's
index-bit flipping can find complementary sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..common.errors import ConfigError
from ..common.rng import derive_seed
from .trace import Trace

__all__ = ["Band", "Phase", "WorkloadSpec", "draw_demand_map", "generate_trace"]

#: Base tag for streaming blocks (unique within a phase); loop tags live in
#: [0, W_s).
_STREAM_TAG_BASE = 1 << 20

#: Accesses per block of the phase kernel (bounds its temporaries).
_BLOCK_ACCESSES = 1 << 16

#: Namespace seed for profile-intrinsic randomness (demand maps).
_PROFILE_SEED_NS = 0x534E5547  # "SNUG"


@dataclass(frozen=True)
class Band:
    """A weighted range of per-set working-set sizes (in blocks)."""

    weight: float
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError("band weight must be non-negative")
        if not 1 <= self.lo <= self.hi:
            raise ConfigError(f"invalid band range [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Phase:
    """One program phase: a demand map recipe plus pattern mixture knobs.

    Attributes
    ----------
    bands:
        Weighted working-set-size bands; weights are normalized.
    duration:
        Relative length of this phase within the workload.
    stream_frac:
        Fraction of accesses that stream: tags unique within this phase
        (no reuse inside it; the next phase starts its stream tags over).
    random_frac:
        Fraction of accesses that touch a uniform-random block of the
        set's working set.  The remainder (``1 - stream - random``) walks
        the working set cyclically.
    """

    bands: Tuple[Band, ...]
    duration: float = 1.0
    stream_frac: float = 0.0
    random_frac: float = 0.5

    def __post_init__(self) -> None:
        if not self.bands:
            raise ConfigError("a phase needs at least one band")
        if self.duration <= 0:
            raise ConfigError("phase duration must be positive")
        if self.stream_frac < 0 or self.random_frac < 0:
            raise ConfigError("pattern fractions must be non-negative")
        if self.stream_frac + self.random_frac > 1.0 + 1e-9:
            raise ConfigError("stream_frac + random_frac must be <= 1")
        total = sum(b.weight for b in self.bands)
        if total <= 0:
            raise ConfigError("band weights must sum to a positive value")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete synthetic benchmark model."""

    name: str
    phases: Tuple[Phase, ...]
    write_fraction: float = 0.25
    mean_gap: float = 30.0
    app_class: str = "?"
    #: Free-form notes (which SPEC2000 behaviour this models).
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigError("a workload needs at least one phase")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write fraction must be in [0, 1]")
        if self.mean_gap < 1.0:
            raise ConfigError("mean gap must be >= 1 instruction")

    def demand_seed(self) -> int:
        """Profile-intrinsic seed: identical across co-scheduled instances."""
        return derive_seed(_PROFILE_SEED_NS, self.name, "demand")

    def mean_demand(self, num_sets: int) -> float:
        """Expected per-set working-set size, duration-weighted over phases."""
        total_dur = sum(p.duration for p in self.phases)
        acc = 0.0
        for phase in self.phases:
            wsum = sum(b.weight for b in phase.bands)
            mean = sum(b.weight * (b.lo + b.hi) / 2.0 for b in phase.bands) / wsum
            acc += mean * (phase.duration / total_dur)
        return acc

    def footprint_bytes(self, num_sets: int, line_bytes: int = 64) -> float:
        """Approximate resident footprint (loop working sets only)."""
        return self.mean_demand(num_sets) * num_sets * line_bytes


def draw_demand_map(bands: Tuple[Band, ...], num_sets: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``W_s`` for every set from the weighted *bands*.

    Sets are assigned bands i.i.d., so adjacent sets (``s`` and ``s ^ 1``)
    get independent draws — the source of the flippable giver/taker
    complementarity SNUG exploits in stress tests.
    """
    weights = np.array([b.weight for b in bands], dtype=float)
    weights /= weights.sum()
    choice = rng.choice(len(bands), size=num_sets, p=weights)
    w = np.empty(num_sets, dtype=np.int64)
    for i, band in enumerate(bands):
        mask = choice == i
        w[mask] = rng.integers(band.lo, band.hi + 1, size=int(mask.sum()))
    return w


def _generate_phase(
    phase: Phase,
    num_sets: int,
    n_accesses: int,
    demand_rng: np.random.Generator,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate the block-address stream for one phase."""
    wmap = draw_demand_map(phase.bands, num_sets, demand_rng)
    sets = rng.integers(0, num_sets, size=n_accesses)
    kind = rng.random(n_accesses)
    rand_pick = rng.random(n_accesses)
    stream_cut = phase.stream_frac
    random_cut = phase.stream_frac + phase.random_frac

    # Kernel: the only sequential state is how many earlier accesses each
    # (set, pattern) pair has issued in this phase -- a streaming access's
    # tag is _STREAM_TAG_BASE plus that count, a cyclic one's is the count
    # mod W_s.  Each block ranks its accesses within their (pattern, set)
    # group with one stable sort and adds the counts carried from earlier
    # blocks; fixed-size blocks keep the temporaries O(block).  The key is
    # pattern-major, so the sorted block is three contiguous slices:
    # streaming, uniform-random, cyclic.
    n_keys = 3 * num_sets
    # A 16-bit key lets NumPy's stable sort use radix sort.
    key_dtype = np.uint16 if n_keys <= 1 << 16 else np.int64
    set_of_key = np.tile(np.arange(num_sets, dtype=np.int64), 3)
    w_of_key = np.tile(wmap, 3)
    issued = np.zeros(n_keys, dtype=np.int64)
    addrs = np.empty(n_accesses, dtype=np.int64)
    for lo in range(0, n_accesses, _BLOCK_ACCESSES):
        hi = min(lo + _BLOCK_ACCESSES, n_accesses)
        k = kind[lo:hi]
        key = (k >= stream_cut).astype(key_dtype)
        key += k >= random_cut
        key *= num_sets
        key += sets[lo:hi].astype(key_dtype, copy=False)
        counts = np.bincount(key, minlength=n_keys)
        order = np.argsort(key, kind="stable")
        # nth issue of each access's (pattern, set) pair, in sorted order.
        tag = np.arange(hi - lo) + np.repeat(issued - (np.cumsum(counts) - counts), counts)
        issued += counts
        w = np.repeat(w_of_key, counts)
        stream_end = int(counts[:num_sets].sum())
        random_end = stream_end + int(counts[num_sets : 2 * num_sets].sum())
        tag[:stream_end] += _STREAM_TAG_BASE
        rand = slice(stream_end, random_end)
        tag[rand] = rand_pick[lo + order[rand]] * w[rand]
        np.remainder(tag[random_end:], w[random_end:], out=tag[random_end:])
        tag *= num_sets
        tag += np.repeat(set_of_key, counts)
        addrs[lo:hi][order] = tag
    return addrs


def _phase_lengths(spec: WorkloadSpec, n_accesses: int) -> List[int]:
    """Accesses per phase (duration-proportional; the last takes the rest)."""
    total_dur = sum(p.duration for p in spec.phases)
    lengths = []
    remaining = n_accesses
    for pi, phase in enumerate(spec.phases):
        if pi == len(spec.phases) - 1:
            n_phase = remaining
        else:
            n_phase = min(int(round(n_accesses * phase.duration / total_dur)), remaining)
        remaining -= n_phase
        lengths.append(n_phase)
    return lengths


def generate_trace(
    spec: WorkloadSpec,
    num_sets: int,
    n_accesses: int,
    seed: int = 0,
) -> Trace:
    """Generate an L2 access trace realizing *spec* on a *num_sets* cache.

    Parameters
    ----------
    spec:
        The workload model.
    num_sets:
        Number of L2 sets of the *baseline* cache the demand is calibrated
        against (the paper uses 1024).
    n_accesses:
        Trace length in L2 accesses.
    seed:
        Instance seed: controls interleaving, gaps and write placement but
        *not* the per-set demand structure (see module docstring).
    """
    if n_accesses < 1:
        raise ConfigError("n_accesses must be >= 1")
    demand_rng = np.random.default_rng(spec.demand_seed())
    rng = np.random.default_rng(derive_seed(seed, spec.name, "stream"))

    chunks = [
        _generate_phase(phase, num_sets, n_phase, demand_rng, rng)
        for phase, n_phase in zip(spec.phases, _phase_lengths(spec, n_accesses))
        if n_phase > 0
    ]
    addrs = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    gaps = 1 + rng.poisson(max(spec.mean_gap - 1.0, 0.0), size=len(addrs))
    writes = rng.random(len(addrs)) < spec.write_fraction
    return Trace(gaps=gaps, addrs=addrs, writes=writes, name=spec.name)
