"""Compiled simulation core: SoA cache state + typed kernels, miss path included.

The production core: ``sim_core="auto"`` (the default) runs every simulation
through :class:`CompiledCmpSystem`.  The fast core
(:class:`~repro.core.cmp.CmpSystem`) inlines trace stepping but still walks
Python objects per access; this core steps whole runs inside per-scheme
kernels, so it wins on the *miss-heavy* paper mixes and on hit-dominated
(quiescent) traces alike:

* **Structure-of-arrays state.**  All per-set LRU/recency state, occupancy
  counters, dirty bits, write-buffer FIFOs, saturating counters and shadow-set
  state are held either in preallocated NumPy ``int64`` arrays (the JIT path)
  or in pre-extracted plain-Python lists/dicts bound to loop locals (the
  interpreted path) — per-access attribute chains and method dispatch are gone
  from the hot loop entirely.
* **Per-scheme typed kernels.**  One kernel per scheme consumes whole
  trace-column chunks per core, miss path included: set search, LRU rotation,
  write-buffer drain/merge/deposit, DRAM (flat and banked), bus accounting
  (contention and free), spill/retrieval and SNUG stage machinery are all
  inlined in the kernel body.
* **Three kernel tiers, all bit-identical.**  (1) When Numba is importable
  (and not disabled via ``REPRO_NO_NUMBA=1``) the array kernels are compiled
  with ``@njit(cache=True)`` — selected at import time, so Numba is never a
  hard dependency.  (2) Otherwise a native C translation of the kernels
  (:mod:`repro.core._ckernel`) is built once per source hash with the
  system C compiler and driven via ``ctypes`` — disabled with
  ``REPRO_NO_CKERNEL=1`` or when no compiler is on ``PATH``.  (3) Otherwise
  a pure-Python interpreted driver over the same SoA layout runs, and a
  one-line notice on stderr says so (once per process).  A tier that cannot
  encode a system returns ``None`` and the next tier takes over.

Every kernel replicates the reference semantics term-for-term — stat-counter
*first-touch order* included, because ``SimResult.to_dict()`` round-trips
through JSON where dict insertion order is part of byte-identity.  The
conformance and golden suites hold this core to full ``to_dict()`` equality
against :mod:`repro.core.reference` across all schemes and edge configs.

``snug_intra`` subclasses :class:`~repro.schemes.snug.SnugCache` with
different intra-set semantics; dispatch is keyed by *exact* scheme type, so
unknown (sub)types fall back to the fast core unchanged.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

import numpy as np

from ..cache.block import CacheLine
from ..common.errors import SimulationError
from ..schemes.base import Outcome
from ..schemes.cc import CooperativeCaching
from ..schemes.dsr import DynamicSpillReceive
from ..schemes.l2p import PrivateL2
from ..schemes.l2s import SharedL2
from ..schemes.snug import STAGE_GROUP, STAGE_IDENTIFY, SnugCache
from . import _ckernel
from .cmp import CmpSystem, SimResult, budget_exhausted_error

__all__ = ["CompiledCmpSystem", "KERNEL_SCHEMES", "numba_active", "kernel_mode"]

#: Outcome keys in enum order — the prepopulated-dict key order of the
#: reference core's ``outcome_counts`` / ``window_outcomes``.
_OUT_KEYS = tuple(o.value for o in Outcome)

#: Address-only snoop payload (mirrors ``interconnect.bus.ADDRESS_BYTES``).
_ADDRESS_BYTES = 8

# -- Numba detection (import time; never a hard dependency) ------------------

_njit = None
_NUMBA_REASON: Optional[str] = None
if os.environ.get("REPRO_NO_NUMBA"):
    _NUMBA_REASON = "disabled by REPRO_NO_NUMBA"
else:
    try:  # pragma: no cover - exercised only where numba is installed
        from numba import njit as _njit  # type: ignore[no-redef]
    except Exception:
        _NUMBA_REASON = "numba not importable"

#: Set permanently if JIT compilation/execution fails at runtime; the array
#: path only mutates private arrays before its merge, so demotion is safe.
_NUMBA_BROKEN = False
_NOTICE_EMITTED = False


def _numba_usable() -> bool:
    return _njit is not None and not _NUMBA_BROKEN


def numba_active() -> bool:
    """Whether the JIT kernels are available and healthy."""
    return _numba_usable()


def kernel_mode() -> str:
    """Which tier drives the kernels.

    ``"jit"`` when Numba is importable and healthy, ``"compiled-c"`` when the
    native C kernel library is available instead, ``"interpreted"`` when
    neither is (the pure-Python fallback — still bit-identical).
    """
    if _numba_usable():
        return "jit"
    if _ckernel.lib_available():
        return "compiled-c"
    return "interpreted"


def _emit_interpreted_notice() -> None:
    """One line, once per process, saying the fallback kernels are active.

    Emitted only when *both* accelerated tiers are out: the reasons for each
    are composed so the operator can see exactly why the interpreter runs.
    """
    global _NOTICE_EMITTED
    if _NOTICE_EMITTED:
        return
    _NOTICE_EMITTED = True
    reasons = [
        _NUMBA_REASON or "numba JIT unavailable",
        _ckernel.reason() or "C kernel unavailable",
    ]
    print(
        f"repro.compiled: {'; '.join(reasons)}; "
        "using interpreted kernels (bit-identical)",
        file=sys.stderr,
    )


# -- SoA counter slots (array kernels) ----------------------------------------
#
# Counter *values* live in int64 rows; a parallel ``stamp`` row records the
# global first-touch tick of each slot (-1 = never touched).  The merge sorts
# slots by stamp before adding them into the real defaultdicts, reproducing
# the reference core's dict-key creation order exactly.

_SLICE_KEYS = ("hits", "misses", "fills", "evictions", "writebacks", "dram_fetches")
_SL_HITS, _SL_MISSES, _SL_FILLS, _SL_EVICT, _SL_WB, _SL_DRAMF = range(6)
_WBUF_KEYS = ("drained", "merged", "full_stalls", "stall_cycles", "deposits", "direct_reads")
_WB_DRAINED, _WB_MERGED, _WB_FULL, _WB_STALLC, _WB_DEP, _WB_DIRECT = range(6)
_DRAM_KEYS = ("reads", "busy_cycles", "bank_conflict_cycles", "bank_conflicts")
_DR_READS, _DR_BUSY, _DR_CONFC, _DR_CONF = range(4)

# params vector layout for the l2p array kernel
(_P_NCORES, _P_WARMUP, _P_FINISH, _P_BUDGET, _P_L1, _P_LAT_LOCAL, _P_DRAM_LAT,
 _P_WB_CAP, _P_WB_DRAIN, _P_WB_DIRECT, _P_BANKED, _P_BANK_MASK, _P_BANK_BUSY,
 _P_IMASK, _P_ASSOC, _P_CSHIFT) = range(16)


def _wb_deposit_py(cid, baddr, now, wb_addr, wb_time, wb_head, wb_len, wb_next,
                   wb_cnt, wb_stamp, stamp, wb_cap, wb_drain):
    """Array twin of ``WriteBackBuffer.deposit`` (ring with head+len)."""
    wlen = wb_len[cid]
    head = wb_head[cid]
    nd = wb_next[cid]
    while wlen > 0 and nd <= now:
        head = (head + 1) % wb_cap
        wlen -= 1
        if wb_stamp[cid, 0] < 0:
            wb_stamp[cid, 0] = stamp[0]
            stamp[0] += 1
        wb_cnt[cid, 0] += 1
        nd += wb_drain
    fidx = -1
    for j in range(wlen):
        idx = (head + j) % wb_cap
        if wb_addr[cid, idx] == baddr:
            fidx = idx
            break
    if fidx >= 0:
        wb_time[cid, fidx] = now
        if wb_stamp[cid, 1] < 0:
            wb_stamp[cid, 1] = stamp[0]
            stamp[0] += 1
        wb_cnt[cid, 1] += 1
        wb_head[cid] = head
        wb_len[cid] = wlen
        wb_next[cid] = nd
        return 0
    stall = 0
    if wlen >= wb_cap:
        wait = nd if nd > now else now
        stall = wait - now
        head = (head + 1) % wb_cap
        wlen -= 1
        if wb_stamp[cid, 0] < 0:
            wb_stamp[cid, 0] = stamp[0]
            stamp[0] += 1
        wb_cnt[cid, 0] += 1
        if wb_stamp[cid, 2] < 0:
            wb_stamp[cid, 2] = stamp[0]
            stamp[0] += 1
        wb_cnt[cid, 2] += 1
        if wb_stamp[cid, 3] < 0:
            wb_stamp[cid, 3] = stamp[0]
            stamp[0] += 1
        wb_cnt[cid, 3] += stall
        nd = wait + wb_drain
    elif wlen == 0:
        nd = now + wb_drain
    tail = (head + wlen) % wb_cap
    wb_addr[cid, tail] = baddr
    wb_time[cid, tail] = now
    wlen += 1
    if wb_stamp[cid, 4] < 0:
        wb_stamp[cid, 4] = stamp[0]
        stamp[0] += 1
    wb_cnt[cid, 4] += 1
    wb_head[cid] = head
    wb_len[cid] = wlen
    wb_next[cid] = nd
    return stall


def _l2p_fill_py(cid, addr, dirty, now, lru, ldirty, locc, sl_cnt, sl_stamp,
                 wb_addr, wb_time, wb_head, wb_len, wb_next, wb_cnt, wb_stamp,
                 stamp, imask, assoc, wb_cap, wb_drain):
    """Array twin of l2p's fill + default victim disposition; returns stall."""
    si = addr & imask
    occ = locc[cid, si]
    vaddr = -1
    vdirty = 0
    if occ >= assoc:
        vaddr = lru[cid, si, assoc - 1]
        vdirty = ldirty[cid, si, assoc - 1]
        occ -= 1
    for j in range(occ, 0, -1):
        lru[cid, si, j] = lru[cid, si, j - 1]
        ldirty[cid, si, j] = ldirty[cid, si, j - 1]
    lru[cid, si, 0] = addr
    ldirty[cid, si, 0] = dirty
    locc[cid, si] = occ + 1
    if sl_stamp[cid, 2] < 0:
        sl_stamp[cid, 2] = stamp[0]
        stamp[0] += 1
    sl_cnt[cid, 2] += 1
    if vaddr >= 0:
        if sl_stamp[cid, 3] < 0:
            sl_stamp[cid, 3] = stamp[0]
            stamp[0] += 1
        sl_cnt[cid, 3] += 1
        if vdirty != 0:
            if sl_stamp[cid, 4] < 0:
                sl_stamp[cid, 4] = stamp[0]
                stamp[0] += 1
            sl_cnt[cid, 4] += 1
            return _wb_deposit_k(cid, vaddr, now, wb_addr, wb_time, wb_head,
                                 wb_len, wb_next, wb_cnt, wb_stamp, stamp,
                                 wb_cap, wb_drain)
    return 0


def _l2p_kernel_py(params, offs, gaps, gapc, taddrs, twrites,
                   c_time, c_pos, c_instr, c_wraps, c_acc, c_warm, c_fin, keys,
                   lru, ldirty, locc,
                   wb_addr, wb_time, wb_head, wb_len, wb_next,
                   sl_cnt, sl_stamp, wb_cnt, wb_stamp, dram_cnt, dram_stamp,
                   stamp, bank_free, out_c, w_out, w_lat):
    """The l2p event loop over SoA state; returns 0 (done) or 1 (budget hit).

    Term-for-term the reference loop: packed ``issue<<cshift|cid`` keys give
    the heap's ``(issue, cid)`` order, -1 sentinels stand in for ``None`` on
    warmup/finish times, and every counter bump stamps its first touch.
    """
    ncores = params[0]
    warmup = params[1]
    finish_at = params[2]
    budget = params[3]
    l1 = params[4]
    lat_local = params[5]
    dram_lat = params[6]
    wb_cap = params[7]
    wb_drain = params[8]
    wb_direct = params[9]
    banked = params[10]
    bank_mask = params[11]
    bank_busy = params[12]
    imask = params[13]
    assoc = params[14]
    cshift = params[15]
    cmask = (1 << cshift) - 1
    remaining = ncores
    events = 0
    while remaining > 0:
        events += 1
        if events > budget:
            return 1
        k = keys[0]
        for i in range(1, ncores):
            if keys[i] < k:
                k = keys[i]
        cid = k & cmask
        issue = k >> cshift
        base = offs[cid]
        pos = c_pos[cid]
        addr = taddrs[base + pos]
        wfl = twrites[base + pos]
        si = addr & imask
        occ = locc[cid, si]
        way = -1
        for j in range(occ):
            if lru[cid, si, j] == addr:
                way = j
                break
        if way >= 0:
            if way > 0:
                d = ldirty[cid, si, way]
                for j in range(way, 0, -1):
                    lru[cid, si, j] = lru[cid, si, j - 1]
                    ldirty[cid, si, j] = ldirty[cid, si, j - 1]
                lru[cid, si, 0] = addr
                ldirty[cid, si, 0] = d
            if wfl != 0:
                ldirty[cid, si, 0] = 1
            if sl_stamp[cid, 0] < 0:
                sl_stamp[cid, 0] = stamp[0]
                stamp[0] += 1
            sl_cnt[cid, 0] += 1
            latency = lat_local
            okey = 0
        else:
            if sl_stamp[cid, 1] < 0:
                sl_stamp[cid, 1] = stamp[0]
                stamp[0] += 1
            sl_cnt[cid, 1] += 1
            hitwb = False
            wlen = wb_len[cid]
            if wlen > 0 and wb_direct != 0:
                nd = wb_next[cid]
                if nd <= issue:
                    head = wb_head[cid]
                    while wlen > 0 and nd <= issue:
                        head = (head + 1) % wb_cap
                        wlen -= 1
                        if wb_stamp[cid, 0] < 0:
                            wb_stamp[cid, 0] = stamp[0]
                            stamp[0] += 1
                        wb_cnt[cid, 0] += 1
                        nd += wb_drain
                    wb_head[cid] = head
                    wb_len[cid] = wlen
                    wb_next[cid] = nd
                if wlen > 0:
                    head = wb_head[cid]
                    fpos = -1
                    for j in range(wlen):
                        idx = (head + j) % wb_cap
                        if wb_addr[cid, idx] == addr:
                            fpos = j
                            break
                    if fpos >= 0:
                        for j in range(fpos, wlen - 1):
                            i1 = (head + j) % wb_cap
                            i2 = (head + j + 1) % wb_cap
                            wb_addr[cid, i1] = wb_addr[cid, i2]
                            wb_time[cid, i1] = wb_time[cid, i2]
                        wb_len[cid] = wlen - 1
                        if wb_stamp[cid, 5] < 0:
                            wb_stamp[cid, 5] = stamp[0]
                            stamp[0] += 1
                        wb_cnt[cid, 5] += 1
                        hitwb = True
            if hitwb:
                stall = _l2p_fill_k(cid, addr, 1, issue, lru, ldirty, locc,
                                    sl_cnt, sl_stamp, wb_addr, wb_time, wb_head,
                                    wb_len, wb_next, wb_cnt, wb_stamp, stamp,
                                    imask, assoc, wb_cap, wb_drain)
                latency = lat_local + stall
                okey = 1
            else:
                if dram_stamp[0] < 0:
                    dram_stamp[0] = stamp[0]
                    stamp[0] += 1
                dram_cnt[0] += 1
                latency = dram_lat
                if banked != 0:
                    bank = addr & bank_mask
                    free = bank_free[bank]
                    start = free if free > issue else issue
                    qd = start - issue
                    bank_free[bank] = start + bank_busy
                    if qd > 0:
                        if dram_stamp[2] < 0:
                            dram_stamp[2] = stamp[0]
                            stamp[0] += 1
                        dram_cnt[2] += qd
                        if dram_stamp[3] < 0:
                            dram_stamp[3] = stamp[0]
                            stamp[0] += 1
                        dram_cnt[3] += 1
                        latency += qd
                if dram_stamp[1] < 0:
                    dram_stamp[1] = stamp[0]
                    stamp[0] += 1
                dram_cnt[1] += latency
                stall = _l2p_fill_k(cid, addr, wfl, issue, lru, ldirty, locc,
                                    sl_cnt, sl_stamp, wb_addr, wb_time, wb_head,
                                    wb_len, wb_next, wb_cnt, wb_stamp, stamp,
                                    imask, assoc, wb_cap, wb_drain)
                if sl_stamp[cid, 5] < 0:
                    sl_stamp[cid, 5] = stamp[0]
                    stamp[0] += 1
                sl_cnt[cid, 5] += 1
                latency = latency + stall
                okey = 3
        instr = c_instr[cid] + gaps[base + pos]
        c_instr[cid] = instr
        c_acc[cid] += 1
        pos += 1
        if pos >= offs[cid + 1] - base:
            pos = 0
            c_wraps[cid] += 1
        c_pos[cid] = pos
        out_c[okey] += 1
        warmed = c_warm[cid] >= 0
        if warmed and c_fin[cid] < 0:
            w_out[cid, okey] += 1
            w_lat[cid] += latency
        now = issue + l1 + latency
        c_time[cid] = now
        if not warmed and instr >= warmup:
            c_warm[cid] = now
            warmed = True
        if c_fin[cid] < 0 and warmed and instr >= finish_at:
            c_fin[cid] = now
            remaining -= 1
        keys[cid] = ((now + gapc[base + pos]) << cshift) | cid
    return 0


# Bind the kernel entry points: JIT-wrapped when Numba is importable, the
# plain-Python bodies otherwise.  ``_l2p_fill_py`` calls ``_wb_deposit_k`` and
# ``_l2p_kernel_py`` calls ``_l2p_fill_k`` through these module globals, so
# one body serves both modes.
if _njit is not None:  # pragma: no cover - exercised only where numba exists
    try:
        _wb_deposit_k = _njit(cache=True)(_wb_deposit_py)
        _l2p_fill_k = _njit(cache=True)(_l2p_fill_py)
        _l2p_kernel = _njit(cache=True)(_l2p_kernel_py)
    except Exception:
        _NUMBA_BROKEN = True
        _NUMBA_REASON = "numba JIT wrapping failed"
        _wb_deposit_k = _wb_deposit_py
        _l2p_fill_k = _l2p_fill_py
        _l2p_kernel = _l2p_kernel_py
else:
    _wb_deposit_k = _wb_deposit_py
    _l2p_fill_k = _l2p_fill_py
    _l2p_kernel = _l2p_kernel_py


def _l2p_fresh(system: CmpSystem) -> bool:
    """Whether *system* is in the pristine post-construction state.

    The array kernel encodes state from zero; a system mid-run (resumed
    budget probe, reused instance) falls back to the interpreted driver,
    which operates on the live objects and handles any starting state.
    """
    for core in system.cores:
        if (core.time or core.pos or core.instructions or core.wraps
                or core.accesses or core.finish_time is not None):
            return False
    scheme = system.scheme
    for cache in scheme.slices:
        for lruset in cache.sets:
            if lruset._addrs:
                return False
    for wbuf in scheme.wbufs:
        if wbuf._entries or wbuf._next_drain_at:
            return False
    if scheme.dram._model_banks and any(scheme.dram._bank_free_at):
        return False
    return True


def _merge_stamped(counters, keys, cnt_row, stamp_row) -> None:
    """Add stamped counter slots into a real defaultdict in first-touch order."""
    touched = [(int(stamp_row[i]), i) for i in range(len(keys)) if stamp_row[i] >= 0]
    touched.sort()
    for _, i in touched:
        counters[keys[i]] += int(cnt_row[i])


def _run_l2p_array(system: CmpSystem, target: int, warmup: int,
                   max_events: Optional[int]) -> Optional[SimResult]:
    """Run l2p through the (possibly JIT-compiled) array kernel.

    Returns ``None`` when the system isn't array-encodable (not fresh) or the
    kernel dies (Numba demoted permanently) — callers then take the
    interpreted driver, which is always available.
    """
    global _NUMBA_BROKEN, _NUMBA_REASON
    if not _l2p_fresh(system):
        return None
    scheme = system.scheme
    cores = system.cores
    ncores = len(cores)
    config = system.config
    cshift = (ncores - 1).bit_length()
    finish_at = warmup + target
    budget = max_events if max_events is not None else 0
    if budget <= 0:
        mean_gap = max(1.0, float(min(c.trace.mean_gap for c in cores)))
        budget = int(ncores * (target + warmup) / mean_gap * 50) + 10_000

    geo = config.l2
    wb_cfg = scheme.wbufs[0].config
    dram = scheme.dram
    params = np.zeros(16, dtype=np.int64)
    params[_P_NCORES] = ncores
    params[_P_WARMUP] = warmup
    params[_P_FINISH] = finish_at
    params[_P_BUDGET] = budget
    params[_P_L1] = config.latency.l1_hit
    params[_P_LAT_LOCAL] = config.latency.l2_local
    params[_P_DRAM_LAT] = dram._latency
    params[_P_WB_CAP] = wb_cfg.entries
    params[_P_WB_DRAIN] = wb_cfg.drain_cycles
    params[_P_WB_DIRECT] = 1 if wb_cfg.direct_read else 0
    params[_P_BANKED] = 1 if dram._model_banks else 0
    params[_P_BANK_MASK] = dram.config.num_banks - 1
    params[_P_BANK_BUSY] = dram.config.bank_busy_cycles
    params[_P_IMASK] = geo.num_sets - 1
    params[_P_ASSOC] = geo.assoc
    params[_P_CSHIFT] = cshift

    offs = np.zeros(ncores + 1, dtype=np.int64)
    for i, core in enumerate(cores):
        offs[i + 1] = offs[i] + core._n
    total = int(offs[-1])
    gaps = np.empty(total, dtype=np.int64)
    gapc = np.empty(total, dtype=np.int64)
    taddrs = np.empty(total, dtype=np.int64)
    twrites = np.empty(total, dtype=np.int64)
    for i, core in enumerate(cores):
        lo, hi = int(offs[i]), int(offs[i + 1])
        gaps[lo:hi] = core._gaps
        gapc[lo:hi] = core._gap_cycles
        taddrs[lo:hi] = core._addrs
        twrites[lo:hi] = [1 if w else 0 for w in core._writes]

    zc = lambda: np.zeros(ncores, dtype=np.int64)
    c_time, c_pos, c_instr, c_wraps, c_acc = zc(), zc(), zc(), zc(), zc()
    c_warm = np.full(ncores, -1, dtype=np.int64)
    if warmup == 0:
        c_warm[:] = 0
    c_fin = np.full(ncores, -1, dtype=np.int64)
    keys = np.empty(ncores, dtype=np.int64)
    for i, core in enumerate(cores):
        keys[i] = (core._gap_cycles[0] << cshift) | i

    lru = np.full((ncores, geo.num_sets, geo.assoc), -1, dtype=np.int64)
    ldirty = np.zeros((ncores, geo.num_sets, geo.assoc), dtype=np.int64)
    locc = np.zeros((ncores, geo.num_sets), dtype=np.int64)
    cap = max(1, wb_cfg.entries)
    wb_addr = np.full((ncores, cap), -1, dtype=np.int64)
    wb_time = np.zeros((ncores, cap), dtype=np.int64)
    wb_head, wb_len, wb_next = zc(), zc(), zc()
    sl_cnt = np.zeros((ncores, len(_SLICE_KEYS)), dtype=np.int64)
    sl_stamp = np.full((ncores, len(_SLICE_KEYS)), -1, dtype=np.int64)
    wb_cnt = np.zeros((ncores, len(_WBUF_KEYS)), dtype=np.int64)
    wb_stamp = np.full((ncores, len(_WBUF_KEYS)), -1, dtype=np.int64)
    dram_cnt = np.zeros(len(_DRAM_KEYS), dtype=np.int64)
    dram_stamp = np.full(len(_DRAM_KEYS), -1, dtype=np.int64)
    stamp = np.zeros(1, dtype=np.int64)
    bank_free = np.zeros(dram.config.num_banks, dtype=np.int64)
    out_c = np.zeros(4, dtype=np.int64)
    w_out = np.zeros((ncores, 4), dtype=np.int64)
    w_lat = np.zeros(ncores, dtype=np.int64)

    try:
        status = _l2p_kernel(
            params, offs, gaps, gapc, taddrs, twrites,
            c_time, c_pos, c_instr, c_wraps, c_acc, c_warm, c_fin, keys,
            lru, ldirty, locc, wb_addr, wb_time, wb_head, wb_len, wb_next,
            sl_cnt, sl_stamp, wb_cnt, wb_stamp, dram_cnt, dram_stamp,
            stamp, bank_free, out_c, w_out, w_lat)
    except Exception:  # pragma: no cover - JIT-environment failures only
        _NUMBA_BROKEN = True
        _NUMBA_REASON = "numba kernel execution failed"
        return None

    # -- merge the SoA state back into the live objects ----------------------
    for i, core in enumerate(cores):
        core.time = int(c_time[i])
        core.pos = int(c_pos[i])
        core.instructions = int(c_instr[i])
        core.wraps = int(c_wraps[i])
        core.accesses = int(c_acc[i])
        core.warmup_end_time = int(c_warm[i]) if c_warm[i] >= 0 else None
        core.finish_time = int(c_fin[i]) if c_fin[i] >= 0 else None
    lru_l = lru.tolist()
    ldirty_l = ldirty.tolist()
    locc_l = locc.tolist()
    for c, cache in enumerate(scheme.slices):
        rows, drows, occs = lru_l[c], ldirty_l[c], locc_l[c]
        for s, lruset in enumerate(cache.sets):
            occ = occs[s]
            if occ:
                row, drow = rows[s], drows[s]
                lruset._lines = [
                    CacheLine(addr=row[j], dirty=bool(drow[j]), owner=c)
                    for j in range(occ)
                ]
                lruset._addrs = row[:occ]
        _merge_stamped(cache._counters, _SLICE_KEYS, sl_cnt[c], sl_stamp[c])
    for c, wbuf in enumerate(scheme.wbufs):
        head, wlen = int(wb_head[c]), int(wb_len[c])
        for j in range(wlen):
            idx = (head + j) % cap
            wbuf._entries[int(wb_addr[c, idx])] = int(wb_time[c, idx])
        wbuf._next_drain_at = int(wb_next[c])
        _merge_stamped(wbuf.stats.counters, _WBUF_KEYS, wb_cnt[c], wb_stamp[c])
    _merge_stamped(dram._counters, _DRAM_KEYS, dram_cnt, dram_stamp)
    if dram._model_banks:
        dram._bank_free_at[:] = [int(x) for x in bank_free]

    if status == 1:
        raise budget_exhausted_error(budget, cores, finish_at)

    final_now = max(core.time for core in cores)
    scheme.finalize(final_now)
    out_l = out_c.tolist()
    w_out_l = w_out.tolist()
    return SimResult(
        scheme=scheme.name,
        ipc=[core.ipc() for core in cores],
        instructions=[core.instructions for core in cores],
        cycles=[core.finish_time or core.time for core in cores],
        accesses=[core.accesses for core in cores],
        outcome_counts={_OUT_KEYS[i]: out_l[i] for i in range(4)},
        stats=scheme.flat_stats(),
        window_outcomes=[{_OUT_KEYS[i]: row[i] for i in range(4)} for row in w_out_l],
        window_latency=[int(x) for x in w_lat],
    )


def _run_interpreted(system: CmpSystem, target: int, warmup: int,
                     max_events: Optional[int], kind: int) -> SimResult:
    """Interpreted SoA driver: one parametrized event loop for all 5 schemes.

    All mutable state is pre-extracted to loop locals (plain lists / dicts /
    ints); the real objects' containers are mutated *in place* where they are
    structural (LRU lists, write-buffer dicts, shadow tags, bank occupancy)
    and scalar state is written back once at the end — also on the budget
    error path, so the error message and post-mortem state match the
    reference.  ``kind``: 0=l2p 1=l2s 2=cc 3=dsr 4=snug.
    """
    scheme = system.scheme
    cores = system.cores
    ncores = len(cores)
    config = system.config
    cshift = (ncores - 1).bit_length()
    cmask = (1 << cshift) - 1
    finish_at = warmup + target
    budget = max_events if max_events is not None else 0
    if budget <= 0:
        mean_gap = max(1.0, float(min(c.trace.mean_gap for c in cores)))
        budget = int(ncores * (target + warmup) / mean_gap * 50) + 10_000
    l1_lat = config.latency.l1_hit

    gaps_by = [c._gaps for c in cores]
    gapc_by = [c._gap_cycles for c in cores]
    addrs_by = [c._addrs for c in cores]
    writes_by = [c._writes for c in cores]
    n_by = [c._n for c in cores]
    c_time = [c.time for c in cores]
    c_pos = [c.pos for c in cores]
    c_instr = [c.instructions for c in cores]
    c_wraps = [c.wraps for c in cores]
    c_acc = [c.accesses for c in cores]
    c_warm = [c.warmup_end_time for c in cores]
    c_fin = [c.finish_time for c in cores]
    keys = [((c_time[i] + gapc_by[i][c_pos[i]]) << cshift) | i for i in range(ncores)]
    out_c = [0, 0, 0, 0]
    w_out = [[0, 0, 0, 0] for _ in range(ncores)]
    w_lat = [0] * ncores

    caches = scheme.banks if kind == 1 else scheme.slices
    sets_by = [c.sets for c in caches]
    scnt = [c._counters for c in caches]
    wbufs = scheme.wbufs
    wb_entries = [w._entries for w in wbufs]
    wb_next = [w._next_drain_at for w in wbufs]
    wcnt = [w.stats.counters for w in wbufs]
    wb_cfg = wbufs[0].config
    wb_cap = wb_cfg.entries
    wb_drain = wb_cfg.drain_cycles
    wb_direct = wb_cfg.direct_read
    imask = config.l2.num_sets - 1
    assoc = config.l2.assoc
    lat_local = config.latency.l2_local
    dram = scheme.dram
    dcnt = dram._counters
    dram_lat = dram._latency
    banked = dram._model_banks
    bank_free = dram._bank_free_at
    dbank_mask = dram.config.num_banks - 1
    dbank_busy = dram.config.bank_busy_cycles
    bus = scheme.bus
    bcnt = bus._counters
    contention = bus.config.model_contention
    snoop_cost = bus.config.transfer_cycles(_ADDRESS_BYTES)
    line_bytes = config.l2.line_bytes
    line_cost = bus.config.transfer_cycles(line_bytes)
    bus_busy = [bus._busy_until]

    if contention:
        def bus_snoop(now):
            bcnt["snoops"] += 1
            bcnt["busy_cycles"] += snoop_cost
            bcnt["bytes"] += _ADDRESS_BYTES
            bu = bus_busy[0]
            start = bu if bu > now else now
            delay = start - now
            bus_busy[0] = start + snoop_cost
            if delay:
                bcnt["queue_cycles"] += delay
            return delay

        def bus_transfer(now):
            bcnt["transfers"] += 1
            bcnt["busy_cycles"] += line_cost
            bcnt["bytes"] += line_bytes
            bu = bus_busy[0]
            start = bu if bu > now else now
            delay = start - now
            bus_busy[0] = start + line_cost
            if delay:
                bcnt["queue_cycles"] += delay
            return delay
    else:
        def bus_snoop(now):
            bcnt["snoops"] += 1
            bcnt["busy_cycles"] += snoop_cost
            bcnt["bytes"] += _ADDRESS_BYTES
            return 0

        def bus_transfer(now):
            bcnt["transfers"] += 1
            bcnt["busy_cycles"] += line_cost
            bcnt["bytes"] += line_bytes
            return 0

    def wb_deposit(c, baddr, now):
        went = wb_entries[c]
        nd = wb_next[c]
        wc = wcnt[c]
        while went and nd <= now:
            went.popitem(last=False)
            wc["drained"] += 1
            nd += wb_drain
        if baddr in went:
            went[baddr] = now
            wc["merged"] += 1
            wb_next[c] = nd
            return 0
        stall = 0
        if len(went) >= wb_cap:
            wait = nd if nd > now else now
            stall = wait - now
            went.popitem(last=False)
            wc["drained"] += 1
            wc["full_stalls"] += 1
            wc["stall_cycles"] += stall
            nd = wait + wb_drain
        elif not went:
            nd = now + wb_drain
        went[baddr] = now
        wc["deposits"] += 1
        wb_next[c] = nd
        return stall

    def mem_fetch(baddr, now):
        dcnt["reads"] += 1
        latency = dram_lat
        if banked:
            bank = baddr & dbank_mask
            free = bank_free[bank]
            start = free if free > now else now
            qd = start - now
            bank_free[bank] = start + dbank_busy
            if qd:
                dcnt["bank_conflict_cycles"] += qd
                dcnt["bank_conflicts"] += 1
                latency += qd
        dcnt["busy_cycles"] += latency
        return latency

    # -- per-scheme state + fill/dispose/spill closures ----------------------
    if kind >= 2:
        peers = scheme._peers
        nper = ncores - 1
        lat_remote = config.latency.l2_remote
    if kind == 2:
        spill_p = scheme.spill_probability
        coin = scheme._coin.random
        pick = scheme._peer_pick.integers
    elif kind == 3:
        set_role = scheme.set_role
        psel_bits = config.dsr.psel_bits
        psel_max = (1 << psel_bits) - 1
        psel_msb = psel_bits - 1
        psel_val = [p.value for p in scheme.psel]
        rr_cell = [scheme._rr]
    elif kind == 4:
        snug_cfg = scheme.snug_cfg
        lat_remote_snug = config.latency.l2_remote_snug
        num_sets = config.l2.num_sets
        identify_cycles = snug_cfg.identify_cycles
        group_cycles = snug_cfg.group_cycles
        flush_flip = snug_cfg.flush_on_flip_to_taker
        mon_during_group = snug_cfg.monitor_during_group
        flip_enabled = snug_cfg.flip_enabled
        p_thr = snug_cfg.p_threshold
        mon_bits = snug_cfg.counter_bits
        mon_max = (1 << mon_bits) - 1
        mon_msb = mon_bits - 1
        mon_reset = (1 << (mon_bits - 1)) - 1
        stage_cell = [0 if scheme.stage == STAGE_IDENTIFY else 1]
        stage_end = [scheme._stage_end]
        epoch_cell = [scheme.epoch]
        spill_rr_cell = [scheme._spill_rr]
        monitor = scheme.monitor
        mon_observe = monitor.observe if monitor is not None else None
        gt_taker = [m.gt_taker for m in scheme.meta]
        shadow_tags = [[sh._tags for sh in m.shadows] for m in scheme.meta]
        mon_val = [[mc.counter.value for mc in m.monitors] for m in scheme.meta]
        mon_mod = [[mc._mod for mc in m.monitors] for m in scheme.meta]
        rcnt = scheme.stats.counters

        def latch_gt():
            attached = monitor.latch() if monitor is not None else None
            for c in range(ncores):
                gt = gt_taker[c]
                takers = 0
                if attached is None:
                    mv = mon_val[c]
                    new_takers = [v >> mon_msb for v in mv]
                else:
                    new_takers = attached[c]
                mvc = mon_val[c]
                mmc = mon_mod[c]
                cnt = scnt[c]
                for s in range(num_sets):
                    nt = bool(new_takers[s])
                    if nt and not gt[s] and flush_flip:
                        lruset = sets_by[c][s]
                        lines = lruset._lines
                        doomed = [ln for ln in lines if ln.cc]
                        for ln in doomed:
                            i = lines.index(ln)
                            del lines[i]
                            del lruset._addrs[i]
                            cnt["cc_flushed"] += 1
                    gt[s] = nt
                    takers += nt
                    mvc[s] = mon_reset
                    mmc[s] = 0
                cnt["taker_sets_latched"] += takers

        def advance_stage(now):
            se = stage_end[0]
            while now >= se:
                if stage_cell[0] == 0:
                    latch_gt()
                    stage_cell[0] = 1
                    se += group_cycles
                else:
                    stage_cell[0] = 0
                    epoch_cell[0] += 1
                    se += identify_cycles
                    rcnt["epochs"] += 1
                stage_end[0] = se

        def snug_spill(owner, vaddr, vowner, si, now):
            bus_snoop(now)
            flipped = si ^ 1
            plist = peers[owner]
            spill_rr_cell[0] += 1
            start = spill_rr_cell[0] % nper
            ordered = plist[start:] + plist[:start]
            cand_peer = -1
            cand_idx = -1
            cand_f = False
            for peer in ordered:
                gt = gt_taker[peer]
                if not gt[si]:
                    cand_peer, cand_idx, cand_f = peer, si, False
                    break
                if flip_enabled and not gt[flipped] and cand_peer < 0:
                    cand_peer, cand_idx, cand_f = peer, flipped, True
            if cand_peer >= 0:
                bus_transfer(now)
                lruset = sets_by[cand_peer][cand_idx]
                lines = lruset._lines
                saddrs = lruset._addrs
                hv = None
                if len(lines) >= assoc:
                    hv = lines.pop()
                    saddrs.pop()
                lines.insert(0, CacheLine(addr=vaddr, dirty=False, cc=True,
                                          f=cand_f, owner=vowner))
                saddrs.insert(0, vaddr)
                pc = scnt[cand_peer]
                pc["fills"] += 1
                if hv is not None:
                    pc["evictions"] += 1
                scnt[owner]["spills_out"] += 1
                pc["spills_hosted"] += 1
                if cand_f:
                    pc["spills_hosted_flipped"] += 1
                if hv is not None:
                    if hv.cc:
                        pc["cc_evicted"] += 1
                    elif hv.dirty:
                        pc["writebacks"] += 1
                        wb_deposit(cand_peer, hv.addr, now)
                    else:
                        hvsi = hv.addr & imask
                        if hvsi == cand_idx:
                            tags = shadow_tags[cand_peer][hvsi]
                            try:
                                tags.remove(hv.addr)
                            except ValueError:
                                if len(tags) >= assoc:
                                    tags.pop()
                            tags.insert(0, hv.addr)
            else:
                scnt[owner]["spills_unplaced"] += 1

    if kind == 2:
        def cc_spill(owner, vaddr, vowner, now):
            plist = peers[owner]
            host = plist[int(pick(0, nper))]
            bus_snoop(now)
            bus_transfer(now)
            lruset = sets_by[host][vaddr & imask]
            lines = lruset._lines
            saddrs = lruset._addrs
            hv = None
            if len(lines) >= assoc:
                hv = lines.pop()
                saddrs.pop()
            lines.insert(0, CacheLine(addr=vaddr, dirty=False, cc=True, owner=vowner))
            saddrs.insert(0, vaddr)
            hc = scnt[host]
            hc["fills"] += 1
            if hv is not None:
                hc["evictions"] += 1
            scnt[owner]["spills_out"] += 1
            hc["spills_hosted"] += 1
            if hv is not None:
                if hv.cc:
                    hc["cc_evicted"] += 1
                elif hv.dirty:
                    hc["writebacks"] += 1
                    wb_deposit(host, hv.addr, now)
    elif kind == 3:
        def dsr_spill(owner, vaddr, vowner, now):
            receivers = [p for p in peers[owner] if not (psel_val[p] >> psel_msb)]
            if not receivers:
                scnt[owner]["spills_dropped"] += 1
                return
            host = receivers[rr_cell[0] % len(receivers)]
            rr_cell[0] += 1
            bus_snoop(now)
            bus_transfer(now)
            lruset = sets_by[host][vaddr & imask]
            lines = lruset._lines
            saddrs = lruset._addrs
            hv = None
            if len(lines) >= assoc:
                hv = lines.pop()
                saddrs.pop()
            lines.insert(0, CacheLine(addr=vaddr, dirty=False, cc=True, owner=vowner))
            saddrs.insert(0, vaddr)
            hc = scnt[host]
            hc["fills"] += 1
            if hv is not None:
                hc["evictions"] += 1
            scnt[owner]["spills_out"] += 1
            hc["spills_hosted"] += 1
            if hv is not None:
                if hv.cc:
                    hc["cc_evicted"] += 1
                elif hv.dirty:
                    hc["writebacks"] += 1
                    wb_deposit(host, hv.addr, now)

    def fill_dispose(cid, addr, dirty, now):
        """Fill into cid's slice/bank; dispose the victim per scheme; stall."""
        lruset = sets_by[cid][addr & imask]
        lines = lruset._lines
        saddrs = lruset._addrs
        victim = None
        if len(lines) >= assoc:
            victim = lines.pop()
            saddrs.pop()
        lines.insert(0, CacheLine(addr=addr, dirty=dirty, owner=cid))
        saddrs.insert(0, addr)
        sc = scnt[cid]
        sc["fills"] += 1
        if victim is not None:
            sc["evictions"] += 1
        if victim is None:
            return 0
        if kind == 1:
            if victim.dirty:
                sc["writebacks"] += 1
                return wb_deposit(cid, victim.addr, now)
            return 0
        if victim.cc:
            sc["cc_evicted"] += 1
            return 0
        if victim.dirty:
            sc["writebacks"] += 1
            return wb_deposit(cid, victim.addr, now)
        if kind == 2:
            if spill_p > 0.0 and (spill_p >= 1.0 or coin() < spill_p):
                cc_spill(cid, victim.addr, victim.owner, now)
        elif kind == 3:
            vsi = victim.addr & imask
            role = set_role[vsi]
            if role == 1:
                spills = True
            elif role == 2:
                spills = False
            else:
                spills = (psel_val[cid] >> psel_msb) != 0
            if spills:
                dsr_spill(cid, victim.addr, victim.owner, now)
        elif kind == 4:
            vaddr = victim.addr
            vsi = vaddr & imask
            tags = shadow_tags[cid][vsi]
            try:
                tags.remove(vaddr)
            except ValueError:
                if len(tags) >= assoc:
                    tags.pop()
            tags.insert(0, vaddr)
            if stage_cell[0] == 1 and gt_taker[cid][vsi]:
                snug_spill(cid, vaddr, victim.owner, vsi, now)
        return 0

    lat_remote = config.latency.l2_remote
    bank_bits = cshift

    done_wb = [False]

    def _writeback():
        if done_wb[0]:
            return
        done_wb[0] = True
        for i, core in enumerate(cores):
            core.time = c_time[i]
            core.pos = c_pos[i]
            core.instructions = c_instr[i]
            core.wraps = c_wraps[i]
            core.accesses = c_acc[i]
            core.warmup_end_time = c_warm[i]
            core.finish_time = c_fin[i]
        for i, w in enumerate(wbufs):
            w._next_drain_at = wb_next[i]
        if contention:
            bus._busy_until = bus_busy[0]
        if kind == 3:
            scheme._rr = rr_cell[0]
            for i, p in enumerate(scheme.psel):
                p.value = psel_val[i]
        elif kind == 4:
            scheme.stage = STAGE_IDENTIFY if stage_cell[0] == 0 else STAGE_GROUP
            scheme._stage_end = stage_end[0]
            scheme.epoch = epoch_cell[0]
            scheme._spill_rr = spill_rr_cell[0]
            for c in range(ncores):
                mons = scheme.meta[c].monitors
                mvc = mon_val[c]
                mmc = mon_mod[c]
                for s in range(num_sets):
                    mc = mons[s]
                    mc.counter.value = mvc[s]
                    mc._mod = mmc[s]

    raise_budget = False
    events = 0
    remaining = ncores
    try:
        while remaining:
            events += 1
            if events > budget:
                raise_budget = True
                break
            k = keys[0]
            for i in range(1, ncores):
                ki = keys[i]
                if ki < k:
                    k = ki
            cid = k & cmask
            issue = k >> cshift
            was_done = c_fin[cid] is not None
            warmed = c_warm[cid] is not None
            pos = c_pos[cid]
            addr = addrs_by[cid][pos]
            is_write = writes_by[cid][pos]

            if kind == 0:  # -- l2p ----------------------------------------
                lruset = sets_by[cid][addr & imask]
                saddrs = lruset._addrs
                if addr in saddrs:
                    i = saddrs.index(addr)
                    lines = lruset._lines
                    if i:
                        line = lines[i]
                        del lines[i]
                        lines.insert(0, line)
                        del saddrs[i]
                        saddrs.insert(0, addr)
                    else:
                        line = lines[0]
                    scnt[cid]["hits"] += 1
                    if is_write:
                        line.dirty = True
                    latency = lat_local
                    okey = 0
                else:
                    scnt[cid]["misses"] += 1
                    went = wb_entries[cid]
                    hitwb = False
                    if went and wb_direct:
                        nd = wb_next[cid]
                        if nd <= issue:
                            wc = wcnt[cid]
                            while went and nd <= issue:
                                went.popitem(last=False)
                                wc["drained"] += 1
                                nd += wb_drain
                            wb_next[cid] = nd
                        if addr in went:
                            del went[addr]
                            wcnt[cid]["direct_reads"] += 1
                            hitwb = True
                    if hitwb:
                        stall = fill_dispose(cid, addr, True, issue)
                        latency = lat_local + stall
                        okey = 1
                    else:
                        latency = mem_fetch(addr, issue)
                        stall = fill_dispose(cid, addr, is_write, issue)
                        scnt[cid]["dram_fetches"] += 1
                        latency += stall
                        okey = 3

            elif kind == 1:  # -- l2s --------------------------------------
                bank = addr & cmask
                la = addr >> bank_bits
                if bank == cid:
                    base = lat_local
                    rokey = 0
                else:
                    base = lat_remote
                    rokey = 2
                    bus_snoop(issue)
                lruset = sets_by[bank][la & imask]
                saddrs = lruset._addrs
                if la in saddrs:
                    i = saddrs.index(la)
                    lines = lruset._lines
                    if i:
                        line = lines[i]
                        del lines[i]
                        lines.insert(0, line)
                        del saddrs[i]
                        saddrs.insert(0, la)
                    else:
                        line = lines[0]
                    scnt[bank]["hits"] += 1
                    if is_write:
                        line.dirty = True
                    latency = base
                    okey = rokey
                else:
                    scnt[bank]["misses"] += 1
                    went = wb_entries[bank]
                    hitwb = False
                    if went and wb_direct:
                        nd = wb_next[bank]
                        if nd <= issue:
                            wc = wcnt[bank]
                            while went and nd <= issue:
                                went.popitem(last=False)
                                wc["drained"] += 1
                                nd += wb_drain
                            wb_next[bank] = nd
                        if la in went:
                            del went[la]
                            wcnt[bank]["direct_reads"] += 1
                            hitwb = True
                    if hitwb:
                        stall = fill_dispose(bank, la, True, issue)
                        latency = base + stall
                        okey = 1
                    else:
                        lat = mem_fetch(addr, issue)
                        stall = fill_dispose(bank, la, is_write, issue)
                        scnt[bank]["dram_fetches"] += 1
                        latency = base + lat + stall
                        okey = 3

            elif kind == 4:  # -- snug -------------------------------------
                if issue >= stage_end[0]:
                    advance_stage(issue)
                if mon_observe is not None:
                    mon_observe(cid, addr)
                si = addr & imask
                lruset = sets_by[cid][si]
                saddrs = lruset._addrs
                if addr in saddrs:
                    i = saddrs.index(addr)
                    lines = lruset._lines
                    if i:
                        line = lines[i]
                        del lines[i]
                        lines.insert(0, line)
                        del saddrs[i]
                        saddrs.insert(0, addr)
                    else:
                        line = lines[0]
                    scnt[cid]["hits"] += 1
                    if is_write:
                        line.dirty = True
                    if stage_cell[0] == 0 or mon_during_group:
                        mm = mon_mod[cid]
                        m = mm[si] + 1
                        if m == p_thr:
                            mm[si] = 0
                            mv = mon_val[cid]
                            v = mv[si]
                            if v > 0:
                                mv[si] = v - 1
                        else:
                            mm[si] = m
                    latency = lat_local
                    okey = 0
                else:
                    scnt[cid]["misses"] += 1
                    went = wb_entries[cid]
                    hitwb = False
                    if went and wb_direct:
                        nd = wb_next[cid]
                        if nd <= issue:
                            wc = wcnt[cid]
                            while went and nd <= issue:
                                went.popitem(last=False)
                                wc["drained"] += 1
                                nd += wb_drain
                            wb_next[cid] = nd
                        if addr in went:
                            del went[addr]
                            wcnt[cid]["direct_reads"] += 1
                            hitwb = True
                    if hitwb:
                        stall = fill_dispose(cid, addr, True, issue)
                        latency = lat_local + stall
                        okey = 1
                    else:
                        tags = shadow_tags[cid][si]
                        try:
                            tags.remove(addr)
                            shadow_hit = True
                        except ValueError:
                            shadow_hit = False
                        if shadow_hit:
                            scnt[cid]["shadow_hits"] += 1
                            if stage_cell[0] == 0 or mon_during_group:
                                mv = mon_val[cid]
                                v = mv[si]
                                if v < mon_max:
                                    mv[si] = v + 1
                                mm = mon_mod[cid]
                                m = mm[si] + 1
                                if m == p_thr:
                                    mm[si] = 0
                                    v = mv[si]
                                    if v > 0:
                                        mv[si] = v - 1
                                else:
                                    mm[si] = m
                        bus_snoop(issue)
                        flipped = si ^ 1
                        fpeer = -1
                        fidx = -1
                        for peer in peers[cid]:
                            gt = gt_taker[peer]
                            psets = sets_by[peer]
                            if not gt[si]:
                                plru = psets[si]
                                pad = plru._addrs
                                if addr in pad:
                                    if plru._lines[pad.index(addr)].cc:
                                        fpeer = peer
                                        fidx = si
                                        break
                            if flip_enabled and not gt[flipped]:
                                plru = psets[flipped]
                                pad = plru._addrs
                                if addr in pad:
                                    if plru._lines[pad.index(addr)].cc:
                                        fpeer = peer
                                        fidx = flipped
                                        break
                        if fpeer >= 0:
                            plru = sets_by[fpeer][fidx]
                            pi = plru._addrs.index(addr)
                            del plru._lines[pi]
                            del plru._addrs[pi]
                            pc = scnt[fpeer]
                            pc["invalidations"] += 1
                            pc["forwards"] += 1
                            delay = bus_transfer(issue)
                            stall = fill_dispose(cid, addr, is_write, issue)
                            scnt[cid]["remote_hits"] += 1
                            latency = lat_remote_snug + delay + stall
                            okey = 2
                        else:
                            latency = mem_fetch(addr, issue)
                            stall = fill_dispose(cid, addr, is_write, issue)
                            scnt[cid]["dram_fetches"] += 1
                            latency += stall
                            okey = 3

            else:  # -- cc / dsr -------------------------------------------
                lruset = sets_by[cid][addr & imask]
                saddrs = lruset._addrs
                if addr in saddrs:
                    i = saddrs.index(addr)
                    lines = lruset._lines
                    if i:
                        line = lines[i]
                        del lines[i]
                        lines.insert(0, line)
                        del saddrs[i]
                        saddrs.insert(0, addr)
                    else:
                        line = lines[0]
                    scnt[cid]["hits"] += 1
                    if is_write:
                        line.dirty = True
                    latency = lat_local
                    okey = 0
                else:
                    scnt[cid]["misses"] += 1
                    went = wb_entries[cid]
                    hitwb = False
                    if went and wb_direct:
                        nd = wb_next[cid]
                        if nd <= issue:
                            wc = wcnt[cid]
                            while went and nd <= issue:
                                went.popitem(last=False)
                                wc["drained"] += 1
                                nd += wb_drain
                            wb_next[cid] = nd
                        if addr in went:
                            del went[addr]
                            wcnt[cid]["direct_reads"] += 1
                            hitwb = True
                    if hitwb:
                        stall = fill_dispose(cid, addr, True, issue)
                        latency = lat_local + stall
                        okey = 1
                    else:
                        bus_snoop(issue)
                        fpeer = -1
                        hidx = addr & imask
                        for peer in peers[cid]:
                            if addr in sets_by[peer][hidx]._addrs:
                                fpeer = peer
                                break
                        if fpeer >= 0:
                            plru = sets_by[fpeer][hidx]
                            pi = plru._addrs.index(addr)
                            del plru._lines[pi]
                            del plru._addrs[pi]
                            pc = scnt[fpeer]
                            pc["invalidations"] += 1
                            pc["forwards"] += 1
                            delay = bus_transfer(issue)
                            stall = fill_dispose(cid, addr, is_write, issue)
                            scnt[cid]["remote_hits"] += 1
                            latency = lat_remote + delay + stall
                            okey = 2
                        else:
                            if kind == 3:
                                role = set_role[hidx]
                                if role == 1:
                                    v = psel_val[cid]
                                    if v > 0:
                                        psel_val[cid] = v - 1
                                elif role == 2:
                                    v = psel_val[cid]
                                    if v < psel_max:
                                        psel_val[cid] = v + 1
                            latency = mem_fetch(addr, issue)
                            stall = fill_dispose(cid, addr, is_write, issue)
                            scnt[cid]["dram_fetches"] += 1
                            latency += stall
                            okey = 3

            # -- shared epilogue (TraceCore stepping, windows, finish) ------
            c_instr[cid] += gaps_by[cid][pos]
            c_acc[cid] += 1
            pos += 1
            if pos >= n_by[cid]:
                pos = 0
                c_wraps[cid] += 1
            c_pos[cid] = pos
            out_c[okey] += 1
            if warmed and not was_done:
                w_out[cid][okey] += 1
                w_lat[cid] += latency
            now = issue + l1_lat + latency
            c_time[cid] = now
            if not warmed and c_instr[cid] >= warmup:
                c_warm[cid] = now
            if (
                not was_done
                and c_warm[cid] is not None
                and c_instr[cid] >= finish_at
            ):
                c_fin[cid] = now
                remaining -= 1
            keys[cid] = ((now + gapc_by[cid][pos]) << cshift) | cid
    finally:
        _writeback()
    if raise_budget:
        raise budget_exhausted_error(budget, cores, finish_at)

    final_now = max(c_time)
    scheme.finalize(final_now)
    outcome_counts = {key: out_c[j] for j, key in enumerate(_OUT_KEYS)}
    window_outcomes = [
        {key: w_out[i][j] for j, key in enumerate(_OUT_KEYS)} for i in range(ncores)
    ]
    return SimResult(
        scheme=scheme.name,
        ipc=[core.ipc() for core in cores],
        instructions=[core.instructions for core in cores],
        cycles=[core.finish_time or core.time for core in cores],
        accesses=[core.accesses for core in cores],
        outcome_counts=outcome_counts,
        stats=scheme.flat_stats(),
        window_outcomes=window_outcomes,
        window_latency=list(w_lat),
    )


# -- dispatch ----------------------------------------------------------------
#
# Exact-type keying (not isinstance): SnugIntraCache subclasses SnugCache
# with different access semantics, so it must fall through to the generic
# CmpSystem loop.

_KIND_BY_TYPE = {
    PrivateL2: 0,
    SharedL2: 1,
    CooperativeCaching: 2,
    DynamicSpillReceive: 3,
    SnugCache: 4,
}


def _named_entry(name, fn):
    """Wrap *fn* in a frame whose code object is named *name*.

    cProfile keys rows by code-object name; the hot kernels otherwise show
    up as one anonymous ``_run_interpreted`` (or vanish entirely into an
    njit dispatcher), so the execution-phase profile dump could not say
    which scheme's kernel the time went to.  The wrapper costs one Python
    call per *run*, not per access.
    """
    src = f"def {name}(*args, **kwargs):\n    return _fn(*args, **kwargs)\n"
    namespace = {"_fn": fn}
    code = compile(src, "<repro-compiled-core>", "exec")
    exec(code, namespace)
    return namespace[name]


def _make_impl(kind):
    """Tier selection for one scheme kind: JIT array kernel (l2p, when Numba
    is healthy) -> native C kernel -> interpreted SoA driver.  Every tier is
    bit-identical; the earlier tiers return ``None`` when they cannot encode
    the system and the next one takes over."""
    def impl(system, target, warmup, max_events):
        if kind == 0 and _numba_usable():
            result = _run_l2p_array(system, target, warmup, max_events)
            if result is not None:
                return result
        result = _ckernel.run_kernel(system, target, warmup, max_events, kind)
        if result is not None:
            return result
        return _run_interpreted(system, target, warmup, max_events, kind)
    return impl


_KIND_NAMES = {kind: scheme_type.name for scheme_type, kind in _KIND_BY_TYPE.items()}

#: Names of the schemes with a compiled kernel; every other scheme runs on
#: the generic fast loop.
KERNEL_SCHEMES: tuple[str, ...] = tuple(_KIND_NAMES.values())

_ENTRIES = {
    kind: _named_entry(f"compiled_kernel__{name}", _make_impl(kind))
    for kind, name in _KIND_NAMES.items()
}


class CompiledCmpSystem(CmpSystem):
    """CMP system stepped by the compiled (SoA + typed-kernel) core.

    Drop-in :class:`CmpSystem` with ``run()`` re-routed through per-scheme
    kernels that keep all mutable state in flat containers for the whole
    run, writing it back to the real objects once at the end.  Produces
    bit-identical :class:`SimResult`\\ s (the conformance suites assert
    term-for-term ``to_dict()`` equality against ``core/reference.py``).

    Schemes without a kernel (exact type match, so ``snug_intra`` and any
    out-of-tree subclass) fall back to the generic loop unchanged.
    """

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        kind = _KIND_BY_TYPE.get(type(self.scheme))
        if kind is None:
            return super().run(
                target_instructions,
                warmup_instructions=warmup_instructions,
                max_events=max_events,
            )
        if target_instructions < 1:
            raise SimulationError("target_instructions must be positive")
        if warmup_instructions < 0:
            raise SimulationError("warmup_instructions must be non-negative")
        for core in self.cores:
            core.target_instructions = target_instructions
            core.warmup_instructions = warmup_instructions
            if warmup_instructions == 0:
                core.warmup_end_time = 0
        if not _numba_usable() and not _ckernel.lib_available():
            _emit_interpreted_notice()
        return _ENTRIES[kind](
            self, target_instructions, warmup_instructions, max_events
        )
