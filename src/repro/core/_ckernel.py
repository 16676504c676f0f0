"""Native C kernel of the compiled simulation core.

A single C translation unit (embedded below as a string) holds one
structure-of-arrays event loop for all five kernel schemes.  It is compiled
**on first use with the system C compiler** (no package is installed; the
toolchain already ships in the image) and loaded through :mod:`ctypes`.
The build is cached on disk keyed by a hash of the source, so each source
revision compiles exactly once per machine.

Everything mutable lives in preallocated ``int64`` NumPy arrays passed to C
as one pointer table.  :func:`run_kernel` encodes the trace columns straight
from each core's ``Trace`` arrays and the scalar state from the live
objects, runs the kernel, and merges back what a ``SimResult`` reads:
counters — in *first-touch order*, replayed from stamp arrays, because
``SimResult.to_dict()`` round-trips through JSON where dict insertion order
is part of byte-identity — core cursors, write buffers, DRAM, bus, DSR
PSEL and the SNUG stage scalars.  The cache lines and SNUG per-set state
are decoded on demand (``CompiledCmpSystem.decode``).

The kernel is resumable: all loop state (event count, finish countdown,
round-robin cursors, SNUG stage machinery) lives in the arrays, so the C
function can return to Python mid-run and be re-entered.  That is how CC's
random spills stay exact without calling back into Python per draw: coin
and peer-pick values are prefetched from the scheme's real
``numpy.random.Generator`` streams into ring buffers (batch draws are
elementwise-identical to repeated scalar draws), and the kernel exits with
``RC_RNG`` when a buffer runs low so the wrapper can top it up and resume.
After the run the generators are rewound to the draws actually consumed.

Situations the C encoding does not cover return ``None`` from
:func:`run_kernel`, and the caller runs the bit-identical fast loop: SNUG
with an *attached* online monitor (``scheme.monitor``), single-core spill
schemes, more than 64 cores, systems with non-pristine structural cache
state, and any host where the shared library cannot be built
(``REPRO_NO_CKERNEL=1``, no C compiler, or a failed compile).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional

import numpy as np

from ..cache.block import CacheLine
from ..schemes.base import Outcome
from .cmp import CmpSystem, SimResult, budget_exhausted_error

__all__ = ["run_kernel", "lib_available"]

#: Outcome keys in enum order (the reference core's prepopulated-dict order).
_OUT_KEYS = tuple(o.value for o in Outcome)

#: Address-only snoop payload (mirrors ``interconnect.bus.ADDRESS_BYTES``).
_ADDRESS_BYTES = 8

# -- slot layouts (must mirror the C enums below, order included) -------------

_SL_KEYS = (
    "hits", "misses", "fills", "evictions", "writebacks", "dram_fetches",
    "invalidations", "forwards", "remote_hits", "cc_evicted", "spills_out",
    "spills_hosted", "spills_dropped", "spills_unplaced",
    "spills_hosted_flipped", "shadow_hits", "cc_flushed",
    "taker_sets_latched",
)
_WB_KEYS = ("drained", "merged", "full_stalls", "stall_cycles", "deposits",
            "direct_reads")
_DR_KEYS = ("reads", "busy_cycles", "bank_conflict_cycles", "bank_conflicts")
_BU_KEYS = ("snoops", "busy_cycles", "bytes", "queue_cycles", "transfers")
_RT_KEYS = ("epochs",)

(_P_NCORES, _P_KIND, _P_WARMUP, _P_FINISH, _P_BUDGET, _P_L1, _P_LAT_LOCAL,
 _P_LAT_REMOTE, _P_LAT_SNUG, _P_DRAM_LAT, _P_BANKED, _P_DBANK_MASK,
 _P_DBANK_BUSY, _P_CONTENTION, _P_SNOOP_COST, _P_LINE_COST, _P_LINE_BYTES,
 _P_IMASK, _P_ASSOC, _P_WB_CAP, _P_WB_DRAIN, _P_WB_DIRECT, _P_CSHIFT,
 _P_CMASK, _P_NPER, _P_SPILL_MODE, _P_PSEL_MAX, _P_PSEL_MSB, _P_NSETS,
 _P_MON_MAX, _P_MON_MSB, _P_MON_RESET, _P_PTHR, _P_MON_GROUP, _P_FLIP_EN,
 _P_FLUSH_FLIP, _P_IDENT_CYC, _P_GROUP_CYC, _NPARAMS) = range(39)

(_MS_REMAINING, _MS_EVENTS, _MS_RR, _MS_SPILL_RR, _MS_STAGE, _MS_STAGE_END,
 _MS_EPOCH, _NMS) = range(8)

(_RS_COIN_POS, _RS_COIN_FILL, _RS_PICK_POS, _RS_PICK_FILL, _NRS) = range(5)

(_A_PARAMS, _A_OFFS, _A_TADDR, _A_TGAP, _A_TGAPC, _A_TWRITE,
 _A_CTIME, _A_CPOS, _A_CINSTR, _A_CWRAPS, _A_CACC, _A_CWARM, _A_CFIN,
 _A_KEYS, _A_LADDR, _A_LMETA, _A_OCC, _A_WBADDR, _A_WBTIME, _A_WBHEAD,
 _A_WBLEN, _A_WBNEXT, _A_SLCNT, _A_SLSTAMP, _A_WCNT, _A_WSTAMP, _A_DCNT,
 _A_DSTAMP, _A_BCNT, _A_BSTAMP, _A_RCNT, _A_RSTAMP, _A_STAMP, _A_BANKFREE,
 _A_BUSBUSY, _A_OUTC, _A_WOUT, _A_WLAT, _A_MS, _A_SETROLE, _A_PSEL, _A_GT,
 _A_SHADDR, _A_SHLEN, _A_MONVAL, _A_MONMOD, _A_COIN, _A_PICK, _A_RS,
 _A_PEERS, _A_DPARAMS, _NARR) = range(52)

_RC_DONE, _RC_BUDGET, _RC_RNG = 0, 1, 2

#: Ring-buffer capacity for prefetched CC random draws.
_RNG_CAP = 4096

_C_SOURCE = r"""
/* Structure-of-arrays event loop for the repro compiled simulation core.
 *
 * One translation unit, one exported function:
 *     int64_t run_kernel(void **A);
 * where A is a pointer table whose slot order mirrors the _A_* constants in
 * the Python wrapper.  All semantics transcribe the scheme objects' access
 * paths (schemes/*.py, stepped by core/cmp.py) term for term, stat-counter
 * first-touch order included (the stamp arrays record the global
 * first-touch tick of each counter slot; the Python merge replays them in
 * stamp order).
 */
#include <stdint.h>

typedef int64_t i64;

enum { P_NCORES, P_KIND, P_WARMUP, P_FINISH, P_BUDGET, P_L1, P_LAT_LOCAL,
       P_LAT_REMOTE, P_LAT_SNUG, P_DRAM_LAT, P_BANKED, P_DBANK_MASK,
       P_DBANK_BUSY, P_CONTENTION, P_SNOOP_COST, P_LINE_COST, P_LINE_BYTES,
       P_IMASK, P_ASSOC, P_WB_CAP, P_WB_DRAIN, P_WB_DIRECT, P_CSHIFT,
       P_CMASK, P_NPER, P_SPILL_MODE, P_PSEL_MAX, P_PSEL_MSB, P_NSETS,
       P_MON_MAX, P_MON_MSB, P_MON_RESET, P_PTHR, P_MON_GROUP, P_FLIP_EN,
       P_FLUSH_FLIP, P_IDENT_CYC, P_GROUP_CYC, NPARAMS };

enum { SL_HITS, SL_MISSES, SL_FILLS, SL_EVICT, SL_WB, SL_DRAMF, SL_INVAL,
       SL_FWD, SL_RHIT, SL_CCEV, SL_SPOUT, SL_SPHOST, SL_SPDROP, SL_SPUNPL,
       SL_SPHOSTF, SL_SHHIT, SL_CCFLUSH, SL_TAKERS, NSL };
enum { WB_DRAINED, WB_MERGED, WB_FULL, WB_STALLC, WB_DEP, WB_DIRECT, NWB };
enum { DR_READS, DR_BUSY, DR_CONFC, DR_CONF, NDR };
enum { BU_SNOOPS, BU_BUSY, BU_BYTES, BU_QUEUE, BU_TRANSFERS, NBU };
enum { RT_EPOCHS, NRT };
enum { MS_REMAINING, MS_EVENTS, MS_RR, MS_SPILL_RR, MS_STAGE, MS_STAGE_END,
       MS_EPOCH, NMS };
enum { RS_COIN_POS, RS_COIN_FILL, RS_PICK_POS, RS_PICK_FILL, NRS };

enum { A_PARAMS, A_OFFS, A_TADDR, A_TGAP, A_TGAPC, A_TWRITE,
       A_CTIME, A_CPOS, A_CINSTR, A_CWRAPS, A_CACC, A_CWARM, A_CFIN,
       A_KEYS, A_LADDR, A_LMETA, A_OCC, A_WBADDR, A_WBTIME, A_WBHEAD,
       A_WBLEN, A_WBNEXT, A_SLCNT, A_SLSTAMP, A_WCNT, A_WSTAMP, A_DCNT,
       A_DSTAMP, A_BCNT, A_BSTAMP, A_RCNT, A_RSTAMP, A_STAMP, A_BANKFREE,
       A_BUSBUSY, A_OUTC, A_WOUT, A_WLAT, A_MS, A_SETROLE, A_PSEL, A_GT,
       A_SHADDR, A_SHLEN, A_MONVAL, A_MONMOD, A_COIN, A_PICK, A_RS,
       A_PEERS, A_DPARAMS, NARR };

enum { RC_DONE = 0, RC_BUDGET = 1, RC_RNG = 2 };

typedef struct {
    i64 *p, *offs, *t_addr, *t_gap, *t_gapc, *t_write;
    i64 *c_time, *c_pos, *c_instr, *c_wraps, *c_acc, *c_warm, *c_fin, *keys;
    i64 *line_addr, *line_meta, *occ;
    i64 *wb_addr, *wb_time, *wb_head, *wb_len, *wb_next;
    i64 *slcnt, *slstamp, *wcnt, *wstamp, *dcnt, *dstamp;
    i64 *bcnt, *bstamp, *rcnt, *rstamp, *stamp;
    i64 *bank_free, *bus_busy, *out_c, *w_out, *w_lat, *ms;
    i64 *set_role, *psel, *gt, *sh_addr, *sh_len, *mon_val, *mon_mod;
    double *coin_buf; i64 *pick_buf, *rs, *peers; double *dparams;
    i64 ncores, kind, imask, assoc, nsets, nper, cshift, cmask;
    i64 l1_lat, lat_local, lat_remote, lat_snug, dram_lat;
    i64 banked, dbank_mask, dbank_busy, contention, snoop_cost, line_cost;
    i64 line_bytes, wb_cap, wb_drain, wb_direct, spill_mode;
    i64 psel_max, psel_msb, mon_max, mon_msb, mon_reset, pthr, mon_group;
    i64 flip_en, flush_flip, ident_cyc, group_cyc;
    double spill_p;
} Ctx;

/* Bump counter slot `idx` of (cnt, stp) by v, stamping on first touch. */
#define BUMP(cnt, stp, idx, v) do { \
        if ((stp)[idx] < 0) (stp)[idx] = (*C->stamp)++; \
        (cnt)[idx] += (v); \
    } while (0)

static i64 bus_snoop(Ctx *C, i64 now) {
    BUMP(C->bcnt, C->bstamp, BU_SNOOPS, 1);
    BUMP(C->bcnt, C->bstamp, BU_BUSY, C->snoop_cost);
    BUMP(C->bcnt, C->bstamp, BU_BYTES, 8);
    if (!C->contention) return 0;
    i64 bu = *C->bus_busy;
    i64 start = bu > now ? bu : now;
    i64 delay = start - now;
    *C->bus_busy = start + C->snoop_cost;
    if (delay) BUMP(C->bcnt, C->bstamp, BU_QUEUE, delay);
    return delay;
}

static i64 bus_transfer(Ctx *C, i64 now) {
    BUMP(C->bcnt, C->bstamp, BU_TRANSFERS, 1);
    BUMP(C->bcnt, C->bstamp, BU_BUSY, C->line_cost);
    BUMP(C->bcnt, C->bstamp, BU_BYTES, C->line_bytes);
    if (!C->contention) return 0;
    i64 bu = *C->bus_busy;
    i64 start = bu > now ? bu : now;
    i64 delay = start - now;
    *C->bus_busy = start + C->line_cost;
    if (delay) BUMP(C->bcnt, C->bstamp, BU_QUEUE, delay);
    return delay;
}

static i64 mem_fetch(Ctx *C, i64 addr, i64 now) {
    BUMP(C->dcnt, C->dstamp, DR_READS, 1);
    i64 latency = C->dram_lat;
    if (C->banked) {
        i64 bank = addr & C->dbank_mask;
        i64 freeat = C->bank_free[bank];
        i64 start = freeat > now ? freeat : now;
        i64 qd = start - now;
        C->bank_free[bank] = start + C->dbank_busy;
        if (qd) {
            BUMP(C->dcnt, C->dstamp, DR_CONFC, qd);
            BUMP(C->dcnt, C->dstamp, DR_CONF, 1);
            latency += qd;
        }
    }
    BUMP(C->dcnt, C->dstamp, DR_BUSY, latency);
    return latency;
}

static i64 wb_deposit(Ctx *C, i64 c, i64 baddr, i64 now) {
    i64 cap = C->wb_cap;
    i64 *wa = C->wb_addr + c * cap;
    i64 *wt = C->wb_time + c * cap;
    i64 head = C->wb_head[c], len = C->wb_len[c], nd = C->wb_next[c];
    i64 *wc = C->wcnt + c * NWB, *ws = C->wstamp + c * NWB;
    while (len && nd <= now) {
        head = (head + 1) % cap; len--;
        BUMP(wc, ws, WB_DRAINED, 1);
        nd += C->wb_drain;
    }
    for (i64 j = 0; j < len; j++) {          /* merge keeps the slot */
        i64 idx = (head + j) % cap;
        if (wa[idx] == baddr) {
            wt[idx] = now;
            BUMP(wc, ws, WB_MERGED, 1);
            C->wb_head[c] = head; C->wb_len[c] = len; C->wb_next[c] = nd;
            return 0;
        }
    }
    i64 stall = 0;
    if (len >= cap) {
        i64 wait = nd > now ? nd : now;
        stall = wait - now;
        head = (head + 1) % cap; len--;
        BUMP(wc, ws, WB_DRAINED, 1);
        BUMP(wc, ws, WB_FULL, 1);
        BUMP(wc, ws, WB_STALLC, stall);
        nd = wait + C->wb_drain;
    } else if (!len) {
        nd = now + C->wb_drain;
    }
    i64 tail = (head + len) % cap;
    wa[tail] = baddr; wt[tail] = now; len++;
    BUMP(wc, ws, WB_DEP, 1);
    C->wb_head[c] = head; C->wb_len[c] = len; C->wb_next[c] = nd;
    return stall;
}

/* Write-buffer read-hit probe on the miss path (direct_read gate first). */
static int wb_try_read(Ctx *C, i64 c, i64 baddr, i64 now) {
    i64 cap = C->wb_cap;
    i64 head = C->wb_head[c], len = C->wb_len[c];
    if (!len || !C->wb_direct) return 0;
    i64 *wa = C->wb_addr + c * cap;
    i64 *wt = C->wb_time + c * cap;
    i64 *wc = C->wcnt + c * NWB, *ws = C->wstamp + c * NWB;
    i64 nd = C->wb_next[c];
    if (nd <= now) {
        while (len && nd <= now) {
            head = (head + 1) % cap; len--;
            BUMP(wc, ws, WB_DRAINED, 1);
            nd += C->wb_drain;
        }
        C->wb_head[c] = head; C->wb_len[c] = len; C->wb_next[c] = nd;
    }
    for (i64 j = 0; j < len; j++) {
        i64 idx = (head + j) % cap;
        if (wa[idx] == baddr) {
            for (i64 k = j; k < len - 1; k++) {   /* delete, order kept */
                i64 a = (head + k) % cap, b = (head + k + 1) % cap;
                wa[a] = wa[b]; wt[a] = wt[b];
            }
            C->wb_len[c] = len - 1;
            BUMP(wc, ws, WB_DIRECT, 1);
            return 1;
        }
    }
    return 0;
}

static i64 find_way(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 idx = c * C->nsets + set;
    i64 *la = C->line_addr + idx * C->assoc;
    i64 occ = C->occ[idx];
    for (i64 j = 0; j < occ; j++) if (la[j] == addr) return j;
    return -1;
}

static void touch_mru(Ctx *C, i64 c, i64 set, i64 way) {
    if (!way) return;
    i64 base = (c * C->nsets + set) * C->assoc;
    i64 *la = C->line_addr + base, *lm = C->line_meta + base;
    i64 a = la[way], m = lm[way];
    for (i64 j = way; j > 0; j--) { la[j] = la[j - 1]; lm[j] = lm[j - 1]; }
    la[0] = a; lm[0] = m;
}

static void remove_way(Ctx *C, i64 c, i64 set, i64 way) {
    i64 idx = c * C->nsets + set;
    i64 base = idx * C->assoc;
    i64 *la = C->line_addr + base, *lm = C->line_meta + base;
    i64 occ = C->occ[idx];
    for (i64 j = way; j < occ - 1; j++) { la[j] = la[j + 1]; lm[j] = lm[j + 1]; }
    C->occ[idx] = occ - 1;
}

/* ShadowSet.record_eviction: refresh if present, else insert at MRU
 * (evicting the shadow LRU when full). */
static void shadow_record(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 idx = c * C->nsets + set;
    i64 *ta = C->sh_addr + idx * C->assoc;
    i64 len = C->sh_len[idx];
    for (i64 j = 0; j < len; j++) {
        if (ta[j] == addr) {
            for (i64 k = j; k > 0; k--) ta[k] = ta[k - 1];
            ta[0] = addr;
            return;
        }
    }
    if (len >= C->assoc) len--;
    for (i64 j = len; j > 0; j--) ta[j] = ta[j - 1];
    ta[0] = addr;
    C->sh_len[idx] = len + 1;
}

/* ShadowSet.hit_and_invalidate: remove-if-present, reporting the hit. */
static int shadow_hit(Ctx *C, i64 c, i64 set, i64 addr) {
    i64 idx = c * C->nsets + set;
    i64 *ta = C->sh_addr + idx * C->assoc;
    i64 len = C->sh_len[idx];
    for (i64 j = 0; j < len; j++) {
        if (ta[j] == addr) {
            for (i64 k = j; k < len - 1; k++) ta[k] = ta[k + 1];
            C->sh_len[idx] = len - 1;
            return 1;
        }
    }
    return 0;
}

/* Insert a line at MRU; returns 1 when a victim was evicted (out-params).
 * Bumps the fills/evictions counters. */
static int do_fill(Ctx *C, i64 c, i64 set, i64 addr, i64 meta,
                   i64 *vaddr, i64 *vmeta) {
    i64 idx = c * C->nsets + set;
    i64 base = idx * C->assoc;
    i64 *la = C->line_addr + base, *lm = C->line_meta + base;
    i64 occ = C->occ[idx];
    int evicted = 0;
    if (occ >= C->assoc) {
        *vaddr = la[occ - 1]; *vmeta = lm[occ - 1];
        occ--; evicted = 1;
    }
    for (i64 j = occ; j > 0; j--) { la[j] = la[j - 1]; lm[j] = lm[j - 1]; }
    la[0] = addr; lm[0] = meta;
    C->occ[idx] = occ + 1;
    i64 *sc = C->slcnt + c * NSL, *ss = C->slstamp + c * NSL;
    BUMP(sc, ss, SL_FILLS, 1);
    if (evicted) BUMP(sc, ss, SL_EVICT, 1);
    return evicted;
}
"""

_C_SOURCE += r"""
static void cc_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 now) {
    i64 *pl = C->peers + owner * C->nper;
    i64 host = pl[C->pick_buf[C->rs[RS_PICK_POS]++]];
    bus_snoop(C, now);
    bus_transfer(C, now);
    i64 hva = 0, hvm = 0;
    int ev = do_fill(C, host, vaddr & C->imask, vaddr, 2 | (vowner << 3),
                     &hva, &hvm);
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    BUMP(oc, os, SL_SPOUT, 1);
    BUMP(hc, hs, SL_SPHOST, 1);
    if (ev) {
        if (hvm & 2) BUMP(hc, hs, SL_CCEV, 1);
        else if (hvm & 1) {
            BUMP(hc, hs, SL_WB, 1);
            wb_deposit(C, host, hva, now);
        }
    }
}

static void dsr_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 now) {
    i64 recv[64];
    i64 nr = 0;
    i64 *pl = C->peers + owner * C->nper;
    for (i64 j = 0; j < C->nper; j++) {
        i64 p = pl[j];
        if (!((C->psel[p] >> C->psel_msb) & 1)) recv[nr++] = p;
    }
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    if (!nr) { BUMP(oc, os, SL_SPDROP, 1); return; }
    i64 host = recv[C->ms[MS_RR] % nr];
    C->ms[MS_RR]++;
    bus_snoop(C, now);
    bus_transfer(C, now);
    i64 hva = 0, hvm = 0;
    int ev = do_fill(C, host, vaddr & C->imask, vaddr, 2 | (vowner << 3),
                     &hva, &hvm);
    i64 *hc = C->slcnt + host * NSL, *hs = C->slstamp + host * NSL;
    BUMP(oc, os, SL_SPOUT, 1);
    BUMP(hc, hs, SL_SPHOST, 1);
    if (ev) {
        if (hvm & 2) BUMP(hc, hs, SL_CCEV, 1);
        else if (hvm & 1) {
            BUMP(hc, hs, SL_WB, 1);
            wb_deposit(C, host, hva, now);
        }
    }
}

static void snug_spill(Ctx *C, i64 owner, i64 vaddr, i64 vowner, i64 si,
                       i64 now) {
    bus_snoop(C, now);
    i64 flipped = si ^ 1;
    i64 *pl = C->peers + owner * C->nper;
    C->ms[MS_SPILL_RR]++;
    i64 start = C->ms[MS_SPILL_RR] % C->nper;
    i64 cand_peer = -1, cand_idx = -1, cand_f = 0;
    for (i64 j = 0; j < C->nper; j++) {
        i64 peer = pl[(start + j) % C->nper];
        i64 *gt = C->gt + peer * C->nsets;
        if (!gt[si]) { cand_peer = peer; cand_idx = si; cand_f = 0; break; }
        if (C->flip_en && !gt[flipped] && cand_peer < 0) {
            cand_peer = peer; cand_idx = flipped; cand_f = 1;
        }
    }
    i64 *oc = C->slcnt + owner * NSL, *os = C->slstamp + owner * NSL;
    if (cand_peer < 0) { BUMP(oc, os, SL_SPUNPL, 1); return; }
    bus_transfer(C, now);
    i64 hva = 0, hvm = 0;
    int ev = do_fill(C, cand_peer, cand_idx, vaddr,
                     2 | (cand_f ? 4 : 0) | (vowner << 3), &hva, &hvm);
    i64 *pc = C->slcnt + cand_peer * NSL, *ps = C->slstamp + cand_peer * NSL;
    BUMP(oc, os, SL_SPOUT, 1);
    BUMP(pc, ps, SL_SPHOST, 1);
    if (cand_f) BUMP(pc, ps, SL_SPHOSTF, 1);
    if (ev) {
        if (hvm & 2) BUMP(pc, ps, SL_CCEV, 1);
        else if (hvm & 1) {
            BUMP(pc, ps, SL_WB, 1);
            wb_deposit(C, cand_peer, hva, now);
        } else {
            i64 hvsi = hva & C->imask;
            if (hvsi == cand_idx) shadow_record(C, cand_peer, hvsi, hva);
        }
    }
}

/* SNUG IDENTIFY->GROUP latch from the per-set demand counters (the
 * attached-monitor case never reaches this kernel). */
static void latch_gt(Ctx *C) {
    for (i64 c = 0; c < C->ncores; c++) {
        i64 *gt = C->gt + c * C->nsets;
        i64 *mv = C->mon_val + c * C->nsets;
        i64 *mm = C->mon_mod + c * C->nsets;
        i64 *sc = C->slcnt + c * NSL, *ss = C->slstamp + c * NSL;
        i64 takers = 0;
        for (i64 s = 0; s < C->nsets; s++) {
            i64 nt = (mv[s] >> C->mon_msb) & 1;
            if (nt && !gt[s] && C->flush_flip) {
                i64 idx = c * C->nsets + s;
                i64 base = idx * C->assoc;
                i64 *la = C->line_addr + base, *lm = C->line_meta + base;
                i64 occ = C->occ[idx];
                i64 w = 0;
                for (i64 j = 0; j < occ; j++) {
                    if (lm[j] & 2) {
                        BUMP(sc, ss, SL_CCFLUSH, 1);
                    } else {
                        la[w] = la[j]; lm[w] = lm[j]; w++;
                    }
                }
                C->occ[idx] = w;
            }
            gt[s] = nt;
            takers += nt;
            mv[s] = C->mon_reset;
            mm[s] = 0;
        }
        BUMP(sc, ss, SL_TAKERS, takers);
    }
}

static void advance_stage(Ctx *C, i64 now) {
    i64 se = C->ms[MS_STAGE_END];
    while (now >= se) {
        if (C->ms[MS_STAGE] == 0) {
            latch_gt(C);
            C->ms[MS_STAGE] = 1;
            se += C->group_cyc;
        } else {
            C->ms[MS_STAGE] = 0;
            C->ms[MS_EPOCH]++;
            se += C->ident_cyc;
            BUMP(C->rcnt, C->rstamp, RT_EPOCHS, 1);
        }
        C->ms[MS_STAGE_END] = se;
    }
}

/* Demand fill into cid's slice/bank + scheme-specific victim disposal.
 * The line is owned by core `owner`: cid itself, except for l2s banks.
 * Returns the write-buffer stall, if any. */
static i64 fill_dispose(Ctx *C, i64 cid, i64 owner, i64 addr, i64 dirty,
                        i64 now) {
    i64 va = 0, vm = 0;
    int ev = do_fill(C, cid, addr & C->imask, addr,
                     (dirty ? 1 : 0) | (owner << 3), &va, &vm);
    if (!ev) return 0;
    i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
    if (C->kind == 1) {
        if (vm & 1) {
            BUMP(sc, ss, SL_WB, 1);
            return wb_deposit(C, cid, va, now);
        }
        return 0;
    }
    if (vm & 2) { BUMP(sc, ss, SL_CCEV, 1); return 0; }
    if (vm & 1) {
        BUMP(sc, ss, SL_WB, 1);
        return wb_deposit(C, cid, va, now);
    }
    if (C->kind == 2) {
        if (C->spill_mode == 1 ||
            (C->spill_mode == 2 &&
             C->coin_buf[C->rs[RS_COIN_POS]++] < C->spill_p))
            cc_spill(C, cid, va, vm >> 3, now);
    } else if (C->kind == 3) {
        i64 vsi = va & C->imask;
        i64 role = C->set_role[vsi];
        int spills;
        if (role == 1) spills = 1;
        else if (role == 2) spills = 0;
        else spills = (C->psel[cid] >> C->psel_msb) != 0;
        if (spills) dsr_spill(C, cid, va, vm >> 3, now);
    } else if (C->kind == 4) {
        i64 vsi = va & C->imask;
        shadow_record(C, cid, vsi, va);
        if (C->ms[MS_STAGE] == 1 && C->gt[cid * C->nsets + vsi])
            snug_spill(C, cid, va, vm >> 3, vsi, now);
    }
    return 0;
}

i64 run_kernel(void **A) {
    Ctx ctx;
    Ctx *C = &ctx;
    C->p = (i64 *)A[A_PARAMS];
    C->offs = (i64 *)A[A_OFFS];
    C->t_addr = (i64 *)A[A_TADDR];
    C->t_gap = (i64 *)A[A_TGAP];
    C->t_gapc = (i64 *)A[A_TGAPC];
    C->t_write = (i64 *)A[A_TWRITE];
    C->c_time = (i64 *)A[A_CTIME];
    C->c_pos = (i64 *)A[A_CPOS];
    C->c_instr = (i64 *)A[A_CINSTR];
    C->c_wraps = (i64 *)A[A_CWRAPS];
    C->c_acc = (i64 *)A[A_CACC];
    C->c_warm = (i64 *)A[A_CWARM];
    C->c_fin = (i64 *)A[A_CFIN];
    C->keys = (i64 *)A[A_KEYS];
    C->line_addr = (i64 *)A[A_LADDR];
    C->line_meta = (i64 *)A[A_LMETA];
    C->occ = (i64 *)A[A_OCC];
    C->wb_addr = (i64 *)A[A_WBADDR];
    C->wb_time = (i64 *)A[A_WBTIME];
    C->wb_head = (i64 *)A[A_WBHEAD];
    C->wb_len = (i64 *)A[A_WBLEN];
    C->wb_next = (i64 *)A[A_WBNEXT];
    C->slcnt = (i64 *)A[A_SLCNT];
    C->slstamp = (i64 *)A[A_SLSTAMP];
    C->wcnt = (i64 *)A[A_WCNT];
    C->wstamp = (i64 *)A[A_WSTAMP];
    C->dcnt = (i64 *)A[A_DCNT];
    C->dstamp = (i64 *)A[A_DSTAMP];
    C->bcnt = (i64 *)A[A_BCNT];
    C->bstamp = (i64 *)A[A_BSTAMP];
    C->rcnt = (i64 *)A[A_RCNT];
    C->rstamp = (i64 *)A[A_RSTAMP];
    C->stamp = (i64 *)A[A_STAMP];
    C->bank_free = (i64 *)A[A_BANKFREE];
    C->bus_busy = (i64 *)A[A_BUSBUSY];
    C->out_c = (i64 *)A[A_OUTC];
    C->w_out = (i64 *)A[A_WOUT];
    C->w_lat = (i64 *)A[A_WLAT];
    C->ms = (i64 *)A[A_MS];
    C->set_role = (i64 *)A[A_SETROLE];
    C->psel = (i64 *)A[A_PSEL];
    C->gt = (i64 *)A[A_GT];
    C->sh_addr = (i64 *)A[A_SHADDR];
    C->sh_len = (i64 *)A[A_SHLEN];
    C->mon_val = (i64 *)A[A_MONVAL];
    C->mon_mod = (i64 *)A[A_MONMOD];
    C->coin_buf = (double *)A[A_COIN];
    C->pick_buf = (i64 *)A[A_PICK];
    C->rs = (i64 *)A[A_RS];
    C->peers = (i64 *)A[A_PEERS];
    C->dparams = (double *)A[A_DPARAMS];

    C->ncores = C->p[P_NCORES];
    C->kind = C->p[P_KIND];
    C->imask = C->p[P_IMASK];
    C->assoc = C->p[P_ASSOC];
    C->nsets = C->p[P_NSETS];
    C->nper = C->p[P_NPER];
    C->cshift = C->p[P_CSHIFT];
    C->cmask = C->p[P_CMASK];
    C->l1_lat = C->p[P_L1];
    C->lat_local = C->p[P_LAT_LOCAL];
    C->lat_remote = C->p[P_LAT_REMOTE];
    C->lat_snug = C->p[P_LAT_SNUG];
    C->dram_lat = C->p[P_DRAM_LAT];
    C->banked = C->p[P_BANKED];
    C->dbank_mask = C->p[P_DBANK_MASK];
    C->dbank_busy = C->p[P_DBANK_BUSY];
    C->contention = C->p[P_CONTENTION];
    C->snoop_cost = C->p[P_SNOOP_COST];
    C->line_cost = C->p[P_LINE_COST];
    C->line_bytes = C->p[P_LINE_BYTES];
    C->wb_cap = C->p[P_WB_CAP];
    C->wb_drain = C->p[P_WB_DRAIN];
    C->wb_direct = C->p[P_WB_DIRECT];
    C->spill_mode = C->p[P_SPILL_MODE];
    C->psel_max = C->p[P_PSEL_MAX];
    C->psel_msb = C->p[P_PSEL_MSB];
    C->mon_max = C->p[P_MON_MAX];
    C->mon_msb = C->p[P_MON_MSB];
    C->mon_reset = C->p[P_MON_RESET];
    C->pthr = C->p[P_PTHR];
    C->mon_group = C->p[P_MON_GROUP];
    C->flip_en = C->p[P_FLIP_EN];
    C->flush_flip = C->p[P_FLUSH_FLIP];
    C->ident_cyc = C->p[P_IDENT_CYC];
    C->group_cyc = C->p[P_GROUP_CYC];
    C->spill_p = C->dparams[0];

    i64 ncores = C->ncores, kind = C->kind;
    i64 budget = C->p[P_BUDGET];
    i64 finish_at = C->p[P_FINISH];
    i64 warmup = C->p[P_WARMUP];

    while (C->ms[MS_REMAINING]) {
        if (kind == 2 && C->spill_mode) {
            if (C->rs[RS_PICK_POS] >= C->rs[RS_PICK_FILL] ||
                (C->spill_mode == 2 &&
                 C->rs[RS_COIN_POS] >= C->rs[RS_COIN_FILL]))
                return RC_RNG;
        }
        C->ms[MS_EVENTS]++;
        if (C->ms[MS_EVENTS] > budget) return RC_BUDGET;
        i64 k = C->keys[0];
        for (i64 i = 1; i < ncores; i++) if (C->keys[i] < k) k = C->keys[i];
        i64 cid = k & C->cmask;
        i64 issue = k >> C->cshift;
        int was_done = C->c_fin[cid] >= 0;
        int warmed = C->c_warm[cid] >= 0;
        i64 pos = C->c_pos[cid];
        i64 off = C->offs[cid];
        i64 n = C->offs[cid + 1] - off;
        i64 addr = C->t_addr[off + pos];
        i64 is_write = C->t_write[off + pos];
        i64 latency = 0, okey = 0, stall;

        if (kind == 0) {                       /* ---- l2p ---- */
            i64 set = addr & C->imask;
            i64 way = find_way(C, cid, set, addr);
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            if (way >= 0) {
                touch_mru(C, cid, set, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write)
                    C->line_meta[(cid * C->nsets + set) * C->assoc] |= 1;
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, cid, addr, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    latency = mem_fetch(C, addr, issue);
                    stall = fill_dispose(C, cid, cid, addr, is_write, issue);
                    BUMP(sc, ss, SL_DRAMF, 1);
                    latency += stall; okey = 3;
                }
            }
        } else if (kind == 1) {                /* ---- l2s ---- */
            i64 bank = addr & C->cmask;
            i64 la = addr >> C->cshift;
            i64 base, rokey;
            if (bank == cid) { base = C->lat_local; rokey = 0; }
            else { base = C->lat_remote; rokey = 2; bus_snoop(C, issue); }
            i64 set = la & C->imask;
            i64 way = find_way(C, bank, set, la);
            i64 *sc = C->slcnt + bank * NSL, *ss = C->slstamp + bank * NSL;
            if (way >= 0) {
                touch_mru(C, bank, set, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write)
                    C->line_meta[(bank * C->nsets + set) * C->assoc] |= 1;
                latency = base; okey = rokey;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, bank, la, issue)) {
                    stall = fill_dispose(C, bank, cid, la, 1, issue);
                    latency = base + stall; okey = 1;
                } else {
                    i64 lat = mem_fetch(C, addr, issue);
                    stall = fill_dispose(C, bank, cid, la, is_write, issue);
                    BUMP(sc, ss, SL_DRAMF, 1);
                    latency = base + lat + stall; okey = 3;
                }
            }
        } else if (kind == 4) {                /* ---- snug ---- */
            if (issue >= C->ms[MS_STAGE_END]) advance_stage(C, issue);
            i64 si = addr & C->imask;
            i64 way = find_way(C, cid, si, addr);
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            i64 midx = cid * C->nsets + si;
            if (way >= 0) {
                touch_mru(C, cid, si, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write) C->line_meta[midx * C->assoc] |= 1;
                if (C->ms[MS_STAGE] == 0 || C->mon_group) {
                    i64 m = C->mon_mod[midx] + 1;
                    if (m == C->pthr) {
                        C->mon_mod[midx] = 0;
                        if (C->mon_val[midx] > 0) C->mon_val[midx]--;
                    } else C->mon_mod[midx] = m;
                }
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, cid, addr, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    if (shadow_hit(C, cid, si, addr)) {
                        BUMP(sc, ss, SL_SHHIT, 1);
                        if (C->ms[MS_STAGE] == 0 || C->mon_group) {
                            if (C->mon_val[midx] < C->mon_max)
                                C->mon_val[midx]++;
                            i64 m = C->mon_mod[midx] + 1;
                            if (m == C->pthr) {
                                C->mon_mod[midx] = 0;
                                if (C->mon_val[midx] > 0) C->mon_val[midx]--;
                            } else C->mon_mod[midx] = m;
                        }
                    }
                    bus_snoop(C, issue);
                    i64 flipped = si ^ 1;
                    i64 fpeer = -1, fidx = -1, fway = -1;
                    i64 *pl = C->peers + cid * C->nper;
                    for (i64 j = 0; j < C->nper; j++) {
                        i64 peer = pl[j];
                        i64 *gt = C->gt + peer * C->nsets;
                        if (!gt[si]) {
                            i64 w = find_way(C, peer, si, addr);
                            if (w >= 0 &&
                                (C->line_meta[(peer * C->nsets + si)
                                              * C->assoc + w] & 2)) {
                                fpeer = peer; fidx = si; fway = w; break;
                            }
                        }
                        if (C->flip_en && !gt[flipped]) {
                            i64 w = find_way(C, peer, flipped, addr);
                            if (w >= 0 &&
                                (C->line_meta[(peer * C->nsets + flipped)
                                              * C->assoc + w] & 2)) {
                                fpeer = peer; fidx = flipped; fway = w; break;
                            }
                        }
                    }
                    if (fpeer >= 0) {
                        remove_way(C, fpeer, fidx, fway);
                        i64 *pc = C->slcnt + fpeer * NSL;
                        i64 *ps = C->slstamp + fpeer * NSL;
                        BUMP(pc, ps, SL_INVAL, 1);
                        BUMP(pc, ps, SL_FWD, 1);
                        i64 delay = bus_transfer(C, issue);
                        stall = fill_dispose(C, cid, cid, addr, is_write, issue);
                        BUMP(sc, ss, SL_RHIT, 1);
                        latency = C->lat_snug + delay + stall; okey = 2;
                    } else {
                        latency = mem_fetch(C, addr, issue);
                        stall = fill_dispose(C, cid, cid, addr, is_write, issue);
                        BUMP(sc, ss, SL_DRAMF, 1);
                        latency += stall; okey = 3;
                    }
                }
            }
        } else {                               /* ---- cc / dsr ---- */
            i64 set = addr & C->imask;
            i64 way = find_way(C, cid, set, addr);
            i64 *sc = C->slcnt + cid * NSL, *ss = C->slstamp + cid * NSL;
            if (way >= 0) {
                touch_mru(C, cid, set, way);
                BUMP(sc, ss, SL_HITS, 1);
                if (is_write)
                    C->line_meta[(cid * C->nsets + set) * C->assoc] |= 1;
                latency = C->lat_local; okey = 0;
            } else {
                BUMP(sc, ss, SL_MISSES, 1);
                if (wb_try_read(C, cid, addr, issue)) {
                    stall = fill_dispose(C, cid, cid, addr, 1, issue);
                    latency = C->lat_local + stall; okey = 1;
                } else {
                    bus_snoop(C, issue);
                    i64 fpeer = -1, fway = -1;
                    i64 *pl = C->peers + cid * C->nper;
                    for (i64 j = 0; j < C->nper; j++) {
                        i64 w = find_way(C, pl[j], set, addr);
                        if (w >= 0) { fpeer = pl[j]; fway = w; break; }
                    }
                    if (fpeer >= 0) {
                        remove_way(C, fpeer, set, fway);
                        i64 *pc = C->slcnt + fpeer * NSL;
                        i64 *ps = C->slstamp + fpeer * NSL;
                        BUMP(pc, ps, SL_INVAL, 1);
                        BUMP(pc, ps, SL_FWD, 1);
                        i64 delay = bus_transfer(C, issue);
                        stall = fill_dispose(C, cid, cid, addr, is_write, issue);
                        BUMP(sc, ss, SL_RHIT, 1);
                        latency = C->lat_remote + delay + stall; okey = 2;
                    } else {
                        if (kind == 3) {
                            i64 role = C->set_role[set];
                            if (role == 1) {
                                if (C->psel[cid] > 0) C->psel[cid]--;
                            } else if (role == 2) {
                                if (C->psel[cid] < C->psel_max) C->psel[cid]++;
                            }
                        }
                        latency = mem_fetch(C, addr, issue);
                        stall = fill_dispose(C, cid, cid, addr, is_write, issue);
                        BUMP(sc, ss, SL_DRAMF, 1);
                        latency += stall; okey = 3;
                    }
                }
            }
        }

        /* shared epilogue: trace stepping, windows, finish bookkeeping */
        C->c_instr[cid] += C->t_gap[off + pos];
        C->c_acc[cid]++;
        pos++;
        if (pos >= n) { pos = 0; C->c_wraps[cid]++; }
        C->c_pos[cid] = pos;
        C->out_c[okey]++;
        if (warmed && !was_done) {
            C->w_out[cid * 4 + okey]++;
            C->w_lat[cid] += latency;
        }
        i64 now2 = issue + C->l1_lat + latency;
        C->c_time[cid] = now2;
        if (!warmed && C->c_instr[cid] >= warmup) C->c_warm[cid] = now2;
        if (!was_done && C->c_warm[cid] >= 0 &&
            C->c_instr[cid] >= finish_at) {
            C->c_fin[cid] = now2;
            C->ms[MS_REMAINING]--;
        }
        C->keys[cid] = ((now2 + C->t_gapc[off + pos]) << C->cshift) | cid;
    }
    return RC_DONE;
}
"""

# -- build & load -------------------------------------------------------------

_LIB: Optional[ctypes.CDLL] = None
_TRIED = False


def _build(cc: str) -> ctypes.CDLL:
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    root = os.environ.get("REPRO_CKERNEL_DIR") or os.path.join(
        tempfile.gettempdir(),
        "repro-ckernel-%d" % getattr(os, "getuid", lambda: 0)(),
    )
    os.makedirs(root, exist_ok=True)
    so_path = os.path.join(root, f"repro_ckernel_{digest}.so")
    if not os.path.exists(so_path):
        c_path = os.path.join(root, f"repro_ckernel_{digest}.c")
        tmp_so = os.path.join(root, f".build-{os.getpid()}.so")
        with open(c_path, "w") as fh:
            fh.write(_C_SOURCE)
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path],
            check=True, capture_output=True,
        )
        os.replace(tmp_so, so_path)  # atomic: concurrent builders race safely
    lib = ctypes.CDLL(so_path)
    lib.run_kernel.restype = ctypes.c_int64
    lib.run_kernel.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
    return lib


def _get_lib() -> Optional[ctypes.CDLL]:
    """The loaded library, built on first call; ``None`` when it cannot be
    (``REPRO_NO_CKERNEL`` set, no compiler on ``PATH``, failed build)."""
    global _LIB, _TRIED
    if _TRIED:
        return _LIB
    _TRIED = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None
    try:
        _LIB = _build(cc)
    except Exception:  # pragma: no cover - toolchain-dependent
        _LIB = None
    return _LIB


def lib_available() -> bool:
    """Whether the native kernel library is built and loaded (builds lazily)."""
    return _get_lib() is not None


# -- runner -------------------------------------------------------------------


def _merge_stamped(counters, keys, cnt_row, stamp_row) -> None:
    """Add stamped counter slots into a real defaultdict in first-touch order."""
    touched = [(int(stamp_row[i]), i) for i in range(len(keys)) if stamp_row[i] >= 0]
    touched.sort()
    for _, i in touched:
        counters[keys[i]] += int(cnt_row[i])


def _fresh_structural(scheme, caches, kind: int) -> bool:
    """Whether all *structural* containers are empty (counters/scalars may
    be anything — they are encoded from the live objects)."""
    for cache in caches:
        for lruset in cache.sets:
            if lruset._addrs:
                return False
    for wbuf in scheme.wbufs:
        if wbuf._entries:
            return False
    if kind == 4:
        for m in scheme.meta:
            for sh in m.shadows:
                if sh._tags:
                    return False
    return True


def _trace_columns(cores):
    """The kernel's trace columns: each core's ``Trace`` arrays, concatenated.

    Returns ``(offs, addrs, gaps, gap_cycles, writes)``.  The gap cycles are
    the vectorized ``int(gap * base_cpi)`` of the scalar loops: the same
    IEEE-754 product (int64 gaps convert to double exactly), truncated
    toward zero by ``astype``.
    """
    traces = [core.trace for core in cores]
    offs = np.zeros(len(cores) + 1, dtype=np.int64)
    np.cumsum([len(t) for t in traces], out=offs[1:])
    gaps = np.concatenate([t.gaps for t in traces])
    gap_cycles = np.concatenate(
        [(t.gaps * core.base_cpi).astype(np.int64) for core, t in zip(cores, traces)]
    )
    addrs = np.concatenate([t.addrs for t in traces])
    writes = np.concatenate([t.writes for t in traces]).astype(np.int64)
    return offs, addrs, gaps, gap_cycles, writes


def _decode_lines(caches, shape, line_addr, line_meta, occ) -> None:
    """Rebuild every occupied set's ``CacheLine`` list from the SoA arrays."""
    ncores, num_sets, assoc = shape
    la_l = line_addr.reshape(shape).tolist()
    lm_l = line_meta.reshape(shape).tolist()
    occ_l = occ.reshape(ncores, num_sets).tolist()
    for c, cache in enumerate(caches):
        sets = cache.sets
        rows, mrows, occs = la_l[c], lm_l[c], occ_l[c]
        for s in range(num_sets):
            o = occs[s]
            if o:
                row, mrow = rows[s], mrows[s]
                lruset = sets[s]
                lruset._lines = [
                    CacheLine(addr=row[j], dirty=bool(mrow[j] & 1),
                              cc=bool(mrow[j] & 2), f=bool(mrow[j] & 4),
                              owner=mrow[j] >> 3)
                    for j in range(o)
                ]
                lruset._addrs = row[:o]


def _decode_snug(scheme, shape, gt, sh_addr, sh_len, mon_val, mon_mod) -> None:
    """Write SNUG's per-set state (G/T bits, shadow tags, monitors) back."""
    ncores, num_sets, assoc = shape
    sh_l = sh_addr.reshape(shape).tolist()
    shlen_l = sh_len.reshape(ncores, num_sets).tolist()
    gt_l = gt.reshape(ncores, num_sets).tolist()
    mv_l = mon_val.reshape(ncores, num_sets).tolist()
    mm_l = mon_mod.reshape(ncores, num_sets).tolist()
    for c, meta in enumerate(scheme.meta):
        meta.gt_taker[:] = [bool(v) for v in gt_l[c]]
        for s in range(num_sets):
            sl = shlen_l[c][s]
            if sl:
                meta.shadows[s]._tags = sh_l[c][s][:sl]
            mc = meta.monitors[s]
            mc.counter.value = mv_l[c][s]
            mc._mod = mm_l[c][s]


def _rewind(gen, state, consumed: int, draw) -> None:
    """Leave *gen* exactly *consumed* draws past *state*.

    The kernel consumes prefetched draws; the unconsumed tail of the last
    batch must not be lost, or a later run on the same scheme would see a
    different stream than the scalar loops.  Batch draws advance the
    generator exactly like the same number of scalar draws, so redrawing in
    bounded batches restores the scalar position.
    """
    gen.bit_generator.state = state
    while consumed:
        n = min(consumed, _RNG_CAP)
        draw(n)
        consumed -= n


def run_kernel(system: CmpSystem, target: int, warmup: int,
               max_events: Optional[int], kind: int) -> Optional[SimResult]:
    """Run one simulation through the native kernel.

    Returns ``None`` when the library is unavailable or the system is not
    encodable (the caller then runs the fast loop).  Otherwise merges the
    scalar state back into the live objects and leaves the line state to
    ``system._undecoded`` (see :class:`~repro.core.compiled.CompiledCmpSystem`);
    a budget overrun raises the same error, with the same live state, as
    the other cores.
    """
    lib = _get_lib()
    if lib is None:
        return None
    from ..schemes.snug import STAGE_IDENTIFY, STAGE_GROUP  # local: no cycle

    scheme = system.scheme
    cores = system.cores
    ncores = len(cores)
    config = system.config
    if ncores > 64 or (kind >= 2 and ncores < 2):
        return None
    if kind == 4 and scheme.monitor is not None:
        return None  # attached online monitor: the fast loop feeds it
    caches = scheme.banks if kind == 1 else scheme.slices
    if not _fresh_structural(scheme, caches, kind):
        return None

    cshift = (ncores - 1).bit_length()
    cmask = (1 << cshift) - 1
    finish_at = warmup + target
    budget = max_events if max_events is not None else 0
    if budget <= 0:
        mean_gap = max(1.0, float(min(c.trace.mean_gap for c in cores)))
        budget = int(ncores * (target + warmup) / mean_gap * 50) + 10_000

    geo = config.l2
    num_sets = geo.num_sets
    assoc = geo.assoc
    wb_cfg = scheme.wbufs[0].config
    dram = scheme.dram
    bus = scheme.bus

    p = np.zeros(_NPARAMS, dtype=np.int64)
    p[_P_NCORES] = ncores
    p[_P_KIND] = kind
    p[_P_WARMUP] = warmup
    p[_P_FINISH] = finish_at
    p[_P_BUDGET] = budget
    p[_P_L1] = config.latency.l1_hit
    p[_P_LAT_LOCAL] = config.latency.l2_local
    p[_P_LAT_REMOTE] = config.latency.l2_remote
    p[_P_DRAM_LAT] = dram._latency
    p[_P_BANKED] = 1 if dram._model_banks else 0
    p[_P_DBANK_MASK] = dram.config.num_banks - 1
    p[_P_DBANK_BUSY] = dram.config.bank_busy_cycles
    p[_P_CONTENTION] = 1 if bus.config.model_contention else 0
    p[_P_SNOOP_COST] = bus.config.transfer_cycles(_ADDRESS_BYTES)
    p[_P_LINE_COST] = bus.config.transfer_cycles(geo.line_bytes)
    p[_P_LINE_BYTES] = geo.line_bytes
    p[_P_IMASK] = num_sets - 1
    p[_P_ASSOC] = assoc
    p[_P_WB_CAP] = wb_cfg.entries
    p[_P_WB_DRAIN] = wb_cfg.drain_cycles
    p[_P_WB_DIRECT] = 1 if wb_cfg.direct_read else 0
    p[_P_CSHIFT] = cshift
    p[_P_CMASK] = cmask
    p[_P_NSETS] = num_sets

    offs, t_addr, t_gap, t_gapc, t_write = _trace_columns(cores)
    c_time = np.array([c.time for c in cores], dtype=np.int64)
    c_pos = np.array([c.pos for c in cores], dtype=np.int64)
    c_instr = np.array([c.instructions for c in cores], dtype=np.int64)
    c_wraps = np.array([c.wraps for c in cores], dtype=np.int64)
    c_acc = np.array([c.accesses for c in cores], dtype=np.int64)
    c_warm = np.array(
        [-1 if c.warmup_end_time is None else c.warmup_end_time for c in cores],
        dtype=np.int64)
    c_fin = np.array(
        [-1 if c.finish_time is None else c.finish_time for c in cores],
        dtype=np.int64)
    keys = ((c_time + t_gapc[offs[:-1] + c_pos]) << cshift) | np.arange(
        ncores, dtype=np.int64)

    shape = (ncores, num_sets, assoc)
    line_addr = np.zeros(ncores * num_sets * assoc, dtype=np.int64)
    line_meta = np.zeros(ncores * num_sets * assoc, dtype=np.int64)
    occ = np.zeros(ncores * num_sets, dtype=np.int64)
    cap = max(1, wb_cfg.entries)
    wb_addr = np.zeros(ncores * cap, dtype=np.int64)
    wb_time = np.zeros(ncores * cap, dtype=np.int64)
    wb_head = np.zeros(ncores, dtype=np.int64)
    wb_len = np.zeros(ncores, dtype=np.int64)
    wb_next = np.array([w._next_drain_at for w in scheme.wbufs], dtype=np.int64)

    nsl, nwb, ndr, nbu, nrt = len(_SL_KEYS), len(_WB_KEYS), len(_DR_KEYS), \
        len(_BU_KEYS), len(_RT_KEYS)
    slcnt = np.zeros(ncores * nsl, dtype=np.int64)
    slstamp = np.full(ncores * nsl, -1, dtype=np.int64)
    wcnt = np.zeros(ncores * nwb, dtype=np.int64)
    wstamp = np.full(ncores * nwb, -1, dtype=np.int64)
    dcnt = np.zeros(ndr, dtype=np.int64)
    dstamp = np.full(ndr, -1, dtype=np.int64)
    bcnt = np.zeros(nbu, dtype=np.int64)
    bstamp = np.full(nbu, -1, dtype=np.int64)
    rcnt = np.zeros(nrt, dtype=np.int64)
    rstamp = np.full(nrt, -1, dtype=np.int64)
    stamp = np.zeros(1, dtype=np.int64)
    bank_free = np.array(dram._bank_free_at, dtype=np.int64) \
        if dram._model_banks else np.zeros(1, dtype=np.int64)
    bus_busy = np.array([bus._busy_until], dtype=np.int64)
    out_c = np.zeros(4, dtype=np.int64)
    w_out = np.zeros(ncores * 4, dtype=np.int64)
    w_lat = np.zeros(ncores, dtype=np.int64)
    ms = np.zeros(_NMS, dtype=np.int64)
    ms[_MS_REMAINING] = ncores
    rs = np.zeros(_NRS, dtype=np.int64)

    zi = np.zeros(1, dtype=np.int64)
    zd = np.zeros(1, dtype=np.float64)
    set_role = psel = gt = sh_addr = sh_len = mon_val = mon_mod = zi
    coin_buf, pick_buf, peers_arr = zd, zi, zi
    dparams = np.zeros(1, dtype=np.float64)
    spill_mode = 0

    if kind >= 2:
        nper = ncores - 1
        p[_P_NPER] = nper
        peers_arr = np.array(
            [pp for row in scheme._peers for pp in row], dtype=np.int64)
    if kind == 2:
        coin, pick = scheme._coin, scheme._peer_pick
        spill_p = scheme.spill_probability
        dparams[0] = spill_p
        spill_mode = 0 if spill_p <= 0.0 else (1 if spill_p >= 1.0 else 2)
        p[_P_SPILL_MODE] = spill_mode
        if spill_mode:
            pick_state, picks_drawn = pick.bit_generator.state, _RNG_CAP
            pick_buf = np.empty(_RNG_CAP, dtype=np.int64)
            pick_buf[:] = pick.integers(0, nper, size=_RNG_CAP)
            rs[_RS_PICK_FILL] = _RNG_CAP
            if spill_mode == 2:
                coin_state, coins_drawn = coin.bit_generator.state, _RNG_CAP
                coin_buf = np.empty(_RNG_CAP, dtype=np.float64)
                coin_buf[:] = coin.random(size=_RNG_CAP)
                rs[_RS_COIN_FILL] = _RNG_CAP
    elif kind == 3:
        psel_bits = config.dsr.psel_bits
        p[_P_PSEL_MAX] = (1 << psel_bits) - 1
        p[_P_PSEL_MSB] = psel_bits - 1
        set_role = np.array(scheme.set_role, dtype=np.int64)
        psel = np.array([pc.value for pc in scheme.psel], dtype=np.int64)
        ms[_MS_RR] = scheme._rr
    elif kind == 4:
        snug_cfg = scheme.snug_cfg
        p[_P_LAT_SNUG] = config.latency.l2_remote_snug
        mon_bits = snug_cfg.counter_bits
        p[_P_MON_MAX] = (1 << mon_bits) - 1
        p[_P_MON_MSB] = mon_bits - 1
        p[_P_MON_RESET] = (1 << (mon_bits - 1)) - 1
        p[_P_PTHR] = snug_cfg.p_threshold
        p[_P_MON_GROUP] = 1 if snug_cfg.monitor_during_group else 0
        p[_P_FLIP_EN] = 1 if snug_cfg.flip_enabled else 0
        p[_P_FLUSH_FLIP] = 1 if snug_cfg.flush_on_flip_to_taker else 0
        p[_P_IDENT_CYC] = snug_cfg.identify_cycles
        p[_P_GROUP_CYC] = snug_cfg.group_cycles
        ms[_MS_STAGE] = 0 if scheme.stage == STAGE_IDENTIFY else 1
        ms[_MS_STAGE_END] = scheme._stage_end
        ms[_MS_EPOCH] = scheme.epoch
        ms[_MS_SPILL_RR] = scheme._spill_rr
        gt = np.array(
            [1 if t else 0 for m in scheme.meta for t in m.gt_taker],
            dtype=np.int64)
        sh_addr = np.zeros(ncores * num_sets * assoc, dtype=np.int64)
        sh_len = np.zeros(ncores * num_sets, dtype=np.int64)
        mon_val = np.array(
            [mc.counter.value for m in scheme.meta for mc in m.monitors],
            dtype=np.int64)
        mon_mod = np.array(
            [mc._mod for m in scheme.meta for mc in m.monitors],
            dtype=np.int64)

    arrays: List[np.ndarray] = [zi] * _NARR
    arrays[_A_PARAMS] = p
    arrays[_A_OFFS] = offs
    arrays[_A_TADDR] = t_addr
    arrays[_A_TGAP] = t_gap
    arrays[_A_TGAPC] = t_gapc
    arrays[_A_TWRITE] = t_write
    arrays[_A_CTIME] = c_time
    arrays[_A_CPOS] = c_pos
    arrays[_A_CINSTR] = c_instr
    arrays[_A_CWRAPS] = c_wraps
    arrays[_A_CACC] = c_acc
    arrays[_A_CWARM] = c_warm
    arrays[_A_CFIN] = c_fin
    arrays[_A_KEYS] = keys
    arrays[_A_LADDR] = line_addr
    arrays[_A_LMETA] = line_meta
    arrays[_A_OCC] = occ
    arrays[_A_WBADDR] = wb_addr
    arrays[_A_WBTIME] = wb_time
    arrays[_A_WBHEAD] = wb_head
    arrays[_A_WBLEN] = wb_len
    arrays[_A_WBNEXT] = wb_next
    arrays[_A_SLCNT] = slcnt
    arrays[_A_SLSTAMP] = slstamp
    arrays[_A_WCNT] = wcnt
    arrays[_A_WSTAMP] = wstamp
    arrays[_A_DCNT] = dcnt
    arrays[_A_DSTAMP] = dstamp
    arrays[_A_BCNT] = bcnt
    arrays[_A_BSTAMP] = bstamp
    arrays[_A_RCNT] = rcnt
    arrays[_A_RSTAMP] = rstamp
    arrays[_A_STAMP] = stamp
    arrays[_A_BANKFREE] = bank_free
    arrays[_A_BUSBUSY] = bus_busy
    arrays[_A_OUTC] = out_c
    arrays[_A_WOUT] = w_out
    arrays[_A_WLAT] = w_lat
    arrays[_A_MS] = ms
    arrays[_A_SETROLE] = set_role
    arrays[_A_PSEL] = psel
    arrays[_A_GT] = gt
    arrays[_A_SHADDR] = sh_addr
    arrays[_A_SHLEN] = sh_len
    arrays[_A_MONVAL] = mon_val
    arrays[_A_MONMOD] = mon_mod
    arrays[_A_COIN] = coin_buf
    arrays[_A_PICK] = pick_buf
    arrays[_A_RS] = rs
    arrays[_A_PEERS] = peers_arr
    arrays[_A_DPARAMS] = dparams

    table = (ctypes.c_void_p * _NARR)()
    for slot, arr in enumerate(arrays):
        table[slot] = arr.ctypes.data

    while True:
        rc = int(lib.run_kernel(table))
        if rc != _RC_RNG:
            break
        # Top up the RNG rings, preserving unconsumed (already drawn) values
        # so the consumption sequence matches scalar draw order exactly.
        if spill_mode == 2:
            pos, fill = int(rs[_RS_COIN_POS]), int(rs[_RS_COIN_FILL])
            rem = fill - pos
            if rem:
                coin_buf[:rem] = coin_buf[pos:fill]
            coin_buf[rem:] = coin.random(size=_RNG_CAP - rem)
            coins_drawn += _RNG_CAP - rem
            rs[_RS_COIN_POS] = 0
            rs[_RS_COIN_FILL] = _RNG_CAP
        pos, fill = int(rs[_RS_PICK_POS]), int(rs[_RS_PICK_FILL])
        rem = fill - pos
        if rem:
            pick_buf[:rem] = pick_buf[pos:fill]
        pick_buf[rem:] = pick.integers(0, nper, size=_RNG_CAP - rem)
        picks_drawn += _RNG_CAP - rem
        rs[_RS_PICK_POS] = 0
        rs[_RS_PICK_FILL] = _RNG_CAP

    # -- merge the scalar state back into the live objects --------------------
    if spill_mode:
        unused = int(rs[_RS_PICK_FILL] - rs[_RS_PICK_POS])
        _rewind(pick, pick_state, picks_drawn - unused,
                lambda n: pick.integers(0, nper, size=n))
        if spill_mode == 2:
            unused = int(rs[_RS_COIN_FILL] - rs[_RS_COIN_POS])
            _rewind(coin, coin_state, coins_drawn - unused,
                    lambda n: coin.random(size=n))
    for core, t, pos, instr, wraps, acc, warm, fin in zip(
            cores, c_time.tolist(), c_pos.tolist(), c_instr.tolist(),
            c_wraps.tolist(), c_acc.tolist(), c_warm.tolist(), c_fin.tolist()):
        core.time = t
        core.pos = pos
        core.instructions = instr
        core.wraps = wraps
        core.accesses = acc
        core.warmup_end_time = warm if warm >= 0 else None
        core.finish_time = fin if fin >= 0 else None
    for c, cache in enumerate(caches):
        _merge_stamped(cache._counters, _SL_KEYS,
                       slcnt[c * nsl:(c + 1) * nsl],
                       slstamp[c * nsl:(c + 1) * nsl])
    for c, wbuf in enumerate(scheme.wbufs):
        head, wlen = int(wb_head[c]), int(wb_len[c])
        for j in range(wlen):
            idx = c * cap + (head + j) % cap
            wbuf._entries[int(wb_addr[idx])] = int(wb_time[idx])
        wbuf._next_drain_at = int(wb_next[c])
        _merge_stamped(wbuf.stats.counters, _WB_KEYS,
                       wcnt[c * nwb:(c + 1) * nwb],
                       wstamp[c * nwb:(c + 1) * nwb])
    _merge_stamped(dram._counters, _DR_KEYS, dcnt, dstamp)
    if dram._model_banks:
        dram._bank_free_at[:] = bank_free.tolist()
    _merge_stamped(bus._counters, _BU_KEYS, bcnt, bstamp)
    if bus.config.model_contention:
        bus._busy_until = int(bus_busy[0])
    if kind == 3:
        scheme._rr = int(ms[_MS_RR])
        for pc, value in zip(scheme.psel, psel.tolist()):
            pc.value = value
    elif kind == 4:
        scheme.stage = STAGE_IDENTIFY if ms[_MS_STAGE] == 0 else STAGE_GROUP
        scheme._stage_end = int(ms[_MS_STAGE_END])
        scheme.epoch = int(ms[_MS_EPOCH])
        scheme._spill_rr = int(ms[_MS_SPILL_RR])
        _merge_stamped(scheme.stats.counters, _RT_KEYS, rcnt, rstamp)

    def decode() -> None:
        _decode_lines(caches, shape, line_addr, line_meta, occ)
        if kind == 4:
            _decode_snug(scheme, shape, gt, sh_addr, sh_len, mon_val, mon_mod)

    system._undecoded = decode
    if rc == _RC_BUDGET:
        raise budget_exhausted_error(budget, cores, finish_at)

    final_now = int(c_time.max())
    if kind == 4 and final_now >= scheme._stage_end:
        system.decode()  # the stage change latches monitors, may flush lines
    scheme.finalize(final_now)
    out_l = out_c.tolist()
    w_out_l = w_out.reshape(ncores, 4).tolist()
    okeys = _OUT_KEYS
    return SimResult(
        scheme=scheme.name,
        ipc=[core.ipc() for core in cores],
        instructions=[core.instructions for core in cores],
        cycles=[core.finish_time or core.time for core in cores],
        accesses=[core.accesses for core in cores],
        outcome_counts={okeys[i]: out_l[i] for i in range(4)},
        stats=scheme.flat_stats(),
        window_outcomes=[{okeys[i]: row[i] for i in range(4)} for row in w_out_l],
        window_latency=w_lat.tolist(),
    )
