"""Compiled simulation core: one native C kernel, fed straight from the trace arrays.

The production core: ``sim_core="auto"`` (the default) runs every simulation
through :class:`CompiledCmpSystem`.  The fast core
(:class:`~repro.core.cmp.CmpSystem`) walks Python objects per access; this
core hands whole runs to the native C kernel of :mod:`repro.core._ckernel`,
one structure-of-arrays event loop for all five kernel schemes, miss path
included (set search, LRU rotation, write-buffer drain/merge/deposit, DRAM,
bus, spill/retrieval and SNUG stage machinery).

* **Encode from NumPy.**  The kernel's trace columns are the ``Trace``
  arrays concatenated per core, and the gap cycles are one vectorized
  ``(gaps * base_cpi).astype(int64)``, which truncates exactly like the
  scalar loops' ``int(gap * base_cpi)``.  No per-access Python list is
  built; :class:`~repro.core.cpu.TraceCore` builds its list columns only
  when a scalar loop steps it.
* **Decode on demand.**  After the kernel, a run merges back only what
  :class:`~repro.core.cmp.SimResult` and ``flat_stats()`` read: counters
  (in first-touch order), core cursors, write buffers, DRAM, bus, DSR PSEL
  and the SNUG stage scalars.  The cache lines, SNUG shadow tags, G/T bits
  and monitor counters stay in their arrays until something reads
  structural state: reading :attr:`CompiledCmpSystem.scheme`, calling
  :meth:`CompiledCmpSystem.decode`, the next ``run()``, or a SNUG finalize
  that crosses a stage boundary (its latch reads the monitors and may
  flush hosted blocks).
* **One kernel, one fallback.**  Whatever the kernel cannot encode runs
  the bit-identical fast loop instead: SNUG with an attached online
  monitor, more than 64 cores, single-core spill schemes, non-pristine
  caches (a system that already ran), and hosts where the library cannot
  be built (``REPRO_NO_CKERNEL=1``, no C compiler on ``PATH``, a failed
  compile).  :func:`kernel_mode` says which one serves.

The kernel replicates the reference semantics term for term, stat-counter
*first-touch order* included, because ``SimResult.to_dict()`` round-trips
through JSON where dict insertion order is part of byte-identity.  The
conformance, fuzz and golden suites hold this core to full ``to_dict()``
equality against :mod:`repro.core.reference`.

``snug_intra`` subclasses :class:`~repro.schemes.snug.SnugCache` with
different intra-set semantics; dispatch is keyed by *exact* scheme type, so
unknown (sub)types run on the fast loop unchanged.
"""

from __future__ import annotations

from ..schemes.cc import CooperativeCaching
from ..schemes.dsr import DynamicSpillReceive
from ..schemes.l2p import PrivateL2
from ..schemes.l2s import SharedL2
from ..schemes.snug import SnugCache
from . import _ckernel
from .cmp import CmpSystem, SimResult

__all__ = ["CompiledCmpSystem", "KERNEL_SCHEMES", "kernel_mode"]


def kernel_mode() -> str:
    """Which loop serves the kernel schemes.

    ``"compiled-c"`` when the native kernel library is built and loaded,
    ``"fast"`` when it cannot be (the scalar loop, still bit-identical).
    """
    return "compiled-c" if _ckernel.lib_available() else "fast"


# Exact-type keying (not isinstance): SnugIntraCache subclasses SnugCache
# with different access semantics, so it must fall through to the fast loop.
_KIND_BY_TYPE = {
    PrivateL2: 0,
    SharedL2: 1,
    CooperativeCaching: 2,
    DynamicSpillReceive: 3,
    SnugCache: 4,
}


def _named_entry(name, fn):
    """Wrap *fn* in a frame whose code object is named *name*.

    cProfile keys rows by code-object name; without the wrapper every
    scheme's kernel time shows up as one ``run_kernel`` row, so the
    execution-phase profile dump could not say which scheme's kernel the
    time went to.  The wrapper costs one Python call per *run*, not per
    access.
    """
    src = f"def {name}(*args, **kwargs):\n    return _fn(*args, **kwargs)\n"
    namespace = {"_fn": fn}
    code = compile(src, "<repro-compiled-core>", "exec")
    exec(code, namespace)
    return namespace[name]


_KIND_NAMES = {kind: scheme_type.name for scheme_type, kind in _KIND_BY_TYPE.items()}

#: Names of the schemes with a compiled kernel; every other scheme runs on
#: the fast loop.
KERNEL_SCHEMES: tuple[str, ...] = tuple(_KIND_NAMES.values())

_ENTRIES = {
    kind: _named_entry(f"compiled_kernel__{name}", _ckernel.run_kernel)
    for kind, name in _KIND_NAMES.items()
}


class CompiledCmpSystem(CmpSystem):
    """CMP system stepped by the native C kernel.

    Drop-in :class:`CmpSystem` whose ``run()`` hands the whole run to the
    kernel and produces bit-identical :class:`SimResult`\\ s (the
    conformance suites assert term-for-term ``to_dict()`` equality against
    ``core/reference.py``).  Runs the kernel cannot encode, and schemes
    without a kernel, take the inherited fast loop.

    The kernel leaves cache lines and SNUG per-set state undecoded; read the
    scheme through :attr:`scheme` (or call :meth:`decode`) to see them.  A
    reference to the scheme object kept from before the run sees empty sets
    until then.
    """

    #: Turns the last kernel run's SoA line state into objects; ``None``
    #: when the live objects are current.
    _undecoded = None

    @property
    def scheme(self):
        """The simulated scheme, its structural state decoded first."""
        self.decode()
        return self._scheme

    @scheme.setter
    def scheme(self, scheme) -> None:
        self.decode()
        self._scheme = scheme

    def decode(self) -> None:
        """Move the structural state the last kernel run left in arrays
        (cache lines, SNUG shadows, G/T bits, monitor counters) into the
        live objects.  Idempotent."""
        pending, self._undecoded = self._undecoded, None
        if pending is not None:
            pending()

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        # Reading self.scheme decodes a previous run's state first: the
        # kernel only encodes pristine caches, and undecoded sets look empty.
        kind = _KIND_BY_TYPE.get(type(self.scheme))
        if kind is not None:
            self._arm(target_instructions, warmup_instructions)
            result = _ENTRIES[kind](
                self, target_instructions, warmup_instructions, max_events, kind
            )
            if result is not None:
                return result
        return super().run(
            target_instructions,
            warmup_instructions=warmup_instructions,
            max_events=max_events,
        )
