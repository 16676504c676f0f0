"""Saturating counter with the paper's mod-p decrement discipline.

Section 3.1.2 defines the per-set demand monitor: a k-bit saturating counter
initialized to ``2^(k-1) - 1`` (all bits below the MSB set).  Operations:

* **+1** on every hit in the *shadow* set;
* **-1** after every ``p`` hits on the real-or-shadow pair (implemented in
  hardware with a log2(p)-bit modulo counter; we model exactly that).

After a sampling epoch, ``MSB == 1`` certifies that
``#shadow_hits > (1/p) * (#real_hits + #shadow_hits)``, i.e. doubling the
set's capacity would raise its hit rate by at least ``1/p`` — the set is a
**taker**; otherwise it is a **giver**.
"""

from __future__ import annotations

from ..common.bitops import log2_exact

__all__ = ["SaturatingCounter", "DemandMonitorCounter"]


class SaturatingCounter:
    """Plain k-bit saturating up/down counter."""

    __slots__ = ("bits", "_max", "value")

    def __init__(self, bits: int, initial: int | None = None) -> None:
        if bits < 1:
            raise ValueError("counter width must be >= 1")
        self.bits = bits
        self._max = (1 << bits) - 1
        init = (1 << (bits - 1)) - 1 if initial is None else initial
        if not 0 <= init <= self._max:
            raise ValueError(f"initial value {init} out of range [0, {self._max}]")
        self.value = init

    @property
    def max_value(self) -> int:
        return self._max

    @property
    def msb(self) -> bool:
        """True iff the most significant bit is set."""
        return bool(self.value >> (self.bits - 1))

    def increment(self) -> None:
        if self.value < self._max:
            self.value += 1

    def decrement(self) -> None:
        if self.value > 0:
            self.value -= 1

    def reset(self, initial: int | None = None) -> None:
        self.value = (1 << (self.bits - 1)) - 1 if initial is None else initial

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


class DemandMonitorCounter:
    """The full Section 3.1.2 monitor: saturating counter + mod-p hit counter.

    Parameters
    ----------
    bits:
        Width ``k`` of the saturating counter (4 in Table 2).
    p:
        The hit-count modulus (8 in Table 2; must be a power of two, giving a
        ``log2(p)``-bit hardware counter).
    """

    __slots__ = ("counter", "p", "_mod")

    def __init__(self, bits: int = 4, p: int = 8) -> None:
        log2_exact(p, what="p")  # validates power-of-two
        self.counter = SaturatingCounter(bits)
        self.p = p
        self._mod = 0

    @property
    def is_taker(self) -> bool:
        """MSB of the saturating counter: taker (True) or giver (False)."""
        return self.counter.msb

    @property
    def value(self) -> int:
        return self.counter.value

    def on_shadow_hit(self) -> None:
        """A formerly-evicted tag was re-referenced: credit the set."""
        self.counter.increment()
        self._on_any_hit()

    def on_real_hit(self) -> None:
        """A hit in the real L2 set."""
        self._on_any_hit()

    def _on_any_hit(self) -> None:
        self._mod += 1
        if self._mod == self.p:
            self._mod = 0
            self.counter.decrement()

    def reset(self) -> None:
        """Re-arm for a new sampling epoch (Stage I)."""
        self.counter.reset()
        self._mod = 0
