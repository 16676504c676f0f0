"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files by wrapping the public
boundaries of each ``repro`` module (no tracing code lives in ``src/``).
Each span holds a name, the layer (module) it belongs to, start and end
(``time.perf_counter``), its parent (the innermost open span on the same
thread) and a few attributes the metrics need (scheme, reference counts).
Spans stay in memory until :meth:`SpanRecorder.dump` writes them out.

A span's *self time* is its duration minus the durations of its direct
children, so per-layer self times add up without double counting.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Collects spans from wrapped callables; installs and removes wrappers."""

    def __init__(self) -> None:
        #: ``[id, parent, name, layer, start, end, attrs]`` per finished span.
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """*fn* wrapped so every call records one span.

        *attrs* is called as ``attrs(args, kwargs, result)`` after a
        successful call and returns a dict stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            extra: Dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, parent, name, layer, start, end, extra])

        return traced

    def patch(
        self,
        owner,
        attr: str,
        layer: str,
        attrs: Optional[Callable] = None,
        name: Optional[str] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        static = inspect.getattr_static(owner, attr)
        label = name or f"{layer}.{attr}"
        if isinstance(static, classmethod):
            replacement = classmethod(self.wrap(static.__func__, label, layer, attrs))
        else:
            replacement = self.wrap(getattr(owner, attr), label, layer, attrs)
        self.substitute(owner, attr, replacement)

    def substitute(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`unpatch`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        child_total: Dict[int, float] = defaultdict(float)
        for _id, parent, _n, _l, start, end, _a in self.spans:
            if parent:
                child_total[parent] += end - start
        return {
            span[0]: (span[5] - span[4]) - child_total.get(span[0], 0.0)
            for span in self.spans
        }

    def layer_self(self) -> Dict[str, float]:
        """Total self time per layer, in seconds."""
        selfs = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[3]] += selfs[span[0]]
        return dict(out)

    def by_name(self, name: str) -> List[list]:
        return [span for span in self.spans if span[2] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*, in seconds."""
        return sum(span[5] - span[4] for span in self.by_name(name))

    def dump(self, path: Path) -> None:
        """Write every span (plus per-span self time) as JSON lines."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, parent, name, layer, start, end, extra in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "self": selfs[span_id],
                    "attrs": extra,
                }
                out.write(json.dumps(record) + "\n")
