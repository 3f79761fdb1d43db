"""Span tracing of the pipeline's layers from outside the program.

:class:`Tracer` replaces public functions and methods of ``repro`` modules
with timing wrappers for the length of a traced run; nothing under ``src/``
is edited.  A function imported by name into other modules
(``from .bisimulation import minimize_weak``) is replaced in every module
that holds it, so calls through any of those names are seen.

Each span records its name, start, end, parent span and optional
attributes; counters record calls too frequent to span (series steps).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: A span: [name, start, end, parent index (-1 = root), attributes or None].
Span = list


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    Spans nest through one call stack, so a traced run must make its calls
    from one thread (the benchmark's traced passes are serial).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------- recording
    def span(self, name: str, attrs: Optional[dict] = None) -> "_SpanContext":
        """A context manager recording one span around the ``with`` body."""
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: Optional[dict]) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    # ------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        describe: Optional[Callable] = None,
    ) -> None:
        """Span every call of ``owner.attribute`` (a function or a method).

        ``describe(args, kwargs, result)`` returns the span's attributes.
        For a module-level function every loaded ``repro`` module binding
        the same object is patched.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name, None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if describe is not None:
                self.spans[index][4] = describe(args, kwargs, result)
            return result

        self._patch(owner, attribute, original, traced)

    def count(self, owner, attribute: str, name: str) -> None:
        """Count every call of ``owner.attribute`` without opening a span."""
        original = getattr(owner, attribute)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attribute, original, counted)

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
            return
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            if vars(module).get(attribute) is original:
                self._patches.append((module, attribute, original))
                setattr(module, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched function and method."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis
    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, name: str) -> List[int]:
        """Indices of ``name`` spans not nested in another ``name`` span."""
        return [
            index
            for index, span in enumerate(self.spans)
            if span[0] == name and not self._has_ancestor(index, name)
        ]

    def total(self, name: str) -> float:
        """Seconds inside ``name`` spans, nested repeats counted once."""
        return sum(self.duration(index) for index in self.outermost(name))

    def self_time(self, name: str) -> float:
        """Seconds inside ``name`` spans minus the time of their child spans."""
        children: Dict[int, float] = Counter()
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]] += self.duration(index)
        return sum(
            self.duration(index) - children[index]
            for index, span in enumerate(self.spans)
            if span[0] == name
        )

    def scope_attr(self, index: int, key: str):
        """``key`` of the span or of its nearest ancestor that has it, or None."""
        while index >= 0:
            attrs = self.spans[index][4]
            if attrs and key in attrs:
                return attrs[key]
            index = self.spans[index][3]
        return None

    def write(self, path: Path) -> None:
        """Write spans and counters as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    **({"attrs": attrs} if attrs else {}),
                }
                for name, start, end, parent, attrs in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "_index")

    def __init__(self, tracer: Tracer, name: str, attrs: Optional[dict]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> int:
        self._index = self._tracer._open(self._name, self._attrs)
        return self._index

    def __exit__(self, *_exc) -> None:
        self._tracer._close(self._index)
