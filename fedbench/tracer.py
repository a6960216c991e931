"""Outside-in span tracer: times calls into the program's public callables.

The tracer never edits the program.  It replaces a public function, method
or classmethod with a thin wrapper for the duration of one trial and puts
the original back afterwards.  Each wrapped call becomes a :class:`Span`
with a name, start, end, parent span and thread id.  Spans stay in memory;
:meth:`Tracer.chrome_trace` turns them into Chrome trace-event JSON, which
opens in Perfetto (ui.perfetto.dev) or chrome://tracing.

Re-entrant calls are counted once: while a span of some name is open on a
thread, a nested call of the same name on that thread (``Conv2d.forward``
reached again through ``Module.__call__``, ``map`` calling ``imap`` calling
``imap_outcomes``) runs unwrapped.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: How a wrapper turns calls into spans.
CALL = "call"  #: one span per call
EACH = "each"  #: the callable returns an iterator; one span per item produced
ITERATE = "iterate"  #: the callable returns an iterator; one span from first item to exhaustion

#: ``count(args, kwargs, result) -> int`` adds to a named counter after a call.
CountFn = Callable[[tuple, dict, object], int]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  #: index of the enclosing span on the same thread, -1 at the root
    tid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched callables; one tracer per trial."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []
        self._thread_names: Dict[int, str] = {}

    # -- spans ----------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[int]:
        """Open a span; ``None`` when one of that name is already open here."""
        stack = self._stack()
        spans = self.spans
        for index in stack:
            if spans[index].name == name:
                return None
        thread = threading.current_thread()
        with self._lock:
            index = len(spans)
            spans.append(
                Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, thread.ident)
            )
            self._thread_names.setdefault(thread.ident, thread.name)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        # A suspended generator's span may sit below spans opened after it.
        if stack and stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching -------------------------------------------------------------------
    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        mode: str = CALL,
        count: Optional[Tuple[str, CountFn]] = None,
    ) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        wrapper = self._wrapper(function, name, mode, count)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def patch_overrides(self, base: type, attr: str, name: str, **kwargs) -> None:
        """Patch ``attr`` on ``base`` and every subclass that defines its own."""
        for cls in _class_tree(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, name, **kwargs)

    def uninstall(self) -> None:
        """Put every patched callable back (idempotent)."""
        while self._restore:
            self._restore.pop()()

    def _wrapper(self, function, name: str, mode: str, count) -> Callable:
        tracer = self

        def record(args, kwargs, result) -> None:
            if count is not None:
                tracer.count(count[0], int(count[1](args, kwargs, result)))

        if mode == CALL:

            @functools.wraps(function)
            def call(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    if index is not None:
                        tracer.close(index)
                if index is not None:
                    record(args, kwargs, result)
                return result

            return call

        if mode == EACH:

            @functools.wraps(function)
            def each(*args, **kwargs):
                iterator = iter(function(*args, **kwargs))
                while True:
                    index = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        if index is not None:
                            tracer.close(index)
                    yield item

            return each

        if mode == ITERATE:

            @functools.wraps(function)
            def iterate(*args, **kwargs):
                index = tracer.open(name)
                if index is not None:
                    # Counted up front: consumers may stop early (zip).
                    record(args, kwargs, None)
                try:
                    yield from function(*args, **kwargs)
                finally:
                    if index is not None:
                        tracer.close(index)

            return iterate

        raise ValueError(f"unknown span mode {mode!r}")

    # -- analysis -------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed time of ``name`` spans minus the part their children cover.

        Children run on the span's own thread and nest inside it, so the
        part they cover is the sum of the direct children's durations.
        """
        children = Counter()
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.duration
        return sum(
            span.duration - children[index]
            for index, span in enumerate(self.spans)
            if span.name == name
        )

    def uncovered_time(self, name: str, covering: Iterable[str]) -> float:
        """Time inside ``name`` spans that no covering span overlaps.

        Covering intervals are the ``covering`` spans on any thread plus the
        direct children of each ``name`` span on its own thread.
        """
        covering = set(covering)
        cover = [(s.start, s.end) for s in self.spans if s.name in covering]
        uncovered = 0.0
        for index, span in enumerate(self.spans):
            if span.name != name:
                continue
            own = [(s.start, s.end) for s in self.spans if s.parent == index]
            covered = union_length(own + cover, span.start, span.end)
            uncovered += span.duration - covered
        return uncovered

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        pid = os.getpid()
        events: List[Dict[str, object]] = [
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}
            for tid, label in self._thread_names.items()
        ]
        for index, span in enumerate(self.spans):
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": span.tid,
                    "args": {"span": index, "parent": span.parent, "parent_name": parent},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _class_tree(base: type) -> Iterator[type]:
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())
