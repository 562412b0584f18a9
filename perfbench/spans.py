"""Spans recorded around the system's layer entry points, from outside.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that record one :class:`Span` per call: name, thread, wall-clock start
and end, the calling thread's CPU time, and the enclosing span on the
same thread. Spans stay in memory until :meth:`Tracer.dump` writes them
out. :func:`self_times` derives each span's self time and wait from the
list; nothing in the system under test is edited.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    span_id: int
    name: str
    thread: int
    start: float
    end: float
    #: CPU seconds the calling thread spent inside the span.
    cpu: float
    #: ``span_id`` of the enclosing span, or ``None`` for a root. The
    #: tracer links spans on one thread; spans merged from elsewhere may
    #: name a parent on another thread, which :func:`self_times` allows.
    parent: int | None
    #: Whatever the wrapper's ``note`` hook extracted from the call.
    info: object = None


class Tracer:
    """Installs span-recording wrappers and keeps what they record.

    Wrap plain functions and instance methods only: a wrapper set on a
    class becomes an ordinary method.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        note: Callable[[tuple, object], object] | None = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``note(args, result)`` may pick a small value out of the call
        (run on the calling thread, inside the span's interval).
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        local = self._local
        perf_counter = time.perf_counter
        thread_time = time.thread_time
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = perf_counter()
            cpu_start = thread_time()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                info = note(args, result) if note is not None else None
                cpu = thread_time() - cpu_start
                end = perf_counter()
                stack.pop()
                spans.append(
                    Span(span_id, name, get_ident(), start, end, cpu, parent, info)
                )

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_function(self, module_prefix: str, function: Callable, name: str) -> None:
        """Wrap a module-level function everywhere it was imported by name.

        ``from x import f`` binds ``f`` into the importing module, so the
        function is replaced in every loaded module under
        ``module_prefix`` that holds it.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == module_prefix or module_name.startswith(module_prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.wrap(module, attr, name)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one array per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                info = span.info if isinstance(span.info, (int, float, str)) else None
                handle.write(
                    json.dumps(
                        [
                            span.span_id,
                            span.name,
                            span.thread,
                            round(span.start, 7),
                            round(span.end, 7),
                            round(span.cpu, 7),
                            span.parent,
                            info,
                        ]
                    )
                    + "\n"
                )


@dataclass
class SelfTime:
    wall: float
    cpu: float

    @property
    def wait(self) -> float:
        """Self wall time not spent on this thread's CPU (lock, GIL,
        future or I/O waits)."""
        return max(0.0, self.wall - self.cpu)


def self_times(spans: list[Span]) -> dict[int, SelfTime]:
    """Self wall and CPU time per span id.

    A span's self wall is its duration minus the part of its interval
    covered by its children on the same thread; its self CPU is its CPU
    time minus theirs. Children on other threads run concurrently and
    take nothing from their parent: a parent blocked on them keeps that
    interval as self time, which shows up as wait (self wall − self CPU).
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.thread == span.thread:
            children.setdefault(parent.span_id, []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span.span_id, ())
        covered = _union_length(
            [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        )
        result[span.span_id] = SelfTime(
            wall=max(0.0, (span.end - span.start) - covered),
            cpu=max(0.0, span.cpu - sum(k.cpu for k in kids)),
        )
    return result


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
