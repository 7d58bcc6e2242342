"""In-memory spans recorded around calls into the library's modules.

The tracer replaces module attributes with timing wrappers, so it needs no
change to the library. A name the module no longer has is skipped: its span
is then simply absent from the trace.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    call_id: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    start_ns: int = 0
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans of one single-threaded run.

    ``call_id`` names the top-level call the next spans belong to; set it
    with :meth:`call`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call_id = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, self.call_id, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def call(self, call_id: int, name: str):
        """Root span of one top-level call; spans opened inside share its id."""
        self.call_id = call_id
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        observe: Callable[[tuple, object], dict] | None = None,
    ) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``observe(args, result)`` may return counts to attach to the span; it
        runs after the span has ended. A name the module lacks is skipped.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if observe is not None:
                span.attrs = observe(args, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        """Put back every attribute :meth:`wrap` replaced."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0
        edge = span.start_ns
        for kid in sorted(kids, key=lambda k: k.start_ns):
            lo = max(kid.start_ns, edge)
            hi = min(kid.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result.append(span.duration_ns - covered)
    return result
