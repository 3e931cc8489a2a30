"""In-memory span tracer that wraps kgte's public functions from outside.

``Tracer.install`` replaces each traced function in every ``kgte`` module
namespace that holds it (``top_k`` lives in ``vector_index`` but is called
through ``retriever`` and ``evaluation``), so calls made inside the package
are recorded too. Spans keep name, start, end, parent and thread; parents
are tracked per thread. ``ThreadPoolExecutor`` is replaced in the same
namespaces by a subclass whose tasks start under the submitting thread's
innermost span, so spans opened in generation worker threads nest under the
call that submitted them. ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestor(self, names: frozenset[str]) -> "Span | None":
        span = self.parent
        while span is not None and span.name not in names:
            span = span.parent
        return span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id``): its duration minus the part of
    its interval that its children cover. Children in worker threads may
    overlap each other, so the covered part is the union of their intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    selfs = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(id(span), ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        selfs[id(span)] = span.duration - covered
    return selfs


# called with (args, kwargs, result) after a traced call returns
Hook = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self, name: str) -> Span | None:
        """Innermost open span called ``name`` on the calling thread."""
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    # A span's clock reads are its first and last steps, so the tracer's
    # own bookkeeping falls inside the span rather than in its parent's
    # uncovered time.
    def _open(self, name: str) -> Span:
        start = time.perf_counter()
        stack = self._stack()
        span = Span(name, start, parent=stack[-1] if stack else None, thread=threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack().pop()
        self.spans.append(span)
        span.end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)

        return traced

    def _run_under(self, parent: Span | None, fn: Callable, *args, **kwargs):
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def executor_class(self) -> type:
        """A ``ThreadPoolExecutor`` whose tasks run under the span that was
        innermost on the submitting thread."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                return super().submit(tracer._run_under, stack[-1] if stack else None, fn, *args, **kwargs)

        return TracedExecutor

    def _replace(self, holders, original, replacement) -> None:
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, original))
                    setattr(holder, key, replacement)

    def install(self, targets: list[tuple[object, str, str, Hook | None]]) -> None:
        """Wrap each ``(owner, attribute, span_name, hook)`` target.

        ``owner`` is a module or class. For a module, every loaded ``kgte``
        module that imported the same function object is patched as well.
        Every ``kgte`` module's ``ThreadPoolExecutor`` is replaced by
        ``executor_class()``.
        """
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "kgte" or n.startswith("kgte.")]
        for owner, attribute, name, hook in targets:
            original = getattr(owner, attribute)
            self._replace([owner] if isinstance(owner, type) else namespaces, original, self.wrap(name, original, hook))
        self._replace(namespaces, ThreadPoolExecutor, self.executor_class())

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
