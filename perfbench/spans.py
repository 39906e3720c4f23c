"""In-memory span recorder that wraps public functions of the repro layers.

The benchmark never edits the program: for a traced run it replaces a
fixed list of public functions (methods, classmethods and module
functions) with wrappers that record one :class:`Span` per call, and puts
the originals back afterwards.  Each span holds its name, layer, start
and end (``time.perf_counter``), the span that was open when it started
(its parent), the benchmark request id of the operation it served, and
one optional quantity or note the wrapper extracted from the call.

Self time is a span's *active* time minus the active time of the child
spans that ran inside it.  A synchronous call is active from start to
end.  A coroutine is active only while one of its steps runs: the wrapper
drives the coroutine step by step and adds up those steps, so time spent
suspended (while other asyncio tasks run) is not charged to it.  A child
started in another asyncio task (``asyncio.gather`` sub-tasks) does not
run inside its parent's steps and is not subtracted from it.
"""

from __future__ import annotations

import asyncio
import contextvars
import inspect
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span currently open in this thread / asyncio task
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: benchmark operation id the current code serves (set by the workloads)
REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)

#: ``note(span, args, kwargs, result)`` — pulls a quantity out of a call
Note = Callable[["Span", tuple, dict, Any], None]
#: ``pre(args, kwargs)`` — observation taken before the call, kept as ``extra``
Pre = Callable[[tuple, dict], Any]


class Span:
    """One recorded call into a layer."""

    __slots__ = (
        "name", "layer", "phase", "parent", "request", "task",
        "start", "end", "active", "child", "qty", "extra", "error",
    )

    def __init__(self, name: str, layer: str, phase: str, parent, request, task) -> None:
        self.name = name
        self.layer = layer
        self.phase = phase
        self.parent = parent
        self.request = request
        self.task = task
        self.start = 0.0
        self.end = 0.0
        self.active = 0.0
        self.child = 0.0
        self.qty = 0.0
        self.extra: Any = None
        self.error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.active - self.child)


class _Stepped:
    """Awaitable that drives a coroutine and sums the wall of its steps."""

    __slots__ = ("coro", "active")

    def __init__(self, coro) -> None:
        self.coro = coro
        self.active = 0.0

    def __await__(self):
        coro = self.coro
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            began = perf_counter()
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                self.active += perf_counter() - began
                return stop.value
            except BaseException:
                self.active += perf_counter() - began
                raise
            self.active += perf_counter() - began
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # cancellation etc.: forwarded into the coroutine
                value, error = None, exc


class Recorder:
    """Patches functions, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: label stamped on new spans ("setup" or "timed")
        self.phase = "setup"
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ patching

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        note: Optional[Note] = None,
        pre: Optional[Pre] = None,
    ) -> None:
        """Replace ``owner.attr`` (defined on *owner* itself) by a recording wrapper."""
        original = owner.__dict__[attr]
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrapper(original.__func__, label, layer, note, pre))
        else:
            wrapped = self._wrapper(original, label, layer, note, pre)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(
        self, fn: Callable, label: str, layer: str, note: Optional[Note], pre: Optional[Pre]
    ) -> Callable:
        spans = self.spans
        recorder = self

        if inspect.iscoroutinefunction(fn):

            async def traced_async(*args, **kwargs):
                parent = _CURRENT.get()
                span = Span(label, layer, recorder.phase, parent, REQUEST.get(), asyncio.current_task())
                spans.append(span)
                token = _CURRENT.set(span)
                stepped = _Stepped(fn(*args, **kwargs))
                span.start = perf_counter()
                try:
                    result = await stepped
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    span.end = perf_counter()
                    span.active = stepped.active
                    _CURRENT.reset(token)
                    if parent is not None and parent.task is span.task:
                        parent.child += span.active
                if note is not None:
                    note(span, args, kwargs, result)
                return result

            traced_async.__wrapped__ = fn  # type: ignore[attr-defined]
            return traced_async

        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            span = Span(
                label, layer, recorder.phase, parent, REQUEST.get(),
                parent.task if parent is not None else None,
            )
            spans.append(span)
            if pre is not None:
                span.extra = pre(args, kwargs)
            token = _CURRENT.set(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                span.active = span.end - span.start
                _CURRENT.reset(token)
                if parent is not None:
                    parent.child += span.active
            if note is not None:
                note(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ queries

    def by_name(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        import json

        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                extra = span.extra
                if extra is not None and not isinstance(extra, (int, float, str, list)):
                    extra = list(extra) if isinstance(extra, tuple) else str(extra)
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "layer": span.layer,
                    "phase": span.phase,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "request": span.request,
                    "start": round(span.start, 9),
                    "end": round(span.end, 9),
                    "active": round(span.active, 9),
                    "self": round(span.self_time, 9),
                    "qty": span.qty,
                    "extra": extra,
                    "error": span.error,
                }) + "\n")
