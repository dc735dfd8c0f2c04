"""Dapper-style span tracing: thread-local contexts, a bounded span ring.

One request served through the gateway touches half a dozen layers —
enqueue, batch formation, tier routing, encode, forward — and when the
autopilot makes a wrong call the question is always *where did that
request's time go*.  A :class:`Span` is one named, timed block; spans
sharing a ``trace_id`` form one request's tree; the :class:`Tracer` owns
the thread-local context stack that links them without any layer passing
ids around explicitly.

Three properties drive the design:

* **off-by-default-cheap** — a disabled tracer answers every
  :meth:`Tracer.span` call with one shared no-op context manager, so the
  hot path pays one branch and nothing else;
* **cross-thread propagation** — a :class:`SpanContext` is a picklable
  (trace_id, span_id) pair that rides on queue items, letting the
  gateway's worker threads continue traces their submitters started;
* **batch fan-out** — one model batch serves many requests, so
  :meth:`Tracer.span_fanout` measures the block once and exports one span
  *per participating trace*, keeping every request's trace complete.

Each span goes to the bounded in-memory :class:`SpanRing` the moment it
ends; the ring backs ``GET /trace/<id>``.
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
import time
from collections import deque
from typing import Callable, Sequence

# Ids are a random per-process base plus an atomic counter: unique within
# a process, different across processes, and ~2.5x cheaper to mint than
# formatting fresh random bits (several ids are minted per request).
_ID_COUNTER = itertools.count(random.getrandbits(64) << 20)


def _new_id() -> str:
    """A unique hex id (span or trace)."""
    return hex(next(_ID_COUNTER))


class SpanContext:
    """A picklable (trace_id, span_id) pair that crosses thread boundaries."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


class Span:
    """One finished, named, timed block inside a trace.

    A span measuring a *shared* block (one model batch serving many
    requests) is exported once under its first trace and carries the
    remaining ``(trace_id, span_id, parent_id)`` identities in ``links``
    — readers (:meth:`SpanRing.trace`) expand links back into complete
    per-trace views, so export cost stays O(1) per measured block
    instead of O(batch size).
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "start_s", "end_s",
        "attrs", "links",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start_s: float,
        end_s: float,
        attrs: dict | None = None,
        links: tuple = (),
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.attrs = attrs or {}
        self.links = links

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def in_trace(self, trace_id: str) -> "Span | None":
        """This span's view inside ``trace_id`` (resolving links), or None."""
        if self.trace_id == trace_id:
            return self
        for link_trace, span_id, parent_id in self.links:
            if link_trace == trace_id:
                return Span(
                    link_trace, span_id, parent_id, self.name,
                    self.start_s, self.end_s, self.attrs,
                )
        return None

    def to_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }
        if self.links:
            out["links"] = [list(link) for link in self.links]
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"{self.duration_s * 1000:.3f}ms)"
        )


class SpanRing:
    """Bounded in-memory span history, indexable by trace id.

    Lock-free on the write path: ``deque.append`` with a ``maxlen`` is
    atomic under CPython's GIL (deques document thread-safe appends), so
    exporting a span costs one method call.  Readers copy the deque and
    retry on the rare concurrent-mutation error instead of making every
    export pay for a lock.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._spans: deque[Span] = deque(maxlen=capacity)

    def export(self, span: Span) -> None:
        self._spans.append(span)

    def spans(self) -> list[Span]:
        while True:
            try:
                return list(self._spans)
            except RuntimeError:  # deque mutated mid-copy; just retry
                continue

    def trace(self, trace_id: str) -> list[Span]:
        """Every retained span of one trace (links resolved), start order."""
        matched = []
        for span in self.spans():
            view = span.in_trace(trace_id)
            if view is not None:
                matched.append(view)
        matched.sort(key=lambda s: s.start_s)
        return matched

    def trace_ids(self) -> list[str]:
        """Distinct trace ids still in the ring, oldest first."""
        seen: list[str] = []
        for span in self.spans():
            if span.trace_id not in seen:
                seen.append(span.trace_id)
            for link_trace, _, _ in span.links:
                if link_trace not in seen:
                    seen.append(link_trace)
        return seen

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


class _NoopSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None

    @property
    def context(self) -> None:
        return None

    @property
    def trace_id(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """One in-flight logical span, possibly fanned out over many traces.

    ``_links`` holds one ``(trace_id, span_id, parent_id)`` triple per
    participating trace; on exit the span is exported once per triple
    with identical name/timing/attrs, so every trace's tree is complete
    even when the measured block (a model batch) was shared.
    """

    __slots__ = ("_tracer", "name", "attrs", "start_s", "_links")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        links: list[tuple[str, str, str | None]],
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start_s = tracer.clock()
        self._links = links

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)
        if exc is not None:
            self.attrs["error"] = f"{type(exc).__name__}: {exc}"
        end = self._tracer.clock()
        # One export regardless of fan-out: the first link is the span's
        # primary identity, the rest travel as links and are expanded by
        # readers.  Export cost is O(1) per measured block, not O(batch).
        trace_id, span_id, parent_id = self._links[0]
        self._tracer.ring.export(
            Span(
                trace_id, span_id, parent_id, self.name,
                self.start_s, end, self.attrs,
                links=tuple(self._links[1:]) if len(self._links) > 1 else (),
            )
        )

    # -- introspection while active ------------------------------------
    def set(self, **attrs) -> None:
        """Attach attributes to the span while it is still open."""
        self.attrs.update(attrs)

    @property
    def context(self) -> SpanContext:
        """The (first) context children should parent to."""
        trace_id, span_id, _ = self._links[0]
        return SpanContext(trace_id, span_id)

    @property
    def contexts(self) -> list[SpanContext]:
        return [SpanContext(t, s) for t, s, _ in self._links]

    @property
    def trace_id(self) -> str:
        return self._links[0][0]


class Tracer:
    """Thread-local span stack + a span ring, with a kill switch.

    ``enabled`` starts ``False``: every tracing call site costs one branch
    until someone turns the tracer on (``repro.obs.enable()``).  ``clock``
    is injectable for deterministic tests and defaults to
    ``time.monotonic`` so span timestamps line up with the serving
    layer's queue timestamps.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        capacity: int = 4096,
    ) -> None:
        self.enabled = False
        self.clock = clock
        # Dapper-style head sampling: a *new trace* is started for only
        # one in every ``sample_every`` requests (1 = trace everything).
        # The decision is made once, at the root — children, fan-outs,
        # and records all follow the root's fate via its context.
        self.sample_every = 1
        self._sample_counter = itertools.count()
        self.ring = SpanRing(capacity)
        self._local = threading.local()

    def _sampled(self) -> bool:
        """Whether the next new trace should be recorded."""
        every = self.sample_every
        return every <= 1 or next(self._sample_counter) % every == 0

    # ------------------------------------------------------------------
    # Context stack
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: _ActiveSpan) -> None:
        self._stack().append(span)

    def _pop(self, span: _ActiveSpan) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> SpanContext | None:
        """The innermost active span's context on this thread, if any."""
        stack = self._stack()
        return stack[-1].context if stack else None

    def current_trace_id(self) -> str | None:
        stack = self._stack()
        return stack[-1].trace_id if stack else None

    # ------------------------------------------------------------------
    # Starting spans
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        ctx: SpanContext | None = None,
        root: bool = False,
        child_only: bool = False,
        **attrs,
    ):
        """Open one span as a context manager.

        Parent resolution: an explicit ``ctx`` wins; ``root=True`` forces
        a fresh trace; otherwise the innermost active span on this thread
        is the parent (fanned-out parents fan the child out too).  With
        no parent at all a new trace starts — unless ``child_only=True``,
        which makes the span a no-op instead (for sub-operations like
        encode/forward that should never originate traces themselves).
        New traces respect ``sample_every``.
        """
        if not self.enabled:
            return NOOP_SPAN
        if ctx is not None:
            links = [(ctx.trace_id, _new_id(), ctx.span_id)]
        elif root:
            if not self._sampled():
                return NOOP_SPAN
            links = [(_new_id(), _new_id(), None)]
        else:
            stack = self._stack()
            if stack:
                # One minted id shared across links: span ids only need
                # to be unique within a trace, and each link lands in a
                # different trace.
                new_id = _new_id()
                links = [
                    (trace_id, new_id, span_id)
                    for trace_id, span_id, _ in stack[-1]._links
                ]
            elif child_only:
                return NOOP_SPAN
            else:
                if not self._sampled():
                    return NOOP_SPAN
                links = [(_new_id(), _new_id(), None)]
        return _ActiveSpan(self, name, links, attrs)

    def span_fanout(
        self, name: str, parents: Sequence[SpanContext | None], **attrs
    ):
        """One measured block, exported into every parent's trace.

        ``None`` parents (requests submitted while tracing was off or
        sampled out) are skipped; with no live parent at all the whole
        block is a no-op — a shared block never originates traces.
        """
        if not self.enabled:
            return NOOP_SPAN
        live = [p for p in parents if p is not None]
        if not live:
            return NOOP_SPAN
        new_id = _new_id()
        links = [(p.trace_id, new_id, p.span_id) for p in live]
        return _ActiveSpan(self, name, links, attrs)

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        ctx: SpanContext | None = None,
        **attrs,
    ) -> Span | None:
        """Export one already-timed span (e.g. queue wait) directly."""
        if not self.enabled or ctx is None:
            return None
        span = Span(ctx.trace_id, _new_id(), ctx.span_id, name, start_s, end_s, attrs)
        self.ring.export(span)
        return span


# ----------------------------------------------------------------------
# The process-global tracer and its conveniences
# ----------------------------------------------------------------------
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented layer reports to."""
    return _TRACER


def span(name: str, **attrs):
    """Contextmanager form over the global tracer: ``with span("x"): ...``."""
    return _TRACER.span(name, **attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form: ``@traced("gateway.enqueue")`` (late-binding).

    The tracer's enabled flag is consulted at *call* time, so decorating
    at import time costs nothing while tracing is off.
    """

    def decorate(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _TRACER.span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def current_trace_id() -> str | None:
    """The trace id of the innermost active span on this thread, if any."""
    return _TRACER.current_trace_id()
