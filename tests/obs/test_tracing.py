"""Unit tests for repro.obs.trace: spans, rings, sampling, fan-out."""

from __future__ import annotations

import threading

import pytest

import repro.obs as obs
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    SpanRing,
    Tracer,
    _new_id,
)

from tests.helpers import obs_activated, obs_active


class FakeClock:
    """A deterministic clock that advances one tick per call."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture
def tracer():
    t = Tracer(clock=FakeClock(), capacity=64)
    t.enabled = True
    return t


# ----------------------------------------------------------------------
# Span & SpanContext
# ----------------------------------------------------------------------
def test_span_duration_and_dict():
    span = Span("t1", "s1", None, "work", 1.0, 3.5, {"tier": "large"})
    assert span.duration_s == 2.5
    d = span.to_dict()
    assert d["trace_id"] == "t1" and d["parent_id"] is None
    assert d["duration_s"] == 2.5 and d["attrs"] == {"tier": "large"}
    assert "links" not in d  # only present when the span fanned out


def test_span_links_serialized_and_resolved():
    span = Span(
        "t1", "s1", "p1", "batch", 0.0, 1.0,
        links=(("t2", "s2", "p2"),),
    )
    assert span.to_dict()["links"] == [["t2", "s2", "p2"]]
    # in_trace: primary identity, linked identity, absent trace.
    assert span.in_trace("t1") is span
    view = span.in_trace("t2")
    assert (view.trace_id, view.span_id, view.parent_id) == ("t2", "s2", "p2")
    assert view.name == "batch" and view.duration_s == 1.0
    assert span.in_trace("t9") is None


def test_new_ids_are_unique():
    ids = {_new_id() for _ in range(1000)}
    assert len(ids) == 1000


def test_span_context_repr_roundtrip():
    ctx = SpanContext("abc", "def")
    assert "abc" in repr(ctx) and "def" in repr(ctx)


# ----------------------------------------------------------------------
# SpanRing
# ----------------------------------------------------------------------
def test_ring_bounded_and_ordered():
    ring = SpanRing(capacity=3)
    for i in range(5):
        ring.export(Span(f"t{i}", "s", None, "op", float(i), float(i)))
    assert len(ring) == 3
    assert [s.trace_id for s in ring.spans()] == ["t2", "t3", "t4"]
    ring.clear()
    assert len(ring) == 0 and ring.trace_ids() == []


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SpanRing(capacity=0)


def test_ring_trace_resolves_links_and_sorts():
    ring = SpanRing()
    ring.export(Span("t1", "child", "root", "late", 5.0, 6.0))
    ring.export(
        Span("tX", "shared", "pX", "batch", 1.0, 2.0,
             links=(("t1", "shared", "root"),))
    )
    ring.export(Span("t1", "root", None, "enqueue", 0.0, 7.0))
    spans = ring.trace("t1")
    assert [s.name for s in spans] == ["enqueue", "batch", "late"]
    batch = spans[1]
    assert batch.trace_id == "t1" and batch.parent_id == "root"
    assert set(ring.trace_ids()) == {"t1", "tX"}


# ----------------------------------------------------------------------
# Disabled tracer / no-op span
# ----------------------------------------------------------------------
def test_disabled_tracer_hands_out_the_shared_noop():
    t = Tracer()
    assert not t.enabled
    span = t.span("anything", tier="large")
    assert span is NOOP_SPAN
    with span as s:
        s.set(ignored=True)
        assert s.context is None and s.trace_id is None
    assert len(t.ring) == 0
    assert t.record("x", 0.0, 1.0, ctx=SpanContext("a", "b")) is None
    assert t.span_fanout("x", [SpanContext("a", "b")]) is NOOP_SPAN


# ----------------------------------------------------------------------
# Parent resolution
# ----------------------------------------------------------------------
def test_nested_spans_share_a_trace(tracer):
    with tracer.span("outer") as outer:
        assert tracer.current_trace_id() == outer.trace_id
        with tracer.span("inner") as inner:
            assert inner.trace_id == outer.trace_id
    spans = tracer.ring.trace(outer.trace_id)
    assert [s.name for s in spans] == ["outer", "inner"]
    inner_span = spans[1]
    assert inner_span.parent_id == outer.context.span_id
    assert spans[0].parent_id is None
    assert tracer.current() is None  # stack fully unwound


def test_explicit_ctx_wins_over_stack(tracer):
    foreign = SpanContext("foreign-trace", "foreign-span")
    with tracer.span("outer"):
        with tracer.span("adopted", ctx=foreign) as child:
            assert child.trace_id == "foreign-trace"
    adopted = tracer.ring.trace("foreign-trace")[0]
    assert adopted.parent_id == "foreign-span"


def test_root_forces_a_fresh_trace(tracer):
    with tracer.span("outer") as outer:
        with tracer.span("tick", root=True) as fresh:
            assert fresh.trace_id != outer.trace_id
            assert fresh.context.span_id != outer.context.span_id


def test_child_only_without_parent_is_noop(tracer):
    assert tracer.span("encode", child_only=True) is NOOP_SPAN
    with tracer.span("parent") as parent:
        with tracer.span("encode", child_only=True) as child:
            assert child.trace_id == parent.trace_id
    assert len(tracer.ring) == 2


def test_exception_lands_in_attrs(tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("bad batch")
    span = tracer.ring.spans()[-1]
    assert span.attrs["error"] == "RuntimeError: bad batch"


def test_set_attaches_attrs_while_open(tracer):
    with tracer.span("op", tier="large") as span:
        span.set(batch_size=32)
    exported = tracer.ring.spans()[-1]
    assert exported.attrs == {"tier": "large", "batch_size": 32}


def test_injected_clock_times_spans(tracer):
    with tracer.span("timed"):
        pass
    span = tracer.ring.spans()[-1]
    assert span.end_s - span.start_s == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def test_head_sampling_thins_new_traces(tracer):
    tracer.sample_every = 4
    kept = 0
    for _ in range(16):
        with tracer.span("request", root=True) as span:
            if span is not NOOP_SPAN:
                kept += 1
    assert kept == 4
    assert len(tracer.ring.trace_ids()) == 4


def test_children_follow_the_root_sampling_fate(tracer):
    tracer.sample_every = 2
    for _ in range(4):
        with tracer.span("request", root=True):
            # A sampled-out root leaves the stack empty, so the
            # child-only sub-operation is a no-op too.
            with tracer.span("encode", child_only=True):
                pass
    names = [s.name for s in tracer.ring.spans()]
    assert names.count("request") == 2 and names.count("encode") == 2


def test_explicit_ctx_bypasses_sampling(tracer):
    tracer.sample_every = 1000
    ctx = SpanContext("kept-trace", "kept-span")
    with tracer.span("continuation", ctx=ctx):
        pass
    assert tracer.ring.trace("kept-trace")


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
def test_fanout_exports_once_with_links(tracer):
    with tracer.span("a") as a:
        ctx_a = a.context
    with tracer.span("b") as b:
        ctx_b = b.context
    with tracer.span_fanout("batch", [ctx_a, None, ctx_b], size=2):
        pass
    # One physical span, complete views in both traces.
    batch_spans = [s for s in tracer.ring.spans() if s.name == "batch"]
    assert len(batch_spans) == 1
    assert len(batch_spans[0].links) == 1
    for ctx in (ctx_a, ctx_b):
        (view,) = [
            s for s in tracer.ring.trace(ctx.trace_id) if s.name == "batch"
        ]
        assert view.parent_id == ctx.span_id
        assert view.attrs == {"size": 2}


def test_fanout_with_no_live_parent_is_noop(tracer):
    assert tracer.span_fanout("batch", [None, None]) is NOOP_SPAN
    assert tracer.span_fanout("batch", []) is NOOP_SPAN
    assert len(tracer.ring) == 0


def test_child_of_fanned_out_parent_fans_out_too(tracer):
    with tracer.span("a") as a:
        ctx_a = a.context
    with tracer.span("b") as b:
        ctx_b = b.context
    with tracer.span_fanout("batch", [ctx_a, ctx_b]):
        with tracer.span("replica.serve"):
            pass
    for ctx in (ctx_a, ctx_b):
        names = [s.name for s in tracer.ring.trace(ctx.trace_id)]
        assert "replica.serve" in names


# ----------------------------------------------------------------------
# record() — pre-timed spans (queue waits)
# ----------------------------------------------------------------------
def test_record_exports_a_finished_span(tracer):
    with tracer.span("root") as root:
        ctx = root.context
    span = tracer.record("queue.wait", 10.0, 12.0, ctx=ctx, tier="small")
    assert span.duration_s == 2.0 and span.parent_id == ctx.span_id
    assert span.attrs == {"tier": "small"}
    assert tracer.record("queue.wait", 0.0, 1.0, ctx=None) is None


def test_spans_land_in_the_ring_installed_now(tracer):
    """The ring is the tracer's one sink: a caller that wants its own span
    history swaps ``tracer.ring``, and every way a span ends lands there."""
    with tracer.span("before"):
        pass
    mine = tracer.ring = SpanRing(8)
    with tracer.span("root") as root:
        ctx = root.context
    with tracer.span_fanout("batch", [ctx]):
        pass
    tracer.record("queue.wait", 0.0, 1.0, ctx=ctx)
    assert [s.name for s in mine.spans()] == ["root", "batch", "queue.wait"]


# ----------------------------------------------------------------------
# Cross-thread propagation
# ----------------------------------------------------------------------
def test_context_crosses_threads(tracer):
    with tracer.span("submit") as root:
        ctx = root.context
    done = threading.Event()

    def worker() -> None:
        with tracer.span("serve", ctx=ctx):
            pass
        done.set()

    threading.Thread(target=worker).start()
    assert done.wait(timeout=5)
    names = [s.name for s in tracer.ring.trace(ctx.trace_id)]
    assert names == ["submit", "serve"]


def test_stacks_are_thread_local(tracer):
    seen: dict[str, str | None] = {}

    def worker() -> None:
        seen["other"] = tracer.current_trace_id()

    with tracer.span("main-only"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        seen["main"] = tracer.current_trace_id()
    assert seen["other"] is None
    assert seen["main"] is not None


# ----------------------------------------------------------------------
# Module-level conveniences against the global tracer
# ----------------------------------------------------------------------
def test_traced_decorator_is_late_binding():
    calls = []

    @obs.traced("custom.name", kind="test")
    def work(x):
        calls.append(obs.current_trace_id())
        return x + 1

    assert work(1) == 2  # tracing off: no span, still runs
    assert calls == [None]
    with obs_activated():
        assert work(2) == 3
        span = obs.get_tracer().ring.spans()[-1]
        assert span.name == "custom.name" and span.attrs == {"kind": "test"}
        assert calls[-1] == span.trace_id


def test_traced_default_label_is_qualname():
    @obs.traced()
    def some_function():
        return None

    with obs_activated():
        some_function()
        assert "some_function" in obs.get_tracer().ring.spans()[-1].name


def test_module_level_span_uses_global_tracer():
    with obs_activated():
        with obs.span("global.op") as span:
            assert obs.current_trace_id() == span.trace_id
        assert obs.get_tracer().ring.trace(span.trace_id)


# ----------------------------------------------------------------------
# The global switch
# ----------------------------------------------------------------------
def test_enable_disable_flip_both_pillars():
    tracer, registry = obs.get_tracer(), obs.get_registry()
    assert not obs_active()
    obs.enable(sample_every=8)
    try:
        assert tracer.enabled and registry.enabled and obs_active()
        assert tracer.sample_every == 8
    finally:
        obs.disable()
    assert not tracer.enabled and not registry.enabled


def test_activated_restores_state_and_clears_data():
    tracer, registry = obs.get_tracer(), obs.get_registry()
    tracer.sample_every = 7
    with obs_activated():
        assert tracer.enabled and tracer.sample_every == 1
        with obs.span("scoped"):
            pass
        registry.counter("obs_test_scoped_total").inc()
        assert len(tracer.ring) == 1
    assert not tracer.enabled and not registry.enabled
    assert tracer.sample_every == 7
    assert len(tracer.ring) == 0
    assert registry.get("obs_test_scoped_total").value() == 0.0
    tracer.sample_every = 1
