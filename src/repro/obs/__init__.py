"""`repro.obs` — zero-dependency tracing, metrics, and exposition.

Three pillars, all off by default and one-branch-cheap while off:

* **tracing** (:mod:`repro.obs.trace`) — thread-local spans with
  cross-thread propagation and batch fan-out, exported to a bounded
  in-memory ring (behind ``GET /trace/<id>``);
* **metrics** (:mod:`repro.obs.metrics`) — a registry of thread-safe
  counters / gauges / fixed-bucket histograms the serve, train, tune,
  and autopilot layers report into;
* **exposition** (:mod:`repro.obs.expo`) — Prometheus text format for
  ``GET /metrics``, plus ``render_spans`` in
  :mod:`repro.monitoring.dashboards` and the ``repro obs`` CLI.

Turn the whole subsystem on with :func:`enable`; the global tracer and
registry share the switch.
"""

from __future__ import annotations

from repro.obs.expo import CONTENT_TYPE, render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    SpanRing,
    Tracer,
    current_trace_id,
    get_tracer,
    span,
    traced,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "SpanRing",
    "Tracer",
    "current_trace_id",
    "disable",
    "enable",
    "exponential_buckets",
    "get_registry",
    "get_tracer",
    "render_prometheus",
    "span",
    "traced",
]


def enable(sample_every: int = 1) -> None:
    """Turn on the global tracer and metrics registry.

    ``sample_every`` is Dapper-style head sampling for *traces*: record
    one new trace per that many started (1 = trace everything).  Metrics
    always cover every request — sampling only thins span export, which
    is what keeps fully-instrumented serving within a few percent of
    uninstrumented throughput.
    """
    tracer = get_tracer()
    tracer.enabled = True
    tracer.sample_every = max(int(sample_every), 1)
    get_registry().enabled = True


def disable() -> None:
    """Turn off the global tracer and metrics registry (data is kept)."""
    get_tracer().enabled = False
    get_registry().enabled = False
