"""Unit tests for repro.obs.metrics: instruments, labels, registry."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)


@pytest.fixture
def registry():
    r = MetricsRegistry()
    r.enabled = True
    return r


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_accumulates_per_label_combination(registry):
    c = registry.counter("requests_total", "reqs", labels=("tier", "result"))
    c.inc(tier="large", result="ok")
    c.inc(2.5, tier="large", result="ok")
    c.inc(tier="small", result="error")
    assert c.value(tier="large", result="ok") == 3.5
    assert c.value(tier="small", result="error") == 1.0
    assert c.value(tier="small", result="ok") == 0.0
    assert c.samples() == [
        (("large", "ok"), 3.5),
        (("small", "error"), 1.0),
    ]


def test_counter_rejects_decrease(registry):
    c = registry.counter("ops_total")
    with pytest.raises(ObservabilityError):
        c.inc(-1)


def test_counter_label_values_coerced_to_str(registry):
    c = registry.counter("sized_total", labels=("size",))
    c.inc(size=32)
    assert c.value(size="32") == 1.0


def test_disabled_registry_drops_observations():
    r = MetricsRegistry()
    c = r.counter("quiet_total")
    g = r.gauge("quiet")
    h = r.histogram("quiet_s")
    c.inc()
    g.set(5)
    h.observe(1.0)
    h.observe_many([1.0, 2.0])
    assert c.value() == 0.0
    assert g.value() == 0.0
    assert h.value()["count"] == 0


def test_label_strictness(registry):
    c = registry.counter("strict_total", labels=("tier",))
    with pytest.raises(ObservabilityError):
        c.inc()  # missing
    with pytest.raises(ObservabilityError):
        c.inc(role="stable")  # wrong name
    with pytest.raises(ObservabilityError):
        c.inc(tier="large", role="stable")  # extra
    unlabeled = registry.counter("plain_total")
    with pytest.raises(ObservabilityError):
        unlabeled.inc(tier="large")


# ----------------------------------------------------------------------
# Gauge
# ----------------------------------------------------------------------
def test_gauge_set_inc_dec(registry):
    g = registry.gauge("queue_depth", labels=("tier",))
    g.set(5, tier="large")
    g.inc(2, tier="large")
    g.dec(tier="large")
    assert g.value(tier="large") == 6.0
    g.set(0.5, tier="large")
    assert g.value(tier="large") == 0.5


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_exponential_buckets_shape():
    b = exponential_buckets(0.001, 2.0, 4)
    assert b == (0.001, 0.002, 0.004, 0.008)
    for bad in [(0, 2, 4), (0.001, 1.0, 4), (0.001, 2.0, 0)]:
        with pytest.raises(ObservabilityError):
            exponential_buckets(*bad)


def test_histogram_places_observations(registry):
    h = registry.histogram("latency_s", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.1, 0.5, 2.0, 100.0):
        h.observe(v)
    snap = h.value()
    # bisect_left: a value equal to a bound lands in that bound's bucket.
    assert snap["buckets"] == [2, 1, 1, 1]  # last slot is +Inf overflow
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(102.65)


def test_histogram_unseen_labels_are_zero(registry):
    h = registry.histogram("empty_s", labels=("tier",), buckets=(1.0,))
    assert h.value(tier="ghost") == {"count": 0, "sum": 0.0, "buckets": [0, 0]}


def test_observe_many_matches_observe_loop(registry):
    values = [0.05, 0.3, 0.3, 4.0, 99.0]
    one = registry.histogram("one_s", labels=("tier",), buckets=(0.1, 1.0, 10.0))
    many = registry.histogram("many_s", labels=("tier",), buckets=(0.1, 1.0, 10.0))
    for v in values:
        one.observe(v, tier="large")
    many.observe_many(values, tier="large")
    assert one.value(tier="large") == many.value(tier="large")
    many.observe_many([], tier="large")  # no-op, no new series surprises
    assert many.value(tier="large")["count"] == len(values)


def test_histogram_rejects_unsorted_buckets(registry):
    for bad in [(1.0, 0.5), (1.0, 1.0, 2.0)]:
        with pytest.raises(ObservabilityError):
            registry.histogram(f"bad_{len(bad)}_s", buckets=bad)


@pytest.mark.parametrize("n", [1, 7, 100, 5000])
@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_quantile_is_within_one_bucket_of_nearest_rank(registry, n, q):
    step = 2**0.25
    h = registry.histogram(
        "q_s", labels=("tier",), buckets=exponential_buckets(1e-4, step, 72)
    )
    x = np.random.default_rng(n).lognormal(mean=math.log(0.005), sigma=1.0, size=n)
    h.observe_many(x.tolist(), tier="t")
    # Nearest rank, not np.percentile: interpolating between sparse tail
    # samples is not what a bucket estimate approximates.
    exact = sorted(x)[math.ceil(q * n) - 1]
    estimate = h.quantile(q, tier="t")
    assert exact / step < estimate < exact * step


def test_quantile_of_an_empty_series_is_zero(registry):
    h = registry.histogram("none_s", labels=("tier",), buckets=(0.1, 1.0))
    assert h.quantile(0.99, tier="ghost") == 0.0


def test_quantile_in_the_overflow_bucket_is_the_last_bound(registry):
    h = registry.histogram("over_s", buckets=(0.1, 1.0))
    h.observe_many([0.05, 50.0, 60.0])
    assert h.quantile(0.99) == 1.0
    assert h.quantile(0.2) == pytest.approx(0.06)  # 0.6 of the first bucket
    with pytest.raises(ObservabilityError):
        h.quantile(1.5)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_get_or_create_is_idempotent(registry):
    a = registry.counter("same_total", "first", labels=("tier",))
    b = registry.counter("same_total", "second", labels=("tier",))
    assert a is b
    assert registry.get("same_total") is a
    assert registry.get("missing") is None


def test_kind_and_label_conflicts_raise(registry):
    registry.counter("conflict_total", labels=("tier",))
    with pytest.raises(ObservabilityError):
        registry.gauge("conflict_total")
    with pytest.raises(ObservabilityError):
        registry.counter("conflict_total", labels=("role",))


def test_histogram_bucket_conflict_raises(registry):
    h = registry.histogram("bounded_s", buckets=(1, 2))
    assert registry.histogram("bounded_s", buckets=(1.0, 2.0)) is h
    with pytest.raises(ObservabilityError, match="buckets"):
        registry.histogram("bounded_s", buckets=(5,))
    with pytest.raises(ObservabilityError, match="buckets"):
        registry.histogram("bounded_s")  # the default buckets differ too


def test_snapshot_is_jsonable_and_ordered(registry):
    registry.counter("first_total", "a").inc(3)
    registry.gauge("second", "b", labels=("tier",)).set(1, tier="x")
    registry.histogram("third_s", "c", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert [e["name"] for e in snap] == ["first_total", "second", "third_s"]
    assert snap[0]["samples"] == [{"labels": {}, "value": 3.0}]
    assert snap[1]["samples"] == [{"labels": {"tier": "x"}, "value": 1.0}]
    assert snap[2]["buckets"] == [1.0]
    assert snap[2]["samples"][0]["value"]["count"] == 1


def test_reset_zeroes_but_keeps_instruments(registry):
    c = registry.counter("kept_total")
    c.inc(5)
    registry.reset()
    assert registry.get("kept_total") is c
    assert c.value() == 0.0


def test_counter_is_thread_safe(registry):
    c = registry.counter("contended_total", labels=("tier",))
    n, per = 8, 500

    def hammer() -> None:
        for _ in range(per):
            c.inc(tier="large")

    threads = [threading.Thread(target=hammer) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value(tier="large") == n * per


def test_instrument_classes_report_their_kind(registry):
    assert isinstance(registry.counter("k_total"), Counter)
    assert isinstance(registry.gauge("k_gauge"), Gauge)
    assert isinstance(registry.histogram("k_s"), Histogram)
    assert (
        registry.get("k_total").kind,
        registry.get("k_gauge").kind,
        registry.get("k_s").kind,
    ) == ("counter", "gauge", "histogram")
