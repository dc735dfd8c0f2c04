"""Thread-safe metrics primitives: counters, gauges, histograms, registry.

The registry is the single mutable surface the rest of the system
reports numbers into — gateway request counts, per-tier latency
histograms, trainer loss, executor cache hits, autopilot promotions.
Everything here is stdlib-only and built around two rules:

* **off-by-default-cheap** — every ``inc``/``set``/``observe`` checks the
  owning registry's ``enabled`` flag first, so a disabled registry costs
  one branch and one attribute load per call site;
* **label sets, not label explosions** — an instrument is declared once
  with a fixed tuple of label *names*; each observation supplies the
  label *values*, and each distinct value combination gets its own
  series, exactly like Prometheus client libraries.

``Histogram`` uses fixed buckets (default: exponential, 1ms–8s) so
observation is O(log buckets) with zero allocation on the hot path, and
rendering (:mod:`repro.obs.expo`) can emit cumulative ``_bucket`` lines
without re-scanning raw samples.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Sequence

from repro.errors import ObservabilityError


def exponential_buckets(start: float = 0.001, factor: float = 2.0, count: int = 14) -> tuple:
    """Bucket upper bounds ``start * factor**i`` — default 1ms .. ~8.2s."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ObservabilityError(
            "exponential_buckets needs start > 0, factor > 1, count >= 1"
        )
    return tuple(start * factor**i for i in range(count))


def _label_key(names: tuple, labels: dict) -> tuple:
    """Map supplied label values onto the declared names, strictly.

    The happy path (right names, right count) avoids building sets —
    this runs on every observation of every labelled instrument.
    """
    if len(labels) == len(names):
        try:
            return tuple(str(labels[n]) for n in names)
        except KeyError:
            pass
    raise ObservabilityError(
        f"expected labels {sorted(names)}, got {sorted(labels)}"
    )


class Counter:
    """A monotonically increasing sum, one series per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Sequence[str], registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._registry = registry
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (default 1) to the series named by ``labels``."""
        if not self._registry.enabled:
            return
        if value < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        key = _label_key(self.labels, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current sum for one label combination (0.0 if never observed)."""
        key = _label_key(self.labels, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[tuple, float]]:
        """All (label_values, value) series, in insertion order."""
        with self._lock:
            return list(self._values.items())

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge:
    """A value that can go up and down, one series per label combination."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Sequence[str], registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._registry = registry
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.labels, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.labels, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels) -> None:
        self.inc(-value, **labels)

    def value(self, **labels) -> float:
        key = _label_key(self.labels, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[tuple, float]]:
        with self._lock:
            return list(self._values.items())

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class _HistogramSeries:
    """Per-label-combination bucket counts plus running sum/count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


def _bounds(buckets: Sequence[float] | None) -> tuple:
    return tuple(buckets) if buckets is not None else exponential_buckets()


class Histogram:
    """Fixed-bucket latency/size distribution, one series per label combo.

    ``buckets`` are finite upper bounds; an implicit ``+Inf`` bucket
    catches overflow. ``observe`` is O(log buckets) via bisect.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str],
        registry: "MetricsRegistry",
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        bounds = _bounds(buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"histogram {name} buckets must be strictly increasing")
        self.buckets = bounds
        self._registry = registry
        self._series: dict[tuple, _HistogramSeries] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the bucket it falls in."""
        if not self._registry.enabled:
            return
        key = _label_key(self.labels, labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
            series.counts[idx] += 1
            series.sum += value
            series.count += 1

    def observe_many(self, values: Sequence[float], **labels) -> None:
        """Record many observations under one label set.

        One label lookup and one lock round-trip for the whole batch —
        this is what keeps per-request latency tracking affordable when
        the gateway completes a 32-request batch at once.
        """
        if not self._registry.enabled or not values:
            return
        key = _label_key(self.labels, labels)
        buckets = self.buckets
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(buckets) + 1)
            counts = series.counts
            total = 0.0
            for value in values:
                counts[bisect_left(buckets, value)] += 1
                total += value
            series.sum += total
            series.count += len(values)

    def value(self, **labels) -> dict:
        """``{"count", "sum", "buckets"}`` for one label combination."""
        key = _label_key(self.labels, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0, "buckets": [0] * (len(self.buckets) + 1)}
            return {"count": series.count, "sum": series.sum, "buckets": list(series.counts)}

    def quantile(self, q: float, **labels) -> float:
        """Estimate the ``q``-quantile of one series from its buckets.

        Prometheus ``histogram_quantile`` semantics: find the bucket that
        holds rank ``q * count`` and interpolate linearly inside it (the
        first bucket's lower edge is 0).  A rank in the ``+Inf`` bucket
        returns the last finite bound; an empty series returns 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} is outside [0, 1]")
        bucket = self.value(**labels)
        rank = q * bucket["count"]
        below = 0
        for i, count in enumerate(bucket["buckets"]):
            if count and below + count >= rank:
                if i == len(self.buckets):
                    return float(self.buckets[-1])
                lower = self.buckets[i - 1] if i else 0.0
                return lower + (self.buckets[i] - lower) * (rank - below) / count
            below += count
        return 0.0

    def samples(self) -> list[tuple[tuple, dict]]:
        with self._lock:
            return [
                (key, {"count": s.count, "sum": s.sum, "buckets": list(s.counts)})
                for key, s in self._series.items()
            ]

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Get-or-create home for every instrument, with a global kill switch.

    Re-registering the same name returns the existing instrument —
    provided kind, labels, and (for histograms) buckets agree — so
    modules can declare their families idempotently at import or
    construction time.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.labels != tuple(labels):
                    raise ObservabilityError(
                        f"metric {name!r} already registered with labels {existing.labels}"
                    )
                if "buckets" in kwargs and existing.buckets != _bounds(kwargs["buckets"]):
                    raise ObservabilityError(
                        f"metric {name!r} already registered with buckets {existing.buckets}"
                    )
                return existing
            instrument = cls(name, help, labels, self, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str):
        """The registered instrument, or None."""
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> list:
        """Every registered instrument, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> list[dict]:
        """A JSON-able dump of every instrument's current series."""
        out = []
        for inst in self.instruments():
            entry = {
                "name": inst.name,
                "type": inst.kind,
                "help": inst.help,
                "labels": list(inst.labels),
                "samples": [
                    {"labels": dict(zip(inst.labels, key)), "value": value}
                    for key, value in inst.samples()
                ],
            }
            if inst.kind == "histogram":
                entry["buckets"] = list(inst.buckets)
            out.append(entry)
        return out

    def reset(self) -> None:
        """Zero every series (instruments stay registered)."""
        for inst in self.instruments():
            inst.reset()


# ----------------------------------------------------------------------
# The process-global registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumented layer reports to."""
    return _REGISTRY
