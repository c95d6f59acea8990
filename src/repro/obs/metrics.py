"""Deterministic per-node metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the unified home for the telemetry that used
to live in ~25 ad-hoc stat dicts.  Design constraints, in order:

* **Determinism.**  Every value is driven by protocol events and simulated
  time — never the wall clock — so two runs of the same seed produce
  byte-identical snapshots (pinned by ``tests/test_observability.py``).
  Snapshot iteration sorts keys; nothing depends on insertion or hash
  order.
* **Cheap when off.**  Nothing here is constructed unless
  :class:`~repro.common.config.ObservabilityConfig` enables observability;
  the instrumented hot paths then guard on a single attribute check.
* **Exact percentiles.**  Histograms keep fixed bucket counts for the
  Prometheus-style view *and* the raw observations, so percentile
  extraction is exact (nearest-rank over the sorted sample), not a bucket
  interpolation.  The simulator's event counts are small enough that
  retaining the sample is free in practice.

Instruments are keyed by ``(name, labels)`` where labels are an ordered
tuple of ``(key, value)`` string pairs — the same identity Prometheus uses.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

_NO_LABELS: LabelKey = ()


def label_key(labels: dict) -> LabelKey:
    """Canonical, hash-order-independent identity of a label set."""

    if not labels:
        return _NO_LABELS
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically growing count.

    A :class:`StatsDict` mirror writes ``value`` directly, so the counter
    tracks the dict's absolute values rather than re-deriving increments.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, window occupancy, backlog)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram bounds (seconds): spans sub-millisecond LAN hops to
#: tens of seconds of outage-widened certification latency.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


class Histogram:
    """Fixed-bucket histogram with exact percentile extraction."""

    __slots__ = ("bounds", "bucket_counts", "_values", "_dirty")

    def __init__(self, bounds: Optional[Iterable[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = tuple(
            bounds if bounds is not None else DEFAULT_BOUNDS
        )
        if any(b >= a for b, a in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        #: One count per bound plus the overflow bucket (``+Inf``).
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._values: list[float] = []
        self._dirty = False

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self._values.append(value)
        self._dirty = True

    def _sorted(self) -> list[float]:
        if self._dirty:
            self._values.sort()
            self._dirty = False
        return self._values

    def percentile(self, fraction: float) -> float:
        """Exact nearest-rank percentile of everything observed so far."""

        ordered = self._sorted()
        if not ordered:
            return 0.0
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def summary(self) -> dict:
        ordered = self._sorted()
        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0] if ordered else 0.0,
            "max": ordered[-1] if ordered else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


def _metric_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """All instruments of one node (or one subsystem, e.g. the network)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> Histogram:
        key = (name, label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A sorted, JSON-friendly view of every instrument."""

        return {
            "counters": {
                _metric_name(name, labels): counter.value
                for (name, labels), counter in sorted(self._counters.items())
            },
            "gauges": {
                _metric_name(name, labels): gauge.value
                for (name, labels), gauge in sorted(self._gauges.items())
            },
            "histograms": {
                _metric_name(name, labels): histogram.summary()
                for (name, labels), histogram in sorted(self._histograms.items())
            },
        }


class StatsDict(dict):
    """A ``stats`` dict that mirrors every assignment into a registry.

    The migration shim behind the "existing accessor names keep working"
    contract: node code (and every test asserting on ``node.stats[...]``)
    keeps reading and writing the plain dict interface, while each
    ``stats[key] = value`` also lands in ``registry.counter(prefix + key)``.
    ``setdefault`` and ``update`` are routed through ``__setitem__``
    explicitly because their C implementations on ``dict`` would bypass the
    override (they are only used to seed zeros, but the mirror should hold
    regardless).

    Only installed when observability is enabled — the default deployment
    keeps a plain ``dict`` and pays nothing.
    """

    def __init__(self, registry: MetricsRegistry, initial=None, prefix: str = "") -> None:
        super().__init__()
        self._registry = registry
        self._prefix = prefix
        #: key -> mirrored Counter, so steady-state writes skip the
        #: registry's (name, labels) resolution — this runs on every
        #: hot-path stat bump when observability is enabled.
        self._mirrors: Dict[object, Counter] = {}
        if initial:
            self.update(initial)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        if isinstance(value, (int, float)):
            mirror = self._mirrors.get(key)
            if mirror is None:
                mirror = self._mirrors[key] = self._registry.counter(
                    self._prefix + str(key)
                )
            mirror.value = value

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return super().__getitem__(key)

    def update(self, *args, **kwargs) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __deepcopy__(self, memo):
        # Snapshotting code may deep-copy node state; the mirror target is
        # observability plumbing, not state — copy the numbers only.
        return dict(self)
