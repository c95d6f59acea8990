"""Unified observability: metrics registries, protocol tracing, reports.

One :class:`Observability` bundle serves an entire simulated deployment.
It is created lazily by :meth:`repro.sim.environment.Environment.\
ensure_observability` the first time a node is built with an enabled
:class:`~repro.common.config.ObservabilityConfig`, and shared by every
node, the network, and the fault injector from then on.

Everything is opt-in.  With the paper-default config nothing in this
package is imported at runtime, ``env.obs`` stays ``None``, and the
instrumented hot paths cost one attribute check — the simulation's event
stream, wire digests, and figure-4/5 metrics are untouched (asserted by
``tests/test_observability.py`` and the chaos overhead scenario).

Submodules:

* :mod:`repro.obs.metrics` — counters/gauges/histograms with exact
  percentiles, plus the :class:`~repro.obs.metrics.StatsDict` shim that
  keeps legacy ``node.stats`` accessors working.
* :mod:`repro.obs.tracing` — causal spans across Phase I/Phase II, 2PC,
  handoff; context rides the network as a sidecar, never in payloads.
* :mod:`repro.obs.export` — deterministic JSONL / Prometheus-text /
  snapshot-diff exports and run recordings.
* :mod:`repro.obs.report` — the fleet health report
  (``python -m repro.obs.report recording.json``).
"""

from __future__ import annotations

from typing import Callable, Dict

from .metrics import MetricsRegistry, StatsDict
from .tracing import SpanContext, Tracer
from . import export as _export

__all__ = [
    "Observability",
    "MetricsRegistry",
    "StatsDict",
    "Tracer",
    "SpanContext",
]


class Observability:
    """Shared tracer + per-subsystem metrics registries for one deployment."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.tracer = Tracer(clock)
        self._registries: Dict[str, MetricsRegistry] = {}

    @property
    def registries(self) -> Dict[str, MetricsRegistry]:
        return self._registries

    def registry_for(self, name: str) -> MetricsRegistry:
        """The named registry, created on first use."""

        registry = self._registries.get(name)
        if registry is None:
            registry = self._registries[name] = MetricsRegistry(name)
        return registry

    # ------------------------------------------------------------------
    # Export conveniences (thin wrappers over :mod:`repro.obs.export`)
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        return _export.metrics_snapshot(self)

    def prometheus_text(self) -> str:
        return _export.prometheus_text(self)

    def trace_jsonl(self) -> str:
        return _export.trace_jsonl(self.tracer)

    def recording(self) -> dict:
        return _export.recording(self)

    def write_recording(self, path) -> None:
        _export.write_recording(self, path)
