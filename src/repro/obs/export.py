"""Exports: JSONL trace dumps, Prometheus-style text, snapshot diffs.

Everything here renders from sorted keys and sequential ids, so a seeded
run exports byte-identical artifacts (the determinism tests compare the
raw strings, not parsed structures).
"""

from __future__ import annotations

import json
from typing import Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Observability
    from .tracing import Tracer

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------
def trace_records(tracer: "Tracer") -> List[dict]:
    """All spans (in span-id order) followed by all events (in time order)."""

    records = []
    for span in sorted(tracer.spans, key=lambda item: item.span_id):
        records.append(
            {
                "kind": "span",
                "name": span.name,
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "links": [list(link) for link in span.links],
                "node": span.node,
                "start": round(span.start, 9),
                "end": round(span.end, 9) if span.end is not None else None,
                "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
            }
        )
    records.extend(tracer.events)
    return records


def trace_jsonl(tracer: "Tracer") -> str:
    """One JSON object per line; byte-identical across same-seed runs."""

    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in trace_records(tracer)
    )


# ----------------------------------------------------------------------
# Metrics export
# ----------------------------------------------------------------------
def metrics_snapshot(observability: "Observability") -> Dict[str, dict]:
    """``{registry name: registry.snapshot()}`` with sorted registry names."""

    return {
        name: registry.snapshot()
        for name, registry in sorted(observability.registries.items())
    }


def prometheus_text(observability: "Observability") -> str:
    """A Prometheus-exposition-style text snapshot of every registry.

    Registry names become a ``node`` label so one scrape covers the fleet.
    Histograms are rendered as the conventional ``_bucket``/``_sum``/
    ``_count`` triplet plus exact ``_p50``/``_p90``/``_p99`` gauges (which
    a real Prometheus cannot provide — the sim can, so it does).
    """

    lines: List[str] = []
    for name, registry in sorted(observability.registries.items()):
        snapshot = registry.snapshot()
        for metric, value in snapshot["counters"].items():
            lines.append(f'{_merge_label(metric, name)} {_fmt(value)}')
        for metric, value in snapshot["gauges"].items():
            lines.append(f'{_merge_label(metric, name)} {_fmt(value)}')
        for metric, summary in snapshot["histograms"].items():
            base, labels = _split_metric(metric)
            for suffix in ("count", "sum", "p50", "p90", "p99"):
                rendered = _render_metric(f"{base}_{suffix}", labels, name)
                lines.append(f"{rendered} {_fmt(summary[suffix])}")
    return "\n".join(lines) + "\n" if lines else ""


def diff_snapshots(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, dict]:
    """Numeric deltas between two :func:`metrics_snapshot` results.

    Returns only what changed — new instruments appear at full value,
    untouched ones are omitted.  Histograms diff on their ``count``/``sum``
    (percentiles are not subtractable).
    """

    delta: Dict[str, dict] = {}
    for registry_name in sorted(after):
        after_reg = after[registry_name]
        before_reg = before.get(registry_name, {})
        reg_delta: Dict[str, dict] = {}
        for family in ("counters", "gauges"):
            family_delta = {}
            previous = before_reg.get(family, {})
            for metric, value in after_reg.get(family, {}).items():
                change = value - previous.get(metric, 0)
                if change:
                    family_delta[metric] = change
            if family_delta:
                reg_delta[family] = family_delta
        hist_delta = {}
        previous = before_reg.get("histograms", {})
        for metric, summary in after_reg.get("histograms", {}).items():
            old = previous.get(metric, {"count": 0, "sum": 0.0})
            change = {
                "count": summary["count"] - old["count"],
                "sum": summary["sum"] - old["sum"],
            }
            if change["count"] or change["sum"]:
                hist_delta[metric] = change
        if hist_delta:
            reg_delta["histograms"] = hist_delta
        if reg_delta:
            delta[registry_name] = reg_delta
    return delta


# ----------------------------------------------------------------------
# Recordings (what `python -m repro.obs.report` consumes)
# ----------------------------------------------------------------------
def recording(observability: "Observability") -> dict:
    """A self-contained, JSON-serialisable capture of one run."""

    return {
        "schema": SCHEMA_VERSION,
        "metrics": metrics_snapshot(observability),
        "trace": trace_records(observability.tracer),
    }


def write_recording(observability: "Observability", path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recording(observability), handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_recording(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported recording schema {data.get('schema')!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    return data


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(round(value, 9))
    return str(int(value))


def _split_metric(metric: str):
    if "{" not in metric:
        return metric, ""
    base, _, labels = metric.partition("{")
    return base, labels[:-1]


def _render_metric(base: str, labels: str, registry_name: str) -> str:
    node_label = f'node="{registry_name}"'
    merged = f"{node_label},{labels}" if labels else node_label
    return f"{base}{{{merged}}}"


def _merge_label(metric: str, registry_name: str) -> str:
    base, labels = _split_metric(metric)
    return _render_metric(base, labels, registry_name)
