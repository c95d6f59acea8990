"""Causal tracing for protocol phases, propagated outside the payloads.

A :class:`Tracer` records :class:`Span` trees covering the full WedgeChain
round trip — Phase I commit, certify dispatch, cloud verification, edge
absorption, LSMerkle merge, 2PC prepare/decide, shard handoff — plus point
events (fault injections) that attach to whichever span was active when
they fired.

Two properties matter more than feature count:

* **Wire neutrality.**  Trace context never travels inside a message.  The
  network layer carries the sender's active :class:`SpanContext` as a
  sidecar next to each scheduled delivery and re-activates it around the
  receiver's handler, so signed payloads, encoded sizes, wire digests and
  the figure-4/5 metrics are byte-identical with tracing on or off.
* **Determinism.**  Trace and span ids are sequential (``t000001`` /
  ``s000001``), timestamps come from the simulated clock, and the exported
  records are sorted — a seeded run always produces the same JSONL bytes.

The simulator is single-threaded, so "the active span" is a plain stack —
no contextvars or thread locals needed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class SpanContext(NamedTuple):
    """The propagatable identity of a span (what crosses the network)."""

    trace_id: str
    span_id: str


class Span:
    """One timed protocol phase, with a causal parent and optional links.

    ``parent`` is the synchronous/causal ancestor (e.g. the cloud's
    ``certify.cloud`` span parents the edge's ``certify.absorb`` span via
    the delivered reply).  ``links`` are cross-trace references — a batched
    certify dispatch links every Phase I span whose block it carries.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "node", "start", "end", "links", "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        node: Optional[str],
        start: float,
        links: Sequence[SpanContext],
        attrs: dict,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.links = tuple(links)
        self.attrs = attrs

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)


#: Sentinel meaning "inherit whatever span is currently active".
CURRENT = object()


class Tracer:
    """Records spans and events against the simulated clock."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._next_trace = 0
        self._next_span = 0
        self._stack: List[SpanContext] = []
        self.spans: List[Span] = []
        self.events: List[dict] = []
        self._by_span_id: Dict[str, Span] = {}

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def current_context(self) -> Optional[SpanContext]:
        return self._stack[-1] if self._stack else None

    def push(self, ctx: SpanContext) -> None:
        """Activate a remote context (used by the network delivery hop)."""

        self._stack.append(ctx)

    def pop(self) -> None:
        self._stack.pop()

    # ------------------------------------------------------------------
    # Spans and events
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: object = CURRENT,
        node: Optional[str] = None,
        links: Sequence[SpanContext] = (),
        **attrs: object,
    ) -> Span:
        if parent is CURRENT:
            parent = self.current_context()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            self._next_trace += 1
            trace_id = f"t{self._next_trace:06d}"
            parent_id = None
        self._next_span += 1
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{self._next_span:06d}",
            parent_id=parent_id,
            node=node,
            start=self._clock(),
            links=links,
            attrs=attrs,
        )
        self.spans.append(span)
        self._by_span_id[span.span_id] = span
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: object = CURRENT,
        node: Optional[str] = None,
        links: Sequence[SpanContext] = (),
        **attrs: object,
    ):
        """Start a span, make it the active context, finish it on exit."""

        record = self.start_span(name, parent=parent, node=node, links=links, **attrs)
        self._stack.append(record.context)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def event(self, name: str, **attrs: object) -> None:
        """A point-in-time occurrence attributed to the active span (if any).

        Fault injections use this: the injector's send hook runs while the
        sender's span is active, so a dropped or delayed certify request
        shows up *inside* the certify trace it perturbed.
        """

        ctx = self.current_context()
        self.events.append(
            {
                "kind": "event",
                "name": name,
                "time": round(self._clock(), 9),
                "trace": ctx.trace_id if ctx is not None else None,
                "span": ctx.span_id if ctx is not None else None,
                "attrs": {key: attrs[key] for key in sorted(attrs)},
            }
        )

    # ------------------------------------------------------------------
    # Lookup helpers (used by tests and the report)
    # ------------------------------------------------------------------
    def find(self, span_id: str) -> Optional[Span]:
        return self._by_span_id.get(span_id)

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]
