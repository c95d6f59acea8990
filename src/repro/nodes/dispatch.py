"""Message dispatch, written once: a class-level table per node class.

Every node declares ``HANDLERS``, a :class:`DispatchTable` mapping a wire
message type to a ``(handler name, route name)`` row, and receives traffic
through one ``on_message``.  Subclasses extend their parent's table
(:meth:`DispatchTable.extended`) instead of wrapping its dispatcher.

Rows hold *names*, never bound methods: the dispatcher resolves them with
``getattr(self, name)`` on every call, so a subclass (the adversary
variants, the baselines, a test-local stub) that overrides a handler needs
no row of its own, and no node instance ever caches a reference to itself —
a stopped fleet is still freed by reference count.

The observability plumbing every node shares (the span helper, the stats
surface) lives here, outside ``repro.obs``, because a paper-default
deployment must never import that package.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Mapping, Optional

from ..common.identifiers import NodeId

#: ``(handler method name, route method name)``; either may be ``None``.
Row = tuple[Optional[str], Optional[str]]

_NO_SPAN = nullcontext()


def open_span(tracer, node_id: NodeId, name: str, **attrs):
    """``tracer.span(name, node=..., **attrs)``, or one shared no-op context
    (entering it yields ``None``) when tracing is off."""

    if tracer is None:
        return _NO_SPAN
    return tracer.span(name, node=str(node_id), **attrs)


class DispatchTable:
    """``message type → (handler, route)`` with an MRO fallback.

    *handlers* maps a type to its handler's method name (``None`` = the
    message is accepted and needs no work).  *route* names the method that
    resolves which partition every row of this table — and every message
    type the table does not know — runs against; ``None`` means the node
    has no partitions and unknown types are ignored.
    """

    def __init__(
        self,
        handlers: Mapping[type, Optional[str]],
        route: Optional[str] = None,
    ) -> None:
        self._rows: dict[type, Row] = {
            message_type: (handler, route)
            for message_type, handler in handlers.items()
        }
        self._unknown: Row = (None, route)
        self._memo: dict[type, Row] = dict(self._rows)

    def extended(
        self,
        handlers: Mapping[type, Optional[str]],
        routes: Optional[Mapping[type, str]] = None,
    ) -> "DispatchTable":
        """A subclass's table: this one plus *handlers* as node-level rows
        (no partition), with the rows named in *routes* re-routed."""

        table = DispatchTable(handlers)
        table._rows = {**self._rows, **table._rows}
        for message_type, route in (routes or {}).items():
            table._rows[message_type] = (table._rows[message_type][0], route)
        table._unknown = self._unknown
        table._memo = dict(table._rows)
        return table

    def lookup(self, message_type: type) -> Row:
        """The row for *message_type*.

        A wire class that subclasses another (``FullDataCertifyRequest``,
        ``CertifiedStateResponse``) reaches its parent's row; the answer —
        "unknown" included — is memoised per class.
        """

        try:
            return self._memo[message_type]
        except KeyError:
            pass
        row = self._unknown
        for base in message_type.__mro__[1:]:
            if base in self._rows:
                row = self._rows[base]
                break
        self._memo[message_type] = row
        return row

    def handler_names(self) -> dict[type, Optional[str]]:
        """``message type → handler name`` for every declared row."""

        return {message_type: row[0] for message_type, row in self._rows.items()}


class TableDispatchNode:
    """A node whose ``on_message`` is one table lookup."""

    #: Declared by every concrete node class.
    HANDLERS: DispatchTable
    node_id: NodeId

    def on_message(self, sender: NodeId, message: Any) -> None:
        handler = self.HANDLERS.lookup(type(message))[0]
        if handler is not None:
            getattr(self, handler)(sender, message)

    # ------------------------------------------------------------------
    # Observability plumbing (no-ops with the paper-default config)
    # ------------------------------------------------------------------
    def _attach_observability(self) -> None:
        """Set ``obs`` / ``_metrics`` / ``_obs_tracer`` from this node's
        config; all three are ``None`` with the paper default."""

        obs = self.env.ensure_observability(self.config.observability)
        self.obs = obs
        self._metrics = obs.registry_for(str(self.node_id)) if obs is not None else None
        self._obs_tracer = obs.tracer if obs is not None else None

    def _make_stats(self, initial: dict, prefix: str = "") -> dict:
        """A plain dict, or a registry-mirroring one when metrics are on."""

        if self._metrics is None:
            return initial
        from ..obs.metrics import StatsDict

        return StatsDict(self._metrics, initial, prefix=prefix)

    def _span(self, name: str, **attrs):
        return open_span(self._obs_tracer, self.node_id, name, **attrs)
