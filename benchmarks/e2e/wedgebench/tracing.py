"""Outside-in spans: wrappers on objects the benchmark itself constructed.

Nothing under ``src/`` is touched.  After a fleet (live) or system (sim) is
built, :meth:`Tracer.install` replaces, *on those instances only*:

* each node's ``on_message`` — span ``<layer>.on_message.<MessageType>``;
* ``env.send`` — span ``service.send.<MessageType>``, child of the handler
  or client call that made it;
* each client's ``put_batch`` / ``get`` — span ``nodes.client.put_batch`` /
  ``nodes.client.get``, which also opens a new request id.

and registers a send hook that counts messages per type and keeps a seeded
sample of them for the stage replay (modelled bytes per type are read off
the transport's own counter around each send).

Handlers never await, and both substrates run one handler at a time, so a
plain stack gives each span its parent.  A request id flows from the client
call to its send, across the link to the handler that receives it, and on
to whatever that handler sends.  Across a link, a send is matched to the
handler start it caused: on the live substrate by order (each (src, dst)
link is FIFO), on the simulator by the identity of the message object
(jitter may reorder a link, but the object is delivered as it was sent).
The gap between the two is the transit time: socket, frame decode and
inbox wait on the live substrate, event-queue dwell on the simulator.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict, deque
from statistics import fmean
from typing import Any, Optional

from .stats import median, percentile

SAMPLES_PER_TYPE = 200
#: Share of an end-to-end median the summed stage medians may miss before
#: the reconciliation is flagged.
RECONCILE_TOLERANCE = 0.15

# span record layout
NAME, START, END, PARENT, REQ, NODE = range(6)

#: Critical path of a request, as (client call, request type, response type).
PATHS = {
    "put": ("nodes.client.put_batch", "AppendBatchRequest", "AppendBatchResponse"),
    "get": ("nodes.client.get", "GetRequest", "GetResponse"),
}


class Tracer:
    def __init__(self, seed: int) -> None:
        self.spans: list[list] = []
        self.window_open = 0.0
        self.window_close = 0.0
        #: per message type: [messages, modelled bytes]
        self.traffic: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: per message type: seeded reservoir of (sender, message)
        self.samples: dict[str, list[tuple[Any, Any]]] = defaultdict(list)
        #: (send span, handler span) per delivered message
        self.deliveries: list[tuple[int, int]] = []
        self.backlog_max = 0
        self._rng = random.Random(f"wedgebench/sample/{seed}")
        self._stack: list[int] = []
        self._requests = 0
        self._in_flight: dict[Any, deque] = defaultdict(deque)
        self._outstanding: dict[tuple, int] = defaultdict(int)
        self._by_identity = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, system) -> None:
        """Wrap the nodes, clients and ``env.send`` of *system*."""

        env = system.env
        # The simulator hands the receiver the very object that was sent.
        self._by_identity = hasattr(env, "scheduler")
        self._wrap_send(env)
        env.network.add_send_hook("wedgebench", self._observe)
        self._wrap_handler(system.cloud, "nodes.cloud")
        for edge in system.edges:
            self._wrap_handler(edge, "nodes.edge")
        for client in system.clients:
            self._wrap_handler(client, "nodes.client")
            self._wrap_call(client, "put_batch")
            self._wrap_call(client, "get")

    def open_window(self) -> None:
        self.window_open = time.perf_counter()

    def close_window(self, at: float) -> None:
        self.window_close = at

    def _begin(self, name: str, node: str, req: Optional[int]) -> int:
        index = len(self.spans)
        stack = self._stack
        self.spans.append(
            [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, req, node]
        )
        stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap_call(self, client, method: str) -> None:
        inner = getattr(client, method)
        name = f"nodes.client.{method}"
        node = str(client.node_id)

        def traced(*args, **kwargs):
            self._requests += 1
            index = self._begin(name, node, self._requests)
            try:
                return inner(*args, **kwargs)
            finally:
                self._end(index)

        setattr(client, method, traced)

    def _wrap_send(self, env) -> None:
        inner = env.send
        spans = self.spans
        stats = env.network.stats

        def traced(src, dst, message):
            stack = self._stack
            req = spans[stack[-1]][REQ] if stack else None
            kind = type(message).__name__
            modelled = stats.bytes_sent
            index = self._begin(f"service.send.{kind}", str(src), req)
            try:
                return inner(src, dst, message)
            finally:
                self._end(index)
                # The transport has just sized the message; read its counter
                # rather than size it a second time.
                self.traffic[kind][1] += stats.bytes_sent - modelled
                link = (src, dst)
                self._in_flight[id(message) if self._by_identity else link].append(index)
                self._outstanding[link] += 1
                if self._outstanding[link] > self.backlog_max:
                    self.backlog_max = self._outstanding[link]

        env.send = traced

    def _wrap_handler(self, node, layer: str) -> None:
        inner = node.on_message
        node_id = node.node_id
        label = str(node_id)

        def traced(sender, message):
            link = (sender, node_id)
            queue = self._in_flight.get(id(message) if self._by_identity else link)
            sent = queue.popleft() if queue else -1
            if self._by_identity and not queue:
                self._in_flight.pop(id(message), None)
            self._outstanding[link] -= 1
            req = self.spans[sent][REQ] if sent >= 0 else None
            index = self._begin(
                f"{layer}.on_message.{type(message).__name__}", label, req
            )
            if sent >= 0:
                self.deliveries.append((sent, index))
            try:
                inner(sender, message)
            finally:
                self._end(index)

        node.on_message = traced

    def _observe(self, src, dst, message) -> bool:
        """Send hook: count, and keep a uniform seeded sample per type."""

        kind = type(message).__name__
        entry = self.traffic[kind]
        entry[0] += 1
        kept = self.samples[kind]
        if len(kept) < SAMPLES_PER_TYPE:
            kept.append((src, message))
        else:
            slot = self._rng.randrange(entry[0])
            if slot < SAMPLES_PER_TYPE:
                kept[slot] = (src, message)
        return True

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def rebase(self, at) -> None:
        """Re-express every stamp on another clock, in place.

        The traced run writes the span file with raw ``perf_counter``
        stamps, then rebases onto its host clock before reducing: host
        noise leaves the per-layer numbers, and so do the clock's own
        probes, inside which that clock stands still.
        """

        for span in self.spans:
            span[START] = at(span[START])
            span[END] = at(span[END])
        self.window_open = at(self.window_open)
        self.window_close = at(self.window_close)

    def self_times(self) -> list[float]:
        """Each span's duration minus the child spans inside it (seconds)."""

        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def in_window(self, span: list) -> bool:
        return self.window_open <= span[START] <= self.window_close

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that come from spans alone."""

        own = self.self_times()
        by_name: dict[str, list[float]] = defaultdict(list)
        for span, seconds in zip(self.spans, own):
            by_name[span[NAME]].append(seconds * 1e3)

        def typical(name: str, reduce=median) -> float:
            values = by_name.get(name)
            return reduce(values) if values else 0.0

        window_s = max(self.window_close - self.window_open, 1e-9)
        busy: dict[str, float] = defaultdict(float)
        covered = 0.0
        for span, seconds in zip(self.spans, own):
            if not self.in_window(span):
                continue
            busy[_layer_of(span[NAME])] += seconds
            if span[PARENT] < 0:
                covered += span[END] - span[START]
        sends = [
            ms
            for name, values in by_name.items()
            if name.startswith("service.send.")
            for ms in values
        ]
        transit = [
            (self.spans[handler][START] - self.spans[sent][END]) * 1e3
            for sent, handler in self.deliveries
            if self.in_window(self.spans[sent])
        ]
        return {
            "nodes.client.put_issue_ms": typical("nodes.client.put_batch"),
            "nodes.client.receipt_ms": typical("nodes.client.on_message.AppendBatchResponse"),
            "nodes.edge.append_ms": typical("nodes.edge.on_message.AppendBatchRequest"),
            "nodes.edge.get_ms": typical("nodes.edge.on_message.GetRequest"),
            "nodes.client.get_verify_ms": typical("nodes.client.on_message.GetResponse"),
            "nodes.cloud.certify_ms": typical("nodes.cloud.on_message.BlockCertifyRequest"),
            "nodes.edge.cert_absorb_ms": typical("nodes.edge.on_message.BlockProofMessage"),
            # Merge cost varies with the level merged: the mean times the
            # count is the total, which the median would hide.
            "nodes.cloud.merge_ms": typical("nodes.cloud.on_message.MergeRequest", fmean),
            "nodes.edge.merge_ms": typical("nodes.edge.on_message.MergeResponse", fmean),
            "service.send_ms_per_msg": fmean(sends) if sends else 0.0,
            "service.transit_p50_ms": percentile(transit, 0.5) if transit else 0.0,
            "service.transit_p90_ms": percentile(transit, 0.9) if transit else 0.0,
            "service.backlog_max": float(self.backlog_max),
            "nodes.client.busy_share": busy["nodes.client"] / window_s,
            "nodes.edge.busy_share": busy["nodes.edge"] / window_s,
            "nodes.cloud.busy_share": busy["nodes.cloud"] / window_s,
            "service.send_share": busy["service"] / window_s,
            "trace.unattributed_share": max(1.0 - covered / window_s, 0.0),
        }

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def reconcile(self, kind: str) -> list[str]:
        """Sum the median critical-path stages of window requests of *kind*
        and set the sum beside the median of their end-to-end times."""

        call_name, request_type, response_type = PATHS[kind]
        spans = self.spans
        chains: dict[int, dict[str, int]] = defaultdict(dict)
        for index, span in enumerate(spans):
            req = span[REQ]
            if req is None:
                continue
            name = span[NAME]
            if name == call_name and self.in_window(span):
                chains[req]["call"] = index
            elif name.endswith(f".on_message.{request_type}"):
                chains[req]["edge"] = index
            elif name.endswith(f".on_message.{response_type}"):
                chains[req].setdefault("client", index)
        arrival = {handler: sent for sent, handler in self.deliveries}
        stages: dict[str, list[float]] = defaultdict(list)
        totals = []
        for chain in chains.values():
            if not {"call", "edge", "client"} <= set(chain):
                continue
            call, edge, client = (spans[chain[k]] for k in ("call", "edge", "client"))
            sent_request = spans[arrival[chain["edge"]]]
            sent_response = spans[arrival[chain["client"]]]
            stages["client issue (call + send)"].append(call[END] - call[START])
            stages["transit to edge"].append(edge[START] - sent_request[END])
            stages["edge handler, to response enqueued"].append(
                sent_response[END] - edge[START]
            )
            stages["edge handler, after response"].append(edge[END] - sent_response[END])
            stages["transit to client"].append(client[START] - edge[END])
            stages["client handler"].append(client[END] - client[START])
            totals.append(client[END] - call[START])
        if not totals:
            return [f"reconcile {kind}: no complete request in the window"]
        lines = [f"reconcile {kind}: {len(totals)} requests, median stages (ms)"]
        summed = 0.0
        for stage, values in stages.items():
            stage_median = median(values) * 1e3
            summed += stage_median
            lines.append(f"    {stage:<38}{stage_median:>10.3f}")
        measured = median(totals) * 1e3
        residual = (measured - summed) / measured
        flag = "  UNRECONCILED" if abs(residual) > RECONCILE_TOLERANCE else ""
        lines.append(f"    {'sum of stage medians':<38}{summed:>10.3f}")
        lines.append(
            f"    {'median issue -> client handler end':<38}{measured:>10.3f}"
            f"   residual {residual:+.1%}{flag}"
        )
        return lines

    # ------------------------------------------------------------------
    # Span file
    # ------------------------------------------------------------------
    def write(self, path: str, header: dict) -> None:
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(s[NAME], len(names)), s[START], s[END], s[PARENT], s[REQ], s[NODE]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "window": [self.window_open, self.window_close],
                    "columns": ["name", "start", "end", "parent", "request", "node"],
                    "names": list(names),
                    "spans": rows,
                    "deliveries": self.deliveries,
                    "traffic": self.traffic,
                },
                handle,
            )


def _layer_of(name: str) -> str:
    """``nodes.client.put_batch`` -> ``nodes.client``; sends -> ``service``."""

    return "service" if name.startswith("service.") else ".".join(name.split(".")[:2])
