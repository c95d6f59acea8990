"""The simulated edge-cloud network.

Messages between nodes experience:

* a propagation delay of half the region-to-region RTT (Table I), with a
  small configurable jitter;
* a serialization delay of ``bytes / bandwidth`` on the sender's uplink,
  where the WAN bandwidth (edge ↔ cloud) is far smaller than the metro
  bandwidth (client ↔ edge) — this is what makes *data-free* certification
  matter and what degrades the synchronous edge-baseline at large batches;
* FIFO ordering per sender uplink: a sender's transfers queue behind each
  other on the single uplink the figures were calibrated with, so the
  batches of a pipelined certification window overlap their propagation
  delays but not their serialization.

Message sizes come from the message's ``wire_size`` attribute when present
(protocol messages compute a realistic payload size cheaply) and otherwise
from the canonical encoding.

Fault injection composes on the network through two public surfaces, both
inherited from :class:`repro.transport.BaseTransport` so the wall-clock
transport cannot drift from them:

* **Send hooks** (``add_send_hook``): named, composable
  predicates consulted for every send *before* any latency or bandwidth
  accounting.  A hook returning ``False`` vetoes the delivery (the send
  reports an infinite delivery time and the message is never scheduled);
  the message travels normally only when every hook approves it.  Hooks
  run in registration order and must be deterministic — the fault
  subsystem (:mod:`repro.faults`) derives all its randomness from seeded
  streams.
* **Offline nodes** (``set_offline``): a crashed node
  neither receives traffic already in flight (deliveries scheduled before
  the crash are dropped at delivery time) nor emits new traffic (sends
  from an offline node are vetoed at the source).  Restarting clears the
  flag; nothing is replayed — lost messages stay lost, exactly like a
  real crash.

Both surfaces are strict no-ops while unused: the hot send path checks one
empty dict and one empty set.
"""

from __future__ import annotations

from typing import Any, Dict

from ..common.identifiers import NodeId, NodeRole
from ..transport import (
    BaseTransport,
    NetworkEndpoint,
    NetworkStats,
    SendHook,
    message_wire_size,
)
from .events import EventScheduler
from .parameters import SimulationParameters
from .rng import DeterministicRng
from .topology import Topology

__all__ = [
    "NetworkEndpoint",
    "NetworkStats",
    "SendHook",
    "SimNetwork",
    "message_wire_size",
]

class SimNetwork(BaseTransport):
    """Latency- and bandwidth-aware message delivery between registered nodes.

    The simulated implementation of the :class:`repro.transport.Transport`
    boundary; its behaviour is pinned byte-identical by the figure-4/5
    regression suite and the golden digest vectors.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        topology: Topology,
        params: SimulationParameters,
        rng: DeterministicRng,
    ) -> None:
        super().__init__()
        self._scheduler = scheduler
        self._topology = topology
        self._params = params
        self._rng = rng
        #: Time until which each sender's uplink is busy serializing data.
        self._uplink_busy: Dict[NodeId, float] = {}

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def _propagation_delay(self, src: NetworkEndpoint, dst: NetworkEndpoint) -> float:
        if src.region != dst.region:
            base = self._topology.one_way_latency_s(src.region, dst.region)
        else:
            roles = {src.node_id.role, dst.node_id.role}
            if roles == {NodeRole.CLIENT, NodeRole.EDGE}:
                base = self._topology.client_edge_latency_s()
            else:
                base = self._topology.intra_region_rtt_ms / 2.0 / 1000.0
        return self._rng.jitter(base, self._params.latency_jitter_fraction)

    def one_way_delay_estimate(self, src_id: NodeId, dst_id: NodeId) -> float:
        """Jitter-free one-way delay between two registered nodes (seconds)."""

        src, dst = self.node(src_id), self.node(dst_id)
        if src.region != dst.region:
            return self._topology.one_way_latency_s(src.region, dst.region)
        roles = {src.node_id.role, dst.node_id.role}
        if roles == {NodeRole.CLIENT, NodeRole.EDGE}:
            return self._topology.client_edge_latency_s()
        return self._topology.intra_region_rtt_ms / 2.0 / 1000.0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src_id: NodeId,
        dst_id: NodeId,
        message: Any,
        depart_at: float | None = None,
    ) -> float:
        """Send *message* from *src_id* to *dst_id*.

        Returns the simulated delivery time.  ``depart_at`` lets the caller
        model CPU time spent before the message leaves the sender (defaults
        to "now").
        """

        admitted = self._admit(src_id, dst_id, message)
        if admitted is None:
            return float("inf")
        src, dst, size, wan = admitted

        now = self._scheduler.now()
        depart = max(now, depart_at if depart_at is not None else now)

        # Uplink serialization: transfers from the same sender queue up.
        transfer = self._params.transfer_time(size, wan)
        uplink_free = max(depart, self._uplink_busy.get(src_id, 0.0))
        serialization_done = uplink_free + transfer
        self._uplink_busy[src_id] = serialization_done

        delivery_time = serialization_done + self._propagation_delay(src, dst)
        self._schedule_delivery(src_id, dst, message, delivery_time)
        return delivery_time

    def _schedule_delivery(
        self,
        src_id: NodeId,
        dst: NetworkEndpoint,
        message: Any,
        when: float,
    ) -> None:
        # The sender's active trace context, captured now: a send runs inside
        # the sender's span, and the injector's hook runs while the original
        # sender's span is still active, so delayed/duplicated/reordered
        # messages keep their causal context too.
        ctx = None
        if self._obs is not None:
            ctx = self._obs.tracer.current_context()

        def deliver() -> None:
            if self._offline and dst.node_id in self._offline:
                # The destination crashed while the message was in flight.
                self.stats.dropped_deliveries += 1
                return
            # Re-activate the sender's trace context around the receiver's
            # handling.  The context is a sidecar on this closure — it never
            # rides inside the message, so wire bytes are identical with
            # tracing on or off.
            if ctx is not None:
                tracer = self._obs.tracer
                tracer.push(ctx)
                try:
                    dst.deliver(src_id, message)
                finally:
                    tracer.pop()
            else:
                dst.deliver(src_id, message)

        self._scheduler.schedule_at(
            when,
            deliver,
            label=f"{src_id}->{dst.node_id}:{type(message).__name__}",
        )

    def inject_delivery(
        self, src_id: NodeId, dst_id: NodeId, message: Any, at: float
    ) -> float:
        """Schedule a delivery directly, bypassing send hooks and the
        latency/bandwidth model.

        This is the fault injector's re-entry point: a hook that vetoed a
        send to *delay*, *duplicate*, or *reorder* it re-materializes the
        delivery here at a time of its choosing (so it is not re-intercepted
        by the very hook that took it over).  Traffic accounting still
        happens — a duplicated message really does cross the wire twice —
        and the offline gate still applies at delivery time.
        """

        dst = self.node(dst_id)
        self._account(self.node(src_id), dst, message)
        when = max(at, self._scheduler.now())
        self._schedule_delivery(src_id, dst, message, when)
        return when
