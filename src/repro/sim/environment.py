"""The execution environment shared by all nodes of a deployment.

An :class:`Environment` bundles the event scheduler, the simulated network,
the calibration parameters, the key registry, and a deterministic RNG.  Node
implementations never talk to these directly; they use the small API exposed
here (``send``, ``schedule``, ``charge``, ``now``), which keeps protocol code
independent of the simulation machinery and makes it trivially testable.

CPU accounting: while a node handler runs, calls to :meth:`Environment.charge`
accumulate simulated CPU time.  Outgoing messages sent from the handler leave
the node only after the accumulated CPU time, and the node stays busy (FIFO,
single server) until the handler's charges are paid — matching the single
request-processing loop of the paper's prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol

from ..common.identifiers import NodeId
from ..common.regions import Region
from ..transport import BaseRuntime
from .events import EventHandle, EventScheduler
from .network import SimNetwork
from .parameters import SimulationParameters
from .rng import DeterministicRng
from .topology import Topology, paper_topology


class EnvironmentNode(Protocol):
    """What the environment expects of an attached node."""

    node_id: NodeId
    region: Region

    def on_message(self, sender: NodeId, message: Any) -> None:
        """Handle a delivered message (may call back into the environment)."""


@dataclass
class _Invocation:
    node_id: NodeId
    start: float
    charged: float = 0.0


class _EndpointAdapter:
    """Adapts an :class:`EnvironmentNode` to the network endpoint interface,
    inserting the CPU/queueing model between delivery and handling."""

    def __init__(self, env: "Environment", node: EnvironmentNode) -> None:
        self._env = env
        self.node = node
        self.node_id = node.node_id
        self.region = node.region

    def deliver(self, sender: NodeId, message: Any) -> None:
        self._env._enqueue_handling(self.node, sender, message)


class Environment(BaseRuntime):
    """Scheduler + network + crypto registry + calibration, in one place.

    The simulated :class:`~repro.transport.NodeRuntime`: node management and
    observability attachment are :class:`~repro.transport.BaseRuntime`'s;
    this class adds the simulated clock, the event-queue timers, and the
    CPU/queueing model (:class:`_EndpointAdapter`, and the ``_current``
    invocation record the base's ``charge`` accrues into).
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        params: Optional[SimulationParameters] = None,
        signature_scheme: str = "hmac",
        seed: int = 7,
        start_time: float = 0.0,
    ) -> None:
        self.topology = topology if topology is not None else paper_topology()
        self.params = params if params is not None else SimulationParameters()
        self.scheduler = EventScheduler(start_time)
        self.rng = DeterministicRng(seed)
        super().__init__(
            SimNetwork(self.scheduler, self.topology, self.params, self.rng),
            signature_scheme,
        )
        #: Simulated time until which each node is busy (absent = idle).
        self._busy_until: Dict[NodeId, float] = {}
        self._current: Optional[_Invocation] = None

    def _adapter_for(self, node: EnvironmentNode) -> _EndpointAdapter:
        return _EndpointAdapter(self, node)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.scheduler.now()

    # ------------------------------------------------------------------
    # CPU model (``charge`` itself is the base's: it accrues into ``_current``)
    # ------------------------------------------------------------------
    def _enqueue_handling(
        self, node: EnvironmentNode, sender: NodeId, message: Any
    ) -> None:
        start = max(self.now(), self._busy_until.get(node.node_id, 0.0))
        # Trace context crosses the delivery->handling hop as a closure
        # variable, never on the message (wire payloads stay untouched).
        ctx = None
        if self.obs is not None:
            ctx = self.obs.tracer.current_context()
        self.scheduler.schedule_at(
            start,
            lambda: self._invoke(node, sender, message, ctx),
            label=f"handle@{node.node_id}:{type(message).__name__}",
        )

    def _invoke(
        self, node: EnvironmentNode, sender: NodeId, message: Any, ctx: Any = None
    ) -> None:
        previous = self._current
        invocation = _Invocation(node_id=node.node_id, start=self.now())
        self._current = invocation
        tracer = self.obs.tracer if ctx is not None else None
        if tracer is not None:
            tracer.push(ctx)
        try:
            node.on_message(sender, message)
        finally:
            if tracer is not None:
                tracer.pop()
            self._current = previous
        finish = invocation.start + invocation.charged
        self._busy_until[node.node_id] = max(
            self._busy_until.get(node.node_id, 0.0), finish
        )

    def busy_until(self, node_id: NodeId) -> float:
        """Simulated time until which *node_id* is busy processing."""

        return self._busy_until.get(node_id, 0.0)

    # ------------------------------------------------------------------
    # Communication and timers
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, message: Any) -> float:
        """Send a message; it departs after the sender's accrued CPU time."""

        depart_at = None
        if self._current is not None and self._current.node_id == src:
            depart_at = self._current.start + self._current.charged
        return self.network.send(src, dst, message, depart_at=depart_at)

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule a callback *delay* seconds in the future."""

        return self.scheduler.schedule_after(delay, callback, label)

    def schedule_periodic(
        self, interval: float, callback: Callable[[], None], label: str = ""
    ) -> Callable[[], None]:
        """Schedule a periodic callback; returns a stopper function."""

        return self.scheduler.schedule_periodic(interval, callback, label)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event queue (optionally bounded by *max_events*)."""

        return self.scheduler.run(max_events)

    def run_until(self, deadline: float) -> int:
        return self.scheduler.run_until(deadline)

    def run_until_condition(self, condition: Callable[[], bool], max_time: float) -> bool:
        return self.scheduler.run_until_condition(condition, max_time)


def local_environment(
    params: Optional[SimulationParameters] = None,
    signature_scheme: str = "hmac",
    seed: int = 7,
) -> Environment:
    """An environment where every node is co-located (negligible latency).

    Unit and integration tests use this to exercise full protocol flows
    without wide-area delays dominating; the protocol logic is identical.
    """

    topology = Topology(intra_region_rtt_ms=0.1, client_edge_rtt_ms=0.2)
    effective = params if params is not None else SimulationParameters(
        latency_jitter_fraction=0.0
    )
    return Environment(
        topology=topology,
        params=effective,
        signature_scheme=signature_scheme,
        seed=seed,
    )
