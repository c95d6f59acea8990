"""The explicit node/network boundary shared by every substrate.

Protocol code (nodes, clients, the sharded fleet) never talks to a network
implementation directly — it sends messages and schedules timers through the
small runtime surface its environment exposes.  This module names that
boundary explicitly so the *same* node code runs under two substrates:

* the discrete-event simulator (:class:`repro.sim.network.SimNetwork` under
  :class:`repro.sim.environment.Environment`), which reproduces the paper's
  calibrated latency/bandwidth model byte-exactly; and
* the wall-clock asyncio service harness
  (:class:`repro.service.transport.AsyncioTransport` under
  :class:`repro.service.runtime.LiveEnvironment`), which frames the same
  canonical-encoded messages over real TCP or unix-domain sockets.

Two protocols define the boundary, and each has one concrete base here that
both substrates inherit — whatever the boundary fixes is written once, so
hook, offline-gate or attachment semantics cannot drift between substrates:

:class:`Transport` / :class:`BaseTransport`
    What an environment needs from a message-delivery substrate: endpoint
    registration, ``send``, traffic stats, composable send hooks, and the
    offline (crash) gate.  The base owns the endpoint table, the named
    hooks, the offline set, the observability attachment and the send
    preamble every message passes (:meth:`BaseTransport._admit`: endpoints →
    offline gate → hooks → size → WAN → stats → traffic counters); a
    substrate adds only how an admitted message travels.  ``SimNetwork``'s
    behaviour is pinned byte-identical by the figure-4/5 regression tests;
    ``AsyncioTransport`` moves the same messages over sockets.

:class:`NodeRuntime` / :class:`BaseRuntime`
    What a node needs from its environment: ``send``, ``schedule``,
    ``schedule_periodic``, ``now``, ``charge``, the shared key registry,
    the calibration parameters, ``attach``, and ``ensure_observability``.
    This is the *entire* surface the node implementations use (grep-audited:
    message handlers never reach into the scheduler or the network), which
    is what makes them transport-agnostic.  The base owns the key registry,
    the adapter table, ``attach`` / ``node`` / ``node_ids``,
    ``ensure_observability`` and the ``charge`` validation; a substrate
    adds its clock, its timers, and the adapter it puts between delivery
    and handling.

The boundary types that both substrates share — :class:`NetworkEndpoint`,
:class:`NetworkStats`, :func:`message_wire_size`, :data:`SendHook` — live
here as well; :mod:`repro.sim.network` re-exports them for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from .common.encoding import encoded_size
from .common.errors import SimulationError, TransportError
from .common.identifiers import NodeId
from .common.regions import Region
from .crypto.signatures import KeyRegistry


class NetworkEndpoint(Protocol):
    """The minimal interface a node must expose to be attached to a transport."""

    node_id: NodeId
    region: Region

    def deliver(self, sender: NodeId, message: Any) -> None:
        """Called by the transport when a message arrives at this node."""


def message_wire_size(message: Any) -> int:
    """Size in bytes a message occupies on the wire."""

    size = getattr(message, "wire_size", None)
    if size is not None:
        return int(size)
    return encoded_size(message)


@dataclass
class NetworkStats:
    """Aggregate traffic counters, split by link class.

    The data-free certification claim of the paper is fundamentally a
    bandwidth claim, so every transport keeps byte counters that the
    ablation benchmarks report.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    wan_messages: int = 0
    wan_bytes: int = 0
    lan_messages: int = 0
    lan_bytes: int = 0
    #: Sends vetoed by a hook plus deliveries dropped at an offline node.
    dropped_sends: int = 0
    dropped_deliveries: int = 0
    per_link_bytes: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def record(self, src: NodeId, dst: NodeId, size: int, wan: bool) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        if wan:
            self.wan_messages += 1
            self.wan_bytes += size
        else:
            self.lan_messages += 1
            self.lan_bytes += size
        key = (str(src), str(dst))
        self.per_link_bytes[key] = self.per_link_bytes.get(key, 0) + size


#: A send hook: ``(src, dst, message) -> deliver?``.  Returning ``False``
#: vetoes the delivery; the send is reported as never arriving.
SendHook = Callable[[NodeId, NodeId, Any], bool]


@runtime_checkable
class Transport(Protocol):
    """What an environment needs from a message-delivery substrate."""

    stats: NetworkStats

    def register(self, node: NetworkEndpoint) -> None:
        """Attach *node* so it can send and receive messages."""

    def node(self, node_id: NodeId) -> NetworkEndpoint:
        """The registered endpoint for *node_id* (raises on unknown ids)."""

    def knows(self, node_id: NodeId) -> bool:
        """Whether *node_id* is registered."""

    def send(
        self,
        src_id: NodeId,
        dst_id: NodeId,
        message: Any,
        depart_at: Optional[float] = None,
    ) -> float:
        """Deliver *message* from *src_id* to *dst_id*.

        Returns the (estimated) delivery time on the transport's clock, or
        ``inf`` when the send was vetoed or the sender is offline.
        """

    def add_send_hook(self, name: str, hook: SendHook) -> None:
        """Register a named, composable send predicate (fault injection)."""

    def remove_send_hook(self, name: str) -> None:
        """Unregister a hook by name (idempotent)."""

    def set_offline(self, node_id: NodeId, offline: bool = True) -> None:
        """Mark a node crashed (or back up); offline nodes lose all traffic."""

    def is_offline(self, node_id: NodeId) -> bool:
        """Whether *node_id* is currently marked crashed."""


class BaseTransport:
    """The part of :class:`Transport` that is the same on every substrate."""

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, NetworkEndpoint] = {}
        self.stats = NetworkStats()
        #: Named send hooks, consulted in registration order for every send.
        self._send_hooks: Dict[str, SendHook] = {}
        #: Nodes currently crashed: sends from them are vetoed and pending
        #: deliveries to them are dropped at delivery time.
        self._offline: set[NodeId] = set()
        #: Observability bundle (set by the environment when enabled).  While
        #: ``None`` — the default — the send path pays one attribute check.
        self._obs = None
        self._obs_registry = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node: NetworkEndpoint) -> None:
        if node.node_id in self._nodes:
            raise TransportError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def node(self, node_id: NodeId) -> NetworkEndpoint:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise TransportError(f"unknown node {node_id}") from exc

    def knows(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    # ------------------------------------------------------------------
    # Send hooks (public fault-injection surface)
    # ------------------------------------------------------------------
    def add_send_hook(self, name: str, hook: SendHook) -> None:
        """Register a named send hook; rejects duplicate names.

        Hooks compose by conjunction: a message is delivered only when every
        registered hook approves it.  They run in registration order, before
        any bandwidth or latency accounting, so a vetoed message consumes no
        network resources.
        """

        if not name:
            raise TransportError("send hook name must be non-empty")
        if name in self._send_hooks:
            raise TransportError(f"send hook {name!r} already registered")
        self._send_hooks[name] = hook

    def remove_send_hook(self, name: str) -> None:
        """Unregister a hook by name (idempotent)."""

        self._send_hooks.pop(name, None)

    # ------------------------------------------------------------------
    # Node liveness (crash / restart support)
    # ------------------------------------------------------------------
    def set_offline(self, node_id: NodeId, offline: bool = True) -> None:
        """Mark a node crashed (or back up).  Offline nodes lose all traffic:
        sends from them are vetoed and in-flight deliveries to them are
        dropped on arrival."""

        self.node(node_id)  # raising on unknown nodes keeps plans honest
        if offline:
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

    def is_offline(self, node_id: NodeId) -> bool:
        return node_id in self._offline

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observability(self, obs) -> None:
        """Start recording per-message-type traffic (and, where the
        substrate can, carrying trace-context sidecars on deliveries).
        Called once by :meth:`BaseRuntime.ensure_observability`."""

        self._obs = obs
        self._obs_registry = obs.registry_for("network")

    # ------------------------------------------------------------------
    # The send preamble
    # ------------------------------------------------------------------
    def _admit(
        self, src_id: NodeId, dst_id: NodeId, message: Any
    ) -> Optional[Tuple[NetworkEndpoint, NetworkEndpoint, int, bool]]:
        """What every send does before a byte moves.

        Resolves both endpoints (raising on unknown ids), applies the
        offline gate and the hooks, then sizes and accounts the message.
        Returns ``(source, destination, wire size, crosses the WAN)``, or
        ``None`` when the send was vetoed — the caller reports ``inf``.
        """

        src = self.node(src_id)
        dst = self.node(dst_id)
        if self._offline and src_id in self._offline:
            # A crashed node emits nothing (stray timers may still fire).
            self.stats.dropped_sends += 1
            return None
        if self._send_hooks:
            for hook in tuple(self._send_hooks.values()):
                if not hook(src_id, dst_id, message):
                    # Hook vetoed the message (partition / fault injection).
                    self.stats.dropped_sends += 1
                    return None
        size, wan = self._account(src, dst, message)
        return src, dst, size, wan

    def _account(
        self, src: NetworkEndpoint, dst: NetworkEndpoint, message: Any
    ) -> Tuple[int, bool]:
        """Size *message* and count it against the link it crosses."""

        size = message_wire_size(message)
        wan = src.region != dst.region
        self.stats.record(src.node_id, dst.node_id, size, wan)
        if self._obs is not None:
            self._obs_traffic(message, size, wan)
        return size, wan

    def _obs_traffic(self, message: Any, size: int, wan: bool) -> None:
        registry = self._obs_registry
        link = "wan" if wan else "lan"
        mtype = type(message).__name__
        registry.counter("net_bytes", link=link, type=mtype).inc(size)
        registry.counter("net_messages", link=link, type=mtype).inc()


class NodeRuntime(Protocol):
    """The environment surface node implementations are written against.

    Both :class:`repro.sim.environment.Environment` (simulated clock,
    charged CPU model) and :class:`repro.service.runtime.LiveEnvironment`
    (wall clock, real CPU) satisfy this protocol, which is the precise
    sense in which ``CloudNode``/``EdgeNode``/``ShardedEdgeNode``/``Client``
    are transport-agnostic.
    """

    registry: Any
    params: Any
    obs: Any

    def attach(self, node: Any) -> None:
        """Register a node with the transport and the key registry."""

    def ensure_observability(self, config: Any) -> Optional[Any]:
        """Shared observability bundle, or ``None`` when disabled."""

    def now(self) -> float:
        """Current time in seconds on this substrate's clock."""

    def charge(self, seconds: float) -> None:
        """Account CPU time (simulated substrate) or no-op (wall clock)."""

    def send(self, src: NodeId, dst: NodeId, message: Any) -> float:
        """Send a message from *src* to *dst*."""

    def schedule(self, delay: float, callback: Callable[[], None], label: str = ""):
        """Run *callback* after *delay* seconds; returns a cancellable handle."""

    def schedule_periodic(
        self, interval: float, callback: Callable[[], None], label: str = ""
    ) -> Callable[[], None]:
        """Run *callback* every *interval* seconds; returns a stopper."""


class BaseRuntime:
    """The part of :class:`NodeRuntime` that is the same on every substrate.

    A subclass sets ``params``, provides the clock (``now``), the timers
    (``schedule`` / ``schedule_periodic``) and ``send``, and names in
    :meth:`_adapter_for` the endpoint adapter it inserts between the
    transport's delivery and the node's ``on_message``.
    """

    #: The running handler's invocation record on a substrate that models
    #: CPU time (it accrues ``charged`` seconds); stays ``None`` on one
    #: whose handlers pay real CPU.
    _current: Any = None

    def __init__(self, network: BaseTransport, signature_scheme: str) -> None:
        self.network = network
        self.registry = KeyRegistry(signature_scheme)
        #: Shared observability bundle; ``None`` until a node is built with
        #: an enabled :class:`~repro.common.config.ObservabilityConfig`
        #: (the paper-default deployment never sets it).
        self.obs = None
        self._adapters: Dict[NodeId, Any] = {}

    def _adapter_for(self, node: Any) -> NetworkEndpoint:
        raise NotImplementedError

    def attach(self, node: Any) -> None:
        """Register *node* with the transport and the key registry."""

        adapter = self._adapter_for(node)
        self.network.register(adapter)
        self._adapters[node.node_id] = adapter
        self.registry.register(node.node_id)

    def ensure_observability(self, config) -> Optional[Any]:
        """The shared :class:`~repro.obs.Observability` bundle, or ``None``.

        Nodes call this from their constructors with their
        ``config.observability``.  A disabled (or absent) config returns
        ``None`` — that node carries no instrumentation.  The first enabled
        config lazily creates the bundle, hands it to the transport (which
        starts counting per-message-type traffic), and every later caller
        shares it.
        """

        if config is None or not config.enabled:
            return None
        if self.obs is None:
            from .obs import Observability

            self.obs = Observability(clock=self.now)
            self.network.attach_observability(self.obs)
        return self.obs

    def node(self, node_id: NodeId) -> Any:
        try:
            return self._adapters[node_id].node
        except KeyError as exc:
            raise TransportError(f"unknown node {node_id}") from exc

    def node_ids(self) -> tuple:
        """Every attached node id, in attachment order."""

        return tuple(self._adapters)

    def charge(self, seconds: float) -> None:
        """Charge CPU time to the node whose handler is running.

        Validated everywhere; accrued only where the substrate models CPU
        (see ``_current``).  On the wall-clock substrate, and outside a
        handler invocation (e.g. workload setup code), the charge is
        discarded, which keeps harness code simple.
        """

        if seconds < 0:
            raise SimulationError("cannot charge negative CPU time")
        current = self._current
        if current is not None:
            current.charged += seconds
