"""The wall-clock :class:`~repro.transport.BaseRuntime` implementation.

:class:`LiveEnvironment` exposes the exact environment surface node code is
written against (``send`` / ``schedule`` / ``schedule_periodic`` / ``now`` /
``charge`` / ``attach`` / ``ensure_observability`` / ``registry`` /
``params`` / ``obs``) on top of a running asyncio event loop.  Node
management, observability attachment and the ``charge`` validation are
:class:`~repro.transport.BaseRuntime`'s, shared with the simulator's
:class:`~repro.sim.environment.Environment`; this module adds what only a
wall-clock substrate has:

* time is an :class:`~repro.sim.clock.AnchoredWallClock` — real seconds,
  re-based to zero at construction so lease expiries, dispute deadlines and
  gossip ages keep their seconds-since-start semantics;
* ``charge`` is the base's validate-and-discard — live handlers pay real CPU;
* timers are ``loop.call_later`` behind handles with the same ``cancel()``
  surface as the simulator's :class:`~repro.sim.events.EventHandle`.
  Timers scheduled before :meth:`LiveEnvironment.start` (nodes arm some in
  their constructors) are buffered and armed at start;
* each attached node gets a FIFO inbox drained by one worker task, which
  reproduces the simulator's single-server handling model: one message
  handler at a time per node, in arrival order.

Trace-context sidecars do not cross real sockets (by design the wire bytes
carry no trace state), so live traces are per-node; metrics and counters
work identically to the sim.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Tuple

from ..common.errors import SimulationError
from ..common.identifiers import NodeId
from ..sim.clock import AnchoredWallClock
from ..sim.environment import EnvironmentNode
from ..sim.parameters import SimulationParameters
from ..sim.rng import DeterministicRng
from ..transport import BaseRuntime
from .transport import AsyncioTransport


class LiveTimerHandle:
    """Cancellable timer with the :class:`~repro.sim.events.EventHandle` surface."""

    def __init__(self, env: "LiveEnvironment", when: float, label: str) -> None:
        self._env = env
        self._when = when
        self._label = label
        self._cancelled = False
        self._loop_handle: Optional[asyncio.TimerHandle] = None

    @property
    def label(self) -> str:
        return self._label

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        if self._loop_handle is not None:
            self._loop_handle.cancel()
        self._env._timers.discard(self)


class _PeriodicTimer:
    """A self-rescheduling timer that can let go of its callback.

    The node that owns the callback usually keeps :meth:`stop`; once
    stopped (by the node, or by the environment stopping) the timer forgets
    the callback, so the two do not keep each other alive.
    """

    def __init__(
        self,
        env: "LiveEnvironment",
        interval: float,
        callback: Callable[[], None],
        label: str,
    ) -> None:
        self._env = env
        self._interval = interval
        self._callback: Optional[Callable[[], None]] = callback
        self._label = label

    def tick(self) -> None:
        if self._callback is None or self._env._stopped:
            return
        self._callback()
        self._env.schedule(self._interval, self.tick, self._label)

    def stop(self) -> None:
        self._callback = None
        self._env._periodic.discard(self)


class _LiveNodeAdapter:
    """Endpoint adapter inserting the per-node FIFO inbox before handling."""

    def __init__(self, env: "LiveEnvironment", node: EnvironmentNode) -> None:
        self._env = env
        self.node = node
        self.node_id = node.node_id
        self.region = node.region
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.worker: Optional[asyncio.Task] = None

    @property
    def held(self):
        """The node's :class:`~repro.storage.codec.HeldSet`, if it has one."""

        return getattr(self.node, "held", None)

    def deliver(self, sender: NodeId, message: Any) -> None:
        self.inbox.put_nowait((sender, message))

    def fail(self, exc: Exception) -> None:
        """Record a crash while reading for or handling this node."""

        self._env.failures.append((self.node_id, exc))

    def start_worker(self) -> None:
        if self.worker is None:
            self.worker = asyncio.get_running_loop().create_task(
                self._drain(), name=f"node:{self.node_id}"
            )

    async def _drain(self) -> None:
        while True:
            sender, message = await self.inbox.get()
            try:
                self.node.on_message(sender, message)
            except Exception as exc:
                # A handler crash must be loud, not a silently-dead worker:
                # record it for the harness and keep serving so the rest of
                # the fleet can make progress (mirrors a real service where
                # one bad request does not kill the process).
                self.fail(exc)


class LiveEnvironment(BaseRuntime):
    """Wall-clock runtime: transport + key registry + timers, in one place."""

    def __init__(
        self,
        transport: Optional[AsyncioTransport] = None,
        params: Optional[SimulationParameters] = None,
        signature_scheme: str = "hmac",
        seed: int = 7,
    ) -> None:
        super().__init__(
            transport if transport is not None else AsyncioTransport(),
            signature_scheme,
        )
        self.params = params if params is not None else SimulationParameters()
        self.clock = AnchoredWallClock()
        #: The same object as ``network``, under the name live callers use
        #: for what only a socket transport has (``frames_sent``, ``start``).
        self.transport = self.network
        self.rng = DeterministicRng(seed)
        #: ``(node_id, exception)`` pairs from crashed handlers and frame
        #: readers; timer callbacks record ``(None, exception)``.
        self.failures: List[Tuple[Optional[NodeId], Exception]] = []
        self._pending_timers: List[Tuple[float, Callable[[], None], LiveTimerHandle]] = []
        self._timers: set[LiveTimerHandle] = set()
        self._periodic: set[_PeriodicTimer] = set()
        self._started = False
        self._stopped = False

    def _adapter_for(self, node: EnvironmentNode) -> _LiveNodeAdapter:
        # Nodes attach before ``start`` (the transport refuses endpoints
        # afterwards), so the adapter's worker is always started there.
        return _LiveNodeAdapter(self, node)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.clock.now()

    # ------------------------------------------------------------------
    # Communication and timers
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, message: Any) -> float:
        return self.transport.send(src, dst, message)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
        background: bool = False,
    ) -> LiveTimerHandle:
        # *background* only matters to a simulator draining its queue.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        handle = LiveTimerHandle(self, self.now() + delay, label)
        if self._stopped:
            handle.cancel()
            return handle
        if not self._started:
            self._pending_timers.append((delay, callback, handle))
            return handle
        self._arm(delay, callback, handle)
        return handle

    def _arm(
        self, delay: float, callback: Callable[[], None], handle: LiveTimerHandle
    ) -> None:
        def fire() -> None:
            self._timers.discard(handle)
            # A fired loop handle keeps this closure, and through it the
            # callback's node; the node usually keeps *handle*.
            handle._loop_handle = None
            if handle.cancelled or self._stopped:
                return
            try:
                callback()
            except Exception as exc:
                self.failures.append((None, exc))

        self._timers.add(handle)
        handle._loop_handle = asyncio.get_running_loop().call_later(delay, fire)

    def schedule_periodic(
        self, interval: float, callback: Callable[[], None], label: str = ""
    ) -> Callable[[], None]:
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        timer = _PeriodicTimer(self, interval, callback, label)
        self._periodic.add(timer)
        self.schedule(interval, timer.tick, label)
        return timer.stop

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the transport, start node workers, arm buffered timers."""

        if self._started:
            return
        await self.transport.start()
        self._started = True
        for adapter in self._adapters.values():
            adapter.start_worker()
        pending, self._pending_timers = self._pending_timers, []
        for delay, callback, handle in pending:
            if not handle.cancelled:
                self._arm(delay, callback, handle)

    async def stop(self) -> None:
        """Cancel timers and workers, then tear the transport down.

        A stopped environment forgets its nodes: they keep pointing at it
        (their stats, logs and indexes stay inspectable, and so do the
        registry and the transport's counters), but nothing here points
        back, so dropping the last outside reference frees the whole fleet
        by reference count instead of leaving it for a cyclic collection.
        """

        self._stopped = True
        for handle in tuple(self._timers):
            handle.cancel()
        self._pending_timers.clear()
        for timer in tuple(self._periodic):
            timer.stop()
        workers = [
            adapter.worker
            for adapter in self._adapters.values()
            if adapter.worker is not None
        ]
        for worker in workers:
            worker.cancel()
        for worker in workers:
            try:
                await worker
            except (asyncio.CancelledError, Exception):
                pass
        await self.transport.stop()
        self._adapters.clear()

    async def drain_inboxes(self, timeout_s: float = 5.0) -> bool:
        """Wait until every node inbox is empty (best-effort quiescence)."""

        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            if all(adapter.inbox.empty() for adapter in self._adapters.values()):
                return True
            await asyncio.sleep(0.001)
        return False
