"""The discrete-event scheduler at the heart of the simulator.

The simulator is a classic event-driven design: a priority queue of
``(time, sequence, callback)`` entries.  Running the simulation pops the
earliest event, advances the simulated clock to its timestamp, and invokes
the callback, which typically schedules further events (message deliveries,
timeouts, periodic gossip, ...).

Determinism: ties on the timestamp are broken by insertion order, and no
wall-clock or global randomness is consulted, so a simulation with a fixed
seed is exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..common.errors import SimulationError
from .clock import SimulatedClock

EventCallback = Callable[[], None]


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: A background event alone does not keep :meth:`EventScheduler.run`
    #: going (a timer that re-arms for as long as the node lives).
    background: bool = field(compare=False, default=False)


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule`; allows cancelling."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def label(self) -> str:
        return self._event.label

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent)."""

        self._event.cancelled = True


class EventScheduler:
    """A deterministic discrete-event scheduler with a simulated clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = SimulatedClock(start_time)
        self._queue: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: Queued events that are not background ones, cancelled included.
        self._foreground = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time in seconds."""

        return self.clock.now()

    def schedule_at(
        self,
        when: float,
        callback: EventCallback,
        label: str = "",
        background: bool = False,
    ) -> EventHandle:
        """Schedule *callback* to run at absolute simulated time *when*."""

        if when < self.now():
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self.now()}"
            )
        event = _ScheduledEvent(
            when, next(self._sequence), callback, label, background=background
        )
        self._foreground += not background
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_after(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        background: bool = False,
    ) -> EventHandle:
        """Schedule *callback* to run *delay* seconds from now."""

        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now() + delay, callback, label, background)

    def schedule_periodic(
        self,
        interval: float,
        callback: EventCallback,
        label: str = "",
    ) -> Callable[[], None]:
        """Run *callback* every *interval* seconds until the returned stopper
        is called."""

        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        stopped = {"value": False}

        def tick() -> None:
            if stopped["value"]:
                return
            callback()
            self.schedule_after(interval, tick, label)

        self.schedule_after(interval, tick, label)

        def stop() -> None:
            stopped["value"] = True

        return stop

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""

        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""

        return self._events_processed

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` if the queue is empty."""

        while self._queue:
            event = heapq.heappop(self._queue)
            self._foreground -= not event.background
            if event.cancelled:
                continue
            self.clock._advance_to(event.time)
            event.callback()
            self._events_processed += 1
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until no events but background ones remain (or *max_events*
        were processed)."""

        processed = 0
        while self._foreground and self.step():
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        return processed

    def run_until(self, deadline: float) -> int:
        """Run events with timestamps up to and including *deadline*."""

        processed = 0
        while self._queue:
            upcoming = self._peek_time()
            if upcoming is None or upcoming > deadline:
                break
            self.step()
            processed += 1
        if self.now() < deadline:
            self.clock._advance_to(deadline)
        return processed

    def run_until_condition(
        self,
        condition: Callable[[], bool],
        max_time: float,
    ) -> bool:
        """Run events until *condition* holds or *max_time* is reached.

        Returns whether the condition became true.
        """

        if condition():
            return True
        while self._queue and self.now() <= max_time:
            upcoming = self._peek_time()
            if upcoming is None or upcoming > max_time:
                break
            self.step()
            if condition():
                return True
        return condition()

    def _peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0].cancelled:
            self._foreground -= not heapq.heappop(self._queue).background
        if not self._queue:
            return None
        return self._queue[0].time
