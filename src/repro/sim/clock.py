"""The time sources the two substrates run on.

The protocol code asks its runtime for the current time instead of calling
:func:`time.monotonic` directly.  Under the discrete-event simulator that
time is a :class:`SimulatedClock` advanced by the scheduler; under the live
service harness it is an :class:`AnchoredWallClock`.
"""

from __future__ import annotations

import time

from ..common.errors import SimulationError


class AnchoredWallClock:
    """Real time re-based to zero at construction.

    The live service harness (:mod:`repro.service`) runs the same node code
    as the simulator, and that code treats timestamps as small
    seconds-since-start floats (lease expiries, dispute deadlines, gossip
    ages).  Anchoring the monotonic clock at the fleet's start keeps those
    semantics — and keeps live traces comparable to sim traces — without
    touching protocol code.
    """

    def __init__(self) -> None:
        self._anchor = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._anchor


class SimulatedClock:
    """The clock owned by the event scheduler.

    Only the scheduler advances it; everything else treats it as read-only.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def _advance_to(self, value: float) -> None:
        if value < self._now:
            raise SimulationError(
                f"event time {value} precedes current simulated time {self._now}"
            )
        self._now = value
