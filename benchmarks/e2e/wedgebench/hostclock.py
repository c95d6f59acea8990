"""A clock that runs at the reference host's speed.

The sandbox this benchmark runs in does not have a steady CPU.  Measured
over minutes with nothing else running, the same fixed work flips between
three speeds — 1.0x, about 1.3x and about 1.7x slower — every 1 to 15
seconds (neighbours on the same hardware), in process CPU time as much as
in wall time, and at times stays near 1.8x for minutes.  A 20-second run
averages over a few such episodes, so raw wall-clock medians move by
10-40 % from run to run with no change in the code.

:class:`HostClock` takes that out.  Every quarter second the run executes a
fixed *probe* — standard-library work only (``json``, ``hashlib``), nothing
from the system under test, so no change to the repository can speed it
up.  The probe's duration against ``PROBE_REFERENCE_S`` is the host's
slowdown at that instant.  ``at(t)`` maps a ``perf_counter`` instant to
*reference-host seconds*: the integral of speed over time, skipping the
intervals the probes themselves occupied (the fleet is one thread, so a
probe simply stops everything else).  Every wall-clock metric is a
difference of ``at()``; the runner prints the raw values beside them, and
``repeat.py`` prints both spreads.  On ten same-seed ``live_mixed`` runs
taken during a noisy spell the raw spreads were 30-44 % and the host-clock
spreads 5-7 %.

What it cannot do: it assumes the system under test slows by the same
factor as the probe.  That holds within a few percent on this box (see the
note on ``_DOCUMENT``), but it is a model of the host, not a measurement of
the system; on a quiet dedicated host the factor stays at its constant and
the clock reduces to ``perf_counter``.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import time

from .stats import median

#: Seconds between probes.
PROBE_INTERVAL_S = 0.25
#: Duration of one probe on the reference box in its fastest state.
PROBE_REFERENCE_S = 0.0058

#: About 1.5 MB of live objects per probe: large enough to leave the core's
#: private cache, because that is where one of the host's noise states
#: bites.  Against a stand-in for the fleet's work (frame, decode and
#: re-digest a 100-entry block), this probe's duration kept a ratio within
#: +-4 % across all three states; a small probe (a bytecode loop over a 10 KB
#: document) missed the middle state entirely, which slows the stand-in by
#: 30 % and the small probe by 5 %.
_DOCUMENT = {
    "entries": [
        {
            "key": "k%06d" % index,
            "value": "v" * 100,
            "sequence": index,
            "signature": {"signer": "client-0", "scheme": "hmac", "value": "00" * 32},
        }
        for index in range(1500)
    ]
}


def _probe_work() -> int:
    """Fixed work shaped like the system's own: a JSON tree out and back, hashed."""

    text = json.dumps(_DOCUMENT, sort_keys=True, separators=(",", ":"))
    back = json.loads(text)
    return len(back["entries"]) + len(hashlib.sha256(text.encode("utf-8")).hexdigest())


def wall_between(start: float, end: float) -> float:
    """Raw ``perf_counter`` seconds: what :meth:`HostClock.between` replaces."""

    return end - start


def slowdown_now() -> float:
    """The host's slowdown against the reference right now (best of two probes)."""

    took = []
    for _ in range(2):
        started = time.perf_counter()
        _probe_work()
        took.append(time.perf_counter() - started)
    return min(took) / PROBE_REFERENCE_S


class HostClock:
    def __init__(self) -> None:
        self._probes: list[tuple[float, float]] = []  # (start, end)
        self._ends: list[float] = []
        self._tau: list[float] = []
        self._speed: list[float] = []
        self._first_speed = 1.0
        self._frozen = False

    def probe(self) -> None:
        # A collection that lands inside a probe would be hidden from the
        # clock (it stands still there), sparing the fleet a pause it owes.
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _probe_work()
        self._probes.append((started, time.perf_counter()))
        if collecting:
            gc.enable()
        self._frozen = False

    def maybe_probe(self, now: float) -> None:
        if not self._probes or now - self._probes[-1][1] >= PROBE_INTERVAL_S:
            self.probe()

    def _freeze(self) -> None:
        took = [end - start for start, end in self._probes]
        # Median of three neighbours: one probe hit by a collection or a
        # preemption must not bend half a second of the clock.
        speeds = [
            PROBE_REFERENCE_S / median(took[max(index - 1, 0) : index + 2])
            for index in range(len(took))
        ]
        self._ends = [end for _start, end in self._probes]
        self._tau = [0.0]
        self._speed = []
        for index in range(1, len(self._probes)):
            # Between two probes the host ran at the mean of their speeds.
            between = (speeds[index - 1] + speeds[index]) / 2.0
            gap = self._probes[index][0] - self._probes[index - 1][1]
            self._speed.append(between)
            self._tau.append(self._tau[-1] + gap * between)
        self._speed.append(speeds[-1])
        self._first_speed = speeds[0]
        self._frozen = True

    def at(self, instant: float) -> float:
        """Reference-host seconds at ``perf_counter`` value *instant*."""

        if not self._frozen:
            self._freeze()
        index = bisect.bisect_right(self._ends, instant) - 1
        if index < 0:  # before the first probe
            return (instant - self._probes[0][0]) * self._first_speed
        if index + 1 < len(self._probes):
            # Inside the next probe the clock stands still.
            instant = min(instant, self._probes[index + 1][0])
        return self._tau[index] + (instant - self._ends[index]) * self._speed[index]

    def between(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)

    def summary(self) -> str:
        slow = [(end - start) / PROBE_REFERENCE_S for start, end in self._probes]
        return (
            f"host clock: {len(slow)} probes, slowdown against the reference "
            f"median {median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}"
        )
