"""The three live workloads: a ``LiveFleet`` on unix sockets, driven closed-loop.

One process, one event loop: the load generator is a coroutine per client
that issues a request, waits for the commit notification the loop closes
on, and issues the next.  Latencies are stamped with
``time.perf_counter()`` inside ``CommitTracker.on_phase_change`` — never
by polling.

A run is a *set-up* (fleet start, preload paced on Phase II, a verified
read-back of the preload) followed by the measured *window* — a fixed
number of requests, sized by ``--seconds`` — and a drain.
Pacing the preload on Phase II makes the LSMerkle state the window starts
from the same on every run: every earlier block is certified when a merge
is proposed, so each merge takes the same blocks each time.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import os
import random
import shutil
import time
from dataclasses import astuple, dataclass, field
from typing import Optional

from repro.bench.runner import config_for_batch
from repro.log.proofs import CommitPhase
from repro.service import LiveFleet

from .hostclock import HostClock, wall_between
from .stats import median, percentile

BATCH = 100
VALUE_BYTES = 100
PUT_KEY_SPACE = 20_000
#: Every fifth get asks for a key that was never written (20 % absent).
ABSENT_EVERY = 5
ZIPF_THETA = 0.99
#: First index of keys that are never written (absent-key gets).
ABSENT_BASE = 900_000
SETTLE_TIMEOUT_S = 60.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The end-to-end metrics that are wall-clock times or rates.
TIMED_METRICS = (
    "setup_s", "put_p1_p50_ms", "put_p1_p90_ms", "put_p2_p50_ms",
    "get_p50_ms", "get_p90_ms", "puts_per_s", "gets_per_s",
)


@dataclass(frozen=True)
class LiveShape:
    """What distinguishes one live workload from another."""

    clients: int  # one edge per client, client i -> edge i
    preload_keys: int  # per client
    readback_gets: int  # per client, closing each set-up
    read_fraction: float  # share of window requests that are gets
    #: Window requests per client and second of ``--seconds``.  The window
    #: is a fixed amount of work, not a duration: the same requests on
    #: every commit, so byte counts and merge schedules compare like for
    #: like.  The rates make the window last about ``--seconds`` on the
    #: reference box — except ``live_mixed``, sized at 1.5 times that: its
    #: latencies are the widest distributions here (a median of 132 of them
    #: moved by 6 % from run to run), and ``live_get``, whose narrow ones
    #: need fewer, pays for it.
    requests_per_second: float


SHAPES = {
    # The read-back is where live_put's get metrics come from; the other
    # two have gets in their windows and read back only enough to check
    # the preload.
    "live_put": LiveShape(
        clients=1, preload_keys=5_000, readback_gets=20, read_fraction=0.0,
        requests_per_second=19.0,
    ),
    "live_get": LiveShape(
        clients=1, preload_keys=5_000, readback_gets=5, read_fraction=1.0,
        requests_per_second=11.0,
    ),
    "live_mixed": LiveShape(
        clients=2, preload_keys=2_000, readback_gets=5, read_fraction=0.5,
        requests_per_second=16.5,
    ),
}
#: A window that overruns ``--seconds`` by this factor stops issuing (a
#: much slower host must still finish inside the driver's time limit).
OVERRUN_FACTOR = 6.0


def key_of(index: int) -> str:
    return "k%06d" % index


@dataclass
class Sample:
    """One client request and the instants it was issued and settled."""

    kind: str  # "put" | "get"
    stage: str  # "setup" | "window"
    records: int
    issued: float = 0.0
    p1: Optional[float] = None
    p2: Optional[float] = None
    error: Optional[str] = None
    key: str = ""  # gets
    expected: Optional[bytes] = None  # gets: the benchmark's own answer
    items: tuple = ()  # puts
    waiter: Optional[asyncio.Future] = None
    wait_for: CommitPhase = CommitPhase.PHASE_ONE

    @property
    def settled(self) -> bool:
        if self.error is not None or self.p1 is None:
            return False
        return self.kind == "get" or self.p2 is not None


class ClientInputs:
    """Seeded request generator and last-acknowledged-write map of one client."""

    def __init__(self, seed: int, client: int, shape: LiveShape, scale: float) -> None:
        self._rng = random.Random(f"wedgebench/{seed}/{client}")
        self._client = client
        self._values = itertools.count()
        self.model: dict[str, bytes] = {}
        self.preload_keys = max(int(shape.preload_keys * scale) // BATCH, 1) * BATCH
        self.readback_gets = max(int(shape.readback_gets * scale), 2)
        # Zipfian popularity over the preloaded keys; a seeded shuffle
        # spreads the ranks so hot keys are not all in the oldest blocks.
        self._ranked = list(range(self.preload_keys))
        self._rng.shuffle(self._ranked)
        self._cdf = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_THETA for rank in range(self.preload_keys)
            )
        )

    def _value(self) -> bytes:
        stamp = b"%010d" % next(self._values)
        return stamp + self._rng.randbytes(VALUE_BYTES - len(stamp))

    def preload_batches(self):
        for start in range(0, self.preload_keys, BATCH):
            yield tuple((key_of(start + i), self._value()) for i in range(BATCH))

    def put_batch(self) -> tuple:
        return tuple(
            (key_of(self._rng.randrange(PUT_KEY_SPACE)), self._value())
            for _ in range(BATCH)
        )

    def present_key(self) -> str:
        rank = bisect.bisect_left(self._cdf, self._rng.random() * self._cdf[-1])
        return key_of(self._ranked[min(rank, self.preload_keys - 1)])

    def absent_key(self) -> str:
        return key_of(ABSENT_BASE + self._rng.randrange(PUT_KEY_SPACE))

    def requests(self, count: int, read_fraction: float):
        """*count* requests in a fixed pattern: gets are ``read_fraction`` of
        them, spread evenly, and every ``ABSENT_EVERY``-th get asks for an
        absent key.

        The seed decides keys and values only.  The order is the same for
        every seed (and offset by one between clients, so two clients are
        never in step): with a seeded shuffle, the run of puts a get happens
        to follow changed its latency by more than any code change would.
        """

        gets = 0
        for index in range(count):
            # Bresenham: request `index` is a get when the running share falls behind.
            if (index + 1 + self._client) * read_fraction - gets >= 1.0 - 1e-9:
                gets += 1
                absent = gets % ABSENT_EVERY == 0
                yield "get", self.absent_key() if absent else self.present_key()
            else:
                yield "put", self.put_batch()


@dataclass
class Counters:
    """Transport and node counters of the whole fleet at one instant."""

    frames: int = 0
    frame_bytes: int = 0
    messages: int = 0
    wan_bytes: int = 0
    merges: int = 0

    def minus(self, other: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(astuple(self), astuple(other))))


@dataclass
class LiveResult:
    """Everything one live run measured, before it is reduced to metrics."""

    workload: str
    clock: HostClock  # reference-speed clock of the run
    # (start, end) of every set-up and of its two parts
    setups: list[tuple[float, float]] = field(default_factory=list)
    preloads: list[tuple[float, float]] = field(default_factory=list)
    readbacks: list[tuple[float, float]] = field(default_factory=list)
    preload_records: int = 0  # of one set-up
    samples: list[Sample] = field(default_factory=list)
    window_open: float = 0.0
    window_close: float = 0.0  # last request settled
    at_setup: Counters = field(default_factory=Counters)  # window fleet, set-up done
    at_close: Counters = field(default_factory=Counters)  # same fleet, drained
    errors: list[str] = field(default_factory=list)
    cut_short: bool = False  # the window overran and stopped issuing early

    def of(self, kind: str, stage: str) -> list[Sample]:
        return [s for s in self.samples if s.kind == kind and s.stage == stage]

    def side(self, kind: str) -> tuple[str, list[Sample]]:
        """Window samples of *kind*, or the set-ups' when the window has none.

        ``live_put`` has no gets in its window and ``live_get`` no puts: the
        preload's puts and the read-back's gets stand in, so every metric is
        a measured value on every workload.
        """

        window = self.of(kind, "window")
        return ("window", window) if window else ("setup", self.of(kind, "setup"))

    @property
    def window_s(self) -> float:
        """Raw wall seconds from window open to the last request settling."""

        return max(self.window_close - self.window_open, 1e-9)

    def window_rate(self) -> float:
        """Client operations per host-clock second of the window."""

        return self.window_ops() / max(
            self.clock.between(self.window_open, self.window_close), 1e-9
        )

    @property
    def window_counters(self) -> Counters:
        return self.at_close.minus(self.at_setup)

    def window_ops(self) -> int:
        """Client operations in the window: a put record and a get each count one."""

        return sum(s.records for s in self.samples if s.stage == "window")

    def put_records_total(self) -> int:
        return sum(s.records for s in self.samples if s.kind == "put")

    window_frames = property(lambda self: self.window_counters.frames)
    window_frame_bytes = property(lambda self: self.window_counters.frame_bytes)
    window_messages = property(lambda self: self.window_counters.messages)
    window_events = 0  # scheduler events: the simulator's only

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        bad = sum(1 for s in self.samples if not s.settled)
        # A fleet-level inconsistency fails the run even when every request looks fine.
        return bad or (1 if self.errors else 0)

    def notes(self) -> list[str]:
        """Sample counts and where each side's numbers came from."""

        lines = []
        for kind in ("put", "get"):
            stage, samples = self.side(kind)
            lines.append(f"{kind} metrics: {len(samples)} samples from the {stage}")
        window = self.window_counters
        lines.append(
            f"window {self.window_s:.3f} s, {self.window_ops()} client operations, "
            f"{window.frames} frames, {window.merges} merges in the window, "
            f"{self.at_setup.merges} in its set-up"
        )
        if self.cut_short:
            lines.append("window overran its budget and was cut short: fewer samples")
        raw = self.end_to_end(raw=True)
        lines.append(self.clock.summary())
        lines.append(
            "raw wall-clock: " + "  ".join(f"{name}={raw[name]:.4f}" for name in TIMED_METRICS)
        )
        return lines

    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        """The end-to-end metrics; times on the host clock unless *raw*."""

        between = wall_between if raw else self.clock.between
        put_stage, puts = self.side("put")
        get_stage, gets = self.side("get")
        p1 = [between(s.issued, s.p1) * 1e3 for s in puts if s.p1 is not None]
        p2 = [between(s.issued, s.p2) * 1e3 for s in puts if s.p2 is not None]
        got = [between(s.issued, s.p1) * 1e3 for s in gets if s.p1 is not None]
        put_records = sum(s.records for s in puts if s.p2 is not None)
        in_window = put_stage == "window"
        window_s = max(between(self.window_open, self.window_close), 1e-9)
        preload_s = sum(between(*span) for span in self.preloads)
        readback_s = sum(between(*span) for span in self.readbacks)
        return {
            "setup_s": median([between(*span) for span in self.setups]),
            "put_p1_p50_ms": percentile(p1, 0.5),
            "put_p1_p90_ms": percentile(p1, 0.9),
            "put_p2_p50_ms": percentile(p2, 0.5),
            "get_p50_ms": percentile(got, 0.5),
            "get_p90_ms": percentile(got, 0.9),
            "puts_per_s": put_records / (window_s if in_window else preload_s),
            "gets_per_s": len(got) / (window_s if get_stage == "window" else readback_s),
            "wire_bytes_per_op": self.window_counters.frame_bytes / max(self.window_ops(), 1),
            # Preload puts of the window's fleet when the window has no puts.
            "wan_bytes_per_put": (
                self.window_counters.wan_bytes / max(put_records, 1)
                if in_window
                else self.at_setup.wan_bytes / max(self.preload_records, 1)
            ),
        }


class LiveDriver:
    """Runs one live workload: set-ups, window, drain, checks."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        scale: float,
        run_dir: str,
        tracer=None,
        setups: int = SETUPS,
    ) -> None:
        self.shape = SHAPES[workload]
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.run_dir = run_dir
        self.tracer = tracer
        self.setups = setups
        self.clock = HostClock()
        self.result = LiveResult(workload=workload, clock=self.clock)
        #: The current fleet; after the run, the one the window ran on.
        self.system: Optional[LiveFleet] = None
        self._running = False
        self.inputs: list[ClientInputs] = []
        self._by_op: dict = {}
        self._fleets_started = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> LiveResult:
        asyncio.run(self._main())
        return self.result

    async def _main(self) -> None:
        try:
            for remaining in range(self.setups - 1, -1, -1):
                await self._setup()
                if remaining:
                    await self._stop_fleet()
            await self._window()
            self._check_fleet()
        finally:
            await self._stop_fleet()

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    async def _start_fleet(self) -> None:
        self._fleets_started += 1
        socket_dir = os.path.join(self.run_dir, f"s{self._fleets_started}")
        os.makedirs(socket_dir, exist_ok=True)
        # Relative when shorter: unix socket paths are capped near 100 bytes.
        socket_dir = min(socket_dir, os.path.relpath(socket_dir), key=len)
        self.system = LiveFleet(
            config=config_for_batch(BATCH),
            num_clients=self.shape.clients,
            num_edges=self.shape.clients,
            socket_dir=socket_dir,
        )
        self._socket_dir = socket_dir
        self._running = True
        await self.system.start()
        self._by_op = {}
        # Every set-up replays the same seeded inputs on a fresh fleet.
        self.inputs = [
            ClientInputs(self.seed, index, self.shape, self.scale)
            for index in range(self.shape.clients)
        ]
        for index, client in enumerate(self.system.clients):
            client.tracker.on_phase_change = self._make_hook(index)
        if self.tracer is not None:
            self.tracer.install(self.system)

    async def _stop_fleet(self) -> None:
        if not self._running:
            return
        self._running = False
        await self.system.stop()
        shutil.rmtree(self._socket_dir, ignore_errors=True)

    def _counters(self) -> Counters:
        transport = self.system.env.transport
        return Counters(
            frames=transport.frames_sent,
            frame_bytes=transport.frame_bytes_sent,
            messages=transport.stats.messages_sent,
            wan_bytes=transport.stats.wan_bytes,
            merges=sum(edge.stats["merges_completed"] for edge in self.system.edges),
        )

    async def _quiesce(self) -> None:
        """Wait until no merge is outstanding and no frame is moving."""

        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        quiet = 0
        last = -1
        while quiet < 3 and time.perf_counter() < deadline:
            await self.system.env.drain_inboxes()
            await asyncio.sleep(0.005)
            frames = self.system.env.transport.frames_sent
            merging = any(
                edge.stats["merges_started"]
                != edge.stats["merges_completed"] + edge.stats["merges_rejected"]
                for edge in self.system.edges
            )
            quiet = quiet + 1 if (frames == last and not merging) else 0
            last = frames

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _make_hook(self, index: int):
        inputs = self.inputs[index]

        def hook(record, phase: CommitPhase) -> None:
            now = time.perf_counter()
            sample = self._by_op.get(record.operation_id)
            if sample is None:
                return
            if phase is CommitPhase.FAILED:
                sample.error = record.failure_reason or "failed"
            else:
                if sample.p1 is None:
                    sample.p1 = now
                    if sample.kind == "put":
                        inputs.model.update(sample.items)
                    else:
                        self._check_get(sample, record)
                if phase is CommitPhase.PHASE_TWO and sample.p2 is None:
                    sample.p2 = now
            waiter = sample.waiter
            if waiter is not None and not waiter.done():
                reached = sample.p2 if sample.wait_for is CommitPhase.PHASE_TWO else sample.p1
                if reached is not None or sample.error is not None:
                    waiter.set_result(None)
            self.clock.maybe_probe(now)

        return hook

    @staticmethod
    def _check_get(sample: Sample, record) -> None:
        found = record.details.get("found")
        value = record.details.get("value")
        if found != (sample.expected is not None) or value != sample.expected:
            sample.error = f"get {sample.key}: found={found}, value differs from the map"

    async def _request(
        self, index: int, kind: str, payload, stage: str, wait_for: CommitPhase
    ) -> Sample:
        client = self.system.clients[index]
        sample = Sample(
            kind=kind,
            stage=stage,
            records=len(payload) if kind == "put" else 1,
            waiter=asyncio.get_running_loop().create_future(),
            wait_for=wait_for,
        )
        if kind == "put":
            sample.items = payload
        else:
            sample.key = payload
            sample.expected = self.inputs[index].model.get(payload)
        self.result.samples.append(sample)
        sample.issued = time.perf_counter()
        operation_id = client.put_batch(payload) if kind == "put" else client.get(payload)
        self._by_op[operation_id] = sample
        try:
            await asyncio.wait_for(sample.waiter, SETTLE_TIMEOUT_S)
        except asyncio.TimeoutError:
            sample.error = "not settled before the timeout"
        return sample

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    async def _setup(self) -> None:
        self.clock.probe()
        started = time.perf_counter()
        await self._start_fleet()

        async def preload(index: int) -> None:
            for batch in self.inputs[index].preload_batches():
                await self._request(index, "put", batch, "setup", CommitPhase.PHASE_TWO)

        async def readback(index: int) -> None:
            inputs = self.inputs[index]
            for kind, key in inputs.requests(inputs.readback_gets, read_fraction=1.0):
                await self._request(index, kind, key, "setup", CommitPhase.PHASE_ONE)

        clients = range(self.shape.clients)
        loaded = time.perf_counter()
        await asyncio.gather(*(preload(index) for index in clients))
        await self._quiesce()
        read = time.perf_counter()
        await asyncio.gather(*(readback(index) for index in clients))
        done = time.perf_counter()
        result = self.result
        result.setups.append((started, done))
        result.preloads.append((loaded, read))
        result.readbacks.append((read, done))
        result.preload_records = sum(inputs.preload_keys for inputs in self.inputs)
        result.at_setup = self._counters()

    async def _window(self) -> None:
        result = self.result
        if self.tracer is not None:
            self.tracer.open_window()
        self.clock.probe()
        result.window_open = time.perf_counter()
        count = max(round(self.seconds * self.shape.requests_per_second), 1)
        give_up = result.window_open + max(self.seconds * OVERRUN_FACTOR, 5.0)

        async def drive(index: int) -> None:
            for kind, payload in self.inputs[index].requests(count, self.shape.read_fraction):
                if time.perf_counter() > give_up:
                    result.cut_short = True
                    break
                await self._request(index, kind, payload, "window", CommitPhase.PHASE_ONE)

        await asyncio.gather(*(drive(index) for index in range(self.shape.clients)))
        # Drain: every put issued in the window reaches Phase II.
        waiting = time.perf_counter() + SETTLE_TIMEOUT_S
        pending = [s for s in result.of("put", "window") if s.error is None]
        while any(s.p2 is None for s in pending) and time.perf_counter() < waiting:
            await asyncio.sleep(0.002)
        window = [s for s in result.samples if s.stage == "window"]
        result.window_close = max(
            [t for s in window for t in (s.p1, s.p2) if t is not None],
            default=time.perf_counter(),
        )
        self.clock.probe()
        await self._quiesce()
        if self.tracer is not None:
            self.tracer.close_window(result.window_close)
        result.at_close = self._counters()

    def _check_fleet(self) -> None:
        fleet, result = self.system, self.result
        if not result.of("put", "window") and result.window_counters.merges:
            # No block forms in a get-only window, so nothing may merge:
            # this is what keeps merge changes from moving live_get.
            result.errors.append(
                f"{result.window_counters.merges} merges in a window without puts"
            )
        issued = len(self._by_op)
        stats = fleet.stats()
        if fleet.env.failures:
            result.errors.append(f"handler failures: {fleet.env.failures[:3]!r}")
        if stats.failed_operations:
            result.errors.append(f"{stats.failed_operations} operations failed")
        if stats.phase_one_commits + stats.phase_two_commits != issued:
            result.errors.append(
                f"{issued} requests issued, "
                f"{stats.phase_one_commits + stats.phase_two_commits} committed"
            )
        puts = sum(1 for s in self._by_op.values() if s.kind == "put")
        certified = sum(1 for s in self._by_op.values() if s.kind == "put" and s.p2)
        if certified != puts:
            result.errors.append(f"{puts} puts issued, {certified} reached Phase II")
        if stats.certifications != stats.blocks_formed:
            result.errors.append(
                f"{stats.blocks_formed} blocks formed, {stats.certifications} certified"
            )
