"""``sim_mixed``: the same node code on the discrete-event substrate.

``build_system("wedgechain", ...)`` plus ``ClosedLoopDriver`` — the two
calls ``repro.bench.runner.run_workload`` makes — so the run can reach the
nodes and the scheduler.  There is no framing, codec decode or asyncio
here; latencies are the cost model's simulated milliseconds and only the
throughputs and ``setup_s`` are wall-clock.

The window is a fixed number of operations sized by ``--seconds``, then a
drain to Phase II; for a fixed seed every modelled output repeats exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.runner import build_system, config_for_batch
from repro.common.config import WorkloadConfig
from repro.common.identifiers import OperationKind
from repro.log.proofs import CommitPhase
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.generator import KeyValueWorkload, ReadOp

from .hostclock import HostClock, wall_between
from .stats import median, percentile

CLIENTS = 3
BATCH = 100
KEY_SPACE = 20_000
READ_FRACTION = 0.5
PRELOAD_OPS_PER_CLIENT = 2_000
#: Window operations per client and second of ``--seconds``; makes the
#: window last about ``--seconds`` of wall time on the reference box.
OPS_PER_CLIENT_SECOND = 1_300
SETUPS = 3
#: The end-to-end metrics that are wall-clock here (the rest are modelled).
WALL_METRICS = ("setup_s", "puts_per_s", "gets_per_s")


def _workload(seed: int, stream: int, ops_per_client: int, read_fraction: float):
    return WorkloadConfig(
        num_clients=CLIENTS,
        batch_size=BATCH,
        value_size=100,
        read_fraction=read_fraction,
        key_space=KEY_SPACE,
        operations_per_client=ops_per_client,
        # Preload and window draw from separate streams of --seed.
        seed=seed * 2 + stream,
    )


@dataclass
class SimResult:
    clock: HostClock  # reference-speed clock of the run
    setups: list[tuple[float, float]] = field(default_factory=list)  # (start, end)
    window: tuple[float, float] = (0.0, 0.0)  # wall
    events: int = 0
    put_p1_ms: list[float] = field(default_factory=list)  # simulated
    put_p2_ms: list[float] = field(default_factory=list)
    get_ms: list[float] = field(default_factory=list)
    put_records: int = 0
    preload_records: int = 0
    model_bytes: int = 0
    wan_bytes: int = 0
    window_messages: int = 0
    attempted: int = 0
    failed_requests: int = 0
    errors: list[str] = field(default_factory=list)

    # No sockets on this substrate.
    window_frames = 0
    window_frame_bytes = 0

    @property
    def failed(self) -> int:
        return self.failed_requests or (1 if self.errors else 0)

    @property
    def window_events(self) -> int:
        return self.events

    def window_ops(self) -> int:
        return self.put_records + len(self.get_ms)

    def put_records_total(self) -> int:
        return self.preload_records + self.put_records

    @property
    def window_s(self) -> float:
        """Raw wall seconds of the window, drain included."""

        return max(self.window[1] - self.window[0], 1e-9)

    def window_rate(self) -> float:
        """Client operations per host-clock second of the window."""

        return self.window_ops() / max(self.clock.between(*self.window), 1e-9)

    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        """The end-to-end metrics; wall times on the host clock unless *raw*."""

        between = wall_between if raw else self.clock.between
        ops = self.window_ops()
        window_s = max(between(*self.window), 1e-9)
        return {
            "setup_s": median([between(*span) for span in self.setups]),
            "put_p1_p50_ms": percentile(self.put_p1_ms, 0.5),
            "put_p1_p90_ms": percentile(self.put_p1_ms, 0.9),
            "put_p2_p50_ms": percentile(self.put_p2_ms, 0.5),
            "get_p50_ms": percentile(self.get_ms, 0.5),
            "get_p90_ms": percentile(self.get_ms, 0.9),
            "puts_per_s": self.put_records / window_s,
            "gets_per_s": len(self.get_ms) / window_s,
            "wire_bytes_per_op": self.model_bytes / max(ops, 1),
            "wan_bytes_per_put": self.wan_bytes / max(self.put_records, 1),
        }

    def notes(self) -> list[str]:
        lines = [
            f"put metrics: {len(self.put_p1_ms)} samples, simulated ms",
            f"get metrics: {len(self.get_ms)} samples, simulated ms",
            f"window {self.window_s:.3f} s wall, "
            f"{self.window_ops()} client operations, "
            f"{self.events} scheduler events",
        ]
        raw = self.end_to_end(raw=True)
        lines.append(self.clock.summary())
        lines.append(
            "raw wall-clock: " + "  ".join(f"{name}={raw[name]:.4f}" for name in WALL_METRICS)
        )
        return lines


class SimDriver:
    def __init__(self, seed: int, seconds: float, scale: float, tracer=None, setups=SETUPS):
        self.seed = seed
        self.preload_ops = max(int(PRELOAD_OPS_PER_CLIENT * scale) // BATCH, 1) * BATCH
        self.window_ops = max(round(seconds * OPS_PER_CLIENT_SECOND) // BATCH, 2) * BATCH
        self.tracer = tracer
        self.setups = setups
        self.clock = HostClock()
        self.result = SimResult(clock=self.clock)
        self.system = None
        #: Every value the benchmark's generators wrote, by key.
        self.written: dict[str, set[bytes]] = {}

    def run(self) -> SimResult:
        for _ in range(self.setups):
            self._setup()
        self._window()
        self._check()
        return self.result

    def _drive(self, config: WorkloadConfig) -> None:
        """One closed-loop run; its op stream is replayed into the map first."""

        for index in range(CLIENTS):
            for op in KeyValueWorkload(config, client_index=index).operations():
                if not isinstance(op, ReadOp):
                    self.written.setdefault(op.key, set()).add(op.value)
        driver = ClosedLoopDriver(self.system, config)
        driver.start()
        # The driver owns the phase-change hooks; probe the host behind them.
        for client in self.system.clients:
            client.tracker.on_phase_change = self._probing(client.tracker.on_phase_change)
        outcome = driver.run()
        if not outcome.all_finished:
            self.result.errors.append("the closed-loop driver did not finish")

    def _probing(self, hook):
        clock = self.clock

        def probing(record, phase) -> None:
            hook(record, phase)
            clock.maybe_probe(time.perf_counter())

        return probing

    def _setup(self) -> None:
        self.clock.probe()
        started = time.perf_counter()
        self.written = {}
        # One edge per client, as on the live fleet: two clients feeding one
        # edge's block buffer can split a batch across blocks, which the
        # paper-exact client counts as a failed operation.
        config = config_for_batch(BATCH).with_overrides(num_edge_nodes=CLIENTS)
        self.system = build_system("wedgechain", config=config, num_clients=CLIENTS)
        if self.tracer is not None:
            self.tracer.install(self.system)
        self._drive(_workload(self.seed, 0, self.preload_ops, read_fraction=0.0))
        self.system.run()  # drain to Phase II
        self.result.preload_records = self.preload_ops * CLIENTS
        self.result.setups.append((started, time.perf_counter()))

    def _window(self) -> None:
        system, result = self.system, self.result
        preloaded = [len(tracker) for tracker in system.trackers()]
        stats = system.env.network.stats
        bytes_before, wan_before = stats.bytes_sent, stats.wan_bytes
        messages_before = stats.messages_sent
        events_before = system.env.scheduler.events_processed
        if self.tracer is not None:
            self.tracer.open_window()
        opened = time.perf_counter()
        self._drive(_workload(self.seed, 1, self.window_ops, READ_FRACTION))
        system.run()  # drain: every put reaches Phase II
        result.window = (opened, time.perf_counter())
        self.clock.probe()
        if self.tracer is not None:
            self.tracer.close_window(result.window[1])
        result.events = system.env.scheduler.events_processed - events_before
        result.model_bytes = stats.bytes_sent - bytes_before
        result.wan_bytes = stats.wan_bytes - wan_before
        result.window_messages = stats.messages_sent - messages_before
        for tracker, before in zip(system.trackers(), preloaded):
            result.attempted += len(tracker)
            for record in tracker.records()[before:]:  # registration order
                self._reduce(record)

    def _reduce(self, record) -> None:
        result = self.result
        if record.kind is OperationKind.PUT:
            if record.phase is not CommitPhase.PHASE_TWO:
                result.failed_requests += 1
                return
            result.put_records += record.details["num_entries"]
            result.put_p1_ms.append(record.phase_one_latency * 1e3)
            result.put_p2_ms.append(record.phase_two_latency * 1e3)
        else:
            value = record.details.get("value")
            if record.phase_one_latency is None or (
                value is not None and value not in self.written.get(record.details["key"], ())
            ):
                result.failed_requests += 1
                return
            result.get_ms.append(record.phase_one_latency * 1e3)

    def _check(self) -> None:
        stats = self.system.stats()
        result = self.result
        if stats.failed_operations:
            result.errors.append(f"{stats.failed_operations} operations failed")
        if stats.punishments:
            result.errors.append(f"{stats.punishments} punishments of an honest edge")
        if stats.certifications != stats.blocks_formed:
            result.errors.append(
                f"{stats.blocks_formed} blocks formed, {stats.certifications} certified"
            )
