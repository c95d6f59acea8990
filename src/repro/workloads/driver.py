"""One load driver for both substrates.

The paper's throughput experiments use closed-loop clients: each client has
one outstanding request at a time, issues the next one as soon as the current
one commits (Phase I for WedgeChain; the single synchronous commit for the
baselines), buffers writes into batches, and sends reads interactively.  An
open loop instead fixes every request's arrival time before the run (a
seeded arrival process, see :mod:`repro.workloads.arrivals`), so a slow
system cannot slow the offered load and queueing delay shows up where it
belongs: in the tail percentiles.

:class:`LoadDriver` does both against anything with ``.env`` and
``.clients`` — the three simulated systems, the sharded fleet, or a live
:class:`~repro.service.harness.LiveFleet` — through the runtime surface both
substrates share (``env.now`` / ``env.schedule``).  Given a
:class:`WorkloadConfig` it is the closed loop.  Given an
:class:`OpenLoopSpec` it is the open loop: :func:`build_request_schedule`
plans every arrival, and each is armed with ``env.schedule`` — an event on
the simulator's queue, a ``loop.call_later`` on a live fleet.  Only the wait
differs: :meth:`LoadDriver.run` runs the simulator, :meth:`LoadDriver.run_live`
awaits the fleet.

A request is timed from when it was due — its issue time in the closed loop,
``start + at`` in the open loop — to the latest Phase I commit among its
operations, read from the clients' own :class:`OperationRecord` stamps.
Timing from the due time rather than the send time keeps a stalled generator
from hiding its stall (coordinated omission); the generator's own lateness
is reported beside the percentiles.  Percentiles are exact nearest-rank over
every response, so the p999 of 1 000 requests is a real observed response
time, not an interpolation artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Union

from ..common.config import WorkloadConfig
from ..common.errors import ConfigurationError
from ..common.identifiers import OperationId
from ..log.proofs import CommitPhase
from .arrivals import ArrivalProcess, PoissonArrivalProcess
from .generator import KeyValueWorkload, ReadOp

#: The percentiles every report carries, as (label, fraction) pairs.
_PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)

#: A live run gives up once this long passes with no request settling and
#: no arrival due; every request still unsettled then counts as failed.
_LIVE_STALL_S = 30.0


@dataclass(frozen=True)
class ScheduledRequest:
    """One pre-planned request: when, who, and what to issue."""

    at: float
    client_index: int
    kind: str  # "put" | "get"
    items: tuple[tuple[str, bytes], ...] = ()
    key: str = ""


@dataclass(frozen=True)
class OpenLoopSpec:
    """What to offer: workload shape, request count, and arrival law."""

    workload: WorkloadConfig
    num_requests: int
    #: Mean request rate for the default Poisson process (requests/second);
    #: ignored when an explicit ``arrivals`` process is supplied.
    rate: float = 50.0
    arrivals: Optional[ArrivalProcess] = None

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")
        if self.arrivals is None and self.rate <= 0:
            raise ConfigurationError("rate must be positive")

    def arrival_process(self) -> ArrivalProcess:
        if self.arrivals is not None:
            return self.arrivals
        return PoissonArrivalProcess(rate=self.rate, seed=self.workload.seed)


def build_request_schedule(
    spec: OpenLoopSpec, num_clients: int = 1
) -> tuple[ScheduledRequest, ...]:
    """Materialise the full arrival schedule, deterministically from the seed.

    Requests round-robin over *num_clients*; each client draws from its own
    forked workload stream (same forking as the closed loop), so the
    schedule for a given ``(spec, num_clients)`` is identical on every
    substrate and every run.
    """

    if num_clients <= 0:
        raise ConfigurationError("num_clients must be positive")
    arrivals = spec.arrival_process()
    workloads = [
        KeyValueWorkload(spec.workload, client_index=index)
        for index in range(num_clients)
    ]
    schedule: list[ScheduledRequest] = []
    at = 0.0
    for sequence in range(spec.num_requests):
        try:
            at += arrivals.next_interarrival()
        except StopIteration:
            break  # finite trace: the run ends at the trace's length
        client_index = sequence % num_clients
        workload = workloads[client_index]
        operation = workload.next_operation()
        if isinstance(operation, ReadOp):
            schedule.append(
                ScheduledRequest(
                    at=at, client_index=client_index, kind="get", key=operation.key
                )
            )
            continue
        items = [(operation.key, operation.value)]
        while len(items) < spec.workload.batch_size:
            items.append((workload.next_key(), workload.next_value()))
        schedule.append(
            ScheduledRequest(
                at=at, client_index=client_index, kind="put", items=tuple(items)
            )
        )
    return tuple(schedule)


def _histogram(values: Sequence[float]):
    # Deferred so the default sim deployment never imports ``repro.obs``
    # (the obs-off stance pinned in tests/test_observability.py).
    from ..obs.metrics import Histogram

    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


@dataclass
class LoadResult:
    """What one driver run offered, completed and measured."""

    #: Requests offered: the schedule's length in the open loop, the
    #: requests sent in the closed loop.
    offered: int
    completed: int
    #: Puts and gets inside the completed operations.
    operations_completed: int
    started_at: float
    #: When the last operation settled.
    finished_at: float
    all_finished: bool
    #: Per completed request: its latest Phase I commit minus its due time.
    response_times_s: list[float] = field(repr=False)
    #: Per fired open-loop arrival: fire time minus due time.
    lateness_s: list[float] = field(repr=False)

    @property
    def failed(self) -> int:
        """Offered requests that did not complete: failed, unsettled or unsent."""

        return self.offered - self.completed

    @property
    def duration_s(self) -> float:
        return max(self.finished_at - self.started_at, 1e-9)

    @property
    def throughput_ops_per_s(self) -> float:
        return self.operations_completed / self.duration_s

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s

    @property
    def percentiles_s(self) -> dict[str, float]:
        histogram = _histogram(self.response_times_s)
        return {label: histogram.percentile(fraction) for label, fraction in _PERCENTILES}

    @property
    def lateness_p50_s(self) -> float:
        return _histogram(self.lateness_s).percentile(0.5)

    @property
    def lateness_max_s(self) -> float:
        return max(self.lateness_s, default=0.0)

    def report_lines(self) -> list[str]:
        lines = [
            f"offered={self.offered} completed={self.completed} "
            f"failed={self.failed} duration={self.duration_s:.3f}s "
            f"throughput={self.throughput_rps:.1f} req/s",
            f"lateness p50={self.lateness_p50_s * 1000.0:.3f} ms "
            f"max={self.lateness_max_s * 1000.0:.3f} ms",
        ]
        for label, value in self.percentiles_s.items():
            lines.append(f"{label}={value * 1000.0:.3f} ms")
        return lines


class _Request:
    """One in-flight logical request (a shard-aware batch may fan out)."""

    __slots__ = ("client_index", "due", "unsettled", "failed", "phase_one_at")

    def __init__(self, client_index: int, due: float, unsettled: int) -> None:
        self.client_index = client_index
        self.due = due
        self.unsettled = unsettled
        self.failed = False
        self.phase_one_at = due


class _Lane:
    """A closed-loop client's operation stream and write buffer."""

    __slots__ = ("workload", "operations_left", "write_buffer")

    def __init__(self, workload: KeyValueWorkload, operations_left: int) -> None:
        self.workload = workload
        self.operations_left = operations_left
        self.write_buffer: list[tuple[str, bytes]] = []


class LoadDriver:
    """Drives a system's clients closed-loop, or open-loop from a spec.

    *load* is a :class:`WorkloadConfig` (the closed loop's operation
    stream) or an :class:`OpenLoopSpec`, whose schedule :meth:`start` plans
    over the system's clients.
    """

    def __init__(self, system, load: Union[WorkloadConfig, OpenLoopSpec]) -> None:
        self.system = system
        self.env = system.env
        self.load = load
        self.clients = list(system.clients)
        #: The open loop's planned arrivals, set by :meth:`start`.
        self.schedule: Optional[tuple[ScheduledRequest, ...]] = None
        #: In-flight operation id -> (its request, the puts/gets it carries).
        self._pending: dict[OperationId, tuple[_Request, int]] = {}
        self._lanes: list[_Lane] = []
        #: Closed loop: clients with work left; open loop: arrivals not fired.
        self._to_issue = 0
        self._arrivals: list = []
        self._sent = 0
        self._completed = 0
        self._operations_completed = 0
        self._response_times: list[float] = []
        self._lateness: list[float] = []
        self._started_at: Optional[float] = None
        self._last_settled_at = 0.0

    # ------------------------------------------------------------------
    # Start
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the completion hooks and issue (or arm) the first requests."""

        self._started_at = self._last_settled_at = self.env.now()
        closed = isinstance(self.load, WorkloadConfig)
        if not closed:
            self.schedule = build_request_schedule(self.load, len(self.clients))
        self._to_issue = len(self.clients) if closed else len(self.schedule)
        for index, client in enumerate(self.clients):
            client.tracker.on_phase_change = self._on_phase_change
            if closed:
                self._lanes.append(
                    _Lane(
                        KeyValueWorkload(self.load, client_index=index),
                        self.load.operations_per_client,
                    )
                )
                self._issue_next(index)
        for request in self.schedule or ():
            self._arrivals.append(
                self.env.schedule(
                    request.at, partial(self._arrive, request), label="load-arrival"
                )
            )

    # ------------------------------------------------------------------
    # Issuing
    # ------------------------------------------------------------------
    def _send(self, index: int, due: float, items=None, key: str = "") -> None:
        """Issue a put batch of *items*, or a get of *key* when there are none."""

        client = self.clients[index]
        if items is None:
            counts = {client.get(key): 1}
        else:
            result = client.put_batch(items)
            if isinstance(result, tuple):
                # Shard-aware clients return one operation per owning edge.
                counts = {
                    operation_id: client.tracker.get(operation_id).details.get(
                        "num_entries", 0
                    )
                    for operation_id in result
                }
            else:
                counts = {result: len(items)}
        request = _Request(index, due, len(counts))
        for operation_id, operations in counts.items():
            self._pending[operation_id] = (request, operations)
        self._sent += 1

    def _issue_next(self, index: int) -> None:
        """Closed loop: send the client's next request, or finish its lane."""

        lane = self._lanes[index]
        batch_size = self.load.batch_size
        while True:
            if lane.operations_left <= 0:
                if lane.write_buffer:
                    # Flush the remaining buffered writes as a final short batch.
                    items, lane.write_buffer = lane.write_buffer, []
                    self._send(index, self.env.now(), items)
                else:
                    self._to_issue -= 1
                return
            operation = lane.workload.next_operation()
            lane.operations_left -= 1
            if isinstance(operation, ReadOp):
                self._send(index, self.env.now(), key=operation.key)
                return
            lane.write_buffer.append((operation.key, operation.value))
            if len(lane.write_buffer) >= batch_size:
                items, lane.write_buffer = lane.write_buffer, []
                self._send(index, self.env.now(), items)
                return
            # Buffered write: keep generating until a request goes out.

    def _arrive(self, request: ScheduledRequest) -> None:
        """Open loop: one arrival fires."""

        due = self._started_at + request.at
        self._lateness.append(self.env.now() - due)
        self._to_issue -= 1
        if request.kind == "put":
            self._send(request.client_index, due, list(request.items))
        else:
            self._send(request.client_index, due, key=request.key)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _on_phase_change(self, record, phase: CommitPhase) -> None:
        # Every notification is a settle (Phase I, Phase II or FAILED); only
        # the first one for an in-flight operation counts.
        pending = self._pending.pop(record.operation_id, None)
        if pending is None:
            return
        request, operations = pending
        self._last_settled_at = self.env.now()
        if phase is CommitPhase.FAILED:
            request.failed = True
        else:
            self._operations_completed += operations
            if record.phase_one_at > request.phase_one_at:
                request.phase_one_at = record.phase_one_at
        request.unsettled -= 1
        if request.unsettled:
            return
        if not request.failed:
            self._completed += 1
            self._response_times.append(request.phase_one_at - request.due)
        if self._lanes:
            self._issue_next(request.client_index)

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def all_finished(self) -> bool:
        return self._to_issue == 0 and not self._pending

    def run(self, max_time_s: float = 600.0) -> LoadResult:
        """Start (if needed) and run the simulator until every request settles."""

        if self._started_at is None:
            self.start()
        self.env.run_until_condition(self.all_finished, self.env.now() + max_time_s)
        return self._result()

    async def run_live(self) -> LoadResult:
        """Start (if needed) and await a live fleet until every request settles.

        A stalled fleet cannot hang the caller: once :data:`_LIVE_STALL_S`
        passes after both the last settle and the last due arrival, the run
        ends and every unsettled request counts as failed.  A run that keeps
        making progress is never cut, however long its schedule.
        """

        if self._started_at is None:
            self.start()
        last_due = self._started_at + (self.schedule[-1].at if self.schedule else 0.0)
        while not self.all_finished():
            quiet_since = max(self._last_settled_at, last_due)
            remaining = quiet_since + _LIVE_STALL_S - self.env.now()
            if remaining <= 0:
                break
            await self.system.await_condition(self.all_finished, timeout_s=remaining)
        return self._result()

    def _result(self) -> LoadResult:
        # The run is over: arrivals still armed are never offered.
        for handle in self._arrivals:
            handle.cancel()
        return LoadResult(
            offered=self._sent if self.schedule is None else len(self.schedule),
            completed=self._completed,
            operations_completed=self._operations_completed,
            started_at=self._started_at,
            finished_at=self._last_settled_at,
            all_finished=self.all_finished(),
            response_times_s=list(self._response_times),
            lateness_s=list(self._lateness),
        )


#: The closed-loop name ``benchmarks/e2e/wedgebench`` imports.
ClosedLoopDriver = LoadDriver
