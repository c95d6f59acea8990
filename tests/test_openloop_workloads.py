"""Open-loop load generation: arrival processes, schedules, percentiles.

The open-loop layer's whole value is determinism (one seed fixes the entire
offered load, on any substrate) and honest tails (exact nearest-rank
percentiles over every response, each timed from when it was due).  These
tests pin both, plus the validation surface of each arrival process and the
accounting of a run that hits its deadline.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.common.config import WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.core.system import WedgeChainSystem
from repro.log.proofs import CommitPhase
from repro.service import LiveFleet
from repro.sim.environment import local_environment
from repro.sim.rng import DeterministicRng
from repro.workloads import driver as driver_module
from repro.workloads import (
    LoadDriver,
    LoadResult,
    MAPArrivalProcess,
    OpenLoopSpec,
    PoissonArrivalProcess,
    TraceArrivalProcess,
    build_request_schedule,
)


def _workload(seed: int = 11, read_fraction: float = 0.0) -> WorkloadConfig:
    return WorkloadConfig(
        num_clients=2,
        batch_size=10,
        value_size=64,
        read_fraction=read_fraction,
        key_space=500,
        operations_per_client=100,
        seed=seed,
    )


class TestArrivalProcesses:
    def test_poisson_is_seeded_and_mean_matches_rate(self):
        first = PoissonArrivalProcess(rate=100.0, seed=5)
        second = PoissonArrivalProcess(rate=100.0, seed=5)
        gaps = [first.next_interarrival() for _ in range(2000)]
        assert gaps == [second.next_interarrival() for _ in range(2000)]
        assert all(gap >= 0 for gap in gaps)
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1.0 / 100.0, rel=0.15)

    def test_poisson_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivalProcess(rate=0.0)

    def test_trace_replays_and_cycles(self):
        trace = TraceArrivalProcess([0.1, 0.2, 0.3], cycle=True)
        gaps = [trace.next_interarrival() for _ in range(5)]
        assert gaps == [0.1, 0.2, 0.3, 0.1, 0.2]

    def test_finite_trace_raises_when_drained(self):
        trace = TraceArrivalProcess([0.1])
        trace.next_interarrival()
        with pytest.raises(StopIteration):
            trace.next_interarrival()

    def test_trace_validation(self):
        with pytest.raises(ConfigurationError):
            TraceArrivalProcess([])
        with pytest.raises(ConfigurationError):
            TraceArrivalProcess([0.1, -0.2])

    def test_map_is_seeded_and_bursty_states_differ(self):
        rates = (20.0, 400.0)
        transitions = ((0.9, 0.1), (0.2, 0.8))
        first = MAPArrivalProcess(rates, transitions, seed=9)
        second = MAPArrivalProcess(rates, transitions, seed=9)
        gaps = [first.next_interarrival() for _ in range(3000)]
        assert gaps == [second.next_interarrival() for _ in range(3000)]
        # The two-state process must actually visit both regimes.
        assert min(gaps) < 1.0 / 200.0 < max(gaps)

    def test_map_validation(self):
        with pytest.raises(ConfigurationError):
            MAPArrivalProcess((), ())
        with pytest.raises(ConfigurationError):
            MAPArrivalProcess((1.0, 2.0), ((0.5, 0.5),))
        with pytest.raises(ConfigurationError):
            MAPArrivalProcess((1.0,), ((0.7,),))  # row does not sum to 1
        with pytest.raises(ConfigurationError):
            MAPArrivalProcess((1.0,), ((1.0,),), initial_state=3)

    def test_map_accepts_shared_rng(self):
        rng = DeterministicRng(4)
        process = MAPArrivalProcess((10.0,), ((1.0,),), rng=rng)
        assert process.next_interarrival() >= 0
        assert process.state == 0


class TestRequestSchedule:
    def test_schedule_is_deterministic_for_seed(self):
        spec = OpenLoopSpec(workload=_workload(), num_requests=40, rate=100.0)
        assert build_request_schedule(spec, 2) == build_request_schedule(spec, 2)

    def test_schedule_changes_with_seed(self):
        first = OpenLoopSpec(workload=_workload(seed=1), num_requests=20, rate=100.0)
        second = OpenLoopSpec(workload=_workload(seed=2), num_requests=20, rate=100.0)
        assert build_request_schedule(first, 1) != build_request_schedule(second, 1)

    def test_arrival_times_increase_and_clients_round_robin(self):
        spec = OpenLoopSpec(workload=_workload(), num_requests=30, rate=200.0)
        schedule = build_request_schedule(spec, num_clients=3)
        assert len(schedule) == 30
        assert all(
            later.at >= earlier.at
            for earlier, later in zip(schedule, schedule[1:])
        )
        assert [request.client_index for request in schedule[:6]] == [0, 1, 2, 0, 1, 2]

    def test_write_requests_carry_full_batches(self):
        spec = OpenLoopSpec(workload=_workload(), num_requests=5, rate=100.0)
        for request in build_request_schedule(spec, 1):
            assert request.kind == "put"
            assert len(request.items) == 10

    def test_read_fraction_produces_gets(self):
        spec = OpenLoopSpec(
            workload=_workload(read_fraction=0.5), num_requests=40, rate=100.0
        )
        kinds = {request.kind for request in build_request_schedule(spec, 1)}
        assert kinds == {"put", "get"}

    def test_finite_trace_bounds_the_schedule(self):
        spec = OpenLoopSpec(
            workload=_workload(),
            num_requests=100,
            arrivals=TraceArrivalProcess([0.01] * 7),
        )
        assert len(build_request_schedule(spec, 1)) == 7

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(workload=_workload(), num_requests=0)
        with pytest.raises(ConfigurationError):
            OpenLoopSpec(workload=_workload(), num_requests=5, rate=-1.0)


class TestLoadResult:
    def test_exact_nearest_rank_percentiles(self):
        responses = [value / 1000.0 for value in range(1000, 0, -1)]  # 1..1000 ms
        result = LoadResult(
            offered=1000,
            completed=1000,
            operations_completed=1000,
            started_at=0.0,
            finished_at=1.0,
            all_finished=True,
            response_times_s=responses,
            lateness_s=[0.0, 0.004, 0.001],
        )
        percentiles = result.percentiles_s
        assert percentiles["p50"] == pytest.approx(0.501)
        assert percentiles["p90"] == pytest.approx(0.901)
        assert percentiles["p99"] == pytest.approx(0.991)
        # p999 is a real observed sample, not an interpolation.
        assert percentiles["p999"] == pytest.approx(1.000)
        assert result.lateness_p50_s == 0.001
        assert result.lateness_max_s == 0.004
        assert result.failed == 0


class TestSimOpenLoopDriver:
    def _run(self, seed: int = 11, read_fraction: float = 0.0, max_time_s: float = 600.0):
        system = WedgeChainSystem.build(
            num_clients=2, env=local_environment(seed=seed)
        )
        workload = _workload(seed=seed, read_fraction=read_fraction)
        spec = OpenLoopSpec(workload=workload, num_requests=30, rate=150.0)
        result = LoadDriver(system, spec).run(max_time_s=max_time_s)
        return system, result

    def test_open_loop_run_completes_and_reports(self):
        _, result = self._run()
        assert result.offered == 30
        assert result.completed == 30
        assert result.failed == 0
        assert result.all_finished
        assert result.throughput_rps > 0
        assert result.report_lines()[1].startswith("lateness p50=")
        labels = [line.split("=")[0] for line in result.report_lines()[2:]]
        assert labels == ["p50", "p90", "p99", "p999"]
        assert 0 < result.percentiles_s["p50"] <= result.percentiles_s["p999"]

    def test_open_loop_run_is_deterministic(self):
        _, first = self._run()
        _, second = self._run()
        assert first.percentiles_s == second.percentiles_s
        assert first.duration_s == second.duration_s

    @pytest.mark.parametrize("read_fraction", [0.0, 0.5])
    def test_sim_response_times_are_the_trackers_phase_one_latencies(self, read_fraction):
        # On the simulator an arrival fires exactly when it is due, so the
        # generator is never late and timing from the due time equals the
        # client's own issue-to-Phase-I latency.
        system, result = self._run(read_fraction=read_fraction)
        assert result.lateness_s == [0.0] * 30
        assert result.lateness_max_s == 0.0
        tracker_latencies = sorted(
            latency
            for tracker in system.trackers()
            for latency in tracker.phase_one_latencies()
        )
        assert sorted(result.response_times_s) == tracker_latencies
        assert len(tracker_latencies) == 30

    def test_a_run_cut_by_its_deadline_counts_every_laggard_as_failed(self):
        system, result = self._run(max_time_s=0.05)
        assert result.offered == 30
        assert not result.all_finished
        assert result.failed > 0
        assert result.completed + result.failed == result.offered
        # Arrivals after the deadline are never offered, even if the
        # simulator runs on.
        issued = sum(len(tracker) for tracker in system.trackers())
        system.run()
        assert sum(len(tracker) for tracker in system.trackers()) == issued


class _WallClockEnv:
    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def schedule(self, delay, callback, label=""):
        return asyncio.get_running_loop().call_later(delay, callback)


class _Client:
    """Accepts every request and settles it *settle_after_s* later, or never."""

    def __init__(self, env, settle_after_s):
        self.env = env
        self.settle_after_s = settle_after_s
        self.tracker = SimpleNamespace(on_phase_change=None)
        self._next_id = 0

    def _issue(self):
        self._next_id += 1
        record = SimpleNamespace(operation_id=self._next_id, phase_one_at=None)
        if self.settle_after_s is not None:
            self.env.schedule(self.settle_after_s, lambda: self._settle(record))
        return record.operation_id

    def _settle(self, record):
        record.phase_one_at = self.env.now()
        self.tracker.on_phase_change(record, CommitPhase.PHASE_ONE)

    def put_batch(self, items):
        return self._issue()

    def get(self, key):
        return self._issue()


class _WallClockFleet:
    """The surface :meth:`LoadDriver.run_live` needs, over one fake client."""

    await_condition = LiveFleet.await_condition

    def __init__(self, settle_after_s):
        self.env = _WallClockEnv()
        self.clients = [_Client(self.env, settle_after_s)]


class TestLiveWait:
    def test_a_stalled_live_run_ends_and_counts_every_request_as_failed(self, monkeypatch):
        monkeypatch.setattr(driver_module, "_LIVE_STALL_S", 0.05)
        spec = OpenLoopSpec(workload=_workload(), num_requests=4, rate=1000.0)

        async def offered():
            return await LoadDriver(_WallClockFleet(settle_after_s=None), spec).run_live()

        result = asyncio.run(asyncio.wait_for(offered(), timeout=10.0))
        assert not result.all_finished
        assert (result.offered, result.completed, result.failed) == (4, 0, 4)

    def test_a_live_run_that_keeps_settling_outlasts_the_stall_bound(self, monkeypatch):
        # Ten sequential 20 ms requests take ~0.2 s, four times the stall
        # bound: only a quiet spell, not the run's length, may end the wait.
        monkeypatch.setattr(driver_module, "_LIVE_STALL_S", 0.05)
        workload = WorkloadConfig(
            num_clients=1,
            batch_size=1,
            read_fraction=0.5,
            key_space=50,
            operations_per_client=10,
            seed=3,
        )

        async def closed():
            return await LoadDriver(_WallClockFleet(settle_after_s=0.02), workload).run_live()

        result = asyncio.run(asyncio.wait_for(closed(), timeout=10.0))
        assert result.all_finished
        assert (result.offered, result.completed, result.failed) == (10, 10, 0)
        assert result.duration_s > 0.05
