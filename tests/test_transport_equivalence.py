"""Transport equivalence: the protocol does not care which substrate runs it.

The tentpole claim of the Transport refactor is that the simulated network
and the wall-clock asyncio transport are two implementations of the same
boundary.  These tests pin that claim with one :class:`LoadDriver` that
offers the same seeded load — one ``OpenLoopSpec`` (from which each
substrate's driver plans the same :func:`build_request_schedule`, so both
are offered byte-for-byte identical requests), or one closed-loop
``WorkloadConfig`` — to

* the discrete-event simulator (``WedgeChainSystem``, ``LoadDriver.run``),
* a live 1-cloud/2-edge asyncio fleet over unix sockets
  (``LiveFleet``, ``LoadDriver.run_live``),

and assert that the protocol-level outcome is identical: every operation
certifies through Phase II, zero failures on either side, and verified
reads of the same keys return the same values with proofs that check out
(the client only advances a read to PHASE_TWO after verifying its LSMerkle
proof, so phase equality is proof equality).  Wall-clock latencies differ
between substrates by design — only protocol artifacts must match.
"""

from __future__ import annotations

import asyncio

from repro.common.config import SystemConfig, WorkloadConfig
from repro.core.system import WedgeChainSystem
from repro.log.proofs import CommitPhase
from repro.service import LiveFleet
from repro.sim.environment import local_environment
from repro.workloads import (
    KeyValueWorkload,
    LoadDriver,
    OpenLoopSpec,
    WriteOp,
    build_request_schedule,
)

_TEST_TIMEOUT_S = 60.0
_SEED = 33
_NUM_CLIENTS = 2


def run_async(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, timeout=_TEST_TIMEOUT_S)

    return asyncio.run(capped())


def _workload(operations_per_client: int = 100) -> WorkloadConfig:
    # Write-only load; reads are issued afterwards against the certified
    # state so both substrates verify the same keys.
    return WorkloadConfig(
        num_clients=_NUM_CLIENTS,
        batch_size=10,
        value_size=64,
        read_fraction=0.0,
        key_space=200,
        operations_per_client=operations_per_client,
        seed=_SEED,
    )


def _spec() -> OpenLoopSpec:
    return OpenLoopSpec(workload=_workload(), num_requests=16, rate=120.0)


def _keys_by_writer(spec: OpenLoopSpec) -> dict[int, list[str]]:
    """Map client index -> keys that client wrote (last writer wins).

    Clients home to edges round-robin on both substrates, so reads must be
    issued by the writing client to target the edge that holds the key.
    """

    owner = {}
    for request in build_request_schedule(spec, _NUM_CLIENTS):
        for key, _value in request.items:
            owner[key] = request.client_index
    by_writer: dict[int, list[str]] = {}
    for key in sorted(owner):
        by_writer.setdefault(owner[key], []).append(key)
    return by_writer


def _closed_loop_keys(workload: WorkloadConfig) -> dict[int, list[str]]:
    """Map client index -> keys its closed-loop stream writes.

    Each client reads back from its own edge, where only its own writes
    land, so a key two clients write has one answer per writer.
    """

    return {
        index: sorted(
            {
                operation.key
                for operation in KeyValueWorkload(workload, client_index=index).operations()
                if isinstance(operation, WriteOp)
            }
        )
        for index in range(_NUM_CLIENTS)
    }


def _read_outcome(client, operation_id):
    record = client.tracker.get(operation_id)
    return record.details.get("found"), record.details.get("value")


def _sim_run(load, keys_by_writer):
    """Drive the load through the simulator; return (result, read map, phases)."""

    config = SystemConfig.paper_default().with_overrides(num_edge_nodes=2)
    system = WedgeChainSystem.build(
        config=config, num_clients=_NUM_CLIENTS, env=local_environment(seed=_SEED)
    )
    result = LoadDriver(system, load).run()
    system.run()  # drain: every write reaches Phase II
    phases = {record.phase for tracker in system.trackers() for record in tracker.records()}
    reads = {}
    for client_index, keys in keys_by_writer.items():
        client = system.client(client_index)
        for key in keys:
            operation = client.get(key)
            assert system.wait_for(client, operation, CommitPhase.PHASE_TWO)
            reads[client_index, key] = _read_outcome(client, operation)
    return result, reads, phases


async def _live_run(load, keys_by_writer):
    """Drive the same load through the asyncio fleet over unix sockets."""

    async with LiveFleet(
        num_edges=2, num_clients=_NUM_CLIENTS, seed=_SEED
    ) as fleet:
        result = await LoadDriver(fleet, load).run_live()
        written = [
            (client, record.operation_id)
            for client in fleet.clients
            for record in client.tracker.records()
        ]
        assert await fleet.wait_for_all(written, CommitPhase.PHASE_TWO, timeout_s=30)
        phases = {record.phase for tracker in fleet.trackers() for record in tracker.records()}
        reads = {}
        for client_index, keys in keys_by_writer.items():
            client = fleet.client(client_index)
            for key in keys:
                operation = client.get(key)
                phase = await fleet.wait_for(
                    client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                )
                assert phase is CommitPhase.PHASE_TWO
                reads[client_index, key] = _read_outcome(client, operation)
        assert fleet.env.failures == []
    return result, reads, phases


def _assert_same_verified_reads(sim_reads, live_reads, keys_by_writer) -> None:
    # Verified reads agree key-by-key: same found flags, same values.
    # Each read reached PHASE_TWO only after its LSMerkle proof verified,
    # so agreement here is agreement on certified state.
    expected = {(index, key) for index, keys in keys_by_writer.items() for key in keys}
    assert expected, "the load wrote nothing"
    assert set(sim_reads) == set(live_reads) == expected
    for read in sorted(expected):
        assert sim_reads[read] == live_reads[read], read
        found, value = sim_reads[read]
        assert found is True
        assert isinstance(value, bytes) and value


class TestSubstrateEquivalence:
    def test_same_schedule_yields_same_protocol_outcome(self):
        spec = _spec()
        by_writer = _keys_by_writer(spec)

        sim_result, sim_reads, sim_phases = _sim_run(spec, by_writer)
        live_result, live_reads, live_phases = run_async(
            _live_run(spec, by_writer)
        )

        # Both substrates were offered the identical request schedule and
        # settled every operation through Phase II certification.
        assert sim_result.offered == live_result.offered == spec.num_requests
        assert sim_result.completed == spec.num_requests
        assert live_result.completed == spec.num_requests
        assert sim_result.failed == 0 and live_result.failed == 0
        assert sim_phases == live_phases == {CommitPhase.PHASE_TWO}
        _assert_same_verified_reads(sim_reads, live_reads, by_writer)

    def test_same_closed_loop_yields_same_protocol_outcome(self):
        workload = _workload(operations_per_client=40)
        by_writer = _closed_loop_keys(workload)

        sim_result, sim_reads, sim_phases = _sim_run(workload, by_writer)
        live_result, live_reads, live_phases = run_async(_live_run(workload, by_writer))

        # Each client sent its four batches one at a time on both substrates.
        for result in (sim_result, live_result):
            assert result.all_finished
            assert result.offered == result.completed == 8
            assert result.failed == 0
            assert result.operations_completed == 80
        assert sim_phases == live_phases == {CommitPhase.PHASE_TWO}
        _assert_same_verified_reads(sim_reads, live_reads, by_writer)

    def test_sim_side_is_bit_deterministic(self):
        spec = _spec()
        by_writer = _keys_by_writer(spec)
        first_result, first_reads, _ = _sim_run(spec, by_writer)
        second_result, second_reads, _ = _sim_run(spec, by_writer)
        assert first_result.percentiles_s == second_result.percentiles_s
        assert first_result.duration_s == second_result.duration_s
        assert first_reads == second_reads

    def test_schedule_offered_to_both_substrates_is_identical(self):
        spec = _spec()
        assert build_request_schedule(spec, _NUM_CLIENTS) == build_request_schedule(
            spec, _NUM_CLIENTS
        )
