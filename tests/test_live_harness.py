"""The wall-clock service harness: framing, transport, runtime, fleet.

Covers the layers of :mod:`repro.service` from the bottom up — frame
encode/decode hygiene (truncation and oversize are loud, EOF is clean),
the asyncio transport's parity semantics (send hooks, offline gates, stats
accounting), the live environment's timer surface, and a full
1-cloud/2-edge fleet smoke over unix sockets and TCP.  Every async test
wraps its body in ``asyncio.wait_for`` so a wedged fleet fails fast instead
of hanging the suite.
"""

from __future__ import annotations

import asyncio
import gc
import struct
import weakref

import pytest

from repro.common.config import LoggingConfig, SystemConfig
from repro.common.errors import SimulationError, TransportError
from repro.common.identifiers import client_id, edge_id
from repro.log.proofs import CommitPhase
from repro.messages import GetRequest
from repro.common.identifiers import OperationId
from repro.service import (
    FrameError,
    LiveFleet,
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
)
from repro.service.framing import decode_payload

#: Hard wall-clock cap for any single async test body.
_TEST_TIMEOUT_S = 30.0


def run_async(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, timeout=_TEST_TIMEOUT_S)

    return asyncio.run(capped())


def _sample_message():
    client = client_id("frame-client")
    return GetRequest(
        requester=client,
        operation_id=OperationId(client=client, sequence=9),
        key="sensor-1",
    )


class TestFraming:
    def test_frame_roundtrip(self):
        sender = edge_id("frame-edge")
        message = _sample_message()
        frame = encode_frame(sender, message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        decoded_sender, decoded_message = decode_payload(frame[4:])
        assert decoded_sender == sender
        assert decoded_message == message

    def test_read_frame_clean_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await read_frame(reader) is None

        run_async(scenario())

    def test_read_frame_truncated_payload_is_loud(self):
        async def scenario():
            reader = asyncio.StreamReader()
            frame = encode_frame(edge_id("t"), _sample_message())
            reader.feed_data(frame[:-3])  # drop the tail mid-payload
            reader.feed_eof()
            with pytest.raises(FrameError, match="mid-frame"):
                await read_frame(reader)

        run_async(scenario())

    def test_read_frame_truncated_prefix_is_loud(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")
            reader.feed_eof()
            with pytest.raises(FrameError, match="mid-length-prefix"):
                await read_frame(reader)

        run_async(scenario())

    def test_read_frame_rejects_oversize_length(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError, match="exceeds cap"):
                await read_frame(reader)

        run_async(scenario())

    def test_malformed_envelope_is_loud(self):
        from repro.storage.codec import encode_record

        with pytest.raises(FrameError, match="envelope"):
            decode_payload(encode_record({"only": "half"}))


class TestLiveFleetSmoke:
    def _put_get_story(self, **fleet_kwargs):
        async def scenario():
            async with LiveFleet(num_edges=2, num_clients=2, **fleet_kwargs) as fleet:
                client = fleet.client(0)
                operation = client.put_batch([("k1", b"v1"), ("k2", b"v2")])
                phase = await fleet.wait_for(
                    client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                )
                assert phase is CommitPhase.PHASE_TWO
                read = client.get("k1")
                phase = await fleet.wait_for(
                    client, read, CommitPhase.PHASE_TWO, timeout_s=15
                )
                assert phase is CommitPhase.PHASE_TWO
                assert fleet.env.failures == []
                stats = fleet.stats()
                assert stats.blocks_formed >= 1
                assert stats.certifications >= 1
                assert stats.frames_sent > 0
                assert stats.frame_bytes_sent > 0
                # Modeled byte accounting is kept alongside the real frames.
                assert stats.wan_bytes > 0 and stats.lan_bytes > 0

        run_async(scenario())

    def test_unix_socket_fleet_commits_and_reads(self):
        self._put_get_story(transport_mode="unix")

    def test_tcp_fleet_commits_and_reads(self):
        self._put_get_story(transport_mode="tcp")

    def test_gossip_carries_phase_two_to_clients(self):
        async def scenario():
            async with LiveFleet(
                num_edges=1, num_clients=1, enable_gossip=True
            ) as fleet:
                client = fleet.client(0)
                operation = client.put_batch([("g", b"v")])
                phase = await fleet.wait_for(
                    client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                )
                assert phase is CommitPhase.PHASE_TWO

        run_async(scenario())

    def test_windowed_certification_runs_over_a_socket(self):
        """Batched, pipelined Phase II on the live substrate: the edge's pump
        keeps several certify batches in flight over a real link and every
        put still reaches Phase II."""

        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(
                block_size=2, certify_batch_size=2, certify_pipeline_depth=4
            )
        )

        async def scenario():
            async with LiveFleet(config=config, num_edges=1, num_clients=1) as fleet:
                client, edge = fleet.client(0), fleet.edge(0)
                operations = [
                    client.put_batch([(f"w{i}-a", b"v"), (f"w{i}-b", b"v")])
                    for i in range(16)
                ]
                for operation in operations:
                    phase = await fleet.wait_for(
                        client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                    )
                    assert phase is CommitPhase.PHASE_TWO
                assert edge.stats["certify_inflight_peak"] > 1
                assert edge.stats["certify_batches"] >= 8
                assert fleet.cloud.stats["certify_batches"] >= 8
                assert edge.certifier.in_flight_count == 0
                assert fleet.env.failures == []

        run_async(scenario())


class TestStoppedFleetIsFreed:
    def test_a_stopped_fleet_is_freed_by_reference_count(self):
        """A stopped fleet holds no reference cycle: with the cyclic
        collector off, dropping the fleet frees the environment, the
        transport and every node — a process that builds fleet after fleet
        does not carry the dead ones until a full collection happens by."""

        async def scenario():
            fleet = LiveFleet(num_edges=2, num_clients=2, enable_gossip=True)
            await fleet.start()
            for index, client in enumerate(fleet.clients):
                operation = client.put_batch([("free-%d" % index, b"v")])
                await fleet.wait_for(client, operation, CommitPhase.PHASE_TWO, timeout_s=15)
                read = client.get("free-%d" % index)
                await fleet.wait_for(client, read, CommitPhase.PHASE_ONE, timeout_s=15)
            await fleet.stop()
            # Inspection after stop keeps working.
            assert fleet.stats().phase_two_commits == 4  # two puts, two gets
            assert fleet.edges[0].stats["blocks_formed"] >= 1
            assert fleet.env.failures == []
            return fleet

        gc.collect()
        gc.disable()
        try:
            fleet = run_async(scenario())
            watched = [fleet.env, fleet.env.transport, fleet.cloud, *fleet.edges, *fleet.clients]
            references = [weakref.ref(item) for item in watched]
            del fleet, watched
            assert [reference() for reference in references] == [None] * len(references)
        finally:
            gc.enable()


class TestDroppedCertifyRequestLive:
    def test_lost_certify_request_is_resent_before_any_dispute(self):
        """The sim's dropped-certify scenario on sockets: the edge's own
        retry chain re-sends the lost request at ``dispute_timeout_s / 2``
        of wall-clock time (1 s here), so the block certifies and the
        client's dispute deadline passes without an accusation."""

        from repro.common.config import SecurityConfig
        from repro.faults import assert_no_false_convictions, assert_no_honest_disputes
        from repro.messages.log_messages import BlockCertifyRequest

        config = SystemConfig.paper_default().with_overrides(
            security=SecurityConfig(dispute_timeout_s=2.0)
        )

        async def scenario():
            fleet = LiveFleet(config=config, num_edges=1)
            async with fleet:
                dropped = []

                def veto_first_certify_request(src, dst, message) -> bool:
                    if isinstance(message, BlockCertifyRequest) and not dropped:
                        dropped.append(message)
                        return False
                    return True

                fleet.env.transport.add_send_hook("test:drop-certify", veto_first_certify_request)
                client, edge = fleet.client(), fleet.edge()
                block_size = config.logging.block_size
                operation = client.put_batch([(f"live-{i}", b"v") for i in range(block_size)])
                phase = await fleet.wait_for(client, operation, CommitPhase.PHASE_TWO, timeout_s=10)
                assert phase is CommitPhase.PHASE_TWO
                # Outlive the client's dispute deadline.
                await asyncio.sleep(config.security.dispute_timeout_s)
                assert len(dropped) == 1
                assert edge.stats["certify_retries"] == 1
                assert edge.log.uncertified_block_ids() == ()
                assert_no_false_convictions(fleet.cloud, [edge.node_id])
                assert_no_honest_disputes(fleet)
                assert fleet.env.failures == []

        run_async(scenario())


class TestShardedFleetLive:
    def test_sharded_system_runs_on_live_environment(self):
        """The sharded stack is transport-agnostic: the same
        ``ShardedWedgeSystem.build`` that runs under the simulator builds on a
        :class:`LiveEnvironment`, and ShardedEdgeNodes serve shard-routed
        puts and verified gets as asyncio tasks over real sockets."""

        from repro.common.config import ShardingConfig, SystemConfig
        from repro.service.runtime import LiveEnvironment
        from repro.sharding.system import ShardedWedgeSystem

        async def scenario():
            config = SystemConfig.paper_default().with_overrides(
                num_edge_nodes=2,
                sharding=ShardingConfig(num_shards=4),
            )
            env = LiveEnvironment()
            system = ShardedWedgeSystem.build(config=config, num_clients=1, env=env)
            await env.start()
            try:
                client = system.clients[0]
                operations = [
                    (client, operation)
                    for index in range(4)
                    for operation in client.put_batch(
                        [("shardkey-%d" % index, b"sv%d" % index)]
                    )
                ]
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 15.0

                def settled() -> bool:
                    return all(
                        client.tracker.get(operation).phase is CommitPhase.PHASE_TWO
                        for _client, operation in operations
                    )

                while not settled() and loop.time() < deadline:
                    await asyncio.sleep(0.002)
                assert settled(), [
                    client.tracker.get(operation).phase
                    for _client, operation in operations
                ]
                assert env.failures == []
            finally:
                await env.stop()

        run_async(scenario())


class TestTransportSemantics:
    def test_send_hook_vetoes_and_counts(self):
        async def scenario():
            async with LiveFleet(num_edges=1, num_clients=1) as fleet:
                transport = fleet.env.transport
                transport.add_send_hook("drop-everything", lambda s, d, m: False)
                client = fleet.client(0)
                operation = client.put_batch([("k", b"v")])
                settled = await fleet.wait_for(
                    client, operation, CommitPhase.PHASE_ONE, timeout_s=0.3
                )
                assert settled is not CommitPhase.PHASE_ONE
                assert transport.stats.dropped_sends > 0
                transport.remove_send_hook("drop-everything")
                with pytest.raises(TransportError):
                    transport.add_send_hook("", lambda s, d, m: True)

        run_async(scenario())

    def test_offline_source_emits_nothing(self):
        async def scenario():
            async with LiveFleet(num_edges=1, num_clients=1) as fleet:
                transport = fleet.env.transport
                client = fleet.client(0)
                transport.set_offline(client.node_id)
                assert transport.is_offline(client.node_id)
                before = transport.stats.messages_sent
                assert client.put_batch([("k", b"v")]) is not None
                assert transport.stats.messages_sent == before
                assert transport.stats.dropped_sends > 0
                transport.set_offline(client.node_id, offline=False)
                assert not transport.is_offline(client.node_id)

        run_async(scenario())

    def test_unknown_node_raises(self):
        async def scenario():
            async with LiveFleet(num_edges=1, num_clients=1) as fleet:
                with pytest.raises(TransportError, match="unknown node"):
                    fleet.env.transport.node(edge_id("never-registered"))

        run_async(scenario())


class TestLiveEnvironmentTimers:
    def test_schedule_and_cancel(self):
        async def scenario():
            from repro.service.runtime import LiveEnvironment

            env = LiveEnvironment()
            fired = []
            # Buffered before start, armed at start.
            handle = env.schedule(0.01, lambda: fired.append("a"), label="pre-start")
            cancelled = env.schedule(0.01, lambda: fired.append("b"))
            cancelled.cancel()
            assert cancelled.cancelled
            await env.start()
            env.schedule(0.02, lambda: fired.append("c"), label="post-start")
            with pytest.raises(SimulationError):
                env.schedule(-1.0, lambda: None)
            with pytest.raises(SimulationError):
                env.charge(-1.0)
            env.charge(0.5)  # validated, discarded
            await asyncio.sleep(0.08)
            assert handle.label == "pre-start"
            assert fired == ["a", "c"]
            await env.stop()

        run_async(scenario())

    def test_schedule_periodic_stops(self):
        async def scenario():
            from repro.service.runtime import LiveEnvironment

            env = LiveEnvironment()
            await env.start()
            ticks = []
            stop = env.schedule_periodic(0.01, lambda: ticks.append(1))
            with pytest.raises(SimulationError):
                env.schedule_periodic(0.0, lambda: None)
            await asyncio.sleep(0.05)
            stop()
            count = len(ticks)
            assert count >= 2
            await asyncio.sleep(0.03)
            assert len(ticks) == count
            await env.stop()

        run_async(scenario())
