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

from repro.common.config import LoggingConfig, LSMerkleConfig, SystemConfig
from repro.common.encoding import FRAGMENT_ATTR, reference_encode
from repro.common.errors import SimulationError, TransportError
from repro.common.identifiers import client_id, edge_id
from repro.log.proofs import CommitPhase
from repro.lsmerkle import read_proof
from repro.messages import (
    AppendBatchRequest,
    AppendBatchResponse,
    GetRequest,
    GetResponse,
    MergeRequest,
    MergeResponse,
)
from repro.common.identifiers import OperationId
from repro.core.system import SystemStats
from repro.service import (
    FrameError,
    LiveFleet,
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
)
from repro.service import framing, transport
from repro.service.framing import decode_payload
from repro.storage.codec import encode_record

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
                assert isinstance(stats, SystemStats)
                assert (
                    stats.phase_one_commits,
                    stats.phase_two_commits,
                    stats.failed_operations,
                    stats.blocks_formed,
                    stats.certifications,
                    stats.punishments,
                ) == (0, 2, 0, 1, 1, 0)
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


class TestHeldSetLive:
    def test_a_repeat_get_reuses_blocks_and_a_merge_drops_them(self):
        """Over real sockets, a second get's level-0 blocks are the objects
        the first get's decode built, and after a merge the blocks it took
        out of level 0 are no longer held."""

        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=1),
            lsmerkle=LSMerkleConfig(level_thresholds=(4, 10, 100)),
        )

        async def scenario():
            async with LiveFleet(config=config, num_edges=1, num_clients=1) as fleet:
                client, edge = fleet.client(0), fleet.edge(0)
                received = []
                on_message = client.on_message

                def recording(sender, message):
                    if isinstance(message, GetResponse):
                        received.append(message.proof)
                    on_message(sender, message)

                client.on_message = recording

                async def put(index):
                    operation = client.put_batch([(f"k{index}", b"v")])
                    phase = await fleet.wait_for(
                        client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                    )
                    assert phase is CommitPhase.PHASE_TWO

                async def get():
                    operation = client.get("k0")
                    phase = await fleet.wait_for(
                        client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                    )
                    assert phase is CommitPhase.PHASE_TWO
                    return [item.block for item in received[-1].level_zero]

                for index in range(3):
                    await put(index)
                first, second = await get(), await get()
                assert len(first) == 3
                assert all(a is b for a, b in zip(first, second, strict=True))
                held = client.held.objects()
                assert all(any(block is kept for kept in held) for block in first)

                for index in range(3, 6):
                    await put(index)
                assert await fleet.await_condition(
                    lambda: edge.stats["merges_completed"] >= 1, timeout_s=15
                )
                after = await get()
                merged = [block for block in first if block not in after]
                assert merged
                held = client.held.objects()
                assert not any(block is kept for block in merged for kept in held)
                assert fleet.env.failures == []

        run_async(scenario())

    def test_frames_of_memoized_blocks_are_the_reference_encoding(self, monkeypatch):
        """Over real sockets, the append echoes and get answers an edge
        frames from the blocks it memoized are byte for byte the memo-free
        reference encoding of their envelopes, and a repeat get builds no
        key map: the client answers each held block from the map the
        verifier built when the block first arrived."""

        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(4, 10, 100)),
        )
        framed, built = [], []

        def recording_frame(sender, message):
            frame = encode_frame(sender, message)
            if isinstance(message, (AppendBatchResponse, GetResponse)):
                framed.append((sender, message, frame))
            return frame

        def counting_key_map(block):
            built.append(block)
            return key_map(block)

        key_map = read_proof.key_map
        monkeypatch.setattr(transport, "encode_frame", recording_frame)
        monkeypatch.setattr(read_proof, "key_map", counting_key_map)

        async def scenario():
            async with LiveFleet(config=config, num_edges=1, num_clients=1) as fleet:
                client, edge = fleet.client(0), fleet.edge(0)

                async def settle(operation):
                    phase = await fleet.wait_for(
                        client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                    )
                    assert phase is CommitPhase.PHASE_TWO

                for batch in range(3):
                    await settle(client.put_batch([(f"k{batch}-{i}", b"v") for i in range(4)]))
                await settle(client.get("k0-0"))
                assert len(built) == 3
                await settle(client.get("k1-2"))
                assert len(built) == 3
                assert fleet.env.failures == []

                kinds = [type(message) for _sender, message, _frame in framed]
                assert kinds.count(AppendBatchResponse) == 3 and kinds.count(GetResponse) == 2
                for sender, message, frame in framed:
                    blocks = (
                        [message.block]
                        if isinstance(message, AppendBatchResponse)
                        else [item.block for item in message.proof.level_zero]
                    )
                    assert all(getattr(block, FRAGMENT_ATTR, None) for block in blocks)
                    envelope = {"sender": sender, "message": message}
                    assert frame[4:] == reference_encode(envelope)
                mapped = [id(block) for block, _map in client._key_maps[edge.node_id].values()]
                assert mapped == [id(block) for block in client.held.objects()]

        run_async(scenario())

    def test_echoed_entries_and_merged_records_are_the_receivers_own(self):
        """Over real sockets, the block an edge answers an append with is
        made of the entries the client sent — the client's own objects —
        and the merged pages the cloud answers a merge with are made of the
        records the edge proposed, the edge's own objects; both hold sets
        are empty once every put has settled."""

        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 10, 100)),
        )

        async def scenario():
            async with LiveFleet(config=config, num_edges=1, num_clients=1) as fleet:
                client, edge = fleet.client(0), fleet.edge(0)
                sent, proposed, echoed, merged = [], [], [], []

                def on_send(src, dst, message) -> bool:
                    if isinstance(message, AppendBatchRequest):
                        sent.extend(message.entries)
                    elif isinstance(message, MergeRequest):
                        proposed.extend(edge.held.objects())
                    return True

                fleet.env.transport.add_send_hook("test:held", on_send)
                for node, kind, into in (
                    (client, AppendBatchResponse, echoed),
                    (edge, MergeResponse, merged),
                ):
                    def recording(sender, message, handle=node.on_message, kind=kind, into=into):
                        if isinstance(message, kind):
                            into.append(message)
                        handle(sender, message)

                    node.on_message = recording

                operations = [
                    client.put_batch([(f"k{(4 * batch + i) % 6}", b"v%d" % batch) for i in range(4)])
                    for batch in range(6)
                ]
                for operation in operations:
                    phase = await fleet.wait_for(
                        client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                    )
                    assert phase is CommitPhase.PHASE_TWO
                assert await fleet.await_condition(
                    lambda: edge.stats["merges_completed"] >= 2
                    and not edge._default_partition.merge_in_flight,
                    timeout_s=15,
                )
                sent_ids = {id(entry) for entry in sent}
                echo = [entry for response in echoed for entry in response.block.entries]
                assert len(echo) == 24 and all(id(entry) in sent_ids for entry in echo)
                proposed_ids = {id(record) for record in proposed}
                records = [
                    record
                    for response in merged
                    for page in response.outcome.merged_pages
                    for record in page.records
                ]
                assert records and all(id(record) in proposed_ids for record in records)
                assert client.held.objects() == [] and edge.held.objects() == []
                assert fleet.env.failures == []

        run_async(scenario())

    def test_the_cloud_decodes_its_own_answer_back(self):
        """Over real sockets, the target-page records the cloud decodes in a
        level-0 merge are the records of its previous answer to that edge —
        the cloud's own objects — and once every put has settled the cloud
        holds exactly the records of its mirror's upper levels."""

        config = SystemConfig.paper_default().with_overrides(
            logging=LoggingConfig(block_size=4),
            lsmerkle=LSMerkleConfig(level_thresholds=(2, 10, 100)),
        )

        async def scenario():
            async with LiveFleet(config=config, num_edges=1, num_clients=1) as fleet:
                client, edge, cloud = fleet.client(0), fleet.edge(0), fleet.cloud
                answers, exchanges = [], []

                def on_send(src, dst, message) -> bool:
                    if isinstance(message, MergeResponse):
                        answers.append(message.outcome)
                    return True

                def recording(sender, message, handle=cloud.on_message):
                    if isinstance(message, MergeRequest):
                        exchanges.append((message.proposal, answers[-1] if answers else None))
                    handle(sender, message)

                fleet.env.transport.add_send_hook("test:cloud-held", on_send)
                cloud.on_message = recording
                for batch in range(8):
                    operation = client.put_batch(
                        [(f"k{(4 * batch + i) % 6}", b"v%d" % batch) for i in range(4)]
                    )
                    phase = await fleet.wait_for(
                        client, operation, CommitPhase.PHASE_TWO, timeout_s=15
                    )
                    assert phase is CommitPhase.PHASE_TWO
                assert await fleet.await_condition(
                    lambda: edge.stats["merges_completed"] >= 3
                    and not edge._default_partition.merge_in_flight,
                    timeout_s=15,
                )
                checked = 0
                for proposal, previous in exchanges:
                    if proposal.level_index == 0 and proposal.target_pages:
                        answered = [r for page in previous.merged_pages for r in page.records]
                        target = [r for page in proposal.target_pages for r in page.records]
                        assert [id(r) for r in target] == [id(r) for r in answered]
                        checked += 1
                assert checked >= 2

                state = edge._default_partition
                levels = state.index.tree.levels
                mirror = cloud.mirror_for(edge.node_id)
                upper = []
                for level in range(1, len(levels) - 1):
                    pages = levels[level].pages
                    assert [page.digest() for page in pages] == mirror.level_page_digests[level]
                    upper += [record for page in pages for record in page.records]
                held = cloud.held.objects()
                assert upper and sorted(map(encode_record, held)) == sorted(
                    map(encode_record, upper)
                )
                assert fleet.env.failures == []

        run_async(scenario())


class TestReaderCrashIsLoud:
    def test_a_crashing_frame_reader_is_recorded(self, monkeypatch):
        """An exception other than a bad frame, raised while a node's frame
        is read, is recorded in ``env.failures`` like a crashed handler —
        not a link that goes quiet until every later request times out."""

        def crashing(payload, held=None):
            raise TypeError("planted in decode_payload")

        async def scenario():
            async with LiveFleet(num_edges=1, num_clients=1) as fleet:
                client = fleet.client(0)
                monkeypatch.setattr(framing, "decode_payload", crashing)
                client.put_batch([("k", b"v")])
                assert await fleet.await_condition(
                    lambda: fleet.env.failures != [], timeout_s=5
                )
                node, exc = fleet.env.failures[0]
                assert node == fleet.edge(0).node_id
                assert isinstance(exc, TypeError) and "planted" in str(exc)

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
