"""Unit tests for the topology (Table I) and the simulated network."""

from __future__ import annotations

import pytest

from repro.common import ConfigurationError, Region, TransportError
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.sim.environment import Environment, local_environment
from repro.sim.network import message_wire_size
from repro.sim.parameters import SimulationParameters
from repro.sim.topology import Topology, paper_topology


class TestTopology:
    def test_table1_california_row(self):
        topology = paper_topology()
        row = topology.table_row(Region.CALIFORNIA)
        assert row == {"C": 0.0, "O": 19.0, "V": 61.0, "I": 141.0, "M": 238.0}

    def test_rtt_is_symmetric(self):
        topology = paper_topology()
        assert topology.rtt(Region.CALIFORNIA, Region.MUMBAI) == topology.rtt(
            Region.MUMBAI, Region.CALIFORNIA
        )

    def test_one_way_latency_is_half_rtt_in_seconds(self):
        topology = paper_topology()
        assert topology.one_way_latency_s(Region.CALIFORNIA, Region.VIRGINIA) == pytest.approx(
            61.0 / 2 / 1000
        )

    def test_same_region_uses_intra_dc_latency(self):
        topology = Topology(intra_region_rtt_ms=0.8)
        assert topology.rtt(Region.OREGON, Region.OREGON) == 0.8

    def test_unknown_pair_raises(self):
        topology = Topology(rtt_ms={(Region.CALIFORNIA, Region.OREGON): 19.0})
        with pytest.raises(ConfigurationError):
            topology.rtt(Region.IRELAND, Region.MUMBAI)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(rtt_ms={(Region.CALIFORNIA, Region.OREGON): -5.0})

    def test_all_paper_pairs_present(self):
        topology = paper_topology()
        regions = list(Region)
        for a in regions:
            for b in regions:
                assert topology.rtt(a, b) >= 0


class _Recorder:
    """Minimal environment node that records what it receives."""

    def __init__(self, node_id, region):
        self.node_id = node_id
        self.region = region
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


class TestSimNetwork:
    def _env(self, **param_overrides):
        params = SimulationParameters(latency_jitter_fraction=0.0, **param_overrides)
        return Environment(params=params, seed=3)

    def test_wan_delivery_takes_half_rtt(self):
        env = self._env()
        edge = _Recorder(edge_id("e"), Region.CALIFORNIA)
        cloud = _Recorder(cloud_id("c"), Region.VIRGINIA)
        env.attach(edge)
        env.attach(cloud)
        env.send(edge.node_id, cloud.node_id, "ping")
        env.run()
        assert cloud.received
        # 61 ms RTT -> 30.5 ms one way, plus negligible transfer time.
        assert env.now() == pytest.approx(0.0305, abs=0.002)

    def test_client_edge_same_region_uses_metro_latency(self):
        env = self._env()
        client = _Recorder(client_id("a"), Region.CALIFORNIA)
        edge = _Recorder(edge_id("e"), Region.CALIFORNIA)
        env.attach(client)
        env.attach(edge)
        env.send(client.node_id, edge.node_id, "ping")
        env.run()
        expected = env.topology.client_edge_rtt_ms / 2 / 1000
        assert env.now() == pytest.approx(expected, rel=0.2)

    def test_unknown_destination_raises(self):
        env = self._env()
        client = _Recorder(client_id("a"), Region.CALIFORNIA)
        env.attach(client)
        with pytest.raises(TransportError):
            env.send(client.node_id, edge_id("ghost"), "ping")

    def test_duplicate_registration_rejected(self):
        env = self._env()
        client = _Recorder(client_id("a"), Region.CALIFORNIA)
        env.attach(client)
        with pytest.raises(TransportError):
            env.attach(_Recorder(client_id("a"), Region.CALIFORNIA))

    def test_bandwidth_delays_large_messages(self):
        env = self._env(wan_bandwidth_bytes_per_s=1_000_000)

        class Payload:
            wire_size = 1_000_000  # 1 second of serialization at 1 MB/s

        edge = _Recorder(edge_id("e"), Region.CALIFORNIA)
        cloud = _Recorder(cloud_id("c"), Region.VIRGINIA)
        env.attach(edge)
        env.attach(cloud)
        env.send(edge.node_id, cloud.node_id, Payload())
        env.run()
        assert env.now() > 1.0

    def test_uplink_serializes_back_to_back_messages(self):
        env = self._env(wan_bandwidth_bytes_per_s=1_000_000)

        class Payload:
            wire_size = 500_000

        edge = _Recorder(edge_id("e"), Region.CALIFORNIA)
        cloud = _Recorder(cloud_id("c"), Region.VIRGINIA)
        env.attach(edge)
        env.attach(cloud)
        first = env.network.send(edge.node_id, cloud.node_id, Payload())
        second = env.network.send(edge.node_id, cloud.node_id, Payload())
        assert second - first == pytest.approx(0.5, rel=0.1)

    def test_network_stats_split_wan_and_lan(self):
        env = self._env()
        client = _Recorder(client_id("a"), Region.CALIFORNIA)
        edge = _Recorder(edge_id("e"), Region.CALIFORNIA)
        cloud = _Recorder(cloud_id("c"), Region.VIRGINIA)
        for node in (client, edge, cloud):
            env.attach(node)
        env.send(client.node_id, edge.node_id, "metro")
        env.send(edge.node_id, cloud.node_id, "wide-area")
        env.run()
        stats = env.network.stats
        assert stats.lan_messages == 1
        assert stats.wan_messages == 1
        assert stats.bytes_sent == stats.lan_bytes + stats.wan_bytes

    def test_send_interceptor_can_drop_messages(self):
        env = self._env()
        edge = _Recorder(edge_id("e"), Region.CALIFORNIA)
        cloud = _Recorder(cloud_id("c"), Region.VIRGINIA)
        env.attach(edge)
        env.attach(cloud)
        env.network.add_send_hook("drop-all", lambda src, dst, msg: False)
        env.send(edge.node_id, cloud.node_id, "dropped")
        env.run()
        assert cloud.received == []

    def test_message_wire_size_prefers_attribute(self):
        class Sized:
            wire_size = 1234

        assert message_wire_size(Sized()) == 1234
        assert message_wire_size({"a": 1}) > 0


class TestEnvironmentCpuModel:
    def test_charge_delays_response_and_busies_node(self):
        params = SimulationParameters(latency_jitter_fraction=0.0)
        env = local_environment(params=params)

        class Worker:
            def __init__(self):
                self.node_id = edge_id("worker")
                self.region = Region.CALIFORNIA

            def on_message(self, sender, message):
                env.charge(0.050)

        worker = Worker()
        client = _Recorder(client_id("a"), Region.CALIFORNIA)
        env.attach(worker)
        env.attach(client)
        env.send(client.node_id, worker.node_id, "work")
        env.run()
        assert env.busy_until(worker.node_id) >= 0.050

    def test_charge_outside_handler_is_ignored(self):
        env = local_environment()
        env.charge(1.0)  # must not raise
        assert env.now() == 0.0

    def test_negative_charge_rejected(self):
        env = local_environment()
        with pytest.raises(Exception):
            env.charge(-1.0)

    def test_queueing_two_messages_on_busy_node(self):
        params = SimulationParameters(latency_jitter_fraction=0.0)
        env = local_environment(params=params)
        finish_times = []

        class Worker:
            def __init__(self):
                self.node_id = edge_id("worker")
                self.region = Region.CALIFORNIA

            def on_message(self, sender, message):
                env.charge(0.1)
                finish_times.append(env.now())

        worker = Worker()
        client = _Recorder(client_id("a"), Region.CALIFORNIA)
        env.attach(worker)
        env.attach(client)
        env.send(client.node_id, worker.node_id, "one")
        env.send(client.node_id, worker.node_id, "two")
        env.run()
        # The second handler starts only after the first one's CPU time.
        assert finish_times[1] - finish_times[0] >= 0.1 - 1e-9
