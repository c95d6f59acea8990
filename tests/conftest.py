"""Shared fixtures for the WedgeChain reproduction test suite."""

from __future__ import annotations

import pytest

from repro.common import LoggingConfig, LSMerkleConfig, SecurityConfig, SystemConfig
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.core.system import WedgeChainSystem
from repro.crypto.signatures import KeyRegistry
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.sim.environment import local_environment


@pytest.fixture
def registry() -> KeyRegistry:
    """An HMAC key registry with one cloud, one edge, and two clients."""

    registry = KeyRegistry("hmac")
    for node in (cloud_id(), edge_id("edge-0"), client_id("alice"), client_id("bob")):
        registry.register(node)
    return registry


@pytest.fixture
def local_env():
    """A co-located simulated environment (negligible network latency)."""

    return local_environment(seed=11)


@pytest.fixture
def small_config() -> SystemConfig:
    """A system config with tiny blocks and shallow LSMerkle levels."""

    return SystemConfig.paper_default().with_overrides(
        logging=LoggingConfig(block_size=5, block_timeout_s=0.02),
        lsmerkle=LSMerkleConfig(level_thresholds=(2, 2, 4, 8)),
        security=SecurityConfig(dispute_timeout_s=2.0, gossip_interval_s=0.25),
    )


@pytest.fixture
def local_system(small_config):
    """A complete WedgeChain deployment on a co-located environment."""

    return WedgeChainSystem.build(
        config=small_config, num_clients=2, env=local_environment(seed=13)
    )


def feed_receiver(receiver, data: bytes, cuts=()) -> None:
    """Feed *data* to a :class:`repro.service.FrameReceiver` as the event
    loop does: fill each buffer it hands out, in reads that also end at
    every offset in *cuts*, until the data runs out or the stream ends."""

    start = 0
    for end in (*sorted(cuts), len(data)):
        while start < end and receiver.error is None:
            buffer = receiver.get_buffer(-1)
            size = min(len(buffer), end - start)
            buffer[:size] = data[start : start + size]
            receiver.buffer_updated(size)
            start += size


def make_signed_entries(registry: KeyRegistry, producer, count: int, start: int = 0):
    """Helper used across tests: *count* signed entries from one producer."""

    return [
        make_entry(
            registry=registry,
            producer=producer,
            sequence=start + index,
            payload=f"payload-{start + index}".encode(),
            produced_at=float(index),
        )
        for index in range(count)
    ]


@pytest.fixture
def sample_block(registry):
    """A block of five signed entries owned by edge-0."""

    entries = make_signed_entries(registry, client_id("alice"), 5)
    return build_block(edge_id("edge-0"), 0, entries, created_at=1.0)
