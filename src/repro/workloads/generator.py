"""Workload generation: keys, values, and operation mixes.

The paper's evaluation uses synthetic key-value workloads: batches of 100
put operations with 100-byte values over a partition of 100,000 keys, with
mixes of interactive reads and buffered writes (Section VI).  This module
produces those workloads deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..common.config import WorkloadConfig
from ..common.errors import ConfigurationError
from ..sim.rng import DeterministicRng


def format_key(index: int) -> str:
    """Render a key index as the fixed-width string keys used everywhere."""

    return f"key{index:012d}"


class KeySpace:
    """A bounded, deterministically sampled key population."""

    def __init__(
        self,
        size: int,
        distribution: str = "uniform",
        zipf_theta: float = 0.99,
    ):
        if size <= 0:
            raise ConfigurationError("key space size must be positive")
        if distribution not in ("uniform", "zipfian"):
            raise ConfigurationError(f"unknown key distribution {distribution!r}")
        self.size = size
        self.distribution = distribution
        self.zipf_theta = zipf_theta

    def sample(self, rng: DeterministicRng) -> str:
        if self.distribution == "uniform":
            index = rng.randint(0, self.size - 1)
        else:
            index = rng.zipf_index(self.size, self.zipf_theta)
        return format_key(index)

    def sequential(self, start: int = 0) -> Iterator[str]:
        """Yield keys in index order, wrapping around the key space."""

        index = start
        while True:
            yield format_key(index % self.size)
            index += 1


@dataclass(frozen=True)
class WriteOp:
    """A single key-value put destined for a client-side batch."""

    key: str
    value: bytes


@dataclass(frozen=True)
class ReadOp:
    """A single interactive get."""

    key: str


Operation = WriteOp | ReadOp


class KeyValueWorkload:
    """Generates the operation stream one simulated client will issue."""

    def __init__(
        self,
        config: WorkloadConfig,
        client_index: int = 0,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.config = config
        self.client_index = client_index
        base_rng = rng if rng is not None else DeterministicRng(config.seed)
        self._rng = base_rng.fork(f"client-{client_index}")
        self._keyspace = KeySpace(
            size=config.key_space,
            distribution=config.key_distribution,
            zipf_theta=config.zipf_theta,
        )
        self._value_counter = 0

    # ------------------------------------------------------------------
    # Primitive draws
    # ------------------------------------------------------------------
    def next_key(self) -> str:
        return self._keyspace.sample(self._rng)

    def next_value(self) -> bytes:
        """A value of the configured size, unique per call (versioned data)."""

        self._value_counter += 1
        stamp = f"c{self.client_index}v{self._value_counter}".encode("ascii")
        padding = max(self.config.value_size - len(stamp), 0)
        return stamp + bytes(padding)

    def next_operation(self) -> Operation:
        if self._rng.random() < self.config.read_fraction:
            return ReadOp(key=self.next_key())
        return WriteOp(key=self.next_key(), value=self.next_value())

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def operations(self, count: Optional[int] = None) -> Iterator[Operation]:
        """Yield *count* operations (default: ``operations_per_client``)."""

        total = count if count is not None else self.config.operations_per_client
        for _ in range(total):
            yield self.next_operation()

    def write_batch(self, size: Optional[int] = None) -> list[tuple[str, bytes]]:
        """A ready-to-send batch of put items."""

        batch_size = size if size is not None else self.config.batch_size
        return [(self.next_key(), self.next_value()) for _ in range(batch_size)]

    def preload_items(self, count: int) -> list[tuple[str, bytes]]:
        """Sequential items used to preload a store before read benchmarks."""

        generator = self._keyspace.sequential()
        return [(next(generator), self.next_value()) for _ in range(count)]
