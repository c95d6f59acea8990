"""Deterministic random number generation for simulations and workloads.

All stochastic behaviour in the simulator (latency jitter, key selection,
value payloads) flows through a :class:`DeterministicRng` seeded explicitly,
so experiments are exactly reproducible run to run.
"""

from __future__ import annotations

import hashlib
import random
import string
from typing import Sequence

from ..common.errors import ConfigurationError


class DeterministicRng:
    """A seeded random source with helpers used across the code base."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent, reproducible child stream.

        Forking by label lets each client/node own a private stream whose
        draws do not depend on the interleaving of other components.  The
        child seed is a digest of ``seed/label`` (never the per-process
        salted ``hash``), so a seed fixes the whole experiment.
        """

        digest = hashlib.sha256(f"{self._seed}/{label}".encode()).digest()
        child_seed = int.from_bytes(digest[:4], "big")
        return DeterministicRng(child_seed)

    # ------------------------------------------------------------------
    # Basic draws
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, items: Sequence):
        return self._random.choice(items)

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)

    def bytes(self, length: int) -> bytes:
        return self._random.getrandbits(length * 8).to_bytes(length, "big") if length else b""

    def token(self, length: int = 12) -> str:
        alphabet = string.ascii_lowercase + string.digits
        return "".join(self._random.choice(alphabet) for _ in range(length))

    # ------------------------------------------------------------------
    # Domain helpers
    # ------------------------------------------------------------------
    def jitter(self, value: float, fraction: float) -> float:
        """Return *value* perturbed by up to ±``fraction`` of itself."""

        if fraction < 0 or fraction >= 1:
            raise ConfigurationError("jitter fraction must be in [0, 1)")
        if fraction == 0:
            return value
        return value * (1.0 + self._random.uniform(-fraction, fraction))

    def zipf_index(self, population: int, theta: float) -> int:
        """Draw a Zipfian-distributed index in ``[0, population)``.

        Uses the standard rejection-free inverse power approximation, which
        is adequate for workload skew (it does not need to be an exact
        Zipf sampler).
        """

        if population <= 0:
            raise ConfigurationError("population must be positive")
        if theta <= 0:
            return self._random.randrange(population)
        u = self._random.random()
        # Inverse-CDF of a truncated power-law: raising the uniform draw to a
        # power > 1 concentrates probability mass on small indices.
        index = int(population * (u ** (1.0 + theta)))
        return min(population - 1, index)
