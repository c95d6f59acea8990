"""Reproduction of *WedgeChain: A Trusted Edge-Cloud Store With Asynchronous
(Lazy) Trust* (Faisal Nawab, ICDE 2021).

The package is organised as a set of substrates (crypto, simulation, log,
Merkle, LSM), the WedgeChain core (lazy certification, commits, disputes,
the system facade), the LSMerkle index, the two baselines the paper compares
against, workload generators, and a benchmark harness that regenerates every
table and figure of the evaluation.

Quick start::

    from repro import WedgeChainSystem

    system = WedgeChainSystem.build(num_clients=1)
    client = system.client()
    op = client.put_batch([("sensor-42", b"21.5C")])
    system.wait_for(client, op)          # runs the simulation to Phase II
    print(client.operation(op).phase)    # CommitPhase.PHASE_TWO
"""

from .baselines import CloudOnlySystem, EdgeBaselineSystem
from .common import (
    LoggingConfig,
    LSMerkleConfig,
    PlacementConfig,
    Region,
    SecurityConfig,
    SystemConfig,
    WorkloadConfig,
)
from .core import CommitTracker, PunishmentLedger, WedgeChainSystem
from .log import CommitPhase
from .nodes import Client, CloudNode, EdgeNode
from .sim import Environment, SimulationParameters, Topology, paper_topology
from .workloads import KeyValueWorkload, LoadDriver

__version__ = "1.0.0"

__all__ = [
    "Client",
    "CloudNode",
    "CloudOnlySystem",
    "CommitPhase",
    "CommitTracker",
    "EdgeBaselineSystem",
    "EdgeNode",
    "Environment",
    "KeyValueWorkload",
    "LSMerkleConfig",
    "LoadDriver",
    "LoggingConfig",
    "PlacementConfig",
    "PunishmentLedger",
    "Region",
    "SecurityConfig",
    "SimulationParameters",
    "SystemConfig",
    "Topology",
    "WedgeChainSystem",
    "WorkloadConfig",
    "__version__",
    "paper_topology",
]
