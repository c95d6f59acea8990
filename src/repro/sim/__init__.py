"""Discrete-event simulation substrate for the edge-cloud environment."""

from ..transport import NetworkStats, message_wire_size
from .clock import SimulatedClock
from .environment import Environment, EnvironmentNode, local_environment
from .events import EventHandle, EventScheduler
from .network import SimNetwork
from .parameters import SimulationParameters
from .rng import DeterministicRng
from .topology import (
    DEFAULT_CLIENT_EDGE_RTT_MS,
    DEFAULT_INTRA_DC_RTT_MS,
    PAPER_RTT_MS,
    Topology,
    paper_topology,
)

__all__ = [
    "DEFAULT_CLIENT_EDGE_RTT_MS",
    "DEFAULT_INTRA_DC_RTT_MS",
    "DeterministicRng",
    "Environment",
    "EnvironmentNode",
    "EventHandle",
    "EventScheduler",
    "NetworkStats",
    "PAPER_RTT_MS",
    "SimNetwork",
    "SimulatedClock",
    "SimulationParameters",
    "Topology",
    "local_environment",
    "message_wire_size",
    "paper_topology",
]
