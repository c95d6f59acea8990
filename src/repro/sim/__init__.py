"""Discrete-event simulation substrate for the edge-cloud environment."""

from .clock import Clock, ManualClock, SimulatedClock, WallClock
from .environment import Environment, EnvironmentNode, local_environment
from .events import EventHandle, EventScheduler
from .network import NetworkStats, SimNetwork, message_wire_size
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
    "Clock",
    "DEFAULT_CLIENT_EDGE_RTT_MS",
    "DEFAULT_INTRA_DC_RTT_MS",
    "DeterministicRng",
    "Environment",
    "EnvironmentNode",
    "EventHandle",
    "EventScheduler",
    "ManualClock",
    "NetworkStats",
    "PAPER_RTT_MS",
    "SimNetwork",
    "SimulatedClock",
    "SimulationParameters",
    "Topology",
    "WallClock",
    "local_environment",
    "message_wire_size",
    "paper_topology",
]
