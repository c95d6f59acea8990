"""Core WedgeChain machinery: lazy certification, commits, disputes, gossip."""

from .certification import CertificationTask, InFlightBatch, LazyCertifier
from .commit import CommitTracker, OperationRecord
from .dispute import DisputeJudgement, PunishmentLedger, PunishmentRecord, judge_dispute
from .gossip import (
    AnyGossipMessage,
    GossipView,
    build_gossip,
    build_gossip_batch,
    verify_gossip,
)
from .system import SystemStats, WedgeChainSystem

__all__ = [
    "AnyGossipMessage",
    "CertificationTask",
    "CommitTracker",
    "DisputeJudgement",
    "GossipView",
    "InFlightBatch",
    "LazyCertifier",
    "OperationRecord",
    "PunishmentLedger",
    "PunishmentRecord",
    "SystemStats",
    "WedgeChainSystem",
    "build_gossip",
    "build_gossip_batch",
    "judge_dispute",
    "verify_gossip",
]
