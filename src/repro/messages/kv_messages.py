"""Messages of the LSMerkle key-value protocol (Section V).

``put`` operations reuse :class:`~repro.messages.log_messages.AppendBatchRequest`
with ``kind=OperationKind.PUT`` (they travel through the same log/buffer);
this module adds the interactive ``get`` exchange and the cloud-coordinated
merge protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..common.identifiers import NodeId, OperationId
from ..crypto.signatures import Signature
from ..lsmerkle.merge import MergeOutcome, MergeProposal
from ..lsmerkle.mlsm import SignedGlobalRoot
from ..lsmerkle.read_proof import GetProof

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (shard_messages
    # imports GetResponseStatement from this module)
    from .shard_messages import ReplicaLease


# ----------------------------------------------------------------------
# Interactive reads (get)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GetRequest:
    """Client request for the most recent value of a key."""

    requester: NodeId
    operation_id: OperationId
    key: str

    @property
    def wire_size(self) -> int:
        return 64 + len(self.key)


@dataclass(frozen=True)
class GetResponseStatement:
    """The signed portion of a get response (dispute evidence)."""

    edge: NodeId
    operation_id: OperationId
    key: str
    found: bool
    value_digest: Optional[str]
    issued_at: float


@dataclass(frozen=True)
class GetResponse:
    """The edge's get response: value, index proof, and signed statement.

    ``lease`` rides along only when a read replica of a replicated shard
    answers: it is the cloud-signed serving lease that authorizes the
    response (see :class:`~repro.messages.shard_messages.ReplicaLease`).
    ``None`` — the writer's own responses and every unreplicated
    deployment — leaves the response exactly as before.
    """

    statement: GetResponseStatement
    signature: Signature
    value: Optional[bytes]
    proof: GetProof
    lease: "Optional[ReplicaLease]" = None

    @property
    def edge(self) -> NodeId:
        return self.statement.edge

    @property
    def key(self) -> str:
        return self.statement.key

    @property
    def wire_size(self) -> int:
        size = 64 + 96 + self.proof.wire_size
        if self.value is not None:
            size += len(self.value)
        if self.lease is not None:
            size += self.lease.wire_size
        return size


# ----------------------------------------------------------------------
# Merges (edge ↔ cloud)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeRequest:
    """Edge → cloud: the pages (or blocks, for level 0) undergoing a merge."""

    edge: NodeId
    proposal: MergeProposal

    @property
    def wire_size(self) -> int:
        return 32 + self.proposal.wire_size


@dataclass(frozen=True)
class MergeResponse:
    """Cloud → edge: merged pages plus the freshly signed global root."""

    cloud: NodeId
    outcome: MergeOutcome

    @property
    def wire_size(self) -> int:
        return 32 + self.outcome.wire_size


@dataclass(frozen=True)
class MergeRejection:
    """Cloud → edge: the merge proposal failed verification."""

    cloud: NodeId
    edge: NodeId
    level_index: int
    reason: str
    #: Shard the rejected merge concerned (sharded fleets only).
    shard_id: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return 160


# ----------------------------------------------------------------------
# Root refresh (freshness support, Section V-D)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RootRefreshRequest:
    """Edge → cloud: please re-sign the current roots with a new timestamp."""

    edge: NodeId
    #: Shard whose root should be refreshed (sharded fleets only).
    shard_id: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return 48


@dataclass(frozen=True)
class RootRefreshResponse:
    """Cloud → edge: the re-signed global root."""

    cloud: NodeId
    edge: NodeId
    signed_root: SignedGlobalRoot
    #: Shard whose root was refreshed (sharded fleets only).
    shard_id: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return 64 + self.signed_root.wire_size
