"""The Edge-baseline (Section II-C).

Data is certified *synchronously*: the edge node forwards every freshly
formed block — the full data, not a digest — to the cloud, waits for the
cloud's certification, and only then acknowledges the clients.  Reads are
served from the edge with proofs, exactly like Phase II reads in WedgeChain.
This is the "current way of utilizing untrusted nodes" the paper compares
against; its latency grows with batch size because the full-data transfer
and the cloud-side processing sit on the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.identifiers import NodeId, OperationId
from ..core.system import WedgeChainSystem
from ..log.block import Block, compute_block_digest
from ..messages.log_messages import AppendBatchResponse, BlockProofMessage
from ..nodes.cloud import CloudNode
from ..nodes.edge import EdgeNode, PartitionState
from ..storage.codec import register_storable


@register_storable
@dataclass(frozen=True)
class FullBlockCertifyRequest:
    """Edge → cloud: certify this block, full contents attached."""

    edge: NodeId
    block: Block

    @property
    def wire_size(self) -> int:
        return 48 + self.block.wire_size


@register_storable
@dataclass(frozen=True)
class CertifiedStateResponse(BlockProofMessage):
    """Cloud → edge: the block proof plus the regenerated trusted state.

    In the edge-baseline the cloud "regenerates the Merkle tree ... and sends
    the Merkle tree to the edge node" (Section II-C), so the response size
    grows with the certified data; ``state_bytes`` models that payload.
    """

    state_bytes: int = 0

    @property
    def wire_size(self) -> int:
        return self.proof.wire_size + 16 + self.state_bytes


class EdgeBaselineCloudNode(CloudNode):
    """A cloud node that additionally certifies full-data blocks: it
    recomputes each block's digest, then applies the cloud's own conflict
    rule and proof issuing to it."""

    HANDLERS = CloudNode.HANDLERS.extended(
        {FullBlockCertifyRequest: "_handle_full_certify"}
    )

    def _handle_full_certify(
        self, sender: NodeId, request: FullBlockCertifyRequest
    ) -> None:
        params = self.env.params
        block = request.block
        # The cloud must hash the whole block and rebuild Merkle state: this
        # is the processing cost that, together with the full-data transfer,
        # hurts the baseline at large batch sizes.
        self.env.charge(
            params.full_certification_cost(block.num_entries, block.wire_size)
        )
        if request.edge != sender or block.edge != sender:
            return
        digest = compute_block_digest(block.edge, block.block_id, block.entries)
        rejection = self._order_digest(sender, block.block_id, digest)
        if rejection is not None:
            self.env.send(self.node_id, sender, rejection)
            return
        self.env.send(
            self.node_id,
            sender,
            CertifiedStateResponse(
                proof=self._proof_of(sender, block.block_id, digest),
                state_bytes=block.wire_size,
            ),
        )


class EdgeBaselineEdgeNode(EdgeNode):
    """An edge node that waits for cloud certification before acknowledging."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Phase I responses deferred until the cloud certifies the block.
        self._deferred: dict[int, tuple[list[tuple[NodeId, OperationId]], Block, object]] = {}

    # The synchronous baseline ships the whole block to the cloud …
    def _send_certify_request(self, state: PartitionState, block: Block) -> None:
        self.stats["certify_requests"] += 1
        self.env.send(
            self.node_id,
            self.cloud,
            FullBlockCertifyRequest(edge=self.node_id, block=block),
        )

    # … and postpones client acknowledgements until certification returns.
    def _dispatch_phase_one_responses(self, requesters, block, receipt) -> None:
        self._deferred[block.block_id] = (list(requesters), block, receipt)

    def _handle_block_proof(
        self, state: PartitionState, sender: NodeId, message: BlockProofMessage
    ) -> None:
        super()._handle_block_proof(state, sender, message)
        deferred = self._deferred.pop(message.proof.block_id, None)
        if deferred is None:
            return
        requesters, block, receipt = deferred
        # Installing the regenerated trusted state at the edge costs time
        # proportional to the certified data (Section II-C).
        self.env.charge(
            self.env.params.merkle_rebuild_seconds_per_entry * block.num_entries
        )
        for requester, operation_id in requesters:
            response = AppendBatchResponse(
                edge=self.node_id,
                operation_id=operation_id,
                block_id=block.block_id,
                receipt=receipt,
                block=block,
            )
            self.env.send(self.node_id, requester, response)


class EdgeBaselineSystem(WedgeChainSystem):
    """Deployment facade for the edge-baseline: the WedgeChain wiring and
    run/wait helpers over the two synchronous-certification node classes."""

    name = "edge-baseline"
    cloud_class = EdgeBaselineCloudNode
    edge_class = EdgeBaselineEdgeNode
