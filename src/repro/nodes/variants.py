"""Honest design-ablation variants of the edge node.

These are *not* malicious — they isolate individual design decisions of
WedgeChain so the ablation benchmarks can quantify each one:

``FullDataLazyEdgeNode``
    Keeps lazy (asynchronous) certification but ships the whole block to the
    cloud instead of only its digest.  Comparing it with the honest edge node
    isolates the benefit of *data-free* certification (WAN bytes and Phase II
    latency) while the client-visible Phase I latency stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..log.block import Block
from ..messages.log_messages import BlockCertifyRequest, CertifyStatement
from .edge import EdgeNode


@dataclass(frozen=True)
class FullDataCertifyRequest(BlockCertifyRequest):
    """A block-certify request that (wastefully) also carries the block.

    The cloud handles it exactly like a digest-only request — it only looks
    at the signed statement — but the network must carry the whole block
    across the WAN, which is what the data-free ablation measures.
    """

    block: Block = None  # type: ignore[assignment]

    @property
    def wire_size(self) -> int:
        base = 64 + 64 + 80
        return base + (self.block.wire_size if self.block is not None else 0)


class FullDataLazyEdgeNode(EdgeNode):
    """Lazy certification without the data-free optimisation."""

    def _send_certify_request(self, block: Block) -> None:
        statement = CertifyStatement(
            edge=self.node_id,
            block_id=block.block_id,
            block_digest=self.certifier.task(block.block_id).block_digest,
            num_entries=block.num_entries,
        )
        signature = self.env.registry.sign(self.node_id, statement)
        self.stats["certify_requests"] += 1
        self.env.send(
            self.node_id,
            self.cloud,
            FullDataCertifyRequest(
                statement=statement, signature=signature, block=block
            ),
        )
