"""Calibration parameters for the simulated edge-cloud environment.

The paper ran on AWS m5d.xlarge VMs; we cannot measure that hardware, so the
simulator charges explicit, documented costs for network transfer and for
CPU-bound work (hashing, signature verification, merges).  The defaults are
calibrated so the *relative* results match the paper (see DESIGN.md §5 and
EXPERIMENTS.md): WedgeChain put latency stays within tens of milliseconds,
cloud-only tracks the client-cloud RTT, and the edge-baseline degrades with
batch size because synchronous full-data certification is bandwidth bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.errors import ConfigurationError


@dataclass(frozen=True)
class SimulationParameters:
    """All tunable cost constants of the simulated environment."""

    # ---------------------------------------------------------------- network
    #: Effective WAN bandwidth in bytes/second (100 Mbit/s).  Calibrated so
    #: that Cloud-only stays close to its round-trip time across batch sizes
    #: while the Edge-baseline — which ships every block across the WAN twice
    #: (edge→cloud data, cloud→edge certified state) — degrades markedly as
    #: batches grow, reproducing the shape of Figure 4(a).
    wan_bandwidth_bytes_per_s: float = 100_000_000 / 8
    #: Client-edge (metro) bandwidth in bytes/second (1 Gbit/s).
    lan_bandwidth_bytes_per_s: float = 1_000_000_000 / 8
    #: Fixed per-message overhead added to every transfer (headers, framing).
    per_message_overhead_bytes: int = 256
    #: Random jitter applied to one-way latencies, as a fraction (0.05 = ±5%).
    latency_jitter_fraction: float = 0.02

    # ------------------------------------------------------------ CPU costs
    #: Time to hash one byte of payload (≈1 GB/s SHA-256 on the paper's VMs).
    hash_seconds_per_byte: float = 1.0e-9
    #: Fixed cost of producing one signature.
    sign_seconds: float = 40e-6
    #: Fixed cost of verifying one signature.  Figure 5(d) attributes 0.19 ms
    #: of the 0.71 ms best-case edge read to client-side verification.
    verify_seconds: float = 60e-6
    #: Per-operation cost of appending an entry into the edge buffer.
    append_seconds_per_op: float = 1.5e-6
    #: Per-operation cost of an index lookup at the edge or cloud.
    lookup_seconds_per_op: float = 8e-6
    #: Per key-value pair cost of an LSM merge at the cloud.
    merge_seconds_per_entry: float = 2e-6
    #: Fixed request-handling overhead charged by every node per message.
    request_overhead_seconds: float = 150e-6
    #: Extra per-block processing at the cloud when it must rebuild Merkle
    #: structure for full-data (edge-baseline) certification.
    merkle_rebuild_seconds_per_entry: float = 3e-6

    # --------------------------------------------- cross-shard transactions
    #: Per-write CPU cost of staging (or applying) one transactional write
    #: at a participant edge, on top of the signature charges the 2PC
    #: messages themselves pay.
    txn_stage_seconds_per_write: float = 2e-6

    # -------------------------------------------------------- shard handoff
    #: Per-block CPU cost of packaging/ingesting shard state during a
    #: certified shard handoff (serialization, proof bundling) on top of the
    #: bandwidth charge the transfer itself pays.
    shard_transfer_seconds_per_block: float = 4e-6
    #: Per-page CPU cost of re-deriving level Merkle roots while verifying a
    #: received shard snapshot at the destination edge.
    shard_verify_seconds_per_page: float = 3e-6

    def __post_init__(self) -> None:
        if self.wan_bandwidth_bytes_per_s <= 0 or self.lan_bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if self.latency_jitter_fraction < 0 or self.latency_jitter_fraction >= 1:
            raise ConfigurationError("latency_jitter_fraction must be in [0, 1)")
        for name in (
            "hash_seconds_per_byte",
            "sign_seconds",
            "verify_seconds",
            "append_seconds_per_op",
            "lookup_seconds_per_op",
            "merge_seconds_per_entry",
            "request_overhead_seconds",
            "merkle_rebuild_seconds_per_entry",
            "txn_stage_seconds_per_write",
            "shard_transfer_seconds_per_block",
            "shard_verify_seconds_per_page",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    def with_overrides(self, **changes) -> "SimulationParameters":
        """Return a copy of the parameters with the given fields replaced."""

        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived cost helpers
    # ------------------------------------------------------------------
    def hash_cost(self, num_bytes: int) -> float:
        """CPU time to hash *num_bytes* bytes."""

        return self.hash_seconds_per_byte * max(num_bytes, 0)

    def transfer_time(self, num_bytes: int, wan: bool) -> float:
        """Serialization time of a message of *num_bytes* on a link."""

        bandwidth = (
            self.wan_bandwidth_bytes_per_s if wan else self.lan_bandwidth_bytes_per_s
        )
        return (num_bytes + self.per_message_overhead_bytes) / bandwidth

    def block_build_cost(self, num_entries: int, num_bytes: int) -> float:
        """CPU time for an edge node to build and digest a block."""

        return (
            self.append_seconds_per_op * num_entries
            + self.hash_cost(num_bytes)
            + self.sign_seconds
        )

    def certification_cost(self) -> float:
        """CPU time for the cloud to certify one digest (data-free path)."""

        return self.request_overhead_seconds + self.verify_seconds + self.sign_seconds

    def batch_certification_cost(self, num_blocks: int) -> float:
        """CPU time for the cloud to certify a whole digest batch at once.

        One request overhead, one signature verification (the edge's batch
        signature), and one signature (the batch root) regardless of the
        batch size; each block adds only a digest lookup and the Merkle leaf
        hashing — this is where batching beats ``num_blocks`` separate
        :meth:`certification_cost` charges.
        """

        return self.certification_cost() + self.lookup_seconds_per_op * max(
            num_blocks, 0
        )

    def window_certification_cost(self, num_batches: int, num_blocks: int) -> float:
        """CPU time for the cloud to certify a whole window envelope.

        One request overhead and one verification (the envelope signature
        covers every batch), but one batch-root *signature per inner batch*
        — window slots retire independently, so the cloud cannot collapse
        them into one certificate.
        """

        return (
            self.request_overhead_seconds
            + self.verify_seconds
            + self.sign_seconds * max(num_batches, 1)
            + self.lookup_seconds_per_op * max(num_blocks, 0)
        )

    def batch_proof_derivation_cost(self, num_blocks: int) -> float:
        """CPU time for the edge to verify a batch certificate and derive
        every per-block proof from it (one signature verification plus
        O(num_blocks) hashing)."""

        return self.verify_seconds + self.lookup_seconds_per_op * max(num_blocks, 0)

    def txn_prepare_cost(self, num_writes: int) -> float:
        """CPU time for a participant edge to handle one txn-prepare: verify
        the coordinator's signature, validate and stage the writes, and sign
        the prepare receipt."""

        return (
            self.request_overhead_seconds
            + self.verify_seconds
            + self.txn_stage_seconds_per_write * max(num_writes, 0)
            + self.sign_seconds
        )

    def txn_decision_cost(self, num_writes: int) -> float:
        """CPU time for a participant edge to handle one txn-decision: verify
        the coordinator's signature and apply (or discard) the staged
        writes.  The decision record's own signing and the block build on
        the commit path are charged by the ordinary block machinery."""

        return (
            self.request_overhead_seconds
            + self.verify_seconds
            + self.txn_stage_seconds_per_write * max(num_writes, 0)
        )

    def handoff_offer_cost(self, num_blocks: int) -> float:
        """CPU time for the source edge to assemble and sign a handoff offer."""

        return (
            self.sign_seconds
            + self.shard_transfer_seconds_per_block * max(num_blocks, 0)
        )

    def handoff_countersign_cost(self, num_blocks: int) -> float:
        """CPU time for the cloud to verify an offer against its certified
        digests and mirror, reassign the shard, and countersign (one
        verification, two signatures: certificate + refreshed shard map)."""

        return (
            self.request_overhead_seconds
            + self.verify_seconds
            + 2 * self.sign_seconds
            + self.lookup_seconds_per_op * max(num_blocks, 0)
        )

    def handoff_install_cost(self, num_blocks: int, num_pages: int) -> float:
        """CPU time for the destination edge to verify and install a shard
        snapshot: certificate + transfer-statement verification, per-block
        digest checks, and per-page level-root recomputation."""

        return (
            2 * self.verify_seconds
            + self.shard_transfer_seconds_per_block * max(num_blocks, 0)
            + self.shard_verify_seconds_per_page * max(num_pages, 0)
        )

    def full_certification_cost(self, num_entries: int, num_bytes: int) -> float:
        """CPU time for the cloud to certify a full block (edge-baseline)."""

        return (
            self.certification_cost()
            + self.hash_cost(num_bytes)
            + self.merkle_rebuild_seconds_per_entry * num_entries
        )
