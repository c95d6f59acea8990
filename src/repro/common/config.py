"""Configuration objects for the WedgeChain system and its simulator.

The defaults follow the paper's evaluation setup (Section VI): batches of
100 put operations with 100-byte values, an LSMerkle tree with four levels
whose thresholds are 10/10/100/1000 pages, the edge node in California and
the cloud node in Virginia.

**Default stance (settled in PR 7): paper-exact by default, fast by
config.**  Every throughput feature added since the seed — batch
certification (``certify_batch_size``), gossip batching (``gossip_batch``),
pipelined Phase II (``certify_pipeline_depth``), durable storage
(``StorageConfig``), observability (``ObservabilityConfig``) — defaults OFF
so that the figure-4/5 metrics stay byte-identical to the paper-calibrated
protocol (under any hash seed: a seed is the whole experiment).
Deployments opt in per knob.  The stance is pinned by
``tests/test_paper_default_stance.py``; changing any of these defaults is a
figure recalibration, not a tweak.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ConfigurationError
from .regions import Region


@dataclass(frozen=True)
class LSMerkleConfig:
    """Structural parameters of the LSMerkle index.

    Parameters
    ----------
    level_thresholds:
        Maximum number of pages per level.  ``level_thresholds[0]`` is the
        in-memory WedgeChain buffer (L0); once it fills up its pages are
        merged into L1, and so on.  The paper's evaluation uses
        ``(10, 10, 100, 1000)``.
    """

    level_thresholds: tuple[int, ...] = (10, 10, 100, 1000)

    def __post_init__(self) -> None:
        if len(self.level_thresholds) < 2:
            raise ConfigurationError("LSMerkle needs at least two levels")
        if any(threshold <= 0 for threshold in self.level_thresholds):
            raise ConfigurationError("level thresholds must be positive")

    @property
    def num_levels(self) -> int:
        return len(self.level_thresholds)

    @classmethod
    def paper_default(cls) -> "LSMerkleConfig":
        """The four-level configuration used in Section VI."""

        return cls(level_thresholds=(10, 10, 100, 1000))

    @classmethod
    def exposition_example(cls) -> "LSMerkleConfig":
        """The small three-level configuration of Figure 3 (2, 2, 4 pages)."""

        return cls(level_thresholds=(2, 2, 4))


@dataclass(frozen=True)
class LoggingConfig:
    """Parameters of the WedgeChain logging layer."""

    #: Number of entries batched into one block (the paper's default is 100).
    block_size: int = 100
    #: Maximum simulated time (seconds) an incomplete block may wait before
    #: being flushed anyway; keeps latency bounded under light load.
    block_timeout_s: float = 0.050
    #: Whether add responses include the full block (the ``add`` interface's
    #: optional ``block`` output).
    return_block_on_add: bool = True
    #: How many block digests the edge accumulates before shipping one
    #: :class:`~repro.messages.log_messages.CertifyBatchRequest` (one edge
    #: signature and one cloud signature amortized over the whole batch).
    #: ``1`` preserves the per-block wire format and simulated metrics of
    #: the unbatched protocol exactly.
    certify_batch_size: int = 1
    #: Maximum simulated time (seconds) a queued digest may wait for its
    #: batch to fill before the partial batch is flushed anyway; bounds the
    #: extra Phase II latency batching can introduce.
    certify_flush_timeout_s: float = 0.050
    #: Certification pipeline depth: how many
    #: :class:`~repro.messages.log_messages.CertifyBatchRequest`\\ s may be
    #: in flight per (edge, shard) at once — every partition of an edge, the
    #: default one and each shard alike, has its own window of this depth.
    #: ``1`` (the default) means one
    #: outstanding batch — under batched certification this is a *bound*
    #: the pre-pipeline dispatch did not have, so a batched deployment
    #: whose blocks form faster than one certification round-trip should
    #: raise the depth (Phase II drains serially otherwise; nothing
    #: client-visible ever waits either way).  The committed figures use
    #: ``certify_batch_size = 1``, which bypasses the window entirely and
    #: keeps their wire format and metrics byte-exact.  Deeper windows
    #: overlap certification WAN round-trips — lazy certification never
    #: blocks anything client-visible, so the pipeline can be arbitrarily
    #: deep.
    certify_pipeline_depth: int = 1
    #: Degraded-mode threshold: when more than this many Phase-I-committed
    #: blocks await certification on one partition (a cloud outage, a
    #: partitioned WAN), the edge keeps serving commits but flags itself
    #: degraded, sending a
    #: :class:`~repro.messages.log_messages.DegradedModeNotice` to every
    #: client it answers so they can throttle or widen dispute timers.
    #: Recovery (backlog back at or below half the threshold) is announced
    #: to the same clients.  ``None`` (the default) disables the signal
    #: entirely — the committed figures never see it.
    max_uncertified_backlog: int | None = None

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.block_timeout_s < 0:
            raise ConfigurationError("block_timeout_s must be non-negative")
        if self.certify_batch_size <= 0:
            raise ConfigurationError("certify_batch_size must be positive")
        if self.certify_flush_timeout_s < 0:
            raise ConfigurationError("certify_flush_timeout_s must be non-negative")
        if self.certify_pipeline_depth <= 0:
            raise ConfigurationError("certify_pipeline_depth must be positive")
        if self.max_uncertified_backlog is not None and self.max_uncertified_backlog <= 0:
            raise ConfigurationError("max_uncertified_backlog must be positive when set")


@dataclass(frozen=True)
class SecurityConfig:
    """Knobs controlling signatures, disputes, gossip, and freshness."""

    #: Which signature scheme the nodes use ("hmac" is fast and used for the
    #: large simulated experiments; "schnorr" is genuinely asymmetric).
    signature_scheme: str = "hmac"
    #: How long (seconds of simulated time) a client waits for a block-proof
    #: before raising a dispute with the cloud node.
    dispute_timeout_s: float = 5.0
    #: Interval between signed gossip messages from the cloud (used to bound
    #: omission attacks, Section IV-E).
    gossip_interval_s: float = 1.0
    #: When ``True`` the cloud emits one signed multi-edge
    #: :class:`~repro.messages.log_messages.GossipBatchMessage` per interval
    #: instead of one signed message per edge (one signature on the WAN path
    #: per interval, however many edges exist).
    gossip_batch: bool = False
    #: Freshness window for LSMerkle reads (Section V-D); ``None`` disables
    #: freshness checking.
    freshness_window_s: float | None = None
    #: Penalty score applied when a malicious act is proven.
    punishment_score: float = 1000.0

    def __post_init__(self) -> None:
        if self.signature_scheme not in ("hmac", "schnorr"):
            raise ConfigurationError(
                f"unknown signature scheme {self.signature_scheme!r}"
            )
        if self.dispute_timeout_s <= 0:
            raise ConfigurationError("dispute_timeout_s must be positive")
        if self.gossip_interval_s <= 0:
            raise ConfigurationError("gossip_interval_s must be positive")
        if self.freshness_window_s is not None and self.freshness_window_s <= 0:
            raise ConfigurationError("freshness_window_s must be positive")


@dataclass(frozen=True)
class PlacementConfig:
    """Where the clients, edge node, and cloud node live."""

    client_region: Region = Region.CALIFORNIA
    edge_region: Region = Region.CALIFORNIA
    cloud_region: Region = Region.VIRGINIA


@dataclass(frozen=True)
class ShardingConfig:
    """Key-space partitioning for a multi-edge fleet (``repro.sharding``).

    When attached to a :class:`SystemConfig`, the deployment becomes a
    sharded edge fleet: keys map to shards through the configured
    partitioner, shards map to owning edge nodes through a cloud-signed
    shard map, and shards can be rebalanced between edges through the
    certified handoff protocol.  ``None`` (the default on
    :class:`SystemConfig`) keeps the single-partition deployment of the
    paper byte-for-byte.
    """

    #: Number of shards the key space is divided into.  More shards than
    #: edges lets rebalancing move load at sub-edge granularity.
    num_shards: int = 8
    #: Which partitioner maps keys to shards: ``"hash-ring"`` (uniform,
    #: placement-stable) or ``"range"`` (ordered, hotspot-prone — the case
    #: rebalancing exists for).
    partitioner: str = "hash-ring"
    #: Size of the key universe the range partitioner splits into contiguous
    #: slices (must match the workload's ``key_space`` for balanced ranges;
    #: ignored by the hash ring).
    key_space: int = 100_000
    #: An edge whose logged-entry share exceeds ``rebalance_hot_factor``
    #: times the fleet mean is eligible for a shard handoff when the
    #: fleet's ``maybe_rebalance`` trigger runs.
    rebalance_hot_factor: float = 1.5
    #: Maximum times a client re-routes one operation after signed
    #: ``NotOwnerRedirect`` responses before failing it.
    max_redirects: int = 3
    #: How long (simulated seconds) a transaction coordinator waits for the
    #: participants' prepare receipts before deciding abort.
    txn_receipt_timeout_s: float = 1.0
    #: How long (simulated seconds) a participant edge keeps a staged
    #: prepare before presuming abort (the receipt's signed ``expires_at``
    #: horizon).  Must comfortably exceed the receipt timeout: the
    #: coordinator only commits while every receipt is unexpired, so the
    #: gap between the two is the decision's safe delivery window.
    txn_prepare_timeout_s: float = 5.0
    #: Total copies of each shard: one certifying writer plus
    #: ``replication_factor - 1`` read replicas receiving the certified log
    #: by shipping.  ``1`` (the default) is the unreplicated deployment —
    #: no leases, no shipping, no failover machinery is ever built, keeping
    #: the paper's metrics byte-identical (pinned by
    #: ``tests/test_paper_default_stance.py``).
    replication_factor: int = 1
    #: Validity (simulated seconds) of one cloud-signed serving lease on a
    #: replicated shard.  Writers and replicas of replicated shards may
    #: only answer clients while holding an unexpired lease; an honest node
    #: parks requests once its lease lapses, which is what makes failover
    #: promotions safe to judge offline (a deposed-but-honest node can
    #: never have served past its last lease).
    replica_lease_s: float = 2.0
    #: How long (simulated seconds) the cloud waits without hearing from a
    #: replicated shard's writer before treating it as lost and starting
    #: failover (promotion still waits for the writer's last lease to
    #: expire).
    failover_timeout_s: float = 3.0

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.partitioner not in ("hash-ring", "range"):
            raise ConfigurationError(
                f"unknown partitioner {self.partitioner!r}; "
                "use 'hash-ring' or 'range'"
            )
        if self.key_space < self.num_shards:
            raise ConfigurationError("key_space must be at least num_shards")
        if self.rebalance_hot_factor <= 1.0:
            raise ConfigurationError("rebalance_hot_factor must exceed 1.0")
        if self.max_redirects < 0:
            raise ConfigurationError("max_redirects must be non-negative")
        if self.txn_receipt_timeout_s <= 0:
            raise ConfigurationError("txn_receipt_timeout_s must be positive")
        if self.txn_prepare_timeout_s <= self.txn_receipt_timeout_s:
            raise ConfigurationError(
                "txn_prepare_timeout_s must exceed txn_receipt_timeout_s "
                "(the gap is the decision's safe delivery window)"
            )
        if self.replication_factor <= 0:
            raise ConfigurationError("replication_factor must be positive")
        if self.replica_lease_s <= 0:
            raise ConfigurationError("replica_lease_s must be positive")
        if self.failover_timeout_s <= 0:
            raise ConfigurationError("failover_timeout_s must be positive")


@dataclass(frozen=True)
class StorageConfig:
    """Durable storage backend for edge partitions (``repro.storage``).

    The default backend is ``"memory"``: every partition lives purely in
    Python objects, exactly as the paper's simulation does, and nothing is
    written anywhere — the committed figures depend on this (paper-exact by
    default, fast/durable by config).  Switching to ``"disk"`` gives every
    :class:`~repro.nodes.edge.PartitionState` a
    :class:`~repro.storage.store.PartitionStore` under ``root_dir``: an
    append-only checksummed segment log for blocks, receipts, and
    certification proofs, plus page files and an atomically-swapped manifest
    for the LSMerkle levels and the last cloud-signed root.  A restart then
    rebuilds the partition from disk through
    :func:`~repro.storage.recovery.recover_partition` instead of trusting
    preserved objects.
    """

    #: ``"memory"`` (the default; nothing persisted) or ``"disk"``.
    backend: str = "memory"
    #: Directory the disk backend stores partitions under (one subdirectory
    #: per edge node, one per partition).  Required when ``backend="disk"``.
    root_dir: str | None = None
    #: When the segment log calls ``fsync``: ``"never"`` (OS decides),
    #: ``"on_seal"`` (once per sealed segment — the benchmarked default), or
    #: ``"always"`` (every append; the only policy under which a crash loses
    #: no acknowledged write).
    fsync: str = "on_seal"
    #: Size at which the active segment is sealed and a new one started.
    segment_max_bytes: int = 1 << 20
    #: Whether writing a manifest also deletes sealed segments made fully
    #: redundant by it (every block below the snapshot floor is certified
    #: and merged into manifest pages), keeping storage bounded.
    truncate_on_snapshot: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("memory", "disk"):
            raise ConfigurationError(
                f"unknown storage backend {self.backend!r}; use 'memory' or 'disk'"
            )
        if self.backend == "disk" and not self.root_dir:
            raise ConfigurationError("disk storage backend requires root_dir")
        if self.fsync not in ("never", "on_seal", "always"):
            raise ConfigurationError(
                f"unknown fsync policy {self.fsync!r}; "
                "use 'never', 'on_seal', or 'always'"
            )
        if self.segment_max_bytes <= 0:
            raise ConfigurationError("segment_max_bytes must be positive")

    @property
    def is_durable(self) -> bool:
        return self.backend == "disk"


@dataclass(frozen=True)
class ObservabilityConfig:
    """Unified observability layer (``repro.obs``).

    ``enabled=False`` (the default) builds nothing: ``env.obs`` stays
    ``None``, node stat dicts remain plain dicts, the network carries no
    trace sidecar, and the instrumented hot paths cost one attribute
    check — the simulation's event stream and wire digests are untouched,
    preserving the paper-exact default stance.

    ``enabled=True`` attaches one shared :class:`repro.obs.Observability`
    bundle to the environment: per-node :class:`~repro.obs.metrics.\
    MetricsRegistry` instances (counters/gauges/histograms with exact
    percentiles, driven by simulated time), and a
    :class:`~repro.obs.tracing.Tracer` whose span contexts propagate as a
    network-layer sidecar — never inside signed or encoded payloads — so
    enabling observability changes no simulated metric.
    """

    #: Master switch; ``False`` means no observability object is ever built.
    enabled: bool = False
    #: Record protocol-phase spans and fault events (when ``enabled``).
    trace: bool = True
    #: Record metrics registries and mirror legacy stat dicts (when
    #: ``enabled``).
    metrics: bool = True

    def __post_init__(self) -> None:
        if self.enabled and not (self.trace or self.metrics):
            raise ConfigurationError(
                "observability enabled but both trace and metrics are off"
            )


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload shape used by the benchmark harness."""

    num_clients: int = 1
    #: Operations per batch/block (the paper sweeps 100..2000).
    batch_size: int = 100
    #: Size of each value in bytes (100 in the paper).
    value_size: int = 100
    #: Fraction of operations that are reads (0.0 = all writes).
    read_fraction: float = 0.0
    #: Number of distinct keys in the partition (100,000 in the paper).
    key_space: int = 100_000
    #: Key popularity distribution: "uniform" or "zipfian".
    key_distribution: str = "uniform"
    #: Zipfian skew parameter (only used when key_distribution == "zipfian").
    zipf_theta: float = 0.99
    #: Total number of operations each client issues.
    operations_per_client: int = 1_000
    #: Seed for deterministic workload generation.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.value_size <= 0:
            raise ConfigurationError("value_size must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.key_space <= 0:
            raise ConfigurationError("key_space must be positive")
        if self.key_distribution not in ("uniform", "zipfian"):
            raise ConfigurationError(
                f"unknown key distribution {self.key_distribution!r}"
            )
        if self.operations_per_client <= 0:
            raise ConfigurationError("operations_per_client must be positive")

    def with_overrides(self, **changes) -> "WorkloadConfig":
        """Return a copy of the config with the given fields replaced."""

        return replace(self, **changes)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for a WedgeChain deployment."""

    logging: LoggingConfig = field(default_factory=LoggingConfig)
    lsmerkle: LSMerkleConfig = field(default_factory=LSMerkleConfig.paper_default)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    #: Number of edge nodes (each owns one partition; the paper reports the
    #: performance of a single partition).
    num_edge_nodes: int = 1
    #: Key-space sharding for multi-edge fleets (``None`` = the paper's
    #: single-partition deployment; see :class:`ShardingConfig`).
    sharding: "ShardingConfig | None" = None
    #: Durable storage backend (default in-memory = nothing persisted; see
    #: :class:`StorageConfig` and the module docstring's default stance).
    storage: StorageConfig = field(default_factory=StorageConfig)
    #: Metrics + tracing (default off = nothing recorded, no overhead; see
    #: :class:`ObservabilityConfig`).
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __post_init__(self) -> None:
        if self.num_edge_nodes <= 0:
            raise ConfigurationError("num_edge_nodes must be positive")

    def with_overrides(self, **changes) -> "SystemConfig":
        """Return a copy of the config with the given fields replaced."""

        return replace(self, **changes)

    def sharding_or_default(self) -> ShardingConfig:
        """The attached sharding config, or the ShardingConfig field defaults.

        The single source of truth for knobs (redirect cap, transaction
        timers) that must behave identically whether or not the deployment
        is sharded — callers never re-spell a field default as a literal.
        """

        return self.sharding if self.sharding is not None else ShardingConfig()

    @classmethod
    def paper_default(cls) -> "SystemConfig":
        """Configuration matching the paper's Section VI setup."""

        return cls()


def validate_regions(regions: Sequence[Region]) -> None:
    """Raise :class:`ConfigurationError` if *regions* contains duplicates."""

    if len(set(regions)) != len(regions):
        raise ConfigurationError(f"duplicate regions in {regions!r}")
