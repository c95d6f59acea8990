"""Protocol message definitions for logging, key-value, and maintenance paths.

:data:`WIRE_MESSAGE_TYPES` is the authoritative listing of every top-level
message class that can cross the node/network boundary.  The storable-class
registry in :mod:`repro.storage.codec` — which doubles as the live wire
format of :mod:`repro.service` — must cover all of them; the round-trip
suite in ``tests/test_wire_codec_roundtrip.py`` enforces it, so adding a
message class here without registering it is a test failure, not a latent
crash on the first live send.
"""

from .kv_messages import (
    GetRequest,
    GetResponse,
    GetResponseStatement,
    MergeRejection,
    MergeRequest,
    MergeResponse,
    RootRefreshRequest,
    RootRefreshResponse,
)
from .log_messages import (
    AppendBatchRequest,
    AppendBatchResponse,
    BatchCertificateMessage,
    BlockCertifyRequest,
    BlockProofMessage,
    CertifyBatchRequest,
    CertifyWindowRequest,
    CertifyWindowStatement,
    CertifyBatchStatement,
    CertifyRejection,
    CertifyStatement,
    DegradedModeNotice,
    DisputeRequest,
    DisputeVerdict,
    GossipBatchMessage,
    GossipBatchStatement,
    GossipEntry,
    GossipMessage,
    GossipStatement,
    ReadRequest,
    ReadResponse,
    ReadResponseStatement,
)
from .shard_messages import (
    HandoffGrantStatement,
    NotOwnerRedirect,
    NotOwnerStatement,
    ReplicaLease,
    ReplicaLeaseStatement,
    ReplicaLogShipment,
    ReplicaPromotionGrant,
    ReplicaPromotionOffer,
    ReplicaPromotionOrder,
    ReplicaShipmentAck,
    ShardAssignment,
    ShardDispute,
    ShardDisputeVerdict,
    ShardHandoffCertificate,
    ShardHandoffGrant,
    ShardHandoffOrder,
    ShardHandoffRejection,
    ShardHandoffRequest,
    ShardHandoffStatement,
    ShardInstallAck,
    ShardMapMessage,
    ShardMapStatement,
    ShardQuarantineNotice,
    ShardTransferMessage,
    ShardTransferStatement,
    WriterHeartbeat,
)
from .txn_messages import (
    TxnDecisionAck,
    TxnDecisionMessage,
    TxnDispute,
    TxnDisputeVerdict,
    TxnPrepareReceipt,
    TxnPrepareRejection,
    TxnPrepareRequest,
)

#: Every top-level message class a node may put on (or accept from) the
#: wire.  Statements and other nested values ride inside these envelopes
#: and are registered with the codec separately.
WIRE_MESSAGE_TYPES: tuple[type, ...] = (
    # Log path (append / certify / read / gossip / dispute).
    AppendBatchRequest,
    AppendBatchResponse,
    BlockCertifyRequest,
    CertifyBatchRequest,
    CertifyWindowRequest,
    BatchCertificateMessage,
    BlockProofMessage,
    CertifyRejection,
    DegradedModeNotice,
    ReadRequest,
    ReadResponse,
    GossipMessage,
    GossipBatchMessage,
    DisputeRequest,
    DisputeVerdict,
    # Key-value path (gets / merges / root refresh).
    GetRequest,
    GetResponse,
    MergeRequest,
    MergeResponse,
    MergeRejection,
    RootRefreshRequest,
    RootRefreshResponse,
    # Sharded fleet (maps / redirects / handoff / replica groups).
    ShardMapMessage,
    NotOwnerRedirect,
    ShardHandoffOrder,
    ShardHandoffRequest,
    ShardHandoffGrant,
    ShardHandoffRejection,
    ShardTransferMessage,
    ShardInstallAck,
    ShardDispute,
    ShardDisputeVerdict,
    ReplicaLease,
    ReplicaLogShipment,
    ReplicaShipmentAck,
    WriterHeartbeat,
    ShardQuarantineNotice,
    ReplicaPromotionOrder,
    ReplicaPromotionOffer,
    ReplicaPromotionGrant,
    # Cross-shard transactions (2PC).
    TxnPrepareRequest,
    TxnPrepareReceipt,
    TxnPrepareRejection,
    TxnDecisionMessage,
    TxnDecisionAck,
    TxnDispute,
    TxnDisputeVerdict,
)

#: Every class imported above plus the wire listing — computed, so a message
#: added to the imports cannot go missing from ``from repro.messages import *``.
__all__ = sorted(
    name for name, value in globals().items() if isinstance(value, type)
) + ["WIRE_MESSAGE_TYPES"]
