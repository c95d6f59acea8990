"""Exception hierarchy shared across the WedgeChain reproduction.

Every error raised by the library derives from :class:`WedgeChainError` so
that callers can distinguish library failures from programming errors with a
single ``except`` clause.  The sub-classes mirror the failure domains of the
paper: cryptographic verification, protocol violations by untrusted edge
nodes, certification conflicts detected at the cloud, and configuration
problems in the simulator or workloads.
"""

from __future__ import annotations


class WedgeChainError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(WedgeChainError):
    """A configuration object is inconsistent or out of range."""


class SerializationError(WedgeChainError):
    """A value could not be canonically encoded or decoded."""


class CryptoError(WedgeChainError):
    """Base class for failures in the cryptographic substrate."""


class SignatureError(CryptoError):
    """A signature failed to verify or could not be produced."""


class UnknownSignerError(CryptoError):
    """A signature referenced a key that is not in the registry."""


class ProtocolError(WedgeChainError):
    """Base class for violations of the WedgeChain protocols."""


class InvalidMessageError(ProtocolError):
    """A message is malformed, unsigned, or signed by the wrong party."""


class BlockNotFoundError(ProtocolError):
    """A read referenced a block id the edge node does not have."""


class ProofVerificationError(ProtocolError):
    """A Merkle/read/commit proof failed verification at the client."""


class MergeProtocolError(ProtocolError):
    """The cloud rejected a merge request (bad proofs, stale pages, ...)."""


class StorageError(WedgeChainError):
    """Base class for failures in the durable storage backend."""


class StorageCorruptionError(StorageError):
    """On-disk state failed a checksum, digest, or root verification.

    Raised by segment replay (a sealed segment with a CRC mismatch), manifest
    loading (manifest checksum or page-digest mismatch), and recovery (the
    rebuilt Merkle roots disagree with the last durable signed root).  The
    partition that raised it must be quarantined, never served: the store can
    no longer prove its contents match what was signed.
    """


class StorageFullError(StorageError):
    """The store refused an append because the device is out of space."""


class PartitionQuarantinedError(StorageError):
    """An operation targeted a partition whose store failed verification.

    A quarantined partition refuses all service — serving unverifiable data
    would turn an edge's own disk fault into a convictable protocol lie.
    """


class SimulationError(WedgeChainError):
    """Base class for errors raised by the discrete-event simulator."""


class TransportError(WedgeChainError):
    """A message was addressed to a node unknown to the transport."""
