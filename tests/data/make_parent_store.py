"""Regenerate ``tests/data/store_written_by_parent/``.

The committed fixture was written by running this script against the
*parent* of the commit that made the canonical text the disk format
(``PYTHONPATH=<parent checkout>/src python tests/data/make_parent_store.py
<out dir>``): a partition store holding four blocks with their receipts,
three proofs, and a manifest with one merged level, two pages and a signed
root.  ``tests/test_storage_durability.py::TestParentWrittenStore`` recovers
it and re-writes it byte for byte.  Signing keys are derived from the node
names so the test can rebuild the registry that verifies it.
"""

from __future__ import annotations

import hashlib
import sys

from repro.common.config import StorageConfig, SystemConfig
from repro.common.identifiers import client_id, cloud_id, edge_id
from repro.crypto.signatures import KeyPair, KeyRegistry
from repro.log.block import build_block
from repro.log.entry import make_entry
from repro.log.proofs import issue_block_proof, issue_phase_one_receipt
from repro.lsm.page import build_page
from repro.lsm.records import KeyFence
from repro.lsmerkle.codec import encode_put, records_from_block
from repro.lsmerkle.mlsm import sign_global_root
from repro.nodes.edge import PartitionState
from repro.storage.store import PartitionStore

EDGE = edge_id("fixture-edge")
CLOUD = cloud_id("fixture-cloud")
CLIENT = client_id("fixture-client")


def fixture_registry() -> KeyRegistry:
    registry = KeyRegistry("hmac")
    for node in (EDGE, CLOUD, CLIENT):
        secret = hashlib.sha256(b"fixture-key:" + str(node).encode()).digest()
        registry._keys[node] = KeyPair(
            owner=node,
            scheme="hmac",
            private_key=secret,
            public_key=hashlib.sha256(b"hmac-pub:" + secret).digest(),
        )
    return registry


def fixture_blocks(registry: KeyRegistry):
    blocks = []
    for block_id in range(4):
        entries = [
            make_entry(
                registry,
                CLIENT,
                sequence=block_id * 3 + index,
                payload=encode_put(
                    "key-%02d" % ((block_id * 5 + index * 7) % 11),
                    b"value \"%d\"\n\xff" % (block_id * 3 + index),
                ),
                produced_at=0.125 * (block_id + 1),
            )
            for index in range(3)
        ]
        blocks.append(build_block(EDGE, block_id, entries, created_at=1.5 + block_id))
    return blocks


def write_store(directory: str) -> None:
    registry = fixture_registry()
    blocks = fixture_blocks(registry)
    store = PartitionStore(directory, StorageConfig(backend="disk", root_dir=directory))
    for block in blocks:
        store.append_block(
            block, issue_phase_one_receipt(registry, EDGE, block, issued_at=block.created_at)
        )
    for block in blocks[:3]:
        store.append_proof(
            issue_block_proof(
                registry, CLOUD, EDGE, block.block_id, block.digest(),
                certified_at=block.created_at + 0.25,
            )
        )
    # Blocks 0 and 1 merged into level 1 as two abutting pages.
    merged = {}
    for block in blocks[:2]:
        for record in records_from_block(block):
            if record.key not in merged or record.is_newer_than(merged[record.key]):
                merged[record.key] = record
    ordered = [merged[key] for key in sorted(merged)]
    split = ordered[len(ordered) // 2].key
    pages = [
        build_page(ordered[: len(ordered) // 2], 9.5, fence=KeyFence("", split)),
        build_page(ordered[len(ordered) // 2 :], 9.5, fence=KeyFence(split, None)),
    ]
    state = PartitionState(owner=EDGE, config=SystemConfig(), shard_id=None)
    state.index.install_level_pages(1, pages)
    signed_root = sign_global_root(
        registry, CLOUD, EDGE, state.index.level_roots(), version=1, timestamp=9.75
    )
    store.write_manifest(
        next_block_id=4,
        level_pages={1: pages},
        level_zero_blocks=(2, 3),
        signed_root=signed_root,
    )
    store.close()


if __name__ == "__main__":
    write_store(sys.argv[1])
