"""LSMerkle page persistence: page files plus an atomically-swapped manifest.

The durable form of a partition's Merkle-tracked levels.  Pages are written
as content-addressed files (``pages/<digest>.json``) *before* the manifest
that references them; the manifest itself is swapped atomically
(write ``MANIFEST.tmp`` → flush → fsync → ``os.replace``), so the rename is
the commit point.  A crash anywhere in the sequence leaves either the old
manifest referencing the old (still present) pages, or the new manifest
referencing the new pages — never a hybrid level set.  Orphan page files
(referenced by neither) are garbage-collected after a successful swap.

The manifest records everything recovery needs beyond the segment log:

* ``levels`` — the page-digest list of every Merkle-tracked level (1..n-1);
* ``level_zero_blocks`` — which block ids still had level-0 pages when the
  manifest was written (blocks below ``next_block_id`` and absent from this
  list were merged into the levels and need no replayed page);
* ``next_block_id`` — the log's allocator watermark, so a recovered edge
  never re-issues a block id the cloud may already have certified;
* ``signed_root`` — the last cloud-signed global root, the anchor recovery
  verifies the rebuilt index against.

Integrity: the manifest carries a CRC32 over its canonical JSON (sans the
checksum field), and every page file must hash back to the digest that names
it.  Either failing is :class:`~repro.common.errors.StorageCorruptionError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Optional

from ..common.errors import StorageCorruptionError
from ..lsm.page import Page
from ..lsmerkle.mlsm import SignedGlobalRoot
from .codec import decode_record, encode_record

MANIFEST_NAME = "MANIFEST.json"
PAGES_DIR = "pages"


@dataclass(frozen=True)
class Manifest:
    """One durable snapshot of a partition's index state."""

    version: int
    next_block_id: int
    level_zero_blocks: tuple[int, ...]
    #: Page digests per Merkle-tracked level, keyed by level index (1..n-1).
    levels: dict[int, tuple[str, ...]] = field(default_factory=dict)
    signed_root: Optional[SignedGlobalRoot] = None

    def referenced_digests(self) -> set[str]:
        return {digest for digests in self.levels.values() for digest in digests}


def _manifest_tree(manifest: Manifest) -> dict:
    return {
        "schema": 1,
        "version": manifest.version,
        "next_block_id": manifest.next_block_id,
        "level_zero_blocks": list(manifest.level_zero_blocks),
        "levels": {
            str(index): list(digests)
            for index, digests in sorted(manifest.levels.items())
        },
        "signed_root": None
        if manifest.signed_root is None
        else json.loads(encode_record(manifest.signed_root)),
    }


def _tree_bytes(tree: dict) -> bytes:
    """Sorted keys, no whitespace: for a tree that came from canonical text
    (the embedded signed root) this *is* that canonical text again, which is
    why the strict decoder takes it back in :func:`load_manifest`."""

    return json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _page_path(directory: str, digest: str) -> str:
    return os.path.join(directory, PAGES_DIR, f"{digest}.json")


def write_pages(directory: str, pages: list[Page]) -> None:
    """Write any page files not already present (content-addressed)."""

    pages_dir = os.path.join(directory, PAGES_DIR)
    os.makedirs(pages_dir, exist_ok=True)
    for page in pages:
        path = _page_path(directory, page.digest())
        if os.path.exists(path):
            continue
        with open(path, "wb") as handle:
            handle.write(encode_record(page))
            handle.flush()
            os.fsync(handle.fileno())


def write_manifest(directory: str, manifest: Manifest, pages: list[Page]) -> None:
    """Persist *manifest* atomically; *pages* are its full referenced set.

    Page files land first, then the manifest swap commits them; page files
    no longer referenced are deleted afterwards.
    """

    write_pages(directory, pages)
    tree = _manifest_tree(manifest)
    body = _tree_bytes(tree)
    tree["crc"] = zlib.crc32(body)
    tmp_path = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(_tree_bytes(tree))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, os.path.join(directory, MANIFEST_NAME))
    _collect_orphan_pages(directory, manifest.referenced_digests())


def _collect_orphan_pages(directory: str, referenced: set[str]) -> None:
    pages_dir = os.path.join(directory, PAGES_DIR)
    if not os.path.isdir(pages_dir):
        return
    for name in os.listdir(pages_dir):
        if name.endswith(".json") and name[:-5] not in referenced:
            os.unlink(os.path.join(pages_dir, name))


def load_manifest(directory: str) -> Optional[Manifest]:
    """Load and checksum-verify the manifest; ``None`` if none was written."""

    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        tree = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageCorruptionError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict) or "crc" not in tree:
        raise StorageCorruptionError("manifest carries no checksum")
    stored_crc = tree.pop("crc")
    if zlib.crc32(_tree_bytes(tree)) != stored_crc:
        raise StorageCorruptionError("manifest checksum mismatch")
    signed_root = tree.get("signed_root")
    if signed_root is not None:
        signed_root = decode_record(_tree_bytes(signed_root))
        if not isinstance(signed_root, SignedGlobalRoot):
            raise StorageCorruptionError("manifest signed_root has wrong type")
    return Manifest(
        version=tree["version"],
        next_block_id=tree["next_block_id"],
        level_zero_blocks=tuple(tree["level_zero_blocks"]),
        levels={
            int(index): tuple(digests)
            for index, digests in tree.get("levels", {}).items()
        },
        signed_root=signed_root,
    )


def load_pages(directory: str, manifest: Manifest) -> dict[int, list[Page]]:
    """Load every page the manifest references, verifying each digest.

    A missing page file, an undecodable one, or one whose recomputed digest
    differs from the name the manifest references is corruption.
    """

    loaded: dict[int, list[Page]] = {}
    for level_index, digests in manifest.levels.items():
        pages: list[Page] = []
        for digest in digests:
            path = _page_path(directory, digest)
            if not os.path.exists(path):
                raise StorageCorruptionError(
                    f"manifest references missing page {digest[:12]}…"
                )
            with open(path, "rb") as handle:
                page = decode_record(handle.read())
            if not isinstance(page, Page) or page.digest() != digest:
                raise StorageCorruptionError(
                    f"page file {digest[:12]}… does not hash to its name"
                )
            pages.append(page)
        loaded[level_index] = pages
    return loaded
