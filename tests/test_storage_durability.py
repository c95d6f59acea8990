"""Durable edge state: segment log, manifest, recovery, and disk chaos.

Three layers of coverage for ``repro/storage``:

* **Unit** — the checksummed segment log (framing, rotation, torn-tail
  repair, sealed-segment CRC detection, fault arming), the round-trip
  codec, the atomically-swapped manifest (old-or-new, never hybrid), and
  :class:`~repro.storage.store.PartitionStore` replay/truncation/retire.
* **Recovery** — :func:`~repro.storage.recovery.recover_partition` rebuilds
  a fresh partition from a store and verifies it against the durable
  cloud-signed root; corruption and root disagreement quarantine instead
  of raising.
* **Chaos** — full simulated deployments on the disk backend: crashes
  mid-certify-window and mid-compaction recover from disk through the
  fault injector's real restart path, injected disk faults
  (:class:`~repro.faults.DiskFaultRule`) behave per the fault model, and
  direct on-disk byte flips are detected and quarantined — an honest edge
  with a corrupt disk refuses service and is never convicted for it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import shutil

import pytest

from repro.common.config import StorageConfig, SystemConfig
from repro.common.errors import (
    PartitionQuarantinedError,
    StorageCorruptionError,
    StorageFullError,
)
from repro.common.identifiers import NodeRole, client_id, cloud_id, edge_id
from repro.crypto.signatures import KeyRegistry, Signature
from repro.faults import (
    CrashEvent,
    DiskFaultRule,
    FaultInjector,
    FaultPlan,
    assert_full_certification,
    assert_no_false_convictions,
    assert_no_quarantines,
)
from repro.log.block import build_block
from repro.log.entry import EntryBody, LogEntry
from repro.log.proofs import (
    issue_block_proof,
    issue_phase_one_receipt,
)
from repro.lsm.records import KVRecord
from repro.lsm.page import build_page
from repro.lsmerkle.mlsm import sign_global_root
from repro.nodes.edge import PartitionState
from repro.storage.codec import decode_record, encode_record
from repro.storage.manifest import (
    MANIFEST_NAME,
    PAGES_DIR,
    Manifest,
    load_manifest,
    load_pages,
    write_manifest,
    write_pages,
)
from repro.storage.recovery import recover_partition
from repro.storage.segments import SegmentLog
from repro.storage.store import PartitionStore

from test_chaos_scenarios import (
    BLOCK_SIZE,
    build_single,
    build_sharded,
    certified_total,
    put_blocks,
)

EDGE = edge_id("store-edge")
CLOUD = cloud_id("store-cloud")
PRODUCER = client_id("store-client")


def make_registry() -> KeyRegistry:
    registry = KeyRegistry("hmac")
    registry.register(EDGE)
    registry.register(CLOUD)
    return registry


def make_blocks(count: int, entries_per_block: int = 2, seed: int = 7):
    rng = random.Random(seed)
    blocks = []
    for block_id in range(count):
        entries = []
        for index in range(entries_per_block):
            body = EntryBody(
                producer=PRODUCER,
                sequence=block_id * entries_per_block + index,
                payload=bytes(rng.getrandbits(8) for _ in range(48)),
                produced_at=float(block_id),
            )
            signature = Signature(
                signer=PRODUCER,
                scheme="hmac",
                value=bytes(rng.getrandbits(8) for _ in range(32)),
            )
            entries.append(LogEntry(body=body, signature=signature))
        blocks.append(
            build_block(
                edge=EDGE,
                block_id=block_id,
                entries=entries,
                created_at=float(block_id),
            )
        )
    return blocks


def flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def disk_storage(tmp_path, **overrides) -> StorageConfig:
    settings = dict(backend="disk", root_dir=str(tmp_path), fsync="always")
    settings.update(overrides)
    return StorageConfig(**settings)


# ----------------------------------------------------------------------
# Segment log
# ----------------------------------------------------------------------
class TestSegmentLog:
    def test_append_replay_round_trip(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="always", segment_max_bytes=1 << 20)
        payloads = [b"record-%d" % index for index in range(5)]
        for payload in payloads:
            log.append(payload)
        log.close()

        reopened = SegmentLog(str(tmp_path), fsync="always", segment_max_bytes=1 << 20)
        assert [payload for _, payload in reopened.replay()] == payloads
        assert reopened.torn_records_dropped == 0
        reopened.close()

    def test_rotation_seals_segments_in_order(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="on_seal", segment_max_bytes=64)
        payloads = [b"x" * 40 + b"%02d" % index for index in range(6)]
        for payload in payloads:
            log.append(payload)
        assert len(log.segment_indices()) > 1
        assert log.active_index == max(log.segment_indices())
        assert [payload for _, payload in log.replay()] == payloads
        log.close()

    def test_torn_write_repaired_on_reopen(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="always", segment_max_bytes=1 << 20)
        for index in range(3):
            log.append(b"good-%d" % index)
        log.arm_fault("torn_write", 1)
        log.append(b"torn-record-that-only-half-lands")
        log.close()

        reopened = SegmentLog(str(tmp_path), fsync="always", segment_max_bytes=1 << 20)
        assert [payload for _, payload in reopened.replay()] == [
            b"good-0",
            b"good-1",
            b"good-2",
        ]
        assert reopened.torn_records_dropped == 1
        # The repair truncated the debris: appends continue cleanly.
        reopened.append(b"after-repair")
        assert [payload for _, payload in reopened.replay()][-1] == b"after-repair"
        reopened.close()

    def test_sealed_segment_corruption_raises(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="on_seal", segment_max_bytes=64)
        for index in range(6):
            log.append(b"y" * 40 + b"%02d" % index)
        sealed = sorted(log.segment_indices())[0]
        assert sealed != log.active_index
        log.close()

        path = os.path.join(str(tmp_path), f"seg-{sealed:08d}.log")
        flip_byte(path, os.path.getsize(path) // 2)
        # Sealed validation is lazy: the open repairs only the active tail,
        # replay is where a sealed segment must prove itself.
        reopened = SegmentLog(str(tmp_path), fsync="on_seal", segment_max_bytes=64)
        with pytest.raises(StorageCorruptionError):
            list(reopened.replay())
        reopened.close()

    def test_simulate_crash_loses_only_a_tail(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="never", segment_max_bytes=1 << 20)
        payloads = [b"crashy-%d" % index for index in range(5)]
        for payload in payloads:
            log.append(payload)
        log.simulate_crash()

        reopened = SegmentLog(str(tmp_path), fsync="never", segment_max_bytes=1 << 20)
        recovered = [payload for _, payload in reopened.replay()]
        # Whatever survived is a strict prefix — never reordered, never
        # invented, and under fsync="never" the unsynced tail is fair game.
        assert recovered == payloads[: len(recovered)]
        assert len(recovered) < len(payloads)
        reopened.close()

    def test_enospc_fault_raises_then_clears(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="always", segment_max_bytes=1 << 20)
        log.arm_fault("enospc", 1)
        with pytest.raises(StorageFullError):
            log.append(b"does-not-fit")
        log.append(b"fits-again")
        assert [payload for _, payload in log.replay()] == [b"fits-again"]
        log.close()

    def test_drop_segment_removes_its_records(self, tmp_path):
        log = SegmentLog(str(tmp_path), fsync="on_seal", segment_max_bytes=64)
        payloads = [b"z" * 40 + b"%02d" % index for index in range(6)]
        for payload in payloads:
            log.append(payload)
        first = sorted(log.segment_indices())[0]
        log.drop_segment(first)
        remaining = [payload for _, payload in log.replay()]
        assert remaining == payloads[len(payloads) - len(remaining):]
        assert first not in log.segment_indices()
        log.close()


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_block_round_trip_preserves_digest(self):
        block = make_blocks(1)[0]
        decoded = decode_record(encode_record(block))
        assert decoded == block
        assert decoded.digest() == block.digest()

    def test_node_role_survives_the_round_trip(self):
        # NodeRole subclasses str, so the canonical encoder flattens it to
        # its plain value; the decoder must re-wrap it or every NodeId
        # rebuilt from disk breaks (regression: str has no ``.value``).
        block = make_blocks(1)[0]
        decoded = decode_record(encode_record(block))
        assert isinstance(decoded.edge.role, NodeRole)
        assert str(decoded.edge) == str(block.edge)

    def test_receipt_and_proof_round_trip_still_verify(self):
        registry = make_registry()
        block = make_blocks(1)[0]
        receipt = issue_phase_one_receipt(registry, EDGE, block, issued_at=1.0)
        proof = issue_block_proof(
            registry, CLOUD, EDGE, block.block_id, block.digest(), certified_at=2.0
        )
        for original in (receipt, proof):
            decoded = decode_record(encode_record(original))
            assert decoded == original
            assert decoded.verify(registry)

    def test_signed_root_round_trip(self):
        registry = make_registry()
        signed = sign_global_root(
            registry, CLOUD, EDGE, ("a" * 64, "b" * 64), version=3, timestamp=4.0
        )
        decoded = decode_record(encode_record(signed))
        assert decoded == signed
        assert decoded.verify(registry, CLOUD)

    def test_malformed_bytes_are_typed_corruption(self):
        with pytest.raises(StorageCorruptionError):
            decode_record(b"\xff\xfe not json")
        with pytest.raises(StorageCorruptionError):
            decode_record(b'{"__type__": "NoSuchClass"}')
        with pytest.raises(StorageCorruptionError):
            # A known type whose constructor rejects the fields.
            decode_record(b'{"__type__": "Block", "bogus": 1}')


# ----------------------------------------------------------------------
# A store written by the commit before the canonical text became the disk
# format: same bytes out, and it recovers.
# ----------------------------------------------------------------------
_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
_PARENT_STORE = os.path.join(_DATA_DIR, "store_written_by_parent")
_PAGE_ID = re.compile(rb'"page_id":\d+')


def _fixture_writer():
    """The script that wrote the fixture (see its docstring)."""

    spec = importlib.util.spec_from_file_location(
        "make_parent_store", os.path.join(_DATA_DIR, "make_parent_store.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files_of(directory: str) -> dict[str, bytes]:
    found = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


class TestParentWrittenStore:
    def test_same_inputs_write_the_same_bytes(self, tmp_path):
        _fixture_writer().write_store(str(tmp_path))
        ours, theirs = _files_of(str(tmp_path)), _files_of(_PARENT_STORE)
        assert sorted(ours) == sorted(theirs) and len(ours) == 4
        for name in ours:
            if name.startswith(PAGES_DIR):
                # page_id is a process-local counter inside the page file.
                assert _PAGE_ID.sub(b"", ours[name]) == _PAGE_ID.sub(b"", theirs[name])
                assert _PAGE_ID.search(ours[name])
            else:
                assert ours[name] == theirs[name], name

    def test_every_stored_record_is_canonical_text(self):
        log = SegmentLog(_PARENT_STORE, fsync="never", segment_max_bytes=1 << 20)
        payloads = [payload for _, payload in log.replay()]
        log.close()
        assert len(payloads) == 7
        for payload in payloads:
            assert encode_record(decode_record(payload)) == payload

    def test_it_recovers(self, tmp_path):
        writer = _fixture_writer()
        directory = str(tmp_path / "store")
        shutil.copytree(_PARENT_STORE, directory)
        store = PartitionStore(directory, disk_storage(tmp_path))
        state = PartitionState(owner=writer.EDGE, config=SystemConfig(), shard_id=None)
        report = recover_partition(state, store, writer.fixture_registry(), writer.CLOUD)
        assert report.ok, report.quarantined
        assert (report.blocks_replayed, report.proofs_replayed) == (4, 3)
        assert report.root_verified and report.root_version == 1
        assert state.level_zero_blocks == [2, 3]
        assert state.log.next_block_id == 4
        found = state.index.get("key-00")
        assert found is not None and found.record.value.startswith(b"value \"")
        for block in writer.fixture_blocks(writer.fixture_registry()):
            assert state.log.block(block.block_id).digest() == block.digest()
        store.close()

    def test_manifest_embeds_the_signed_root_as_canonical_text(self, tmp_path):
        # The manifest carries the signed root as a JSON subtree
        # (json.loads of its record) and reads it back by re-serializing
        # that subtree with sorted keys and no whitespace — which is the
        # canonical text, so the strict decoder accepts it.
        with open(os.path.join(_PARENT_STORE, MANIFEST_NAME), "rb") as handle:
            tree = json.loads(handle.read())
        subtree = json.dumps(
            tree["signed_root"], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        signed_root = decode_record(subtree)
        assert encode_record(signed_root) == subtree
        assert load_manifest(_PARENT_STORE).signed_root == signed_root
        writer = _fixture_writer()
        assert signed_root.verify(writer.fixture_registry(), writer.CLOUD)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def make_pages(count: int, seed: int = 13):
    rng = random.Random(seed)
    pages = []
    for page_index in range(count):
        records = [
            KVRecord(
                key=f"key-{page_index:02d}-{index:04d}",
                sequence=page_index * 10 + index,
                value=bytes(rng.getrandbits(8) for _ in range(16)),
                written_at=float(page_index),
            )
            for index in range(3)
        ]
        pages.append(build_page(records, created_at=float(page_index)))
    return pages


class TestManifest:
    def test_write_load_round_trip(self, tmp_path):
        registry = make_registry()
        pages = make_pages(2)
        signed = sign_global_root(
            registry, CLOUD, EDGE, ("c" * 64,), version=1, timestamp=1.0
        )
        manifest = Manifest(
            version=1,
            next_block_id=7,
            level_zero_blocks=(5, 6),
            levels={1: tuple(page.digest() for page in pages)},
            signed_root=signed,
        )
        write_manifest(str(tmp_path), manifest, pages)

        loaded = load_manifest(str(tmp_path))
        assert loaded == manifest
        reloaded_pages = load_pages(str(tmp_path), loaded)
        assert [page.digest() for page in reloaded_pages[1]] == [
            page.digest() for page in pages
        ]

    def test_manifest_byte_flip_is_detected(self, tmp_path):
        manifest = Manifest(version=1, next_block_id=3, level_zero_blocks=())
        write_manifest(str(tmp_path), manifest, [])
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        flip_byte(path, os.path.getsize(path) // 2)
        with pytest.raises(StorageCorruptionError):
            load_manifest(str(tmp_path))

    def test_crash_before_swap_leaves_old_manifest(self, tmp_path):
        old_pages = make_pages(1, seed=1)
        old = Manifest(
            version=1,
            next_block_id=2,
            level_zero_blocks=(),
            levels={1: tuple(page.digest() for page in old_pages)},
        )
        write_manifest(str(tmp_path), old, old_pages)
        # A compaction crashes after writing its new page files but before
        # the manifest swap: the new pages sit unreferenced on disk.
        new_pages = make_pages(2, seed=2)
        write_pages(str(tmp_path), new_pages)

        loaded = load_manifest(str(tmp_path))
        assert loaded == old
        assert load_pages(str(tmp_path), loaded)[1][0].digest() == old_pages[0].digest()

    def test_swap_commits_new_set_and_collects_orphans(self, tmp_path):
        old_pages = make_pages(1, seed=1)
        write_manifest(
            str(tmp_path),
            Manifest(
                version=1,
                next_block_id=2,
                level_zero_blocks=(),
                levels={1: tuple(page.digest() for page in old_pages)},
            ),
            old_pages,
        )
        new_pages = make_pages(2, seed=2)
        new = Manifest(
            version=2,
            next_block_id=4,
            level_zero_blocks=(),
            levels={1: tuple(page.digest() for page in new_pages)},
        )
        write_manifest(str(tmp_path), new, new_pages)

        assert load_manifest(str(tmp_path)) == new
        on_disk = {
            name[:-5]
            for name in os.listdir(os.path.join(str(tmp_path), PAGES_DIR))
            if name.endswith(".json")
        }
        # Exactly the new referenced set: old pages were garbage-collected.
        assert on_disk == new.referenced_digests()

    def test_page_digest_mismatch_is_corruption(self, tmp_path):
        pages = make_pages(1)
        manifest = Manifest(
            version=1,
            next_block_id=1,
            level_zero_blocks=(),
            levels={1: (pages[0].digest(),)},
        )
        write_manifest(str(tmp_path), manifest, pages)
        page_path = os.path.join(
            str(tmp_path), PAGES_DIR, f"{pages[0].digest()}.json"
        )
        flip_byte(page_path, os.path.getsize(page_path) // 2)
        with pytest.raises(StorageCorruptionError):
            load_pages(str(tmp_path), manifest)


# ----------------------------------------------------------------------
# Partition store
# ----------------------------------------------------------------------
def populated_store(tmp_path, blocks, proofs_for=(), **config_overrides):
    registry = make_registry()
    store = PartitionStore(
        str(tmp_path), disk_storage(tmp_path, **config_overrides)
    )
    for block in blocks:
        receipt = issue_phase_one_receipt(
            registry, EDGE, block, issued_at=block.created_at
        )
        store.append_block(block, receipt)
    for block in blocks:
        if block.block_id in proofs_for:
            store.append_proof(
                issue_block_proof(
                    registry,
                    CLOUD,
                    EDGE,
                    block.block_id,
                    block.digest(),
                    certified_at=block.created_at + 1.0,
                )
            )
    return store, registry


class TestPartitionStore:
    def test_replay_round_trip(self, tmp_path):
        blocks = make_blocks(3)
        store, _ = populated_store(tmp_path, blocks, proofs_for=(0, 1))
        store.close()

        reopened = PartitionStore(str(tmp_path), disk_storage(tmp_path))
        replay = reopened.replay()
        assert replay.blocks == blocks
        assert sorted(replay.receipts) == [0, 1, 2]
        assert sorted(replay.proofs) == [0, 1]
        assert all(
            replay.receipts[block.block_id].statement.block_digest
            == block.digest()
            for block in blocks
        )
        reopened.close()

    def test_snapshot_truncation_keeps_storage_bounded(self, tmp_path):
        blocks = make_blocks(6)
        store, _ = populated_store(
            tmp_path,
            blocks,
            proofs_for=range(6),
            segment_max_bytes=2048,
            fsync="on_seal",
        )
        sealed_before = len(store.segments.segment_indices())
        assert sealed_before > 1
        # Everything below the floor is certified and merged: the manifest
        # write doubles as the snapshot point.
        store.write_manifest(
            next_block_id=6,
            level_pages={},
            level_zero_blocks=(),
            signed_root=None,
            truncate_floor=6,
        )
        assert store.stats["segments_truncated"] >= 1
        assert len(store.segments.segment_indices()) < sealed_before
        store.close()

    def test_retire_marks_directory_for_wipe(self, tmp_path):
        blocks = make_blocks(2)
        store, _ = populated_store(tmp_path, blocks)
        store.retire()
        # A re-adoption of the shard starts from the transfer, not from the
        # stale local segments of the retired incarnation.
        readopted = PartitionStore(str(tmp_path), disk_storage(tmp_path))
        replay = readopted.replay()
        assert replay.blocks == []
        assert readopted.load_manifest() is None
        readopted.close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def fresh_state() -> PartitionState:
    return PartitionState(owner=EDGE, config=SystemConfig(), shard_id=None)


class TestRecovery:
    def test_healthy_recovery_rebuilds_everything(self, tmp_path):
        blocks = make_blocks(3)
        store, registry = populated_store(tmp_path, blocks, proofs_for=(0, 1))
        state = fresh_state()
        report = recover_partition(state, store, registry, CLOUD)

        assert report.ok
        assert report.blocks_replayed == 3
        assert report.proofs_replayed == 2
        assert len(state.log) == 3
        assert state.log.proof_for(0) is not None
        assert state.log.proof_for(2) is None
        # Replay protection came back with the blocks.
        entry = blocks[1].entries[0]
        assert state.entry_locations[(entry.producer, entry.sequence)] == 1
        # The allocator never re-issues a durable id.
        assert state.log.next_block_id == 3
        store.close()

    def test_recovery_verifies_the_durable_signed_root(self, tmp_path):
        blocks = make_blocks(2)
        store, registry = populated_store(tmp_path, blocks, proofs_for=(0, 1))
        signed = sign_global_root(
            registry,
            CLOUD,
            EDGE,
            fresh_state().index.level_roots(),
            version=1,
            timestamp=1.0,
        )
        store.write_manifest(
            next_block_id=2,
            level_pages={},
            level_zero_blocks=(),
            signed_root=signed,
        )
        state = fresh_state()
        report = recover_partition(state, store, registry, CLOUD)

        assert report.ok
        assert report.root_verified
        assert report.root_version == 1
        assert state.signed_root == signed
        store.close()

    def test_root_disagreement_quarantines(self, tmp_path):
        blocks = make_blocks(2)
        store, registry = populated_store(tmp_path, blocks)
        lying_root = sign_global_root(
            registry, CLOUD, EDGE, ("f" * 64,), version=1, timestamp=1.0
        )
        store.write_manifest(
            next_block_id=2,
            level_pages={},
            level_zero_blocks=(),
            signed_root=lying_root,
        )
        state = fresh_state()
        report = recover_partition(state, store, registry, CLOUD)

        assert not report.ok
        assert state.quarantined is not None
        assert "do not match" in report.quarantined
        store.close()

    def test_sealed_corruption_quarantines_instead_of_raising(self, tmp_path):
        blocks = make_blocks(6)
        store, registry = populated_store(
            tmp_path, blocks, segment_max_bytes=2048, fsync="on_seal"
        )
        sealed = sorted(store.segments.segment_indices())[0]
        assert sealed != store.segments.active_index
        store.close()
        path = os.path.join(str(tmp_path), f"seg-{sealed:08d}.log")
        flip_byte(path, os.path.getsize(path) // 2)

        state = fresh_state()
        try:
            store = PartitionStore(str(tmp_path), disk_storage(tmp_path))
        except StorageCorruptionError:
            # Acceptable: the open scan may detect the damage directly.
            return
        report = recover_partition(state, store, registry, CLOUD)
        assert not report.ok
        assert "checksum" in report.quarantined.lower()
        assert state.quarantined is not None
        store.close()


# ----------------------------------------------------------------------
# Chaos: durable crash recovery through the fault injector
# ----------------------------------------------------------------------
class TestDurableCrashRecovery:
    def test_crash_mid_certify_window_recovers_from_disk(self, tmp_path):
        system = build_single(seed=301, storage=disk_storage(tmp_path))
        client = system.client(0)
        edge = system.edge(0)
        plan = FaultPlan(seed=301, name="durable-crash").with_crash(
            CrashEvent(edge.node_id, at_s=1.0, restart_at_s=2.5)
        )
        injector = FaultInjector(system.env, plan).install()

        put_blocks(client, 3, prefix="before")
        # Past the crash AND the restart before the second wave — puts sent
        # at a dead edge are just dropped (clients do not retry Phase I).
        system.run_for(3.0)
        put_blocks(client, 3, prefix="after")
        system.run_for(max(0.0, injector.faults_quiet_after() - system.env.now()))
        system.run_for(12.0)

        # The restart really replaced the partition with one rebuilt from
        # disk, and the rebuild verified against the durable signed root.
        assert edge.stats.get("restarts", 0) == 1
        assert edge.stats.get("partitions_recovered", 0) >= 1
        [report] = edge.last_recovery_reports
        assert report.ok
        assert report.blocks_replayed >= 3
        assert report.root_verified
        assert_no_quarantines(system.edges)
        assert assert_full_certification(system.edges) >= 6
        assert_no_false_convictions(system.cloud, [edge.node_id])

    def test_crash_mid_compaction_recovers_old_or_new(self, tmp_path):
        system = build_single(seed=307, storage=disk_storage(tmp_path))
        client = system.client(0)
        edge = system.edge(0)
        # Crash early, while the thresholds (2, 2, 4, 8) keep merges almost
        # permanently in flight for a 6-block burst.
        plan = FaultPlan(seed=307, name="durable-compaction-crash").with_crash(
            CrashEvent(edge.node_id, at_s=0.8, restart_at_s=2.0)
        )
        injector = FaultInjector(system.env, plan).install()

        put_blocks(client, 6, prefix="burst")
        system.run_for(max(0.0, injector.faults_quiet_after() - system.env.now()))
        system.run_for(15.0)

        assert_no_quarantines(system.edges)
        [report] = edge.last_recovery_reports
        assert report.ok
        # Old manifest or new manifest — never a hybrid: whatever root the
        # recovered index carries, it matches the index.
        state = edge._default_partition
        if state.signed_root is not None:
            assert state.index.roots_match(state.signed_root)
        assert assert_full_certification(system.edges) >= 6
        assert_no_false_convictions(system.cloud, [edge.node_id])

    def test_sharded_durable_crash_rebuilds_every_partition(self, tmp_path):
        system = build_sharded(
            seed=317, num_edges=2, num_shards=4, storage=disk_storage(tmp_path)
        )
        client = system.clients[0]
        victim = system.edges[0]
        plan = FaultPlan(seed=317, name="sharded-durable-crash").with_crash(
            CrashEvent(victim.node_id, at_s=1.0, restart_at_s=2.5)
        )
        injector = FaultInjector(system.env, plan).install()

        put_blocks(client, 4, prefix="shardy")
        system.run_for(max(0.0, injector.faults_quiet_after() - system.env.now()))
        system.run_for(15.0)

        assert_no_quarantines(system.edges)
        assert victim.stats.get("partitions_recovered", 0) >= 1
        # The block -> shard routing table was rebuilt from the recovered
        # logs, not trusted from the crashed process.
        expected = {
            record.block.block_id: shard_id
            for shard_id, state in victim._shard_states.items()
            for record in state.log
        }
        assert victim._block_shards == expected
        assert_full_certification(system.edges)
        assert_no_false_convictions(
            system.cloud, [edge.node_id for edge in system.edges]
        )


# ----------------------------------------------------------------------
# Chaos: injected disk faults
# ----------------------------------------------------------------------
class TestDiskFaultInjection:
    def test_torn_write_drops_records_without_quarantine(self, tmp_path):
        system = build_single(seed=331, storage=disk_storage(tmp_path))
        client = system.client(0)
        edge = system.edge(0)
        plan = (
            FaultPlan(seed=331, name="torn-writes")
            .with_disk_fault(DiskFaultRule(kind="torn_write", at_s=0.1, count=1))
            .with_crash(CrashEvent(edge.node_id, at_s=1.5, restart_at_s=2.5))
        )
        injector = FaultInjector(system.env, plan).install()

        # Let the fault arm *before* the workload: the first durable append
        # after t=0.1 only half-lands.
        system.run_for(0.3)
        put_blocks(client, 4, prefix="torn")
        system.run_for(max(0.0, injector.faults_quiet_after() - system.env.now()))
        system.run_for(4.0)
        # The partition still serves after recovering past the torn debris.
        put_blocks(client, 2, prefix="post-torn")
        system.run_for(8.0)

        assert any(action == "disk:torn_write" for _, action, *_ in injector.trace)
        [report] = edge.last_recovery_reports
        # A torn record is lost data, not corruption: recovery repairs the
        # tail, counts the damage, and the partition keeps serving.
        assert report.ok
        assert report.torn_records_dropped >= 1
        assert_no_quarantines(system.edges)
        assert_full_certification(system.edges)
        assert_no_false_convictions(system.cloud, [edge.node_id])

    def test_bit_flip_in_sealed_segment_quarantines(self, tmp_path):
        system = build_single(
            seed=337,
            storage=disk_storage(
                tmp_path, segment_max_bytes=512, truncate_on_snapshot=False
            ),
        )
        client = system.client(0)
        edge = system.edge(0)
        plan = (
            FaultPlan(seed=337, name="bit-flip")
            .with_disk_fault(DiskFaultRule(kind="bit_flip", at_s=0.1, count=1))
            .with_crash(CrashEvent(edge.node_id, at_s=2.0, restart_at_s=3.0))
        )
        injector = FaultInjector(system.env, plan).install()

        # Arm first, then write: the first append after t=0.1 lands with a
        # CRC that can never match, in a segment the tiny rotation threshold
        # seals immediately — durable, checksummed, and wrong.
        system.run_for(0.3)
        put_blocks(client, 4, prefix="flip")
        system.run_for(max(0.0, injector.faults_quiet_after() - system.env.now()))
        system.run_for(4.0)
        # The partition refused everything after restart, including these.
        put_blocks(client, 1, prefix="refused")
        system.run_for(4.0)

        assert any(action == "disk:bit_flip" for _, action, *_ in injector.trace)
        reports = edge.quarantine_reports()
        assert reports and all(reason for reason in reports.values())
        assert edge.stats.get("partitions_quarantined", 0) >= 1
        assert edge.stats.get("quarantined_refusals", 0) >= 1
        with pytest.raises(PartitionQuarantinedError):
            edge.assert_serving()
        # An honest edge with a corrupt disk is never convicted for it.
        assert_no_false_convictions(system.cloud, [edge.node_id])

    def test_enospc_degrades_durability_not_availability(self, tmp_path):
        system = build_single(seed=347, storage=disk_storage(tmp_path))
        client = system.client(0)
        edge = system.edge(0)
        plan = FaultPlan(seed=347, name="enospc").with_disk_fault(
            DiskFaultRule(kind="enospc", at_s=0.1, count=3)
        )
        FaultInjector(system.env, plan).install()

        system.run_for(0.3)
        put_blocks(client, 4, prefix="full-disk")
        system.run_for(10.0)

        # Writes failed durably but the edge never stopped serving.
        assert edge.stats.get("storage_write_errors", 0) >= 1
        assert_no_quarantines(system.edges)
        assert assert_full_certification(system.edges) >= 4
        assert_no_false_convictions(system.cloud, [edge.node_id])


# ----------------------------------------------------------------------
# Chaos: direct on-disk corruption (the operator's nightmare scenarios)
# ----------------------------------------------------------------------
def partition_dir(tmp_path, edge) -> str:
    return os.path.join(str(tmp_path), edge.node_id.name, "default")


class TestDirectCorruption:
    def run_workload(self, tmp_path, seed, **storage_overrides):
        system = build_single(
            seed=seed, storage=disk_storage(tmp_path, **storage_overrides)
        )
        client = system.client(0)
        edge = system.edge(0)
        put_blocks(client, 4, prefix="pre")
        system.run_for(6.0)
        assert certified_total(system) >= 4
        return system, client, edge

    def test_flipped_byte_in_sealed_segment_quarantines(self, tmp_path):
        system, client, edge = self.run_workload(
            tmp_path, seed=353, segment_max_bytes=512, truncate_on_snapshot=False
        )
        edge.on_crash()
        directory = partition_dir(tmp_path, edge)
        segments = sorted(
            name for name in os.listdir(directory) if name.startswith("seg-")
        )
        assert len(segments) > 1
        sealed_path = os.path.join(directory, segments[0])
        flip_byte(sealed_path, os.path.getsize(sealed_path) // 2)
        edge.on_restart()

        reports = edge.quarantine_reports()
        assert reports
        assert "StorageCorruptionError" in next(iter(reports.values()))
        with pytest.raises(PartitionQuarantinedError):
            edge.assert_serving()
        # Quarantine is local refusal, never a protocol action.
        put_blocks(client, 1, prefix="post")
        system.run_for(2.0)
        assert edge.stats.get("quarantined_refusals", 0) >= 1
        assert_no_false_convictions(system.cloud, [edge.node_id])

    def test_flipped_byte_in_manifest_quarantines(self, tmp_path):
        system, client, edge = self.run_workload(tmp_path, seed=359)
        assert edge._default_partition.store.stats["manifests_written"] >= 1
        edge.on_crash()
        manifest_path = os.path.join(partition_dir(tmp_path, edge), MANIFEST_NAME)
        flip_byte(manifest_path, os.path.getsize(manifest_path) // 2)
        edge.on_restart()

        reports = edge.quarantine_reports()
        assert reports
        assert "StorageCorruptionError" in next(iter(reports.values()))
        put_blocks(client, 1, prefix="post")
        system.run_for(2.0)
        assert edge.stats.get("quarantined_refusals", 0) >= 1
        assert_no_false_convictions(system.cloud, [edge.node_id])

    def test_pristine_disk_does_not_quarantine(self, tmp_path):
        # Control: the same crash/restart with no tampering stays healthy —
        # the corruption detectors have no false positives on this path.
        system, client, edge = self.run_workload(tmp_path, seed=367)
        edge.on_crash()
        edge.on_restart()
        assert edge.quarantine_reports() == {}
        [report] = edge.last_recovery_reports
        assert report.ok and report.blocks_replayed >= 4


# ----------------------------------------------------------------------
# Snapshot truncation end to end
# ----------------------------------------------------------------------
class TestSnapshotTruncationScenario:
    def test_truncated_store_still_recovers_fully(self, tmp_path):
        system = build_single(
            seed=373,
            storage=disk_storage(tmp_path, segment_max_bytes=512, fsync="on_seal"),
        )
        client = system.client(0)
        edge = system.edge(0)
        put_blocks(client, 8, prefix="bound")
        system.run_for(10.0)

        store = edge._default_partition.store
        assert store.stats["segments_truncated"] >= 1
        # The bounded log still carries everything recovery needs.
        edge.on_crash()
        edge.on_restart()
        assert edge.quarantine_reports() == {}
        [report] = edge.last_recovery_reports
        assert report.ok
        state = edge._default_partition
        if state.signed_root is not None:
            assert state.index.roots_match(state.signed_root)
