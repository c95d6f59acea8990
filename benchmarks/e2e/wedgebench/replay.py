"""Stage replay: sampled messages pushed through each layer's public functions.

The traced run keeps a seeded sample of the messages the fleet actually
sent.  After the run, each is made *memo-cold* — one ``encode_frame`` ->
``decode_payload`` round trip, which is what a socket does to it — and fed
to the functions a handler would call on it, one layer at a time, under
``perf_counter_ns``, scaled to reference-host speed by a probe before and
after each stage (``hostclock.py``).  The numbers say what a layer costs per
unit of input; the spans say how often and where it ran.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Iterable

from repro.common.encoding import canonical_encode
from repro.crypto.hashing import digest_value
from repro.crypto.signatures import KeyRegistry
from repro.log.block import build_block
from repro.lsm.compaction import merge_levels
from repro.lsm.page import build_page
from repro.lsmerkle.codec import page_from_block, records_from_block
from repro.lsmerkle.read_proof import build_get_proof, verify_get_proof
from repro.merkle.tree import MerkleTree
from repro.service.framing import decode_payload, encode_frame
from repro.storage.codec import decode_record, encode_record

from .hostclock import slowdown_now
from .stats import median

#: Wall-clock budget of one replayed stage.
STAGE_BUDGET_S = 0.3
#: Pure-Python Schnorr is milliseconds per operation; a few are enough.
SCHNORR_REPEATS = 10


def _timed(fn: Callable[[Any], Any], inputs: Iterable[Any]) -> list[tuple[Any, float, Any]]:
    """``(input, microseconds, output)`` for inputs until the budget is spent."""

    out = []
    before = slowdown_now()
    deadline = time.perf_counter() + STAGE_BUDGET_S
    for item in inputs:
        started = time.perf_counter_ns()
        result = fn(item)
        out.append((item, (time.perf_counter_ns() - started) / 1e3, result))
        if time.perf_counter() > deadline and len(out) >= 5:
            break
    # Reference-host microseconds: the stage ran at the mean of the host's
    # speed just before and just after it.
    slowdown = (before + slowdown_now()) / 2.0
    return [(item, us / slowdown, result) for item, us, result in out]


def _per_kb(rows: list[tuple[Any, float, Any]], size: Callable[[Any, Any], int]) -> float:
    """Total microseconds over total KiB of the stage's data."""

    kib = sum(size(item, result) for item, _us, result in rows) / 1024.0
    return sum(us for _i, us, _r in rows) / kib if kib else 0.0


def _typical(rows: list[tuple[Any, float, Any]]) -> float:
    return median([us for _i, us, _r in rows]) if rows else 0.0


def replay(samples: dict[str, list[tuple[Any, Any]]], system, seed: int) -> dict[str, float]:
    """The per-layer metrics that come from replaying *samples*."""

    rng = random.Random(f"wedgebench/replay/{seed}")
    registry = system.env.registry
    edge = system.edges[0]
    everything = [pair for kind in sorted(samples) for pair in samples[kind]]
    rng.shuffle(everything)

    # -- serialization: what every hop pays --------------------------------
    framed = _timed(lambda pair: encode_frame(*pair), everything)
    frames = [frame for _p, _us, frame in framed]
    unframed = _timed(lambda frame: decode_payload(frame[4:]), frames)
    cold = [message for _f, _us, (_sender, message) in unframed]
    stored = _timed(encode_record, [message for _s, message in everything])
    loaded = _timed(decode_record, [data for _m, _us, data in stored])
    canonical = _timed(canonical_encode, cold)

    def cold_of(kind: str) -> list[Any]:
        rows = _timed(
            lambda pair: decode_payload(encode_frame(*pair)[4:])[1], samples.get(kind, ())
        )
        return [message for _p, _us, message in rows]

    # -- log: blocks as a client or the cloud receives them ----------------
    blocks = [r.block for r in cold_of("AppendBatchResponse") if r.block is not None]
    digested = _timed(lambda block: block.digest(), blocks)
    built = _timed(
        lambda block: build_block(block.edge, block.block_id, block.entries, block.created_at),
        blocks,
    )
    payloads = [entry.payload for block in blocks[:5] for entry in block.entries]
    hashed = _timed(digest_value, payloads)

    # -- crypto: one captured receipt statement, both schemes --------------
    receipts = [r.receipt for _s, r in samples.get("AppendBatchResponse", ())]
    hmac_signed = _timed(lambda r: registry.sign(r.edge, r.statement), receipts)
    hmac_verified = _timed(lambda r: registry.verify(r.signature, r.statement), receipts)
    schnorr_signed, schnorr_verified = [], []
    if receipts:
        schnorr = KeyRegistry("schnorr")
        signer = receipts[0].edge
        schnorr.register(signer)
        statements = [r.statement for r in receipts[:SCHNORR_REPEATS]]
        schnorr_signed = _timed(lambda s: schnorr.sign(signer, s), statements)
        schnorr_verified = _timed(
            lambda row: schnorr.verify(row[2], row[0]), schnorr_signed
        )
    proofs = [m.proof for m in cold_of("BlockProofMessage")]
    proof_checked = _timed(lambda proof: proof.verify(registry), proofs)

    # -- lsmerkle reads: proofs over the edge's final index ----------------
    evidence = [
        (edge.log.block(block_id), edge.log.proof_for(block_id))
        for block_id in edge.level_zero_blocks
    ]
    keys = [request.key for _s, request in samples.get("GetRequest", ())]
    proved = _timed(
        lambda key: build_get_proof(
            key=key,
            index=edge.index,
            level_zero_blocks=evidence,
            signed_root=edge.signed_root,
            found_level=edge.index.get(key).level_index,
        ),
        keys,
    )
    responses = [r for r in cold_of("GetResponse") if r.edge == edge.node_id]
    verified = _timed(
        lambda r: verify_get_proof(
            registry=registry, cloud=system.cloud.node_id, edge=r.edge, key=r.key, proof=r.proof
        ),
        responses,
    )

    # -- merges: the inputs the cloud received -----------------------------
    proposals = [request.proposal for request in cold_of("MergeRequest")]

    def sources(proposal):
        if proposal.level_index:
            return proposal.source_pages
        return [page for page in map(page_from_block, proposal.source_blocks) if page]

    merge_inputs = [(sources(p), p.target_pages) for p in proposals]
    merged = _timed(
        lambda pair: merge_levels(pair[0], pair[1], created_at=0.0, page_capacity=100),
        merge_inputs,
    )
    merged_records = sum(result.records_in for _p, _us, result in merged)
    record_sets = [records_from_block(block) for block in blocks]
    paged = _timed(lambda records: build_page(records, created_at=0.0), record_sets)
    leaf_sets = [
        [page.digest() for page in result.pages] for _p, _us, result in merged if result.pages
    ]
    rooted = _timed(lambda leaves: MerkleTree(leaves).root, leaf_sets)
    trees = [MerkleTree(leaves) for leaves in leaf_sets]
    inclusion = _timed(lambda tree: tree.prove(rng.randrange(tree.num_leaves)), trees * 20)

    return {
        "service.framing.encode_us_per_kb": _per_kb(framed, lambda _p, frame: len(frame)),
        "service.framing.decode_us_per_kb": _per_kb(unframed, lambda frame, _m: len(frame)),
        "storage.codec.encode_us_per_kb": _per_kb(stored, lambda _m, data: len(data)),
        "storage.codec.decode_us_per_kb": _per_kb(loaded, lambda data, _m: len(data)),
        "common.encoding.canonical_us_per_kb": _per_kb(canonical, lambda _m, data: len(data)),
        "log.block_digest_us": _typical(digested),
        "log.build_block_us": _typical(built),
        "crypto.digest_value_us_per_kb": _per_kb(hashed, lambda payload, _d: len(payload)),
        "crypto.hmac.sign_us": _typical(hmac_signed),
        "crypto.hmac.verify_us": _typical(hmac_verified),
        "crypto.schnorr.sign_us": _typical(schnorr_signed),
        "crypto.schnorr.verify_us": _typical(schnorr_verified),
        "core.verify_block_proof_us": _typical(proof_checked),
        "lsmerkle.build_proof_us": _typical(proved),
        "lsmerkle.verify_proof_us": _typical(verified),
        "lsmerkle.merge_us_per_record": (
            sum(us for _p, us, _r in merged) / merged_records if merged_records else 0.0
        ),
        "lsm.build_page_us_per_record": (
            sum(us for _r, us, _p in paged) / sum(len(r) for r, _us, _p in paged)
            if paged
            else 0.0
        ),
        "merkle.root_us_per_leaf": (
            sum(us for _l, us, _r in rooted) / sum(len(l) for l, _us, _r in rooted)
            if rooted
            else 0.0
        ),
        "merkle.prove_us": _typical(inclusion),
    }
