"""Batched-protocol variant of the Figure 4/5 experiments.

The committed figures keep the paper-exact per-block certification wire
format (``certify_batch_size=1``); this module runs the same sweeps with
``certify_batch_size=32`` plus ``gossip_batch=True`` beside it and asserts
the WAN-byte and certification-CPU savings (~2 s at the default scale).
The measured deltas are recorded in CHANGES.md.
"""

from __future__ import annotations

import pytest

from conftest import scaled

from repro.bench import batched_protocol_ablation, print_tables


def _rows_by_variant(table, key):
    per_block = {row[key]: row for row in table.rows if row["variant"] == "per-block"}
    batched = {row[key]: row for row in table.rows if row["variant"] == "batched"}
    return per_block, batched


def test_batched_variant_saves_wan_and_certification_cpu():
    figure4, figure5 = batched_protocol_ablation(
        num_batches=scaled(6), operations_per_client=scaled(400, minimum=100)
    )
    print_tables([figure4, figure5])

    per_block, batched = _rows_by_variant(figure4, "batch_size")
    for batch_size, reference in per_block.items():
        variant = batched[batch_size]
        # One signature per batch replaces one per block on the WAN path.
        assert variant["wan_bytes"] < reference["wan_bytes"]
        assert variant["certify_cpu_s"] < reference["certify_cpu_s"]
        # Batching stays off the client-visible critical path.
        assert variant["commit_ms"] == pytest.approx(
            reference["commit_ms"], rel=0.05
        )

    per_block5, batched5 = _rows_by_variant(figure5, "clients")
    for clients, reference in per_block5.items():
        variant = batched5[clients]
        assert variant["wan_bytes"] < reference["wan_bytes"]
        assert variant["certify_cpu_s"] < reference["certify_cpu_s"]
        assert variant["throughput_kops"] > reference["throughput_kops"] * 0.9
