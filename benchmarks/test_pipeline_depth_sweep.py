"""Figure-5 sweep of the certification pipeline depth.

The committed figures keep the paper-exact per-block protocol
(``certify_batch_size=1``, ``certify_pipeline_depth=1``); this module sweeps
``certify_pipeline_depth ∈ {1, 4, 16}`` on the batched-protocol variant
(~2 s at the default scale; ``REPRO_BENCH_SCALE=4`` runs it at paper
scale).  The claim under test: pipeline depth is
invisible to Phase I (throughput and commit latency unchanged — nothing
client-visible ever waits on the cloud) while the Phase II drain interval
shrinks once the window lets batches overlap their WAN round-trips.  The
measured deltas are recorded in CHANGES.md.
"""

from __future__ import annotations

import pytest

from conftest import scaled

from repro.bench import pipeline_depth_ablation, print_tables

DEPTHS = (1, 4, 16)


def test_pipeline_depth_overlaps_phase_two_without_touching_phase_one():
    table = pipeline_depth_ablation(
        depths=DEPTHS,
        operations_per_client=scaled(400, minimum=100),
        certify_batch_size=8,
    )
    print_tables([table])

    by_clients: dict[int, dict[int, dict]] = {}
    for row in table.rows:
        by_clients.setdefault(row["clients"], {})[row["depth"]] = row

    # Every run lasts at least one gossip interval, so batched gossip ran.
    assert all(row["gossip_batches"] > 0 for row in table.rows)

    for clients, rows in by_clients.items():
        baseline = rows[DEPTHS[0]]
        for depth in DEPTHS[1:]:
            row = rows[depth]
            # Phase I stays in the same regime.  It is not bit-stable across
            # depths at this scale: faster certification lands block proofs
            # sooner, which starts LSMerkle merges *inside* the measurement
            # window that depth 1 defers past it, and the edge's single CPU
            # then splits between appends and merge bookkeeping (~15% at 9
            # clients).  The protocol-level claim — nothing client-visible
            # ever waits on certification — is pinned by the latency bound
            # below and by the unchanged figure-4/5 defaults.
            assert row["throughput_kops"] == pytest.approx(
                baseline["throughput_kops"], rel=0.25
            )
            assert row["commit_ms"] == pytest.approx(baseline["commit_ms"], rel=0.25)
            # Deeper windows must not lengthen the Phase II drain.  (The
            # request count is not compared: dispatch timing shifts how
            # batches group into window envelopes, so it is not monotone
            # in depth — the signature amortization itself is pinned by
            # the cert_pipeline_* rows and the unit tests.)
            assert row["phase2_lag_s"] <= baseline["phase2_lag_s"] * 1.05

    # At the sweep's largest client count Phase I outpaces one 61 ms
    # certification RTT per batch, so the window genuinely fills and the
    # drain interval strictly improves with depth.
    busiest = by_clients[max(by_clients)]
    assert busiest[DEPTHS[-1]]["inflight_peak"] > 1
    assert busiest[DEPTHS[-1]]["phase2_lag_s"] < busiest[DEPTHS[0]]["phase2_lag_s"]
