"""Smoke tests for the hot-path perf suite (`repro.bench.perf`)."""

from __future__ import annotations

import random
import statistics
from collections import Counter

import pytest

from repro.bench import format_summary, perf, run_perf_suite
from repro.bench.perf import (
    BENCHMARKS,
    CERTIFY_BENCH_BATCH_SIZE,
    bench_cert_pipeline_d1,
    bench_cert_pipeline_d8,
    bench_certify_per_block,
    bench_gossip_batch,
    bench_gossip_per_edge,
    bench_obs_overhead,
    bench_replica_read,
    bench_shard_handoff,
    bench_txn_cross_shard,
)
from repro.messages.kv_messages import GetResponse
from repro.messages.log_messages import (
    BlockCertifyRequest,
    BlockProofMessage,
    CertifyBatchRequest,
    CertifyWindowRequest,
)
from repro.messages.shard_messages import (
    ReplicaLease,
    ShardHandoffGrant,
    ShardHandoffRequest,
    ShardInstallAck,
    ShardTransferMessage,
)
from repro.messages.txn_messages import (
    TxnDecisionAck,
    TxnDecisionMessage,
    TxnPrepareReceipt,
    TxnPrepareRequest,
)


class TestPerfSuite:
    def test_quick_suite_runs_and_reports_every_benchmark(self):
        summary = run_perf_suite(mode="quick", seed=3)
        assert summary["mode"] == "quick"
        assert set(summary["results"]) == {bench.__name__[len("bench_"):] for bench in BENCHMARKS}
        for result in summary["results"].values():
            assert result["ops"] > 0
            assert result["ops_per_s"] > 0
            assert result["p50_ms"] <= result["p90_ms"] <= result["p99_ms"]
        rendered = format_summary(summary)
        assert all(name in rendered for name in summary["results"])


class TestBatchAmortizationTargets:
    def test_certify_batch_at_least_3x_per_block(self):
        """The PR 2 acceptance target, on the nodes: one signature over a
        32-block batch (``cert_pipeline_d1``) must certify at least 3x more
        blocks per second than the per-block exchange (measured margin is
        an order of magnitude)."""

        per_block = bench_certify_per_block(random.Random(7), quick=True)
        batched = bench_cert_pipeline_d1(random.Random(7), quick=True)
        assert batched.ops_per_s >= 3.0 * per_block.ops_per_s

    def test_gossip_batch_not_slower_than_per_edge(self):
        """Same claim as ever — batched >= per-edge edge-statements/s — read
        the way ROADMAP's wall-clock rule says: the median of adjacent pair
        ratios, with which side runs first alternating, so one slow run (or
        a host that changes speed between pairs) cannot decide it."""

        order = [bench_gossip_per_edge, bench_gossip_batch]
        ratios = []
        for _pair in range(7):
            rate = {
                bench: bench(random.Random(7), quick=True).ops_per_s for bench in order
            }
            ratios.append(rate[bench_gossip_batch] / rate[bench_gossip_per_edge])
            order.reverse()
        assert statistics.median(ratios) >= 1.0, ratios


#: Per real-node row: the messages one driven operation puts on the wire
#: (exact counts) and the node-side outcome of ``ops`` driven operations.
ROW_PROTOCOLS = {
    "certify_per_block": (
        bench_certify_per_block,
        {BlockCertifyRequest: 1, BlockProofMessage: 1},
        lambda fleet, ops: fleet.edge().certifier.certified_count == ops,
    ),
    "shard_handoff": (
        bench_shard_handoff,
        # The install ack goes to the cloud and to the source.
        {ShardHandoffRequest: 1, ShardHandoffGrant: 1, ShardTransferMessage: 1, ShardInstallAck: 2},
        lambda fleet, ops: fleet.cloud.stats["shard_installs"] == ops,
    ),
    "txn_cross_shard": (
        bench_txn_cross_shard,
        {TxnPrepareRequest: 2, TxnPrepareReceipt: 2, TxnDecisionMessage: 2, TxnDecisionAck: 2},
        lambda fleet, ops: fleet.clients[0].stats["txns_committed"] == ops,
    ),
}


class TestCertPipelineRowsTimeTheWireProtocol:
    """The real-node rows time the nodes a fleet runs.  Each test takes the
    fleet and the ``drive`` a row hands to its timer — built by the row's own
    set-up — and pins what crosses the wire, so no row can drift back onto a
    private re-enactment of its protocol."""

    @pytest.fixture
    def driven(self, monkeypatch):
        """Run a row's set-up, then its exchange once under a send hook:
        returns ``(fleet, messages sent, ops_per_repeat)``."""

        def drive_row(bench):
            handed = {}
            monkeypatch.setattr(
                perf,
                "_time_fleet_runs",
                lambda name, fleets, drive, ops: handed.update(
                    fleet=fleets[0], drive=drive, ops=ops
                ),
            )
            bench(random.Random(7), True)
            fleet, sent = handed["fleet"], []
            fleet.env.network.add_send_hook(
                "test:wire", lambda src, dst, message: sent.append(message) or True
            )
            perf._run_to_outcome(fleet, handed["drive"])
            return fleet, sent, handed["ops"]

        return drive_row

    def test_depth_8_pump_ships_one_window_envelope(self, driven):
        fleet, sent, ops = driven(bench_cert_pipeline_d8)
        (request,) = [m for m in sent if isinstance(m, CertifyWindowRequest)]
        assert not any(isinstance(m, CertifyBatchRequest) for m in sent)
        assert len(request.batches) == 8
        assert request.num_blocks == ops == 8 * CERTIFY_BENCH_BATCH_SIZE
        assert fleet.edge().certifier.certified_count == ops
        assert fleet.cloud.stats["certify_batches"] == 8

    def test_depth_1_pump_ships_plain_batch_requests(self, driven):
        fleet, sent, ops = driven(bench_cert_pipeline_d1)
        (request,) = [m for m in sent if isinstance(m, CertifyBatchRequest)]
        assert len(request.items) == ops == CERTIFY_BENCH_BATCH_SIZE
        assert fleet.edge().certifier.certified_count == ops
        assert fleet.cloud.stats["certify_batches"] == 1

    @pytest.mark.parametrize("row", sorted(ROW_PROTOCOLS))
    def test_row_ships_its_protocol_messages(self, driven, row):
        bench, per_operation, outcome = ROW_PROTOCOLS[row]
        fleet, sent, ops = driven(bench)
        kinds = [type(message) for message in sent]
        shipped = Counter(kinds)
        assert {kind: shipped[kind] for kind in per_operation} == {
            kind: count * ops for kind, count in per_operation.items()
        }
        assert outcome(fleet, ops)
        # Dict order is protocol order: offer, grant, transfer, ack.
        first_seen = [kinds.index(kind) for kind in per_operation]
        assert first_seen == sorted(first_seen)

    def test_replica_read_is_served_under_leases_to_phase_two(self, driven):
        # ``drive``'s outcome — every get at Phase II — was asserted by the run.
        fleet, sent, ops = driven(bench_replica_read)
        client = fleet.clients[0]
        responses = [m for m in sent if isinstance(m, GetResponse)]
        assert len(responses) == ops
        leased = [m for m in responses if isinstance(m.lease, ReplicaLease)]
        assert all(m.lease.replica == m.statement.edge for m in leased)
        assert 0 < client.stats["replica_reads_routed"] == len(leased)
        assert len(leased) == sum(edge.stats["replica_reads"] for edge in fleet.edges)

    def test_obs_overhead_runs_the_same_puts_with_and_without_observability(
        self, driven
    ):
        on, _, ops = driven(bench_obs_overhead)
        off, _, off_ops = driven(
            lambda rng, quick: perf._bench_put_fleet("off", rng, quick, observability=False)
        )
        assert ops == off_ops
        assert ops == on.edge().stats["entries_logged"] == off.edge().stats["entries_logged"]
        assert on.env.obs.tracer.spans_named("phase1.commit")
        assert off.env.obs is None
