"""Smoke tests for the hot-path perf suite (`repro.bench.perf`)."""

from __future__ import annotations

import random

from repro.bench import format_summary, run_perf_suite
from repro.bench.perf import (
    BENCHMARKS,
    CERTIFY_BENCH_BATCH_SIZE,
    _make_digest_pairs,
    _make_pipeline_pair,
    bench_certify_batch,
    bench_certify_per_block,
    bench_gossip_batch,
    bench_gossip_per_edge,
)
from repro.messages.log_messages import CertifyBatchRequest, CertifyWindowRequest


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
        """The PR acceptance target: batching one signature over 32 blocks
        must certify at least 3x more blocks per second than the per-block
        signature round (measured margin is an order of magnitude)."""

        per_block = bench_certify_per_block(random.Random(7), quick=True)
        batched = bench_certify_batch(random.Random(7), quick=True)
        assert batched.ops_per_s >= 3.0 * per_block.ops_per_s

    def test_gossip_batch_not_slower_than_per_edge(self):
        per_edge = bench_gossip_per_edge(random.Random(7), quick=True)
        batched = bench_gossip_batch(random.Random(7), quick=True)
        assert batched.ops_per_s >= per_edge.ops_per_s


class TestCertPipelineRowsTimeTheWireProtocol:
    """The ``cert_pipeline_*`` rows time the nodes a fleet runs.  Pin what
    the pair their set-up helper builds puts on the wire, so the rows cannot
    drift onto a private driver again."""

    def shipped(self, depth):
        num_blocks = depth * CERTIFY_BENCH_BATCH_SIZE
        env, cloud, edge = _make_pipeline_pair(
            depth, _make_digest_pairs(random.Random(7), num_blocks)
        )
        requests = []

        def record(src, dst, message):
            if dst == cloud.node_id:
                requests.append(message)
            return True

        env.network.add_send_hook("test:certify-requests", record)
        edge._pump_certify_pipeline()
        env.run()
        assert edge.certifier.certified_count == num_blocks
        assert cloud.stats["certify_batches"] == depth
        return requests

    def test_depth_8_pump_ships_one_window_envelope(self):
        (request,) = self.shipped(depth=8)
        assert isinstance(request, CertifyWindowRequest)
        assert len(request.batches) == 8
        assert request.num_blocks == 8 * CERTIFY_BENCH_BATCH_SIZE

    def test_depth_1_pump_ships_plain_batch_requests(self):
        (request,) = self.shipped(depth=1)
        assert isinstance(request, CertifyBatchRequest)
        assert len(request.items) == CERTIFY_BENCH_BATCH_SIZE
