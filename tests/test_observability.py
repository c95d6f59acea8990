"""The unified observability layer (PR 8): metrics registry, protocol-phase
tracing, exports, and the fleet health report.

The determinism contract is the backbone of these tests: observability adds
no CPU charges, no RNG draws, and never touches wire payloads, so (a) the
same seed produces a byte-identical metrics/trace snapshot, and (b) an
obs-enabled run reaches exactly the same protocol outcome as an obs-off run
of the same seed — including under injected faults.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.common.config import (
    LoggingConfig,
    ObservabilityConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.core.system import WedgeChainSystem
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs.export import (
    diff_snapshots,
    load_recording,
    metrics_snapshot,
    prometheus_text,
    trace_jsonl,
    write_recording,
)
from repro.obs.metrics import MetricsRegistry, StatsDict
from repro.obs.report import fleet_health_report
from repro.obs.tracing import Tracer
from repro.sharding import ShardedWedgeSystem
from repro.sim.environment import local_environment

BLOCK = 4

OBS_ON = ObservabilityConfig(enabled=True)


def obs_config(**overrides) -> SystemConfig:
    base = dict(
        logging=LoggingConfig(block_size=BLOCK, block_timeout_s=0.02),
        observability=OBS_ON,
    )
    base.update(overrides)
    return SystemConfig.paper_default().with_overrides(**base)


def build_system(seed=11, observability=OBS_ON):
    return WedgeChainSystem.build(
        config=obs_config(observability=observability),
        num_clients=1,
        env=local_environment(seed=seed),
    )


def put_blocks(client, count, prefix="k"):
    """Issue *count* full blocks; returns ``(client, op)`` pairs for
    :meth:`WedgeChainSystem.wait_for_all`."""

    ops = []
    for block in range(count):
        items = [(f"{prefix}-{block}-{i}", b"v%d" % i) for i in range(BLOCK)]
        ops.append((client, client.put_batch(items)))
    return ops


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry("node")
        registry.counter("puts").inc()
        registry.counter("puts").inc(4)
        registry.gauge("queue").set(7)
        hist = registry.histogram("latency_s")
        for value in (0.004, 0.02, 0.02, 1.5):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["puts"] == 5
        assert snap["gauges"]["queue"] == 7
        summary = snap["histograms"]["latency_s"]
        assert summary["count"] == 4
        assert summary["min"] == 0.004 and summary["max"] == 1.5
        assert summary["p50"] == 0.02

    def test_labels_key_separate_series(self):
        registry = MetricsRegistry("node")
        registry.counter("bytes", link="wan").inc(10)
        registry.counter("bytes", link="lan").inc(1)
        # Same (name, labels) → same instance; order of kwargs irrelevant.
        assert registry.counter("bytes", link="wan").value == 10
        snap = registry.snapshot()["counters"]
        assert snap['bytes{link="lan"}'] == 1
        assert snap['bytes{link="wan"}'] == 10

    def test_histogram_exact_percentiles(self):
        hist = MetricsRegistry("n").histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        # Nearest-rank over the raw values: index = floor(f * n), clamped.
        assert hist.percentile(0.50) == 51.0
        assert hist.percentile(0.99) == 100.0
        assert hist.percentile(1.0) == 100.0
        assert hist.percentile(0.0) == 1.0

    def test_stats_dict_mirrors_numeric_values(self):
        registry = MetricsRegistry("edge")
        stats = StatsDict(registry, {"entries_logged": 0})
        stats["entries_logged"] += 12
        stats.setdefault("degraded_entries", 0)
        stats["degraded_entries"] += 1
        stats.update(blocks_formed=3)
        counters = registry.snapshot()["counters"]
        assert counters["entries_logged"] == 12
        assert counters["degraded_entries"] == 1
        assert counters["blocks_formed"] == 3
        # Reads behave exactly like the plain dict they replace.
        assert stats["entries_logged"] == 12
        assert dict(stats)["blocks_formed"] == 3


class TestTracer:
    def test_span_nesting_and_links(self):
        clock = iter(float(i) for i in range(100))
        tracer = Tracer(lambda: next(clock))
        with tracer.span("parent", parent=None, node="e") as parent:
            with tracer.span("child") as child:
                assert child.trace_id == parent.trace_id
            tracer.event("fault.drop", src="a", dst="b")
        spans = tracer.spans
        assert [record.name for record in spans] == ["parent", "child"]
        assert spans[1].parent_id == spans[0].span_id
        assert tracer.events[0]["span"] == spans[0].span_id

    def test_sequential_ids_are_deterministic(self):
        tracer = Tracer(lambda: 0.0)
        with tracer.span("a", parent=None):
            pass
        with tracer.span("b", parent=None):
            pass
        assert [record.span_id for record in tracer.spans] == ["s000001", "s000002"]
        assert [record.context.trace_id for record in tracer.spans] == [
            "t000001",
            "t000002",
        ]


# ----------------------------------------------------------------------
# Default-off stance: zero footprint unless opted in
# ----------------------------------------------------------------------
class TestDefaultOff:
    def test_default_run_carries_no_observability(self):
        system = build_system(observability=ObservabilityConfig())
        client = system.client(0)
        ops = put_blocks(client, 2)
        assert system.wait_for_all(ops)
        env = system.env
        assert env.obs is None
        assert env.network._obs is None
        # Stats stay plain dicts — not registry-mirroring shims.
        assert type(system.edge(0).stats) is dict
        assert type(system.cloud.stats) is dict
        assert "repro.obs" not in sys.modules or True  # imported by this test file

    def test_obs_module_not_imported_by_default_deployment(self):
        # Run in a subprocess so this test file's own imports don't pollute
        # the check: a paper-default build must never import repro.obs.
        code = (
            "import sys\n"
            "from repro.core.system import WedgeChainSystem\n"
            "system = WedgeChainSystem.build(num_clients=1)\n"
            "client = system.client(0)\n"
            "op = client.put_batch([(f'k{i}', b'v') for i in range(4)])\n"
            "system.wait_for_all([(client, op)])\n"
            "assert not any(m.startswith('repro.obs') for m in sys.modules), (\n"
            "    sorted(m for m in sys.modules if m.startswith('repro.obs')))\n"
            "print('clean')\n"
        )
        repo_src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": repo_src, "PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "clean" in completed.stdout


# ----------------------------------------------------------------------
# End-to-end traces: the Phase I → Phase II causal chain
# ----------------------------------------------------------------------
class TestProtocolTraces:
    def test_certificate_spans_link_to_phase1(self):
        system = build_system(seed=11)
        client = system.client(0)
        ops = put_blocks(client, 3)
        assert system.wait_for_all(ops)
        tracer = system.env.obs.tracer
        phase1 = {record.span_id for record in tracer.spans_named("phase1.commit")}
        absorbs = tracer.spans_named("certify.absorb")
        assert phase1 and absorbs
        for span in absorbs:
            # The acceptance linkage: every Phase II certificate absorption
            # names the Phase I commit span of the block it certifies.
            assert span.links, f"absorb span {span.span_id} carries no links"
            assert all(link.span_id in phase1 for link in span.links)
            # And it parents off the cloud's certify span via the delivery
            # sidecar (which itself parents off certify.dispatch).
            parent = tracer.find(span.parent_id)
            assert parent is not None and parent.name == "certify.cloud"
            dispatch = tracer.find(parent.parent_id)
            assert dispatch is not None and dispatch.name == "certify.dispatch"

    def test_certify_latency_histogram_observed(self):
        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 3))
        registry = system.env.obs.registry_for(str(system.edge(0).node_id))
        summary = registry.histogram("certify_latency_s").summary()
        assert summary["count"] == 3
        assert summary["min"] > 0.0

    def test_network_traffic_metrics(self):
        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 2))
        network = system.env.obs.registry_for("network")
        counters = network.snapshot()["counters"]
        certify_bytes = [
            value
            for name, value in counters.items()
            if name.startswith("net_bytes{") and "BlockCertifyRequest" in name
        ]
        assert certify_bytes and certify_bytes[0] > 0

    def test_fault_events_carry_active_span(self):
        system = build_system(seed=110)
        client = system.client(0)
        plan = FaultPlan(seed=110, name="obs-faults").with_rule(
            FaultRule(
                "delay",
                message_type="BlockCertifyRequest",
                delay_s=0.5,
                until_s=5.0,
            )
        )
        FaultInjector(system.env, plan).install()
        put_blocks(client, 3)
        system.run_for(30.0)
        tracer = system.env.obs.tracer
        delays = [e for e in tracer.events if e["name"] == "fault.delay"]
        assert delays, "the delay rule never fired"
        dispatch_ids = {
            record.span_id for record in tracer.spans_named("certify.dispatch")
        }
        for event in delays:
            # The injector's send hook runs while the edge's dispatch span
            # is active, so the fault that delayed a certification is linked
            # to the very span it perturbed.
            assert event["span"] in dispatch_ids

    def test_sharded_handoff_and_txn_spans(self):
        system = ShardedWedgeSystem.build(
            config=obs_config(
                num_edge_nodes=2,
                sharding=ShardingConfig(num_shards=4),
            ),
            num_clients=1,
            env=local_environment(seed=17),
        )
        client = system.clients[0]
        ops = [(client, client.put(f"w-{i:04d}", b"v%d" % i)) for i in range(16)]
        assert system.wait_for_all(ops)
        txn_id = client.txn_put(
            [("txn-a-key", b"1"), ("txn-b-key", b"2"), ("txn-c-key", b"3")]
        )
        system.run_for(20.0)
        assert client.txns.state_of(txn_id) == "committed"
        source = system.edges[0]
        shard_id = max(source.shard_entry_counts, key=source.shard_entry_counts.get)
        system.rebalance_shard(shard_id, system.edges[1].node_id)
        system.run_for(30.0)
        tracer = system.env.obs.tracer
        names = {record.name for record in tracer.spans}
        assert {"txn.begin", "txn.decide"} <= names
        assert {"handoff.drain", "handoff.offer", "handoff.transfer"} <= names
        # The decide span parents off its transaction's begin span, and the
        # handoff offer/transfer spans parent off their shard's drain span.
        begins = {r.span_id for r in tracer.spans_named("txn.begin")}
        for record in tracer.spans_named("txn.decide"):
            assert record.parent_id in begins
        drains = {r.span_id for r in tracer.spans_named("handoff.drain")}
        for name in ("handoff.offer", "handoff.transfer"):
            for record in tracer.spans_named(name):
                assert record.parent_id in drains
        # Sharded edges publish per-shard entry gauges; the health report
        # groups them by shard label.
        report = fleet_health_report(system.env.obs.recording())
        assert "Entries by shard" in report
        assert f"shard {shard_id}:" in report


# ----------------------------------------------------------------------
# Determinism: byte-identical exports, identical protocol outcomes
# ----------------------------------------------------------------------
def _chaos_run(observability):
    system = WedgeChainSystem.build(
        config=obs_config(observability=observability),
        num_clients=1,
        env=local_environment(seed=110),
    )
    client = system.client(0)
    plan = (
        FaultPlan(seed=110, name="obs-determinism")
        .with_rule(FaultRule("drop", probability=0.4, until_s=2.0))
        .with_rule(
            FaultRule("duplicate", probability=0.3, until_s=2.0, spread_s=0.1)
        )
    )
    injector = FaultInjector(system.env, plan).install()
    put_blocks(client, 5)
    system.run_for(25.0)
    return system, injector


class TestDeterminism:
    def test_same_seed_byte_identical_exports(self):
        first, _ = _chaos_run(OBS_ON)
        second, _ = _chaos_run(OBS_ON)
        assert first.env.obs.trace_jsonl() == second.env.obs.trace_jsonl()
        assert first.env.obs.prometheus_text() == second.env.obs.prometheus_text()
        assert first.env.obs.metrics_snapshot() == second.env.obs.metrics_snapshot()

    def test_obs_on_matches_obs_off_outcome(self):
        on_system, on_injector = _chaos_run(OBS_ON)
        off_system, off_injector = _chaos_run(ObservabilityConfig())
        # Observability must be a pure observer: same fault trace, same
        # protocol outcome, same network accounting, to the byte.
        assert tuple(on_injector.trace) == tuple(off_injector.trace)
        assert on_injector.rule_fire_counts() == off_injector.rule_fire_counts()
        assert (
            dict(on_system.edge(0).stats) == dict(off_system.edge(0).stats)
        )
        assert dict(on_system.cloud.stats) == dict(off_system.cloud.stats)
        assert (
            on_system.env.network.stats.dropped_sends
            == off_system.env.network.stats.dropped_sends
        )
        assert (
            on_system.env.network.stats.bytes_sent
            == off_system.env.network.stats.bytes_sent
        )
        assert (
            on_system.env.network.stats.wan_bytes
            == off_system.env.network.stats.wan_bytes
        )


# ----------------------------------------------------------------------
# Export formats and the fleet health report
# ----------------------------------------------------------------------
class TestExports:
    def test_recording_round_trip(self, tmp_path):
        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 2))
        path = tmp_path / "recording.json"
        write_recording(system.env.obs, str(path))
        recording = load_recording(str(path))
        assert recording["schema"] == 1
        assert recording["metrics"] == metrics_snapshot(system.env.obs)
        names = {r["name"] for r in recording["trace"] if r["kind"] == "span"}
        assert "phase1.commit" in names and "certify.absorb" in names

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "metrics": {}, "trace": []}))
        with pytest.raises(ValueError):
            load_recording(str(path))

    def test_trace_jsonl_is_sorted_compact_json(self):
        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 1))
        lines = system.env.obs.trace_jsonl().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line

    def test_diff_snapshots(self):
        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 1))
        before = metrics_snapshot(system.env.obs)
        assert system.wait_for_all(put_blocks(client, 1, prefix="second"))
        after = metrics_snapshot(system.env.obs)
        delta = diff_snapshots(before, after)
        edge = str(system.edge(0).node_id)
        assert delta[edge]["counters"]["entries_logged"] == BLOCK

    def test_fleet_health_report_renders(self):
        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 3))
        report = fleet_health_report(system.env.obs.recording())
        assert "fleet health report" in report
        assert "Throughput by node" in report
        assert "entries_logged=12" in report
        assert "WAN bytes by message type" in report
        assert "Trace digest" in report
        assert "none — every partition at full durability" in report

    def test_report_cli_runs_demo_and_recording(self, tmp_path):
        # Inherit the environment (so a tracer installed through
        # ``PYTHONPATH`` follows the child), with the repository's source
        # first on the path.
        repo_src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [repo_src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        demo = subprocess.run(
            [sys.executable, "-m", "repro.obs.report"],
            capture_output=True,
            text=True,
            timeout=240,
            env=env,
        )
        assert demo.returncode == 0, demo.stderr[-2000:]
        assert "fleet health report" in demo.stdout

        system = build_system(seed=11)
        client = system.client(0)
        assert system.wait_for_all(put_blocks(client, 2))
        path = tmp_path / "recording.json"
        write_recording(system.env.obs, str(path))
        from_file = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", str(path)],
            capture_output=True,
            text=True,
            timeout=240,
            env=env,
        )
        assert from_file.returncode == 0, from_file.stderr[-2000:]
        assert "fleet health report" in from_file.stdout

    def test_durable_storage_metrics_surface_in_report(self, tmp_path):
        from repro.common.config import StorageConfig

        storage = StorageConfig(backend="disk", root_dir=str(tmp_path), fsync="always")
        system = WedgeChainSystem.build(
            config=obs_config(storage=storage),
            num_clients=1,
            env=local_environment(seed=31),
        )
        client = system.client(0)
        edge = system.edge(0)
        assert system.wait_for_all(put_blocks(client, 3))
        # The partition store's counters are registry-mirrored under the
        # ``storage_`` prefix; a crash/restart exercises the recovery
        # histogram as well.
        edge.on_crash()
        edge.on_restart()
        snap = metrics_snapshot(system.env.obs)[str(edge.node_id)]
        storage_counters = {
            name for name in snap["counters"] if name.startswith("storage_")
        }
        assert "storage_blocks_appended" in storage_counters
        assert snap["histograms"]["storage_recovery_blocks"]["count"] >= 1
        report = fleet_health_report(system.env.obs.recording())
        assert "Storage (durable log)" in report
        assert "storage_blocks_appended" in report
