"""The dispatch seam: one ``message type → (handler, route)`` table per node.

Four things are pinned here.  (a) *Completeness*: the tables implement
exactly the ``message type → handler`` mapping the nine ``isinstance``
ladders implemented at the parent commit — the expectations below were
written out by hand from those ladders, not derived from the tables.
(b) The lookup rules the ladders got for free from ``isinstance`` and
attribute lookup: wire subclasses reach their parent's row, a subclass
override needs no row, unknown types are ignored but still pass the
pre-dispatch side effects.  (c) *Trace parity*: seeded observability-enabled
runs reproduce, byte for byte, the exports the parent commit produced (see
``tests/data/make_trace_parity.py``).  (d) Ladders cannot grow back: no
function under the node packages chains ``isinstance`` tests on one name —
and the paper's packages stay the paper's: no module under ``repro.nodes``
or ``repro.core`` imports the fleet (``repro.sharding`` or its message
modules) at any level.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

from repro.baselines.cloud_only import (
    CloudGetResponse,
    CloudOnlyClient,
    CloudOnlySystem,
    CloudReadResponse,
    CloudStoreNode,
    CloudWriteResponse,
)
from repro.baselines.edge_baseline import (
    CertifiedStateResponse,
    EdgeBaselineCloudNode,
    EdgeBaselineEdgeNode,
    FullBlockCertifyRequest,
)
from repro.common.config import ShardingConfig, SystemConfig
from repro.core.system import WedgeChainSystem
from repro.messages.kv_messages import (
    GetRequest,
    GetResponse,
    MergeRejection,
    MergeRequest,
    MergeResponse,
    RootRefreshRequest,
    RootRefreshResponse,
)
from repro.messages.log_messages import (
    AppendBatchRequest,
    AppendBatchResponse,
    BatchCertificateMessage,
    BlockCertifyRequest,
    BlockProofMessage,
    CertifyBatchRequest,
    CertifyRejection,
    CertifyWindowRequest,
    DegradedModeNotice,
    DisputeRequest,
    DisputeVerdict,
    GossipBatchMessage,
    GossipMessage,
    ReadRequest,
    ReadResponse,
)
from repro.messages.shard_messages import (
    NotOwnerRedirect,
    ReplicaLease,
    ReplicaLogShipment,
    ReplicaPromotionGrant,
    ReplicaPromotionOffer,
    ReplicaPromotionOrder,
    ReplicaShipmentAck,
    ShardDispute,
    ShardDisputeVerdict,
    ShardHandoffGrant,
    ShardHandoffOrder,
    ShardHandoffRejection,
    ShardHandoffRequest,
    ShardInstallAck,
    ShardMapMessage,
    ShardQuarantineNotice,
    ShardTransferMessage,
    WriterHeartbeat,
)
from repro.messages.txn_messages import (
    TxnDecisionAck,
    TxnDecisionMessage,
    TxnDispute,
    TxnDisputeVerdict,
    TxnPrepareReceipt,
    TxnPrepareRejection,
    TxnPrepareRequest,
)
from repro.nodes.client import Client
from repro.nodes.cloud import CloudNode
from repro.nodes.edge import EdgeNode, PartitionState
from repro.nodes.variants import FullDataCertifyRequest
from repro.sharding import ShardedClient, ShardedCloudNode, ShardedEdgeNode
from repro.sharding import ShardedWedgeSystem
from repro.sim.environment import local_environment

REPO = pathlib.Path(__file__).resolve().parent.parent

# ----------------------------------------------------------------------
# (a) Table completeness — the parent's ladders, arm by arm
# ----------------------------------------------------------------------
EDGE = {
    AppendBatchRequest: "_handle_append",
    ReadRequest: "_handle_read",
    GetRequest: "_handle_get",
    BlockProofMessage: "_handle_block_proof",
    BatchCertificateMessage: "_handle_batch_certificate",
    MergeResponse: "_handle_merge_response",
    MergeRejection: "_handle_merge_rejection",
    RootRefreshResponse: "_handle_root_refresh_response",
    CertifyRejection: "_handle_certify_rejection",
}
SHARDED_EDGE = {
    **EDGE,
    # The 2PC participant's rows: the paper's edge has none.
    TxnPrepareRequest: "_handle_txn_prepare",
    TxnDecisionMessage: "_handle_txn_decision",
    ShardMapMessage: "_handle_shard_map",
    ShardHandoffOrder: "_handle_handoff_order",
    ShardHandoffGrant: "_handle_handoff_grant",
    ShardHandoffRejection: "_handle_handoff_rejection",
    ShardTransferMessage: "_handle_shard_transfer",
    ShardInstallAck: "_handle_install_ack_from_dest",
    ReplicaLease: "_handle_replica_lease",
    ReplicaLogShipment: "_handle_replica_shipment",
    ReplicaShipmentAck: "_handle_replica_shipment_ack",
    ReplicaPromotionOrder: "_handle_promotion_order",
    ReplicaPromotionGrant: "_handle_promotion_grant",
    # The parent appended to ``shard_verdicts`` inline in the ladder.
    ShardDisputeVerdict: "_handle_shard_verdict",
    TxnDisputeVerdict: "_handle_txn_verdict",
}
CLOUD = {
    BlockCertifyRequest: "_handle_certify",
    CertifyBatchRequest: "_handle_certify_batch",
    CertifyWindowRequest: "_handle_certify_batch",
    MergeRequest: "_handle_merge",
    RootRefreshRequest: "_handle_root_refresh",
    DisputeRequest: "_handle_dispute",
}
SHARDED_CLOUD = {
    **CLOUD,
    ShardHandoffRequest: "_handle_shard_handoff_request",
    ShardInstallAck: "_handle_shard_install_ack",
    ReplicaPromotionOffer: "_handle_promotion_offer",
    ReplicaShipmentAck: "_handle_replica_ack",
    # The parent's handler was ``del heartbeat``: accepted, no work.
    WriterHeartbeat: None,
    ShardQuarantineNotice: "_handle_quarantine_notice",
    ShardDispute: "_handle_shard_dispute",
    TxnDispute: "_handle_txn_dispute",
}
CLIENT = {
    AppendBatchResponse: "_handle_append_response",
    BlockProofMessage: "_handle_block_proof",
    ReadResponse: "_handle_read_response",
    GetResponse: "_handle_get_response",
    GossipMessage: "_handle_gossip",
    GossipBatchMessage: "_handle_gossip",
    # Inline ``self.verdicts.append`` at the parent.
    DisputeVerdict: "_handle_verdict",
    DegradedModeNotice: "_handle_degraded_notice",
}
SHARDED_CLIENT = {
    **CLIENT,
    # Inline arms at the parent: a map-view update, two verdict lists, and
    # three forwards to the transaction coordinator.
    ShardMapMessage: "_handle_shard_map",
    NotOwnerRedirect: "_handle_not_owner",
    ShardDisputeVerdict: "_handle_shard_verdict",
    TxnPrepareReceipt: "_handle_txn_receipt",
    TxnPrepareRejection: "_handle_txn_rejection",
    TxnDecisionAck: "_handle_txn_ack",
    TxnDisputeVerdict: "_handle_txn_verdict",
}
EXPECTED_HANDLERS = {
    EdgeNode: EDGE,
    ShardedEdgeNode: SHARDED_EDGE,
    EdgeBaselineEdgeNode: EDGE,
    CloudNode: CLOUD,
    ShardedCloudNode: SHARDED_CLOUD,
    EdgeBaselineCloudNode: {**CLOUD, FullBlockCertifyRequest: "_handle_full_certify"},
    Client: CLIENT,
    ShardedClient: SHARDED_CLIENT,
    CloudStoreNode: {
        AppendBatchRequest: "_handle_append",
        ReadRequest: "_handle_read",
        GetRequest: "_handle_get",
    },
    # Three inline arms at the parent.
    CloudOnlyClient: {
        CloudWriteResponse: "_handle_write_response",
        CloudReadResponse: "_handle_read_response",
        CloudGetResponse: "_handle_get_response",
    },
}

#: ``ShardedEdgeNode._partition_for_message`` at the parent, arm by arm:
#: which resolution each routed type went through.  Everything else the
#: sharded ``on_message`` ladder handled before reaching it (node-level).
SHARDED_EDGE_ROUTES = {
    AppendBatchRequest: "_route_append",
    GetRequest: "_route_get",
    TxnPrepareRequest: "_route_txn_prepare",
    ReadRequest: "_route_read",
    BlockProofMessage: "_route_block_proof",
    CertifyRejection: "_route_certify_rejection",
    BatchCertificateMessage: "_route_batch_certificate",
    MergeResponse: "_route_merge_response",
    MergeRejection: "_route_shard_field",
    RootRefreshResponse: "_route_shard_field",
}


class TestTableCompleteness:
    @pytest.mark.parametrize(
        "node_class", EXPECTED_HANDLERS, ids=lambda cls: cls.__name__
    )
    def test_table_is_the_parent_ladder(self, node_class):
        expected = EXPECTED_HANDLERS[node_class]
        assert node_class.HANDLERS.handler_names() == expected
        for handler in filter(None, expected.values()):
            assert callable(getattr(node_class, handler)), handler

    def test_plain_edge_routes_everything_to_its_one_partition(self):
        for message_type in EDGE:
            assert EdgeNode.HANDLERS.lookup(message_type)[1] == "_route_default"

    def test_sharded_edge_routes_are_the_parent_resolution_ladder(self):
        table = ShardedEdgeNode.HANDLERS
        for message_type in SHARDED_EDGE:
            route = table.lookup(message_type)[1]
            assert route == SHARDED_EDGE_ROUTES.get(message_type), message_type
            if route is not None:
                assert callable(getattr(ShardedEdgeNode, route))

    def test_subclass_tables_do_not_leak_into_their_parents(self):
        assert ShardMapMessage not in EdgeNode.HANDLERS.handler_names()
        assert TxnPrepareRequest not in EdgeNode.HANDLERS.handler_names()
        assert TxnDecisionMessage not in EdgeNode.HANDLERS.handler_names()
        assert ShardDispute not in CloudNode.HANDLERS.handler_names()
        assert NotOwnerRedirect not in Client.HANDLERS.handler_names()
        assert FullBlockCertifyRequest not in CloudNode.HANDLERS.handler_names()


# ----------------------------------------------------------------------
# (b) Lookup rules
# ----------------------------------------------------------------------
class _Unknown:
    """A message type no table has a row for."""


def single_system(**build_kwargs):
    return WedgeChainSystem.build(
        num_clients=1, env=local_environment(seed=5), **build_kwargs
    )


def sharded_system():
    return ShardedWedgeSystem.build(
        config=SystemConfig.paper_default().with_overrides(
            num_edge_nodes=2, sharding=ShardingConfig(num_shards=4)
        ),
        num_clients=1,
        env=local_environment(seed=5),
    )


class TestLookupRules:
    def test_wire_subclasses_reach_their_parents_row(self):
        # The two wire classes that subclass another wire class.
        assert FullDataCertifyRequest.__mro__[1] is BlockCertifyRequest
        assert CertifiedStateResponse.__mro__[1] is BlockProofMessage
        for table in (CloudNode.HANDLERS, ShardedCloudNode.HANDLERS):
            assert table.lookup(FullDataCertifyRequest) == table.lookup(
                BlockCertifyRequest
            )
        for table in (EdgeNode.HANDLERS, ShardedEdgeNode.HANDLERS, Client.HANDLERS):
            assert table.lookup(CertifiedStateResponse) == table.lookup(
                BlockProofMessage
            )
        # Memoised per class: the second lookup is a plain dict hit.
        assert FullDataCertifyRequest in CloudNode.HANDLERS._memo

    def test_unknown_answer_is_memoised_too(self):
        assert CloudNode.HANDLERS.lookup(_Unknown) == (None, None)
        assert _Unknown in CloudNode.HANDLERS._memo
        assert EdgeNode.HANDLERS.lookup(_Unknown) == (None, "_route_default")

    def test_class_level_override_needs_no_row(self):
        calls = []

        class StubGetEdge(EdgeNode):
            def _handle_get(self, sender, request):
                calls.append((sender, request))

        assert StubGetEdge.HANDLERS is EdgeNode.HANDLERS
        system = single_system(
            edge_factory=lambda env, cloud, config, name, region: StubGetEdge(
                env=env, cloud=cloud, config=config, name=name, region=region
            )
        )
        client = system.client(0)
        client.get("some-key")
        system.run_for(1.0)
        assert len(calls) == 1 and calls[0][0] == client.node_id

    def test_instance_level_patches_are_honoured(self):
        # The environment adapters and the benchmark's tracer rely on
        # ``on_message`` being patchable per instance; tests patch handlers.
        system = single_system()
        edge, client = system.edge(0), system.client(0)
        seen = []
        inner = edge.on_message
        edge.on_message = lambda sender, message: (
            seen.append(type(message).__name__),
            inner(sender, message),
        )
        edge._handle_read = lambda sender, request: seen.append("patched-read")
        client.read(0)
        system.run_for(1.0)
        assert seen == ["ReadRequest", "patched-read"]

    def test_edge_ignores_unknown_types_but_still_gates_on_quarantine(self):
        system = single_system()
        edge = system.edge(0)
        before = dict(edge.stats)
        edge.on_message(system.client(0).node_id, _Unknown())
        assert dict(edge.stats) == before
        edge._default_partition.quarantined = "checksum mismatch (test)"
        edge.on_message(system.client(0).node_id, _Unknown())
        assert edge.stats["quarantined_refusals"] == 1

    def test_sharded_edge_unknown_types_take_the_default_route(self):
        system = sharded_system()
        edge = system.edges[0]
        edge._default_partition.quarantined = "checksum mismatch (test)"
        edge.on_message(system.clients[0].node_id, _Unknown())
        assert edge.stats["quarantined_refusals"] == 1
        # Node-level rows run against no partition: no quarantine gate.
        edge.on_message(system.cloud.node_id, system.cloud.current_shard_map())
        assert edge.stats["quarantined_refusals"] == 1

    def test_sharded_cloud_stamps_liveness_for_unknown_types(self):
        system = sharded_system()
        cloud, edge = system.cloud, system.edges[0]
        system.run_for(2.5)
        stamped = cloud._last_seen.get(edge.node_id)
        before = dict(cloud.stats)
        cloud.on_message(edge.node_id, _Unknown())
        assert cloud._last_seen[edge.node_id] == system.env.now() != stamped
        assert dict(cloud.stats) == before

    def test_paper_default_cloud_carries_no_shard_authority(self):
        cloud = single_system().cloud
        assert type(cloud) is CloudNode
        for name in ("shard_registry", "_partitioner", "_last_seen", "_handoff_certificates"):
            assert not hasattr(cloud, name), name
        before = dict(cloud.stats)
        cloud.on_message(
            cloud.node_id, WriterHeartbeat(edge=cloud.node_id, shards=())
        )
        cloud.on_message(cloud.node_id, _Unknown())
        assert dict(cloud.stats) == before

    def test_paper_default_edge_carries_no_txn_state(self):
        system = single_system()
        edge = system.edge(0)
        assert type(edge) is EdgeNode
        assert type(edge._default_partition) is PartitionState
        for holder in (edge, edge._default_partition):
            for name in ("staged_txns", "decided_txns", "_txn_record_seq"):
                assert not hasattr(holder, name), name
        # The 2PC messages are unknown types to it: ignored, still gated.
        for message_type in (TxnPrepareRequest, TxnDecisionMessage):
            assert EdgeNode.HANDLERS.lookup(message_type) == (None, "_route_default")
        before = dict(edge.stats)
        prepare = object.__new__(TxnPrepareRequest)
        decision = object.__new__(TxnDecisionMessage)
        edge.on_message(system.client(0).node_id, prepare)
        edge.on_message(system.client(0).node_id, decision)
        assert dict(edge.stats) == before
        edge._default_partition.quarantined = "checksum mismatch (test)"
        edge.on_message(system.client(0).node_id, prepare)
        edge.on_message(system.client(0).node_id, decision)
        assert edge.stats["quarantined_refusals"] == 2

    def test_clients_ignore_unknown_types(self):
        system = single_system()
        client = system.client(0)
        before = dict(client.stats)
        client.on_message(system.edge(0).node_id, _Unknown())
        assert dict(client.stats) == before
        cloud_only = CloudOnlySystem.build(num_clients=1, seed=5)
        cloud_only.clients[0].on_message(cloud_only.cloud.node_id, _Unknown())
        cloud_only.cloud.on_message(cloud_only.clients[0].node_id, _Unknown())


# ----------------------------------------------------------------------
# (c) Trace parity with the parent commit
# ----------------------------------------------------------------------
def _load_parity_module():
    path = REPO / "tests" / "data" / "make_trace_parity.py"
    spec = importlib.util.spec_from_file_location("make_trace_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARITY = _load_parity_module()


class TestTraceParity:
    @pytest.mark.parametrize("scenario", sorted(PARITY.SCENARIOS))
    def test_exports_match_the_parent_commit_byte_for_byte(self, scenario):
        fixture_dir = REPO / "tests" / "data" / "trace_parity"
        for file_name, content in PARITY.exports(scenario).items():
            expected = (fixture_dir / file_name).read_text()
            assert content == expected, f"{file_name} drifted from the parent"

    def test_fixture_opens_every_span_the_nodes_emit(self):
        """The fixture is only a parity proof for spans it contains."""

        fixture_dir = REPO / "tests" / "data" / "trace_parity"
        recorded = "".join(
            path.read_text() for path in sorted(fixture_dir.glob("*.trace.jsonl"))
        )
        emitted = set()
        for package in ("nodes", "sharding"):
            for path in (REPO / "src" / "repro" / package).glob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_span"
                    ):
                        emitted.add(node.args[0].value)
        assert len(emitted) >= 19  # 22 sites, 19 distinct names
        for name in sorted(emitted):
            assert f'"name":"{name}"' in recorded, name


# ----------------------------------------------------------------------
# (d) No ladder grows back
# ----------------------------------------------------------------------
def _isinstance_chains(tree: ast.AST):
    """``(function, name, count)`` for every function testing one name with
    ``isinstance`` three or more times."""

    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        counts: dict[str, int] = {}
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                counts[node.args[0].id] = counts.get(node.args[0].id, 0) + 1
        for name, count in counts.items():
            if count >= 3:
                yield function.name, name, count


def _imported_modules(path: pathlib.Path):
    """Absolute dotted name of every module *path* imports, at any depth
    (module level or inside a function), with relative imports resolved."""

    package = path.relative_to(REPO / "src").with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *filter(None, [node.module])))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


class TestPaperNodesImportNoFleetProtocol:
    """``repro.nodes`` and ``repro.core`` are the paper's system: the fleet's
    protocols reach a node only as rows a ``repro.sharding`` subclass adds to
    its own table, and its judges live beside that subclass."""

    FORBIDDEN = (
        "repro.sharding",
        "repro.messages.txn_messages",
        "repro.messages.shard_messages",
    )

    def test_detector_resolves_relative_and_function_level_imports(self):
        found = set(_imported_modules(REPO / "src/repro/sharding/participant.py"))
        assert "repro.messages.txn_messages" in found  # ``from ..messages.x``
        assert "repro.sharding.transactions" in found  # ``from .transactions``
        found = set(_imported_modules(REPO / "src/repro/faults/invariants.py"))
        assert "repro.sharding.transactions" in found  # inside a function

    def _offenders(self, package: str) -> list[str]:
        return [
            f"{path.name} imports {module}"
            for path in sorted((REPO / "src/repro" / package).glob("*.py"))
            for module in _imported_modules(path)
            if any(
                module == name or module.startswith(name + ".")
                for name in self.FORBIDDEN
            )
        ]

    def test_no_module_under_nodes_imports_sharding_or_its_messages(self):
        assert not self._offenders("nodes")

    def test_no_module_under_core_imports_sharding_or_its_messages(self):
        # Holds since the fleet's judges left ``core/dispute.py`` (PR 23).
        assert not self._offenders("core")

    def test_sharded_edge_module_defines_exactly_one_class(self):
        # The adversaries live in ``sharding/malicious.py``, the way
        # ``nodes/malicious.py`` sits beside ``nodes/edge.py``.
        tree = ast.parse((REPO / "src/repro/sharding/edge.py").read_text())
        classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        assert classes == ["ShardedEdgeNode"]


class TestPerfSuiteImportsNoProtocolVocabulary:
    """``repro.bench.perf`` times nodes; a row that imports a fleet message
    module or a certify statement is spelling the protocol itself again."""

    def test_perf_imports_no_fleet_message_or_certify_statement(self):
        offenders = [
            module
            for module in _imported_modules(REPO / "src/repro/bench/perf.py")
            if module.startswith(
                ("repro.messages.shard_messages", "repro.messages.txn_messages")
            )
            or module.endswith((".CertifyStatement", ".CertifyBatchStatement"))
        ]
        assert not offenders, offenders


class TestNoLadders:
    def test_detector_sees_a_ladder(self):
        ladder = (
            "def on_message(self, sender, message):\n"
            "    if isinstance(message, A): self.a()\n"
            "    elif isinstance(message, B): self.b()\n"
            "    elif isinstance(message, C): self.c()\n"
        )
        assert list(_isinstance_chains(ast.parse(ladder))) == [
            ("on_message", "message", 3)
        ]

    def test_no_isinstance_ladder_in_the_node_packages(self):
        offenders = []
        for package in ("nodes", "sharding", "baselines"):
            for path in sorted((REPO / "src" / "repro" / package).glob("*.py")):
                for function, name, count in _isinstance_chains(
                    ast.parse(path.read_text())
                ):
                    offenders.append(f"{path.name}::{function} tests {name!r} x{count}")
        assert not offenders, offenders
