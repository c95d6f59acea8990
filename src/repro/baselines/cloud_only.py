"""The Cloud-only baseline (Section VI).

All requests are served by the trusted cloud node: clients pay the wide-area
round trip on every operation, but results need no verification because no
untrusted party handled them.  The cloud keeps the log and a plain (trusted,
non-Merkle) LSM index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..common.identifiers import (
    BlockId,
    NodeId,
    OperationId,
    OperationKind,
    SequenceGenerator,
    client_id,
    cloud_id,
)
from ..common.regions import Region
from ..core.commit import CommitTracker
from ..log.block import Block, build_block
from ..log.buffer import BlockBuffer
from ..log.proofs import CommitPhase
from ..log.wedge_log import WedgeLog
from ..lsm.lsm_tree import LSMTree
from ..lsmerkle.codec import encode_put, page_from_block
from ..log.entry import make_entry
from ..messages.kv_messages import GetRequest
from ..messages.log_messages import AppendBatchRequest, ReadRequest
from ..nodes.dispatch import DispatchTable, TableDispatchNode
from ..sim.environment import Environment
from ..sim.parameters import SimulationParameters
from ..sim.topology import Topology


# ----------------------------------------------------------------------
# Baseline-specific response messages (no proofs needed: the cloud is trusted)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CloudWriteResponse:
    operation_id: OperationId
    block_id: BlockId

    @property
    def wire_size(self) -> int:
        return 48


@dataclass(frozen=True)
class CloudReadResponse:
    operation_id: OperationId
    block_id: BlockId
    found: bool
    block: Optional[Block] = None

    @property
    def wire_size(self) -> int:
        return 48 + (self.block.wire_size if self.block is not None else 0)


@dataclass(frozen=True)
class CloudGetResponse:
    operation_id: OperationId
    key: str
    found: bool
    value: Optional[bytes] = None

    @property
    def wire_size(self) -> int:
        return 48 + len(self.key) + (len(self.value) if self.value is not None else 0)


class CloudStoreNode(TableDispatchNode):
    """The trusted cloud store serving every request directly."""

    HANDLERS = DispatchTable(
        {
            AppendBatchRequest: "_handle_append",
            ReadRequest: "_handle_read",
            GetRequest: "_handle_get",
        }
    )

    def __init__(
        self,
        env: Environment,
        config: Optional[SystemConfig] = None,
        name: str = "cloud-store",
        region: Optional[Region] = None,
    ) -> None:
        self.env = env
        self.config = config if config is not None else SystemConfig.paper_default()
        self.node_id = cloud_id(name)
        self.region = region if region is not None else self.config.placement.cloud_region
        self.log = WedgeLog(self.node_id)
        self.buffer = BlockBuffer(self.config.logging.block_size)
        self.index = LSMTree(
            config=self.config.lsmerkle,
            page_capacity=self.config.logging.block_size,
        )
        self.stats = {"blocks_formed": 0, "entries_logged": 0, "reads": 0, "gets": 0}
        env.attach(self)

    # ------------------------------------------------------------------
    def _handle_append(self, sender: NodeId, request: AppendBatchRequest) -> None:
        params = self.env.params
        payload_bytes = sum(len(entry.payload) for entry in request.entries)
        self.env.charge(
            params.request_overhead_seconds
            + params.verify_seconds
            + params.append_seconds_per_op * len(request.entries)
            + params.hash_cost(payload_bytes)
        )
        now = self.env.now()
        batch = None
        for entry in request.entries:
            batch = self.buffer.append(
                entry, now=now, operation_id=request.operation_id, requester=sender
            )
            if batch is not None:
                self._form_block(batch)
        if batch is None and not self.buffer.is_empty:
            # Light load: flush immediately so the client is not left waiting.
            leftover = self.buffer.flush()
            if leftover is not None:
                self._form_block(leftover)

    def _form_block(self, batch) -> None:
        params = self.env.params
        now = self.env.now()
        block_id = self.log.allocate_block_id()
        block = build_block(self.node_id, block_id, batch.log_entries, now)
        self.env.charge(params.block_build_cost(block.num_entries, block.wire_size))
        self.log.append(block)
        self.stats["blocks_formed"] += 1
        self.stats["entries_logged"] += block.num_entries

        page = page_from_block(block)
        if page is not None:
            if self.index.add_level_zero_page(page):
                merges = self.index.compact_all(now)
                merged_records = sum(result.records_in for result in merges)
                self.env.charge(params.merge_seconds_per_entry * merged_records)

        notified = set()
        for item in batch.entries:
            if item.requester is None or item.operation_id is None:
                continue
            key = (item.requester, item.operation_id)
            if key in notified:
                continue
            notified.add(key)
            self.env.send(
                self.node_id,
                item.requester,
                CloudWriteResponse(operation_id=item.operation_id, block_id=block_id),
            )

    def _handle_read(self, sender: NodeId, request: ReadRequest) -> None:
        params = self.env.params
        self.stats["reads"] += 1
        self.env.charge(params.request_overhead_seconds + params.lookup_seconds_per_op)
        record = self.log.try_get(request.block_id)
        self.env.send(
            self.node_id,
            sender,
            CloudReadResponse(
                operation_id=request.operation_id,
                block_id=request.block_id,
                found=record is not None,
                block=record.block if record is not None else None,
            ),
        )

    def _handle_get(self, sender: NodeId, request: GetRequest) -> None:
        params = self.env.params
        self.stats["gets"] += 1
        self.env.charge(params.request_overhead_seconds + params.lookup_seconds_per_op)
        result = self.index.get(request.key)
        self.env.send(
            self.node_id,
            sender,
            CloudGetResponse(
                operation_id=request.operation_id,
                key=request.key,
                found=result.found,
                value=result.record.value if result.found else None,
            ),
        )


class CloudOnlyClient(TableDispatchNode):
    """A client of the cloud-only baseline (no edge node, no verification)."""

    HANDLERS = DispatchTable(
        {
            CloudWriteResponse: "_handle_write_response",
            CloudReadResponse: "_handle_read_response",
            CloudGetResponse: "_handle_get_response",
        }
    )

    def __init__(
        self,
        env: Environment,
        cloud: NodeId,
        config: Optional[SystemConfig] = None,
        name: str = "client-0",
        region: Optional[Region] = None,
    ) -> None:
        self.env = env
        self.config = config if config is not None else SystemConfig.paper_default()
        self.node_id = client_id(name)
        self.region = region if region is not None else self.config.placement.client_region
        self.cloud = cloud
        self.tracker = CommitTracker()
        self._operation_seq = SequenceGenerator()
        self._entry_seq = SequenceGenerator()
        self.stats = {"writes_issued": 0, "reads_issued": 0, "gets_issued": 0}
        env.attach(self)

    # ------------------------------------------------------------------
    def put_batch(self, items: Iterable[tuple[str, bytes]]) -> OperationId:
        payloads = [encode_put(key, value) for key, value in items]
        return self._append(payloads, OperationKind.PUT)

    def add_batch(self, payloads: Sequence[bytes]) -> OperationId:
        return self._append(list(payloads), OperationKind.ADD)

    def get(self, key: str) -> OperationId:
        now = self.env.now()
        operation_id = self._next_operation_id()
        self.tracker.register(operation_id, OperationKind.GET, now, key=key)
        self.stats["gets_issued"] += 1
        self.env.send(
            self.node_id,
            self.cloud,
            GetRequest(requester=self.node_id, operation_id=operation_id, key=key),
        )
        return operation_id

    def read(self, block_id: BlockId) -> OperationId:
        now = self.env.now()
        operation_id = self._next_operation_id()
        self.tracker.register(operation_id, OperationKind.READ, now, block_id=block_id)
        self.stats["reads_issued"] += 1
        self.env.send(
            self.node_id,
            self.cloud,
            ReadRequest(
                requester=self.node_id, operation_id=operation_id, block_id=block_id
            ),
        )
        return operation_id

    def _append(self, payloads: list[bytes], kind: OperationKind) -> OperationId:
        now = self.env.now()
        operation_id = self._next_operation_id()
        entries = tuple(
            make_entry(
                registry=self.env.registry,
                producer=self.node_id,
                sequence=self._entry_seq.next(),
                payload=payload,
                produced_at=now,
            )
            for payload in payloads
        )
        self.tracker.register(operation_id, kind, now, num_entries=len(entries))
        self.stats["writes_issued"] += 1
        self.env.send(
            self.node_id,
            self.cloud,
            AppendBatchRequest(
                requester=self.node_id,
                operation_id=operation_id,
                kind=kind,
                entries=entries,
            ),
        )
        return operation_id

    def _next_operation_id(self) -> OperationId:
        return OperationId(client=self.node_id, sequence=self._operation_seq.next())

    # ------------------------------------------------------------------
    def _handle_write_response(
        self, sender: NodeId, message: CloudWriteResponse
    ) -> None:
        if message.operation_id not in self.tracker:
            return
        now = self.env.now()
        self.tracker.mark_phase_one(
            message.operation_id, now, block_id=message.block_id
        )
        self.tracker.mark_phase_two(message.operation_id, now)

    def _handle_read_response(self, sender: NodeId, message: CloudReadResponse) -> None:
        if message.operation_id not in self.tracker:
            return
        now = self.env.now()
        record = self.tracker.get(message.operation_id)
        record.details["found"] = message.found
        if message.block is not None:
            record.details["num_entries"] = message.block.num_entries
        if message.found:
            self.tracker.mark_phase_one(
                message.operation_id, now, block_id=message.block_id
            )
            self.tracker.mark_phase_two(message.operation_id, now)
        else:
            self.tracker.mark_failed(message.operation_id, now, "not found")

    def _handle_get_response(self, sender: NodeId, message: CloudGetResponse) -> None:
        if message.operation_id not in self.tracker:
            return
        now = self.env.now()
        record = self.tracker.get(message.operation_id)
        record.details["found"] = message.found
        record.details["value"] = message.value
        self.tracker.mark_phase_one(message.operation_id, now)
        self.tracker.mark_phase_two(message.operation_id, now)

    def value_of(self, operation_id: OperationId) -> Optional[bytes]:
        return self.tracker.get(operation_id).details.get("value")


class CloudOnlySystem:
    """Deployment facade for the cloud-only baseline."""

    name = "cloud-only"

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        cloud: CloudStoreNode,
        clients: Sequence[CloudOnlyClient],
    ) -> None:
        self.env = env
        self.config = config
        self.cloud = cloud
        self.clients = list(clients)

    @classmethod
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        num_clients: int = 1,
        env: Optional[Environment] = None,
        topology: Optional[Topology] = None,
        params: Optional[SimulationParameters] = None,
        seed: int = 7,
    ) -> "CloudOnlySystem":
        config = config if config is not None else SystemConfig.paper_default()
        if num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if env is None:
            env = Environment(
                topology=topology,
                params=params,
                signature_scheme=config.security.signature_scheme,
                seed=seed,
            )
        cloud = CloudStoreNode(env=env, config=config)
        clients = [
            CloudOnlyClient(
                env=env,
                cloud=cloud.node_id,
                config=config,
                name=f"client-{index}",
                region=config.placement.client_region,
            )
            for index in range(num_clients)
        ]
        return cls(env=env, config=config, cloud=cloud, clients=clients)

    # ------------------------------------------------------------------
    def client(self, index: int = 0) -> CloudOnlyClient:
        return self.clients[index]

    def trackers(self) -> list[CommitTracker]:
        return [client.tracker for client in self.clients]

    def run(self, max_events: Optional[int] = None) -> int:
        return self.env.run(max_events)

    def run_for(self, duration_s: float) -> int:
        return self.env.run_until(self.env.now() + duration_s)

    def wait_for_all(
        self,
        operations: Iterable[tuple[CloudOnlyClient, OperationId]],
        phase: CommitPhase = CommitPhase.PHASE_TWO,
        max_time_s: float = 300.0,
    ) -> bool:
        pairs = list(operations)

        def done() -> bool:
            for client, operation_id in pairs:
                current = client.tracker.get(operation_id).phase
                if current not in (CommitPhase.PHASE_TWO, CommitPhase.FAILED):
                    return False
            return True

        return self.env.run_until_condition(done, self.env.now() + max_time_s)
