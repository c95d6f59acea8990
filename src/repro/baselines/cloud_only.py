"""The Cloud-only baseline (Section VI).

All requests are served by the trusted cloud node: clients pay the wide-area
round trip on every operation, but results need no verification because no
untrusted party handled them.  The cloud keeps the log and a plain (trusted,
non-Merkle) LSM index.

The client is a :class:`~repro.nodes.client.Client` without verification
(its ``edge`` is the trusted store) and the deployment is a
:class:`~repro.core.system.WedgeChainSystem` with no edges, so only the
store, the three trusted answers and their handlers live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import SystemConfig
from ..common.identifiers import BlockId, NodeId, OperationId, cloud_id
from ..common.regions import Region
from ..core.system import WedgeChainSystem, simulation_environment
from ..log.block import Block, build_block
from ..log.buffer import BlockBuffer
from ..log.wedge_log import WedgeLog
from ..lsm.lsm_tree import LSMTree
from ..lsmerkle.codec import page_from_block
from ..messages.kv_messages import GetRequest
from ..messages.log_messages import AppendBatchRequest, ReadRequest
from ..nodes.client import Client
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


class CloudOnlyClient(Client):
    """A :class:`~repro.nodes.client.Client` without verification.

    Its ``edge`` is the trusted store, so it issues operations exactly as a
    WedgeChain client does; only the answers differ.  No untrusted party
    handled them, so each one commits both phases the moment it arrives and
    nothing is checked, disputed or charged for verification.
    """

    HANDLERS = DispatchTable(
        {
            CloudWriteResponse: "_handle_write_response",
            CloudReadResponse: "_handle_read_response",
            CloudGetResponse: "_handle_get_response",
        }
    )

    def _commit_on_arrival(
        self, operation_id: OperationId, block_id: Optional[BlockId] = None, **details
    ) -> None:
        if operation_id not in self.tracker:
            return
        now = self.env.now()
        self.tracker.get(operation_id).details.update(details)
        self.tracker.mark_phase_one(operation_id, now, block_id=block_id)
        self.tracker.mark_phase_two(operation_id, now)

    def _handle_write_response(
        self, sender: NodeId, message: CloudWriteResponse
    ) -> None:
        self._commit_on_arrival(message.operation_id, message.block_id)

    def _handle_read_response(self, sender: NodeId, message: CloudReadResponse) -> None:
        if message.found:
            self._commit_on_arrival(
                message.operation_id,
                message.block_id,
                found=True,
                num_entries=message.block.num_entries,
            )
        elif message.operation_id in self.tracker:
            self.tracker.get(message.operation_id).details["found"] = False
            self.tracker.mark_failed(message.operation_id, self.env.now(), "not found")

    def _handle_get_response(self, sender: NodeId, message: CloudGetResponse) -> None:
        self._commit_on_arrival(
            message.operation_id, found=message.found, value=message.value
        )


class CloudOnlySystem(WedgeChainSystem):
    """Deployment facade for the cloud-only baseline: the WedgeChain facade
    over one trusted store, no edges, and :class:`CloudOnlyClient` s."""

    name = "cloud-only"

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
        env = simulation_environment(config, num_clients, env, topology, params, seed)
        cloud = CloudStoreNode(env=env, config=config)
        clients = [
            CloudOnlyClient(
                env=env,
                edge=cloud.node_id,
                cloud=cloud.node_id,
                config=config,
                name=f"client-{index}",
                region=config.placement.client_region,
            )
            for index in range(num_clients)
        ]
        return cls(env=env, config=config, cloud=cloud, edges=[], clients=clients)
