"""Edge-side bookkeeping for lazy (asynchronous) certification.

After Phase I committing a block locally, the edge node asks the cloud to
certify the block's digest in the background.  The :class:`LazyCertifier`
tracks which blocks still await certification and which clients must be
forwarded the block proof once it arrives (both writers of the block and
readers served under Phase I).

Because certification is asynchronous (Section IV-E), nothing on the
client-visible path needs the request to leave immediately: the certifier
also maintains a *dispatch queue* of digests awaiting their batch, so the
edge can amortize one signature over a whole
:class:`~repro.messages.log_messages.CertifyBatchRequest`.

The same asynchrony permits arbitrarily deep certification *pipelines*: the
certifier tracks a window of :class:`InFlightBatch`\\ es — batches whose
request has left the edge but whose
:class:`~repro.log.proofs.BatchCertificate` has not come back yet — so the
edge can keep several WAN round-trips overlapped instead of absorbing one
certificate before the next batch ships.  Batch ids are purely local
bookkeeping (nothing about them is on the wire; certificates are matched
back to their batch through the block ids they certify), and certificates
are absorbed out of order.

Every request that leaves the edge carries one
:class:`~repro.faults.retry.Retransmission` chain, hung on the record it
re-sends: the task of a single-block request, the in-flight batch of a
batched one.  The certifier cancels a chain when its record retires
(:meth:`LazyCertifier.complete`, :meth:`LazyCertifier.abandon_in_flight`,
:meth:`LazyCertifier.reset_window`), so a certified, refused, crashed-away
or retired request leaves no timer behind, and a lost batch is retried
*selectively* — only that batch's still-uncertified members re-ship.  The
certifier is pure bookkeeping: ``EdgeNode._dispatch_certify`` and
``EdgeNode._pump_certify_pipeline`` are what sign, send and arm the chains,
on the simulated and the live substrate alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..common.errors import ProtocolError
from ..common.identifiers import BlockId, NodeId, OperationId
from ..log.proofs import AnyBlockProof

if TYPE_CHECKING:
    from ..faults.retry import Retransmission


def _end_chain(record: "CertificationTask | InFlightBatch") -> None:
    """Cancel and forget the retransmission chain a retiring record holds."""

    if record.retry is not None:
        record.retry.cancel()
        record.retry = None


@dataclass
class CertificationTask:
    """One block awaiting (or having completed) cloud certification."""

    block_id: BlockId
    block_digest: str
    #: (client, operation) pairs to notify when the proof arrives.
    subscribers: list[tuple[NodeId, OperationId]] = field(default_factory=list)
    proof: Optional[AnyBlockProof] = None
    #: Retry chain of this block's single-block request (``None`` while it
    #: rides a batch or has no request outstanding).
    retry: Optional["Retransmission"] = None

    @property
    def is_certified(self) -> bool:
        return self.proof is not None


@dataclass
class InFlightBatch:
    """One dispatched :class:`CertifyBatchRequest` awaiting its certificate.

    ``batch_id`` is local to the issuing edge (never on the wire); the
    certificate is matched back through the block ids it certifies.
    """

    batch_id: int
    block_ids: tuple[BlockId, ...]
    #: Members still awaiting certification; the batch retires when empty.
    remaining: set[BlockId] = field(default_factory=set)
    #: Retry chain re-sending the batch's remaining members.
    retry: Optional["Retransmission"] = None


class LazyCertifier:
    """Tracks asynchronous certification state for one edge node."""

    def __init__(self) -> None:
        self._tasks: dict[BlockId, CertificationTask] = {}
        self._certified_count = 0
        #: Block ids queued for the next batched certify request, in the
        #: order they were formed (the cloud sees them in log order).
        self._dispatch_queue: list[BlockId] = []
        #: Dispatched-but-uncertified batches, by local batch id.
        self._in_flight: dict[int, InFlightBatch] = {}
        #: Uncertified block id -> the in-flight batch carrying it.
        self._block_batch: dict[BlockId, int] = {}
        self._next_batch_id = 0
        self._retired_batch_count = 0

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------
    def track(self, block_id: BlockId, block_digest: str) -> CertificationTask:
        if block_id in self._tasks:
            raise ProtocolError(f"block {block_id} already tracked for certification")
        task = CertificationTask(block_id=block_id, block_digest=block_digest)
        self._tasks[block_id] = task
        return task

    def task(self, block_id: BlockId) -> Optional[CertificationTask]:
        return self._tasks.get(block_id)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._tasks

    def subscribe(
        self, block_id: BlockId, client: NodeId, operation_id: OperationId
    ) -> Optional[AnyBlockProof]:
        """Register a client to be notified of the block's proof.

        Returns the proof immediately if the block is already certified (the
        caller then forwards it right away instead of waiting).
        """

        task = self._tasks.get(block_id)
        if task is None:
            raise ProtocolError(f"block {block_id} is not tracked for certification")
        if task.is_certified:
            return task.proof
        entry = (client, operation_id)
        if entry not in task.subscribers:
            task.subscribers.append(entry)
        return None

    # ------------------------------------------------------------------
    # Batched dispatch
    # ------------------------------------------------------------------
    def enqueue_for_dispatch(self, block_id: BlockId) -> int:
        """Queue a tracked block's digest for the next batched request.

        Returns the queue length after enqueueing; the caller flushes when
        it reaches the configured batch size.
        """

        if block_id not in self._tasks:
            raise ProtocolError(
                f"block {block_id} is not tracked for certification"
            )
        if block_id not in self._dispatch_queue:
            self._dispatch_queue.append(block_id)
        return len(self._dispatch_queue)

    def drain_dispatch_queue(
        self, max_items: Optional[int] = None
    ) -> tuple[CertificationTask, ...]:
        """Remove and return the queued tasks (oldest first, in log order).

        Tasks certified while queued (e.g. by an idempotent retry answered
        through the single-block path) are dropped rather than re-requested.
        """

        if max_items is None or max_items >= len(self._dispatch_queue):
            drained, self._dispatch_queue = self._dispatch_queue, []
        else:
            drained = self._dispatch_queue[:max_items]
            self._dispatch_queue = self._dispatch_queue[max_items:]
        return tuple(
            self._tasks[block_id]
            for block_id in drained
            if not self._tasks[block_id].is_certified
        )

    @property
    def pending_dispatch_count(self) -> int:
        return len(self._dispatch_queue)

    # ------------------------------------------------------------------
    # Windowed (pipelined) dispatch
    # ------------------------------------------------------------------
    def begin_batch(
        self, block_ids: "list[BlockId] | tuple[BlockId, ...]"
    ) -> InFlightBatch:
        """Register a dispatched batch request as in flight.

        Every block must be tracked, uncertified, and not already carried by
        another in-flight batch (a retry re-sends the *same* batch, see
        :meth:`awaiting`).
        """

        members: list[BlockId] = []
        for block_id in block_ids:
            task = self._tasks.get(block_id)
            if task is None:
                raise ProtocolError(
                    f"block {block_id} is not tracked for certification"
                )
            if task.is_certified:
                continue
            if block_id in self._block_batch:
                raise ProtocolError(
                    f"block {block_id} is already carried by in-flight batch "
                    f"{self._block_batch[block_id]}"
                )
            members.append(block_id)
        if not members:
            raise ProtocolError("cannot dispatch an empty certify batch")
        batch = InFlightBatch(
            batch_id=self._next_batch_id,
            block_ids=tuple(members),
            remaining=set(members),
        )
        self._next_batch_id += 1
        self._in_flight[batch.batch_id] = batch
        for block_id in members:
            self._block_batch[block_id] = batch.batch_id
        return batch

    def drain_window_groups(
        self,
        depth: int,
        batch_size: int,
        allow_partial: bool = False,
    ) -> list[InFlightBatch]:
        """Pull dispatchable batches off the queue while the window has room.

        The window-pump policy of ``EdgeNode._pump_certify_pipeline``, the
        one driver of windowed certification on both substrates: full
        ``batch_size`` chunks ship while ``in_flight_count < depth``; a
        trailing partial batch ships only when *allow_partial* (timeout
        flushes and drains).  Every returned batch is already registered in
        flight via :meth:`begin_batch`; the caller only builds and sends the
        requests (and arms their retry chains).
        """

        batches: list[InFlightBatch] = []
        while self.pending_dispatch_count and self.in_flight_count < depth:
            if not allow_partial and self.pending_dispatch_count < batch_size:
                break
            tasks = self.drain_dispatch_queue(max_items=batch_size)
            if not tasks:
                continue  # drained slice was fully certified already
            batches.append(self.begin_batch([task.block_id for task in tasks]))
        return batches

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    @property
    def retired_batch_count(self) -> int:
        return self._retired_batch_count

    def in_flight_batches(self) -> tuple[InFlightBatch, ...]:
        return tuple(
            self._in_flight[batch_id] for batch_id in sorted(self._in_flight)
        )

    def in_flight(self, block_id: BlockId) -> bool:
        """Whether the block's request is riding an in-flight batch."""

        return block_id in self._block_batch

    def awaiting(self, batch: InFlightBatch) -> tuple[CertificationTask, ...]:
        """The batch's members still owed a certificate, in batch order:
        exactly what a retry of that batch re-sends."""

        return tuple(
            self._tasks[block_id]
            for block_id in batch.block_ids
            if block_id in batch.remaining
        )

    def _leave_batch(self, block_id: BlockId) -> None:
        """Take a block out of its in-flight batch; retire the batch (and
        cancel its retry chain) once no member is left."""

        batch_id = self._block_batch.pop(block_id, None)
        if batch_id is None:
            return
        batch = self._in_flight[batch_id]
        batch.remaining.discard(block_id)
        if not batch.remaining:
            _end_chain(batch)
            del self._in_flight[batch_id]
            self._retired_batch_count += 1

    def reset_window(self) -> tuple[BlockId, ...]:
        """Forget every dispatch-queue entry and in-flight batch.

        This is the crash model: the pipeline window and the pending batch
        queue are volatile memory, wiped when the edge goes down, while the
        tasks (mirroring the durable log's uncertified blocks, proofs
        included) survive.  Every retry chain dies with the window; restart
        re-dispatches the survivors through the ordinary send path.  A
        retired partition ends its chains the same way.  Returns the block
        ids whose in-flight requests were forgotten.
        """

        dropped = tuple(sorted(self._block_batch))
        for record in (*self._in_flight.values(), *self._tasks.values()):
            _end_chain(record)
        self._in_flight.clear()
        self._block_batch.clear()
        self._dispatch_queue.clear()
        return dropped

    def abandon_in_flight(self, block_id: BlockId) -> None:
        """Drop a block from its in-flight batch without certifying it.

        Called when the cloud definitively refused the block (a
        :class:`CertifyRejection`): the batch must not occupy a window slot
        forever waiting for a certificate that will never come, and no retry
        may re-send the refused digest.
        """

        task = self._tasks.get(block_id)
        if task is not None:
            _end_chain(task)
        self._leave_batch(block_id)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(self, proof: AnyBlockProof) -> list[tuple[NodeId, OperationId]]:
        """Record an arrived proof; returns the subscribers to notify.

        Certificates may arrive out of order and duplicated (retries race
        their original answers): the first proof wins, later duplicates are
        absorbed idempotently, and the block's in-flight batch retires once
        its last member is certified.
        """

        task = self._tasks.get(proof.block_id)
        if task is None:
            raise ProtocolError(
                f"received proof for untracked block {proof.block_id}"
            )
        if task.block_digest != proof.block_digest:
            raise ProtocolError(
                f"proof digest for block {proof.block_id} does not match the "
                "digest sent for certification"
            )
        first_time = not task.is_certified
        task.proof = proof
        if first_time:
            self._certified_count += 1
            _end_chain(task)
            self._leave_batch(proof.block_id)
        subscribers = list(task.subscribers)
        task.subscribers = []
        return subscribers

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def certified_count(self) -> int:
        return self._certified_count

    @property
    def tracked_count(self) -> int:
        return len(self._tasks)

    def outstanding(self) -> tuple[CertificationTask, ...]:
        return tuple(
            task for task in self._tasks.values() if not task.is_certified
        )
