"""Edge-side bookkeeping for lazy (asynchronous) certification.

After Phase I committing a block locally, the edge node asks the cloud to
certify the block's digest in the background.  The :class:`LazyCertifier`
tracks which blocks still await certification, which clients must be
forwarded the block proof once it arrives (both writers of the block and
readers served under Phase I), and which certification requests have been
outstanding long enough to warrant a retry.

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
back to their batch through the block ids they certify), certificates are
absorbed out of order, and an overdue batch is retried *selectively* — only
the lost batch is re-sent, never the whole overdue set.  The certifier is
pure bookkeeping: ``EdgeNode._pump_certify_pipeline`` is what signs, sends
and retries, on the simulated and the live substrate alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..common.errors import ProtocolError
from ..common.identifiers import BlockId, NodeId, OperationId
from ..log.proofs import AnyBlockProof

#: Overdue horizon: either a flat timeout in seconds or a schedule mapping
#: the retries already sent to the timeout guarding the next one (the shape
#: :meth:`repro.faults.retry.RetryPolicy.timeout_for` provides, giving
#: per-batch exponential backoff without the certifier knowing the policy).
TimeoutSpec = Union[float, Callable[[int], float]]


def _timeout_value(timeout_s: TimeoutSpec, retries: int) -> float:
    return timeout_s(retries) if callable(timeout_s) else timeout_s


@dataclass
class CertificationTask:
    """One block awaiting (or having completed) cloud certification."""

    block_id: BlockId
    block_digest: str
    requested_at: float
    #: (client, operation) pairs to notify when the proof arrives.
    subscribers: list[tuple[NodeId, OperationId]] = field(default_factory=list)
    proof: Optional[AnyBlockProof] = None
    retries: int = 0

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
    dispatched_at: float
    retries: int = 0
    #: Members still awaiting certification; the batch retires when empty.
    remaining: set[BlockId] = field(default_factory=set)


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
    def track(self, block_id: BlockId, block_digest: str, requested_at: float) -> CertificationTask:
        if block_id in self._tasks:
            raise ProtocolError(f"block {block_id} already tracked for certification")
        task = CertificationTask(
            block_id=block_id, block_digest=block_digest, requested_at=requested_at
        )
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

    def queued_for_dispatch(self, block_id: BlockId) -> bool:
        """Whether a block's digest is still waiting for its batch to ship.

        Such a block has never actually been requested from the cloud, so
        retry logic must not treat it as an unanswered request — the batch
        flush (timer- or size-triggered) covers it.
        """

        return block_id in self._dispatch_queue

    # ------------------------------------------------------------------
    # Windowed (pipelined) dispatch
    # ------------------------------------------------------------------
    def begin_batch(
        self, block_ids: "list[BlockId] | tuple[BlockId, ...]", now: float
    ) -> InFlightBatch:
        """Register a dispatched batch request as in flight.

        Every block must be tracked, uncertified, and not already carried by
        another in-flight batch (a selective retry re-sends the *same* batch
        through :meth:`record_batch_retry` instead).  Members' request
        timestamps move to the dispatch time — the overdue clock measures
        from when the request actually left, not from block formation.
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
            task.requested_at = now
            members.append(block_id)
        if not members:
            raise ProtocolError("cannot dispatch an empty certify batch")
        batch = InFlightBatch(
            batch_id=self._next_batch_id,
            block_ids=tuple(members),
            dispatched_at=now,
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
        now: float,
        allow_partial: bool = False,
    ) -> list[tuple[CertificationTask, ...]]:
        """Pull dispatchable batches off the queue while the window has room.

        The window-pump policy of ``EdgeNode._pump_certify_pipeline``, the
        one driver of windowed certification on both substrates: full
        ``batch_size`` chunks ship while ``in_flight_count < depth``; a
        trailing partial batch ships only when *allow_partial* (timeout
        flushes and drains).  Every returned group is already registered in
        flight via :meth:`begin_batch`; the caller only builds and sends the
        requests.
        """

        groups: list[tuple[CertificationTask, ...]] = []
        while self.pending_dispatch_count and self.in_flight_count < depth:
            if not allow_partial and self.pending_dispatch_count < batch_size:
                break
            tasks = self.drain_dispatch_queue(max_items=batch_size)
            if not tasks:
                continue  # drained slice was fully certified already
            self.begin_batch([task.block_id for task in tasks], now)
            groups.append(tasks)
        return groups

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

    def overdue_batches(
        self, now: float, timeout_s: TimeoutSpec
    ) -> tuple[InFlightBatch, ...]:
        """In-flight batches unanswered longer than *timeout_s* (oldest id
        first) — the selective-retry unit under pipelining.

        *timeout_s* may be a retry-count-indexed schedule (see
        :data:`TimeoutSpec`), in which case an already-retried batch waits
        out its backoff step before going overdue again.
        """

        return tuple(
            self._in_flight[batch_id]
            for batch_id in sorted(self._in_flight)
            if now - self._in_flight[batch_id].dispatched_at
            > _timeout_value(timeout_s, self._in_flight[batch_id].retries)
        )

    def record_batch_retry(
        self, batch_id: int, now: float
    ) -> tuple[CertificationTask, ...]:
        """Note that one lost batch was re-sent; returns the tasks re-sent.

        Resets the batch's overdue clock and the member tasks' request
        timestamps (so the per-task overdue scan does not double-retry
        them), and bumps both retry counters.
        """

        batch = self._in_flight.get(batch_id)
        if batch is None:
            raise ProtocolError(f"batch {batch_id} is not in flight")
        batch.retries += 1
        batch.dispatched_at = now
        tasks = []
        for block_id in batch.block_ids:
            task = self._tasks[block_id]
            if task.is_certified:
                continue
            task.retries += 1
            task.requested_at = now
            tasks.append(task)
        return tuple(tasks)

    def reset_window(self) -> tuple[BlockId, ...]:
        """Forget every dispatch-queue entry and in-flight batch.

        This is the crash model: the pipeline window and the pending batch
        queue are volatile memory, wiped when the edge goes down, while the
        tasks (mirroring the durable log's uncertified blocks, proofs
        included) survive.  On restart the overdue scan sees the survivors
        as never-dispatched and re-sends them.  Returns the block ids whose
        in-flight requests were forgotten.
        """

        dropped = tuple(sorted(self._block_batch))
        self._in_flight.clear()
        self._block_batch.clear()
        self._dispatch_queue.clear()
        return dropped

    def abandon_in_flight(self, block_id: BlockId) -> None:
        """Drop a block from its in-flight batch without certifying it.

        Called when the cloud definitively refused the block (a
        :class:`CertifyRejection`): the batch must not occupy a window slot
        forever waiting for a certificate that will never come.
        """

        batch_id = self._block_batch.pop(block_id, None)
        if batch_id is None:
            return
        batch = self._in_flight.get(batch_id)
        if batch is None:
            return
        batch.remaining.discard(block_id)
        if not batch.remaining:
            del self._in_flight[batch_id]
            self._retired_batch_count += 1

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
            batch_id = self._block_batch.pop(proof.block_id, None)
            if batch_id is not None:
                batch = self._in_flight[batch_id]
                batch.remaining.discard(proof.block_id)
                if not batch.remaining:
                    del self._in_flight[batch_id]
                    self._retired_batch_count += 1
        subscribers = list(task.subscribers)
        task.subscribers = []
        return subscribers

    # ------------------------------------------------------------------
    # Retry
    # ------------------------------------------------------------------
    def record_retry(self, block_id: BlockId, now: float) -> CertificationTask:
        """Note that the certification request for a block was re-sent.

        Bumps the task's retry counter and resets its request timestamp so
        :meth:`overdue` measures from the latest attempt.
        """

        task = self._tasks.get(block_id)
        if task is None:
            raise ProtocolError(f"block {block_id} is not tracked for certification")
        if task.is_certified:
            raise ProtocolError(f"block {block_id} is already certified")
        task.retries += 1
        task.requested_at = now
        return task

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

    def overdue(
        self, now: float, timeout_s: TimeoutSpec
    ) -> tuple[CertificationTask, ...]:
        """Tasks whose certification has been pending longer than *timeout_s*
        (flat, or a retry-count-indexed backoff schedule)."""

        return tuple(
            task
            for task in self._tasks.values()
            if not task.is_certified
            and now - task.requested_at > _timeout_value(timeout_s, task.retries)
        )
