"""Convictable-invariant checks the chaos suite asserts after every scenario.

Each check inspects only artifacts the paper's trust model treats as
evidence — certified logs, signed decision records, the cloud's punishment
ledger — never transient in-memory protocol state, so a passing check means
the property holds in the auditable record, not merely in this process.

The pass criteria:

* **No lost atomicity** (:func:`assert_no_lost_atomicity`): scanning every
  edge's logs (live partitions *and* records archived by shard handoffs)
  for 2PC decision records, no transaction has both a COMMIT and an ABORT
  applied anywhere in the fleet.
* **Eventual full certification** (:func:`assert_full_certification`):
  once faults heal and retries drain, every block in every log carries a
  cloud proof — lazy certification catches up completely.
* **Every planted fault convicted** (:func:`assert_convicted`): each edge
  the scenario made misbehave is punished in the cloud's ledger, and
  (:func:`assert_no_false_convictions`) no honest edge is.
* **An honest edge is never accused** (:func:`assert_no_honest_disputes`):
  lazy trust's other half — no client files a ``DisputeRequest`` unless
  an edge that served it ends up convicted.

:func:`assert_monotone` is the recovery-shape helper: sampled progress
series (certified counts, committed transactions) must never move
backwards through crash, partition, and heal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..common.identifiers import NodeId


class InvariantViolation(AssertionError):
    """A chaos-scenario invariant failed; the message names the evidence."""


def _iter_partition_records(edge) -> Iterable:
    for state in edge._partition_states():
        yield from state.log
    # Shard handoffs archive the source's records; decisions recorded there
    # still count toward fleet-wide atomicity.
    archived = getattr(edge, "_archived_records", None)
    if archived:
        for block_id in sorted(archived):
            yield archived[block_id]


def txn_decisions(edges: Sequence) -> Dict[Tuple[str, int], List[Tuple[str, str]]]:
    """All 2PC decision records across the fleet's certified logs.

    Returns ``{(coordinator, sequence): [(edge, decision), ...]}``.
    """

    # Function-level: ``nodes.edge`` imports ``faults.retry``, so this package
    # must load without ``sharding`` (whose edge subclasses ``nodes.edge``)
    # whichever is imported first.
    from ..sharding.transactions import decode_txn_decision, is_txn_decision_payload

    decisions: Dict[Tuple[str, int], List[Tuple[str, str]]] = {}
    for edge in edges:
        for record in _iter_partition_records(edge):
            for entry in record.block.entries:
                if not is_txn_decision_payload(entry.payload):
                    continue
                decision, coordinator, sequence, _reason = decode_txn_decision(
                    entry.payload
                )
                decisions.setdefault((coordinator, sequence), []).append(
                    (str(edge.node_id), decision)
                )
    return decisions


def assert_no_lost_atomicity(edges: Sequence) -> Dict[Tuple[str, int], List[Tuple[str, str]]]:
    """No transaction committed on one shard and aborted on another."""

    decisions = txn_decisions(edges)
    for txn_key, applied in decisions.items():
        outcomes = {decision for _edge, decision in applied}
        if len(outcomes) > 1:
            raise InvariantViolation(
                f"transaction {txn_key} lost atomicity: decisions {applied}"
            )
    return decisions


def assert_full_certification(edges: Sequence) -> int:
    """Every block of every (live) partition log is certified; returns the
    total number of certified blocks as a sanity count."""

    total = 0
    for edge in edges:
        for state in edge._partition_states():
            if getattr(state, "quarantined", None) is not None:
                # A quarantined partition serves nothing — "fully
                # certified" is unprovable there, and a scenario that did
                # not expect the quarantine must fail loudly, not skip it.
                raise InvariantViolation(
                    f"{edge.node_id} partition shard={state.shard_id} is "
                    f"quarantined: {state.quarantined}"
                )
            missing = state.log.uncertified_block_ids()
            if missing:
                raise InvariantViolation(
                    f"{edge.node_id} partition shard={state.shard_id} has "
                    f"uncertified blocks {missing} after faults healed"
                )
            total += len(state.log)
    return total


def assert_convicted(cloud, guilty: Iterable[NodeId]) -> None:
    """Each planted misbehaving edge appears in the punishment ledger."""

    for edge_id in guilty:
        if not cloud.ledger.is_punished(edge_id):
            raise InvariantViolation(
                f"planted misbehavior by {edge_id} was never convicted"
            )


def assert_no_false_convictions(cloud, honest: Iterable[NodeId]) -> None:
    """Faults alone (drops, crashes, partitions) must never convict an
    honest edge — convictions require signed contradictory artifacts."""

    for edge_id in honest:
        if cloud.ledger.is_punished(edge_id):
            raise InvariantViolation(
                f"honest edge {edge_id} was convicted during a fault-only run"
            )


def assert_no_honest_disputes(system) -> None:
    """No client disputed unless an edge that served it was convicted.

    Every lie is eventually convicted *and* an honest edge is never
    accused: a dispute with no conviction behind it means the client's
    Phase II wait gave up on (or missed) a certificate that did arrive.
    """

    ledger = system.cloud.ledger
    for client in system.clients:
        if not client.stats["disputes_sent"]:
            continue
        served_by = {
            client._expected_edge(record) for record in client.tracker.records()
        }
        if not any(ledger.is_punished(edge) for edge in served_by):
            raise InvariantViolation(
                f"{client.node_id} sent {client.stats['disputes_sent']} dispute(s) "
                f"against never-convicted edges {sorted(map(str, served_by))}: "
                f"{client.malicious_events}"
            )


def assert_no_quarantines(edges: Sequence) -> None:
    """No partition on any edge refused service after durable recovery.

    Chaos scenarios that crash and restart disk-backed edges *without*
    planting corruption assert this: clean segments and a verified signed
    root must always recover, so a quarantine there is a storage-layer bug,
    not an acceptable outcome.
    """

    for edge in edges:
        reports = getattr(edge, "quarantine_reports", None)
        if reports is None:
            continue
        found = reports()
        if found:
            raise InvariantViolation(
                f"{edge.node_id} quarantined partitions after recovery: {found}"
            )


def assert_replicated_reads_served(
    samples: Sequence[Tuple[float, int, bool]],
    label: str = "replicated reads",
) -> None:
    """Every sampled read probe against a replicated shard was served.

    Chaos scenarios that take down a replicated shard's writer feed this
    the ``(time_s, shard_id, served)`` probe results they collected while
    the fault was live (probes go directly to surviving replica-set
    members, since a request routed at the dead writer just vanishes).
    Replication's promise is that losing any single edge never stops
    reads — one unserved probe falsifies it, and an empty sample set
    means the scenario never actually exercised the promise.
    """

    if not samples:
        raise InvariantViolation(f"{label}: no probes were collected")
    failed = [(when, shard) for (when, shard, served) in samples if not served]
    if failed:
        raise InvariantViolation(
            f"{label}: probes went unserved at (time_s, shard): {failed}"
        )


def assert_monotone(series: Sequence[float], label: str = "progress") -> None:
    """A sampled progress series never decreases (monotone recovery)."""

    for earlier, later in zip(series, series[1:]):
        if later < earlier:
            raise InvariantViolation(
                f"{label} regressed from {earlier} to {later}: series={list(series)}"
            )
