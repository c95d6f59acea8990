"""What the benchmark declares: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is the output of
``python benchmarks/e2e/run.py --spec``; the smoke test fails when the
two drift apart.  Everything a later PR is judged against is in this
file, so a change here is a change of the benchmark, never part of a
performance claim.
"""

from __future__ import annotations

#: Seconds one run's measured window lasts (``--seconds`` default).
RUN_SECONDS = 12

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: (name, why).  The "why" says which layers do the work and which
#: optimisation the workload must *not* respond to.
WORKLOADS = (
    (
        "live_put",
        "1 edge, closed-loop 100-record put batches over sockets: framing, "
        "codec, block digest and merges do the work, read proofs none",
    ),
    (
        "live_get",
        "same fleet, single-key verified gets only: no block forms and no "
        "merge runs in the window, so put-path and merge changes must not move it",
    ),
    (
        "live_mixed",
        "2 edges and 2 clients, puts and gets 50/50 on one shared loop: "
        "shows a read gain that costs writes, or the reverse",
    ),
    (
        "sim_mixed",
        "same node code on the discrete-event substrate, no framing, codec "
        "decode or asyncio: a serialization change must leave it flat",
    ),
)

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which a later PR may worsen the metric.  Each is three times
#: the widest run-to-run spread (inter-quartile distance over median, ten
#: runs, ten seeds) the metric showed on any workload — see README
#: section 5 — capped at the 25 % the driver allows.  The latencies share
#: the cap (five of six reach it), and ``setup_s``, which must have the
#: largest bound, has it outright.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("put_p1_p50_ms", "ms", "lower", 0.25),
    ("put_p1_p90_ms", "ms", "lower", 0.25),
    ("put_p2_p50_ms", "ms", "lower", 0.25),
    ("get_p50_ms", "ms", "lower", 0.25),
    ("get_p90_ms", "ms", "lower", 0.25),
    ("puts_per_s", "1/s", "higher", 0.22),
    ("gets_per_s", "1/s", "higher", 0.22),
    ("wire_bytes_per_op", "B", "lower", 0.03),
    ("wan_bytes_per_put", "B", "lower", 0.03),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  Traced run only; no bounds.
PER_LAYER = (
    ("nodes.client.put_issue_ms", "ms", "lower"),
    ("nodes.client.receipt_ms", "ms", "lower"),
    ("nodes.edge.append_ms", "ms", "lower"),
    ("nodes.edge.get_ms", "ms", "lower"),
    ("nodes.client.get_verify_ms", "ms", "lower"),
    ("lsmerkle.build_proof_us", "us", "lower"),
    ("lsmerkle.verify_proof_us", "us", "lower"),
    ("nodes.cloud.certify_ms", "ms", "lower"),
    ("core.verify_block_proof_us", "us", "lower"),
    ("nodes.edge.cert_absorb_ms", "ms", "lower"),
    ("nodes.cloud.merge_ms", "ms", "lower"),
    ("nodes.edge.merge_ms", "ms", "lower"),
    ("nodes.merges_per_kput", "count", "lower"),
    ("lsmerkle.merge_us_per_record", "us", "lower"),
    ("lsm.build_page_us_per_record", "us", "lower"),
    ("merkle.root_us_per_leaf", "us", "lower"),
    ("merkle.prove_us", "us", "lower"),
    ("service.framing.encode_us_per_kb", "us/KB", "lower"),
    ("service.framing.decode_us_per_kb", "us/KB", "lower"),
    ("storage.codec.encode_us_per_kb", "us/KB", "lower"),
    ("storage.codec.decode_us_per_kb", "us/KB", "lower"),
    ("service.send_ms_per_msg", "ms", "lower"),
    ("service.frames_per_op", "count", "lower"),
    ("service.frame_bytes_per_op", "B", "lower"),
    ("common.encoding.canonical_us_per_kb", "us/KB", "lower"),
    ("log.block_digest_us", "us", "lower"),
    ("log.build_block_us", "us", "lower"),
    ("crypto.digest_value_us_per_kb", "us/KB", "lower"),
    ("crypto.hmac.sign_us", "us", "lower"),
    ("crypto.hmac.verify_us", "us", "lower"),
    ("crypto.schnorr.sign_us", "us", "lower"),
    ("crypto.schnorr.verify_us", "us", "lower"),
    ("service.transit_p50_ms", "ms", "lower"),
    ("service.transit_p90_ms", "ms", "lower"),
    ("service.backlog_max", "count", "lower"),
    ("nodes.client.busy_share", "share", "lower"),
    ("nodes.edge.busy_share", "share", "lower"),
    ("nodes.cloud.busy_share", "share", "lower"),
    ("service.send_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("nodes.msgs_per_op", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "share", "lower"),
)

WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)
END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""

    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
