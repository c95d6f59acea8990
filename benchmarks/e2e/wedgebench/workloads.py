"""Dispatch: a workload name to its untraced or traced run."""

from __future__ import annotations

from .live import LiveDriver
from .replay import replay
from .sim import SimDriver
from .tracing import Tracer


def _driver(args, run_dir: str, seconds: float, tracer=None, **extra):
    if args.workload == "sim_mixed":
        return SimDriver(args.seed, seconds, args.scale, tracer=tracer, **extra)
    return LiveDriver(
        args.workload, args.seed, seconds, args.scale, run_dir, tracer=tracer, **extra
    )


def run_untraced(args, run_dir: str):
    """End-to-end metrics of one workload (without ``peak_rss_mb``)."""

    result = _driver(args, run_dir, args.seconds).run()
    return result.end_to_end(), result.notes(), result


def run_traced(args, run_dir: str, trace_out: str):
    """Per-layer metrics: half the budget untraced for reference, half traced.

    Both halves run the same seeded requests on a fresh fleet with one
    set-up; the ratio of their rates is the tracing overhead.
    """

    half = args.seconds / 2.0
    reference = _driver(args, run_dir, half, setups=1).run()
    tracer = Tracer(args.seed)
    driver = _driver(args, run_dir, half, tracer=tracer, setups=1)
    traced = driver.run()

    tracer.write(
        trace_out, {"workload": args.workload, "seed": args.seed, "seconds": half}
    )
    tracer.rebase(driver.clock.at)
    metrics = tracer.layer_metrics()
    metrics.update(replay(tracer.samples, driver.system, args.seed))
    ops = max(traced.window_ops(), 1)
    merges = tracer.count("nodes.cloud.on_message.MergeRequest")
    metrics.update(
        {
            "nodes.merges_per_kput": 1000.0 * merges / max(traced.put_records_total(), 1),
            "service.frames_per_op": traced.window_frames / ops,
            "service.frame_bytes_per_op": traced.window_frame_bytes / ops,
            "nodes.msgs_per_op": traced.window_messages / ops,
            "sim.events_per_s": traced.window_events * traced.window_rate() / ops,
            "trace.overhead_frac": 1.0 - traced.window_rate() / reference.window_rate(),
        }
    )

    notes = [
        f"untraced reference: {reference.window_rate():.1f} ops/s; "
        f"traced: {traced.window_rate():.1f} ops/s over {traced.window_s:.3f} s of wall time",
        driver.clock.summary(),
        f"{len(tracer.spans)} spans written to {trace_out}",
    ]
    if args.workload != "sim_mixed":
        for kind in ("put", "get"):
            if traced.of(kind, "window"):
                notes.extend(tracer.reconcile(kind))
    notes.append("messages sent (count, modelled bytes):")
    for kind, (count, size) in sorted(tracer.traffic.items()):
        notes.append(f"    {kind:<24}{count:>8}{size:>14}")
    if reference.failed:
        traced.errors.append("the untraced reference half failed its checks")
        traced.errors.extend(reference.errors)
    return metrics, notes, traced
