"""Workload generation and the closed-/open-loop load driver for the evaluation."""

from .arrivals import (
    ArrivalProcess,
    MAPArrivalProcess,
    PoissonArrivalProcess,
    TraceArrivalProcess,
)
from .driver import (
    LoadDriver,
    LoadResult,
    OpenLoopSpec,
    ScheduledRequest,
    build_request_schedule,
)
from .generator import (
    KeySpace,
    KeyValueWorkload,
    Operation,
    ReadOp,
    WriteOp,
    format_key,
)

__all__ = [
    "ArrivalProcess",
    "KeySpace",
    "KeyValueWorkload",
    "LoadDriver",
    "LoadResult",
    "MAPArrivalProcess",
    "OpenLoopSpec",
    "Operation",
    "PoissonArrivalProcess",
    "ReadOp",
    "ScheduledRequest",
    "TraceArrivalProcess",
    "WriteOp",
    "build_request_schedule",
    "format_key",
]
