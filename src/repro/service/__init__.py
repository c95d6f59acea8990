"""Wall-clock asyncio service harness.

The second implementation of the :mod:`repro.transport` boundary: the same
node code that runs under the discrete-event simulator runs here as asyncio
tasks, exchanging the same canonical-encoded protocol messages as
length-prefixed frames over real TCP or unix-domain sockets.
Nothing new is signed or encoded — the wire format *is* the
:mod:`repro.storage.codec` record format, so every receipt, certificate,
and proof produced live verifies exactly as its simulated twin does.

Layers:

* :mod:`repro.service.framing` — length-prefixed frames around codec records,
  and :class:`FrameReceiver`, which reads each one off a socket;
* :mod:`repro.service.transport` — :class:`AsyncioTransport`, sockets +
  per-link FIFO writer pumps, a :class:`repro.transport.BaseTransport`;
* :mod:`repro.service.runtime` — :class:`LiveEnvironment`, the wall-clock
  :class:`repro.transport.BaseRuntime` (timers on the event loop, per-node
  FIFO inboxes reproducing the simulator's single-server handling);
* :mod:`repro.service.harness` — :class:`LiveFleet`, cloud + edges +
  clients wired like :class:`repro.core.system.WedgeChainSystem` but live.
"""

from .framing import FrameError, FrameReceiver, MAX_FRAME_BYTES, encode_frame
from .harness import LiveFleet, LiveFleetStats
from .runtime import LiveEnvironment, LiveTimerHandle
from .transport import AsyncioTransport

__all__ = [
    "AsyncioTransport",
    "FrameError",
    "FrameReceiver",
    "LiveEnvironment",
    "LiveFleet",
    "LiveFleetStats",
    "LiveTimerHandle",
    "MAX_FRAME_BYTES",
    "encode_frame",
]
