"""The shared retry/backoff policy behind every retransmission timer.

:class:`RetryPolicy` is capped exponential backoff with optional seeded
jitter and an optional attempt budget.  :class:`Retransmission` is the one
timer chain that walks a policy for every step that re-sends a stored
request: certify requests (one chain per single-block request or per
in-flight batch), handoff offers and transfers, and 2PC decisions.

The policy itself is *clockless* — it maps an attempt number to a delay;
the chain arms each delay on its environment's own ``schedule``: simulated
time in the simulator, the asyncio loop's monotonic clock in the live
service — never ``time.time()``, so a system-clock step cannot
mass-trigger or suppress retries.

Jitter draws come from an explicitly seeded
:class:`~repro.sim.rng.DeterministicRng`, so a jittered schedule is exactly
reproducible under a fixed seed.  No policy in the code base uses jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from ..common.errors import ConfigurationError
from ..sim.rng import DeterministicRng


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with bounded attempts and seeded jitter.

    ``base_s`` is the delay before the first retry; each further retry
    multiplies it by ``factor`` up to ``cap_s``.  ``max_attempts`` bounds how
    many retries are sent in total (``None`` = unbounded).  With
    ``factor=1.0`` the policy degenerates to the fixed-interval schedules it
    replaced, which is exactly how the behavior-preserving defaults are
    built.
    """

    base_s: float
    factor: float = 2.0
    cap_s: Optional[float] = None
    max_attempts: Optional[int] = None
    jitter_fraction: float = 0.0
    rng: Optional[DeterministicRng] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ConfigurationError("retry base delay must be positive")
        if self.factor < 1.0:
            raise ConfigurationError("retry factor must be >= 1 (backoff never shrinks)")
        if self.cap_s is not None and self.cap_s < self.base_s:
            raise ConfigurationError("retry cap must be >= the base delay")
        if self.max_attempts is not None and self.max_attempts < 0:
            raise ConfigurationError("max_attempts must be non-negative")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")
        if self.jitter_fraction > 0 and self.rng is None:
            raise ConfigurationError("jittered policies need a seeded rng")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def constant(
        cls, interval_s: float, max_attempts: Optional[int] = None
    ) -> "RetryPolicy":
        """A fixed-interval schedule (the pre-unification behavior)."""

        return cls(base_s=interval_s, factor=1.0, max_attempts=max_attempts)

    # ------------------------------------------------------------------
    # The schedule
    # ------------------------------------------------------------------
    def allows(self, attempt: int) -> bool:
        """Whether the *attempt*-th retry (1-based) is within the budget."""

        return self.max_attempts is None or attempt <= self.max_attempts

    def delay(self, attempt: int) -> float:
        """Delay before the *attempt*-th retry (1-based), capped and jittered."""

        if attempt < 1:
            raise ConfigurationError("retry attempts are numbered from 1")
        raw = self.base_s * (self.factor ** (attempt - 1))
        if self.cap_s is not None:
            raw = min(raw, self.cap_s)
        if self.jitter_fraction > 0 and self.rng is not None:
            raw = self.rng.jitter(raw, self.jitter_fraction)
        return raw


class Retransmission:
    """One retransmission chain: re-send on *policy*'s schedule until told to stop.

    Arms ``policy.delay(1)`` on *schedule* (an environment's own
    ``schedule``, simulated or wall-clock); when the timer fires,
    ``resend()`` re-ships the message and returns whether to keep going —
    ``False`` once the step completed or was superseded.  The chain also
    ends on :meth:`cancel`, and when the policy's attempt budget is spent
    (handoff and 2PC: recovery is then the peer's or an operator's).  A
    policy without a budget — certification's — retries until its record
    retires, so bounding what an unreachable peer costs is ``resend``'s job
    (see ``EdgeNode._resend_single``).

    The chain itself holds only its pending timer; the schedule, policy and
    ``resend`` ride in that timer's callback.  So a node that keeps its
    chains forms no reference cycle through them once the timer is
    cancelled (a stopped live environment cancels every timer).
    """

    def __init__(
        self,
        schedule: Callable[..., Any],
        policy: RetryPolicy,
        resend: Callable[[], bool],
        label: str = "",
    ) -> None:
        self._handle: Optional[Any] = None
        #: The attempt ``resend`` is running for (1 on the first retry).
        self.attempt = 0
        self._arm(1, schedule, policy, resend, label)

    def _arm(self, attempt: int, schedule, policy, resend, label) -> None:
        if policy.allows(attempt):
            fire = partial(self._fire, attempt, schedule, policy, resend, label)
            self._handle = schedule(policy.delay(attempt), fire, label=label)

    def _fire(self, attempt: int, schedule, policy, resend, label) -> None:
        self._handle = None  # an ended chain keeps nothing alive
        self.attempt = attempt
        if resend():
            self._arm(attempt + 1, schedule, policy, resend, label)

    def cancel(self) -> None:
        """End the chain: a pending timer never fires."""

        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
