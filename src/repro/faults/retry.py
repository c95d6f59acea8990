"""The shared retry/backoff policy behind every retransmission timer.

Before this module, each subsystem grew its own ad-hoc timer: the edge's
overdue-certification rescan used one flat timeout however often a batch
had already been re-sent, the 2PC coordinator spread its decision retries at
a fixed interval, and the shard-handoff drain had no retransmission at all
(a lost offer or transfer wedged the handoff forever).
:class:`RetryPolicy` unifies them: capped exponential backoff with optional
seeded jitter and a bounded attempt budget.  :class:`Retransmission` is the
one timer chain that walks a policy for the steps that re-send a stored
message (handoff offers and transfers, 2PC decisions).

The policy itself is *clockless* — it maps an attempt number to a delay (or
an already-recorded retry count to the timeout guarding the next attempt);
callers measure elapsed time on their environment's clock.  The simulator
measures on simulated time and the live service on
:class:`~repro.sim.clock.AnchoredWallClock`, which reads ``time.monotonic()``
— never ``time.time()``, so a system-clock step cannot mass-trigger or
suppress retries.

Jitter draws come from an explicitly seeded
:class:`~repro.sim.rng.DeterministicRng`, so a jittered schedule is exactly
reproducible under a fixed seed.  Every default in the code base uses
``jitter_fraction=0`` — the unification is behavior-preserving until a
caller opts into backoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    @classmethod
    def fixed_timeout(cls, timeout_s: float) -> "RetryPolicy":
        """A flat, uncapped, unbounded timeout — the legacy overdue scan."""

        return cls(base_s=timeout_s, factor=1.0)

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

    def timeout_for(self, retries: int) -> float:
        """Overdue horizon guarding the *next* retry after ``retries`` sent.

        This is the shape the certification overdue scan consumes: a task or
        batch already re-sent ``retries`` times is not overdue again until
        the (``retries + 1``)-th backoff step elapses, so an unreachable
        cloud sees exponentially thinning retransmissions instead of one
        flat-interval hammer.
        """

        return self.delay(retries + 1)

    def exhausted(self, retries: int) -> bool:
        """Whether ``retries`` already spent the whole attempt budget."""

        return self.max_attempts is not None and retries >= self.max_attempts


class Retransmission:
    """One retransmission chain: re-send on *policy*'s schedule until told to stop.

    Arms ``policy.delay(1)`` on *schedule* (an environment's own
    ``schedule``, simulated or wall-clock); when the timer fires,
    ``resend()`` re-ships the message and returns whether to keep going —
    ``False`` once the step completed or was superseded.  The chain also
    ends on :meth:`cancel` and when the attempt budget is spent: recovery is
    then the peer's or an operator's, never a retry loop against a dead peer.
    """

    def __init__(
        self,
        schedule: Callable[..., Any],
        policy: RetryPolicy,
        resend: Callable[[], bool],
        label: str = "",
    ) -> None:
        self._handle: Optional[Any] = None

        def arm(attempt: int) -> None:
            def fire() -> None:
                self._handle = None  # an ended chain keeps nothing alive
                if resend():
                    arm(attempt + 1)

            if policy.allows(attempt):
                self._handle = schedule(policy.delay(attempt), fire, label=label)

        arm(1)

    def cancel(self) -> None:
        """End the chain: a pending timer never fires."""

        if self._handle is not None:
            self._handle.cancel()
