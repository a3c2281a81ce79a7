"""Wall-clock deadlines and combined budgets for the decision pipeline.

A :class:`Deadline` is an absolute point on the monotonic clock that hot
loops *cooperatively* poll.  The design constraints, in order:

1. **Cheap when armed.**  The chase ticks millions of times per second, so
   :meth:`Deadline.poll` reads the clock only every ``stride`` calls (a
   decrement + compare otherwise).  The E20 benchmark holds the measured
   overhead on the E5/E7 hot loops under 3%.
2. **Free when absent.**  Every integration point guards with
   ``if deadline is not None`` — a decision without a timeout executes the
   exact pre-deadline instruction stream, so verdicts are bit-identical.
3. **Clean expiry.**  Expiry never raises across an API boundary: each
   loop that observes an expired deadline winds back to its caller with a
   *incomplete* result object (``complete=False`` / ``exhausted=False``).
   :meth:`Deadline.check` exists for callers that prefer the exception
   style internally (:class:`DeadlineExceeded`).
4. **Fork-safe.**  A deadline is an absolute ``time.monotonic()`` value;
   on Linux (``CLOCK_MONOTONIC``) and macOS (``mach_absolute_time``) that
   clock is system-wide, so a pickled deadline keeps meaning the same
   instant in another process.

Expiry latches: once a deadline has been observed expired it stays
expired, even for clock reads that would race right at the boundary.
"""

from __future__ import annotations

import time
from typing import Optional

DEFAULT_STRIDE = 64
"""Clock reads per :meth:`Deadline.poll` — every call in between is a
counter decrement.  At chase speeds (~1M steps/s) this bounds the expiry
detection latency to well under a millisecond while keeping the per-step
cost in the noise."""


class DeadlineExceeded(Exception):
    """A cooperative wall-clock budget expired (see :meth:`Deadline.check`)."""


class Deadline:
    """An absolute monotonic-clock budget with strided cooperative polling.

    ``Deadline.after_ms(250)`` expires 250 ms from now; ``Deadline.never()``
    never expires (every check is two attribute reads).  The object is
    intentionally *not* part of any decision identity: the decision key and
    cache digests ignore it, and results that were actually cut short are
    excluded from every cache instead (see ``repro.core.containment``).
    """

    __slots__ = ("at", "stride", "_countdown", "_expired")

    def __init__(self, at: Optional[float] = None, stride: int = DEFAULT_STRIDE) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.at = at
        self.stride = stride
        self._countdown = stride
        self._expired = False

    # ------------------------------------------------------------- #
    # constructors

    @classmethod
    def after_ms(cls, timeout_ms: Optional[float], stride: int = DEFAULT_STRIDE) -> "Deadline":
        """A deadline ``timeout_ms`` from now (``None`` → never expires)."""
        if timeout_ms is None:
            return cls(None, stride)
        if timeout_ms < 0:
            raise ValueError(f"timeout_ms must be >= 0, got {timeout_ms}")
        return cls(time.monotonic() + timeout_ms / 1000.0, stride)

    @classmethod
    def never(cls) -> "Deadline":
        """An armed-but-infinite deadline (used by overhead benchmarks)."""
        return cls(None)

    # ------------------------------------------------------------- #
    # checks

    def expired(self) -> bool:
        """Authoritative check: reads the clock (latches once true)."""
        if self._expired:
            return True
        if self.at is None:
            return False
        if time.monotonic() >= self.at:
            self._expired = True
        return self._expired

    def poll(self) -> bool:
        """Strided check for hot loops: a decrement + compare on most
        calls, one real clock read every ``stride`` calls."""
        if self._expired:
            return True
        if self.at is None:
            return False
        self._countdown -= 1
        if self._countdown > 0:
            return False
        self._countdown = self.stride
        return self.expired()

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when the (polled) budget is gone."""
        if self.poll():
            raise DeadlineExceeded(f"deadline expired ({self!r})")

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left (clamped at 0), or ``None`` for a never-deadline."""
        if self.at is None:
            return None
        return max(0.0, (self.at - time.monotonic()) * 1000.0)

    # ------------------------------------------------------------- #
    # pickling — the poll countdown is per-process state

    def __getstate__(self) -> tuple:
        return (self.at, self.stride, self._expired)

    def __setstate__(self, state: tuple) -> None:
        self.at, self.stride, self._expired = state
        self._countdown = self.stride

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.at is None:
            return "Deadline(never)"
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


class Budget:
    """A combined wall-clock + step budget with one cooperative ``check()``.

    Bundles the two budget notions the pipeline uses — a :class:`Deadline`
    and a step ceiling — behind a single object for callers (the service
    layer, ad-hoc scripts) that want "stop after X ms or N units of work,
    whichever first" without threading two values around.
    """

    __slots__ = ("deadline", "max_steps", "steps")

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        self.deadline = deadline
        self.max_steps = max_steps
        self.steps = 0

    @classmethod
    def of(
        cls,
        timeout_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> "Budget":
        deadline = Deadline.after_ms(timeout_ms) if timeout_ms is not None else None
        return cls(deadline, max_steps)

    def spent(self) -> bool:
        """Has either budget run out?  (Counts one step per call.)"""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            return True
        return self.deadline is not None and self.deadline.poll()

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when either budget is gone."""
        if self.spent():
            raise DeadlineExceeded(
                f"budget spent (steps={self.steps}, max_steps={self.max_steps})"
            )
