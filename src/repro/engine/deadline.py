"""Per-query deadlines: cooperative cancellation budgets.

A :class:`Deadline` is a monotonic-clock budget a query carries
through the engine.  Nothing preempts running work — the engine checks
the deadline at *batch boundaries* (between scheduler passes, and the
scheduler between pool result batches), raising
:class:`repro.errors.DeadlineExceededError` as soon as a check fails.
Cooperative checks are what keep a shared engine safe under deadlines:
no worker is killed mid-chunk, the pool stays intact (a batch the
run had in flight finishes in the background and is dropped), and
chunks evaluated before the cut-off remain in the chunk cache for the
next query.

>>> deadline = Deadline.after(60.0)
>>> deadline.expired()
False
>>> deadline.check()        # no-op while there is budget left
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import DeadlineExceededError


class Deadline:
    """A monotonic wall-clock budget for one query.

    ``Deadline.after(seconds)`` starts the clock now;
    ``Deadline(at=t)`` pins an absolute :func:`time.monotonic` instant
    (what a service uses to make the budget cover queue wait too).
    ``None`` budgets never expire — :data:`NEVER` is the shared
    no-deadline instance, so call sites can check unconditionally.
    """

    __slots__ = ("_at", "_started", "_budget")

    def __init__(self, at: Optional[float] = None,
                 budget: Optional[float] = None) -> None:
        self._started = time.monotonic()
        self._budget = budget
        self._at = at

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline ``seconds`` from now (``None`` = never expires)."""
        if seconds is None:
            return NEVER
        if seconds < 0:
            raise ValueError("deadline seconds must be non-negative")
        return cls(at=time.monotonic() + seconds, budget=seconds)

    @property
    def budget(self) -> Optional[float]:
        """The seconds this deadline was given (``None`` = unbounded
        or pinned with ``at=`` alone)."""
        return self._budget

    def remaining(self) -> Optional[float]:
        """Seconds left (negative once expired; ``None`` = unbounded)."""
        if self._at is None:
            return None
        return self._at - time.monotonic()

    def elapsed(self) -> float:
        """Seconds since this deadline object was created."""
        return time.monotonic() - self._started

    def expired(self) -> bool:
        return self._at is not None and time.monotonic() >= self._at

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent.

        The cooperative cancellation point: cheap enough to call at
        every batch boundary (one :func:`time.monotonic` read).
        """
        if self._at is not None and time.monotonic() >= self._at:
            raise DeadlineExceededError(
                elapsed=self.elapsed(), budget=self._budget
            )

    def __repr__(self) -> str:
        if self._at is None:
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


#: The shared never-expiring deadline: call sites thread it through
#: unconditionally instead of branching on ``None``.
NEVER = Deadline()


def as_deadline(deadline) -> Deadline:
    """Coerce a caller-supplied deadline: a :class:`Deadline`, a
    float/int budget in seconds, or ``None`` (never expires)."""
    if deadline is None:
        return NEVER
    if isinstance(deadline, Deadline):
        return deadline
    if isinstance(deadline, (int, float)):
        return Deadline.after(float(deadline))
    raise TypeError(
        f"deadline must be a Deadline, seconds, or None, "
        f"got {type(deadline).__name__}"
    )
