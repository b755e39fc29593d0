"""The typed exception hierarchy of the public (fluent) API.

Every error the documented surface raises derives from
:class:`ReproError`, so ``except ReproError`` catches anything this
library signals while programming mistakes (``TypeError`` from wrong
argument shapes, say) still propagate.  The concrete classes also
derive from the built-in exceptions the pre-fluent entry points used
to raise (``ValueError``, ``KeyError``), so existing callers that
catch those keep working unchanged.
"""

from __future__ import annotations

import difflib
from typing import Iterable, Optional


class ReproError(Exception):
    """Base class of every error raised by the repro public API."""


class NotFunctionalError(ReproError, ValueError):
    """A regex formula (or VSet-automaton) is not functional.

    The paper's standing assumption for the class RGX is that every
    accepting run assigns each variable exactly once; formulas like
    ``(x{a})*`` violate it.  Subclasses :class:`ValueError` because
    :func:`repro.spanners.regex_formulas.compile_regex_formula`
    historically raised that.
    """


class CertificationError(ReproError, ValueError):
    """A certification request cannot be satisfied as posed.

    Raised when :func:`repro.core.api.split_correct` (or
    ``self_splittable``) is forced to ``method="fast"`` on inputs
    outside the tractable fragment (Theorems 5.7/5.17 need dfVSAs and
    a disjoint splitter) or passed an unknown method name, or when an
    object that is neither a VSet-automaton nor a wrapper around one
    reaches the decision procedures.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A query ran past its deadline and was cooperatively cancelled.

    Raised at batch boundaries (the engine checks between scheduler
    passes, the scheduler between pool result batches), so a partially
    streamed run stops promptly without killing in-flight work: chunks
    already evaluated stay in the chunk cache and the engine remains
    fully usable for subsequent queries.  Carries the ``elapsed`` and
    ``budget`` seconds when the deadline knows them.  Subclasses
    :class:`TimeoutError` so generic timeout handling catches it.
    """

    def __init__(self, message: str = "deadline exceeded",
                 elapsed: Optional[float] = None,
                 budget: Optional[float] = None):
        self.elapsed = elapsed
        self.budget = budget
        if elapsed is not None and budget is not None:
            message += f" ({elapsed:.3f}s elapsed of {budget:.3f}s budget)"
        super().__init__(message)


class WorkerLostError(ReproError, RuntimeError):
    """A pool worker process died with tasks in flight.

    Raised by the engine's worker pool
    (:class:`repro.runtime.executor.WorkerPool`) when a worker's pipe
    reads end of file: the process was killed (a signal, the
    out-of-memory killer) or exited mid-task, and the results it held
    are gone.  The query that needed them fails instead of waiting;
    the pool is stopped, its other workers with it, and the next pass
    forks a fresh one.  Carries the worker's ``pid`` and ``exitcode``
    (negative: the signal that ended it) when they are known.
    """

    def __init__(self, message: str, pid: Optional[int] = None,
                 exitcode: Optional[int] = None):
        self.pid = pid
        self.exitcode = exitcode
        super().__init__(message)


class ServiceOverloadedError(ReproError, RuntimeError):
    """The extraction service's admission queue is full.

    Raised at admission, on the service loop, when ``capacity``
    queries already wait for the engine (admission control rejects
    explicitly instead of queueing unboundedly); the ``capacity`` lets
    callers report back-pressure.  Retry later or shed load upstream.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        super().__init__(
            f"service admission queue full ({capacity} pending queries); "
            f"retry later"
        )


class ServiceClosedError(ReproError, RuntimeError):
    """A query was submitted to a service that has been closed."""

    def __init__(self) -> None:
        super().__init__("the extraction service is closed")


class ServiceThreadError(ReproError, RuntimeError):
    """A blocking service call was made on the service's own thread.

    The service's thread runs the event loop that executes queries, so
    a call there that waits for the loop (``extract``, ``close``) could
    never return; it raises instead.  Carries the ``call``'s name.  On
    that thread, ``await service.extract_async(...)``.
    """

    def __init__(self, call: str) -> None:
        self.call = call
        super().__init__(
            f"{call}() would wait for the service thread it was called "
            f"on; await extract_async() there instead"
        )


class IndexFormatError(ReproError, ValueError):
    """A persisted corpus index cannot be opened as its format claims.

    Raised by the index store (:mod:`repro.index.store`) for a path
    that holds no index manifest, unsupported format versions, bad
    magic bytes, truncated segments, and splitter-fingerprint
    mismatches between a manifest and its segments.  Carries the
    offending ``path`` when one is known.  Subclasses
    :class:`ValueError`, the type index loading has always raised.
    """

    def __init__(self, message: str, path: Optional[str] = None):
        self.path = path
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class UnknownSplitterError(ReproError, KeyError):
    """A splitter name is not in the builder registry.

    Carries the offending ``name``, the ``known`` names, and the
    nearest-name ``suggestion`` (when one is close enough) so callers
    (the CLI, error messages in notebooks) can show what *would* have
    worked.  Subclasses :class:`KeyError` to behave like the failed
    registry lookup it is.
    """

    def __init__(self, name: str, known: Optional[Iterable[str]] = None):
        self.name = name
        self.known = sorted(known) if known is not None else []
        matches = difflib.get_close_matches(name, self.known, n=1,
                                            cutoff=0.6)
        self.suggestion: Optional[str] = matches[0] if matches else None
        message = f"unknown splitter {name!r}"
        if self.suggestion is not None:
            message += f"; did you mean {self.suggestion!r}?"
        if self.known:
            message += "; known splitters: " + ", ".join(self.known)
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it readable.
        return self.args[0]
