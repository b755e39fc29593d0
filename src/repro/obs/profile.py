"""A sampling wall-clock profiler for the serving stack.

``py-spy`` without the dependency: a daemon thread walks
``sys._current_frames()`` at a configurable rate and folds each
thread's stack into ``collapsed-stack`` counters — the
``module:function:line;module:function:line ...  count`` text format
flame-graph tooling consumes.  Wall-clock sampling (not CPU): a thread
blocked in ``queue.get`` or a pool ``recv`` shows up exactly where it
waits, which is the right view for a dispatcher whose latency story is
mostly *waiting*.

Stacks aggregate per **thread role** rather than per thread id, so a
profile reads as "what was the dispatcher doing" vs. "what were the
workers doing" rather than a soup of anonymous idents.  The
``dispatcher`` is the service's one thread: its event loop runs the
queries and, under :func:`repro.serve.serve_http`, also accepts, reads
and parses the HTTP requests and writes the responses, so HTTP time
and engine time share that role (tell them apart by the stacks).
Roles come from two sources: the thread's own name (the service names
its dispatcher thread; the profiler's sampler names itself and is skipped)
and a process-wide role set by :func:`set_process_role` — the pool
worker initializers (:mod:`repro.runtime.executor`) declare
``pool-worker``, so a profiler running *inside* a worker process
labels every thread accordingly.

Samples are optionally attributed to the query in flight: pass a
zero-argument ``current_query`` callable (the service exposes
:meth:`~repro.serve.ExtractionService.current_query_id`) and each
sample is also counted against the query id it landed under, joining
profiles to flight-recorder records.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Process-wide role label (see :func:`set_process_role`); ``None``
#: in the parent/service process, ``"pool-worker"`` in pool workers.
_PROCESS_ROLE: Optional[str] = None

#: Maximum stack depth folded into one sample; deeper frames are
#: summarized with a ``...`` leaf so pathological recursion cannot
#: bloat the profile.
MAX_DEPTH = 64


def set_process_role(role: Optional[str]) -> None:
    """Declare what this *process* is (e.g. ``"pool-worker"``).

    Worker initializers call this so any profiler sampling inside the
    worker labels its threads with the pool role instead of guessing
    from thread names.
    """
    global _PROCESS_ROLE
    _PROCESS_ROLE = role


def process_role() -> Optional[str]:
    return _PROCESS_ROLE


def thread_role(name: str) -> str:
    """The role label for a thread named ``name``.

    The process role (pool workers) wins; otherwise the service's
    thread (queries, and HTTP requests under ``serve_http``) is the
    ``dispatcher``, recognized by its name, ``MainThread``
    becomes ``main``, and anything else keeps its thread name — which
    is already the most descriptive label available.
    """
    if _PROCESS_ROLE is not None:
        return _PROCESS_ROLE
    if "dispatcher" in name:
        return "dispatcher"
    if name == "MainThread":
        return "main"
    return name


def fold_frame(frame) -> str:
    """One stack, root first, as a collapsed-stack string."""
    parts: List[str] = []
    depth = 0
    while frame is not None and depth < MAX_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}:{frame.f_lineno}")
        frame = frame.f_back
        depth += 1
    if frame is not None:
        parts.append("...")
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Samples every live thread's stack at ``hz`` on a daemon thread.

    >>> profiler = SamplingProfiler(hz=200).start()
    >>> _ = sum(i * i for i in range(2000000))
    >>> profiler.stop().stats()["samples"] > 0
    True
    >>> "main" in profiler.by_role()
    True
    """

    def __init__(
        self,
        hz: float = 97.0,
        current_query: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = hz
        self._current_query = current_query
        # {(role, folded_stack): count}
        self._stacks: Dict[Tuple[str, str], int] = {}
        # {query_id: count}
        self._queries: Dict[str, int] = {}
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every thread; returns threads sampled.

        Usable without :meth:`start` (tests, one-shot inspection).
        """
        sampler_ids = set()
        if self._thread is not None:
            # Skip the sampler's own thread; an inline sample_once()
            # from any other thread still counts the caller.
            sampler_ids.add(self._thread.ident)
        names = {thread.ident: thread.name
                 for thread in threading.enumerate()}
        query = self._current_query() if self._current_query else None
        counted = 0
        frames = sys._current_frames()
        try:
            with self._lock:
                self._samples += 1
                for ident, frame in frames.items():
                    if ident in sampler_ids:
                        continue
                    role = thread_role(names.get(ident, f"tid-{ident}"))
                    key = (role, fold_frame(frame))
                    self._stacks[key] = self._stacks.get(key, 0) + 1
                    counted += 1
                if query is not None and counted:
                    self._queries[query] = (
                        self._queries.get(query, 0) + 1)
        finally:
            del frames  # frames hold references into every thread
        return counted

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._started_at is not None:
            self._elapsed += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def collapsed(self, role: Optional[str] = None) -> str:
        """The profile as collapsed-stack text (one ``stack count``
        line per distinct stack), optionally restricted to one role.

        Stacks are prefixed with their role so a single export stays
        flame-graphable while keeping dispatcher and worker time
        separable.
        """
        with self._lock:
            items = sorted(self._stacks.items(),
                           key=lambda item: -item[1])
        lines = []
        for (stack_role, stack), count in items:
            if role is not None and stack_role != role:
                continue
            lines.append(f"{stack_role};{stack} {count}")
        return "\n".join(lines)

    def by_role(self) -> Dict[str, int]:
        """Sample counts per thread role."""
        totals: Dict[str, int] = {}
        with self._lock:
            for (stack_role, _stack), count in self._stacks.items():
                totals[stack_role] = totals.get(stack_role, 0) + count
        return totals

    def by_query(self) -> Dict[str, int]:
        """Sample counts per in-flight query id (needs
        ``current_query``)."""
        with self._lock:
            return dict(self._queries)

    def stats(self) -> Dict[str, object]:
        elapsed = self._elapsed
        if self._started_at is not None:
            elapsed += time.perf_counter() - self._started_at
        with self._lock:
            samples = self._samples
            distinct = len(self._stacks)
        return {
            "hz": self.hz,
            "samples": samples,
            "distinct_stacks": distinct,
            "elapsed_seconds": elapsed,
            "running": self._thread is not None,
        }

    def snapshot(self) -> Dict[str, object]:
        """The JSON payload ``GET /debug/profile`` returns."""
        return {
            "stats": self.stats(),
            "by_role": self.by_role(),
            "by_query": self.by_query(),
            "collapsed": self.collapsed(),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        state = "running" if stats["running"] else "stopped"
        return (f"SamplingProfiler({self.hz:g} Hz, {state}, "
                f"{stats['samples']} samples)")


def profile_for(
    seconds: float,
    hz: float = 97.0,
    current_query: Optional[Callable[[], Optional[str]]] = None,
) -> SamplingProfiler:
    """Run a profiler for ``seconds`` (blocking) and return it stopped.

    The one-call form behind ``GET /debug/profile?seconds=S``; the
    HTTP layer runs it off the event loop.
    """
    profiler = SamplingProfiler(hz=hz, current_query=current_query)
    with profiler:
        time.sleep(max(0.0, seconds))
    return profiler
