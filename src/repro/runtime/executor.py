"""What split evaluation means, and what the engine runs it with.

This realizes the Introduction's motivation: once the framework has
certified ``P = P_S o S``, the system may evaluate ``P_S`` on the
chunks of ``S`` independently.  :func:`evaluate_whole` and
:func:`split_by` are the two sides of that equation on one document,
in process; :func:`evaluate_chunks` and :class:`WorkerPool` (our
stand-in for the paper's Spark cluster) are the pieces
:mod:`repro.engine` — the one executor of plans — is built from.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from types import SimpleNamespace
from typing import (Callable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.core.spans import Span, SpanTuple
from repro.obs.profile import set_process_role

#: Anything with ``evaluate(document) -> set[SpanTuple]``.
SpannerLike = object
#: Anything producing spans for a document: a VSA splitter, or an
#: executor with ``splits(document) -> [Span]`` and optionally the
#: fused ``chunks_of(document) -> [(Span, text)]`` (FastSplitter).
SplitterLike = object


def splitter_spans(splitter: SplitterLike, document: str) -> List[Span]:
    """Spans of a splitter, whatever its representation."""
    if hasattr(splitter, "splits"):
        return list(splitter.splits(document))
    from repro.core.composition import splits_of

    return sorted(splits_of(splitter, document),
                  key=lambda s: (s.begin, s.end))


def splitter_chunks(
    splitter: SplitterLike, document: str
) -> List[Tuple[Span, str]]:
    """``(span, text)`` chunks of a splitter, whatever its
    representation: an executor's own ``chunks_of`` when it has one
    (span and text out of one scan), else each span extracted."""
    chunks_of = getattr(splitter, "chunks_of", None)
    if chunks_of is not None:
        return chunks_of(document)
    return [(span, span.extract(document))
            for span in splitter_spans(splitter, document)]


def as_runner(spanner: SpannerLike) -> SpannerLike:
    """The chunk runner for ``spanner``.

    VSet-automata are pinned to their compiled kernel artifact
    (:class:`repro.runtime.fast.CompiledSpanner`): the lowering happens
    here, once, and is then reused across every chunk of every document
    — including on pool workers, which receive the prebuilt artifact
    (see :class:`WorkerPool`) instead of re-lowering.  Other spanners
    (regex fast paths, black boxes) run as-is.
    """
    from repro.spanners.vset_automaton import VSetAutomaton

    if isinstance(spanner, VSetAutomaton):
        from repro.runtime.fast import CompiledSpanner

        return CompiledSpanner(spanner)
    return spanner


def evaluate_whole(spanner: SpannerLike, document: str) -> Set[SpanTuple]:
    """Baseline plan: evaluate the spanner on the whole document."""
    return set(spanner.evaluate(document))


def split_by(
    spanner: SpannerLike,
    splitter: SplitterLike,
    document: str,
) -> Set[SpanTuple]:
    """The split plan ``(P_S o S)(d)``, executed sequentially.

    Sound (equal to ``evaluate_whole`` of the original spanner) exactly
    when split-correctness holds; use :class:`repro.runtime.planner.
    Planner` to certify that first.
    """
    runner = as_runner(spanner)
    results: Set[SpanTuple] = set()
    for span, text in splitter_chunks(splitter, document):
        for t in runner.evaluate(text):
            results.add(t.shift(span))
    return results


# ----------------------------------------------------------------------
# The engine's evaluation step and worker pool
# ----------------------------------------------------------------------


def evaluate_chunks(
    runner: SpannerLike,
    texts: Sequence[str],
    latency=None,
    check: Callable[[], None] = lambda: None,
) -> List[Set[SpanTuple]]:
    """Evaluate ``runner`` on each text, in order, unshifted — the one
    evaluation step under the in-process plans and the pool task alike.

    Runners exposing ``evaluate_batch`` (compiled kernel artifacts)
    sweep the batch through their tables in one call, observing
    per-chunk seconds into ``latency`` themselves; the rest are looped
    over and timed here, with ``check`` (a deadline's cancellation
    point) run before each text.
    """
    batch = getattr(runner, "evaluate_batch", None)
    if batch is not None:
        return batch(texts, latency)
    results = []
    for text in texts:
        check()
        started = time.perf_counter()
        results.append(set(runner.evaluate(text)))
        if latency is not None:
            latency.observe(time.perf_counter() - started)
    return results


class TaskTelemetry(NamedTuple):
    """What a pool task measured about itself — always, traced or not;
    the parent decides what to make of it (metrics, spans)."""

    pid: int
    #: Wall clock (``time.time()``): comparable with the parent's,
    #: which is what queue wait is measured against.
    started: float
    busy_seconds: float
    chunk_seconds: List[float]


#: The longest slice of chunk text (characters) one pool task carries.
#: Measured on the 2-core reference box, ledger ``dense`` chunks, min
#: of 9: 234 KB over 2 workers take 43-48 ms cut into 2-16 tasks, 51
#: in 32-64, 72 in 256 and 101 in 1 024 (74 in process), so a task's
#: fixed cost — dispatch, two hand-offs, wake-ups — is 60-150 us.  The
#: kernel sweeps a character in ~0.32 us: a full task runs ~5 ms and
#: its fixed cost is ~2 % of that.
MAX_TASK_CHARS = 16 * 1024

_WORKER_RUNNER: Optional[SpannerLike] = None


def _init_worker(runner: SpannerLike) -> None:
    """The pool initializer: this worker evaluates with ``runner``."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner
    set_process_role("pool-worker")


def _evaluate_task(
    texts: Sequence[str],
) -> Tuple[List[Set[SpanTuple]], TaskTelemetry]:
    """The pool task: one dispatch and one result pickle per batch of
    chunk texts instead of per chunk."""
    chunk_seconds: List[float] = []
    started, clock_started = time.time(), time.perf_counter()
    results = evaluate_chunks(
        _WORKER_RUNNER, texts,
        SimpleNamespace(observe=chunk_seconds.append,
                        observe_many=chunk_seconds.extend),
    )
    return results, TaskTelemetry(
        os.getpid(), started, time.perf_counter() - clock_started,
        chunk_seconds,
    )


class WorkerPool:
    """A process pool whose workers hold ``runner`` — the one place
    that knows how a runner reaches a worker and what a task is.

    The runner is the pool initializer's argument: forked workers
    inherit it as it is (nothing is pickled, so an unpicklable black
    box runs too); under the ``spawn``/``forkserver`` start methods
    ``multiprocessing`` pickles it once per worker.
    """

    def __init__(self, runner: SpannerLike, workers: int) -> None:
        self.runner = runner
        self.workers = workers
        self.pool = multiprocessing.Pool(workers, _init_worker, (runner,))

    def evaluate(
        self, texts: Sequence[str],
    ) -> Iterator[Tuple[List[Set[SpanTuple]], TaskTelemetry]]:
        """Submit ``texts`` and return at once: an iterator of
        ``(results, telemetry)`` per task, in text order
        (``multiprocessing`` feeds the workers from its own thread, so
        the caller is free until it asks for the first result).

        Chunk texts go out, flat int tuples come back
        (:class:`repro.core.spans.SpanTuple` pickles as its stored
        form).  A task is a contiguous slice of ``texts``; the slices
        are cut at equal cumulative length, one per worker — a task's
        cost is its characters, not its text count — unless that makes
        a slice longer than :data:`MAX_TASK_CHARS`: a whole corpus
        handed over at once still goes out in several waves per
        worker, the load balance for skewed chunk costs the
        Introduction credits for the Spark speedups.
        """
        # An empty text still costs a dispatch: weigh every text one
        # more than its length.  A text goes to the slice its middle
        # falls in, so slices are contiguous and a long text gets a
        # slice to itself rather than dragging its neighbours along.
        total = sum(map(len, texts)) + len(texts)
        count = min(len(texts),
                    max(self.workers, -(-total // MAX_TASK_CHARS)))
        tasks: List[Sequence[str]] = []
        start = swept = current = 0
        for position, text in enumerate(texts):
            weight = len(text) + 1
            index = (2 * swept + weight) * count // (2 * total)
            if index != current:
                if position:
                    tasks.append(texts[start:position])
                start, current = position, index
            swept += weight
        if texts:
            tasks.append(texts[start:])
        return self.pool.imap(_evaluate_task, tasks)

    def shutdown(self, drain: bool) -> None:
        """Stop the workers and wait for them: ``drain`` lets every
        submitted task finish (``Pool.close()``), otherwise in-flight
        tasks are killed (``Pool.terminate()``)."""
        if drain:
            self.pool.close()
        else:
            self.pool.terminate()
        self.pool.join()
