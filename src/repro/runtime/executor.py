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

import itertools
import multiprocessing
import os
import pickle
import socket
import time
import weakref
from collections import deque
from multiprocessing.connection import wait
from operator import attrgetter
from types import SimpleNamespace
from typing import (Callable, Deque, Dict, FrozenSet, Iterable, Iterator,
                    List, NamedTuple, Optional, Sequence, Set, Tuple)

from repro.core.spans import (EMPTY_TUPLE, Span, SpanTuple,
                              flat_span_tuple, whole_span)
from repro.errors import WorkerLostError
from repro.obs.metrics import Metrics, kernel_metrics
from repro.obs.trace import Tracer

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

    return sorted(splits_of(splitter, document))


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
    the parent decides what to make of it (counters, metrics, spans):
    split/evaluate/merge seconds, the worker cache's hits, misses and
    evictions, chunk latencies and :data:`KERNEL_COUNTERS` deltas."""

    pid: int
    #: Wall clock (``time.time()``): comparable with the parent's,
    #: which is what queue wait is measured against.
    started: float
    busy_seconds: float
    phases: Tuple[float, float, float]
    cache: Tuple[int, int, int]
    metrics: Metrics
    kernel: Tuple[float, ...]


#: What :func:`repro.automata.compiled.count_evaluations` counts.
KERNEL_COUNTERS = ("kernel.chunks_rejected", "kernel.configs_expanded",
                   "kernel.main_line_bytes", "kernel.bytes_swept")

#: ``(doc_id, text, None)`` or ``(doc_id, None, chunks)``; a task
#: returns ``(columns, chunks)`` per item (:func:`relation_of`).
DocumentItem = Tuple[str, Optional[str], Optional[Sequence[Tuple[Span, str]]]]
TaskResult = Tuple[List[Tuple[Iterable, int]], TaskTelemetry]


def _columns(relation) -> list:
    """``relation`` as ints: ``(variables, positions)`` per variables."""
    columns: Dict[tuple, List[int]] = {}
    for row in relation:
        columns.setdefault(row.variables(), []).extend(row.positions())
    return [(variables, tuple(ints)) for variables, ints in columns.items()]


def relation_of(columns: list) -> FrozenSet[SpanTuple]:
    """The relation :func:`_columns` wrote."""
    return frozenset(itertools.chain.from_iterable(
        map(flat_span_tuple, itertools.repeat(variables),
            zip(*[iter(ints)] * (2 * len(variables))))
        if variables else (EMPTY_TUPLE,) for variables, ints in columns))


#: The longest slice of text (characters) one pool task carries.
#: Measured with chunk-text tasks, the ledger's ``dense`` chunks handed
#: to 2 workers at once (2-core box): 16 KB tasks ran fastest (16-17 ms
#: against 17-66 ms for 32-1 024 tasks and 20-30 ms for 2-8); a task's
#: fixed cost is 30-40 us.
MAX_TASK_CHARS = 16 * 1024

#: A worker's runner, chunk cache, generation token and task context.
_WORKER = SimpleNamespace(runner=None, cache=None, token=None,
                          blob=b"", context=None)


def _evaluate_task(blob: bytes, items: Sequence[DocumentItem]) -> TaskResult:
    """The pool task, over this worker's chunk cache.  ``blob`` pickles
    ``(token, namespace, limit, splitter)``: a new token (the parent
    cache's generation) empties that cache first.  Texts shipped with
    a ``None`` splitter (``whole`` plans, a program on the token path)
    are evaluated whole, with no ``Scheduler``; the rest are split and
    run through the in-process :meth:`repro.engine.Scheduler.run`."""
    from repro.engine import ChunkCache, Scheduler

    started, clock_started = time.time(), time.perf_counter()
    state = _WORKER
    if blob != state.blob:
        state.blob, state.context = blob, pickle.loads(blob)
    token, namespace, limit, splitter = state.context
    if token != state.token:
        state.token, state.cache = token, ChunkCache(limit)
    cache = state.cache   # its counters count this task only
    cache.limit, cache.hits, cache.misses, cache.evictions = limit, 0, 0, 0
    kernel = [kernel_metrics().counter(name) for name in KERNEL_COUNTERS]
    before = [counter.value for counter in kernel]
    if splitter is None and all(chunks is None for _, _, chunks in items):
        # Each text is one chunk, its columns a document entry (no chunk key).
        seen: Dict[str, Optional[tuple]] = {}
        for _, text, _ in items:
            if text in seen:
                cache.record_batch_hit()
            else:
                seen[text] = cache.lookup_document(namespace, text)
        missing = [text for text, entry in seen.items() if entry is None]
        cache.misses += len(missing)
        metrics = Metrics()
        latency = metrics.histogram("engine.chunk_eval_seconds")
        scan = getattr(state.runner, "scan_columns", None)
        found = scan(missing, latency) if scan else None
        if found is None:
            found = map(_columns, evaluate_chunks(state.runner, missing,
                                                  latency))
        for text, ints in zip(missing, found):
            seen[text] = (cache.store_document(namespace, text, ints, 1, 0),)
        phases = (0.0, time.perf_counter() - clock_started, 0.0)
        replies = [(seen[text][0], 1) for _, text, _ in items]
    else:
        documents = [
            (doc_id, chunks if text is None
             else [(whole_span(text), text)] if splitter is None
             else splitter_chunks(splitter, text))
            for doc_id, text, chunks in items]
        split = time.perf_counter() - clock_started
        scheduler = Scheduler(tracer=Tracer(), metrics=Metrics())
        resolved = scheduler.run(state.runner, documents, cache, namespace)
        spans = {span.name: span.duration for span in scheduler.tracer.drain()}
        replies = [(_columns(resolved[doc_id]), len(chunks))
                   for doc_id, chunks in documents]
        metrics = scheduler.metrics
        phases = (split, spans["evaluate"], spans["merge"])
    return replies, TaskTelemetry(
        os.getpid(), started, time.perf_counter() - clock_started, phases,
        (cache.hits, cache.misses, cache.evictions), metrics,
        tuple(counter.value - was for counter, was in zip(kernel, before)))


class _Worker:
    """One worker process, the parent's end of its pipe, and the bytes
    it has been sent whose results have not come back (``load``; 0 =
    idle)."""

    __slots__ = ("process", "connection", "load")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        self.load = 0


#: A result slot whose task has not answered yet.
_PENDING = object()

#: What a task message is charged against a busy worker's slack (a
#: quarter of its pipe's send buffer) beyond its payload.  The kernel
#: accounts each write with its buffer overhead: on Linux an AF_UNIX
#: socket pair holds 278 messages of 16 bytes, 167 of 200, 49 of 2 000
#: and 13 of 16 KB before a write blocks, so a message takes at most
#: twice its charge and the charged slack at most half the buffer.
_MESSAGE_OVERHEAD = 1024

_PROTOCOL = pickle.HIGHEST_PROTOCOL


class _Failure(NamedTuple):
    """A task that raised: re-raised where its results are consumed."""

    error: BaseException


def _serve(connection, runner: SpannerLike, inherited: Sequence) -> None:
    """A worker's life: answer ``(ticket, context, items)`` messages
    with ``(ticket, ok, payload)`` — ``payload`` is
    :func:`_evaluate_task`'s result, or the exception it raised — in the
    order they arrive, until an empty message or end of file.

    ``inherited`` are the parent's pipe ends a forked worker holds
    copies of: closed first, so that only the parent keeps a pool's
    pipes open."""
    for end in inherited:
        end.close()
    _WORKER.runner = runner
    while True:
        try:
            message = connection.recv_bytes()
        except EOFError:
            return
        if not message:
            return
        ticket, blob, items = pickle.loads(message)
        try:
            reply = pickle.dumps(
                (ticket, True, _evaluate_task(blob, items)), _PROTOCOL)
        except Exception as error:
            # The parent must be able to read every reply, or it would
            # wait on this worker for good: try the error both ways.
            try:
                reply = pickle.dumps((ticket, False, error), _PROTOCOL)
                pickle.loads(reply)
            except Exception:
                reply = pickle.dumps((ticket, False, RuntimeError(
                    f"{type(error).__name__}: {error}")), _PROTOCOL)
        connection.send_bytes(reply)


def _stop_workers(workers: Sequence[_Worker], drain: bool) -> None:
    """End ``workers`` and wait for them: idle workers are asked to
    exit (``drain``), otherwise every worker is terminated."""
    for worker in workers:
        if drain:
            try:
                worker.connection.send_bytes(b"")
                continue
            except OSError:
                pass  # gone already: terminated and reaped below
        worker.process.terminate()
    for worker in workers:
        worker.process.join()
        worker.connection.close()


class _Results:
    """The iterator :meth:`WorkerPool.evaluate` returns: one slot per
    task, filled by whichever call into the pool reads that task's
    result, yielded in task order.  The pool refers to it only weakly,
    so dropping it abandons the batch: its queued tasks are never sent
    and its results are discarded on arrival."""

    __slots__ = ("_pool", "_slots", "_next", "__weakref__")

    def __init__(self, pool: "WorkerPool", count: int) -> None:
        self._pool = pool
        self._slots: List[object] = [_PENDING] * count
        self._next = 0

    def __iter__(self) -> "_Results":
        return self

    def __next__(self) -> TaskResult:
        index = self._next
        if index == len(self._slots):
            raise StopIteration
        self._pool._await(self._slots, index)
        result, self._slots[index] = self._slots[index], None
        self._next = index + 1
        if isinstance(result, _Failure):
            raise result.error
        return result


class WorkerPool:
    """A process pool whose workers hold ``runner`` — the one place
    that knows how a runner reaches a worker and what a task is.

    The pool is ``workers`` processes of the start method, each with
    its own duplex pipe.  The calling thread feeds and drains them
    itself whenever it calls in (:meth:`evaluate`, the iterators it
    returns, :meth:`shutdown`): no helper thread competes with it for
    the interpreter lock, and no queue is shared between workers.  One
    thread at a time drives a pool.

    The runner is an argument of the worker processes: forked workers
    inherit it as it is (nothing is pickled, so an unpicklable black
    box runs too); under the ``spawn``/``forkserver`` start methods
    ``multiprocessing`` pickles it once per worker.  Each worker keeps
    its own chunk cache, which ends with the worker.

    No write may block while its worker could itself be blocked writing
    a result nobody reads: an idle worker (every result it produced
    taken in) takes any task, a busy one only what fits a quarter of
    the pipe's send buffer, tasks it has not answered included.  A
    worker that dies shows as end of file on its pipe: the pool then
    stops every worker and raises :class:`repro.errors.WorkerLostError`
    to whoever waits on it.
    """

    def __init__(self, runner: SpannerLike, workers: int) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.runner = runner
        self.workers = workers
        context = multiprocessing.get_context()
        forked = context.get_start_method() == "fork"
        self._workers: List[_Worker] = []
        for _ in range(workers):
            ours, theirs = context.Pipe()
            inherited = ([w.connection for w in self._workers] + [ours]
                         if forked else [])
            process = context.Process(
                target=_serve, args=(theirs, runner, inherited),
                daemon=True)
            process.start()
            theirs.close()
            self._workers.append(_Worker(process, ours))
        self._by_connection = {w.connection: w for w in self._workers}
        with socket.fromfd(self._workers[0].connection.fileno(),
                           socket.AF_UNIX, socket.SOCK_STREAM) as end:
            self._slack = end.getsockopt(socket.SOL_SOCKET,
                                         socket.SO_SNDBUF) // 4
        #: ``(batch, index, ticket, message)`` not yet sent, in
        #: submission order; ``ticket -> (batch, index, charge)`` sent.
        self._queue: Deque[Tuple[weakref.ref, int, int, bytes]] = deque()
        self._in_flight: Dict[int, Tuple[weakref.ref, int, int]] = {}
        self._tickets = itertools.count()
        #: The error that stopped the pool when a worker died, else None.
        self.lost: Optional[WorkerLostError] = None
        self._stopped = False
        # A pool dropped without shutdown() still ends its workers.
        self._finalizer = weakref.finalize(
            self, _stop_workers, self._workers, False)

    def evaluate(self, items: Sequence[DocumentItem],
                 context: tuple) -> Iterator[TaskResult]:
        """Submit ``items`` and return at once: an iterator of
        ``(results, telemetry)`` per task, in item order.  What the
        workers have room for is sent before this returns; the rest
        goes out as the pool is next called into.

        Documents go out, relations come back (:func:`_evaluate_task`;
        ``context`` is its ``blob``).  A task is a contiguous slice of
        ``items``; the slices are cut at equal cumulative length, one per
        worker — a task's cost is its characters, not its document count
        — unless that makes a slice longer than :data:`MAX_TASK_CHARS`:
        a whole corpus handed over at once still goes out in several
        waves per worker, the load balance for skewed costs the
        Introduction credits for the Spark speedups.  Each task goes to
        the worker with the fewest bytes outstanding.
        """
        # An empty item still costs a dispatch: weigh every item one
        # more than its length.  An item goes to the slice its middle
        # falls in, so slices are contiguous and a long item gets a
        # slice to itself rather than dragging its neighbours along.
        weights = [(len(text) if text is not None
                    else sum(len(chunk) for _span, chunk in chunks)) + 1
                   for _doc_id, text, chunks in items]
        total = sum(weights)
        count = min(len(items),
                    max(self.workers, -(-total // MAX_TASK_CHARS)))
        tasks: List[Sequence[DocumentItem]] = []
        start = swept = current = 0
        for position, weight in enumerate(weights):
            index = (2 * swept + weight) * count // (2 * total)
            if index != current:
                if position:
                    tasks.append(items[start:position])
                start, current = position, index
            swept += weight
        if items:
            tasks.append(items[start:])
        results = _Results(self, len(tasks))
        batch = weakref.ref(results)
        blob = pickle.dumps(context, _PROTOCOL)
        for index, task in enumerate(tasks):
            ticket = next(self._tickets)
            self._queue.append((batch, index, ticket, pickle.dumps(
                (ticket, blob, task), _PROTOCOL)))
        self._pump(block=False)
        return results

    def _await(self, slots: List[object], index: int) -> None:
        """Call into the pool until ``slots[index]`` is filled."""
        if self._stopped and slots[index] is not _PENDING:
            return  # delivered by a drain
        self._pump(block=False)
        while slots[index] is _PENDING:
            self._pump(block=True)

    def _pump(self, block: bool) -> None:
        """Take in every result that has arrived — with ``block``,
        waiting for one first — then send what the workers have room
        for.  After every call a queued task implies that every worker
        is busy, so a blocking wait always has a worker to wait on."""
        if self._stopped:
            raise self.lost or WorkerLostError(
                "the worker pool was stopped with tasks in flight")
        busy = [w.connection for w in self._workers if w.load]
        if busy:
            for connection in wait(busy, None if block else 0):
                self._receive(self._by_connection[connection])
        self._dispatch()

    def _receive(self, worker: _Worker) -> None:
        try:
            ticket, ok, payload = pickle.loads(
                worker.connection.recv_bytes())
        except (EOFError, OSError):
            self._lose(worker)
        batch, index, charge = self._in_flight.pop(ticket)
        worker.load -= charge
        results = batch()
        if results is not None:
            results._slots[index] = payload if ok else _Failure(payload)

    def _dispatch(self) -> None:
        queue = self._queue
        while queue:
            batch, index, ticket, message = queue[0]
            if batch() is None:
                queue.popleft()
                continue
            worker = min(self._workers, key=attrgetter("load"))
            charge = len(message) + _MESSAGE_OVERHEAD
            if worker.load and worker.load + charge > self._slack:
                return
            queue.popleft()
            try:
                worker.connection.send_bytes(message)
            except OSError:
                self._lose(worker)
            worker.load += charge
            self._in_flight[ticket] = (batch, index, charge)

    def _lose(self, worker: _Worker) -> None:
        self.shutdown(drain=False)
        process = worker.process
        self.lost = WorkerLostError(
            f"pool worker {process.pid} exited (code {process.exitcode}) "
            f"with tasks in flight", process.pid, process.exitcode)
        raise self.lost

    def shutdown(self, drain: bool) -> None:
        """Stop the workers and wait for them (idempotent): ``drain``
        first delivers every task a batch still waits on — to its
        iterator, which yields them after the pool is gone — otherwise
        the workers are terminated with their tasks."""
        if self._stopped:
            return
        if drain:
            try:
                while self._in_flight:
                    self._pump(block=True)
            except WorkerLostError:
                return  # the pool stopped itself
        self._stopped = True
        self._finalizer.detach()
        _stop_workers(self._workers, drain)
