"""A simulated worker pool for distribution experiments.

The paper's Introduction experiments measure wall-clock speedups of
split-then-distribute plans over 5 cores / a 5-node Spark cluster.
The reference box has two cores, so five-way parallelism cannot be had
for real, and E1-E4 and A1 (this module's only users) substitute a
*discrete-event simulation*: per-task costs are measured from real
sequential execution of the extractor, and the simulated pool replays
the dynamic greedy scheduling of a multiprocessing pool or Spark
executor (each task goes to the earliest-free worker, in arrival
order).  The phenomenon under study — finer-grained tasks balance load
and shrink the makespan — is a property of the schedule, which the
simulation reproduces exactly; only the concurrency itself is virtual.
The library's real pool is :class:`repro.runtime.executor.WorkerPool`,
driven by the engine.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.runtime.executor import SpannerLike, SplitterLike, splitter_spans


@dataclass
class SimulatedPool:
    """A pool of identical workers with greedy dynamic scheduling.

    ``per_task_overhead`` models the scheduling/serialization cost a
    real pool pays per task (seconds).
    """

    workers: int = 5
    per_task_overhead: float = 1e-4

    def makespan(self, costs: Sequence[float]) -> float:
        """Simulated wall-clock time to drain ``costs`` (in order).

        Tasks are assigned, in arrival order, to the worker that frees
        up first — the behaviour of ``Pool.imap`` consumers and Spark's
        dynamic allocation.
        """
        if not costs:
            return 0.0
        free_at = [0.0] * self.workers
        heapq.heapify(free_at)
        finish = 0.0
        for cost in costs:
            start = heapq.heappop(free_at)
            end = start + self.per_task_overhead + cost
            finish = max(finish, end)
            heapq.heappush(free_at, end)
        return finish


def measure_task_costs(
    spanner: SpannerLike, chunks: Sequence[str]
) -> List[float]:
    """Real sequential wall-clock cost of evaluating each chunk."""
    costs = []
    for chunk in chunks:
        start = time.perf_counter()
        spanner.evaluate(chunk)
        costs.append(time.perf_counter() - start)
    return costs


@dataclass
class SpeedupResult:
    baseline_makespan: float
    split_makespan: float
    baseline_tasks: int
    split_tasks: int

    @property
    def speedup(self) -> float:
        if self.split_makespan == 0:
            return float("inf")
        return self.baseline_makespan / self.split_makespan


def simulate_corpus_speedup(
    spanner: SpannerLike,
    documents: Sequence[str],
    splitter: SplitterLike,
    workers: int = 5,
    per_task_overhead: float = 1e-4,
    repeats: int = 3,
    chunksize: int = 1,
) -> SpeedupResult:
    """The Introduction's experiment: distribute whole documents vs.
    distribute the chunks produced by the splitter.

    Costs are measured by really running the extractor on every
    document and every chunk (best of ``repeats``); the two makespans
    come from the same simulated pool.  ``chunksize`` batches
    consecutive chunk tasks into one scheduled unit, the way
    ``Pool.imap`` chunking and Spark partitions amortize per-record
    overhead.
    """
    pool = SimulatedPool(workers=workers, per_task_overhead=per_task_overhead)
    doc_costs = _best_costs(spanner, list(documents), repeats)
    chunks: List[str] = []
    for document in documents:
        for span in splitter_spans(splitter, document):
            chunks.append(span.extract(document))
    chunk_costs = _best_costs(spanner, chunks, repeats)
    batched = [
        sum(chunk_costs[i : i + chunksize])
        for i in range(0, len(chunk_costs), chunksize)
    ]
    return SpeedupResult(
        baseline_makespan=pool.makespan(doc_costs),
        split_makespan=pool.makespan(batched),
        baseline_tasks=len(doc_costs),
        split_tasks=len(chunk_costs),
    )


def _best_costs(spanner: SpannerLike, chunks: Sequence[str],
                repeats: int) -> List[float]:
    best: Optional[List[float]] = None
    for _ in range(max(1, repeats)):
        costs = measure_task_costs(spanner, chunks)
        if best is None:
            best = costs
        else:
            best = [min(a, b) for a, b in zip(best, costs)]
    return best or []
