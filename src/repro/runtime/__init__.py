"""Execution runtime: splitter executors, the planner, the worker pool.

The systems layer motivated by the paper's Introduction: once
split-correctness is certified, evaluation distributes over chunks.
:mod:`repro.runtime.executor` states the equation on one document
(:func:`evaluate_whole` against :func:`split_by`) and holds the
evaluation step and :class:`~repro.runtime.executor.WorkerPool` the
engine runs chunks with; :mod:`repro.runtime.fast` holds the compiled
splitter scanners; :mod:`repro.runtime.planner` picks the best
certified splitter automatically.

**Compile-then-run.**  VSet-automata are lowered onto the compiled
kernel of :mod:`repro.automata.compiled` before touching documents:
:func:`repro.runtime.executor.as_runner` pins a spanner to its
integer/bitset artifact, and :meth:`repro.runtime.planner.Planner.
certify` lowers the certified plan's split spanner *at certify time* —
so the lowering happens once per plan (not per chunk, not per worker;
forked pool workers inherit the prebuilt artifact).  The engine's
plan cache then replays certificates with their artifacts attached.

Nothing here executes a plan over a corpus.  That is the engine's job
— certify once per program via a plan cache, deduplicate repeated
chunks across documents and across edits, shard and batch over a
persistent worker pool: :class:`repro.engine.ExtractionEngine`, or the
fluent ``Q(...)`` chain on top of it.
"""

from repro.runtime.executor import (
    as_runner,
    evaluate_whole,
    split_by,
    splitter_chunks,
    splitter_spans,
)
from repro.runtime.fast import (
    CompiledSpanner,
    FastFixedWindowSplitter,
    FastSentenceSplitter,
    FastSeparatorSplitter,
    FastSplitter,
    FastTokenNgramSplitter,
    FastWholeSplitter,
    RegexSpanner,
)
from repro.runtime.planner import (
    CertifiedPlan,
    Plan,
    Planner,
    RegisteredSplitter,
    SplitReport,
)

__all__ = [
    "as_runner",
    "CompiledSpanner",
    "evaluate_whole",
    "split_by",
    "splitter_chunks",
    "splitter_spans",
    "FastFixedWindowSplitter",
    "FastSentenceSplitter",
    "FastSeparatorSplitter",
    "FastSplitter",
    "FastTokenNgramSplitter",
    "FastWholeSplitter",
    "RegexSpanner",
    "CertifiedPlan",
    "Plan",
    "Planner",
    "RegisteredSplitter",
    "SplitReport",
]
