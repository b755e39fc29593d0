"""Execution runtime: parallel, incremental, and planned extraction.

The systems layer motivated by the paper's Introduction: once
split-correctness is certified, evaluation distributes over chunks
(:mod:`repro.runtime.executor`), re-evaluation after edits touches
only revised segments (:mod:`repro.runtime.incremental`), and a
planner picks the best certified splitter automatically
(:mod:`repro.runtime.planner`).

**Compile-then-run.**  Every execution path lowers VSet-automata onto
the compiled kernel of :mod:`repro.automata.compiled` before touching
documents: :func:`repro.runtime.executor.as_runner` pins a spanner to
its integer/bitset artifact, and :meth:`repro.runtime.planner.Planner.
certify` lowers the certified plan's split spanner *at certify time* —
so the lowering happens once per plan (not per chunk, not per worker;
pool workers receive the prebuilt artifact by pickling).  The engine's
plan cache then replays certificates with their artifacts attached.

These primitives operate on one document (or one plain list of
documents) at a time.  For *corpus-scale* extraction — certify once
per program via a plan cache, deduplicate repeated chunks across
documents, shard and batch over a worker pool — use the engine layered
on top of this runtime: :class:`repro.engine.ExtractionEngine` is the
preferred corpus-level entry point.
"""

from repro.runtime.executor import (
    as_runner,
    evaluate_texts_parallel,
    evaluate_whole,
    map_corpus,
    map_corpus_sequential,
    split_by,
    split_by_parallel,
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
from repro.runtime.incremental import IncrementalExtractor
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
    "evaluate_texts_parallel",
    "evaluate_whole",
    "map_corpus",
    "map_corpus_sequential",
    "split_by",
    "split_by_parallel",
    "splitter_chunks",
    "splitter_spans",
    "FastFixedWindowSplitter",
    "FastSentenceSplitter",
    "FastSeparatorSplitter",
    "FastSplitter",
    "FastTokenNgramSplitter",
    "FastWholeSplitter",
    "RegexSpanner",
    "IncrementalExtractor",
    "CertifiedPlan",
    "Plan",
    "Planner",
    "RegisteredSplitter",
    "SplitReport",
]
