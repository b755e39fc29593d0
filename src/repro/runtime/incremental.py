"""Incremental maintenance of extraction results (Introduction).

When a large document undergoes a minor edit — the paper's Wikipedia
model — a split-correct extractor only needs to re-process the revised
segments.  :class:`IncrementalExtractor` materializes the splitter,
caches per-chunk results keyed by chunk *text*, and recomputes only
chunks it has never seen; unchanged segments cost a dictionary lookup.

The same edit discipline maintains the *index* (:mod:`repro.index`):
construct the extractor with ``index=`` (a :class:`repro.index.store.
SegmentedIndex`, or anything with ``update_document``) and give
:meth:`IncrementalExtractor.evaluate` a ``doc_id``, and every
evaluation diffs the document's chunk set against what the index
remembers — new chunk texts land in the index's staged delta segment,
dropped ones are tombstoned, unchanged ones cost nothing.  Re-indexing
cost, like re-extraction cost, is proportional to the edit.

Soundness requires split-correctness of the extractor by the splitter
(the extractor passed in plays the role of ``P_S``); the constructor
can verify this when both are given as VSet-automata.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.spans import SpanTuple
from repro.runtime.executor import SpannerLike, SplitterLike, splitter_chunks
from repro.spanners.vset_automaton import VSetAutomaton


class IncrementalExtractor:
    """Evaluate, then cheaply re-evaluate after edits.

    ``cache_limit`` bounds the number of distinct chunk texts retained
    (least-recently-*used* evicted first — a cache hit refreshes
    recency); ``None`` means unbounded.  ``index`` optionally attaches
    a delta-maintainable corpus index kept in sync per evaluated
    document (see the module docstring).
    """

    def __init__(
        self,
        spanner: SpannerLike,
        splitter: SplitterLike,
        verify: bool = False,
        cache_limit: Optional[int] = None,
        index: Optional[object] = None,
    ) -> None:
        if verify:
            self._verify_split_correct(spanner, splitter)
        if index is not None and not hasattr(index, "update_document"):
            raise ValueError(
                "index must support delta maintenance "
                "(update_document); use repro.index.store.SegmentedIndex"
            )
        self.spanner = spanner
        self.splitter = splitter
        self.cache_limit = cache_limit
        self.index = index
        self._cache: Dict[str, Set[SpanTuple]] = {}
        self.chunks_evaluated = 0
        self.chunks_reused = 0

    @staticmethod
    def _verify_split_correct(
        spanner: SpannerLike, splitter: SplitterLike
    ) -> None:
        if not isinstance(spanner, VSetAutomaton):
            raise ValueError(
                "verification requires the spanner as a VSet-automaton"
            )
        automaton = (
            splitter.automaton(spanner.doc_alphabet)
            if hasattr(splitter, "automaton")
            else splitter
        )
        from repro.core.self_splittability import is_self_splittable

        if not is_self_splittable(spanner, automaton):
            raise ValueError(
                "extractor is not self-splittable by the splitter; "
                "incremental evaluation would change its semantics"
            )

    def evaluate(
        self, document: str, doc_id: Optional[str] = None
    ) -> Set[SpanTuple]:
        """Evaluate on ``document``, reusing cached chunk results.

        With an attached ``index`` and a ``doc_id``, the document's
        chunk set is also diffed into the index (delta segment for new
        texts, tombstones for dropped ones) before returning.
        """
        results: Set[SpanTuple] = set()
        chunk_texts = []
        for span, chunk in splitter_chunks(self.splitter, document):
            chunk_texts.append(chunk)
            local = self._cache.get(chunk)
            if local is None:
                local = set(self.spanner.evaluate(chunk))
                self._store(chunk, local)
                self.chunks_evaluated += 1
            else:
                # LRU refresh: a hit moves the chunk to the young end,
                # so bounded caches evict by recency of *use*, not by
                # insertion order (hot chunks survive edit churn).
                self._cache[chunk] = self._cache.pop(chunk)
                self.chunks_reused += 1
            results.update(t.shift(span) for t in local)
        if self.index is not None and doc_id is not None:
            self.index.update_document(doc_id, chunk_texts)
        return results

    def _store(self, chunk: str, local: Set[SpanTuple]) -> None:
        if chunk in self._cache:
            # Overwrite refreshes recency (mirrors ChunkCache.store).
            del self._cache[chunk]
        elif (self.cache_limit is not None
                and len(self._cache) >= self.cache_limit):
            oldest = next(iter(self._cache))
            del self._cache[oldest]
        self._cache[chunk] = local

    def stats(self) -> Dict[str, int]:
        """Counters for evaluated vs. reused chunks (for benchmarks)."""
        return {
            "evaluated": self.chunks_evaluated,
            "reused": self.chunks_reused,
            "cached_chunks": len(self._cache),
        }


def diff_chunks(
    old: Tuple[str, ...], new: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(added, removed)`` chunk texts between two chunkings.

    Multiset difference in first-occurrence order — the primitive the
    delta-index path shares with anything else that needs to know what
    an edit actually changed.  Unchanged chunks appear in neither side.
    """
    from collections import Counter

    old_counts = Counter(old)
    new_counts = Counter(new)
    added = []
    for text in new:
        if new_counts[text] > old_counts.get(text, 0):
            added.append(text)
            new_counts[text] -= 1
    removed = []
    old_counts = Counter(old)
    new_counts = Counter(new)
    for text in old:
        if old_counts[text] > new_counts.get(text, 0):
            removed.append(text)
            old_counts[text] -= 1
    return tuple(added), tuple(removed)
