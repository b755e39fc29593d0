"""The program under test as the ledger drives it: public API only.

Builds the two extraction queries the workloads share and holds the
correctness oracle.  Every output is compared with the generator's
planted spans (exact positions, every document); a deterministic 2 %
sample is also compared with ``evaluate_whole`` on the unsplit
document, so the generator's claim is itself checked against the
paper's reference semantics.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import Q, Spanner, Splitter, evaluate_whole, separator_splitter
from repro.runtime.fast import FastSeparatorSplitter

from benchmarks.ledger.corpora import (
    A_ALPHABET,
    A_PATTERN,
    QZ_ALPHABET,
    QZ_PATTERN,
    SpanPair,
)
from benchmarks.ledger.timing import clock

#: Documents per scheduler pass; also the grouping of ``op`` latencies
#: on the batch workloads, so it is set explicitly.
BATCH_SIZE = 32

#: kind -> (alphabet, pattern, separators, splitter name)
_PROGRAMS = {
    "qz": (QZ_ALPHABET, QZ_PATTERN, ".", "sentences"),
    "a": (A_ALPHABET, A_PATTERN, " .", "tokens"),
}


def build_query(kind: str, workers: int = 0, batch_size: int = BATCH_SIZE,
                chunk_cache_limit: Optional[int] = None):
    """A fresh, uncertified query: ``qz``-runs split at ``.`` or
    ``a``-runs split at `` .``.  The spanner is compiled anew each
    call, so each set-up pays certification and lowering in full."""
    alphabet, pattern, separators, name = _PROGRAMS[kind]
    splitter = Splitter.from_vsa(
        separator_splitter(frozenset(alphabet), separators), name=name,
        executor=FastSeparatorSplitter(separators),
    )
    query = (Q(Spanner.regex(pattern, alphabet, name=f"{kind}-runs"))
             .split_by(splitter).workers(workers).batch_size(batch_size))
    if chunk_cache_limit is not None:
        query = query.chunk_cache_limit(chunk_cache_limit)
    return query


def indexed_setup(query, corpus, path: str) -> Dict[str, float]:
    """Build the binary ``SegmentedIndex`` of ``corpus`` (4 shards) in
    ``path``, attach it to the query's engine *by path*, and run the
    first pass (candidate masks computed, admit memo and chunk cache
    filled).  Returns what each step cost, in raw seconds."""
    engine = query.engine()
    started = clock()
    index = engine.build_index(corpus, query.program(), num_shards=4,
                               format="binary", path=path)
    figures = {"index.build_s": clock() - started,
               "index.segments": index.segment_count}
    index.close()
    # Sized as built, before any edit: it repeats exactly for a seed.
    figures["index.bytes"] = sum(
        os.path.getsize(os.path.join(path, entry))
        for entry in os.listdir(path))
    engine.attach_index(path)
    started = clock()
    query.over(corpus).materialize()
    figures["index.first_pass_s"] = clock() - started
    return figures


def finish_index_metrics(out: Dict[str, object], setup_factor: float,
                         text_bytes: int) -> None:
    """Bring the set-up's index figures in ``out`` to reference speed
    and set the index's size against the ``text_bytes`` it indexes."""
    for name in ("index.build_s", "index.first_pass_s"):
        out[name] /= setup_factor
    out["index.bytes_per_text_byte"] = out["index.bytes"] / text_bytes
    out["index.build_mb_per_s"] = text_bytes / 1e6 / out["index.build_s"]


def stream_pass(query, corpus) -> Tuple[float, List[float], float, Dict]:
    """One bytes-in to tuples-out pass with a cold chunk cache (plan
    cache, pool and index filter stay warm).

    Returns ``(start, marks, end, results)``; ``marks`` holds the
    arrival time of the first document of every ``BATCH_SIZE``-document
    batch, which is when that batch's scheduler pass completed.
    """
    query.engine().chunk_cache.clear()
    marks: List[float] = []
    results = {}
    position = 0
    start = clock()
    for doc_id, found in query.over(corpus).stream():
        if position % BATCH_SIZE == 0:
            marks.append(clock())
        results[doc_id] = found
        position += 1
    return start, marks, clock(), results


def miscounted(results: Mapping[str, Iterable], doc_ids: Sequence[str],
               planted: Sequence[Sequence[SpanPair]]) -> int:
    """Documents with the wrong *number* of tuples (cheap enough to
    run on every pass; positions are checked on the last one)."""
    return sum(len(results[doc_id]) != len(expected)
               for doc_id, expected in zip(doc_ids, planted))


def pairs_of(tuples: Iterable) -> List[SpanPair]:
    """The ``y`` spans of a result set, sorted."""
    return sorted((t["y"].begin, t["y"].end) for t in tuples)


def planted_mismatches(results: Mapping[str, Iterable],
                       doc_ids: Sequence[str],
                       planted: Sequence[Sequence[SpanPair]]) -> int:
    """Documents whose spans differ from the planted ones."""
    return sum(
        pairs_of(results[doc_id]) != sorted(expected)
        for doc_id, expected in zip(doc_ids, planted)
    )


def oracle_mismatches(spanner, texts: Sequence[str],
                      planted: Sequence[Sequence[SpanPair]],
                      every: int = 50) -> int:
    """Sampled documents (every ``every``-th) on which whole-document
    evaluation disagrees with the planted spans."""
    return sum(
        pairs_of(evaluate_whole(spanner, texts[position]))
        != sorted(planted[position])
        for position in range(0, len(texts), every)
    )
