"""Binary index storage: build, mmap, edit by delta, compact.

The storage engine (:mod:`repro.index.store`) persists the trigram
prefilter index as immutable binary segments that open by ``mmap`` —
header parsing only, postings decode lazily per queried gram.  Edits
never rewrite a segment: introduced chunk texts land in a fresh
*delta* segment, texts no longer referenced anywhere get a tombstone
(a sound retreat — the engine falls back to the exact scan for them),
and ``compact()`` folds everything back into one clean segment.

The walkthrough mirrors the paper's Wikipedia-edit scenario: index a
corpus once, edit one document, and watch the engine re-evaluate only
the sentence the edit introduced.

Run with:  python examples/index_store_run.py
"""

import os
import tempfile

from repro import (
    Corpus,
    ExtractionEngine,
    Program,
    SegmentedIndex,
    compile_regex_formula,
)
from repro.runtime import RegisteredSplitter
from repro.runtime.fast import FastSeparatorSplitter
from repro.splitters.builders import separator_splitter

ALPHABET = frozenset("abcdefgh qz.")

DOCUMENTS = [
    "ab qz cd. ef gh ab. ab ab ab.",
    "ef gh. ab cd. qzz ab.",
    "cd cd cd. gh ef gh.",
]


def main() -> None:
    registry = [
        RegisteredSplitter(
            "sentences", separator_splitter(ALPHABET, "."),
            priority=1, executor=FastSeparatorSplitter("."),
        ),
    ]
    spanner = compile_regex_formula(
        ".*(\\.| )y{qz+}(\\.| ).*|y{qz+}(\\.| ).*"
        "|.*(\\.| )y{qz+}|y{qz+}",
        ALPHABET,
    )
    program = Program(spanner, name="qz-runs")
    corpus = Corpus.from_texts(DOCUMENTS)

    workdir = tempfile.mkdtemp(prefix="index-store-")
    path = os.path.join(workdir, "corpus.segs")

    # 1. Build the index in a directory (one segment per shard; no
    #    path would build the same index in memory).
    engine = ExtractionEngine(registry)
    index = engine.build_index(corpus, program, path=path)
    print("built:", index.describe())

    # 2. Reopen by mmap — header-only parse, postings stay on disk
    #    until a gram is actually queried.  The handle pickles as its
    #    path, so another process maps segments instead of copying them.
    index.close()
    index = SegmentedIndex.open(path)
    engine.attach_index(index)
    result = engine.run(corpus, program)
    print("initial run:", result.total_tuples(), "tuples,",
          engine.stats().chunks_pruned, "chunks pruned by the index")

    # 3. Edit one document; run_delta diffs its chunk set into the
    #    index (delta segment + tombstone) and the chunk cache serves
    #    everything the edit left alone.
    before = engine.stats()
    edited = Corpus.from_mapping(
        {"doc-0000": "ab qz cd. ef gh qz. ab ab ab."}
    )
    delta = engine.run_delta(edited, program)
    print("after edit:",
          delta.stats.chunk_cache_misses, "chunk re-evaluated,",
          index.tombstone_count, "tombstone,",
          index.segment_count, "segments")
    print("  doc-0000 tuples:",
          len(delta.by_document["doc-0000"]))

    # 4. Compact: merge live texts into one segment, drop tombstones.
    #    Readers that mapped the old segments keep working until they
    #    refresh() — POSIX keeps the unlinked inodes alive for them.
    summary = index.compact()
    print("compacted:", summary)
    print("final:", index.describe())

    engine.close()
    index.close()


if __name__ == "__main__":
    main()
