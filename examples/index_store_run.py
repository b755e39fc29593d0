"""Binary index storage: build, mmap, edit by delta, reopen, compact.

The storage engine (:mod:`repro.index.store`) persists the trigram
prefilter index as immutable binary segments that open by ``mmap`` —
header parsing only, postings decode lazily per queried gram.  Edits
never write a segment: introduced chunk texts stay *staged*, texts no
longer referenced anywhere get a tombstone (a sound retreat — the
engine falls back to the exact scan for them), and the whole edit is
one fsync'd line of the log (``documents.log``) that reopening
replays.  ``compact()`` seals staged texts and folds everything back
into one clean segment and a ``MANIFEST.json`` + ``documents.json``
snapshot.

The walkthrough mirrors the paper's Wikipedia-edit scenario: index a
corpus once, edit one document, and watch the engine re-evaluate only
the sentence the edit introduced.

Run with:  python examples/index_store_run.py
"""

import os
import shutil
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
    sentences = FastSeparatorSplitter(".")
    registry = [
        RegisteredSplitter(
            "sentences", separator_splitter(ALPHABET, "."),
            priority=1, executor=sentences,
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
    #    index (a staged text + a tombstone, one log line, no new
    #    segment file) and the chunk cache serves everything the edit
    #    left alone.
    journal = os.path.join(path, "documents.log")
    files = sorted(os.listdir(path))
    with open(journal, "rb") as handle:
        lines = handle.read().count(b"\n")
    edited_text = "ab qz cd. ef gh qz. ab ab ab."
    delta = engine.run_delta(Corpus.from_mapping({"doc-0000": edited_text}),
                             program)
    assert sorted(os.listdir(path)) == files  # no new .ris file
    with open(journal, "rb") as handle:
        assert handle.read().count(b"\n") == lines + 1
    print("after edit:",
          delta.stats.chunk_cache_misses, "chunk re-evaluated,",
          index.describe()["staged_texts"], "staged text,",
          index.tombstone_count, "tombstone,",
          index.segment_count, "segments")
    print("  doc-0000 tuples:",
          len(delta.by_document["doc-0000"]))
    print("  on disk:", sorted(os.listdir(path)))

    # 4. Reopen the directory: the manifest, the segments and the log
    #    (the edit's line replayed: its staged text, its tombstone and
    #    its document record) give back the live index.  Hand the
    #    index over to the reopened handle and revert the edit through
    #    it: the diff is against the replayed record, so the index ends
    #    up equal to one built from the original corpus.
    edited = Corpus.from_texts([edited_text] + DOCUMENTS[1:])
    reopened = SegmentedIndex.open(path)
    assert reopened.describe() == index.describe()
    # Both handles resolve every chunk of the edited corpus to the same
    # id — None for the staged text, which no segment holds yet — and
    # count exactly the live (untombstoned or staged) texts.
    chunk_texts = {text for document in edited
                   for text in sentences.chunks(document.text)}
    staged = {text for text in chunk_texts if index.text_id(text) is None}
    assert staged == {" ef gh qz"}
    for text in chunk_texts:
        assert text in reopened
        assert reopened.text_id(text) == index.text_id(text)
    assert index.describe()["distinct_texts"] == len(list(index.texts()))
    expected = engine.run(edited, program).by_document
    engine.close()
    index.close()
    engine = ExtractionEngine(registry, corpus_index=reopened)
    index = reopened
    assert engine.run(edited, program).by_document == expected
    reverted = engine.run_delta(Corpus.from_mapping(
        {"doc-0000": DOCUMENTS[0]}), program)
    rebuilt = engine.build_index(corpus, program)
    assert set(index.texts()) == set(rebuilt.texts())
    rebuilt.close()
    assert reverted.by_document == engine.run(
        Corpus.from_mapping({"doc-0000": DOCUMENTS[0]}),
        program).by_document
    print("reopened and reverted:", index.tombstone_count,
          "tombstone, texts equal a fresh build")

    # 5. Compact: merge live and staged texts into one segment, drop
    #    tombstones, fold the log into the snapshot.  Readers
    #    that mapped the old segments keep working until they
    #    refresh() — POSIX keeps the unlinked inodes alive for them.
    summary = index.compact()
    print("compacted:", summary)
    print("final:", index.describe())
    print("  on disk:", sorted(os.listdir(path)))

    engine.close()
    index.close()
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
