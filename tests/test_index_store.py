"""Tests for the index store (:mod:`repro.index.store`): segment
format round-trips, the candidate contract against a definitional
oracle on every backing (memory, directory, reopened, fragmented),
mmap lifecycle (leak-freedom, readers surviving compaction),
edit-delta soundness against full rebuilds, the log (replay, torn
tails, one append per edit, saves surviving SIGKILL), and the
satellites that landed with it (typed load errors, explain()
surfacing, CLI subcommands)."""

import json
import os
import random
import subprocess
import sys
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.engine import Corpus, ExtractionEngine, Program
from repro.errors import IndexFormatError, ReproError
from repro.index import FactorSet, IndexFilter, SegmentedIndex, factors_of
from repro.index.store import (
    Segment,
    encode_segment,
    text_digest,
    write_segment,
)
from repro.query import Q, Spanner, Splitter
from repro.runtime import RegisteredSplitter
from repro.runtime.fast import FastSeparatorSplitter
from repro.splitters.builders import separator_splitter

from tests.reference import (
    admitted_texts,
    reference_candidates,
    reference_segment_text_id,
    reference_text_id,
)

ALPHA = frozenset("abcdefgh qz.")

QZ_PATTERN = (".*(\\.| )y{qz+}(\\.| ).*|y{qz+}(\\.| ).*"
              "|.*(\\.| )y{qz+}|y{qz+}")

CORPUS_TEXTS = [
    "ab qz cd. ef gh ab. ab ab ab.",
    "cd cd cd. ef ef ef.",
    "qzz ab. gh qz.",
    "",
    "abcd efgh.",
]


def qz_spanner():
    return Spanner.regex(QZ_PATTERN, ALPHA, name="qz")


def sentence_registry():
    return [
        RegisteredSplitter(
            "sentences", separator_splitter(ALPHA, "."),
            priority=1, executor=FastSeparatorSplitter("."),
        ),
    ]


def sentence_splitter():
    return Splitter.named("sentences", ALPHA)


@pytest.fixture(params=["memory", "directory"])
def new_index(request, tmp_path):
    """``new_index(splitter=None)``: an empty index of each backing."""
    made = []

    def create(splitter=None):
        directory = (None if request.param == "memory"
                     else str(tmp_path / f"index-{len(made)}.segs"))
        made.append(SegmentedIndex.create(directory, splitter=splitter))
        return made[-1]

    yield create
    for index in made:
        index.close()


# ----------------------------------------------------------------------
# Segment format
# ----------------------------------------------------------------------


class TestSegmentFormat:
    def test_round_trip_texts_and_lookups(self, tmp_path):
        path = str(tmp_path / "seg.ris")
        texts = ["ab qz cd", "", "qq", "ef gh", "ab qz cd", "zz. ab"]
        summary = write_segment(path, texts, splitter="sentences")
        assert summary["texts"] == len(set(texts))
        with Segment(path) as segment:
            assert sorted(segment.texts()) == sorted(set(texts))
            for text in set(texts):
                tid = reference_segment_text_id(segment, text)
                assert segment.text(tid) == text
                assert segment.text_length(tid) == len(text)
            assert reference_segment_text_id(segment, "not indexed") is None
            rows = list(segment.digest_rows())
            assert rows == sorted(rows)
            assert {digest: segment.text(tid) for digest, tid in rows} \
                == {text_digest(text): text for text in set(texts)}
            segment.verify()

    def test_file_and_memory_image_are_the_same_segment(self, tmp_path):
        path = str(tmp_path / "seg.ris")
        texts = ["ab qz cd", "qq", "ef gh qz", "aaaa", "."]
        written = write_segment(path, texts, splitter="sentences")
        image, summary = encode_segment(texts, splitter="sentences")
        assert open(path, "rb").read() == image
        assert written == {**summary, "path": path}
        with Segment(path) as mapped, Segment(image) as resident:
            assert resident.path is None
            assert list(resident.texts()) == list(mapped.texts())
            for gram in ["a", "q", "qz", " qz", "zz", "xyz"]:
                assert resident.posting_mask(gram) \
                    == mapped.posting_mask(gram)
            assert resident.short_mask == mapped.short_mask
            resident.verify()
        assert resident.closed
        # One set of header checks guards both.
        for broken in (image[:len(image) // 2], b"XXXX" + image[4:], b""):
            with pytest.raises(IndexFormatError):
                Segment(broken)

    def test_bitmap_and_varint_encodings_both_exercised(self, tmp_path):
        path = str(tmp_path / "seg.ris")
        # 'a' appears everywhere (dense -> bitmap); each suffix gram is
        # rare (sparse -> varint).
        texts = [f"aaaa{suffix}" for suffix in
                 "bb cc dd ee ff gg hh".split()] * 2
        summary = write_segment(path, texts)
        assert summary["bitmap_postings"] > 0
        assert summary["varint_postings"] > 0
        with Segment(path) as segment:
            for text in set(texts):
                tid = reference_segment_text_id(segment, text)
                for gram in {text[i:i + 2] for i in range(len(text) - 1)}:
                    assert (segment.posting_mask(gram) >> tid) & 1

    def test_open_is_lazy_header_only(self, tmp_path):
        path = str(tmp_path / "seg.ris")
        write_segment(path, [f"ab qz {n:04d}" for n in range(500)])
        segment = Segment(path)
        # No posting or text materialized yet.
        assert segment._masks == {}
        assert len(segment) == 500
        segment.close()

    def test_truncated_and_corrupt_files_raise_typed(self, tmp_path):
        path = str(tmp_path / "seg.ris")
        write_segment(path, ["ab qz cd"])
        raw = open(path, "rb").read()
        truncated = str(tmp_path / "trunc.ris")
        with open(truncated, "wb") as handle:
            handle.write(raw[:len(raw) // 2])
        with pytest.raises(IndexFormatError):
            Segment(truncated)
        bad_magic = str(tmp_path / "magic.ris")
        with open(bad_magic, "wb") as handle:
            handle.write(b"XXXX" + raw[4:])
        with pytest.raises(IndexFormatError):
            Segment(bad_magic)
        empty = str(tmp_path / "empty.ris")
        open(empty, "wb").close()
        with pytest.raises(IndexFormatError):
            Segment(empty)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "seg.ris")
        write_segment(path, ["ab", "cd"])
        assert os.listdir(tmp_path) == ["seg.ris"]


# ----------------------------------------------------------------------
# The candidate contract, on every backing
# ----------------------------------------------------------------------


def factor_sets_st():
    letters = sorted(ALPHA)
    return st.builds(
        FactorSet,
        st.just(ALPHA),
        required=st.lists(st.text(letters, min_size=1, max_size=5),
                          max_size=2).map(tuple),
        trigrams=st.none() | st.frozensets(
            st.text(letters, min_size=3, max_size=3), max_size=3),
        min_length=st.integers(0, 6),
        empty=st.booleans(),
    )


class TestCandidateContract:
    @given(
        st.lists(st.text(sorted(ALPHA), max_size=12), max_size=10),
        factor_sets_st(),
    )
    def test_every_backing_admits_what_the_definition_admits(
            self, tmp_path_factory, texts, factors):
        directory = str(tmp_path_factory.mktemp("store") / "index.segs")
        half = len(texts) // 2
        edited = texts[1:half] + ["zz qz added"]

        def fragmented(index):
            # Two sealed segments, then an edit flushed as a third
            # (delta) segment (the added text) and a tombstone
            # (document a's first text, unless it is still referenced).
            # An edit alone only stages: masks cover sealed texts.
            for doc_id, part in (("a", texts[:half]), ("b", texts[half:])):
                index.add_document(part, doc_id=doc_id)
                index.flush()
            index.update_document("a", edited)
            index.flush()
            return index

        memory = SegmentedIndex.create()
        memory.add_document(texts)
        memory.flush()
        on_disk = SegmentedIndex.create(directory)
        on_disk.add_document(texts)
        on_disk.flush()
        backings = {
            "memory": (memory, set(texts)),
            "directory": (on_disk, set(texts)),
            "reopened": (SegmentedIndex.open(directory), set(texts)),
            "fragmented": (fragmented(SegmentedIndex.create()),
                           set(edited) | set(texts[half:])),
        }
        for name, (index, live) in backings.items():
            with index:
                assert set(index.texts()) == live, name
                admitted = admitted_texts(index, factors)
                assert admitted == reference_candidates(live, factors), \
                    name
                assert admitted >= {text for text in live
                                    if factors.admits(text)}, name

    def test_extraction_results_identical_on_every_backing(self, tmp_path):
        splitter = sentence_splitter()
        corpus = Corpus.from_texts(CORPUS_TEXTS)
        plain = Q(qz_spanner()).split_by("sentences") \
            .over(CORPUS_TEXTS).materialize()
        segs = str(tmp_path / "corpus.segs")
        SegmentedIndex.build(corpus, splitter, segs).close()
        for index in (SegmentedIndex.build(corpus, splitter), segs):
            query = Q(qz_spanner()).split_by("sentences").indexed(index)
            results = query.over(CORPUS_TEXTS)
            assert results.materialize() == plain
            assert results.stats().chunks_pruned > 0
            query.engine().index.close()


# ----------------------------------------------------------------------
# mmap lifecycle
# ----------------------------------------------------------------------


class TestMmapLifecycle:
    def build(self, tmp_path):
        return SegmentedIndex.build(
            Corpus.from_texts(CORPUS_TEXTS), sentence_splitter(),
            str(tmp_path / "corpus.segs"),
        )

    def test_close_releases_mappings_and_unlink_succeeds(self, tmp_path):
        index = self.build(tmp_path)
        factors = factors_of(qz_spanner().vsa())
        assert index.candidates(factors) is not None
        index.close()
        assert index.candidates(factors) is None
        # Every file (segments included) is deletable: nothing holds a
        # buffer export over the closed mappings.
        for name in os.listdir(tmp_path / "corpus.segs"):
            os.unlink(tmp_path / "corpus.segs" / name)

    def test_double_close_is_idempotent(self, tmp_path):
        index = self.build(tmp_path)
        index.close()
        index.close()
        segment_path = str(tmp_path / "seg.ris")
        write_segment(segment_path, ["ab"])
        segment = Segment(segment_path)
        segment.close()
        segment.close()
        assert segment.closed

    def test_concurrent_reader_survives_compaction(self, tmp_path):
        index = self.build(tmp_path)
        reader = SegmentedIndex.open(str(tmp_path / "corpus.segs"))
        factors = factors_of(qz_spanner().vsa())
        before = admitted_texts(reader, factors)
        index.update_document("doc-0002", ["replacement qz."])
        index.compact()
        # The reader still serves its (pre-compact) generation from the
        # unlinked inodes, then refreshes onto the new one.
        assert admitted_texts(reader, factors) == before
        assert reader.refresh() is True
        assert reader.generation == index.generation
        assert admitted_texts(reader, factors) \
            == admitted_texts(index, factors)
        reader.close()
        index.close()

    def test_reader_replays_the_log_begun_after_a_compaction(self,
                                                             tmp_path):
        directory = str(tmp_path / "corpus.segs")
        index = SegmentedIndex.create(directory, splitter="sentences")
        index.add_document(["ab qz cd", " gh", "cd cd"], doc_id="doc-0000")
        index.flush()
        reader = SegmentedIndex.open(directory)
        index.compact()
        assert reader.refresh() is True
        # The compaction removed the log; the edits below start a new
        # one, which may reuse the old file's inode.  The reader must
        # replay it from byte 0, not from where the old one ended.
        assert reader._journal.position is None
        index.remove_document("doc-0000")
        index.add_document([], doc_id="doc-0000")
        index.remove_document("doc-0000")
        assert reader.refresh() is True
        assert reader.describe()["generation"] \
            == index.describe()["generation"]
        assert sorted(reader.texts()) == sorted(index.texts())
        reader.close()
        index.close()

    def test_compact_drops_tombstones_and_old_segments(self, tmp_path):
        index = self.build(tmp_path)
        index.update_document("doc-0000", ["fresh qz text."])
        index.flush()
        assert index.segment_count > 1
        assert index.tombstone_count > 0
        assert os.path.exists(tmp_path / "corpus.segs" / "documents.log")
        summary = index.compact()
        assert summary["tombstones_dropped"] > 0
        assert index.segment_count == 1
        assert index.tombstone_count == 0
        index.close()
        # One segment, and no temp or stale file besides the manifest
        # and the document table's snapshot: the journal is folded in.
        on_disk = os.listdir(tmp_path / "corpus.segs")
        assert len([name for name in on_disk if name.endswith(".ris")]) == 1
        assert [name for name in on_disk if not name.endswith(".ris")
                and name not in ("MANIFEST.json", "documents.json")] == []

    def test_pickle_ships_path_not_postings(self, tmp_path):
        import pickle

        index = self.build(tmp_path)
        blob = pickle.dumps(index)
        assert len(blob) < 500  # a path, not posting payloads
        clone = pickle.loads(blob)
        factors = factors_of(qz_spanner().vsa())
        assert admitted_texts(clone, factors) \
            == admitted_texts(index, factors)
        clone.close()
        index.close()

    def test_workers_with_attached_index_match_baseline(self, tmp_path):
        index = self.build(tmp_path)
        engine = ExtractionEngine(sentence_registry(), workers=2,
                                  corpus_index=index)
        program = Program.from_query(qz_spanner())
        try:
            baseline = ExtractionEngine(sentence_registry())
            expected = baseline.run(
                Corpus.from_texts(CORPUS_TEXTS), program).by_document
            result = engine.run(Corpus.from_texts(CORPUS_TEXTS), program)
            assert result.by_document == expected
        finally:
            engine.close()
            index.close()


# ----------------------------------------------------------------------
# Edit-delta soundness
# ----------------------------------------------------------------------


class TestEditDelta:
    @staticmethod
    def admits_via(index, factors, text):
        """Mirror :meth:`IndexFilter._admits_uncached`: the sound
        admit decision an engine would make for ``text`` over this
        index (tombstoned/unseen texts fall back to the exact scan)."""
        mask = index.candidates(factors)
        tid = index.text_id(text)
        if (mask is not None and tid is not None
                and not (mask >> tid) & 1
                and factors.alphabet.issuperset(text)):
            return False
        return factors.admits(text)

    def test_edit_equals_full_rebuild(self, tmp_path):
        splitter = sentence_splitter()
        edited = list(CORPUS_TEXTS)
        edited[0] = "ab qz cd. ef gh qz. ab ab ab."  # one sentence edited
        index = SegmentedIndex.build(
            Corpus.from_texts(CORPUS_TEXTS), splitter,
            str(tmp_path / "live.segs"),
        )
        index.update_document("doc-0000", splitter.chunks(edited[0]))
        rebuilt = SegmentedIndex.build(
            Corpus.from_texts(edited), splitter,
            str(tmp_path / "rebuilt.segs"),
        )
        factors = factors_of(qz_spanner().vsa())
        # For every chunk of the edited corpus, the delta-maintained
        # index makes the same (sound) admit decision a full rebuild
        # makes — extraction results are therefore identical.
        for document in edited:
            for chunk in splitter.chunks(document):
                assert self.admits_via(index, factors, chunk) \
                    == self.admits_via(rebuilt, factors, chunk), chunk
        # The dropped sentence is tombstoned (scan fallback), the new
        # one staged (live, but no id) until a flush seals it.
        assert index.text_id("ef gh ab.") is None
        assert "ef gh qz." in index
        assert index.text_id("ef gh qz.") is None
        assert index.tombstone_count >= 1
        index.flush()
        assert index.text_id("ef gh qz.") is not None
        index.close()
        rebuilt.close()

    def test_run_delta_reevaluates_only_changed_chunks(self, tmp_path):
        splitter = sentence_splitter()
        engine = ExtractionEngine(sentence_registry())
        program = Program.from_query(qz_spanner())
        index = engine.build_index(
            Corpus.from_texts(CORPUS_TEXTS), program,
            path=str(tmp_path / "corpus.segs"),
        )
        engine.attach_index(index)
        engine.run(Corpus.from_texts(CORPUS_TEXTS), program)
        segments = index.segment_count
        edited = "ab qz cd. ef gh qz. ab ab ab."
        delta_corpus = Corpus.from_mapping({"doc-0000": edited})
        result = engine.run_delta(delta_corpus, program)
        # Only the edited sentence misses the chunk cache.
        assert result.stats.chunk_cache_misses == 1
        baseline = ExtractionEngine(sentence_registry())
        expected = baseline.run(delta_corpus, program).by_document
        assert result.by_document == expected
        # And the index was maintained by one log line: the new
        # sentence staged (no delta segment), a tombstone for the
        # dropped one.
        assert index.segment_count == segments
        assert index.tombstone_count >= 1
        # The registry's fast splitter keeps the leading space and
        # drops the separator, unlike Splitter.named("sentences").
        assert " ef gh qz" in index
        assert index.text_id(" ef gh qz") is None
        index.flush()
        assert index.text_id(" ef gh qz") is not None
        engine.close()
        index.close()

    def test_run_delta_requires_an_attached_index(self):
        engine = ExtractionEngine(sentence_registry())
        with pytest.raises(ValueError):
            engine.run_delta(Corpus.from_texts(["ab."]),
                             Program.from_query(qz_spanner()))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_run_delta_on_auto_built_memory_index_equals_rebuild(
            self, workers):
        query = Q(qz_spanner()).split_by("sentences").workers(workers) \
            .indexed()
        query.over(CORPUS_TEXTS).materialize()
        engine = query.engine()
        assert engine.index.directory is None
        edited = list(CORPUS_TEXTS)
        edited[0] = "ab qz cd. ef gh qz. ab ab ab."
        edited[2] = "gh gh. ab."
        corpus = Corpus.from_texts(edited)
        try:
            result = engine.run_delta(corpus, query.program())
            assert engine.index.tombstone_count >= 1
            rebuilt = Q(qz_spanner()).split_by("sentences").indexed()
            expected = rebuilt.over(edited).materialize()
            assert result.by_document == expected
            assert result.by_document == {
                document.doc_id: qz_spanner().vsa().evaluate(document.text)
                for document in corpus
            }
            # Both indexes now make the same admit decision on every
            # chunk of the edited corpus.
            factors = factors_of(qz_spanner().vsa())
            for document in edited:
                for chunk in sentence_splitter().chunks(document):
                    assert self.admits_via(engine.index, factors, chunk) \
                        == self.admits_via(rebuilt.engine().index,
                                           factors, chunk), chunk
        finally:
            engine.close()

    def test_build_index_format_keyword_selects_nothing(self, tmp_path):
        # Accepted only for the frozen benchmark harness: ``path``
        # alone decides where the index lives.
        engine = ExtractionEngine(sentence_registry())
        program = Program.from_query(qz_spanner())
        corpus = Corpus.from_texts(CORPUS_TEXTS)
        spelled = engine.build_index(corpus, program, format="binary",
                                     path=str(tmp_path / "a.segs"))
        plain = engine.build_index(corpus, program,
                                   path=str(tmp_path / "b.segs"))
        memory = engine.build_index(corpus, program)
        assert memory.directory is None
        assert set(spelled.texts()) == set(plain.texts()) \
            == set(memory.texts())
        for index in (spelled, plain, memory):
            index.close()
        for arguments in ({"format": "binary"}, {"format": "json"},
                          {"format": "json", "path": str(tmp_path / "c")}):
            with pytest.raises(ValueError):
                engine.build_index(corpus, program, **arguments)

    def test_remove_document_tombstones_and_refcounts(self, new_index):
        index = new_index()
        index.add_document(["shared qz", "only one"], doc_id="one")
        index.add_document(["shared qz", "only two"], doc_id="two")
        index.flush()
        assert index.remove_document("one") == 1
        # "shared qz" still referenced by doc two: not tombstoned.
        assert index.text_id("shared qz") is not None
        assert index.text_id("only one") is None
        with pytest.raises(KeyError):
            index.remove_document("one")

    def test_text_staged_and_released_in_one_batch_is_indexed_later(
            self, new_index):
        # Regression: the release used to leave a tombstone no segment
        # backed; the later reference then "revived" a payload that
        # was never written and the text stayed unindexed for good.
        index = new_index()
        with index.batch():
            index.add_document(["X", "keep"], doc_id="d")
            index.update_document("d", ["Y", "keep"])
        assert index.tombstone_count == 0
        assert set(index.texts()) == {"Y", "keep"}
        index.update_document("d", ["X", "keep"])
        assert "X" in index
        assert "Y" not in index
        index.compact()
        assert set(index.texts()) == {"X", "keep"}


# ----------------------------------------------------------------------
# The document table: snapshot + journal
# ----------------------------------------------------------------------


JOURNAL_DOC_IDS = ["doc-0000", "doc-0001", "doc-0002"]
JOURNAL_CHUNKS = ["ab qz cd", " ef gh qz", " ab ab ab", "cd cd", " gh", ""]


def journal_ops_st():
    texts = st.lists(st.sampled_from(JOURNAL_CHUNKS), max_size=4)
    doc_ids = st.sampled_from(JOURNAL_DOC_IDS)
    return st.lists(st.one_of(
        st.tuples(st.just("add"), st.none() | doc_ids, texts),
        st.tuples(st.just("update"), doc_ids, texts),
        st.tuples(st.just("remove"), doc_ids),
        st.tuples(st.sampled_from(["compact", "reopen", "refresh",
                                   "flush"])),
    ), max_size=12)


def document_table(index):
    index._load_documents()
    return index._doc_records, index._refcounts


def directory_bytes(directory):
    return {name: (directory / name).read_bytes()
            for name in os.listdir(directory)}


def bytes_written(before, after):
    """Bytes an operation wrote into a directory: a new or rewritten
    file counts whole, a file that only grew counts its new tail."""
    total = 0
    for name, data in after.items():
        old = before.get(name)
        if old == data:
            continue
        total += (len(data) - len(old) if old is not None
                  and data.startswith(old) else len(data))
    return total


class TestDocumentJournal:
    def journalled(self, tmp_path):
        """A directory index whose journal holds the build, an edit
        and a removal."""
        index = SegmentedIndex.build(
            Corpus.from_texts(CORPUS_TEXTS), sentence_splitter(),
            str(tmp_path / "corpus.segs"),
        )
        index.update_document("doc-0000", ["fresh qz text."])
        index.remove_document("doc-0001")
        return index

    @staticmethod
    def assert_same(disk, memory, factors):
        counted = ("documents", "chunk_instances", "distinct_texts",
                   "segments", "tombstones", "staged_texts")
        assert ({key: disk.describe()[key] for key in counted}
                == {key: memory.describe()[key] for key in counted})
        assert set(disk.texts()) == set(memory.texts())
        assert admitted_texts(disk, factors) \
            == admitted_texts(memory, factors)
        assert document_table(disk) == document_table(memory)

    @given(journal_ops_st(),
           st.lists(st.text(sorted(ALPHA), max_size=16),
                    min_size=len(JOURNAL_DOC_IDS),
                    max_size=len(JOURNAL_DOC_IDS)))
    def test_journal_replays_to_the_memory_index(
            self, tmp_path_factory, ops, edits):
        directory = str(tmp_path_factory.mktemp("journal") / "index.segs")
        factors = factors_of(qz_spanner().vsa())
        memory = SegmentedIndex.create(splitter="sentences")
        disk = SegmentedIndex.create(directory, splitter="sentences")
        # Opened before any edit: on "refresh" it catches up with the
        # directory and takes over as the writer.
        reader = SegmentedIndex.open(directory)
        assert memory._journal is None
        tracked = set()
        try:
            for op, *args in ops:
                if op == "add":
                    doc_id, texts = args
                    for index in (memory, disk):
                        index.add_document(texts, doc_id=doc_id)
                    if doc_id is not None:
                        tracked.add(doc_id)
                elif op == "update":
                    for index in (memory, disk):
                        index.update_document(*args)
                    tracked.add(args[0])
                elif op == "remove":
                    if args[0] in tracked:
                        for index in (memory, disk):
                            index.remove_document(*args)
                        tracked.discard(args[0])
                elif op == "compact":
                    memory.compact()
                    disk.compact()
                elif op == "flush":
                    assert memory.flush() == disk.flush()
                elif op == "reopen":
                    # Staged texts included: the log holds them.
                    disk.close()
                    disk = SegmentedIndex.open(directory)
                else:
                    assert memory.refresh() is False
                    if reader.refresh():
                        disk.close()
                        disk, reader = reader, SegmentedIndex.open(directory)
                self.assert_same(disk, memory, factors)
                for index in (disk, memory):
                    assert index.describe()["distinct_texts"] \
                        == len(list(index.texts()))
            # Reopened, the replayed table drives run_delta: it must
            # equal a full run of the edited corpus without an index.
            disk.close()
            disk = SegmentedIndex.open(directory)
            corpus = Corpus.from_mapping(dict(zip(JOURNAL_DOC_IDS, edits)))
            program = Program.from_query(qz_spanner())
            engine = ExtractionEngine(sentence_registry(), corpus_index=disk)
            try:
                result = engine.run_delta(corpus, program)
            finally:
                engine.close()
            expected = ExtractionEngine(sentence_registry()).run(
                corpus, program).by_document
            assert result.by_document == expected
        finally:
            for index in (memory, disk, reader):
                index.close()

    @pytest.mark.parametrize("in_batch", [False, True])
    def test_journal_left_by_a_crashed_compaction_changes_nothing(
            self, tmp_path, monkeypatch, in_batch):
        from repro.index.store import segmented

        live = self.journalled(tmp_path)
        journal = tmp_path / "corpus.segs" / "documents.log"
        left = []
        remove = segmented._Journal.remove

        def crash_point(self):
            # The snapshot has landed; the journal is about to go.
            left.append(journal.read_bytes())
            remove(self)

        monkeypatch.setattr(segmented._Journal, "remove", crash_point)
        if in_batch:
            # A pending change must reach the journal before the
            # snapshot, or replaying the old lines would undo it.
            with live.batch():
                live.update_document("doc-0002", ["gh qz."])
                live.compact()
        else:
            live.compact()
        assert not journal.exists()
        journal.write_bytes(left[0])
        reopened = SegmentedIndex.open(live.directory)
        assert reopened.describe() == live.describe()
        assert document_table(reopened) == document_table(live)
        reopened.close()
        journal.unlink()
        snapshot_only = SegmentedIndex.open(live.directory)
        assert document_table(snapshot_only) == document_table(live)
        snapshot_only.close()
        live.close()

    def test_one_edit_writes_bytes_independent_of_corpus_size(
            self, tmp_path):
        written = {}
        for size in (40, 400):
            directory = tmp_path / f"corpus-{size}.segs"
            index = SegmentedIndex.create(str(directory))
            with index.batch():
                for number in range(size):
                    index.add_document(
                        [f"document {number} sentence {k}."
                         for k in range(4)],
                        doc_id=f"doc-{number}",
                    )
            before = directory_bytes(directory)
            index.update_document("doc-0", [
                "document 0 sentence 0.", "an edited sentence.",
                "document 0 sentence 2.", "document 0 sentence 3.",
            ])
            after = directory_bytes(directory)
            index.close()
            # Only compact() writes the whole table.
            assert "documents.json" not in after
            written[size] = bytes_written(before, after)
        assert written[400] < 2 * written[40], written

    def test_an_edit_is_one_log_append(self, tmp_path, monkeypatch):
        from repro.index.store import segmented

        index = self.journalled(tmp_path)
        directory = tmp_path / "corpus.segs"
        journal = directory / "documents.log"
        before = journal.read_bytes()
        files = sorted(os.listdir(directory))
        segments = index.segment_count
        staged = index.describe()["staged_texts"]
        calls = []

        def spy(name, real):
            def called(*args):
                calls.append(name)
                return real(*args)
            return called

        monkeypatch.setattr(segmented, "_atomic_write_json", spy(
            "_atomic_write_json", segmented._atomic_write_json))
        monkeypatch.setattr(segmented, "write_segment", spy(
            "write_segment", segmented.write_segment))
        monkeypatch.setattr(os, "fsync", spy("fsync", os.fsync))
        index.update_document("doc-0002", ["a new qz sentence."])
        assert calls == ["fsync"]
        assert index.segment_count == segments
        assert index.describe()["staged_texts"] == staged + 1
        assert sorted(os.listdir(directory)) == files
        after = journal.read_bytes()
        assert after.startswith(before)
        assert after[len(before):].count(b"\n") == 1
        assert after.endswith(b"\n")
        index.close()

    def test_manifest_is_the_one_shot_json_encoding(self, tmp_path):
        index = SegmentedIndex.create(str(tmp_path / "segs"),
                                      splitter="sätze")
        index.add_document(["ab qz."], doc_id="d")
        index.close()
        raw = (tmp_path / "segs" / "MANIFEST.json").read_bytes()
        payload = json.loads(raw)
        assert payload["splitter"] == "sätze"
        assert raw == json.dumps(payload, ensure_ascii=False,
                                 sort_keys=True).encode("utf-8")

    def test_a_torn_final_line_is_dropped_then_cut_off(self, tmp_path):
        live = self.journalled(tmp_path)
        journal = tmp_path / "corpus.segs" / "documents.log"
        reader = SegmentedIndex.open(live.directory)
        complete = journal.read_bytes()
        with open(journal, "ab") as handle:
            # A save that has not returned: no trailing newline.
            handle.write(b'{"documents": {"doc-0002": nu')
        torn = journal.read_bytes()
        # Readers never touch it: the line may be a live writer's.
        reopened = SegmentedIndex.open(live.directory)
        assert reader.refresh() is False
        assert journal.read_bytes() == torn
        assert reopened.describe() == reader.describe() == live.describe()
        live.close()
        # The writer's next mutation cuts it off, then appends.
        reopened.update_document("doc-0002", ["gh qz."])
        after = journal.read_bytes()
        assert after.startswith(complete) and not after.startswith(torn)
        assert reader.refresh() is True
        assert reader.describe() == reopened.describe()
        again = SegmentedIndex.open(reopened.directory)
        assert document_table(again) == document_table(reopened)
        lines = after.split(b"\n")
        assert lines[-1] == b""
        assert all(isinstance(json.loads(part), dict)
                   for line in lines[:-1] for part in line.split(b"\t")
                   if part)
        for index in (again, reopened, reader):
            index.close()

    def test_a_bad_index_part_fails_the_open(self, tmp_path):
        self.journalled(tmp_path).close()
        journal = tmp_path / "corpus.segs" / "documents.log"
        with open(journal, "ab") as handle:
            handle.write(b'{"generation": nu\t\n')
        with pytest.raises(IndexFormatError) as info:
            SegmentedIndex.open(str(tmp_path / "corpus.segs"))
        assert info.value.path == str(journal)

    def test_create_starts_an_empty_table_over_orphaned_files(
            self, tmp_path):
        directory = tmp_path / "corpus.segs"
        old = self.journalled(tmp_path)
        old.compact()
        old.update_document("doc-0002", ["gh qz."])
        old.close()
        (directory / "MANIFEST.json").unlink()
        fresh = SegmentedIndex.create(str(directory))
        fresh.add_document(["ab qz."], doc_id="only")
        fresh.close()
        reopened = SegmentedIndex.open(str(directory))
        records, _counts = document_table(reopened)
        assert list(records) == ["only"]
        reopened.close()

    @pytest.mark.parametrize("where, bad", [
        ("first", b'{"documents": {"doc-0002": nu'),
        ("last", b'{"documents": {"doc-0002": nu'),
        ("last", b"[1, 2]"),
        ("first", b""),
    ])
    def test_any_other_bad_line_is_a_typed_error(self, tmp_path, where,
                                                 bad):
        self.journalled(tmp_path).close()
        journal = tmp_path / "corpus.segs" / "documents.log"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines.insert(0 if where == "first" else len(lines), bad + b"\n")
        journal.write_bytes(b"".join(lines))
        # Opening reads the manifest only; the first edit loads the
        # table and meets the line.
        index = SegmentedIndex.open(str(tmp_path / "corpus.segs"))
        with pytest.raises(IndexFormatError) as info:
            index.update_document("doc-0002", ["gh qz."])
        assert info.value.path == str(journal)
        assert str(journal) in str(info.value)
        index.close()


# ----------------------------------------------------------------------
# Crash safety: a save that returned survives SIGKILL
# ----------------------------------------------------------------------


CRASH_DOC_IDS = [f"doc-{number:04d}" for number in range(5)]
CRASH_CHUNKS = JOURNAL_CHUNKS + ["qz", "ab qz", " gh gh qz", " cd ab"]
CRASH_CHILD = """
import sys
from tests.test_index_store import crash_child
crash_child(sys.argv[1], int(sys.argv[2]))
"""


def crash_rounds(seed):
    """Endless seeded rounds for one directory index: edits (add,
    update, remove a tracked document) mixed with flushes and
    compactions."""
    rng = random.Random(seed)
    tracked = set()
    while True:
        roll = rng.random()
        if roll < 0.05:
            yield ("compact",)
        elif roll < 0.15:
            yield ("flush",)
        elif roll < 0.3 and tracked:
            doc_id = rng.choice(sorted(tracked))
            tracked.discard(doc_id)
            yield ("remove", doc_id)
        else:
            doc_id = rng.choice(CRASH_DOC_IDS)
            tracked.add(doc_id)
            yield (rng.choice(["add", "update"]), doc_id,
                   rng.choices(CRASH_CHUNKS, k=rng.randint(0, 4)))


def apply_round(index, round_):
    op, *args = round_
    if op == "add":
        index.add_document(args[1], doc_id=args[0])
    elif op == "update":
        index.update_document(*args)
    elif op == "remove":
        index.remove_document(args[0])
    else:
        getattr(index, op)()


def crash_child(directory, seed):
    """Apply :func:`crash_rounds` to a new index in ``directory``,
    printing each round's number once its save returned, until
    killed."""
    index = SegmentedIndex.create(directory, splitter="sentences")
    for number, round_ in enumerate(crash_rounds(seed), 1):
        apply_round(index, round_)
        print(number, flush=True)


def index_state(index):
    described = index.describe()
    del described["directory"]
    return (described, sorted(index.texts()),
            {text: index.text_id(text) for text in CRASH_CHUNKS},
            document_table(index))


class TestCrashSafety:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_returned_save_survives_sigkill(self, tmp_path, seed):
        directory = str(tmp_path / "index.segs")
        child = subprocess.Popen(
            [sys.executable, "-c", CRASH_CHILD, directory, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        watchdog = threading.Timer(60, child.kill)
        watchdog.start()
        rng = random.Random(seed)
        target = rng.randint(10, 120)
        printed = 0
        try:
            for line in child.stdout:
                printed = int(line)
                if printed >= target:
                    break
            # Kill it somewhere inside a later round.
            time.sleep(rng.random() * 0.005)
            child.kill()
            # The loop above may have buffered lines past ``target``:
            # read the rest through the same file object, not through
            # communicate(), which reads the raw pipe and would drop them.
            rest = child.stdout.read()
            errors = child.stderr.read()
            child.wait(timeout=30)
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
        assert printed >= target, errors.decode()
        printed = max([printed] + [int(line) for line in rest.split()])
        reopened = SegmentedIndex.open(directory)
        memory = SegmentedIndex.create(splitter="sentences")
        rounds = crash_rounds(seed)
        for _ in range(printed):
            apply_round(memory, next(rounds))
        # Every printed round is there; the one in flight either whole
        # or not at all.
        state = index_state(reopened)
        if state != index_state(memory):
            apply_round(memory, next(rounds))
            assert state == index_state(memory)
        corpus = Corpus.from_mapping({
            doc_id: text for doc_id, text in zip(
                CRASH_DOC_IDS, CORPUS_TEXTS)})
        program = Program.from_query(qz_spanner())
        engine = ExtractionEngine(sentence_registry(),
                                  corpus_index=reopened)
        try:
            result = engine.run_delta(corpus, program)
        finally:
            engine.close()
            reopened.close()
        assert result.by_document == ExtractionEngine(
            sentence_registry()).run(corpus, program).by_document


# ----------------------------------------------------------------------
# Text lookup: the digest map, and the admit memo that outlives flushes
# ----------------------------------------------------------------------


LOOKUP_CHUNKS = JOURNAL_CHUNKS + ["qz", "ab qz"]
NEVER_SEEN = ["never seen qz", "never seen"]


def lookup_ops_st():
    texts = st.lists(st.sampled_from(LOOKUP_CHUNKS), max_size=4)
    doc_ids = st.sampled_from(JOURNAL_DOC_IDS)
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(["add", "update", "staged"]), doc_ids,
                  texts),
        st.tuples(st.just("remove"), doc_ids),
        st.tuples(st.sampled_from(["compact", "reopen", "refresh",
                                   "flush"])),
    ), max_size=12)


class TestTextLookup:
    def test_distinct_texts_counts_live_texts(self, new_index):
        index = new_index()
        index.add_document(["a b.", "c d."], doc_id="x")
        index.flush()
        index.update_document("x", ["a b.", "e f."])
        factors = factors_of(qz_spanner().vsa())
        for compacted in (False, True):
            # "c d." is retired: its payload stays until compact().
            assert index.tombstone_count == (0 if compacted else 1)
            assert set(index.texts()) == {"a b.", "e f."}
            assert len(index) == index.describe()["distinct_texts"] == 2
            assert IndexFilter(factors, index) \
                .describe()["indexed_texts"] == 2
            index.compact()
        with index.batch():
            index.update_document("x", ["a b.", "g h."])
            # Staged texts are live before their flush.
            assert len(index) == 2
        assert len(index) == 2

    @pytest.mark.parametrize("backing", ["memory", "directory"])
    @given(ops=lookup_ops_st())
    def test_lookup_and_memo_agree_with_the_references(
            self, tmp_path_factory, backing, ops):
        directory = (None if backing == "memory" else
                     str(tmp_path_factory.mktemp("lookup") / "index.segs"))
        factors = factors_of(qz_spanner().vsa())
        universe = LOOKUP_CHUNKS + NEVER_SEEN
        expected = {text for text in universe if factors.admits(text)}
        writer = SegmentedIndex.create(directory, splitter="sentences")
        # Seeded, so the filters start with a candidate mask that the
        # later edits make stale.
        writer.add_document(["ab qz cd", " gh", "cd cd"],
                            doc_id=JOURNAL_DOC_IDS[0])
        writer.flush()
        tracked = {JOURNAL_DOC_IDS[0]}
        # A directory gets a second handle that only ever refreshes; its
        # filter lives through the whole sequence.
        reader = (writer if directory is None
                  else SegmentedIndex.open(directory))
        long_lived = IndexFilter(factors, reader)
        writer_filter = IndexFilter(factors, writer)
        assert long_lived.mode == writer_filter.mode == "indexed"

        def check(queried):
            for index in {writer, reader}:
                for text in universe:
                    assert index.text_id(text) \
                        == reference_text_id(index, text), text
                assert {text for text in universe
                        if IndexFilter(factors, index).admits(text)} \
                    == expected
            for prefilter in (long_lived, writer_filter):
                # The texts an edit touched are decided first, against
                # the index as the edit left it.
                for text in queried:
                    assert prefilter.admits(text) == factors.admits(text)
                assert {text for text in universe
                        if prefilter.admits(text)} == expected

        try:
            for op, *args in ops:
                queried = args[-1] if op in ("add", "update",
                                             "staged") else []
                if op == "add":
                    writer.add_document(args[1], doc_id=args[0])
                elif op in ("update", "staged"):
                    with writer.batch():
                        writer.update_document(*args)
                        if op == "staged":
                            check(queried)
                elif op == "remove":
                    if args[0] in tracked:
                        writer.remove_document(args[0])
                elif op == "compact":
                    writer.compact()
                elif op == "flush":
                    writer.flush()
                elif op == "reopen" and directory is not None:
                    # Reopening while texts are staged gives them back.
                    described = writer.describe()
                    writer.close()
                    writer = SegmentedIndex.open(directory)
                    assert writer.describe() == described
                    writer_filter = IndexFilter(factors, writer)
                elif op == "refresh":
                    reader.refresh()
                if op in ("add", "update", "staged"):
                    tracked.add(args[0])
                elif op == "remove":
                    tracked.discard(args[0])
                check(queried)
                assert writer.describe()["distinct_texts"] \
                    == len(list(writer.texts()))
        finally:
            for index in {writer, reader}:
                index.close()

    def test_reads_touch_one_segment_at_most(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "corpus.segs")
        index = SegmentedIndex.create(directory)
        for number in range(101):
            index.add_document([f"text {number} qz."], doc_id=f"d{number}")
            index.flush()
        index.close()
        index = SegmentedIndex.open(directory)
        assert index.segment_count == 101
        read, mapped = [], []
        text_bytes, digest_rows = Segment.text_bytes, Segment.digest_rows

        def spy_text_bytes(segment, tid):
            read.append(segment)
            return text_bytes(segment, tid)

        def spy_digest_rows(segment):
            mapped.append(segment)
            return digest_rows(segment)

        monkeypatch.setattr(Segment, "text_bytes", spy_text_bytes)
        monkeypatch.setattr(Segment, "digest_rows", spy_digest_rows)
        # open() parsed headers only; the first lookup reads every
        # digest table once, later ones none.
        assert mapped == []
        assert index.text_id("text 50 qz.") is not None
        assert len(mapped) == 101 and read == [index._segments[50]]
        del mapped[:], read[:]
        # A hit reads one text of one segment (the byte-equality
        # check); a miss reads none.
        assert index.text_id("text 7 qz.") is not None
        assert read == [index._segments[7]]
        del read[:]
        assert index.text_id("never indexed") is None
        assert read == []
        # An edit introducing a new text probes no segment and stages
        # it; the flush maps only the new segment's digest table.
        index.update_document("d3", ["a new text qz."])
        assert read == [] and mapped == []
        assert index.text_id("a new text qz.") is None
        index.flush()
        assert read == [] and mapped == [index._segments[-1]]
        assert index.text_id("a new text qz.") == 101
        index.close()


# ----------------------------------------------------------------------
# Satellites
# ----------------------------------------------------------------------


class TestTypedErrors:
    def test_manifest_errors_are_typed(self, tmp_path):
        # Not there at all, a plain file, a directory with no manifest.
        a_file = tmp_path / "corpus.idx"
        a_file.write_text("{}")
        directory = tmp_path / "segs"
        directory.mkdir()
        for path in (tmp_path / "nowhere", a_file, directory):
            with pytest.raises(IndexFormatError) as info:
                SegmentedIndex.open(str(path))
            # Still a ValueError (the historical type) and a ReproError.
            assert isinstance(info.value, ValueError)
            assert isinstance(info.value, ReproError)
            assert str(path) in str(info.value)
        (directory / "MANIFEST.json").write_text("{broken")
        with pytest.raises(IndexFormatError):
            SegmentedIndex.open(str(directory))
        (directory / "MANIFEST.json").write_text(
            json.dumps({"format": "something-else"}))
        with pytest.raises(IndexFormatError):
            SegmentedIndex.open(str(directory))

    def test_splitter_fingerprint_mismatch_rejected(self, tmp_path):
        index = SegmentedIndex.build(
            Corpus.from_texts(CORPUS_TEXTS), sentence_splitter(),
            str(tmp_path / "segs"),
        )
        index.close()
        manifest_path = tmp_path / "segs" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["splitter"] = "tokens"
        manifest["splitter_fingerprint"] = "0123456789abcdef"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError):
            SegmentedIndex.open(str(tmp_path / "segs"))


class TestExplainSurface:
    def test_explain_reports_directory_and_segments(self, tmp_path):
        segs = str(tmp_path / "corpus.segs")
        SegmentedIndex.build(Corpus.from_texts(CORPUS_TEXTS),
                             sentence_splitter(), segs,
                             num_shards=2).close()
        for index, directory in ((segs, segs), (None, None)):
            query = Q(qz_spanner()).split_by("sentences").indexed(index)
            results = query.over(CORPUS_TEXTS)
            results.materialize()
            report = results.explain()["index"]
            assert report["index_directory"] == directory
            assert report["index_segments"] == (2 if directory else 1)
            query.engine().index.close()


class TestCLI:
    def run_main(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_index_build_compact_update(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text("ab qz cd. ef gh ab.")
        segs = str(tmp_path / "corpus.segs")
        code, out = self.run_main(
            ["index", "--alphabet", "abcdefgh qz.", "--splitter",
             "sentences", "--file", str(doc), "--output", segs],
            capsys,
        )
        assert code == 0
        assert f"directory: {segs}" in out
        doc.write_text("ab qz cd. ef gh qz.")
        code, out = self.run_main(
            ["index-update", "--index", segs, "--alphabet",
             "abcdefgh qz.", "--file", str(doc)],
            capsys,
        )
        assert code == 0
        assert "+1 -1" in out
        assert "documents.log" in os.listdir(segs)
        code, out = self.run_main(
            ["index-compact", "--index", segs], capsys,
        )
        assert code == 0
        assert "compacted index" in out
        # A fresh process folds a journal it never loaded.
        assert "documents.log" not in os.listdir(segs)
        assert "documents.json" in os.listdir(segs)
        index = SegmentedIndex.open(segs)
        assert index.segment_count == 1
        assert index.tombstone_count == 0
        index.close()

    def test_engine_accepts_index_path(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text("ab qz cd. ef gh ab.")
        segs = str(tmp_path / "corpus.segs")
        code, _out = self.run_main(
            ["index", "--alphabet", "abcdefgh qz.", "--splitter",
             "sentences", "--file", str(doc), "--output", segs],
            capsys,
        )
        assert code == 0
        code, out = self.run_main(
            ["engine", "--pattern", QZ_PATTERN, "--alphabet",
             "abcdefgh qz.", "--splitters", "sentences", "--file",
             str(doc), "--index", segs],
            capsys,
        )
        assert code == 0
        assert "index prefilter: indexed" in out

    def test_index_has_no_format_flag(self, capsys):
        with pytest.raises(SystemExit):
            self.run_main(["index", "--alphabet", "ab .", "--format",
                           "binary", "--text", "ab."], capsys)
        assert "--format" in capsys.readouterr().err


class TestServiceReopen:
    def test_reopen_refreshes_compacted_index(self, tmp_path):
        from repro.serve import ExtractionService

        segs = str(tmp_path / "corpus.segs")
        SegmentedIndex.build(Corpus.from_texts(CORPUS_TEXTS),
                             sentence_splitter(), segs).close()
        engine = ExtractionEngine(sentence_registry(),
                                  corpus_index=segs)
        program = Program.from_query(qz_spanner())
        with ExtractionService(engine, program=program) as service:
            first = service.extract(CORPUS_TEXTS)
            # Another process edits and compacts the index directory.
            writer = SegmentedIndex.open(segs)
            writer.update_document("doc-0002", ["gh qz."])
            writer.compact()
            writer.close()
            report = service.reopen_index().result(timeout=30)
            assert report["action"] == "refreshed"
            assert report["changed"] is True
            assert report["segments"] == 1
            second = service.extract(CORPUS_TEXTS)
            assert first.by_document.keys() == second.by_document.keys()
            engine.index.close()

    def test_reopen_with_path_swaps_index(self, tmp_path):
        from repro.serve import ExtractionService

        first_dir = str(tmp_path / "first.segs")
        second_dir = str(tmp_path / "second.segs")
        SegmentedIndex.build(Corpus.from_texts(CORPUS_TEXTS),
                             sentence_splitter(), first_dir).close()
        SegmentedIndex.build(Corpus.from_texts(CORPUS_TEXTS),
                             sentence_splitter(), second_dir).close()
        engine = ExtractionEngine(sentence_registry(),
                                  corpus_index=first_dir)
        program = Program.from_query(qz_spanner())
        with ExtractionService(engine, program=program) as service:
            report = service.reopen_index(second_dir).result(timeout=30)
            assert report["action"] == "attached"
            assert report["segments"] == 1
            assert engine.index.directory == second_dir
            engine.index.close()

    def test_reopen_without_index_is_noop(self):
        from repro.serve import ExtractionService

        engine = ExtractionEngine(sentence_registry())
        program = Program.from_query(qz_spanner())
        with ExtractionService(engine, program=program) as service:
            report = service.reopen_index().result(timeout=30)
            assert report["action"] == "noop"
