"""Tests for the corpus extraction engine (:mod:`repro.engine`) and
the executor's parallel primitives it builds on."""

import multiprocessing
import os
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from repro import Q, Spanner
from repro.core.spans import Span
from repro.engine import (
    ChunkCache,
    Corpus,
    Deadline,
    Document,
    ExtractionEngine,
    PlanCache,
    Program,
    Scheduler,
    fingerprint,
    registry_fingerprint,
    shard_of,
)
from repro.runtime import (
    FastSentenceSplitter,
    FastSeparatorSplitter,
    Planner,
    RegisteredSplitter,
    evaluate_whole,
)
from repro.errors import DeadlineExceededError
from repro.obs import Tracer, kernel_metrics
from repro.runtime.fast import CompiledSpanner, RegexSpanner
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import sentence_splitter, token_splitter

TXT = frozenset("ab .")


def a_run_extractor():
    return compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*|.*(\\.| )y{a+}|y{a+}", TXT
    )


def registry():
    return [
        RegisteredSplitter("tokens", token_splitter(TXT), priority=3,
                           executor=FastSeparatorSplitter(" ")),
        RegisteredSplitter("sentences", sentence_splitter(TXT),
                           priority=2, executor=FastSentenceSplitter()),
    ]


#: A corpus with heavy chunk repetition across documents.
DOCS = [
    "aa ab a aaa.",
    "aa ab a aaa.",
    "b aa b.",
    "aa ab a aaa.",
    "b aa b. aa ab",
    "",
]


# ----------------------------------------------------------------------
# Corpus: sharding and batching
# ----------------------------------------------------------------------


class TestCorpus:
    def test_from_texts_ids_and_order(self):
        corpus = Corpus.from_texts(["x.", "y."])
        assert corpus.doc_ids() == ["doc-0000", "doc-0001"]
        assert [d.text for d in corpus] == ["x.", "y."]

    def test_duplicate_ids_rejected(self):
        corpus = Corpus([Document("d", "x")])
        with pytest.raises(ValueError):
            corpus.add(Document("d", "y"))

    def test_sharding_is_deterministic(self):
        ids = [f"doc-{i}" for i in range(50)]
        first = [shard_of(doc_id, 7) for doc_id in ids]
        second = [shard_of(doc_id, 7) for doc_id in ids]
        assert first == second
        # Known anchor: stability across processes/machines (SHA-1).
        assert shard_of("doc-0", 7) == int.from_bytes(
            __import__("hashlib").sha1(b"doc-0").digest()[:8], "big") % 7

    def test_shards_partition_corpus(self):
        corpus = Corpus.from_texts([f"text {i}." for i in range(20)])
        shards = corpus.shards(4)
        assert sum(len(s) for s in shards) == len(corpus)
        collected = sorted(
            doc.doc_id for shard in shards for doc in shard
        )
        assert collected == sorted(corpus.doc_ids())
        for index, shard in enumerate(shards):
            assert shard.doc_ids() == corpus.shard(4, index).doc_ids()

    def test_shard_assignment_independent_of_insertion_order(self):
        docs = [Document(f"d{i}", "x") for i in range(10)]
        forward = Corpus(docs).shards(3)
        backward = Corpus(reversed(docs)).shards(3)
        assert [sorted(s.doc_ids()) for s in forward] == \
            [sorted(s.doc_ids()) for s in backward]

    def test_batches(self):
        corpus = Corpus.from_texts(["a", "b", "c", "d", "e"])
        sizes = [len(batch) for batch in corpus.batches(2)]
        assert sizes == [2, 2, 1]
        with pytest.raises(ValueError):
            list(corpus.batches(0))


# ----------------------------------------------------------------------
# Fingerprints and the plan cache
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_structurally_equal_spanners_fingerprint_alike(self):
        assert fingerprint(a_run_extractor()) == \
            fingerprint(a_run_extractor())

    def test_different_spanners_fingerprint_differently(self):
        other = compile_regex_formula(".*y{b+}.*|y{b+}", TXT)
        assert fingerprint(a_run_extractor()) != fingerprint(other)

    def test_registry_fingerprint_sensitive_to_members(self):
        full = registry()
        assert registry_fingerprint(full) != registry_fingerprint(full[:1])

    def test_structural_fingerprint_ignores_dict_insertion_order(self):
        """The structural fallback canonicalizes containers: two
        executables that differ only in the order their dict/set
        attributes were populated are the same program and must share
        a fingerprint (and hence one certification)."""

        class TableSpanner:
            def __init__(self, rules, symbols):
                self.rules = dict(rules)
                self.symbols = frozenset(symbols)

        forward = TableSpanner([("a", 1), ("b", 2), (".", 3)], "ab .")
        backward = TableSpanner([(".", 3), ("b", 2), ("a", 1)], " .ba")
        assert fingerprint(forward) == fingerprint(backward)

    def test_structural_fingerprint_canonicalizes_nested_containers(self):
        from repro.engine.cache import _canonical_value

        first = {"outer": ({"b": 2, "a": 1}, [frozenset("ba")])}
        second = {"outer": ({"a": 1, "b": 2}, [frozenset("ab")])}
        assert _canonical_value(first) == _canonical_value(second)
        # Order that *means* something (tuples, lists) is preserved.
        assert _canonical_value((1, 2)) != _canonical_value((2, 1))
        assert _canonical_value(["x", "y"]) != _canonical_value(["y", "x"])
        # Sets serialize sorted, not in iteration order.
        assert _canonical_value(frozenset({"b", "a"})) == "set{'a','b'}"

    def test_decision_procedures_run_once_per_program(self):
        cache = PlanCache()
        planner = Planner(registry())
        spanner = a_run_extractor()
        first = cache.get(planner, spanner)
        again = cache.get(planner, a_run_extractor())
        assert again is first
        assert cache.certifications == 1
        assert cache.hits == 1
        assert first.reuses == 1
        assert first.plan.mode == "split"

    def test_distinct_programs_certified_separately(self):
        cache = PlanCache()
        planner = Planner(registry())
        cache.get(planner, a_run_extractor())
        cache.get(planner, compile_regex_formula(".*y{b+}.*|y{b+}", TXT))
        assert cache.certifications == 2


# ----------------------------------------------------------------------
# Chunk cache
# ----------------------------------------------------------------------


class TestChunkCache:
    def test_hit_miss_counting(self):
        cache = ChunkCache()
        assert cache.lookup("fp", "aa") is None
        cache.store("fp", "aa", set())
        assert cache.lookup("fp", "aa") == frozenset()
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_programs_do_not_cross_contaminate(self):
        cache = ChunkCache()
        cache.store("fp1", "aa", set())
        assert cache.lookup("fp2", "aa") is None

    def test_lru_eviction(self):
        cache = ChunkCache(limit=2)
        cache.store("fp", "a", set())
        cache.store("fp", "b", set())
        cache.lookup("fp", "a")          # refresh "a"
        cache.store("fp", "c", set())    # evicts "b"
        assert cache.lookup("fp", "b") is None
        assert cache.lookup("fp", "a") is not None
        assert cache.evictions == 1
        assert len(cache) == 2


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------


class TestScheduler:
    def test_merges_shifted_tuples_per_document(self):
        spanner = a_run_extractor()
        cache = ChunkCache()
        scheduler = Scheduler(workers=0)
        doc = "aa ab"
        chunks = [(Span(1, 3), "aa"), (Span(4, 6), "ab")]
        resolved = scheduler.run(spanner, [("d", chunks)], cache, "fp")
        assert resolved["d"] == evaluate_whole(spanner, doc)

    def test_duplicate_chunks_evaluated_once_within_batch(self):
        spanner = a_run_extractor()
        cache = ChunkCache()
        scheduler = Scheduler(workers=0)
        chunks = [(Span(1, 3), "aa"), (Span(4, 6), "aa")]
        scheduler.run(spanner, [("d", chunks)], cache, "fp")
        assert cache.misses == 1
        assert cache.hits == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Scheduler(workers=-1)
        with pytest.raises(ValueError):
            Scheduler(batch_size=0)


# ----------------------------------------------------------------------
# ExtractionEngine end to end
# ----------------------------------------------------------------------


class TestExtractionEngine:
    def _expected(self, spanner):
        return {
            f"doc-{i:04d}": evaluate_whole(spanner, doc)
            for i, doc in enumerate(DOCS)
        }

    def test_results_match_evaluate_whole_with_dedup(self):
        spanner = a_run_extractor()
        engine = ExtractionEngine(registry(), workers=0, batch_size=2)
        result = engine.run(DOCS, spanner)
        assert result.by_document == self._expected(spanner)
        stats = engine.stats()
        assert stats.certifications == 1
        assert stats.chunk_cache_hits > 0
        assert stats.chunks_evaluated < stats.chunks_total
        assert stats.documents == len(DOCS)
        assert stats.tuples_emitted == result.total_tuples()

    def test_parallel_engine_matches_sequential(self):
        spanner = a_run_extractor()
        sequential = ExtractionEngine(registry(), workers=0)
        parallel = ExtractionEngine(registry(), workers=3, batch_size=4)
        assert parallel.run(DOCS, spanner).by_document == \
            sequential.run(DOCS, spanner).by_document

    def test_second_run_reuses_certificate_and_chunks(self):
        spanner = a_run_extractor()
        engine = ExtractionEngine(registry())
        engine.run(DOCS, spanner)
        evaluated_once = engine.stats().chunks_evaluated
        engine.run(DOCS, spanner)
        stats = engine.stats()
        assert stats.certifications == 1
        assert stats.plan_cache_hits == 1
        # Every chunk of the second run came from the cache.
        assert stats.chunks_evaluated == evaluated_once
        # An edit to one token, without an index: exactly that chunk
        # is evaluated, its neighbours come from the cache.
        edited = DOCS[2].replace(" aa ", " aba ")
        result = engine.run([edited], spanner)
        assert result["doc-0000"] == evaluate_whole(spanner, edited)
        assert result.stats.chunks_evaluated == 1
        assert result.stats.chunk_cache_hits == 2

    def test_compiled_artifact_produced_once_per_certified_plan(self):
        spanner = a_run_extractor()
        engine = ExtractionEngine(registry())
        engine.run(DOCS, spanner)
        engine.run(DOCS, spanner)
        stats = engine.stats()
        # The kernel lowering happens with certification (or the first
        # runner resolution) and is replayed afterward — one artifact
        # across repeated runs of the same program.
        assert stats.certifications == 1
        assert stats.artifacts_compiled == 1
        # A second engine sharing the plan cache replays the stored
        # certificate without re-lowering the plan's artifact.
        shared = ExtractionEngine(registry(), plan_cache=engine.plan_cache)
        shared.run(DOCS, spanner)
        assert shared.stats().certifications == 0

    def test_whole_document_fallback_still_correct(self):
        crossing = compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", TXT
        )
        engine = ExtractionEngine(registry())
        docs = ["aa a a.", "aa a a.", "b a a"]
        result = engine.run(docs, crossing)
        assert result.plan.mode == "whole"
        for i, doc in enumerate(docs):
            assert result[f"doc-{i:04d}"] == evaluate_whole(crossing, doc)
        # Identical whole documents still deduplicate.
        assert engine.stats().chunk_cache_hits > 0

    def test_fast_executable_with_specification(self):
        spec = a_run_extractor()
        fast = RegexSpanner(r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)",
                            specification=spec)
        engine = ExtractionEngine(registry())
        result = engine.run(DOCS, Program(fast))
        assert result.by_document == self._expected(spec)
        assert result.plan.plan.self_splittable

    def test_program_requires_specification_for_fast_executable(self):
        with pytest.raises(ValueError):
            Program(RegexSpanner(r"(?P<y>a+)"))

    def test_result_stats_are_per_run_deltas(self):
        spanner = a_run_extractor()
        engine = ExtractionEngine(registry())
        first = engine.run(DOCS, spanner)
        second = engine.run(DOCS, spanner)
        assert first.stats.certifications == 1
        assert second.stats.certifications == 0
        assert second.stats.documents == len(DOCS)
        # The second run serves every chunk from the cache.
        assert second.stats.chunks_evaluated == 0
        # Engine-level counters stay cumulative.
        assert engine.stats().documents == 2 * len(DOCS)

    def test_shared_chunk_cache_namespaced_by_certificate(self):
        # Two engines with different registries share one chunk cache;
        # the same text must not be served across certificates, because
        # different certificates can imply different runners.
        spanner = a_run_extractor()
        shared = ChunkCache()
        split_engine = ExtractionEngine(registry(), chunk_cache=shared)
        whole_engine = ExtractionEngine([], chunk_cache=shared)
        split_engine.run(["aa"], spanner)     # caches chunk "aa"
        before = shared.misses
        result = whole_engine.run(["aa"], spanner)
        assert shared.misses == before + 1    # not served cross-certificate
        assert result["doc-0000"] == evaluate_whole(spanner, "aa")

    def test_close_and_context_manager(self):
        spanner = a_run_extractor()
        with ExtractionEngine(registry(), workers=2) as engine:
            engine.run(DOCS, spanner)
            scheduler = engine.scheduler
            assert scheduler._pool is not None
        assert scheduler._pool is None        # closed on exit
        engine.close()                        # idempotent


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestEngineCli:
    PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
               "|.*(\\.| )y{a+}|y{a+}")

    def test_engine_subcommand(self, capsys):
        from repro.__main__ import main

        code = main([
            "engine", "--pattern", self.PATTERN, "--alphabet", "ab .",
            "--splitters", "tokens,sentences",
            "--text", "aa ab a aaa.", "--text", "aa ab a aaa.",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: split by 'tokens'" in out
        assert "kernel: token path (delimiters ' .', letters 'a')" in out
        assert "certifications: 1" in out
        assert "chunk_cache_hits" in out

    def test_engine_subcommand_requires_documents(self, capsys):
        from repro.__main__ import main

        code = main([
            "engine", "--pattern", self.PATTERN, "--alphabet", "ab .",
        ])
        assert code == 2
        assert "no documents" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Chunk-cache LRU order and corpus edge cases
# ----------------------------------------------------------------------


class TestChunkCacheLruOrder:
    def fill(self, cache, *texts):
        for text in texts:
            cache.store("fp", text, set())

    def test_eviction_follows_recency_order_exactly(self):
        cache = ChunkCache(limit=3)
        self.fill(cache, "a", "b", "c")
        # Recency now a < b < c; touch "a" so order becomes b < c < a.
        cache.lookup("fp", "a")
        self.fill(cache, "d")            # evicts "b"
        assert cache.lookup("fp", "b") is None
        self.fill(cache, "e")            # evicts "c"
        assert cache.lookup("fp", "c") is None
        # "a" survived both rounds because it was refreshed.
        assert cache.lookup("fp", "a") is not None
        assert cache.evictions == 2

    def test_restore_of_existing_key_refreshes_recency(self):
        cache = ChunkCache(limit=2)
        self.fill(cache, "a", "b")
        self.fill(cache, "a")            # re-store: refresh, no evict
        assert cache.evictions == 0
        self.fill(cache, "c")            # evicts "b", not "a"
        assert cache.lookup("fp", "b") is None
        assert cache.lookup("fp", "a") is not None

    def test_misses_do_not_disturb_recency(self):
        cache = ChunkCache(limit=2)
        self.fill(cache, "a", "b")
        cache.lookup("fp", "zzz")        # miss: recency unchanged
        self.fill(cache, "c")            # still evicts "a"
        assert cache.lookup("fp", "a") is None
        assert cache.lookup("fp", "b") is not None

    def test_limit_one_keeps_only_most_recent(self):
        cache = ChunkCache(limit=1)
        self.fill(cache, "a", "b", "c")
        assert len(cache) == 1
        assert cache.lookup("fp", "c") is not None
        assert cache.evictions == 2

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            ChunkCache(limit=0)


class TestCorpusEdgeCases:
    def test_empty_document_flows_through_engine(self):
        corpus = Corpus.from_texts(["aa a.", "", "a."])
        engine = ExtractionEngine(registry())
        result = engine.run(corpus, Program(a_run_extractor()))
        assert result["doc-0001"] == set()
        assert len(result) == 3
        # And the empty shard/batch machinery stays consistent.
        assert sum(len(s) for s in corpus.shards(5)) == 3
        assert [len(b) for b in corpus.batches(2)] == [2, 1]

    def test_unicode_ids_and_text_shard_deterministically(self):
        ids = ["café", "naïve-Ω", "日本語", "emoji-🦉"]
        corpus = Corpus.from_mapping(
            {doc_id: "héllo wörld" for doc_id in ids}
        )
        assert len(corpus) == 4
        first = [shard_of(doc_id, 3) for doc_id in ids]
        second = [shard_of(doc_id, 3) for doc_id in ids]
        assert first == second
        shards = corpus.shards(3)
        collected = sorted(d.doc_id for s in shards for d in s)
        assert collected == sorted(ids)
        # Unicode text round-trips untouched.
        assert corpus["café"].text == "héllo wörld"

    def test_duplicate_document_ids_rejected_everywhere(self):
        with pytest.raises(ValueError):
            Corpus([Document("d", "x"), Document("d", "x")])
        corpus = Corpus.from_mapping({"d": "x"})
        with pytest.raises(ValueError):
            corpus.add(Document("d", "y"))

    def test_duplicate_texts_are_distinct_documents_but_shared_chunks(self):
        corpus = Corpus.from_texts(["aa a.", "aa a.", "aa a."])
        assert len(corpus) == 3  # identity by id, not content
        engine = ExtractionEngine(registry())
        result = engine.run(corpus, Program(a_run_extractor()))
        assert result["doc-0000"] == result["doc-0002"]
        stats = engine.stats()
        # Content dedup happens at the chunk cache, not the corpus.
        assert stats.chunk_cache_hits > 0
        assert stats.chunks_evaluated < stats.chunks_total

    def test_shard_index_validation(self):
        corpus = Corpus.from_texts(["a"])
        with pytest.raises(ValueError):
            corpus.shard(3, 3)
        with pytest.raises(ValueError):
            shard_of("x", 0)


# ----------------------------------------------------------------------
# The pooled run's one-batch look-ahead
# ----------------------------------------------------------------------


class TextLoggingRunner:
    """A chunk runner appending every text it evaluates to a file, one
    ``pid text`` line each — the texts each pool worker saw, read from
    the parent."""

    def __init__(self, runner, log_path):
        self.runner = runner
        self.log_path = str(log_path)

    def evaluate(self, text):
        return self.evaluate_batch([text])[0]

    def evaluate_batch(self, texts, latency=None):
        with open(self.log_path, "a", encoding="ascii") as handle:
            handle.writelines(f"{os.getpid()} {text}\n" for text in texts)
        return self.runner.evaluate_batch(texts, latency)

    def drain(self):
        """The ``(pid, text)`` pairs logged since the last drain."""
        with open(self.log_path, "r+", encoding="ascii") as handle:
            lines = handle.read().splitlines()
            handle.truncate(0)
        return [tuple(line.split(" ", 1)) for line in lines]


#: Few distinct tokens, so the chunks of one batch come back in the
#: next: the texts a look-ahead finds still in flight.
TOKENS = ["aa", "ab", "a", "b", "aaa.", "ba", "aab"]
documents_with_repeats = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join),
    min_size=1, max_size=8)


def worker_pids(before=frozenset()):
    return {child.pid for child in multiprocessing.active_children()} \
        - set(before)


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """``{workers: (engine, program, runner)}`` for 0 and 2 workers,
    shared by the module: the pool forks once."""
    spanner = a_run_extractor()
    built = {}
    for workers in (0, 2):
        runner = TextLoggingRunner(
            CompiledSpanner(spanner),
            tmp_path_factory.mktemp("texts") / f"workers-{workers}.log")
        open(runner.log_path, "w").close()
        engine = ExtractionEngine(registry(), workers=workers,
                                  tracer=Tracer())
        built[workers] = (engine, Program(runner, spanner), runner)
    yield built
    for engine, _program, _runner in built.values():
        engine.close()


class TestLookAhead:
    @given(documents_with_repeats, st.sampled_from([1, 2, 32]),
           st.sampled_from([None, 1, 3]), st.booleans())
    def test_pooled_run_equals_in_process_run(self, engines, texts,
                                              batch_size, limit, traced):
        spanner = a_run_extractor()
        corpus = Corpus.from_texts(texts)
        runs = {}
        for workers, (engine, program, runner) in engines.items():
            engine.scheduler.batch_size = batch_size
            engine.chunk_cache.clear()
            engine.chunk_cache.limit = limit
            engine.tracer.enabled = traced
            engine.tracer.clear()
            result = engine.run(corpus, program)
            logged = runner.drain()
            for document in corpus:
                assert result[document.doc_id] \
                    == evaluate_whole(spanner, document.text)
            stats = result.stats
            # Exact under every cache bound: a miss is an evaluation.
            assert len(logged) == stats.chunks_evaluated \
                == stats.chunk_cache_misses
            assert stats.chunk_cache_hits + stats.chunk_cache_misses \
                == stats.chunks_total
            runs[workers] = (stats, logged)
        (inproc, inproc_logged), (pooled, logged) = runs[0], runs[2]
        assert pooled.chunks_total == inproc.chunks_total
        # A worker looks texts up in its own cache: unbounded, each
        # worker evaluates a text at most once, and every text the
        # in-process run evaluated is evaluated by some worker.
        if limit is None:
            assert max(Counter(logged).values(), default=1) == 1
            assert {text for _pid, text in logged} \
                == {text for _pid, text in inproc_logged}
            assert max(Counter(inproc_logged).values(), default=1) == 1

    def test_a_worker_evaluates_a_text_once_per_cache_generation(
            self, engines):
        # Every batch repeats the texts of the one before while it is
        # in flight; each worker evaluates each text at most once, and
        # a cleared cache is cold in every worker again.
        engine, program, runner = engines[2]
        engine.scheduler.batch_size = 1
        engine.chunk_cache.limit = None
        texts = ["aa ab", "ab aa", "aa b ab", "b aa", "ab b"]
        for _ in range(2):
            engine.chunk_cache.clear()
            result = engine.run(texts, program)
            logged = runner.drain()
            assert max(Counter(logged).values()) == 1
            assert {text for _pid, text in logged} == {"aa", "ab", "b"}
            assert {pid for pid, _text in logged} <= {
                str(pid) for pid in worker_pids()}
            stats = result.stats
            assert stats.chunks_evaluated == stats.chunk_cache_misses \
                == len(logged)
            assert stats.chunk_cache_hits + stats.chunk_cache_misses \
                == stats.chunks_total == 11
            for position, text in enumerate(texts):
                assert result[f"doc-{position:04d}"] \
                    == evaluate_whole(a_run_extractor(), text)

    def test_abandoned_stream_leaves_nothing_in_flight(self):
        before = worker_pids()
        texts = [" ".join(TOKENS[i % 7:] + TOKENS[:i % 3]) for i in range(9)]
        query = Q(Spanner.regex(
            ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", "ab .")) \
            .split_by("tokens").workers(2).batch_size(2)
        engine = query.engine()
        try:
            stream = query.over(texts).stream()
            first = next(stream)
            assert first[0] == "doc-0000"
            stream.close()          # batches 1 and 2 are submitted
            del stream
            assert len(worker_pids(before)) == 2
            engine.chunk_cache.clear()
            again = query.over(texts).materialize()
            expected = {
                f"doc-{i:04d}": evaluate_whole(query.spanner.specification,
                                               text)
                for i, text in enumerate(texts)}
            assert again == expected
        finally:
            engine.close()
        assert worker_pids(before) == set()

    def test_deadline_between_submit_and_collect(self):
        class Fuse(Deadline):
            blown = False

            def check(self):
                if self.blown:
                    raise DeadlineExceededError(elapsed=self.elapsed(),
                                                budget=0.0)

        before = worker_pids()
        spanner = a_run_extractor()
        program = Program(spanner)
        texts = [f"a{'a' * i} ab aa" for i in range(8)]
        with ExtractionEngine(registry(), workers=2, batch_size=2) as engine:
            engine.run(texts[:2], program)
            workers = worker_pids(before)
            assert len(workers) == 2
            engine.chunk_cache.clear()

            fuse = Fuse()
            submit, submitted = engine.scheduler.submit, []

            def submit_then_blow(*args, **kwargs):
                pending = submit(*args, **kwargs)
                submitted.append(pending)
                # Batch 0 is in flight and batch 1 just joined it: the
                # next check is the one that opens collect(batch 0).
                fuse.blown = len(submitted) == 2
                return pending

            engine.scheduler.submit = submit_then_blow
            with pytest.raises(DeadlineExceededError):
                engine.run(texts, program, deadline=fuse)
            del engine.scheduler.submit
            assert len(submitted) == 2
            assert all(pending.tasks is not None for pending in submitted)

            assert worker_pids(before) == workers
            engine.chunk_cache.clear()
            result = engine.run(texts, program)
            assert worker_pids(before) == workers
            for index, text in enumerate(texts):
                assert result[f"doc-{index:04d}"] \
                    == evaluate_whole(spanner, text)

    def test_interleaved_streams_with_different_runners(self):
        # Every next() swaps the pool to the other stream's runner;
        # the swap drains, so the batch the other stream has in flight
        # still delivers.
        spanner_a = a_run_extractor()
        spanner_b = compile_regex_formula(
            ".*( )y{b+}( ).*|y{b+}( ).*|.*( )y{b+}|y{b+}", TXT)
        texts = ["aa bb ab", "b aa", "bb a b", "ab ba bbb"]
        before = worker_pids()
        with ExtractionEngine(registry(), workers=2, batch_size=1) as engine:
            streams = [engine.run_iter(texts, Program(spanner))
                       for spanner in (spanner_a, spanner_b)]
            found = [{}, {}]
            for _ in texts:
                for results, stream in zip(found, streams):
                    doc_id, tuples = next(stream)
                    results[doc_id] = tuples
            assert all(next(stream, None) is None for stream in streams)
        assert worker_pids(before) == set()
        for results, spanner in zip(found, (spanner_a, spanner_b)):
            assert results == {
                f"doc-{i:04d}": evaluate_whole(spanner, text)
                for i, text in enumerate(texts)}


# ----------------------------------------------------------------------
# The document entries of the chunk cache
# ----------------------------------------------------------------------


def rest_splitter():
    """One chunk per document: what follows its first period.  Not
    idempotent (a chunk re-splits to what follows *its* first period),
    so ``.*\\.y{a}.*``-style programs over it certify by Theorem 5.15's
    canonical split-spanner, not by self-splittability."""
    return compile_regex_formula("(a|b| )*\\.x{.*}", TXT)


#: name -> (registry, specification, the theorem the plan must cite).
DOCUMENT_PLANS = {
    "self-splittable": (registry, a_run_extractor, "Theorem 5.16"),
    "split-spanner": (
        lambda: [RegisteredSplitter("rest", rest_splitter())],
        lambda: compile_regex_formula("(a|b| )*\\.y{a}.*", TXT),
        "Theorem 5.15"),
    "whole": (
        registry,
        lambda: compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", TXT),
        None),
}

#: A one-chunk document whose text is also a chunk of the other, under
#: each splitter: ``"aa"`` is a token of ``"aa ab"``, and ``"b.a"``
#: (whose one chunk is ``"a"``) is what follows ``"a.b.a"``'s first
#: period.  The split-spanner gives ``"b.a"`` as a chunk nothing, as a
#: document ``y = [3, 4>``: one key for both would answer wrongly.
SHARED_TEXTS = ["aa", "aa ab", "b.a", "a.b.a"]


@st.composite
def document_runs(draw):
    """Runs over one text pool, so documents repeat within a batch,
    across batches (the pooled look-ahead window) and across runs."""
    drawn = draw(st.lists(
        st.lists(st.sampled_from(["a", "b", " ", ".", "aa"]),
                 max_size=5).map("".join),
        max_size=4))
    pool = SHARED_TEXTS + drawn
    return draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=6),
                         min_size=1, max_size=3))


@pytest.fixture(scope="module", params=sorted(DOCUMENT_PLANS))
def plan_engines(request):
    """``(specification, theorem, {(workers, prefilter): (engine,
    program)})`` for one plan; the pools fork once per plan."""
    make_registry, make_spec, theorem = DOCUMENT_PLANS[request.param]
    spec = make_spec()
    built = {
        (workers, prefilter): (
            ExtractionEngine(make_registry(), workers=workers,
                             prefilter=prefilter),
            Program(spec, name=request.param))
        for workers in (0, 2) for prefilter in (False, True)
    }
    yield spec, theorem, built
    for engine, _program in built.values():
        engine.close()


class TestDocumentCache:
    @given(document_runs(), st.sampled_from([1, 2, 32]),
           st.sampled_from([None, 1, 2, 5]))
    def test_cached_documents_equal_evaluate_whole(
            self, plan_engines, runs, batch_size, limit):
        spec, theorem, engines = plan_engines
        expected = {}
        for engine, program in engines.values():
            engine.chunk_cache.clear()
            engine.chunk_cache.limit = limit
            engine.scheduler.batch_size = batch_size
            hits = 0
            for texts in runs:
                result = engine.run(texts, program)
                assert result.plan.plan.theorem == theorem
                for position, text in enumerate(texts):
                    if text not in expected:
                        expected[text] = evaluate_whole(spec, text)
                    assert result[f"doc-{position:04d}"] \
                        == expected[text], text
                stats = result.stats
                assert stats.chunk_cache_hits + stats.chunk_cache_misses \
                    + stats.chunks_pruned == stats.chunks_total
                assert stats.documents == len(texts)
                hits += stats.document_cache_hits
            if theorem is None:
                assert hits == 0     # whole plans keep no document entry
        # Under an unbounded cache every document a run saw before is
        # served whole.
        engine, program = engines[(0, False)]
        engine.chunk_cache.limit = None
        engine.run(runs[-1], program)
        repeat = engine.run(runs[-1], program).stats
        if theorem is not None:
            assert repeat.document_cache_hits == len(runs[-1])
            assert repeat.chunk_cache_misses == 0

    def test_a_repeated_document_is_served_whole(self):
        engine = ExtractionEngine(registry(), batch_size=2)
        spanner = a_run_extractor()
        first = engine.run(DOCS, spanner)
        again = engine.run(DOCS, spanner)
        assert again.by_document == first.by_document
        assert again.stats.document_cache_hits == len(DOCS)
        assert (again.stats.chunks_total, again.stats.chunk_cache_hits,
                again.stats.chunk_cache_misses) \
            == (first.stats.chunks_total, first.stats.chunks_total, 0)
        # The relation handed out is the cached frozen object itself.
        assert again["doc-0000"] is engine.run(DOCS[:1], spanner)[
            "doc-0000"]
        assert isinstance(again["doc-0000"], frozenset)

    @pytest.mark.parametrize("workers", [0, 2],
                             ids=["workers=0", "workers=2"])
    def test_cold_passes_stay_cold(self, workers):
        # What keeps a benchmark's cleared-cache passes measuring real
        # work: clear() drops the document entries with the chunks' —
        # in process, and in every pool worker.  Every document holds
        # every shared text, so a worker whose cache outlived a clear
        # would evaluate fewer texts than there are.  Pooled, the
        # token path evaluates each document as its one chunk, so
        # there the texts are the (distinct) documents.
        texts = [f"{head} aa ab. b aaa." for head in
                 ("a", "b", "aa", "ab", "ba", "aab")]
        distinct = (set(texts) if workers else
                    {chunk for text in texts for chunk in text.split()})
        instances = len(texts) if workers else 30
        query = Q(Spanner.regex(
            ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", "ab .")) \
            .split_by("tokens").batch_size(2).workers(workers)
        engine = query.engine()
        passes = []
        try:
            for fresh in (False, False, True):
                if fresh:   # another cache in the first one's place
                    engine.chunk_cache = ChunkCache()
                else:
                    engine.chunk_cache.clear()
                results = query.over(texts)
                results.materialize()
                passes.append(results.stats())
        finally:
            engine.close()
        for stats in passes:
            assert stats.chunk_cache_misses == stats.chunks_evaluated \
                >= len(distinct)
            assert stats.chunk_cache_hits + stats.chunk_cache_misses \
                == stats.chunks_total == instances
            assert stats.document_cache_hits == 0
        if workers:
            # No document repeats, so each pass evaluates every one.
            assert [stats.chunk_cache_misses for stats in passes] \
                == [len(distinct)] * 3
        else:
            assert passes[0].chunk_cache_misses \
                == passes[1].chunk_cache_misses == len(distinct)
            assert passes[0].chunk_cache_hits \
                == passes[1].chunk_cache_hits > 0
        assert engine.metrics.value("engine.document_cache.hits") == 0


# ----------------------------------------------------------------------
# Pooled passes: documents cross the pipe
# ----------------------------------------------------------------------


class BareRunner:
    """A runner offering nothing but ``evaluate``/``evaluate_batch`` —
    all a pool worker may call on one."""

    def __init__(self, runner):
        self.runner = runner

    def evaluate(self, text):
        return self.runner.evaluate(text)

    def evaluate_batch(self, texts, latency=None):
        return self.runner.evaluate_batch(texts, latency)


class TestPooledDocuments:
    TEXTS = [f"{'a' * (i + 1)} b{'a' * i} {'b' * (i + 2)}."
             for i in range(32)]

    @classmethod
    def kernel_deltas(cls, spanner, pooled_chunks=3 * len(TEXTS)):
        """The kernel counters' deltas over one cold run, in process
        and on two workers: no chunk text repeats, so each is evaluated
        exactly once either way — ``pooled_chunks`` of them pooled."""
        from repro.runtime.executor import KERNEL_COUNTERS

        texts = cls.TEXTS
        value = kernel_metrics().value
        deltas = {}
        for workers, chunks in ((0, 3 * len(texts)), (2, pooled_chunks)):
            with ExtractionEngine(registry(), workers=workers,
                                  batch_size=4) as engine:
                engine.run(texts[:1], spanner)     # fork, certify
                engine.chunk_cache.clear()
                before = [value(name) for name in KERNEL_COUNTERS]
                latency = engine.metrics.histogram(
                    "engine.chunk_eval_seconds")
                samples = latency.count
                result = engine.run(texts, spanner)
                deltas[workers] = {
                    name: value(name) - was
                    for name, was in zip(KERNEL_COUNTERS, before)}
                deltas[workers]["engine.chunk_eval_seconds"] = \
                    latency.count - samples
            assert result.stats.chunks_evaluated \
                == result.stats.chunks_total == chunks
        return deltas

    def test_kernel_counters_count_the_workers_evaluations(self):
        # Overlapping captures: the runner refuses the token path, so
        # every chunk past the literal test reaches the search.
        deltas = self.kernel_deltas(compile_regex_formula(".*y{a+}.*", TXT))
        assert deltas[2] == deltas[0]
        assert deltas[0]["kernel.chunks_rejected"] > 0
        assert deltas[0]["kernel.configs_expanded"] > 0
        assert deltas[0]["kernel.bytes_swept"] > 0

    def test_token_path_counters_are_the_same_on_workers(self):
        # The a-run extractor is token-local: workers keep the token
        # path they inherit, so they search nothing either.  They scan
        # each document whole, so they count documents as chunks, and
        # every document here holds an a-run.
        deltas = self.kernel_deltas(a_run_extractor(),
                                    pooled_chunks=len(self.TEXTS))
        assert deltas[0]["kernel.chunks_rejected"] == 2 * len(self.TEXTS)
        assert deltas[2]["kernel.chunks_rejected"] == 0
        for name in ("kernel.configs_expanded", "kernel.main_line_bytes",
                     "kernel.bytes_swept"):
            assert deltas[0][name] == deltas[2][name] == 0
        # One latency sample per text evaluated: chunks in process,
        # documents on the workers.
        assert deltas[0]["engine.chunk_eval_seconds"] == 3 * len(self.TEXTS)
        assert deltas[2]["engine.chunk_eval_seconds"] == len(self.TEXTS)

    def test_run_delta_on_a_pooled_indexed_engine(self):
        # An attached index makes the parent split and prefilter: the
        # workers get the admitted chunks, never the index.
        spanner = a_run_extractor()
        texts = ["aa ab b. a", "b bb. ab", "aaa b a.", "bb b", "a a.b"]
        edited = Corpus.from_mapping({
            "doc-0000": "aa ab b. aa", "doc-0002": "b aaa a.",
            "doc-0003": "bb b", "doc-0004": "ab ab"})
        results = {}
        for workers in (0, 2):
            with ExtractionEngine(registry(), workers=workers,
                                  batch_size=2) as engine:
                engine.attach_index(engine.build_index(texts, spanner))
                engine.run(texts, spanner)
                result = engine.run_delta(edited, spanner)
            stats = result.stats
            assert stats.chunks_pruned > 0
            assert stats.chunk_cache_hits + stats.chunk_cache_misses \
                + stats.chunks_pruned == stats.chunks_total
            assert stats.chunks_evaluated == stats.chunk_cache_misses
            results[workers] = result.by_document
        assert results[2] == results[0] == {
            document.doc_id: evaluate_whole(spanner, document.text)
            for document in edited}

    def test_scheduler_run_over_chunk_lists(self):
        # The frozen benchmark replay drives the scheduler directly with
        # (doc_id, [(Span, text), ...]) batches and a runner offering
        # nothing but evaluate/evaluate_batch.
        spanner = a_run_extractor()
        splitter = FastSeparatorSplitter(" ")
        texts = ["aa ab a", "b aa", "aa ab a", "ab b aaa", "", "a b a"]
        batches = [[(f"doc-{i}", splitter.chunks_of(texts[i]))
                    for i in range(start, min(start + 2, len(texts)))]
                   for start in range(0, len(texts), 2)]
        runner = BareRunner(CompiledSpanner(spanner))
        found = {}
        for workers in (0, 2):
            scheduler = Scheduler(workers=workers)
            cache = ChunkCache()
            try:
                found[workers] = {}
                for batch in batches:
                    found[workers].update(
                        scheduler.run(runner, batch, cache, "replay"))
            finally:
                scheduler.close()
            instances = sum(len(chunks) for batch in batches
                            for _doc, chunks in batch)
            assert cache.hits + cache.misses == instances == 14
            # Pooled, the chunk entries live in the workers.
            assert len(cache) == (0 if workers else 5)
        assert found[2] == found[0] == {
            f"doc-{i}": evaluate_whole(spanner, text)
            for i, text in enumerate(texts)}


# ----------------------------------------------------------------------
# Pooled token path: workers scan whole documents
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["tokens", "sentences"])
def route_engines(request):
    """``(program, {workers: engine})`` over one registry splitter.
    The a-run extractor takes the token path: by ``tokens`` it plans
    self-splittable, by ``sentences`` (whose chunks drop text after the
    last period) ``whole``; pooled, both ship whole documents."""
    splitters = [entry for entry in registry()
                 if entry.name == request.param]
    engines = {workers: ExtractionEngine(splitters, workers=workers)
               for workers in (0, 2)}
    yield Program(a_run_extractor()), engines
    for engine in engines.values():
        engine.close()


def runs_by_workers(engines, texts, program):
    """One cold run of ``program`` over ``texts`` per engine."""
    runs = {}
    for workers, engine in engines.items():
        engine.chunk_cache.clear()
        runs[workers] = engine.run(texts, program)
    return runs


class TestWholeDocumentRoute:
    @given(st.lists(st.text(alphabet="ab .", max_size=12), min_size=1,
                    max_size=6))
    @example([""])
    @example(["aa", "ab", "baab"])                  # no delimiter
    @example([" aa", ".a b", "aa ", "a.", ". ", "."])  # edge delimiters
    def test_pooled_equals_in_process_equals_whole(self, route_engines,
                                                   texts):
        program, engines = route_engines
        runs = runs_by_workers(engines, texts, program)
        for position, text in enumerate(texts):
            doc_id = f"doc-{position:04d}"
            assert runs[2][doc_id] == runs[0][doc_id] \
                == evaluate_whole(program.executable, text), text
        # Pooled, a document is its one chunk.
        stats = runs[2].stats
        assert stats.chunk_cache_hits + stats.chunk_cache_misses \
            == stats.chunks_total == len(texts)
        assert stats.chunks_evaluated == stats.chunk_cache_misses \
            >= len(set(texts))

    @pytest.mark.parametrize("pattern", [
        ".*a b.*", ".*x{a+} y{b+}.*", ".*y{}b.*", None,
    ], ids=["boolean", "binary", "empty-capture", "a-runs"])
    def test_every_relation_shape(self, route_engines, pattern):
        # The route's relation shapes: no variable (the empty tuple),
        # two variables, an empty capture, and the token path's one
        # column.  Batches of three hold an empty document and repeats
        # within a batch and across batches; a second run repeats the
        # whole corpus against warm caches.
        program, engines = route_engines
        if pattern is not None:
            program = Program(compile_regex_formula(pattern, TXT))
        texts = ["", "aa bb", "aa bb", "b. a bbb a", "", "ab a b.",
                 "a b. b", "aa bb", "a b. b", "ba ab"]
        expected = {f"doc-{position:04d}":
                    evaluate_whole(program.executable, text)
                    for position, text in enumerate(texts)}
        assert any(expected.values())
        sizes = {workers: engine.scheduler.batch_size
                 for workers, engine in engines.items()}
        for engine in engines.values():
            engine.scheduler.batch_size = 3
        try:
            runs = [runs_by_workers(engines, texts, program)]
            runs.append({workers: engine.run(texts, program)
                         for workers, engine in engines.items()})
        finally:
            for workers, engine in engines.items():
                engine.scheduler.batch_size = sizes[workers]
        for run in runs:
            assert run[2].by_document == run[0].by_document == expected
            stats = run[2].stats
            assert stats.chunk_cache_hits + stats.chunk_cache_misses \
                + stats.chunks_pruned == stats.chunks_total

    def test_pooled_telemetry_reaches_the_parent(self):
        # No Scheduler runs on the route, yet a task still reports one
        # latency sample per document it evaluates, a kernel rejection
        # per document with no tuple, and its cache's hits, misses and
        # evictions.  A ``whole`` plan keeps no document entry in the
        # parent, so every count here is a worker's.
        splitters = [entry for entry in registry()
                     if entry.name == "sentences"]
        # Equal lengths: the pool cuts the doubled corpus into two
        # tasks between the pairs.
        texts = ["b bb", "aa b", "b.ba", "a aa", "bbb.", "ab a"]
        program = Program(a_run_extractor())
        value = kernel_metrics().value
        with ExtractionEngine(splitters, workers=2) as engine:
            engine.run(texts[:1], program)     # fork, certify
            engine.chunk_cache.clear()
            latency = engine.metrics.histogram("engine.chunk_eval_seconds")
            samples, rejected = latency.count, value("kernel.chunks_rejected")
            result = engine.run(texts, program)
            empty = sum(not tuples for _doc_id, tuples in result)
            assert empty == 3
            assert result.stats.chunks_evaluated == len(texts)
            assert latency.count - samples == len(texts)
            assert value("kernel.chunks_rejected") - rejected == empty
            # Each document twice in a row: the second copy is a hit in
            # the task that evaluates the first.  A one-entry cache per
            # worker evicts all but the last of its task's documents.
            engine.chunk_cache.clear()
            engine.chunk_cache.limit = 1
            stats = engine.run([text for text in texts for _ in (0, 1)],
                               program).stats
            assert len(engine.chunk_cache) == 0
        assert (stats.chunk_cache_hits, stats.chunk_cache_misses) \
            == (len(texts), len(texts))
        assert stats.chunk_cache_evictions >= len(texts) - 2

    def test_a_document_longer_than_one_scan(self, route_engines):
        from repro.runtime.fast import MAX_SCAN_CHARS

        program, engines = route_engines
        long = "aa ab." * (MAX_SCAN_CHARS // 6 + 1) + " a"
        assert len(long) > MAX_SCAN_CHARS
        texts = ["b aa", long, "a"]
        runs = runs_by_workers(engines, texts, program)
        expected = evaluate_whole(program.executable, long)
        assert runs[2]["doc-0001"] == runs[0]["doc-0001"] == expected
        assert len(expected) == MAX_SCAN_CHARS // 6 + 2
        assert runs[2]["doc-0000"] == runs[0]["doc-0000"] != set()

    def test_a_foreign_symbol_raises_pooled_and_in_process(
            self, route_engines):
        program, engines = route_engines
        for engine in engines.values():
            with pytest.raises(ValueError):
                engine.run(["aa b", "aa x a"], program)
            # The pool survives a task that raised.
            assert engine.run(["a b"], program)["doc-0000"] \
                == evaluate_whole(program.executable, "a b")

    def test_explain_names_the_route(self, route_engines):
        program, engines = route_engines
        certified = engines[2].certify(program)
        runners = {workers: engine.runner_for(certified, program)
                   for workers, engine in engines.items()}
        assert engines[0].pool_route(certified, runners[0]) is None
        assert engines[2].pool_route(certified, runners[2]) \
            == "whole documents (token path)"

    def test_a_prefilter_cuts_in_the_parent(self):
        # Under a prefilter the parent splits and ships admitted chunks.
        program = Program(a_run_extractor())
        with ExtractionEngine(registry(), workers=2,
                              prefilter=True) as engine:
            certified = engine.certify(program)
            runner = engine.runner_for(certified, program)
            assert engine.pool_route(certified, runner) == "tokens"

    @pytest.mark.parametrize("kind", ["qz", "a"])
    def test_ledger_programs_take_the_whole_document_route(self, kind):
        from benchmarks.ledger.pipeline import build_query

        for workers, route in ((0, None),
                               (2, "whole documents (token path)")):
            query = build_query(kind, workers=workers)
            try:
                assert query.over([""]).explain()["pool_split"] == route
            finally:
                query.engine().close()

    @staticmethod
    def assert_workers_split(engines, program, texts, splitter):
        runs = runs_by_workers(engines, texts, program)
        certified = engines[2].certify(program)
        runner = engines[2].runner_for(certified, program)
        assert engines[2].pool_route(certified, runner) == splitter
        # Whole documents would count one chunk each.
        assert runs[2].stats.chunks_total == runs[0].stats.chunks_total \
            != len(texts)
        for position, text in enumerate(texts):
            doc_id = f"doc-{position:04d}"
            assert runs[2][doc_id] == runs[0][doc_id] \
                == evaluate_whole(program.specification, text), text

    def test_a_token_path_split_spanner_keeps_splitting(self):
        # Theorem 5.15's canonical split-spanner here is token-local
        # (a-runs by spaces), but it computes P_S: scanned whole, it
        # would also report the a-runs before the first period.
        spec = compile_regex_formula("(a|b| )*\\.(.* )?y{a+}( .*)?", TXT)
        engines = {workers: ExtractionEngine(
            [RegisteredSplitter("rest", rest_splitter())], workers=workers)
            for workers in (0, 2)}
        try:
            certified = engines[2].certify(spec)
            assert certified.plan.theorem == "Theorem 5.15"
            assert certified.chunk_runner().on_token_path
            self.assert_workers_split(
                engines, Program(spec),
                ["aa b.aa ab a.a aa", "a.a", "aa", "", "b.", "aa.b"],
                "rest")
        finally:
            for engine in engines.values():
                engine.close()

    def test_a_regex_spanner_keeps_splitting(self):
        fast = RegexSpanner(r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)",
                            specification=a_run_extractor())
        engines = {workers: ExtractionEngine(registry(), workers=workers)
                   for workers in (0, 2)}
        try:
            self.assert_workers_split(
                engines, Program(fast), ["aa ab a.", "b aa b. aa", "a b"],
                "tokens")
        finally:
            for engine in engines.values():
                engine.close()
