"""Tests for the corpus index subsystem (:mod:`repro.index`):
necessary-factor extraction, the trigram posting index, the
plan-integrated chunk prefilter, and the fluent/CLI surfaces."""

import pytest
from hypothesis import given

from repro.engine import Corpus, ExtractionEngine, PlanCache, Program
from repro.index import FactorSet, IndexFilter, SegmentedIndex, factors_of
from repro.index.factors import GRAM, formula_candidates
from repro.query import Q, Spanner, Splitter
from repro.errors import ReproError
from repro.runtime import RegisteredSplitter
from repro.runtime.fast import FastSeparatorSplitter
from repro.spanners.regex_formulas import (
    compile_regex_formula,
    parse_regex_formula,
)
from repro.splitters.builders import separator_splitter

from tests.conftest import formula_nodes_st
from tests.reference import admitted_texts

ALPHA = frozenset("abcdefgh qz.")

QZ_PATTERN = (".*(\\.| )y{qz+}(\\.| ).*|y{qz+}(\\.| ).*"
              "|.*(\\.| )y{qz+}|y{qz+}")


def qz_extractor():
    return compile_regex_formula(QZ_PATTERN, ALPHA)


def sentence_registry():
    return [
        RegisteredSplitter(
            "sentences", separator_splitter(ALPHA, "."),
            priority=1, executor=FastSeparatorSplitter("."),
        ),
    ]


CORPUS_TEXTS = [
    "ab qz cd. ef gh ab. ab ab ab.",
    "cd cd cd. ef ef ef.",
    "qzz ab. gh qz.",
    "",
    "abcd efgh.",
]


# ----------------------------------------------------------------------
# Factor extraction
# ----------------------------------------------------------------------


class TestFactorExtraction:
    def test_required_literal_found_via_ast_and_nfa(self):
        factors = factors_of(qz_extractor())
        assert factors is not None
        assert "qz" in factors.required
        assert factors.min_length >= 2
        assert factors.effective

    def test_nfa_only_path_finds_necessary_letters(self):
        # Strip the remembered formula: the NFA-path analysis alone
        # must still discover the necessary literal.
        spanner = qz_extractor()
        del spanner.formula
        factors = factors_of(spanner)
        assert factors is not None
        assert any("qz" in factor for factor in factors.required)

    def test_factorless_spanner_is_ineffective(self):
        spanner = compile_regex_formula(".*y{a+|b+}.*", ALPHA)
        factors = factors_of(spanner)
        assert factors is not None
        assert not factors.effective
        assert factors.admits("cd cd")  # nothing is ever pruned

    def test_empty_language_prunes_everything(self):
        spanner = compile_regex_formula("!y{a}", ALPHA)
        factors = factors_of(spanner)
        assert factors is not None
        assert factors.empty
        assert not factors.admits("ab qz")

    def test_min_length_of_exact_word(self):
        spanner = compile_regex_formula("y{abcd}", ALPHA)
        factors = factors_of(spanner)
        assert factors.min_length == 4
        assert "abcd" in factors.required
        assert not factors.admits("abc")
        assert factors.admits("abcd")

    def test_trigram_or_filter(self):
        # Two alternative literals: neither is required, but the
        # realizable trigrams cover both branches.
        spanner = compile_regex_formula("y{abcd}|y{efgh}", ALPHA)
        factors = factors_of(spanner)
        assert factors.trigrams is not None
        assert {"abc", "bcd", "efg", "fgh"} <= set(factors.trigrams)
        assert factors.admits("abcd")
        assert factors.admits("efgh")
        assert not factors.admits("adeh")

    def test_out_of_alphabet_text_is_always_admitted(self):
        factors = factors_of(qz_extractor())
        assert factors.admits("UPPERCASE NOT IN ALPHABET")

    def test_non_character_alphabet_unsupported(self):
        from repro.spanners.vset_automaton import VSetAutomaton
        from repro.automata.nfa import NFA
        from repro.spanners.refwords import gamma

        alphabet = frozenset([("tok", 1), ("tok", 2)])
        nfa = NFA(alphabet | gamma(frozenset()), [0], 0, [0],
                  [(0, symbol, 0) for symbol in alphabet])
        spanner = VSetAutomaton(alphabet, frozenset(), nfa)
        assert factors_of(spanner) is None

    def test_formula_candidates_capture_literal_runs(self):
        node = parse_regex_formula(".*x{qz+}(ab|cd)gh.*")
        candidates = formula_candidates(node)
        assert "qz" in candidates
        assert any("gh" in c for c in candidates)

    @given(formula_nodes_st())
    def test_admits_is_sound_on_random_formulas(self, node):
        """Rejected text => empty result, on every short document."""
        try:
            spanner = compile_regex_formula(node, frozenset("ab"))
        except ValueError:
            return
        factors = factors_of(spanner)
        if factors is None:
            return
        documents = ["", "a", "b", "ab", "ba", "aab", "bab", "abab",
                     "bbaa", "aabba"]
        for document in documents:
            if not factors.admits(document):
                assert spanner.evaluate(document) == set()


# ----------------------------------------------------------------------
# The trigram posting index
# ----------------------------------------------------------------------


class TestMemoryIndex:
    def build_index(self, num_shards=1):
        return SegmentedIndex.build(
            Corpus.from_texts(CORPUS_TEXTS),
            Splitter.named("sentences", ALPHA),
            num_shards=num_shards,
        )

    def test_build_deduplicates_texts(self):
        index = self.build_index()
        assert index.directory is None
        assert index.documents == len(CORPUS_TEXTS)
        assert index.chunk_instances >= len(index)
        assert index.splitter == "sentences"
        assert "ab qz cd." in index
        assert index.text_id("not indexed") is None

    def test_sharded_build_equals_unsharded(self):
        whole = self.build_index()
        sharded = self.build_index(num_shards=3)
        assert sharded.shards_indexed == 3
        assert sharded.segment_count == 3
        assert len(whole) == len(sharded)
        assert whole.documents == sharded.documents
        factors = factors_of(qz_extractor())
        assert set(whole.texts()) == set(sharded.texts())
        assert admitted_texts(whole, factors) \
            == admitted_texts(sharded, factors) \
            == {"ab qz cd.", "qzz ab.", "gh qz."}

    def test_candidates_respect_required_factors(self):
        index = self.build_index()
        factors = factors_of(qz_extractor())
        mask = index.candidates(factors)
        assert mask is not None
        for text in ["ab qz cd.", "qzz ab.", "gh qz."]:
            assert (mask >> index.text_id(text)) & 1
        for text in ["cd cd cd.", "ef ef ef.", "abcd efgh."]:
            assert not (mask >> index.text_id(text)) & 1

    def test_candidates_long_factor_uses_trigram_approximation(self):
        index = SegmentedIndex.create()
        index.add_document(["aaabcdeaa", "gh gh gh"])
        index.flush()
        factors = FactorSet(ALPHA, required=("abcde",))
        mask = index.candidates(factors)
        assert (mask >> index.text_id("aaabcdeaa")) & 1
        assert not (mask >> index.text_id("gh gh gh")) & 1

    def test_candidates_without_conditions_is_none(self):
        index = self.build_index()
        assert index.candidates(FactorSet(ALPHA)) is None
        assert SegmentedIndex.create().candidates(
            FactorSet(ALPHA, required=("qz",))
        ) is None  # empty index cannot help

    def test_empty_language_candidates_nothing(self):
        index = self.build_index()
        assert index.candidates(FactorSet(ALPHA, empty=True)) == 0

    def test_short_texts_survive_trigram_or_filter(self):
        index = SegmentedIndex.create()
        # "ab" has no trigrams: it must stay a candidate.
        index.add_document(["ab", "ghghgh"])
        index.flush()
        factors = FactorSet(ALPHA, trigrams=frozenset(["abc"]))
        mask = index.candidates(factors)
        assert (mask >> index.text_id("ab")) & 1
        assert not (mask >> index.text_id("ghghgh")) & 1

    def test_unicode_chunks_roundtrip(self, tmp_path):
        path = str(tmp_path / "uni.segs")
        SegmentedIndex.create(path).add_document(["héllo wörld"])
        with SegmentedIndex.open(path) as reopened:
            assert "héllo wörld" in reopened

    def test_memory_index_touches_no_disk_and_refuses_pickle(
            self, tmp_path, monkeypatch):
        import pickle

        monkeypatch.chdir(tmp_path)
        index = self.build_index(num_shards=2)
        index.update_document("doc-0000", ["fresh qz."])
        index.compact()
        assert index.refresh() is False
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(TypeError):
            pickle.dumps(index)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


class TestEnginePrefilter:
    def engines(self):
        plan_cache = PlanCache()
        baseline = ExtractionEngine(sentence_registry(),
                                    plan_cache=plan_cache)
        filtered = ExtractionEngine(sentence_registry(),
                                    plan_cache=plan_cache, prefilter=True)
        return baseline, filtered

    def test_identical_results_with_pruning(self):
        baseline, filtered = self.engines()
        program = Program(qz_extractor(), name="qz")
        corpus = Corpus.from_texts(CORPUS_TEXTS)
        base = baseline.run(corpus, program)
        fast = filtered.run(corpus, program)
        assert base.by_document == fast.by_document
        stats = filtered.stats()
        assert stats.chunks_pruned > 0
        assert stats.chunks_evaluated < baseline.stats().chunks_evaluated
        assert stats.chunks_total == baseline.stats().chunks_total
        assert 0 < stats.prune_rate <= 1

    def test_indexed_engine_agrees_and_prunes(self):
        baseline, _ = self.engines()
        program = Program(qz_extractor(), name="qz")
        corpus = Corpus.from_texts(CORPUS_TEXTS)
        engine = ExtractionEngine(sentence_registry())
        index = engine.build_index(corpus, program)
        assert engine.index is None  # build does not attach
        engine.attach_index(index)
        assert engine.index is index
        result = engine.run(corpus, program)
        assert result.by_document == baseline.run(corpus, program) \
            .by_document
        assert engine.stats().chunks_pruned > 0

    def test_prefilter_false_never_prunes(self):
        engine = ExtractionEngine(sentence_registry(), prefilter=False)
        engine.attach_index(
            engine.build_index(Corpus.from_texts(CORPUS_TEXTS),
                               Program(qz_extractor()))
        )
        engine.run(Corpus.from_texts(CORPUS_TEXTS),
                   Program(qz_extractor()))
        assert engine.stats().chunks_pruned == 0

    def test_default_engine_unchanged(self):
        engine = ExtractionEngine(sentence_registry())
        engine.run(Corpus.from_texts(CORPUS_TEXTS),
                   Program(qz_extractor()))
        assert engine.stats().chunks_pruned == 0

    def test_whole_document_plan_prunes_documents(self):
        # No splitters registered: the whole document is one chunk and
        # non-matching documents are skipped entirely.
        engine = ExtractionEngine([], prefilter=True)
        baseline = ExtractionEngine([])
        program = Program(qz_extractor(), name="qz")
        corpus = Corpus.from_texts(["ab qz cd", "ab cd ef", "gh gh"])
        assert (engine.run(corpus, program).by_document
                == baseline.run(corpus, program).by_document)
        assert engine.stats().chunks_pruned == 2

    def test_prefilter_report_modes(self):
        baseline, filtered = self.engines()
        program = Program(qz_extractor(), name="qz")
        certified = filtered.certify(program)
        report = filtered.prefilter_report(certified)
        assert report["enabled"] and report["mode"] == "scan"
        assert "qz" in report["required"]
        off = baseline.prefilter_report(baseline.certify(program))
        assert not off["enabled"]

    def test_pruned_chunks_never_enter_chunk_cache(self):
        _, filtered = self.engines()
        program = Program(qz_extractor(), name="qz")
        filtered.run(Corpus.from_texts(CORPUS_TEXTS), program)
        stats = filtered.stats()
        assert stats.chunk_cache_misses + stats.chunk_cache_hits \
            == stats.chunks_total - stats.chunks_pruned

    def test_stats_since_and_merge_cover_pruning(self):
        from repro.engine import EngineStats

        first = EngineStats(chunks_total=10, chunks_pruned=4)
        second = EngineStats(chunks_total=16, chunks_pruned=6)
        assert second.since(first).chunks_pruned == 2
        assert "chunks_pruned" in first.snapshot()


# ----------------------------------------------------------------------
# Fluent query surface
# ----------------------------------------------------------------------


class TestQueryIndexed:
    def spanner(self):
        return Spanner.regex(QZ_PATTERN, ALPHA, name="qz")

    def test_auto_index_on_over(self):
        query = Q(self.spanner()).split_by("sentences").indexed()
        results = query.over(CORPUS_TEXTS)
        plain = Q(self.spanner()).split_by("sentences") \
            .over(CORPUS_TEXTS)
        assert results.materialize() == plain.materialize()
        assert results.stats().chunks_pruned > 0
        assert query.engine().index is not None

    def test_prebuilt_index_reaches_engine(self):
        index = SegmentedIndex.build(Corpus.from_texts(CORPUS_TEXTS),
                                     Splitter.named("sentences", ALPHA))
        query = Q(self.spanner()).split_by("sentences").indexed(index)
        results = query.over(CORPUS_TEXTS)
        results.materialize()
        assert query.engine().index is index
        assert results.stats().chunks_pruned > 0

    def test_indexed_rejects_non_index(self):
        # Directory paths (str) are accepted; other non-index objects
        # get the typed rejection.
        with pytest.raises(ReproError):
            Q(self.spanner()).indexed(42)

    def test_explain_carries_index_block(self):
        query = Q(self.spanner()).split_by("sentences").indexed()
        results = query.over(CORPUS_TEXTS)
        results.materialize()
        report = results.explain()
        assert report["index"]["enabled"]
        assert report["index"]["mode"] == "indexed"
        assert "qz" in report["index"]["required"]
        assert report["stats"]["chunks_pruned"] > 0

    def test_unindexed_explain_reports_disabled(self):
        results = Q(self.spanner()).split_by("sentences") \
            .over(CORPUS_TEXTS)
        assert not results.explain()["index"]["enabled"]

    def test_factorless_query_falls_back(self):
        spanner = Spanner.regex(".*y{a+|b+}.*", ALPHA)
        indexed = Q(spanner).split_by("sentences").indexed()
        plain = Q(spanner).split_by("sentences")
        assert indexed.over(CORPUS_TEXTS).materialize() \
            == plain.over(CORPUS_TEXTS).materialize()
        report = indexed.over(CORPUS_TEXTS).explain()
        assert not report["index"]["enabled"]
        assert "no effective factors" in report["index"]["reason"]


# ----------------------------------------------------------------------
# The IndexFilter seam
# ----------------------------------------------------------------------


class TestIndexFilter:
    def test_scan_mode_without_index(self):
        factors = factors_of(qz_extractor())
        prefilter = IndexFilter(factors)
        assert prefilter.mode == "scan"
        assert prefilter.admits("ab qz cd")
        assert not prefilter.admits("ab cd ef")

    def test_indexed_mode_rejects_by_mask(self):
        index = SegmentedIndex.create()
        index.add_document(["ab qz cd", "ab cd ef"])
        index.flush()
        prefilter = IndexFilter(factors_of(qz_extractor()), index)
        assert prefilter.mode == "indexed"
        assert prefilter.admits("ab qz cd")
        assert not prefilter.admits("ab cd ef")
        # Unindexed texts fall back to the scan path.
        assert prefilter.admits("qz gh")
        assert not prefilter.admits("gh gh")

    def test_describe_reports_factors(self):
        prefilter = IndexFilter(factors_of(qz_extractor()))
        described = prefilter.describe()
        assert described["mode"] == "scan"
        assert "qz" in described["required"]

    def test_mask_refreshes_after_incremental_index_growth(self):
        # The advertised incremental build must not leave a filter
        # pruning against a stale candidate snapshot.
        index = SegmentedIndex.create()
        index.add_document(["ab cd ef"])
        prefilter = IndexFilter(factors_of(qz_extractor()), index)
        assert not prefilter.admits("ab cd ef")
        index.add_document(["qz ab", "gh gh"])
        assert prefilter.admits("qz ab")
        assert not prefilter.admits("gh gh")

    def test_repeated_instances_memoize_decisions(self):
        prefilter = IndexFilter(factors_of(qz_extractor()))
        assert prefilter.admits("ab qz cd")
        assert prefilter._decisions == {"ab qz cd": True}
        assert prefilter.admits("ab qz cd")  # served from the memo

    def test_decision_counters_add_up_per_batch(self):
        # Decisions are tallied in ints and added to the counters once
        # per batch: after two runs the counters hold exactly what
        # counting every decision as it is made would.  The second
        # run's documents are new texts over the same chunks, so every
        # instance reaches the prefilter (a repeated document would be
        # served whole from the cache, see below).
        program = Program(qz_extractor(), name="qz")
        texts = ["ab qz cd. ef gh.", "ab qz cd. gh gh.", "qz qz. ef gh.",
                 "cd cd. ab qz cd.", "ef gh."]
        regrouped = ["".join(texts[:3]), "".join(texts[3:])]
        engine = ExtractionEngine(sentence_registry(), batch_size=2,
                                  prefilter=True)
        engine.run(Corpus.from_texts(texts), program)
        engine.run(Corpus.from_texts(regrouped), program)
        chunks = [chunk for text in texts
                  for chunk in FastSeparatorSplitter(".").chunks(text)]
        assert sorted(chunk for text in regrouped for chunk in
                      FastSeparatorSplitter(".").chunks(text)) \
            == sorted(chunks)
        factors = engine.certify(program).factor_set()
        admitted = {chunk for chunk in chunks if factors.admits(chunk)}

        def decisions():
            totals = {}
            for instrument in engine.metrics.instruments():
                totals[instrument.name] = \
                    totals.get(instrument.name, 0) + getattr(
                        instrument, "value", 0)
            return (totals["index.admitted"], totals["index.pruned"],
                    totals["index.memo_hits"])

        pruned = len([chunk for chunk in chunks if chunk not in admitted])
        assert 0 < len(admitted) < len(set(chunks))
        assert decisions() \
            == (len(admitted), len(set(chunks)) - len(admitted),
                2 * len(chunks) - len(set(chunks)))
        assert engine.stats().chunks_pruned == 2 * pruned
        assert engine.stats().document_cache_hits == 0

        # A repeated document is served whole: no split, no decision,
        # yet its chunk instances are accounted as before.
        before = decisions()
        repeat = engine.run(Corpus.from_texts(texts), program)
        assert decisions() == before
        assert repeat.stats.document_cache_hits == len(texts)
        assert (repeat.stats.chunks_total, repeat.stats.chunks_pruned,
                repeat.stats.chunk_cache_hits,
                repeat.stats.chunk_cache_misses) \
            == (len(chunks), pruned, len(chunks) - pruned, 0)

    def test_engine_stays_sound_when_attached_index_grows(self):
        program = Program(qz_extractor(), name="qz")
        engine = ExtractionEngine(sentence_registry())
        baseline = ExtractionEngine(sentence_registry())
        first = Corpus.from_texts(["ab cd ef. gh gh."])
        engine.attach_index(engine.build_index(first, program))
        engine.run(first, program)
        second = Corpus.from_texts(["qz ab. cd cd."], prefix="more")
        # Incremental growth after the engine already cached a filter:
        # index the new document's chunks exactly as splitting will.
        engine.index.add_document(
            FastSeparatorSplitter(".").chunks("qz ab. cd cd.")
        )
        result = engine.run(second, program)
        assert result.by_document == baseline.run(second, program) \
            .by_document


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestIndexCli:
    def test_index_subcommand_builds_and_saves(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "corpus.segs")
        code = main([
            "index", "--alphabet", "abcdefgh qz.",
            "--splitter", "sentences",
            "--text", "ab qz cd. ef gh.", "--text", "ab ab. qz qz.",
            "--output", path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct_texts" in out
        assert f"saved index to {path}" in out
        with SegmentedIndex.open(path) as index:
            assert len(index) == 4

    def test_index_subcommand_without_output_builds_in_memory(
            self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "index", "--alphabet", "abcdefgh qz.",
            "--splitter", "sentences",
            "--text", "ab qz cd. ef gh.", "--shards", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct_texts: 2" in out and "directory: None" in out
        assert "saved index" not in out
        assert list(tmp_path.iterdir()) == []

    def test_index_subcommand_suggests_splitter(self, capsys):
        from repro.__main__ import main

        code = main([
            "index", "--alphabet", "ab .", "--splitter", "sentence",
            "--text", "ab.",
        ])
        assert code == 2
        assert "did you mean 'sentences'" in capsys.readouterr().err

    def test_engine_subcommand_with_index(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "corpus.idx")
        assert main([
            "index", "--alphabet", "abcdefgh qz.",
            "--splitter", "sentences",
            "--text", "ab qz cd. ef gh.",
            "--output", path,
        ]) == 0
        capsys.readouterr()
        code = main([
            "engine", "--pattern", QZ_PATTERN,
            "--alphabet", "abcdefgh qz.",
            "--splitters", "sentences",
            "--text", "ab qz cd. ef gh.",
            "--text", "ab ab cd.",
            "--index", path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "index prefilter" in out
        assert "chunks_pruned: 1" in out

    def test_engine_subcommand_missing_index_file(self, capsys):
        from repro.__main__ import main

        code = main([
            "engine", "--pattern", QZ_PATTERN,
            "--alphabet", "abcdefgh qz.",
            "--splitters", "sentences",
            "--text", "ab qz.",
            "--index", "/nonexistent/corpus.idx",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
