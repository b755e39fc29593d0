"""Tests for the fluent query API (repro.query).

Covers the operator-overload algebra against the free functions of
:mod:`repro.spanners.algebra` (Hypothesis property tests), the lazy
:class:`ResultSet` streaming semantics against materialized engine
results, the shared splitter registry, the typed exception hierarchy,
and the curated top-level namespace.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

import repro
from repro import (
    CertificationError,
    NotFunctionalError,
    Q,
    Query,
    ReproError,
    Spanner,
    Splitter,
    UnknownSplitterError,
)
from repro.core.api import self_splittable, split_correct
from repro.engine import Corpus, ExtractionEngine
from repro.runtime.executor import evaluate_whole
from repro.spanners import algebra
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import (
    build_named,
    known_splitter_names,
    registry,
    token_splitter,
)
from tests.conftest import documents_st, formula_nodes_st
from tests.reference import documents_upto

AB = frozenset("ab")
TXT = frozenset("ab .")
PATTERN = ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}"

CORPUS = [
    "aa ab ba aa.",
    "aa ab ba aa.",      # duplicate: exercises the chunk cache
    "b a ab.",
    "aaa b.",
    "",
]


def _spanner_pair(node1, node2):
    p1 = compile_regex_formula(node1, AB)
    p2 = compile_regex_formula(node2, AB)
    assume(p1.variables == p2.variables)
    return p1, p2


# ----------------------------------------------------------------------
# Operator-overload algebra == free functions
# ----------------------------------------------------------------------


class TestOperatorAlgebra:
    @given(formula_nodes_st(max_depth=2), formula_nodes_st(max_depth=2))
    def test_or_equals_union(self, node1, node2):
        p1, p2 = _spanner_pair(node1, node2)
        fluent = Spanner(p1) | Spanner(p2)
        free = algebra.union(p1, p2)
        for document in documents_upto(AB, 3):
            assert fluent.evaluate(document) == free.evaluate(document)
            assert fluent.evaluate(document) == (
                p1.evaluate(document) | p2.evaluate(document)
            )

    @given(formula_nodes_st(max_depth=2), formula_nodes_st(max_depth=2))
    def test_sub_equals_difference(self, node1, node2):
        p1, p2 = _spanner_pair(node1, node2)
        fluent = Spanner(p1) - Spanner(p2)
        free = algebra.difference(p1, p2)
        for document in documents_upto(AB, 3):
            assert fluent.evaluate(document) == free.evaluate(document)
            assert fluent.evaluate(document) == (
                p1.evaluate(document) - p2.evaluate(document)
            )

    @given(formula_nodes_st(max_depth=2), formula_nodes_st(max_depth=2))
    def test_and_equals_intersect(self, node1, node2):
        p1, p2 = _spanner_pair(node1, node2)
        fluent = Spanner(p1) & Spanner(p2)
        free = algebra.intersect(p1, p2)
        for document in documents_upto(AB, 3):
            assert fluent.evaluate(document) == free.evaluate(document)
            assert fluent.evaluate(document) == (
                p1.evaluate(document) & p2.evaluate(document)
            )

    @given(formula_nodes_st(max_depth=2), formula_nodes_st(max_depth=2))
    def test_join_equals_natural_join(self, node1, node2):
        p1 = compile_regex_formula(node1, AB)
        p2 = compile_regex_formula(node2, AB)
        fluent = Spanner(p1).join(Spanner(p2))
        free = algebra.natural_join(p1, p2)
        for document in documents_upto(AB, 3):
            assert fluent.evaluate(document) == free.evaluate(document)

    @given(formula_nodes_st(max_depth=2))
    def test_project_equals_projection(self, node):
        p = compile_regex_formula(node, AB)
        assume(p.variables)
        keep = sorted(p.variables)[:1]
        fluent = Spanner(p).project(*keep)
        free = algebra.project(p, frozenset(keep))
        assert fluent.variables == frozenset(keep)
        for document in documents_upto(AB, 3):
            assert fluent.evaluate(document) == free.evaluate(document)

    def test_operators_coerce_raw_automata(self):
        a = Spanner.regex(".*x{a}.*", AB)
        b = compile_regex_formula(".*x{b}.*", AB)
        assert (a | b).evaluate("ab") == \
            algebra.union(a.vsa(), b).evaluate("ab")

    def test_operators_reject_foreign_operands(self):
        a = Spanner.regex(".*x{a}.*", AB)
        with pytest.raises(TypeError):
            a | 42
        # The named methods raise the typed error instead.
        for method in (a.union, a.intersect, a.difference, a.join):
            with pytest.raises(ReproError):
                method("nonsense")

    def test_derived_spanners_certify(self):
        a = Spanner.regex(".*x{a}.*", AB)
        b = Spanner.regex(".*x{b}.*", AB)
        union = a | b
        assert union.vsa().is_functional()


# ----------------------------------------------------------------------
# Spanner / Splitter wrappers
# ----------------------------------------------------------------------


class TestSpannerWrapper:
    def test_regex_constructor_names_and_evaluates(self):
        spanner = Spanner.regex(".*x{a}.*", AB)
        assert spanner.name == ".*x{a}.*"
        assert spanner.variables == {"x"}
        assert {t["x"].begin for t in spanner.evaluate("aba")} == {1, 3}

    def test_from_vsa(self):
        automaton = compile_regex_formula(".*x{a}.*", AB)
        spanner = Spanner.from_vsa(automaton, name="letters")
        assert spanner.specification is automaton
        assert spanner.name == "letters"
        with pytest.raises(ReproError):
            Spanner.from_vsa("not an automaton")

    def test_not_functional_regex_raises_typed_error(self):
        with pytest.raises(NotFunctionalError):
            Spanner.regex("(x{a})*", AB)
        # The typed error still honours legacy except-clauses.
        with pytest.raises(ValueError):
            Spanner.regex("(x{a})*", AB)

    def test_immutable(self):
        spanner = Spanner.regex(".*x{a}.*", AB)
        with pytest.raises(AttributeError):
            spanner.name = "other"

    def test_wrapper_accepted_by_core_api(self):
        spanner = Spanner.regex(PATTERN, TXT)
        tokens = Splitter.named("tokens", TXT)
        raw = self_splittable(spanner.vsa(), tokens.automaton)
        assert self_splittable(spanner, tokens) == raw
        assert split_correct(spanner, spanner, tokens) == raw

    def test_core_api_rejects_unwrappable(self):
        tokens = token_splitter(TXT)
        with pytest.raises(CertificationError):
            self_splittable("not a spanner", tokens)


class TestSplitterWrapper:
    def test_named_uses_registry(self):
        tokens = Splitter.named("tokens", TXT)
        assert tokens.name == "tokens"
        assert tokens.is_disjoint()
        assert tokens.chunks("aa b.") == ["aa", "b."]

    def test_named_parametric(self):
        assert Splitter.named("ngram2", TXT).automaton.variables == {"x"}
        assert Splitter.named("window3", AB).chunks("ababa") == \
            ["aba", "ba"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(UnknownSplitterError) as excinfo:
            Splitter.named("bogus", AB)
        assert "bogus" in str(excinfo.value)
        for name in ("tokens", "ngram<N>"):
            assert name in str(excinfo.value)

    def test_rejects_non_unary_automata(self):
        binary = compile_regex_formula("x{a}y{b}", AB)
        with pytest.raises(ReproError):
            Splitter.from_vsa(binary)


# ----------------------------------------------------------------------
# The shared registry (CLI == fluent API)
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registry_names_resolve(self):
        # An alphabet containing every builder's required separators.
        alphabet = frozenset("ab .\n#")
        for name in registry():
            automaton = build_named(name, alphabet)
            assert automaton.arity == 1

    def test_parametric_names(self):
        assert build_named("ngram3", TXT).variables == {"x"}
        assert build_named("window8", AB).variables == {"x"}
        # Parameterless forms fall back to the documented defaults.
        assert build_named("ngram", TXT).variables == {"x"}

    def test_known_names_cover_registry_and_families(self):
        known = known_splitter_names()
        assert set(registry()) <= set(known)
        assert "ngram<N>" in known and "window<N>" in known

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(UnknownSplitterError):
            build_named("ngramx", AB)
        with pytest.raises(UnknownSplitterError):
            build_named("sentence", TXT)   # singular: not a name

    def test_cli_unknown_splitter_is_typed_error(self, capsys):
        from repro.__main__ import main

        code = main([
            "analyze", "--pattern", ".*x{a}.*", "--alphabet", "ab",
            "--splitters", "bogus",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown splitter 'bogus'" in err
        assert "tokens" in err

    def test_cli_rejects_zero_batch_size(self, capsys):
        # --batch-size 0 must reach the scheduler's validation, not be
        # silently swallowed by a truthiness check.
        from repro.__main__ import main

        code = main([
            "engine", "--pattern", ".*x{a}.*", "--alphabet", "ab ",
            "--splitters", "tokens", "--text", "a b", "--batch-size", "0",
        ])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    def test_cli_parse_error_exits_2(self, capsys):
        # Regex parse errors are plain ValueErrors from below the
        # fluent surface; the CLI must still report them cleanly.
        from repro.__main__ import main

        code = main([
            "analyze", "--pattern", "(((", "--alphabet", "ab",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Query builder
# ----------------------------------------------------------------------


class TestQueryBuilder:
    def test_chaining_is_immutable(self):
        base = Q(Spanner.regex(PATTERN, TXT))
        derived = base.split_by("tokens").workers(2).batch_size(4)
        assert base.splitters == ()
        assert derived.splitters[0].name == "tokens"
        assert isinstance(derived, Query)
        with pytest.raises(AttributeError):
            derived._workers = 4

    def test_split_by_accepts_wrappers_and_names(self):
        tokens = Splitter.named("tokens", TXT)
        query = Q(Spanner.regex(PATTERN, TXT)).split_by(tokens, "whole")
        assert [s.name for s in query.splitters] == ["tokens", "whole"]
        with pytest.raises(ReproError):
            query.split_by(42)

    def test_on_single_document_matches_evaluate_whole(self):
        spanner = Spanner.regex(PATTERN, TXT)
        query = Q(spanner).split_by("tokens")
        document = "aa ab ba aa."
        assert query.on(document) == evaluate_whole(spanner.vsa(), document)

    def test_using_shares_an_engine(self):
        alphabet = TXT
        engine = ExtractionEngine(
            [Splitter.named("tokens", alphabet).registered(priority=1)]
        )
        query = Q(Spanner.regex(PATTERN, alphabet)).using(engine)
        assert query.engine() is engine
        results = query.over(CORPUS)
        assert results.materialize()
        assert engine.stats().certifications == 1

    def test_pool_survives_over(self):
        # One Program per Query, hence one runner object, hence one
        # pool: a second .over() pass runs on the workers of the first.
        import io
        import json
        import multiprocessing

        from repro.obs import configure_event_log, event_log

        def worker_pids():
            return {child.pid for child in multiprocessing.active_children()}

        query = Q(Spanner.regex(PATTERN, TXT)).split_by("tokens").workers(2)
        assert query.program() is query.program()
        before = worker_pids()
        stream = io.StringIO()
        handler = configure_event_log(stream=stream)
        try:
            first = query.over(CORPUS).materialize()
            workers = worker_pids() - before
            assert len(workers) == 2
            query.engine().chunk_cache.clear()   # re-evaluate, on the pool
            second = query.over(CORPUS).materialize()
            assert worker_pids() - before == workers
        finally:
            event_log().detach(handler)
            query.engine().close()
        assert first == second
        events = [json.loads(line)["event"]
                  for line in stream.getvalue().splitlines()]
        assert events.count("engine.pool.start") == 1
        assert "engine.pool.retire" not in events

    def test_reconfiguring_a_pinned_query_raises(self):
        engine = ExtractionEngine(
            [Splitter.named("tokens", TXT).registered(priority=1)]
        )
        pinned = Q(Spanner.regex(PATTERN, TXT)).using(engine)
        for reconfigure in (lambda: pinned.split_by("whole"),
                            lambda: pinned.workers(2),
                            lambda: pinned.batch_size(4)):
            with pytest.raises(ReproError):
                reconfigure()


# ----------------------------------------------------------------------
# ResultSet: lazy streaming == materialized engine results
# ----------------------------------------------------------------------


class TestResultSet:
    def _query(self, **overrides):
        query = Q(Spanner.regex(PATTERN, TXT)).split_by("tokens")
        if "batch_size" in overrides:
            query = query.batch_size(overrides["batch_size"])
        return query

    def test_stream_equals_engine_result(self):
        query = self._query()
        streamed = dict(query.over(CORPUS).stream())
        engine = ExtractionEngine(
            [Splitter.named("tokens", TXT).registered(priority=1)]
        )
        materialized = engine.run(Corpus.from_texts(CORPUS),
                                  query.program())
        assert streamed == dict(materialized.by_document)

    def test_stream_equals_whole_document_evaluation(self):
        spanner = Spanner.regex(PATTERN, TXT)
        results = Q(spanner).split_by("tokens").over(CORPUS)
        for doc_id, tuples in results.stream():
            document = CORPUS[int(doc_id.split("-")[1])]
            assert tuples == evaluate_whole(spanner.vsa(), document)

    def test_stream_is_lazy_per_batch(self):
        query = self._query(batch_size=1)
        results = query.over(CORPUS)
        engine = query.engine()
        assert engine.stats().documents == 0       # nothing ran yet
        stream = results.stream()
        doc_id, _tuples = next(stream)
        assert doc_id == "doc-0000"
        assert engine.stats().documents == 1       # only the first batch
        next(stream)
        assert engine.stats().documents == 2
        results.materialize()
        assert engine.stats().documents == len(CORPUS)

    def test_exactly_one_certification(self):
        query = self._query(batch_size=2)
        results = query.over(CORPUS)
        results.materialize()
        stats = query.engine().stats()
        assert stats.certifications == 1
        # Re-running the same query replays the certificate.
        again = query.over(CORPUS)
        again.materialize()
        assert query.engine().stats().certifications == 1
        assert again.stats().certifications == 0

    def test_stream_replays_without_rerunning(self):
        query = self._query(batch_size=2)
        results = query.over(CORPUS)
        first = dict(results.stream())
        documents_after_first = query.engine().stats().documents
        second = dict(results.stream())
        assert first == second
        assert query.engine().stats().documents == documents_after_first

    def test_interleaved_streams_share_one_pass(self):
        query = self._query(batch_size=1)
        results = query.over(CORPUS)
        one, two = results.stream(), results.stream()
        assert next(one) == next(two)
        assert next(two) == next(one)
        assert query.engine().stats().documents == 2

    def test_getitem_streams_no_further_than_needed(self):
        query = self._query(batch_size=1)
        results = query.over(CORPUS)
        assert results["doc-0001"]
        assert query.engine().stats().documents == 2
        with pytest.raises(KeyError):
            results["doc-9999"]

    def test_materializers(self):
        results = self._query().over(["aa b a"])
        dicts = results.to_dicts()
        assert all(row["doc"] == "doc-0000" for row in dicts)
        assert {row["y"]["text"] for row in dicts} == {"aa", "a"}
        assert sorted(results.texts()) == ["a", "aa"]
        assert results.texts("y") == results.texts()
        assert results.total_tuples() == 2

    def test_explain_before_stream_keeps_artifact_accounting(self):
        # explain() resolves the runner through the engine, so calling
        # it before streaming must not hide the lowering from
        # EngineStats.artifacts_compiled.
        explain_first = self._query()
        results = explain_first.over(CORPUS)
        results.explain()
        results.materialize()
        stream_first = self._query()
        stream_first.over(CORPUS).materialize()
        assert (explain_first.engine().stats().artifacts_compiled
                == stream_first.engine().stats().artifacts_compiled)

    def test_to_dicts_orders_spans_numerically(self):
        # A single-digit and a double-digit offset: positional order
        # (3 before 12), not lexicographic ("12" before "3").
        results = self._query().over(["b aa b b b aaa"])
        rows = results.to_dicts()
        begins = [row["y"]["begin"] for row in rows]
        assert begins == sorted(begins)
        assert min(begins) < 10 <= max(begins)

    def test_serialised_output_is_golden(self):
        # Byte for byte what the dict-of-Span tuples serialised to:
        # to_dicts()/texts() read the flat columns now, and the HTTP
        # body is written from them; neither may move a key or a comma.
        import json

        from repro.serve.http import _result_body
        from repro.serve.service import ServiceResult

        pattern = "|".join(before + "x{a+}y{b*}" + after
                           for before in (".*( )", "")
                           for after in ("( ).*", ""))
        results = Q(Spanner.regex(pattern, "ab ")).split_by("tokens") \
            .over(["ab aab b a", "", "abb ab"])
        assert json.dumps(results.to_dicts()) == (
            '[{"doc": "doc-0000", "x": {"begin": 1, "end": 2, "text": "a"},'
            ' "y": {"begin": 2, "end": 3, "text": "b"}},'
            ' {"doc": "doc-0000", "x": {"begin": 4, "end": 6, "text": "aa"},'
            ' "y": {"begin": 6, "end": 7, "text": "b"}},'
            ' {"doc": "doc-0000", "x": {"begin": 10, "end": 11, "text": "a"},'
            ' "y": {"begin": 11, "end": 11, "text": ""}},'
            ' {"doc": "doc-0002", "x": {"begin": 1, "end": 2, "text": "a"},'
            ' "y": {"begin": 2, "end": 4, "text": "bb"}},'
            ' {"doc": "doc-0002", "x": {"begin": 5, "end": 6, "text": "a"},'
            ' "y": {"begin": 6, "end": 7, "text": "b"}}]')
        assert results.texts() == ["", "a", "a", "aa", "b", "b",
                                   "a", "a", "b", "bb"]
        assert results.texts("x") == ["a", "a", "aa", "a", "a"]
        with pytest.raises(KeyError):
            results.texts("z")
        served = ServiceResult(results.materialize(), "t", 0.0, 0.5)
        assert _result_body(served) == (
            '{"tenant": "t", "tuples": 5, "documents": {"doc-0000":'
            ' [{"x": [1, 2], "y": [2, 3]}, {"x": [4, 6], "y": [6, 7]},'
            ' {"x": [10, 11], "y": [11, 11]}], "doc-0001": [],'
            ' "doc-0002": [{"x": [1, 2], "y": [2, 4]},'
            ' {"x": [5, 6], "y": [6, 7]}]},'
            ' "queue_seconds": 0.0, "run_seconds": 0.5}').encode()

    def test_explain_reports_certificate_and_artifact(self):
        results = self._query().over(CORPUS)
        explain = results.explain()
        assert explain["mode"] == "split"
        assert explain["splitter"] == "tokens"
        assert explain["self_splittable"] is True
        assert explain["theorem"] == "Theorem 5.16"
        assert "PSPACE" in explain["procedure"]
        assert explain["compiled_artifact"]
        assert explain["certifications"] == 1
        assert explain["documents"] == len(CORPUS)

    def test_plan_and_results_report_the_same_kernel(self):
        # A self-splittable plan runs the program's own runner.  Until
        # the engine lowers it, the certificate says so; afterwards the
        # certificate reports that runner, exactly as the results do.
        pattern = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
                   "|.*(\\.| )y{a+}|y{a+}")
        query = Q(Spanner.regex(pattern, "abcdefgh .")).split_by("tokens")
        engine, program = query.engine(), query.program()
        assert engine.certify(program).explain()["kernel"] == {
            "tier": None, "fallback_reason": None,
            "path": "not lowered yet"}
        engine.runner_for(engine.certify(program), program)
        planned = engine.certify(program).explain()["kernel"]
        assert planned == query.over(["ab a. ba aa"]).explain()["kernel"]
        assert planned["path"] == "token"
        assert planned["token_path"] == {"delimiters": " .", "letters": "a"}

    def test_empty_corpus(self):
        results = self._query().over([])
        assert dict(results.stream()) == {}
        assert results.to_dicts() == []


# ----------------------------------------------------------------------
# Engine integration points
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_program_from_query(self):
        from repro.engine.engine import Program

        spanner = Spanner.regex(PATTERN, TXT)
        program = Program.from_query(spanner)
        assert program.executable is spanner.executable
        assert program.specification is spanner.specification
        assert program.name == PATTERN
        assert Program.from_query(program) is program
        raw = spanner.vsa()
        assert Program.from_query(raw).specification is raw

    def test_run_iter_matches_run(self):
        engine = ExtractionEngine(
            [Splitter.named("tokens", TXT).registered(priority=1)],
            batch_size=2,
        )
        spanner = compile_regex_formula(PATTERN, TXT)
        lazy = dict(engine.run_iter(Corpus.from_texts(CORPUS), spanner))
        fresh = ExtractionEngine(
            [Splitter.named("tokens", TXT).registered(priority=1)],
            batch_size=2,
        )
        eager = fresh.run(Corpus.from_texts(CORPUS), spanner)
        assert lazy == dict(eager.by_document)

    def test_planner_method_auto_certifies_dfvsa_fast(self):
        from repro.spanners.determinism import determinize

        spanner = determinize(compile_regex_formula(PATTERN, TXT))
        tokens = determinize(token_splitter(TXT))
        query = Q(Spanner.from_vsa(spanner)) \
            .split_by(Splitter.from_vsa(tokens, name="tokens"))
        explain = query.explain()
        assert explain["mode"] == "split"
        assert explain["theorem"] == "Theorem 5.17"
        assert "PTIME" in explain["procedure"]


# ----------------------------------------------------------------------
# A registry name runs its scanner; the scanner runs the specification
# ----------------------------------------------------------------------

#: ``a``-runs ending a sentence: self-splittable by ``sentences``.
SENTENCE_PATTERN = ".*(\\.| )y{a+}\\..*|y{a+}\\..*"


@pytest.fixture(scope="module", params=[0, 2],
                ids=["in-process", "workers-2"])
def sentence_queries(request):
    """``(spanner, by name, over the bare automaton)``, one pair of
    engines (and pools) for every generated corpus."""
    spanner = Spanner.regex(SENTENCE_PATTERN, TXT)
    by_name = Q(spanner).split_by("sentences").workers(request.param)
    bare = Q(spanner).workers(request.param).split_by(
        Splitter.from_vsa(build_named("sentences", TXT), name="sentences"))
    yield spanner, by_name, bare
    by_name.engine().close()
    bare.engine().close()


class TestNamedSplitterDifferential:
    def test_both_certify_a_split_plan(self, sentence_queries):
        _spanner, by_name, bare = sentence_queries
        named, unnamed = by_name.explain(), bare.explain()
        assert named["mode"] == unnamed["mode"] == "split"
        assert named["splitter_executor"] == \
            "FastSentenceSplitter('[^ .][^.]*\\\\.')"
        assert unnamed["splitter_executor"] == (
            "automaton (no executor registered for splitter 'sentences')")
        assert by_name.over(["a."]).explain()["splitter_executor"] == \
            named["splitter_executor"]

    @given(st.lists(documents_st(alphabet="ab .", max_length=14),
                    max_size=5))
    def test_name_equals_automaton_equals_whole(self, sentence_queries,
                                                texts):
        spanner, by_name, bare = sentence_queries
        corpus = Corpus.from_texts(texts)
        expected = {document.doc_id:
                    evaluate_whole(spanner.vsa(), document.text)
                    for document in corpus}
        assert by_name.over(corpus).materialize() == expected
        assert bare.over(corpus).materialize() == expected

    @pytest.mark.parametrize("workers", [0, 2])
    @given(texts=st.lists(documents_st(alphabet="ab .", max_length=14),
                          min_size=1, max_size=4),
           edits=st.lists(documents_st(alphabet="ab .", max_length=14),
                          min_size=1, max_size=4))
    def test_run_delta_after_an_edit_equals_a_fresh_run(self, workers,
                                                        texts, edits):
        spanner = Spanner.regex(SENTENCE_PATTERN, TXT)
        edited = Corpus.from_mapping({
            f"doc-{position:04d}": text
            for position, text in enumerate(edits[:len(texts)])})
        query = Q(spanner).split_by("sentences").workers(workers).indexed()
        engine = query.engine()
        try:
            query.over(texts).materialize()
            result = engine.run_delta(edited, query.program())
        finally:
            engine.close()
        assert result.by_document == \
            Q(spanner).split_by("sentences").over(edited).materialize()
        assert result.by_document == {
            document.doc_id: evaluate_whole(spanner.vsa(), document.text)
            for document in edited}

    def test_run_delta_splits_each_document_once(self):
        from repro.runtime import FastSentenceSplitter

        class CountingSplitter(FastSentenceSplitter):
            scans = 0

            def bounds(self, document):
                self.scans += 1
                return super().bounds(document)

        counting = CountingSplitter()
        query = Q(Spanner.regex(SENTENCE_PATTERN, TXT)).indexed().split_by(
            Splitter.named("sentences", TXT, executor=counting))
        query.over(["ab aa. b.", "a. ba."]).materialize()
        counting.scans = 0
        query.engine().run_delta(
            Corpus.from_mapping({"doc-0000": "ab aa. a.", "doc-0001": "b."}),
            query.program())
        assert counting.scans == 2


# ----------------------------------------------------------------------
# Top-level namespace
# ----------------------------------------------------------------------


class TestNamespace:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_front_door_names_exported(self):
        for name in ("Q", "Query", "Spanner", "Splitter", "ResultSet",
                     "ReproError", "NotFunctionalError",
                     "CertificationError", "UnknownSplitterError",
                     "ExtractionEngine", "Corpus", "Program"):
            assert name in repro.__all__

    def test_exception_hierarchy(self):
        assert issubclass(NotFunctionalError, ReproError)
        assert issubclass(NotFunctionalError, ValueError)
        assert issubclass(CertificationError, ReproError)
        assert issubclass(CertificationError, ValueError)
        assert issubclass(UnknownSplitterError, ReproError)
        assert issubclass(UnknownSplitterError, KeyError)

    @given(documents_st(alphabet="ab .", max_length=8))
    def test_quickstart_chain_matches_whole_document(self, document):
        spanner = Spanner.regex(PATTERN, TXT)
        fluent = Q(spanner).split_by("tokens").on(document)
        assert fluent == evaluate_whole(spanner.vsa(), document)
