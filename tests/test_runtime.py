"""Tests for the execution runtime: executor, fast paths, the worker
pool, and the planner."""

import multiprocessing
import os
import pickle
import pickletools
import random
import subprocess
import sys
import time
from functools import lru_cache

import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.core.composition import splits_of
from repro.core.spans import Span, SpanTuple
from repro.engine import Deadline, ExtractionEngine, Program
from repro.errors import DeadlineExceededError
from repro.query import Splitter
from repro.runtime import (
    CompiledSpanner,
    FastFixedWindowSplitter,
    FastSentenceSplitter,
    FastSeparatorSplitter,
    FastSplitter,
    FastTokenNgramSplitter,
    Plan,
    Planner,
    RegexSpanner,
    RegisteredSplitter,
    evaluate_whole,
    split_by,
)
from repro.runtime.executor import WorkerPool, relation_of
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import (
    fixed_window_splitter,
    sentence_splitter,
    separator_splitter,
    token_ngram_splitter,
    token_splitter,
)
from tests.reference import (
    reference_fixed_window_spans,
    reference_sentence_spans,
    reference_separator_spans,
    reference_token_ngram_spans,
)

TXT = frozenset("ab .")


def a_run_extractor():
    return compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*|.*(\\.| )y{a+}|y{a+}", TXT
    )


class TestExecutor:
    def test_split_by_matches_whole_when_split_correct(self):
        spanner = a_run_extractor()
        tokens = token_splitter(TXT)
        doc = "aa ab a aaa."
        assert split_by(spanner, tokens, doc) == evaluate_whole(spanner, doc)


class CountingSpanner(CompiledSpanner):
    """A runner that counts how many times it is pickled."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


def token_registry():
    return [RegisteredSplitter("tokens", token_splitter(TXT), priority=3,
                               executor=FastSeparatorSplitter(" ."))]


def _engine_run_and_close(spanner, texts):
    with ExtractionEngine(token_registry(), workers=2) as engine:
        engine.run(texts, Program(spanner))


#: A pool task context: one cache generation, no splitter (a document
#: is one chunk).
WHOLE = (0, "test", None, None)


def items_of(texts):
    """Pool task items shipping ``texts`` as whole documents."""
    return [(f"doc-{i}", text, None) for i, text in enumerate(texts)]


def _forced_shutdown_mid_run(spanner, texts):
    pool = WorkerPool(CompiledSpanner(spanner), 2)
    next(pool.evaluate(items_of(texts), WHOLE))
    pool.shutdown(drain=False)


#: Initializer arguments are inherited, not pickled, only under fork.
forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="start method is not fork")


class TestPoolBoundary:
    """How a runner reaches pool workers, and what a pool leaves
    behind: nothing — no process, no ``/dev/shm`` entry."""

    TEXTS = [f"aa ab a{'a' * i}." for i in range(24)]

    @forked
    def test_forked_workers_inherit_the_runner_unpickled(self):
        spanner = a_run_extractor()
        runner = CountingSpanner(spanner)
        CountingSpanner.pickles = 0
        with ExtractionEngine(token_registry(), workers=2) as engine:
            result = engine.run(self.TEXTS, Program(runner, spanner))
            assert engine.stats().chunks_evaluated > 0
        assert CountingSpanner.pickles == 0
        for index, text in enumerate(self.TEXTS):
            assert result[f"doc-{index:04d}"] \
                == evaluate_whole(spanner, text)

    @pytest.mark.parametrize("pooled", [
        _engine_run_and_close, _forced_shutdown_mid_run,
    ])
    def test_nothing_outlives_the_pool(self, pooled):
        def shm_entries():
            return set(os.listdir("/dev/shm")) \
                if os.path.isdir("/dev/shm") else set()

        children = set(multiprocessing.active_children())
        entries = shm_entries()
        pooled(a_run_extractor(), self.TEXTS)
        assert set(multiprocessing.active_children()) <= children
        assert shm_entries() <= entries

    @forked
    def test_pooled_query_starts_no_resource_tracker(self):
        # A tracker is a long-lived extra child; nothing a forked pool
        # does needs one, so a pooled run must not bring it back.
        script = """
from multiprocessing import resource_tracker
from repro import Q, Spanner
rs = Q(Spanner.regex('.*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}', 'ab .')) \\
    .split_by('tokens').workers(2).over(['aa ab ba aa.', 'b a.'] * 4)
rs.materialize()
assert rs.stats().chunks_evaluated > 0
assert resource_tracker._resource_tracker._pid is None
"""
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                           sys.path)), timeout=120)

    def test_tasks_are_cut_by_characters_and_keep_text_order(self):
        from repro.runtime import executor

        runner = CompiledSpanner(a_run_extractor())
        tokens = ["aa", "ab a", "", "b", "a" * 40, "aaa ab."]
        pool = WorkerPool(runner, 3)
        try:
            def tasks_of(texts):
                groups = [group for group, _telemetry
                          in pool.evaluate(items_of(texts), WHOLE)]
                assert [executor.relation_of(columns) for group in groups
                        for columns, _chunks in group] \
                    == executor.evaluate_chunks(runner, texts)
                assert all(groups) and len(groups) <= len(texts)
                return list(map(len, groups))

            for count in (0, 1, pool.workers - 1):
                texts = [tokens[i % 6] for i in range(count)]
                assert tasks_of(texts) == [1] * count
            # One slice per worker, equal in characters, not in texts.
            assert tasks_of(["a" * 300] + ["a"] * 200 + ["b"] * 200) \
                == [34, 183, 184]
            assert tasks_of(["a" * 900] + ["a"] * 40) == [1, 40]
            assert tasks_of([""] * 7) == [2, 3, 2]
            # A corpus handed over whole goes out in waves: no slice
            # longer than the cap (to within its last text).
            texts = [tokens[i % 6] for i in range(10_000)]
            weight = sum(map(len, texts)) + len(texts)
            sizes = tasks_of(texts)
            assert len(sizes) == -(-weight // executor.MAX_TASK_CHARS) == 7
            assert max(sizes) - min(sizes) <= 6
        finally:
            pool.shutdown(drain=False)

    def test_relations_come_back_as_columns(self):
        # Mixed variable sets and the 0-ary tuple survive the trip.
        from repro.core.spans import EMPTY_TUPLE
        from repro.runtime import executor

        relation = {SpanTuple({"x": Span(1, 2)}),
                    SpanTuple({"x": Span(2, 4)}),
                    SpanTuple({"x": Span(1, 1), "y": Span(3, 5)}),
                    EMPTY_TUPLE}
        columns = executor._columns(relation)
        assert sorted(len(variables) for variables, _ in columns) \
            == [0, 1, 2]
        assert relation_of(pickle.loads(pickle.dumps(columns))) == relation
        assert relation_of(executor._columns(set())) == frozenset()

    @pytest.mark.parametrize("protocol", [2, 5])
    def test_byte_tables_pickle_by_value(self, protocol):
        runner = CompiledSpanner(a_run_extractor())
        kernel = runner._kernel
        assert kernel.finishable is None
        sweeper = kernel.alive.byte_sweeper
        clone = pickle.loads(pickle.dumps(sweeper, protocol=protocol))
        assert (clone.blob, clone.masks, clone.start) \
            == (sweeper.blob, sweeper.masks, sweeper.start)
        # A functional plan has the one table, and membership no
        # forward one: ``alive``'s rows and the main-line rows are the
        # only tables shipped, each once (not its per-state view too).
        kernel.base.accepts("aa a")
        tables = [
            arg if isinstance(arg, bytes) else arg.encode("latin-1")
            for _opcode, arg, _position in pickletools.genops(
                pickle.dumps(runner, protocol=protocol))
            if isinstance(arg, (bytes, str)) and len(arg) >= 256
        ]
        assert tables == [sweeper.blob, kernel.row_blob]
        assert pickle.loads(pickle.dumps(kernel, protocol=protocol)).rows \
            == kernel.rows


class SleepyRunner:
    """Evaluates with ``runner`` after sleeping: ``slow`` seconds on a
    text starting with ``b``, ``fast`` on any other — pool tasks that
    stay in flight, or that cost unequal amounts."""

    def __init__(self, runner, fast=0.0, slow=0.0):
        self.runner, self.fast, self.slow = runner, fast, slow

    def evaluate(self, text):
        time.sleep(self.slow if text.startswith("b") else self.fast)
        return self.runner.evaluate(text)


class Fuse(Deadline):
    """A deadline that expires at its ``checks``-th check."""

    def __init__(self, checks):
        super().__init__()
        self.checks = checks

    def check(self):
        self.checks -= 1
        if self.checks <= 0:
            raise DeadlineExceededError()


def pipe_buffer_bytes():
    import socket

    left, right = socket.socketpair()
    with left, right:
        return left.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


class TestPoolProtocol:
    """The calling thread feeds and drains every worker itself: what
    it must never do is deliver a result to the wrong batch, block on
    a write while a worker blocks on its own, or hold one worker's
    tasks behind another's."""

    def test_deadline_with_batches_in_flight_then_a_run(self):
        spanner = a_run_extractor()
        program = Program(SleepyRunner(CompiledSpanner(spanner), fast=0.005),
                          spanner)
        first = [f"{'a' * (i % 4 + 1)} ab b" for i in range(16)]
        second = [f"b {'a' * (i % 6 + 1)} ba a" for i in range(16)]
        with ExtractionEngine(token_registry(), workers=2,
                              batch_size=2) as engine:
            with pytest.raises(DeadlineExceededError):
                engine.run(first, program, deadline=Fuse(6))
            # Cold again: what the abandoned run left in the workers'
            # caches is dropped with the parent's entries.
            engine.chunk_cache.clear()
            result = engine.run(second, program)
        for index, text in enumerate(second):
            assert result[f"doc-{index:04d}"] == evaluate_whole(spanner, text)
        # Each worker evaluates a distinct text at most once, and some
        # worker evaluates every one of them.
        distinct = len({chunk for text in second for chunk in text.split()})
        stats = result.stats
        assert distinct <= stats.chunks_evaluated \
            == stats.chunk_cache_misses <= 2 * distinct
        assert stats.chunk_cache_hits + stats.chunk_cache_misses \
            == stats.chunks_total

    def test_task_and_result_larger_than_the_pipe_buffer(self):
        # The whole-document plan makes each document one task; batches
        # of one keep a batch submitted while the one before is read.
        spanner = compile_regex_formula(".*y{a+}.*", frozenset("ab"))
        texts = ["b" * 300_000, "a" * 300, "b" + "a" * 250]
        buffer = pipe_buffer_bytes()
        assert len(pickle.dumps(texts[0])) > buffer
        assert len(pickle.dumps(evaluate_whole(spanner, texts[1]))) > buffer
        with ExtractionEngine([], workers=2, batch_size=1) as engine:
            result = engine.run(texts, Program(spanner))
            assert result.plan.plan.mode == "whole"
        for index, text in enumerate(texts):
            assert result[f"doc-{index:04d}"] == evaluate_whole(spanner, text)
        # One worker, sent the long task while it writes the long
        # result: that write would wait on the parent, and the parent
        # on the worker, unless the task waits for the worker to idle.
        runner = CompiledSpanner(spanner)
        pool = WorkerPool(runner, 1)
        try:
            batches = [pool.evaluate(items_of([texts[1]]), WHOLE),
                       pool.evaluate(items_of([texts[0]]), WHOLE)]
            assert [relation_of(columns) for batch in batches
                    for group, _ in batch for columns, _chunks in group] \
                == [evaluate_whole(spanner, texts[1]), set()]
        finally:
            pool.shutdown(drain=False)

    def test_a_slow_task_holds_back_only_its_own_worker(self):
        from repro.runtime import executor

        runner = SleepyRunner(CompiledSpanner(a_run_extractor()),
                              fast=0.002, slow=0.5)
        # Each text fills a task, and the first costs 250 of the others;
        # no two are equal, so no worker's cache answers one.
        size = executor.MAX_TASK_CHARS - 1
        texts = ["b" + "a" * (size - 1)] + [
            "a" * (size - i) + "b" * i for i in range(1, 21)]
        pool = WorkerPool(runner, 2)
        try:
            pids = [telemetry.pid for group, telemetry
                    in pool.evaluate(items_of(texts), WHOLE)]
        finally:
            pool.shutdown(drain=False)
        assert len(pids) == len(texts)
        # Dealt out in turn, the slow worker would run ten fast tasks
        # after its slow one; it runs what was queued on it, no more.
        assert pids[1:].count(pids[0]) <= 4

    def test_a_killed_worker_fails_the_run_and_the_next_run_forks_anew(
            self):
        script = """
import multiprocessing, os, signal, time
from repro.engine import ExtractionEngine, Program
from repro.errors import WorkerLostError
from repro.runtime import (FastSeparatorSplitter, RegisteredSplitter,
                           evaluate_whole)
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter

TXT = frozenset("ab .")
spanner = compile_regex_formula(
    ".*(\\\\.| )y{a+}(\\\\.| ).*|y{a+}(\\\\.| ).*|.*(\\\\.| )y{a+}|y{a+}", TXT)

class Bomb:
    def evaluate(self, text):
        if text == "bbbb":
            os.kill(os.getpid(), signal.SIGKILL)
        return spanner.evaluate(text)

registry = [RegisteredSplitter("tokens", token_splitter(TXT), priority=1,
                               executor=FastSeparatorSplitter(" "))]
program = Program(Bomb(), spanner)
texts = [f"a{'a' * i} ab" for i in range(8)]
with ExtractionEngine(registry, workers=2, batch_size=2) as engine:
    engine.run(texts[:2], program)
    started = time.monotonic()
    try:
        engine.run(texts[2:5] + ["aa bbbb a"] + texts[5:], program)
    except WorkerLostError as error:
        assert error.exitcode == -signal.SIGKILL, error
    else:
        raise AssertionError("the run survived a killed worker")
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []
    result = engine.run(texts, program)
    assert len(multiprocessing.active_children()) == 2
for index, text in enumerate(texts):
    assert result[f"doc-{index:04d}"] == evaluate_whole(spanner, text)
assert multiprocessing.active_children() == []
"""
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                           sys.path)), timeout=60)


#: Covers every registry builder's needs: space and newline (tokens,
#: paragraphs), the period (sentences), the record separator.
WIDE = frozenset("ab .\n#")
wide_documents = st.text(alphabet=sorted(WIDE), max_size=12)

#: Registry names, the parametric families with and without their N.
NAMES = ["tokens", "sentences", "paragraphs", "records", "whole",
         "ngram", "ngram1", "ngram3", "window", "window1", "window3"]


@lru_cache(maxsize=None)
def named(name):
    return Splitter.named(name, WIDE)


@lru_cache(maxsize=None)
def _separator_automaton(separators):
    return separator_splitter(frozenset("ab]^-\\[ ."), separators)


def assert_executes(executor, automaton, document, reference=None):
    """The executor protocol against its specification: ``splits`` is
    what the automaton selects, in document order; ``chunks_of`` and
    ``chunks`` are those spans with their texts."""
    spans = executor.splits(document)
    assert set(spans) == splits_of(automaton, document)
    assert spans == sorted(spans) and len(set(spans)) == len(spans)
    assert executor.chunks_of(document) == [
        (span, span.extract(document)) for span in spans]
    assert executor.chunks(document) == [
        span.extract(document) for span in spans]
    if reference is not None:
        assert spans == reference(document)


class TestFastSplitters:
    #: (executor, its specification over WIDE, the old character loop)
    CASES = [
        (FastSeparatorSplitter(" "), token_splitter(WIDE, {" "}),
         lambda d: reference_separator_spans(d, " ")),
        (FastSeparatorSplitter(" \n#."), token_splitter(WIDE, set(" \n#.")),
         lambda d: reference_separator_spans(d, " \n#.")),
        (FastSentenceSplitter(), sentence_splitter(WIDE),
         reference_sentence_spans),
        (FastTokenNgramSplitter(2), token_ngram_splitter(WIDE, 2),
         lambda d: reference_token_ngram_spans(d, 2)),
        (FastFixedWindowSplitter(3), fixed_window_splitter(WIDE, 3),
         lambda d: reference_fixed_window_spans(d, 3)),
    ]

    @pytest.mark.parametrize("fast,automaton,reference", CASES)
    @given(document=wide_documents)
    def test_agrees_with_specification(self, fast, automaton, reference,
                                       document):
        assert_executes(fast, automaton, document, reference)

    @pytest.mark.parametrize("fast,automaton,reference", CASES)
    def test_degenerate_documents(self, fast, automaton, reference):
        for document in ["", " ", ".", "\n", "  \n\n", "....", " . . ",
                         "#", "a", "\na.\n", "a\n.b"]:
            assert_executes(fast, automaton, document, reference)

    @pytest.mark.parametrize("fast,automaton,reference", CASES)
    def test_automaton_method(self, fast, automaton, reference):
        spec = fast.automaton(WIDE)
        for doc in ["", "a", "ab a.", "a  b .", "a\nb#a."]:
            assert set(fast.splits(doc)) == splits_of(spec, doc)

    @given(separators=st.sets(st.sampled_from("]^-\\[ ."), min_size=1),
           document=st.text(alphabet="ab]^-\\[ .", max_size=12))
    def test_separators_with_re_metacharacters(self, separators, document):
        fast = FastSeparatorSplitter("".join(separators))
        assert_executes(
            fast, _separator_automaton(frozenset(separators)), document,
            lambda d: reference_separator_spans(d, separators))

    @pytest.mark.parametrize("name", NAMES)
    @given(document=wide_documents)
    def test_registry_names_run_their_specification(self, name, document):
        splitter = named(name)
        assert isinstance(splitter.executor, FastSplitter)
        assert_executes(splitter.executor, splitter.automaton, document)
        assert splitter.splits(document) == \
            splitter.executor.splits(document)

    @pytest.mark.parametrize("name", NAMES)
    def test_named_splitters_reject_foreign_symbols(self, name):
        splitter = named(name)
        for method in (splitter.splits, splitter.chunks,
                       splitter.executor.chunks_of):
            with pytest.raises(ValueError, match="not in alphabet"):
                method("ab c.")
        # As the specification does; an unbound scanner does not check.
        with pytest.raises(ValueError, match="not in alphabet"):
            splits_of(splitter.automaton, "ab c.")
        assert FastSeparatorSplitter(" ").chunks("ab c.") == ["ab", "c."]

    def test_sentence_scan_is_linear_in_a_period_free_tail(self):
        # Unbounded, ``[^.]*`` runs to the end of the document and
        # backtracks from every start of the tail: 200 KB would take
        # minutes.  The floor absorbs timer noise on a scan this short.
        fast = FastSentenceSplitter()

        def seconds(document):
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                fast.chunks_of(document)
                best = min(best, time.perf_counter() - started)
            return best

        for head in ("", "ab ab. " * 1000):
            single = seconds(head + "ab " * (200_000 // 3))
            double = seconds(head + "ab " * (400_000 // 3))
            assert double <= 2.5 * single + 0.01

    def test_chunks(self):
        fast = FastSeparatorSplitter(" ")
        assert fast.chunks("aa b") == ["aa", "b"]

    def test_explain_names_the_scanner_or_the_automaton(self):
        by_name = Planner([Splitter.named("tokens", TXT).registered()])
        explicit = Planner([RegisteredSplitter(
            "tokens", token_splitter(TXT),
            executor=FastSeparatorSplitter(" "))])
        bare = Planner([RegisteredSplitter("tokens", token_splitter(TXT))])
        reports = [planner.certify(a_run_extractor()).explain()
                   ["splitter_executor"]
                   for planner in (by_name, explicit, bare)]
        assert reports[0] == reports[1] == \
            "FastSeparatorSplitter('[^\\\\ ]+')"
        assert reports[2].startswith("automaton (no executor registered")
        crossing = compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", TXT)
        assert bare.certify(crossing).explain()["splitter_executor"] is None


class TestRegexSpanner:
    def test_matches_vsa_on_samples(self):
        vsa = a_run_extractor()
        fast = RegexSpanner(r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)",
                            specification=vsa)
        rng = random.Random(7)
        for _ in range(60):
            doc = "".join(rng.choice("ab. ") for _ in
                          range(rng.randrange(0, 14)))
            assert fast.evaluate(doc) == vsa.evaluate(doc), doc

    def test_requires_named_groups(self):
        with pytest.raises(ValueError):
            RegexSpanner(r"a+")


class TestPlanner:
    def _planner(self):
        return Planner([
            RegisteredSplitter("tokens", token_splitter(TXT), priority=3,
                               executor=FastSeparatorSplitter(" \n")),
            RegisteredSplitter("sentences", sentence_splitter(TXT),
                               priority=2, executor=FastSentenceSplitter()),
        ])

    def test_plan_prefers_finest_self_splittable(self):
        planner = self._planner()
        plan = planner.plan(a_run_extractor())
        assert plan.mode == "split"
        assert plan.splitter.name == "tokens"
        assert plan.self_splittable

    def test_plan_falls_back_to_whole(self):
        planner = self._planner()
        crossing = compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", TXT
        )
        plan = planner.plan(crossing)
        assert plan.mode == "whole"

    def test_analyse_reports(self):
        planner = self._planner()
        reports = planner.analyse(a_run_extractor())
        by_name = {r.name: r for r in reports}
        assert by_name["tokens"].self_splittable
        assert by_name["tokens"].disjoint
        assert by_name["tokens"].overlap_witness is None
        assert not by_name["sentences"].self_splittable

    def test_analyse_reports_overlap_witness(self):
        from repro.splitters.builders import token_ngram_splitter

        planner = Planner([
            RegisteredSplitter("2grams", token_ngram_splitter(TXT, 2)),
        ])
        report = planner.analyse(a_run_extractor())[0]
        assert not report.disjoint
        assert report.splittable is None
        assert report.overlap_witness is not None

    @pytest.mark.parametrize("pattern, splitter_pattern, theorem", [
        # The PTIME search's only discrepancy is the 0-ary tuple, which
        # the empty split after the "a" may cover too: it cannot
        # decide, and Theorem 5.16 does.
        ("a", "x{a}|a(x{})", "Theorem 5.16"),
        # Every tuple has one covering split: PTIME decides alone.
        (".*y{a}.*", ".*x{a}.*", "Theorem 5.17"),
    ])
    def test_plan_names_the_theorem_that_ran(self, pattern,
                                             splitter_pattern, theorem):
        from repro.obs.trace import Tracer
        from repro.spanners.determinism import determinize

        ab = frozenset("ab")
        spanner = determinize(compile_regex_formula(pattern, ab))
        splitter = determinize(compile_regex_formula(splitter_pattern, ab))
        tracer = Tracer()
        plan = Planner([RegisteredSplitter("s", splitter)],
                       tracer=tracer).plan(spanner)
        assert plan.mode == "split" and plan.self_splittable
        general = theorem == "Theorem 5.16"
        assert plan.theorem == theorem
        assert ("PSPACE" if general else "PTIME") in plan.procedure
        assert (plan.certification is not None) == general
        (span,) = [record for record in tracer.records()
                   if record.name == "certify.candidate"]
        assert span.attributes["theorem"] == theorem
        assert span.attributes["procedure"] == plan.procedure
        assert ("certification" in span.attributes) == general

    def test_debugging_scenario(self):
        # The paper's HTTP debugging story: a program crossing record
        # boundaries is reported as not splittable by records.
        alphabet = frozenset("Gl#")
        from repro.splitters.builders import record_splitter

        planner = Planner([
            RegisteredSplitter("records", record_splitter(alphabet, "#"),
                               priority=1),
        ])
        crossing = compile_regex_formula(".*y{l\\#G}.*", alphabet)
        reports = planner.analyse(crossing)
        assert not reports[0].self_splittable
        assert reports[0].splittable is False
