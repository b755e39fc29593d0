"""The :class:`ExtractionEngine` façade: certified corpus extraction.

The engine ties the subsystem together: it certifies a program against
its splitter registry once (plan cache), splits each document with the
certified splitter, deduplicates chunk texts (chunk cache), evaluates
the missing ones — or fans whole documents over a worker pool, whose
workers do all of that (scheduler) — and merges shifted span-tuples
back per document, surfacing counters for every stage (stats).  The certificate makes a document's merged relation a
function of its text, so the chunk cache keeps it too (bounded by
``chunk_cache_limit``, dropped by ``clear()``; ``whole`` plans, whose
one chunk is the document, skip it): a repeated document is one probe.

Typical use::

    from repro.engine import Corpus, ExtractionEngine
    engine = ExtractionEngine(registered_splitters, workers=4)
    result = engine.run(Corpus.from_texts(texts), program)
    result["doc-0000"]          # span tuples of the first document
    engine.stats().snapshot()   # hit rates, certifications, throughput

Results equal per-document ``evaluate_whole`` whenever the planner
certifies a split plan (that is what the certificate *means*) and
trivially when it falls back to whole-document evaluation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.spans import Span, SpanTuple, whole_span
from repro.obs.log import event_log
from repro.obs.metrics import Metrics, kernel_metrics
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.executor import SpannerLike, splitter_chunks
from repro.runtime.fast import FastWholeSplitter
from repro.runtime.planner import CertifiedPlan, Planner, RegisteredSplitter
from repro.spanners.vset_automaton import VSetAutomaton

from repro.engine.cache import (
    ChunkCache,
    PlanCache,
    fingerprint,
    registry_fingerprint,
)
from repro.engine.corpus import Corpus, Document
from repro.engine.deadline import NEVER, Deadline, as_deadline
from repro.engine.scheduler import Scheduler
from repro.engine.stats import EngineStats


#: Batches a pooled run keeps submitted ahead of the one it is
#: collecting (in-process runs look ahead at nothing).  Ledger ``dense``
#: corpus, seed 11, 2-core box, 60 interleaved passes a side, workers
#: running whole documents: one batch ahead made the median pass 7 %
#: slower than two; three, 4 % faster (39 of 60 passes), for another
#: batch held and a later first result.
LOOKAHEAD_BATCHES = 2


@dataclass(frozen=True)
class Program:
    """An extraction program as the engine sees it.

    ``executable`` is what runs on chunks (a VSet-automaton, a
    :class:`repro.runtime.fast.RegexSpanner`, or any object with
    ``evaluate``); ``specification`` is the VSet-automaton the decision
    procedures reason over.  When the executable *is* a VSet-automaton
    the specification defaults to it; production programs pair a fast
    executable with a miniature specification, the same pattern the
    benchmark workloads use.
    """

    executable: SpannerLike
    specification: Optional[VSetAutomaton] = None
    name: str = "program"

    def __post_init__(self) -> None:
        if self.specification is None:
            if not isinstance(self.executable, VSetAutomaton):
                spec = getattr(self.executable, "specification", None)
                if not isinstance(spec, VSetAutomaton):
                    raise ValueError(
                        "a non-automaton executable needs an explicit "
                        "VSet-automaton specification for certification"
                    )
                object.__setattr__(self, "specification", spec)
            else:
                object.__setattr__(self, "specification", self.executable)

    @classmethod
    def from_query(cls, spanner: object, name: Optional[str] = None
                   ) -> "Program":
        """The engine program behind a fluent query's spanner.

        Accepts a :class:`repro.query.Spanner` wrapper (unwrapping its
        executable/specification pair), a raw VSet-automaton, or any
        ``SpannerLike`` that carries its own specification; idempotent
        on :class:`Program` itself.
        """
        if isinstance(spanner, cls):
            return spanner
        executable = getattr(spanner, "executable", spanner)
        specification = getattr(spanner, "specification", None)
        if not isinstance(specification, VSetAutomaton):
            specification = None
        label = name or getattr(spanner, "name", None) or "query"
        return cls(executable, specification, name=label)

    def fingerprint(self) -> str:
        """Identity for both cache levels: covers the specification
        (what gets certified) and the executable (what runs).

        Computed once per program (the inputs are frozen).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            spec_fp = fingerprint(self.specification)
            if self.executable is self.specification:
                cached = spec_fp
            else:
                cached = f"{spec_fp}+{fingerprint(self.executable)}"
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def runner(self) -> SpannerLike:
        """The chunk-level executable, resolved once per program.

        VSet-automaton executables lower onto the compiled kernel
        (:func:`repro.runtime.executor.as_runner`); fast executables
        (regex, black boxes) pass through.  Cached so repeated runs —
        and the engine's artifact accounting — see one lowering.
        """
        cached = self.__dict__.get("_runner")
        if cached is None:
            from repro.runtime.executor import as_runner

            cached = as_runner(self.executable)
            object.__setattr__(self, "_runner", cached)
        return cached


@dataclass
class EngineResult:
    """Per-document results of one engine run.

    ``stats`` covers *this run only* (the delta it contributed to the
    engine's cumulative counters, see
    :meth:`repro.engine.stats.EngineStats.since`).
    """

    by_document: Dict[str, Set[SpanTuple]]
    plan: CertifiedPlan
    stats: EngineStats

    def __getitem__(self, doc_id: str) -> Set[SpanTuple]:
        return self.by_document[doc_id]

    def __iter__(self) -> Iterator[Tuple[str, Set[SpanTuple]]]:
        return iter(self.by_document.items())

    def __len__(self) -> int:
        return len(self.by_document)

    def total_tuples(self) -> int:
        return sum(len(tuples) for tuples in self.by_document.values())


CorpusLike = Union[Corpus, Sequence[str], Mapping[str, str]]
ProgramLike = Union[Program, SpannerLike]


def _as_corpus(corpus: CorpusLike) -> Corpus:
    if isinstance(corpus, Corpus):
        return corpus
    if isinstance(corpus, Mapping):
        return Corpus.from_mapping(corpus)
    return Corpus.from_texts(list(corpus))


def _as_program(program: ProgramLike) -> Program:
    return program if isinstance(program, Program) else Program(program)


class ExtractionEngine:
    """Corpus-scale extraction with plan and chunk caching.

    ``splitters`` is the registry the planner certifies against (same
    objects as :class:`repro.runtime.planner.Planner`); ``workers`` and
    ``batch_size`` configure the scheduler; ``chunk_cache_limit``
    bounds chunk-cache memory (LRU).  Both caches persist across
    ``run`` calls, so a long-lived engine keeps getting faster as it
    sees more of the workload.

    ``corpus_index`` optionally attaches a
    :class:`repro.index.SegmentedIndex` (or the path of one's
    directory) whose posting lists answer the prefilter's candidate
    queries; ``prefilter`` controls chunk
    skipping (:mod:`repro.index`): ``True`` prunes chunks the
    certified plan provably produces nothing on (scan mode without an
    index), ``False`` never prunes, and the default ``None`` prunes
    exactly when an index is attached.  Pruning never changes results
    — only how many chunks reach the automaton.

    ``tracer`` attaches an enabled :class:`repro.obs.trace.Tracer`:
    every phase of every run then lands in its span buffer (including
    one worker-pid ``evaluate`` span per pool task, built by the
    scheduler from the task's telemetry).  Defaults to the shared
    disabled tracer — a no-op.  ``metrics`` supplies the
    :class:`repro.obs.metrics.Metrics` registry the engine's counters
    live in; :meth:`stats` is a view over it, and passing a shared
    registry aggregates several engines into one exposition.
    """

    def __init__(
        self,
        splitters: Sequence[RegisteredSplitter],
        workers: int = 0,
        batch_size: int = 32,
        chunk_cache_limit: Optional[int] = None,
        plan_cache: Optional[PlanCache] = None,
        chunk_cache: Optional[ChunkCache] = None,
        corpus_index: Optional[object] = None,
        prefilter: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else Metrics()
        self.planner = Planner(splitters, tracer=self.tracer)
        self.scheduler = Scheduler(workers=workers, batch_size=batch_size,
                                   tracer=self.tracer,
                                   metrics=self.metrics)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.chunk_cache = (chunk_cache if chunk_cache is not None
                            else ChunkCache(chunk_cache_limit))
        # The registry is immutable after construction; fingerprint
        # once.
        self._registry_fp = registry_fingerprint(self.planner.splitters)
        self._index = None
        self._prefilter = prefilter
        # IndexFilter per certificate fingerprint; invalidated when the
        # index changes (the filter binds the index's candidate mask).
        self._filters: Dict[str, Optional[object]] = {}
        if corpus_index is not None:
            self.attach_index(corpus_index)
        # Per-engine counters, stored as instruments in the metrics
        # registry (stats() is a view over them): caches may be shared
        # between engines, so each run attributes only its own
        # cache-counter deltas here.  Instrument handles are cached —
        # the hot loops touch Counter.inc, not registry lookups.
        counter = self.metrics.counter
        self._documents = counter("engine.documents")
        self._chunks_total = counter("engine.chunks_total")
        self._chunks_pruned = counter("engine.chunks_pruned")
        self._extraction_seconds = counter("engine.extraction_seconds")
        self._tuples_emitted = counter("engine.tuples_emitted")
        self._chunk_hits = counter("engine.chunk_cache.hits")
        self._chunk_misses = counter("engine.chunk_cache.misses")
        self._chunk_evictions = counter("engine.chunk_cache.evictions")
        self._document_hits = counter("engine.document_cache.hits")
        self._plan_hits = counter("engine.plan_cache.hits")
        self._certifications = counter("engine.certifications")
        self._certification_seconds = counter(
            "engine.certification_seconds")
        self._artifacts_compiled = counter("engine.artifacts_compiled")
        self._certification_latency = self.metrics.histogram(
            "engine.certification_latency_seconds")

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def certify(self, program: ProgramLike) -> CertifiedPlan:
        """The (cached) certificate for ``program``.

        The decision procedures run at most once per (program,
        registry) pair for the lifetime of the plan cache.
        """
        program = _as_program(program)
        cache = self.plan_cache
        before = (cache.hits, cache.misses, cache.certification_seconds)
        with self.tracer.span("certify", program=program.name) as span:
            certified = cache.get(
                self.planner, program.specification,
                spanner_fp=program.fingerprint(),
                registry_fp=self._registry_fp,
            )
            missed = cache.misses - before[1]
            span.set("cache_hit", not missed)
            span.set("mode", certified.plan.mode)
        self._plan_hits.inc(cache.hits - before[0])
        self._certifications.inc(missed)
        elapsed = cache.certification_seconds - before[2]
        self._certification_seconds.inc(elapsed)
        if missed:
            self._certification_latency.observe(elapsed)
            # A fresh certificate lowered its split spanner onto the
            # compiled kernel (at most once); replays never re-lower.
            self._artifacts_compiled.inc(certified.artifacts_compiled)
            event_log().emit(
                "engine.certify", program=program.name,
                mode=certified.plan.mode,
                splitter=certified.splitter_name,
                seconds=elapsed,
            )
        return certified

    def runner_for(
        self, certified: CertifiedPlan, program: Program
    ) -> SpannerLike:
        """What evaluates chunks under this certificate.

        The certificate's compiled artifact when the plan carries one;
        otherwise the program's own runner, lowered on first use (and
        counted toward ``artifacts_compiled``).  Callers that need the
        runner identity (e.g. :meth:`repro.query.ResultSet.explain`)
        must resolve it through here, not ``program.runner()``, so the
        lowering accounting is never bypassed.
        """
        runner = certified.chunk_runner()
        if runner is not None:
            return runner
        fresh = "_runner" not in program.__dict__
        if fresh:
            with self.tracer.span("compile", program=program.name) as span:
                runner = program.runner()
                span.set("lowered",
                         bool(getattr(runner, "freshly_lowered", False)))
            if getattr(runner, "freshly_lowered", False):
                self._artifacts_compiled.inc()
            return runner
        return program.runner()

    @staticmethod
    def _chunks_of(
        certified: CertifiedPlan, document: Document
    ) -> List[Tuple[Span, str]]:
        """The ``(span, text)`` chunks of one document under the plan."""
        plan = certified.plan
        if plan.mode == "whole" or plan.splitter is None:
            # No certified splitter: the whole document is one chunk —
            # the chunk cache still deduplicates identical documents.
            return [(whole_span(document.text), document.text)]
        return splitter_chunks(plan.splitter.runtime_splitter(),
                               document.text)

    @staticmethod
    def _worker_splitter(certified: CertifiedPlan, runner: SpannerLike):
        """What pool workers split a shipped text with (``None``: it is
        one chunk): none for ``whole`` plans, nor for a program run as
        itself on the token path, whose proof makes one scan ``P(d)``.
        Theorem 5.15 split-spanners (``P_S``) and black boxes split."""
        if certified.mode == "whole" or certified.splitter_name is None or (
                certified.chunk_runner() is None
                and getattr(runner, "on_token_path", False)):
            return None
        return certified.plan.splitter.runtime_splitter()

    def pool_route(self, certified: CertifiedPlan, runner) -> Optional[str]:
        """``explain()["pool_split"]``: what cuts a pooled run's documents
        (``None`` in process; under a prefilter, this process cuts)."""
        if self.scheduler.workers <= 1:
            return None
        if self._prefilter_for(certified) is not None or \
                self._worker_splitter(certified, runner) is not None:
            return certified.splitter_name
        token = getattr(runner, "on_token_path", False)
        return "whole documents" + (" (token path)" if token else "")

    # ------------------------------------------------------------------
    # Index prefiltering
    # ------------------------------------------------------------------

    @property
    def index(self):
        """The attached :class:`repro.index.SegmentedIndex`, if any."""
        return self._index

    def attach_index(self, index) -> None:
        """Attach (or replace) the corpus index used for prefiltering.

        Accepts a :class:`repro.index.SegmentedIndex` or the *path* of
        an index directory, opened via ``SegmentedIndex.open``.  The
        index stays in this process: the prefilter consults it before
        chunks are scheduled, so pool workers never see it.  Takes
        effect from the next run; with the default ``prefilter=None``
        attaching an index is what switches chunk skipping on.
        """
        if isinstance(index, str):
            from repro.index import SegmentedIndex

            index = SegmentedIndex.open(index)
        self._index = index
        self._filters.clear()
        event_log().emit(
            "engine.index.attach",
            directory=index.directory, splitter=index.splitter,
        )

    def build_index(self, corpus: CorpusLike, program: ProgramLike,
                    num_shards: int = 1, format: Optional[str] = None,
                    path: Optional[str] = None):
        """Index ``corpus`` exactly as this engine would chunk it.

        Certifies ``program`` (cached) and indexes the corpus with
        :meth:`repro.index.SegmentedIndex.build` under the plan's
        runtime splitter (the whole document for ``whole`` plans), so
        lookups at run time hit by construction: one sealed segment
        per shard, with per-document tracking so later edits maintain
        it by delta (:meth:`run_delta`).  ``path`` alone
        decides where it lives — a directory of mmap-able segment
        files, or (``None``) this process's memory.  ``format``
        selects nothing: it is accepted (``None`` or ``"binary"``
        with a ``path``) only because the frozen benchmark harness
        still spells it.  The index is returned, not attached — pass
        it to :meth:`attach_index`.
        """
        if format not in (None, "binary") or (format and path is None):
            raise ValueError("format selects nothing: pass path or neither")
        from repro.index import SegmentedIndex

        certified = self.certify(program)
        plan = certified.plan
        splitter = (FastWholeSplitter() if plan.mode == "whole"
                    or plan.splitter is None
                    else plan.splitter.runtime_splitter())
        return SegmentedIndex.build(corpus, splitter, directory=path,
                                    name=certified.splitter_name,
                                    num_shards=num_shards)

    def run_delta(
        self,
        corpus: CorpusLike,
        program: ProgramLike,
        deadline: object = None,
    ) -> EngineResult:
        """Re-run ``program`` over edited documents, maintaining the
        attached index by delta.

        Requires an attached index (any: built in memory, by
        ``Q(...).indexed()`` auto-indexing, or opened from a
        directory).  Each document's fresh chunk set is diffed into
        the index first, in one batch: introduced chunk texts are
        staged, texts no longer referenced anywhere are retired, and a
        directory index persists the whole edit as **one** fsync'd log
        line.  No segment is sealed until a flush or compact; the
        prefilter decides a staged text by the exact factor check,
        the decision its mask bit would give.  Then the run proceeds
        normally: the chunk cache serves every unchanged chunk, so the
        automaton only ever sees the chunks the edits introduced (the
        ``engine.chunk_cache.misses`` delta of the returned stats is
        exactly that count).
        """
        index = self._index
        if index is None:
            raise ValueError(
                "run_delta needs an attached index (attach_index, or "
                "Q(...).indexed())"
            )
        corpus = _as_corpus(corpus)
        program = _as_program(program)
        certified = self.certify(program)
        # Split once: the same chunks feed the index diff and the run.
        with self.tracer.span("split", documents=len(corpus)):
            chunked = {
                document.doc_id: self._chunks_of(certified, document)
                for document in corpus
            }
        with self.tracer.span("delta_index", documents=len(corpus)):
            with index.batch():
                for doc_id, chunks in chunked.items():
                    index.update_document(
                        doc_id, [text for _span, text in chunks])
        before = self.stats()
        by_document: Dict[str, Set[SpanTuple]] = dict(
            self._iter_certified(corpus, program, certified,
                                 as_deadline(deadline), chunked)
        )
        return EngineResult(by_document, certified,
                            self.stats().since(before))

    def _prefilter_for(self, certified: CertifiedPlan):
        """The :class:`repro.index.IndexFilter` gating this
        certificate's chunks, or ``None`` when prefiltering is off or
        the plan has no effective factors (full evaluation)."""
        enabled = (self._prefilter if self._prefilter is not None
                   else self._index is not None)
        if not enabled:
            return None
        key = certified.fingerprint or f"plan-{id(certified):x}"
        if key not in self._filters:
            from repro.index import IndexFilter

            factors = certified.factor_set()
            self._filters[key] = (
                IndexFilter(factors, self._index,
                            metrics=self.metrics, plan=key[:12])
                if factors is not None and factors.effective else None
            )
        return self._filters[key]

    def prefilter_report(self, certified: CertifiedPlan) -> Dict[str, object]:
        """What the prefilter does under this certificate (the
        ``"index"`` block of :meth:`repro.query.ResultSet.explain`)."""
        prefilter = self._prefilter_for(certified)
        if prefilter is None:
            enabled = (self._prefilter if self._prefilter is not None
                       else self._index is not None)
            return {
                "enabled": False,
                "reason": ("no effective factors (full evaluation)"
                           if enabled else "prefiltering off"),
            }
        report: Dict[str, object] = {"enabled": True}
        report.update(prefilter.describe())
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _iter_certified(
        self, corpus: Corpus, program: Program, certified: CertifiedPlan,
        deadline: Deadline = NEVER,
        chunked: Optional[Mapping[str, List[Tuple[Span, str]]]] = None,
    ) -> Iterator[Tuple[str, Set[SpanTuple]]]:
        """Yield ``(doc_id, tuples)`` batch by batch under a certificate.

        The lazy core under both :meth:`run` and :meth:`run_iter`: one
        scheduler pass per document batch, counters updated as each
        batch completes, results yielded per document in corpus order.
        In process, nothing downstream of the current batch is
        computed yet.  With a worker pool the run looks
        :data:`LOOKAHEAD_BATCHES` ahead: batches up to *k+2* are
        submitted (:meth:`repro.engine.scheduler.Scheduler.submit`)
        before batch *k* is collected and yielded.  The workers split,
        look up, evaluate and merge whole documents; this process ships
        texts — or, when a prefilter runs or the caller has split
        already, the admitted chunks — and collects relations.
        ``chunked`` hands in documents a caller has already split
        (:meth:`run_delta`), by id.  A document whose merged relation
        is cached is not split or submitted but rides the window with
        its batch; the others' are stored at collection.

        ``deadline`` is the cooperative cancellation point: it is
        checked at every batch boundary (and by the scheduler at both
        halves of a pass and between pool results), raising
        :class:`repro.errors.DeadlineExceededError` without disturbing
        the pool or the caches — the engine stays fully usable for
        subsequent queries.
        """
        runner = self.runner_for(certified, program)
        prefilter = self._prefilter_for(certified)
        # Chunk results depend on the *runner*, which the certificate
        # determines — namespace the chunk cache by certificate (it
        # covers program and registry), not by program alone.
        chunk_namespace = certified.fingerprint or program.fingerprint()
        documents = (None if certified.mode == "whole"
                     or certified.splitter_name is None else chunk_namespace)
        splitter = self._worker_splitter(certified, runner)
        cache = self.chunk_cache
        tracer = self.tracer
        scheduler = self.scheduler
        # Submitted, uncollected batches, oldest first, as (documents,
        # cached relations, what to store, pending).  A local of this
        # generator and nothing else: abandoning the stream, a
        # deadline between the halves or a runner swap drops it whole.
        depth = LOOKAHEAD_BATCHES if scheduler.workers > 1 else 0
        window: Deque[tuple] = deque()
        # After the last batch, one empty step per batch still ahead:
        # nothing left to submit, only to collect.
        for batch in chain(corpus.batches(max(1, scheduler.batch_size)),
                           repeat([], depth)):
            deadline.check()
            start = time.perf_counter()
            cache_before = (cache.hits, cache.misses, cache.evictions)
            if batch:
                served, tasks, sizes = self._split_and_prefilter(
                    batch, certified, prefilter, chunked, documents)
            due: Sequence[Document] = ()
            with tracer.span("schedule", documents=len(batch)):
                if batch:
                    window.append((batch, served, sizes, scheduler.submit(
                        runner, tasks, cache, chunk_namespace, deadline,
                        splitter)))
                if window and (not batch or len(window) > depth):
                    due, served, sizes, pending = window.popleft()
                    resolved = scheduler.collect(pending)
                    # Documents a worker split count their chunks here.
                    self._chunks_total.inc(sum(pending.split.values()))
                    for doc_id, (text, chunks, pruned) in sizes.items():
                        resolved[doc_id] = cache.store_document(
                            documents, text, resolved[doc_id],
                            chunks + pending.split.get(doc_id, 0), pruned)
                    resolved.update(served)
            self._chunk_hits.inc(cache.hits - cache_before[0])
            self._chunk_misses.inc(cache.misses - cache_before[1])
            self._chunk_evictions.inc(cache.evictions - cache_before[2])
            self._extraction_seconds.inc(time.perf_counter() - start)
            self._documents.inc(len(due))
            for document in due:
                tuples = resolved[document.doc_id]
                self._tuples_emitted.inc(len(tuples))
                yield document.doc_id, tuples

    def _split_and_prefilter(
        self, batch: List[Document], certified: CertifiedPlan, prefilter,
        chunked: Optional[Mapping[str, List[Tuple[Span, str]]]],
        documents: Optional[str],
    ) -> Tuple[Dict[str, FrozenSet[SpanTuple]], list, dict]:
        """One batch's scheduler input: every document's chunks (taken
        from ``chunked`` when the caller has split already), less the
        ones ``prefilter`` proves empty — save those whose relation the
        cache holds under ``documents`` (``None``: none is looked up);
        or, pooled with nothing to prune, the texts, for workers to
        split.  Returns ``(cached relations, tasks, (text, chunks,
        pruned) per task)``."""
        tracer, lookup = self.tracer, self.chunk_cache.lookup_document
        ship = (self.scheduler.workers > 1 and prefilter is None
                and chunked is None)
        served: Dict[str, FrozenSet[SpanTuple]] = {}
        tasks, sizes, total, pruned_batch = [], {}, 0, 0
        with tracer.span("split", documents=len(batch)) as span:
            by_document = []
            for document in batch:
                entry = documents and lookup(documents, document.text)
                if entry:
                    served[document.doc_id], chunks, pruned = entry
                    total += chunks
                    pruned_batch += pruned
                elif ship:
                    tasks.append((document.doc_id, document.text))
                    if documents:
                        sizes[document.doc_id] = (document.text, 0, 0)
                else:
                    by_document.append((document, chunked[document.doc_id]
                                        if chunked is not None
                                        else self._chunks_of(certified,
                                                             document)))
            span.set("chunks",
                     sum(len(chunks) for _d, chunks in by_document))
        with tracer.span("prefilter",
                         active=prefilter is not None) as span:
            for document, chunks in by_document:
                count = len(chunks)
                total += count
                if prefilter is not None and chunks:
                    chunks = [chunk for chunk in chunks
                              if prefilter.admits(chunk[1])]
                tasks.append((document.doc_id, chunks))
                pruned_batch += count - len(chunks)
                if documents:
                    sizes[document.doc_id] = (document.text, count,
                                              count - len(chunks))
            if prefilter is not None:
                prefilter.flush_counts()
            self._chunks_total.inc(total)
            self._chunks_pruned.inc(pruned_batch)
            self._document_hits.inc(len(served))
            span.set("pruned", pruned_batch)
        return served, tasks, sizes

    def run(
        self,
        corpus: CorpusLike,
        program: ProgramLike,
        deadline: object = None,
    ) -> EngineResult:
        """Extract ``program`` over ``corpus``; results per document.

        ``deadline`` (a :class:`repro.engine.deadline.Deadline`,
        seconds, or ``None``) bounds the run: past it, the next batch
        boundary raises :class:`repro.errors.DeadlineExceededError`.
        Partial work stays cached; the engine remains usable.
        """
        corpus = _as_corpus(corpus)
        program = _as_program(program)
        before = self.stats()
        certified = self.certify(program)
        by_document: Dict[str, Set[SpanTuple]] = dict(
            self._iter_certified(corpus, program, certified,
                                 as_deadline(deadline))
        )
        return EngineResult(by_document, certified,
                            self.stats().since(before))

    def run_iter(
        self,
        corpus: CorpusLike,
        program: ProgramLike,
        deadline: object = None,
    ) -> Iterator[Tuple[str, Set[SpanTuple]]]:
        """Extract lazily: yield ``(doc_id, tuples)`` per document.

        Documents come out in corpus order, produced one scheduler
        batch at a time, so consuming a prefix of the iterator only
        pays for the batches that prefix spans — plus, with a worker
        pool, the batches a pooled run has submitted ahead.  The
        streaming primitive under :meth:`repro.query.ResultSet.stream`.
        Certification still happens exactly once — up front, through
        the plan cache, when the iterator is created.  ``deadline``
        bounds consumption like :meth:`run`.
        """
        corpus = _as_corpus(corpus)
        program = _as_program(program)
        certified = self.certify(program)
        return self._iter_certified(corpus, program, certified,
                                    as_deadline(deadline))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable_tracing(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Install (or switch on) an enabled tracer engine-wide.

        Gives the engine, its planner and its scheduler one shared
        enabled :class:`Tracer` — ``tracer`` if provided, the current
        one if it is already a private enabled/enableable instance, or
        a fresh ``Tracer()`` when the engine still holds the shared
        :data:`NULL_TRACER` (which must never be mutated: other
        engines share it).  A live worker pool is kept: its tasks
        return the same telemetry either way, and from the next pass
        the scheduler also turns it into spans.  Returns the active
        tracer.  This is how a flight recorder with
        ``capture_spans=True`` turns a previously untraced engine into
        one producing per-query span trees.
        """
        if tracer is None:
            tracer = (Tracer() if self.tracer is NULL_TRACER
                      else self.tracer)
        if tracer is NULL_TRACER:
            raise ValueError(
                "refusing to enable the shared NULL_TRACER; pass a "
                "private Tracer instance instead"
            )
        tracer.enabled = True
        self.tracer = tracer
        self.planner.tracer = tracer
        self.scheduler.tracer = tracer
        return tracer

    def close(self) -> None:
        """Shut down the scheduler's worker pool (idempotent).

        Caches survive ``close`` — save a pooled engine's chunk
        entries, which live in its workers: the pool is stopped, with
        whatever an abandoned run left in flight on it.  Engines are
        also usable as context managers.
        """
        self.scheduler.close()

    def __enter__(self) -> "ExtractionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> EngineStats:
        """Cumulative counters across this engine's lifetime.

        Counters cover only *this engine's* activity even when the
        caches are shared between engines; ``chunk_cache_size`` is a
        gauge of the (possibly shared) cache's current contents.

        A pure view over the metrics registry
        (:meth:`repro.engine.stats.EngineStats.from_metrics`): the
        stats surface and ``self.metrics`` read the same instruments
        and can never disagree.

        ``extra`` carries why evaluated chunks were cheap or dear —
        ``kernel.chunks_rejected`` (answered with no tuple and no
        walk: the chunk lacks a literal the plan requires, the token
        path finds no token, or the kernel's ``alive`` sweep leaves
        the initial state dead) and
        ``kernel.configs_expanded`` (configurations the searches of
        the others visited) — read from the
        process-global :func:`repro.obs.metrics.kernel_metrics`, so
        they count the evaluations of *this process* (every engine in
        it, and their pool workers', which every task reports back).
        """
        kernel = kernel_metrics().value
        return EngineStats.from_metrics(
            self.metrics, chunk_cache_size=len(self.chunk_cache),
            extra={name: kernel(name) for name in
                   ("kernel.chunks_rejected", "kernel.configs_expanded")},
        )
