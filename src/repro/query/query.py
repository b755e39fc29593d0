"""The chainable :class:`Query` builder (and its ``Q`` entry point).

One fluent chain covers the paper's whole workflow — write a spanner,
pick splitters, certify, execute::

    Q(Spanner.regex(".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", "ab ."))
        .split_by("tokens")
        .workers(4)
        .over(corpus)

Builders are immutable: every configuration method returns a new
:class:`Query`, so partially-configured queries can be shared and
forked safely.  (The derived state — the lazily built engine handle of
:meth:`Query.engine` and the program of :meth:`Query.program` — is
cached on first use; queries are not synchronized for concurrent first
execution across threads.)  Execution goes through the corpus engine
(:class:`repro.engine.ExtractionEngine`) — certification runs exactly
once per (program, registry) pair via the plan cache, by the cheapest
exact procedure the inputs admit (:class:`repro.runtime.planner.
Planner`; there is nothing to choose), chunks deduplicate corpus-wide,
and results stream lazily as a :class:`repro.query.ResultSet`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple, Union

from repro.core.spans import SpanTuple
from repro.errors import ReproError
from repro.query.results import ResultSet
from repro.query.spanner import Spanner
from repro.query.splitter import Splitter

SplitterSpec = Union[str, Splitter]


class Query:
    """An immutable, chainable extraction query.

    Configuration methods (:meth:`split_by`, :meth:`workers`,
    :meth:`batch_size`, :meth:`using`) each return a new query;
    :meth:`over` executes against a corpus and returns a lazy
    :class:`ResultSet`; :meth:`on` is the single-document shortcut.
    """

    __slots__ = ("_spanner", "_splitters", "_workers",
                 "_batch_size", "_chunk_cache_limit", "_engine",
                 "_engine_explicit", "_index", "_tracer", "_flight",
                 "_program")

    def __init__(self, spanner: object, **settings: object) -> None:
        if not isinstance(spanner, Spanner):
            spanner = Spanner(spanner)
        object.__setattr__(self, "_spanner", spanner)
        object.__setattr__(self, "_splitters",
                           settings.get("splitters", ()))
        object.__setattr__(self, "_workers", settings.get("workers", 0))
        object.__setattr__(self, "_batch_size",
                           settings.get("batch_size", 32))
        object.__setattr__(self, "_chunk_cache_limit",
                           settings.get("chunk_cache_limit"))
        object.__setattr__(self, "_engine", settings.get("engine"))
        object.__setattr__(self, "_engine_explicit",
                           settings.get("engine_explicit", False))
        # None = prefiltering off; True = auto-build on .over();
        # a SegmentedIndex or a directory path = use that index.
        object.__setattr__(self, "_index", settings.get("index"))
        # None = untraced; a repro.obs.Tracer = collect phase spans.
        object.__setattr__(self, "_tracer", settings.get("tracer"))
        # None = no flight recording; a repro.obs.FlightRecorder =
        # the service built by .serve() records completed queries.
        object.__setattr__(self, "_flight", settings.get("flight"))
        # Derived, like a lazily built engine: see program().
        object.__setattr__(self, "_program", None)

    def __setattr__(self, attribute: str, value: object) -> None:
        raise AttributeError("Query is immutable; chain methods instead")

    def _evolve(self, **overrides: object) -> "Query":
        settings = {
            "splitters": self._splitters,
            "workers": self._workers,
            "batch_size": self._batch_size,
            "chunk_cache_limit": self._chunk_cache_limit,
            # A lazily built engine is derived state and never carries
            # over; an engine pinned with .using() does.
            "engine": self._engine if self._engine_explicit else None,
            "engine_explicit": self._engine_explicit,
            "index": self._index,
            "tracer": self._tracer,
            "flight": self._flight,
        }
        settings.update(overrides)
        return Query(self._spanner, **settings)

    def _reconfigure(self, **overrides: object) -> "Query":
        """Evolve a setting that shapes the engine; rejected once the
        query is pinned to an explicit engine."""
        if self._engine_explicit:
            raise ReproError(
                "this query is pinned to an engine via .using(); "
                "configure splitters/workers before .using(...), "
                "or configure the engine itself"
            )
        return self._evolve(**overrides)

    # ------------------------------------------------------------------
    # Configuration (each returns a new Query)
    # ------------------------------------------------------------------

    def split_by(self, *splitters: SplitterSpec) -> "Query":
        """Register candidate splitters, preferred first.

        Each argument is a :class:`Splitter` or a registry name
        (``"tokens"``, ``"ngram3"``, ...) resolved over the spanner's
        alphabet, together with the compiled scanner that executes
        it.  The planner certifies against them in the given
        order and falls back to whole-document evaluation when none
        certifies.
        """
        resolved = []
        for splitter in splitters:
            if isinstance(splitter, Splitter):
                resolved.append(splitter)
            elif isinstance(splitter, str):
                resolved.append(
                    Splitter.named(splitter, self._spanner.alphabet)
                )
            else:
                raise ReproError(
                    f"split_by takes Splitter objects or registry "
                    f"names, got {type(splitter).__name__}"
                )
        return self._reconfigure(
            splitters=self._splitters + tuple(resolved)
        )

    def workers(self, count: int) -> "Query":
        """Process-pool size for chunk evaluation (0 = in-process)."""
        return self._reconfigure(workers=count)

    def batch_size(self, size: int) -> "Query":
        """Documents per scheduler pass (streaming granularity)."""
        return self._reconfigure(batch_size=size)

    def chunk_cache_limit(self, limit: Optional[int]) -> "Query":
        """Bound the corpus-wide chunk cache (LRU; ``None`` = off)."""
        return self._reconfigure(chunk_cache_limit=limit)

    def indexed(self, index=None) -> "Query":
        """Enable index-backed chunk prefiltering (:mod:`repro.index`).

        With a prebuilt index the query's engine answers "could this
        chunk match?" from posting lists; accepted are a
        :class:`repro.index.SegmentedIndex` or the *path* of an index
        directory (opened lazily via ``SegmentedIndex.open`` when
        :meth:`over` runs).  With no argument an index over the target
        corpus is built in memory when :meth:`over` runs (indexing
        cost paid once, on the first corpus this query sees).  Either
        way the engine's index is delta-maintainable:
        ``query.engine().run_delta(edited, query.program())`` re-runs
        edited documents and keeps it current.  Prefiltering never
        changes results: chunks are skipped only when the certified
        plan provably produces nothing on them, and a spanner with no
        extractable factors falls back to full evaluation.
        """
        from repro.index import SegmentedIndex

        if (index is not None
                and not isinstance(index, (str, SegmentedIndex))):
            raise ReproError(
                f"indexed() takes a repro.index.SegmentedIndex, the "
                f"path of an index directory, or no argument to "
                f"auto-index on .over(); got {type(index).__name__}"
            )
        return self._reconfigure(index=index if index is not None else True)

    def traced(self, tracer=None) -> "Query":
        """Collect phase spans and metrics while this query runs.

        With no argument a fresh enabled
        :class:`repro.obs.trace.Tracer` is attached; pass your own to
        aggregate several queries into one trace.  The trace is
        reachable from the results — ``results.trace`` is the tracer,
        ``results.explain()["trace"]`` the per-phase rollup — and
        covers worker processes too (their spans are merged back by
        the scheduler).  Untraced queries pay no tracing cost.
        """
        from repro.obs.trace import Tracer

        if tracer is None:
            tracer = Tracer()
        elif not isinstance(tracer, Tracer):
            raise ReproError(
                f"traced() takes a repro.obs.Tracer (or no argument "
                f"for a fresh one), got {type(tracer).__name__}"
            )
        return self._reconfigure(tracer=tracer)

    def recorded(self, capacity: int = 256,
                 slow_ms: Optional[float] = None,
                 capture_spans: bool = True) -> "Query":
        """Attach a query flight recorder to the service this chain
        will build (:meth:`serve`).

        The service then retains the last ``capacity`` completed
        queries as :class:`repro.obs.flight.QueryRecord` objects —
        reachable fluently as ``result.record`` on every
        :class:`repro.serve.ServiceResult` and live over HTTP at
        ``GET /debug/queries`` — and keeps queries slower than
        ``slow_ms`` milliseconds (plus every deadline miss) in a
        separate slow-query log — the last 64, each with its full span
        tree and explain payload.  ``GET /debug/inflight`` and the
        metrics registry (``GET /metrics``) complete the view.
        ``capture_spans=False`` records timings and counters without
        enabling tracing (the minimum-overhead mode the CI A/B gate
        measures).
        """
        from repro.obs.flight import FlightRecorder

        return self._evolve(flight=FlightRecorder(
            capacity=capacity,
            slow_threshold=(slow_ms / 1000.0
                            if slow_ms is not None else None),
            capture_spans=capture_spans,
        ))

    def using(self, engine) -> "Query":
        """Execute on an existing :class:`repro.engine.
        ExtractionEngine` (its registry, caches, and pool) instead of
        building a dedicated one.

        The engine then owns the execution shape, so further
        :meth:`split_by`/:meth:`workers`/:meth:`batch_size`/... calls on
        the pinned query raise :class:`repro.errors.ReproError` —
        configure first, pin last.
        """
        return self._evolve(engine=engine, engine_explicit=True)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def spanner(self) -> Spanner:
        return self._spanner

    @property
    def splitters(self) -> Tuple[Splitter, ...]:
        return self._splitters

    def engine(self):
        """The engine this query executes on (built once per query)."""
        if self._engine is None:
            from repro.engine import ExtractionEngine

            registered = [
                splitter.registered(priority=len(self._splitters) - index)
                for index, splitter in enumerate(self._splitters)
            ]
            object.__setattr__(
                self, "_engine",
                ExtractionEngine(
                    registered,
                    workers=self._workers,
                    batch_size=self._batch_size,
                    chunk_cache_limit=self._chunk_cache_limit,
                    corpus_index=(self._index
                                  if self._index not in (None, True)
                                  else None),
                    prefilter=True if self._index is not None else None,
                    tracer=self._tracer,
                ),
            )
        return self._engine

    def program(self):
        """The engine program for this query's spanner (built once per
        query).

        A program owns its chunk runner, and the scheduler keeps its
        worker pool for as long as the runner object stays the same —
        so handing every :meth:`over` the one program is what lets a
        ``workers(n)`` query reuse its pool from pass to pass.
        """
        if self._program is None:
            from repro.engine.engine import Program

            object.__setattr__(self, "_program",
                               Program.from_query(self._spanner))
        return self._program

    def certify(self):
        """The (cached) :class:`repro.runtime.planner.CertifiedPlan`."""
        return self.engine().certify(self.program())

    def analyse(self):
        """Per-splitter :class:`repro.runtime.planner.SplitReport` rows
        (the paper's debugging scenario)."""
        return self.engine().planner.analyse(self._spanner.vsa())

    def explain(self):
        """The certificate report without executing anything."""
        return self.certify().explain()

    def over(self, corpus) -> ResultSet:
        """Certify (once, cached) and bind to ``corpus``; lazy results.

        Accepts a :class:`repro.engine.Corpus`, a mapping ``id ->
        text``, or a plain sequence of texts.  No document is touched
        until the returned :class:`ResultSet` is consumed — except
        under auto-indexing (:meth:`indexed` with no argument), which
        pays one full chunking-and-indexing pass over the corpus here,
        up front; pass a prebuilt index to keep ``over`` pass-free.
        """
        from repro.engine.engine import _as_corpus

        engine = self.engine()
        program = self.program()
        stats_before = engine.stats()
        certified = engine.certify(program)
        corpus = _as_corpus(corpus)
        if self._index is True and engine.index is None:
            # Auto-indexing: chunk the corpus exactly as the certified
            # plan will and index it once; subsequent .over() calls on
            # this query reuse the attached index.
            engine.attach_index(engine.build_index(corpus, program))
        elif self._index not in (None, True):
            target, current = self._index, engine.index
            if isinstance(target, str):
                # A path: open once; later .over() calls recognize the
                # already-attached index by its directory.
                if current is None or current.directory != target:
                    engine.attach_index(target)
            elif current is not target:
                # A prebuilt index also reaches engines pinned via
                # .using().
                engine.attach_index(target)
        return ResultSet(engine, corpus, program, certified,
                         stats_before=stats_before)

    def serve(self, max_queue: int = 64,
              default_deadline: Optional[float] = None,
              name: Optional[str] = None):
        """A resident :class:`repro.serve.ExtractionService` for this
        query: the engine this chain configured (splitters, workers,
        index, tracing) becomes service-owned, with the query's spanner
        as the default program.

        The service takes ownership of the engine — run queries
        through the service from here on (``await
        service.extract_async(...)``, or its blocking wrapper
        ``service.extract(...)``), not through this query object.
        ``max_queue`` bounds how many queries may wait for the engine
        (:class:`repro.errors.ServiceOverloadedError` past it);
        ``default_deadline`` (seconds) applies to queries without
        their own.  Start it with ``with service:`` (or implicitly on
        first use)::

            service = Q(spanner).split_by("tokens").workers(4).serve()
            with service:
                result = service.extract(texts, deadline=0.5)
        """
        from repro.serve import ExtractionService

        return ExtractionService(
            self.engine(),
            program=self.program(),
            max_queue=max_queue,
            default_deadline=default_deadline,
            name=name or self._spanner.name or "service",
            flight=self._flight,
        )

    def on(self, document: str) -> Set[SpanTuple]:
        """Single-document shortcut: the span tuples of ``document``."""
        results = self.over([document])
        return set(results["doc-0000"])

    def __repr__(self) -> str:
        names = ",".join(splitter.name for splitter in self._splitters)
        return (f"Q({self._spanner.name!r})"
                f".split_by({names})" if names else
                f"Q({self._spanner.name!r})")


def Q(spanner: object) -> Query:
    """Start a fluent query: ``Q(spanner)`` — the front door.

    ``spanner`` is a :class:`Spanner` (or anything coercible to one:
    a VSet-automaton, a fast executable with a specification).
    """
    return Query(spanner)
