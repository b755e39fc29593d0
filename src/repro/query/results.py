"""Lazy, replayable query results: the :class:`ResultSet`.

``Query.over(corpus)`` returns a :class:`ResultSet` without touching a
single document: extraction happens batch by batch as the result set
is consumed (:meth:`ResultSet.stream`), driven by the engine's lazy
:meth:`repro.engine.ExtractionEngine.run_iter`.  Consumed documents
are retained, so iterating twice — or calling a materializer after a
partial stream — never re-runs the engine on documents it already
produced.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.spans import SpanTuple
from repro.engine.corpus import Corpus
from repro.engine.engine import Program
from repro.engine.stats import EngineStats
from repro.runtime.planner import CertifiedPlan


class ResultSet:
    """Streaming per-document results of one query run.

    Iteration yields ``(doc_id, frozenset_of_span_tuples)`` in corpus
    order.  The engine is only advanced as far as consumption demands;
    ``to_dicts()`` / ``texts()`` / ``materialize()`` drain whatever
    remains.
    """

    def __init__(
        self,
        engine,
        corpus: Corpus,
        program: Program,
        certified: CertifiedPlan,
        stats_before: Optional[EngineStats] = None,
    ) -> None:
        self._engine = engine
        self._corpus = corpus
        self._program = program
        self._certified = certified
        self._stats_before = stats_before
        self._source: Optional[Iterator] = None
        self._order: List[str] = []
        self._results: Dict[str, FrozenSet[SpanTuple]] = {}
        self._complete = False

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def _advance(self) -> Optional[Tuple[str, FrozenSet[SpanTuple]]]:
        """Pull one more document out of the engine (or ``None``)."""
        if self._complete:
            return None
        if self._source is None:
            self._source = self._engine.run_iter(self._corpus, self._program)
        try:
            doc_id, tuples = next(self._source)
        except StopIteration:
            self._complete = True
            self._source = None
            return None
        frozen = frozenset(tuples)
        self._order.append(doc_id)
        self._results[doc_id] = frozen
        return doc_id, frozen

    def stream(self) -> Iterator[Tuple[str, FrozenSet[SpanTuple]]]:
        """Yield ``(doc_id, tuples)`` lazily, in corpus order.

        Safe to call repeatedly: already-produced documents replay
        from the retained results, then the engine resumes where the
        last consumer stopped.  Concurrent streams share one pass over
        the corpus.  With ``workers(n)`` the pass looks ahead: the
        batches after the one being yielded are already with the pool
        (abandoning the stream simply drops them).
        """
        index = 0
        while True:
            while index < len(self._order):
                doc_id = self._order[index]
                index += 1
                yield doc_id, self._results[doc_id]
            if self._advance() is None:
                return

    def __iter__(self) -> Iterator[Tuple[str, FrozenSet[SpanTuple]]]:
        return self.stream()

    def __len__(self) -> int:
        return len(self._corpus)

    def __getitem__(self, doc_id: str) -> FrozenSet[SpanTuple]:
        """The tuples of one document, streaming no further than it."""
        while doc_id not in self._results:
            if self._advance() is None:
                raise KeyError(doc_id)
        return self._results[doc_id]

    # ------------------------------------------------------------------
    # Materializers
    # ------------------------------------------------------------------

    def materialize(self) -> Dict[str, FrozenSet[SpanTuple]]:
        """Drain the stream; every document's tuples by id."""
        for _ in self.stream():
            pass
        return dict(self._results)

    def total_tuples(self) -> int:
        return sum(len(tuples) for tuples in self.materialize().values())

    def to_dicts(self) -> List[Dict[str, object]]:
        """Every result tuple as a flat JSON-friendly dict.

        One dict per (document, tuple): ``{"doc": id, <variable>:
        {"begin": b, "end": e, "text": extracted}}``, sorted by
        document order then span positions — the shape notebooks and
        JSON writers want.
        """
        rows: List[Dict[str, object]] = []
        self.materialize()
        for doc_id in self._order:
            text = self._corpus[doc_id].text
            document_rows = []
            for span_tuple in self._results[doc_id]:
                row: Dict[str, object] = {"doc": doc_id}
                for variable, begin, end in span_tuple.columns():
                    row[str(variable)] = {
                        "begin": begin,
                        "end": end,
                        "text": text[begin - 1:end - 1],
                    }
                document_rows.append(row)
            document_rows.sort(key=lambda row: [
                (name, value["begin"], value["end"])
                for name, value in sorted(row.items())
                if name != "doc"
            ])
            rows.extend(document_rows)
        return rows

    def texts(self, variable: Optional[object] = None) -> List[str]:
        """The extracted strings (of ``variable``, or of every
        variable when the queries' tuples are unary/unambiguous)."""
        extracted: List[str] = []
        self.materialize()
        for doc_id in self._order:
            text = self._corpus[doc_id].text
            document_texts = []
            for span_tuple in self._results[doc_id]:
                if variable is not None and variable not in span_tuple:
                    raise KeyError(variable)
                document_texts.extend(
                    text[begin - 1:end - 1]
                    for name, begin, end in span_tuple.columns()
                    if variable is None or name == variable
                )
            extracted.extend(sorted(document_texts))
        return extracted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def plan(self) -> CertifiedPlan:
        return self._certified

    @property
    def trace(self):
        """The engine's :class:`repro.obs.trace.Tracer` (the shared
        disabled tracer unless the query was built with
        :meth:`repro.query.Query.traced`)."""
        return self._engine.tracer

    @property
    def metrics(self):
        """The engine's :class:`repro.obs.metrics.Metrics` registry."""
        return self._engine.metrics

    def stats(self) -> EngineStats:
        """What this run contributed to the engine's counters so far
        (grows as the stream is consumed)."""
        current = self._engine.stats()
        if self._stats_before is None:
            return current
        return current.since(self._stats_before)

    def explain(self) -> Dict[str, object]:
        """The full run report: certificate plus execution shape.

        The certificate half (mode, splitter, theorem, procedure,
        compiled artifact, certification cost) comes from
        :meth:`repro.runtime.planner.CertifiedPlan.explain`; the
        execution half records what this result set is running over,
        what pool workers cut its documents with (``pool_split``) and
        the engine counters accumulated so far.
        """
        report = self._certified.explain()
        # Via the engine: ``artifacts_compiled`` counts a first lowering.
        runner = self._engine.runner_for(self._certified, self._program)
        report["pool_split"] = self._engine.pool_route(self._certified,
                                                       runner)
        if report.get("compiled_artifact") is None:
            # Self-splittable (and whole-document) plans run the
            # program's own runner; report that artifact instead.
            report["compiled_artifact"] = \
                f"{type(runner).__name__}-{id(runner):x}"
            # ... and what that runner decided at lowering; an
            # executable that is not a lowered automaton has no kernel
            # to describe and tests no literal first.
            describe = getattr(runner, "describe", None)
            report["kernel"] = describe() if describe is not None else {
                "tier": None, "fallback_reason": None,
                "finishable_sweep": None,
                "required": [], "required_reason": "black-box executable",
            }
            report["kernel_tier"] = report["kernel"]["tier"]
        stats = self.stats()
        report["index"] = self._engine.prefilter_report(self._certified)
        tracer = self._engine.tracer
        trace_report: Dict[str, object] = {"enabled": tracer.enabled}
        if tracer.enabled:
            trace_report["spans"] = len(tracer)
            trace_report["phases"] = tracer.phase_durations()
        report["trace"] = trace_report
        report.update({
            "program": self._program.name,
            "documents": len(self._corpus),
            "documents_streamed": len(self._order),
            "workers": self._engine.scheduler.workers,
            "batch_size": self._engine.scheduler.batch_size,
            "certifications": stats.certifications,
            "stats": stats.snapshot(),
        })
        return report

    def __repr__(self) -> str:
        state = "complete" if self._complete else \
            f"{len(self._order)}/{len(self._corpus)} streamed"
        return (f"ResultSet({self._program.name!r}, "
                f"{len(self._corpus)} documents, {state})")
