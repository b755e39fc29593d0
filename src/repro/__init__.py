"""repro: Split-Correctness in Information Extraction (PODS 2019).

A from-scratch implementation of the document-spanner framework of
Doleschal, Kimelfeld, Martens, Nahshon and Neven: regular spanners
(regex formulas and VSet-automata), splitters, and the decision
procedures for split-correctness, splittability and self-splittability
with their tractable fragments, together with a runtime and corpus
engine that exploit split-correctness for parallel, incremental and
cached evaluation.

Quickstart — the fluent query API is the front door::

    from repro import Q, Spanner

    spanner = Spanner.regex(".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}",
                            alphabet="ab .")
    results = Q(spanner).split_by("tokens").workers(4).over(corpus)
    for doc_id, tuples in results.stream():    # lazy, certified once
        print(doc_id, results.explain()["theorem"], tuples)

:class:`Spanner` carries the spanner algebra as operators (``|``,
``&``, ``-``, ``.project``, ``.join``); :class:`Splitter` names the
paper's splitter catalogue; :meth:`ResultSet.explain` reports the
certified plan, the selected theorem, and the engine statistics.  The
theorem-level entry points (``is_self_splittable``, ``split_correct``,
...) and the corpus engine remain available below the fluent surface.

Errors raised by the documented surface derive from
:class:`repro.errors.ReproError`.  The README's "Layout" section is
the paper-to-module map; ``benchmarks/results/`` holds the reproduced
results.
"""

from repro.errors import (
    CertificationError,
    DeadlineExceededError,
    IndexFormatError,
    NotFunctionalError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceThreadError,
    UnknownSplitterError,
    WorkerLostError,
)
from repro.query import Q, Query, ResultSet, Spanner, Splitter
from repro.core import (
    AnnotatedSplitter,
    BlackBoxSpanner,
    Span,
    SpanTuple,
    SpannerSignature,
    SpannerSymbol,
    SplitConstraint,
    annotated_split_correct,
    annotated_splittable,
    black_box_split_correct,
    canonical_split_spanner,
    compose,
    compose_semantics,
    compose_splitters,
    cover_condition,
    is_self_splittable,
    is_self_splittable_dfvsa,
    is_splittable,
    minimal_filter_language,
    self_splittability_witness,
    split_correct_dfvsa,
    split_correct_general,
    split_correct_witness,
    splits_of,
    splitters_commute,
    subsumes,
)
from repro.spanners import (
    VSetAutomaton,
    boolean_spanner,
    compile_regex_formula,
    determinize,
    dfvsa_contains,
    is_deterministic,
    is_dfvsa,
    is_weakly_deterministic,
    spanner_contains,
    spanner_equivalent,
)
from repro.splitters import (
    char_ngram_splitter,
    consecutive_sentence_pairs,
    fixed_window_splitter,
    is_disjoint,
    paragraph_splitter,
    record_splitter,
    sentence_splitter,
    separator_splitter,
    token_ngram_splitter,
    token_splitter,
    whole_document_splitter,
)
from repro.runtime import Planner, evaluate_whole, split_by
from repro.engine import Corpus, Deadline, Document, ExtractionEngine, Program
from repro.index import (
    FactorSet,
    IndexFilter,
    SegmentedIndex,
    factors_of,
)
from repro.obs import Metrics, Tracer, kernel_metrics
from repro.runtime import RegisteredSplitter
from repro.serve import ExtractionService, ServiceResult, serve_http

__version__ = "1.4.0"

__all__ = [
    # The fluent query API (the documented front door).
    "Q",
    "Query",
    "Spanner",
    "Splitter",
    "ResultSet",
    # Typed exception hierarchy.
    "ReproError",
    "NotFunctionalError",
    "CertificationError",
    "UnknownSplitterError",
    "DeadlineExceededError",
    "IndexFormatError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "ServiceThreadError",
    "WorkerLostError",
    # Corpus engine.
    "Corpus",
    "Deadline",
    "Document",
    "ExtractionEngine",
    "Program",
    "RegisteredSplitter",
    # Resident serving layer (repro.serve).
    "ExtractionService",
    "ServiceResult",
    "serve_http",
    # Corpus index subsystem (literal/trigram prefiltering).
    "FactorSet",
    "IndexFilter",
    "SegmentedIndex",
    "factors_of",
    # Observability (tracing spans + metrics registry).
    "Tracer",
    "Metrics",
    "kernel_metrics",
    # Theorem-level procedures and building blocks.
    "AnnotatedSplitter",
    "BlackBoxSpanner",
    "Span",
    "SpanTuple",
    "SpannerSignature",
    "SpannerSymbol",
    "SplitConstraint",
    "annotated_split_correct",
    "annotated_splittable",
    "black_box_split_correct",
    "canonical_split_spanner",
    "compose",
    "compose_semantics",
    "compose_splitters",
    "cover_condition",
    "is_self_splittable",
    "is_self_splittable_dfvsa",
    "is_splittable",
    "minimal_filter_language",
    "self_splittability_witness",
    "split_correct_dfvsa",
    "split_correct_general",
    "split_correct_witness",
    "splits_of",
    "splitters_commute",
    "subsumes",
    "VSetAutomaton",
    "boolean_spanner",
    "compile_regex_formula",
    "determinize",
    "dfvsa_contains",
    "is_deterministic",
    "is_dfvsa",
    "is_weakly_deterministic",
    "spanner_contains",
    "spanner_equivalent",
    "char_ngram_splitter",
    "consecutive_sentence_pairs",
    "fixed_window_splitter",
    "is_disjoint",
    "paragraph_splitter",
    "record_splitter",
    "sentence_splitter",
    "separator_splitter",
    "token_ngram_splitter",
    "token_splitter",
    "whole_document_splitter",
    "evaluate_whole",
    "split_by",
    "Planner",
]
