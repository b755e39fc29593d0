"""Corpus-scale extraction engine (the system the Introduction envisions).

The paper's punchline is operational: once split-correctness
``P = P_S o S`` is certified, extraction over a corpus parallelizes
over the chunks of ``S``.  The :mod:`repro.runtime` layer provides the
per-document mechanics; this package scales them to corpora by
amortizing everything that does not depend on the individual document:

* :mod:`repro.engine.corpus` — document store with deterministic
  sharding and batch iteration;
* :mod:`repro.engine.cache` — plan cache (decision procedures run once
  per program) and chunk cache (each distinct chunk text extracted
  once per program, corpus-wide);
* :mod:`repro.engine.scheduler` — chunk batches fanned over a process
  pool, shifted span-tuples merged back per document;
* :mod:`repro.engine.stats` — hit rates, certification counts and
  throughput surfaced through the engine API;
* :mod:`repro.engine.engine` — the :class:`ExtractionEngine` façade.

Quickstart::

    from repro.engine import Corpus, ExtractionEngine

    engine = ExtractionEngine(splitters, workers=4)
    result = engine.run(Corpus.from_texts(documents), spanner)
    print(engine.stats().snapshot())

For the documented fluent surface on top of this engine — named
splitters, chainable configuration, lazy streaming results — see
:mod:`repro.query` (``Q(spanner).split_by("tokens").over(corpus)``
executes here via :meth:`ExtractionEngine.run_iter`).
"""

from repro.engine.cache import (
    ChunkCache,
    PlanCache,
    fingerprint,
    registry_fingerprint,
)
from repro.engine.corpus import Corpus, Document, shard_of
from repro.engine.deadline import Deadline, as_deadline
from repro.engine.engine import EngineResult, ExtractionEngine, Program
from repro.engine.scheduler import Scheduler
from repro.engine.stats import EngineStats

__all__ = [
    "ChunkCache",
    "Corpus",
    "Deadline",
    "Document",
    "EngineResult",
    "EngineStats",
    "ExtractionEngine",
    "PlanCache",
    "Program",
    "Scheduler",
    "as_deadline",
    "fingerprint",
    "registry_fingerprint",
    "shard_of",
]
