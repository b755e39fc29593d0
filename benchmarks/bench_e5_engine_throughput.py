"""E5 — Corpus engine throughput: cached sharded evaluation.

Not a paper experiment but the system the Introduction envisions: once
``P = P_S o S`` is certified, a corpus engine can (a) pay for the
PSPACE certification once per program, and (b) evaluate each distinct
chunk once corpus-wide, because chunk results are context-free.  This
benchmark runs :class:`repro.engine.ExtractionEngine` on a synthetic
boilerplate-heavy corpus (documents assembled from a shared sentence
pool) against the per-document
:func:`repro.runtime.executor.evaluate_whole` baseline.

The engine runs with ``workers=0`` so the measured speedup isolates
the caching/dedup effect from parallelism (which E1–E4 cover); the
claims under test are the acceptance criteria: identical results,
chunk-cache hit rate > 0, and certification exactly once per
(spanner, splitter registry) pair even across repeated runs.
"""

import pytest

from benchmarks.conftest import report, timed
from benchmarks.corpora import boilerplate_corpus
from repro.engine import ExtractionEngine, Program
from repro.runtime import RegisteredSplitter, evaluate_whole
from repro.runtime.fast import FastSeparatorSplitter, RegexSpanner
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import separator_splitter

ALPHABET = frozenset("ab .")
CORPUS = boilerplate_corpus(
    n_documents=40, sentences_per_document=30, distinct_sentences=18,
    seed=23,
)
#: Per-match feature-computation rounds, emulating the real IE cost the
#: paper's pipelines pay per extracted window (same device as the
#: ``work`` knobs in :mod:`benchmarks.workloads`).
WORK = 400


def _feature_cost(window: str) -> None:
    digest = 0
    for k in range(WORK):
        digest ^= hash((window, k, digest))


def mini_specification():
    """The miniature a-run extractor the decision procedures certify."""
    return compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*|.*(\\.| )y{a+}|y{a+}",
        ALPHABET,
    )


def fast_extractor() -> RegexSpanner:
    """The production-path extractor (Python ``re``), paired with the
    specification so the engine can certify it."""
    return RegexSpanner(r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)",
                        specification=mini_specification(),
                        cost=_feature_cost)


def token_registry():
    return [
        RegisteredSplitter(
            "tokens", separator_splitter(ALPHABET, " ."),
            priority=1, executor=FastSeparatorSplitter(" ."),
        ),
    ]


def per_document_baseline(extractor):
    return [evaluate_whole(extractor, document) for document in CORPUS]


def test_premise_engine_matches_per_document_baseline():
    """Acceptance: engine results identical to ``evaluate_whole``."""
    extractor = fast_extractor()
    engine = ExtractionEngine(token_registry(), workers=0, batch_size=8)
    result = engine.run(CORPUS, Program(extractor))
    assert result.plan.mode == "split"
    assert result.plan.splitter_name == "tokens"
    baseline = per_document_baseline(extractor)
    for index, expected in enumerate(baseline):
        assert result[f"doc-{index:04d}"] == expected


def test_certification_once_per_program_registry_pair():
    """Acceptance: repeated runs replay the certificate."""
    engine = ExtractionEngine(token_registry(), workers=0)
    program = Program(fast_extractor())
    engine.run(CORPUS[:10], program)
    engine.run(CORPUS[10:], program)
    stats = engine.stats()
    assert stats.certifications == 1
    assert stats.plan_cache_hits == 1


@pytest.mark.benchmark(group="e5-engine")
def test_e5_cold_engine_vs_per_document(benchmark):
    """Cold engine (empty caches) vs per-document evaluation."""
    extractor = fast_extractor()
    baseline_seconds = timed(
        lambda: per_document_baseline(extractor), repeats=2
    )

    def cold_run():
        engine = ExtractionEngine(token_registry(), workers=0,
                                  batch_size=8)
        return engine, engine.run(CORPUS, Program(fast_extractor()))

    engine, result = benchmark.pedantic(cold_run, rounds=1, iterations=1)
    stats = engine.stats()
    speedup = baseline_seconds / max(stats.extraction_seconds, 1e-9)
    report(
        "E5 cold",
        "no paper claim (new subsystem)",
        f"{speedup:.2f}x vs evaluate_whole, hit rate "
        f"{stats.chunk_hit_rate:.2f}, dedup {stats.dedup_factor:.1f}x, "
        f"{stats.chunks_per_second:,.0f} chunks/s, "
        f"certified once in {stats.certification_seconds:.3f}s",
        metrics={
            "workload": "boilerplate corpus, cold caches",
            "speedup": speedup,
            "baseline_seconds": baseline_seconds,
            "engine_seconds": stats.extraction_seconds,
        },
        stats=stats,
    )
    assert stats.chunk_cache_hits > 0
    assert stats.certifications == 1
    assert stats.chunks_evaluated < stats.chunks_total
    assert speedup > 1.2
    assert result.total_tuples() > 0


@pytest.mark.benchmark(group="e5-engine")
def test_e5_warm_engine_vs_per_document(benchmark):
    """Steady state: caches populated by a prior run of the corpus."""
    extractor = fast_extractor()
    baseline_seconds = timed(
        lambda: per_document_baseline(extractor), repeats=2
    )
    engine = ExtractionEngine(token_registry(), workers=0, batch_size=8)
    program = Program(fast_extractor())
    engine.run(CORPUS, program)  # warm both cache levels
    warmed = engine.stats().extraction_seconds

    result = benchmark.pedantic(
        lambda: engine.run(CORPUS, program), rounds=1, iterations=1
    )
    stats = engine.stats()
    warm_seconds = max(stats.extraction_seconds - warmed, 1e-9)
    speedup = baseline_seconds / warm_seconds
    report(
        "E5 warm",
        "no paper claim (new subsystem)",
        f"{speedup:.2f}x vs evaluate_whole "
        f"(hit rate {stats.chunk_hit_rate:.2f}, certifications "
        f"{stats.certifications})",
        metrics={
            "workload": "boilerplate corpus, warm caches",
            "speedup": speedup,
            "baseline_seconds": baseline_seconds,
            "engine_seconds": warm_seconds,
        },
        stats=stats,
    )
    assert stats.certifications == 1
    # The warm run evaluates no new chunks at all.
    assert stats.chunks_evaluated == len(engine.chunk_cache)
    assert speedup > 1.5
    assert result.total_tuples() > 0


@pytest.mark.benchmark(group="e5-engine")
def test_e5_sharded_run(benchmark):
    """Sharded execution: same results, same dedup, deterministic."""
    engine = ExtractionEngine(token_registry(), workers=0, batch_size=8)
    program = Program(fast_extractor())
    result = benchmark.pedantic(
        lambda: engine.run_sharded(CORPUS, program, num_shards=4),
        rounds=1, iterations=1,
    )
    plain = ExtractionEngine(token_registry(), workers=0).run(
        CORPUS, Program(fast_extractor())
    )
    assert result.by_document == plain.by_document
    stats = engine.stats()
    report(
        "E5 sharded",
        "no paper claim (new subsystem)",
        f"4 shards, hit rate {stats.chunk_hit_rate:.2f}, "
        f"certifications {stats.certifications}",
        metrics={
            "workload": "boilerplate corpus, 4 deterministic shards",
        },
        stats=stats,
    )
    assert stats.certifications == 1
    assert stats.chunk_cache_hits > 0
