"""E7 — Corpus index prefiltering: skip chunks that cannot match.

Not a paper experiment but the production moral of split-correctness:
once chunks are independent units of work, most of them can be
*rejected* without running any automaton.  PR 5's index subsystem
(:mod:`repro.index`) derives the literal material every matching chunk
must contain from the certified plan's matching NFA, and answers
"could this chunk match?" from a trigram posting index built once per
corpus — the Google Code Search recipe applied to split-correct
chunks.

Workload: a **selective-literal** extraction — delimiter-bounded
``qz``-runs, where only a configurable fraction of sentences contains
the rare ``qz`` literal — over a synthetic prose corpus.  Three
engines run the identical certified plan:

* **baseline** — no prefiltering (every chunk hits the automaton);
* **scan** — factor prefiltering without an index (per-chunk
  substring checks);
* **indexed** — a memory-resident :class:`repro.index.SegmentedIndex`
  built over the corpus (its build time is charged to the indexed
  side), candidate bitmasks computed once per plan.

Claims under test: pruned-chunk counts > 0 surfaced via
``EngineStats``, identical span results on all three paths, and
graceful fallback — a spanner with no extractable factors runs
unfiltered and still agrees.  The scan/indexed-vs-baseline ratios of
the single pass are reported, not gated: since the kernel rejects a
match-free chunk in one table pass, a one-shot index build no longer
pays for itself inside the pass that builds it.  What an index is
worth amortised is the ledger's ``selective-indexed`` workload
(``benchmarks/ledger``).

``python -m benchmarks.bench_e7_index_prefilter --smoke`` runs a
scaled-down version as a CI regression gate on agreement, pruning and
the fallback.
"""

from __future__ import annotations

import random
import sys
import time
from typing import List

import pytest

from benchmarks.conftest import report
from repro.engine import Corpus, ExtractionEngine, Program
from repro.runtime import RegisteredSplitter
from repro.runtime.fast import FastSeparatorSplitter
from repro.spanners.regex_formulas import compile_regex_formula
from repro.spanners.vset_automaton import VSetAutomaton
from repro.splitters.builders import separator_splitter

ALPHABET = frozenset("abcdefgh qz.")

#: Delimiter-bounded ``qz``-runs: the E5/E6 a-run shape, pointed at a
#: rare literal so the workload is selective.
PATTERN = (".*(\\.| )y{qz+}(\\.| ).*|y{qz+}(\\.| ).*"
           "|.*(\\.| )y{qz+}|y{qz+}")


def qz_extractor() -> VSetAutomaton:
    return compile_regex_formula(PATTERN, ALPHABET)


def factorless_extractor() -> VSetAutomaton:
    """A spanner with no extractable factors: neither ``a`` nor ``b``
    is individually necessary, one character suffices, and the free
    ``.*`` context realizes every trigram — the fallback path the
    acceptance criteria require."""
    return compile_regex_formula(".*y{a+|b+}.*", ALPHABET)


def sentence_registry() -> List[RegisteredSplitter]:
    return [
        RegisteredSplitter(
            "sentences", separator_splitter(ALPHABET, "."),
            priority=1, executor=FastSeparatorSplitter("."),
        ),
    ]


def selective_corpus(
    n_documents: int,
    sentences_per_document: int,
    hit_fraction: float,
    seed: int,
) -> List[str]:
    """Prose where only ``hit_fraction`` of sentences contain ``qz``.

    Every document draws fresh sentences (no cross-document
    boilerplate), so chunk-cache dedup cannot mask the prefiltering
    effect being measured.
    """
    rng = random.Random(seed)
    letters = "abcdefgh"

    def token() -> str:
        return "".join(rng.choice(letters)
                       for _ in range(rng.randint(2, 7)))

    def sentence(with_hit: bool) -> str:
        words = [token() for _ in range(rng.randint(6, 12))]
        if with_hit:
            words[rng.randrange(len(words))] = \
                "q" + "z" * rng.randint(1, 3)
        return " ".join(words)

    documents = []
    for _ in range(n_documents):
        documents.append(". ".join(
            sentence(rng.random() < hit_fraction)
            for _ in range(sentences_per_document)
        ) + ".")
    return documents


# ----------------------------------------------------------------------
# Shared measurement
# ----------------------------------------------------------------------


def measure(n_documents: int, sentences_per_document: int = 12,
            hit_fraction: float = 0.05, seed: int = 37):
    """Run the three engines over one corpus; returns a result dict.

    Asserts (inside) that all three produce identical span results
    and that both filtered engines actually pruned chunks.
    """
    from repro.engine import PlanCache

    corpus = Corpus.from_texts(selective_corpus(
        n_documents, sentences_per_document, hit_fraction, seed=seed,
    ))
    specification = qz_extractor()
    program = Program(specification, name="qz-runs")

    # One shared plan cache: certification (and the certificate's
    # factor analysis) is the amortized certify-once cost every
    # engine replays — it stays outside the timed regions, exactly
    # like E5/E6 measure extraction rather than certification.
    plan_cache = PlanCache()
    baseline = ExtractionEngine(sentence_registry(), batch_size=16,
                                plan_cache=plan_cache)
    certified = baseline.certify(program)
    certified.factor_set()

    start = time.perf_counter()
    baseline_result = baseline.run(corpus, program)
    baseline_seconds = time.perf_counter() - start

    scan = ExtractionEngine(sentence_registry(), batch_size=16,
                            plan_cache=plan_cache, prefilter=True)
    start = time.perf_counter()
    scan_result = scan.run(corpus, program)
    scan_seconds = time.perf_counter() - start

    indexed = ExtractionEngine(sentence_registry(), batch_size=16,
                               plan_cache=plan_cache)
    start = time.perf_counter()
    index = indexed.build_index(corpus, program)
    build_seconds = time.perf_counter() - start
    indexed.attach_index(index)
    start = time.perf_counter()
    indexed_result = indexed.run(corpus, program)
    indexed_seconds = time.perf_counter() - start

    assert baseline_result.by_document == scan_result.by_document
    assert baseline_result.by_document == indexed_result.by_document
    scan_stats = scan.stats()
    indexed_stats = indexed.stats()
    assert scan_stats.chunks_pruned > 0
    assert indexed_stats.chunks_pruned > 0
    assert baseline.stats().chunks_pruned == 0
    # Pruning skips evaluation entirely — never the other counters.
    assert (indexed_stats.chunks_evaluated
            < baseline.stats().chunks_evaluated)

    return {
        "documents": n_documents,
        "chunks_total": indexed_stats.chunks_total,
        "chunks_pruned": indexed_stats.chunks_pruned,
        "prune_rate": indexed_stats.prune_rate,
        "tuples": baseline_result.total_tuples(),
        "baseline_seconds": baseline_seconds,
        "scan_seconds": scan_seconds,
        "index_build_seconds": build_seconds,
        "indexed_run_seconds": indexed_seconds,
        "scan_speedup": baseline_seconds / max(scan_seconds, 1e-9),
        "indexed_speedup": (baseline_seconds
                            / max(build_seconds + indexed_seconds, 1e-9)),
        "indexed_stats": indexed_stats,
    }


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def test_premise_filter_is_sound_per_chunk():
    """admits() == False implies an empty result, chunk by chunk."""
    from repro.index import factors_of

    specification = qz_extractor()
    factors = factors_of(specification)
    assert factors is not None and factors.effective
    assert "qz" in factors.required
    splitter = FastSeparatorSplitter(".")
    for text in selective_corpus(6, 8, 0.3, seed=5):
        for chunk in splitter.chunks(text):
            if not factors.admits(chunk):
                assert specification.evaluate(chunk) == set()


def test_premise_factorless_spanner_falls_back():
    """No extractable factors: identical results, zero pruning."""
    from repro.index import factors_of

    specification = factorless_extractor()
    factors = factors_of(specification)
    assert factors is None or not factors.effective

    corpus = Corpus.from_texts(selective_corpus(4, 6, 0.2, seed=9))
    program = Program(specification, name="factorless")
    plain = ExtractionEngine(sentence_registry())
    filtered = ExtractionEngine(sentence_registry(), prefilter=True)
    filtered.attach_index(filtered.build_index(corpus, program))
    plain_result = plain.run(corpus, program)
    filtered_result = filtered.run(corpus, program)
    assert plain_result.by_document == filtered_result.by_document
    assert filtered.stats().chunks_pruned == 0


@pytest.mark.benchmark(group="e7-index")
def test_e7_index_prefilter_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: measure(n_documents=24), rounds=1, iterations=1,
    )
    report(
        "E7 prefilter",
        "no paper claim (index subsystem)",
        f"indexed {result['indexed_speedup']:.2f}x / scan "
        f"{result['scan_speedup']:.2f}x vs unindexed engine, "
        f"{result['chunks_pruned']}/{result['chunks_total']} chunks "
        f"pruned (index built in {result['index_build_seconds']*1e3:.0f}ms)",
        metrics={
            "workload": ("selective qz-run extraction, 24 documents, "
                         "5% hit sentences"),
            "speedup": result["indexed_speedup"],
            "scan_speedup": result["scan_speedup"],
            "baseline_seconds": result["baseline_seconds"],
            "indexed_seconds": (result["index_build_seconds"]
                                + result["indexed_run_seconds"]),
        },
        stats=result["indexed_stats"],
    )
    assert result["chunks_pruned"] > 0


# ----------------------------------------------------------------------
# CI smoke gate
# ----------------------------------------------------------------------


def run_smoke() -> int:
    """Scaled-down index regression gate for CI.

    Losing the pruning or result agreement exits nonzero and fails
    the build (the agreement and fallback premises assert inside the
    helpers); the speedups are printed for the log only.
    """
    failures = []

    test_premise_factorless_spanner_falls_back()
    print("[e7-smoke] factorless fallback: identical results, 0 pruned")

    result = measure(n_documents=10, sentences_per_document=10)
    print(f"[e7-smoke] indexed {result['indexed_speedup']:.2f}x, "
          f"scan {result['scan_speedup']:.2f}x, "
          f"pruned {result['chunks_pruned']}/{result['chunks_total']}")
    if result["chunks_pruned"] <= 0:
        failures.append("no chunks pruned on the selective workload")

    for failure in failures:
        print(f"[e7-smoke] FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("[e7-smoke] ok")
    return 1 if failures else 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="E7 index-prefilter benchmark",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the scaled-down CI regression gate",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    parser.error("run under pytest for the full benchmark, "
                 "or pass --smoke")
    return 2


if __name__ == "__main__":
    sys.exit(main())
