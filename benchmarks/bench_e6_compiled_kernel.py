"""E6 — Compiled automaton kernel: bitset IR vs the interpreter.

Not a paper experiment but the substrate every other benchmark stands
on: PR 2 lowers all automaton execution onto the integer/bitset kernel
of :mod:`repro.automata.compiled` (dense state ids, precomputed
epsilon closures, table-lookup steps, lazy-DFA memoization), with
lowering pinned at certify time so chunk runners never re-compile.

This benchmark measures the kernel against the dict-of-sets
interpreted path it replaced (kept as
``VSetAutomaton.evaluate_interpreted``) on the two workloads the
acceptance criteria name:

* the **E1 n-gram workload** — token-bigram extraction by VSet-
  automaton over the prose alphabet;
* the **E5 engine workload** — the a-run extractor run corpus-wide by
  :class:`repro.engine.ExtractionEngine`, where only the chunk
  evaluation path differs between the two engines (both get identical
  split plans and chunk-cache dedup).

PR 7 adds the **byte-sweep workload**: the kernel-v2 byte-table
reverse sweep (the ``alive`` table on the ``v2-bytes`` tier — the one
sweep every evaluated chunk pays) against the masked-integer sweep of
the same artifact, with throughput reported in MB/s alongside the
speedup.

Claims under test: >= 3x speedup on the n-gram/engine workloads,
>= 5x on the byte-table sweep, identical results on every tier, and
compiled artifacts produced exactly once per certified plan even
across repeated runs (``EngineStats.artifacts_compiled``).

``python -m benchmarks.bench_e6_compiled_kernel --smoke`` runs a
scaled-down version with relaxed thresholds as a CI regression gate;
it also covers the ``workers=2`` pool path (parity with the
in-process engine, no child process left after close) and the
**pruning count gate** (:func:`smoke_pruning_counts`): on a fixed
corpus, match-free chunks expand no configuration and matching chunks
at most ``len(chunk) + 8`` — counts that repeat exactly, so the
property is held on shared runners where a timing floor would flake.
"""

from __future__ import annotations

import multiprocessing
import random
import sys
from typing import List

import pytest

from benchmarks.conftest import report, timed
from benchmarks.corpora import boilerplate_corpus
from repro.automata.compiled import compile_vset_automaton
from repro.engine import ExtractionEngine, Program
from repro.obs import kernel_metrics
from repro.runtime import RegisteredSplitter
from repro.runtime.fast import FastSeparatorSplitter
from repro.spanners.regex_formulas import compile_regex_formula
from repro.spanners.vset_automaton import VSetAutomaton
from repro.splitters.builders import separator_splitter, token_ngram_splitter

ALPHABET = frozenset("abcdefgh .")


class InterpretedSpanner:
    """Forces the pre-kernel dict-of-sets evaluation path.

    Presents the usual ``evaluate`` interface (so the engine treats it
    like any fast executable) but runs
    :meth:`repro.spanners.vset_automaton.VSetAutomaton.
    evaluate_interpreted` on every chunk — the baseline the kernel is
    measured against.
    """

    def __init__(self, specification: VSetAutomaton) -> None:
        self.specification = specification

    def svars(self):
        return self.specification.svars()

    def evaluate(self, document: str):
        return self.specification.evaluate_interpreted(document)


def ngram_extractor(n: int = 2) -> VSetAutomaton:
    """The E1 workload: token n-grams as a VSet-automaton."""
    return token_ngram_splitter(ALPHABET, n, "x")


def arun_extractor() -> VSetAutomaton:
    """The E5 workload: delimiter-bounded ``a``-runs."""
    return compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*|.*(\\.| )y{a+}|y{a+}",
        ALPHABET,
    )


def sentence_registry() -> List[RegisteredSplitter]:
    """Sentence-level chunks: big enough that chunk evaluation (what
    the kernel accelerates) dominates splitting/cache bookkeeping."""
    return [
        RegisteredSplitter(
            "sentences", separator_splitter(ALPHABET, "."),
            priority=1, executor=FastSeparatorSplitter("."),
        ),
    ]


def ngram_corpus(n_documents: int) -> List[str]:
    return boilerplate_corpus(
        n_documents=n_documents, sentences_per_document=2,
        distinct_sentences=max(4, n_documents // 2), seed=29,
    )


def engine_corpus(n_documents: int) -> List[str]:
    # Enough distinct sentences that chunk evaluation (the kernel's
    # territory) outweighs the splitting/merging work that is
    # identical on both sides of the comparison.
    return boilerplate_corpus(
        n_documents=n_documents, sentences_per_document=8,
        distinct_sentences=4 * n_documents, seed=31,
    )


# ----------------------------------------------------------------------
# Shared measurement
# ----------------------------------------------------------------------


def measure_ngram(n_documents: int, repeats: int = 2):
    """(speedup, compiled seconds, interpreted seconds) on E1 bigrams."""
    extractor = ngram_extractor(2)
    docs = ngram_corpus(n_documents)
    extractor.compiled()  # lower once, outside the timed region
    compiled_results = [extractor.evaluate(d) for d in docs]
    interpreted_results = [extractor.evaluate_interpreted(d) for d in docs]
    assert compiled_results == interpreted_results
    compiled = timed(lambda: [extractor.evaluate(d) for d in docs],
                     repeats=repeats)
    interpreted = timed(
        lambda: [extractor.evaluate_interpreted(d) for d in docs],
        repeats=repeats,
    )
    return interpreted / max(compiled, 1e-9), compiled, interpreted


def measure_engine(n_documents: int):
    """(speedup, compiled stats, interpreted stats) on the E5 engine
    workload; also asserts result equality and artifacts-once."""
    corpus = engine_corpus(n_documents)
    specification = arun_extractor()

    kernel_engine = ExtractionEngine(sentence_registry(), workers=0,
                                     batch_size=8)
    kernel_program = Program(specification, name="kernel")
    kernel_result = kernel_engine.run(corpus, kernel_program)
    kernel_engine.run(corpus, kernel_program)  # replay: no re-lowering
    kernel_stats = kernel_engine.stats()

    interpreted_engine = ExtractionEngine(sentence_registry(), workers=0,
                                          batch_size=8)
    interpreted_program = Program(
        InterpretedSpanner(specification), specification=specification,
        name="interpreted",
    )
    interpreted_result = interpreted_engine.run(corpus, interpreted_program)
    interpreted_stats = interpreted_engine.stats()

    assert kernel_result.by_document == interpreted_result.by_document
    # Compiled artifacts are produced exactly once per certified plan,
    # even across repeated runs; the interpreted engine never lowers.
    assert kernel_stats.certifications == 1
    assert kernel_stats.artifacts_compiled == 1
    assert interpreted_stats.artifacts_compiled == 0
    # Both engines did identical splitting/dedup work; only the chunk
    # evaluation path differs.
    assert kernel_stats.chunks_evaluated == interpreted_stats.chunks_evaluated
    speedup = (interpreted_stats.extraction_seconds
               / max(kernel_stats.extraction_seconds, 1e-9))
    return speedup, kernel_stats, interpreted_stats


def measure_sweep(n_documents: int, repeats: int = 3) -> dict:
    """The byte-table sweep workload: the ``alive`` sweep over the
    a-run artifact on both tiers, identical tables required.

    Returns the speedup of the v2 byte sweep over the masked-integer
    sweep, plus v2 throughput in MB/s (latin-1: one byte per
    character).
    """
    specification = arun_extractor()
    v2 = compile_vset_automaton(specification)
    assert v2.kernel_tier == "v2-bytes"
    docs = engine_corpus(n_documents)
    alive = v2.alive
    sweep_bytes = alive.byte_sweeper.sweep_bytes
    for document in docs:
        assert sweep_bytes(document.encode("latin-1")) \
            == alive.sweep_int(document)
    total_bytes = sum(len(document) for document in docs)
    bytes_seconds = timed(
        lambda: [sweep_bytes(d.encode("latin-1")) for d in docs],
        repeats=repeats,
    )
    int_seconds = timed(
        lambda: [alive.sweep_int(d) for d in docs], repeats=repeats,
    )
    return {
        "documents": n_documents,
        "total_bytes": total_bytes,
        "bytes_seconds": bytes_seconds,
        "int_seconds": int_seconds,
        "speedup_vs_int": int_seconds / max(bytes_seconds, 1e-9),
        "mb_per_second": total_bytes / max(bytes_seconds, 1e-9) / 1e6,
        "table_bytes": alive.byte_sweeper.table_bytes(),
    }


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def test_premise_compiled_agrees_on_both_workloads():
    extractor = ngram_extractor(2)
    arun = arun_extractor()
    for document in ngram_corpus(4)[:2] + engine_corpus(2)[:1]:
        assert extractor.evaluate(document) == \
            extractor.evaluate_interpreted(document)
        assert arun.evaluate(document) == arun.evaluate_interpreted(document)


@pytest.mark.benchmark(group="e6-kernel")
def test_e6_ngram_kernel_speedup(benchmark):
    speedup, compiled, interpreted = benchmark.pedantic(
        lambda: measure_ngram(n_documents=10), rounds=1, iterations=1,
    )
    report(
        "E6 n-gram",
        "no paper claim (kernel refactor)",
        f"{speedup:.2f}x vs interpreted VSA evaluation "
        f"({compiled * 1e3:.0f}ms vs {interpreted * 1e3:.0f}ms)",
        metrics={
            "workload": "E1 token bigrams, 10 boilerplate documents",
            "speedup": speedup,
            "compiled_seconds": compiled,
            "interpreted_seconds": interpreted,
            # No engine in this workload: the kernel's process-global
            # registry is the stats surface instead.
            "kernel_lowerings": kernel_metrics().value("kernel.lowerings"),
            "kernel_states_lowered": kernel_metrics().value(
                "kernel.states_lowered"),
        },
    )
    assert speedup >= 3.0


@pytest.mark.benchmark(group="e6-kernel")
def test_e6_engine_kernel_speedup(benchmark):
    speedup, kernel_stats, interpreted_stats = benchmark.pedantic(
        lambda: measure_engine(n_documents=24), rounds=1, iterations=1,
    )
    report(
        "E6 engine",
        "no paper claim (kernel refactor)",
        f"{speedup:.2f}x vs interpreted chunk runner "
        f"({kernel_stats.extraction_seconds:.3f}s vs "
        f"{interpreted_stats.extraction_seconds:.3f}s), "
        f"artifacts compiled once "
        f"({kernel_stats.artifacts_compiled})",
        metrics={
            "workload": "E5 a-run extractor, 24 boilerplate documents",
            "speedup": speedup,
            "kernel_seconds": kernel_stats.extraction_seconds,
            "interpreted_seconds": interpreted_stats.extraction_seconds,
        },
        stats=kernel_stats,
    )
    assert speedup >= 3.0


@pytest.mark.benchmark(group="e6-kernel")
def test_e6_byte_sweep_speedup(benchmark):
    sweep = benchmark.pedantic(
        lambda: measure_sweep(n_documents=24), rounds=1, iterations=1,
    )
    report(
        "E6 byte-sweep",
        "no paper claim (kernel v2)",
        f"{sweep['speedup_vs_int']:.1f}x vs masked-int sweep, "
        f"{sweep['mb_per_second']:.1f} MB/s",
        metrics={
            "workload": (
                "alive sweep, a-run artifact, "
                f"{sweep['documents']} boilerplate documents"
            ),
            "speedup": sweep["speedup_vs_int"],
            "mb_per_second": sweep["mb_per_second"],
            "total_bytes": sweep["total_bytes"],
            "bytes_seconds": sweep["bytes_seconds"],
            "int_seconds": sweep["int_seconds"],
            "table_bytes": sweep["table_bytes"],
            "kernel_bytes_swept": kernel_metrics().value(
                "kernel.bytes_swept"),
            "kernel_table_bytes": kernel_metrics().value(
                "kernel.table_bytes"),
        },
    )
    assert sweep["speedup_vs_int"] >= 5.0


# ----------------------------------------------------------------------
# CI smoke gate
# ----------------------------------------------------------------------


def smoke_pool_workers() -> List[str]:
    """The ``workers=2`` pool gate.

    A two-worker engine must agree with the in-process engine on the
    v2 kernel and leave no child process after close.
    """
    failures = []
    corpus = engine_corpus(6)
    specification = arun_extractor()
    assert specification.compiled().kernel_tier == "v2-bytes"

    pooled = ExtractionEngine(sentence_registry(), workers=2)
    pooled_result = pooled.run(corpus, Program(specification, name="pool"))
    pooled.close()

    baseline = ExtractionEngine(sentence_registry(), workers=0)
    baseline_result = baseline.run(
        corpus, Program(specification, name="baseline")
    )
    baseline.close()

    children = multiprocessing.active_children()
    print(f"[e6-smoke] pool: {pooled_result.total_tuples()} tuples over "
          f"workers=2, children after close={len(children)}")
    if pooled_result.by_document != baseline_result.by_document:
        failures.append("workers=2 results diverge from in-process")
    if children:
        failures.append(f"child processes left after close: {children}")
    return failures


def pruning_chunks(n_chunks: int = 200, seed: int = 37) -> List[str]:
    """The count gate's fixed corpus: sentences of 6-12 tokens over
    ``bcdefgh``; every second one has one token replaced by an
    ``a``-run — the only thing the a-run pattern matches."""
    rng = random.Random(seed)
    chunks = []
    for index in range(n_chunks):
        words = [
            "".join(rng.choice("bcdefgh") for _ in range(rng.randint(2, 7)))
            for _ in range(rng.randint(6, 12))
        ]
        if index % 2:
            words[rng.randrange(len(words))] = "a" * rng.randint(1, 4)
        chunks.append(" ".join(words))
    return chunks


def smoke_pruning_counts() -> List[str]:
    """The pruning count gate: what the ``alive`` sweep buys, as
    counts that repeat exactly (no stopwatch).

    A chunk without a match must be answered by ``alive[0]`` alone
    (``kernel.chunks_rejected`` +1, ``kernel.configs_expanded`` +0); a
    chunk with its one match may expand at most ``len(chunk) + 8``
    configurations — one accepting path's worth, not the three per
    byte of a search that cannot tell a dead configuration.
    """
    failures = []
    specification = arun_extractor()
    kernel = specification.compiled()
    value = kernel_metrics().value
    matching = worst = 0
    for chunk in pruning_chunks():
        rejected = value("kernel.chunks_rejected")
        expanded = value("kernel.configs_expanded")
        found = kernel.evaluate(chunk)
        rejected = value("kernel.chunks_rejected") - rejected
        expanded = value("kernel.configs_expanded") - expanded
        if found != specification.evaluate_interpreted(chunk):
            failures.append(f"pruned search wrong on {chunk!r}")
        if found:
            matching += 1
            worst = max(worst, expanded - len(chunk))
            if rejected or not 0 < expanded <= len(chunk) + 8:
                failures.append(
                    f"matching chunk {chunk!r} ({len(chunk)} bytes) "
                    f"expanded {expanded} configurations")
        elif (rejected, expanded) != (1, 0):
            failures.append(
                f"match-free chunk {chunk!r} expanded {expanded} "
                f"configurations (rejected={rejected})")
    print(f"[e6-smoke] pruning: {matching} matching chunks expand at "
          f"most len{worst:+d} configurations, the match-free ones 0")
    return failures


def run_smoke() -> int:
    """Scaled-down kernel regression gate for CI.

    Relaxed thresholds absorb runner noise; a kernel regression
    (agreement failure, re-lowering, loss of a speedup, a pooled run
    that diverges or leaves a child process) exits nonzero and fails
    the build.
    """
    failures = []

    ngram_speedup, compiled, interpreted = measure_ngram(
        n_documents=6, repeats=1
    )
    print(f"[e6-smoke] n-gram: {ngram_speedup:.2f}x "
          f"({compiled * 1e3:.0f}ms vs {interpreted * 1e3:.0f}ms)")
    if ngram_speedup < 2.0:
        failures.append(
            f"n-gram kernel speedup {ngram_speedup:.2f}x < 2x"
        )

    engine_speedup, kernel_stats, _ = measure_engine(n_documents=8)
    print(f"[e6-smoke] engine: {engine_speedup:.2f}x, "
          f"artifacts compiled {kernel_stats.artifacts_compiled}, "
          f"certifications {kernel_stats.certifications}")
    if engine_speedup < 2.0:
        failures.append(
            f"engine kernel speedup {engine_speedup:.2f}x < 2x"
        )

    sweep = measure_sweep(n_documents=8, repeats=2)
    print(f"[e6-smoke] byte-sweep: {sweep['speedup_vs_int']:.1f}x vs "
          f"int, {sweep['mb_per_second']:.1f} MB/s")
    if sweep["speedup_vs_int"] < 3.0:
        failures.append(
            "byte-sweep speedup over the int sweep "
            f"{sweep['speedup_vs_int']:.1f}x < 3x"
        )

    failures.extend(smoke_pruning_counts())
    failures.extend(smoke_pool_workers())

    for failure in failures:
        print(f"[e6-smoke] FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("[e6-smoke] ok")
    return 1 if failures else 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="E6 compiled-kernel benchmark",
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
