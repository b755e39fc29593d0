"""Observability, end to end: trace a query, read the span tree,
export a Chrome trace, scrape Prometheus metrics.

``Q(...).traced()`` attaches a :class:`repro.Tracer` to the query's
engine: every phase of the run — certification, kernel compilation,
splitting, prefiltering, scheduling, chunk evaluation, merging — lands
in its span buffer, *including one span per pool task, carrying the
worker's pid*, which the scheduler builds from the telemetry every
task returns.  The engine's metrics registry fills alongside: chunk-latency
histograms, per-worker busy counters, queue-wait distributions,
certification timings.

Run with:  python examples/tracing_run.py
"""

import os
import tempfile

from repro import Q, Spanner, kernel_metrics
from repro.obs import Metrics, validate_chrome_trace


def main() -> None:
    alphabet = "ab ."
    names = Spanner.regex(
        ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", alphabet,
        name="a-runs",
    )

    # A small multi-document corpus with repeated chunks, run over two
    # worker processes so the trace shows cross-process collection.
    corpus = {
        "doc-a": "aa ab ba aa.",
        "doc-b": "aa ab ba aa.",
        "doc-c": "b a ab aaa aa.",
        "doc-d": "aaa aa b aa ab.",
    }

    print("== Traced query ==")
    query = Q(names).split_by("tokens").workers(2).traced()
    results = query.over(corpus)
    for doc_id, tuples in results.stream():
        print(f"  {doc_id}: {len(tuples)} tuples")

    print()
    print("== Span tree (worker spans flagged with their pid) ==")
    print(results.trace.render_tree())

    print("== Per-phase rollup (explain()['trace']) ==")
    explained = results.explain()
    trace_report = explained["trace"]
    for phase, seconds in sorted(trace_report["phases"].items()):
        print(f"  {phase:<20} {seconds * 1e3:8.2f} ms")
    print(f"  ({trace_report['spans']} spans total)")

    # How the chunks ran: this a-run pattern is token-local, so each
    # batch of chunks takes the token path (one ``re`` scan over the
    # join of its texts, each distinct token tested against the
    # capture's language once).  A spanner the token path refuses runs
    # the search chunk by chunk, after the literal test, on the
    # "v2-bytes" tier (flat
    # byte tables: latin-1 alphabet, small subset automaton) or on
    # "v1-int" (bitset fallback) for wide alphabets / huge automata.
    print(f"  kernel path: {explained['kernel']['path']}, "
          f"tier: {explained['kernel_tier']}")

    # The Chrome trace loads in Perfetto (https://ui.perfetto.dev) or
    # chrome://tracing; validate_chrome_trace is the same schema gate
    # CI runs on traced smoke runs.
    path = os.path.join(tempfile.gettempdir(), "repro_trace.json")
    results.trace.export_chrome(path)
    validate_chrome_trace(results.trace.to_chrome_trace())
    print()
    print(f"== Chrome trace written to {path} (Perfetto-loadable) ==")

    print()
    print("== Prometheus exposition (engine + compiled kernel) ==")
    combined = Metrics().merge(results.metrics).merge(kernel_metrics())
    exposition = combined.to_prometheus()
    for line in exposition.splitlines()[:16]:
        print(f"  {line}")
    print(f"  ... ({len(exposition.splitlines())} lines total)")

    query.engine().close()


if __name__ == "__main__":
    main()
