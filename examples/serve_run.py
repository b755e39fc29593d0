"""The resident serving layer, end to end: one hot engine owned by
one service thread, concurrent queries sharing a certification,
deadlines that cancel cooperatively, admission control, and per-tenant
metrics.

:class:`repro.ExtractionService` owns an
:class:`repro.ExtractionEngine` and drives it from the event loop of
its single thread — the ownership boundary that lets many callers
(threads or asyncio tasks) share one plan cache and one chunk cache
without racing certification.  Every query, from another thread
(``extract``) or another event loop (``extract_async``), as here,
waits its turn on one lock on that loop; the HTTP endpoint
(``python -m repro serve``) runs its requests on the loop itself.  A
query that misses its :class:`repro.Deadline` raises
:class:`repro.DeadlineExceededError` at a batch boundary and leaves
the engine, pool, and caches live for the next caller; a query that
finds ``max_queue`` others waiting is refused with
:class:`repro.ServiceOverloadedError`.

Run with:  python examples/serve_run.py
"""

import asyncio
import threading

from repro import (
    DeadlineExceededError,
    ExtractionEngine,
    ExtractionService,
    Program,
)
from repro.runtime import FastSeparatorSplitter, RegisteredSplitter
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter

ALPHABET = frozenset("ab .")
PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
           "|.*(\\.| )y{a+}|y{a+}")


def build_service() -> ExtractionService:
    splitters = [
        RegisteredSplitter("tokens", token_splitter(ALPHABET), priority=1,
                           executor=FastSeparatorSplitter(" ")),
    ]
    engine = ExtractionEngine(splitters, batch_size=4)
    program = Program(compile_regex_formula(PATTERN, ALPHABET),
                      name="a-runs")
    return ExtractionService(engine, program=program, max_queue=8,
                             default_deadline=5.0)


def main() -> None:
    corpus = {
        "doc-a": "aa ab a.",
        "doc-b": "ab ab aa.",
        "doc-c": "aa ab a.",   # identical to doc-a: chunk-cache fodder
        "doc-d": "b aa b",
    }

    with build_service() as service:
        service.start()

        print("== Synchronous extraction ==")
        result = service.extract(corpus, tenant="acme")
        print(f"{result.total_tuples} tuples from {len(result)} documents "
              f"(queue {result.queue_seconds * 1e3:.2f}ms, "
              f"run {result.run_seconds * 1e3:.2f}ms)")
        for doc_id in sorted(result.by_document):
            print(f"  {doc_id}: {sorted(result[doc_id], key=repr)}")

        # Concurrent callers: the service thread serialises execution, so
        # all eight queries share the single certification done above
        # and hit the warm chunk cache.
        print("\n== Eight concurrent threads ==")
        totals = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            totals.append(service.extract(corpus, tenant="acme").total_tuples)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hits = service.metrics.value("engine.plan_cache.hits")
        print(f"totals agree: {sorted(set(totals))} "
              f"(plan-cache hits now {hits})")

        # The asyncio front end, on this thread's own loop, waits for
        # the same service thread.
        print("\n== asyncio front end ==")

        async def fan_out() -> list:
            return await asyncio.gather(*(
                service.extract_async(corpus, tenant="zeta")
                for _ in range(3)
            ))

        for result in asyncio.run(fan_out()):
            print(f"  zeta query: {result.total_tuples} tuples")

        # A deadline of zero seconds expires before the first batch —
        # the typed error carries elapsed/budget, and the service stays
        # healthy for the next query.
        print("\n== Deadline miss (engine survives) ==")
        try:
            service.extract(corpus, tenant="acme", deadline=0.0)
        except DeadlineExceededError as exc:
            print(f"  missed as expected: {exc}")
        follow_up = service.extract(corpus, tenant="acme")
        print(f"  follow-up query still fine: {follow_up.total_tuples} tuples")

        print("\n== Per-tenant stats ==")
        tenants = service.inflight()["tenants"]
        for tenant in ("acme", "zeta"):
            stats = tenants[tenant]
            latency = service.metrics.histogram("service.latency_seconds",
                                                tenant=tenant)
            print(f"  {tenant}: {stats['queries']} queries, "
                  f"{stats['deadline_misses']} deadline misses, "
                  f"p95 latency {latency.quantile(0.95) * 1e3:.2f}ms")

        print("\n== Prometheus exposition (excerpt) ==")
        for line in service.to_prometheus().splitlines():
            if line.startswith("service_queries"):
                print(f"  {line}")


if __name__ == "__main__":
    main()
