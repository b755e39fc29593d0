"""The introspection layer, end to end: a flight-recorded service, a
structured event log, a forced deadline miss landing in the slow-query
log with its span tree, and the service's live view.

:class:`repro.obs.FlightRecorder` rides along with
:class:`repro.ExtractionService`: every completed query leaves a
:class:`repro.obs.QueryRecord` (queue wait, run time, per-phase
durations, engine counters, kernel tier, outcome) in a bounded ring,
and anything slow — or any deadline miss — is additionally kept in an
always-retained slow log with its full span tree and ``explain()``
payload.  The structured event log mirrors the same lifecycle as one
JSON object per line on any stdlib logging handler, and
``service.inflight()`` shows the queue, the running query and the
per-tenant counters the metrics registry holds.

The same data is live over HTTP when serving:
``repro serve --flight 256 --slow-ms 250 --log events.jsonl`` exposes
``/debug/queries``, ``/debug/slow`` and ``/debug/inflight`` next to
``/metrics``.

Run with:  python examples/flight_recorder_run.py
"""

import io
import json
import time

from repro import DeadlineExceededError, ExtractionEngine, ExtractionService, Program
from repro.obs import FlightRecorder, configure_event_log, event_log
from repro.runtime import FastSeparatorSplitter, RegisteredSplitter
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter

ALPHABET = frozenset("ab .")
PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
           "|.*(\\.| )y{a+}|y{a+}")


class SlowSpanner:
    """Every chunk takes 30 ms — enough to blow a 100 ms deadline."""

    def __init__(self, specification, delay=0.03):
        self.specification = specification
        self.delay = delay

    def evaluate(self, text):
        time.sleep(self.delay)
        return set(self.specification.evaluate(text))


def build_service() -> ExtractionService:
    splitters = [
        RegisteredSplitter("tokens", token_splitter(ALPHABET), priority=1,
                           executor=FastSeparatorSplitter(" ")),
    ]
    engine = ExtractionEngine(splitters, batch_size=2)
    program = Program(SlowSpanner(compile_regex_formula(PATTERN, ALPHABET)),
                      name="slow-a-runs")
    flight = FlightRecorder(capacity=64, slow_threshold=0.25)
    return ExtractionService(engine, program=program, max_queue=8,
                             flight=flight)


def main() -> None:
    # Structured event log: one JSON object per line.  Point it at a
    # file with configure_event_log(path=...); a StringIO keeps the
    # example self-contained.
    sink = io.StringIO()
    handler = configure_event_log(stream=sink)

    docs = ["aa ab a.", "ab ab aa.", "aa ab a.", "b aa b"]

    with build_service() as service:
        print("== A recorded query ==")
        result = service.extract(docs, tenant="demo")
        record = result.record
        print(f"query {record.query_id}: {record.tuples} tuples in "
              f"{record.run_seconds * 1e3:.0f}ms "
              f"(kernel tier {record.kernel_tier})")
        print("phases:", {name: f"{seconds * 1e3:.0f}ms"
                          for name, seconds in record.phases.items()})

        print("\n== A forced deadline miss ==")
        # Unique tokens defeat the chunk cache, so the 30 ms/chunk
        # spanner cannot finish 30 chunks inside 100 ms.
        heavy = [" ".join("a" * (3 * i + j + 1) for j in range(3))
                 for i in range(10)]
        try:
            service.extract(heavy, tenant="demo", deadline=0.1)
        except DeadlineExceededError as error:
            print("missed as expected:", error)

        (slow,) = [r for r in service.slow_queries()
                   if r["outcome"] == "DeadlineExceededError"]
        print(f"slow log kept {slow['query_id']}: "
              f"budget {slow['deadline_budget']}s, "
              f"phases {list(slow['phases'])}, "
              f"span tree of {len(slow['span_tree'])} spans")

        print("\n== The service is still healthy ==")
        again = service.extract(docs, tenant="demo")
        print(f"follow-up query ok: {again.total_tuples} tuples")

        print("\n== Live view ==")
        inflight = service.inflight()
        latency = service.metrics.histogram("service.latency_seconds",
                                            tenant="demo")
        print(f"queue depth {inflight['queue_depth']}, "
              f"flight {inflight['flight']['retained']} recent / "
              f"{inflight['flight']['slow_retained']} slow")
        print(f"tenant demo: {inflight['tenants']['demo']}, "
              f"p95 latency <= {latency.quantile(0.95) * 1e3:.0f}ms")

    event_log().detach(handler)
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    print(f"\n== Event log ({len(lines)} JSON lines) ==")
    for line in lines:
        if line["event"].startswith("service."):
            extra = {key: value for key, value in line.items()
                     if key not in ("ts", "mono", "pid", "level", "event")}
            print(f"  {line['level']:<8} {line['event']:<22} {extra}")


if __name__ == "__main__":
    main()
