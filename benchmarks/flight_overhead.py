"""Recorder-off warm-path overhead under 2%: a timing gate.

A/B on the warm serving path: the recorder switched ON
(minimum-overhead mode, no span capture) must stay within 2% of the
recorder left OFF.  Since the OFF path does strictly less work than
ON, bounding ON also bounds the disabled path's regression.
Interleaved rounds + min-of-rounds p50 + a tiny absolute epsilon
absorb runner noise without hiding a real regression.  Exits non-zero
when the bound is broken:

    PYTHONPATH=src python benchmarks/flight_overhead.py
"""

import statistics
import time

from repro.engine import ExtractionEngine, Program
from repro.obs import FlightRecorder
from repro.runtime import FastSeparatorSplitter, RegisteredSplitter
from repro.serve import ExtractionService
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter

ALPHABET = frozenset("ab .")
PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
           "|.*(\\.| )y{a+}|y{a+}")
TEXTS = [f"aa ab a{'a' * (i % 5)}." for i in range(12)]


def build(flight):
    registry = [RegisteredSplitter(
        "tokens", token_splitter(ALPHABET), priority=1,
        executor=FastSeparatorSplitter(" "))]
    engine = ExtractionEngine(registry, batch_size=4)
    program = Program(
        compile_regex_formula(PATTERN, ALPHABET),
        name="a-runs")
    return ExtractionService(engine, program=program,
                             flight=flight).start()


def round_p50(service):
    samples = []
    for _ in range(60):
        start = time.perf_counter()
        service.extract(TEXTS)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> None:
    off = build(None)
    on = build(FlightRecorder(capacity=256, capture_spans=False))
    try:
        for service in (off, on):          # warm both paths
            for _ in range(30):
                service.extract(TEXTS)
        rounds = [(round_p50(off), round_p50(on))
                  for _ in range(5)]
        off_p50 = min(pair[0] for pair in rounds)
        on_p50 = min(pair[1] for pair in rounds)
    finally:
        off.close()
        on.close()

    overhead = on_p50 / off_p50 - 1.0
    print(f"warm p50: recorder off {off_p50 * 1e6:.0f}us, "
          f"on {on_p50 * 1e6:.0f}us ({overhead:+.1%})")
    assert on_p50 <= off_p50 * 1.02 + 200e-6, \
        f"recorder overhead {overhead:+.1%} exceeds 2%"
    print("overhead gate OK")


if __name__ == "__main__":
    main()
