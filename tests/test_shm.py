"""Shared-memory artifact lifecycle tests.

The contract of :mod:`repro.automata.shm` (and its users in
:mod:`repro.engine.scheduler` / :mod:`repro.runtime.executor`):

* publish → attach round-trips artifacts exactly, with the big table
  blobs travelling as out-of-band protocol-5 buffers;
* workers attach by segment name — the runner is pickled exactly once
  (at publish time) no matter how many workers or tasks run;
* segments are unlinked on scheduler/engine close, including after a
  forced ``Pool`` terminate (the simulated worker crash), leaving no
  ``/dev/shm`` entries behind.
"""

from __future__ import annotations

import pytest

from repro.automata import shm
from repro.core.spans import whole_span
from repro.engine import Corpus, ExtractionEngine
from repro.engine.cache import ChunkCache
from repro.engine.scheduler import Scheduler
from repro.runtime.executor import evaluate_texts_parallel
from repro.runtime.fast import CompiledSpanner, FastSeparatorSplitter
from repro.runtime.planner import RegisteredSplitter
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import separator_splitter

ALPHABET = "ab ."
PATTERN = ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}"


def arun_spanner():
    return compile_regex_formula(PATTERN, frozenset(ALPHABET))


def token_registry():
    return [
        RegisteredSplitter(
            "tokens", separator_splitter(ALPHABET, " "), priority=3,
            executor=FastSeparatorSplitter(" "),
        )
    ]


def assert_no_leaked_segments():
    __tracebackhide__ = True
    leaked = shm.leaked_segments()
    assert leaked == [], f"leaked /dev/shm segments: {leaked}"


# ----------------------------------------------------------------------
# Publish / attach round-trip
# ----------------------------------------------------------------------


def test_publish_attach_roundtrip():
    if not shm.available():  # pragma: no cover - non-POSIX fallback
        pytest.skip("shared_memory unavailable")
    runner = CompiledSpanner(arun_spanner())
    before = shm.attach_count()
    published = shm.registry().publish(runner)
    try:
        assert published.name in shm.registry().published_names()
        assert published.name in shm.leaked_segments()  # live, not leaked
        clone = shm.attach(published.name)
        assert shm.attach_count() == before + 1
        for text in ["aa ab a.", "", "b", "aaa aa"]:
            assert clone.evaluate(text) == runner.evaluate(text)
    finally:
        shm.registry().unlink(published.name)
    assert_no_leaked_segments()


def test_tables_travel_out_of_band():
    # The byte-table blobs must leave the pickle stream: the segment
    # header records at least one out-of-band buffer, and the buffers
    # carry the full table payload.
    runner = CompiledSpanner(arun_spanner())
    assert runner.kernel_tier == "v2-bytes"
    image = shm._encode(runner)
    magic, payload_length, buffer_count = shm._HEADER.unpack_from(image, 0)
    assert magic == shm._MAGIC
    assert buffer_count >= 1
    offset = shm._HEADER.size
    lengths = []
    for _ in range(buffer_count):
        (length,) = shm._LENGTH.unpack_from(image, offset)
        lengths.append(length)
        offset += shm._LENGTH.size
    assert offset + payload_length + sum(lengths) == len(image)
    # Both reverse tables of the kernel — ``finishable`` and the
    # ``alive`` table the search prunes on — ship as raw buffers.
    kernel = runner._kernel
    for table in (kernel.finishable, kernel.alive):
        blob = table.byte_sweeper.blob
        assert len(blob) in lengths
        assert blob not in image[offset:offset + payload_length]
    clone = shm._decode(memoryview(image))
    assert clone._kernel.alive.byte_sweeper.blob \
        == kernel.alive.byte_sweeper.blob
    assert clone.evaluate("aa ab a.") == runner.evaluate("aa ab a.")


def test_registry_unlink_is_idempotent():
    registry = shm.registry()
    registry.unlink("repro_kernel_never_published")  # unknown: no-op
    published = registry.publish(CompiledSpanner(arun_spanner()))
    registry.unlink(published.name)
    registry.unlink(published.name)  # second unlink: no-op
    published.unlink()  # handle-level unlink after registry unlink: ok
    assert_no_leaked_segments()


# ----------------------------------------------------------------------
# Scheduler attach path: zero per-task artifact pickling
# ----------------------------------------------------------------------


class CountingSpanner(CompiledSpanner):
    """A runner that counts how many times it is pickled."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__

    def __setstate__(self, state):
        self.__dict__.update(state)


def scheduler_documents(texts):
    return [
        (f"doc-{index}", [(whole_span(text), text)])
        for index, text in enumerate(texts)
    ]


def test_workers_attach_without_per_task_pickling():
    if not shm.available():  # pragma: no cover - non-POSIX fallback
        pytest.skip("shared_memory unavailable")
    runner = CountingSpanner(arun_spanner())
    CountingSpanner.pickles = 0
    scheduler = Scheduler(workers=2)
    try:
        texts = [f"aa ab a{'a' * i}." for i in range(24)]
        resolved = scheduler.run(
            runner, scheduler_documents(texts), ChunkCache(), "t"
        )
        assert scheduler.shm_segment_name() is not None
        # The runner was pickled exactly once — into the shm segment at
        # publish time.  Tasks ship only texts and results.
        assert CountingSpanner.pickles == 1
        # Every sampled worker process attached from shared memory.
        status = scheduler.worker_shm_status()
        assert status and all(count >= 1 for _pid, count in status)
        # Results agree with the in-process evaluation.
        for index, text in enumerate(texts):
            assert resolved[f"doc-{index}"] == runner.evaluate(text)
    finally:
        scheduler.close()
    assert scheduler.shm_segment_name() is None
    assert_no_leaked_segments()


def test_falls_back_to_inheritance_without_shm(monkeypatch,
                                               captured_events):
    monkeypatch.setattr(shm, "available", lambda: False)
    runner = CountingSpanner(arun_spanner())
    CountingSpanner.pickles = 0
    scheduler = Scheduler(workers=2)
    published_before = shm.registry().published_names()
    try:
        resolved = scheduler.run(
            runner, scheduler_documents(["aa ab a.", "b aa."]),
            ChunkCache(), "t",
        )
        assert scheduler.shm_segment_name() is None
        assert shm.registry().published_names() == published_before
        # (Under the fork start method initargs are inherited, not
        # pickled, so no pickle-count assertion here — the point is
        # that no segment was published and results are unchanged.)
        assert resolved["doc-0"] == runner.evaluate("aa ab a.")
    finally:
        scheduler.close()
    starts = [event for event in captured_events()
              if event["event"] == "engine.pool.start"]
    assert [start["shipping"] for start in starts] == ["inherit"]
    assert_no_leaked_segments()


# ----------------------------------------------------------------------
# Lifecycle: unlink on close, worker crash, engine close
# ----------------------------------------------------------------------


def test_segments_unlinked_after_forced_pool_terminate():
    if not shm.available():  # pragma: no cover - non-POSIX fallback
        pytest.skip("shared_memory unavailable")
    runner = CompiledSpanner(arun_spanner())
    scheduler = Scheduler(workers=2)
    scheduler.run(
        runner, scheduler_documents(["aa ab a.", "ab aa ba."]),
        ChunkCache(), "t",
    )
    assert scheduler.shm_segment_name() in shm.leaked_segments()
    # Simulate a worker crash: kill the pool out from under the
    # scheduler, then close — the segment must still be unlinked.
    scheduler._pool.pool.terminate()
    scheduler._pool.pool.join()
    scheduler.close()
    assert_no_leaked_segments()


def test_engine_close_unlinks_segments():
    if not shm.available():  # pragma: no cover - non-POSIX fallback
        pytest.skip("shared_memory unavailable")
    engine = ExtractionEngine(token_registry(), workers=2)
    corpus = Corpus.from_mapping(
        {f"doc-{i}": "aa ab ba aa." for i in range(6)}
    )
    with_pool = engine.run(corpus, arun_spanner())
    assert engine.scheduler.shm_segment_name() is not None
    engine.close()
    assert_no_leaked_segments()
    # Parity with the shm-less, in-process engine.
    baseline = ExtractionEngine(token_registry(), workers=0)
    without_pool = baseline.run(corpus, arun_spanner())
    assert with_pool.by_document == without_pool.by_document


def test_evaluate_texts_parallel_cleans_up():
    if not shm.available():  # pragma: no cover - non-POSIX fallback
        pytest.skip("shared_memory unavailable")
    spanner = arun_spanner()
    texts = ["aa ab a.", "b aa", "aaa aa ab"]
    parallel = evaluate_texts_parallel(spanner, texts, workers=2)
    sequential = evaluate_texts_parallel(spanner, texts, workers=1)
    assert parallel == sequential
    assert_no_leaked_segments()


def test_shm_metrics_counted():
    from repro.obs.metrics import kernel_metrics

    published_before = kernel_metrics().counter(
        "kernel.shm_published").value
    bytes_before = kernel_metrics().counter("kernel.shm_bytes").value
    published = shm.registry().publish(CompiledSpanner(arun_spanner()))
    try:
        assert kernel_metrics().counter(
            "kernel.shm_published").value == published_before + 1
        assert kernel_metrics().counter(
            "kernel.shm_bytes").value >= bytes_before + published.size
    finally:
        shm.registry().unlink(published.name)
