"""``serve-http``: ``POST /extract`` against a server subprocess.

A **closed** loop: two client threads, one connection per request, no
think time — each sends its next request when the previous reply has
arrived, so a slower server is offered less load.  Every request
carries 8 documents, three quarters of them drawn from a 300-document
hot pool and the rest never seen before.  The server's chunk cache is
an LRU bounded at 8 192 entries: the hot pool's ~3 600 chunks and the
~1 200 cold chunks that arrive between two uses of a hot document fit
together, so the hit rate is close to the hot share and what gets
evicted is the cold stream.  (ISSUE 11's 600-document pool does not
fit *under LRU*: ~7 200 hot plus ~2 400 cold chunks per reuse interval
exceed the bound, the hit rate falls to 0.52 and the workload turns
into a third dense-kernel one.)

What a request costs, by the ledger's own numbers (seed 11, five
runs): ``op_p50_ms`` is 5.1-5.6 ms, of which ``service.run_p50_ms``
is a steady 1.8-2.1 (the cold quarter's kernel work mostly).  The
other ~3.4 ms is HTTP and waiting out the other client's run, and how
the service's and the client's clocks divide it depends on how the
processes interleave: on a quiet machine the request is parsed at
once and waits in the dispatcher's queue
(``service.queue_wait_p50_ms`` 2.4, ``http.overhead_p50_ms`` 0.8); on
a busy one it waits for the processor, or for the interpreter lock the
server's HTTP thread shares with its dispatcher, before the service
has seen it (queue wait 0.2, overhead 2.0-2.4).  The lower quartile of
the overhead, 0.7-1.2 ms, is what HTTP costs when nothing is in the
way.  A request is made of engine work, its own and the other
client's; HTTP proper is a fifth of it at most.

The loop runs in quarter-second blocks with a calibration spin
between blocks (see :mod:`benchmarks.ledger.timing`).  A request is
timed from before ``connect`` to the last body byte; bodies are kept
as bytes and decoded and checked after the loop.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
from typing import Dict, List, NamedTuple, Tuple

from benchmarks.ledger import catalog, corpora
from benchmarks.ledger.corpora import DOCUMENTS_PER_REQUEST
from benchmarks.ledger.pipeline import build_query, oracle_mismatches
from benchmarks.ledger.replay import as_samples
from benchmarks.ledger.spans import Recorder
from benchmarks.ledger.timing import (
    CalibratedTimer,
    Sample,
    clock,
    median_of,
    percentile_of,
)

HOT_POOL = 300           # at the default scale; ISSUE 11 said 600
CHUNK_CACHE_LIMIT = 8192
CLIENTS = 2
BLOCK_SECONDS = 0.25
#: Requests generated per second of ``--seconds``; the loop stops early
#: rather than reuse one (a repeated "never seen" document is a hit).
MAX_REQUEST_RATE = 500
#: In-process ``service.extract`` calls behind ``service.direct_p50_ms``.
DIRECT_REQUESTS = 300


class Exchange(NamedTuple):
    began: float       # before connect
    connected: float
    ended: float       # last body byte
    raw: bytes         # the whole response


def service_query(chunk_cache_limit: int):
    return build_query("qz", batch_size=16,
                       chunk_cache_limit=chunk_cache_limit)


def encode(texts: List[str]) -> bytes:
    body = json.dumps({"texts": texts}).encode("utf-8")
    return (b"POST /extract HTTP/1.1\r\nHost: ledger\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def exchange(port: int, request: bytes) -> Exchange:
    began = clock()
    with socket.create_connection(("127.0.0.1", port)) as connection:
        connected = clock()
        connection.sendall(request)
        parts = []
        while True:
            data = connection.recv(65536)
            if not data:
                break
            parts.append(data)
        return Exchange(began, connected, clock(), b"".join(parts))


def decode(raw: bytes) -> Tuple[int, Dict[str, object]]:
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(body or b"{}")


class ServeHttpWorkload:
    name = "serve-http"

    def __init__(self, scale: float) -> None:
        relative = scale / catalog.SCALE   # the loop is time-bounded, so
        # only the working set shrinks (with its cache bound) in --smoke
        self.hot_pool = max(DOCUMENTS_PER_REQUEST, round(HOT_POOL * relative))
        self.cache_limit = max(64, round(CHUNK_CACHE_LIMIT * relative))
        self.server = None
        self.layers: Dict[str, object] = {}

    def generate(self, seed: int) -> None:
        self.rng = random.Random(f"serve-http/{seed}")
        self.hot = corpora.sentence_documents(
            self.rng, self.hot_pool, corpora.REQUEST_SENTENCES,
            corpora.REQUEST_HIT_RATE)
        # One warm-up request per 8 hot documents: the whole pool is
        # cached (or already evicting) before the first timed request.
        self.warmup = [
            encode([d.text for d in
                    self.hot[i:i + DOCUMENTS_PER_REQUEST]])
            for i in range(0, self.hot_pool, DOCUMENTS_PER_REQUEST)
        ]
        self.requests: List[corpora.Request] = []
        self.encoded: List[bytes] = []

    def _generate_requests(self, seconds: float) -> None:
        count = int(seconds * MAX_REQUEST_RATE) + 64
        self.requests = corpora.request_mix(self.rng, count, self.hot)
        started = clock()
        self.encoded = [encode(r.texts) for r in self.requests]
        self.encode_s = (clock() - started) / count

    # -- set-up --------------------------------------------------------

    def setup(self, workdir: str) -> None:
        """Spawn the server (import, certify, bind), wait for its
        port, send the warm-up requests."""
        # The child imports what this process imports: __main__.py's
        # path bootstrap is handed down, not repeated.
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.serve_child",
             str(self.cache_limit)],
            stdout=subprocess.PIPE, env=env, text=True)
        line = self.server.stdout.readline()
        if not line.strip():
            raise RuntimeError("the server exited before binding")
        self.port = int(line)
        for request in self.warmup:
            status, _ = decode(exchange(self.port, request).raw)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGINT)   # serve_http closes the service
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    # -- the timed loop ------------------------------------------------

    def measure(self, seconds: float) -> None:
        self._generate_requests(seconds)
        timer = CalibratedTimer()
        cursor = itertools.count()
        exchanges: Dict[int, Exchange] = {}
        factors: Dict[int, float] = {}   # request -> its block's factor
        latencies: List[float] = []
        block_rates: List[float] = []    # requests/s
        block_bytes: List[float] = []    # text MB/s
        cpu_total = 0.0
        errors: List[BaseException] = []

        def client(deadline: float, taken: List[int]) -> None:
            try:
                while clock() < deadline:
                    position = next(cursor)
                    if position >= len(self.encoded):
                        return
                    exchanges[position] = exchange(self.port,
                                                   self.encoded[position])
                    taken.append(position)
            except BaseException as error:   # re-raised by the caller
                errors.append(error)

        def block() -> List[int]:
            deadline = clock() + BLOCK_SECONDS
            taken: List[int] = []
            threads = [threading.Thread(target=client,
                                        args=(deadline, taken))
                       for _ in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return taken

        began = clock()
        while clock() - began < seconds and not errors:
            taken, wall, cpu, factor = timer.run(block)
            if not taken:
                break
            cpu_total += cpu
            block_rates.append(len(taken) / wall)
            block_bytes.append(sum(
                len(text) for p in taken
                for text in self.requests[p].texts) / 1e6 / wall)
            latencies.extend(
                (exchanges[p].ended - exchanges[p].began) / factor
                for p in taken)
            factors.update(dict.fromkeys(taken, factor))
        if errors:
            raise errors[0]

        page = exchange(self.port, b"GET /metrics HTTP/1.1\r\n\r\n").raw
        self.server_metrics = {
            line.split()[0]: float(line.split()[1])
            for line in page.partition(b"\r\n\r\n")[2].decode().splitlines()
            if line and not line.startswith("#") and "{" not in line
        }
        self.exchanges = exchanges
        self.factors = factors
        megabytes = sum(len(text) for p in exchanges
                        for text in self.requests[p].texts) / 1e6
        self.e2e = {
            "mb_per_s": median_of(block_bytes),
            "cpu_s_per_mb": Sample(cpu_total / megabytes),
            "op_p50_ms": median_of(latencies, 1e3),
            "op_p95_ms": percentile_of(latencies, 95, 1e3),
        }
        self.layers["http.requests_per_s"] = median_of(block_rates)
        self.layers["bench.machine_factor"] = median_of(timer.factors)
        self.attempted = len(exchanges)

    def verify(self) -> None:
        """Every response against the planted spans; every 50th
        request's documents against ``evaluate_whole`` as well."""
        failed = 0
        statuses: Dict[int, int] = {}
        #: request -> (queue seconds, run seconds) as the service says
        self.service_times: Dict[int, Tuple[float, float]] = {}
        decode_s: List[float] = []
        spanner = service_query(self.cache_limit).spanner
        for position, answer in sorted(self.exchanges.items()):
            request = self.requests[position]
            started = clock()
            status, payload = decode(answer.raw)
            decode_s.append(clock() - started)
            statuses[status] = statuses.get(status, 0) + 1
            if status != 200:
                failed += 1
                continue
            factor = self.factors[position]
            self.service_times[position] = (
                payload["queue_seconds"] / factor,
                payload["run_seconds"] / factor)
            documents = payload["documents"]
            got = [
                sorted(tuple(row["y"]) for row in
                       documents.get(f"doc-{index:04d}", ()))
                for index in range(len(request.texts))
            ]
            if got != [sorted(spans) for spans in request.planted]:
                failed += 1
            elif position % 50 == 0:
                failed += bool(oracle_mismatches(
                    spanner, request.texts, request.planted, every=1))
        self.failed = failed
        self.layers["service.rejected"] = statuses.get(429, 0)
        self.layers["service.deadline_missed"] = statuses.get(504, 0)
        self.layers["http.client_codec_ms"] = (
            self.encode_s + median_of(decode_s).value) * 1e3

    # -- per-layer ----------------------------------------------------

    def replay(self, rec: Recorder, workdir: str) -> Dict[str, Sample]:
        out = dict(self.layers)
        ordered = sorted(self.exchanges.items())
        latencies, connects, overheads = [], [], []
        for position, (began, connected, ended, _raw) in ordered:
            request = rec.add("http.request", began, ended)
            rec.add("http.connect", began, connected, request)
            rec.add("http.exchange", connected, ended, request)
            factor = self.factors[position]
            latencies.append((ended - began) / factor)
            connects.append((connected - began) / factor)
            if position in self.service_times:
                # What this client saw beyond what the service says it
                # spent queueing and running this request.  Taken per
                # request: the queue wait is bimodal (the other
                # client's run is in the way or it is not), so medians
                # of the parts do not add up to the median latency.
                overheads.append(latencies[-1]
                                 - sum(self.service_times[position]))
        out["http.connect_ms"] = median_of(connects, 1e3)
        out["http.request_p99_ms"] = percentile_of(latencies, 99, 1e3)
        out["http.request_bytes_mean"] = (
            sum(len(self.encoded[p]) for p, _e in ordered) / len(ordered))
        out["http.response_bytes_mean"] = (
            sum(len(e.raw) for _p, e in ordered) / len(ordered))
        if self.service_times:
            waits, runs = zip(*self.service_times.values())
            out["service.queue_wait_p50_ms"] = median_of(waits, 1e3)
            out["service.run_p50_ms"] = median_of(runs, 1e3)
            out["http.overhead_p50_ms"] = median_of(overheads, 1e3)

        server = self.server_metrics
        hits = server.get("engine_chunk_cache_hits", 0.0)
        misses = server.get("engine_chunk_cache_misses", 0.0)
        out["chunk_cache.evictions"] = server.get(
            "engine_chunk_cache_evictions", 0.0)
        out["chunk_cache.hit_rate"] = hits / max(1.0, hits + misses)
        out["chunk_cache.dedup_factor"] = (hits + misses) / max(1.0, misses)
        out["kernel.chunks_evaluated"] = misses
        out["kernel.bytes_swept"] = server.get("kernel_bytes_swept", 0.0)
        out["kernel.evaluate_s"] = server.get(
            "engine_chunk_eval_seconds_sum", 0.0)
        out["split.chunks"] = server.get("engine_chunks_total", 0.0)
        out["merge.tuples"] = server.get("engine_tuples_emitted", 0.0)

        # The same requests straight into an in-process service.
        timer = CalibratedTimer()
        query = service_query(self.cache_limit)
        _, out["planner.certify_s"], _, _ = timer.run(query.certify)

        def direct_requests() -> List[float]:
            durations = []
            for request in self.requests[:DIRECT_REQUESTS]:
                started = clock()
                service.extract(request.texts)
                durations.append(clock() - started)
            return durations

        with query.serve(max_queue=64) as service:
            for position in range(0, self.hot_pool, DOCUMENTS_PER_REQUEST):
                service.extract([d.text for d in self.hot[
                    position:position + DOCUMENTS_PER_REQUEST]])
            with rec.span("service.direct"):
                direct, _, _, factor = timer.run(direct_requests)
        out["service.direct_p50_ms"] = median_of(direct, 1e3 / factor)
        return as_samples(out)
