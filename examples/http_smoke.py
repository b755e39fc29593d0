"""Serving smoke check over HTTP: ``python -m repro serve`` on an
ephemeral port, flight-recorded (``--flight 64 --slow-ms 5``) and
logging events to a temporary file, hit by concurrent clients.

Six concurrent requests must answer 200 and a seventh, sent with
``"deadline_ms": 0``, a typed 504 (``"deadline_exceeded"``).  The miss
must not poison the engine: the next request answers 200 with tuples.
``GET /metrics`` must carry the tenant label.  A request sent twice
must get the same body both times, apart from its timings, and the
second must be served from the document cache: the
``engine_document_cache_hits`` counter rises by its document count.

Then the introspection surface: a forced slow query and a forced
deadline miss must show up in ``/debug/queries``, ``/debug/slow`` and
``/debug/inflight`` with schema-valid JSON, the ``X-Repro-Request-Id``
header must name the flight record (and the 504 body's
``request_id``), and the event log must be line-parseable JSON
narrating the lifecycle, the miss at warning level.

Last, the request reader, over raw sockets: a POST sent a byte per
segment must get the body a one-shot POST gets, a head carrying
``Expect: 100-continue`` must get ``100 Continue`` before its body is
sent and then 200, and a ``Content-Length`` over the server's limit
must get 413 at once, carrying the request id.  Any failed check
exits non-zero; CI runs this script as its serving and debug gate.

Run with:  python examples/http_smoke.py
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
           "|.*(\\.| )y{a+}|y{a+}")
TEXTS = ["aa ab a.", "ab ab aa.", "b aa b"]


def check(condition: bool, detail: object) -> None:
    if not condition:
        raise SystemExit(f"serve smoke FAILED: {detail}")


def start_server(log: str) -> "tuple[subprocess.Popen, str]":
    """The server and its base URL, read from its "serving on" line."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                           if p)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--pattern", PATTERN,
         "--alphabet", "ab .", "--splitters", "tokens", "--port", "0",
         "--flight", "64", "--slow-ms", "5", "--log", log],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    line = server.stdout.readline()
    if not line.startswith("serving on "):
        server.kill()
        server.wait()
        raise SystemExit(f"serve smoke FAILED: no server ({line!r})")
    return server, line.split()[2]


def exchange(base: str, payload: dict) -> "tuple[int, dict, str]":
    """POST /extract: status, JSON body and X-Repro-Request-Id."""
    request = urllib.request.Request(
        f"{base}/extract", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, json.load(response),
                    response.headers["X-Repro-Request-Id"])
    except urllib.error.HTTPError as error:
        return (error.code, json.load(error),
                error.headers["X-Repro-Request-Id"])


def post(base: str, payload: dict) -> "tuple[int, dict]":
    status, body, _request_id = exchange(base, payload)
    return status, body


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


def metric(base: str, name: str) -> float:
    """One unlabelled sample of ``GET /metrics``."""
    with urllib.request.urlopen(f"{base}/metrics", timeout=5) as response:
        for line in response.read().decode("utf-8").splitlines():
            if line.split(" ", 1)[0] == name:
                return float(line.split()[1])
    raise SystemExit(f"serve smoke FAILED: /metrics lacks {name}")


def check_document_cache(base: str) -> None:
    """A repeated request is answered from the document cache, with
    the same body."""
    texts = ["aaa b aaa.", "b aaaa a b.", "a b a"]   # new to the server
    before = metric(base, "engine_document_cache_hits")
    bodies = []
    for _ in range(2):
        status, body = post(base, {"texts": texts, "tenant": "repeat"})
        check(status == 200 and body["tuples"] > 0, (status, body))
        bodies.append({key: value for key, value in body.items()
                       if not key.endswith("_seconds")})
    check(bodies[0] == bodies[1], bodies)
    hits = metric(base, "engine_document_cache_hits") - before
    check(hits == len(texts), f"document cache hits rose by {hits}")
    print(f"repeated request: same body, {hits:.0f} document cache hits")


def check_debug(base: str) -> str:
    """The /debug checks; returns the forced miss's request id."""
    # A forced slow query (unique tokens defeat the chunk cache; well
    # past the 5 ms slow threshold) ...
    heavy = [" ".join("a" * (7 * i + j + 1) for j in range(7))
             for i in range(40)]
    status, body, slow_id = exchange(base, {"texts": heavy,
                                            "tenant": "dbg"})
    check(status == 200 and body["tuples"] >= 0, (status, body))
    # ... and a forced deadline miss, whose error body and header must
    # carry the same correlatable request id.
    status, body, miss_id = exchange(
        base, {"texts": ["aa ab a."], "tenant": "dbg", "deadline_ms": 0})
    check(status == 504, (status, body))
    check(body["request_id"] == miss_id, body)

    queries = get(base, "/debug/queries")
    check(queries["recording"] is True, queries)
    # The ten serving queries above and these two, all retained.
    check(len(queries["queries"]) == 12, len(queries["queries"]))
    check([q["query_id"] for q in queries["queries"][-2:]]
          == [slow_id, miss_id], queries["queries"][-2:])
    for summary in queries["queries"]:
        for key in ("query_id", "outcome", "tenant", "run_seconds",
                    "phases"):
            check(key in summary, summary)
        check("span_tree" not in summary, summary)

    record = get(base, f"/debug/queries/{slow_id}")
    check(record["query_id"] == slow_id, record)
    check(record["slow"] is True, record)
    check(record["phases"].get("evaluate", 0) > 0, record["phases"])
    check(record["span_tree"], "slow record lost its spans")
    for node in record["span_tree"]:
        for key in ("name", "span_id", "pid", "duration"):
            check(key in node, node)
    check(record["explain"]["plan"], record)

    slow = get(base, "/debug/slow")["slow"]
    outcomes = {entry["outcome"] for entry in slow}
    check("DeadlineExceededError" in outcomes, outcomes)
    miss = next(entry for entry in slow if entry["query_id"] == miss_id)
    check(miss["deadline_budget"] == 0.0, miss)

    inflight = get(base, "/debug/inflight")
    for key in ("service", "closed", "queue_depth", "max_queue",
                "running", "tenants", "flight"):
        check(key in inflight, inflight)
    check(inflight["tenants"]["dbg"]["deadline_misses"] == 1, inflight)
    print(f"debug endpoints: slow={slow_id} miss={miss_id}")
    return miss_id


def connect(base: str) -> socket.socket:
    url = urllib.parse.urlsplit(base)
    return socket.create_connection((url.hostname, url.port), timeout=10)


def read_to_eof(sock: socket.socket) -> bytes:
    parts = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(parts)
        parts.append(data)


def raw_post(base: str, body: bytes, step: int = 0,
             expect: bool = False) -> "tuple[int, dict]":
    """POST /extract over a raw socket, ``step`` bytes per segment when
    non-zero; with ``expect``, the body waits for ``100 Continue``.
    Returns the final status and JSON body."""
    head = (b"POST /extract HTTP/1.1\r\nHost: smoke\r\n"
            + (b"Expect: 100-continue\r\n" if expect else b"")
            + b"Content-Length: %d\r\n\r\n" % len(body))
    with connect(base) as sock:
        if expect:
            sock.sendall(head)
            sock.settimeout(2)   # a server that ignores Expect never answers
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                try:
                    data = sock.recv(1)
                except socket.timeout:
                    data = b""
                check(data, "no 100 Continue within 2 s")
                interim += data
            check(interim == b"HTTP/1.1 100 Continue\r\n\r\n", interim)
            sock.settimeout(10)
            head = b""
        request = head + body
        if not step:
            sock.sendall(request)
        else:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for start in range(0, len(request), step):
                sock.sendall(request[start:start + step])
                time.sleep(0.0005)
        raw = read_to_eof(sock)
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(payload)


def check_reader(base: str) -> None:
    """The one-step head reader, over raw sockets."""
    body = json.dumps({"texts": TEXTS, "tenant": "raw"}).encode("utf-8")
    answers = []
    for step in (0, 1):
        status, payload = raw_post(base, body, step=step)
        check(status == 200, (status, payload))
        answers.append({key: value for key, value in payload.items()
                        if not key.endswith("_seconds")})
    check(answers[0] == answers[1], answers)
    status, payload = raw_post(base, body, expect=True)
    check(status == 200 and payload["tuples"] > 0, (status, payload))
    with connect(base) as sock:
        sock.sendall(b"POST /extract HTTP/1.1\r\n"
                     b"Content-Length: 999999999999\r\n\r\n")
        head, _, payload = read_to_eof(sock).partition(b"\r\n\r\n")
    check(head.startswith(b"HTTP/1.1 413 "), head)
    request_id = json.loads(payload)["request_id"]
    check(f"X-Repro-Request-Id: {request_id}".encode() in head, head)
    print("request reader: fragmented POST, 100 Continue, 413 answered")


def check_event_log(log: str, miss_id: str) -> None:
    """Every line parses as JSON and the lifecycle is narrated,
    including each miss at warning level."""
    with open(log, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    check(lines, "event log is empty")
    for line in lines:
        for key in ("ts", "mono", "level", "event", "pid"):
            check(key in line, line)
    events = {line["event"] for line in lines}
    check({"service.start", "service.admit", "service.complete"} <= events,
          events)
    misses = [line for line in lines
              if line["event"] == "service.deadline_miss"]
    check(misses and all(line["level"] == "warning" for line in misses),
          misses)
    check(any(line["query_id"] == miss_id for line in misses), misses)
    print(f"event log: {len(lines)} JSON lines, events {sorted(events)}")


def serve_checks(log: str) -> str:
    """The serving and /debug checks; returns the miss's request id."""
    server, base = start_server(log)
    try:
        jobs = ([{"texts": TEXTS, "tenant": "smoke"}] * 6
                + [{"texts": TEXTS, "tenant": "smoke", "deadline_ms": 0}])
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            outcomes = list(pool.map(lambda job: post(base, job), jobs))
        statuses = sorted(status for status, _ in outcomes)
        check(statuses == [200] * 6 + [504], statuses)
        missed = next(body for status, body in outcomes if status == 504)
        check(missed["error"] == "deadline_exceeded", missed)
        ok = next(body for status, body in outcomes if status == 200)
        check(ok["tuples"] > 0, ok)
        print(f"concurrent requests: {statuses}")

        status, body = post(base, {"texts": TEXTS, "tenant": "smoke"})
        check(status == 200 and body["tuples"] > 0, (status, body))
        print(f"after the miss: {status}, {body['tuples']} tuples")

        with urllib.request.urlopen(f"{base}/metrics",
                                    timeout=5) as response:
            exposition = response.read().decode("utf-8")
        for needle in ('tenant="smoke"', "service_queries",
                       "service_deadline_misses"):
            check(needle in exposition, f"/metrics lacks {needle}")
        print("metrics: tenant-labelled service counters present")
        check_document_cache(base)
        miss_id = check_debug(base)
        check_reader(base)
        return miss_id
    finally:
        server.send_signal(signal.SIGINT)   # serve_http closes the service
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        log = os.path.join(scratch, "events.jsonl")
        miss_id = serve_checks(log)
        check_event_log(log, miss_id)
    print("serve smoke OK")


if __name__ == "__main__":
    main()
