"""Serving smoke check over HTTP: ``python -m repro serve`` on an
ephemeral port, hit by concurrent clients.

Six concurrent requests must answer 200 and a seventh, sent with
``"deadline_ms": 0``, a typed 504 (``"deadline_exceeded"``).  The miss
must not poison the engine: the next request answers 200 with tuples.
``GET /metrics`` must carry the tenant label.  Any failed check exits
non-zero; CI runs this script as its serving gate.

Run with:  python examples/http_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import urllib.error
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


def start_server() -> "tuple[subprocess.Popen, str]":
    """The server and its base URL, read from its "serving on" line."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                           if p)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--pattern", PATTERN,
         "--alphabet", "ab .", "--splitters", "tokens", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    line = server.stdout.readline()
    if not line.startswith("serving on "):
        server.kill()
        server.wait()
        raise SystemExit(f"serve smoke FAILED: no server ({line!r})")
    return server, line.split()[2]


def post(base: str, payload: dict) -> "tuple[int, dict]":
    request = urllib.request.Request(
        f"{base}/extract", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def main() -> None:
    server, base = start_server()
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
    finally:
        server.send_signal(signal.SIGINT)   # serve_http closes the service
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
    print("serve smoke OK")


if __name__ == "__main__":
    main()
