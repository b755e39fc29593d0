"""A stdlib-only HTTP/JSON endpoint over :class:`ExtractionService`.

Deliberately minimal — :mod:`asyncio.start_server` plus hand-rolled
HTTP/1.1 parsing, no third-party dependency — because the protocol
surface is small.  :func:`serve_http` binds the endpoint on the
service's own event loop, the thread that owns the engine: a request
is read, parsed, run and answered there, through
:meth:`ExtractionService.extract_async`, and a request that finds the
engine free takes its lock in the handler's turn, without crossing
threads.  So a request waits *before it is read* (for the loop to
finish the query it is running) rather than on the lock, and the
service's ``queue_seconds`` is ~0.  A request's head is read in one
``readuntil`` and parsed in memory, its body in one ``readexactly``
(``Expect: 100-continue`` is answered first); the answer is one
``write``, a 200's JSON written straight from the tuples' flat columns,
then ``close()``.  Every response says ``Connection: close``: one
request per connection.

* ``POST /extract`` — body ``{"texts": [...]}`` or ``{"documents":
  {id: text}}``, optional ``"tenant"``, ``"deadline_ms"``, and (when
  the service allows ad-hoc programs) ``"pattern"``/``"alphabet"``.
  Responds ``200`` with per-document span tuples, ``429`` when
  admission control rejects, ``504`` on a missed deadline, ``400`` on
  a malformed request.
* ``GET /metrics`` — Prometheus text exposition (service + engine +
  kernel registries, tenant labels included).
* ``GET /healthz`` — liveness.
* ``GET /debug/queries[?limit=N]`` — flight-recorder summaries of the
  last N completed queries; ``GET /debug/queries/<id>`` — one query's
  full record, span tree and explain payload included when the slow
  log kept them.
* ``GET /debug/slow`` — the slow-query log, full records.
* ``GET /debug/inflight`` — the service's queue depth, the running
  query, per-tenant admission counters.

Start it from Python (:func:`serve_http`) or from the CLI::

    python -m repro serve --pattern '...' --alphabet 'ab .' \
        --splitters tokens --port 8080 \
        --log events.jsonl --flight 256 --slow-ms 100

Error mapping is part of the contract: admission and deadline errors
arrive as typed JSON (``{"error": "overloaded" | "deadline_exceeded",
...}``) so load-shedding clients can react without string matching.
**Every** response carries an ``X-Repro-Request-Id`` header (echoed
in JSON error bodies as ``"request_id"``); the same id names the
query in the flight recorder and the structured event log, so a 429
or 504 seen client-side joins directly against the server's records.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import urllib.parse
from collections import OrderedDict
from json.encoder import encode_basestring as _quote
from typing import Dict, Optional, Tuple

from repro.core.spans import SpanTuple
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs.log import event_log

from repro.serve.service import (
    ExtractionService,
    ServiceResult,
    _new_query_id,
)

#: Request bodies above this size are rejected with 413 (the service
#: is an extraction endpoint, not a bulk-ingest channel).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Ad-hoc ``"pattern"`` programs kept built, least recently used
#: evicted first: a repeated pattern reuses its compiled, fingerprinted
#: and lowered :class:`repro.engine.Program`.
MAX_ADHOC_PROGRAMS = 32


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


def _response(status: str, content_type: str, body: bytes,
              request_id: Optional[str]) -> bytes:
    """A whole response: ``status`` line, headers, ``body``."""
    request_header = (f"X-Repro-Request-Id: {request_id}\r\n"
                      if request_id is not None else "")
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{request_header}"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Dict[str, object],
                   request_id: Optional[str] = None) -> bytes:
    if request_id is not None and status >= 400:
        payload = dict(payload)
        payload.setdefault("request_id", request_id)
    body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    return _response(f"{status} {_REASONS.get(status, 'OK')}",
                     "application/json", body, request_id)


class _RowTemplates(dict):
    """Per variables tuple, the ``%``-template of one tuple's JSON
    object: its keys quoted once, ``%d`` where its positions go."""

    def __missing__(self, variables: tuple) -> str:
        template = self[variables] = "{" + ", ".join(
            _quote(str(variable)).replace("%", "%%") + ": [%d, %d]"
            for variable in variables) + "}"
        return template


def _result_body(result: ServiceResult) -> bytes:
    """The JSON of a served result — per document its tuples as
    ``{var: [begin, end]}`` in :meth:`SpanTuple.positions` order, plus
    the per-query timing the service measured — written straight from
    the tuples' flat columns: ``json.dumps(..., ensure_ascii=False)``'s
    bytes, with no dict built.  Each tuple is one ``%`` of its
    variables' template over its positions."""
    templates = _RowTemplates()
    documents = ", ".join(
        _quote(doc_id) + ": [" + ", ".join([
            templates[span_tuple.variables()] % span_tuple.positions()
            for span_tuple in sorted(tuples, key=SpanTuple.positions)])
        + "]" for doc_id, tuples in result.by_document.items())
    return (f'{{"tenant": {_quote(result.tenant)}, '
            f'"tuples": {result.total_tuples}, "documents": {{{documents}}}, '
            f'"queue_seconds": {result.queue_seconds!r}, '
            f'"run_seconds": {result.run_seconds!r}}}').encode("utf-8")


class ServiceHTTPServer:
    """The asyncio endpoint bound to one :class:`ExtractionService`.

    Start it on the service's loop —
    ``service.run_coroutine(server.start(port=0)).result()``, which is
    what :func:`serve_http` does — so handlers run queries in their own
    turn; on any other loop it still works, as
    :meth:`ExtractionService.extract_async` carries each query over.

    ``query_factory`` optionally maps ``(pattern, alphabet)`` from a
    request body to an engine program, enabling ad-hoc programs over
    the same resident engine (they share its plan cache); without it,
    requests run the service's default program only.  The last
    :data:`MAX_ADHOC_PROGRAMS` programs it built are kept and reused.

    A connection is read in two steps — the head up to its blank line
    (CRLF CRLF), then ``Content-Length`` body bytes, after a ``100
    Continue`` when the head expects one — and answered in one write
    (:func:`_result_body` for ``/extract``).

    Every connection is assigned a request id up front; it rides the
    ``X-Repro-Request-Id`` response header, JSON error bodies, the
    event log's ``http.error`` events, and — for ``/extract`` — the
    flight recorder (the id *is* the query id).
    """

    def __init__(self, service: ExtractionService,
                 query_factory=None) -> None:
        self.service = service
        self.query_factory = query_factory
        self._programs: "OrderedDict[Tuple[str, Optional[str]], object]" \
            = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- request plumbing ----------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Tuple[str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        request_line, *lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        fields = {name.strip().lower(): value.strip() for name, _, value
                  in (line.partition(":") for line in lines)}
        content_length = int(fields.get("content-length", 0))
        if content_length < 0:
            raise ValueError("negative Content-Length")
        if content_length > MAX_BODY_BYTES:
            raise OverflowError("request body too large")
        if fields.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return parts[0].upper(), parts[1], body

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        request_id = _new_query_id()
        try:
            response = await self._respond(reader, writer, request_id)
        except OverflowError:
            response = self._error(413, {"error": "body_too_large"},
                                   request_id)
        except Exception as error:  # malformed request; never crash
            response = self._error(
                400, {"error": "bad_request", "detail": str(error)},
                request_id)
        try:
            writer.write(response)
        finally:
            writer.close()      # flushes the buffered response first

    def _error(self, status: int, payload: Dict[str, object],
               request_id: str,
               tenant: Optional[str] = None) -> bytes:
        """An error response, logged to the event log first so the
        server-side record carries the same id the client sees."""
        event_log().emit(
            "http.error", level="warning", tenant=tenant,
            request_id=request_id, status=status,
            error=payload.get("error"),
        )
        return _json_response(status, payload, request_id=request_id)

    async def _respond(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       request_id: str) -> bytes:
        method, path, body = await self._read_request(reader, writer)
        path, _, query_string = path.partition("?")
        params = {
            key: values[-1] for key, values in
            urllib.parse.parse_qs(query_string).items()
        }
        if path == "/healthz":
            return _json_response(200, {"status": "ok"},
                                  request_id=request_id)
        if path == "/metrics":
            return _response(
                "200 OK", "text/plain; version=0.0.4",
                self.service.to_prometheus().encode("utf-8"), request_id)
        if path.startswith("/debug/"):
            return self._debug(method, path, params, request_id)
        if path != "/extract":
            return self._error(404, {"error": "not_found",
                                     "path": path}, request_id)
        if method != "POST":
            return self._error(405, {"error": "method_not_allowed"},
                               request_id)
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except ValueError:
            return self._error(400, {"error": "invalid_json"},
                               request_id)
        return await self._extract(request, request_id)

    # -- the /debug routes ---------------------------------------------

    def _debug(self, method: str, path: str,
               params: Dict[str, str], request_id: str) -> bytes:
        if method != "GET":
            return self._error(405, {"error": "method_not_allowed"},
                               request_id)
        service = self.service
        try:
            limit = int(params["limit"]) if "limit" in params else None
        except ValueError:
            limit = 0          # answered below like any limit < 1
        if limit is not None and limit < 1:
            return self._error(400, {"error": "bad_request",
                                     "detail": "limit must be a positive int"},
                               request_id)
        if path == "/debug/queries":
            return _json_response(
                200, {"queries": service.flight_records(limit),
                      "recording": service.flight is not None},
                request_id=request_id)
        if path.startswith("/debug/queries/"):
            query_id = path[len("/debug/queries/"):]
            record = service.flight_record(query_id)
            if record is None:
                return self._error(
                    404, {"error": "unknown_query",
                          "query_id": query_id}, request_id)
            return _json_response(200, record, request_id=request_id)
        if path == "/debug/slow":
            return _json_response(
                200, {"slow": service.slow_queries(limit),
                      "recording": service.flight is not None},
                request_id=request_id)
        if path == "/debug/inflight":
            return _json_response(200, service.inflight(),
                                  request_id=request_id)
        return self._error(404, {"error": "not_found", "path": path},
                           request_id)

    # -- the /extract route --------------------------------------------

    def _corpus_of(self, request: Dict[str, object]):
        documents = request.get("documents")
        if isinstance(documents, dict):
            return {str(k): str(v) for k, v in documents.items()}
        texts = request.get("texts")
        if isinstance(texts, list) and texts:
            return [str(text) for text in texts]
        raise ValueError(
            'provide "texts": [..] or "documents": {id: text}')

    def _program_of(self, request: Dict[str, object]):
        pattern = request.get("pattern")
        if pattern is None:
            return None          # the service's default program
        if self.query_factory is None:
            raise ValueError(
                "this endpoint serves a fixed program; "
                "per-request patterns are not enabled")
        alphabet = request.get("alphabet")
        if alphabet is not None and not isinstance(alphabet, str):
            raise ValueError('"alphabet" must be a string')
        key = (str(pattern), alphabet)
        program = self._programs.get(key)
        if program is None:
            program = self.query_factory(*key)
            if len(self._programs) >= MAX_ADHOC_PROGRAMS:
                self._programs.popitem(last=False)
            self._programs[key] = program
        else:
            self._programs.move_to_end(key)
        return program

    async def _extract(self, request: Dict[str, object],
                       request_id: str) -> bytes:
        try:
            corpus = self._corpus_of(request)
            program = self._program_of(request)
            deadline_ms = request.get("deadline_ms")
            deadline = (float(deadline_ms) / 1000.0
                        if deadline_ms is not None else None)
            tenant = str(request.get("tenant", "default"))
        except (TypeError, ValueError) as error:
            return self._error(400, {"error": "bad_request",
                                     "detail": str(error)}, request_id)
        try:
            result = await self.service.extract_async(
                corpus, program, tenant=tenant, deadline=deadline,
                query_id=request_id)
        except ServiceOverloadedError as error:
            return self._error(
                429, {"error": "overloaded",
                      "capacity": error.capacity, "tenant": tenant},
                request_id, tenant=tenant)
        except DeadlineExceededError as error:
            return self._error(
                504, {"error": "deadline_exceeded", "tenant": tenant,
                      "elapsed_seconds": error.elapsed,
                      "budget_seconds": error.budget},
                request_id, tenant=tenant)
        except ServiceClosedError:
            return self._error(503, {"error": "closed"}, request_id,
                               tenant=tenant)
        except (ReproError, ValueError) as error:
            return self._error(400, {"error": "bad_request",
                                     "detail": str(error)}, request_id,
                               tenant=tenant)
        return _response("200 OK", "application/json",
                         _result_body(result), request_id)

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0
                    ) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (useful with ``port=0`` for an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("start() the server first")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


def serve_http(service: ExtractionService, host: str = "127.0.0.1",
               port: int = 8080, query_factory=None,
               ready=None) -> None:
    """Run the HTTP endpoint on the service's thread until interrupted
    (blocking), then close the service.

    ``ready`` is an optional callback receiving the bound
    ``(host, port)`` once the socket is listening — what the CLI uses
    to print the URL and smoke tests use to know when to connect.
    The calling thread only waits: ``SIGINT`` (``KeyboardInterrupt``)
    ends it, as does closing the service elsewhere.
    """
    server = ServiceHTTPServer(service, query_factory=query_factory)
    try:
        bound = service.run_coroutine(
            server.start(host=host, port=port)).result()
        if ready is not None:
            ready(bound)
        service.run_coroutine(server.serve_forever()).result()
    except (KeyboardInterrupt, concurrent.futures.CancelledError):
        pass
    finally:
        service.close()
