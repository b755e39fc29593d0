"""The structured JSON event log: one JSON object per line.

Where spans (:mod:`repro.obs.trace`) answer *where time went* inside a
run and metrics (:mod:`repro.obs.metrics`) answer *how much*, the
event log answers *what happened, in order* — the shippable record an
operator greps (or feeds a log pipeline) after the fact: admissions,
completions, rejections, deadline misses, index reopens, compactions,
the pool's lifecycle.

Every event is one JSON object on one line with a fixed envelope —
wall-clock and monotonic time, level, event name, pid, the current
span id of the tracer that was active (so log lines join against
flight-recorder span trees), a tenant when one applies — plus
free-form attributes::

    {"ts": 1754650000.12, "mono": 8123.4, "level": "info",
     "event": "service.complete", "pid": 4242, "span": 17,
     "tenant": "acme", "query_id": "q-0007", "run_seconds": 0.012}

The log is **stdlib-``logging``-compatible**: events flow through a
regular :class:`logging.Logger` (``"repro.events"``), so any handler —
file, stream, syslog, a test's ``StringIO`` — can receive them, and
level filtering works the usual way.  An *unconfigured* event log is
disabled and costs one attribute check per :meth:`EventLog.emit` call,
which is why emit sites can stay in place on production paths.

>>> import io, json
>>> handler = configure_event_log(stream=io.StringIO())
>>> payload = event_log().emit("doctest.ping", answer=42)
>>> payload["event"], payload["answer"]
('doctest.ping', 42)
>>> line = handler.stream.getvalue().strip()
>>> json.loads(line)["answer"]
42
>>> event_log().detach(handler)
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from typing import Dict, Optional

#: The stdlib logger name every event rides through.
EVENT_LOGGER_NAME = "repro.events"

#: Accepted ``level`` strings and their stdlib numeric levels.
LEVELS: Dict[str, int] = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


class EventLog:
    """A process-wide structured event sink over stdlib ``logging``.

    Handlers attach through :meth:`attach` (or the
    :func:`configure_event_log` shortcut); with none attached the log
    is disabled and :meth:`emit` returns immediately.  The underlying
    logger does not propagate to the root logger by default, so repro
    events never leak into an application's general log stream unless
    explicitly wired there.

    ``tracer`` optionally binds a default
    :class:`repro.obs.trace.Tracer` whose :meth:`~repro.obs.trace.
    Tracer.current_id` stamps each event with the innermost open span
    on the emitting thread; call sites may also pass ``span=`` per
    event (it wins over the bound tracer).
    """

    def __init__(self, name: str = EVENT_LOGGER_NAME,
                 tracer: object = None) -> None:
        self._logger = logging.getLogger(name)
        self._logger.propagate = False
        self._logger.setLevel(logging.DEBUG)
        self._tracer = tracer
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when at least one handler will receive events."""
        return bool(self._logger.handlers)

    def bind_tracer(self, tracer: object) -> None:
        """Bind the tracer whose current span id stamps events."""
        self._tracer = tracer

    def attach(self, handler: logging.Handler) -> logging.Handler:
        """Attach a stdlib handler; returns it (for later detach).

        The handler gets a message-only formatter unless it already
        carries one, so the emitted line is exactly one JSON object.
        """
        if handler.formatter is None:
            handler.setFormatter(logging.Formatter("%(message)s"))
        with self._lock:
            self._logger.addHandler(handler)
        return handler

    def detach(self, handler: logging.Handler) -> None:
        with self._lock:
            self._logger.removeHandler(handler)
        handler.close()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(
        self,
        event: str,
        level: str = "info",
        tenant: Optional[str] = None,
        span: Optional[int] = None,
        **attributes: object,
    ) -> Optional[Dict[str, object]]:
        """Record one event; returns the payload dict (``None`` when
        the log is disabled or the level is filtered out).

        The envelope — ``ts`` (wall seconds), ``mono`` (monotonic
        seconds, orders events under clock steps), ``level``,
        ``event``, ``pid``, ``span`` (current/explicit span id),
        ``tenant`` when given — always precedes the free-form
        ``attributes`` in the serialized line.
        """
        if not self._logger.handlers:
            return None
        levelno = LEVELS.get(level, logging.INFO)
        if not self._logger.isEnabledFor(levelno):
            return None
        if span is None and self._tracer is not None:
            span = self._tracer.current_id()
        payload: Dict[str, object] = {
            "ts": time.time(),
            "mono": time.monotonic(),
            "level": level,
            "event": event,
            "pid": os.getpid(),
        }
        if span is not None:
            payload["span"] = span
        if tenant is not None:
            payload["tenant"] = tenant
        payload.update(attributes)
        self._logger.log(
            levelno,
            json.dumps(payload, ensure_ascii=False, default=str),
        )
        return payload

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"EventLog({self._logger.name!r}, {state}, "
                f"{len(self._logger.handlers)} handlers)")


# ----------------------------------------------------------------------
# The process-global event log
# ----------------------------------------------------------------------

_EVENT_LOG = EventLog()


def event_log() -> EventLog:
    """The process-global :class:`EventLog` every layer emits into.

    Disabled (no handlers) until :func:`configure_event_log` — or a
    manual :meth:`EventLog.attach` — wires a destination, so emit
    sites on serving paths are effectively free in the default
    configuration.
    """
    return _EVENT_LOG


def configure_event_log(
    path: Optional[str] = None,
    stream: object = None,
    level: str = "info",
) -> logging.Handler:
    """Attach a destination to the global event log; returns the
    handler (detach it with ``event_log().detach(handler)``).

    ``path`` appends JSON lines to a file (the ``repro serve --log
    FILE`` destination); ``stream`` writes to an open text stream
    (tests use ``io.StringIO``).  ``level`` filters at the handler
    (``"debug"``/``"info"``/``"warning"``/``"error"``).
    """
    if (path is None) == (stream is None):
        raise ValueError("configure_event_log needs exactly one of "
                         "path= or stream=")
    if path is not None:
        handler: logging.Handler = logging.FileHandler(
            path, encoding="utf-8")
    else:
        handler = logging.StreamHandler(stream)
    handler.setLevel(LEVELS.get(level, logging.INFO))
    return _EVENT_LOG.attach(handler)
