"""Resident extraction serving (:class:`ExtractionService`).

The paper makes chunks context-free units of work; the engine
(:mod:`repro.engine`) amortizes certification, compilation and chunk
results across a corpus; this package amortizes them across
*queries*: a resident service owns one hot
:class:`repro.engine.ExtractionEngine` — plan cache, chunk cache,
corpus index and worker pool warm for its whole lifetime — behind one
lock with a bounded number of waiters, per-query deadlines and
per-tenant metrics.

* :mod:`repro.serve.service` — the :class:`ExtractionService`
  (ownership boundary, admission control, deadlines, per-tenant
  metrics, the ``inflight()`` view);
* :mod:`repro.serve.http` — the optional stdlib-only HTTP/JSON
  endpoint (``python -m repro serve``).

Quickstart::

    from repro import Q, Spanner

    service = Q(spanner).split_by("tokens").workers(4).serve()
    with service:
        result = service.extract(texts, tenant="acme", deadline=0.5)

Deadline and admission failures are typed
(:class:`repro.errors.DeadlineExceededError`,
:class:`repro.errors.ServiceOverloadedError`) and never poison the
shared engine: cancellation is cooperative at batch boundaries, so
subsequent queries run on an intact pool with all caches warm.
"""

from repro.engine.deadline import Deadline
from repro.serve.http import ServiceHTTPServer, serve_http
from repro.serve.service import ExtractionService, ServiceResult

__all__ = [
    "Deadline",
    "ExtractionService",
    "ServiceHTTPServer",
    "ServiceResult",
    "serve_http",
]
