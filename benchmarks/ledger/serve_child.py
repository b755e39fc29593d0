"""The server process of the ``serve-http`` workload.

Started as ``python -m benchmarks.ledger.serve_child LIMIT`` (and
stopped, with SIGINT) by the harness, which hands its import path down
in ``PYTHONPATH``: an
``ExtractionService`` with a bounded chunk cache behind
``serve_http(port=0)``.  The bound port is the first line on standard
output; nothing else is printed.
"""

import sys


def main() -> None:
    from repro import serve_http

    from benchmarks.ledger.harness import stop_children
    from benchmarks.ledger.serve_http import service_query

    chunk_cache_limit = int(sys.argv[1])
    try:
        query = service_query(chunk_cache_limit)
        query.certify()
        service = query.serve(max_queue=64)
        serve_http(service, port=0,
                   ready=lambda bound: print(bound[1], flush=True))
    finally:
        stop_children()


if __name__ == "__main__":
    main()
