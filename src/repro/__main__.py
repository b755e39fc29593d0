"""Command-line interface: analyze programs, run corpus extraction.

Both subcommands are thin shells over the fluent query API
(:mod:`repro.query`) — the CLI builds the same :class:`repro.query.Q`
chain a notebook would, so splitter names, certification behaviour and
explain output can never diverge between the two surfaces.

The Introduction's debugging interface as a CLI::

    python -m repro analyze --pattern '.*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}' \
        --alphabet 'ab .' --splitters tokens,sentences

prints, per splitter, disjointness, self-splittability and
splittability, plus the recommended plan and the theorem that
certified it (the planner picks the procedure; there is no flag for
it).  The corpus engine
(:mod:`repro.engine`) is exposed as a second subcommand::

    python -m repro engine --pattern '...' --alphabet 'ab .' \
        --text 'aa ab a.' --text 'aa ab a.' --workers 4

which certifies once, streams per-document tuple counts as batches
complete, and reports the plan explanation (theorem, procedure,
compiled artifact) plus the engine statistics.

The corpus index subsystem (:mod:`repro.index`) is the third
subcommand: build a persistent trigram index over a corpus's chunks
once (``--output DIR``: a directory of mmap-able segments), then let
any number of engine runs skip chunks that provably cannot match::

    python -m repro index --alphabet 'ab .' --splitter sentences \
        --file corpus.txt --output corpus.segs
    python -m repro engine --pattern '...' --alphabet 'ab .' \
        --file corpus.txt --index corpus.segs

The resident serving layer (:mod:`repro.serve`) is the fourth
subcommand: one engine stays hot behind a bounded admission queue and
an HTTP/JSON endpoint, with per-query deadlines and per-tenant
metrics::

    python -m repro serve --pattern '...' --alphabet 'ab .' \
        --splitters tokens --workers 4 --port 8080

``POST /extract`` runs queries (``429`` when the queue is full,
``504`` on a missed deadline), ``GET /metrics`` exposes the tenant-
labeled Prometheus registries, ``GET /healthz`` reports liveness.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.query import Q, Query, Spanner


def _build_query(args) -> Query:
    """The fluent query shared by the analyze/engine subcommands."""
    spanner = Spanner.regex(args.pattern, frozenset(args.alphabet))
    names = [n.strip() for n in args.splitters.split(",") if n.strip()]
    query = Q(spanner).split_by(*names)
    if getattr(args, "workers", None) is not None:
        query = query.workers(args.workers)
    # `is not None`, not truthiness: 0 must reach the scheduler's
    # validation instead of silently keeping the default.
    if getattr(args, "batch_size", None) is not None:
        query = query.batch_size(args.batch_size)
    if getattr(args, "index", None) is not None:
        # An index directory, opened when the query binds.
        query = query.indexed(args.index)
    elif getattr(args, "prefilter", False):
        query = query.indexed()
    if getattr(args, "trace", None) is not None:
        query = query.traced()
    return query


def _emit_observability(args, query) -> None:
    """Honour ``--trace FILE`` / ``--metrics`` after a (sub)command ran."""
    engine = query.engine()
    if getattr(args, "trace", None) is not None:
        engine.tracer.export_chrome(args.trace)
        print(f"wrote Chrome trace ({len(engine.tracer)} spans) "
              f"to {args.trace}")
    if getattr(args, "metrics", False):
        from repro.obs import Metrics, kernel_metrics

        combined = Metrics().merge(engine.metrics).merge(kernel_metrics())
        print()
        print(combined.to_prometheus(), end="")


def _collect_corpus(args):
    """The documents named by ``--text``/``--file`` as a Corpus."""
    from repro.engine import Corpus, Document

    corpus = Corpus()
    for index, text in enumerate(args.text or []):
        corpus.add(Document(f"text-{index:04d}", text))
    for path in args.file or []:
        with open(path, encoding="utf-8") as handle:
            corpus.add(Document(path, handle.read()))
    return corpus


def _print_plan(explain: dict) -> None:
    if explain["mode"] == "split":
        extra = "self-splittable" if explain["self_splittable"] else \
            "via canonical split-spanner"
        print(f"plan: split by {explain['splitter']!r} ({extra})")
    else:
        print("plan: whole-document evaluation (no certified splitter)")


def _print_kernel(explain: dict) -> None:
    """The chunk runner's path, from ``explain()["kernel"]``."""
    kernel = explain["kernel"]
    path = kernel.get("path")
    if path == "token":
        token = kernel["token_path"]
        line = (f"token path (delimiters {token['delimiters']!r}, "
                f"letters {token['letters']!r})")
    elif path == "search":
        line = f"{kernel['tier']} search (token path {kernel['token_path']})"
    else:   # an executable that is not a lowered automaton
        line = kernel["required_reason"]
    print(f"      kernel: {line}")
    if explain.get("pool_split"):
        print(f"      pool split: {explain['pool_split']}")


def _print_prefilter(explain: dict) -> None:
    prefilter = explain.get("index") or {}
    if prefilter.get("enabled"):
        required = ",".join(prefilter.get("required", [])) or "-"
        print(f"      index prefilter: {prefilter['mode']} "
              f"(required literals: {required})")


def analyze(args) -> int:
    try:
        query = _build_query(args)
        print(f"pattern:  {args.pattern}")
        print(f"alphabet: {sorted(frozenset(args.alphabet))}")
        print()
        print(f"{'splitter':<12} {'disjoint':<9} {'self-split':<11} "
              "splittable")
        for row in query.analyse():
            splittable = "?" if row.splittable is None else \
                str(row.splittable)
            print(f"{row.name:<12} {str(row.disjoint):<9} "
                  f"{str(row.self_splittable):<11} {splittable}")
        explain = query.explain()
    except (ReproError, ValueError) as error:
        # ValueError covers pre-hierarchy errors still raised below the
        # fluent surface (regex parse errors, bad worker counts, ...).
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    _print_plan(explain)
    if explain["theorem"]:
        print(f"      certified by {explain['theorem']} "
              f"[{explain['procedure']}]")
    _emit_observability(args, query)
    return 0


def engine_command(args) -> int:
    try:
        corpus = _collect_corpus(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not len(corpus):
        print("error: no documents (use --text and/or --file)",
              file=sys.stderr)
        return 2
    try:
        query = _build_query(args)
        result_set = query.over(corpus)
        explain = result_set.explain()
        _print_plan(explain)
        print(f"      certified in "
              f"{explain['certification_seconds']:.3f}s")
        if explain["theorem"]:
            print(f"      certified by {explain['theorem']} "
                  f"[{explain['procedure']}]")
        print(f"      compiled artifact: "
              f"{explain['compiled_artifact']}")
        _print_kernel(explain)
        _print_prefilter(explain)
        print()
        print(f"{'document':<24} tuples")
        for doc_id, tuples in result_set.stream():   # lazy
            print(f"{doc_id:<24} {len(tuples)}")
        print()
        for key, value in result_set.stats().snapshot().items():
            rendered = (f"{value:.3f}" if isinstance(value, float)
                        else value)
            print(f"  {key}: {rendered}")
        _emit_observability(args, query)
    except (ReproError, ValueError, OSError) as error:
        # OSError covers an unreadable --index directory.
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def serve_command(args) -> int:
    """Start the resident extraction service with its HTTP endpoint.

    The service keeps one engine hot (plan cache, chunk cache, pool,
    optional index) across every request; per-request patterns share
    that engine's plan cache through the query factory, so repeated
    patterns certify once for the server's lifetime.
    """
    from repro.engine.engine import Program
    from repro.serve import serve_http

    try:
        query = _build_query(args)
        if args.flight:
            query = query.recorded(
                capacity=args.flight,
                slow_ms=args.slow_ms,
            )
        service = query.serve(
            max_queue=args.max_queue,
            default_deadline=(args.default_deadline_ms / 1000.0
                              if args.default_deadline_ms else None),
        )
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.log:
        from repro.obs.log import configure_event_log

        try:
            configure_event_log(path=args.log)
        except OSError as error:
            print(f"error: cannot open event log {args.log!r}: "
                  f"{error}", file=sys.stderr)
            return 2

    default_alphabet = frozenset(args.alphabet)

    def query_factory(pattern: str, alphabet) -> Program:
        spanner = Spanner.regex(
            pattern,
            frozenset(alphabet) if alphabet else default_alphabet,
        )
        return Program.from_query(spanner)

    def ready(bound) -> None:
        host, port = bound
        print(f"serving on http://{host}:{port} "
              f"(pattern {args.pattern!r}, splitters {args.splitters}, "
              f"workers {args.workers}, max_queue {args.max_queue})",
              flush=True)

    with service:
        serve_http(service, host=args.host, port=args.port,
                   query_factory=query_factory, ready=ready)
    return 0


def index_command(args) -> int:
    """Build a corpus index over chunks: in ``--output DIR``, or in
    memory (the report only) without one."""
    from repro.index import SegmentedIndex
    from repro.query import Splitter

    try:
        corpus = _collect_corpus(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not len(corpus):
        print("error: no documents (use --text and/or --file)",
              file=sys.stderr)
        return 2
    try:
        splitter = Splitter.named(args.splitter, frozenset(args.alphabet))
        index = SegmentedIndex.build(corpus, splitter, args.output,
                                     num_shards=args.shards)
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for key, value in index.describe().items():
        print(f"  {key}: {value}")
    index.close()
    if args.output:
        print(f"saved index to {args.output}")
    return 0


def index_compact_command(args) -> int:
    """Fold a segment directory flat, dropping tombstoned texts."""
    from repro.index import SegmentedIndex

    try:
        index = SegmentedIndex.open(args.index)
        summary = index.compact()
        index.close()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for key, value in summary.items():
        print(f"  {key}: {value}")
    print(f"compacted index at {args.index}")
    return 0


def index_update_command(args) -> int:
    """Re-index edited documents by delta, as one log line.

    Each ``--file PATH`` re-chunks that file under the index's own
    splitter and diffs it against the document the index knows by that
    id (the path, or ``--doc-id`` for a single file); documents given
    with ``--remove ID`` are retired.  Introduced texts stay staged in
    ``documents.log`` (no new segment file) until ``index-compact``
    seals them.
    """
    from repro.index import SegmentedIndex
    from repro.query import Splitter

    files = args.file or []
    if args.doc_id and len(files) != 1:
        print("error: --doc-id needs exactly one --file",
              file=sys.stderr)
        return 2
    try:
        index = SegmentedIndex.open(args.index)
        splitter = Splitter.named(
            index.splitter or args.splitter, frozenset(args.alphabet)
        )
        with index.batch():
            for path in files:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                doc_id = args.doc_id or path
                delta = index.update_document(
                    doc_id, splitter.chunks(text)
                )
                print(f"  {doc_id}: +{delta['added']} "
                      f"-{delta['removed']} distinct texts")
            for doc_id in args.remove or []:
                retired = index.remove_document(doc_id)
                print(f"  {doc_id}: removed ({retired} texts retired)")
        for key, value in index.describe().items():
            print(f"  {key}: {value}")
        index.close()
    except (ReproError, ValueError, OSError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    from repro.splitters.builders import known_splitter_names

    known = ",".join(known_splitter_names())
    parser = argparse.ArgumentParser(prog="python -m repro")
    subparsers = parser.add_subparsers(dest="command", required=True)
    analyze_parser = subparsers.add_parser(
        "analyze", help="report split-correctness against common splitters"
    )
    analyze_parser.add_argument("--pattern", required=True,
                                help="regex formula (x{...} captures)")
    analyze_parser.add_argument("--alphabet", required=True,
                                help="document alphabet, e.g. 'ab .'")
    analyze_parser.add_argument(
        "--splitters", default="tokens,sentences",
        help=f"comma list: {known}",
    )
    analyze_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace certification; write Chrome trace JSON to FILE",
    )
    analyze_parser.add_argument(
        "--metrics", action="store_true",
        help="print Prometheus metrics after the analysis",
    )
    engine_parser = subparsers.add_parser(
        "engine", help="run the corpus extraction engine (repro.engine)"
    )
    engine_parser.add_argument("--pattern", required=True,
                               help="regex formula (x{...} captures)")
    engine_parser.add_argument("--alphabet", required=True,
                               help="document alphabet, e.g. 'ab .'")
    engine_parser.add_argument(
        "--splitters", default="tokens,sentences",
        help=f"comma list registered with the planner: {known}",
    )
    engine_parser.add_argument("--text", action="append",
                               help="inline document (repeatable)")
    engine_parser.add_argument("--file", action="append",
                               help="path to a document file (repeatable)")
    engine_parser.add_argument("--workers", type=int, default=0,
                               help="process-pool size (0 = in-process)")
    engine_parser.add_argument("--batch-size", type=int, default=32,
                               help="chunk/document batch size")
    engine_parser.add_argument(
        "--index", default=None, metavar="DIR",
        help="corpus index directory built by `repro index` (enables "
             "chunk prefiltering from its posting lists)",
    )
    engine_parser.add_argument(
        "--prefilter", action="store_true",
        help="prune provably non-matching chunks (auto-indexes the "
             "corpus when no --index is given)",
    )
    engine_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace the run (all phases, worker processes included); "
             "write Chrome trace JSON to FILE (Perfetto-loadable)",
    )
    engine_parser.add_argument(
        "--metrics", action="store_true",
        help="print Prometheus metrics (engine + compiled kernel) "
             "after the run",
    )
    serve_parser = subparsers.add_parser(
        "serve", help="run the resident extraction service "
                      "(repro.serve HTTP/JSON endpoint)"
    )
    serve_parser.add_argument("--pattern", required=True,
                              help="default regex formula served")
    serve_parser.add_argument("--alphabet", required=True,
                              help="document alphabet, e.g. 'ab .'")
    serve_parser.add_argument(
        "--splitters", default="tokens,sentences",
        help=f"comma list registered with the planner: {known}",
    )
    serve_parser.add_argument("--workers", type=int, default=0,
                              help="process-pool size (0 = in-process)")
    serve_parser.add_argument("--batch-size", type=int, default=32,
                              help="chunk/document batch size")
    serve_parser.add_argument(
        "--index", default=None, metavar="DIR",
        help="corpus index directory built by `repro index` (enables "
             "chunk prefiltering from its posting lists)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="bind port (0 = ephemeral)")
    serve_parser.add_argument(
        "--max-queue", type=int, default=64,
        help="admission-queue bound (beyond it, requests get 429)",
    )
    serve_parser.add_argument(
        "--default-deadline-ms", type=float, default=None,
        help="deadline applied to requests without their own "
             "(missed deadlines get 504)",
    )
    serve_parser.add_argument(
        "--log", default=None, metavar="FILE",
        help="append structured JSON event-log lines to FILE "
             "(admissions, completions, rejections, deadline misses)",
    )
    serve_parser.add_argument(
        "--flight", type=int, default=0, metavar="N",
        help="retain the last N completed queries in the flight "
             "recorder (serves GET /debug/queries; 0 = off)",
    )
    serve_parser.add_argument(
        "--slow-ms", type=float, default=None, metavar="T",
        help="keep queries slower than T milliseconds (and every "
             "deadline miss) in the slow-query log with full span "
             "trees (GET /debug/slow)",
    )
    index_parser = subparsers.add_parser(
        "index", help="build a persistent corpus index (repro.index)"
    )
    index_parser.add_argument("--alphabet", required=True,
                              help="document alphabet, e.g. 'ab .'")
    index_parser.add_argument(
        "--splitter", default="sentences",
        help=f"chunking splitter, one of: {known}",
    )
    index_parser.add_argument("--text", action="append",
                              help="inline document (repeatable)")
    index_parser.add_argument("--file", action="append",
                              help="path to a document file (repeatable)")
    index_parser.add_argument("--shards", type=int, default=1,
                              help="index the corpus in N shards "
                                   "(one segment per shard)")
    index_parser.add_argument("--output", default=None, metavar="DIR",
                              help="build the index in directory DIR "
                                   "(mmap-able segments, delta-"
                                   "updatable); without it the index "
                                   "is built in memory and only "
                                   "reported")
    compact_parser = subparsers.add_parser(
        "index-compact",
        help="merge an index's segments, dropping tombstones",
    )
    compact_parser.add_argument("--index", required=True, metavar="DIR",
                                help="index directory built by "
                                     "`repro index --output DIR`")
    update_parser = subparsers.add_parser(
        "index-update",
        help="re-index edited documents by delta",
    )
    update_parser.add_argument("--index", required=True, metavar="DIR",
                               help="segment directory to update")
    update_parser.add_argument("--alphabet", required=True,
                               help="document alphabet, e.g. 'ab .'")
    update_parser.add_argument(
        "--splitter", default="sentences",
        help=f"fallback splitter if the index records none: {known}",
    )
    update_parser.add_argument("--file", action="append",
                               help="edited document file (repeatable; "
                                    "doc id = path)")
    update_parser.add_argument("--doc-id", default=None,
                               help="document id for a single --file")
    update_parser.add_argument("--remove", action="append",
                               metavar="ID",
                               help="retire a document by id "
                                    "(repeatable)")
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return analyze(args)
    if args.command == "engine":
        return engine_command(args)
    if args.command == "serve":
        return serve_command(args)
    if args.command == "index":
        return index_command(args)
    if args.command == "index-compact":
        return index_compact_command(args)
    if args.command == "index-update":
        return index_update_command(args)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
