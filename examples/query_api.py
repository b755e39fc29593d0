"""The fluent query API, end to end: regex -> tokens -> explain -> stream.

The paper's declarative pitch in five lines: wrap a regex formula in a
:class:`repro.Spanner`, pick a splitter by name, and let ``Q(...)``
certify split-correctness (once, via the plan cache), compile the
plan, and stream per-document results lazily off the corpus engine.

Run with:  python examples/query_api.py
"""

from repro import Q, Spanner, Splitter, UnknownSplitterError


def main() -> None:
    # Documents over a miniature prose alphabet: 'a'/'b' letters,
    # spaces between tokens, periods ending sentences.
    alphabet = "ab ."

    # The extractor: maximal runs of 'a' delimited by token boundaries
    # — "person-name tokens" in miniature.  Operators compose spanners
    # before anything is certified or executed.
    names = Spanner.regex(
        ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", alphabet,
        name="a-runs",
    )

    corpus = [
        "aa ab ba aa.",
        "aa ab ba aa.",      # exact duplicate: the chunk cache sees it
        "b a ab aaa.",
        "aaa aa b.",
    ]

    print("== The query ==")
    query = Q(names).split_by("tokens", "sentences").batch_size(2)
    print(f"spanner:   {names}")
    print(f"splitters: {[s.name for s in query.splitters]}")

    print()
    print("== Explain (certified once, before any document runs) ==")
    explain = query.explain()
    for key in ("mode", "splitter", "self_splittable", "theorem",
                "procedure", "certificate"):
        print(f"  {key}: {explain[key]}")

    print()
    print("== Streaming results (lazy, batch by batch) ==")
    results = query.over(corpus)
    for doc_id, tuples in results.stream():
        extracted = sorted(
            span.extract(corpus[int(doc_id.split('-')[1])])
            for t in tuples for span in t.values()
        )
        print(f"  {doc_id}: {len(tuples)} tuples -> {extracted}")

    print()
    print("== Run report ==")
    report = results.explain()
    stats = report["stats"]
    certifications = query.engine().stats().certifications
    print(f"  certifications:   {certifications} "
          "(the PSPACE procedure ran exactly once, at explain time)")
    print(f"  compiled artifact: {report['compiled_artifact']}")
    print(f"  chunk hit rate:   {stats['chunk_hit_rate']:.2f} "
          "(duplicate documents cost nothing)")
    print(f"  tuples emitted:   {stats['tuples_emitted']}")

    print()
    print("== Materializers ==")
    print(f"  texts: {sorted(set(results.texts()))}")
    first_row = results.to_dicts()[0]
    print(f"  first row: {first_row}")

    print()
    print("== Typed errors ==")
    try:
        Splitter.named("tokns", alphabet)
    except UnknownSplitterError as error:
        print(f"  UnknownSplitterError: {error}")


if __name__ == "__main__":
    main()
