"""Incremental maintenance on edits (Introduction's Wikipedia model).

A split-correct extractor only needs re-evaluation on revised segments
when a large document receives a small edit.  The example builds a
multi-sentence "article", runs it through the engine, applies an edit
to one sentence, runs the new version, and reads from the run's own
statistics that only that sentence was re-processed: the chunk cache
keys results by chunk text, so the three untouched sentences are hits.

Run with:  python examples/incremental_wikipedia.py
"""

from repro import Q, Spanner, evaluate_whole


def main() -> None:
    # A sentence-local extractor: runs of 'a' that are followed, within
    # their own sentence, by its period.  (The plain a-run extractor of
    # the quickstart is *not* self-splittable by sentences — a run at
    # the very end of a document that lacks its period lies in no
    # sentence — and the planner would refuse to split it.)
    spanner = Spanner.regex(
        "(.*(\\.| ))?y{a+}(\\.| (a|b| )*\\.).*", "ab ."
    )
    query = Q(spanner).split_by("sentences")
    engine, program = query.engine(), query.program()

    article_v1 = "aa ab. ba aa. aab a. b aa."
    article_v2 = "aa ab. ba ba. aab a. b aa."   # one sentence edited

    v1 = engine.run({"article": article_v1}, program)
    assert v1.plan.mode == "split" and v1.plan.splitter_name == "sentences"
    print(f"plan: split by {v1.plan.splitter_name} "
          f"({v1.plan.explain()['theorem']}), certified once in "
          f"{v1.plan.certification_seconds:.3f}s")
    print(f"v1: {v1.total_tuples()} matches; "
          f"{v1.stats.chunks_evaluated} sentences evaluated, "
          f"{v1.stats.chunk_cache_hits} served from cache")

    v2 = engine.run({"article": article_v2}, program)
    print(f"v2: {v2.total_tuples()} matches; "
          f"{v2.stats.chunks_evaluated} sentence evaluated, "
          f"{v2.stats.chunk_cache_hits} served from cache")
    assert (v1.stats.chunks_evaluated, v1.stats.chunk_cache_hits) == (4, 0)
    assert (v2.stats.chunks_evaluated, v2.stats.chunk_cache_hits) == (1, 3)
    assert v2.stats.certifications == 0    # the certificate is replayed

    # Both versions agree with from-scratch evaluation.
    assert v1["article"] == evaluate_whole(spanner.vsa(), article_v1)
    assert v2["article"] == evaluate_whole(spanner.vsa(), article_v2)
    print("incremental results match from-scratch evaluation: OK")


if __name__ == "__main__":
    main()
