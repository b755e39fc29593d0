"""Quickstart: certify a split plan, then run it.

The end-to-end loop the paper motivates: a data scientist writes a
declarative extractor; the system decides — automatically, with the
split-correctness procedures — which pre-materialized splitters the
extractor can be distributed over, then executes the certified plan.

Run with:  python examples/quickstart.py
"""

from repro import (
    Q,
    compile_regex_formula,
    is_disjoint,
    is_self_splittable,
    sentence_splitter,
    token_splitter,
)
from repro.runtime import FastSeparatorSplitter, split_by


def main() -> None:
    # Documents are lowercase prose over a small demo alphabet:
    # letters 'a'/'b', spaces between tokens, periods ending sentences.
    alphabet = frozenset("ab .")

    # The extractor: maximal runs of 'a' delimited by token boundaries
    # (spaces, periods, or the document edges).  Think "person-name
    # tokens" in miniature.
    extractor = compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*"     # delimited on both sides
        "|y{a+}(\\.| ).*"             # at the start of the document
        "|.*(\\.| )y{a+}"             # at the end
        "|y{a+}",                     # the whole document
        alphabet,
    )

    tokens = token_splitter(alphabet, separators={" "})
    sentences = sentence_splitter(alphabet)

    print("== Analysis ==")
    print(f"token splitter disjoint:     {is_disjoint(tokens)}")
    print(f"sentence splitter disjoint:  {is_disjoint(sentences)}")
    print(f"self-splittable by tokens:   "
          f"{is_self_splittable(extractor, tokens)}")
    print(f"self-splittable by sentences:"
          f" {is_self_splittable(extractor, sentences)}")

    # The query API does the same automatically — it certifies the
    # splitters it is given in order of preference, keeps the first
    # the extractor is split-correct for, and pairs it with its
    # compiled scanner — then runs the certified plan on the engine.
    query = Q(extractor).split_by("tokens", "sentences")
    plan = query.explain()
    print(f"\n== Plan ==\nmode={plan['mode']}, "
          f"splitter={plan['splitter']}, "
          f"self-splittable={plan['self_splittable']}, "
          f"certified by {plan['theorem']}")

    document = "aa ab. a aaa b. aa"
    results = query.on(document)
    print(f"\n== Extraction on {document!r} ==")
    for t in sorted(results, key=repr):
        span = t["y"]
        print(f"  y = {span} -> {span.extract(document)!r}")

    # Split evaluation gives the same answer as the whole document —
    # that is exactly what the certificate guarantees.
    assert results == extractor.evaluate(document)
    assert results == split_by(extractor, FastSeparatorSplitter(" "),
                               document)
    print("\nsplit plan output matches whole-document evaluation: OK")


if __name__ == "__main__":
    main()
