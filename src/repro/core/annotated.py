"""Annotated splitters (Section 7.3 and Appendix E).

An annotated splitter outputs key/span pairs — e.g. an HTTP-log
splitter that tags each record as a GET or POST request — and a
*key-spanner mapping* assigns a (possibly different) split-spanner to
each key.  This generalizes splitters with filters, whose annotation
is the single bit "document satisfied the precondition".

The public representation keeps one splitter per key (equivalently,
one annotation function on final states, cf. Appendix E); all
decision procedures reduce to the unannotated machinery per key:

* :func:`annotated_split_correct` -- Theorem E.3 (PSPACE) via the
  algebraic identity of Lemma E.2;
* :func:`annotated_split_correct_highlander` -- Theorem E.4
  (polynomial time for dfVSA and *highlander* splitters: disjoint and
  at most one key per span);
* :func:`canonical_key_mapping` / :func:`annotated_splittable` --
  Theorem E.7 via the per-key canonical split-spanner (Lemma E.6).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Set, Tuple

from repro.core.composition import compose, splitter_variable
from repro.core.spans import Span
from repro.spanners.algebra import intersect, union
from repro.spanners.containment import spanner_equivalent
from repro.spanners.vset_automaton import VSetAutomaton

Key = Hashable


class AnnotatedSplitter:
    """An annotated splitter as a family ``{key: splitter}``.

    ``S_K(d) = {(key, s) : s in S_key(d)}``.  The equivalent
    annotation-function view (a VSet-automaton whose final states carry
    keys) is obtained by restricting finals per key; both directions
    are supported via :meth:`from_annotation`.
    """

    def __init__(self, keyed: Mapping[Key, VSetAutomaton]) -> None:
        if not keyed:
            raise ValueError("an annotated splitter needs at least one key")
        target = ("split",)
        self.keyed: Dict[Key, VSetAutomaton] = {}
        for key, splitter in keyed.items():
            variable = splitter_variable(splitter)
            self.keyed[key] = (
                splitter if variable == target
                else splitter.rename_variables({variable: target})
            )
        self.variable = target

    @classmethod
    def from_annotation(
        cls, splitter: VSetAutomaton, annotation: Mapping
    ) -> "AnnotatedSplitter":
        """Build from a VSA plus an annotation of its final states.

        ``annotation`` maps each final state of the underlying NFA to
        a key; ``S_key`` keeps only the finals annotated with ``key``.
        """
        missing = set(splitter.nfa.finals) - set(annotation)
        if missing:
            raise ValueError(f"finals without annotation: {missing}")
        keyed = {}
        for key in set(annotation.values()):
            finals = {q for q in splitter.nfa.finals
                      if annotation[q] == key}
            from repro.automata.nfa import NFA

            nfa = NFA(splitter.nfa.alphabet, splitter.nfa.states,
                      splitter.nfa.initial, finals,
                      splitter.nfa.transitions())
            keyed[key] = VSetAutomaton(splitter.doc_alphabet,
                                       splitter.variables, nfa)
        return cls(keyed)

    def keys(self):
        return self.keyed.keys()

    def evaluate(self, document: str) -> Set[Tuple[Key, Span]]:
        """``S_K(d)`` as a set of (key, span) pairs."""
        from repro.core.composition import splits_of

        results: Set[Tuple[Key, Span]] = set()
        for key, splitter in self.keyed.items():
            for span in splits_of(splitter, document):
                results.add((key, span))
        return results

    def union_splitter(self) -> VSetAutomaton:
        """The unannotated splitter (keys forgotten)."""
        splitters = list(self.keyed.values())
        result = splitters[0]
        for other in splitters[1:]:
            result = union(result, other)
        return result

    def is_highlander(self) -> bool:
        """Disjoint, and at most one key per (document, span) pair.

        "There can be only one": the condition under which Theorem E.4
        obtains tractability.
        """
        from repro.splitters.disjointness import is_disjoint

        if not is_disjoint(self.union_splitter()):
            return False
        keys = sorted(self.keyed, key=repr)
        for i, first in enumerate(keys):
            for second in keys[i + 1 :]:
                common = intersect(self.keyed[first], self.keyed[second])
                if not common.extended_nfa().is_empty():
                    return False
        return True


def compose_annotated(
    mapping: Mapping[Key, VSetAutomaton],
    annotated: AnnotatedSplitter,
) -> VSetAutomaton:
    """The spanner ``P_S o S_K`` (Lemma E.2).

    ``(P_S o S_K)(d)`` evaluates ``P_S(key)`` on every chunk annotated
    ``key``; realized as the union over keys of the ordinary
    compositions with the per-key splitters.
    """
    missing = set(annotated.keys()) - set(mapping)
    if missing:
        raise ValueError(f"mapping lacks spanners for keys: {missing}")
    composed = None
    for key in sorted(annotated.keys(), key=repr):
        part = compose(mapping[key], annotated.keyed[key])
        composed = part if composed is None else union(composed, part)
    return composed


def annotated_split_correct(
    spanner: VSetAutomaton,
    mapping: Mapping[Key, VSetAutomaton],
    annotated: AnnotatedSplitter,
) -> bool:
    """Theorem E.3: is ``P = P_S o S_K``?  (PSPACE in general.)"""
    return spanner_equivalent(spanner, compose_annotated(mapping, annotated))


def annotated_split_correct_highlander(
    spanner: VSetAutomaton,
    mapping: Mapping[Key, VSetAutomaton],
    annotated: AnnotatedSplitter,
    check: bool = True,
) -> bool:
    """Theorem E.4: polynomial time for dfVSA inputs and highlander
    splitters.

    The cover condition is checked once against the union splitter;
    then for each key the proof's discrepancy search runs with the
    per-key splitter and split-spanner.  A discrepancy only on a tuple
    that another split may cover too is decided by Theorem E.3.
    """
    from repro.core.cover import cover_condition_disjoint
    from repro.core.split_correctness import _discrepancy_reachable
    from repro.spanners.determinism import is_deterministic

    if check:
        if not is_deterministic(spanner):
            raise ValueError("spanner must be deterministic (dfVSA)")
        for key, split_spanner in mapping.items():
            if not is_deterministic(split_spanner):
                raise ValueError(f"split spanner for key {key!r} must be "
                                 "deterministic (dfVSA)")
    if not cover_condition_disjoint(spanner, annotated.union_splitter()):
        return False
    undecided = False
    for key in sorted(annotated.keys(), key=repr):
        found = _discrepancy_reachable(spanner, mapping[key],
                                       annotated.keyed[key])
        if found:
            return False
        undecided = undecided or found is None
    if undecided:
        # A tuple another key's split may cover too: decide exactly.
        return annotated_split_correct(spanner, mapping, annotated)
    return True


def canonical_key_mapping(
    spanner: VSetAutomaton, annotated: AnnotatedSplitter
) -> Dict[Key, VSetAutomaton]:
    """The canonical key-spanner mapping of Appendix E.

    ``P_S^can(key)`` is the ordinary canonical split-spanner of ``P``
    with respect to the per-key splitter ``S_key``.
    """
    from repro.core.splittability import canonical_split_spanner

    return {
        key: canonical_split_spanner(spanner, splitter)
        for key, splitter in annotated.keyed.items()
    }


def annotated_splittable(
    spanner: VSetAutomaton,
    annotated: AnnotatedSplitter,
    require_highlander: bool = True,
) -> bool:
    """Theorem E.7: annotated splittability for highlander splitters.

    By Lemma E.6, ``P`` is splittable by ``S_K`` iff it is splittable
    via the canonical key-spanner mapping.
    """
    if require_highlander and not annotated.is_highlander():
        raise ValueError(
            "annotated splittability is only characterized for "
            "highlander splitters (Lemma E.6)"
        )
    mapping = canonical_key_mapping(spanner, annotated)
    return annotated_split_correct(spanner, mapping, annotated)
