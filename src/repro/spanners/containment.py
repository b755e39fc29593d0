"""Spanner containment and equivalence (Theorem 4.1).

Containment asks whether ``A(d) <= A'(d)`` for every document.  Two
valid ref-words denote the same (document, tuple) pair exactly when
their block decompositions agree, so the decision reduces to language
containment of the canonical extended NFAs
(:meth:`repro.spanners.vset_automaton.VSetAutomaton.extended_nfa`),
decided by the on-the-fly subset search of
:mod:`repro.automata.containment` — the PSPACE procedure.  The
automata are *not* required to be functional: the extended form filters
to valid ref-words first, matching the paper's semantics.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.automata.containment import (
    UNDECIDED,
    containment_search,
    nfa_contains,
)
from repro.spanners.refwords import VarOp
from repro.spanners.vset_automaton import END_MARKER, VSetAutomaton


def spanner_contains(left: VSetAutomaton, right: VSetAutomaton) -> bool:
    """Decide ``left(d) <= right(d)`` for all documents ``d``."""
    if left.variables != right.variables:
        raise ValueError(
            "containment requires identical variable sets "
            f"({sorted(map(str, left.variables))} vs "
            f"{sorted(map(str, right.variables))})"
        )
    return nfa_contains(left.extended_nfa(), right.extended_nfa())


def spanner_equivalent(left: VSetAutomaton, right: VSetAutomaton) -> bool:
    """Decide ``left(d) == right(d)`` for all documents ``d``."""
    return spanner_contains(left, right) and spanner_contains(right, left)


def containment_witness(
    left: VSetAutomaton, right: VSetAutomaton, limit: Optional[int] = None
):
    """A ``(document, tuple)`` pair in ``left`` but not ``right``.

    Returns ``None`` when the containment holds, and
    :data:`repro.automata.containment.UNDECIDED` when a ``limit`` on
    the subset pairs explored was passed and reached first.  The
    witness document is returned as a tuple of symbols; the tuple as a
    :class:`repro.core.spans.SpanTuple`.
    """
    word, _pairs = containment_search(left.extended_nfa(),
                                      right.extended_nfa(), limit=limit)
    if word is None or word is UNDECIDED:
        return word
    return decode_extended_word(word)


def equivalence_witness(
    left: VSetAutomaton, right: VSetAutomaton, limit: Optional[int] = None
):
    """A ``(document, tuple)`` pair on which the spanners differ,
    ``None`` when they are equivalent, or ``UNDECIDED`` when a
    direction reached ``limit`` subset pairs first."""
    witness = containment_witness(left, right, limit)
    if witness is not None:
        return witness
    return containment_witness(right, left, limit)


def decode_extended_word(word: Sequence) -> Tuple[Tuple, "object"]:
    """Convert a block-form word back to ``(document, SpanTuple)``.

    Inverse of the encoding produced by
    :meth:`VSetAutomaton.extended_nfa`; used to turn containment
    counterexamples into human-readable witnesses.
    """
    from repro.spanners.refwords import tuple_of

    refword = []
    variables = set()
    for ops, letter in word:
        for op in sorted(ops):
            refword.append(op)
            variables.add(op.variable)
        if letter != END_MARKER:
            refword.append(letter)
    document = tuple(s for s in refword if not isinstance(s, VarOp))
    return document, tuple_of(refword, variables)
