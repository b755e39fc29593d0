"""High-level entry points with automatic procedure selection.

The low-level modules expose one function per theorem; these wrappers
pick the best applicable procedure the way a query planner would:

* verify the preconditions of the tractable fragment (deterministic
  functional automata, disjoint splitter — Theorems 5.7/5.17) and use
  the polynomial procedure when they hold;
* otherwise fall back to the general PSPACE procedures (Theorems 5.1,
  5.15, 5.16).

``method`` can force a specific procedure: ``"fast"`` (raises if the
preconditions fail), ``"general"``, or ``"auto"`` (default).  Only
these theory entry points take it; the runtime planner
(:class:`repro.runtime.planner.Planner`) always makes the ``"auto"``
choice.

These functions answer one certification question at a time.  To
*apply* the answers over whole corpora — certify once per program,
deduplicate repeated chunks, fan out over workers — use the corpus
engine, :class:`repro.engine.ExtractionEngine`, which is the preferred
corpus-level entry point and caches the certificates these procedures
produce (see :mod:`repro.engine.cache`).

All of the procedures here bottom out in automaton queries
(membership, emptiness, product emptiness, determinization) that
execute on the compiled integer/bitset kernel of
:mod:`repro.automata.compiled`; the runtime additionally lowers
certified plans onto that kernel at certify time, so certification is
also when evaluation gets compiled — never per document or per chunk.

Every entry point accepts either a raw :class:`VSetAutomaton` or a
fluent wrapper around one (:class:`repro.query.Spanner`,
:class:`repro.query.Splitter`, or anything else exposing the automaton
as ``.automaton`` or ``.specification``); errors are raised from the
typed hierarchy of :mod:`repro.errors` (each subclasses the built-in
exception the pre-fluent API used, so existing ``except ValueError``
handlers keep working).
"""

from __future__ import annotations

from typing import Optional

from repro.core.split_correctness import (
    split_correct_dfvsa,
    split_correct_general,
)
from repro.errors import CertificationError
from repro.spanners.determinism import is_deterministic
from repro.spanners.vset_automaton import VSetAutomaton

_METHODS = ("auto", "fast", "general")


def _as_automaton(spanner: object, role: str = "spanner") -> VSetAutomaton:
    """Unwrap fluent wrappers down to the underlying VSet-automaton.

    Accepts a :class:`VSetAutomaton` itself, or any object exposing one
    as ``.automaton`` (splitter wrappers, registered splitters) or
    ``.specification`` (spanner wrappers, fast executables).
    """
    if isinstance(spanner, VSetAutomaton):
        return spanner
    for attribute in ("automaton", "specification"):
        wrapped = getattr(spanner, attribute, None)
        if isinstance(wrapped, VSetAutomaton):
            return wrapped
    raise CertificationError(
        f"{role} must be a VSetAutomaton or wrap one "
        f"(got {type(spanner).__name__})"
    )


def _fast_applicable(
    splitter: VSetAutomaton, *spanners: VSetAutomaton
) -> bool:
    from repro.splitters.disjointness import is_disjoint

    for automaton in (*spanners, splitter):
        if not is_deterministic(automaton):
            return False
        if not automaton.is_functional():
            return False
    return is_disjoint(splitter)


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise CertificationError(
            f"method must be one of {_METHODS}, got {method!r}"
        )


def split_correct(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    method: str = "auto",
) -> bool:
    """Is ``P = P_S o S``?  Auto-selects Theorem 5.7 or Theorem 5.1.

    A tuple consisting solely of empty spans on the boundary between
    two adjacent splits (or a 0-ary tuple) is covered by more than one
    split, which the Theorem 5.7 argument does not account for; the
    fast procedure decides such cases with Theorem 5.1.
    """
    _check_method(method)
    spanner = _as_automaton(spanner, "spanner")
    split_spanner = _as_automaton(split_spanner, "split spanner")
    splitter = _as_automaton(splitter, "splitter")
    if method == "general":
        return split_correct_general(spanner, split_spanner, splitter)
    applicable = _fast_applicable(splitter, spanner, split_spanner)
    if method == "fast":
        if not applicable:
            raise CertificationError(
                "fast split-correctness requires dfVSA inputs and a "
                "disjoint splitter (Theorem 5.7)"
            )
        return split_correct_dfvsa(spanner, split_spanner, splitter,
                                   check=False)
    if applicable:
        return split_correct_dfvsa(spanner, split_spanner, splitter,
                                   check=False)
    return split_correct_general(spanner, split_spanner, splitter)


def self_splittable(
    spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    method: str = "auto",
) -> bool:
    """Is ``P = P o S``?  Auto-selects Theorem 5.17 or Theorem 5.16."""
    return split_correct(spanner, spanner, splitter, method=method)


def splittable(
    spanner: VSetAutomaton,
    splitter: VSetAutomaton,
) -> Optional[bool]:
    """Is some ``P_S`` with ``P = P_S o S`` available?

    Returns ``True``/``False`` for disjoint splitters (Theorem 5.15)
    and ``None`` for non-disjoint ones — decidability there is open
    (Section 8) — unless ``P`` happens to be *self*-splittable, which
    is decidable regardless and implies splittability.
    """
    from repro.core.splittability import is_splittable
    from repro.splitters.disjointness import is_disjoint

    spanner = _as_automaton(spanner, "spanner")
    splitter = _as_automaton(splitter, "splitter")
    if is_disjoint(splitter):
        return is_splittable(spanner, splitter, require_disjoint=False)
    if self_splittable(spanner, splitter, method="general"):
        return True
    return None
