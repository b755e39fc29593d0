"""The fluent :class:`Splitter` wrapper over the builder registry.

A :class:`Splitter` pairs a splitter's VSet-automaton specification
(what the decision procedures certify against) with an optional fast
executor (what the runtime segments documents with) under a stable
name.  Named construction goes through the single registry of
:mod:`repro.splitters.builders` — the same dispatch the CLI uses — so
``Splitter.named("tokens", "ab .")`` and ``python -m repro ...
--splitters tokens`` can never disagree, and a name always comes with
the compiled scanner that executes it::

    >>> tokens = Splitter.named("tokens", "ab .")
    >>> [span.extract("aa b.") for span in tokens.splits("aa b.")]
    ['aa', 'b.']
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional

from repro.core.spans import Span
from repro.errors import ReproError
from repro.runtime.planner import RegisteredSplitter
from repro.spanners.vset_automaton import VSetAutomaton


class Splitter:
    """An immutable, named document splitter.

    ``automaton`` is the unary VSet-automaton specification;
    ``executor`` optionally carries a fast implementation used at run
    time instead of evaluating the automaton: any object with
    ``splits(document) -> [Span]`` and, optionally, the fused
    ``chunks_of(document) -> [(Span, text)]`` (see
    :class:`repro.runtime.fast.FastSplitter`).
    """

    __slots__ = ("automaton", "name", "executor")

    def __init__(
        self,
        automaton: VSetAutomaton,
        name: str = "splitter",
        executor: Optional[object] = None,
    ) -> None:
        if not isinstance(automaton, VSetAutomaton):
            raise ReproError(
                f"a Splitter wraps a VSetAutomaton specification, got "
                f"{type(automaton).__name__}"
            )
        if automaton.arity != 1:
            raise ReproError(
                f"a splitter must be unary (one span variable), got "
                f"arity {automaton.arity}"
            )
        object.__setattr__(self, "automaton", automaton)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "executor", executor)

    def __setattr__(self, attribute: str, value: object) -> None:
        raise AttributeError("Splitter is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def named(
        cls,
        name: str,
        alphabet: Iterable[str],
        executor: Optional[object] = None,
    ) -> "Splitter":
        """Build a registry splitter by name over ``alphabet``.

        ``name`` is any of :func:`repro.splitters.builders.
        known_splitter_names` — ``tokens``, ``sentences``,
        ``paragraphs``, ``records``, ``whole``, or the parametric
        ``ngram<N>`` / ``window<N>``.  Raises
        :class:`repro.errors.UnknownSplitterError` (listing the known
        names) otherwise.  Without an explicit ``executor`` the
        registry's compiled scanner for ``name`` runs the splits.
        """
        from repro.splitters.builders import build_named, executor_named

        alphabet = frozenset(alphabet)
        automaton = build_named(name, alphabet)
        if executor is None:
            executor = executor_named(name, alphabet)
        return cls(automaton, name=name, executor=executor)

    @classmethod
    def from_vsa(
        cls,
        automaton: VSetAutomaton,
        name: str = "splitter",
        executor: Optional[object] = None,
    ) -> "Splitter":
        """Wrap an existing unary VSet-automaton."""
        return cls(automaton, name=name, executor=executor)

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    @property
    def alphabet(self) -> FrozenSet:
        return self.automaton.doc_alphabet

    def _runtime(self) -> object:
        return self.executor if self.executor is not None else self.automaton

    def splits(self, document: str) -> List[Span]:
        """The chunk spans of ``document`` (sorted by position)."""
        from repro.runtime.executor import splitter_spans

        return splitter_spans(self._runtime(), document)

    def chunks(self, document: str) -> List[str]:
        """The chunk texts of ``document``."""
        from repro.runtime.executor import splitter_chunks

        return [text for _span, text
                in splitter_chunks(self._runtime(), document)]

    def is_disjoint(self) -> bool:
        """Do the chunks of every document pairwise not overlap?
        (Proposition 5.5; the precondition of Theorems 5.7/5.15/5.17.)
        """
        from repro.splitters.disjointness import is_disjoint

        return is_disjoint(self.automaton)

    def registered(self, priority: int = 0) -> RegisteredSplitter:
        """This splitter as a planner registry entry."""
        return RegisteredSplitter(self.name, self.automaton,
                                  priority=priority, executor=self.executor)

    def __repr__(self) -> str:
        fast = f", executor={type(self.executor).__name__}" \
            if self.executor is not None else ""
        return f"Splitter({self.name!r}{fast})"
