"""Necessary-factor extraction: what every matching chunk must contain.

A split-correct plan evaluates the chunk spanner on every chunk — but
most chunks of a real corpus cannot match a selective program at all.
This module derives, from a spanner's *matching language*
``L_P = {d : P(d) != {}}`` (Section 7.2's minimal filter language), a
:class:`FactorSet` of **necessary conditions** on matching chunks:

* ``required`` — literal substrings every matching chunk contains
  (an AND-filter, the Google-Code-Search "necessary literals" trick);
* ``trigrams`` — a set such that every matching chunk of length >= 3
  contains at least one member (an OR-filter answerable from a
  trigram posting index, :mod:`repro.index.store`);
* ``min_length`` — the length of the shortest matching chunk;
* ``empty`` — the matching language is empty (nothing ever matches).

A chunk failing any condition provably produces no tuples, so the
engine can skip the automaton entirely (:class:`repro.index.filter.
IndexFilter`).  Chunks containing symbols outside the document
alphabet are always admitted so they surface the same evaluation-time
error an unfiltered run would raise.

Extraction runs two cooperating analyses:

* **Regex-formula analysis** — when the spanner remembers the formula
  AST it was compiled from (:func:`repro.spanners.regex_formulas.
  compile_regex_formula` attaches it), contiguous literal runs of the
  AST are collected as *candidate* factors (precise long literals,
  e.g. ``"qz"`` out of ``y{qz+}``).
* **NFA-path analysis** — candidates (and single letters) are
  *verified* against the matching NFA: a factor ``w`` is necessary iff
  no accepting path avoids it, decided by emptiness of the product
  with the KMP avoid-``w`` automaton.  Verified factors are greedily
  extended letter by letter, so automata without an AST (canonical
  split-spanners, algebra results) still yield maximal literals.
  The same NFA enumerates realizable trigram factors and the shortest
  accepted word.

Everything here is *sound but not complete*: analysis may miss
prunable chunks (returning a weaker :class:`FactorSet`, in the limit
an ineffective one), but a chunk it rejects can never match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.automata.nfa import EPSILON, NFA

#: Factor length answerable from the posting index (Code Search's 3).
GRAM = 3

#: Ceiling on verified required-factor length (longer adds little).
_MAX_FACTOR_LENGTH = 8

#: How many required factors a FactorSet keeps (longest first).
_MAX_REQUIRED = 4

#: Candidate literals taken from a formula AST before verification.
_MAX_CANDIDATES = 16

#: Trigram sets larger than this are discarded as non-selective.
_MAX_TRIGRAMS = 256

#: Ceiling on (state, prefix) pairs during trigram enumeration.
_TRIGRAM_WORK_LIMIT = 50_000

#: Ceiling on NFA necessity checks per analysis.
_NECESSITY_BUDGET = 160


@dataclass(frozen=True)
class FactorSet:
    """Necessary conditions on chunks that can produce tuples.

    Soundness contract: for any chunk text over ``alphabet``,
    ``admits(text) is False`` implies the spanner's result on that
    text is empty.  Texts with out-of-alphabet symbols are always
    admitted (their evaluation-time error must not be masked).
    """

    alphabet: FrozenSet[str]
    #: AND: every matching chunk contains each of these substrings.
    required: Tuple[str, ...] = ()
    #: OR: every matching chunk of length >= GRAM contains one of
    #: these; ``None`` when the trigram abstraction is unavailable or
    #: too dense to be selective.
    trigrams: Optional[FrozenSet[str]] = None
    #: Length of the shortest matching chunk.
    min_length: int = 0
    #: The matching language is empty: no chunk ever matches.
    empty: bool = False

    @property
    def effective(self) -> bool:
        """Whether this factor set can prune anything at all."""
        return (self.empty or bool(self.required)
                or self.trigrams is not None or self.min_length > 1)

    def admits(self, text: str) -> bool:
        """Whether ``text`` could possibly match (False = safe skip)."""
        if not self.alphabet.issuperset(text):
            # Out-of-alphabet chunks keep their evaluation-time error.
            return True
        if self.empty or len(text) < self.min_length:
            return False
        for factor in self.required:
            if factor not in text:
                return False
        if self.trigrams is not None and len(text) >= GRAM:
            trigrams = self.trigrams
            if not any(text[i:i + GRAM] in trigrams
                       for i in range(len(text) - GRAM + 1)):
                return False
        return True

    def describe(self) -> Dict[str, object]:
        """A flat report for ``explain()`` surfaces and the CLI."""
        return {
            "required": list(self.required),
            "trigram_count": (len(self.trigrams)
                              if self.trigrams is not None else None),
            "min_length": self.min_length,
            "empty_language": self.empty,
            "effective": self.effective,
        }


# ----------------------------------------------------------------------
# Matching-NFA scaffolding
# ----------------------------------------------------------------------


class _MatchGraph:
    """Letter/epsilon adjacency of a trimmed matching NFA.

    All analyses below run over this one flattened view: per-state
    epsilon successors and ``(letter, target)`` edges, plus the
    forward epsilon closure (memoized), so no analysis touches the
    NFA's nested dict-of-sets tables in its inner loop.
    """

    def __init__(self, nfa: NFA) -> None:
        self.initial = nfa.initial
        self.finals = set(nfa.finals)
        self.states = set(nfa.states)
        self.letter_edges: Dict[object, List[Tuple[str, object]]] = {
            state: [] for state in self.states
        }
        self.eps_edges: Dict[object, List[object]] = {
            state: [] for state in self.states
        }
        for source, symbol, target in nfa.transitions():
            if symbol is EPSILON:
                self.eps_edges[source].append(target)
            else:
                self.letter_edges[source].append((symbol, target))
        self._closures: Dict[object, FrozenSet[object]] = {}

    def closure(self, state: object) -> FrozenSet[object]:
        cached = self._closures.get(state)
        if cached is None:
            seen = {state}
            stack = [state]
            while stack:
                for target in self.eps_edges[stack.pop()]:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
            cached = frozenset(seen)
            self._closures[state] = cached
        return cached

    def language_empty(self) -> bool:
        """No accepting state is reachable (matching language empty)."""
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            state = stack.pop()
            if state in self.finals:
                return False
            for target in self.eps_edges[state]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
            for _symbol, target in self.letter_edges[state]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return True

    def shortest_accepted_length(self) -> int:
        """Length of the shortest accepted word (0-1 BFS; the language
        must be non-empty)."""
        distance = {self.initial: 0}
        queue = deque([self.initial])
        best: Optional[int] = None
        while queue:
            state = queue.popleft()
            here = distance[state]
            if best is not None and here >= best:
                continue
            if state in self.finals:
                best = here if best is None else min(best, here)
                continue
            for target in self.eps_edges[state]:
                if distance.get(target, here + 1) > here:
                    distance[target] = here
                    queue.appendleft(target)
            for _symbol, target in self.letter_edges[state]:
                if distance.get(target, here + 2) > here + 1:
                    distance[target] = here + 1
                    queue.append(target)
        return best if best is not None else 0


def _kmp_table(pattern: str) -> List[int]:
    """KMP failure table: longest proper prefix-suffix per position."""
    table = [0] * len(pattern)
    matched = 0
    for index in range(1, len(pattern)):
        while matched and pattern[index] != pattern[matched]:
            matched = table[matched - 1]
        if pattern[index] == pattern[matched]:
            matched += 1
        table[index] = matched
    return table


def _is_necessary(graph: _MatchGraph, factor: str) -> bool:
    """Does every accepted word contain ``factor`` as a substring?

    Product of the matching NFA with the KMP avoid-automaton of
    ``factor``: states ``(q, k)`` where ``k < len(factor)`` letters of
    the factor are currently matched.  If an accepting NFA state is
    reachable while avoiding ``k == len(factor)``, some accepted word
    lacks the factor and it is not necessary.
    """
    if not factor:
        return False
    table = _kmp_table(factor)
    length = len(factor)
    start = (graph.initial, 0)
    seen = {start}
    stack = [start]
    while stack:
        state, matched = stack.pop()
        if state in graph.finals:
            return False
        for target in graph.eps_edges[state]:
            item = (target, matched)
            if item not in seen:
                seen.add(item)
                stack.append(item)
        for symbol, target in graph.letter_edges[state]:
            advanced = matched
            while advanced and factor[advanced] != symbol:
                advanced = table[advanced - 1]
            if factor[advanced] == symbol:
                advanced += 1
            if advanced == length:
                continue  # this path contains the factor: not avoiding
            item = (target, advanced)
            if item not in seen:
                seen.add(item)
                stack.append(item)
    return True


def _realizable_trigrams(
    graph: _MatchGraph, alphabet: FrozenSet[str]
) -> Optional[FrozenSet[str]]:
    """All length-``GRAM`` factors of words of the matching language.

    The NFA is trimmed (every state lies on some accepting path), so
    the factors of length 3 are exactly the labels of 3-letter paths —
    from any state, with epsilon moves interleaved.  Returns ``None``
    when enumeration exceeds the work limit or the resulting set is
    too dense to be selective.
    """
    frontier: Set[Tuple[object, str]] = {
        (state, "") for state in graph.states
    }
    for _ in range(GRAM):
        advanced: Set[Tuple[object, str]] = set()
        for state, prefix in frontier:
            for mid in graph.closure(state):
                for symbol, target in graph.letter_edges[mid]:
                    advanced.add((target, prefix + symbol))
                    if len(advanced) > _TRIGRAM_WORK_LIMIT:
                        return None
        frontier = advanced
    trigrams = {prefix for _state, prefix in frontier}
    if len(trigrams) > _MAX_TRIGRAMS:
        return None
    # A saturated set (every trigram over the alphabet) filters nothing.
    if len(trigrams) >= len(alphabet) ** GRAM:
        return None
    return frozenset(trigrams)


# ----------------------------------------------------------------------
# Candidate literals from regex-formula ASTs
# ----------------------------------------------------------------------


@dataclass
class _Runs:
    """Contiguous literal runs of one AST node.

    ``whole`` is the exact literal word when the node denotes a single
    word (``None`` otherwise — unions, stars and wildcards are never
    exact); ``prefix``/``suffix`` are the literal runs touching the
    node's edges (used to bridge runs across concatenation); ``inner``
    collects completed runs.  Candidates only — the NFA verifies.
    """

    prefix: str = ""
    suffix: str = ""
    whole: Optional[str] = None
    inner: Set[str] = field(default_factory=set)

    def loose(self) -> Set[str]:
        """Every literal run this node exhibits anywhere."""
        runs = set(self.inner)
        for run in (self.prefix, self.suffix, self.whole):
            if run:
                runs.add(run)
        return runs


def _formula_runs(node: object) -> _Runs:
    from repro.automata.regex import (
        AnySymbol,
        Concat,
        Empty,
        Epsilon,
        Literal,
        Star,
        Union_,
    )
    from repro.spanners.regex_formulas import Capture

    if isinstance(node, Literal) and isinstance(node.symbol, str):
        return _Runs(node.symbol, node.symbol, node.symbol)
    if isinstance(node, (Epsilon, Empty)):
        return _Runs(whole="")
    if isinstance(node, Capture):
        return _formula_runs(node.inner)
    if isinstance(node, Concat):
        left = _formula_runs(node.left)
        right = _formula_runs(node.right)
        merged = _Runs(inner=left.inner | right.inner)
        bridge = left.suffix + right.prefix
        if left.whole is not None and right.whole is not None:
            merged.whole = left.whole + right.whole
            merged.prefix = merged.suffix = merged.whole
        else:
            merged.whole = None
            merged.prefix = (left.whole + right.prefix
                             if left.whole is not None else left.prefix)
            merged.suffix = (left.suffix + right.whole
                             if right.whole is not None else right.suffix)
            if bridge:
                merged.inner.add(bridge)
        return merged
    if isinstance(node, Union_):
        left = _formula_runs(node.left)
        right = _formula_runs(node.right)
        return _Runs(inner=left.loose() | right.loose())
    if isinstance(node, Star):
        return _Runs(inner=_formula_runs(node.inner).loose())
    # AnySymbol, non-string literals, unknown nodes: break every run.
    if isinstance(node, AnySymbol):
        return _Runs(whole=None)
    return _Runs(whole=None)


def formula_candidates(node: object) -> List[str]:
    """Candidate literal factors harvested from a regex-formula AST.

    Longest first, capped; single letters are omitted (the NFA letter
    scan already proposes those).  Purely heuristic — every candidate
    is verified against the matching NFA before use.
    """
    runs = sorted(
        (run for run in _formula_runs(node).loose() if len(run) > 1),
        key=lambda run: (-len(run), run),
    )
    return runs[:_MAX_CANDIDATES]


# ----------------------------------------------------------------------
# The analysis entry point
# ----------------------------------------------------------------------


def _dedupe_required(factors: Iterable[str]) -> Tuple[str, ...]:
    """Keep the longest factors, dropping substrings of kept ones."""
    kept: List[str] = []
    for factor in sorted(set(factors), key=lambda f: (-len(f), f)):
        if any(factor in other for other in kept):
            continue
        kept.append(factor)
        if len(kept) == _MAX_REQUIRED:
            break
    return tuple(kept)


def factors_of(
    spanner: object,
    max_trigrams: int = _MAX_TRIGRAMS,
) -> Optional[FactorSet]:
    """The :class:`FactorSet` of a spanner, or ``None`` when the
    analysis does not apply (non-character alphabet, missing
    specification, analysis failure).

    ``spanner`` is a :class:`repro.spanners.vset_automaton.
    VSetAutomaton`; the factors constrain the *matching language*
    ``{d : spanner(d) != {}}``, so they are valid skip conditions for
    whatever executable implements that specification.
    """
    from repro.spanners.vset_automaton import VSetAutomaton

    if not isinstance(spanner, VSetAutomaton):
        return None
    alphabet = spanner.doc_alphabet
    if not alphabet or not all(
        isinstance(symbol, str) and len(symbol) == 1 for symbol in alphabet
    ):
        return None
    try:
        graph = _MatchGraph(spanner.match_language())
    except Exception:
        return None
    if graph.language_empty():
        return FactorSet(alphabet, empty=True)

    budget = [_NECESSITY_BUDGET]

    def necessary(factor: str) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return _is_necessary(graph, factor)

    # Seed factors: verified AST candidates (longest first), then the
    # necessary single letters not already covered by one of them.
    verified: List[str] = []
    formula = getattr(spanner, "formula", None)
    if formula is not None:
        for candidate in formula_candidates(formula):
            if len(candidate) > _MAX_FACTOR_LENGTH:
                candidate = candidate[:_MAX_FACTOR_LENGTH]
            if any(candidate in kept for kept in verified):
                continue
            if necessary(candidate):
                verified.append(candidate)
    for letter in sorted(alphabet):
        if any(letter in kept for kept in verified):
            continue
        if necessary(letter):
            verified.append(letter)

    # Greedy maximal extension along NFA paths: grow each verified
    # factor one letter at a time while it stays necessary.
    extended: List[str] = []
    for factor in verified:
        grown = True
        while grown and len(factor) < _MAX_FACTOR_LENGTH and budget[0] > 0:
            grown = False
            for letter in sorted(alphabet):
                if necessary(factor + letter):
                    factor = factor + letter
                    grown = True
                    break
            if not grown:
                for letter in sorted(alphabet):
                    if necessary(letter + factor):
                        factor = letter + factor
                        grown = True
                        break
        extended.append(factor)

    trigrams = _realizable_trigrams(graph, alphabet)
    if trigrams is not None and len(trigrams) > max_trigrams:
        trigrams = None
    return FactorSet(
        alphabet,
        required=_dedupe_required(extended),
        trigrams=trigrams,
        min_length=graph.shortest_accepted_length(),
    )
