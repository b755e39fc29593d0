"""Brute-force reference semantics for the test-suite.

Two independent ground truths:

* :func:`ref_eval` -- a *compositional* evaluator for regex formulas,
  implemented directly from the inductive definition of their
  ref-word languages, with no automata involved.  Cross-checking it
  against ``VSetAutomaton.evaluate`` validates the whole compilation
  and evaluation pipeline.
* :func:`documents_upto` plus the semantic deciders below -- exhaustive
  checks of split-correctness/splittability statements on all
  documents up to a bounded length.  A decision procedure that agrees
  with the bounded check on many instances and alphabets is unlikely
  to be wrong in a way the instances exercise.

Plus :func:`reference_candidates`, the posting index's candidate
contract stated per text with substring tests -- no postings, no
bitmasks, no segments --, :func:`reference_text_id` over
:func:`reference_segment_text_id`, the index's text lookup as the
per-segment binary search it was before the digest map, and the
``reference_*_spans`` character
loops, the splitters' executors before they were lowered to compiled
scanners (:mod:`repro.runtime.fast`), kept as their oracles,
:class:`ReferenceSpan`, the frozen dataclass the tuple-backed
:class:`repro.core.spans.Span` replaced, and
:class:`ReferenceSpanTuple`, the dict-backed span tuple the flat
:class:`repro.core.spans.SpanTuple` replaced,
:func:`reference_search`, the compiled kernel's breadth-first
configuration search before it walked runs, and the dict-of-sets
interpreter the kernel replaced (:func:`accepts_interpreted`,
:func:`evaluate_interpreted`, :func:`suffix_acceptance`), moved out of
``src/`` unchanged but for ``self``; and the certification
constructions as they were before they built only what is reachable:
:func:`reference_compose` (Lemma C.2's full three-phase product, then
trimmed) and :func:`reference_extended_nfa` over
:func:`reference_gamma_reach` (a closure from *every* state).  And
:func:`reference_result_payload`, the dicts ``POST /extract`` ran
``json.dumps`` over before it wrote its body from the tuples' columns
(:func:`repro.serve.http._result_body`), kept as that writer's oracle.
And :func:`reference_token_runs`, the lookaround pattern the token
path scanned each chunk with before it scanned a batch's join with a
character-class prefix (:class:`repro.runtime.fast.TokenPath`).
"""

from __future__ import annotations

import copy
import re
from collections import deque
from dataclasses import dataclass
from itertools import product as iproduct
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Mapping, Optional, Set, Tuple)

from repro.automata.regex import (
    AnySymbol,
    Concat,
    Empty,
    Epsilon,
    Literal,
    RegexNode,
    Star,
    Union_,
)
from repro.automata.compiled import (
    CompiledVSetAutomaton,
    latin1,
    bits,
    compile_vset_automaton,
)
from repro.automata.nfa import EPSILON, NFA
from repro.core.spans import Span, SpanTuple, flat_span_tuple
from repro.index.factors import GRAM, FactorSet
from repro.index.store.segment import text_digest
from repro.serve.service import ServiceResult
from repro.core.composition import splitter_variable
from repro.spanners.refwords import VarOp, gamma
from repro.spanners.regex_formulas import Capture, svars
from repro.spanners.vset_automaton import END_MARKER, VSetAutomaton


def documents_upto(alphabet: Iterable[str], max_length: int) -> Iterator[str]:
    """All documents over ``alphabet`` of length at most ``max_length``."""
    letters = sorted(set(alphabet))
    for length in range(max_length + 1):
        for combo in iproduct(letters, repeat=length):
            yield "".join(combo)


# ----------------------------------------------------------------------
# Compositional regex-formula evaluation
# ----------------------------------------------------------------------

def _match_sets(
    node: RegexNode, document: str, alphabet: FrozenSet[str]
) -> Dict:
    """``result[(i, j)]`` = set of frozen var->span dicts for matches of
    ``node`` against ``document[i:j]`` (0-based slice indices)."""
    n = len(document)
    out: Dict = {}

    def spans_pairs():
        for i in range(n + 1):
            for j in range(i, n + 1):
                yield i, j

    if isinstance(node, Empty):
        return {}
    if isinstance(node, Epsilon):
        return {(i, i): {frozenset()} for i in range(n + 1)}
    if isinstance(node, Literal):
        return {
            (i, i + 1): {frozenset()}
            for i in range(n)
            if document[i] == node.symbol
        }
    if isinstance(node, AnySymbol):
        return {(i, i + 1): {frozenset()} for i in range(n)}
    if isinstance(node, Capture):
        inner = _match_sets(node.inner, document, alphabet)
        for (i, j), assignments in inner.items():
            bucket = out.setdefault((i, j), set())
            for assignment in assignments:
                keys = {k for k, _ in assignment}
                if node.variable in keys:
                    continue  # invalid: variable opened twice
                bucket.add(
                    assignment | {(node.variable, Span(i + 1, j + 1))}
                )
        return out
    if isinstance(node, Union_):
        left = _match_sets(node.left, document, alphabet)
        right = _match_sets(node.right, document, alphabet)
        for source in (left, right):
            for key, assignments in source.items():
                out.setdefault(key, set()).update(assignments)
        return out
    if isinstance(node, Concat):
        left = _match_sets(node.left, document, alphabet)
        right = _match_sets(node.right, document, alphabet)
        for (i, k), left_assignments in left.items():
            for (k2, j), right_assignments in right.items():
                if k != k2:
                    continue
                bucket = out.setdefault((i, j), set())
                for la in left_assignments:
                    left_vars = {v for v, _ in la}
                    for ra in right_assignments:
                        if left_vars & {v for v, _ in ra}:
                            continue  # invalid: duplicated variable
                        bucket.add(la | ra)
        return out
    if isinstance(node, Star):
        if svars(node.inner):
            raise NotImplementedError(
                "reference evaluator only supports variable-free star "
                "bodies (others are non-functional)"
            )
        inner = _match_sets(node.inner, document, alphabet)
        # Reachability: can document[i:j] be tiled by inner matches?
        reach = {i: {i} for i in range(n + 1)}
        for i in range(n + 1):
            frontier = [i]
            while frontier:
                k = frontier.pop()
                for (a, b) in inner:
                    if a == k and b not in reach[i]:
                        reach[i].add(b)
                        frontier.append(b)
        for i in range(n + 1):
            for j in reach[i]:
                out.setdefault((i, j), set()).add(frozenset())
        return out
    raise TypeError(f"unknown node {node!r}")


def ref_eval(node: RegexNode, document: str,
             alphabet: Optional[Iterable[str]] = None) -> Set[SpanTuple]:
    """``[[alpha]](d)`` straight from the compositional definition.

    Only *whole-document* matches count (``clr(r) = d``); partial
    assignments (branches missing a variable) are filtered out, which
    matches the ref-word validity requirement.
    """
    alphabet = frozenset(alphabet or set(document))
    variables = svars(node)
    matches = _match_sets(node, document, alphabet)
    results: Set[SpanTuple] = set()
    for assignment in matches.get((0, len(document)), ()):
        keys = {v for v, _ in assignment}
        if keys == set(variables):
            results.add(SpanTuple(dict(assignment)))
    return results


# ----------------------------------------------------------------------
# Bounded-domain semantic deciders
# ----------------------------------------------------------------------

def semantically_split_correct(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    max_length: int,
) -> bool:
    """``P = P_S o S`` checked on all documents up to ``max_length``."""
    from repro.core.composition import compose_semantics

    alphabet = spanner.doc_alphabet | splitter.doc_alphabet
    for document in documents_upto(alphabet, max_length):
        direct = spanner.evaluate(document)
        composed = compose_semantics(split_spanner.evaluate, splitter,
                                     document)
        if direct != composed:
            return False
    return True


def semantically_covered(
    spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    max_length: int,
) -> bool:
    """The cover condition checked on all bounded documents."""
    from repro.core.composition import splits_of

    alphabet = spanner.doc_alphabet | splitter.doc_alphabet
    for document in documents_upto(alphabet, max_length):
        tuples = spanner.evaluate(document)
        if not tuples:
            continue
        spans = splits_of(splitter, document)
        for t in tuples:
            if not any(t.covered_by(s) for s in spans):
                return False
    return True


def semantically_disjoint(
    splitter: VSetAutomaton, max_length: int
) -> bool:
    """Splitter disjointness checked on all bounded documents."""
    from repro.core.composition import splits_of

    for document in documents_upto(splitter.doc_alphabet, max_length):
        spans = sorted(splits_of(splitter, document),
                       key=lambda s: (s.begin, s.end))
        for i, first in enumerate(spans):
            for second in spans[i + 1 :]:
                if first.overlaps(second):
                    return False
    return True


# ----------------------------------------------------------------------
# The posting index's candidate contract
# ----------------------------------------------------------------------

def admitted_texts(index, factors: FactorSet) -> Set[str]:
    """The live texts of ``index`` its candidate mask admits (id-order
    agnostic, so differently built indexes compare; a ``None`` mask
    answers no condition, and no mask covers a staged text: both admit
    everything)."""
    mask = index.candidates(factors)
    admitted = set()
    for text in index.texts():
        tid = index.text_id(text)
        if mask is None or tid is None or (mask >> tid) & 1:
            admitted.add(text)
    return admitted


def reference_segment_text_id(segment, text: str) -> Optional[int]:
    """Local id of ``text`` in ``segment``, by binary search over its
    byte-sorted texts (``Segment.text_id`` before the index resolved
    texts through its digest map)."""
    needle = text.encode("utf-8")
    low, high = 0, len(segment)
    while low < high:
        mid = (low + high) // 2
        probe = segment.text_bytes(mid)
        if probe < needle:
            low = mid + 1
        elif probe > needle:
            high = mid
        else:
            return mid
    return None


def reference_text_id(index, text: str) -> Optional[int]:
    """``SegmentedIndex.text_id`` as a per-segment byte search: ``None``
    for a tombstoned text, else the first segment holding it, offset by
    the texts of the segments before it."""
    if text_digest(text) in index._tombstones:
        return None
    base = 0
    for segment in index._segments:
        local = reference_segment_text_id(segment, text)
        if local is not None:
            return base + local
        base += len(segment)
    return None


def reference_candidates(texts: Iterable[str],
                         factors: FactorSet) -> Set[str]:
    """The members of ``texts`` an index over them admits for
    ``factors``, by definition: none when the language is empty;
    otherwise those at least ``min_length`` long that contain every
    required factor of gram width, every trigram of each longer one,
    and -- unless shorter than a trigram -- some OR-set trigram."""
    if factors.empty:
        return set()
    needed = set()
    for factor in factors.required:
        if len(factor) <= GRAM:
            needed.add(factor)
        else:
            needed.update(factor[start:start + GRAM]
                          for start in range(len(factor) - GRAM + 1))
    admitted = set()
    for text in texts:
        if len(text) < factors.min_length:
            continue
        if not all(gram in text for gram in needed):
            continue
        if (factors.trigrams is not None and len(text) >= GRAM
                and not any(gram in text for gram in factors.trigrams)):
            continue
        admitted.add(text)
    return admitted


# ----------------------------------------------------------------------
# The splitter executors, one character at a time
# ----------------------------------------------------------------------

def reference_token_runs(text: str, delimiters: str,
                         letters: str) -> List[Tuple[int, int]]:
    """The 0-based ``[start, end)`` of each maximal run of ``letters``
    with a delimiter or an edge of ``text`` on either side, found by
    ``(?<![^D])[I]+(?![^D])``."""
    boundary = "".join(map(re.escape, delimiters))
    pattern = "(?<![^%s])[%s]+(?![^%s])" % (
        boundary, "".join(map(re.escape, letters)), boundary)
    return [match.span() for match in re.finditer(pattern, text)]


def reference_separator_spans(document: str,
                              separators: Iterable[str]) -> List[Span]:
    """Maximal separator-free runs of ``document``."""
    separators = frozenset(separators)
    spans = []
    begin = None
    for index, char in enumerate(document, start=1):
        if char in separators:
            if begin is not None:
                spans.append(Span(begin, index))
                begin = None
        elif begin is None:
            begin = index
    if begin is not None:
        spans.append(Span(begin, len(document) + 1))
    return spans


def reference_sentence_spans(document: str) -> List[Span]:
    """Sentences per the corpus convention (see splitters.builders)."""
    spans = []
    begin = None
    for index, char in enumerate(document, start=1):
        if char == ".":
            if begin is not None:
                spans.append(Span(begin, index + 1))
                begin = None
        elif begin is None and char != " ":
            begin = index
    return spans


def reference_token_ngram_spans(document: str, n: int) -> List[Span]:
    """Windows of ``n`` consecutive space-separated tokens."""
    tokens = reference_separator_spans(document, " ")
    return [Span(tokens[i].begin, tokens[i + n - 1].end)
            for i in range(len(tokens) - n + 1)]


def reference_fixed_window_spans(document: str, width: int) -> List[Span]:
    """Disjoint tiling into blocks of ``width`` characters."""
    return [Span(begin, min(begin + width, len(document) + 1))
            for begin in range(1, len(document) + 1, width)]


# ----------------------------------------------------------------------
# The span before it was a tuple, and the span tuple before it was flat
# ----------------------------------------------------------------------

Variable = Hashable


@dataclass(frozen=True, order=True)
class ReferenceSpan:
    """The frozen-dataclass span ``src/`` used before the tuple-backed
    one, its code verbatim but for its name (doctests dropped): what
    :class:`repro.core.spans.Span` must behave like.  (Its ``repr``
    still says ``Span``, which is what the tuple type's is compared
    with.)"""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if not 1 <= self.begin <= self.end:
            raise ValueError(f"invalid span [{self.begin}, {self.end}>")

    def __repr__(self) -> str:
        return f"Span({self.begin}, {self.end})"

    @property
    def length(self) -> int:
        """Number of characters covered."""
        return self.end - self.begin

    def extract(self, document: str) -> str:
        """The substring ``d[i,j>`` of ``document``."""
        if self.end > len(document) + 1:
            raise ValueError(f"{self!r} is not a span of a document of "
                             f"length {len(document)}")
        return document[self.begin - 1 : self.end - 1]

    def shift(self, context: "ReferenceSpan") -> "ReferenceSpan":
        """The shift operator ``self >> context`` (Section 3)."""
        offset = context.begin - 1
        return ReferenceSpan(self.begin + offset, self.end + offset)

    def __rshift__(self, context: "ReferenceSpan") -> "ReferenceSpan":
        return self.shift(context)

    def unshift(self, context: "ReferenceSpan") -> "ReferenceSpan":
        """Inverse of :meth:`shift`: re-express within ``context``."""
        if not context.contains(self):
            raise ValueError(f"{context!r} does not contain {self!r}")
        offset = context.begin - 1
        return ReferenceSpan(self.begin - offset, self.end - offset)

    def overlaps(self, other: "ReferenceSpan") -> bool:
        """``i <= i' < j`` or ``i' <= i < j'``."""
        return (self.begin <= other.begin < self.end) or (
            other.begin <= self.begin < other.end
        )

    def disjoint(self, other: "ReferenceSpan") -> bool:
        """Negation of :meth:`overlaps`."""
        return not self.overlaps(other)

    def contains(self, other: "ReferenceSpan") -> bool:
        """``[i,j>`` contains ``[i',j'>`` iff ``i <= i' <= j' <= j``."""
        return self.begin <= other.begin and other.end <= self.end


class ReferenceSpanTuple(Mapping[Variable, Span]):
    """The dict-of-:class:`Span` span tuple ``src/`` used before the
    flat one, verbatim but for its name: what
    :class:`repro.core.spans.SpanTuple` must behave like.  (Its
    ``repr`` still says ``SpanTuple``, which is what the flat type's
    is compared with.)"""

    __slots__ = ("_assignment", "_hash")

    def __init__(self, assignment: Mapping[Variable, Span]) -> None:
        self._assignment: Dict[Variable, Span] = dict(assignment)
        self._hash = hash(frozenset(self._assignment.items()))

    def __getitem__(self, variable: Variable) -> Span:
        return self._assignment[variable]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceSpanTuple):
            return self._assignment == other._assignment
        if isinstance(other, Mapping):
            return dict(self._assignment) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        items = ", ".join(
            f"{var!r}: {span!r}" for var, span in sorted(
                self._assignment.items(), key=lambda kv: str(kv[0])
            )
        )
        return f"SpanTuple({{{items}}})"

    def shift(self, context: Span) -> "ReferenceSpanTuple":
        """Component-wise shift ``t >> s`` (Section 3)."""
        return ReferenceSpanTuple(
            {var: span.shift(context) for var, span in self._assignment.items()}
        )

    def __rshift__(self, context: Span) -> "ReferenceSpanTuple":
        return self.shift(context)

    def unshift(self, context: Span) -> "ReferenceSpanTuple":
        """Component-wise inverse shift; ``context`` must cover the tuple."""
        return ReferenceSpanTuple(
            {var: span.unshift(context) for var, span in self._assignment.items()}
        )

    def variables(self) -> Tuple[Variable, ...]:
        return tuple(sorted(self._assignment, key=str))

    def enclosing_span(self) -> Span:
        """The minimal span containing every span of the tuple.

        This is the span ``[i, j>`` from the proof of Lemma 5.3; for the
        empty (0-ary) tuple there is no enclosure and ``ValueError`` is
        raised.
        """
        if not self._assignment:
            raise ValueError("the 0-ary tuple has no enclosing span")
        begin = min(span.begin for span in self._assignment.values())
        end = max(span.end for span in self._assignment.values())
        return Span(begin, end)

    def covered_by(self, span: Span) -> bool:
        """Whether ``span`` contains every span of the tuple (Def 5.2).

        The 0-ary tuple is covered by every span.
        """
        return all(span.contains(s) for s in self._assignment.values())

    def agrees_with(self, other: "ReferenceSpanTuple") -> bool:
        """Whether the tuples agree on their shared variables (join)."""
        return all(
            self._assignment[var] == other[var]
            for var in self._assignment
            if var in other
        )

    def join(self, other: "ReferenceSpanTuple") -> "ReferenceSpanTuple":
        """The combined tuple (requires :meth:`agrees_with`)."""
        if not self.agrees_with(other):
            raise ValueError("tuples disagree on shared variables")
        merged = dict(self._assignment)
        merged.update(other._assignment)
        return ReferenceSpanTuple(merged)


# ----------------------------------------------------------------------
# The kernel's search before it walked runs
# ----------------------------------------------------------------------


def lowered_with_finishable(vsa: VSetAutomaton) -> CompiledVSetAutomaton:
    """``vsa`` lowered as if it were not functional: the kernel builds
    its ``finishable`` table, sweeps it and tests it at every
    all-closed collapse.  Sound for any automaton (for a functional
    one the test just never fails), so results must equal those of
    ``vsa.compiled()`` — and :func:`reference_search` needs the table.
    """
    forced = copy.copy(vsa)
    forced.is_functional = lambda: False
    return compile_vset_automaton(forced)


def reference_search(
    kernel: CompiledVSetAutomaton, document
) -> Tuple[Set[SpanTuple], int]:
    """``(A(d), distinct configurations)`` by the search
    :meth:`CompiledVSetAutomaton.search` replaced: both reverse sweeps,
    then breadth-first over ``(pos, state, status, open variables)``
    with every configuration queued and deduplicated through ``seen``.
    ``kernel`` must hold its ``finishable`` table
    (:func:`lowered_with_finishable`)."""
    initial = kernel.base.initial_id
    data = latin1(document)
    alive = kernel.alive.sweep(document, data)
    if not (alive[0] >> initial) & 1:
        return set(), 0
    finishable = kernel.finishable.sweep(document, data)
    n = len(document)
    variables = kernel.variables
    results: Set[SpanTuple] = set()
    start = (0, initial, (0,) * (2 * len(variables)), len(variables))
    seen = {start}
    queue = deque([start])
    while queue:
        pos, state, status, open_vars = queue.popleft()
        if not open_vars:
            if (finishable[pos] >> state) & 1:
                results.add(flat_span_tuple(variables, status))
            continue
        successors = []
        for slot, is_close, targets in kernel.var_moves[state]:
            if status[slot] or (is_close and not status[slot - 1]):
                continue
            moved = status[:slot] + (pos + 1,) + status[slot + 1:]
            successors += [(pos, target, moved, open_vars - is_close)
                           for target in bits(targets & alive[pos])]
        if pos < n:
            targets = kernel.letter_moves[state].get(document[pos], 0)
            successors += [(pos + 1, target, status, open_vars)
                           for target in bits(targets & alive[pos + 1])]
        for config in successors:
            if config not in seen:
                seen.add(config)
                queue.append(config)
    return results, len(seen)


# ----------------------------------------------------------------------
# The dict-of-sets interpreter the compiled kernel replaced
# ----------------------------------------------------------------------


def accepts_interpreted(nfa: NFA, word) -> bool:
    """Membership by on-the-fly subset simulation over the
    dict-of-sets tables (the reference semantics the compiled
    kernel is validated against; see ``tests/test_compiled.py``)."""
    current = nfa.epsilon_closure({nfa.initial})
    for symbol in word:
        current = nfa.step(current, symbol)
        if not current:
            return False
    return bool(current & nfa.finals)


def evaluate_interpreted(vsa: VSetAutomaton, document) -> Set[SpanTuple]:
    """Reference evaluation over the dict-of-sets NFA tables.

    Configurations are ``(position, state, status)`` where status
    tracks, per variable, whether it is unopened, open since some
    position, or closed over a span.  Kept as the ground truth the
    compiled path is validated against (``tests/test_compiled.py``).
    """
    variables, var_index = vsa.variable_order
    n = len(document)
    vsa.check_document(document)
    finishable = suffix_acceptance(vsa, document)
    initial_status: Tuple = tuple(None for _ in variables)

    def all_closed(status: Tuple) -> bool:
        return all(isinstance(part, Span) for part in status)

    results: Set[SpanTuple] = set()
    start = (0, vsa.nfa.initial, initial_status)
    seen = {start}
    queue = deque([start])
    while queue:
        pos, state, status = queue.popleft()
        if all_closed(status):
            if state in finishable[pos]:
                results.add(
                    SpanTuple(dict(zip(variables, status)))
                )
            continue
        for symbol in vsa.nfa.symbols_from(state):
            if symbol is EPSILON:
                for target in vsa.nfa.successors(state, EPSILON):
                    config = (pos, target, status)
                    if config not in seen:
                        seen.add(config)
                        queue.append(config)
            elif isinstance(symbol, VarOp):
                k = var_index.get(symbol.variable)
                if k is None:
                    continue
                part = status[k]
                if symbol.is_close:
                    if not isinstance(part, int):
                        continue
                    new_part: object = Span(part, pos + 1)
                else:
                    if part is not None:
                        continue
                    new_part = pos + 1
                new_status = status[:k] + (new_part,) + status[k + 1 :]
                for target in vsa.nfa.successors(state, symbol):
                    config = (pos, target, new_status)
                    if config not in seen:
                        seen.add(config)
                        queue.append(config)
            elif pos < n and symbol == document[pos]:
                for target in vsa.nfa.successors(state, symbol):
                    config = (pos + 1, target, status)
                    if config not in seen:
                        seen.add(config)
                        queue.append(config)
    return results


def suffix_acceptance(vsa: VSetAutomaton, document) -> List[FrozenSet]:
    """``finishable[p]``: states that can accept ``document[p:]``
    using only letters and epsilon moves (no variable operations)."""
    n = len(document)
    reverse_eps: Dict = {}
    for source, symbol, target in vsa.nfa.transitions():
        if symbol is EPSILON:
            reverse_eps.setdefault(target, []).append(source)

    def backward_eps_closure(states: Set) -> FrozenSet:
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for prev in reverse_eps.get(state, ()):
                if prev not in closure:
                    closure.add(prev)
                    stack.append(prev)
        return frozenset(closure)

    tables: List[FrozenSet] = [frozenset()] * (n + 1)
    tables[n] = backward_eps_closure(set(vsa.nfa.finals))
    for pos in range(n - 1, -1, -1):
        symbol = document[pos]
        direct = {
            state
            for state in vsa.nfa.states
            if vsa.nfa.successors(state, symbol) & tables[pos + 1]
        }
        tables[pos] = backward_eps_closure(direct)
    return tables


# ----------------------------------------------------------------------
# Certification's constructions before they built only what is reachable
# ----------------------------------------------------------------------


def reference_compose(
    spanner: VSetAutomaton, splitter: VSetAutomaton
) -> VSetAutomaton:
    """``spanner o splitter`` as Lemma C.2 states it: every
    ``("mid", q_S, q_P)`` transition of the full product is emitted,
    whether or not a run reaches it, and ``trim`` discards the rest
    (``core/composition.py::compose`` before it explored forward)."""
    if splitter_variable(splitter) in spanner.variables:
        splitter = splitter.rename_variables(
            {splitter_variable(splitter): ("xS-fresh",)}
        )
    s_nfa = splitter.valid_ref_nfa().trim()
    p_nfa = spanner.nfa
    x = splitter_variable(splitter)
    open_x = VarOp(x, False)
    close_x = VarOp(x, True)
    doc_alphabet = spanner.doc_alphabet | splitter.doc_alphabet
    variables = spanner.variables
    alphabet = doc_alphabet | gamma(variables)

    transitions = []
    states = set()

    def pre(q):
        return ("pre", q)

    def mid(q, p):
        return ("mid", q, p)

    def post(q):
        return ("post", q)

    for source, symbol, target in s_nfa.transitions():
        if symbol is EPSILON:
            transitions.append((pre(source), EPSILON, pre(target)))
            transitions.append((post(source), EPSILON, post(target)))
            for p in p_nfa.states:
                transitions.append((mid(source, p), EPSILON, mid(target, p)))
        elif symbol == open_x:
            transitions.append(
                (pre(source), EPSILON, mid(target, p_nfa.initial))
            )
        elif symbol == close_x:
            for p in p_nfa.finals:
                transitions.append((mid(source, p), EPSILON, post(target)))
        elif isinstance(symbol, VarOp):
            # A functional splitter has no other variable operations.
            continue
        else:
            transitions.append((pre(source), symbol, pre(target)))
            transitions.append((post(source), symbol, post(target)))
            for p_source, p_symbol, p_target in p_nfa.transitions():
                if p_symbol == symbol:
                    transitions.append(
                        (mid(source, p_source), symbol, mid(target, p_target))
                    )

    # Inside the split, P's epsilon moves and variable operations happen
    # while the splitter stands still.
    for q in s_nfa.states:
        for p_source, p_symbol, p_target in p_nfa.transitions():
            if p_symbol is EPSILON or isinstance(p_symbol, VarOp):
                transitions.append(
                    (mid(q, p_source), p_symbol, mid(q, p_target))
                )

    initial = pre(s_nfa.initial)
    finals = {post(q) for q in s_nfa.finals}
    states.update([initial])
    states.update(finals)
    nfa = NFA(alphabet, states, initial, finals, transitions).trim()
    composed = VSetAutomaton(doc_alphabet, variables, nfa)
    return composed.relabel()


def reference_gamma_reach(
    base: NFA,
) -> Dict[Tuple[Hashable, FrozenSet[VarOp]], Set[Hashable]]:
    """For each state ``p`` of ``base``: which states are reachable via
    variable operations and epsilon moves, grouped by the exact op-set
    used (``VSetAutomaton._gamma_reach``).  ``base`` must already be
    validity-filtered, so no operation can repeat along a path."""
    reach: Dict[Tuple[Hashable, FrozenSet[VarOp]], Set[Hashable]] = {}
    for origin in base.states:
        seen = {(origin, frozenset())}
        queue = deque(seen)
        while queue:
            state, ops = queue.popleft()
            reach.setdefault((origin, ops), set()).add(state)
            for symbol in base.symbols_from(state):
                if symbol is EPSILON:
                    item = (state, ops)
                    for target in base.successors(state, EPSILON):
                        item = (target, ops)
                        if item not in seen:
                            seen.add(item)
                            queue.append(item)
                elif isinstance(symbol, VarOp):
                    if symbol in ops:
                        continue
                    new_ops = ops | {symbol}
                    for target in base.successors(state, symbol):
                        item = (target, new_ops)
                        if item not in seen:
                            seen.add(item)
                            queue.append(item)
    return reach


def reference_extended_nfa(vsa: VSetAutomaton) -> NFA:
    """The canonical block-form NFA of ``vsa`` built from the closure
    of every state and trimmed afterwards
    (``VSetAutomaton._build_extended_nfa`` before it started closures
    only where blocks start)."""
    base = vsa.valid_ref_nfa().trim()
    reach = reference_gamma_reach(base)
    accept = ("ext-accept",)
    transitions = []
    alphabet = set()
    for (origin, ops), mids in reach.items():
        for mid in mids:
            for symbol in base.symbols_from(mid):
                if symbol is EPSILON or isinstance(symbol, VarOp):
                    continue
                label = (ops, symbol)
                alphabet.add(label)
                for target in base.successors(mid, symbol):
                    transitions.append((origin, label, target))
            if mid in base.finals:
                label = (ops, END_MARKER)
                alphabet.add(label)
                transitions.append((origin, label, accept))
    states = set(base.states) | {accept}
    return NFA(alphabet, states, base.initial, {accept}, transitions).trim()


# ----------------------------------------------------------------------
# The served JSON as dicts
# ----------------------------------------------------------------------

def reference_result_payload(result: ServiceResult) -> Dict[str, object]:
    """JSON shape of a served result: tuples as ``{var: [begin, end]}``
    per document, plus the per-query timing the service measured
    (``serve/http.py``'s ``_result_payload`` before the body was
    written from the columns)."""
    documents: Dict[str, list] = {}
    for doc_id, tuples in result.by_document.items():
        # A document's tuples share their variables, so their flat
        # positions order them as the rows' sorted items would.
        documents[doc_id] = [
            {str(variable): [begin, end]
             for variable, begin, end in span_tuple.columns()}
            for span_tuple in sorted(tuples, key=SpanTuple.positions)
        ]
    return {
        "tenant": result.tenant,
        "tuples": result.total_tuples,
        "documents": documents,
        "queue_seconds": result.queue_seconds,
        "run_seconds": result.run_seconds,
    }
