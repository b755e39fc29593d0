"""Fast executable splitters and extractors.

The decision procedures reason over VSet-automata, but a production
system executes splitters and extractors with specialized code (the
paper's SystemT/Xlog primitives).  This module provides such compiled
implementations, each paired with the VSet-automaton *specification*
it implements, so that:

* the planner reasons on the automaton (split-correctness etc.);
* the executor runs the fast implementation;
* the test-suite checks the two agree on generated documents.

The paper's plan ``P = P_S o S`` only pays off when the splitting
operation ``S`` is far cheaper than the extractor it feeds, so the
splitters here never touch a character from Python: each is a
precompiled :mod:`re` pattern driven by ``finditer`` (or plain
arithmetic) yielding chunk offsets, from which spans and texts are
taken together.  :mod:`repro.splitters.builders` pairs every registry
name with its scanner.  So does the chunk runner of a token-local
spanner (:class:`TokenPath`).
"""

from __future__ import annotations

import copy
import re
import sys
import time
from bisect import bisect_right
from itertools import accumulate
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.automata.compiled import (CompiledNFA, count_evaluations,
                                     latin1, letter_byte)
from repro.automata.containment import UNDECIDED
from repro.automata.nfa import EPSILON, NFA
from repro.core.spans import Span, SpanTuple, flat_span_tuple, trusted_span
from repro.spanners.containment import equivalence_witness
from repro.spanners.determinism import MAX_DETERMINISED_SUBSETS
from repro.spanners.refwords import Close, Open
from repro.spanners.vset_automaton import VSetAutomaton

#: Subset pairs each direction of the token path's equivalence proof
#: may explore before the path is refused as undecided: lowering runs
#: inside certification, so the PSPACE check must stay bounded (at the
#: limit it takes about 45 ms on a two-vCPU host; the ledger programs'
#: proofs need 15-17 pairs).
MAX_TOKEN_PROOF_PAIRS = 2000

#: The most characters one join of :meth:`TokenPath.scan` holds; a
#: text at or above it is scanned alone, so a whole-document plan over
#: large documents never copies its batch.
MAX_SCAN_CHARS = 1 << 16


class FastSplitter:
    """Base class: a splitter executed by a compiled scanner.

    A subclass defines one thing, :meth:`bounds` — the 0-based
    ``[start, end)`` offsets of the document's chunks, found at C speed
    (a precompiled :mod:`re` pattern or plain arithmetic).  Everything
    the runtime consumes is read off those offsets here, so the spans,
    the texts and the fused ``(span, text)`` pairs cannot disagree.
    """

    #: The variable name used by the specification automaton.
    variable = "x"
    #: What the scanner matches, for ``explain()["splitter_executor"]``.
    pattern = ""
    #: The specification's document alphabet when the executor is bound
    #: to one (:meth:`over`); documents are then checked against it.
    alphabet: Optional[FrozenSet[str]] = None

    def bounds(self, document: str) -> Iterable[Tuple[int, int]]:
        """The chunks' 0-based ``[start, end)`` offsets, in order, each
        with ``0 <= start <= end <= len(document)``: the spans are
        built from them unchecked (:func:`repro.core.spans.
        trusted_span`)."""
        raise NotImplementedError

    def automaton(self, alphabet: Iterable[str]) -> VSetAutomaton:
        """The VSet-automaton specification over ``alphabet``."""
        raise NotImplementedError

    def over(self, alphabet: Iterable[str]) -> "FastSplitter":
        """This scanner bound to the specification alphabet: a
        document with any other symbol raises :class:`ValueError`, as
        evaluating the specification automaton on it would."""
        bound = copy.copy(self)
        bound.alphabet = frozenset(alphabet)
        return bound

    def _scan(self, document: str) -> Iterable[Tuple[int, int]]:
        if self.alphabet is not None:
            unknown = set(document) - self.alphabet
            if unknown:
                raise ValueError(f"document symbol {min(unknown)!r} not in "
                                 f"alphabet")
        return self.bounds(document)

    def chunks_of(self, document: str) -> List[Tuple[Span, str]]:
        """Every chunk as ``(span, text)``, both from the same offsets
        — no second bounds check and slice per chunk."""
        return [(trusted_span(start + 1, end + 1), document[start:end])
                for start, end in self._scan(document)]

    def splits(self, document: str) -> List[Span]:
        return [trusted_span(start + 1, end + 1)
                for start, end in self._scan(document)]

    def chunks(self, document: str) -> List[str]:
        return [document[start:end] for start, end in self._scan(document)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pattern!r})"


class FastSeparatorSplitter(FastSplitter):
    """Maximal separator-free runs (tokenizer, paragraphs, records)."""

    def __init__(self, separators: str) -> None:
        if not separators:
            raise ValueError("need at least one separator character")
        self.separators = frozenset(separators)
        self.pattern = "[^%s]+" % "".join(
            map(re.escape, sorted(self.separators)))
        self._finditer = re.compile(self.pattern).finditer

    def bounds(self, document: str) -> Iterable[Tuple[int, int]]:
        return map(re.Match.span, self._finditer(document))

    def automaton(self, alphabet: Iterable[str]) -> VSetAutomaton:
        from repro.splitters.builders import separator_splitter

        return separator_splitter(alphabet, self.separators, self.variable)


class FastSentenceSplitter(FastSplitter):
    """Sentences per the corpus convention (see splitters.builders)."""

    pattern = r"[^ .][^.]*\."
    _finditer = re.compile(pattern).finditer

    def bounds(self, document: str) -> Iterable[Tuple[int, int]]:
        # Scanning stops at the last period: before it every sentence
        # start finds its terminator, so each character is visited
        # once; past it ``[^.]*`` would run to the end of the document
        # and back from every start of a period-free tail.
        return map(re.Match.span,
                   self._finditer(document, 0, document.rfind(".") + 1))

    def automaton(self, alphabet: Iterable[str]) -> VSetAutomaton:
        from repro.splitters.builders import sentence_splitter

        return sentence_splitter(alphabet, self.variable)


class FastTokenNgramSplitter(FastSplitter):
    """Windows of ``n`` consecutive space-separated tokens."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self._tokens = FastSeparatorSplitter(" ")
        self.pattern = f"{n} consecutive {self._tokens.pattern}"

    def bounds(self, document: str) -> Iterable[Tuple[int, int]]:
        tokens = list(self._tokens.bounds(document))
        return [(first[0], last[1])
                for first, last in zip(tokens, tokens[self.n - 1:])]

    def automaton(self, alphabet: Iterable[str]) -> VSetAutomaton:
        from repro.splitters.builders import token_ngram_splitter

        return token_ngram_splitter(alphabet, self.n, self.variable)


class FastFixedWindowSplitter(FastSplitter):
    """Disjoint tiling into blocks of ``width`` characters."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self.pattern = f"every {width} characters"

    def bounds(self, document: str) -> Iterable[Tuple[int, int]]:
        length, width = len(document), self.width
        return [(start, min(start + width, length))
                for start in range(0, length, width)]

    def automaton(self, alphabet: Iterable[str]) -> VSetAutomaton:
        from repro.splitters.builders import fixed_window_splitter

        return fixed_window_splitter(alphabet, self.width, self.variable)


class FastWholeSplitter(FastSplitter):
    """The trivial splitter: the whole document is the one chunk."""

    pattern = "whole document"

    def bounds(self, document: str) -> Iterable[Tuple[int, int]]:
        return [(0, len(document))]

    def automaton(self, alphabet: Iterable[str]) -> VSetAutomaton:
        from repro.splitters.builders import whole_document_splitter

        return whole_document_splitter(alphabet, self.variable)


class RegexSpanner:
    """An extractor executed with Python's ``re`` engine.

    ``pattern`` uses named groups — one per span variable; every match
    (including overlapping ones, found via lookahead scanning) yields a
    tuple of the groups' spans.  ``specification`` optionally carries
    the equivalent VSet-automaton for the reasoning procedures; the
    test-suite validates the pair on sampled documents.
    """

    def __init__(
        self,
        pattern: str,
        specification: Optional[VSetAutomaton] = None,
        cost: Callable[[str], None] = None,
    ) -> None:
        self._regex = re.compile(pattern)
        self.variables = frozenset(self._regex.groupindex)
        if not self.variables:
            raise ValueError("pattern needs at least one named group")
        self.specification = specification
        self._cost = cost

    def svars(self):
        return self.variables

    def evaluate(self, document: str) -> Set[SpanTuple]:
        results: Set[SpanTuple] = set()
        start = 0
        while start <= len(document):
            match = self._regex.search(document, start)
            if match is None:
                break
            assignment = {}
            complete = True
            for name in self.variables:
                begin, end = match.span(name)
                if begin < 0:
                    complete = False
                    break
                assignment[name] = trusted_span(begin + 1, end + 1)
            if complete:
                results.add(SpanTuple(assignment))
            if self._cost is not None:
                self._cost(match.group(0))
            start = match.start() + 1
        return results


class TokenPath:
    """The chunk runner of a *token-local* unary spanner, evaluated by
    :mod:`re`.

    Such a spanner is ``C = (ε | Σ*D) · y{T} · (ε | DΣ*)`` with
    ``T ⊆ (Σ∖D)+``: its tuples are exactly the maximal ``D``-free runs
    (tokens) whose text is in ``T``.  :meth:`scan` answers a whole batch
    of texts with one ``finditer`` over their join, which finds the
    tokens made only of ``T``'s letters ``I`` that begin with a letter
    a word of ``T`` can begin with; each distinct token text of the
    batch is tested against ``T``'s compiled automaton once; :meth:`scan`
    builds tuples, :meth:`columns` a pool reply's ints.  Only
    :func:`token_path` builds one, after proving the spanner equal to ``C``.
    """

    def __init__(self, variables: Tuple, delimiters: str, letters: str,
                 initials: str, captured: CompiledNFA, alphabet: bytes,
                 check: Callable[[str], None]) -> None:
        self.variables = variables
        self.delimiters = delimiters
        self.letters = letters
        self.captured = captured
        #: The alphabet guard: the alphabet's single-byte letters, and
        #: the specification's ``check_document`` for what they miss.
        self._alphabet = alphabet
        self._check = check
        boundary, run, initial = ("".join(map(re.escape, chars)) for chars
                                  in (delimiters, letters, initials))
        # A letter a word of T can begin with, not preceded by a
        # non-delimiter, then the rest of the run of I up to a delimiter
        # or the end: the class prefix (a literal one for one letter)
        # lets sre skip ahead, and the lookbehind has a fixed width.
        self._finditer = re.compile("[%s](?<![^%s][%s])[%s]*(?![^%s])" % (
            initial, boundary, initial, run, boundary)).finditer

    def _matches(self, texts: Sequence[str]) -> List[tuple]:
        """Each tuple as ``(i, (begin, end))``, its span in ``texts[i]``.

        The texts are joined with the first delimiter, which reads
        exactly like a text's edge, into joins of fewer than
        :data:`MAX_SCAN_CHARS` characters (a longer text alone,
        uncopied).  When a join holds a byte outside the alphabet,
        ``check_document`` runs on its texts in order."""
        # ``starts[i]``: where text ``i`` would begin in the join of
        # them all; ``starts[-1]`` is one past the last separator.
        starts = [0, *accumulate(len(text) + 1 for text in texts)]
        memo: Dict[str, bool] = {}
        accepts = self.captured.accepts
        join = self.delimiters[0].join
        found: List[tuple] = []
        first = 0
        while first < len(texts):
            base = starts[first]
            last = max(first + 1, bisect_right(
                starts, base + MAX_SCAN_CHARS, first + 1) - 1)
            joined = join(texts[first:last])
            data = latin1(joined)
            if data is None or data.translate(None, self._alphabet):
                for text in texts[first:last]:
                    self._check(text)
            index, offset, limit = first, 0, starts[first + 1] - base
            for match in self._finditer(joined):
                token = match.group()
                member = memo.get(token)
                if member is None:
                    member = memo[token] = accepts(token)
                if member:
                    start = match.start()
                    while start >= limit:
                        index += 1
                        offset, limit = limit, starts[index + 1] - base
                    start -= offset - 1
                    found.append((index, (start, start + len(token))))
            first = last
        return found

    def scan(self, texts: Sequence[str]) -> List[Set[SpanTuple]]:
        """The spanner's tuples on each of ``texts``, in order."""
        results: List[Set[SpanTuple]] = [set() for _ in texts]
        variables = self.variables
        for index, pair in self._matches(texts):
            results[index].add(flat_span_tuple(variables, pair))
        return results

    def columns(self, texts: Sequence[str]) -> List[list]:
        """:meth:`scan`'s answer as a pool reply's columns, from the
        ints: ``[(variables, (b1, e1, ...))]`` per text, ``[]`` if none."""
        ints: List[List[int]] = [[] for _ in texts]
        for index, pair in self._matches(texts):
            ints[index] += pair
        return [[(self.variables, tuple(found))] if found else []
                for found in ints]


def alphabet_bytes(alphabet: Iterable) -> bytes:
    """The alphabet's single-byte letters, as ``bytes.translate``
    deletes them."""
    return bytes(sorted(byte for byte in map(letter_byte, alphabet)
                        if byte is not None))


def token_path(specification: VSetAutomaton):
    """``(TokenPath, None)`` when ``specification`` is proved
    token-local, else ``(None, why not)``.

    Read off the (trimmed) automaton: ``D``, the letters read
    immediately before an open or after a close; ``T``, the letter
    moves between the opens' targets and the closes' sources; ``I``,
    ``T``'s letters.  When ``D`` is non-empty and disjoint from ``I``
    and ``ε ∉ T``, the candidate ``C`` above is built and admitted
    only if :func:`repro.spanners.containment.equivalence_witness`
    proves ``specification ≡ C`` within :data:`MAX_TOKEN_PROOF_PAIRS`
    subset pairs a direction.  A wrong ``D`` or ``T`` can only fail the
    proof: it costs the admission, never a tuple.
    """
    alphabet = specification.doc_alphabet
    if len(specification.variables) != 1:
        return None, "not unary"
    if not all(type(letter) is str and len(letter) == 1
               for letter in alphabet):
        return None, "non-character alphabet"
    (variable,) = specification.variables
    opening, closing = Open(variable), Close(variable)
    nfa = specification.nfa.trim()
    closure = nfa.epsilon_closure
    opens = {source for source, symbol, _ in nfa.transitions()
             if symbol == opening}
    delimiters: Set[str] = set()
    entry = ("token path entry",)
    captured_moves = []
    for source, symbol, target in nfa.transitions():
        if symbol == opening:
            captured_moves.append((entry, EPSILON, target))
        elif symbol == closing:
            for state in closure((target,)):
                delimiters.update(letter for letter in nfa.symbols_from(state)
                                  if letter in alphabet)
        elif symbol is EPSILON or symbol in alphabet:
            captured_moves.append((source, symbol, target))
            if symbol is not EPSILON and opens & closure((target,)):
                delimiters.add(symbol)
    closes = {source for source, symbol, _ in nfa.transitions()
              if symbol == closing}
    captured = NFA(alphabet, (), entry, closes, captured_moves).trim()
    letters = {symbol for _, symbol, _ in captured.transitions()
               if symbol is not EPSILON}
    initials = {symbol for state in captured.epsilon_closure((entry,))
                for symbol in captured.symbols_from(state)} - {EPSILON}
    if captured.accepts(()):
        return None, "a capture can be empty"
    if not letters:
        return None, "empty captured language"
    if not delimiters:
        return None, "no delimiter before an open or after a close"
    if delimiters & letters:
        return None, ("a capture can read a delimiter: "
                      + repr("".join(sorted(delimiters & letters))))
    candidate = _token_candidate(alphabet, variable, delimiters, captured)
    witness = equivalence_witness(specification, candidate,
                                  MAX_TOKEN_PROOF_PAIRS)
    if witness is UNDECIDED:
        return None, (f"undecided: equivalence proof passed "
                      f"{MAX_TOKEN_PROOF_PAIRS} subset pairs")
    if witness is not None:
        document, differing = witness
        return None, (f"not token-local: differs on document "
                      f"{''.join(document)!r}, tuple {differing}")
    path = TokenPath((variable,), "".join(sorted(delimiters)),
                     "".join(sorted(letters)), "".join(sorted(initials)),
                     captured.compiled(),
                     alphabet_bytes(alphabet), specification.check_document)
    return path, None


def _token_candidate(alphabet, variable, delimiters, captured: NFA,
                     ) -> VSetAutomaton:
    """``(ε | Σ*D) · variable{captured} · (ε | DΣ*)`` over
    ``alphabet``."""
    moves = [("start", EPSILON, "open"), ("start", EPSILON, "before"),
             ("open", Open(variable), ("T", captured.initial))]
    moves += [(("T", final), Close(variable), "closed")
              for final in captured.finals]
    moves += [(("T", source), symbol, ("T", target))
              for source, symbol, target in captured.transitions()]
    for letter in alphabet:
        moves += [("before", letter, "before"), ("after", letter, "after")]
    for letter in delimiters:
        moves += [("before", letter, "open"), ("closed", letter, "after")]
    operations = {Open(variable), Close(variable)}
    nfa = NFA(alphabet | operations, (), "start", ("closed", "after"), moves)
    return VSetAutomaton(alphabet, (variable,), nfa)


class CompiledSpanner:
    """A VSet-automaton pinned to its compiled kernel artifact.

    Produced when a plan is certified (:meth:`repro.runtime.planner.
    Plan.lower`) or when the engine resolves a program's chunk runner:
    the specification is lowered onto the integer/bitset IR of
    :mod:`repro.automata.compiled` exactly once, and every chunk
    evaluation — in-process or on a pool worker that received this
    object by pickling — runs against the same artifact.

    Lowering decides the **token path** (:func:`token_path`): a unary
    spanner proved equal to ``(ε | Σ*D) · y{T} · (ε | DΣ*)`` answers a
    batch of ``str`` chunks with one alphabet guard, one ``re`` scan
    over their join and a membership test per distinct token text
    (:meth:`TokenPath.scan`), never calling the search; a refused
    spanner says why in ``describe()["token_path"]``.  Any other batch
    runs chunk by chunk: the alphabet guard, step 0, the search.

    Lowering also fixes **step 0**, for the search: the conditions of the specification's
    :class:`repro.index.factors.FactorSet` that need no Python loop —
    empty matching language, ``min_length``, every ``required``
    literal tested with ``in`` — answer a chunk before the kernel
    sweeps a byte.  They are necessary conditions on documents over
    the alphabet, so they run after
    :meth:`~repro.spanners.vset_automaton.VSetAutomaton.check_document`
    (a chunk with a foreign symbol keeps its ``ValueError``) and only
    on ``str`` documents.  The scan's answer implies theirs, so the
    token path skips them.  ``VSetAutomaton.evaluate`` — what
    ``evaluate_whole`` runs, the oracle of every differential — takes
    neither step.

    What is lowered is the specification's deterministic functional
    equivalent (:meth:`~repro.spanners.vset_automaton.VSetAutomaton.
    determinized`, Proposition 4.4): one successor per letter, so the
    kernel's main line runs up to the first place a capture could begin
    instead of stopping at the first byte two parallel ``.*`` states
    both read.  When the subset construction passes its cap the
    specification is lowered as given, through the same search;
    ``describe()["determinised"]`` says which.  ``VSetAutomaton.
    evaluate`` keeps lowering the automaton as given, so every
    differential against it compares two different automata.
    """

    def __init__(self, specification: VSetAutomaton) -> None:
        self.specification = specification
        determinised = specification.determinized()
        lowered = specification if determinised is None else determinised
        before = lowered.lowerings
        self._kernel = lowered.compiled()
        #: Whether constructing this wrapper actually lowered the
        #: automaton (vs. reusing its cached artifact) — what the
        #: engine's ``artifacts_compiled`` counter records.
        self.freshly_lowered = lowered.lowerings > before
        self._determinised = (
            f"kept: subset states > {MAX_DETERMINISED_SUBSETS}"
            if determinised is None else
            {"from": specification.state_count(),
             "to": determinised.state_count()})
        self._letters = alphabet_bytes(specification.doc_alphabet)
        factors = specification.factor_set()
        #: Step 0: a ``str`` chunk shorter than ``_min_length`` or
        #: lacking one of ``_required`` has no tuple.
        self._required: Tuple[str, ...] = ()
        self._min_length = 0
        if factors is None:
            self._required_reason: Optional[str] = "non-character alphabet"
        elif factors.empty:
            self._min_length = sys.maxsize
            self._required_reason = "empty matching language"
        else:
            self._required = factors.required
            self._min_length = factors.min_length
            self._required_reason = (None if factors.required
                                     else "no required literal")
        #: The token path (:func:`token_path`) for batches of ``str``
        #: chunks, or ``None`` and why it was refused.
        self._tokens, self._token_refusal = specification.token_path()

    def svars(self):
        return self.specification.svars()

    @property
    def on_token_path(self) -> bool:
        """Whether a batch of ``str`` texts takes the token path."""
        return self._tokens is not None

    def evaluate(self, document: str) -> Set[SpanTuple]:
        return self.evaluate_batch((document,))[0]

    def evaluate_batch(self, documents, latency=None) -> List[Set[SpanTuple]]:
        """Evaluate many chunk texts through the kernel in one call.

        The batch entry the scheduler (and pool workers) feed whole
        missing-chunk batches into; ``latency`` is an optional
        histogram that receives every document's seconds in one
        ``observe_many`` (the engine's ``engine.chunk_eval_seconds``)
        without a second dispatch layer — on the token path, the
        scan's mean share each.  The kernel counters are bumped once
        for the batch.
        """
        clock = time.perf_counter
        tokens = self._tokens
        if tokens is not None and {*map(type, documents)} == {str}:
            return self._scanned(tokens.scan, documents, latency)
        check = self.specification.check_document
        letters = self._letters
        search = self._kernel.search
        required = self._required
        min_length = self._min_length
        results = []
        append = results.append
        rejected = visited_total = main_line_total = swept_total = 0
        seconds: List[float] = []
        for document in documents:
            if latency is not None:
                started = clock()
            # The alphabet guard on the bytes the kernel sweeps anyway:
            # deleting the alphabet's letters must leave nothing.
            data = latin1(document)
            if data is None or data.translate(None, letters):
                check(document)
            # Step 0: text too short, or lacking a required literal.
            hopeless = False
            if type(document) is str:
                hopeless = len(document) < min_length
                for literal in required:
                    if literal not in document:
                        hopeless = True
                        break
            if hopeless:
                found = set()
                rejected += 1
            else:
                found, visited, main_line, swept = search(document, data)
                main_line_total += main_line
                swept_total += swept
                if visited:
                    visited_total += visited
                else:
                    rejected += 1
            if latency is not None:
                seconds.append(clock() - started)
            append(found)
        if seconds:
            latency.observe_many(seconds)
        count_evaluations(rejected, visited_total, main_line_total,
                          swept_total)
        return results

    def scan_columns(self, documents, latency=None) -> Optional[List[list]]:
        """:meth:`evaluate_batch`'s answer as a pool reply's columns
        (:meth:`TokenPath.columns`); ``None`` off the token path."""
        if self._tokens is None or {*map(type, documents)} != {str}:
            return None
        return self._scanned(self._tokens.columns, documents, latency)

    @staticmethod
    def _scanned(scan, documents, latency) -> list:
        """``scan(documents)``, timed into ``latency`` and counted."""
        started = time.perf_counter()
        results = scan(documents)
        if latency is not None:
            share = (time.perf_counter() - started) / len(results)
            latency.observe_many([share] * len(results))
        count_evaluations(len(results) - sum(map(bool, results)), 0, 0, 0)
        return results

    def describe(self) -> Dict[str, object]:
        """What lowering decided, for ``explain()["kernel"]``: the
        kernel's tier and sweeps, whether the automaton was
        determinised (its state counts before and after) or why it was
        kept, the literals step 0 tests first (or why it tests none),
        and the ``path`` a ``str`` chunk past step 0 takes —
        ``"token"`` with the token path's delimiters ``D`` and letters
        ``I``, or ``"search"`` with why the token path was refused."""
        report = self._kernel.describe()
        report["determinised"] = self._determinised
        report["required"] = list(self._required)
        report["required_reason"] = self._required_reason
        tokens = self._tokens
        report["path"] = "search" if tokens is None else "token"
        report["token_path"] = (
            f"refused: {self._token_refusal}" if tokens is None else
            {"delimiters": tokens.delimiters, "letters": tokens.letters})
        return report

    def __repr__(self) -> str:
        return f"CompiledSpanner({self.specification!r})"
