"""The engine's two-level cache: certified plans and chunk results.

Corpus-scale extraction repeats two kinds of work that the paper's
framework makes safely cacheable:

* **Certification.**  Deciding split-correctness is PSPACE-complete in
  general (Theorem 5.1); once ``P = P_S o S`` is certified, the
  certificate stays valid for every document.  The :class:`PlanCache`
  memoizes :class:`repro.runtime.planner.CertifiedPlan` objects keyed
  by a *fingerprint* of the (spanner, splitter registry) pair, so the
  decision procedures run exactly once per program.  Certificates also
  carry the plan's **compiled kernel artifact** (the split spanner
  lowered onto the integer/bitset IR of
  :mod:`repro.automata.compiled` at certify time), so cache hits
  replay both the decision and the lowering — chunk runners, including
  the forked pool workers that inherit the certificate's runner, never
  re-lower.

* **Chunk extraction.**  Real corpora repeat chunks — boilerplate
  sentences, shared records, quoted passages.  Because a split-correct
  plan evaluates each chunk independently of its context, equal chunk
  *texts* have equal (unshifted) results, and the :class:`ChunkCache`
  evaluates each distinct text once per program — across documents,
  and across versions of one document (``run_delta``).  It also keeps
  each document's merged relation, so a repeated document is one probe.

Fingerprints are structural, not ``id``-based: two separately
constructed but identically shaped VSet-automata fingerprint alike
(states are canonically renumbered by a breadth-first traversal), so
cache hits survive re-compilation of the same program.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from itertools import count
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.spans import Span, SpanTuple
from repro.runtime.planner import CertifiedPlan, Planner, RegisteredSplitter
from repro.spanners.vset_automaton import VSetAutomaton


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


def _canonical_automaton(automaton: VSetAutomaton) -> str:
    """A serialization invariant under state renaming.

    States reachable from the initial state are renumbered in
    breadth-first order, visiting transition labels in sorted-``repr``
    order, so two automata that differ only in state identities (or in
    the traversal order their builder happened to use) serialize
    identically.
    """
    nfa = automaton.nfa
    numbering: Dict[object, int] = {nfa.initial: 0}
    queue = deque([nfa.initial])
    transitions: List[Tuple[int, str, int]] = []
    while queue:
        state = queue.popleft()
        source = numbering[state]
        for symbol in sorted(nfa.symbols_from(state), key=repr):
            successors = sorted(nfa.successors(state, symbol), key=repr)
            for target in successors:
                if target not in numbering:
                    numbering[target] = len(numbering)
                    queue.append(target)
                transitions.append((source, repr(symbol), numbering[target]))
    finals = sorted(
        numbering[state] for state in nfa.finals if state in numbering
    )
    return repr((
        sorted(map(repr, automaton.doc_alphabet)),
        sorted(map(repr, automaton.variables)),
        sorted(transitions),
        finals,
    ))


def _canonical_value(value: object) -> str:
    """A container-order-insensitive serialization of an attribute.

    ``repr`` alone is unstable exactly where Python containers are:
    ``dict`` preserves insertion order and ``frozenset``/``set`` repr
    in iteration order, so two structurally identical programs built
    in different orders would describe (and fingerprint) differently —
    silently duplicating certification.  Dicts serialize by sorted
    key, sets by sorted element; tuples and lists keep their
    (meaningful) order with elements canonicalized recursively.  A
    :class:`Span` is a tuple too, but serializes as its ``repr``: it
    must not describe like the plain pair ``(begin, end)``.
    """
    if isinstance(value, dict):
        items = sorted(
            (_canonical_value(key), _canonical_value(item))
            for key, item in value.items()
        )
        return "dict{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (frozenset, set)):
        return ("set{" + ",".join(sorted(_canonical_value(item)
                                         for item in value)) + "}")
    if isinstance(value, Span):
        return repr(value)
    if isinstance(value, tuple):
        return ("tuple(" + ",".join(_canonical_value(item)
                                    for item in value) + ")")
    if isinstance(value, list):
        return ("list[" + ",".join(_canonical_value(item)
                                   for item in value) + "]")
    return repr(value)


def _describe(program: object) -> str:
    """A stable structural description of a spanner or splitter."""
    if isinstance(program, VSetAutomaton):
        return "vsa:" + _canonical_automaton(program)
    own_fingerprint = getattr(program, "fingerprint", None)
    if callable(own_fingerprint):
        return f"custom:{own_fingerprint()}"
    pattern = getattr(program, "_regex", None)
    if pattern is not None and hasattr(pattern, "pattern"):
        return f"regex:{type(program).__name__}:{pattern.pattern}"
    attributes = sorted(
        (name, _canonical_value(value))
        for name, value in vars(program).items()
        if isinstance(value, (str, int, float, bool, bytes, frozenset,
                              set, tuple, list, dict))
    )
    # Objects whose behavior lives in attributes not captured above
    # (callables, nested objects) should expose their own
    # ``fingerprint()`` — this structural fallback cannot see inside
    # them and would treat such programs as equal.
    return f"obj:{type(program).__name__}:{attributes!r}"


def fingerprint(program: object) -> str:
    """A short hex fingerprint of a spanner/splitter's structure."""
    return hashlib.sha256(_describe(program).encode("utf-8")).hexdigest()[:16]


def registry_fingerprint(
    splitters: Sequence[RegisteredSplitter],
) -> str:
    """Fingerprint of a planner's splitter registry.

    Covers names, priorities, specification automata, and the identity
    of any fast executor — everything :meth:`Planner.plan` consults.
    """
    parts = [
        (registered.name, registered.priority,
         _describe(registered.automaton),
         _describe(registered.executor) if registered.executor is not None
         else None)
        for registered in splitters
    ]
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Level 1: the plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """Memoize split-correctness certificates per program.

    Keyed by ``(spanner fingerprint, registry fingerprint)``; the
    stored :class:`CertifiedPlan` records how long certification took,
    and the cache counts hits, misses and total certification time for
    the engine's statistics.
    """

    def __init__(self) -> None:
        self._plans: Dict[Tuple[str, str], CertifiedPlan] = {}
        self.hits = 0
        self.misses = 0
        self.certification_seconds = 0.0

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def certifications(self) -> int:
        """Times the decision procedures actually ran."""
        return self.misses

    def get(
        self,
        planner: Planner,
        spanner: VSetAutomaton,
        spanner_fp: Optional[str] = None,
        registry_fp: Optional[str] = None,
    ) -> CertifiedPlan:
        """The certified plan for ``spanner`` under ``planner``.

        Runs :meth:`Planner.certify` on the first request for a given
        (spanner, registry) pair and replays the certificate afterward.
        Callers that hold precomputed fingerprints (the engine
        fingerprints its immutable registry once) pass them to make
        cache hits O(1).
        """
        spanner_fp = spanner_fp or fingerprint(spanner)
        key = (spanner_fp,
               registry_fp or registry_fingerprint(planner.splitters))
        certified = self._plans.get(key)
        if certified is not None:
            self.hits += 1
            certified.reuses += 1
            return certified
        self.misses += 1
        certified = planner.certify(spanner, fingerprint="/".join(key))
        self.certification_seconds += certified.certification_seconds
        self._plans[key] = certified
        return certified

    def clear(self) -> None:
        self._plans.clear()


# ----------------------------------------------------------------------
# Level 2: the chunk cache
# ----------------------------------------------------------------------

#: The key part that tells a document entry from a chunk entry.
DOCUMENT = "document"

#: No two caches, or clears of one, share a ``generation``.
_GENERATIONS = count()


class ChunkCache:
    """Deduplicate chunk extraction across an entire corpus.

    Maps ``(namespace, chunk text)`` to the frozen, unshifted result
    set of running a chunk-level spanner on that text.  The engine
    namespaces entries by *certificate* fingerprint (program plus
    splitter registry) because the certificate determines which runner
    produced the results — so one cache serves many programs, and even
    many engines (their document entries and in-process chunk entries:
    a pooled run's chunk entries live in its workers, bounded alike and
    emptied as :attr:`generation` moves), without cross-contamination.
    ``limit`` bounds the retained entries with least-recently-used
    eviction (``None`` = unbounded).

    *Document entries* map ``(namespace, text, DOCUMENT)`` to a whole
    document's merged relation, its chunk instance count and how many
    of those were pruned.  Sound because the certificate makes that
    relation a function of the text (pruning drops only empty chunks);
    the key never equals a chunk's, whose relation under a Theorem 5.15
    split-spanner plan is ``P_S``'s, not ``P``'s.  Both kinds share
    ``limit``, recency and :meth:`clear`; ``whole`` plans store none.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive or None")
        self.limit = limit
        self.generation = next(_GENERATIONS)
        self._results: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._results)

    def lookup(
        self, namespace: str, chunk: str
    ) -> Optional[FrozenSet[SpanTuple]]:
        """The cached result for ``chunk``, or ``None``; counts the
        hit/miss and refreshes recency on hit."""
        key = (namespace, chunk)
        cached = self._results.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._results.move_to_end(key)
        return cached

    def record_batch_hit(self) -> None:
        """Count an instance served by an evaluation scheduled within
        the same batch (a repeat of a text not yet stored)."""
        self.hits += 1

    def lookup_document(
        self, namespace: str, text: str
    ) -> Optional[Tuple[FrozenSet[SpanTuple], int, int]]:
        """A document's cached ``(relation, chunks, pruned)`` or
        ``None``.  A hit counts ``chunks - pruned`` chunk hits and
        refreshes recency; a miss counts nothing (its chunks will)."""
        key = (namespace, text, DOCUMENT)
        entry = self._results.get(key)
        if entry is not None:
            self.hits += entry[1] - entry[2]
            self._results.move_to_end(key)
        return entry

    def store(
        self, namespace: str, chunk: str, results: Set[SpanTuple]
    ) -> FrozenSet[SpanTuple]:
        frozen = frozenset(results)
        self._put((namespace, chunk), frozen)
        return frozen

    def store_document(
        self, namespace: str, text: str, relation: Set[SpanTuple],
        chunks: int, pruned: int,
    ) -> FrozenSet[SpanTuple]:
        """Keep a document's merged relation; returns it frozen."""
        frozen = frozenset(relation)
        self._put((namespace, text, DOCUMENT), (frozen, chunks, pruned))
        return frozen

    def _put(self, key: tuple, value: object) -> None:
        if key in self._results:
            # A write is a use: refresh recency like lookup() does.
            self._results[key] = value
            self._results.move_to_end(key)
            return
        if self.limit is not None:
            while len(self._results) >= self.limit:
                self._results.popitem(last=False)
                self.evictions += 1
        self._results[key] = value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._results.clear()
        self.generation = next(_GENERATIONS)
