"""Compiled automaton kernel: an integer/bitset IR shared by all layers.

Every procedure in the reproduction — NFA membership and emptiness, the
decision procedures of Sections 4–6, VSet-automaton evaluation, and the
corpus engine's chunk runners — ultimately executes automaton steps.
Interpreting those steps over dict-of-sets transition tables with
arbitrary hashable states dominates every benchmark, so this module
lowers an :class:`repro.automata.nfa.NFA` **once** into a dense form:

* states are relabeled to integers ``0..n-1`` (breadth-first order from
  the initial state, deterministic), symbols to integers ``0..m-1``;
* state sets are Python-int **bitsets**, so set union is ``|`` and
  membership is a shift-and-mask;
* epsilon closures are precomputed per state, and the closed transition
  table ``closed_next[state][symbol]`` maps directly to the
  epsilon-closed successor bitset — one subset-simulation step is a
  handful of table lookups OR-ed together;
* a :class:`LazyDFA` memoizes subset-construction states *on demand*
  with an LRU bound, so repeated membership queries against the same
  automaton amortize to one dict lookup per input symbol without ever
  paying the full exponential subset construction.

Lowering happens at most once per automaton (``NFA.compiled()`` caches
the artifact and invalidates it on mutation) and at most once per
certified plan in the runtime (:meth:`repro.runtime.planner.Planner.
certify` lowers at certify time, so the engine's plan cache replays
compiled artifacts and workers never re-lower).

:class:`CompiledVSetAutomaton` extends the kernel to spanner
evaluation.  Evaluating one document is **a forward step along the
main line, a reverse sweep of what is left, and a walk along the runs
that sweep left alive** (:meth:`CompiledVSetAutomaton.search`, the one
search routine):

0. the *main line* — every state has one 256-entry byte row whose
   entry for a byte is the next state when exactly one letter move
   reads that byte and no variable operation from the state (closed
   over further operations) can read it, and a ``BRANCH`` or ``DEAD``
   sentinel otherwise.  From the initial state the search takes one
   row step per byte up to the first branch point ``p`` (the end of
   the document always is one).  Before ``p`` exactly one
   configuration exists — one successor per letter, and any variable
   operation dies on the next byte — so nothing is lost by not
   sweeping or walking there.  On a deterministic automaton
   (:meth:`repro.spanners.vset_automaton.VSetAutomaton.determinized`,
   what the chunk runner lowers) the main line runs up to the first
   place a capture could begin; on an automaton with parallel ``.*``
   states it is usually empty;
1. the ``alive`` sweep over ``document[p:]`` — ``alive[q]`` is the
   bitset of states from which *some* run over ``document[q:]``
   reaches a final state when variable operations are free moves, like
   epsilon.  If the main line's state is not in ``alive[p]`` the
   answer is empty and evaluation stops there: one table chase for a
   chunk that holds no match;
2. for automata that are **not functional** only, the ``finishable``
   sweep — suffix acceptance over letters and epsilon only, which
   answers the rest of a run exactly once every variable is closed.
   A functional automaton never fails that test (every state the walk
   enters is in ``alive``, so its prefix extends to an accepted —
   hence valid — ref-word, which performs no operation after the last
   close), so its lowering neither builds nor sweeps the table: a
   matching chunk of a functional plan sweeps its bytes once, not
   twice;
3. a walk over ``(position, state_id, status)`` configurations from
   ``(p, main-line state)`` —
   ``status`` being the result's own flat ``(b1, e1, b2, e2, ...)``
   int tuple, ``0`` where unset, handed to
   :func:`repro.core.spans.flat_span_tuple` as it is — against
   precomputed per-state move tables.  Where exactly one letter
   successor is in ``alive`` the walk advances ``(position, state)``
   in local variables, by the same row step as the main line wherever
   the row has an entry; only branch points (a live variable operation,
   several live letter successors) put configurations on a stack,
   deduplicated through a ``seen`` set.  It visits configurations
   that lie on an accepting run and nothing else, and allocates for
   the few where a run forks.

The chunk runner (:class:`repro.runtime.fast.CompiledSpanner`) takes
one of two paths per batch.  A batch of ``str`` chunks of a spanner
that lowering proved token-local gets one alphabet guard and one
:mod:`re` scan over the join of its texts (the token path), and never
calls the search.  Any other batch runs chunk by chunk: the alphabet
guard; step 0, which rejects a chunk that lacks a required literal of
the plan with one C-level ``in``; and the search above.

**Why the pruning is sound for every automaton.**  ``alive`` forgets
variable validity: a run may open a variable twice or never close it.
Forgetting a constraint only adds runs, so ``alive[p]`` is a superset
of the states any *valid* accepting run can occupy at ``p`` (and of
``finishable[p]``).  A configuration dropped by the test therefore
has no accepting continuation at all, valid or not, and no tuple is
lost — whether or not the automaton is functional.  What the
over-approximation costs is only that a non-functional automaton may
keep some configurations a sharper analysis would drop; the walk
still rejects their invalid operations one by one, as before.

**Why the main line loses nothing.**  A row entry is a state only when
that state is the one letter successor on the byte and no state an
operation (or a chain of them) reaches from here reads the byte.  So
from a single configuration ``(q, s, status)`` with ``q`` before the
end of the document, every run either takes that letter move or
performs operations and then has no way to read ``document[q]`` — it
dies, valid or not.  Starting from the one initial configuration, by
induction exactly one configuration exists at every position up to
the first ``BRANCH`` (or the end, where an operation could still reach
a final state), and a ``DEAD`` entry means not even that one survives.
The walk's row steps rest on the same argument: past an entry, the
operations skipped could not have read the byte either.  The bound on
the walk below — (pushed configurations) × (document length) — is
unchanged, since the main line pushes nothing.

Both tables are one recurrence over two closures
(:class:`SuffixTable`), built at lowering time and swept by one
routine.

**One membership path.**  :meth:`CompiledNFA.accepts` walks the
:class:`LazyDFA`: one memoized subset step per symbol, for any word —
``str`` or a sequence of symbols, any alphabet.

**One sweep selection.**  Each :class:`SuffixTable` is also lowered,
when it can be, to a :class:`ByteSuffixSweeper`: its recurrence
determinized over raw byte values, a *reverse* deterministic sweep
that takes one flat-table step per byte instead of an OR over the set
bits of a bitset.  :meth:`SuffixTable.sweep` picks between that and
the masked-integer sweep (:meth:`SuffixTable.sweep_int`) from what it
observes, per table and per document: the integer sweep runs when no
letter of the alphabet is a single latin-1 character, when the table's
byte-subset construction passed the 256-row cap, or when the document
is not a ``str`` that encodes as latin-1 (which covers UTF-8's ASCII
range one byte per character, positions preserved); the byte sweep
otherwise.  Results are identical either way (``tests/test_compiled.py``
holds one against the other).  Which sweep ``alive`` — the one every
evaluated document pays — has is reported as
:attr:`CompiledVSetAutomaton.kernel_tier` (``"v2-bytes"``/``"v1-int"``)
with :attr:`CompiledVSetAutomaton.fallback_reason`, and surfaces in
``explain()``.  The process-global registry records table sizes as
``kernel.table_bytes``, where a document's bytes went as
``kernel.main_line_bytes`` (stepped forward on the main line) /
``kernel.bytes_swept`` (swept by a byte machine), and why chunks were
cheap as ``kernel.chunks_rejected`` (answered without a walk: by a
required literal in the chunk runner, by a ``DEAD`` byte on the main
line, or by ``alive``) / ``kernel.configs_expanded`` (configurations
the walks visited) — bumped once per evaluation call, not per sweep.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from functools import partial, reduce
from operator import or_
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.automata.nfa import EPSILON, NFA
from repro.core.spans import flat_span_tuple
from repro.obs.metrics import kernel_metrics

State = Hashable
Symbol = Hashable


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _epsilon_closures(eps_edges: List[int], n: int) -> List[int]:
    """Per-state epsilon-closure bitsets in one linear pass.

    Iterative Tarjan SCC condensation over the epsilon graph: SCCs
    finish in reverse topological order, so every epsilon edge leaving
    a component points at states whose closure is already complete and
    a component's closure is its member bits OR-ed with those finished
    closures.  Graph work is O(states + edges) — epsilon-heavy chains
    and cycles (one-shot product automata, Thompson constructions) no
    longer pay one BFS per state.
    """
    closure = [0] * n
    index = [0] * n          # 1-based visit order; 0 = unvisited
    low = [0] * n
    on_stack = [False] * n
    scc_stack: List[int] = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = True
        work = [(root, bits(eps_edges[root]))]
        while work:
            state, edges = work[-1]
            advanced = False
            for target in edges:
                if not index[target]:
                    index[target] = low[target] = counter
                    counter += 1
                    scc_stack.append(target)
                    on_stack[target] = True
                    work.append((target, bits(eps_edges[target])))
                    advanced = True
                    break
                if on_stack[target] and index[target] < low[state]:
                    low[state] = index[target]
            if advanced:
                continue
            work.pop()
            if work and low[state] < low[work[-1][0]]:
                low[work[-1][0]] = low[state]
            if low[state] == index[state]:
                # ``state`` roots an SCC; everything above it on the
                # stack is the component, and all epsilon edges leaving
                # it reach components that are already finished.
                members = []
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    if member == state:
                        break
                mask = 0
                for member in members:
                    mask |= 1 << member
                for member in members:
                    for target in bits(eps_edges[member] & ~mask):
                        mask |= closure[target]
                for member in members:
                    closure[member] = mask
    return closure


# ----------------------------------------------------------------------
# Byte-table lowering of the reverse sweeps
# ----------------------------------------------------------------------

#: Row ids are stored as single bytes inside 256-wide rows, so a byte
#: machine holds at most 256 rows (row 0 is the dead sink).  Exceeding
#: the cap aborts the byte lowering; the table stays on the int sweep.
MAX_BYTE_ROWS = 256

#: The sentinels of a state's main-line byte row
#: (:attr:`CompiledVSetAutomaton.rows`): ``BRANCH`` where the run may
#: fork (several letter moves, a variable operation that can read the
#: byte, or a successor whose id does not fit below the sentinels),
#: ``DEAD`` where nothing reads the byte.  Every smaller entry is the
#: one next state.
BRANCH = 254
DEAD = 255


def _split_rows(blob: bytes) -> List[bytes]:
    """A blob of 256-byte rows as a list of rows, for
    ``rows[row_id][byte]`` — two C-level indexes per step."""
    return [blob[start:start + 256] for start in range(0, len(blob), 256)]


def letter_byte(symbol: Symbol) -> Optional[int]:
    """The byte value of a letter symbol, or ``None`` when the symbol
    is not a single latin-1 character (byte lowering unavailable)."""
    if isinstance(symbol, str) and len(symbol) == 1:
        code = ord(symbol)
        if code < 256:
            return code
    return None


class _ByteRowsExhausted(Exception):
    """Raised internally when a byte-subset construction passes
    :data:`MAX_BYTE_ROWS`; the builder abandons the byte tier."""


class _ByteRowInterner:
    """Assign dense row ids to subset bitsets during construction.

    Row 0 is always the empty subset (the dead sink, whose all-zero
    row self-loops); fresh subsets are queued for row construction.
    """

    def __init__(self) -> None:
        self.ids: Dict[int, int] = {0: 0}
        self.masks: List[int] = [0]
        self.queue: deque = deque()

    def intern(self, mask: int) -> int:
        rid = self.ids.get(mask)
        if rid is None:
            rid = len(self.masks)
            if rid >= MAX_BYTE_ROWS:
                raise _ByteRowsExhausted
            self.ids[mask] = rid
            self.masks.append(mask)
            self.queue.append(mask)
        return rid


class ByteSuffixSweeper:
    """A :class:`SuffixTable`'s recurrence as a reverse byte-table sweep.

    Rows are deterministic *reverse* subset states: backward-closed
    bitsets of NFA states, with ``masks[rid]`` the bitset a row stands
    for.  One sweep walks the encoded document back to front, one
    table step per byte, and emits the table's per-position bitsets
    (``finishable`` or ``alive``, whichever table this machine was
    determinized from).
    """

    def __init__(self, blob: bytes, masks: Sequence[int],
                 start: int) -> None:
        blob = bytes(blob)
        self.blob = blob
        self.masks: Tuple[int, ...] = tuple(masks)
        self.start = start
        self.rows: List[bytes] = _split_rows(blob)
        self.n_rows = len(self.rows)

    def table_bytes(self) -> int:
        return len(self.blob)

    def sweep_bytes(self, data, start: int = 0) -> List[int]:
        """The table's bitsets for one encoded document, swept over
        ``data[start:]`` only; the ``start`` positions before it hold
        ``0``.  Nothing is counted here: the caller knows how many
        bytes it had swept and reports them once per batch."""
        rows = self.rows
        masks = self.masks
        rid = self.start
        out = [masks[rid]]
        append = out.append
        for b in data[:start - 1:-1] if start else data[::-1]:
            rid = rows[rid][b]
            append(masks[rid])
        if start:
            out.extend(bytes(start))
        out.reverse()
        return out

    def __reduce__(self):
        return (ByteSuffixSweeper, (self.blob, self.masks, self.start))


def _build_byte_tables(
    start_mask: int,
    steps: Dict[int, "callable"],
) -> Optional[Tuple[bytes, List[int], int]]:
    """The byte-subset construction of a reverse sweeper.

    ``steps`` maps byte values to ``subset -> subset`` transition
    functions (only alphabet bytes appear; all others dead-end at row
    0).  Returns ``(blob, row masks, start row id)``, or ``None`` when
    the construction exceeds :data:`MAX_BYTE_ROWS`.
    """
    interner = _ByteRowInterner()
    try:
        start = interner.intern(start_mask)
        rows: Dict[int, bytearray] = {0: bytearray(256)}
        while interner.queue:
            mask = interner.queue.popleft()
            row = bytearray(256)
            for byte, step in steps.items():
                row[byte] = interner.intern(step(mask))
            rows[interner.ids[mask]] = row
    except _ByteRowsExhausted:
        return None
    blob = b"".join(bytes(rows[rid]) for rid in range(len(interner.masks)))
    return blob, interner.masks, start


class CompiledNFA:
    """The dense integer/bitset lowering of one NFA.

    Only states reachable from the initial state are materialized
    (unreachable states cannot influence acceptance, emptiness, or any
    configuration search started at the initial state).  All artifacts
    are plain ints/lists/dicts, so compiled automata pickle cheaply —
    the engine ships them to pool workers inside certified plans.
    """

    def __init__(self, nfa: NFA) -> None:
        lowering_started = time.perf_counter()
        # ---- state numbering: BFS from the initial state, visiting
        # transitions in sorted-repr order so the numbering (and hence
        # every derived table) is deterministic for a given automaton.
        order: Dict[State, int] = {nfa.initial: 0}
        queue = deque([nfa.initial])
        while queue:
            state = queue.popleft()
            by_symbol = nfa._delta.get(state, {})
            for symbol in sorted(by_symbol, key=repr):
                for target in sorted(by_symbol[symbol], key=repr):
                    if target not in order:
                        order[target] = len(order)
                        queue.append(target)
        self.states: List[State] = [None] * len(order)
        for state, index in order.items():
            self.states[index] = state
        self.state_id: Dict[State, int] = order
        n = len(self.states)
        self.n_states = n

        # ---- symbol numbering (EPSILON handled out of band).
        self.symbols: List[Symbol] = sorted(nfa.alphabet, key=repr)
        self.symbol_id: Dict[Symbol, int] = {
            symbol: index for index, symbol in enumerate(self.symbols)
        }

        # ---- raw transition tables as bitsets.
        eps_edges = [0] * n
        direct: List[Dict[int, int]] = [dict() for _ in range(n)]
        for state, index in order.items():
            for symbol, targets in nfa._delta.get(state, {}).items():
                mask = 0
                for target in targets:
                    mask |= 1 << order[target]
                if symbol is EPSILON:
                    eps_edges[index] = mask
                else:
                    direct[index][self.symbol_id[symbol]] = mask
        self.direct_next: List[Dict[int, int]] = direct

        closure = _epsilon_closures(eps_edges, n)
        self.closure: List[int] = closure

        # ---- closed step table: closed_next[s][a] is the epsilon
        # closure of the direct successors of s on symbol a, so a full
        # subset step is the OR of closed_next rows over the current
        # bitset (closure distributes over union).
        closed: List[Dict[int, int]] = [dict() for _ in range(n)]
        for s in range(n):
            for a, mask in direct[s].items():
                out = 0
                for t in bits(mask):
                    out |= closure[t]
                closed[s][a] = out
        self.closed_next: List[Dict[int, int]] = closed

        self.initial_id = 0
        self.start_mask: int = closure[0]
        finals_mask = 0
        for state in nfa.finals:
            index = order.get(state)
            if index is not None:
                finals_mask |= 1 << index
        self.finals_mask: int = finals_mask
        self._lazy: Optional[LazyDFA] = None

        # Transition-fill and construction accounting: how dense the
        # lowered tables are and what lowering cost, reported into the
        # process-global kernel registry (:mod:`repro.obs.metrics`).
        metrics = kernel_metrics()
        metrics.counter("kernel.lowerings").inc()
        metrics.counter("kernel.states_lowered").inc(n)
        metrics.counter("kernel.transitions_filled").inc(
            sum(len(row) for row in closed)
        )
        metrics.histogram("kernel.lowering_seconds").observe(
            time.perf_counter() - lowering_started
        )

    # ------------------------------------------------------------------
    # Core bitset semantics
    # ------------------------------------------------------------------

    def step(self, mask: int, symbol_index: int) -> int:
        """One closed subset step on a symbol index."""
        out = 0
        for s in bits(mask):
            out |= self.closed_next[s].get(symbol_index, 0)
        return out

    def lazy_dfa(self) -> "LazyDFA":
        """The memoizing subset-construction view."""
        if self._lazy is None:
            self._lazy = LazyDFA(self)
        return self._lazy

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Membership via the lazy DFA: amortized one lookup/symbol."""
        lazy = self.lazy_dfa()
        symbol_id = self.symbol_id
        current = self.start_mask
        for symbol in word:
            index = symbol_id.get(symbol)
            if index is None:
                return False
            current = lazy.next(current, index)
            if not current:
                return False
        return bool(current & self.finals_mask)

    def reachable_mask(self) -> int:
        """Bitset of states reachable from the initial state."""
        reached = self.start_mask
        frontier = reached
        while frontier:
            step = 0
            for s in bits(frontier):
                for mask in self.closed_next[s].values():
                    step |= mask
            frontier = step & ~reached
            reached |= step
        return reached

    def is_empty(self) -> bool:
        """Whether the accepted language is empty."""
        return not (self.reachable_mask() & self.finals_mask)

    def intersection_is_empty(self, other: "CompiledNFA") -> bool:
        """Whether ``L(self) & L(other)`` is empty (product emptiness).

        On-the-fly reachability over pairs of *individual* states (the
        same search space as the materialized product automaton, so
        polynomial — at most ``n_left * n_right`` pairs), executed on
        the closed transition tables; this is what
        :meth:`repro.automata.nfa.NFA.product_is_empty` lowers to.
        """
        shared = [
            (index, other.symbol_id[symbol])
            for symbol, index in self.symbol_id.items()
            if symbol in other.symbol_id
        ]
        left_finals = self.finals_mask
        right_finals = other.finals_mask
        pairs = [
            (p, q)
            for p in bits(self.start_mask)
            for q in bits(other.start_mask)
        ]
        seen = set(pairs)
        queue = deque(pairs)
        while queue:
            p, q = queue.popleft()
            if (left_finals >> p) & 1 and (right_finals >> q) & 1:
                return False
            left_row = self.closed_next[p]
            right_row = other.closed_next[q]
            for a, b in shared:
                left_next = left_row.get(a, 0)
                if not left_next:
                    continue
                right_next = right_row.get(b, 0)
                if not right_next:
                    continue
                for p2 in bits(left_next):
                    for q2 in bits(right_next):
                        pair = (p2, q2)
                        if pair not in seen:
                            seen.add(pair)
                            queue.append(pair)
        return True

    def subset_table(self) -> Dict[int, Dict[int, int]]:
        """The *full* subset construction over bitset states.

        Returns ``{state_mask: {symbol_index: successor_mask}}`` for
        every reachable subset (including the empty sink when it is
        reached); :meth:`repro.automata.nfa.NFA.to_dfa` converts this
        back to frozensets of original states.
        """
        table: Dict[int, Dict[int, int]] = {}
        queue = deque([self.start_mask])
        n_symbols = len(self.symbols)
        while queue:
            mask = queue.popleft()
            if mask in table:
                continue
            row = {a: self.step(mask, a) for a in range(n_symbols)}
            table[mask] = row
            for nxt in row.values():
                if nxt not in table:
                    queue.append(nxt)
        return table

    def mask_to_states(self, mask: int) -> FrozenSet[State]:
        """Translate a bitset back to the original state objects."""
        return frozenset(self.states[s] for s in bits(mask))

    def __repr__(self) -> str:
        return (
            f"CompiledNFA(states={self.n_states}, "
            f"symbols={len(self.symbols)})"
        )


class LazyDFA:
    """Subset-construction states memoized on demand, LRU-bounded.

    Maps ``(subset bitset, symbol index) -> subset bitset`` through a
    per-subset row cache.  Rows are evicted least-recently-used once
    ``max_states`` subsets are live, which bounds memory on adversarial
    automata (the exponential subset lattice) while keeping the common
    case — a handful of hot subsets per workload — fully cached.
    """

    def __init__(self, compiled: CompiledNFA, max_states: int = 4096) -> None:
        if max_states < 1:
            raise ValueError("max_states must be positive")
        self.compiled = compiled
        self.max_states = max_states
        self._rows: "OrderedDict[int, Dict[int, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Row creation/eviction is rare (bounded by max_states between
        # evictions), so the global counters live off the hot
        # ``next()`` path; the per-step hit/miss tallies stay plain
        # attributes.
        metrics = kernel_metrics()
        self._states_built = metrics.counter("kernel.lazy_dfa.states_built")
        self._states_evicted = metrics.counter(
            "kernel.lazy_dfa.states_evicted"
        )

    def __len__(self) -> int:
        return len(self._rows)

    def next(self, mask: int, symbol_index: int) -> int:
        """The closed successor subset, memoized."""
        row = self._rows.get(mask)
        if row is None:
            while len(self._rows) >= self.max_states:
                self._rows.popitem(last=False)
                self.evictions += 1
                self._states_evicted.inc()
            row = {}
            self._rows[mask] = row
            self._states_built.inc()
        else:
            self._rows.move_to_end(mask)
        nxt = row.get(symbol_index)
        if nxt is None:
            nxt = self.compiled.step(mask, symbol_index)
            row[symbol_index] = nxt
            self.misses += 1
        else:
            self.hits += 1
        return nxt

    def __getstate__(self):
        # The memo is a cache, not state: ship compiled artifacts to
        # pool workers without dragging the subset table along.
        return {"compiled": self.compiled, "max_states": self.max_states}

    def __setstate__(self, state):
        self.__init__(state["compiled"], max_states=state["max_states"])


def compile_nfa(nfa: NFA) -> CompiledNFA:
    """Lower ``nfa`` onto the integer/bitset IR.

    Prefer :meth:`repro.automata.nfa.NFA.compiled`, which caches the
    artifact on the automaton and invalidates it on mutation.
    """
    return CompiledNFA(nfa)


# ----------------------------------------------------------------------
# VSet-automaton evaluation on the kernel
# ----------------------------------------------------------------------


def latin1(document: Sequence[Symbol]) -> Optional[bytes]:
    """``document`` as latin-1 bytes — what the byte sweepers walk —
    or ``None`` when it is not a ``str`` or has a character above
    U+00FF (the masked-int sweep handles those)."""
    if type(document) is str:
        try:
            return document.encode("latin-1")
        except UnicodeEncodeError:
            pass
    return None


def _or_rows(row: List[int], mask: int) -> int:
    """OR of ``row[t]`` over the set bits ``t`` of ``mask`` — one
    reverse step of a :class:`SuffixTable` on the letter ``row``
    belongs to."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


class SuffixTable:
    """One reverse acceptance table of a lowered VSet-automaton.

    A table answers, for every position ``p`` of a document, *from
    which states can ``document[p:]`` still be accepted* — under a
    fixed notion of which moves are free.  :class:`CompiledVSetAutomaton`
    holds two: ``finishable`` (epsilon moves free) and ``alive``
    (epsilon **and variable-operation** moves free).  Both are the
    same recurrence over different closures, so both live here and go
    through the one :meth:`sweep` routine.

    ``rev[a][t]`` is the backward closure of the states that reach
    ``t`` directly on letter ``a`` and ``seed`` the backward closure
    of the finals, so one masked-int step is an OR over the set bits
    of the next position's bitset.  ``byte_sweeper`` is the same
    recurrence determinized over byte values, or ``None`` when no
    letter is a single latin-1 character or the reverse subset
    construction passes :data:`MAX_BYTE_ROWS` — decided per table,
    and ``fallback_reason`` then says which.
    """

    def __init__(self, rev: Dict[Symbol, List[int]], seed: int) -> None:
        self.rev = rev
        self.seed = seed
        self.fallback_reason: Optional[str] = None
        self.byte_sweeper: Optional[ByteSuffixSweeper] = self._lower_bytes()

    def _lower_bytes(self) -> Optional[ByteSuffixSweeper]:
        """Deterministic subset construction over backward-closed
        bitsets, seeded at the closed finals.  Letters that are not
        single latin-1 characters get no byte rows — they cannot occur
        in a latin-1-encodable document, and any other document takes
        the integer sweep before reaching the byte machine."""
        steps = {}
        for letter, row in self.rev.items():
            byte = letter_byte(letter)
            if byte is not None:
                steps[byte] = partial(_or_rows, row)
        if not steps and self.rev:
            # No letter survives the byte lowering (wide alphabet):
            # keep the table honestly on the integer sweep.
            self.fallback_reason = "wide alphabet"
            return None
        built = _build_byte_tables(self.seed, steps)
        if built is None:
            self.fallback_reason = f"byte rows > {MAX_BYTE_ROWS}"
            return None
        sweeper = ByteSuffixSweeper(*built)
        kernel_metrics().counter("kernel.table_bytes").inc(
            sweeper.table_bytes()
        )
        return sweeper

    def sweep(self, document: Sequence[Symbol], data: Optional[bytes],
              start: int = 0) -> List[int]:
        """The table's bitset at every position ``start..len(document)``,
        indexed by position (the ``start`` entries before it are ``0``:
        the search's main line already stepped over them).

        ``data`` is :func:`latin1` of ``document`` (encoded once per
        evaluation, shared by both tables): the byte sweeper runs when
        it exists and the document encodes, the masked-int sweep
        otherwise.  Both produce identical tables (checked
        differentially in ``tests/test_compiled.py``).
        """
        sweeper = self.byte_sweeper
        if sweeper is not None and data is not None:
            return sweeper.sweep_bytes(data, start)
        return self.sweep_int(document, start)

    def sweep_int(self, document: Sequence[Symbol],
                  start: int = 0) -> List[int]:
        """The masked integer sweep: per position, OR the precomputed
        ``rev`` masks of the next table's set bits — work is
        O(popcount) per position instead of a scan over all states."""
        n = len(document)
        tables = [0] * (n + 1)
        tables[n] = self.seed
        rev = self.rev
        for pos in range(n - 1, start - 1, -1):
            row = rev.get(document[pos])
            if row is not None:
                tables[pos] = _or_rows(row, tables[pos + 1])
        return tables


class CompiledVSetAutomaton:
    """A VSet-automaton lowered for evaluation.

    Built by :func:`compile_vset_automaton` (cached as
    :meth:`repro.spanners.vset_automaton.VSetAutomaton.compiled`).  The
    per-state move tables are *source-closed*: moves available from a
    configuration ``(pos, state, status)`` are the letter and variable
    moves of every state in the epsilon closure of ``state``, so the
    search never visits pure-epsilon configurations.
    """

    def __init__(
        self,
        base: CompiledNFA,
        variables: Tuple[Hashable, ...],
        letter_moves: List[Dict[Symbol, int]],
        var_moves: List[Tuple[Tuple[int, bool, int], ...]],
        var_targets: List[int],
        alive: SuffixTable,
        finishable: Optional[SuffixTable],
        row_blob: bytes,
    ) -> None:
        self.base = base
        self.variables = variables
        #: Per state: document letter -> successor bitset (source-closed).
        self.letter_moves = letter_moves
        #: Per state: ``(status slot, is_close, target bitset)`` triples;
        #: variable ``k`` opens into slot ``2k`` and closes into
        #: ``2k + 1`` of the search's flat status tuple.
        self.var_moves = var_moves
        #: Per state: every variable move's targets OR-ed — an
        #: operation is live at ``p`` iff this meets ``alive[p]``.
        self.var_targets = var_targets
        #: ``alive[p]``: states from which *some* run over
        #: ``document[p:]`` reaches a final state with variable
        #: operations as free moves.  Ignoring variable validity only
        #: adds runs, so ``alive[p]`` contains every state an accepting
        #: valid run can be in at ``p`` — for any automaton, functional
        #: or not — and pruning the search with it loses no result.
        self.alive = alive
        #: ``finishable[p]``: states accepting ``document[p:]`` with
        #: letters and epsilon moves only — exact once every variable
        #: is closed, which is where the search consults it.  ``None``
        #: when the automaton is functional: the test then always
        #: passes (see :meth:`search`), so the table is never built.
        self.finishable = finishable
        #: One 256-byte row per state, concatenated: the entry for a
        #: byte is the one next state, or :data:`BRANCH` / :data:`DEAD`
        #: (see :func:`_main_line_rows`).  Pickled by value; ``rows``
        #: is its per-state view.
        self.row_blob = row_blob
        self.rows: List[bytes] = _split_rows(row_blob)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["rows"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.rows = _split_rows(self.row_blob)

    @property
    def kernel_tier(self) -> str:
        """``"v2-bytes"`` when ``alive`` — the sweep every evaluated
        document pays — has its reverse byte machine, ``"v1-int"``
        otherwise."""
        return ("v2-bytes" if self.alive.byte_sweeper is not None
                else "v1-int")

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why :attr:`kernel_tier` is ``"v1-int"`` (``"wide alphabet"``
        / ``"byte rows > 256"``); ``None`` on ``"v2-bytes"``."""
        return self.alive.fallback_reason

    def describe(self) -> Dict[str, object]:
        """The lowering's decisions, for ``explain()["kernel"]``."""
        return {
            "tier": self.kernel_tier,
            "fallback_reason": self.fallback_reason,
            "finishable_sweep": ("skipped: functional"
                                 if self.finishable is None
                                 else "on: not functional"),
        }

    # -- evaluation ----------------------------------------------------

    def evaluate(self, document: Sequence[Symbol]) -> Set:
        """Exact enumeration of ``A(d)``; agrees with the dict-of-sets
        interpreter of ``tests/reference.py`` on every document."""
        results, visited, main_line, swept = self.search(
            document, latin1(document))
        count_evaluations(0 if visited else 1, visited, main_line, swept)
        return results

    def search(self, document: Sequence[Symbol], data: Optional[bytes],
               ) -> Tuple[Set, int, int, int]:
        """``(A(d), configurations visited, main-line bytes, bytes
        swept)``: a forward step along the main line, a reverse sweep
        of the rest and a walk along the runs it left alive.  ``data``
        is :func:`latin1` of ``document``; the main line needs it
        (rows are indexed by byte), so without it the line is empty.

        0. Step along the main line: one row lookup per byte from the
           initial state, up to the first ``BRANCH`` entry or the end
           of the document — position ``p``.  Up to ``p`` the run has
           exactly one configuration (see the module docstring); a
           ``DEAD`` entry means it dies, and the answer is empty.
        1. Sweep ``alive`` over ``document[p:]``.  If the main line's
           state is not in ``alive[p]`` no run over the document
           accepts, valid or not: the answer is empty and nothing is
           visited (the count is 0 exactly in these cases — a walk
           always visits its start configuration).
        2. Sweep ``finishable`` — only when the automaton is not
           functional.  A configuration is only ever entered with its
           state in ``alive``, so its prefix extends to an accepted
           ref-word; a functional automaton accepts valid ref-words
           only, and a valid ref-word performs no operation once every
           variable is closed, so the extension reads letters and
           epsilons only: the state is in ``finishable``, the test the
           table exists for cannot fail, and neither exists.
        3. Walk ``(pos, state, status)`` configurations from ``(p,
           main-line state)``.  While exactly one letter successor is
           in ``alive`` the run has one way on and the walk takes it in
           local variables — by a row step where the row has an entry
           (no operation can read the byte, so none is live), else by
           the move tables, pushing the targets of any live variable
           move it passes.  Only those, and the successors where
           several letter moves are live, become configurations on the
           stack, deduplicated through ``seen``.  Configurations carry
           the count of not-yet-closed variables, so the all-closed
           collapse is an integer comparison.

        Walked configurations are not deduplicated, so runs of an
        ambiguous automaton that merge are followed once per pushed
        configuration they start from: the work is at most
        (pushed configurations) x (document length), and the pushed
        ones are distinct — polynomial, where enumerating runs is not.
        The byte count says what the byte machines swept (``alive``,
        and ``finishable`` when there is one), not the integer sweeps.
        """
        rows = self.rows
        branch = BRANCH
        state = self.base.initial_id
        start = 0
        if data is not None:
            for code in data:
                step = rows[state][code]
                if step >= branch:
                    if step == DEAD:
                        return set(), 0, start, 0
                    break
                state = step
                start += 1
        tail = len(data) - start if data is not None else 0
        alive = self.alive.sweep(document, data, start)
        swept = tail if self.alive.byte_sweeper is not None else 0
        if not (alive[start] >> state) & 1:
            return set(), 0, start, swept
        finishable = None
        if self.finishable is not None:
            finishable = self.finishable.sweep(document, data, start)
            if self.finishable.byte_sweeper is not None:
                swept += tail
        variables = self.variables
        letter_moves = self.letter_moves
        var_moves = self.var_moves
        var_targets = self.var_targets
        n = len(document)
        codes = data if data is not None else b""
        end = len(codes)

        # The status *is* the result's stored form: ``begin, end`` per
        # variable in column order, ``0`` where not yet set.
        results: Set = set()
        first = (start, state, (0,) * (2 * len(variables)), len(variables))
        seen = {first}
        stack = [first]
        visited = 0
        while stack:
            pos, state, status, open_vars = stack.pop()
            visited += 1
            if not open_vars:
                if finishable is None or (finishable[pos] >> state) & 1:
                    results.add(flat_span_tuple(variables, status))
                continue
            origin = pos
            while True:
                if pos < end:
                    step = rows[state][codes[pos]]
                    if step < branch:
                        if not (alive[pos + 1] >> step) & 1:
                            break
                        pos += 1
                        state = step
                        continue
                    if step == DEAD:
                        break
                ops = var_targets[state]
                if ops and ops & alive[pos]:
                    live = alive[pos]
                    for slot, is_close, targets in var_moves[state]:
                        targets &= live
                        if not targets or status[slot]:
                            continue
                        if is_close:
                            if not status[slot - 1]:
                                continue
                            remaining = open_vars - 1
                        else:
                            remaining = open_vars
                        moved = (status[:slot] + (pos + 1,)
                                 + status[slot + 1:])
                        while targets:
                            low = targets & -targets
                            targets ^= low
                            config = (pos, low.bit_length() - 1, moved,
                                      remaining)
                            if config not in seen:
                                seen.add(config)
                                stack.append(config)
                if pos == n:
                    break  # the document ended with a variable open
                targets = letter_moves[state].get(document[pos])
                if not targets:
                    break
                targets &= alive[pos + 1]
                if targets & (targets - 1):
                    while targets:
                        low = targets & -targets
                        targets ^= low
                        config = (pos + 1, low.bit_length() - 1, status,
                                  open_vars)
                        if config not in seen:
                            seen.add(config)
                            stack.append(config)
                    break
                if not targets:
                    break
                pos += 1
                state = targets.bit_length() - 1
            visited += pos - origin
        return results, visited, start, swept


def count_evaluations(rejected: int, visited: int, main_line: int,
                      swept: int) -> None:
    """Say why chunks were cheap: ``kernel.chunks_rejected`` counts
    documents answered with no tuple and no walk (by a required
    literal, by the token path, by the main line or by ``alive``),
    ``kernel.configs_expanded`` the
    configurations the walks of the others visited, and
    ``kernel.main_line_bytes`` / ``kernel.bytes_swept`` where the
    bytes went.  Called once per batch; looked up per call, so
    unpickled artifacts report into their own process's registry."""
    metrics = kernel_metrics()
    if rejected:
        metrics.counter("kernel.chunks_rejected").inc(rejected)
    if visited:
        metrics.counter("kernel.configs_expanded").inc(visited)
    if main_line:
        metrics.counter("kernel.main_line_bytes").inc(main_line)
    if swept:
        metrics.counter("kernel.bytes_swept").inc(swept)


def _reverse_tables(
    closure: List[int],
    letter_sources: Dict[Symbol, List[Tuple[int, int]]],
    finals_mask: int,
) -> Tuple[Dict[Symbol, List[int]], int]:
    """``(rev, seed)`` of one :class:`SuffixTable` under ``closure``,
    the per-state bitsets of what free moves reach.

    ``bwd_single[t]`` is the transpose of the closure — the states
    whose closure contains ``t`` — so any backward closure is an OR of
    ``bwd_single`` rows over set bits.
    """
    n = len(closure)
    bwd_single = [0] * n
    for s in range(n):
        sbit = 1 << s
        for t in bits(closure[s]):
            bwd_single[t] |= sbit

    seed = 0
    for t in bits(finals_mask):
        seed |= bwd_single[t]

    rev: Dict[Symbol, List[int]] = {}
    for letter, pairs in letter_sources.items():
        row = [0] * n
        for s, mask in pairs:
            sb = bwd_single[s]
            for t in bits(mask):
                row[t] |= sb
        rev[letter] = row
    return rev, seed


def compile_vset_automaton(vsa) -> CompiledVSetAutomaton:
    """Lower a :class:`repro.spanners.vset_automaton.VSetAutomaton`.

    Reuses the underlying NFA's compiled form (one lowering serves both
    language-level queries and spanner evaluation), then derives the
    source-closed move tables and the reverse tables of the evaluation
    — ``alive`` always, ``finishable`` only when the automaton is not
    functional (:meth:`CompiledVSetAutomaton.search` says why) — each
    with its precomputed backward-closure masks and, when every
    document letter is a single latin-1 character and its reverse
    subset construction fits :data:`MAX_BYTE_ROWS`, its byte-table
    sweeper.
    """
    from repro.spanners.refwords import VarOp

    base: CompiledNFA = vsa.nfa.compiled()
    variables, var_index = vsa.variable_order
    n = base.n_states

    # Classify the alphabet once.
    letter_ids: Dict[int, Symbol] = {}
    varop_ids: Dict[int, Tuple[int, bool]] = {}
    for symbol, index in base.symbol_id.items():
        if isinstance(symbol, VarOp):
            k = var_index.get(symbol.variable)
            if k is not None:
                varop_ids[index] = (k, symbol.is_close)
        else:
            letter_ids[index] = symbol

    letter_moves: List[Dict[Symbol, int]] = []
    var_moves: List[Tuple[Tuple[int, bool, int], ...]] = []
    var_targets: List[int] = []
    for s in range(n):
        letters: Dict[Symbol, int] = {}
        ops: Dict[Tuple[int, bool], int] = {}
        for mid in bits(base.closure[s]):
            for index, mask in base.direct_next[mid].items():
                letter = letter_ids.get(index)
                if letter is not None:
                    letters[letter] = letters.get(letter, 0) | mask
                else:
                    op = varop_ids.get(index)
                    if op is not None:
                        ops[op] = ops.get(op, 0) | mask
        letter_moves.append(letters)
        var_moves.append(tuple(
            (2 * k + is_close, is_close, mask)
            for (k, is_close), mask in sorted(ops.items())
        ))
        var_targets.append(reduce(or_, ops.values(), 0))

    # Per letter: ``(state, direct successor bitset)`` pairs — the
    # *unclosed* letter moves both reverse tables are built from.
    letter_sources: Dict[Symbol, List[Tuple[int, int]]] = {}
    # Per state: epsilon closure plus direct variable-operation
    # successors; its transitive closure is what ``alive`` treats as
    # free (the operations the search itself can take, no others).
    free_edges = list(base.closure)
    for s in range(n):
        for index, mask in base.direct_next[s].items():
            letter = letter_ids.get(index)
            if letter is not None:
                letter_sources.setdefault(letter, []).append((s, mask))
            elif index in varop_ids:
                free_edges[s] |= mask

    free_closure = _epsilon_closures(free_edges, n)
    alive = SuffixTable(*_reverse_tables(
        free_closure, letter_sources, base.finals_mask))
    finishable = None if vsa.is_functional() else SuffixTable(
        *_reverse_tables(base.closure, letter_sources, base.finals_mask))
    return CompiledVSetAutomaton(
        base, variables, letter_moves, var_moves, var_targets, alive,
        finishable, _main_line_rows(letter_moves, var_targets, free_closure),
    )


def _main_line_rows(letter_moves: List[Dict[Symbol, int]],
                    var_targets: List[int],
                    free_closure: List[int]) -> bytes:
    """The concatenated 256-byte rows of :attr:`CompiledVSetAutomaton.
    rows`.

    A state's entry for byte ``b`` is ``BRANCH`` when some state that
    one or more variable operations (with epsilons between) reach from
    it reads ``b`` — ``free_closure`` of the operation targets — and
    otherwise the one letter successor on ``b`` (``BRANCH`` when there
    are several or its id does not fit below the sentinels, ``DEAD``
    when there is none).  Letters that are not single latin-1
    characters get no entry: a document holding them has no bytes.
    """
    reads = []
    for letters in letter_moves:
        mask = 0
        for letter in letters:
            byte = letter_byte(letter)
            if byte is not None:
                mask |= 1 << byte
        reads.append(mask)
    blob = bytearray([DEAD]) * (256 * len(letter_moves))
    for s, letters in enumerate(letter_moves):
        offset = 256 * s
        after_ops = 0
        for t in bits(var_targets[s]):
            after_ops |= free_closure[t]
        forked = 0
        for t in bits(after_ops):
            forked |= reads[t]
        for byte in bits(forked):
            blob[offset + byte] = BRANCH
        for letter, targets in letters.items():
            byte = letter_byte(letter)
            if byte is None or (forked >> byte) & 1:
                continue
            target = targets.bit_length() - 1
            blob[offset + byte] = (
                BRANCH if targets & (targets - 1) or target >= BRANCH
                else target)
    return bytes(blob)
