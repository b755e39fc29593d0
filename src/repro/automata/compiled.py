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
evaluation.  Evaluating one document is **a reverse sweep and a
forward walk along the runs it left alive**
(:meth:`CompiledVSetAutomaton.search`, the one search routine):

1. the ``alive`` sweep — ``alive[p]`` is the bitset of states from
   which *some* run over ``document[p:]`` reaches a final state when
   variable operations are free moves, like epsilon.  If the initial
   state is not in ``alive[0]`` the answer is empty and evaluation
   stops there: one table chase for a chunk that holds no match;
2. for automata that are **not functional** only, the ``finishable``
   sweep — suffix acceptance over letters and epsilon only, which
   answers the rest of a run exactly once every variable is closed.
   A functional automaton never fails that test (every state the walk
   enters is in ``alive``, so its prefix extends to an accepted —
   hence valid — ref-word, which performs no operation after the last
   close), so its lowering neither builds nor sweeps the table: a
   matching chunk of a functional plan sweeps its bytes once, not
   twice;
3. a walk over ``(position, state_id, status)`` configurations —
   ``status`` being the result's own flat ``(b1, e1, b2, e2, ...)``
   int tuple, ``0`` where unset, handed to
   :func:`repro.core.spans.flat_span_tuple` as it is — against
   precomputed per-state move tables.  Where exactly one letter
   successor is in ``alive`` the walk advances ``(position, state)``
   in local variables; only branch points (a live variable operation,
   several live letter successors) put configurations on a stack,
   deduplicated through a ``seen`` set.  It visits configurations
   that lie on an accepting run and nothing else, and allocates for
   the few where a run forks.

Ahead of all three, the chunk runner
(:class:`repro.runtime.fast.CompiledSpanner`) rejects a chunk that
lacks a required literal of the plan with one C-level ``in``.

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
``explain()``.  The process-global registry records sweep volume and
table sizes as ``kernel.bytes_swept`` / ``kernel.table_bytes`` and why
chunks were cheap as ``kernel.chunks_rejected`` (answered without a
walk: by a required literal in the chunk runner, or by ``alive[0]``) /
``kernel.configs_expanded`` (configurations the walks visited).
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
        self.n_rows = len(blob) // 256
        self.rows: List[bytes] = [
            blob[i * 256:(i + 1) * 256] for i in range(self.n_rows)
        ]
        self._swept = kernel_metrics().counter("kernel.bytes_swept")

    def table_bytes(self) -> int:
        return len(self.blob)

    def sweep_bytes(self, data) -> List[int]:
        """The table's bitsets for one encoded document."""
        rows = self.rows
        masks = self.masks
        rid = self.start
        out = [masks[rid]]
        append = out.append
        for b in data[::-1]:
            rid = rows[rid][b]
            append(masks[rid])
        self._swept.inc(len(data))
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

    def sweep(self, document: Sequence[Symbol],
              data: Optional[bytes]) -> List[int]:
        """The table's bitset at every position ``0..len(document)``.

        ``data`` is :func:`latin1` of ``document`` (encoded once per
        evaluation, shared by both tables): the byte sweeper runs when
        it exists and the document encodes, the masked-int sweep
        otherwise.  Both produce identical tables (checked
        differentially in ``tests/test_compiled.py``).
        """
        sweeper = self.byte_sweeper
        if sweeper is not None and data is not None:
            return sweeper.sweep_bytes(data)
        return self.sweep_int(document)

    def sweep_int(self, document: Sequence[Symbol]) -> List[int]:
        """The masked integer sweep: per position, OR the precomputed
        ``rev`` masks of the next table's set bits — work is
        O(popcount) per position instead of a scan over all states."""
        n = len(document)
        tables = [0] * (n + 1)
        tables[n] = self.seed
        rev = self.rev
        for pos in range(n - 1, -1, -1):
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
        results, visited = self.search(document, latin1(document))
        count_evaluations(0 if visited else 1, visited)
        return results

    def search(self, document: Sequence[Symbol],
               data: Optional[bytes]) -> Tuple[Set, int]:
        """``(A(d), configurations visited)``: a reverse sweep and a
        forward walk along the runs it left alive.  ``data`` is
        :func:`latin1` of ``document``.

        1. Sweep ``alive``.  If the initial state is not in
           ``alive[0]`` no run over the document accepts, valid or
           not: the answer is empty and nothing is visited (the count
           is 0 exactly in this case — a walk always visits its start
           configuration).
        2. Sweep ``finishable`` — only when the automaton is not
           functional.  A configuration is only ever entered with its
           state in ``alive``, so its prefix extends to an accepted
           ref-word; a functional automaton accepts valid ref-words
           only, and a valid ref-word performs no operation once every
           variable is closed, so the extension reads letters and
           epsilons only: the state is in ``finishable``, the test the
           table exists for cannot fail, and neither exists.
        3. Walk ``(pos, state, status)`` configurations.  While
           exactly one letter successor is in ``alive`` the run has one
           way on and the walk takes it in local variables, pushing
           the targets of any live variable move it passes.  Only
           those, and the successors where several letter moves are
           live, become configurations on the stack, deduplicated
           through ``seen``.  Configurations carry the count of
           not-yet-closed variables, so the all-closed collapse is an
           integer comparison.

        Walked configurations are not deduplicated, so runs of an
        ambiguous automaton that merge are followed once per pushed
        configuration they start from: the work is at most
        (pushed configurations) x (document length), and the pushed
        ones are distinct — polynomial, where enumerating runs is not.
        """
        alive = self.alive.sweep(document, data)
        if not (alive[0] >> self.base.initial_id) & 1:
            return set(), 0
        finishable = (None if self.finishable is None
                      else self.finishable.sweep(document, data))
        variables = self.variables
        letter_moves = self.letter_moves
        var_moves = self.var_moves
        var_targets = self.var_targets

        # The status *is* the result's stored form: ``begin, end`` per
        # variable in column order, ``0`` where not yet set.
        results: Set = set()
        start = (0, self.base.initial_id, (0,) * (2 * len(variables)),
                 len(variables))
        seen = {start}
        stack = [start]
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
                        for target in bits(targets):
                            config = (pos, target, moved, remaining)
                            if config not in seen:
                                seen.add(config)
                                stack.append(config)
                try:
                    letter = document[pos]
                except IndexError:
                    break  # the document ended with a variable open
                targets = letter_moves[state].get(letter)
                if not targets:
                    break
                targets &= alive[pos + 1]
                if targets & (targets - 1):
                    for target in bits(targets):
                        config = (pos + 1, target, status, open_vars)
                        if config not in seen:
                            seen.add(config)
                            stack.append(config)
                    break
                if not targets:
                    break
                pos += 1
                state = targets.bit_length() - 1
            visited += pos - origin
        return results, visited


def count_evaluations(rejected: int, visited: int) -> None:
    """Say why chunks were cheap: ``kernel.chunks_rejected`` counts
    documents answered without a walk (by a required literal or by
    ``alive[0]``), ``kernel.configs_expanded`` the configurations the
    walks of the others visited.  Looked up per call, so unpickled
    artifacts report into their own process's registry."""
    metrics = kernel_metrics()
    if rejected:
        metrics.counter("kernel.chunks_rejected").inc(rejected)
    if visited:
        metrics.counter("kernel.configs_expanded").inc(visited)


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

    alive = SuffixTable(*_reverse_tables(
        _epsilon_closures(free_edges, n), letter_sources, base.finals_mask))
    finishable = None if vsa.is_functional() else SuffixTable(
        *_reverse_tables(base.closure, letter_sources, base.finals_mask))
    return CompiledVSetAutomaton(
        base, variables, letter_moves, var_moves, var_targets, alive,
        finishable,
    )
