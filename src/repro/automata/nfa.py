"""Nondeterministic finite automata with epsilon transitions.

The NFA here is the workhorse for the whole reproduction: VSet-automata
are NFAs over the extended alphabet ``Sigma + Gamma_V`` (Section 4.2 of
the paper), and every decision procedure eventually bottoms out in NFA
reachability, products, or subset constructions.

States can be arbitrary hashable objects; the constructions in
:mod:`repro.core` exploit this by using structured tuples as states so
that the resulting automata remain debuggable.
"""

from __future__ import annotations

from collections import deque
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class _Epsilon:
    """Singleton sentinel for the empty-word transition label."""

    _instance: Optional["_Epsilon"] = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EPSILON"

    def __reduce__(self):
        return (_Epsilon, ())


#: The label used for epsilon transitions.  Never a member of any alphabet.
EPSILON = _Epsilon()

State = Hashable
Symbol = Hashable


class NFA:
    """A nondeterministic finite automaton with a single initial state.

    Transitions are stored as ``{state: {symbol: {successor, ...}}}``.
    The symbol :data:`EPSILON` labels spontaneous moves and is not part
    of :attr:`alphabet`.

    **Mutation contract:** the only supported post-construction
    mutation is :meth:`add_transition`, which invalidates the memoized
    closures and the compiled form (a table handed to
    :meth:`from_delta` is the automaton's from then on).
    ``states``/``finals`` are exposed as plain sets for cheap reading,
    but mutating them directly after a query
    (``accepts``/``is_empty``/``to_dfa``) would leave the cached
    compiled artifact stale — build a new NFA instead.
    """

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        initial: State,
        finals: Iterable[State],
        transitions: Iterable[Tuple[State, Symbol, State]],
    ) -> None:
        delta: Dict[State, Dict[Symbol, Set[State]]] = {}
        for source, symbol, target in transitions:
            by_symbol = delta.get(source)
            if by_symbol is None:
                by_symbol = delta[source] = {}
            targets = by_symbol.get(symbol)
            if targets is None:
                by_symbol[symbol] = {target}
            else:
                targets.add(target)
        self._install(alphabet, states, initial, finals, delta)

    @classmethod
    def from_delta(
        cls,
        alphabet: Iterable[Symbol],
        initial: State,
        finals: Iterable[State],
        delta: Dict[State, Dict[Symbol, Set[State]]],
        states: Iterable[State] = (),
    ) -> "NFA":
        """Bulk construction from a finished transition table.

        ``delta`` is ``{source: {symbol: {target, ...}}}`` and becomes
        the automaton's own table — the caller must not keep mutating
        it.  ``states`` only needs to name states no transition
        touches.  The constructions (:meth:`trim`, :meth:`relabel`,
        :meth:`product`, ``compose``, the extended form) build their
        tables in place and hand them over here: the alphabet is checked
        once per distinct symbol, not once per transition, and the
        automaton starts in one mutation epoch.
        """
        nfa = cls.__new__(cls)
        nfa._install(alphabet, states, initial, finals, delta)
        return nfa

    def _install(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        initial: State,
        finals: Iterable[State],
        delta: Dict[State, Dict[Symbol, Set[State]]],
    ) -> None:
        """Adopt ``delta`` (shared tail of both constructors)."""
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        if EPSILON in self.alphabet:
            raise ValueError("EPSILON cannot be an alphabet symbol")
        self.initial: State = initial
        self.finals: Set[State] = set(finals)
        self.states: Set[State] = set(states)
        self.states.add(initial)
        self.states.update(self.finals)
        self.states.update(delta)
        used: Set[Symbol] = set()
        for by_symbol in delta.values():
            used.update(by_symbol)
            self.states.update(*by_symbol.values())
        used.discard(EPSILON)
        if not used <= self.alphabet:
            symbol = next(iter(used - self.alphabet))
            raise ValueError(f"symbol {symbol!r} not in alphabet")
        self._delta = delta
        # Memoized per-state views and the compiled (integer/bitset)
        # form; all invalidated together by add_transition.
        self._closure_cache: Dict[State, FrozenSet[State]] = {}
        self._symbols_cache: Dict[State, FrozenSet[Symbol]] = {}
        self._compiled = None
        self._version = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def add_transition(self, source: State, symbol: Symbol, target: State) -> None:
        """Add a transition; states are created on demand."""
        if symbol is not EPSILON and symbol not in self.alphabet:
            raise ValueError(f"symbol {symbol!r} not in alphabet")
        self.states.add(source)
        self.states.add(target)
        self._delta.setdefault(source, {}).setdefault(symbol, set()).add(target)
        if self._closure_cache:
            self._closure_cache.clear()
        if self._symbols_cache:
            self._symbols_cache.clear()
        self._compiled = None
        self._version += 1

    def compiled(self):
        """The integer/bitset lowering of this automaton (cached).

        Lowered at most once per mutation epoch; ``accepts``,
        ``is_empty``, ``to_dfa`` and ``product_is_empty`` all execute
        against this shared artifact.  See
        :mod:`repro.automata.compiled`.
        """
        if self._compiled is None:
            from repro.automata.compiled import compile_nfa

            self._compiled = compile_nfa(self)
        return self._compiled

    def transitions(self) -> Iterator[Tuple[State, Symbol, State]]:
        """Iterate over all transitions as (source, symbol, target)."""
        for source, by_symbol in self._delta.items():
            for symbol, targets in by_symbol.items():
                for target in targets:
                    yield source, symbol, target

    def successors(self, state: State, symbol: Symbol) -> FrozenSet[State]:
        """Direct successors of ``state`` on ``symbol`` (no closure)."""
        return frozenset(self._delta.get(state, {}).get(symbol, ()))

    def symbols_from(self, state: State) -> FrozenSet[Symbol]:
        """All labels (possibly EPSILON) on transitions leaving ``state``.

        Memoized per state (the decision procedures call this once per
        configuration); invalidated by :meth:`add_transition`.
        """
        cached = self._symbols_cache.get(state)
        if cached is None:
            cached = frozenset(self._delta.get(state, {}))
            self._symbols_cache[state] = cached
        return cached

    def copy(self) -> "NFA":
        return NFA(
            self.alphabet, self.states, self.initial, self.finals, self.transitions()
        )

    # ------------------------------------------------------------------
    # Core semantics
    # ------------------------------------------------------------------

    def _closure_of(self, state: State) -> FrozenSet[State]:
        """Memoized epsilon closure of a single state."""
        cached = self._closure_cache.get(state)
        if cached is not None:
            return cached
        closure = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for nxt in self._delta.get(current, {}).get(EPSILON, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        cached = frozenset(closure)
        self._closure_cache[state] = cached
        return cached

    def epsilon_closure(self, states: Iterable[State]) -> FrozenSet[State]:
        """The set of states reachable via epsilon moves only.

        Built from per-state closures memoized on the automaton, so
        un-compiled callers (the on-the-fly containment procedures)
        stop recomputing closures on every subset step.
        """
        states = list(states)
        if len(states) == 1:
            return self._closure_of(states[0])
        closure: Set[State] = set()
        for state in states:
            closure |= self._closure_of(state)
        return frozenset(closure)

    def step(self, states: AbstractSet[State], symbol: Symbol) -> FrozenSet[State]:
        """One closed step: epsilon-closure after reading ``symbol``."""
        moved: Set[State] = set()
        for state in states:
            moved.update(self._delta.get(state, {}).get(symbol, ()))
        return self.epsilon_closure(moved)

    def steps_from(
        self, states: AbstractSet[State]
    ) -> Dict[Symbol, FrozenSet[State]]:
        """:meth:`step` on every symbol that leaves ``states`` at all,
        in one pass over their rows — what a subset search wants
        instead of probing the whole alphabet."""
        moved: Dict[Symbol, Set[State]] = {}
        for state in states:
            for symbol, targets in self._delta.get(state, {}).items():
                if symbol is not EPSILON:
                    into = moved.get(symbol)
                    if into is None:
                        moved[symbol] = set(targets)
                    else:
                        into.update(targets)
        return {
            symbol: self.epsilon_closure(targets)
            for symbol, targets in moved.items()
        }

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Membership test on the compiled form (lazy-DFA memoized)."""
        return self.compiled().accepts(word)

    # ------------------------------------------------------------------
    # Reachability and trimming
    # ------------------------------------------------------------------

    def reachable_states(self) -> FrozenSet[State]:
        """States reachable from the initial state."""
        seen = {self.initial}
        queue = deque(seen)
        while queue:
            state = queue.popleft()
            for targets in self._delta.get(state, {}).values():
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        return frozenset(seen)

    def coreachable_states(self) -> FrozenSet[State]:
        """States from which some final state is reachable."""
        backward: Dict[State, list] = {}
        for source, by_symbol in self._delta.items():
            for targets in by_symbol.values():
                for target in targets:
                    sources = backward.get(target)
                    if sources is None:
                        backward[target] = [source]
                    else:
                        sources.append(source)
        seen = set(self.finals)
        queue = deque(seen)
        while queue:
            state = queue.popleft()
            for prev in backward.get(state, ()):
                if prev not in seen:
                    seen.add(prev)
                    queue.append(prev)
        return frozenset(seen)

    def trim(self) -> "NFA":
        """Restrict to useful (reachable and co-reachable) states.

        If the language is empty the result is a single non-final
        initial state with no transitions.
        """
        useful = self.reachable_states() & self.coreachable_states()
        if self.initial not in useful:
            return NFA(self.alphabet, [self.initial], self.initial, [], [])
        delta: Dict[State, Dict[Symbol, Set[State]]] = {}
        for source, by_symbol in self._delta.items():
            if source not in useful:
                continue
            row = {}
            for symbol, targets in by_symbol.items():
                kept = targets & useful
                if kept:
                    row[symbol] = kept
            if row:
                delta[source] = row
        return NFA.from_delta(
            self.alphabet, self.initial, self.finals & useful, delta, useful
        )

    def is_empty(self) -> bool:
        """Whether the accepted language is empty (compiled form)."""
        return self.compiled().is_empty()

    def product_is_empty(self, other: "NFA") -> bool:
        """Whether ``L(self) & L(other)`` is empty.

        Equivalent to ``self.product(other).is_empty()`` but runs the
        on-the-fly pair search over the two compiled forms without ever
        materializing the product automaton.
        """
        return self.compiled().intersection_is_empty(other.compiled())

    def shortest_word(self) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word, or ``None`` if the language is empty.

        Useful for producing witnesses/counterexamples in the decision
        procedures (e.g. a document on which two spanners disagree).
        """
        start = self.epsilon_closure({self.initial})
        if start & self.finals:
            return ()
        seen = {frozenset(start)}
        queue: deque = deque([(frozenset(start), ())])
        while queue:
            current, word = queue.popleft()
            for symbol in self.alphabet:
                nxt = self.step(current, symbol)
                if not nxt:
                    continue
                key = frozenset(nxt)
                if key in seen:
                    continue
                new_word = word + (symbol,)
                if nxt & self.finals:
                    return new_word
                seen.add(key)
                queue.append((key, new_word))
        return None

    # ------------------------------------------------------------------
    # Rational operations
    # ------------------------------------------------------------------

    def remove_epsilon(self) -> "NFA":
        """An equivalent NFA without epsilon transitions."""
        transitions = []
        finals: Set[State] = set()
        for state in self.states:
            closure = self.epsilon_closure({state})
            if closure & self.finals:
                finals.add(state)
            for mid in closure:
                for symbol, targets in self._delta.get(mid, {}).items():
                    if symbol is EPSILON:
                        continue
                    for target in targets:
                        transitions.append((state, symbol, target))
        return NFA(self.alphabet, self.states, self.initial, finals, transitions)

    def product(self, other: "NFA") -> "NFA":
        """Intersection automaton (synchronized product).

        Epsilon moves of either side are interleaved asynchronously, so
        both operands may contain epsilon transitions.  States are pairs
        ``(p, q)``.
        """
        alphabet = self.alphabet & other.alphabet
        initial = (self.initial, other.initial)
        delta: Dict[State, Dict[Symbol, Set[State]]] = {}
        seen = {initial}
        queue = deque([initial])
        finals = set()
        no_moves: Dict[Symbol, Set[State]] = {}
        while queue:
            pair = queue.popleft()
            p, q = pair
            if p in self.finals and q in other.finals:
                finals.add(pair)
            q_moves = other._delta.get(q, no_moves)
            row: Dict[Symbol, Set[State]] = {}
            for symbol, p_targets in self._delta.get(p, no_moves).items():
                if symbol is EPSILON:
                    row[EPSILON] = {(p2, q) for p2 in p_targets}
                elif symbol in alphabet:
                    q_targets = q_moves.get(symbol)
                    if q_targets:
                        row[symbol] = {
                            (p2, q2) for p2 in p_targets for q2 in q_targets
                        }
            q_silent = q_moves.get(EPSILON)
            if q_silent:
                row.setdefault(EPSILON, set()).update(
                    (p, q2) for q2 in q_silent
                )
            if row:
                delta[pair] = row
                for targets in row.values():
                    fresh = targets - seen
                    seen |= fresh
                    queue.extend(fresh)
        return NFA.from_delta(alphabet, initial, finals, delta, seen)

    def union(self, other: "NFA") -> "NFA":
        """Union automaton via a fresh initial state."""
        alphabet = self.alphabet | other.alphabet
        initial = ("union-init",)
        states: Set[State] = {initial}
        transitions = []
        finals: Set[State] = set()
        for tag, nfa in (("L", self), ("R", other)):
            for state in nfa.states:
                states.add((tag, state))
            for source, symbol, target in nfa.transitions():
                transitions.append(((tag, source), symbol, (tag, target)))
            for final in nfa.finals:
                finals.add((tag, final))
            transitions.append((initial, EPSILON, (tag, nfa.initial)))
        return NFA(alphabet, states, initial, finals, transitions)

    def concatenate(self, other: "NFA") -> "NFA":
        """Concatenation: every final of ``self`` feeds ``other``."""
        alphabet = self.alphabet | other.alphabet
        states: Set[State] = set()
        transitions = []
        for tag, nfa in (("L", self), ("R", other)):
            for state in nfa.states:
                states.add((tag, state))
            for source, symbol, target in nfa.transitions():
                transitions.append(((tag, source), symbol, (tag, target)))
        for final in self.finals:
            transitions.append((("L", final), EPSILON, ("R", other.initial)))
        finals = {("R", f) for f in other.finals}
        return NFA(alphabet, states, ("L", self.initial), finals, transitions)

    def star(self) -> "NFA":
        """Kleene star with a fresh (final) initial state."""
        initial = ("star-init",)
        states: Set[State] = {initial}
        transitions = []
        for state in self.states:
            states.add(("S", state))
        for source, symbol, target in self.transitions():
            transitions.append((("S", source), symbol, ("S", target)))
        transitions.append((initial, EPSILON, ("S", self.initial)))
        for final in self.finals:
            transitions.append((("S", final), EPSILON, initial))
        return NFA(self.alphabet, states, initial, {initial}, transitions)

    def relabel(self) -> "NFA":
        """Rename states to consecutive integers (canonical BFS order).

        The constructions in :mod:`repro.core` nest products inside
        products; relabeling keeps the state objects small.
        """
        order: Dict[State, int] = {self.initial: 0}
        queue = deque([self.initial])
        delta: Dict[State, Dict[Symbol, Set[State]]] = {}
        while queue:
            state = queue.popleft()
            by_symbol = self._delta.get(state)
            if not by_symbol:
                continue
            row = delta[order[state]] = {}
            for symbol in sorted(by_symbol, key=repr):
                numbered = set()
                for target in sorted(by_symbol[symbol], key=repr):
                    number = order.get(target)
                    if number is None:
                        number = order[target] = len(order)
                        queue.append(target)
                    numbered.add(number)
                row[symbol] = numbered
        finals = {order[f] for f in self.finals if f in order}
        return NFA.from_delta(self.alphabet, 0, finals, delta, order.values())

    # ------------------------------------------------------------------
    # Determinization
    # ------------------------------------------------------------------

    def to_dfa(self) -> "DFA":
        """Full subset construction (the classical exponential step).

        Runs over the compiled bitset IR and translates the subset
        states back to frozensets of original states, so the resulting
        DFA is indistinguishable from the interpreted construction.
        """
        from repro.automata.dfa import DFA

        compiled = self.compiled()
        table = compiled.subset_table()
        as_states = {mask: compiled.mask_to_states(mask) for mask in table}
        transitions: Dict[FrozenSet[State], Dict[Symbol, FrozenSet[State]]] = {
            as_states[mask]: {
                compiled.symbols[index]: as_states[nxt]
                for index, nxt in row.items()
            }
            for mask, row in table.items()
        }
        states = set(as_states.values())
        finals = {
            as_states[mask]
            for mask in table
            if mask & compiled.finals_mask
        }
        return DFA(
            self.alphabet, states, as_states[compiled.start_mask], finals,
            transitions,
        )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"NFA(states={len(self.states)}, alphabet={len(self.alphabet)}, "
            f"finals={len(self.finals)})"
        )


def literal_nfa(alphabet: Iterable[Symbol], word: Sequence[Symbol]) -> NFA:
    """An NFA accepting exactly ``word``."""
    alphabet = frozenset(alphabet)
    transitions = [(i, symbol, i + 1) for i, symbol in enumerate(word)]
    return NFA(alphabet, range(len(word) + 1), 0, [len(word)], transitions)


def empty_language_nfa(alphabet: Iterable[Symbol]) -> NFA:
    """An NFA accepting the empty language."""
    return NFA(alphabet, [0], 0, [], [])


def universal_nfa(alphabet: Iterable[Symbol]) -> NFA:
    """An NFA accepting all words over ``alphabet``."""
    alphabet = frozenset(alphabet)
    transitions = [(0, symbol, 0) for symbol in alphabet]
    return NFA(alphabet, [0], 0, [0], transitions)
