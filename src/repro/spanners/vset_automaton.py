"""Variable-set automata (VSet-automata, Section 4.2).

A VSet-automaton is an epsilon-NFA over the extended alphabet
``Sigma + Gamma_V`` whose runs produce ref-words; the spanner it
represents maps a document ``d`` to the tuples of all *valid* accepted
ref-words that ``clr`` maps to ``d``.

The class below wraps an :class:`repro.automata.nfa.NFA` together with
the variable set and the document alphabet and provides:

* exact evaluation on documents (:meth:`VSetAutomaton.evaluate`), with
  the all-variables-closed collapse so runs whose remaining suffix is
  pure language acceptance cost a table lookup instead of a search;
* the validity filter and functionality test (Section 4.2);
* the *canonical extended form* used for spanner containment
  (Theorem 4.1): an NFA over block symbols ``(op-set, letter)`` in which
  two ref-words denoting the same (document, tuple) pair collapse to
  the same word.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.automata.nfa import EPSILON, NFA
from repro.core.spans import SpanTuple, column_order
from repro.spanners.refwords import Close, Open, VarOp, gamma

Variable = Hashable
Symbol = Hashable

#: Sentinel letter closing the block encoding of a ref-word.
END_MARKER = ("end-of-document",)


class VSetAutomaton:
    """A document spanner represented as a VSet-automaton.

    ``nfa`` must be an NFA whose alphabet is exactly
    ``doc_alphabet | gamma(variables)``.
    """

    def __init__(
        self,
        doc_alphabet: Iterable[Symbol],
        variables: Iterable[Variable],
        nfa: NFA,
    ) -> None:
        self.doc_alphabet: FrozenSet[Symbol] = frozenset(doc_alphabet)
        self.variables: FrozenSet[Variable] = frozenset(variables)
        expected = self.doc_alphabet | gamma(self.variables)
        if nfa.alphabet != expected:
            raise ValueError(
                "underlying NFA alphabet must be doc alphabet plus "
                f"variable operations (got {set(nfa.alphabet) ^ set(expected)} "
                "as symmetric difference)"
            )
        self.nfa = nfa
        self._var_order: Optional[Tuple[Tuple, Dict]] = None
        #: Derived artifacts by name, each with the ``nfa._version`` it
        #: was built at (:meth:`_memoised`).
        self._derived: Dict[str, Tuple[int, object]] = {}
        #: How many times this spanner was actually lowered (the
        #: runtime's artifact accounting reads the delta).
        self.lowerings = 0

    @property
    def variable_order(self) -> Tuple[Tuple, Dict]:
        """``(variables in :func:`repro.core.spans.column_order` — the
        column order of a :class:`SpanTuple`, which the compiled kernel
        emits without re-sorting —, variable -> index)``, computed once.

        Every evaluation and the validity tracker consume the same
        fixed order; hoisting it here removes the per-call sort and
        index rebuild from the hot path.
        """
        if self._var_order is None:
            variables = column_order(self.variables)
            self._var_order = (
                variables, {var: k for k, var in enumerate(variables)}
            )
        return self._var_order

    def _memoised(self, name: str, build: Callable[[], object]):
        """``build()``, once per underlying-NFA mutation epoch
        (``nfa.add_transition`` starts a new one)."""
        version = self.nfa._version
        entry = self._derived.get(name)
        if entry is None or entry[0] != version:
            entry = self._derived[name] = (version, build())
        return entry[1]

    def compiled(self):
        """The compiled evaluation artifact (integer/bitset kernel).

        Lowered at most once per underlying-NFA mutation epoch and
        shared by every evaluation of this spanner — the runtime's
        certified plans pin this artifact so pool workers never
        re-lower.  See :mod:`repro.automata.compiled`.
        """
        def lower():
            from repro.automata.compiled import compile_vset_automaton

            self.lowerings += 1
            return compile_vset_automaton(self)

        return self._memoised("compiled", lower)

    def determinized(self) -> Optional["VSetAutomaton"]:
        """Proposition 4.4's deterministic functional equivalent —
        what a chunk runner lowers, so the kernel's main line runs up
        to the first place a capture could begin — or ``None`` when
        its subset construction passes
        :data:`repro.spanners.determinism.MAX_DETERMINISED_SUBSETS`.
        Built once per mutation epoch from the shared extended form;
        callers must not mutate it."""
        def build():
            from repro.spanners.determinism import determinize_within_cap

            return determinize_within_cap(self)

        return self._memoised("determinized", build)

    def lowered(self):
        """The artifact a chunk runner of this spanner runs — the
        :meth:`determinized` form's, or this automaton's own when that
        passed its cap — once a runner has lowered it in this mutation
        epoch, else ``None``; never builds anything (reports use it)."""
        version, determinised = self._derived.get("determinized",
                                                  (None, None))
        if version != self.nfa._version:
            return None
        target = self if determinised is None else determinised
        version, artifact = target._derived.get("compiled", (None, None))
        return artifact if version == target.nfa._version else None

    def __getstate__(self):
        # Derived artifacts are caches, not state: a runner pickled to
        # a spawned worker carries its own kernel, not the
        # certification's extended forms along with it.
        return {**self.__dict__, "_derived": {}}

    def factor_set(self):
        """The necessary factors of this spanner's matching language
        (:func:`repro.index.factors.factors_of`; ``None`` when the
        analysis does not apply or fails — it only ever saves work),
        analysed once per mutation epoch: the chunk runner's literal
        test and the index prefilter of the same plan share it."""
        def analyse():
            from repro.index.factors import factors_of

            try:
                return factors_of(self)
            except Exception:
                return None

        return self._memoised("factor_set", analyse)

    def token_path(self):
        """``(TokenPath, None)`` when this spanner is proved
        token-local, else ``(None, why not)``
        (:func:`repro.runtime.fast.token_path`), proved once per
        mutation epoch: every chunk runner of the spanner shares it."""
        def prove():
            from repro.runtime.fast import token_path

            return token_path(self)

        return self._memoised("token_path", prove)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_language_nfa(
        cls, doc_alphabet: Iterable[Symbol], nfa: NFA
    ) -> "VSetAutomaton":
        """A Boolean (0-ary) spanner from a plain language NFA."""
        doc_alphabet = frozenset(doc_alphabet)
        lifted = NFA(doc_alphabet, nfa.states, nfa.initial, nfa.finals,
                     nfa.transitions())
        return cls(doc_alphabet, frozenset(), lifted)

    @classmethod
    def universal_spanner(
        cls,
        doc_alphabet: Iterable[Symbol],
        variables: Iterable[Variable],
    ) -> "VSetAutomaton":
        """The spanner ``P_V`` of Lemma 5.4: every tuple on every document.

        One state with self-loops on every letter and every variable
        operation, intersected with validity at use sites.
        """
        doc_alphabet = frozenset(doc_alphabet)
        variables = frozenset(variables)
        alphabet = doc_alphabet | gamma(variables)
        transitions = [(0, symbol, 0) for symbol in alphabet]
        return cls(doc_alphabet, variables,
                   NFA(alphabet, [0], 0, [0], transitions))

    def svars(self) -> FrozenSet[Variable]:
        """``SVars(A)``."""
        return self.variables

    @property
    def arity(self) -> int:
        return len(self.variables)

    def state_count(self) -> int:
        return len(self.nfa.states)

    def __repr__(self) -> str:
        return (
            f"VSetAutomaton(vars={sorted(map(str, self.variables))}, "
            f"states={len(self.nfa.states)})"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, document: Sequence[Symbol]) -> Set[SpanTuple]:
        """The span relation ``A(d)``: exact enumeration of all tuples.

        Walks configurations ``(position, state_id, status)`` against
        the compiled kernel (:meth:`compiled`): per-state move tables
        over dense integer ids, pruned to the states a reverse
        ``alive`` sweep says can still accept (a document no run
        accepts is rejected by that sweep alone), with the
        all-closed collapse — as soon as every variable is closed the
        remaining run is pure language acceptance, which a functional
        automaton has already been promised by ``alive`` and any other
        looks up in a second reverse table.  (The reference semantics:
        the chunk runner's literal test is not taken here.)
        """
        self.check_document(document)
        return self.compiled().evaluate(document)

    def check_document(self, document: Sequence[Symbol]) -> None:
        """Reject documents with symbols outside the doc alphabet (the
        shared guard of every evaluation entry point)."""
        unknown = set(document) - self.doc_alphabet
        if unknown:
            symbol = next(iter(unknown))
            raise ValueError(f"document symbol {symbol!r} not in alphabet")

    def match_language(self) -> NFA:
        """The NFA for ``L_P = {d : P(d) != {}}`` over the doc alphabet.

        Variable operations are projected to epsilon after filtering to
        valid ref-words, so acceptance coincides with non-empty output
        (Section 7.2's minimal filter language, Lemma 7.5).  Built once
        per mutation epoch and shared: callers must not mutate it.
        """
        return self._memoised("match_language", self._build_match_language)

    def _build_match_language(self) -> NFA:
        valid = self.valid_ref_nfa()
        delta: Dict[Hashable, Dict[Symbol, Set[Hashable]]] = {}
        for source, by_symbol in valid._delta.items():
            row = delta[source] = {}
            for symbol, targets in by_symbol.items():
                if isinstance(symbol, VarOp):
                    symbol = EPSILON
                row.setdefault(symbol, set()).update(targets)
        # Every state of ``valid`` is useful and stays so under the
        # projection, so there is nothing left to trim.
        return NFA.from_delta(
            self.doc_alphabet, valid.initial, valid.finals, delta,
            valid.states,
        )

    # ------------------------------------------------------------------
    # Validity and functionality (Section 4.2)
    # ------------------------------------------------------------------

    def _validity_tracker(self) -> "NFA":
        """Deterministic tracker of per-variable status over ``Gamma_V``.

        States are tuples of statuses in {0: unopened, 1: open,
        2: closed}; illegal operations have no transition, and the
        accepting state is all-closed.  Size ``3^|V|`` — the variable
        sets in the framework are tiny.
        """
        variables, _ = self.variable_order
        alphabet = self.doc_alphabet | gamma(self.variables)
        initial = tuple(0 for _ in variables)
        transitions = []
        states = set()
        queue = deque([initial])
        states.add(initial)
        while queue:
            status = queue.popleft()
            for symbol in self.doc_alphabet:
                transitions.append((status, symbol, status))
            for k, var in enumerate(variables):
                if status[k] == 0:
                    nxt = status[:k] + (1,) + status[k + 1 :]
                    transitions.append((status, Open(var), nxt))
                elif status[k] == 1:
                    nxt = status[:k] + (2,) + status[k + 1 :]
                    transitions.append((status, Close(var), nxt))
                else:
                    continue
                if nxt not in states:
                    states.add(nxt)
                    queue.append(nxt)
        finals = {tuple(2 for _ in variables)}
        return NFA(alphabet, states, initial, finals, transitions)

    def valid_ref_nfa(self) -> NFA:
        """The trim NFA accepting ``Ref(A)``: valid accepted ref-words
        only.  Built once per mutation epoch and shared — the match
        language, the extended form, ``compose`` and the cover
        constructions all start from it — so callers must not mutate
        it (:meth:`to_functional` hands out a copy)."""
        return self._memoised(
            "valid_ref_nfa",
            lambda: self.nfa.product(self._validity_tracker()).trim(),
        )

    def is_functional(self) -> bool:
        """Whether every accepted ref-word is valid (``R(A) = Ref(A)``);
        decided once per mutation epoch."""
        return self._memoised("is_functional", self._decide_functional)

    def _decide_functional(self) -> bool:
        tracker = self._validity_tracker()
        # Make the tracker total, flip finals, and look for an accepted
        # invalid ref-word.
        sink = ("invalid-sink",)
        alphabet = tracker.alphabet
        transitions = list(tracker.transitions())
        states = set(tracker.states) | {sink}
        for state in tracker.states:
            present = {
                symbol
                for symbol in tracker.symbols_from(state)
                if symbol is not EPSILON
            }
            for symbol in alphabet - present:
                transitions.append((state, symbol, sink))
        for symbol in alphabet:
            transitions.append((sink, symbol, sink))
        complement_finals = (states - tracker.finals) | {sink}
        invalid = NFA(alphabet, states, tracker.initial, complement_finals,
                      transitions)
        return self.nfa.product_is_empty(invalid)

    def to_functional(self) -> "VSetAutomaton":
        """An equivalent functional VSet-automaton (validity filter)."""
        return VSetAutomaton(self.doc_alphabet, self.variables,
                             self.valid_ref_nfa().copy())

    # ------------------------------------------------------------------
    # Canonical extended form (Theorem 4.1 machinery)
    # ------------------------------------------------------------------

    def extended_nfa(self) -> NFA:
        """The canonical block-form NFA of the spanner.

        Words are sequences ``(O_0, s_1)(O_1, s_2)...(O_{n-1}, s_n)
        (O_n, END)`` where ``O_k`` is the set of variable operations
        performed between letters.  Two valid ref-words denote the same
        (document, tuple) pair iff their block encodings coincide, so
        spanner containment is language containment of these NFAs
        (Theorem 4.1).

        **Letter-target origins.**  A block ``(O, s)`` of an accepted
        word starts where the previous block ended — at the initial
        state or at the target of a letter transition — so the
        operation/epsilon closure is computed from those states only,
        and each closure emits its block transitions as it is explored.
        Every other state of the validity-filtered automaton could only
        be an unreachable state of the extended form, which the
        previous construction built and then trimmed away; the language
        is the same, state for state.  Because the filtered automaton
        is trim, every origin reaches a final state and therefore the
        accepting sink: the result is trim as built.

        Built once per mutation epoch — an equivalence test asks for
        each side's form twice — so callers share the result and must
        not mutate it.
        """
        return self._memoised("extended_nfa", self._build_extended_nfa)

    def _build_extended_nfa(self) -> NFA:
        base = self.valid_ref_nfa()
        moves, finals = base._delta, base.finals
        no_moves: Dict[Symbol, Set[Hashable]] = {}
        accept = ("ext-accept",)
        no_ops: FrozenSet[VarOp] = frozenset()
        delta: Dict[Hashable, Dict[Symbol, Set[Hashable]]] = {}
        origins = [base.initial]
        known = {base.initial}
        while origins:
            origin = origins.pop()
            row: Dict[Symbol, Set[Hashable]] = {}
            # ``base`` is validity-filtered, so no operation repeats on
            # a path and the op-sets stay small.
            seen = {(origin, no_ops)}
            stack = list(seen)
            while stack:
                state, ops = stack.pop()
                if state in finals:
                    row[(ops, END_MARKER)] = {accept}
                for symbol, targets in moves.get(state, no_moves).items():
                    if symbol is EPSILON:
                        reached = ops
                    elif isinstance(symbol, VarOp):
                        reached = ops | {symbol}
                    else:
                        block = row.get((ops, symbol))
                        if block is None:
                            row[(ops, symbol)] = set(targets)
                        else:
                            block.update(targets)
                        for target in targets:
                            if target not in known:
                                known.add(target)
                                origins.append(target)
                        continue
                    for target in targets:
                        item = (target, reached)
                        if item not in seen:
                            seen.add(item)
                            stack.append(item)
            if row:
                delta[origin] = row
        alphabet = set()
        for row in delta.values():
            alphabet.update(row)
        # An empty ``delta`` is the empty spanner: nothing accepts.
        finals = {accept} if delta else ()
        return NFA.from_delta(alphabet, base.initial, finals, delta, known)

    # ------------------------------------------------------------------

    def rename_variables(
        self, mapping: Mapping[Variable, Variable]
    ) -> "VSetAutomaton":
        """Rename variables; ``mapping`` must be injective on ``V``."""
        new_vars = {mapping.get(v, v) for v in self.variables}
        if len(new_vars) != len(self.variables):
            raise ValueError("variable renaming must be injective")

        def rename(symbol: Symbol) -> Symbol:
            if isinstance(symbol, VarOp) and symbol.variable in mapping:
                return VarOp(mapping[symbol.variable], symbol.is_close)
            return symbol

        alphabet = self.doc_alphabet | gamma(new_vars)
        transitions = [
            (source, rename(symbol) if symbol is not EPSILON else EPSILON, target)
            for source, symbol, target in self.nfa.transitions()
        ]
        nfa = NFA(alphabet, self.nfa.states, self.nfa.initial,
                  self.nfa.finals, transitions)
        return VSetAutomaton(self.doc_alphabet, new_vars, nfa)

    def relabel(self) -> "VSetAutomaton":
        """Rename states to small integers (see :meth:`NFA.relabel`)."""
        return VSetAutomaton(self.doc_alphabet, self.variables,
                             self.nfa.relabel())

    def trim(self) -> "VSetAutomaton":
        return VSetAutomaton(self.doc_alphabet, self.variables,
                             self.nfa.trim())


def from_extended_nfa(
    extended: NFA,
    doc_alphabet: Iterable[Symbol],
    variables: Iterable[Variable],
) -> VSetAutomaton:
    """Rebuild a VSet-automaton from a block-form (extended) NFA.

    Each block symbol ``(O, s)`` is expanded into a chain that performs
    the operations of ``O`` in the fixed total order and then reads
    ``s``; chains leaving the same state share prefixes (a trie), which
    preserves determinism of the extended automaton and guarantees the
    ordered-operations property of Section 4.2.
    """
    doc_alphabet = frozenset(doc_alphabet)
    variables = frozenset(variables)
    alphabet = doc_alphabet | gamma(variables)
    transitions: List[Tuple] = []
    finals: Set = set()
    states: Set = set()

    def node(state: Hashable, prefix: Tuple[VarOp, ...]) -> Hashable:
        return state if not prefix else ("chain", state, prefix)

    for source, label, target in extended.transitions():
        if label is EPSILON:
            transitions.append((node(source, ()), EPSILON, node(target, ())))
            continue
        ops, letter = label
        sorted_ops = tuple(sorted(ops))
        prefix: Tuple[VarOp, ...] = ()
        for op in sorted_ops:
            here = node(source, prefix)
            nxt = node(source, prefix + (op,))
            transitions.append((here, op, nxt))
            states.update((here, nxt))
            prefix = prefix + (op,)
        tail = node(source, sorted_ops)
        states.add(tail)
        if letter == END_MARKER:
            finals.add(tail)
        else:
            transitions.append((tail, letter, node(target, ())))
            states.add(node(target, ()))
    states.add(extended.initial)
    nfa = NFA(alphabet, states, extended.initial, finals, transitions)
    return VSetAutomaton(doc_alphabet, variables, nfa).trim()
