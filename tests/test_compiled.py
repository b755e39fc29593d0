"""Property tests for the compiled automaton kernel.

The kernel (:mod:`repro.automata.compiled`) must be *observationally
identical* to the dict-of-sets interpreter it replaces: randomized
automata — including epsilon-heavy and empty-language cases — are
checked for exact agreement between the compiled paths
(``NFA.accepts``, ``NFA.is_empty``, ``NFA.to_dfa``,
``NFA.product_is_empty``, ``VSetAutomaton.evaluate``) and the
interpreted references (``accepts_interpreted`` and
``evaluate_interpreted`` of ``tests/reference.py``, reachability over
the materialized product).
The kernel's run-walking search is also held against the breadth-first
search it replaced (``tests/reference.py::reference_search``), and the
chunk runner's literal test (``CompiledSpanner``) against both.
"""

from __future__ import annotations

import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.compiled import (
    LazyDFA,
    bits,
    compile_nfa,
    compile_vset_automaton,
    latin1,
)
from repro.automata.nfa import EPSILON, NFA
from repro.obs.metrics import kernel_metrics
from repro.runtime.fast import CompiledSpanner
from repro.spanners.determinism import MAX_DETERMINISED_SUBSETS, is_dfvsa
from repro.spanners.refwords import Close, Open, gamma
from repro.spanners.regex_formulas import compile_regex_formula
from repro.spanners.vset_automaton import VSetAutomaton

from tests.reference import (
    accepts_interpreted,
    evaluate_interpreted,
    lowered_with_finishable,
    reference_search,
    reference_token_runs,
    suffix_acceptance,
)

ALPHABET = "ab"
MAX_STATES = 6

SETTINGS = dict(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def random_nfas(draw, alphabet: str = ALPHABET, epsilon_heavy: bool = False):
    """A random small NFA; epsilon transitions always possible, and in
    ``epsilon_heavy`` mode they dominate the transition relation."""
    n = draw(st.integers(min_value=1, max_value=MAX_STATES))
    symbols = list(alphabet) + [EPSILON] * (4 if epsilon_heavy else 1)
    n_transitions = draw(st.integers(min_value=0, max_value=3 * n))
    transitions = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.sampled_from(symbols)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(n_transitions)
    ]
    finals = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return NFA(alphabet, range(n), 0, finals, transitions)


@st.composite
def random_vset_automata(draw, alphabet: str = "ab", variables=("x", "y")):
    """A random VSet-automaton over ``alphabet`` and up to two
    variables; not necessarily functional, so evaluation must cope with
    dead variable operations and empty outputs."""
    n_vars = draw(st.integers(min_value=0, max_value=len(variables)))
    used = frozenset(variables[:n_vars])
    ops = sorted(gamma(used)) if used else []
    n = draw(st.integers(min_value=1, max_value=MAX_STATES))
    symbols = list(alphabet) + ops + [EPSILON]
    n_transitions = draw(st.integers(min_value=0, max_value=4 * n))
    transitions = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.sampled_from(symbols)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(n_transitions)
    ]
    finals = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    nfa = NFA(frozenset(alphabet) | gamma(used), range(n), 0, finals,
              transitions)
    return VSetAutomaton(alphabet, used, nfa)


def words_upto(alphabet: str, max_length: int):
    from tests.reference import documents_upto

    return list(documents_upto(alphabet, max_length))


# ----------------------------------------------------------------------
# NFA-level agreement
# ----------------------------------------------------------------------


@settings(**SETTINGS)
@given(random_nfas())
def test_compiled_accepts_agrees(nfa):
    for word in words_upto(ALPHABET, 4):
        assert nfa.accepts(word) == accepts_interpreted(nfa, word)


@settings(**SETTINGS)
@given(random_nfas(epsilon_heavy=True))
def test_compiled_accepts_agrees_epsilon_heavy(nfa):
    for word in words_upto(ALPHABET, 4):
        assert nfa.accepts(word) == accepts_interpreted(nfa, word)


@settings(**SETTINGS)
@given(random_nfas())
def test_compiled_emptiness_agrees(nfa):
    interpreted_empty = not (nfa.reachable_states() & nfa.finals)
    assert nfa.is_empty() == interpreted_empty
    assert nfa.is_empty() == (nfa.shortest_word() is None)


@settings(**SETTINGS)
@given(random_nfas(), random_nfas())
def test_product_emptiness_agrees(left, right):
    product = left.product(right)
    interpreted_empty = not (product.reachable_states() & product.finals)
    assert left.product_is_empty(right) == interpreted_empty


@settings(**SETTINGS)
@given(random_nfas(epsilon_heavy=True))
def test_to_dfa_agrees(nfa):
    dfa = nfa.to_dfa()
    for word in words_upto(ALPHABET, 4):
        assert dfa.accepts(word) == accepts_interpreted(nfa, word)


def test_empty_language_cases():
    nothing = NFA(ALPHABET, [0], 0, [], [])
    assert nothing.is_empty()
    assert not nothing.accepts("")
    assert not nothing.accepts("ab")
    # Final state unreachable from the initial state.
    stranded = NFA(ALPHABET, [0, 1], 0, [1], [(1, "a", 1)])
    assert stranded.is_empty()
    assert not stranded.accepts("a")
    # Epsilon-only acceptance of the empty word.
    eps_only = NFA(ALPHABET, [0, 1], 0, [1], [(0, EPSILON, 1)])
    assert not eps_only.is_empty()
    assert eps_only.accepts("")
    assert not eps_only.accepts("a")


# ----------------------------------------------------------------------
# Invalidation and the lazy DFA
# ----------------------------------------------------------------------


def test_mutation_invalidates_compiled_form_and_caches():
    nfa = NFA(ALPHABET, [0, 1], 0, [1], [(0, "a", 1)])
    assert nfa.accepts("a")
    assert not nfa.accepts("b")
    assert nfa.epsilon_closure({0}) == frozenset({0})
    assert nfa.symbols_from(0) == frozenset({"a"})
    nfa.add_transition(0, "b", 1)
    nfa.add_transition(0, EPSILON, 1)
    assert nfa.accepts("b")
    assert nfa.accepts("")
    assert nfa.epsilon_closure({0}) == frozenset({0, 1})
    assert nfa.symbols_from(0) == frozenset({"a", "b", EPSILON})


def test_lazy_dfa_lru_bound_and_agreement():
    # (a|b)* b (a|b)^2: subset construction has 8+ states, so a cap of
    # 3 must evict — and acceptance must stay exact throughout.
    nfa = NFA(
        ALPHABET,
        range(4),
        0,
        [3],
        [(0, "a", 0), (0, "b", 0), (0, "b", 1),
         (1, "a", 2), (1, "b", 2), (2, "a", 3), (2, "b", 3)],
    )
    compiled = compile_nfa(nfa)
    lazy = LazyDFA(compiled, max_states=3)
    for word in words_upto(ALPHABET, 6):
        current = compiled.start_mask
        accepted = True
        for symbol in word:
            current = lazy.next(current, compiled.symbol_id[symbol])
            if not current:
                accepted = False
                break
        accepted = accepted and bool(current & compiled.finals_mask)
        assert accepted == accepts_interpreted(nfa, word)
    assert len(lazy) <= 3
    assert lazy.evictions > 0
    assert lazy.hits > 0


def test_bits_enumerates_set_bits():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]


def test_compiled_artifacts_pickle():
    nfa = NFA(ALPHABET, range(3), 0, [2],
              [(0, "a", 1), (1, EPSILON, 2), (2, "b", 0)])
    compiled = nfa.compiled()
    compiled.accepts("ab")  # populate the lazy DFA memo
    clone = pickle.loads(pickle.dumps(compiled))
    for word in words_upto(ALPHABET, 4):
        assert clone.accepts(word) == accepts_interpreted(nfa, word)


# ----------------------------------------------------------------------
# VSet-automaton evaluation agreement
# ----------------------------------------------------------------------


@settings(**SETTINGS)
@given(random_vset_automata())
def test_compiled_evaluate_agrees(vsa):
    # Random automata are mostly non-functional and often ambiguous;
    # ``to_functional()`` is the same spanner with the ``finishable``
    # table skipped.  The walk, the breadth-first search it replaced
    # (with the table forced on), the interpreter and the chunk runner
    # — whose literal test sees documents with and without its
    # literals here — must all agree.
    with_table = lowered_with_finishable(vsa)
    functional = vsa.to_functional()
    assert functional.compiled().finishable is None
    forced = lowered_with_finishable(functional)
    documents = words_upto("ab", 3)
    expected = [evaluate_interpreted(vsa, document)
                for document in documents]
    for document, tuples in zip(documents, expected):
        assert vsa.evaluate(document) == tuples
        assert reference_search(with_table, document)[0] == tuples
        assert functional.evaluate(document) == tuples
        assert forced.evaluate(document) == tuples
    for spanner in (vsa, functional):
        assert CompiledSpanner(spanner).evaluate_batch(documents) == expected


@settings(max_examples=30, deadline=None)
@given(random_vset_automata(alphabet="a", variables=("x",)))
def test_compiled_evaluate_agrees_unary(vsa):
    for document in words_upto("a", 4):
        assert vsa.evaluate(document) == evaluate_interpreted(vsa, document)


def test_compiled_evaluate_epsilon_heavy_chain():
    # An epsilon chain threaded between the variable operations.
    x_open, x_close = Open("x"), Close("x")
    nfa = NFA(
        frozenset("ab") | gamma({"x"}),
        range(6),
        0,
        [5],
        [
            (0, EPSILON, 1), (1, x_open, 2), (2, EPSILON, 3),
            (3, "a", 3), (3, "b", 3), (3, x_close, 4), (4, EPSILON, 5),
            (5, "a", 5), (5, "b", 5),
        ],
    )
    vsa = VSetAutomaton("ab", {"x"}, nfa)
    for document in words_upto("ab", 4):
        assert vsa.evaluate(document) == evaluate_interpreted(vsa, document)


def test_compiled_evaluate_empty_language():
    x_open = Open("x")
    # x is opened but never closed: no valid run, empty output.
    nfa = NFA(
        frozenset("a") | gamma({"x"}),
        range(2),
        0,
        [1],
        [(0, x_open, 1), (1, "a", 1)],
    )
    vsa = VSetAutomaton("a", {"x"}, nfa)
    for document in ["", "a", "aa"]:
        assert vsa.evaluate(document) == set()
        assert evaluate_interpreted(vsa, document) == set()


def test_variable_order_cached_and_stable():
    x_open, x_close = Open("x"), Close("x")
    nfa = NFA(
        frozenset("a") | gamma({"x"}),
        range(3),
        0,
        [2],
        [(0, x_open, 1), (1, "a", 1), (1, x_close, 2)],
    )
    vsa = VSetAutomaton("a", {"x"}, nfa)
    first = vsa.variable_order
    assert first is vsa.variable_order  # computed once
    variables, index = first
    assert variables == ("x",)
    assert index == {"x": 0}


# ----------------------------------------------------------------------
# Byte sweep against int sweep
# ----------------------------------------------------------------------

#: Documents mixing the test alphabet with latin-1-but-out-of-alphabet
#: bytes, non-latin-1 BMP characters, and astral characters — the byte
#: sweep must run (or give way) per document and stay identical to the
#: integer sweep on every one of them.
MIXED_DOCS = st.text(
    alphabet="ab .é\xffĀ日\U0001F600", max_size=8
)


@settings(**SETTINGS)
@given(random_nfas(), st.lists(MIXED_DOCS, max_size=6))
def test_accept_tiers_agree(nfa, documents):
    # One membership path for every kind of word: str, str with
    # characters outside latin-1 (and outside the alphabet), and
    # sequences of symbols that are not a str.
    compiled = nfa.compiled()
    for word in list(documents) + words_upto(ALPHABET, 4):
        expected = accepts_interpreted(nfa, word)
        assert compiled.accepts(word) == expected
        assert compiled.accepts(list(word)) == expected
        assert compiled.accepts(tuple(word)) == expected


@settings(**SETTINGS)
@given(random_vset_automata(), st.lists(MIXED_DOCS, max_size=6))
def test_suffix_and_evaluate_tiers_agree(vsa, documents):
    # One lowering, both sweeps: what ``sweep`` selects given the
    # encoded document against the int sweep it falls back to.
    lowered = lowered_with_finishable(vsa)
    states = lowered.base.state_id
    determinised = vsa.determinized()
    if determinised is not None:
        determinised = determinised.compiled()
    for document in list(documents) + words_upto("ab", 3):
        data = latin1(document)
        tables = lowered.finishable.sweep(document, data)
        assert tables == lowered.finishable.sweep_int(document)
        # ... and both are the interpreter's table, restricted to the
        # states the lowering kept (the reachable ones).
        assert [lowered.base.mask_to_states(mask) for mask in tables] == [
            frozenset(state for state in table if state in states)
            for table in suffix_acceptance(vsa, document)
        ]
        # ``alive``: byte sweep == int sweep, and it over-approximates
        # ``finishable`` at every position (variable operations are
        # extra free moves, never fewer).
        alive = lowered.alive.sweep(document, data)
        assert alive == lowered.alive.sweep_int(document)
        assert all(live & done == done
                   for live, done in zip(alive, tables))
        # The main line (bytes) against none (no bytes): same tuples,
        # and the walk without it visits exactly one configuration per
        # byte the main line stepped — or nothing, when either rejects;
        # with no variable there is no walk, only the start collapsing.
        found, visited, main_line, _swept = lowered.search(document, data)
        assert data is not None or main_line == 0
        unaided, unaided_visited, _none, _ = lowered.search(document, None)
        assert found == unaided
        assert unaided_visited == (
            0 if not visited else visited + main_line if vsa.variables
            else 1)
        assert lowered.evaluate(document) \
            == compile_vset_automaton(vsa).evaluate(document)
        # ... and the determinised lowering against the as-given one.
        if determinised is not None:
            assert determinised.search(document, data)[0] == found


#: An alphabet with a non-latin-1 letter: the byte tables cover ``a``
#: and ``b`` only, so documents holding ``Ā`` take the integer
#: sweeps per document while staying inside the alphabet — which lets
#: the pruned search be held against the interpreter on them too.
WIDE = "abĀ"


@settings(**SETTINGS)
@given(random_vset_automata(alphabet=WIDE),
       st.lists(st.text(alphabet=WIDE, max_size=6), max_size=6))
def test_pruned_search_matches_interpreted(vsa, documents):
    # Non-functional automata, zero to two variables, latin-1 and
    # non-latin-1 documents: pruning on ``alive`` loses no tuple.
    for document in documents:
        assert vsa.evaluate(document) == evaluate_interpreted(vsa, document)
    assert CompiledSpanner(vsa).evaluate_batch(documents) == [
        evaluate_interpreted(vsa, document) for document in documents
    ]


@settings(**SETTINGS)
@given(random_vset_automata(alphabet=WIDE),
       st.lists(st.text(alphabet=WIDE, max_size=6), max_size=4))
def test_determinised_runner_matches_interpreted(vsa, documents):
    # The runner lowers Proposition 4.4's determinised automaton; the
    # interpreter runs the automaton as given — non-functional ones
    # included, zero to two variables, latin-1 and wider documents.
    # Every prefix of every document is evaluated too, so documents
    # end inside a capture, right after one, and between captures:
    # the end of the document as the main line's last branch point.
    runner = CompiledSpanner(vsa)
    determinised = vsa.determinized()
    assert determinised is not None  # six states fit the cap
    assert is_dfvsa(determinised)
    assert runner._kernel is determinised.compiled()
    assert runner.describe()["determinised"] == {
        "from": vsa.state_count(), "to": determinised.state_count()}
    texts = [document[:end] for document in documents
             for end in range(len(document) + 1)]
    assert runner.evaluate_batch(texts) == [
        evaluate_interpreted(vsa, text) for text in texts]


def test_qz_determinises_to_a_dfvsa():
    spanner = compile_regex_formula(QZ_RUNS, frozenset(QZ_ALPHABET))
    determinised = spanner.determinized()
    assert determinised is spanner.determinized()  # built once
    assert is_dfvsa(determinised)
    assert (spanner.state_count(), determinised.state_count()) == (71, 23)
    assert CompiledSpanner(spanner).describe()["determinised"] == {
        "from": 71, "to": 23}


def test_determinisation_past_the_cap_keeps_the_automaton():
    # (a|b)* a (a|b)^8 y{b}: the subset construction has to remember
    # the last nine letters — 2^9 subsets, past the cap — so the
    # runner lowers the automaton as given, says so, and answers the
    # same through the same search.
    pattern = "(a|b)*a" + "(a|b)" * 8 + "y{b}"
    spanner = compile_regex_formula(pattern, frozenset("ab"))
    assert spanner.determinized() is None
    runner = CompiledSpanner(spanner)
    assert runner._kernel is spanner.compiled()
    assert runner.describe()["determinised"] == \
        f"kept: subset states > {MAX_DETERMINISED_SUBSETS}"
    documents = ["a" + "b" * 9, "b" * 10, "ab" * 6, "ba" * 6, "", "a"]
    found = runner.evaluate_batch(documents)
    assert found == [evaluate_interpreted(spanner, d) for d in documents]
    assert [len(tuples) for tuples in found] == [1, 0, 1, 0, 0, 0]


@settings(**SETTINGS)
@given(random_vset_automata())
def test_byte_tier_matches_interpreted(vsa):
    compiled = compile_vset_automaton(vsa)
    for document in words_upto("ab", 3):
        assert compiled.evaluate(document) == \
            evaluate_interpreted(vsa, document)


def test_wide_alphabet_reports_v1_tier():
    # Membership does not care that the letters are not latin-1 (what
    # the sweeps report for such an alphabet is
    # ``test_explain_says_why_the_tier_is_not_bytes[wide]``).
    nfa = NFA("ΑΒ", range(2), 0, [1],
              [(0, "Α", 1), (1, "Β", 0)])
    compiled = nfa.compiled()
    assert [compiled.accepts(word) for word in ["Α", "Β", "ΑΒΑ", ""]] \
        == [True, False, True, False]


def test_byte_row_cap_falls_back_to_v1():
    # (a|b)* a (a|b)^9 needs 2^9 forward subset states; the lazy DFA
    # builds only the ones a word visits and answers exactly.
    k = 9
    transitions = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    for i in range(1, k + 1):
        transitions += [(i, "a", i + 1), (i, "b", i + 1)]
    nfa = NFA(ALPHABET, range(k + 2), 0, [k + 1], transitions)
    compiled = nfa.compiled()
    assert compiled.accepts("a" + "b" * k)
    assert not compiled.accepts("b" * (k + 1))
    for word in words_upto(ALPHABET, 4):
        suffixed = word + "a" + "ab" * 4 + "b"
        assert compiled.accepts(suffixed) == accepts_interpreted(nfa, suffixed)
    assert len(compiled.lazy_dfa()) < 2 ** k


@pytest.mark.parametrize("alphabet,k,tier,reason", [
    ("ab", 1, "v2-bytes", None),
    ("ΑΒ", 1, "v1-int", "wide alphabet"),
    ("ab", 9, "v1-int", "byte rows > 256"),
], ids=["bytes", "wide", "row-cap"])
def test_explain_says_why_the_tier_is_not_bytes(alphabet, k, tier, reason):
    # x{} (s|t)^k s (s|t)*: read backwards, ``alive`` must remember
    # the last k+1 letters — 2^(k+1) reverse subsets.  Forwards it is
    # deterministic already: determinising keeps every state.
    from repro import Q, Spanner

    s, t = alphabet
    transitions = [(0, Open("x"), 1), (1, Close("x"), 2)]
    for i in range(2, k + 2):
        transitions += [(i, s, i + 1), (i, t, i + 1)]
    last = k + 3
    transitions += [(k + 2, s, last), (last, s, last), (last, t, last)]
    nfa = NFA(frozenset(alphabet) | gamma({"x"}), range(last + 1), 0,
              [last], transitions)
    vsa = VSetAutomaton(alphabet, {"x"}, nfa)
    results = Q(Spanner.from_vsa(vsa)).over([t * k + s, t * (k + 1)])
    assert [len(tuples) for _doc, tuples in results.stream()] == [1, 0]
    assert results.explain()["kernel"] == {
        "tier": tier, "fallback_reason": reason,
        "finishable_sweep": "skipped: functional",
        "determinised": {"from": k + 4, "to": k + 4},
        "required": [s], "required_reason": None,
        "path": "search", "token_path": "refused: a capture can be empty",
    }


def _counters():
    value = kernel_metrics().value
    return (value("kernel.chunks_rejected"),
            value("kernel.configs_expanded"))


def test_alive_row_cap_falls_back_alone():
    # (a|b)^9 a (a|b)* x{ } with the capture at the very end: reading
    # backwards, ``alive`` has to remember the last ten letters to know
    # whether the tenth from the front is an ``a`` — 2^10 reverse
    # subsets, past the cap — while ``finishable`` (no variable
    # operations) never leaves the final state.  The fallback is per
    # table; the tier reported is ``alive``'s, the sweep every
    # document pays (and the only one this functional automaton has).
    k = 9
    x_open, x_close = Open("x"), Close("x")
    transitions = []
    for i in range(k):
        transitions += [(i, "a", i + 1), (i, "b", i + 1)]
    transitions += [
        (k, "a", k + 1), (k + 1, "a", k + 1), (k + 1, "b", k + 1),
        (k + 1, x_open, k + 2), (k + 2, x_close, k + 3),
    ]
    nfa = NFA(frozenset("ab") | gamma({"x"}), range(k + 4), 0, [k + 3],
              transitions)
    vsa = VSetAutomaton("ab", {"x"}, nfa)
    compiled = compile_vset_automaton(vsa)
    assert compiled.alive.byte_sweeper is None
    assert compiled.finishable is None
    assert compiled.describe() == {
        "tier": "v1-int", "fallback_reason": "byte rows > 256",
        "finishable_sweep": "skipped: functional",
    }
    with_table = lowered_with_finishable(vsa)
    assert with_table.alive.byte_sweeper is None
    assert with_table.finishable.byte_sweeper is not None
    assert with_table.describe() == {
        "tier": "v1-int", "fallback_reason": "byte rows > 256",
        "finishable_sweep": "on: not functional",
    }
    documents = ["", "b" * k + "a", "b" * (k + 1), "a" * (k + 3),
                 "ab" * k, "ba" * k]
    for document in documents:
        assert compiled.evaluate(document) == \
            evaluate_interpreted(vsa, document)
        # ``finishable`` on bytes, then on ints, under ``alive`` on ints.
        assert compiled.evaluate(document) == with_table.evaluate(document) \
            == with_table.search(document, None)[0]
    assert compiled.evaluate("ab" * k) == set()
    assert len(compiled.evaluate("ba" * k)) == 1


A_RUNS = ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}"


def test_dead_initial_state_expands_nothing():
    # y{a+} between spaces: a chunk without an ``a`` has no accepting
    # run at all, so ``alive[0]`` rejects it before any configuration
    # exists; a matching chunk visits configurations on accepting
    # runs only.  Both counters move once per call.
    compiled = compile_regex_formula(A_RUNS, frozenset("ab ")).compiled()
    rejected, expanded = _counters()
    assert compiled.evaluate("bb b bbb") == set()
    assert _counters() == (rejected + 1, expanded)
    assert [compiled.evaluate(d) for d in ["b", "", "bb bb"]] == [set()] * 3
    assert _counters() == (rejected + 4, expanded)
    matching = "bb aaa b"
    assert len(compiled.evaluate(matching)) == 1
    after = _counters()
    assert after[0] == rejected + 4
    assert 0 < after[1] - expanded <= len(matching) + 8
    # A chunk can pass ``alive[0]`` and still produce nothing only when
    # validity (which ``alive`` ignores) kills every run; never here.
    assert compiled.evaluate("b b") == set()
    assert _counters()[0] == rejected + 5
    # The same two counts on a fixed corpus of 200 sentences of 6-12
    # tokens over ``bcdefgh``, every second one with one token replaced
    # by an ``a``-run — the only thing the pattern matches.
    spanner = compile_regex_formula(A_RUNS, frozenset("abcdefgh "))
    compiled = spanner.compiled()
    rng = random.Random(37)
    for index in range(200):
        words = ["".join(rng.choice("bcdefgh")
                         for _ in range(rng.randint(2, 7)))
                 for _ in range(rng.randint(6, 12))]
        if index % 2:
            words[rng.randrange(len(words))] = "a" * rng.randint(1, 4)
        chunk = " ".join(words)
        rejected, expanded = _counters()
        found = compiled.evaluate(chunk)
        assert found == evaluate_interpreted(spanner, chunk)
        assert len(found) == index % 2
        if found:
            after = _counters()
            assert after[0] == rejected
            assert 0 < after[1] - expanded <= len(chunk) + 8
        else:
            assert _counters() == (rejected + 1, expanded)


def test_runner_rejects_on_a_required_literal_before_any_sweep():
    # The chunk runner tests the plan's required literal with ``in``:
    # a chunk lacking it is counted like one ``alive[0]`` rejects, and
    # not a byte of it is swept.  The spanner needs a space on both
    # sides of its capture, so it is not token-local and a chunk that
    # passes the literal test reaches the search.
    spanner = compile_regex_formula(".*( )y{a+}( ).*", frozenset("ab "))
    runner = CompiledSpanner(spanner)
    assert runner.describe() == {
        "tier": "v2-bytes", "fallback_reason": None,
        "finishable_sweep": "skipped: functional",
        "determinised": {"from": 17, "to": 10},
        "required": [" a"], "required_reason": None,
        "path": "search",
        "token_path": "refused: not token-local: differs on document "
                      "'a', tuple SpanTuple({'y': Span(1, 2)})",
    }
    swept = kernel_metrics().counter("kernel.bytes_swept")
    stepped = kernel_metrics().counter("kernel.main_line_bytes")
    rejected, expanded = _counters()
    swept_before, stepped_before = swept.value, stepped.value
    assert runner.evaluate_batch(["bb b bbb", "", "b"]) == [set()] * 3
    assert _counters() == (rejected + 3, expanded)
    assert (swept.value, stepped.value) == (swept_before, stepped_before)
    matching = "bb aaa b"
    found = runner.evaluate(matching)
    after = _counters()
    assert after[0] == rejected + 3
    assert 0 < after[1] - expanded <= len(matching) + 8
    # The determinised automaton steps forward up to the first place a
    # capture could begin (``a`` after a space), and sweeps the rest
    # once: a functional plan has one table.
    main_line = matching.index(" a") + 1
    assert stepped.value == stepped_before + main_line
    assert swept.value == swept_before + len(matching) - main_line
    assert found == spanner.evaluate(matching) and len(found) == 1


def test_explain_says_a_black_box_tests_no_literal():
    # A program whose executable is not a lowered automaton has no
    # kernel to describe, and nothing is tested ahead of it.
    from repro import Q, Spanner
    from repro.runtime.fast import RegexSpanner

    specification = compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*|.*(\\.| )y{a+}|y{a+}",
        frozenset("ab ."))
    black_box = RegexSpanner(r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)",
                             specification=specification)
    results = Q(Spanner(black_box)).split_by("tokens").over(["aa b a."])
    assert results.materialize()["doc-0000"] \
        == specification.evaluate("aa b a.")
    report = results.explain()
    assert report["kernel"] == {
        "tier": None, "fallback_reason": None, "finishable_sweep": None,
        "required": [], "required_reason": "black-box executable",
    }
    assert report["kernel_tier"] is None


def test_foreign_symbol_raises_even_without_the_literal():
    # The alphabet guard comes before the literal test: a chunk that
    # lacks the literal *and* holds a symbol outside the alphabet must
    # not be answered "no tuples".
    runner = CompiledSpanner(
        compile_regex_formula(A_RUNS, frozenset("ab ")))
    for document in ("bb c", "bb \xe9", "bb \u0100", ["b", "c"]):
        with pytest.raises(ValueError, match="not in alphabet"):
            runner.evaluate(document)
        with pytest.raises(ValueError, match="not in alphabet"):
            runner.evaluate_batch(["bb", document])


def test_step_zero_is_for_text_over_single_character_alphabets():
    # Symbol sequences skip the literal test and agree with text ...
    spanner = compile_regex_formula(A_RUNS, frozenset("ab "))
    runner = CompiledSpanner(spanner)
    for document in words_upto("ab ", 4):
        expected = evaluate_interpreted(spanner, document)
        assert runner.evaluate(document) == expected
        assert runner.evaluate(list(document)) == expected
        assert runner.evaluate(tuple(document)) == expected
    # ... and an alphabet of longer symbols has no factor analysis,
    # hence no literals to test.
    x_open, x_close = Open("x"), Close("x")
    nfa = NFA(frozenset({"ab", "c"}) | gamma({"x"}), range(4), 0, [3],
              [(0, "c", 0), (0, x_open, 1), (1, "ab", 2), (2, x_close, 3),
               (3, "c", 3)])
    tokens = VSetAutomaton({"ab", "c"}, {"x"}, nfa)
    runner = CompiledSpanner(tokens)
    assert runner.describe()["required"] == []
    assert runner.describe()["required_reason"] == "non-character alphabet"
    for document in (["c", "ab", "c"], ("ab",), ["c"], []):
        assert runner.evaluate(document) \
            == evaluate_interpreted(tokens, document)


def test_pickled_runner_keeps_its_literals():
    # What a spawned pool worker receives.
    spanner = compile_regex_formula(A_RUNS, frozenset("ab "))
    runner = CompiledSpanner(spanner)
    clone = pickle.loads(pickle.dumps(runner))
    assert clone.describe() == runner.describe()
    assert clone._kernel.finishable is None
    documents = words_upto("ab ", 4)
    assert clone.evaluate_batch(documents) \
        == runner.evaluate_batch(documents)
    rejected, _expanded = _counters()
    assert clone.evaluate("bbb") == set()
    assert _counters()[0] == rejected + 1


def test_ambiguous_automaton_stays_polynomial():
    # (a|a)* y{a} (a|a)*: 2^p runs reach position p.  Every position
    # is a branch point (two live letter moves, one live operation);
    # pushed configurations are deduplicated, so the visit count is
    # linear here — far under the documented
    # pushed-configurations x document-length bound, and nowhere near
    # the number of runs.
    spanner = compile_regex_formula("(a|a)*y{a}(a|a)*", frozenset("a"))
    compiled = spanner.compiled()
    document = "a" * 40
    _rejected, expanded = _counters()
    tuples = compiled.evaluate(document)
    visited = _counters()[1] - expanded
    assert len(tuples) == 40
    assert tuples == reference_search(
        lowered_with_finishable(spanner), document)[0]
    states = compiled.base.n_states
    assert visited <= 4 * states * (len(document) + 1)


QZ_ALPHABET = "abc qz."
QZ_RUNS = (".*(\\.| )y{qz+}(\\.| ).*|y{qz+}(\\.| ).*"
           "|.*(\\.| )y{qz+}|y{qz+}")


@pytest.fixture(scope="module")
def qz_queries():
    """The ledger's ``qz`` plan — ``qz``-runs, documents split at
    ``.`` — in process and on a pool of two, one pool for the module."""
    from repro import Q, Spanner, Splitter, separator_splitter
    from repro.runtime.fast import FastSeparatorSplitter

    spanner = Spanner.regex(QZ_RUNS, QZ_ALPHABET)
    splitter = Splitter.from_vsa(
        separator_splitter(frozenset(QZ_ALPHABET), "."), name="sentences",
        executor=FastSeparatorSplitter("."))
    queries = [Q(spanner).split_by(splitter).workers(workers)
               for workers in (0, 2)]
    yield spanner, queries
    for query in queries:
        query.engine().close()


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from(
        ["ab", "c", "qz", "qzz", "q", "z", "zq", "aqz", "qz.", ".", "b."]),
        max_size=9).map(" ".join),
    min_size=1, max_size=6))
def test_pool_equals_in_process_equals_whole(qz_queries, texts):
    # Sentences with and without the literal, on both sides of the
    # process boundary: forked workers run the same literal test.
    from repro.runtime.executor import evaluate_whole

    spanner, (in_process, pooled) = qz_queries
    expected = {f"doc-{position:04d}": evaluate_whole(spanner.vsa(), text)
                for position, text in enumerate(texts)}
    results = in_process.over(texts)
    assert results.explain()["kernel"]["required"] == ["qz"]
    assert results.materialize() == expected
    assert pooled.over(texts).materialize() == expected


def test_byte_artifacts_pickle_across_protocols():
    nfa = NFA(ALPHABET, range(3), 0, [2],
              [(0, "a", 1), (1, EPSILON, 2), (2, "b", 0)])
    compiled = nfa.compiled()
    for protocol in (2, 4, 5):
        clone = pickle.loads(pickle.dumps(compiled, protocol=protocol))
        for word in words_upto(ALPHABET, 4):
            assert clone.accepts(word) == accepts_interpreted(nfa, word)


def test_non_string_documents_use_int_tier():
    # Sequences of symbols (not str) cannot be byte-encoded; ``sweep``
    # must give them the int sweep and agree with the byte sweep of
    # the same document as a str.
    x_open, x_close = Open("x"), Close("x")
    nfa = NFA(
        frozenset("ab") | gamma({"x"}),
        range(3),
        0,
        [2],
        [(0, x_open, 1), (1, "a", 1), (1, "b", 1), (1, x_close, 2)],
    )
    vsa = VSetAutomaton("ab", {"x"}, nfa)
    compiled = compile_vset_automaton(vsa)
    for document in words_upto("ab", 3):
        as_list = list(document)
        assert compiled.alive.sweep(as_list, latin1(as_list)) == \
            compiled.alive.sweep(document, latin1(document))
        assert compiled.evaluate(as_list) == compiled.evaluate(document)


def test_vsa_compiled_tracks_nfa_mutation():
    x_open, x_close = Open("x"), Close("x")
    nfa = NFA(
        frozenset("ab") | gamma({"x"}),
        range(3),
        0,
        [2],
        [(0, x_open, 1), (1, "a", 1), (1, x_close, 2)],
    )
    vsa = VSetAutomaton("ab", {"x"}, nfa)
    before = vsa.evaluate("aa")
    assert before == evaluate_interpreted(vsa, "aa")
    nfa.add_transition(1, "b", 1)  # widen the captured language
    after = vsa.evaluate("ab")
    assert after == evaluate_interpreted(vsa, "ab")
    assert any(t["x"].length == 2 for t in after)


# ----------------------------------------------------------------------
# The token path: token-local spanners proved once, evaluated by ``re``
# ----------------------------------------------------------------------

TOKEN_LETTERS = "abc"
#: ``]``, ``^``, a backslash and ``-`` mean something inside a
#: character class, and the token path's pattern puts ``D`` and ``I``
#: in three.
TOKEN_DELIMITERS = " .-]^\\"


@st.composite
def token_programs(draw):
    """``(Σ, D, T)``: delimiters ``D``, a formula ``T`` over ``Σ∖D``
    without ``ε`` (at least one item is neither starred nor optional),
    and the alphabet ``Σ`` — ``D``, ``a``, ``b`` and maybe more."""
    delimiters = "".join(sorted(draw(st.sets(
        st.sampled_from(TOKEN_DELIMITERS), min_size=1))))
    others = [c for c in TOKEN_LETTERS + TOKEN_DELIMITERS
              if c not in delimiters]
    letters = "ab" + "".join(sorted(draw(st.sets(
        st.sampled_from(others[2:]), max_size=3))))
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        chosen = draw(st.lists(st.sampled_from(letters), min_size=1,
                               max_size=2, unique=True))
        atom = "(%s)" % "|".join("\\" + c for c in chosen)
        items.append(atom + draw(st.sampled_from(["", "+", "*", "?"])))
    if all(item[-1] in "*?" for item in items):
        items[0] = items[0][:-1]
    return letters + delimiters, delimiters, "".join(items)


def _boundary(delimiters: str) -> str:
    return "(%s)" % "|".join("\\" + c for c in delimiters)


def _four_alternatives(delimiters: str, captured: str) -> str:
    d, y = _boundary(delimiters), "y{%s}" % captured
    return f".*{d}{y}{d}.*|{y}{d}.*|.*{d}{y}|{y}"


def _hand_built(alphabet: str, delimiters: str, captured: str):
    """``(ε | Σ*D) y{T} (ε | DΣ*)`` as a VSA with ``T`` spliced in from
    its language NFA: not a formula's Thompson automaton."""
    inner = compile_regex_formula(captured, frozenset(alphabet)).nfa
    moves = [("start", Open("y"), ("T", inner.initial))]
    moves += [(("T", f), Close("y"), "closed") for f in inner.finals]
    moves += [(("T", s), symbol, ("T", t))
              for s, symbol, t in inner.transitions()]
    for letter in alphabet:
        moves += [("start", letter, "before"), ("before", letter, "before"),
                  ("after", letter, "after")]
    for letter in delimiters:
        moves += [("start", letter, "bound"), ("before", letter, "bound"),
                  ("closed", letter, "after")]
    moves.append(("bound", Open("y"), ("T", inner.initial)))
    nfa = NFA(frozenset(alphabet) | gamma({"y"}), (), "start",
              ("closed", "after"), moves)
    return VSetAutomaton(alphabet, {"y"}, nfa)


def _token_documents(alphabet: str):
    # Biased to delimiters so that empty tokens, runs of delimiters and
    # tokens touching either end are common.
    return st.lists(st.text(alphabet=alphabet + alphabet[-1] * 3,
                            max_size=10), min_size=1, max_size=8)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_token_path_is_admitted_for_token_local_spanners(data):
    alphabet, delimiters, captured = data.draw(token_programs())
    documents = data.draw(_token_documents(alphabet))
    documents += [delimiters * 2, delimiters[0] + "a", "a" + delimiters[0]]
    sigma = frozenset(alphabet)
    d = _boundary(delimiters)
    forms = [
        compile_regex_formula(_four_alternatives(delimiters, captured),
                              sigma),
        compile_regex_formula(f"(.*{d}|)y{{{captured}}}({d}.*|)", sigma),
        _hand_built(alphabet, delimiters, captured),
    ]
    for spanner in forms:
        runner = CompiledSpanner(spanner)
        assert runner.describe()["path"] == "token", \
            runner.describe()["token_path"]
        assert runner.describe()["token_path"]["delimiters"] == delimiters
        assert runner.evaluate_batch(documents) == [
            spanner.evaluate(document) for document in documents]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_token_path_refuses_near_misses(data):
    alphabet, delimiters, captured = data.draw(token_programs())
    documents = data.draw(_token_documents(alphabet))
    sigma = frozenset(alphabet)
    d, y = _boundary(delimiters), "y{%s}" % captured
    near_misses = [
        # A capture that can read a delimiter.
        _four_alternatives(delimiters, f"{captured}{d}{captured}"),
        # A missing boundary alternative (the bare token).
        f".*{d}{y}{d}.*|{y}{d}.*|.*{d}{y}",
        f".*{y}.*",
        # A binary capture.
        f"(.*{d}|)x{{{y}}}({d}.*|)",
    ]
    for pattern in near_misses:
        spanner = compile_regex_formula(pattern, sigma)
        runner = CompiledSpanner(spanner)
        assert runner.describe()["path"] == "search", pattern
        assert runner.describe()["token_path"].startswith("refused: ")
        assert runner.evaluate_batch(documents) == [
            spanner.evaluate(document) for document in documents]


def test_token_path_says_why_it_was_refused():
    def refusal(pattern, alphabet="ab "):
        runner = CompiledSpanner(
            compile_regex_formula(pattern, frozenset(alphabet)))
        return runner.describe()["token_path"]

    assert refusal(A_RUNS) == {"delimiters": " ", "letters": "a"}
    assert refusal(".*y{a+}.*") == \
        "refused: a capture can read a delimiter: 'a'"
    assert refusal("(.* |)y{a*}( .*|)") == "refused: a capture can be empty"
    assert refusal("y{a+}") == \
        "refused: no delimiter before an open or after a close"
    assert refusal("(.* |)x{a}y{b}( .*|)") == "refused: not unary"
    # Both delimiters are needed: ``P`` and ``C`` differ on the bare
    # token, and the witness says so.
    assert refusal(".*( )y{a+}( ).*") == (
        "refused: not token-local: differs on document 'a', "
        "tuple SpanTuple({'y': Span(1, 2)})")


def test_token_path_proof_is_bounded():
    # T = (a|b)* a (a|b)^12: determinising T must remember its last 13
    # letters, so the proof's subset pairs double with each letter of
    # the window.  The proof stops at its pair limit (about 45 ms on a
    # two-vCPU host) and the runner keeps the search.
    from repro.runtime.fast import MAX_TOKEN_PROOF_PAIRS

    pattern = "(.* |)y{(a|b)*a" + "(a|b)" * 12 + "}( .*|)"
    spanner = compile_regex_formula(pattern, frozenset("ab "))
    started = time.perf_counter()
    runner = CompiledSpanner(spanner)
    assert time.perf_counter() - started < 5.0
    assert runner.describe()["token_path"] == (
        f"refused: undecided: equivalence proof passed "
        f"{MAX_TOKEN_PROOF_PAIRS} subset pairs")
    documents = ["a" + "b" * 12, "b " + "ab" * 7, "ba" * 7 + " b"]
    assert runner.evaluate_batch(documents) == [
        spanner.evaluate(document) for document in documents]


def test_token_path_counts_rejections_and_sweeps_nothing():
    # A chunk past step 0 with no token in T counts as rejected; a
    # matching one counts nothing; neither sweeps or steps a byte.
    spanner = compile_regex_formula(A_RUNS, frozenset("ab "))
    runner = CompiledSpanner(spanner)
    metrics = kernel_metrics()
    names = ("kernel.chunks_rejected", "kernel.configs_expanded",
             "kernel.main_line_bytes", "kernel.bytes_swept")
    before = [metrics.value(name) for name in names]
    documents = ["bb b", "ab ba", "bb aaa b", "a", " aa  a "]
    found = runner.evaluate_batch(documents)
    after = [metrics.value(name) for name in names]
    assert [a - b for a, b in zip(after, before)] == [2, 0, 0, 0]
    assert found == [spanner.evaluate(document) for document in documents]
    assert [len(tuples) for tuples in found] == [0, 0, 1, 1, 2]


def test_pickled_runner_keeps_its_token_path():
    spanner = compile_regex_formula(A_RUNS, frozenset("ab "))
    runner = CompiledSpanner(spanner)
    # Proved once per spanner: every runner of it shares the path.
    assert CompiledSpanner(spanner)._tokens is runner._tokens
    runner.evaluate("aa a")
    clone = pickle.loads(pickle.dumps(runner))
    assert clone.describe() == runner.describe()
    assert clone.describe()["path"] == "token"
    documents = words_upto("ab ", 4)
    assert clone.evaluate_batch(documents) \
        == runner.evaluate_batch(documents)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_token_scan_pattern_finds_the_lookaround_runs(data):
    # The scan's pattern opens with a character class of the letters a
    # word of T can begin with, so sre skips to the next one; the
    # lookaround pattern it replaced is the oracle.  When T can begin
    # with every letter of I the two find the same runs, else the runs
    # that begin with one of T's first letters.
    alphabet, delimiters, _captured = data.draw(token_programs())
    letters = "".join(sorted(set(alphabet) - set(delimiters)))
    any_letter = "(%s)" % "|".join("\\" + c for c in letters)
    d = _boundary(delimiters)
    text = data.draw(st.text(alphabet=alphabet + "x", max_size=30))
    runs = reference_token_runs(text, delimiters, letters)
    for captured, first in ((any_letter + "+", letters),
                            ("a" + any_letter + "*", "a")):
        spanner = compile_regex_formula(f"(.*{d}|)y{{{captured}}}({d}.*|)",
                                        frozenset(alphabet))
        tokens = CompiledSpanner(spanner)._tokens
        assert tokens.letters == letters
        assert [match.span() for match in tokens._finditer(text)] == [
            (start, end) for start, end in runs if text[start] in first]


#: A token-local program over an alphabet with letters and a delimiter
#: above U+00FF: its chunks take the token path but not the byte guard.
UNICODE_TOKENS = ("abā —", " —", "(a|ā)(a|b|ā)*")


@st.composite
def token_batches(draw):
    """``(program, texts, foreign)``: a batch of texts over the
    program's alphabet — empty and delimiter-only texts, texts that
    begin or end with a letter of ``I``, in any order — and, maybe,
    the position of one text holding a symbol outside the alphabet."""
    alphabet, delimiters, captured = draw(
        st.one_of(token_programs(), st.just(UNICODE_TOKENS)))
    letters = [c for c in alphabet if c not in delimiters]
    text = st.text(alphabet=alphabet + delimiters * 2, max_size=12)
    texts = draw(st.lists(text, max_size=8))
    texts += ["", delimiters, draw(st.sampled_from(letters)) + draw(text),
              draw(text) + draw(st.sampled_from(letters))]
    texts = draw(st.permutations(texts))
    foreign = draw(st.none() | st.integers(0, len(texts) - 1))
    if foreign is not None:
        texts[foreign] += "x" + draw(text)
    return (alphabet, delimiters, captured), texts, foreign


def _kernel_counters():
    value = kernel_metrics().value
    return [value(name) for name in (
        "kernel.chunks_rejected", "kernel.configs_expanded",
        "kernel.main_line_bytes", "kernel.bytes_swept")]


@settings(max_examples=60, deadline=None)
@given(token_batches(), st.integers(1, 40))
def test_token_scan_answers_every_batch_shape(batch, cap):
    # The scan joins a batch's texts (fewer than ``cap`` characters a
    # join, a longer text alone) and must answer each text as the
    # oracle does, count a rejection per empty answer and a latency
    # sample per text — or raise the oracle's error for the first
    # foreign text and move no counter.
    from unittest import mock

    from repro.obs.metrics import Histogram
    from repro.runtime import fast

    (alphabet, delimiters, captured), texts, foreign = batch
    d = _boundary(delimiters)
    spanner = compile_regex_formula(f"(.*{d}|)y{{{captured}}}({d}.*|)",
                                    frozenset(alphabet))
    runner = CompiledSpanner(spanner)
    assert runner.describe()["path"] == "token"
    latency = Histogram("chunk_seconds", {})
    before = _kernel_counters()
    with mock.patch.object(fast, "MAX_SCAN_CHARS", cap):
        if foreign is not None:
            with pytest.raises(ValueError) as expected:
                spanner.check_document(texts[foreign])
            with pytest.raises(ValueError) as raised:
                runner.evaluate_batch(texts, latency)
            assert str(raised.value) == str(expected.value)
            assert _kernel_counters() == before
            assert latency.count == 0
            return
        found = runner.evaluate_batch(texts, latency)
    rejected = sum(not tuples for tuples in found)
    assert _kernel_counters() == [before[0] + rejected, *before[1:]]
    assert latency.count == len(texts)
    assert found == [spanner.evaluate(text) for text in texts]


class _CountingAccepts:
    """A compiled ``T`` that records every text it is asked about."""

    def __init__(self, captured):
        self.captured = captured
        self.asked = []

    def accepts(self, token):
        self.asked.append(token)
        return self.captured.accepts(token)


@settings(max_examples=60, deadline=None)
@given(token_batches(), st.integers(1, 40))
def test_token_columns_are_the_scans_columns(batch, cap):
    # The pool's whole-document route takes the token path's ints
    # (``scan_columns``) where the scan builds tuples: per text the
    # same relation as ``_columns`` of the scan, one ``begin, end``
    # pair per tuple, each distinct candidate token tested once, one
    # rejection per empty answer and a latency sample per text — or
    # the oracle's error for the first foreign text, with no counter
    # moved and no sample taken.
    from unittest import mock

    from repro.obs.metrics import Histogram
    from repro.runtime import fast
    from repro.runtime.executor import _columns, relation_of

    (alphabet, delimiters, captured), texts, foreign = batch
    d = _boundary(delimiters)
    spanner = compile_regex_formula(f"(.*{d}|)y{{{captured}}}({d}.*|)",
                                    frozenset(alphabet))
    runner = CompiledSpanner(spanner)
    tokens = runner._tokens
    latency = Histogram("chunk_seconds", {})
    counting = _CountingAccepts(tokens.captured)
    before = _kernel_counters()
    with mock.patch.object(fast, "MAX_SCAN_CHARS", cap):
        if foreign is not None:
            with pytest.raises(ValueError) as expected:
                spanner.check_document(texts[foreign])
            with pytest.raises(ValueError) as raised:
                runner.scan_columns(texts, latency)
            assert str(raised.value) == str(expected.value)
            assert _kernel_counters() == before
            assert latency.count == 0
            return
        with mock.patch.object(tokens, "captured", counting):
            columns = runner.scan_columns(texts, latency)
        scanned = tokens.scan(texts)
    rejected = sum(not found for found in scanned)
    assert _kernel_counters() == [before[0] + rejected, *before[1:]]
    assert latency.count == len(texts)
    assert sorted(counting.asked) == sorted(
        {match.group() for text in texts
         for match in tokens._finditer(text)})
    assert len(columns) == len(texts)
    for found, written, text in zip(scanned, columns, texts):
        assert relation_of(written) == relation_of(_columns(found)) \
            == spanner.evaluate(text), text
        assert written == ([(tokens.variables, written[0][1])] if found
                           else [])
        if found:
            assert len(written[0][1]) == 2 * len(found)


def test_scan_columns_leave_other_batches_to_the_caller():
    # Off the token path nothing is scanned: the caller evaluates.
    runner = CompiledSpanner(compile_regex_formula(".*y{a+}.*",
                                                   frozenset("ab ")))
    before = _kernel_counters()
    assert runner.scan_columns(["aa b"]) is None
    assert _kernel_counters() == before
    tokens = CompiledSpanner(compile_regex_formula(A_RUNS,
                                                   frozenset("ab ")))
    assert tokens.scan_columns([b"aa b"]) is None
    assert tokens.scan_columns(["aa b", "b"]) == [[(("y",), (1, 3))], []]


def test_token_scan_leaves_a_text_over_the_cap_alone():
    from repro.runtime.fast import MAX_SCAN_CHARS

    spanner = compile_regex_formula(A_RUNS, frozenset("ab "))
    runner = CompiledSpanner(spanner)
    long = ("aa b " * (MAX_SCAN_CHARS // 5 + 1)).strip()
    texts = ["a", long, "b a", long[:MAX_SCAN_CHARS - 1], "a", ""]
    assert len(long) > MAX_SCAN_CHARS
    assert runner.evaluate_batch(texts) == [
        spanner.evaluate(text) for text in texts]
