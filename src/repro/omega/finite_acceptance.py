"""Finite-acceptance automata and the finitely-regular test.

The paper (Section 3.2) characterizes Templog / Datalog1S yes-no query
expressiveness as the **finitely regular** ω-languages: ``L`` is
finitely regular when it is obtained by extending the words of a
regular language ``L'`` to infinite words in all possible ways —
equivalently, when it is accepted by a *finite-acceptance* automaton,
which accepts an ω-word as soon as it accepts a finite prefix.

Topologically these are exactly the **open** ω-regular languages
(finite unions of cylinders ``u·Σ^ω``).  For a language given by a
*deterministic* Büchi automaton, openness — hence finite regularity —
is decidable by a reachability analysis, implemented here in
:func:`is_deterministic_buchi_open`.
"""

from __future__ import annotations

from repro.omega.buchi import BuchiAutomaton


class FiniteAcceptanceAutomaton:
    """An NFA read over ω-words: accepts ``w`` iff the underlying NFA
    accepts some finite prefix of ``w``."""

    def __init__(self, nfa):
        self.nfa = nfa

    @property
    def alphabet(self):
        return self.nfa.alphabet

    def accepts_lasso(self, prefix, loop):
        """Membership of ``prefix·loop^ω``: does some finite prefix hit
        an accepting subset?  Decided on the (subset, loop position)
        graph, which is finite."""
        if not loop:
            raise ValueError("the loop part must be non-empty")
        current = self.nfa.initial
        if current & self.nfa.accepting:
            return True
        for symbol in prefix:
            current = self.nfa.step(current, symbol)
            if current & self.nfa.accepting:
                return True
        seen = {(current, 0)}
        queue = [(current, 0)]
        n = len(loop)
        while queue:
            subset, position = queue.pop()
            target = self.nfa.step(subset, loop[position])
            if target & self.nfa.accepting:
                return True
            node = (target, (position + 1) % n)
            if node not in seen:
                seen.add(node)
                queue.append(node)
        return False

    def to_buchi(self):
        """The equivalent Büchi automaton: once a prefix is accepted,
        jump to an always-accepting sink."""
        sink = "_accept_sink"
        states = set(self.nfa.states) | {sink}
        transitions = {}
        for (state, symbol), targets in self.nfa.transitions.items():
            expanded = set(targets)
            if targets & self.nfa.accepting:
                expanded.add(sink)
            transitions[(state, symbol)] = expanded
        for symbol in self.nfa.alphabet:
            transitions[(sink, symbol)] = {sink}
        initial = set(self.nfa.initial)
        if initial & self.nfa.accepting:
            # The empty prefix is already accepted: the language is Σ^ω.
            initial.add(sink)
        return BuchiAutomaton(
            states, self.nfa.alphabet, transitions, initial, {sink}
        )

    def is_empty(self):
        """True when no ω-word is accepted — i.e. the prefix NFA
        accepts nothing reachable."""
        return self.to_buchi().is_empty()


def _universal_states(buchi):
    """States of a deterministic Büchi automaton from which **every**
    infinite continuation is accepted.

    From state q every run is accepting iff no cycle avoiding the
    accepting set is reachable from q (any such cycle supports a
    rejected run; conversely a rejected run eventually recurs inside
    an accepting-free cycle).
    """
    # States lying on a cycle within the subgraph avoiding accepting states.
    avoid = {state for state in buchi.states if state not in buchi.accepting}
    on_bad_cycle = set()
    for state in avoid:
        # reachable from state within `avoid`, in >= 1 step
        frontier = set()
        for symbol in buchi.alphabet:
            frontier |= {
                t for t in buchi.successors(state, symbol) if t in avoid
            }
        seen = set(frontier)
        queue = list(frontier)
        found = state in seen
        while queue and not found:
            node = queue.pop()
            if node == state:
                found = True
                break
            for symbol in buchi.alphabet:
                for target in buchi.successors(node, symbol):
                    if target in avoid and target not in seen:
                        seen.add(target)
                        queue.append(target)
        if found or state in frontier:
            on_bad_cycle.add(state)
    # Universal states: cannot reach any bad-cycle state.
    universal = set()
    for state in buchi.states:
        seen = {state}
        queue = [state]
        tainted = state in on_bad_cycle
        while queue and not tainted:
            node = queue.pop()
            if node in on_bad_cycle:
                tainted = True
                break
            for symbol in buchi.alphabet:
                for target in buchi.successors(node, symbol):
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        if not tainted:
            universal.add(state)
    return universal


def is_deterministic_buchi_open(buchi):
    """Decide whether the language of a **deterministic** Büchi
    automaton is open — equivalently (for ω-regular languages)
    finitely regular, i.e. within Templog/Datalog1S yes-no query
    expressiveness.

    ``L`` is open iff every accepted word has a prefix reaching a
    universal state: equivalently, iff the automaton restricted to
    non-universal states accepts nothing.
    """
    if not buchi.is_deterministic():
        raise ValueError("the openness test needs a deterministic automaton")
    complete = all(
        buchi.successors(state, symbol)
        for state in buchi.states
        for symbol in buchi.alphabet
    )
    if not complete:
        raise ValueError(
            "the openness test needs a complete automaton (add a "
            "rejecting sink for missing transitions)"
        )
    universal = _universal_states(buchi)
    restricted_states = buchi.states - frozenset(universal)
    transitions = {}
    for (state, symbol), targets in buchi.transitions.items():
        if state in restricted_states:
            kept = {t for t in targets if t in restricted_states}
            if kept:
                transitions[(state, symbol)] = kept
    restricted = BuchiAutomaton(
        restricted_states,
        buchi.alphabet,
        transitions,
        buchi.initial & frozenset(restricted_states),
        buchi.accepting & frozenset(restricted_states),
    )
    return restricted.is_empty()
